//! The reference oracle: each query's answer computed from the inputs
//! by the engine's simplest path — `Local` transport, sequential
//! prepare, sequential probe, row-layout tries — under the same
//! shuffle×join configuration the measured query runs, so collected
//! outputs must agree byte for byte.

use parjoin_common::Database;
use parjoin_engine::{
    run_config, Cluster, JoinAlg, PlanOptions, RunResult, ShuffleAlg, TransportKind, TrieLayout,
};
use parjoin_query::ConjunctiveQuery;

/// What a correct run of one query returns.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Result tuples.
    pub output_tuples: u64,
    /// `Relation::fingerprint` of the collected output, when the
    /// workload collects it.
    pub fingerprint: Option<u128>,
}

impl Expected {
    /// Runs `query` under the reference options. `collect` also records
    /// the output's fingerprint.
    pub fn compute(
        query: &ConjunctiveQuery,
        db: &Database,
        cluster: &Cluster,
        (shuffle, join): (ShuffleAlg, JoinAlg),
        collect: bool,
    ) -> Result<Expected, String> {
        let opts = PlanOptions {
            collect_output: collect,
            sequential_prepare: true,
            sequential_probe: true,
            trie_layout: TrieLayout::Row,
            ..PlanOptions::default()
        };
        let local = cluster.clone().with_transport(TransportKind::Local);
        let r = run_config(query, db, &local, shuffle, join, &opts)
            .map_err(|e| format!("oracle for {}: {e}", query.name))?;
        Ok(Expected {
            output_tuples: r.output_tuples,
            fingerprint: r.output.as_ref().map(|o| o.fingerprint()),
        })
    }

    /// True when `run` returned this answer.
    pub fn matches(&self, run: &RunResult) -> bool {
        let same_bytes = match (self.fingerprint, &run.output) {
            (Some(fp), Some(out)) => out.fingerprint() == fp,
            _ => true,
        };
        run.output_tuples == self.output_tuples && same_bytes
    }
}
