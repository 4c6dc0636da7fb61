//! The two single-caller, in-process Q1 workloads:
//!
//! * `tri_hc_tj_cold` — `HC_TJ` on the `Local` transport with both
//!   caches cleared before every query: the paper's headline
//!   configuration, each query paying for its own planning, routing,
//!   sort, trie build and probe.
//! * `tri_rs_hj_stream` — `RS_HJ` on the `InProcess` streaming
//!   transport: two regular-shuffle rounds through the runtime, the wire
//!   format and the buffer pool, then hash joins over a large
//!   intermediate. Sort, tries, optimisers and caches do nothing here.

use crate::counters::RunStats;
use crate::layers::{self, ReplayFacts, Tracer};
use crate::oracle::Expected;
use crate::spec::Metrics;
use crate::stats;
use crate::window::{closed_loop, ms, Meter, OpResult, Window};
use crate::workload::{
    self, RunCfg, Workload, CLUSTER_SEED, MIN_TRACED_OPS, TRACED_OPS, WARMUP_OPS,
};
use parjoin_common::Database;
use parjoin_datagen::{workloads, Scale};
use parjoin_engine::{
    run_config, Cluster, JoinAlg, PlanOptions, RunResult, ShuffleAlg, SortCache, TransportKind,
    TrieCache,
};
use parjoin_query::{resolve_atoms, ConjunctiveQuery};
use std::time::{Duration, Instant};

/// Twitter-like graph of `tri_hc_tj_cold` (and of the mesh workload,
/// which runs the same query on the same data): ≈72 k edges.
pub const COLD_SCALE: Scale = Scale {
    twitter_nodes: 12_000,
    twitter_m: 6,
    freebase_performances: 0,
};

/// Twitter-like graph of `tri_rs_hj_stream`: ≈40 k edges, sized so the
/// ≈1.27 M shuffled tuples keep a query under 100 ms.
const STREAM_SCALE: Scale = Scale {
    twitter_nodes: 8_000,
    twitter_m: 5,
    freebase_performances: 0,
};

/// Q1 with its generated graph and expected answer.
pub struct Q1Inputs {
    /// The triangle query.
    pub query: ConjunctiveQuery,
    /// The one-relation Twitter-like database.
    pub db: Database,
    /// The oracle's answer.
    pub expected: Expected,
    /// Tuples over all atoms after selection pushdown.
    pub base_tuples: u64,
    /// Time `Scale::db_for` took, in ms.
    pub datagen_ms: f64,
}

impl Q1Inputs {
    /// Generates the graph from `data_seed`, reorders its rows by
    /// `row_seed` when there is one, and runs the oracle under `config`.
    pub fn generate(
        scale: Scale,
        data_seed: u64,
        row_seed: Option<u64>,
        cluster: &Cluster,
        config: (ShuffleAlg, JoinAlg),
        collect: bool,
    ) -> Result<Q1Inputs, String> {
        let spec = workloads::q1();
        let t0 = Instant::now();
        let mut db = scale.db_for(spec.dataset, data_seed);
        let datagen_ms = ms(t0.elapsed());
        if let Some(seed) = row_seed {
            db = workload::permuted(&db, seed);
        }
        let expected = Expected::compute(&spec.query, &db, cluster, config, collect)?;
        let (atoms, _) = resolve_atoms(&spec.query, &db).map_err(|e| e.to_string())?;
        let base_tuples = atoms.iter().map(|a| a.len() as u64).sum();
        Ok(Q1Inputs {
            query: spec.query,
            db,
            expected,
            base_tuples,
            datagen_ms,
        })
    }
}

/// `tri_hc_tj_cold` (`STREAM = false`) or `tri_rs_hj_stream`
/// (`STREAM = true`).
pub struct Triangle<const STREAM: bool> {
    inputs: Q1Inputs,
    cluster: Cluster,
}

/// `tri_hc_tj_cold`.
pub type Cold = Triangle<false>;
/// `tri_rs_hj_stream`.
pub type Stream = Triangle<true>;

impl<const STREAM: bool> Triangle<STREAM> {
    const NAME: &'static str = if STREAM {
        "tri_rs_hj_stream"
    } else {
        "tri_hc_tj_cold"
    };
    const CONFIG: (ShuffleAlg, JoinAlg) = if STREAM {
        (ShuffleAlg::Regular, JoinAlg::Hash)
    } else {
        (ShuffleAlg::HyperCube, JoinAlg::Tributary)
    };

    /// One query as the workload runs it: `(latency, result)`. The cold
    /// workload empties both caches first, outside the timed section.
    fn query(&self, opts: &PlanOptions) -> (Duration, Result<RunResult, String>) {
        if !STREAM {
            SortCache::global().clear();
            TrieCache::global().clear();
        }
        let (shuffle, join) = Self::CONFIG;
        let t0 = Instant::now();
        let run = run_config(
            &self.inputs.query,
            &self.inputs.db,
            &self.cluster,
            shuffle,
            join,
            opts,
        );
        (t0.elapsed(), run.map_err(|e| e.to_string()))
    }

    fn replay(&self, tracer: &mut Tracer) -> Result<ReplayFacts, String> {
        let (q, db) = (&self.inputs.query, &self.inputs.db);
        if STREAM {
            layers::replay_rs_hj(tracer, q, db, &self.cluster)
        } else {
            layers::replay_hc_tj(tracer, q, db, &self.cluster)
        }
    }
}

impl<const STREAM: bool> Workload for Triangle<STREAM> {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let (full, transport) = if STREAM {
            (STREAM_SCALE, TransportKind::InProcess)
        } else {
            (COLD_SCALE, TransportKind::Local)
        };
        let cluster = workload::cluster(CLUSTER_SEED).with_transport(transport);
        let inputs = Q1Inputs::generate(
            cfg.scale(full),
            cfg.data_seed,
            Some(cfg.seed),
            &cluster,
            Self::CONFIG,
            false,
        )?;
        Ok(Triangle { inputs, cluster })
    }

    fn measure(&mut self, cfg: &RunCfg) -> Result<Window, String> {
        let opts = PlanOptions::default();
        let this = &*self;
        let mut clients = [|_: usize| {
            let (latency, run) = this.query(&opts);
            OpResult {
                kind: 0,
                latency,
                ok: run.is_ok_and(|r| this.inputs.expected.matches(&r)),
            }
        }];
        Ok(closed_loop(
            &mut clients,
            WARMUP_OPS,
            cfg.seconds,
            &Meter::this_process(),
        ))
    }

    fn layers(&mut self, cfg: &RunCfg, metrics: &mut Metrics) -> Result<u64, String> {
        let plain = PlanOptions::default();
        let traced = PlanOptions {
            trace_path: Some(workload::trace_file(Self::NAME, "engine.trace")),
            ..PlanOptions::default()
        };
        let mut tracer = Tracer::new();
        // Creates target/e2e/ before the engine writes its own trace there.
        tracer.write(&workload::trace_file(Self::NAME, "trace"))?;

        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        let mut runs = RunStats::default();
        let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
        let mut facts = None;
        for op in 0..TRACED_OPS {
            if op >= MIN_TRACED_OPS && Instant::now() >= deadline {
                break;
            }
            let (latency, run) = self.query(&plain);
            plain_ms.push(ms(latency));
            let run = run?;
            let (latency, with_trace) = self.query(&traced);
            traced_ms.push(ms(latency));
            let expected = &self.inputs.expected;
            if !(expected.matches(&run) && expected.matches(&with_trace?)) {
                return Err("a traced-pass query disagrees with the oracle".to_string());
            }
            runs.push(run);

            let replayed = self.replay(&mut tracer)?;
            tracer.end_op();
            if replayed.output_tuples != self.inputs.expected.output_tuples {
                return Err(format!(
                    "the bench-side replay returned {} tuples, the oracle {}",
                    replayed.output_tuples, self.inputs.expected.output_tuples
                ));
            }
            facts = Some(replayed);
        }
        tracer.write(&workload::trace_file(Self::NAME, "trace"))?;

        tracer.fill(metrics);
        runs.fill(metrics, self.inputs.base_tuples);
        if let Some(f) = facts {
            metrics.insert("hypercube.workload_ratio", f.workload_ratio);
            metrics.insert("sort.rows", f.rows_sorted as f64);
        }
        let outputs = self.inputs.expected.output_tuples.max(1) as f64;
        metrics.insert(
            "tributary.probe_ns_per_output",
            metrics["tributary.probe_ms"] * 1e6 / outputs,
        );
        if STREAM {
            let (encode, decode) = layers::wire_ns_per_tuple();
            metrics.insert("wire.encode_ns_per_tuple", encode);
            metrics.insert("wire.decode_ns_per_tuple", decode);
        }

        let p50 = stats::median_of(&plain_ms);
        metrics.insert("engine.coverage_frac", tracer.blocking_ms() / p50);
        metrics.insert("engine.unattributed_ms", p50 - tracer.blocking_ms());
        metrics.insert(
            "trace.overhead_frac",
            stats::median_of(&traced_ms) / p50 - 1.0,
        );
        Ok(3 * plain_ms.len() as u64)
    }

    fn datagen_ms(&self) -> f64 {
        self.inputs.datagen_ms
    }

    fn output_tuples(&self) -> u64 {
        self.inputs.expected.output_tuples
    }
}
