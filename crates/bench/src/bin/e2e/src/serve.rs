//! `serve_mixed_warm`: an in-process `parjoin-serve` server with both
//! catalogs resident answers Datalog text for Q1, Q2, Q3, Q5, Q6 and Q7
//! from two closed-loop clients, caches warm.
//!
//! The same layers as the cold workload, used the other way round:
//! prepare is a fingerprint plus a cache lookup instead of a sort;
//! parse, bind, advise, certify and the run queue are paid per query,
//! and with service times of a few to a few dozen milliseconds they
//! show. Q4 and Q8 are left out: either one would be over 80 % of the
//! served work and the mix would measure that one query.

use crate::counters::RunStats;
use crate::layers::Tracer;
use crate::oracle::Expected;
use crate::spec::Metrics;
use crate::stats;
use crate::window::{closed_loop, ms, us, Meter, OpResult, Window};
use crate::workload::{
    self, RunCfg, Workload, CLUSTER_SEED, MIN_TRACED_OPS, TRACED_OPS, WARMUP_OPS,
};
use parjoin_common::Database;
use parjoin_core::queries;
use parjoin_datagen::{DatasetKind, Scale};
use parjoin_engine::plans::greedy_join_order;
use parjoin_engine::{advise, Cluster};
use parjoin_query::{parser, resolve_atoms, ConjunctiveQuery};
use parjoin_serve::{batch_run, QueryOutcome, Server, ServerConfig, Session, SessionConfig};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The served mix, round-robin.
const MIX: [&str; 6] = ["Q1", "Q2", "Q3", "Q5", "Q6", "Q7"];
/// Closed-loop clients: fixed at the reference box's core count so the
/// offered load does not change with the host.
const CLIENTS: usize = 2;

/// For clients whose outcomes nobody reads.
const DISCARD: &(dyn Fn(ServedOp) + Sync) = &|_| {};

/// One query of the mix.
struct Served {
    text: String,
    query: ConjunctiveQuery,
    expected: Expected,
    base_tuples: u64,
}

/// What a client keeps of one served query in the traced pass.
struct ServedOp {
    mix_index: usize,
    submit: Duration,
    outcome: QueryOutcome,
}

/// The running server and its mix.
pub struct Serve {
    server: Server,
    db: Arc<Database>,
    cluster: Cluster,
    mix: Vec<Served>,
    datagen_ms: f64,
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

impl Serve {
    /// Submits mix entry `k` and waits: `(submit time, latency, outcome)`.
    /// A refused or failed query has no outcome.
    fn serve_one(&self, session: &Session, k: usize) -> (Duration, Duration, Option<QueryOutcome>) {
        let t0 = Instant::now();
        let ticket = session.submit(&self.mix[k].text);
        let submit = t0.elapsed();
        let outcome = ticket.ok().and_then(|t| t.wait().ok());
        (submit, t0.elapsed(), outcome)
    }

    /// Client `c`'s closed-loop closure: starts at offset `3c` in the
    /// mix; `keep` receives every outcome (the traced pass reads them).
    fn client<'a>(
        &'a self,
        c: usize,
        keep: &'a (dyn Fn(ServedOp) + Sync),
    ) -> impl FnMut(usize) -> OpResult + Send + 'a {
        let session = self.server.session(SessionConfig::default());
        move |i| {
            let k = (3 * c + i) % self.mix.len();
            let (submit, latency, outcome) = self.serve_one(&session, k);
            let ok = outcome
                .as_ref()
                .is_some_and(|o| self.mix[k].expected.matches(&o.result));
            if let Some(outcome) = outcome {
                keep(ServedOp {
                    mix_index: k,
                    submit,
                    outcome,
                });
            }
            OpResult {
                kind: k,
                latency,
                ok,
            }
        }
    }

    /// The server's running cache tallies: SortCache hits and misses,
    /// TrieCache hits and misses.
    fn cache_lookups(&self) -> [u64; 4] {
        let m = &parjoin_serve::SERVE_METRICS;
        [
            m.sortcache_hits,
            m.sortcache_misses,
            m.triecache_hits,
            m.triecache_misses,
        ]
        .map(|name| self.server.metric(name).unwrap_or(0))
    }

    /// Submissions the server refused so far, for any reason.
    fn rejected(&self) -> u64 {
        self.server
            .metrics()
            .iter()
            .filter(|(name, _)| name.starts_with("serve.rejected."))
            .map(|&(_, n)| n)
            .sum()
    }
}

impl Workload for Serve {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let scale = cfg.scale(Scale::small());
        let server = Server::start(ServerConfig {
            seed: CLUSTER_SEED,
            ..ServerConfig::default()
        });
        let t0 = Instant::now();
        let twitter = scale.db_for(DatasetKind::Twitter, cfg.data_seed);
        let freebase = scale.db_for(DatasetKind::Freebase, cfg.data_seed);
        let datagen_ms = ms(t0.elapsed());
        server.load_db(&workload::permuted(&twitter, cfg.seed));
        server.load_db(&workload::permuted(&freebase, cfg.seed));
        let db = server.snapshot().db;
        let cluster = server.cluster();

        let mut mix = Vec::with_capacity(MIX.len());
        for name in MIX {
            // The server parses text, and a parsed query numbers its
            // variables by first appearance, which decides hash seeds
            // and so output order: the oracle must run the parsed form.
            let text = queries::build(name)
                .ok_or_else(|| format!("no query {name}"))?
                .to_string();
            let query = parser::parse(&text).map_err(|e| e.to_string())?;
            let advice = advise(&query, &db, &cluster);
            let config = (advice.shuffle, advice.join);
            let expected = Expected::compute(&query, &db, &cluster, config, true)?;
            let (atoms, _) = resolve_atoms(&query, &db).map_err(|e| e.to_string())?;
            mix.push(Served {
                text,
                base_tuples: atoms.iter().map(|a| a.len() as u64).sum(),
                query,
                expected,
            });
        }
        let serve = Serve {
            server,
            db,
            cluster,
            mix,
            datagen_ms,
        };

        // One pass fills SortCache and TrieCache (and checks the served
        // path end to end before anything is timed).
        let session = serve.server.session(SessionConfig::default());
        for (k, q) in serve.mix.iter().enumerate() {
            let (_, _, outcome) = serve.serve_one(&session, k);
            if !outcome.is_some_and(|o| q.expected.matches(&o.result)) {
                return Err(format!(
                    "{}: the served answer disagrees with the oracle",
                    q.query.name
                ));
            }
        }
        Ok(serve)
    }

    fn measure(&mut self, cfg: &RunCfg) -> Result<Window, String> {
        let this = &*self;
        let mut clients: Vec<_> = (0..CLIENTS).map(|c| this.client(c, DISCARD)).collect();
        Ok(closed_loop(
            &mut clients,
            WARMUP_OPS / CLIENTS,
            cfg.seconds,
            &Meter::this_process(),
        ))
    }

    fn layers(&mut self, cfg: &RunCfg, metrics: &mut Metrics) -> Result<u64, String> {
        let this = &*self;
        let meter = Meter::this_process();

        // Two clients, as measured: queueing, service time, counters.
        let lookups_before = this.cache_lookups();
        let kept: Mutex<Vec<ServedOp>> = Mutex::new(Vec::new());
        let keep = |op| kept.lock().unwrap_or_else(PoisonError::into_inner).push(op);
        let mut clients: Vec<_> = (0..CLIENTS).map(|c| this.client(c, &keep)).collect();
        let two = closed_loop(&mut clients, 0, cfg.seconds / 3.0, &meter);
        drop(clients);
        let kept = kept.into_inner().unwrap_or_else(PoisonError::into_inner);
        let lookups = this.cache_lookups();

        let mut per_query: Vec<RunStats> = this.mix.iter().map(|_| RunStats::default()).collect();
        let (mut submit, mut queued, mut exec) = (Vec::new(), Vec::new(), Vec::new());
        for op in kept {
            submit.push(us(op.submit));
            queued.push(ms(op.outcome.queued));
            exec.push(ms(op.outcome.latency.saturating_sub(op.outcome.queued)));
            per_query[op.mix_index].push(op.outcome.result);
        }
        let queued = stats::ascending(&queued);
        metrics.insert("serve.submit_us", stats::median_of(&submit));
        metrics.insert("serve.queue_wait_ms_p50", stats::median(&queued));
        metrics.insert("serve.queue_wait_ms_p90", stats::percentile(&queued, 90.0));
        metrics.insert("serve.exec_ms_p50", stats::median_of(&exec));

        // One client against the same queries run directly: what the
        // serving layer adds to a query nobody queues behind.
        let mut one = [this.client(0, DISCARD)];
        let served = closed_loop(&mut one, 0, cfg.seconds / 6.0, &meter);
        let session_cfg = SessionConfig::default();
        let mut direct = [|i: usize| {
            let q = &this.mix[i % this.mix.len()];
            let t0 = Instant::now();
            let run = batch_run(&q.query, &this.db, &this.cluster, &session_cfg);
            OpResult {
                kind: i % this.mix.len(),
                latency: t0.elapsed(),
                ok: run.is_ok_and(|r| q.expected.matches(&r)),
            }
        }];
        let batch = closed_loop(&mut direct, 0, cfg.seconds / 6.0, &meter);
        if two.failed() + served.failed() + batch.failed() > 0 {
            return Err("a served or batch query disagreed with the oracle".to_string());
        }
        metrics.insert("serve.overhead_ms", served.p50_ms() - batch.p50_ms());
        metrics.insert("serve.rejected", this.rejected() as f64);
        metrics.insert(
            "serve.executors",
            ServerConfig::default().effective_executors() as f64,
        );

        // Per-query planning steps, timed from outside; every layer
        // metric of the mix is the mean over its six queries.
        let root = Tracer::new();
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 3.0);
        let mut per_query_metrics = Vec::with_capacity(this.mix.len());
        for (q, runs) in this.mix.iter().zip(&per_query) {
            let mut tracer = root.fork();
            for op in 0..TRACED_OPS / this.mix.len() {
                if op >= MIN_TRACED_OPS && Instant::now() >= deadline {
                    break;
                }
                let parsed = tracer.time("query.parse_us", || parser::parse(&q.text));
                let parsed = parsed.map_err(|e| e.to_string())?;
                let (atoms, _) = tracer
                    .time("query.resolve_us", || resolve_atoms(&parsed, &this.db))
                    .map_err(|e| e.to_string())?;
                tracer.time("advisor.advise_us", || {
                    advise(&parsed, &this.db, &this.cluster)
                });
                tracer.time("plans.join_order_ms", || {
                    let shapes: Vec<_> = atoms
                        .iter()
                        .map(|a| (a.vars.clone(), a.rel.as_ref()))
                        .collect();
                    greedy_join_order(&shapes)
                });
                tracer.end_op();
            }
            let mut m = Metrics::new();
            tracer.fill(&mut m);
            runs.fill(&mut m, q.base_tuples);
            per_query_metrics.push(m);
        }
        root.write(&workload::trace_file("serve_mixed_warm", "trace"))?;
        for (name, value) in mean_over_queries(&per_query_metrics) {
            metrics.insert(name, value);
        }
        // Hit rates over the whole mix come from the server's own
        // counters: a mean of per-query ratios would count the one
        // hash-join query, which never looks anything up, as all misses.
        for (i, name) in ["sortcache.hit_frac", "triecache.hit_frac"]
            .into_iter()
            .enumerate()
        {
            let hits = lookups[2 * i] - lookups_before[2 * i];
            let misses = lookups[2 * i + 1] - lookups_before[2 * i + 1];
            metrics.insert(name, hits as f64 / ((hits + misses).max(1)) as f64);
        }
        Ok(two.attempted() + served.attempted() + batch.attempted())
    }

    fn datagen_ms(&self) -> f64 {
        self.datagen_ms
    }

    fn output_tuples(&self) -> u64 {
        self.mix.iter().map(|q| q.expected.output_tuples).sum()
    }
}

/// The mean of every metric over the per-query maps (a metric missing
/// from a map counts as 0 there).
fn mean_over_queries(per_query: &[Metrics]) -> Metrics {
    let mut mean = Metrics::new();
    for m in per_query {
        for (&name, &value) in m {
            *mean.entry(name).or_default() += value / per_query.len() as f64;
        }
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_counts_missing_as_zero() {
        let a: Metrics = [("x", 2.0), ("y", 4.0)].into_iter().collect();
        let b: Metrics = [("x", 4.0)].into_iter().collect();
        let mean = mean_over_queries(&[a, b]);
        assert_eq!(mean["x"], 3.0);
        assert_eq!(mean["y"], 2.0);
    }
}
