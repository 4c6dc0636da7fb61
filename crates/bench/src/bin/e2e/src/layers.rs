//! Outside-in layer attribution: the two plan shapes the benchmark runs
//! (`HC_TJ` on `Local`, `RS_HJ` on a streaming runtime) replayed from
//! the bench side, one public call per layer, each inside a span.
//!
//! The replays follow `plans::run_one_round` / `plans::run_regular` step
//! by step and return their output count, so a replay that drifts from
//! the engine is caught by the oracle like any other wrong answer. What
//! the engine does between these calls (analyzer, certifier, obs,
//! per-worker partition clones, output gather) is not timed here and
//! shows up as `engine.unattributed_ms`.

use crate::spec::{self, Metrics};
use crate::stats;
use parjoin_common::threads::{host_parallelism, pool_threads};
use parjoin_common::wire::{decode_frame_into, encode_vectored};
use parjoin_common::{Database, Relation, WireFormat};
use parjoin_core::hypercube::{AtomShape, ShareProblem};
use parjoin_core::order::{best_order, OrderCostModel};
use parjoin_core::tributary::{ColumnarAtom, ColumnarTrie, Tributary};
use parjoin_engine::exec::run_phase;
use parjoin_engine::local::{hash_join, SchemaRel};
use parjoin_engine::plans::greedy_join_order;
use parjoin_engine::{prepare, probe, shuffle, Cluster, DistRel, PlanOptions};
use parjoin_obs::TraceSink;
use parjoin_query::{resolve_atoms, ConjunctiveQuery, VarId};
use parjoin_runtime::{Runtime, RuntimeConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collects bench-side spans (one trace lane per layer) and, per
/// replayed query, each layer's time and its share of the blocking path.
pub struct Tracer {
    sink: Arc<TraceSink>,
    /// Seconds per layer in the query being replayed.
    current: BTreeMap<&'static str, f64>,
    current_blocking: f64,
    /// Seconds per layer, one entry per replayed query.
    per_op: BTreeMap<&'static str, Vec<f64>>,
    blocking: Vec<f64>,
}

impl Tracer {
    /// An empty tracer with an enabled sink.
    pub fn new() -> Tracer {
        Tracer {
            sink: TraceSink::enabled(),
            current: BTreeMap::new(),
            current_blocking: 0.0,
            per_op: BTreeMap::new(),
            blocking: Vec::new(),
        }
    }

    /// A tracer with statistics of its own that records its spans on
    /// this tracer's sink.
    pub fn fork(&self) -> Tracer {
        Tracer {
            sink: Arc::clone(&self.sink),
            ..Tracer::new()
        }
    }

    /// Records `dur` (starting at `start`) against `layer`.
    /// `blocking_share` is the part of it the query's caller waits for:
    /// 1 for coordinator-side steps, 1 / pool width for per-worker steps
    /// that run side by side.
    pub fn record(
        &mut self,
        layer: &'static str,
        start: Instant,
        dur: Duration,
        blocking_share: f64,
    ) {
        let lane = spec::PER_LAYER
            .iter()
            .position(|(name, _)| *name == layer)
            .unwrap_or(spec::PER_LAYER.len());
        self.sink.lane(lane as u32).record(layer, "e2e", start, dur);
        *self.current.entry(layer).or_default() += dur.as_secs_f64();
        self.current_blocking += dur.as_secs_f64() * blocking_share;
    }

    /// Runs `f` as one coordinator-side step of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start, start.elapsed(), 1.0);
        out
    }

    /// Closes the query being replayed.
    pub fn end_op(&mut self) {
        for (layer, secs) in std::mem::take(&mut self.current) {
            self.per_op.entry(layer).or_default().push(secs);
        }
        self.blocking
            .push(std::mem::take(&mut self.current_blocking));
    }

    /// Writes every layer's median over the replayed queries into
    /// `metrics`, scaled to the metric's unit.
    pub fn fill(&self, metrics: &mut Metrics) {
        for (layer, secs) in &self.per_op {
            let scale = match spec::unit_of(layer) {
                Some("us") => 1e6,
                Some("ms") => 1e3,
                _ => 1.0,
            };
            metrics.insert(layer, stats::median_of(secs) * scale);
        }
    }

    /// Median blocking-path time of a replayed query, in ms.
    pub fn blocking_ms(&self) -> f64 {
        stats::median_of(&self.blocking) * 1e3
    }

    /// Writes the spans as a chrome trace.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.sink.chrome_trace_json())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What a replayed query produced besides times.
pub struct ReplayFacts {
    /// Result tuples (checked against the oracle by the caller).
    pub output_tuples: u64,
    /// Rows fed to the prepare sorts, summed over workers and atoms.
    pub rows_sorted: u64,
    /// `HcConfig::workload / fractional_workload`; 0 for non-HC plans.
    pub workload_ratio: f64,
}

/// Width of the pool the engine runs per-worker steps on.
fn pool_width(cluster: &Cluster) -> usize {
    pool_threads(cluster.workers, host_parallelism())
}

/// What one worker's local Tributary join took.
struct WorkerJoin {
    start: Instant,
    sort: Duration,
    build: Duration,
    probe_start: Instant,
    probe: Duration,
    rows: u64,
    output: u64,
}

/// Replays a one-round `HC_TJ` plan (columnar tries, no caches) on the
/// `Local` transport.
pub fn replay_hc_tj(
    t: &mut Tracer,
    query: &ConjunctiveQuery,
    db: &Database,
    cluster: &Cluster,
) -> Result<ReplayFacts, String> {
    let p = cluster.workers;
    let (resolved, residual) = t
        .time("query.resolve_us", || resolve_atoms(query, db))
        .map_err(|e| e.to_string())?;
    let atom_vars: Vec<Vec<VarId>> = resolved.iter().map(|a| a.vars.clone()).collect();

    // A TJ plan never uses this order; `run_config` computes it anyway.
    t.time("plans.join_order_ms", || {
        let shapes: Vec<(Vec<VarId>, &Relation)> = resolved
            .iter()
            .map(|a| (a.vars.clone(), a.rel.as_ref()))
            .collect();
        greedy_join_order(&shapes)
    });

    let seeded: Vec<DistRel> = t.time("shuffle.seed_ms", || {
        resolved
            .iter()
            .map(|a| DistRel::round_robin(&a.rel, a.vars.clone(), p))
            .collect()
    });

    let tj_order: Vec<VarId> = t.time("order.tj_order_ms", || {
        let gathered: Vec<Relation> = seeded.iter().map(DistRel::gather).collect();
        let atoms: Vec<(&Relation, Vec<VarId>)> = gathered
            .iter()
            .zip(&atom_vars)
            .map(|(r, vs)| (r, vs.clone()))
            .collect();
        best_order(&OrderCostModel::from_atoms(&atoms), &query.all_vars()).0
    });

    let problem = ShareProblem {
        vars: query.all_vars(),
        atoms: resolved
            .iter()
            .map(|a| AtomShape {
                vars: a.vars.clone(),
                cardinality: a.len() as u64,
            })
            .collect(),
    };
    let config = t.time("hypercube.shares_us", || problem.optimize(p));
    let workload_ratio = config.workload(&problem) / problem.fractional_workload(p);

    let shuffled: Vec<DistRel> = t.time("shuffle.route_ms", || {
        seeded
            .iter()
            .zip(&query.atoms)
            .map(|(d, a)| {
                shuffle::hypercube(d, &config, format!("HCS {}", a.relation), cluster.seed).0
            })
            .collect()
    });
    drop(seeded);

    let head = query.output_vars();
    let num_vars = query.num_vars();
    let prep_threads = prepare::prepare_threads_for_host(p);
    let probe_threads = PlanOptions::default().effective_probe_threads(p);
    let phase = run_phase(p, |w| {
        let start = Instant::now();
        let (mut sort, mut build, mut rows) = (Duration::ZERO, Duration::ZERO, 0u64);
        let prepared: Vec<ColumnarAtom> = shuffled
            .iter()
            .map(|d| {
                ColumnarAtom::prepare_with(&d.parts[w], &d.vars, &tj_order, |r, cols| {
                    let t0 = Instant::now();
                    let view = prepare::sorted_by_columns_parallel(r, cols, prep_threads);
                    let t1 = Instant::now();
                    let trie = Arc::new(ColumnarTrie::build(&view));
                    sort += t1 - t0;
                    build += t1.elapsed();
                    rows += r.len() as u64;
                    trie
                })
            })
            .collect();
        let probe_start = Instant::now();
        let tj = Tributary::new(&prepared, &tj_order, &residual, num_vars);
        let out = probe::tributary_probe(&tj, &prepared, &head, probe_threads);
        WorkerJoin {
            start,
            sort,
            build,
            probe_start,
            probe: probe_start.elapsed(),
            rows,
            output: out.rel.len() as u64,
        }
    });

    let share = 1.0 / pool_width(cluster) as f64;
    for w in &phase.results {
        t.record("sort.sort_ms", w.start, w.sort, share);
        t.record("tributary.build_ms", w.start + w.sort, w.build, share);
        t.record("tributary.probe_ms", w.probe_start, w.probe, share);
    }
    Ok(ReplayFacts {
        output_tuples: phase.results.iter().map(|w| w.output).sum(),
        rows_sorted: phase.results.iter().map(|w| w.rows).sum(),
        workload_ratio,
    })
}

/// Replays a left-deep `RS_HJ` plan over a streaming runtime built for
/// this one query, as `run_config` builds it. Queries with residual
/// filters are refused: the benchmark's Q1 has none.
pub fn replay_rs_hj(
    t: &mut Tracer,
    query: &ConjunctiveQuery,
    db: &Database,
    cluster: &Cluster,
) -> Result<ReplayFacts, String> {
    let p = cluster.workers;
    let (resolved, residual) = t
        .time("query.resolve_us", || resolve_atoms(query, db))
        .map_err(|e| e.to_string())?;
    if !residual.is_empty() {
        return Err("the RS_HJ replay does not apply residual filters".to_string());
    }
    let order = t.time("plans.join_order_ms", || {
        let shapes: Vec<(Vec<VarId>, &Relation)> = resolved
            .iter()
            .map(|a| (a.vars.clone(), a.rel.as_ref()))
            .collect();
        greedy_join_order(&shapes)
    });

    let rt = t
        .time("runtime.start_ms", || {
            Runtime::new(RuntimeConfig {
                workers: p,
                transport: cluster.transport,
                batch_tuples: cluster.batch_tuples,
                wire_format: cluster.wire_format,
                ..RuntimeConfig::default()
            })
        })
        .map_err(|e| e.to_string())?;

    let mut seeded: Vec<Option<DistRel>> = t.time("shuffle.seed_ms", || {
        resolved
            .iter()
            .map(|a| Some(DistRel::round_robin(&a.rel, a.vars.clone(), p)))
            .collect()
    });
    let mut take = |i: usize| {
        seeded[i]
            .take()
            .ok_or_else(|| format!("join order reuses atom {i}"))
    };

    let probe_threads = PlanOptions::default().effective_probe_threads(p);
    let share = 1.0 / pool_width(cluster) as f64;
    let mut cur = take(order[0])?;
    for &ai in &order[1..] {
        let next = take(ai)?;
        // The engine partitions on the most recently bound shared variable.
        let key: Vec<VarId> = cur
            .vars
            .iter()
            .copied()
            .rfind(|v| next.vars.contains(v))
            .into_iter()
            .collect();

        // The same two routes on `Local` price routing alone; what the
        // streaming runtime adds on top is the exchange.
        let t0 = Instant::now();
        shuffle::regular(&cur, &key, "cur", cluster.seed);
        shuffle::regular(&next, &key, "next", cluster.seed);
        let route = t0.elapsed();
        let t1 = Instant::now();
        let (cur_s, _) = shuffle::regular_via(&cur, &key, "cur", cluster.seed, Some(&rt))
            .map_err(|e| e.to_string())?;
        let (next_s, _) = shuffle::regular_via(&next, &key, "next", cluster.seed, Some(&rt))
            .map_err(|e| e.to_string())?;
        let via = t1.elapsed();
        t.record("shuffle.route_ms", t1, route.min(via), 1.0);
        t.record(
            "runtime.exchange_ms",
            t1 + route.min(via),
            via.saturating_sub(route),
            1.0,
        );

        let out_vars = {
            let empty = |d: &DistRel| SchemaRel {
                vars: d.vars.clone(),
                rel: Relation::new(d.vars.len()),
            };
            hash_join(&empty(&cur_s), &empty(&next_s), 0).vars
        };
        let phase = run_phase(p, |w| {
            // The engine's join phase copies each worker's two inputs
            // before joining them; with a 650 k-tuple intermediate that
            // copy is part of what the step costs, so it is timed here.
            let start = Instant::now();
            let side = |d: &DistRel| SchemaRel {
                vars: d.vars.clone(),
                rel: d.parts[w].clone(),
            };
            let (a, b) = (side(&cur_s), side(&next_s));
            let (joined, _, _) = probe::hash_join_parallel(&a, &b, cluster.seed, probe_threads);
            (start, start.elapsed(), joined.rel)
        });
        for (start, dur, _) in &phase.results {
            t.record("hashjoin.join_ms", *start, *dur, share);
        }
        // The engine's step ends by copying every worker's result out
        // of the phase, one after the other on the calling thread.
        let parts: Vec<Relation> = t.time("hashjoin.join_ms", || {
            phase
                .results
                .iter()
                .map(|(_, _, rel)| rel.clone())
                .collect()
        });
        cur = DistRel {
            vars: out_vars,
            parts,
        };
    }
    t.time("runtime.start_ms", || rt.shutdown())
        .map_err(|e| e.to_string())?;

    Ok(ReplayFacts {
        output_tuples: cur.total_len(),
        rows_sorted: 0,
        workload_ratio: 0.0,
    })
}

/// `encode_vectored` / `decode_frame_into` cost per tuple on full
/// 4096-row batches, averaged over arity 2 and 3 (the shapes Q1 ships):
/// `(encode_ns, decode_ns)`.
pub fn wire_ns_per_tuple() -> (f64, f64) {
    const ROWS: usize = 4096;
    const ROUNDS: usize = 200;
    let (mut encode, mut decode) = (0.0, 0.0);
    for arity in [2usize, 3] {
        let flat: Vec<u64> = (0..(ROWS * arity) as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let (mut enc, mut dec) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
        let mut frame = Vec::new();
        for _ in 0..ROUNDS {
            frame.clear();
            let t0 = Instant::now();
            encode_vectored(arity, ROWS, std::hint::black_box(&flat), false, &mut frame);
            enc.push(t0.elapsed().as_secs_f64());
            let mut rel = Relation::with_capacity(arity, ROWS);
            let t1 = Instant::now();
            let rows = decode_frame_into(WireFormat::Vectored, &frame, &mut rel);
            dec.push(t1.elapsed().as_secs_f64());
            std::hint::black_box((rows.is_ok(), rel.len()));
        }
        encode += stats::median_of(&enc) * 1e9 / ROWS as f64 / 2.0;
        decode += stats::median_of(&dec) * 1e9 / ROWS as f64 / 2.0;
    }
    (encode, decode)
}
