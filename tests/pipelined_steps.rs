//! Pipelined regular-shuffle steps: on a streaming transport, a
//! multi-step RS plan runs each step's join inside the next step's
//! exchange and routes its output as it is produced. Nothing a run
//! reports may tell the difference from the materialising `Local` run:
//!
//! * the collected output, byte for byte (row order included);
//! * every shuffle's label and per-producer / per-consumer tallies;
//! * the counted memory model (`engine.peak_worker_tuples`) and the
//!   probe's morsels;
//! * the bytes and batches on the wire, which must equal what shuffling
//!   the materialised intermediate would put there.
//!
//! The plans are the multi-step ones: Q1 RS_HJ (two steps), Q2 RS_HJ
//! and RS_TJ, and Q3 SJ_HJ (reductions, then the regular join loop).
//!
//! The last step of a hash-join plan at one probe thread also runs on
//! the receive side of its exchange: a rank whose left input outgrows
//! its part of the step's base atom probes the batches as they arrive
//! (`engine.pipeline.received_joins` counts those ranks: all four on Q1;
//! none on Q2 and Q3, whose last intermediate is the smaller side and so
//! builds). At more probe threads that step stays materialised, so a
//! probe over `MORSEL_MIN_ROWS` rows keeps its morsels.

#[macro_use]
mod parity;

use parjoin::engine::local::{hash_join, SchemaRel};
use parjoin::engine::plans::greedy_join_order;
use parjoin::engine::probe;
use parjoin::engine::{shuffle, DistRel};
use parjoin::obs::{Lane, Registry, TraceSink};
use parjoin::prelude::*;
use parjoin::query::resolve_atoms;
use parjoin::runtime::exchange::{Consume, Produce, RowSink};
use parjoin::runtime::{Route, Runtime, RuntimeConfig, RuntimeError, RuntimeObs};

const STREAMING: [TransportKind; 2] = [TransportKind::InProcess, TransportKind::Tcp];

fn run(
    spec: &QuerySpec,
    db: &Database,
    (s, j): (ShuffleAlg, JoinAlg),
    transport: TransportKind,
    batch: usize,
    threads: usize,
) -> RunResult {
    let cluster = Cluster::new(4)
        .with_seed(11)
        .with_transport(transport)
        .with_batch_tuples(batch);
    let opts = PlanOptions {
        collect_output: true,
        probe_threads: Some(threads),
        ..Default::default()
    };
    run_config(&spec.query, db, &cluster, s, j, &opts).unwrap_or_else(|e| {
        panic!(
            "{} {s:?}/{j:?} on {transport} batch {batch}: {e}",
            spec.name
        )
    })
}

/// Rank-steps whose join probed its left input as it arrived.
fn received_joins(r: &RunResult) -> u64 {
    r.metric(metric_names::PIPELINE_RECEIVED_JOINS).unwrap_or(0)
}

/// Checks `config` on `spec` at every point of the matrix; returns the
/// most ranks that joined on receipt in one run.
fn check_plan(spec: &QuerySpec, config: (ShuffleAlg, JoinAlg)) -> u64 {
    let db = parity::db_for(spec);
    let mut most_received = 0;
    for threads in [1, 2] {
        let local = run(spec, &db, config, TransportKind::Local, 4096, threads);
        assert!(
            local.shuffles.len() >= 4,
            "{}: a multi-step plan shuffles at least twice per step",
            spec.name
        );
        assert_eq!(
            received_joins(&local),
            0,
            "{}: Local joins first",
            spec.name
        );
        for batch in [1, 4096] {
            let streamed = STREAMING.map(|t| run(spec, &db, config, t, batch, threads));
            for (t, r) in STREAMING.iter().zip(&streamed) {
                let cell = format!("{} {config:?} on {t} batch {batch} t={threads}", spec.name);
                let (want, got) = (local.output.as_ref(), r.output.as_ref());
                assert_eq!(
                    want.expect("collected").raw(),
                    got.expect("collected").raw(),
                    "{cell}: output rows or their order drifted"
                );
                assert_eq!(local.shuffles.len(), r.shuffles.len(), "{cell}");
                for (a, b) in local.shuffles.iter().zip(&r.shuffles) {
                    assert_eq!(a.label, b.label, "{cell}");
                    assert_eq!(a.tuples_sent, b.tuples_sent, "{cell}: {}", a.label);
                    assert_eq!(a.per_producer, b.per_producer, "{cell}: {}", a.label);
                    assert_eq!(a.per_consumer, b.per_consumer, "{cell}: {}", a.label);
                    assert_eq!(b.bytes_sent, b.bytes_received, "{cell}: {}", a.label);
                }
                for name in [
                    metric_names::PEAK_WORKER_TUPLES,
                    metric_names::PROBE_MORSELS,
                ] {
                    assert_eq!(local.metric(name), r.metric(name), "{cell}: {name}");
                }
                // A hash plan's last join ran on the receive side on
                // exactly the ranks whose left input outgrew their part
                // of the base atom (the step's last two shuffles); the
                // merge join never does.
                let [left, base] = &r.shuffles[r.shuffles.len() - 2..] else {
                    unreachable!("at least four shuffles")
                };
                let streams = (left.per_consumer.iter().zip(&base.per_consumer))
                    .filter(|(a, b)| a > b)
                    .count() as u64;
                let want = if config.1 == JoinAlg::Hash && threads == 1 {
                    streams
                } else {
                    0
                };
                assert_eq!(received_joins(r), want, "{cell}: ranks joining on receipt");
                most_received = most_received.max(want);
                let bytes: u64 = r.shuffles.iter().map(|s| s.bytes_sent).sum();
                assert_eq!(r.metric("runtime.tx.bytes"), Some(bytes), "{cell}");
                if batch == 1 {
                    assert_eq!(
                        r.metric("runtime.tx.batches"),
                        Some(r.tuples_shuffled),
                        "{cell}: one frame per shuffled tuple"
                    );
                }
            }
            // The two streaming transports put the same frames on the wire.
            let [a, b] = &streamed;
            for (x, y) in a.shuffles.iter().zip(&b.shuffles) {
                assert_eq!(x.bytes_sent, y.bytes_sent, "{}: {}", spec.name, x.label);
            }
            for name in ["runtime.tx.bytes", "runtime.tx.batches"] {
                assert_eq!(a.metric(name), b.metric(name), "{}: {name}", spec.name);
            }
        }
    }
    most_received
}

#[test]
fn q1_rs_hj_pipelined_matches_local() {
    let received = check_plan(
        &parjoin::datagen::workloads::q1(),
        (ShuffleAlg::Regular, JoinAlg::Hash),
    );
    // Q1's intermediate outgrows the edge partitions: the streamed
    // branch runs, not only the fallback.
    assert_eq!(received, 4, "every rank joins Q1's last step on receipt");
}

#[test]
fn q2_rs_hj_pipelined_matches_local() {
    check_plan(
        &parjoin::datagen::workloads::q2(),
        (ShuffleAlg::Regular, JoinAlg::Hash),
    );
}

#[test]
fn q2_rs_tj_pipelined_matches_local() {
    check_plan(
        &parjoin::datagen::workloads::q2(),
        (ShuffleAlg::Regular, JoinAlg::Tributary),
    );
}

#[test]
fn q3_sj_hj_pipelined_matches_local() {
    check_plan(
        &parjoin::datagen::workloads::q3(),
        (ShuffleAlg::Semijoin, JoinAlg::Hash),
    );
}

/// Q1 RS_HJ replayed the materialising way from the public pieces: each
/// step shuffles both sides over a runtime, joins every partition
/// completely, and the next step shuffles that intermediate. The
/// pipelined plan must put exactly the same bytes and batches on the
/// wire, shuffle by shuffle.
#[test]
fn q1_rs_hj_wire_traffic_equals_materialise_then_shuffle() {
    let spec = parjoin::datagen::workloads::q1();
    let db = parity::db_for(&spec);
    let (resolved, _) = resolve_atoms(&spec.query, &db).expect("Q1 resolves");
    let shapes: Vec<(Vec<VarId>, &Relation)> = resolved
        .iter()
        .map(|a| (a.vars.clone(), a.rel.as_ref()))
        .collect();
    let order = greedy_join_order(&shapes);
    for transport in STREAMING {
        for batch in [1, 4096] {
            let cell = format!("Q1 RS_HJ on {transport} batch {batch}");
            let registry = Registry::new();
            let rt = Runtime::new(RuntimeConfig {
                workers: 4,
                transport,
                batch_tuples: batch,
                obs: RuntimeObs::on_registry(&registry, TraceSink::disabled()),
                ..RuntimeConfig::default()
            })
            .expect("runtime");
            let seed =
                |i: usize| DistRel::round_robin(&resolved[i].rel, resolved[i].vars.clone(), 4);
            let mut cur = seed(order[0]);
            let mut bytes = Vec::new();
            for &ai in &order[1..] {
                let next = seed(ai);
                let key: Vec<VarId> = (cur.vars.iter().copied())
                    .rfind(|v| next.vars.contains(v))
                    .into_iter()
                    .collect();
                let (cur_s, s1) =
                    shuffle::regular_via(&cur, &key, "cur", 11, Some(&rt)).expect("cur shuffles");
                let (next_s, s2) = shuffle::regular_via(&next, &key, "next", 11, Some(&rt))
                    .expect("next shuffles");
                bytes.extend([s1.bytes_sent, s2.bytes_sent]);
                let side = |d: &DistRel, w: usize| SchemaRel {
                    vars: d.vars.clone(),
                    rel: d.parts[w].clone(),
                };
                let joined: Vec<SchemaRel> = (0..4)
                    .map(|w| hash_join(&side(&cur_s, w), &side(&next_s, w), 11))
                    .collect();
                cur = DistRel {
                    vars: joined[0].vars.clone(),
                    parts: joined.into_iter().map(|j| j.rel).collect(),
                };
            }
            rt.shutdown().expect("clean shutdown");

            let r = run(
                &spec,
                &db,
                (ShuffleAlg::Regular, JoinAlg::Hash),
                transport,
                batch,
                1,
            );
            let got: Vec<u64> = r.shuffles.iter().map(|s| s.bytes_sent).collect();
            assert_eq!(got, bytes, "{cell}: per-shuffle bytes");
            for name in ["runtime.tx.bytes", "runtime.tx.batches"] {
                assert_eq!(r.metric(name), registry.get(name), "{cell}: {name}");
            }
            let output = r.output.expect("collected");
            assert_eq!(output.len() as u64, cur.total_len(), "{cell}: output size");
        }
    }
}

/// The Fig. 9 accounting on the streaming transports: RS_TJ's counted
/// sort buffers blow a tight budget exactly where they do on `Local` —
/// same typed error, same rank — and a next query runs normally.
#[test]
fn rs_tj_memory_budget_fails_the_same_on_streaming_transports() {
    let mut b = QueryBuilder::new("Tri");
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("E1", [x, y]).atom("E2", [y, z]).atom("E3", [z, x]);
    let q = b.build();
    let mut db = Database::new();
    let ring: Vec<[u64; 2]> = (0..40).map(|i| [i, (i + 1) % 40]).collect();
    for name in ["E1", "E2", "E3"] {
        db.insert(name, Relation::from_rows(2, ring.iter()));
    }
    let (s, j) = (ShuffleAlg::Regular, JoinAlg::Tributary);
    let opts = PlanOptions::default();
    let budget_error = |transport| {
        let cluster = Cluster::new(2)
            .with_memory_budget(10)
            .with_transport(transport);
        match run_config(&q, &db, &cluster, s, j, &opts) {
            Err(EngineError::MemoryBudget {
                worker,
                needed,
                budget,
            }) => (worker, needed, budget),
            other => panic!("{transport}: expected a memory-budget failure, got {other:?}"),
        }
    };
    let local = budget_error(TransportKind::Local);
    for transport in STREAMING {
        assert_eq!(budget_error(transport), local, "{transport}");
        let cluster = Cluster::new(2).with_transport(transport);
        let next = run_config(&q, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("{transport}: the next query fails: {e}"));
        assert_eq!(
            next.output_tuples, 0,
            "{transport}: a 40-ring has no triangle"
        );
    }
}

/// A producer that hands over its relation's rows in pieces of varying
/// size, as a join does.
struct Pieces(Relation);

impl Produce for Pieces {
    type Report = usize;

    fn arity(&self) -> usize {
        self.0.arity()
    }

    fn produce(self, sink: &mut dyn RowSink, _: &Lane) -> Result<usize, RuntimeError> {
        let arity = self.0.arity();
        let mut pieces = 0;
        let mut rows = self.0.raw();
        for size in (1..).map(|i| (i * 37) % 1500) {
            if rows.is_empty() {
                break;
            }
            let (piece, rest) = rows.split_at((size * arity).min(rows.len()));
            sink.push_rows(piece)?;
            pieces += 1;
            rows = rest;
        }
        Ok(pieces)
    }
}

/// The runtime's producer-fed exchange delivers what shuffling the
/// materialised rows delivers — partitions, tallies, bytes and batches
/// — however the producer cuts its rows into pieces, on every
/// transport (`Local` moves no bytes on either side).
#[test]
fn producer_fed_exchange_equals_shuffling_the_rows() {
    let workers = 3;
    let parts: Vec<Relation> = (0..workers as u64)
        .map(|w| {
            let rows: Vec<[u64; 3]> = (0..4000 + 700 * w)
                .map(|i| [i * 7 + w, i % 113, i * i % 1009])
                .collect();
            Relation::from_rows(3, rows.iter())
        })
        .collect();
    let route = Route::hash(vec![1], 5, workers).expect("route");
    for transport in [
        TransportKind::Local,
        TransportKind::InProcess,
        TransportKind::Tcp,
    ] {
        for batch in [1, 7, 4096] {
            let traffic = |fed: bool| {
                let registry = Registry::new();
                let rt = Runtime::new(RuntimeConfig {
                    workers,
                    transport,
                    batch_tuples: batch,
                    obs: RuntimeObs::on_registry(&registry, TraceSink::disabled()),
                    ..RuntimeConfig::default()
                })
                .expect("runtime");
                let out = if fed {
                    let producers = parts.iter().cloned().map(Pieces).collect();
                    let (out, pieces) = rt.exchange(producers, &route).expect("exchange");
                    assert!(pieces.iter().all(|&n| n > 1), "rows went over in pieces");
                    out
                } else {
                    rt.shuffle(parts.clone(), &route).expect("shuffle")
                };
                rt.shutdown().expect("clean shutdown");
                let counters = ["runtime.tx.bytes", "runtime.tx.batches"].map(|n| registry.get(n));
                (out, counters)
            };
            let ((fed, fed_counters), (shuffled, counters)) = (traffic(true), traffic(false));
            let cell = format!("{transport} batch {batch}");
            let raw = |o: &parjoin::runtime::ShuffleOutcome| -> Vec<Vec<u64>> {
                o.parts.iter().map(|p| p.raw().to_vec()).collect()
            };
            assert_eq!(raw(&fed), raw(&shuffled), "{cell}: partitions");
            assert_eq!(fed.per_producer, shuffled.per_producer, "{cell}");
            assert_eq!(fed.per_consumer, shuffled.per_consumer, "{cell}");
            assert_eq!(fed.bytes_sent, shuffled.bytes_sent, "{cell}");
            assert_eq!(fed_counters, counters, "{cell}: tx bytes and batches");
        }
    }
}

/// A two-atom join `A(x, y), B(y, z)` whose one step is the last: `A`
/// (the smaller, so first in the join order) streams into each rank's
/// partition of `B`. `a_key(i)` and `b_key(i)` are the `y` of row `i`.
fn two_atoms(
    a_key: impl Fn(u64) -> u64,
    b_key: impl Fn(u64) -> u64,
) -> (ConjunctiveQuery, Database) {
    let mut q = QueryBuilder::new("AB");
    let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
    q.atom("A", [x, y]).atom("B", [y, z]);
    let mut db = Database::new();
    let a: Vec<[u64; 2]> = (0..400).map(|i| [i, a_key(i)]).collect();
    let b: Vec<[u64; 2]> = (0..500).map(|i| [b_key(i), 1000 + i]).collect();
    db.insert("A", Relation::from_rows(2, a.iter()));
    db.insert("B", Relation::from_rows(2, b.iter()));
    (q.build(), db)
}

/// The receive-side join's two branches and its empty rank, against
/// `Local`: a rank whose streamed side ends no larger than its partition
/// of the build atom joins at end-of-stream, exactly as the
/// materialised step would (the smaller side builds, the streamed one on
/// a tie), and a rank that receives nothing joins an empty input.
/// Outputs, tallies and the counted memory model agree byte for byte,
/// and the counter names the ranks that probed as the batches arrived.
#[test]
fn receive_side_join_falls_back_where_the_streamed_side_stays_small() {
    let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
    // `B` on one key: its rank holds 500 build rows and receives ~100,
    // so it falls back; the three others build on nothing and stream.
    let one_b_key = two_atoms(|i| i % 97, |_| 7);
    // `A` on one key: one rank receives all 400 rows against its ~125 of
    // `B` and streams; the other three receive nothing.
    let one_a_key = two_atoms(|_| 7, |i| i % 89);
    for ((q, db), streaming) in [(one_b_key, 3), (one_a_key, 1)] {
        for threads in [1, 2] {
            // Two probe threads keep the last step materialised.
            let streamed_ranks = if threads == 1 { streaming } else { 0 };
            let opts = PlanOptions {
                collect_output: true,
                probe_threads: Some(threads),
                ..Default::default()
            };
            let cluster = Cluster::new(4).with_seed(11);
            let local = run_config(&q, &db, &cluster, s, j, &opts).expect("Local");
            assert!(local.output_tuples > 0, "the join has output");
            for transport in STREAMING {
                for batch in [1, 7, 4096] {
                    let cluster = cluster
                        .clone()
                        .with_transport(transport)
                        .with_batch_tuples(batch);
                    let r = run_config(&q, &db, &cluster, s, j, &opts).expect("streams");
                    let cell = format!("{transport} batch {batch} t={threads}");
                    let (want, got) = (local.output.as_ref(), r.output.as_ref());
                    assert_eq!(
                        want.expect("collected").raw(),
                        got.expect("collected").raw(),
                        "{cell}: output rows or their order drifted"
                    );
                    for (a, b) in local.shuffles.iter().zip(&r.shuffles) {
                        assert_eq!(a.per_consumer, b.per_consumer, "{cell}: {}", a.label);
                    }
                    for name in [
                        metric_names::PEAK_WORKER_TUPLES,
                        metric_names::PROBE_MORSELS,
                    ] {
                        assert_eq!(local.metric(name), r.metric(name), "{cell}: {name}");
                    }
                    assert_eq!(received_joins(&r), streamed_ranks, "{cell}");
                }
            }
        }
    }
}

/// A three-atom path `A(x, y), B(y, z), C(z, w)` whose intermediate
/// `AB` gives every rank over `MORSEL_MIN_ROWS` rows to probe in the
/// last step: at two probe threads `Local` splits that probe into
/// morsels, and a streaming run keeps the step materialised, so it
/// splits the same way; at one thread every rank joins on receipt.
/// Outputs, tallies, peak tuples and morsels agree with `Local`.
#[test]
fn a_last_probe_split_into_morsels_stays_materialised() {
    let mut q = QueryBuilder::new("ABC");
    let (x, y, z, w) = (q.var("x"), q.var("y"), q.var("z"), q.var("w"));
    q.atom("A", [x, y]).atom("B", [y, z]).atom("C", [z, w]);
    let q = q.build();
    let mut db = Database::new();
    let a: Vec<[u64; 2]> = (0..1000).map(|i| [i, i % 25]).collect();
    let b: Vec<[u64; 2]> = (0..1000).map(|i| [i % 25, i]).collect();
    let c: Vec<[u64; 2]> = (0..1200).map(|i| [500 + i, i]).collect();
    db.insert("A", Relation::from_rows(2, a.iter()));
    db.insert("B", Relation::from_rows(2, b.iter()));
    db.insert("C", Relation::from_rows(2, c.iter()));
    let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
    let morsels = |r: &RunResult| r.metric(metric_names::PROBE_MORSELS).expect("morsels");
    let mut sequential = 0;
    for threads in [1, 2] {
        let opts = PlanOptions {
            collect_output: true,
            probe_threads: Some(threads),
            ..Default::default()
        };
        let cluster = Cluster::new(4).with_seed(11);
        let local = run_config(&q, &db, &cluster, s, j, &opts).expect("Local");
        let [left, base] = &local.shuffles[local.shuffles.len() - 2..] else {
            unreachable!("two steps shuffle four times")
        };
        assert!(
            (left.per_consumer.iter().zip(&base.per_consumer))
                .all(|(&l, &b)| l > b && l as usize >= probe::MORSEL_MIN_ROWS),
            "every rank probes its streamed side, over the morsel gate: {:?} vs {:?}",
            left.per_consumer,
            base.per_consumer
        );
        if threads == 1 {
            sequential = morsels(&local);
        } else {
            assert!(morsels(&local) > sequential, "the last probe split");
        }
        for transport in STREAMING {
            for batch in [7, 4096] {
                let cluster = cluster
                    .clone()
                    .with_transport(transport)
                    .with_batch_tuples(batch);
                let r = run_config(&q, &db, &cluster, s, j, &opts).expect("streams");
                let cell = format!("{transport} batch {batch} t={threads}");
                let (want, got) = (local.output.as_ref(), r.output.as_ref());
                assert_eq!(
                    want.expect("collected").raw(),
                    got.expect("collected").raw(),
                    "{cell}: output rows or their order drifted"
                );
                for (a, b) in local.shuffles.iter().zip(&r.shuffles) {
                    assert_eq!(a.per_consumer, b.per_consumer, "{cell}: {}", a.label);
                }
                for name in [
                    metric_names::PEAK_WORKER_TUPLES,
                    metric_names::PROBE_MORSELS,
                ] {
                    assert_eq!(local.metric(name), r.metric(name), "{cell}: {name}");
                }
                let want = if threads == 1 { 4 } else { 0 };
                assert_eq!(received_joins(&r), want, "{cell}: ranks joining on receipt");
            }
        }
    }
}

/// The counted memory budget on the receive side: a budget tight enough
/// to fail RS_HJ somewhere fails it with the same typed error, naming
/// the same rank, on every transport — whichever step's booking trips
/// it — and the next query runs normally.
#[test]
fn rs_hj_memory_budget_fails_the_same_on_streaming_transports() {
    let spec = parjoin::datagen::workloads::q1();
    let db = parity::db_for(&spec);
    let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
    let opts = PlanOptions::default();
    let cluster = Cluster::new(4).with_seed(11);
    let free = run_config(&spec.query, &db, &cluster, s, j, &opts).expect("Q1");
    let peak = free.metric(metric_names::PEAK_WORKER_TUPLES).expect("peak");
    let outcome = |transport, budget| {
        let cluster = (cluster.clone())
            .with_transport(transport)
            .with_memory_budget(budget);
        match run_config(&spec.query, &db, &cluster, s, j, &opts) {
            Err(EngineError::MemoryBudget {
                worker,
                needed,
                budget,
            }) => Some((worker, needed, budget)),
            Ok(_) => None,
            Err(other) => panic!("{transport}: budget {budget}: {other}"),
        }
    };
    for budget in [peak / 4, peak / 2, peak - 1, peak] {
        let local = outcome(TransportKind::Local, budget);
        assert_eq!(local.is_some(), budget < peak, "budget {budget} of {peak}");
        for transport in STREAMING {
            assert_eq!(
                outcome(transport, budget),
                local,
                "{transport} budget {budget}"
            );
            let cluster = cluster.clone().with_transport(transport);
            let next = run_config(&spec.query, &db, &cluster, s, j, &opts)
                .unwrap_or_else(|e| panic!("{transport}: the next query fails: {e}"));
            assert_eq!(next.output_tuples, free.output_tuples, "{transport}");
        }
    }
}

/// A consumer that keeps, per source, the sum of the first column and
/// the row count it was handed, and no rows.
struct Tally {
    inbox: Relation,
    per_src: Vec<(u64, u64)>,
}

impl Consume for Tally {
    type Report = Vec<(u64, u64)>;

    fn inbox(&mut self, _: usize) -> &mut Relation {
        &mut self.inbox
    }

    fn received(&mut self, src: usize, rows: usize) {
        assert_eq!(self.inbox.len(), rows, "one frame's rows at a time");
        let sum = self.inbox.rows().map(|r| r[0]).sum::<u64>();
        let (s, n) = &mut self.per_src[src];
        (*s, *n) = (*s + sum, *n + rows as u64);
        self.inbox.clear();
    }

    fn finish(self) -> (Relation, Self::Report) {
        (Relation::new(self.inbox.arity()), self.per_src)
    }
}

/// The runtime's consumer-drained exchange hands each rank every row the
/// shuffle routes to it, tagged with its source, and still tallies the
/// tuples each rank received; the same runtime then shuffles normally.
#[test]
fn consumer_drained_exchange_sees_every_routed_row() {
    let workers = 3;
    let parts: Vec<Relation> = (0..workers as u64)
        .map(|w| {
            let rows: Vec<[u64; 2]> = (0..2000 + 300 * w).map(|i| [i * 3 + w, i % 71]).collect();
            Relation::from_rows(2, rows.iter())
        })
        .collect();
    let route = Route::hash(vec![1], 5, workers).expect("route");
    for transport in [
        TransportKind::Local,
        TransportKind::InProcess,
        TransportKind::Tcp,
    ] {
        for batch in [1, 64, 4096] {
            let cell = format!("{transport} batch {batch}");
            let rt = Runtime::new(RuntimeConfig {
                workers,
                transport,
                batch_tuples: batch,
                ..RuntimeConfig::default()
            })
            .expect("runtime");
            let want = rt.shuffle(parts.clone(), &route).expect("shuffle");
            let consumers = (0..workers)
                .map(|_| Tally {
                    inbox: Relation::new(2),
                    per_src: vec![(0, 0); workers],
                })
                .collect();
            let (got, _, tallies) = rt
                .exchange_with(parts.clone(), consumers, &route)
                .expect("exchange");
            assert_eq!(got.per_consumer, want.per_consumer, "{cell}");
            assert_eq!(got.per_producer, want.per_producer, "{cell}");
            assert!(
                got.parts.iter().all(Relation::is_empty),
                "{cell}: Tally keeps no rows"
            );
            for (d, (tally, part)) in tallies.iter().zip(&want.parts).enumerate() {
                let total: (u64, u64) = tally.iter().fold((0, 0), |a, t| (a.0 + t.0, a.1 + t.1));
                let sum = part.rows().map(|r| r[0]).sum::<u64>();
                assert_eq!(total, (sum, part.len() as u64), "{cell}: rank {d}");
                if transport.is_streaming() {
                    // The source is the rank whose residue `x % 3` is.
                    for (src, &(s, n)) in tally.iter().enumerate() {
                        let from: Vec<_> = part.rows().filter(|r| r[0] % 3 == src as u64).collect();
                        assert_eq!(n, from.len() as u64, "{cell}: rank {d} from {src}");
                        assert_eq!(s, from.iter().map(|r| r[0]).sum::<u64>(), "{cell}");
                    }
                }
            }
            // The same runtime runs the next round.
            let again = rt.shuffle(parts.clone(), &route).expect("next shuffle");
            assert_eq!(again.per_consumer, want.per_consumer, "{cell}: next round");
            rt.shutdown().expect("clean shutdown");
        }
    }
}
