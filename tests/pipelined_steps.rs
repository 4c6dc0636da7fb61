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

#[macro_use]
mod parity;

use parjoin::engine::local::{hash_join, SchemaRel};
use parjoin::engine::plans::greedy_join_order;
use parjoin::engine::{shuffle, DistRel};
use parjoin::obs::{Lane, Registry, TraceSink};
use parjoin::prelude::*;
use parjoin::query::resolve_atoms;
use parjoin::runtime::exchange::{Produce, RowSink};
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

fn check_plan(spec: &QuerySpec, config: (ShuffleAlg, JoinAlg)) {
    let db = parity::db_for(spec);
    for threads in [1, 2] {
        let local = run(spec, &db, config, TransportKind::Local, 4096, threads);
        assert!(
            local.shuffles.len() >= 4,
            "{}: a multi-step plan shuffles at least twice per step",
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
}

#[test]
fn q1_rs_hj_pipelined_matches_local() {
    check_plan(
        &parjoin::datagen::workloads::q1(),
        (ShuffleAlg::Regular, JoinAlg::Hash),
    );
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
