//! Cross-transport exchange tests: the streaming transports must agree
//! with the sequential `Local` loop *exactly* — same partitions in the
//! same row order, same tallies — and report matching byte counts.

use parjoin_common::{hash, Relation};
use parjoin_runtime::{Route, Runtime, RuntimeConfig, ShuffleOutcome, TransportKind};
use std::sync::Arc;
use std::time::Duration;

fn config(transport: TransportKind, workers: usize, batch_tuples: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        transport,
        batch_tuples,
        channel_depth: 2, // shallow inbox to actually exercise backpressure
        io_timeout: Duration::from_secs(20),
        ..RuntimeConfig::default()
    }
}

/// A deterministic pseudo-random partitioning of `rows` tuples of
/// `arity` columns across `workers` partitions.
fn make_parts(workers: usize, arity: usize, rows: usize, seed: u64) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..workers).map(|_| Relation::new(arity)).collect();
    let mut row = vec![0u64; arity];
    for i in 0..rows {
        for (c, v) in row.iter_mut().enumerate() {
            *v = hash::bucket(i as u64 * 31 + c as u64, seed, 1000) as u64;
        }
        parts[i % workers].push_row(&row);
    }
    parts
}

fn hash_route(workers: usize, seed: u64) -> Route {
    Route::hash(vec![0], seed, workers).expect("route")
}

fn broadcast_route(workers: usize) -> Route {
    Route::broadcast(workers).expect("route")
}

fn run(
    transport: TransportKind,
    batch: usize,
    route: &Route,
    parts: &[Relation],
) -> ShuffleOutcome {
    let rt = Runtime::new(config(transport, parts.len(), batch)).expect("runtime");
    let out = rt.shuffle(parts.to_vec(), route).expect("shuffle");
    rt.shutdown().expect("shutdown");
    out
}

fn assert_same_shuffle(a: &ShuffleOutcome, b: &ShuffleOutcome) {
    assert_eq!(
        a.parts, b.parts,
        "partitions (including row order) must match"
    );
    assert_eq!(a.per_producer, b.per_producer);
    assert_eq!(a.per_consumer, b.per_consumer);
}

fn streaming_kinds() -> [TransportKind; 2] {
    [TransportKind::InProcess, TransportKind::Tcp]
}

#[test]
fn streaming_matches_local_hash_partition() {
    let workers = 4;
    let parts = make_parts(workers, 3, 1000, 42);
    let route = hash_route(workers, 7);
    // batch=64 forces multi-batch streams; batch=4096 gives single batches.
    for batch in [64, 4096] {
        let local = run(TransportKind::Local, batch, &route, &parts);
        assert_eq!(local.bytes_sent, 0, "local path moves no bytes");
        for kind in streaming_kinds() {
            let streamed = run(kind, batch, &route, &parts);
            assert_same_shuffle(&local, &streamed);
            assert!(
                streamed.bytes_sent > 0,
                "{kind}: streaming must move real bytes"
            );
            assert_eq!(
                streamed.bytes_sent, streamed.bytes_received,
                "{kind}: every sent byte is received"
            );
        }
    }
}

#[test]
fn streaming_matches_local_broadcast() {
    let workers = 3;
    let parts = make_parts(workers, 2, 300, 5);
    let route = broadcast_route(workers);
    let local = run(TransportKind::Local, 128, &route, &parts);
    assert_eq!(
        local.per_producer.iter().sum::<u64>(),
        300 * workers as u64,
        "broadcast sends one copy per worker"
    );
    for kind in streaming_kinds() {
        let streamed = run(kind, 128, &route, &parts);
        assert_same_shuffle(&local, &streamed);
    }
}

#[test]
fn in_process_and_tcp_report_identical_bytes() {
    // Byte tallies count encoded payload only (no transport framing), so
    // the two streaming transports must agree to the byte.
    let workers = 4;
    let parts = make_parts(workers, 2, 777, 9);
    let route = hash_route(workers, 3);
    let a = run(TransportKind::InProcess, 100, &route, &parts);
    let b = run(TransportKind::Tcp, 100, &route, &parts);
    assert_eq!(a.bytes_sent, b.bytes_sent);
    assert_eq!(a.bytes_received, b.bytes_received);
}

#[test]
fn nullary_relations_stream_with_multiplicity() {
    let workers = 2;
    let mut parts: Vec<Relation> = (0..workers).map(|_| Relation::new(0)).collect();
    parts[0].push_nullary_rows(5);
    parts[1].push_nullary_rows(2);
    // A hash on no column routes every nullary witness to one rank.
    let route = Route::hash(Vec::new(), 4, workers).expect("route");
    let local = run(TransportKind::Local, 3, &route, &parts);
    let rank = local
        .parts
        .iter()
        .position(|p| !p.is_empty())
        .expect("a rank");
    assert_eq!(local.parts[rank].len(), 7);
    assert_eq!(local.parts[rank].arity(), 0);
    for kind in streaming_kinds() {
        let streamed = run(kind, 3, &route, &parts);
        assert_same_shuffle(&local, &streamed);
        assert!(
            streamed.bytes_sent > 0,
            "even value-free batches have header bytes"
        );
    }
}

#[test]
fn empty_partitions_shuffle_cleanly() {
    let workers = 3;
    let parts: Vec<Relation> = (0..workers).map(|_| Relation::new(2)).collect();
    let route = hash_route(workers, 1);
    for kind in streaming_kinds() {
        let out = run(kind, 16, &route, &parts);
        assert!(out.parts.iter().all(Relation::is_empty));
        assert_eq!(out.per_producer, vec![0; workers]);
        assert_eq!(out.bytes_sent, 0, "no rows, no batches");
    }
}

#[test]
fn obs_counters_reconcile_with_shuffle_tallies() {
    use parjoin_obs::{Registry, TraceSink};
    use parjoin_runtime::RuntimeObs;
    let workers = 4;
    let parts = make_parts(workers, 2, 500, 11);
    let route = hash_route(workers, 3);
    for kind in streaming_kinds() {
        let reg = Registry::new();
        let trace = TraceSink::enabled();
        let mut cfg = config(kind, workers, 64);
        cfg.obs = RuntimeObs::on_registry(&reg, Arc::clone(&trace));
        let rt = Runtime::new(cfg).expect("runtime");
        let out = rt.shuffle(parts.clone(), &route).expect("shuffle");
        rt.shutdown().expect("shutdown");
        // Registry counters mirror the outcome tallies exactly.
        assert_eq!(reg.get("runtime.tx.bytes"), Some(out.bytes_sent), "{kind}");
        assert_eq!(
            reg.get("runtime.rx.bytes"),
            Some(out.bytes_received),
            "{kind}"
        );
        assert_eq!(
            reg.get("runtime.tx.batches"),
            reg.get("runtime.rx.batches"),
            "{kind}: every batch sent is received"
        );
        assert!(reg.get("runtime.tx.batches") > Some(0), "{kind}");
        assert_eq!(reg.get("runtime.rx.decode_errors"), Some(0), "{kind}");
        // The event-loop demux runs exactly one receive thread per worker
        // (the old design spawned one per peer: workers * workers).
        assert_eq!(
            reg.get("runtime.rx.threads"),
            Some(workers as u64),
            "{kind}: one receive loop per worker"
        );
        // Every batch frame passes through the pool exactly once (the
        // sending InProcess path or the receiving Tcp path acquires it,
        // the drain releases it), so pool traffic reconciles with the
        // batch count.
        assert_eq!(
            reg.get("runtime.buf.allocs").unwrap_or(0) + reg.get("runtime.buf.reuses").unwrap_or(0),
            reg.get("runtime.tx.batches").unwrap_or(u64::MAX),
            "{kind}: each frame is pooled exactly once"
        );
        // One `shuffle` span per worker on the worker's own lane.
        let spans: Vec<u32> = trace
            .events()
            .iter()
            .filter(|e| e.name == "shuffle")
            .map(|e| e.lane)
            .collect();
        assert_eq!(spans.len(), workers, "{kind}");
        for id in 0..workers {
            assert!(spans.contains(&(id as u32)), "{kind}: lane {id} missing");
        }
    }
}

/// A frame that passes the transport's length framing but is not a
/// valid batch — here a nine-byte header claiming 2^42 rows and
/// carrying none — must surface from `run_worker` as a typed error and
/// one count on `runtime.rx.decode_errors`: no panic, no 32 TiB
/// allocation.
#[test]
fn undecodable_frame_is_a_counted_typed_error() {
    use parjoin_common::wire;
    use parjoin_obs::{Registry, TraceSink};
    use parjoin_runtime::exchange::{run_worker, Accumulate, ExchangeOpts};
    use parjoin_runtime::transport::in_process_mesh;
    use parjoin_runtime::{BufPool, RuntimeError, RuntimeObs};

    let mut bomb = vec![0, 1];
    wire::write_varint(&mut bomb, 1 << 42);

    let pool = Arc::new(BufPool::detached());
    let mut eps = in_process_mesh(2, 4, Duration::from_secs(20), &pool).into_iter();
    let victim = eps.next().expect("endpoint 0");
    let hostile = eps.next().expect("endpoint 1");

    let peer = std::thread::spawn(move || {
        let (mut tx, mut rx) = hostile.split();
        tx.send_vectored(0, &bomb, &[]).expect("send");
        tx.finish().expect("finish");
        drop(tx);
        // Drain until our own stream ends or errors; outcome unused.
        while let Ok(Some(_)) = rx.recv() {}
    });

    let reg = Registry::new();
    let obs = RuntimeObs::on_registry(&reg, TraceSink::disabled());
    let opts = ExchangeOpts {
        batch_tuples: 16,
        format: Default::default(),
    };
    let route = hash_route(2, 1);
    let sides = (&Relation::new(1), Accumulate::new(1, 2));
    let out = run_worker(0, sides, opts, victim, &route, &obs, &pool);
    peer.join().expect("hostile peer");
    match out {
        Err(RuntimeError::Io(msg)) => assert!(msg.contains("worker 1"), "names the source: {msg}"),
        Err(other) => panic!("expected a decode error, got {other}"),
        Ok(_) => panic!("the bomb frame decoded"),
    }
    assert_eq!(reg.get("runtime.rx.decode_errors"), Some(1));
}

/// A route that panics on one rank kills that rank's actor mid-round.
/// Its peers see its streams end without end-of-stream and fail typed;
/// the caller gets a typed error well inside `io_timeout` — no hang, no
/// peer left blocked — the runtime refuses further shuffles, and
/// `shutdown()` names the rank that died. The fault is in rank 2's
/// input: its partition is narrower than the route's key column, so the
/// kernel indexes past its rows.
#[test]
fn panicking_router_is_a_typed_error_not_a_hang() {
    use parjoin_runtime::RuntimeError;
    let workers = 4;
    let mut parts = make_parts(workers, 2, 2000, 23);
    parts[2] = make_parts(1, 1, 500, 23).remove(0);
    for kind in streaming_kinds() {
        let route = Route::hash(vec![1], 5, workers).expect("route");
        let rt = Runtime::new(config(kind, workers, 64)).expect("runtime");
        let start = std::time::Instant::now();
        let err = rt.shuffle(parts.clone(), &route);
        assert!(
            matches!(err, Err(RuntimeError::Disconnected(ref m)) if m.contains("worker 2")),
            "{kind}: expected a typed error naming the dead rank, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{kind}: must not wait out the 20 s io_timeout"
        );
        let again = rt.shuffle(parts.clone(), &hash_route(workers, 5));
        assert!(
            matches!(again, Err(RuntimeError::Disconnected(ref m)) if m.contains("worker 2")),
            "{kind}: a runtime with a dead rank refuses the next round: {again:?}"
        );
        match rt.shutdown() {
            Err(RuntimeError::Io(msg)) => assert!(msg.contains("worker 2"), "{kind}: {msg}"),
            other => panic!("{kind}: shutdown must name the dead rank, got {other:?}"),
        }
    }
}

#[test]
fn buffer_pool_recycles_frames_across_sequential_shuffles() {
    use parjoin_obs::{Registry, TraceSink};
    use parjoin_runtime::RuntimeObs;
    let workers = 3;
    let parts = make_parts(workers, 2, 600, 17);
    let route = hash_route(workers, 2);
    for kind in streaming_kinds() {
        let reg = Registry::new();
        let mut cfg = config(kind, workers, 64);
        cfg.obs = RuntimeObs::on_registry(&reg, TraceSink::enabled());
        let rt = Runtime::new(cfg).expect("runtime");
        // Within one shuffle every frame may still be in flight when the
        // next is acquired, so reuse is not guaranteed — but the second
        // shuffle starts with the first's frames all back in the pool.
        let first = rt.shuffle(parts.clone(), &route).expect("shuffle 1");
        let second = rt.shuffle(parts.clone(), &route).expect("shuffle 2");
        rt.shutdown().expect("shutdown");
        assert_same_shuffle(&first, &second);
        let reuses = reg.get("runtime.buf.reuses").unwrap_or(0);
        let allocs = reg.get("runtime.buf.allocs").unwrap_or(0);
        assert!(
            reuses > 0,
            "{kind}: second shuffle must recycle pooled buffers (allocs={allocs})"
        );
        assert_eq!(
            allocs + reuses,
            reg.get("runtime.tx.batches").unwrap_or(u64::MAX),
            "{kind}: pool traffic reconciles with batch count"
        );
    }
}

#[test]
fn zero_batch_tuples_is_rejected() {
    let err = Runtime::new(config(TransportKind::InProcess, 2, 0));
    assert!(matches!(err, Err(parjoin_runtime::RuntimeError::Config(_))));
}

#[test]
fn partition_count_mismatch_is_rejected() {
    let rt = Runtime::new(config(TransportKind::Local, 3, 16)).expect("runtime");
    let route = hash_route(3, 1);
    let err = rt.shuffle(vec![Relation::new(1); 2], &route);
    assert!(matches!(err, Err(parjoin_runtime::RuntimeError::Config(_))));
}
