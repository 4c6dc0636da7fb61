//! Parity slice — **the wire**: the production path over both streaming
//! transports with one tuple per frame — the header, the pool and the
//! decoder at their busiest — against the reference configuration,
//! Q1–Q8 × six configurations (`parity::check`, which also pins that the
//! runtime sent one frame per shuffled tuple and that its byte counters
//! equal the shuffles' `bytes_sent`); the 512-row points of the same axis are
//! `transports`'. There is one frame layout, so there is no format axis.
//!
//! And the analyzer's per-frame estimate — the arithmetic behind the
//! R411/R414 batch-size pre-flight — must track the bytes the exchange
//! actually moves to within 10%.

#[macro_use]
mod parity;

use parity::Production;
use parjoin::prelude::*;

fn check(spec: &QuerySpec) {
    parity::check(
        spec,
        &[
            Production::framed(TransportKind::InProcess, 1),
            Production::framed(TransportKind::Tcp, 1),
        ],
    );
}

parity_tests! { check;
    q1_triangles_all_formats => q1,
    q2_cliques_all_formats => q2,
    q3_cast_members_all_formats => q3,
    q4_actor_pairs_all_formats => q4,
    q5_rectangles_all_formats => q5,
    q6_two_rings_all_formats => q6,
    q7_oscar_winners_all_formats => q7,
    q8_actor_director_all_formats => q8,
}

/// The analyzer's per-frame byte estimate (`estimated_frame_bytes`, the
/// arithmetic behind R411/R414) multiplied by the observed batch count
/// must land within 10% of the bytes the exchange actually sent. Full
/// batches match exactly; the slack covers each stream's partial tail.
#[test]
fn analyzer_frame_estimate_tracks_actual_bytes_within_10_percent() {
    use parjoin_analyze::{estimated_frame_bytes, JoinKind, PlanSpec, ShuffleKind};
    use parjoin_obs::{Registry, TraceSink};
    use parjoin_runtime::{Route, Runtime, RuntimeConfig, RuntimeObs};
    use std::time::Duration;

    // A two-atom query whose widest atom has arity 2 — matching the
    // relation we shuffle below, as the engine's pre-flight would see it.
    let mut b = QueryBuilder::new("est");
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", [x, y]).atom("S", [y, z]).head([x, z]);
    let query = b.build();

    let workers = 4;
    let batch = 128usize;
    let arity = 2;
    let mut parts: Vec<Relation> = (0..workers).map(|_| Relation::new(arity)).collect();
    // Enough rows that each of the 16 producer->consumer streams runs
    // ~15 batches: the partial tail batch (the only place estimate and
    // actual diverge) stays a small fraction of the total.
    for i in 0..32_000u64 {
        parts[(i % workers as u64) as usize].push_row(&[i * 7 % 997, i * 13 % 991]);
    }
    let route = Route::hash(vec![0], 3, workers).expect("route");

    let spec = PlanSpec::new(&query, workers, ShuffleKind::Regular, JoinKind::Hash)
        .with_batch_tuples(batch as u64);
    let per_frame = estimated_frame_bytes(&spec, batch as u64);

    let reg = Registry::new();
    let cfg = RuntimeConfig {
        workers,
        transport: TransportKind::InProcess,
        batch_tuples: batch,
        io_timeout: Duration::from_secs(20),
        obs: RuntimeObs::on_registry(&reg, TraceSink::enabled()),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(cfg).expect("runtime");
    let out = rt.shuffle(parts, &route).expect("shuffle");
    rt.shutdown().expect("shutdown");

    let batches = reg.get("runtime.tx.batches").expect("batch counter");
    let estimate = per_frame * batches;
    let actual = out.bytes_sent;
    let drift = estimate.abs_diff(actual) as f64 / actual as f64;
    assert!(
        drift <= 0.10,
        "estimate {estimate} vs actual {actual} drifts {:.1}% (> 10%)",
        drift * 100.0
    );
    // The estimate is an upper bound: partial tail batches only ever
    // shrink the real frames below a full batch's estimate.
    assert!(estimate >= actual, "estimate must not undershoot");
}
