//! Cross-format correctness: every wire format variant — the legacy
//! varint framing, the zero-copy vectored framing, and vectored with
//! delta+varint column compression — must produce byte-identical query
//! output on Q1–Q8 under all six shuffle×join configurations, on every
//! streaming transport. The Local path (no wire at all) is the baseline,
//! so this suite also proves the formats agree with each other.
//!
//! Alongside output identity it pins the byte-accounting contract: with
//! compression off, `bytes_shuffled_raw == bytes_shuffled` (the raw
//! tally is the uncompressed-equivalent cost); with compression on,
//! raw >= wire. And the analyzer's per-frame estimate — the arithmetic
//! behind the R411/R414 batch-size pre-flight — must track the bytes the
//! exchange actually moves to within 10%.

use parjoin::prelude::*;

fn streaming_transports() -> [TransportKind; 2] {
    [TransportKind::InProcess, TransportKind::Tcp]
}

fn all_configs() -> Vec<(ShuffleAlg, JoinAlg)> {
    vec![
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::Regular, JoinAlg::Tributary),
        (ShuffleAlg::Broadcast, JoinAlg::Hash),
        (ShuffleAlg::Broadcast, JoinAlg::Tributary),
        (ShuffleAlg::HyperCube, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ]
}

/// The wire variants under test: (label, frame format, compression).
fn variants() -> Vec<(&'static str, WireFormat, bool)> {
    vec![
        ("varint", WireFormat::Varint, false),
        ("vectored", WireFormat::Vectored, false),
        ("vectored+delta", WireFormat::Vectored, true),
    ]
}

fn run_under(
    spec: &QuerySpec,
    db: &Database,
    s: ShuffleAlg,
    j: JoinAlg,
    transport: TransportKind,
    format: WireFormat,
    compression: bool,
) -> RunResult {
    // Small batches force multi-batch streams even at tiny scale, so the
    // flush path (not just the final partial batch) is exercised.
    let cluster = Cluster::new(4)
        .with_seed(11)
        .with_transport(transport)
        .with_batch_tuples(512)
        .with_wire_format(format);
    let opts = PlanOptions {
        collect_output: true,
        wire_compression: compression,
        ..Default::default()
    };
    run_config(&spec.query, db, &cluster, s, j, &opts).unwrap_or_else(|e| {
        panic!(
            "{} {s:?}/{j:?} on {transport} ({format:?}, compression={compression}): {e}",
            spec.name
        )
    })
}

fn check_query_at(spec: &QuerySpec, scale: Scale) {
    let db = scale.db_for(spec.dataset, 7);
    for (s, j) in all_configs() {
        let local = run_under(
            spec,
            &db,
            s,
            j,
            TransportKind::Local,
            WireFormat::default(),
            false,
        );
        let local_out = local.output.as_ref().expect("collected");
        for transport in streaming_transports() {
            for (name, format, compression) in variants() {
                let streamed = run_under(spec, &db, s, j, transport, format, compression);
                let streamed_out = streamed.output.as_ref().expect("collected");
                assert_eq!(
                    local_out.raw(),
                    streamed_out.raw(),
                    "{} {s:?}/{j:?} on {transport}/{name}: output not byte-identical",
                    spec.name
                );
                assert_eq!(
                    local.tuples_shuffled, streamed.tuples_shuffled,
                    "{} {s:?}/{j:?} on {transport}/{name}: tuple tallies drifted",
                    spec.name
                );
                if compression {
                    assert!(
                        streamed.bytes_shuffled_raw >= streamed.bytes_shuffled,
                        "{} {s:?}/{j:?} on {transport}/{name}: compression inflated the wire \
                         ({} raw < {} sent)",
                        spec.name,
                        streamed.bytes_shuffled_raw,
                        streamed.bytes_shuffled
                    );
                } else {
                    assert_eq!(
                        streamed.bytes_shuffled_raw, streamed.bytes_shuffled,
                        "{} {s:?}/{j:?} on {transport}/{name}: raw tally must equal wire \
                         tally when compression is off",
                        spec.name
                    );
                }
            }
        }
    }
}

fn check_query(spec: &QuerySpec) {
    check_query_at(spec, Scale::tiny());
}

#[test]
fn q1_triangles_all_formats() {
    check_query(&parjoin::datagen::workloads::q1());
}

#[test]
fn q2_cliques_all_formats() {
    check_query(&parjoin::datagen::workloads::q2());
}

#[test]
fn q3_cast_members_all_formats() {
    check_query(&parjoin::datagen::workloads::q3());
}

#[test]
fn q4_actor_pairs_all_formats() {
    // Q4's regular-shuffle plan blows up combinatorially; use the same
    // extra-small catalog as the transports suite.
    let scale = Scale {
        twitter_nodes: 300,
        twitter_m: 3,
        freebase_performances: 250,
    };
    check_query_at(&parjoin::datagen::workloads::q4(), scale);
}

#[test]
fn q5_rectangles_all_formats() {
    check_query(&parjoin::datagen::workloads::q5());
}

#[test]
fn q6_two_rings_all_formats() {
    check_query(&parjoin::datagen::workloads::q6());
}

#[test]
fn q7_oscar_winners_all_formats() {
    check_query(&parjoin::datagen::workloads::q7());
}

#[test]
fn q8_actor_director_all_formats() {
    check_query(&parjoin::datagen::workloads::q8());
}

/// The analyzer's per-frame byte estimate (`estimated_frame_bytes`, the
/// arithmetic behind R411/R414) multiplied by the observed batch count
/// must land within 10% of the bytes the exchange actually sent. Full
/// batches match exactly; the slack covers each stream's partial tail.
#[test]
fn analyzer_frame_estimate_tracks_actual_bytes_within_10_percent() {
    use parjoin_analyze::{estimated_frame_bytes, JoinKind, PlanSpec, ShuffleKind};
    use parjoin_common::hash;
    use parjoin_obs::{Registry, TraceSink};
    use parjoin_runtime::{Router, Runtime, RuntimeConfig, RuntimeObs};
    use std::sync::Arc;
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
    let router: Router =
        Arc::new(move |_w, row, dests| dests.push(hash::bucket(row[0], 3, workers)));

    for format in [WireFormat::Varint, WireFormat::Vectored] {
        let spec = PlanSpec::new(&query, workers, ShuffleKind::Regular, JoinKind::Hash)
            .with_batch_tuples(batch as u64)
            .with_wire_format(format);
        let per_frame = estimated_frame_bytes(&spec, batch as u64);

        let reg = Registry::new();
        let cfg = RuntimeConfig {
            workers,
            transport: TransportKind::InProcess,
            batch_tuples: batch,
            io_timeout: Duration::from_secs(20),
            wire_format: format,
            obs: RuntimeObs::on_registry(&reg, TraceSink::enabled()),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::new(cfg).expect("runtime");
        let out = rt
            .shuffle(parts.clone(), Arc::clone(&router))
            .expect("shuffle");
        rt.shutdown().expect("shutdown");

        let batches = reg.get("runtime.tx.batches").expect("batch counter");
        let estimate = per_frame * batches;
        let actual = out.bytes_sent;
        let drift = estimate.abs_diff(actual) as f64 / actual as f64;
        assert!(
            drift <= 0.10,
            "{format:?}: estimate {estimate} vs actual {actual} drifts {:.1}% (> 10%)",
            drift * 100.0
        );
        // The estimate is an upper bound: partial tail batches only ever
        // shrink the real frames below a full batch's estimate.
        assert!(
            estimate >= actual,
            "{format:?}: estimate must not undershoot"
        );
    }
}
