//! Cross-transport correctness: every shuffle×join configuration on
//! every paper query produces byte-identical output whether shuffles run
//! on the sequential Local path, the InProcess streaming transport, or
//! loopback TCP — and the streaming transports
//! report real byte tallies with unchanged tuple counts.
//!
//! Byte-identical means exactly that: the collected output's backing
//! buffers are compared raw, unsorted. The streaming exchange
//! accumulates batches per source and concatenates sources in ascending
//! order, so it reproduces the Local loop's row order, not merely its
//! multiset.

use parjoin::prelude::*;

fn transports() -> [TransportKind; 3] {
    [
        TransportKind::Local,
        TransportKind::InProcess,
        TransportKind::Tcp,
    ]
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

fn run_under(
    spec: &QuerySpec,
    db: &Database,
    s: ShuffleAlg,
    j: JoinAlg,
    transport: TransportKind,
) -> RunResult {
    // A small batch size forces multi-batch streams even at tiny scale,
    // exercising the flush path, not just the final partial batch.
    let cluster = Cluster::new(4)
        .with_seed(11)
        .with_transport(transport)
        .with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    run_config(&spec.query, db, &cluster, s, j, &opts)
        .unwrap_or_else(|e| panic!("{} {s:?}/{j:?} on {transport}: {e}", spec.name))
}

fn check_query_at(spec: &QuerySpec, scale: Scale) {
    let db = scale.db_for(spec.dataset, 7);
    for (s, j) in all_configs() {
        let local = run_under(spec, &db, s, j, TransportKind::Local);
        let local_out = local.output.as_ref().expect("collected");
        assert_eq!(local.bytes_shuffled, 0, "{} {s:?}/{j:?}", spec.name);
        for transport in transports().into_iter().skip(1) {
            let streamed = run_under(spec, &db, s, j, transport);
            let streamed_out = streamed.output.as_ref().expect("collected");
            assert_eq!(
                local_out.arity(),
                streamed_out.arity(),
                "{} {s:?}/{j:?} on {transport}: arity drifted",
                spec.name
            );
            assert_eq!(
                local_out.raw(),
                streamed_out.raw(),
                "{} {s:?}/{j:?} on {transport}: output not byte-identical",
                spec.name
            );
            assert_eq!(
                local.tuples_shuffled, streamed.tuples_shuffled,
                "{} {s:?}/{j:?} on {transport}: tuple tallies drifted",
                spec.name
            );
            if streamed.tuples_shuffled > 0 {
                assert!(
                    streamed.bytes_shuffled > 0,
                    "{} {s:?}/{j:?} on {transport}: streaming moved tuples but no bytes",
                    spec.name
                );
            }
        }
    }
}

fn check_query(spec: &QuerySpec) {
    check_query_at(spec, Scale::tiny());
}

/// Per-shuffle stats must agree across transports — same labels, same
/// per-producer and per-consumer tallies — with bytes the only
/// difference; InProcess and Tcp must agree on bytes too (framing is
/// excluded from the count).
fn check_stats(spec: &QuerySpec) {
    let db = Scale::tiny().db_for(spec.dataset, 7);
    for (s, j) in all_configs() {
        let runs: Vec<RunResult> = transports()
            .into_iter()
            .map(|t| run_under(spec, &db, s, j, t))
            .collect();
        let local = &runs[0];
        for streamed in &runs[1..] {
            assert_eq!(local.shuffles.len(), streamed.shuffles.len());
            for (a, b) in local.shuffles.iter().zip(&streamed.shuffles) {
                assert_eq!(a.label, b.label, "{} {s:?}/{j:?}", spec.name);
                assert_eq!(a.per_producer, b.per_producer, "{}: {}", spec.name, a.label);
                assert_eq!(a.per_consumer, b.per_consumer, "{}: {}", spec.name, a.label);
                assert_eq!(a.bytes_sent, 0, "{}: local moves no bytes", spec.name);
                assert_eq!(
                    b.bytes_sent, b.bytes_received,
                    "{}: every sent byte is received",
                    spec.name
                );
            }
        }
        // InProcess and Tcp count identical bytes.
        for (a, b) in runs[1].shuffles.iter().zip(&runs[2].shuffles) {
            assert_eq!(
                a.bytes_sent, b.bytes_sent,
                "{}: InProcess and Tcp disagree on {}",
                spec.name, a.label
            );
        }
    }
}

#[test]
fn q1_triangles_all_transports() {
    check_query(&parjoin::datagen::workloads::q1());
}

#[test]
fn q2_cliques_all_transports() {
    check_query(&parjoin::datagen::workloads::q2());
}

#[test]
fn q3_cast_members_all_transports() {
    check_query(&parjoin::datagen::workloads::q3());
}

#[test]
fn q4_actor_pairs_all_transports() {
    // Q4's regular-shuffle plan blows up combinatorially; use the same
    // extra-small catalog as the configs_agree suite.
    let scale = Scale {
        twitter_nodes: 300,
        twitter_m: 3,
        freebase_performances: 250,
    };
    check_query_at(&parjoin::datagen::workloads::q4(), scale);
}

#[test]
fn q5_rectangles_all_transports() {
    check_query(&parjoin::datagen::workloads::q5());
}

#[test]
fn q6_two_rings_all_transports() {
    check_query(&parjoin::datagen::workloads::q6());
}

#[test]
fn q7_oscar_winners_all_transports() {
    check_query(&parjoin::datagen::workloads::q7());
}

#[test]
fn q8_actor_director_all_transports() {
    check_query(&parjoin::datagen::workloads::q8());
}

#[test]
fn q1_stats_agree_across_transports() {
    check_stats(&parjoin::datagen::workloads::q1());
}

#[test]
fn q2_stats_agree_across_transports() {
    check_stats(&parjoin::datagen::workloads::q2());
}

#[test]
fn q3_stats_agree_across_transports() {
    check_stats(&parjoin::datagen::workloads::q3());
}
