//! Parity slice — **the streaming transports**: the production path
//! over `InProcess` channels and loopback `Tcp` against the reference
//! configuration on `Local`, Q1–Q8 × six configurations (eight on the
//! acyclic Q3 and Q7)
//! (`parity::check`, which also pins that moved tuples mean moved bytes
//! and that the runtime's byte counters equal the shuffles' `bytes_sent`).
//!
//! The streaming exchange accumulates batches per source and
//! concatenates sources in ascending order, so it reproduces the Local
//! loop's row order, not merely its multiset.

#[macro_use]
mod parity;

use parity::{db_for, production, reference, Production};
use parjoin::prelude::*;

const STREAMING: [Production; 2] = [
    Production::streaming(TransportKind::InProcess),
    Production::streaming(TransportKind::Tcp),
];

fn check(spec: &QuerySpec) {
    parity::check(spec, &STREAMING);
}

/// Per-shuffle stats must agree across transports — same labels, same
/// per-producer and per-consumer tallies — with bytes the only
/// difference; InProcess and Tcp must agree on bytes too (framing is
/// excluded from the count).
fn check_stats(spec: &QuerySpec) {
    let db = db_for(spec);
    for (s, j) in parity::configs_for(spec) {
        let local = reference(spec, &db, s, j);
        let streamed = STREAMING.map(|p| production(spec, &db, s, j, p));
        for run in &streamed {
            assert_eq!(local.shuffles.len(), run.shuffles.len());
            for (a, b) in local.shuffles.iter().zip(&run.shuffles) {
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
        for (a, b) in streamed[0].shuffles.iter().zip(&streamed[1].shuffles) {
            assert_eq!(
                a.bytes_sent, b.bytes_sent,
                "{}: InProcess and Tcp disagree on {}",
                spec.name, a.label
            );
        }
    }
}

parity_tests! { check;
    q1_triangles_all_transports => q1,
    q2_cliques_all_transports => q2,
    q3_cast_members_all_transports => q3,
    q4_actor_pairs_all_transports => q4,
    q5_rectangles_all_transports => q5,
    q6_two_rings_all_transports => q6,
    q7_oscar_winners_all_transports => q7,
    q8_actor_director_all_transports => q8,
}

parity_tests! { check_stats;
    q1_stats_agree_across_transports => q1,
    q2_stats_agree_across_transports => q2,
    q3_stats_agree_across_transports => q3,
}
