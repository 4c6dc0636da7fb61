//! Parity slice — **the prepare pipeline**: the production path on
//! `Local` at host-default probe threads (SortCache + TrieCache +
//! parallel radix sort) against the reference configuration, Q1–Q8 × six
//! configurations (`parity::check`), which also pins that the reference
//! never consults a cache and that only one-round Tributary plans do.
//! Plus what only a *pair* of production runs can show: a repeated
//! identical run reports sort-cache hits, and a hit depends on content
//! and columns only — not on whether either run was certified.

#[macro_use]
mod parity;

use parity::{db_for, production, Production};
use parjoin::engine::DiagCode;
use parjoin::prelude::*;

fn check(spec: &QuerySpec) {
    parity::check(spec, &[Production::local(None)]);
}

parity_tests! { check;
    q1_triangles_cached_prepare_identical => q1,
    q2_cliques_cached_prepare_identical => q2,
    q3_cast_members_cached_prepare_identical => q3,
    q4_actor_pairs_cached_prepare_identical => q4,
    q5_rectangles_cached_prepare_identical => q5,
    q6_two_rings_cached_prepare_identical => q6,
    q7_oscar_winners_cached_prepare_identical => q7,
    q8_actor_director_cached_prepare_identical => q8,
}

fn q1_br_tj() -> RunResult {
    let spec = parjoin::datagen::workloads::q1();
    production(
        &spec,
        &db_for(&spec),
        ShuffleAlg::Broadcast,
        JoinAlg::Tributary,
        Production::local(None),
    )
}

#[test]
fn second_identical_run_hits_the_cache() {
    let first = q1_br_tj();
    let second = q1_br_tj();
    assert_eq!(
        first.output.as_ref().expect("collected").raw(),
        second.output.as_ref().expect("collected").raw(),
        "identical runs must agree"
    );
    // The second run re-prepares the same post-shuffle fragments with
    // the same permutations, so every lookup the first run populated
    // now hits.
    assert!(
        second.sort_cache_hits >= 1,
        "second identical run reported no cache hits (hits={}, misses={})",
        second.sort_cache_hits,
        second.sort_cache_misses
    );
    assert!(
        second.sort_cache_hits >= first.sort_cache_hits,
        "cache hits regressed between identical runs"
    );
}

#[test]
fn certified_run_hits_what_an_uncertified_run_cached() {
    let spec = parjoin::datagen::workloads::q1();
    let db = db_for(&spec);
    let cluster = parity::cluster(TransportKind::Local);
    let run = |opts: &PlanOptions| {
        run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            opts,
        )
        .unwrap_or_else(|e| panic!("Q1 HC_TJ: {e}"))
    };
    run(&PlanOptions::default());
    let certified = run(&PlanOptions {
        certify: true,
        ..PlanOptions::default()
    });
    // Same fragments, same column orders: every sorted view and trie
    // the uncertified run left behind serves the certified one.
    assert!(
        certified.sort_cache_hits > 0 && certified.trie_cache_hits > 0,
        "{}",
        certified.report()
    );
    assert_eq!(
        (certified.sort_cache_misses, certified.trie_cache_misses),
        (0, 0),
        "{}",
        certified.report()
    );
    assert!(
        certified
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::PolicyCertified),
        "certify mode still attaches R420"
    );
}

#[test]
fn prep_probe_breakdown_covers_local_join_cpu() {
    let r = q1_br_tj();
    let pp = r.prep_probe();
    assert_eq!(pp.prep, r.sort_cpu());
    assert_eq!(pp.probe, r.join_cpu());
    assert!(
        (0.0..=1.0).contains(&pp.prep_fraction()),
        "prep fraction out of range: {}",
        pp.prep_fraction()
    );
    // The TJ plan did sort and did join.
    assert!(pp.prep + pp.probe > std::time::Duration::ZERO);
}
