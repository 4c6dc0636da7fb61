//! Parity slice — **the prepare pipeline**: the production path on
//! `Local` at host-default probe threads against the reference
//! configuration, Q1–Q8 × six configurations (`parity::check`), once per
//! trie layout: columnar tries from the TrieCache (pack → sort → emit on
//! a miss) and row-major sorted views from the SortCache (parallel radix
//! sort on a miss). The check also pins that the reference never
//! consults a cache, that only one-round Tributary plans do, and that
//! each layout consults only its own cache. Plus what only a *pair* of
//! production runs can show: a repeated identical run reports cache
//! hits, and a hit depends on content and columns only — not on whether
//! the run that cached it carried a certificate.

#[macro_use]
mod parity;

use parity::{db_for, production, Production};
use parjoin::engine::{execute_fragment, plan_fragments, DiagCode};
use parjoin::prelude::*;

fn check(spec: &QuerySpec) {
    parity::check(
        spec,
        &[
            Production::local(None),
            Production::local(None).with_layout(TrieLayout::Row),
        ],
    );
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

fn q1_br_tj(layout: TrieLayout) -> RunResult {
    let spec = parjoin::datagen::workloads::q1();
    production(
        &spec,
        &db_for(&spec),
        ShuffleAlg::Broadcast,
        JoinAlg::Tributary,
        Production::local(None).with_layout(layout),
    )
}

#[test]
fn second_identical_run_hits_the_cache() {
    // Each layout prepares through its own cache: the TrieCache serves
    // columnar tries, the SortCache row-major sorted views.
    for layout in [TrieLayout::Columnar, TrieLayout::Row] {
        let first = q1_br_tj(layout);
        let second = q1_br_tj(layout);
        assert_eq!(
            first.output.as_ref().expect("collected").raw(),
            second.output.as_ref().expect("collected").raw(),
            "identical {layout:?} runs must agree"
        );
        let lookups = |r: &RunResult| match layout {
            TrieLayout::Columnar => (r.trie_cache_hits, r.trie_cache_misses),
            TrieLayout::Row => (r.sort_cache_hits, r.sort_cache_misses),
        };
        let (hits, misses) = lookups(&second);
        // The second run re-prepares the same post-shuffle fragments
        // with the same permutations, so every lookup the first run
        // populated now hits.
        assert!(
            hits >= 1,
            "second identical {layout:?} run reported no cache hits (hits={hits}, misses={misses})"
        );
        assert!(
            hits >= lookups(&first).0,
            "{layout:?} cache hits regressed between identical runs"
        );
    }
}

#[test]
fn certified_run_hits_what_an_uncertified_run_cached() {
    // Every `run_config` run carries its R420 certificate. A mesh rank
    // executing a shipped fragment carries none: the worker runs the
    // pre-flight as a gate only. Both prepare through the same
    // process-wide caches, keyed on content and columns alone, so an
    // in-process run hits everything a rank of the same plan cached.
    let spec = parjoin::datagen::workloads::q1();
    let db = db_for(&spec);
    let cluster = Cluster::new(1);
    let (shuffle, join) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
    let opts = PlanOptions::default();
    let mut mesh = parjoin::runtime::HostMesh::bind("127.0.0.1:0").expect("binds");
    let addr = mesh.local_addr().expect("bound");
    let frag = plan_fragments(
        &spec.query,
        &db,
        &cluster,
        shuffle,
        join,
        &opts,
        &[addr.to_string()],
    )
    .expect("plans")
    .remove(0);
    mesh.join(0, vec![addr]).expect("one-rank mesh");
    let uncertified = execute_fragment(frag, &mesh).expect("rank runs");
    let certified = run_config(&spec.query, &db, &cluster, shuffle, join, &opts)
        .unwrap_or_else(|e| panic!("Q1 HC_TJ: {e}"));
    assert_eq!(certified.output_tuples, uncertified.output.len() as u64);
    // The columnar prepare is served by the TrieCache alone.
    assert!(
        certified.trie_cache_hits > 0 && certified.sort_cache_hits == 0,
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
        "every run_config run attaches R420"
    );
}

#[test]
fn prep_probe_breakdown_covers_local_join_cpu() {
    let r = q1_br_tj(TrieLayout::Columnar);
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
