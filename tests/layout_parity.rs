//! Parity slice — **the trie layout**: the production path on `Local`
//! pinned to one probe thread — the columnar level-segmented CSR trie
//! with its chunk-wise gallop and the SortCache + TrieCache layering,
//! nothing parallel — against the reference configuration's row-major
//! sorted arrays, Q1–Q8 × six configurations (`parity::check`). The
//! 2- and 4-thread points of the same axis are `probe_parallel`'s.

#[macro_use]
mod parity;

use parity::{db_for, production, reference, Production};
use parjoin::prelude::*;

fn check(spec: &QuerySpec) {
    parity::check(spec, &[Production::local(Some(1))]);
}

parity_tests! { check;
    q1_triangles_columnar_identical => q1,
    q2_cliques_columnar_identical => q2,
    q3_cast_members_columnar_identical => q3,
    q4_actor_pairs_columnar_identical => q4,
    q5_rectangles_columnar_identical => q5,
    q6_two_rings_columnar_identical => q6,
    q7_oscar_winners_columnar_identical => q7,
    q8_actor_director_columnar_identical => q8,
}

#[test]
fn columnar_runs_report_trie_cache_traffic() {
    // The columnar prepare consults the TrieCache; the row layout of the
    // reference configuration must never touch it.
    let spec = parjoin::datagen::workloads::q1();
    let db = db_for(&spec);
    let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
    let columnar = production(&spec, &db, s, j, Production::local(None));
    assert!(
        columnar.trie_cache_hits + columnar.trie_cache_misses > 0,
        "columnar prepare recorded no trie-cache lookups"
    );
    let row = reference(&spec, &db, s, j);
    assert_eq!(
        (row.trie_cache_hits, row.trie_cache_misses),
        (0, 0),
        "row layout must not touch the trie cache"
    );
}
