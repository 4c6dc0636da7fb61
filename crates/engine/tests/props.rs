//! Property tests for the engine's shuffles and local joins.

use parjoin_common::hash::hash64;
use parjoin_common::wire::control::ControlError;
use parjoin_common::Relation;
use parjoin_core::hypercube::HcConfig;
use parjoin_core::tributary::ColumnarTrie;
use parjoin_core::tributary::{SortedAtom, Tributary};
use parjoin_engine::dist::DistRel;
use parjoin_engine::local::{hash_join, merge_join, semijoin, SchemaRel};
use parjoin_engine::prepare::{columnar_trie, sorted_by_columns_parallel};
use parjoin_engine::probe::morsel_bounds;
use parjoin_engine::shuffle;
use parjoin_engine::{
    plan_mesh, Cluster, Fragment, JoinAlg, PartitionRef, PlanOptions, ShuffleAlg, SortCache,
};
use parjoin_query::VarId;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn v(i: u32) -> VarId {
    VarId(i)
}

fn arb_rel(max_val: u64, max_rows: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..max_val, 0..max_val), 0..=max_rows).prop_map(|rows| {
        Relation::from_rows(2, rows.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>())
    })
}

fn multiset(rel: &Relation) -> BTreeMap<Vec<u64>, usize> {
    let mut m = BTreeMap::new();
    for row in rel.rows() {
        *m.entry(row.to_vec()).or_insert(0) += 1;
    }
    m
}

/// A valid rank-0 fragment payload per shuffle algorithm (a 12-edge
/// triangle query on two ranks), `group_count` and `skew_resilient`
/// set, with R's and U's partitions inline and S's named resident: the
/// seeds the hostile-bytes properties mutate.
fn valid_fragments() -> &'static [Vec<u8>] {
    static FRAGS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    FRAGS.get_or_init(|| {
        let q =
            parjoin_query::parser::parse("T(x, z) :- R(x, y), S(y, z), U(z, x), x < 9").unwrap();
        let edges: Vec<[u64; 2]> = (0..12u64).map(|i| [i, (i * 5 + 1) % 12]).collect();
        let mut db = parjoin_common::Database::new();
        for name in ["R", "S", "U"] {
            db.insert(name, Relation::from_rows(2, edges.iter()));
        }
        let opts = PlanOptions {
            skew_resilient: true,
            group_count: true,
            ..PlanOptions::default()
        };
        let addrs = ["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        [
            ShuffleAlg::Regular,
            ShuffleAlg::Broadcast,
            ShuffleAlg::HyperCube,
        ]
        .into_iter()
        .map(|s| {
            let cluster = Cluster::new(2);
            // The pushed-down `x < 9` gives R and U contents of their
            // own; S is the base relation.
            let held = db.get("S").unwrap().fingerprint();
            plan_mesh(&q, &db, &cluster, s, JoinAlg::Tributary, &opts, &addrs)
                .unwrap()
                .fragment(0, |fp| fp == held)
                .encode()
        })
        .collect()
    })
}

/// Decodes hostile `bytes` and pre-flights whatever decodes: both must
/// return — no panic, and no abort on an allocation sized by a decoded
/// count — and an accepted fragment is no larger than a small multiple
/// of the bytes it came from.
fn assert_fragment_decode_is_bounded(bytes: &[u8]) {
    if let Ok(frag) = Fragment::decode(bytes) {
        let decoded = frag.encode().len();
        assert!(
            decoded <= 8 * bytes.len(),
            "{} payload bytes decoded to a {decoded}-byte fragment",
            bytes.len()
        );
        let _ = frag.preflight();
    }
}

/// Offset of each partition reference in a valid fragment's payload.
fn part_offsets(bytes: &[u8]) -> Vec<usize> {
    let frag = Fragment::decode(bytes).unwrap();
    // With only the first `i` references and no addresses, the payload
    // ends where reference `i` starts, plus the address list's count.
    let end_of = |i: usize| {
        let mut f = frag.clone();
        f.parts.truncate(i);
        f.data_addrs.clear();
        f.encode().len() - 4
    };
    (0..frag.parts.len()).map(end_of).collect()
}

/// Asserts `bytes` decodes to [`ControlError::Truncated`] (`truncated`)
/// or to [`ControlError::Malformed`] naming `says`, and that nothing
/// panics or over-allocates.
fn assert_refused(bytes: &[u8], truncated: bool, says: &str) {
    match Fragment::decode(bytes) {
        Err(ControlError::Truncated(_)) if truncated => {}
        Err(ControlError::Malformed(m)) if !truncated && m.contains(says) => {}
        other => panic!("want a typed refusal naming {says:?}, got {other:?}"),
    }
    assert_fragment_decode_is_bounded(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fragment_decode_refuses_unknown_partition_tags(which in 0usize..3, tag in 2u8..=255) {
        let mut bytes = valid_fragments()[which].clone();
        let offsets = part_offsets(&bytes);
        // An inline reference (R's) and a resident one (S's).
        prop_assert_eq!([bytes[offsets[0]], bytes[offsets[1]]], [0, 1]);
        for at in [offsets[0], offsets[1]] {
            let mut bad = bytes.clone();
            bad[at] = tag;
            assert_refused(&bad, false, "partition reference tag");
        }
        bytes.truncate(offsets[1] + 1);
        assert_refused(&bytes, true, "");
    }

    #[test]
    fn fragment_decode_refuses_a_truncated_fingerprint(
        which in 0usize..3,
        part in 0usize..3,
        keep in 0usize..16,
    ) {
        // Cut inside one reference's fingerprint: its tag byte and
        // `keep` of the 16 bytes arrive.
        let bytes = &valid_fragments()[which];
        let at = part_offsets(bytes)[part] + 1 + keep;
        match Fragment::decode(&bytes[..at]) {
            // The list count refuses a cut it can already see is short.
            Err(ControlError::Truncated(_) | ControlError::Malformed(_)) => {}
            other => panic!("want a typed refusal, got {other:?}"),
        }
        assert_fragment_decode_is_bounded(&bytes[..at]);
        if part == 2 {
            // Past the count check: the fingerprint read itself refuses.
            assert_refused(&bytes[..at], true, "");
        }
    }

    #[test]
    fn fragments_of_inline_and_resident_partitions_roundtrip(
        rels in proptest::collection::vec(arb_rel(6, 12), 3),
        resident in proptest::collection::vec(any::<bool>(), 3),
        rank in 0usize..3,
    ) {
        // Three relations, equal ones sharing a fingerprint; each one
        // resident on the worker or not.
        let q = parjoin_query::parser::parse("T(x, y, z) :- R(x, y), S(y, z), U(z, x)").unwrap();
        let mut db = parjoin_common::Database::new();
        for (name, rel) in ["R", "S", "U"].into_iter().zip(&rels) {
            db.insert(name, rel.clone());
        }
        let fps: Vec<u128> = rels.iter().map(Relation::fingerprint).collect();
        let held = |fp: u128| fps.iter().zip(&resident).any(|(&f, &r)| r && f == fp);
        let addrs: Vec<String> = (1..=3).map(|p| format!("127.0.0.1:{p}")).collect();
        let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
        let opts = PlanOptions::default();
        let mesh = plan_mesh(&q, &db, &Cluster::new(3), s, j, &opts, &addrs).unwrap();
        let frag = mesh.fragment(rank, held);
        for (i, p) in frag.parts.iter().enumerate() {
            let inline_before = fps[..i].contains(&fps[i]);
            match p {
                PartitionRef::Inline { fp, part } => {
                    prop_assert!(!held(*fp) && !inline_before);
                    prop_assert_eq!(
                        part.as_ref(),
                        &DistRel::round_robin(&rels[i], vec![v(0), v(1)], 3).parts[rank]
                    );
                }
                PartitionRef::Resident(fp) => prop_assert!(held(*fp) || inline_before),
            }
            prop_assert_eq!(p.fingerprint(), fps[i]);
        }
        let bytes = frag.encode();
        let back = Fragment::decode(&bytes).unwrap();
        prop_assert_eq!(&back.parts, &frag.parts);
        prop_assert_eq!(back.encode(), bytes);
        back.preflight().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fragment_decode_survives_arbitrary_bytes(
        noise in proptest::collection::vec(any::<u8>(), 0..=64),
        which in 0usize..3,
        keep in any::<usize>(),
    ) {
        assert_fragment_decode_is_bounded(&noise);
        // Steer the noise past the fixed-width head and into every list
        // count: a valid prefix of arbitrary length, then the noise.
        let valid = &valid_fragments()[which];
        let mut steered = valid[..keep % valid.len()].to_vec();
        steered.extend_from_slice(&noise);
        assert_fragment_decode_is_bounded(&steered);
    }

    #[test]
    fn fragment_decode_survives_single_byte_mutations(
        which in 0usize..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = valid_fragments()[which].clone();
        let at = at % bytes.len();
        bytes[at] = byte;
        assert_fragment_decode_is_bounded(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regular_shuffle_is_a_partition(rel in arb_rel(40, 80), workers in 1usize..9) {
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], workers);
        let (out, stats) = shuffle::regular(&d, &[v(1)], "p", 7);
        // Complete: the union of partitions is the input multiset.
        let mut merged = Relation::new(2);
        for p in &out.parts {
            merged.extend_from(p);
        }
        prop_assert_eq!(multiset(&merged), multiset(&rel));
        prop_assert_eq!(stats.tuples_sent, rel.len() as u64);
        // Consistent: equal keys land together.
        for (w1, p1) in out.parts.iter().enumerate() {
            for r1 in p1.rows() {
                for (w2, p2) in out.parts.iter().enumerate() {
                    if w1 != w2 {
                        prop_assert!(
                            !p2.rows().any(|r2| r2[1] == r1[1]),
                            "key {} split across workers", r1[1]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hypercube_meets_all_joining_pairs(
        r in arb_rel(20, 40),
        s in arb_rel(20, 40),
        d1 in 1usize..4, d2 in 1usize..4, d3 in 1usize..4,
    ) {
        let workers = d1 * d2 * d3;
        let cfg = HcConfig::new(vec![v(0), v(1), v(2)], vec![d1, d2, d3]);
        let dr = DistRel::round_robin(&r, vec![v(0), v(1)], workers);
        let ds = DistRel::round_robin(&s, vec![v(1), v(2)], workers);
        let (or, _) = shuffle::hypercube(&dr, &cfg, "r", 5);
        let (os, _) = shuffle::hypercube(&ds, &cfg, "s", 5);
        for rr in r.rows() {
            for sr in s.rows() {
                if rr[1] != sr[0] {
                    continue;
                }
                let meet = (0..workers).any(|w| {
                    or.parts[w].rows().any(|x| x == rr)
                        && os.parts[w].rows().any(|x| x == sr)
                });
                prop_assert!(meet, "{rr:?} and {sr:?} never co-located");
            }
        }
    }

    #[test]
    fn hash_join_equals_merge_join(a in arb_rel(15, 50), b in arb_rel(15, 50)) {
        let sa = SchemaRel { vars: vec![v(0), v(1)], rel: a };
        let sb = SchemaRel { vars: vec![v(1), v(2)], rel: b };
        let h = hash_join(&sa, &sb, 3);
        let (m, _, _) = merge_join(&sa, &sb, 3);
        let mut hr: Vec<Vec<u64>> = h.rel.rows().map(|r| r.to_vec()).collect();
        let mut mr: Vec<Vec<u64>> = m.rel.rows().map(|r| r.to_vec()).collect();
        hr.sort();
        mr.sort();
        prop_assert_eq!(hr, mr);
        prop_assert_eq!(h.vars, m.vars);
    }

    #[test]
    fn hash_join_equals_nested_loop(a in arb_rel(10, 30), b in arb_rel(10, 30)) {
        let sa = SchemaRel { vars: vec![v(0), v(1)], rel: a.clone() };
        let sb = SchemaRel { vars: vec![v(1), v(2)], rel: b.clone() };
        let h = hash_join(&sa, &sb, 9);
        let mut expect = Vec::new();
        for ra in a.rows() {
            for rb in b.rows() {
                if ra[1] == rb[0] {
                    expect.push(vec![ra[0], ra[1], rb[1]]);
                }
            }
        }
        expect.sort();
        let mut got: Vec<Vec<u64>> = h.rel.rows().map(|r| r.to_vec()).collect();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn semijoin_equals_existence_filter(a in arb_rel(12, 40), b in arb_rel(12, 40)) {
        let sa = SchemaRel { vars: vec![v(0), v(1)], rel: a.clone() };
        let sb = SchemaRel { vars: vec![v(1), v(2)], rel: b.clone() };
        let s = semijoin(&sa, &sb, 2);
        let expect = a.filter(|ra| b.rows().any(|rb| rb[0] == ra[1]));
        prop_assert_eq!(multiset(&s.rel), multiset(&expect));
    }

    #[test]
    fn broadcast_replicates_exactly(rel in arb_rel(30, 60), workers in 1usize..8) {
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], workers);
        let (out, stats) = shuffle::broadcast(&d, "b");
        prop_assert_eq!(stats.tuples_sent, rel.len() as u64 * workers as u64);
        for p in &out.parts {
            prop_assert_eq!(multiset(p), multiset(&rel));
        }
    }

    #[test]
    fn sort_cache_view_identical_to_fresh_sort(rel in arb_rel(25, 60), swap in any::<bool>()) {
        // A private cache per case keeps this test independent of
        // whatever the global cache holds.
        let cache = SortCache::with_capacity(1 << 20);
        let cols: Vec<usize> = if swap { vec![1, 0] } else { vec![0, 1] };
        let fresh = rel.sorted_by_columns(&cols);
        let (first, _) = cache.get_or_sort(&rel, &cols, None, |r, c| r.sorted_by_columns(c));
        let (second, _) = cache.get_or_sort(&rel, &cols, None, |r, c| r.sorted_by_columns(c));
        prop_assert_eq!(first.raw(), fresh.raw());
        prop_assert_eq!(second.raw(), fresh.raw());
    }

    #[test]
    fn sort_cache_invalidates_on_relation_change(
        rel in arb_rel(25, 40),
        extra in (0u64..25, 0u64..25),
    ) {
        let cache = SortCache::with_capacity(1 << 20);
        let cols = [0usize, 1];
        cache.get_or_sort(&rel, &cols, None, |r, c| r.sorted_by_columns(c));
        let mut changed = rel.clone();
        changed.push_row(&[extra.0, extra.1]);
        let (view, _) = cache.get_or_sort(&changed, &cols, None, |r, c| r.sorted_by_columns(c));
        // The changed relation's view reflects the new content, never
        // the stale entry keyed by the old fingerprint.
        prop_assert_eq!(view.raw(), changed.sorted_by_columns(&cols).raw());
    }

    #[test]
    fn morsel_bounds_partition_on_distinct_boundaries(
        rel in arb_rel(40, 80),
        target in 1usize..12,
    ) {
        let sorted = rel.sorted_by_columns(&[0, 1]);
        let bounds = morsel_bounds(&sorted, target);
        // Shape: starts at 0, ends unbounded, contiguous and strictly
        // increasing in between.
        prop_assert_eq!(bounds[0].0, 0);
        prop_assert_eq!(bounds.last().unwrap().1, None);
        for w in bounds.windows(2) {
            let hi = w[0].1.expect("interior bound");
            prop_assert_eq!(hi, w[1].0, "morsels must be contiguous");
            prop_assert!(hi > w[0].0, "empty value interval");
            // Every interior boundary is a first-column value actually
            // present in the relation (a distinct-value boundary), and
            // above the column minimum so no morsel starts empty.
            prop_assert!(sorted.rows().any(|r| r[0] == hi));
            prop_assert!(sorted.is_empty() || hi > sorted.value(0, 0));
        }
        // Coverage without overlap: every row falls in exactly one morsel.
        for row in sorted.rows() {
            let holders = bounds
                .iter()
                .filter(|(lo, hi)| row[0] >= *lo && hi.is_none_or(|h| row[0] < h))
                .count();
            prop_assert_eq!(holders, 1, "row {row:?} in {holders} morsels");
        }
    }

    #[test]
    fn morsel_runs_concatenate_to_full_run(
        edges in arb_rel(25, 70),
        target in 1usize..8,
    ) {
        // Triangle query over random edges: running one leapfrog per
        // morsel of the depth-0 split relation and concatenating the
        // outputs in morsel order must reproduce the sequential run
        // exactly (same rows, same emission order).
        let edges = edges.distinct();
        let order = [v(0), v(1), v(2)];
        let vars: [[VarId; 2]; 3] = [[v(0), v(1)], [v(1), v(2)], [v(2), v(0)]];
        let atoms: Vec<SortedAtom> = vars
            .iter()
            .map(|vs| SortedAtom::prepare(&edges, vs, &order))
            .collect();
        let tjoin = Tributary::new(&atoms, &order, &[], 3);
        let mut full = Vec::new();
        tjoin.run(|a| { full.push(a.to_vec()); true });
        let split = atoms
            .iter()
            .filter(|a| a.depths().first() == Some(&0))
            .map(|a| a.relation())
            .min_by_key(|r| r.len())
            .expect("triangle binds the first variable");
        let mut concat = Vec::new();
        for (lo, hi) in morsel_bounds(split, target) {
            tjoin.run_range(lo, hi, |a| { concat.push(a.to_vec()); true });
        }
        prop_assert_eq!(concat, full);
    }

    #[test]
    fn parallel_prepare_identical_to_serial(
        rel in arb_rel(20, 80),
        threads in 1usize..6,
        swap in any::<bool>(),
    ) {
        let cols: Vec<usize> = if swap { vec![1, 0] } else { vec![0, 1] };
        let par = sorted_by_columns_parallel(&rel, &cols, threads);
        prop_assert_eq!(par.raw(), rel.sorted_by_columns(&cols).raw());
    }
}

/// Inputs for the columnar prepare kernel: a bag of arity 0–4 whose
/// columns are each constant, over a five-value domain, over that
/// domain with `u64::MAX`, or full-width; a column permutation; and a
/// thread count of 1–4. Half the bags are small (up to 40 rows, a
/// repeated prefix among them) and half are large enough for the
/// chunked parallel path.
fn arb_prepare_input() -> impl Strategy<Value = (Relation, Vec<usize>, usize)> {
    let shape = (
        0usize..=4,
        proptest::collection::vec(0u8..4, 4),
        proptest::collection::vec(any::<u64>(), 4),
    );
    let size = (any::<u64>(), 0usize..=40, any::<bool>(), 1usize..=4);
    (shape, size).prop_map(|((arity, modes, perm), (seed, small, large, threads))| {
        let n = if large { 8_192 + small * 50 } else { small };
        let mut rel = Relation::new(arity);
        for i in 0..n as u64 {
            // Rows past the first half of a small bag repeat earlier ones.
            let r = if large { i } else { i % (n as u64 / 2 + 1) };
            let row: Vec<u64> = (0..arity as u64)
                .map(|c| {
                    let raw = hash64(r * 8 + c, seed);
                    match modes[c as usize] {
                        0 => 7,
                        1 => raw % 5,
                        2 if raw % 5 == 4 => u64::MAX,
                        2 => raw % 5,
                        _ => raw,
                    }
                })
                .collect();
            rel.push_row(&row);
        }
        let mut cols: Vec<usize> = (0..arity).collect();
        cols.sort_by_key(|&c| perm[c]);
        (rel, cols, threads)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_prepare_equals_build_over_the_sorted_view(case in arb_prepare_input()) {
        let (rel, cols, threads) = case;
        let want = ColumnarTrie::build(&rel.sorted_by_columns(&cols));
        prop_assert_eq!(columnar_trie(&rel, &cols, threads), want);
    }
}
