//! Property tests: Tributary join vs a naive evaluator; trie-layout
//! parity (row arrays vs B-trees vs the columnar level-segmented trie);
//! the columnar leaf kernel and the rank directory vs the cursor leapfrog,
//! sequence for sequence; the packed-word trie build vs the sorted-view
//! build, struct for struct;
//! Algorithm 1 optimality within the integral frontier; cost-model
//! sanity; `RelStats` vs brute-force counting.

use parjoin_common::sort::KeyPacking;
use parjoin_common::{Relation, Value};
use parjoin_core::hypercube::{HcConfig, ShareProblem};
use parjoin_core::order::{OrderCostModel, RelStats};
use parjoin_core::tributary::{
    lower_bound_gallop, BTreeAtom, ColumnarAtom, ColumnarTrie, SortedAtom, Tributary, TrieAtom,
    TrieCursor, TrieIter,
};
use parjoin_query::{CmpOp, Filter, Operand, QueryBuilder, VarId};
use proptest::prelude::*;

fn v(i: u32) -> VarId {
    VarId(i)
}

fn arb_edges(max_node: u64, max_edges: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..max_node, 0..max_node), 0..=max_edges).prop_map(|rows| {
        let rel = Relation::from_rows(2, rows.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>());
        rel.distinct() // set semantics, as documented
    })
}

/// Bag relations of arity 0–3 over a five-value domain that includes
/// `u64::MAX`: empty, all-duplicate and heavily repeated inputs are all
/// likely.
fn arb_bag() -> impl Strategy<Value = Relation> {
    let rows = proptest::collection::vec(proptest::collection::vec(0u64..5, 3), 0..=24);
    (0usize..=3, rows).prop_map(|(arity, rows)| {
        let mut rel = Relation::new(arity);
        for row in rows {
            let row: Vec<Value> = row[..arity]
                .iter()
                .map(|&v| if v == 4 { u64::MAX } else { v })
                .collect();
            rel.push_row(&row);
        }
        rel
    })
}

/// `RelStats` against the definitions, counted the slow way.
fn assert_stats_match_brute_force(rel: &Relation) {
    let stats = RelStats::compute(rel);
    assert_eq!(stats.arity(), rel.arity());
    assert_eq!(stats.cardinality(), rel.len() as u64);
    assert_eq!(stats.distinct(0), 1);
    for mask in 1u32..(1 << rel.arity()) {
        let cols: Vec<usize> = (0..rel.arity()).filter(|&c| mask & (1 << c) != 0).collect();
        assert_eq!(
            stats.distinct(mask),
            rel.project(&cols).distinct().len() as u64,
            "V(R, {cols:?}) of {rel:?}"
        );
    }
    for (c, col) in stats.columns().iter().enumerate() {
        let values: Vec<Value> = rel.rows().map(|r| r[c]).collect();
        let top = values
            .iter()
            .map(|v| values.iter().filter(|w| *w == v).count())
            .max()
            .unwrap_or(0);
        assert_eq!(col.top_freq, top as u64, "column {c} of {rel:?}");
        assert_eq!(col.distinct, stats.distinct(1 << c));
    }
}

#[test]
fn rel_stats_edge_cases_match_brute_force() {
    let mut nullary = Relation::new(0);
    nullary.push_nullary_rows(3);
    for rel in [
        Relation::new(0),
        nullary,
        Relation::new(3),
        Relation::from_rows(1, [[7u64]; 5].iter()),
        Relation::from_rows(3, [[u64::MAX, 0, u64::MAX]; 4].iter()),
        Relation::from_rows(2, [[u64::MAX, 1], [0, 1], [u64::MAX, 2]].iter()),
    ] {
        assert_stats_match_brute_force(&rel);
    }
}

/// Naive nested-loop join over variables-only binary atoms.
fn naive(atoms: &[(&Relation, [VarId; 2])], num_vars: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut asg: Vec<Option<Value>> = vec![None; num_vars];
    fn rec(
        i: usize,
        atoms: &[(&Relation, [VarId; 2])],
        asg: &mut Vec<Option<Value>>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if i == atoms.len() {
            out.push(asg.iter().map(|o| o.unwrap()).collect());
            return;
        }
        let (rel, vars) = &atoms[i];
        'rows: for row in rel.rows() {
            let saved = asg.clone();
            for (c, &var) in vars.iter().enumerate() {
                match asg[var.index()] {
                    Some(x) if x != row[c] => {
                        *asg = saved;
                        continue 'rows;
                    }
                    _ => asg[var.index()] = Some(row[c]),
                }
            }
            rec(i + 1, atoms, asg, out);
            *asg = saved;
        }
    }
    rec(0, atoms, &mut asg, &mut out);
    out.sort();
    out.dedup();
    out
}

fn tj(atoms: &[(&Relation, [VarId; 2])], order: &[VarId], num_vars: usize) -> Vec<Vec<Value>> {
    let prepared: Vec<SortedAtom> = atoms
        .iter()
        .map(|(r, vs)| SortedAtom::prepare(r, vs, order))
        .collect();
    let t = Tributary::new(&prepared, order, &[], num_vars);
    let mut out = Vec::new();
    t.run(|a| {
        out.push(a.to_vec());
        true
    });
    out.sort();
    out
}

/// Drives a trie cursor through a fixed script — enumerate every
/// level-0 key, and under each one open level 1 and apply the given
/// seek targets — recording every observed key (`u64::MAX` marks a seek
/// that ran off the end of its level). Two cursor implementations over
/// the same relation must produce identical traces.
fn seek_trace<C: TrieCursor>(c: &mut C, targets: &[Value]) -> Vec<Value> {
    let mut trace = Vec::new();
    c.open();
    while !c.at_end() {
        trace.push(c.key());
        c.open();
        for &t in targets {
            if c.at_end() {
                trace.push(Value::MAX);
                break;
            }
            c.seek(t);
            trace.push(if c.at_end() { Value::MAX } else { c.key() });
        }
        c.up();
        c.next_key();
    }
    trace
}

/// The same trace computed from first principles with plain binary
/// search (`partition_point`) over the distinct-value lists — the
/// pre-galloping reference the `TrieIter` seek must agree with.
fn seek_trace_reference(rel: &Relation, targets: &[Value]) -> Vec<Value> {
    let mut trace = Vec::new();
    let mut keys0: Vec<Value> = rel.rows().map(|r| r[0]).collect();
    keys0.dedup();
    for k in keys0 {
        trace.push(k);
        let keys1: Vec<Value> = {
            let mut v: Vec<Value> = rel.rows().filter(|r| r[0] == k).map(|r| r[1]).collect();
            v.dedup();
            v
        };
        let mut idx = 0usize;
        for &t in targets {
            if idx >= keys1.len() {
                trace.push(Value::MAX);
                break;
            }
            // seek is a no-op when the cursor already sits at a key >= t
            // and never moves backward.
            if keys1[idx] < t {
                idx += keys1[idx..].partition_point(|&x| x < t);
            }
            trace.push(*keys1.get(idx).unwrap_or(&Value::MAX));
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn galloping_seek_agrees_with_binary_search(
        edges in arb_edges(60, 90),
        targets in proptest::collection::vec(0u64..70, 1..8),
    ) {
        // `distinct()` output is sorted, so TrieIter accepts it as-is.
        let want = seek_trace_reference(&edges, &targets);
        let mut it = TrieIter::new(&edges);
        prop_assert_eq!(seek_trace(&mut it, &targets), want);
    }

    #[test]
    fn btree_seek_agrees_with_array_seek(
        edges in arb_edges(60, 90),
        targets in proptest::collection::vec(0u64..70, 1..8),
    ) {
        let order = [v(0), v(1)];
        let vars = [v(0), v(1)];
        let arr = SortedAtom::prepare(&edges, &vars, &order);
        let bt = BTreeAtom::prepare(&edges, &vars, &order);
        let arr_trace = seek_trace(&mut TrieIter::new(arr.relation()), &targets);
        let bt_trace = seek_trace(&mut bt.cursor(), &targets);
        prop_assert_eq!(arr_trace, bt_trace);
    }

    #[test]
    fn btree_tributary_equals_array_tributary(edges in arb_edges(12, 60)) {
        // The B-tree-backed LFTJ (LogicBlox's layout) and the
        // array-backed Tributary join must produce identical results.
        let order = [v(0), v(1), v(2)];
        let specs: [(&parjoin_common::Relation, [VarId; 2]); 3] = [
            (&edges, [v(0), v(1)]),
            (&edges, [v(1), v(2)]),
            (&edges, [v(2), v(0)]),
        ];
        let arr: Vec<SortedAtom> =
            specs.iter().map(|(r, vs)| SortedAtom::prepare(r, vs, &order)).collect();
        let bt: Vec<BTreeAtom> =
            specs.iter().map(|(r, vs)| BTreeAtom::prepare(r, vs, &order)).collect();
        let mut a_out = Vec::new();
        Tributary::new(&arr, &order, &[], 3).run(|x| { a_out.push(x.to_vec()); true });
        let mut b_out = Vec::new();
        Tributary::new(&bt, &order, &[], 3).run(|x| { b_out.push(x.to_vec()); true });
        a_out.sort();
        b_out.sort();
        prop_assert_eq!(a_out, b_out);
    }
}

// A second block: `proptest!` is recursive over its items and hits the
// compiler's macro recursion limit when every property lives in one
// invocation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_seek_agrees_with_array_and_btree_seek(
        edges in arb_edges(60, 90),
        targets in proptest::collection::vec(0u64..70, 1..8),
    ) {
        // Three trie layouts over the same relation must trace
        // identically: row-major arrays (TrieIter), B-trees, and the
        // level-segmented columnar layout with its chunked gallop.
        let order = [v(0), v(1)];
        let vars = [v(0), v(1)];
        let arr = SortedAtom::prepare(&edges, &vars, &order);
        let bt = BTreeAtom::prepare(&edges, &vars, &order);
        let col = ColumnarAtom::prepare(&edges, &vars, &order);
        let arr_trace = seek_trace(&mut TrieIter::new(arr.relation()), &targets);
        prop_assert_eq!(&seek_trace(&mut col.cursor(), &targets), &arr_trace);
        prop_assert_eq!(&seek_trace(&mut bt.cursor(), &targets), &arr_trace);
    }

    #[test]
    fn columnar_gallop_agrees_with_partition_point(
        raw in proptest::collection::vec(0u64..200, 0..120),
        start in 0usize..32,
        target in 0u64..220,
    ) {
        let mut xs = raw;
        xs.sort_unstable();
        xs.dedup();
        let start = start.min(xs.len());
        let want = start + xs[start..].partition_point(|&x| x < target);
        prop_assert_eq!(lower_bound_gallop(&xs, start, target), want);
    }

    #[test]
    fn columnar_tributary_equals_array_tributary(edges in arb_edges(12, 60)) {
        // The columnar level-segmented trie and the row-major sorted
        // arrays must drive Tributary to identical results.
        let order = [v(0), v(1), v(2)];
        let specs: [(&parjoin_common::Relation, [VarId; 2]); 3] = [
            (&edges, [v(0), v(1)]),
            (&edges, [v(1), v(2)]),
            (&edges, [v(2), v(0)]),
        ];
        let arr: Vec<SortedAtom> =
            specs.iter().map(|(r, vs)| SortedAtom::prepare(r, vs, &order)).collect();
        let col: Vec<ColumnarAtom> =
            specs.iter().map(|(r, vs)| ColumnarAtom::prepare(r, vs, &order)).collect();
        let mut a_out = Vec::new();
        Tributary::new(&arr, &order, &[], 3).run(|x| { a_out.push(x.to_vec()); true });
        let mut c_out = Vec::new();
        Tributary::new(&col, &order, &[], 3).run(|x| { c_out.push(x.to_vec()); true });
        // Emission order must match too, not just the set of rows —
        // morsel outputs concatenate by position downstream.
        prop_assert_eq!(a_out, c_out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn triangle_tj_equals_naive(edges in arb_edges(12, 60)) {
        let atoms = [
            (&edges, [v(0), v(1)]),
            (&edges, [v(1), v(2)]),
            (&edges, [v(2), v(0)]),
        ];
        let want = naive(&atoms, 3);
        for order in [[v(0), v(1), v(2)], [v(2), v(1), v(0)], [v(1), v(0), v(2)]] {
            prop_assert_eq!(&tj(&atoms, &order, 3), &want);
        }
    }

    #[test]
    fn two_atom_join_tj_equals_naive(a in arb_edges(10, 40), b in arb_edges(10, 40)) {
        let atoms = [(&a, [v(0), v(1)]), (&b, [v(1), v(2)])];
        let want = naive(&atoms, 3);
        for order in [[v(0), v(1), v(2)], [v(1), v(0), v(2)], [v(2), v(1), v(0)]] {
            prop_assert_eq!(&tj(&atoms, &order, 3), &want);
        }
    }

    #[test]
    fn four_cycle_tj_equals_naive(edges in arb_edges(8, 40)) {
        let atoms = [
            (&edges, [v(0), v(1)]),
            (&edges, [v(1), v(2)]),
            (&edges, [v(2), v(3)]),
            (&edges, [v(3), v(0)]),
        ];
        let want = naive(&atoms, 4);
        prop_assert_eq!(&tj(&atoms, &[v(0), v(1), v(2), v(3)], 4), &want);
        prop_assert_eq!(&tj(&atoms, &[v(2), v(0), v(3), v(1)], 4), &want);
    }

    #[test]
    fn algorithm1_dominates_frontier(
        cards in proptest::collection::vec(1u64..1_000_000, 3),
        n in 2usize..70,
    ) {
        // For the triangle, Algorithm 1's choice must be at least as good
        // as any sampled integral configuration with ≤ n cells.
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        let prob = ShareProblem::from_query(&b.build(), &cards);
        let chosen = prob.optimize(n);
        let w = chosen.workload(&prob);
        prop_assert!(chosen.num_cells() <= n);
        for d1 in 1..=n {
            for d2 in 1..=(n / d1) {
                let d3 = n / (d1 * d2);
                if d3 == 0 { continue; }
                let cfg = HcConfig::new(prob.vars.clone(), vec![d1, d2, d3]);
                prop_assert!(
                    w <= cfg.workload(&prob) + 1e-6,
                    "cfg {:?} beats chosen {:?}", cfg.dims(), chosen.dims()
                );
            }
        }
    }

    #[test]
    fn rel_stats_match_brute_force(rel in arb_bag()) {
        assert_stats_match_brute_force(&rel);
    }

    #[test]
    fn cost_model_nonnegative_and_finite(a in arb_edges(10, 40), b in arb_edges(10, 40)) {
        let m = OrderCostModel::from_atoms(&[
            (&a, vec![v(0), v(1)]),
            (&b, vec![v(1), v(2)]),
        ]);
        for order in [[v(0), v(1), v(2)], [v(1), v(2), v(0)], [v(2), v(0), v(1)]] {
            let c = m.cost(&order);
            prop_assert!(c >= 0.0 && c.is_finite());
        }
    }

    #[test]
    fn round_down_never_exceeds_budget(
        cards in proptest::collection::vec(1u64..1_000_000, 3),
        n in 2usize..100,
    ) {
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        let prob = ShareProblem::from_query(&b.build(), &cards);
        prop_assert!(prob.round_down(n).num_cells() <= n);
    }
}

/// The `x` values of [`arb_leaf_rel`]: spread over the range its `z`s
/// fall in, so a filter `x < z` rejects a share of the leaf matches.
const LEAF_XS: [Value; 4] = [0, 30, 60, 90];

/// A binary relation over `x ∈ LEAF_XS` and `z` in a window of random
/// offset and width: some draws put a hub's dozens of `z`s under each `x`,
/// some a handful, and some windows miss each other entirely, so the
/// leaf slices of a star query come out lopsided or fully disjoint.
fn arb_leaf_rel() -> impl Strategy<Value = Relation> {
    (0u64..80, 1u64..60, 0usize..=120).prop_flat_map(|(base, span, n)| {
        proptest::collection::vec((0usize..4, 0..span), 0..=n).prop_map(move |rows| {
            let rows: Vec<[Value; 2]> = rows.iter().map(|&(x, z)| [LEAF_XS[x], base + z]).collect();
            Relation::from_rows(2, rows).distinct()
        })
    })
}

/// Four relations for a star query that share rows: each keeps a random
/// half of one common relation (or none of it) plus rows of its own, so
/// the leaf intersections have real matches while lopsided and fully
/// disjoint slices still occur.
fn arb_leaf_rels() -> impl Strategy<Value = Vec<Relation>> {
    let own = proptest::collection::vec((arb_leaf_rel(), any::<u64>(), any::<bool>()), 4);
    (arb_leaf_rel(), own).prop_map(|(common, own)| {
        own.into_iter()
            .map(|(rel, bits, shares)| {
                let kept = common
                    .rows()
                    .enumerate()
                    .filter(|(i, _)| shares && bits >> (i % 64) & 1 == 1)
                    .map(|(_, row)| row);
                Relation::from_rows(2, kept.chain(rel.rows())).distinct()
            })
            .collect()
    })
}

/// What `atoms` emit under `order`, in emission order, over the morsel
/// `[lo, hi)`, with `emit` stopping the run after `limit` rows.
fn emitted<A: TrieAtom>(
    atoms: &[A],
    order: &[VarId],
    filters: &[Filter],
    (lo, hi): (Value, Option<Value>),
    limit: usize,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    Tributary::new(atoms, order, filters, order.len()).run_range(lo, hi, |a| {
        out.push(a.to_vec());
        out.len() < limit
    });
    out
}

/// The columnar layout runs the leaf kernel where two atoms meet at the
/// leaf and its cursor leapfrog at any other width, and answers level-0
/// seeks of a dense root from its rank directory; the row and B-tree
/// layouts hand out no key slices and always gallop or walk their trees.
/// All three must emit the same sequence.
fn assert_layouts_agree(
    specs: &[(&Relation, Vec<VarId>)],
    order: &[VarId],
    filters: &[Filter],
    window: (Value, Option<Value>),
    limit: usize,
) {
    let row: Vec<SortedAtom> = specs
        .iter()
        .map(|(r, vs)| SortedAtom::prepare(r, vs, order))
        .collect();
    let bt: Vec<BTreeAtom> = specs
        .iter()
        .map(|(r, vs)| BTreeAtom::prepare(r, vs, order))
        .collect();
    let col: Vec<ColumnarAtom> = specs
        .iter()
        .map(|(r, vs)| ColumnarAtom::prepare(r, vs, order))
        .collect();
    let want = emitted(&row, order, filters, window, limit);
    assert_eq!(emitted(&bt, order, filters, window, limit), want);
    assert_eq!(emitted(&col, order, filters, window, limit), want);
}

/// The star query `R₁(x, z), …, R_k(x, z)` under `[x, z]`: `k` atoms
/// meet at the leaf `z`.
fn star(rels: &[Relation]) -> Vec<(&Relation, Vec<VarId>)> {
    rels.iter().map(|r| (r, vec![v(0), v(1)])).collect()
}

/// `x < z`, `x` being variable 0: bound wherever `z` is (the leaf of
/// the star, or of the triangle).
fn x_below_z(z: VarId) -> Filter {
    Filter {
        left: v(0),
        op: CmpOp::Lt,
        right: Operand::Var(z),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leaf_kernel_emits_the_cursor_sequence(
        rels in arb_leaf_rels(),
        k in 1usize..=4,
        filtered in any::<bool>(),
    ) {
        // One, two (lopsided or disjoint: the kernel), three and four
        // (the columnar cursor path) leaf participants, with and without
        // a filter bound at the leaf.
        let filters = if filtered { vec![x_below_z(v(1))] } else { Vec::new() };
        assert_layouts_agree(&star(&rels[..k]), &[v(0), v(1)], &filters, (0, None), usize::MAX);
    }

    #[test]
    fn leaf_kernel_keeps_morsel_windows(
        rels in arb_leaf_rels(),
        sets in proptest::collection::vec(proptest::collection::vec(0u64..60, 0..=50), 4),
        k in 1usize..=4,
        x_window in (0u64..100, 1u64..100),
        z_window in (0u64..70, 1u64..40),
    ) {
        let ((x_lo, x_width), (z_lo, z_width)) = (x_window, z_window);
        let star = star(&rels[..k]);
        let order = [v(0), v(1)];
        assert_layouts_agree(&star, &order, &[], (x_lo, Some(x_lo + x_width)), usize::MAX);
        assert_layouts_agree(&star, &order, &[], (x_lo, None), usize::MAX);
        // A single-variable query over overlapping key sets: its leaf is
        // depth 0, so the kernel itself must keep the morsel's bounds.
        let sets: Vec<Relation> = sets[..k]
            .iter()
            .map(|keys| Relation::from_rows(1, keys.iter().map(|&z| [z]).collect::<Vec<_>>()).distinct())
            .collect();
        let unary: Vec<(&Relation, Vec<VarId>)> = sets.iter().map(|r| (r, vec![v(0)])).collect();
        assert_layouts_agree(&unary, &[v(0)], &[], (z_lo, Some(z_lo + z_width)), usize::MAX);
        assert_layouts_agree(&unary, &[v(0)], &[], (z_lo, None), usize::MAX);
    }

    #[test]
    fn leaf_kernel_stops_where_emit_stops(
        rels in arb_leaf_rels(),
        k in 1usize..=4,
        limit in 1usize..40,
    ) {
        // The same n-row prefix when `emit` returns false after n rows.
        assert_layouts_agree(&star(&rels[..k]), &[v(0), v(1)], &[], (0, None), limit);
    }

    #[test]
    fn leaf_steps_stay_within_the_shorter_slices(
        rels in arb_leaf_rels(),
    ) {
        // Two-way leaf: one step per key of the shorter slice at most,
        // and at least one step per result.
        let rels = &rels[..2];
        let order = [v(0), v(1)];
        let col: Vec<ColumnarAtom> = star(rels)
            .iter()
            .map(|(r, vs)| ColumnarAtom::prepare(r, vs, &order))
            .collect();
        let (n, counts) = Tributary::new(&col, &order, &[], 2).run_range_counted(0, None, |_| true);
        let degree = |r: &Relation, x: Value| r.rows().filter(|row| row[0] == x).count() as u64;
        let bound: u64 = LEAF_XS
            .iter()
            .map(|&x| degree(&rels[0], x).min(degree(&rels[1], x)))
            .sum();
        prop_assert!(counts.steps[1] <= bound, "{} leaf steps > {bound}", counts.steps[1]);
        prop_assert!(counts.steps[1] >= n);
    }
}

/// What `atoms` emit before a guard that always answers `false` stops
/// the run.
fn emitted_until_guard<A: TrieAtom>(atoms: &[A], order: &[VarId]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let (n, completed) = Tributary::new(atoms, order, &[], order.len()).run_guarded(
        |a| {
            out.push(a.to_vec());
            true
        },
        || false,
    );
    assert!(!completed, "the guard stops the run");
    assert_eq!(n as usize, out.len());
    out
}

#[test]
fn leaf_kernel_honours_the_guard() {
    // 20 000 leaf steps each: the guard is asked after 8 192 and stops
    // both paths part-way, each with a prefix of the full sequence.
    let keys = Relation::from_rows(1, (0..20_000u64).map(|i| [i]).collect::<Vec<_>>());
    let evens = Relation::from_rows(
        1,
        (0..40_000u64).step_by(2).map(|i| [i]).collect::<Vec<_>>(),
    );
    let order = [v(0)];
    for rels in [vec![&keys], vec![&keys, &evens]] {
        let row: Vec<SortedAtom> = rels
            .iter()
            .map(|r| SortedAtom::prepare(r, &order, &order))
            .collect();
        let col: Vec<ColumnarAtom> = rels
            .iter()
            .map(|r| ColumnarAtom::prepare(r, &order, &order))
            .collect();
        let full = emitted(&row, &order, &[], (0, None), usize::MAX);
        for out in [
            emitted_until_guard(&row, &order),
            emitted_until_guard(&col, &order),
        ] {
            assert!(out.len() < full.len() && full.starts_with(&out));
        }
    }
}

#[test]
fn disjoint_leaf_slices_take_one_step() {
    // 50 keys below a hub's 1 000: the first gallop of the long slice
    // lands past every short key, so the short slice gallops to its end
    // instead of stepping through its 50 keys.
    let short = Relation::from_rows(2, (0..50u64).map(|z| [0, z]).collect::<Vec<_>>());
    let long = Relation::from_rows(2, (100..1_100u64).map(|z| [0, z]).collect::<Vec<_>>());
    let rels = [short, long];
    let order = [v(0), v(1)];
    let col: Vec<ColumnarAtom> = star(&rels)
        .iter()
        .map(|(r, vs)| ColumnarAtom::prepare(r, vs, &order))
        .collect();
    let (n, counts) = Tributary::new(&col, &order, &[], 2).run_range_counted(0, None, |_| true);
    assert_eq!((n, counts.steps[1]), (0, 1));
}

/// Multiplier that scatters consecutive ids over the whole `u64` domain
/// (odd, so no two ids collide).
const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Strictly increasing level-0 keys of five shapes: a dense window at a
/// random base, fewer than 64 keys within 64 consecutive values, dense keys
/// ending at `u64::MAX`, ids scattered by [`SCATTER`] (sparse), and
/// `{0, u64::MAX}`. Returns the shape with the keys.
fn arb_root_keys() -> impl Strategy<Value = (usize, Vec<Value>)> {
    let offsets = proptest::collection::vec(0u64..400, 0..=300);
    (0usize..5, 0u64..1 << 40, offsets).prop_map(|(shape, base, offs)| {
        let mut keys: Vec<Value> = match shape {
            0 => offs.iter().map(|&o| base + o).collect(),
            1 => offs.iter().take(63).map(|&o| base + o % 64).collect(),
            2 => offs.iter().map(|&o| u64::MAX - o).collect(),
            3 => offs.iter().map(|&o| o.wrapping_mul(SCATTER)).collect(),
            _ => vec![0, u64::MAX],
        };
        keys.sort_unstable();
        keys.dedup();
        (shape, keys)
    })
}

/// Seek targets around `keys`: below the smallest key, above the
/// largest, on keys, in the gaps beside them, and anywhere at all.
fn root_targets(keys: &[Value], picks: &[(usize, u64)]) -> Vec<Value> {
    let (Some(&min), Some(&max)) = (keys.first(), keys.last()) else {
        return picks.iter().map(|&(_, x)| x).collect();
    };
    let mut out = vec![
        0,
        u64::MAX,
        min,
        max,
        min.saturating_sub(1),
        max.saturating_add(1),
    ];
    for &(i, x) in picks {
        let k = keys[i % keys.len()];
        out.extend([k, k.saturating_sub(1), k.saturating_add(1), x]);
    }
    out
}

/// A triangle `R(x, y), S(y, z), T(z, x)` under `[x, y, z]` over a graph
/// on 40 nodes: every root is dense, and `S`, rooted at depth 1, has its
/// level 0 re-opened and sought once per `x` binding.
fn dense_triangle(edges: &Relation) -> Vec<(&Relation, Vec<VarId>)> {
    vec![
        (edges, vec![v(0), v(1)]),
        (edges, vec![v(1), v(2)]),
        (edges, vec![v(2), v(0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_directory_seeks_like_partition_point(
        root in arb_root_keys(),
        picks in proptest::collection::vec((0usize..300, any::<u64>()), 0..8),
    ) {
        let (shape, keys) = root;
        let n = keys.len();
        let trie = ColumnarTrie::build(&Relation::from_rows(
            1,
            keys.iter().map(|&k| [k]).collect::<Vec<_>>(),
        ));
        prop_assert!(trie.validate().is_ok());
        // The density rule, restated in u128: 12 directory bytes per 64
        // values of span against 8 bytes per key.
        let dense = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => {
                (u128::from(hi - lo) + 1).div_ceil(64) * 12 <= n as u128 * 8
            }
            _ => false,
        };
        prop_assert_eq!(trie.rank_directory().is_some(), dense);
        match shape {
            0..=2 => prop_assert_eq!(dense, n >= 2),
            4 => prop_assert!(!dense),
            _ => {}
        }
        for v in root_targets(&keys, &picks) {
            for start in 0..=n {
                let want = start + keys[start..].partition_point(|&k| k < v);
                prop_assert_eq!(lower_bound_gallop(&keys, start, v), want);
                if let Some(dir) = trie.rank_directory() {
                    prop_assert_eq!(dir.lower_bound(start, v), want, "start={} v={}", start, v);
                }
                if start == n {
                    continue;
                }
                // The same seek through the cursor, from `start`.
                let mut c = trie.cursor();
                c.open();
                for _ in 0..start {
                    c.next_key();
                }
                c.seek(v);
                prop_assert_eq!(c.at_end(), want == n);
                if want < n {
                    prop_assert_eq!(c.key(), keys[want]);
                }
            }
        }
    }

    #[test]
    fn dense_roots_emit_the_cursor_sequence(
        raw in proptest::collection::vec((0u64..40, 0u64..40), 0..=300),
        x_window in (0u64..40, 1u64..40),
        y_floor in 0u64..40,
        limit in 1usize..200,
    ) {
        let edges = Relation::from_rows(2, raw.iter().map(|&(a, b)| [a, b]).collect::<Vec<_>>())
            .distinct();
        let specs = dense_triangle(&edges);
        let order = [v(0), v(1), v(2)];
        let s = ColumnarAtom::prepare(&edges, &[v(1), v(2)], &order);
        prop_assert_eq!(s.trie().rank_directory().is_some(), s.trie().level0().len() >= 2);
        // `y > y_floor` binds at S's root, `x < z` at the leaf.
        let filters = [
            Filter { left: v(1), op: CmpOp::Gt, right: Operand::Const(y_floor) },
            x_below_z(v(2)),
        ];
        let (x_lo, x_width) = x_window;
        for window in [(0, None), (x_lo, Some(x_lo + x_width)), (x_lo, None)] {
            assert_layouts_agree(&specs, &order, &[], window, usize::MAX);
            assert_layouts_agree(&specs, &order, &filters, window, usize::MAX);
            assert_layouts_agree(&specs, &order, &filters, window, limit);
        }
    }
}

#[test]
fn dense_roots_honour_the_guard() {
    // The complete graph on 40 nodes: 64 000 triangles, far more steps
    // than the 8 192 after which the guard is first asked, so the guard
    // stops every layout part-way through a prefix of the full sequence.
    let edges = Relation::from_rows(
        2,
        (0..1_600u64).map(|i| [i / 40, i % 40]).collect::<Vec<_>>(),
    );
    let specs = dense_triangle(&edges);
    let order = [v(0), v(1), v(2)];
    let row: Vec<SortedAtom> = specs
        .iter()
        .map(|(r, vs)| SortedAtom::prepare(r, vs, &order))
        .collect();
    let bt: Vec<BTreeAtom> = specs
        .iter()
        .map(|(r, vs)| BTreeAtom::prepare(r, vs, &order))
        .collect();
    let col: Vec<ColumnarAtom> = specs
        .iter()
        .map(|(r, vs)| ColumnarAtom::prepare(r, vs, &order))
        .collect();
    assert!(col.iter().all(|a| a.trie().rank_directory().is_some()));
    let full = emitted(&row, &order, &[], (0, None), usize::MAX);
    assert_eq!(full.len(), 64_000);
    assert_eq!(emitted(&col, &order, &[], (0, None), usize::MAX), full);
    for out in [
        emitted_until_guard(&row, &order),
        emitted_until_guard(&bt, &order),
        emitted_until_guard(&col, &order),
    ] {
        assert!(out.len() < full.len() && full.starts_with(&out));
    }
}

/// One column's values: constant, a five-value domain, the same domain
/// with `u64::MAX` in it, or the full `u64` width.
fn column_value(mode: u8, raw: u64) -> Value {
    match mode {
        0 => 7,
        1 => raw % 5,
        2 if raw % 5 == 4 => u64::MAX,
        2 => raw % 5,
        _ => raw,
    }
}

/// Bags of arity 0–4 whose columns each draw from one
/// [`column_value`] mode, with a prefix of the rows repeated, plus a
/// random permutation of the columns. Constant columns, duplicates,
/// empty inputs, one full-width column (which packs) and spans of
/// more than 64 bits (which do not) are all likely.
fn arb_packable() -> impl Strategy<Value = (Relation, Vec<usize>)> {
    let shape = (
        0usize..=4,
        proptest::collection::vec(0u8..4, 4),
        proptest::collection::vec(any::<u64>(), 4),
    );
    let rows = (
        proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4), 0..=40),
        0usize..=20,
    );
    (shape, rows).prop_map(|((arity, modes, perm), (raw, dups))| {
        let mut rel = Relation::new(arity);
        for r in raw.iter().chain(raw.iter().take(dups)) {
            let row: Vec<Value> = (0..arity).map(|c| column_value(modes[c], r[c])).collect();
            rel.push_row(&row);
        }
        let mut cols: Vec<usize> = (0..arity).collect();
        cols.sort_by_key(|&c| perm[c]);
        (rel, cols)
    })
}

/// Bits that vary in column `c` of `rel`.
fn varying_width(rel: &Relation, c: usize) -> u32 {
    let vary = rel.rows().fold(0, |m, r| m | (r[c] ^ rel.row(0)[c]));
    64 - vary.leading_zeros()
}

/// The packed-word build equals the sorted-view build whenever the
/// packing fits one word, and the packing fits exactly when the
/// columns' varying bits sum to at most 64.
fn assert_packed_build_matches(rel: &Relation, cols: &[usize]) {
    let want = ColumnarTrie::build(&rel.sorted_by_columns(cols));
    let (n, arity) = (rel.len(), rel.arity());
    let packing = KeyPacking::new(rel.raw(), arity, 0, n, cols);
    let width: u32 = match n {
        0 => 0,
        _ => cols.iter().map(|&c| varying_width(rel, c)).sum(),
    };
    assert_eq!(packing.fits(), width <= 64, "{rel:?} {cols:?}");
    if packing.fits() {
        let words = packing.sorted_words(rel.raw(), arity, 0, n);
        let got = ColumnarTrie::from_sorted_words(&packing, &words);
        assert_eq!(got, want, "{rel:?} {cols:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_words_build_the_sorted_view_trie(case in arb_packable()) {
        assert_packed_build_matches(&case.0, &case.1);
    }
}
