//! Property tests: Tributary join vs a naive evaluator; trie-layout
//! parity (row arrays vs B-trees vs the columnar level-segmented trie);
//! Algorithm 1 optimality within the integral frontier; cost-model
//! sanity; `RelStats` vs brute-force counting.

use parjoin_common::{Relation, Value};
use parjoin_core::hypercube::{HcConfig, ShareProblem};
use parjoin_core::order::{OrderCostModel, RelStats};
use parjoin_core::tributary::{
    lower_bound_gallop, BTreeAtom, ColumnarAtom, SortedAtom, Tributary, TrieAtom, TrieCursor,
    TrieIter,
};
use parjoin_query::{QueryBuilder, VarId};
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
