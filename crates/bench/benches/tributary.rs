//! Tributary join vs a local hash-join tree on the triangle query —
//! the single-machine core of the paper's HJ/TJ comparison: the row
//! layout with and without its sort, B-tree LFTJ with its build, the
//! presorted columnar layout, and a hash-join tree. The columnar layout
//! runs twice: on the generator's dense node ids, where every trie root
//! carries a rank directory, and on the same graph with its ids
//! scattered over the `u64` domain, where every root is sparse and
//! level-0 seeks gallop.
//!
//! `prepare_columnar` times the columnar prepare alone on the shape of
//! the cold Q1 workload's partitions (the Twitter graph at 12 000 nodes,
//! generator seed 7, HyperCube 1×2×2 over four workers): the sorted
//! view plus `ColumnarTrie::build` against the engine's pack → sort →
//! emit kernel, after asserting the two build identical tries.
//!
//! The vendored criterion stand-in ignores CLI arguments, so quick mode
//! (CI's `-- --test` smoke run) is detected here: it keeps the smallest
//! graph and two samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parjoin_common::Relation;
use parjoin_core::hypercube::HcConfig;
use parjoin_core::order::{best_order, OrderCostModel};
use parjoin_core::tributary::{
    order_columns, BTreeAtom, ColumnarAtom, ColumnarTrie, SortedAtom, Tributary,
};
use parjoin_datagen::graph;
use parjoin_engine::dist::DistRel;
use parjoin_engine::{prepare, shuffle};
use parjoin_query::VarId;

/// True when invoked as a smoke test (`cargo bench ... -- --test`).
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn v(i: u32) -> VarId {
    VarId(i)
}

/// `g` with every node id multiplied by a large odd constant: the same
/// graph (the map is a bijection on `u64`), its ids spread so thin that
/// no trie root qualifies for a rank directory.
fn scattered(g: &Relation) -> Relation {
    const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;
    let rows: Vec<[u64; 2]> = g
        .rows()
        .map(|r| [r[0].wrapping_mul(SCATTER), r[1].wrapping_mul(SCATTER)])
        .collect();
    Relation::from_rows(2, rows)
}

fn bench_triangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangle_local_join");
    let sizes: &[u64] = if quick_mode() {
        &[400]
    } else {
        &[400, 1_600, 6_400]
    };
    for &nodes in sizes {
        let g = graph::twitter_graph(nodes, 5, 7);
        let vars = vec![v(0), v(1), v(2)];
        let atoms_spec: Vec<(&Relation, Vec<VarId>)> = vec![
            (&g, vec![v(0), v(1)]),
            (&g, vec![v(1), v(2)]),
            (&g, vec![v(2), v(0)]),
        ];
        let model = OrderCostModel::from_atoms(&atoms_spec);
        let (order, _) = best_order(&model, &vars);

        group.bench_with_input(
            BenchmarkId::new("tributary_incl_sort", g.len()),
            &g,
            |b, g| {
                b.iter(|| {
                    let prepared: Vec<SortedAtom> = atoms_spec
                        .iter()
                        .map(|(_, vs)| SortedAtom::prepare(g, vs, &order))
                        .collect();
                    Tributary::new(&prepared, &order, &[], 3).count()
                });
            },
        );

        let prepared: Vec<SortedAtom> = atoms_spec
            .iter()
            .map(|(_, vs)| SortedAtom::prepare(&g, vs, &order))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("tributary_presorted", g.len()),
            &prepared,
            |b, prepared| b.iter(|| Tributary::new(prepared, &order, &[], 3).count()),
        );

        let columnar: Vec<ColumnarAtom> = atoms_spec
            .iter()
            .map(|(_, vs)| ColumnarAtom::prepare(&g, vs, &order))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("columnar_presorted", g.len()),
            &columnar,
            |b, prepared| b.iter(|| Tributary::new(prepared, &order, &[], 3).count()),
        );

        let sparse_g = scattered(&g);
        let sparse: Vec<ColumnarAtom> = atoms_spec
            .iter()
            .map(|(_, vs)| ColumnarAtom::prepare(&sparse_g, vs, &order))
            .collect();
        assert!(columnar.iter().all(|a| a.trie().rank_directory().is_some()));
        assert!(sparse.iter().all(|a| a.trie().rank_directory().is_none()));
        assert_eq!(
            Tributary::new(&sparse, &order, &[], 3).count(),
            Tributary::new(&columnar, &order, &[], 3).count(),
            "scattering the ids keeps every triangle"
        );
        group.bench_with_input(
            BenchmarkId::new("columnar_presorted_sparse_root", g.len()),
            &sparse,
            |b, prepared| b.iter(|| Tributary::new(prepared, &order, &[], 3).count()),
        );

        // The §2.2 trade-off: building B-trees on the fly vs sorting.
        group.bench_with_input(
            BenchmarkId::new("btree_lftj_incl_build", g.len()),
            &g,
            |b, g| {
                b.iter(|| {
                    let prepared: Vec<BTreeAtom> = atoms_spec
                        .iter()
                        .map(|(_, vs)| BTreeAtom::prepare(g, vs, &order))
                        .collect();
                    Tributary::new(&prepared, &order, &[], 3).count()
                });
            },
        );

        group.bench_with_input(BenchmarkId::new("hash_join_tree", g.len()), &g, |b, g| {
            use parjoin_engine::local::{hash_join, SchemaRel};
            b.iter(|| {
                let r = SchemaRel {
                    vars: vec![v(0), v(1)],
                    rel: g.clone(),
                };
                let s = SchemaRel {
                    vars: vec![v(1), v(2)],
                    rel: g.clone(),
                };
                let t = SchemaRel {
                    vars: vec![v(2), v(0)],
                    rel: g.clone(),
                };
                let rs = hash_join(&r, &s, 1);
                hash_join(&rs, &t, 1).rel.len()
            });
        });
    }
    group.finish();
}

/// The columnar prepare of every HyperCube partition of the triangle
/// query's three atoms (R(x,y), S(y,z), T(z,x), order x ≺ y ≺ z), one
/// prepare thread, as a cold worker does it.
fn bench_prepare_columnar(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepare_columnar");
    let nodes = if quick_mode() { 1_500 } else { 12_000 };
    let g = graph::twitter_graph(nodes, 6, 7);
    let order = [v(0), v(1), v(2)];
    let config = HcConfig::new(order.to_vec(), vec![1, 2, 2]);
    let parts: Vec<(Relation, Vec<usize>)> = [[v(0), v(1)], [v(1), v(2)], [v(2), v(0)]]
        .iter()
        .enumerate()
        .flat_map(|(i, vars)| {
            let seeded = DistRel::round_robin(&g, vars.to_vec(), 4);
            let (cols, _) = order_columns(vars, &order);
            let (hc, _) = shuffle::hypercube(&seeded, &config, format!("HCS {i}"), 7);
            hc.parts.into_iter().map(move |p| (p, cols.clone()))
        })
        .collect();
    let rows: usize = parts.iter().map(|(p, _)| p.len()).sum();
    for (p, cols) in &parts {
        assert_eq!(
            prepare::columnar_trie(p, cols, 1),
            ColumnarTrie::build(&prepare::sorted_by_columns_parallel(p, cols, 1)),
            "the fused kernel builds the sorted-view trie"
        );
    }
    group.bench_with_input(
        BenchmarkId::new("sort_then_build", rows),
        &parts,
        |b, parts| {
            b.iter(|| {
                parts
                    .iter()
                    .map(|(p, cols)| {
                        let view = prepare::sorted_by_columns_parallel(p, cols, 1);
                        ColumnarTrie::build(&view).rows()
                    })
                    .sum::<usize>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("pack_sort_emit", rows),
        &parts,
        |b, parts| {
            b.iter(|| {
                parts
                    .iter()
                    .map(|(p, cols)| prepare::columnar_trie(p, cols, 1).rows())
                    .sum::<usize>()
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if quick_mode() { 2 } else { 10 });
    targets = bench_triangle, bench_prepare_columnar
}
criterion_main!(benches);
