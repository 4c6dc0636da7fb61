//! Tributary join vs a local hash-join tree on the triangle query —
//! the single-machine core of the paper's HJ/TJ comparison: the row
//! layout with and without its sort, B-tree LFTJ with its build, the
//! presorted columnar layout, and a hash-join tree.
//!
//! The vendored criterion stand-in ignores CLI arguments, so quick mode
//! (CI's `-- --test` smoke run) is detected here: it keeps the smallest
//! graph and two samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parjoin_core::order::{best_order, OrderCostModel};
use parjoin_core::tributary::{BTreeAtom, ColumnarAtom, SortedAtom, Tributary};
use parjoin_datagen::graph;
use parjoin_query::VarId;

/// True when invoked as a smoke test (`cargo bench ... -- --test`).
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

fn v(i: u32) -> VarId {
    VarId(i)
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
        let atoms_spec: Vec<(&parjoin_common::Relation, Vec<VarId>)> = vec![
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if quick_mode() { 2 } else { 10 });
    targets = bench_triangle
}
criterion_main!(benches);
