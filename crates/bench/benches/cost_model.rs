//! Cost-model overheads: computing the distinct-prefix statistics (once
//! per relation) and enumerating all k! variable orders (per query).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parjoin_core::order::{best_order, OrderCostModel, RelStats};
use parjoin_datagen::graph;
use parjoin_query::VarId;

fn v(i: u32) -> VarId {
    VarId(i)
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_model");
    for &nodes in &[2_000u64, 10_000] {
        let g = graph::twitter_graph(nodes, 5, 9);
        group.bench_with_input(BenchmarkId::new("rel_stats", g.len()), &g, |b, g| {
            b.iter(|| RelStats::compute(g));
        });
    }

    // 8-variable enumeration (Q4's size): 40320 orders.
    let g = graph::twitter_graph(2_000, 4, 11);
    let atoms: Vec<(&parjoin_common::Relation, Vec<VarId>)> = (0..8u32)
        .map(|i| (&g, vec![v(i), v((i + 1) % 8)]))
        .collect();
    let model = OrderCostModel::from_atoms(&atoms);
    let vars: Vec<VarId> = (0..8).map(v).collect();
    group.bench_function("enumerate_8var_orders", |b| {
        b.iter(|| best_order(&model, &vars));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stats
}
criterion_main!(benches);
