//! Shuffle throughput: regular vs broadcast vs hypercube routing over a
//! 64-worker cluster, plus the two shapes the routing kernel sees most
//! at p = 4: an arity-3 regular shuffle (the stream workload's
//! intermediate) and a HyperCube triangle atom.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::Relation;
use parjoin_core::hypercube::HcConfig;
use parjoin_datagen::graph;
use parjoin_engine::dist::DistRel;
use parjoin_engine::shuffle;
use parjoin_query::VarId;

fn v(i: u32) -> VarId {
    VarId(i)
}

fn bench_shuffles(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle");
    let g = graph::twitter_graph(20_000, 5, 3);
    let dist = DistRel::round_robin(&g, vec![v(0), v(1)], 64);
    group.throughput(Throughput::Elements(g.len() as u64));

    group.bench_with_input(BenchmarkId::new("regular_h(y)", g.len()), &dist, |b, d| {
        b.iter(|| shuffle::regular(d, &[v(1)], "bench", 1));
    });
    group.bench_with_input(BenchmarkId::new("broadcast", g.len()), &dist, |b, d| {
        b.iter(|| shuffle::broadcast(d, "bench"));
    });
    let cfg = HcConfig::new(vec![v(0), v(1), v(2)], vec![4, 4, 4]);
    group.bench_with_input(
        BenchmarkId::new("hypercube_4x4x4", g.len()),
        &dist,
        |b, d| {
            b.iter(|| shuffle::hypercube(d, &cfg, "bench", 1));
        },
    );

    // p = 4: `(x, y, z)` paths hashed on y, and the triangle's first
    // atom pinning two of a 1×2×2 cube's dimensions.
    let paths = Relation::from_rows(3, g.rows().map(|r| [r[0], r[1], r[0] ^ r[1]]));
    let dist3 = DistRel::round_robin(&paths, vec![v(0), v(1), v(2)], 4);
    group.bench_with_input(
        BenchmarkId::new("p4_regular_arity3", paths.len()),
        &dist3,
        |b, d| {
            b.iter(|| shuffle::regular(d, &[v(1)], "bench", 1));
        },
    );
    let dist2 = DistRel::round_robin(&g, vec![v(0), v(1)], 4);
    let cube = HcConfig::new(vec![v(0), v(1), v(2)], vec![1, 2, 2]);
    group.bench_with_input(
        BenchmarkId::new("p4_hypercube_1x2x2", g.len()),
        &dist2,
        |b, d| {
            b.iter(|| shuffle::hypercube(d, &cube, "bench", 1));
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_shuffles
}
criterion_main!(benches);
