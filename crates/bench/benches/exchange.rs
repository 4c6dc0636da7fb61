//! Exchange throughput: the sequential Local loop vs the InProcess
//! streaming transport at several batch sizes, hash-routing a two-column
//! graph across 8 workers. Streaming pays wire encoding and channel
//! hops; the interesting number is how quickly larger batches amortize
//! that overhead. The byte accounting behind these kernels is asserted
//! in `crates/runtime/tests/exchange.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::Relation;
use parjoin_datagen::graph;
use parjoin_runtime::{local_shuffle, Route, Runtime, RuntimeConfig, TransportKind};

const WORKERS: usize = 8;

fn make_parts(rel: &Relation) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..WORKERS).map(|_| Relation::new(rel.arity())).collect();
    for (i, row) in rel.rows().enumerate() {
        parts[i % WORKERS].push_row(row);
    }
    parts
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    let g = graph::twitter_graph(20_000, 5, 3);
    let parts = make_parts(&g);
    let route = Route::hash(vec![1], 42, WORKERS).expect("route");
    group.throughput(Throughput::Elements(g.len() as u64));

    group.bench_with_input(BenchmarkId::new("local", g.len()), &parts, |b, p| {
        b.iter(|| local_shuffle(p, &route));
    });

    for batch in [512usize, 4096, 16_384] {
        let rt = Runtime::new(RuntimeConfig {
            workers: WORKERS,
            transport: TransportKind::InProcess,
            batch_tuples: batch,
            ..RuntimeConfig::default()
        })
        .expect("runtime spawns");
        group.bench_with_input(
            BenchmarkId::new("in_process", format!("batch{batch}")),
            &parts,
            |b, p| {
                b.iter(|| rt.shuffle(p.clone(), &route).expect("exchange succeeds"));
            },
        );
        rt.shutdown().expect("clean shutdown");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_exchange
}
criterion_main!(benches);
