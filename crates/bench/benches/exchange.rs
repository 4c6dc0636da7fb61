//! Exchange throughput: the sequential Local loop vs the InProcess
//! streaming transport at several batch sizes, hash-routing a two-column
//! graph across 8 workers. Streaming pays wire encoding and channel
//! hops; the interesting number is how quickly larger batches amortize
//! that overhead.
//!
//! The `exchange_wire` group isolates the wire path itself: raw frames
//! on the hashed shape, and compressed vs raw frames on the sorted-run
//! shape delta coding is built for. The byte accounting behind those
//! kernels is asserted in `crates/runtime/tests/exchange.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::{hash, Relation};
use parjoin_datagen::graph;
use parjoin_runtime::{local_shuffle, Router, Runtime, RuntimeConfig, TransportKind};
use std::sync::Arc;

const WORKERS: usize = 8;

fn make_parts(rel: &Relation) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..WORKERS).map(|_| Relation::new(rel.arity())).collect();
    for (i, row) in rel.rows().enumerate() {
        parts[i % WORKERS].push_row(row);
    }
    parts
}

fn hash_router(seed: u64) -> Router {
    Arc::new(move |_w, row, dests| {
        dests.push(hash::bucket_row(&[row[1]], seed, WORKERS));
    })
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    let g = graph::twitter_graph(20_000, 5, 3);
    let parts = make_parts(&g);
    let router = hash_router(42);
    group.throughput(Throughput::Elements(g.len() as u64));

    group.bench_with_input(BenchmarkId::new("local", g.len()), &parts, |b, p| {
        b.iter(|| local_shuffle(p, &router));
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
                b.iter(|| {
                    rt.shuffle(p.clone(), Arc::clone(&router))
                        .expect("exchange succeeds")
                });
            },
        );
        rt.shutdown().expect("clean shutdown");
    }
    group.finish();
}

/// Sorted-run partitions (each destination receives contiguous ranges),
/// the shape a shuffle of a sorted relation produces.
fn sorted_parts(rows: usize) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..WORKERS).map(|_| Relation::new(2)).collect();
    for i in 0..rows {
        let v = i as u64;
        parts[i % WORKERS].push_row(&[v, v * 3]);
    }
    parts
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_wire");
    let rows = 80_000usize;
    let hashed = make_parts(&graph::twitter_graph(20_000, 5, 3));
    let sorted = sorted_parts(rows);
    let hash_route = hash_router(42);
    let range_route: Router = Arc::new(move |_w, row, dests| {
        dests.push((row[0] as usize * WORKERS / rows).min(WORKERS - 1));
    });

    // (kernel, compression, partitions, router)
    let kernels: [(&str, bool, &Vec<Relation>, &Router); 3] = [
        ("vectored", false, &hashed, &hash_route),
        ("raw_sorted", false, &sorted, &range_route),
        ("delta_sorted", true, &sorted, &range_route),
    ];
    for (name, compression, parts, router) in kernels {
        let tuples: usize = parts.iter().map(Relation::len).sum();
        group.throughput(Throughput::Elements(tuples as u64));
        let rt = Runtime::new(RuntimeConfig {
            workers: WORKERS,
            transport: TransportKind::InProcess,
            batch_tuples: 4096,
            wire_compression: compression,
            ..RuntimeConfig::default()
        })
        .expect("runtime spawns");
        group.bench_with_input(BenchmarkId::new(name, tuples), parts, |b, p| {
            b.iter(|| {
                rt.shuffle(p.clone(), Arc::clone(router))
                    .expect("exchange succeeds")
            });
        });
        rt.shutdown().expect("clean shutdown");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_exchange, bench_wire
}
criterion_main!(benches);
