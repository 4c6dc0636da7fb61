//! Sorting — the dominant Tributary-join cost (Table 5) — across the
//! three prepare kernels: the comparator index sort, the LSD radix
//! index sort, and the chunked parallel sort (`sorted_by_columns_parallel`)
//! at the thread count an under-subscribed worker would get.
//!
//! Rows are node-id-like: each value is `hash64(i, seed) % domain` with
//! a bounded domain, so high key bytes are constant and the radix sort's
//! vary-mask pass skipping matters — the same distribution the paper's
//! graph workloads produce. A kernel micro-benchmark for development
//! (`cargo bench -p parjoin-bench --bench sort`); recorded performance
//! lives in `BENCHMARK.json` only.
//!
//! The vendored criterion stand-in ignores CLI arguments, so quick mode
//! (CI's `-- --test` smoke run) is detected here: it drops the 1M-row
//! scale and shrinks the sample count to keep the smoke step fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::{hash, sort, Relation};
use parjoin_engine::prepare::sorted_by_columns_parallel;

/// True when invoked as a smoke test (`cargo bench ... -- --test`); the
/// stub harness forwards but does not interpret the flag.
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// `rows` rows of `arity` columns drawn from a bounded node-id domain.
fn node_rows(rows: usize, arity: usize, seed: u64) -> Vec<u64> {
    let domain = (rows as u64 / 2).max(16);
    (0..rows * arity)
        .map(|i| hash::hash64(i as u64, seed) % domain)
        .collect()
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    let scales: &[usize] = if quick_mode() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &rows in scales {
        for arity in [2usize, 3] {
            let flat = node_rows(rows, arity, 13 + arity as u64);
            let rel = Relation::from_flat(arity, flat.clone());
            let cols: Vec<usize> = (0..arity).collect();
            let label = format!("{rows}x{arity}");
            group.throughput(Throughput::Elements(rows as u64));
            group.bench_with_input(BenchmarkId::new("comparator", &label), &flat, |b, data| {
                b.iter(|| {
                    let idx = sort::sorted_indices_comparator(data, arity, 0, rows);
                    sort::gather(data, arity, &idx).len()
                });
            });
            group.bench_with_input(BenchmarkId::new("radix", &label), &flat, |b, data| {
                b.iter(|| {
                    let idx = sort::sorted_indices_radix(data, arity, 0, rows);
                    sort::gather(data, arity, &idx).len()
                });
            });
            // The thread count a 4-worker cluster on this host would get
            // per worker, floored at 2 so the parallel path always runs.
            let threads = std::thread::available_parallelism()
                .map(|p| (p.get() / 4).max(2))
                .unwrap_or(2);
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_t{threads}"), &label),
                &rel,
                |b, r| {
                    b.iter(|| sorted_by_columns_parallel(r, &cols, threads).len());
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if quick_mode() { 2 } else { 10 });
    targets = bench_sort
}
criterion_main!(benches);
