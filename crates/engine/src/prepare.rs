//! Intra-worker parallel sort for the Tributary prepare phase.
//!
//! The executor pool runs one OS thread per *simulated worker*, capped
//! at the host's core count. A 4-worker run on a 16-core host therefore
//! leaves 12 cores idle during the dominant prepare phase. This module
//! claims those cores: each worker's sort is split into
//! `host_cores / workers` chunks, chunk-sorted concurrently with the
//! kernels in [`parjoin_common::sort`], and merged pairwise with the
//! galloping [`merge_runs`].
//!
//! When `workers ≥ cores` every core already carries a worker's own
//! sort, so [`prepare_threads`] returns 1 and the serial path runs —
//! worker-level parallelism takes priority because the per-worker sorts
//! are *independent* jobs with no merge overhead, while intra-sort
//! parallelism pays `log(chunks)` merge passes for its speedup.
//!
//! Chunk sorts and the stable merge reproduce the serial stable sort's
//! permutation exactly, so parallel prepare is byte-identical to the
//! serial path (asserted by the `sort_cache` integration suite).

use parjoin_common::sort::{gather, merge_runs, sorted_indices};
use parjoin_common::Relation;

/// Minimum rows before chunking pays for its merge passes.
const PARALLEL_MIN_ROWS: usize = 8192;

/// Sort-chunk threads available to each worker of a phase: the host
/// cores left over after giving every simulated worker one thread
/// (`cores / workers`, at least 1). `None` (unknown host parallelism)
/// degrades to 1, matching the executor pool's own fallback.
pub fn prepare_threads(workers: usize, host: Option<usize>) -> usize {
    parjoin_common::threads::per_worker_threads(workers, host)
}

/// [`prepare_threads`] for the actual host.
pub fn prepare_threads_for_host(workers: usize) -> usize {
    prepare_threads(workers, parjoin_common::threads::host_parallelism())
}

/// `rel.sorted_by_columns(cols)` computed with up to `threads` chunk
/// threads. Output is byte-identical to the serial method; small inputs
/// and `threads <= 1` fall through to the serial path.
pub fn sorted_by_columns_parallel(rel: &Relation, cols: &[usize], threads: usize) -> Relation {
    let n = rel.len();
    if threads <= 1 || n < PARALLEL_MIN_ROWS || cols.is_empty() {
        return rel.sorted_by_columns(cols);
    }
    let proj = rel.project(cols);
    let arity = proj.arity();
    let data = proj.raw();

    // Chunk-sort: each thread index-sorts one contiguous row range.
    let chunks = threads.min(n);
    let per = n.div_ceil(chunks);
    let mut runs: Vec<Vec<u32>> = Vec::with_capacity(chunks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..chunks)
            .map(|c| {
                let lo = c * per;
                let hi = ((c + 1) * per).min(n);
                scope.spawn(move || sorted_indices(data, arity, lo, hi))
            })
            .collect();
        for h in handles {
            // A failed join means the sort thread panicked; re-raising
            // the panic here is the correct propagation.
            // xtask: allow(expect)
            runs.push(h.join().expect("chunk sort thread"));
        }
    });

    // Pairwise parallel merge rounds. Merging adjacent runs in chunk
    // order keeps the stable-merge tie rule ("left run first") equal to
    // original row order, which is what makes the result identical to
    // the serial stable sort.
    while runs.len() > 1 {
        let mut next: Vec<Vec<u32>> = Vec::with_capacity(runs.len().div_ceil(2));
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut it = runs.chunks(2);
            for pair in &mut it {
                match pair {
                    [a, b] => {
                        handles.push(Some(scope.spawn(move || merge_runs(data, arity, a, b))));
                    }
                    [_] => handles.push(None),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"), // xtask: allow(panic)
                }
            }
            for (i, h) in handles.into_iter().enumerate() {
                match h {
                    // Propagates a merge-thread panic. xtask: allow(expect)
                    Some(h) => next.push(h.join().expect("merge thread")),
                    None => next.push(runs[2 * i].clone()),
                }
            }
        });
        runs = next;
    }

    Relation::from_flat(arity, gather(data, arity, &runs[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, domain: u64, seed: u64) -> Relation {
        Relation::from_rows(
            3,
            (0..n as u64).map(|i| {
                [
                    parjoin_common::hash::hash64(i, seed) % domain,
                    parjoin_common::hash::hash64(i, seed ^ 1) % domain,
                    i,
                ]
            }),
        )
    }

    #[test]
    fn prepare_threads_splits_leftover_cores() {
        assert_eq!(prepare_threads(4, Some(16)), 4);
        assert_eq!(prepare_threads(16, Some(16)), 1);
        assert_eq!(prepare_threads(64, Some(16)), 1);
        assert_eq!(prepare_threads(1, Some(8)), 8);
        assert_eq!(prepare_threads(4, None), 1);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // Above the chunking threshold, with duplicates.
        let rel = sample(20_000, 500, 42);
        for cols in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 0]] {
            let serial = rel.sorted_by_columns(&cols);
            for threads in [2, 3, 4, 7] {
                let par = sorted_by_columns_parallel(&rel, &cols, threads);
                assert_eq!(par.raw(), serial.raw(), "cols {cols:?} threads {threads}");
            }
        }
    }

    #[test]
    fn small_inputs_fall_through() {
        let rel = sample(100, 10, 7);
        let par = sorted_by_columns_parallel(&rel, &[1, 0, 2], 8);
        assert_eq!(par.raw(), rel.sorted_by_columns(&[1, 0, 2]).raw());
    }

    #[test]
    fn zero_column_projection() {
        let rel = sample(10, 5, 1);
        let par = sorted_by_columns_parallel(&rel, &[], 4);
        assert_eq!(par.arity(), 0);
        assert_eq!(par.len(), 10);
    }
}
