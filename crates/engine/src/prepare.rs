//! The Tributary prepare phase: the columnar trie kernel and the
//! intra-worker parallel sort.
//!
//! [`columnar_trie`] is the default columnar prepare. It reads the
//! atom's columns straight out of the unprojected relation, packs each
//! row into one `u64` whose fields follow trie order
//! ([`KeyPacking`]), radix-sorts the words, and emits every trie level
//! in one scan ([`ColumnarTrie::from_sorted_words`]) — no projected
//! copy, no sorted row view. Columns whose varying bits sum to more
//! than 64 fall back to [`sorted_by_columns_parallel`] and
//! [`ColumnarTrie::build`] over a scratch view that is dropped at once.
//!
//! The executor pool runs one OS thread per *simulated worker*, capped
//! at the host's core count. A 4-worker run on a 16-core host therefore
//! leaves 12 cores idle during the dominant prepare phase. Both prepares
//! claim those cores: each worker's sort is split into
//! `host_cores / workers` chunks, chunk-sorted concurrently with the
//! kernels in [`parjoin_common::sort`], and merged pairwise.
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

use parjoin_common::sort::{gather, merge_runs, sorted_indices, KeyPacking};
use parjoin_common::Relation;
use parjoin_core::tributary::ColumnarTrie;

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
    // Merging adjacent runs in chunk order keeps the stable-merge tie
    // rule ("left run first") equal to original row order, which is
    // what makes the result identical to the serial stable sort.
    let idx = chunk_sort_merge(
        n,
        threads,
        |lo, hi| sorted_indices(data, arity, lo, hi),
        |a, b| merge_runs(data, arity, a, b),
    );
    Relation::from_flat(arity, gather(data, arity, &idx))
}

/// The columnar trie of `rel` permuted by `cols`:
/// `ColumnarTrie::build(&rel.sorted_by_columns(cols))`, computed by
/// pack → sort → emit with up to `threads` chunk threads (see the
/// module docs).
pub fn columnar_trie(rel: &Relation, cols: &[usize], threads: usize) -> ColumnarTrie {
    let (n, arity, data) = (rel.len(), rel.arity(), rel.raw());
    let packing = KeyPacking::new(data, arity, 0, n, cols);
    if !packing.fits() {
        return ColumnarTrie::build(&sorted_by_columns_parallel(rel, cols, threads));
    }
    let words = if threads <= 1 || n < PARALLEL_MIN_ROWS {
        packing.sorted_words(data, arity, 0, n)
    } else {
        // Every chunk packs under the whole relation's plan, so the
        // sorted runs compare word for word and merge as plain `u64`s.
        chunk_sort_merge(
            n,
            threads,
            |lo, hi| packing.sorted_words(data, arity, lo, hi),
            merge_words,
        )
    };
    ColumnarTrie::from_sorted_words(&packing, &words)
}

/// Sorts rows `0..n` as up to `threads` contiguous chunks, one thread
/// each (`sort(lo, hi)`), then merges adjacent runs pairwise, in
/// parallel rounds, until one is left.
fn chunk_sort_merge<T, S, M>(n: usize, threads: usize, sort: S, merge: M) -> Vec<T>
where
    T: Send + Sync + Clone,
    S: Fn(usize, usize) -> Vec<T> + Sync,
    M: Fn(&[T], &[T]) -> Vec<T> + Sync,
{
    let chunks = threads.clamp(1, n.max(1));
    let per = n.div_ceil(chunks);
    let (sort, merge) = (&sort, &merge);
    let mut runs: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..chunks)
            .map(|c| scope.spawn(move || sort((c * per).min(n), ((c + 1) * per).min(n))))
            .collect();
        // A failed join means the sort thread panicked; re-raising the
        // panic here is the correct propagation.
        handles
            .into_iter()
            // xtask: allow(expect)
            .map(|h| h.join().expect("chunk sort thread"))
            .collect()
    });
    while runs.len() > 1 {
        runs = std::thread::scope(|scope| {
            let handles: Vec<_> = runs
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => Some(scope.spawn(move || merge(a, b))),
                    _ => None,
                })
                .collect();
            handles
                .into_iter()
                .zip(runs.chunks(2))
                .map(|(h, pair)| match h {
                    // Propagates a merge-thread panic. xtask: allow(expect)
                    Some(h) => h.join().expect("merge thread"),
                    None => pair[0].clone(),
                })
                .collect()
        });
    }
    runs.pop().unwrap_or_default()
}

/// Merges two ascending runs of packed words.
fn merge_words(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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
