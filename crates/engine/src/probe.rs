//! Intra-worker morsel-parallel probe for the local join operators.
//!
//! PR 3's parallel *prepare* claims the host cores left idle by the
//! worker pool during the sort phase; this module does the same for the
//! *probe* phase — the dominant cost once sorts are fast (morsel-driven
//! parallelism in the sense of Leis et al., SIGMOD 2014):
//!
//! * **Tributary join** — the first global variable's value domain is
//!   split into disjoint ranges using the sorted first trie level of the
//!   smallest atom that binds it ([`morsel_bounds`]). Split points land
//!   on distinct-value boundaries by construction (ranges are half-open
//!   value intervals, and a value's whole run falls on one side), so
//!   morsels are independent: each runs a full leapfrog instance via
//!   [`Tributary::run_range`]. The probe is generic over
//!   [`ProbeAtom`] — any trie layout that can donate a sorted split
//!   domain (row-major [`SortedAtom`] or columnar
//!   [`ColumnarAtom`]).
//! * **Hash join / semijoin** — the probe (resp. filtered) side is cut
//!   into contiguous row ranges over a shared read-only
//!   [`JoinTable`](crate::local::JoinTable).
//!
//! **Scheduling.** Morsels are dealt to per-thread deques in contiguous
//! blocks; a thread drains its own deque front-first (locality) and,
//! when empty, steals from the *back* of the next non-empty victim. The
//! morsel count adapts to the split domain's cardinality (one morsel per
//! [`MORSEL_TARGET_ROWS`] rows, clamped to
//! `threads ..= threads × MAX_MORSELS_PER_THREAD`), so a skewed value
//! range decomposes into many fine morsels that idle threads soak up.
//! Steals are counted and surfaced as `engine.probe.steals`.
//!
//! **Determinism.** The depth-0 leapfrog enumerates values in ascending
//! order and the hash probe scans rows in input order, so concatenating
//! per-morsel output buffers in morsel order reproduces the sequential
//! output *byte-identically* (asserted query-by-query by the
//! `probe_parallel` and `layout_parity` integration suites). Stealing
//! changes *which thread* runs a morsel, never which output slot it
//! fills — results are reassembled in morsel index order. Morsel
//! workers never share mutable state — each gets its own cursors and
//! output buffer.
//!
//! Thread budget: like prepare, a worker gets `host_cores / workers`
//! probe threads (at least 1) — worker-level parallelism keeps priority,
//! and `workers >= cores` degrades to the sequential path (surfaced by
//! analyzer diagnostic R413).

use crate::local::{semijoin as local_semijoin, HashJoinShape, SchemaRel, SemijoinShape};
use crate::prepare;
use parjoin_common::{Relation, Value};
use parjoin_core::tributary::{ColumnarAtom, ProbeCounts, SortedAtom, Tributary, TrieAtom};
use parjoin_query::VarId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Minimum probe-side rows (hash join/semijoin) or split-trie rows
/// (Tributary) before morsel dispatch pays for its thread handoffs.
pub const MORSEL_MIN_ROWS: usize = 4096;

/// Target split-domain rows per morsel: the morsel count is derived from
/// the data (`rows / MORSEL_TARGET_ROWS`) instead of a fixed thread
/// multiple, so bigger inputs get proportionally more morsels for the
/// stealer to balance.
pub const MORSEL_TARGET_ROWS: usize = 2048;

/// Upper clamp on adaptive morsels per thread — bounds per-morsel
/// dispatch overhead on huge inputs.
pub const MAX_MORSELS_PER_THREAD: usize = 32;

/// Most probe threads one worker may run. A shipped fragment's count is
/// outside input and is refused above this; an in-process override is
/// clamped to it.
pub const MAX_PROBE_THREADS: usize = 1024;

/// Probe threads available to each worker of a phase: identical to the
/// prepare-phase rule (`host_cores / workers`, at least 1) — both phases
/// draw from the same pool of leftover cores.
pub fn probe_threads(workers: usize, host: Option<usize>) -> usize {
    prepare::prepare_threads(workers, host)
}

/// [`probe_threads`] for the actual host.
pub fn probe_threads_for_host(workers: usize) -> usize {
    prepare::prepare_threads_for_host(workers)
}

/// A trie layout the morsel scheduler can split: exposes the sorted
/// first-level key domain that [`morsel_bounds_by`] samples. Implemented
/// by the row-major [`SortedAtom`] (level 0 = first column of the sorted
/// relation, duplicates included) and the columnar [`ColumnarAtom`]
/// (level 0 = deduplicated key array).
pub trait ProbeAtom: TrieAtom + Sync {
    /// Rows of the underlying relation (duplicates included) — what the
    /// [`MORSEL_MIN_ROWS`] gate and the adaptive morsel count compare
    /// against.
    fn split_rows(&self) -> usize;
    /// Length of the sorted split-key sequence.
    fn split_len(&self) -> usize;
    /// The `k`-th key of the split sequence (nondecreasing in `k`).
    fn split_key(&self, k: usize) -> Value;
}

impl ProbeAtom for SortedAtom {
    fn split_rows(&self) -> usize {
        self.relation().len()
    }
    fn split_len(&self) -> usize {
        self.relation().len()
    }
    fn split_key(&self, k: usize) -> Value {
        self.relation().value(k, 0)
    }
}

impl ProbeAtom for ColumnarAtom {
    fn split_rows(&self) -> usize {
        self.trie().rows()
    }
    fn split_len(&self) -> usize {
        self.trie().level0().len()
    }
    fn split_key(&self, k: usize) -> Value {
        self.trie().level0()[k]
    }
}

/// Splits the value domain of a sorted key sequence (`key_at(0..len)`,
/// nondecreasing) into up to `target` half-open ranges `[lo, hi)`
/// (`hi = None` = unbounded) of roughly equal key count. The returned
/// ranges start at 0, are contiguous and disjoint, and every interior
/// boundary is a distinct key present in the sequence — i.e. each split
/// lands exactly on the start of that key's run, never inside one, and
/// never on the minimum (which would make the first morsel empty).
pub fn morsel_bounds_by<K: Fn(usize) -> Value>(
    len: usize,
    key_at: K,
    target: usize,
) -> Vec<(Value, Option<Value>)> {
    // Above `len` the sampled positions are already every index, so
    // clamping changes no bound and keeps the loop linear in `len`.
    let target = target.min(len);
    if target <= 1 {
        return vec![(0, None)];
    }
    let min = key_at(0);
    let mut cuts: Vec<Value> = Vec::new();
    for k in 1..target {
        // Sorted input: sampling at evenly spaced positions yields
        // nondecreasing values; dropping duplicates (and anything not
        // above the minimum, which would make the first morsel empty)
        // keeps cuts strictly increasing.
        let v = key_at(k * len / target);
        if v > min && cuts.last().is_none_or(|&l| v > l) {
            cuts.push(v);
        }
    }
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut lo = 0;
    for &c in &cuts {
        out.push((lo, Some(c)));
        lo = c;
    }
    out.push((lo, None));
    out
}

/// [`morsel_bounds_by`] over the first column of a lexicographically
/// sorted relation.
pub fn morsel_bounds(rel: &Relation, target: usize) -> Vec<(Value, Option<Value>)> {
    if rel.arity() == 0 {
        return vec![(0, None)];
    }
    morsel_bounds_by(rel.len(), |k| rel.value(k, 0), target)
}

/// Adaptive morsel count: one morsel per
/// [`MORSEL_TARGET_ROWS`] rows of the split domain, at least one per
/// thread, at most [`MAX_MORSELS_PER_THREAD`] per thread.
fn adaptive_morsels(rows: usize, threads: usize) -> usize {
    (rows / MORSEL_TARGET_ROWS).clamp(threads, threads * MAX_MORSELS_PER_THREAD)
}

/// Runs `f(0..n)` on up to `threads` scoped threads with work stealing:
/// morsels are dealt to per-thread deques in contiguous blocks; each
/// thread pops its own deque front-first and, when empty, steals from
/// the back of the next non-empty victim. Returns `(results in index
/// order, steals)`.
///
/// Termination is safe because morsels are never re-queued: once every
/// deque is empty each morsel has been claimed by exactly one thread,
/// and a thread exits after one full sweep finds nothing to steal.
fn scatter_stealing<T, F>(n: usize, threads: usize, f: F) -> (Vec<T>, u64)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(n).max(1);
    if threads <= 1 {
        return ((0..n).map(f).collect(), 0);
    }
    let per = n.div_ceil(threads);
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|t| Mutex::new(((t * per).min(n)..((t + 1) * per).min(n)).collect()))
        .collect();
    let steals = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let deques = &deques;
            let steals = &steals;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let mut task = deques[t]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                if task.is_none() {
                    for k in 1..threads {
                        let victim = (t + k) % threads;
                        let got = deques[victim]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_back();
                        if got.is_some() {
                            // Diagnostic tally only — no thread reads it
                            // for control flow. xtask: allow(ordering)
                            steals.fetch_add(1, Ordering::Relaxed);
                            task = got;
                            break;
                        }
                    }
                }
                let Some(m) = task else { break };
                let r = f(m);
                slots.lock().unwrap_or_else(PoisonError::into_inner)[m] = Some(r);
            });
        }
    });
    let out = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // Every morsel index was dealt to exactly one deque and claimed
        // by exactly one thread; the scope joins all workers before this
        // runs. xtask: allow(expect)
        .map(|s| s.expect("every morsel ran"))
        .collect();
    // All workers joined; plain load. xtask: allow(ordering)
    (out, steals.load(Ordering::Relaxed))
}

/// One probe operation's result plus scheduler counters.
pub struct ProbeOutcome {
    /// The operator output.
    pub rel: Relation,
    /// Morsels executed; 1 means the sequential path ran.
    pub morsels: u64,
    /// Morsels a thread claimed from another thread's deque (always 0
    /// for the sequential path).
    pub steals: u64,
    /// Per-level work of the Tributary probe, summed over its morsels.
    pub counts: ProbeCounts,
}

/// Runs `tj`, materializing the projection onto `head`, with up to
/// `threads` work-stealing morsel threads. `atoms` must be the slice
/// `tj` was built over — the smallest atom whose first trie level is the
/// first global variable donates its sorted level-0 keys as the split
/// domain. Output is byte-identical to the sequential `tj.run` collect
/// loop regardless of thread count or trie layout.
pub fn tributary_probe<A: ProbeAtom>(
    tj: &Tributary<'_, A>,
    atoms: &[A],
    head: &[VarId],
    threads: usize,
) -> ProbeOutcome {
    let collect_range = |lo: Value, hi: Option<Value>| {
        let mut out = Relation::new(head.len());
        let mut row = Vec::with_capacity(head.len());
        let (_, counts) = tj.run_range_counted(lo, hi, |asg| {
            row.clear();
            row.extend(head.iter().map(|v| asg[v.index()]));
            out.push_row(&row);
            true
        });
        (out, counts)
    };
    let collect_seq = || {
        let (rel, counts) = collect_range(0, None);
        ProbeOutcome {
            rel,
            morsels: 1,
            steals: 0,
            counts,
        }
    };
    // The smallest depth-0 atom bounds the number of distinct first-
    // variable values most tightly, giving the most even value split.
    let split = atoms
        .iter()
        .filter(|a| a.depths().first() == Some(&0))
        .min_by_key(|a| a.split_rows());
    let Some(split) = split else {
        return collect_seq();
    };
    if threads <= 1 || split.split_rows() < MORSEL_MIN_ROWS {
        return collect_seq();
    }
    let target = adaptive_morsels(split.split_rows(), threads);
    let bounds = morsel_bounds_by(split.split_len(), |k| split.split_key(k), target);
    if bounds.len() <= 1 {
        return collect_seq();
    }
    let (parts, steals) = scatter_stealing(bounds.len(), threads, |m| {
        let (lo, hi) = bounds[m];
        collect_range(lo, hi)
    });
    let mut it = parts.into_iter();
    // One part per morsel and at least one morsel always exists.
    // xtask: allow(expect)
    let (mut rel, mut counts) = it.next().expect("at least one morsel");
    for (p, c) in it {
        rel.extend_from(&p);
        counts.merge(&c);
    }
    ProbeOutcome {
        rel,
        morsels: bounds.len() as u64,
        steals,
        counts,
    }
}

/// [`crate::local::hash_join`] with up to `threads` work-stealing morsel
/// threads over the probe side; byte-identical output. Returns
/// `(result, morsels, steals)`.
pub fn hash_join_parallel(
    a: &SchemaRel,
    b: &SchemaRel,
    seed: u64,
    threads: usize,
) -> (SchemaRel, u64, u64) {
    let shape = HashJoinShape::new(a, b, seed);
    let n = shape.probe_len();
    if threads <= 1 || n < MORSEL_MIN_ROWS {
        let rel = shape.probe_range(0, n);
        return (
            SchemaRel {
                vars: shape.vars.clone(),
                rel,
            },
            1,
            0,
        );
    }
    let morsels = adaptive_morsels(n, threads).min(n);
    let per = n.div_ceil(morsels);
    let (parts, steals) = scatter_stealing(morsels, threads, |m| {
        shape.probe_range(m * per, ((m + 1) * per).min(n))
    });
    let mut it = parts.into_iter();
    // One part per morsel and at least one morsel always exists.
    // xtask: allow(expect)
    let mut rel = it.next().expect("at least one morsel");
    for p in it {
        rel.extend_from(&p);
    }
    (
        SchemaRel {
            vars: shape.vars.clone(),
            rel,
        },
        morsels as u64,
        steals,
    )
}

/// [`crate::local::semijoin`] with up to `threads` work-stealing morsel
/// threads over `a`'s rows; byte-identical output. Returns
/// `(result, morsels, steals)`.
pub fn semijoin_parallel(
    a: &SchemaRel,
    b: &SchemaRel,
    seed: u64,
    threads: usize,
) -> (SchemaRel, u64, u64) {
    let Some(shape) = SemijoinShape::new(a, b, seed) else {
        return (local_semijoin(a, b, seed), 1, 0);
    };
    let n = a.rel.len();
    if threads <= 1 || n < MORSEL_MIN_ROWS {
        return (
            SchemaRel {
                vars: a.vars.clone(),
                rel: shape.filter_range(a, 0, n),
            },
            1,
            0,
        );
    }
    let morsels = adaptive_morsels(n, threads).min(n);
    let per = n.div_ceil(morsels);
    let (parts, steals) = scatter_stealing(morsels, threads, |m| {
        shape.filter_range(a, m * per, ((m + 1) * per).min(n))
    });
    let mut it = parts.into_iter();
    // One part per morsel and at least one morsel always exists.
    // xtask: allow(expect)
    let mut rel = it.next().expect("at least one morsel");
    for p in it {
        rel.extend_from(&p);
    }
    (
        SchemaRel {
            vars: a.vars.clone(),
            rel,
        },
        morsels as u64,
        steals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_query::VarId;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn sorted_rel(rows: &[[u64; 2]]) -> Relation {
        let mut r = Relation::from_rows(2, rows.iter());
        r.sort_lex();
        r
    }

    #[test]
    fn oversized_target_samples_each_key_at_most_once() {
        let keys: Vec<Value> = (0..500u64).map(|i| i / 3).collect();
        let calls = std::cell::Cell::new(0usize);
        let key_at = |k: usize| {
            calls.set(calls.get() + 1);
            keys[k]
        };
        let bounds = morsel_bounds_by(keys.len(), key_at, usize::MAX);
        assert!(calls.get() <= keys.len(), "{} key reads", calls.get());
        assert_eq!(
            bounds,
            morsel_bounds_by(keys.len(), |k| keys[k], keys.len())
        );
    }

    #[test]
    fn bounds_cover_disjoint_on_boundaries() {
        let rel = sorted_rel(&[
            [1, 0],
            [1, 1],
            [1, 2],
            [2, 0],
            [2, 1],
            [5, 0],
            [7, 0],
            [7, 1],
        ]);
        for target in [1, 2, 3, 4, 8, 100] {
            let bounds = morsel_bounds(&rel, target);
            assert_eq!(bounds[0].0, 0, "first morsel starts at 0");
            assert_eq!(bounds.last().unwrap().1, None, "last morsel unbounded");
            for w in bounds.windows(2) {
                let hi = w[0].1.expect("interior bound");
                assert_eq!(hi, w[1].0, "contiguous");
                assert!(hi > w[0].0, "nonempty value interval");
                // Interior boundaries are distinct column-0 values of rel.
                assert!(
                    rel.rows().any(|r| r[0] == hi),
                    "boundary {hi} not a present value"
                );
            }
        }
    }

    #[test]
    fn bounds_degenerate_inputs() {
        assert_eq!(morsel_bounds(&Relation::new(2), 4), vec![(0, None)]);
        assert_eq!(morsel_bounds(&Relation::new(0), 4), vec![(0, None)]);
        // All-equal first column: no valid cut exists.
        let rel = sorted_rel(&[[3, 0], [3, 1], [3, 2], [3, 3]]);
        assert_eq!(morsel_bounds(&rel, 4), vec![(0, None)]);
    }

    #[test]
    fn bounds_first_morsel_skewed_minimum() {
        // Regression: when the column minimum dominates the relation,
        // evenly spaced samples land *on* the minimum. Such samples must
        // be dropped — a cut at the minimum would make the first morsel
        // `[0, min)` match nothing while `min`'s whole run went to the
        // second morsel, silently duplicating the sequential plan's
        // first range. Every surviving cut must sit strictly above the
        // minimum and the first morsel must own the minimum's full run.
        let rel = sorted_rel(&[
            [5, 0],
            [5, 1],
            [5, 2],
            [5, 3],
            [5, 4],
            [5, 5],
            [7, 0],
            [8, 0],
        ]);
        for target in [2, 4, 8] {
            let bounds = morsel_bounds(&rel, target);
            assert_eq!(bounds[0].0, 0, "target {target}: first morsel starts at 0");
            for (lo, _) in &bounds[1..] {
                assert!(
                    *lo > 5,
                    "target {target}: cut {lo} not above the column minimum"
                );
            }
            // The first morsel covers the minimum's entire run: rows with
            // value 5 fall in [0, first_hi) and nowhere else.
            if let Some(hi) = bounds[0].1 {
                assert!(hi > 5, "target {target}: minimum's run split at {hi}");
            }
        }
        // Degenerate skew: every sample equals the minimum → one morsel.
        let all_min = sorted_rel(&[
            [9, 0],
            [9, 1],
            [9, 2],
            [9, 3],
            [9, 4],
            [9, 5],
            [9, 6],
            [10, 0],
        ]);
        let bounds = morsel_bounds(&all_min, 4);
        assert_eq!(bounds[0].0, 0);
        assert!(bounds.iter().skip(1).all(|(lo, _)| *lo > 9));
    }

    #[test]
    fn scatter_stealing_preserves_index_order() {
        for threads in [1, 2, 3, 4, 7] {
            let (got, steals) = scatter_stealing(23, threads, |i| i * 3);
            assert_eq!(
                got,
                (0..23).map(|i| i * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
            if threads <= 1 {
                assert_eq!(steals, 0, "sequential path never steals");
            }
        }
        let (empty, steals) = scatter_stealing(0, 4, |i| i);
        assert!(empty.is_empty());
        assert_eq!(steals, 0);
        // More threads than morsels: every morsel still runs exactly once.
        let (got, _) = scatter_stealing(2, 8, |i| i + 100);
        assert_eq!(got, vec![100, 101]);
    }

    #[test]
    fn scatter_stealing_rebalances_skew() {
        // Thread 0's block is artificially slow; the others must drain
        // it from the back. With 4 threads × 8 morsels of which the
        // first 8 each sleep, some steals are overwhelmingly likely —
        // but on a single-core host the schedule can serialize, so only
        // correctness is asserted unconditionally.
        let (got, steals) = scatter_stealing(32, 4, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        let _ = steals; // informational; host-schedule dependent
    }

    #[test]
    fn adaptive_morsel_count_scales_with_rows() {
        // Below one target per thread: clamped up to the thread count.
        assert_eq!(adaptive_morsels(100, 4), 4);
        // Proportional band.
        assert_eq!(adaptive_morsels(MORSEL_TARGET_ROWS * 10, 2), 10);
        // Clamped above.
        assert_eq!(
            adaptive_morsels(MORSEL_TARGET_ROWS * 1000, 2),
            2 * MAX_MORSELS_PER_THREAD
        );
    }

    fn triangle_fixture() -> (Relation, [VarId; 3]) {
        let n = 3000u64;
        let rows: Vec<[u64; 2]> = (0..n)
            .flat_map(|i| [[i, (i + 1) % n], [i, (i * 7 + 3) % n]])
            .collect();
        (sorted_rel(&rows), [v(0), v(1), v(2)])
    }

    #[test]
    fn tributary_probe_parallel_matches_sequential() {
        // Triangle over a graph big enough to clear MORSEL_MIN_ROWS.
        let (edges, order) = triangle_fixture();
        let atoms = vec![
            SortedAtom::prepare(&edges, &[v(0), v(1)], &order),
            SortedAtom::prepare(&edges, &[v(1), v(2)], &order),
            SortedAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let tj = Tributary::new(&atoms, &order, &[], 3);
        let head = [v(0), v(1), v(2)];
        let seq = tributary_probe(&tj, &atoms, &head, 1);
        assert_eq!(seq.morsels, 1);
        assert_eq!(seq.steals, 0);
        for threads in [2, 3, 4] {
            let par = tributary_probe(&tj, &atoms, &head, threads);
            assert!(par.morsels > 1, "{threads} threads should split");
            assert_eq!(par.rel.raw(), seq.rel.raw(), "{threads} threads");
            // Morsels split only depth 0: below it every subtree is
            // enumerated once either way, so the summed tallies agree.
            assert_eq!(par.counts.steps[1..], seq.counts.steps[1..]);
            assert_eq!(par.counts.seeks[1..], seq.counts.seeks[1..]);
        }
    }

    #[test]
    fn tributary_probe_columnar_matches_row_layout() {
        let (edges, order) = triangle_fixture();
        let row_atoms = vec![
            SortedAtom::prepare(&edges, &[v(0), v(1)], &order),
            SortedAtom::prepare(&edges, &[v(1), v(2)], &order),
            SortedAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let col_atoms = vec![
            ColumnarAtom::prepare(&edges, &[v(0), v(1)], &order),
            ColumnarAtom::prepare(&edges, &[v(1), v(2)], &order),
            ColumnarAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let row_tj = Tributary::new(&row_atoms, &order, &[], 3);
        let col_tj = Tributary::new(&col_atoms, &order, &[], 3);
        let head = [v(0), v(1), v(2)];
        let baseline = tributary_probe(&row_tj, &row_atoms, &head, 1);
        for threads in [1, 2, 4] {
            let col = tributary_probe(&col_tj, &col_atoms, &head, threads);
            assert_eq!(
                col.rel.raw(),
                baseline.rel.raw(),
                "columnar {threads} threads"
            );
            if threads > 1 {
                assert!(col.morsels > 1, "columnar {threads} threads should split");
            }
        }
    }

    #[test]
    fn hash_join_parallel_matches_sequential() {
        let a_rows: Vec<[u64; 2]> = (0..10_000u64).map(|i| [i % 97, i]).collect();
        let b_rows: Vec<[u64; 2]> = (0..5_000u64).map(|i| [i % 97, i * 2]).collect();
        let a = SchemaRel {
            vars: vec![v(0), v(1)],
            rel: Relation::from_rows(2, a_rows.iter()),
        };
        let b = SchemaRel {
            vars: vec![v(0), v(2)],
            rel: Relation::from_rows(2, b_rows.iter()),
        };
        let seq = crate::local::hash_join(&a, &b, 11);
        for threads in [1, 2, 4] {
            let (par, morsels, _steals) = hash_join_parallel(&a, &b, 11, threads);
            assert_eq!(par.vars, seq.vars);
            assert_eq!(par.rel.raw(), seq.rel.raw(), "{threads} threads");
            assert_eq!(morsels > 1, threads > 1);
        }
    }

    #[test]
    fn semijoin_parallel_matches_sequential() {
        let a_rows: Vec<[u64; 2]> = (0..8_000u64).map(|i| [i, i % 13]).collect();
        let b_rows: Vec<[u64; 1]> = (0..7u64).map(|i| [i]).collect();
        let a = SchemaRel {
            vars: vec![v(0), v(1)],
            rel: Relation::from_rows(2, a_rows.iter()),
        };
        let b = SchemaRel {
            vars: vec![v(1)],
            rel: Relation::from_rows(1, b_rows.iter()),
        };
        let seq = local_semijoin(&a, &b, 3);
        for threads in [1, 2, 4] {
            let (par, _, _) = semijoin_parallel(&a, &b, 3, threads);
            assert_eq!(par.rel.raw(), seq.rel.raw(), "{threads} threads");
        }
    }
}
