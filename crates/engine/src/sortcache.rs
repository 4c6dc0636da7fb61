//! Worker-level cache of sorted relation views.
//!
//! The experiment harness runs the same base relations through 8 queries
//! × 6 configs; without a cache every `SortedAtom::prepare` re-sorts
//! from scratch even when an identical `(relation, column permutation)`
//! pair was sorted seconds ago — and the prepare phase dominates local
//! time (paper Table 5). Entries are keyed by the relation's 128-bit
//! content fingerprint plus the column permutation, so a cache hit is a
//! *content* match: mutating or regenerating a relation changes its
//! fingerprint and naturally invalidates stale views. The key carries
//! nothing else: a sorted view is a pure function of the fragment's
//! bytes and the column order, whichever query or placement produced
//! the fragment (see the crate's `cache` module).
//!
//! The cache is a process-wide singleton (simulated workers are threads
//! of one process, so "worker-level" and "process-wide" coincide here)
//! with LRU eviction under a byte capacity. Runs with an explicit memory
//! budget additionally refuse to cache any single view larger than that
//! budget — the budget models per-worker memory, and a view that
//! wouldn't fit a worker's memory must not be pinned by the cache either
//! (see [`SortCache::get_or_sort`]).
//!
//! The lookup/eviction machinery itself lives in
//! the crate's `KeyedCache`, shared with the columnar
//! [`TrieCache`](crate::TrieCache) that layers on top of this cache on
//! the columnar probe path.

use crate::cache::KeyedCache;
pub use crate::cache::{CacheStats, Lookup};
use parjoin_common::Relation;
use std::sync::{Arc, OnceLock};

/// Default cache capacity in bytes. Sorted views of the paper's largest
/// inputs are tens of MiB; 256 MiB comfortably holds a full six-config
/// sweep's working set without mattering next to the host's RAM.
pub const DEFAULT_CAPACITY_BYTES: usize = 256 << 20;

/// An LRU cache mapping `(relation fingerprint, column permutation)` to
/// sorted views. See the module docs for the invalidation story.
pub struct SortCache {
    cache: KeyedCache<Relation>,
}

impl SortCache {
    /// Creates a cache with the given byte capacity (0 disables caching:
    /// every lookup misses and nothing is inserted).
    pub fn with_capacity(capacity: usize) -> SortCache {
        SortCache {
            cache: KeyedCache::with_capacity(capacity),
        }
    }

    /// The process-wide cache shared by all engine runs.
    pub fn global() -> &'static SortCache {
        static GLOBAL: OnceLock<SortCache> = OnceLock::new();
        GLOBAL.get_or_init(|| SortCache::with_capacity(DEFAULT_CAPACITY_BYTES))
    }

    /// Returns the sorted view of `rel` permuted by `cols`, serving it
    /// from the cache when the same content was sorted before, and
    /// sorting it via `sort` otherwise. The returned [`Lookup`] lets the
    /// caller tally per-run hit/miss counts.
    ///
    /// `max_entry_bytes` caps the size of any *inserted* view — pass the
    /// run's memory budget so a view too large for a worker's memory is
    /// returned but never pinned in the cache.
    pub fn get_or_sort<F>(
        &self,
        rel: &Relation,
        cols: &[usize],
        max_entry_bytes: Option<usize>,
        sort: F,
    ) -> (Arc<Relation>, Lookup)
    where
        F: FnOnce(&Relation, &[usize]) -> Relation,
    {
        self.get_or_sort_keyed(rel.fingerprint(), rel, cols, max_entry_bytes, sort)
    }

    /// Lookup with a caller-supplied fingerprint, so layered caches (the
    /// TrieCache keys by the same base-relation fingerprint) hash the
    /// relation once per prepare instead of once per layer.
    pub(crate) fn get_or_sort_keyed<F>(
        &self,
        fp: u128,
        rel: &Relation,
        cols: &[usize],
        max_entry_bytes: Option<usize>,
        sort: F,
    ) -> (Arc<Relation>, Lookup)
    where
        F: FnOnce(&Relation, &[usize]) -> Relation,
    {
        self.cache
            .lookup_or_build(fp, cols, max_entry_bytes, || sort(rel, cols))
    }

    /// Cumulative counters since process start (or [`SortCache::clear`]).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(rel: &Relation, cols: &[usize]) -> Relation {
        rel.sorted_by_columns(cols)
    }

    fn sample(seed: u64) -> Relation {
        Relation::from_rows(
            2,
            (0..64u64).map(|i| [parjoin_common::hash::hash64(i, seed) % 16, i]),
        )
    }

    #[test]
    fn second_lookup_hits_and_view_matches_fresh_sort() {
        let cache = SortCache::with_capacity(1 << 20);
        let rel = sample(1);
        let (v1, l1) = cache.get_or_sort(&rel, &[1, 0], None, sorted);
        let (v2, l2) = cache.get_or_sort(&rel, &[1, 0], None, sorted);
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(l2, Lookup::Hit);
        assert_eq!(v1.raw(), rel.sorted_by_columns(&[1, 0]).raw());
        assert!(Arc::ptr_eq(&v1, &v2), "hit must share the cached view");
    }

    #[test]
    fn different_permutations_are_distinct_entries() {
        let cache = SortCache::with_capacity(1 << 20);
        let rel = sample(2);
        let (_, l1) = cache.get_or_sort(&rel, &[0, 1], None, sorted);
        let (_, l2) = cache.get_or_sort(&rel, &[1, 0], None, sorted);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn content_change_invalidates() {
        let cache = SortCache::with_capacity(1 << 20);
        let mut rel = sample(3);
        let (_, l1) = cache.get_or_sort(&rel, &[0, 1], None, sorted);
        rel.push_row(&[99, 99]);
        let (v, l2) = cache.get_or_sort(&rel, &[0, 1], None, sorted);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss));
        assert_eq!(v.raw(), rel.sorted_by_columns(&[0, 1]).raw());
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let rel = sample(4);
        let bytes = rel.sorted_by_columns(&[0, 1]).approx_bytes();
        // Room for exactly two views.
        let cache = SortCache::with_capacity(2 * bytes + bytes / 2);
        let a = sample(10);
        let b = sample(11);
        let c = sample(12);
        cache.get_or_sort(&a, &[0, 1], None, sorted);
        cache.get_or_sort(&b, &[0, 1], None, sorted);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        cache.get_or_sort(&a, &[0, 1], None, sorted);
        cache.get_or_sort(&c, &[0, 1], None, sorted);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        let (_, la) = cache.get_or_sort(&a, &[0, 1], None, sorted);
        let (_, lb) = cache.get_or_sort(&b, &[0, 1], None, sorted);
        assert_eq!((la, lb), (Lookup::Hit, Lookup::Miss), "b was evicted");
    }

    #[test]
    fn budget_caps_inserted_entries() {
        let cache = SortCache::with_capacity(1 << 20);
        let rel = sample(5);
        let (_, l1) = cache.get_or_sort(&rel, &[0, 1], Some(8), sorted);
        let (_, l2) = cache.get_or_sort(&rel, &[0, 1], Some(8), sorted);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss), "view over budget");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SortCache::with_capacity(0);
        let rel = sample(6);
        let (_, l1) = cache.get_or_sort(&rel, &[0, 1], None, sorted);
        let (_, l2) = cache.get_or_sort(&rel, &[0, 1], None, sorted);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss));
    }
}
