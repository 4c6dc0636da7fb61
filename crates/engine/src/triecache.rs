//! Worker-level cache of prepared columnar tries.
//!
//! A prepared [`ColumnarTrie`] is a deterministic function of
//! `(base-relation content, column permutation)`, so the TrieCache keys
//! it by `(base-relation fingerprint, cols)`, a hit on equality, and a
//! served query stream reuses whole tries. It is the columnar layout's
//! one prepare cache: the prepare looks the trie up first and, on a
//! miss, builds it with the pack → sort → emit kernel
//! (`crate::prepare::columnar_trie`) without making or caching a sorted
//! view. The [`SortCache`](crate::SortCache) serves only the row layout.
//!
//! Same policy as the SortCache (both wrap the crate's `KeyedCache`):
//! process-wide singleton, LRU eviction under a byte capacity, build
//! outside the lock, one build per key at a time, and a per-run
//! `max_entry_bytes` budget cap.

use crate::cache::KeyedCache;
pub use crate::cache::{CacheStats, Lookup};
use parjoin_core::tributary::ColumnarTrie;
use std::sync::{Arc, OnceLock};

/// Default capacity in bytes — matches the SortCache default; the
/// deduplicated trie of a relation is never larger than its sorted
/// view.
pub const DEFAULT_CAPACITY_BYTES: usize = crate::sortcache::DEFAULT_CAPACITY_BYTES;

/// An LRU cache mapping `(base-relation fingerprint, column
/// permutation)` to prepared [`ColumnarTrie`]s. See the
/// module docs for why the base fingerprint is the right key.
pub struct TrieCache {
    cache: KeyedCache<ColumnarTrie>,
}

impl TrieCache {
    /// Creates a cache with the given byte capacity (0 disables caching).
    pub fn with_capacity(capacity: usize) -> TrieCache {
        TrieCache {
            cache: KeyedCache::with_capacity(capacity),
        }
    }

    /// The process-wide cache shared by all engine runs.
    pub fn global() -> &'static TrieCache {
        static GLOBAL: OnceLock<TrieCache> = OnceLock::new();
        GLOBAL.get_or_init(|| TrieCache::with_capacity(DEFAULT_CAPACITY_BYTES))
    }

    /// Returns the prepared trie for the base relation whose content
    /// fingerprint is `fp` permuted by `cols`, building it via `build`
    /// on a miss (or waiting for a concurrent lookup already building
    /// the same key, which then counts as a hit).
    ///
    /// `max_entry_bytes` caps the size of any *inserted* trie — pass the
    /// run's memory budget, as with
    /// [`SortCache::get_or_sort`](crate::SortCache::get_or_sort).
    pub fn get_or_build<F>(
        &self,
        fp: u128,
        cols: &[usize],
        max_entry_bytes: Option<usize>,
        build: F,
    ) -> (Arc<ColumnarTrie>, Lookup)
    where
        F: FnOnce() -> ColumnarTrie,
    {
        self.cache.lookup_or_build(fp, cols, max_entry_bytes, build)
    }

    /// Cumulative counters since process start (or [`TrieCache::clear`]).
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
    use parjoin_common::Relation;

    fn sample(seed: u64) -> Relation {
        Relation::from_rows(
            2,
            (0..64u64).map(|i| [parjoin_common::hash::hash64(i, seed) % 16, i]),
        )
    }

    fn build_for<'a>(rel: &'a Relation, cols: &[usize]) -> impl FnOnce() -> ColumnarTrie + 'a {
        let cols = cols.to_vec();
        move || ColumnarTrie::build(&rel.sorted_by_columns(&cols))
    }

    #[test]
    fn second_lookup_hits_and_shares_the_trie() {
        let cache = TrieCache::with_capacity(1 << 20);
        let rel = sample(1);
        let fp = rel.fingerprint();
        let (t1, l1) = cache.get_or_build(fp, &[1, 0], None, build_for(&rel, &[1, 0]));
        let (t2, l2) = cache.get_or_build(fp, &[1, 0], None, build_for(&rel, &[1, 0]));
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&t1, &t2), "hit must share the cached trie");
        assert!(t1.validate().is_ok());
        assert_eq!(t1.rows(), 64);
    }

    #[test]
    fn permutations_and_content_key_separately() {
        let cache = TrieCache::with_capacity(1 << 20);
        let a = sample(2);
        let b = sample(3);
        cache.get_or_build(a.fingerprint(), &[0, 1], None, build_for(&a, &[0, 1]));
        cache.get_or_build(a.fingerprint(), &[1, 0], None, build_for(&a, &[1, 0]));
        cache.get_or_build(b.fingerprint(), &[0, 1], None, build_for(&b, &[0, 1]));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (3, 0, 3));
    }

    #[test]
    fn a_lookup_waits_for_the_same_key_in_flight() {
        let cache = TrieCache::with_capacity(1 << 20);
        let rel = sample(4);
        let fp = rel.fingerprint();
        let (entered, started) = std::sync::mpsc::channel();
        let builds = std::sync::atomic::AtomicUsize::new(0);
        // The assertions hold under any interleaving: the second lookup
        // starts once the first is building, and finds the entry or the
        // build in flight. The pause only keeps the build in flight, so
        // the wait is what usually runs.
        let build = || {
            builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let _ = entered.send(());
            std::thread::sleep(std::time::Duration::from_millis(50));
            ColumnarTrie::build(&rel.sorted_by_columns(&[0, 1]))
        };
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| cache.get_or_build(fp, &[0, 1], None, build));
            started.recv().expect("the first lookup builds");
            let second = cache.get_or_build(fp, &[0, 1], None, || unreachable!("built twice"));
            (first.join().expect("first lookup"), second)
        });
        assert_eq!((first.1, second.1), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&first.0, &second.0));
        assert_eq!(builds.into_inner(), 1);
    }

    #[test]
    fn budget_caps_inserted_tries() {
        let cache = TrieCache::with_capacity(1 << 20);
        let rel = sample(5);
        let fp = rel.fingerprint();
        let (_, l1) = cache.get_or_build(fp, &[0, 1], Some(8), build_for(&rel, &[0, 1]));
        let (_, l2) = cache.get_or_build(fp, &[0, 1], Some(8), build_for(&rel, &[0, 1]));
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss), "trie over budget");
        assert_eq!(cache.stats().entries, 0);
    }
}
