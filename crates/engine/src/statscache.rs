//! Process-wide cache of relation statistics — the engine's `ANALYZE`.
//!
//! The join-order heuristic, the Tributary variable-order optimiser and
//! the plan advisor all cost plans from the same numbers: a relation's
//! row count, per-column distinct counts and hottest-value frequencies,
//! and the distinct count of every column subset
//! ([`RelStats`]). Those are functions of the
//! relation's content alone, so the StatsCache computes them once per
//! content and every later plan over that content is arithmetic.
//!
//! Same policy as the [`SortCache`](crate::SortCache) and the
//! [`TrieCache`](crate::TrieCache) (all three wrap the crate's
//! `KeyedCache`): process-wide singleton keyed by the
//! relation's 128-bit content fingerprint, LRU eviction under a byte
//! capacity, build outside the lock. Content keying is the whole
//! invalidation story — a relation reloaded under the same name, or the
//! result of a different selection pushed into it, has another
//! fingerprint and can never be served these numbers. The payload is
//! counts only, never tuples: tens of bytes for a binary relation,
//! 32 KiB at [`MAX_SUBSET_ARITY`](parjoin_core::order::MAX_SUBSET_ARITY)
//! columns.

use crate::cache::KeyedCache;
pub use crate::cache::{CacheStats, Lookup};
use parjoin_common::Relation;
use parjoin_core::order::RelStats;
use std::sync::{Arc, OnceLock};

/// Default capacity in bytes: room for a few hundred maximally wide
/// relations, or ~10⁵ binary ones (every distinct selection pushed into
/// a base relation is an entry of its own).
pub const DEFAULT_CAPACITY_BYTES: usize = 8 << 20;

/// An LRU cache mapping a relation's content fingerprint to its
/// [`RelStats`].
pub struct StatsCache {
    cache: KeyedCache<RelStats>,
}

impl StatsCache {
    /// Creates a cache with the given byte capacity (0 disables caching).
    pub fn with_capacity(capacity: usize) -> StatsCache {
        StatsCache {
            cache: KeyedCache::with_capacity(capacity),
        }
    }

    /// The process-wide cache shared by every planner and advisor call.
    pub fn global() -> &'static StatsCache {
        static GLOBAL: OnceLock<StatsCache> = OnceLock::new();
        GLOBAL.get_or_init(|| StatsCache::with_capacity(DEFAULT_CAPACITY_BYTES))
    }

    /// The statistics of `rel`, computed by [`RelStats::compute`] the
    /// first time this content is seen. A serving catalog calls this at
    /// load time so no query pays for the analysis.
    pub fn get_or_compute(&self, rel: &Relation) -> (Arc<RelStats>, Lookup) {
        self.lookup(rel.fingerprint(), rel)
    }

    /// [`StatsCache::get_or_compute`] for a relation whose fingerprint
    /// `fp` the caller already holds.
    fn lookup(&self, fp: u128, rel: &Relation) -> (Arc<RelStats>, Lookup) {
        self.cache
            .lookup_or_build(fp, &[], None, || RelStats::compute(rel))
    }

    /// Cumulative counters since process start (or [`StatsCache::clear`]).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

/// The statistics of one query's atoms, with the lookups they cost.
pub(crate) struct QueryStats {
    /// One entry per atom, in atom order.
    pub(crate) stats: Vec<Arc<RelStats>>,
    /// Each atom's content fingerprint, the key its statistics were
    /// looked up by, in atom order.
    pub(crate) fingerprints: Vec<u128>,
    /// Lookups the global cache served.
    pub(crate) hits: u64,
    /// Lookups that analysed the relation.
    pub(crate) misses: u64,
}

/// Looks every atom's relation up in the global cache. Atoms that
/// borrow the same relation (self-joins without pushed selections) are
/// fingerprinted and looked up once.
pub(crate) fn query_stats<'a>(rels: impl IntoIterator<Item = &'a Relation>) -> QueryStats {
    let mut seen: Vec<(&Relation, u128, Arc<RelStats>)> = Vec::new();
    let mut out = QueryStats {
        stats: Vec::new(),
        fingerprints: Vec::new(),
        hits: 0,
        misses: 0,
    };
    for rel in rels {
        let (fp, stats) = match seen.iter().find(|(r, ..)| std::ptr::eq(*r, rel)) {
            Some((_, fp, stats)) => (*fp, Arc::clone(stats)),
            None => {
                let fp = rel.fingerprint();
                let (stats, lookup) = StatsCache::global().lookup(fp, rel);
                match lookup {
                    Lookup::Hit => out.hits += 1,
                    Lookup::Miss => out.misses += 1,
                }
                seen.push((rel, fp, Arc::clone(&stats)));
                (fp, stats)
            }
        };
        out.stats.push(stats);
        out.fingerprints.push(fp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Relation {
        Relation::from_rows(
            2,
            (0..64u64).map(|i| [parjoin_common::hash::hash64(i, seed) % 16, i]),
        )
    }

    #[test]
    fn second_lookup_hits_and_shares_the_stats() {
        let cache = StatsCache::with_capacity(1 << 20);
        let rel = sample(1);
        let (s1, l1) = cache.get_or_compute(&rel);
        let (s2, l2) = cache.get_or_compute(&rel);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, RelStats::compute(&rel));
        assert_eq!(cache.stats().resident_bytes, s1.approx_bytes() as u64);
    }

    #[test]
    fn content_change_is_another_entry() {
        let cache = StatsCache::with_capacity(1 << 20);
        let mut rel = sample(2);
        let (before, _) = cache.get_or_compute(&rel);
        rel.push_row(&[99, 99]);
        let (after, lookup) = cache.get_or_compute(&rel);
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(after.cardinality(), before.cardinality() + 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let bytes = RelStats::compute(&sample(3)).approx_bytes();
        let cache = StatsCache::with_capacity(2 * bytes);
        for seed in 10..13 {
            cache.get_or_compute(&sample(seed));
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert_eq!(cache.get_or_compute(&sample(10)).1, Lookup::Miss);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn shared_relations_are_looked_up_once() {
        // Content no other test analyses, so the global tallies are ours.
        let (a, b) = (sample(0x57a7), sample(0x57a8));
        let got = query_stats([&a, &b, &a]);
        assert_eq!((got.hits, got.misses), (0, 2));
        assert!(Arc::ptr_eq(&got.stats[0], &got.stats[2]));
        let again = query_stats([&a, &a, &b]);
        assert_eq!((again.hits, again.misses), (2, 0));
        assert!(Arc::ptr_eq(&again.stats[2], &got.stats[1]));
    }
}
