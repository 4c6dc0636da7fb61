//! Generic keyed LRU cache shared by [`SortCache`](crate::SortCache),
//! [`TrieCache`](crate::TrieCache) and [`StatsCache`](crate::StatsCache).
//!
//! The caches implement the same policy — `(content fingerprint,
//! columns)` keys hit on equality, LRU eviction under a byte capacity,
//! build-outside-the-lock, racing inserts keep the incumbent — over
//! different payloads (sorted `Relation` views, prepared
//! `ColumnarTrie`s, `RelStats` counts). [`KeyedCache`] is that policy
//! once; the public cache types are thin wrappers choosing the payload
//! and the build function.
//!
//! The key carries no placement: a payload is a pure function of one
//! worker's fragment bytes and the column order, and each worker looks
//! up only its own fragment, so a content match alone is a sound hit.
//! Whether the placement that put the fragment there is
//! parallel-correct is a property of the whole plan, proved once per
//! plan by the certifier (R420), not per lookup.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Outcome of a cache lookup, for per-run stat tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The payload was served from the cache.
    Hit,
    /// The payload was built fresh (and possibly inserted).
    Miss,
}

/// Cumulative cache counters (process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build fresh.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// What a cache payload must expose: its resident size, for the byte
/// capacity and the per-run memory budget.
pub(crate) trait CachePayload {
    /// Approximate heap footprint in bytes.
    fn approx_bytes(&self) -> usize;
}

impl CachePayload for parjoin_common::Relation {
    fn approx_bytes(&self) -> usize {
        parjoin_common::Relation::approx_bytes(self)
    }
}

impl CachePayload for parjoin_core::tributary::ColumnarTrie {
    fn approx_bytes(&self) -> usize {
        parjoin_core::tributary::ColumnarTrie::approx_bytes(self)
    }
}

impl CachePayload for parjoin_core::order::RelStats {
    fn approx_bytes(&self) -> usize {
        parjoin_core::order::RelStats::approx_bytes(self)
    }
}

struct Entry<P> {
    payload: Arc<P>,
    bytes: usize,
    last_used: u64,
}

struct Inner<P> {
    map: HashMap<(u128, Vec<usize>), Entry<P>>,
    resident: usize,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// An LRU cache mapping `(content fingerprint, column permutation)` to
/// payloads.
pub(crate) struct KeyedCache<P> {
    inner: Mutex<Inner<P>>,
}

impl<P: CachePayload> KeyedCache<P> {
    /// Creates a cache with the given byte capacity (0 disables caching:
    /// every lookup misses and nothing is inserted).
    pub(crate) fn with_capacity(capacity: usize) -> KeyedCache<P> {
        KeyedCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                resident: 0,
                capacity,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The one lookup path: a hit is an entry with the same content
    /// fingerprint `fp` and column permutation `cols`. `fp` is the
    /// fingerprint of the *source* data (callers compute it once and
    /// reuse it across layered caches); the payload is a pure function
    /// of that content and `cols`, so equality alone makes a hit sound.
    ///
    /// `max_entry_bytes` caps the size of any *inserted* payload — pass
    /// the run's memory budget so a payload too large for a worker's
    /// memory is returned but never pinned in the cache. `build` runs
    /// outside the lock.
    pub(crate) fn lookup_or_build<F>(
        &self,
        fp: u128,
        cols: &[usize],
        max_entry_bytes: Option<usize>,
        build: F,
    ) -> (Arc<P>, Lookup)
    where
        F: FnOnce() -> P,
    {
        let key = (fp, cols.to_vec());
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                e.last_used = tick;
                let payload = Arc::clone(&e.payload);
                inner.hits += 1;
                return (payload, Lookup::Hit);
            }
            inner.misses += 1;
        }
        // Build outside the lock: concurrent workers preparing different
        // relations must not serialize on the cache mutex.
        let payload = Arc::new(build());
        let bytes = payload.approx_bytes();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let fits_budget = max_entry_bytes.is_none_or(|cap| bytes <= cap);
        if bytes <= inner.capacity && fits_budget {
            // An insert racing a concurrent identical insert keeps the
            // incumbent (the payloads are identical by construction).
            if inner.map.contains_key(&key) {
                return (payload, Lookup::Miss);
            }
            while inner.resident + bytes > inner.capacity {
                let Some(victim) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                if let Some(e) = inner.map.remove(&victim) {
                    inner.resident -= e.bytes;
                    inner.evictions += 1;
                }
            }
            inner.tick += 1;
            let tick = inner.tick;
            inner.resident += bytes;
            inner.map.insert(
                key,
                Entry {
                    payload: Arc::clone(&payload),
                    bytes,
                    last_used: tick,
                },
            );
        }
        (payload, Lookup::Miss)
    }

    /// Cumulative counters since process start (or [`KeyedCache::clear`]).
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident as u64,
            entries: inner.map.len() as u64,
        }
    }

    /// Drops every entry and resets the counters.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        inner.resident = 0;
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}
