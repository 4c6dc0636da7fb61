//! Generic keyed LRU cache shared by [`SortCache`](crate::SortCache),
//! [`TrieCache`](crate::TrieCache) and [`StatsCache`](crate::StatsCache).
//!
//! The caches implement the same policy — content-fingerprint keys,
//! per-route certified entries, LRU eviction under a byte capacity,
//! build-outside-the-lock, racing inserts keep the incumbent — over
//! different payloads (sorted `Relation` views, prepared
//! `ColumnarTrie`s, `RelStats` counts). [`KeyedCache`] is that policy
//! once; the public cache types are thin wrappers choosing the payload
//! and the build function.

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
    /// Hits whose stored route signature matched the requested one —
    /// the placement identity was *proved*, not assumed.
    pub certified_hits: u64,
    /// Certified lookups that found matching content under a different
    /// (or unknown) route signature and refused the hit.
    pub route_rejects: u64,
}

/// Where a cached payload came from: which query's run shuffled the
/// fragment, and the canonical *route signature* of the placement
/// function that put it on this worker (see
/// `parjoin_analyze::policy::Policy::route_signature`). A content
/// fingerprint proves one worker's fragment matches; only equal route
/// signatures prove every worker's fragment matches — which is what a
/// cross-query cache hit actually asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Name of the query whose run produced the payload.
    pub query: String,
    /// Canonical placement-function signature of the fragment's shuffle.
    pub route: String,
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
    /// Stamp of the certified lookup that inserted the payload; `None`
    /// for entries inserted through an uncertified lookup.
    prov: Option<Provenance>,
}

struct Inner<P> {
    map: HashMap<(u128, Vec<usize>, Option<String>), Entry<P>>,
    resident: usize,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    certified_hits: u64,
    route_rejects: u64,
}

/// An LRU cache mapping `(content fingerprint, column permutation,
/// optional route signature)` to payloads.
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
                certified_hits: 0,
                route_rejects: 0,
            }),
        }
    }

    /// The one lookup path. `fp` is the content fingerprint of the
    /// *source* data (callers compute it once and reuse it across
    /// layered caches). With `prov = None` this is an uncertified
    /// lookup: identical content under *any* route is enough for a hit.
    /// With `prov = Some(..)` the hit condition is *certified*: the
    /// cached entry is served only when its stored route signature
    /// equals `prov.route`; matching content under a different (or
    /// unknown) route is counted as a route reject and rebuilt fresh
    /// into the requested route's own cache slot — certified entries
    /// are keyed per route, so concurrent routes never evict each
    /// other's stamps.
    ///
    /// `max_entry_bytes` caps the size of any *inserted* payload — pass
    /// the run's memory budget so a payload too large for a worker's
    /// memory is returned but never pinned in the cache.
    ///
    /// The third return is `true` exactly on a certified hit. `build`
    /// runs outside the lock.
    pub(crate) fn lookup_or_build<F>(
        &self,
        fp: u128,
        cols: &[usize],
        max_entry_bytes: Option<usize>,
        prov: Option<Provenance>,
        build: F,
    ) -> (Arc<P>, Lookup, bool)
    where
        F: FnOnce() -> P,
    {
        // Certified entries are keyed per route signature: payloads
        // built under *different* placement functions are different
        // cache citizens (their fragments disagree on other workers),
        // so one route's traffic must never evict another's stamp.
        // Mixed query streams — a serving workload — would otherwise
        // thrash a shared `(content, cols)` slot between routes forever.
        let key = (fp, cols.to_vec(), prov.as_ref().map(|p| p.route.clone()));
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                e.last_used = tick;
                let payload = Arc::clone(&e.payload);
                inner.hits += 1;
                let certified = prov.is_some();
                if certified {
                    inner.certified_hits += 1;
                }
                return (payload, Lookup::Hit, certified);
            }
            match &prov {
                // Uncertified lookups keep their historical contract:
                // identical content under *any* route is enough.
                None => {
                    let found = inner
                        .map
                        .iter_mut()
                        .find(|((efp, ecols, _), _)| *efp == fp && ecols == cols)
                        .map(|(_, e)| {
                            e.last_used = tick;
                            Arc::clone(&e.payload)
                        });
                    if let Some(payload) = found {
                        inner.hits += 1;
                        return (payload, Lookup::Hit, false);
                    }
                    inner.misses += 1;
                }
                // A certified lookup that found matching content only
                // under a different (or unknown) route refuses the hit
                // and rebuilds under its own key.
                Some(_) => {
                    if inner
                        .map
                        .keys()
                        .any(|(efp, ecols, _)| *efp == fp && ecols == cols)
                    {
                        inner.route_rejects += 1;
                    }
                    inner.misses += 1;
                }
            }
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
                return (payload, Lookup::Miss, false);
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
                    prov,
                },
            );
        }
        (payload, Lookup::Miss, false)
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
            certified_hits: inner.certified_hits,
            route_rejects: inner.route_rejects,
        }
    }

    /// Provenance stamps of the resident *certified* entries, sorted by
    /// (route, query) — which queries' runs left which placement
    /// functions' payloads behind. Introspection only; hits never
    /// consult the query name.
    pub(crate) fn resident_provenance(&self) -> Vec<Provenance> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stamps: Vec<Provenance> =
            inner.map.values().filter_map(|e| e.prov.clone()).collect();
        stamps.sort_by(|a, b| (&a.route, &a.query).cmp(&(&b.route, &b.query)));
        stamps
    }

    /// Drops every entry and resets the counters.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        inner.resident = 0;
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
        inner.certified_hits = 0;
        inner.route_rejects = 0;
    }
}
