//! Concurrent `run_config` calls sharing the ONE process-wide SortCache.
//!
//! N threads run the mixed Q1–Q8 workload through the cache-touching
//! Tributary configurations (BR_TJ, HC_TJ) simultaneously, each thread
//! starting at a different offset so they collide on the same cache
//! keys mid-flight. The contract under contention:
//!
//! * every concurrent run is byte-identical to a sequential
//!   (`sequential_prepare`, cache-bypassing) baseline;
//! * no lock is poisoned — every thread joins cleanly and the cache
//!   keeps serving afterwards;
//! * the per-run hit/miss counters on [`RunResult`] reconcile
//!   *exactly* with the global [`SortCache`] statistics delta: each
//!   lookup is classified once, locally and globally alike;
//! * the same exact reconciliation holds for the [`TrieCache`] layered
//!   on top (the default columnar layout consults both: sorted view
//!   first, prepared trie second);
//! * and for the [`StatsCache`] the planner reads: emptied just before
//!   the threads start, so they analyse the relations cold and racing,
//!   and every lookup is still one per-run hit or miss and one global
//!   one;
//! * the eviction-pressure metrics (evictions during run, resident
//!   bytes at finish) are populated.
//!
//! This file holds a single `#[test]` on purpose: integration-test
//! binaries run per-process, so nothing else mutates the global caches
//! while the before/after statistics are compared.

use parjoin::engine::{SortCache, StatsCache};
use parjoin::prelude::*;
use std::thread;

/// The two configurations whose Tributary prepare phase consults the
/// sort cache (Regular-shuffle TJ re-sorts per round and bypasses it).
fn cache_configs() -> [(ShuffleAlg, JoinAlg); 2] {
    [
        (ShuffleAlg::Broadcast, JoinAlg::Tributary),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ]
}

struct Baseline {
    name: String,
    arity: usize,
    raw: Vec<u64>,
    output_tuples: u64,
}

#[test]
fn concurrent_mixed_runs_share_cache_and_counters_reconcile() {
    let cache = SortCache::global();
    let tries = TrieCache::global();
    let scale = Scale::tiny();
    let cluster = Cluster::new(4).with_seed(11);

    // One (query, db) pair per workload query; clones of `db` later are
    // cheap Arc bumps, the relation storage is shared.
    let work: Vec<(QuerySpec, Database)> = all_queries()
        .into_iter()
        .map(|spec| {
            let db = scale.db_for(spec.dataset, 7);
            (spec, db)
        })
        .collect();
    let n_units = work.len() * cache_configs().len();

    // Sequential baselines: cache bypassed, so these are independent of
    // anything the concurrent phase does.
    let seq_opts = PlanOptions {
        collect_output: true,
        certify: true,
        sequential_prepare: true,
        ..Default::default()
    };
    let mut baselines: Vec<Baseline> = Vec::with_capacity(n_units);
    for (spec, db) in &work {
        for (s, j) in cache_configs() {
            let r = run_config(&spec.query, db, &cluster, s, j, &seq_opts)
                .unwrap_or_else(|e| panic!("{} {s:?}/{j:?} baseline: {e}", spec.name));
            assert_eq!(
                (r.sort_cache_hits, r.sort_cache_misses),
                (0, 0),
                "{}: sequential_prepare must bypass the cache",
                spec.name
            );
            assert_eq!(
                (r.trie_cache_hits, r.trie_cache_misses),
                (0, 0),
                "{}: sequential_prepare must bypass the trie cache too",
                spec.name
            );
            let out = r.output.as_ref().expect("collected");
            baselines.push(Baseline {
                name: spec.name.to_string(),
                arity: out.arity(),
                raw: out.raw().to_vec(),
                output_tuples: r.output_tuples,
            });
        }
    }

    let before = cache.stats();
    let trie_before = tries.stats();
    // The baselines analysed every relation; start the threads cold
    // (`clear` also zeroes the counters, so the totals below are the
    // concurrent phase's own).
    let stats = StatsCache::global();
    stats.clear();

    // Concurrent phase: each thread runs every (query, config) unit
    // once, starting `t` units into the rotation so different threads
    // hit the same keys at different times.
    const THREADS: usize = 4;
    let opts = PlanOptions {
        collect_output: true,
        certify: true,
        ..Default::default()
    };
    let per_thread: Vec<Vec<(usize, RunResult)>> = thread::scope(|sc| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let work = &work;
                let cluster = &cluster;
                let opts = &opts;
                sc.spawn(move || {
                    let mut out = Vec::with_capacity(n_units);
                    for i in 0..n_units {
                        let unit = (i + t * 3) % n_units;
                        let (spec, db) = &work[unit / cache_configs().len()];
                        let (s, j) = cache_configs()[unit % cache_configs().len()];
                        let r = run_config(&spec.query, db, cluster, s, j, opts)
                            .unwrap_or_else(|e| panic!("{} {s:?}/{j:?}: {e}", spec.name));
                        out.push((unit, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked — a lock was poisoned?"))
            .collect()
    });

    let after = cache.stats();
    let trie_after = tries.stats();
    let stats_after = stats.stats();

    // Byte identity: all THREADS × n_units concurrent runs against the
    // sequential baselines.
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut t_hits, mut t_misses) = (0u64, 0u64);
    let (mut s_hits, mut s_misses) = (0u64, 0u64);
    for runs in &per_thread {
        for (unit, r) in runs {
            let base = &baselines[*unit];
            let out = r.output.as_ref().expect("collected");
            assert_eq!(out.arity(), base.arity, "{}: arity drifted", base.name);
            assert_eq!(
                out.raw(),
                &base.raw[..],
                "{}: concurrent run not byte-identical to sequential baseline",
                base.name
            );
            assert_eq!(
                r.output_tuples, base.output_tuples,
                "{}: output count drifted",
                base.name
            );
            assert!(
                r.sort_cache_hits + r.sort_cache_misses > 0,
                "{}: TJ prepare recorded no cache lookups",
                base.name
            );
            hits += r.sort_cache_hits;
            misses += r.sort_cache_misses;
            assert!(
                r.trie_cache_hits + r.trie_cache_misses > 0,
                "{}: columnar TJ prepare recorded no trie-cache lookups",
                base.name
            );
            t_hits += r.trie_cache_hits;
            t_misses += r.trie_cache_misses;
            s_hits += r.metric(metric_names::STATS_CACHE_HITS).unwrap_or(0);
            s_misses += r.metric(metric_names::STATS_CACHE_MISSES).unwrap_or(0);
        }
    }

    // Exact reconciliation: every lookup the runs reported is one the
    // global cache counted, and vice versa.
    assert_eq!(after.hits - before.hits, hits, "hit counters diverged");
    assert_eq!(
        after.misses - before.misses,
        misses,
        "miss counters diverged"
    );
    assert!(hits > 0, "repeated identical queries must produce hits");

    // The TrieCache layered on top reconciles just as exactly.
    assert_eq!(
        trie_after.hits - trie_before.hits,
        t_hits,
        "trie hit counters diverged"
    );
    assert_eq!(
        trie_after.misses - trie_before.misses,
        t_misses,
        "trie miss counters diverged"
    );
    assert!(
        t_hits > 0,
        "repeated identical queries must produce trie hits"
    );
    assert_eq!(trie_after.evictions - trie_before.evictions, 0);
    assert!(
        trie_after.resident_bytes > 0,
        "no prepared tries resident after a columnar workload"
    );

    // The StatsCache reconciles too: every planner lookup is one hit or
    // one miss, in the run's registry and in the cache alike — also when
    // two threads analyse the same cold relation at once (both miss,
    // the incumbent entry stays).
    assert_eq!(stats_after.hits, s_hits, "stats hit counters diverged");
    assert_eq!(stats_after.misses, s_misses, "stats miss counters diverged");
    assert!(
        s_misses >= stats_after.entries && stats_after.entries > 0,
        "a cleared cache must analyse every relation it then holds"
    );
    assert!(s_hits > 0, "repeated queries must find statistics cached");

    // Eviction-pressure metrics are wired: tiny data never overflows the
    // default budget, so no evictions — but resident bytes must show the
    // cached sorted views.
    assert_eq!(after.evictions - before.evictions, 0);
    assert!(after.resident_bytes > 0, "no sorted views resident");

    // The cache is still healthy after the contention: a fresh repeat
    // run is served from cache, on the main thread.
    let (spec, db) = &work[0];
    let (s, j) = cache_configs()[0];
    let again = run_config(&spec.query, db, &cluster, s, j, &opts).expect("post-contention run");
    assert!(
        again.sort_cache_hits > 0 && again.sort_cache_misses == 0,
        "warm cache must serve a repeat of {} entirely from cache",
        spec.name
    );
    assert!(
        again.sort_cache_resident_bytes > 0,
        "resident-bytes gauge not populated on RunResult"
    );
    assert!(
        again.trie_cache_hits > 0 && again.trie_cache_misses == 0,
        "warm trie cache must serve a repeat of {} without rebuilding",
        spec.name
    );
    assert!(
        again.trie_cache_resident_bytes > 0,
        "trie resident-bytes gauge not populated on RunResult"
    );
}
