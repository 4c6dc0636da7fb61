//! The three shuffle algorithms of §3 — regular (single-attribute-set
//! hash partition), broadcast, and HyperCube — and the footnote-2
//! heavy-hitter pair built from the first two.
//!
//! Every shuffle returns the repartitioned relation *and* a
//! [`ShuffleStats`] carrying exactly the paper's Tables 2–4 metrics:
//! total tuples sent, per-producer and per-consumer tallies (from which
//! the max/avg skew factors derive). Following the paper's accounting,
//! a tuple counts as "sent" even when its destination equals its source
//! worker (Table 2 charges the full 1,114,289 tuples for `R(x,y) ->h(y)`).
//!
//! Every shuffle in the engine is a [`Route`] (hash, cube or skew)
//! handed to `run_route`, which runs it over the *hosted* partitions
//! through a `Seam`. `Local` is the in-memory two-pass kernel (zero
//! bytes moved, exact-size partitions); `Stream` is
//! one exchange round between the ranks of a [`Runtime`] — all `p` of
//! them when the run is in-process, the one rank of a multi-process
//! mesh this process hosts otherwise, the same code either way. Row
//! order of the output partitions is identical on both, so results are
//! byte-identical across transports and processes.

use crate::cluster::Cluster;
use crate::dist::{DistRel, AGGREGATE};
use crate::error::EngineError;
use parjoin_common::{hash, Relation, ShuffleStats, Value};
use parjoin_core::hypercube::HcConfig;
use parjoin_query::VarId;
use parjoin_runtime::exchange::{Consume, Produce};
use parjoin_runtime::route::HeavyKeys;
use parjoin_runtime::{local_shuffle, Route, Runtime, RuntimeError, ShuffleOutcome};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Where a shuffle's bytes go.
pub(crate) enum Seam<'a> {
    /// The sequential in-memory loop over all `p` hosted partitions.
    Local,
    /// A streaming exchange between the ranks of a mesh, of which this
    /// process hosts the runtime's: all `p`, or one rank of a
    /// multi-process mesh.
    Stream(&'a Runtime),
}

impl<'a> From<Option<&'a Runtime>> for Seam<'a> {
    fn from(rt: Option<&'a Runtime>) -> Self {
        rt.map_or(Seam::Local, Seam::Stream)
    }
}

impl Seam<'_> {
    /// Global rank of hosted partition 0 (errors name global ranks).
    pub(crate) fn first_rank(&self) -> usize {
        match self {
            Seam::Local => 0,
            Seam::Stream(rt) => rt.first_rank(),
        }
    }
}

/// Derives a deterministic seed for hashing on a specific variable set,
/// so that the two sides of a join partition identically.
pub fn join_key_seed(base: u64, on: &[VarId]) -> u64 {
    let mut sorted: Vec<u64> = on.iter().map(|v| u64::from(v.0)).collect();
    sorted.sort_unstable();
    hash::key_seed(base, &sorted)
}

/// Runs `route` over `input`'s hosted partitions through `seam` and
/// packages the outcome as the engine's types. A streaming seam consumes
/// the partitions: each rank owns the one it routes.
pub(crate) fn run_route(
    input: DistRel,
    route: &Route,
    label: impl Into<String>,
    seam: &Seam<'_>,
) -> Result<(DistRel, ShuffleStats), EngineError> {
    route_parts(input.vars, input.parts, route, label, seam)
}

/// [`run_route`] over partitions of schema `vars` however they are
/// held: a shared one (a mesh worker's resident seed partition) is
/// routed in place, and the store keeps it for the next query.
pub(crate) fn route_parts<P>(
    vars: Vec<VarId>,
    parts: Vec<P>,
    route: &Route,
    label: impl Into<String>,
    seam: &Seam<'_>,
) -> Result<(DistRel, ShuffleStats), EngineError>
where
    P: Produce<Report = ()> + Borrow<Relation> + Send + 'static,
{
    let outcome = match seam {
        Seam::Local => local_shuffle(&parts, route),
        Seam::Stream(rt) => rt.shuffle(parts, route)?,
    };
    Ok(package(vars, outcome, label))
}

/// What [`run_exchange`] returns: the consumers' partitions, the
/// shuffle's stats, then each rank's producer and consumer reports.
pub(crate) type Routed<R, C> = (DistRel, ShuffleStats, Vec<R>, Vec<C>);

/// Runs one exchange on `rt` fed by `producers` and drained by
/// `consumers`, one of each per hosted rank, whose output rows have
/// schema `vars`, and packages the outcome as [`run_route`] does, with
/// each producer's and each consumer's report in rank order.
///
/// # Errors
/// [`EngineError::Transport`] if the exchange fails.
pub(crate) fn run_exchange<P, C>(
    vars: Vec<VarId>,
    producers: Vec<P>,
    consumers: Vec<C>,
    route: &Route,
    label: impl Into<String>,
    rt: &Runtime,
) -> Result<Routed<P::Report, C::Report>, EngineError>
where
    P: Produce + Send + 'static,
    P::Report: Send + 'static,
    C: Consume + Send + 'static,
    C::Report: Send + 'static,
{
    let (outcome, reports, consumed) = rt.exchange_with(producers, consumers, route)?;
    let (out, stats) = package(vars, outcome, label);
    Ok((out, stats, reports, consumed))
}

/// The in-memory seam over a borrowed relation: nothing to consume, and
/// no error source but the route.
///
/// # Panics
/// Panics if the route is invalid. The infallible shuffles below build
/// theirs over `input.workers()` ranks, which a [`DistRel`] of at least
/// one partition (and, for HyperCube, at least as many partitions as
/// cells) always satisfies.
fn run_local(
    input: &DistRel,
    route: Result<Route, RuntimeError>,
    label: impl Into<String>,
) -> (DistRel, ShuffleStats) {
    let route = match route {
        Ok(route) => route,
        // xtask: allow(panic)
        Err(e) => panic!("in-memory shuffle over {} partitions: {e}", input.workers()),
    };
    package(
        input.vars.clone(),
        local_shuffle(&input.parts, &route),
        label,
    )
}

/// A shuffle outcome as the engine's types.
pub(crate) fn package(
    vars: Vec<VarId>,
    outcome: ShuffleOutcome,
    label: impl Into<String>,
) -> (DistRel, ShuffleStats) {
    let stats = ShuffleStats::new(label, outcome.per_producer, outcome.per_consumer)
        .with_bytes(outcome.bytes_sent, outcome.bytes_received);
    let mut parts = outcome.parts;
    // An all-empty input (or, on a mesh rank, nothing received) leaves
    // no partition to read the arity from; restore the schema arity so
    // downstream joins see the right column count.
    let arity = vars.len();
    for p in &mut parts {
        if p.is_empty() && p.arity() != arity {
            *p = Relation::new(arity);
        }
    }
    (DistRel { vars, parts }, stats)
}

/// Columns of `on`'s variables in `vars`, in sorted variable order (so
/// both join sides agree).
fn key_cols(vars: &[VarId], on: &[VarId]) -> Vec<usize> {
    let mut on_sorted: Vec<VarId> = on.to_vec();
    on_sorted.sort_unstable();
    let pos = |v: &VarId| vars.iter().position(|x| x == v);
    // Shuffle keys come from the relation's own schema.
    // xtask: allow(expect)
    let col = |v| pos(v).expect("shuffle key must be in the relation schema");
    on_sorted.iter().map(col).collect()
}

/// Builds the regular-shuffle [`Route`] for a relation with schema
/// `vars`, keyed on `on`, over `workers` destination ranks.
pub(crate) fn regular_route(
    vars: &[VarId],
    on: &[VarId],
    base_seed: u64,
    workers: usize,
) -> Result<Route, RuntimeError> {
    Route::hash(key_cols(vars, on), join_key_seed(base_seed, on), workers)
}

/// Builds the HyperCube [`Route`] for a relation with schema `vars`
/// under `config`, over `workers` destination ranks: dimension `d` is
/// pinned by the column of its variable, hashed with its own seed
/// (independent `h_d` per variable), and every other dimension fans out.
pub(crate) fn hypercube_route(
    vars: &[VarId],
    config: &HcConfig,
    base_seed: u64,
    workers: usize,
) -> Result<Route, RuntimeError> {
    let pins: Vec<Option<(usize, u64)>> = (config.vars().iter().enumerate())
        .map(|(d, &v)| {
            let col = vars.iter().position(|&x| x == v)?;
            Some((col, hash::dimension_seed(base_seed, d)))
        })
        .collect();
    Route::cube(config.dims(), &pins, workers)
}

/// Regular shuffle: hash-partition on the values of `on` (in sorted
/// variable order, so both join sides agree).
pub fn regular(
    input: &DistRel,
    on: &[VarId],
    label: impl Into<String>,
    base_seed: u64,
) -> (DistRel, ShuffleStats) {
    let route = regular_route(&input.vars, on, base_seed, input.workers());
    run_local(input, route, label)
}

/// [`regular`], executed on `rt`'s transport when one is given.
///
/// # Errors
/// [`EngineError::Transport`] if the runtime's exchange fails.
pub fn regular_via(
    input: &DistRel,
    on: &[VarId],
    label: impl Into<String>,
    base_seed: u64,
    rt: Option<&Runtime>,
) -> Result<(DistRel, ShuffleStats), EngineError> {
    let route = regular_route(&input.vars, on, base_seed, input.workers())?;
    match rt {
        None => Ok(run_local(input, Ok(route), label)),
        // The caller keeps its relation; the exchange consumes a copy.
        Some(rt) => run_route(input.clone(), &route, label, &Seam::Stream(rt)),
    }
}

/// Broadcast shuffle: every worker receives the full relation.
pub fn broadcast(input: &DistRel, label: impl Into<String>) -> (DistRel, ShuffleStats) {
    run_local(input, Route::broadcast(input.workers()), label)
}

/// HyperCube shuffle: each tuple is sent to every cell of the hypercube
/// matching its hashed coordinates on the atom's variables; unconstrained
/// dimensions replicate (paper §2.1). Cell `i` is worker `i` (one cell
/// per worker, the paper's Algorithm 1 regime).
///
/// # Panics
/// Panics if the input has more workers than the configuration has cells;
/// the caller sizes the cluster from `config.num_cells()`.
pub fn hypercube(
    input: &DistRel,
    config: &HcConfig,
    label: impl Into<String>,
    base_seed: u64,
) -> (DistRel, ShuffleStats) {
    let workers = input.workers();
    assert!(
        config.num_cells() <= workers,
        "configuration has {} cells but only {workers} workers",
        config.num_cells()
    );
    let route = hypercube_route(&input.vars, config, base_seed, workers);
    run_local(input, route, label)
}

/// Heavy-hitter-resilient co-shuffle of a join pair (the paper's
/// footnote 2: "Some parallel hash join algorithms detect the heavy
/// hitters and treat them specially, to avoid skew"), in two steps that
/// both go through [`run_route`]:
///
/// 1. **Decide.** Every hosted partition summarises its slice of the
///    pair ([`local_summary`]) and the summaries are all-gathered — a
///    broadcast shuffle like any other. [`heavy_keys`] is a pure
///    function of the gathered rows, so every rank of every deployment
///    decides the same.
/// 2. **Route.** The side where a heavy key is more frequent is spread
///    across all workers (row-hash placement) while the other side's
///    matching tuples are replicated to every worker, so every joining
///    pair still meets exactly once. Light keys hash-partition normally.
///
/// This bounds the per-worker load at the cost of replicating the
/// (small) other side of each hot key — the PRPD idea. Which keys count
/// as heavy only moves load: the join is correct for any heavy set.
/// Returns both sides repartitioned and the three recorded shuffles in
/// execution order: the summary all-gather, side `a`, side `b`.
///
/// # Errors
/// [`EngineError::Transport`] if an exchange fails.
pub(crate) fn skew_resilient_pair(
    a: DistRel,
    b: DistRel,
    on: &[VarId],
    labels: (&str, &str),
    cluster: &Cluster,
    factor: f64,
    seam: &Seam<'_>,
) -> Result<(DistRel, DistRel, [ShuffleStats; 3]), EngineError> {
    let workers = cluster.workers;
    let seed = join_key_seed(cluster.seed, on);
    let (a_cols, b_cols) = (key_cols(&a.vars, on), key_cols(&b.vars, on));

    let summaries = DistRel {
        // `(tag, key…, fa, fb)`: no column is looked up by variable.
        vars: vec![AGGREGATE; on.len() + 3],
        parts: (a.parts.iter().zip(&b.parts))
            .map(|(pa, pb)| local_summary((pa, &a_cols), (pb, &b_cols), factor, workers))
            .collect(),
    };
    let (gathered, summary) = run_route(
        summaries,
        &Route::broadcast(workers)?,
        format!("{} ⋈ {}: heavy-key summary", labels.0, labels.1),
        seam,
    )?;
    // Every hosted partition received the same rows; any one decides.
    let heavy = Arc::new(heavy_keys(&gathered.parts[0], factor, workers));

    let route = |input: DistRel, cols: Vec<usize>, label: &str, spread_when: bool| {
        run_route(
            input,
            &Route::skew(cols, seed, Arc::clone(&heavy), spread_when, workers)?,
            format!("{label} ->skew-resilient"),
            seam,
        )
    };
    let (out_a, stats_a) = route(a, a_cols, labels.0, true)?;
    let (out_b, stats_b) = route(b, b_cols, labels.1, false)?;
    Ok((out_a, out_b, [summary, stats_a, stats_b]))
}

/// First column of a summary row: the partition's `(|a|, |b|)` totals
/// (key columns zero), or one candidate key's `(fa, fb)`.
const SUMMARY_TOTALS: Value = 0;
const SUMMARY_KEY: Value = 1;

/// One hosted partition's bounded summary of a join pair: a totals row,
/// then, in key order, one row per key whose local frequency on both
/// sides together exceeds a `factor / workers` share of the partition —
/// fewer than `workers / factor` rows, and a globally heavy key exceeds
/// that share on at least one partition.
fn local_summary(
    a: (&Relation, &[usize]),
    b: (&Relation, &[usize]),
    factor: f64,
    workers: usize,
) -> Relation {
    let k = a.1.len();
    let mut freq: BTreeMap<Vec<Value>, [u64; 2]> = BTreeMap::new();
    let mut key = Vec::with_capacity(k);
    for (side, (part, cols)) in [a, b].into_iter().enumerate() {
        for row in part.rows() {
            key.clear();
            key.extend(cols.iter().map(|&c| row[c]));
            match freq.get_mut(key.as_slice()) {
                Some(f) => f[side] += 1,
                None => freq.entry(key.clone()).or_default()[side] = 1,
            }
        }
    }
    let (na, nb) = (a.0.len() as u64, b.0.len() as u64);
    let share = factor * (na + nb) as f64 / workers as f64;
    let mut flat = vec![SUMMARY_TOTALS; k + 1];
    flat.extend([na, nb]);
    for (key, [fa, fb]) in freq {
        if (fa + fb) as f64 > share {
            flat.push(SUMMARY_KEY);
            flat.extend(key);
            flat.extend([fa, fb]);
        }
    }
    Relation::from_flat(k + 3, flat)
}

/// Decides the heavy set from the gathered summaries: the keys whose
/// *reported* frequency exceeds half of `factor × total / workers`, each
/// spread on the side where it is more frequent.
///
/// Half, because a partition is silent about a key until the key
/// exceeds the partition's own share: silent partitions together hide
/// less than one threshold's worth of any key, so a key above 1.5× the
/// threshold is always found, and a uniformly spread key right at the
/// threshold is reported by about half the partitions, with about half
/// its frequency. A key held by one partition is reported in full.
fn heavy_keys(gathered: &Relation, factor: f64, workers: usize) -> HeavyKeys {
    let k = gathered.arity() - 3;
    let mut total = 0u64;
    let mut freq: HashMap<&[Value], [u64; 2]> = HashMap::new();
    for row in gathered.rows() {
        let (fa, fb) = (row[k + 1], row[k + 2]);
        if row[0] == SUMMARY_TOTALS {
            total += fa + fb;
        } else {
            let f = freq.entry(&row[1..=k]).or_default();
            *f = [f[0] + fa, f[1] + fb];
        }
    }
    let bar = 0.5 * factor * total as f64 / workers as f64;
    freq.into_iter()
        .filter(|(_, [fa, fb])| (fa + fb) as f64 > bar)
        .map(|(key, [fa, fb])| (key.to_vec(), fa >= fb))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Relation;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn edges(n: u64) -> Relation {
        Relation::from_rows(
            2,
            (0..n)
                .map(|i| [i, (i * 7 + 1) % n])
                .collect::<Vec<_>>()
                .iter(),
        )
    }

    #[test]
    fn regular_is_a_partition() {
        let rel = edges(100);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 8);
        let (out, stats) = regular(&d, &[v(1)], "t", 42);
        assert_eq!(out.total_len(), 100);
        assert_eq!(stats.tuples_sent, 100);
        // Same key value → same destination.
        for part in &out.parts {
            for row in part.rows() {
                let expect = hash::bucket_row(&[row[1]], join_key_seed(42, &[v(1)]), 8);
                let here = out
                    .parts
                    .iter()
                    .position(|p| p.rows().any(|r| r == row))
                    .unwrap();
                assert_eq!(here, expect);
            }
        }
    }

    #[test]
    fn regular_co_partitions_both_sides() {
        // Two relations shuffled on the same variable agree on buckets
        // even when the variable sits in different columns.
        let a = edges(50);
        let b = edges(50).project(&[1, 0]); // swap columns
        let da = DistRel::round_robin(&a, vec![v(0), v(1)], 4);
        let db = DistRel::round_robin(&b, vec![v(1), v(0)], 4);
        let (oa, _) = regular(&da, &[v(1)], "a", 9);
        let (ob, _) = regular(&db, &[v(1)], "b", 9);
        // Every y value must live in exactly one partition of each side,
        // and the partition indices must match.
        for w in 0..4 {
            for row in oa.parts[w].rows() {
                let y = row[1];
                for (w2, p2) in ob.parts.iter().enumerate() {
                    if p2.rows().any(|r| r[0] == y) {
                        assert_eq!(w, w2, "y={y} split across workers");
                    }
                }
            }
        }
    }

    #[test]
    fn regular_multi_attr_key_order_canonical() {
        // Shuffling on [x, y] and [y, x] must route identically.
        let rel = edges(64);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 8);
        let (a, _) = regular(&d, &[v(0), v(1)], "a", 5);
        let (b, _) = regular(&d, &[v(1), v(0)], "b", 5);
        for w in 0..8 {
            assert_eq!(
                a.parts[w].clone().distinct().raw(),
                b.parts[w].clone().distinct().raw()
            );
        }
    }

    #[test]
    fn broadcast_replicates_everywhere() {
        let rel = edges(30);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 5);
        let (out, stats) = broadcast(&d, "b");
        assert_eq!(stats.tuples_sent, 150);
        assert!((stats.consumer_skew() - 1.0).abs() < 1e-12);
        for p in &out.parts {
            assert_eq!(p.len(), 30);
        }
    }

    #[test]
    fn hypercube_triangle_replication_factor() {
        // 4×4×4 cube: an atom pinning 2 of 3 dims replicates each tuple
        // 4× (paper: "Each relation … is replicated 4 times").
        let rel = edges(200);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 64);
        let cfg = HcConfig::new(vec![v(0), v(1), v(2)], vec![4, 4, 4]);
        let (out, stats) = hypercube(&d, &cfg, "hcs", 7);
        assert_eq!(stats.tuples_sent, 800);
        assert_eq!(out.total_len(), 800);
    }

    #[test]
    fn hypercube_all_vars_pinned_partitions() {
        // An atom containing every dimension variable is partitioned, not
        // replicated.
        let rel = edges(100);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 16);
        let cfg = HcConfig::new(vec![v(0), v(1)], vec![4, 4]);
        let (out, stats) = hypercube(&d, &cfg, "hcs", 7);
        assert_eq!(stats.tuples_sent, 100);
        assert_eq!(out.total_len(), 100);
    }

    #[test]
    fn hypercube_meets_joining_tuples() {
        // Correctness core: for R(x,y), S(y,z), any pair of tuples
        // agreeing on y must share at least one worker.
        let r = edges(40);
        let s = edges(40);
        let dr = DistRel::round_robin(&r, vec![v(0), v(1)], 8);
        let ds = DistRel::round_robin(&s, vec![v(1), v(2)], 8);
        let cfg = HcConfig::new(vec![v(0), v(1), v(2)], vec![2, 2, 2]);
        let (or, _) = hypercube(&dr, &cfg, "r", 3);
        let (os, _) = hypercube(&ds, &cfg, "s", 3);
        for rr in r.rows() {
            for sr in s.rows() {
                if rr[1] != sr[0] {
                    continue;
                }
                let meet = (0..8).any(|w| {
                    or.parts[w].rows().any(|x| x == rr) && os.parts[w].rows().any(|x| x == sr)
                });
                assert!(meet, "tuples {rr:?} ⋈ {sr:?} never meet");
            }
        }
    }

    #[test]
    fn hypercube_unique_cell_for_full_assignment() {
        // With every variable given a dimension, a fully bound assignment
        // maps to exactly one cell: count each tuple's copies of an
        // all-vars atom.
        let rel = edges(64);
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 6);
        let cfg = HcConfig::new(vec![v(0), v(1)], vec![3, 2]);
        let (out, _) = hypercube(&d, &cfg, "x", 11);
        assert_eq!(out.total_len(), 64); // no replication
    }

    #[test]
    fn skew_resilient_meets_all_pairs() {
        // Heavily skewed y: one hot key plus a light tail.
        let mut a = Relation::new(2);
        let mut b = Relation::new(2);
        for i in 0..200u64 {
            a.push_row(&[i, 7]); // hot key 7 on the a side
        }
        for i in 0..20u64 {
            a.push_row(&[i + 1000, i]);
            b.push_row(&[7, i + 500]); // a few b-side matches for the hot key
            b.push_row(&[i, i]);
        }
        let da = DistRel::round_robin(&a, vec![v(0), v(1)], 8);
        let db = DistRel::round_robin(&b, vec![v(1), v(2)], 8);
        let cluster = Cluster::new(8).with_seed(3);
        let (oa, ob, [summary, sa, sb]) =
            skew_resilient_pair(da, db, &[v(1)], ("A", "B"), &cluster, 2.0, &Seam::Local).unwrap();
        // The decision round is a recorded broadcast of bounded
        // summaries: every partition's totals row and its one candidate.
        assert_eq!(summary.label, "A ⋈ B: heavy-key summary");
        assert_eq!(summary.tuples_sent, 8 * 8 * 2);
        // Correctness: every joining pair meets at exactly one worker.
        for ra in a.rows() {
            for rb in b.rows() {
                if ra[1] != rb[0] {
                    continue;
                }
                let meets = (0..8)
                    .filter(|&w| {
                        oa.parts[w].rows().any(|x| x == ra) && ob.parts[w].rows().any(|x| x == rb)
                    })
                    .count();
                assert!(meets >= 1, "{ra:?} ⋈ {rb:?} never meets");
            }
        }
        // Load balance: the hot key's 200 tuples no longer pile onto one
        // worker.
        assert!(
            sa.consumer_skew() < 2.0,
            "spread side balanced: {}",
            sa.consumer_skew()
        );
        // Key 7, and only key 7, is heavy: its 21 b-side rows go to all
        // 8 workers, the other 19 to one each.
        assert_eq!(sb.tuples_sent, 21 * 8 + 19);
    }

    #[test]
    fn skew_resilient_no_heavy_equals_regular_routing() {
        let rel = edges(64);
        let da = DistRel::round_robin(&rel, vec![v(0), v(1)], 4);
        let db2 = DistRel::round_robin(&rel, vec![v(1), v(2)], 4);
        // Absurdly high threshold: nothing is heavy.
        let cluster = Cluster::new(4).with_seed(9);
        let (oa, _ob, [summary, sa, _sb]) = skew_resilient_pair(
            da.clone(),
            db2,
            &[v(1)],
            ("A", "B"),
            &cluster,
            1e9,
            &Seam::Local,
        )
        .unwrap();
        // Nothing is even a candidate: the summaries are totals rows.
        assert_eq!(summary.tuples_sent, 4 * 4);
        let (ra, rs) = regular(&da, &[v(1)], "A", 9);
        assert_eq!(sa.tuples_sent, rs.tuples_sent);
        for w in 0..4 {
            assert_eq!(
                oa.parts[w].raw(),
                ra.parts[w].raw(),
                "light-key routing must match the regular shuffle"
            );
        }
    }

    #[test]
    fn join_key_seed_is_order_insensitive() {
        assert_eq!(
            join_key_seed(1, &[v(2), v(5)]),
            join_key_seed(1, &[v(5), v(2)])
        );
        assert_ne!(join_key_seed(1, &[v(2)]), join_key_seed(1, &[v(3)]));
    }
}
