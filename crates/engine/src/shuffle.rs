//! The three shuffle algorithms of §3: regular (single-attribute-set hash
//! partition), broadcast, and HyperCube.
//!
//! Every shuffle returns the repartitioned relation *and* a
//! [`ShuffleStats`] carrying exactly the paper's Tables 2–4 metrics:
//! total tuples sent, per-producer and per-consumer tallies (from which
//! the max/avg skew factors derive). Following the paper's accounting,
//! a tuple counts as "sent" even when its destination equals its source
//! worker (Table 2 charges the full 1,114,289 tuples for `R(x,y) ->h(y)`).
//!
//! Each shuffle is expressed as a [`Router`] closure (row → destination
//! set) run over the *hosted* partitions through a `Seam` — the one
//! place where an in-process run and a mesh rank differ. `Local` is the
//! sequential loop (byte-for-byte the original simulator, zero bytes
//! moved), `Runtime` streams encoded batches between the `p` worker
//! actors of this process, and `Mesh` is one exchange round of a
//! multi-process [`HostMesh`] on which this process hosts a single
//! rank. Row order of the output partitions is identical on all three,
//! so results are byte-identical across transports and processes.

use crate::dist::DistRel;
use crate::error::EngineError;
use parjoin_common::{hash, Relation, ShuffleStats};
use parjoin_core::hypercube::HcConfig;
use parjoin_query::VarId;
use parjoin_runtime::exchange::{self, ExchangeOpts};
use parjoin_runtime::{local_shuffle, BufPool, HostMesh, Router, Runtime, ShuffleOutcome};
use std::sync::Arc;

/// Where a shuffle's bytes go.
pub(crate) enum Seam<'a> {
    /// The sequential in-memory loop over all `p` hosted partitions.
    Local,
    /// The worker runtime's streaming transport between all `p` hosted
    /// partitions.
    Runtime(&'a Runtime),
    /// One exchange round per shuffle on a multi-process mesh; this
    /// process hosts only its own rank's partition.
    Mesh {
        /// The joined mesh (rank, address book, counters).
        mesh: &'a HostMesh,
        /// Frame buffers recycled across the plan's rounds.
        pool: Arc<BufPool>,
        /// Batch size and framing of the exchange.
        opts: ExchangeOpts,
    },
}

impl<'a> From<Option<&'a Runtime>> for Seam<'a> {
    fn from(rt: Option<&'a Runtime>) -> Self {
        rt.map_or(Seam::Local, Seam::Runtime)
    }
}

impl Seam<'_> {
    /// Global rank of hosted partition 0 (errors name global ranks).
    pub(crate) fn first_rank(&self) -> usize {
        match self {
            Seam::Local | Seam::Runtime(_) => 0,
            Seam::Mesh { mesh, .. } => mesh.rank(),
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

/// Runs `router` over `input`'s hosted partitions through `seam` and
/// packages the outcome as the engine's types.
pub(crate) fn run_router(
    input: &DistRel,
    router: Router,
    label: impl Into<String>,
    seam: &Seam<'_>,
) -> Result<(DistRel, ShuffleStats), EngineError> {
    let outcome = match seam {
        Seam::Local => local_shuffle(&input.parts, &router),
        Seam::Runtime(rt) => rt.shuffle(input.parts.clone(), router)?,
        Seam::Mesh { mesh, pool, opts } => {
            let [part] = input.parts.as_slice() else {
                return Err(EngineError::Unsupported(format!(
                    "a mesh rank hosts one partition per relation, got {}",
                    input.parts.len()
                )));
            };
            // A fresh endpoint per round: the mesh's round-sync contract
            // guarantees rounds never interleave, and the per-source
            // ascending drain reproduces the Local loop's row order.
            let endpoint = mesh.endpoint(pool)?;
            let w = exchange::run_worker(
                mesh.rank(),
                part,
                mesh.workers(),
                *opts,
                endpoint,
                &router,
                &mesh.obs,
                pool,
            )?;
            ShuffleOutcome {
                per_producer: vec![w.sent_tuples],
                per_consumer: vec![w.received.len() as u64],
                bytes_sent: w.bytes_sent,
                bytes_sent_raw: w.bytes_sent_raw,
                bytes_received: w.bytes_received,
                parts: vec![w.received],
            }
        }
    };
    let stats = ShuffleStats::new(label, outcome.per_producer, outcome.per_consumer)
        .with_bytes(outcome.bytes_sent, outcome.bytes_received)
        .with_raw_bytes(outcome.bytes_sent_raw);
    let mut parts = outcome.parts;
    // An all-empty input (or, on a mesh rank, nothing received) leaves
    // no partition to read the arity from; restore the schema arity so
    // downstream joins see the right column count.
    let arity = input.vars.len();
    for p in &mut parts {
        if p.is_empty() && p.arity() != arity {
            *p = Relation::new(arity);
        }
    }
    Ok((
        DistRel {
            vars: input.vars.clone(),
            parts,
        },
        stats,
    ))
}

/// Key columns / hypercube dimensions a router handles in a stack
/// buffer; beyond it a row's scratch space comes from the heap.
const STACK_SLOTS: usize = 16;

/// Runs `f` over a zeroed scratch slice of length `len`: on the stack up
/// to [`STACK_SLOTS`], so routing a row allocates nothing.
#[inline]
fn with_scratch<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= STACK_SLOTS {
        f(&mut [T::default(); STACK_SLOTS][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// The [`Router`] of the regular shuffle: one destination per row, the
/// hash bucket of the key columns.
fn regular_router(cols: Vec<usize>, seed: u64, workers: usize) -> Router {
    // Single-column keys (the common case) need no scratch at all.
    if let [c] = cols[..] {
        return Arc::new(move |_w, row, dests| {
            dests.push(hash::bucket_row(&[row[c]], seed, workers));
        });
    }
    Arc::new(move |_w, row, dests| {
        with_scratch(cols.len(), |key: &mut [u64]| {
            for (k, &c) in key.iter_mut().zip(&cols) {
                *k = row[c];
            }
            dests.push(hash::bucket_row(key, seed, workers));
        });
    })
}

/// Builds the regular-shuffle [`Router`] for a relation with schema
/// `vars`, keyed on `on`, over `workers` destination ranks.
pub(crate) fn regular_router_for(
    vars: &[VarId],
    on: &[VarId],
    base_seed: u64,
    workers: usize,
) -> Router {
    let seed = join_key_seed(base_seed, on);
    let mut on_sorted: Vec<VarId> = on.to_vec();
    on_sorted.sort_unstable();
    let cols: Vec<usize> = on_sorted
        .iter()
        .map(|&v| {
            vars.iter()
                .position(|&x| x == v)
                // Shuffle keys come from the relation's own schema.
                // xtask: allow(expect)
                .expect("shuffle key must be in the relation schema")
        })
        .collect();
    regular_router(cols, seed, workers)
}

/// Builds the broadcast [`Router`]: every row to every worker.
pub(crate) fn broadcast_router(workers: usize) -> Router {
    Arc::new(move |_w, _row, dests| dests.extend(0..workers))
}

/// Builds the HyperCube [`Router`] for a relation with schema `vars`
/// under `config`.
pub(crate) fn hypercube_router_for(vars: &[VarId], config: &HcConfig, base_seed: u64) -> Router {
    let k = config.dims().len();
    // Per-dimension hash seeds (independent h_i per variable).
    let seeds: Vec<u64> = (0..k).map(|d| hash::dimension_seed(base_seed, d)).collect();
    // Which dimensions this atom pins, and from which column.
    let pinned: Vec<Option<usize>> = config
        .vars()
        .iter()
        .map(|&v| vars.iter().position(|&x| x == v))
        .collect();
    hypercube_router(config.clone(), pinned, seeds)
}

/// Regular shuffle: hash-partition on the values of `on` (in sorted
/// variable order, so both join sides agree).
pub fn regular(
    input: &DistRel,
    on: &[VarId],
    label: impl Into<String>,
    base_seed: u64,
) -> (DistRel, ShuffleStats) {
    // With no transport (`None`) the in-memory path has no error
    // source. xtask: allow(expect)
    regular_via(input, on, label, base_seed, None).expect("local shuffle cannot fail")
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
    let workers = input.workers();
    run_router(
        input,
        regular_router_for(&input.vars, on, base_seed, workers),
        label,
        &Seam::from(rt),
    )
}

/// Broadcast shuffle: every worker receives the full relation.
pub fn broadcast(input: &DistRel, label: impl Into<String>) -> (DistRel, ShuffleStats) {
    let router = broadcast_router(input.workers());
    // The in-memory seam has no error source. xtask: allow(expect)
    run_router(input, router, label, &Seam::Local).expect("local shuffle cannot fail")
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
    let router = hypercube_router_for(&input.vars, config, base_seed);
    // The in-memory seam has no error source. xtask: allow(expect)
    run_router(input, router, label, &Seam::Local).expect("local shuffle cannot fail")
}

/// The [`Router`] of the HyperCube shuffle: hash the pinned dimensions,
/// enumerate the slab over the free ones (mixed-radix order).
fn hypercube_router(config: HcConfig, pinned: Vec<Option<usize>>, seeds: Vec<u64>) -> Router {
    let dims: Vec<usize> = config.dims().to_vec();
    let k = dims.len();
    let free_dims: Vec<usize> = (0..k).filter(|&d| pinned[d].is_none()).collect();
    Arc::new(move |_w, row, dests| {
        with_scratch(k, |coords: &mut [usize]| {
            for d in 0..k {
                if let Some(col) = pinned[d] {
                    coords[d] = hash::bucket(row[col], seeds[d], dims[d]);
                }
            }
            loop {
                dests.push(config.cell_index(coords));
                // Mixed-radix increment over free dims.
                let mut advanced = false;
                for &d in &free_dims {
                    coords[d] += 1;
                    if coords[d] < dims[d] {
                        advanced = true;
                        break;
                    }
                    coords[d] = 0;
                }
                if !advanced {
                    break;
                }
            }
        });
    })
}

/// Heavy-hitter-resilient co-shuffle of a join pair (the paper's
/// footnote 2: "Some parallel hash join algorithms detect the heavy
/// hitters and treat them specially, to avoid skew").
///
/// Keys whose combined frequency exceeds `factor × total/workers` are
/// *heavy*: the side where the key is more frequent is spread across all
/// workers (row-hash placement), while the other side's matching tuples
/// are replicated to every worker, so every joining pair still meets
/// exactly once. Light keys hash-partition normally. This bounds the
/// per-worker load at the cost of replicating the (small) other side of
/// each hot key — the PRPD idea.
pub fn skew_resilient_pair(
    a: &DistRel,
    b: &DistRel,
    on: &[VarId],
    labels: (&str, &str),
    base_seed: u64,
    factor: f64,
) -> (DistRel, DistRel, ShuffleStats, ShuffleStats, usize) {
    use std::collections::HashMap;
    let workers = a.workers();
    assert_eq!(workers, b.workers(), "both sides on the same cluster");
    let seed = join_key_seed(base_seed, on);
    let mut on_sorted: Vec<VarId> = on.to_vec();
    on_sorted.sort_unstable();
    let a_cols: Vec<usize> = on_sorted.iter().map(|&v| a.col_of(v)).collect();
    let b_cols: Vec<usize> = on_sorted.iter().map(|&v| b.col_of(v)).collect();

    // Global key frequencies (the simulator can see them exactly; a real
    // engine samples).
    let mut freq_a: HashMap<Vec<u64>, u64> = HashMap::new();
    let mut freq_b: HashMap<Vec<u64>, u64> = HashMap::new();
    for part in &a.parts {
        for row in part.rows() {
            let key: Vec<u64> = a_cols.iter().map(|&c| row[c]).collect();
            *freq_a.entry(key).or_insert(0) += 1;
        }
    }
    for part in &b.parts {
        for row in part.rows() {
            let key: Vec<u64> = b_cols.iter().map(|&c| row[c]).collect();
            *freq_b.entry(key).or_insert(0) += 1;
        }
    }
    let total = (a.total_len() + b.total_len()) as f64;
    let threshold = factor * total / workers as f64;
    // Heavy keys, with the decision of which side to spread.
    let mut heavy_spread_a: HashMap<Vec<u64>, bool> = HashMap::new();
    for (key, &fa) in &freq_a {
        let fb = freq_b.get(key).copied().unwrap_or(0);
        if (fa + fb) as f64 > threshold {
            heavy_spread_a.insert(key.clone(), fa >= fb);
        }
    }
    for (key, &fb) in &freq_b {
        if !heavy_spread_a.contains_key(key) {
            let fa = freq_a.get(key).copied().unwrap_or(0);
            if (fa + fb) as f64 > threshold {
                heavy_spread_a.insert(key.clone(), fa >= fb);
            }
        }
    }

    let route = |input: &DistRel, cols: &[usize], is_a: bool| -> (DistRel, ShuffleStats) {
        let mut parts: Vec<Relation> = (0..workers)
            .map(|_| Relation::new(input.vars.len()))
            .collect();
        let mut per_producer = vec![0u64; workers];
        let mut per_consumer = vec![0u64; workers];
        let mut key = Vec::with_capacity(cols.len());
        for (w, part) in input.parts.iter().enumerate() {
            for row in part.rows() {
                key.clear();
                key.extend(cols.iter().map(|&c| row[c]));
                match heavy_spread_a.get(key.as_slice()) {
                    None => {
                        let dest = hash::bucket_row(&key, seed, workers);
                        per_producer[w] += 1;
                        per_consumer[dest] += 1;
                        parts[dest].push_row(row);
                    }
                    Some(&spread_a) if spread_a == is_a => {
                        // Spread side: place by a hash of the whole row so
                        // the hot key's tuples scatter evenly.
                        let dest = hash::bucket_row(row, seed ^ 0xdead_beef, workers);
                        per_producer[w] += 1;
                        per_consumer[dest] += 1;
                        parts[dest].push_row(row);
                    }
                    Some(_) => {
                        // Replicated side: every worker gets a copy.
                        per_producer[w] += workers as u64;
                        for (dest, p) in parts.iter_mut().enumerate() {
                            per_consumer[dest] += 1;
                            p.push_row(row);
                        }
                    }
                }
            }
        }
        (
            DistRel {
                vars: input.vars.clone(),
                parts,
            },
            ShuffleStats::new(
                format!(
                    "{} ->skew-resilient",
                    if is_a { labels.0 } else { labels.1 }
                ),
                per_producer,
                per_consumer,
            ),
        )
    };
    let (out_a, stats_a) = route(a, &a_cols, true);
    let (out_b, stats_b) = route(b, &b_cols, false);
    let heavy = heavy_spread_a.len();
    (out_a, out_b, stats_a, stats_b, heavy)
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
        let (oa, ob, sa, sb, heavy) = skew_resilient_pair(&da, &db, &[v(1)], ("A", "B"), 3, 2.0);
        assert!(heavy >= 1, "key 7 must be detected as heavy");
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
        // The replicated side pays duplication.
        assert!(sb.tuples_sent > b.len() as u64);
    }

    #[test]
    fn skew_resilient_no_heavy_equals_regular_routing() {
        let rel = edges(64);
        let da = DistRel::round_robin(&rel, vec![v(0), v(1)], 4);
        let db2 = DistRel::round_robin(&rel, vec![v(1), v(2)], 4);
        // Absurdly high threshold: nothing is heavy.
        let (oa, _ob, sa, _sb, heavy) = skew_resilient_pair(&da, &db2, &[v(1)], ("A", "B"), 9, 1e9);
        assert_eq!(heavy, 0);
        let (ra, rs) = regular(&da, &[v(1)], "A", 9);
        assert_eq!(sa.tuples_sent, rs.tuples_sent);
        for w in 0..4 {
            assert_eq!(
                oa.parts[w].clone().distinct().raw(),
                ra.parts[w].clone().distinct().raw(),
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
