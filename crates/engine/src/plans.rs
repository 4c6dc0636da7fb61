//! Distributed query plans: the six shuffle×join configurations of §3.
//!
//! * **Regular shuffle (RS)** plans evaluate a left-deep tree of binary
//!   joins, re-shuffling the running intermediate result and the next
//!   base relation on their shared variables before every join — the
//!   "traditional" plan of Figure 1a, with per-step shuffle stats
//!   (Table 2's skew factors fall out of these).
//! * **Broadcast (BR)** plans keep the largest relation partitioned,
//!   broadcast every other relation, and run the whole multiway join
//!   locally on each worker.
//! * **HyperCube (HC)** plans shuffle every relation once through the
//!   hypercube chosen by Algorithm 1 and run the whole multiway join
//!   locally (Figure 1b).
//! * **Semijoin (SJ)** plans (§3.6) first run GYM semijoin reduction
//!   rounds along the query's join tree (`crate::semijoin`), then the
//!   regular-shuffle plan's join loop over the reduced relations.
//!
//! The local join is either a tree of binary hash joins (`JoinAlg::Hash`)
//! or the Tributary join (`JoinAlg::Tributary`); under RS the Tributary
//! join degenerates to binary sort-merge joins, as in the paper.
//!
//! Wall-clock is simulated as the sum over phases of the slowest worker's
//! compute time (see [`crate::exec`]); network transfer time is not
//! modeled, but shuffle volume and skew are reported exactly.

use crate::cluster::Cluster;
use crate::dist::{DistRel, Hosted, AGGREGATE};
use crate::error::EngineError;
use crate::exec::{parallelism_warning, run_phase_traced};
use crate::local::{hash_join, row_filter, SchemaRel};
use crate::pipeline::{self, Left, RankJoin, StepJoin};
use crate::prepare;
use crate::probe;
use crate::semijoin;
use crate::shuffle::{self, Seam};
use crate::sortcache::{Lookup, SortCache};
use crate::statscache::{self, QueryStats};
use crate::triecache::TrieCache;
use parjoin_analyze::{self as analyze, Diagnostic};
use parjoin_common::{Relation, ShuffleStats};
use parjoin_core::hypercube::{HcConfig, ShareProblem};
use parjoin_core::order::{best_order_seeded, OrderCostModel, RelStats, MAX_SUBSET_ARITY};
use parjoin_core::tributary::{ColumnarAtom, ColumnarTrie, ProbeCounts, SortedAtom, Tributary};
use parjoin_obs::{Lane, Registry, TraceSink, COORDINATOR_LANE};
use parjoin_query::resolve::split_filters;
use parjoin_query::{resolve_atoms, ConjunctiveQuery, Filter, VarId};
use parjoin_runtime::{Route, Runtime, RuntimeConfig, RuntimeObs};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shuffle algorithm (§3's three contenders, plus §3.6's semijoin plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleAlg {
    /// Hash-partition on the join attributes, one join at a time.
    Regular,
    /// Keep the largest relation in place; broadcast the others.
    Broadcast,
    /// One-round HyperCube shuffle.
    HyperCube,
    /// The GYM semijoin plan (§3.6): semijoin reduction rounds along the
    /// query's join tree, bottom-up then top-down, then the regular
    /// shuffle's join. Acyclic queries only.
    Semijoin,
}

/// Local join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlg {
    /// Binary hash joins (left-deep tree).
    Hash,
    /// Tributary join (sort-merge under RS).
    Tributary,
}

impl ShuffleAlg {
    /// Every shuffle algorithm. A [`Fragment`](crate::Fragment) ships a
    /// shuffle as its index here, so entries are only ever appended.
    pub const ALL: [ShuffleAlg; 4] = [
        ShuffleAlg::Regular,
        ShuffleAlg::Broadcast,
        ShuffleAlg::HyperCube,
        ShuffleAlg::Semijoin,
    ];

    /// The first half of a configuration name (`RS`, `BR`, `HC`, `SJ`).
    fn tag(self) -> &'static str {
        match self {
            ShuffleAlg::Regular => "RS",
            ShuffleAlg::Broadcast => "BR",
            ShuffleAlg::HyperCube => "HC",
            ShuffleAlg::Semijoin => "SJ",
        }
    }

    /// Whether every relation moves in one communication round before a
    /// local multiway join (BR, HC), rather than once per binary join
    /// step (RS, and SJ after its reductions).
    pub fn is_one_round(self) -> bool {
        matches!(self, ShuffleAlg::Broadcast | ShuffleAlg::HyperCube)
    }
}

impl JoinAlg {
    /// Every local join algorithm, in wire-code order (see
    /// [`ShuffleAlg::ALL`]).
    pub const ALL: [JoinAlg; 2] = [JoinAlg::Hash, JoinAlg::Tributary];

    /// The second half of a configuration name (`HJ`, `TJ`).
    fn tag(self) -> &'static str {
        match self {
            JoinAlg::Hash => "HJ",
            JoinAlg::Tributary => "TJ",
        }
    }
}

/// The paper's six configurations (§3) in its fixed order: `RS_HJ`,
/// `RS_TJ`, `BR_HJ`, `BR_TJ`, `HC_HJ`, `HC_TJ`.
pub const PAPER_CONFIGS: [(ShuffleAlg, JoinAlg); 6] = [
    (ShuffleAlg::Regular, JoinAlg::Hash),
    (ShuffleAlg::Regular, JoinAlg::Tributary),
    (ShuffleAlg::Broadcast, JoinAlg::Hash),
    (ShuffleAlg::Broadcast, JoinAlg::Tributary),
    (ShuffleAlg::HyperCube, JoinAlg::Hash),
    (ShuffleAlg::HyperCube, JoinAlg::Tributary),
];

/// A configuration's name, e.g. `"HC_TJ"` ([`RunResult::config`]).
pub fn config_name(shuffle: ShuffleAlg, join: JoinAlg) -> String {
    format!("{}_{}", shuffle.tag(), join.tag())
}

/// Parses a configuration name made of the two tags: the paper's six
/// plus `SJ_HJ` and `SJ_TJ`.
///
/// ```
/// use parjoin_engine::{parse_config, JoinAlg, ShuffleAlg};
///
/// assert_eq!(parse_config("SJ_HJ"), Some((ShuffleAlg::Semijoin, JoinAlg::Hash)));
/// assert_eq!(parse_config("XX_YY"), None);
/// ```
pub fn parse_config(name: &str) -> Option<(ShuffleAlg, JoinAlg)> {
    let (shuffle, join) = name.split_once('_')?;
    Some((
        ShuffleAlg::ALL.into_iter().find(|s| s.tag() == shuffle)?,
        JoinAlg::ALL.into_iter().find(|j| j.tag() == join)?,
    ))
}

impl From<ShuffleAlg> for analyze::ShuffleKind {
    /// A semijoin plan is vetted as the regular-shuffle plan it ends in:
    /// its reductions only delete tuples, so the regular estimates bound
    /// it from above.
    fn from(s: ShuffleAlg) -> Self {
        match s {
            ShuffleAlg::Regular | ShuffleAlg::Semijoin => analyze::ShuffleKind::Regular,
            ShuffleAlg::Broadcast => analyze::ShuffleKind::Broadcast,
            ShuffleAlg::HyperCube => analyze::ShuffleKind::HyperCube,
        }
    }
}

impl From<JoinAlg> for analyze::JoinKind {
    fn from(j: JoinAlg) -> Self {
        match j {
            JoinAlg::Hash => analyze::JoinKind::Hash,
            JoinAlg::Tributary => analyze::JoinKind::Tributary,
        }
    }
}

/// Which trie representation Tributary plans prepare and probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrieLayout {
    /// Row-major sorted arrays walked by `TrieIter` (the PR 1 layout) —
    /// kept as the A/B baseline and reachable via
    /// [`PlanOptions::trie_layout`].
    Row,
    /// Columnar level-segmented tries (`ColumnarTrie`): per-level
    /// contiguous key arrays + CSR child offsets, branch-free chunked
    /// galloping, and cross-query reuse through the process-wide
    /// [`TrieCache`], whose misses pack, sort and emit the trie without
    /// a sorted view. Byte-identical output to `Row`.
    #[default]
    Columnar,
}

/// Plan-level knobs.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// Left-deep join order (atom indices) for RS plans and local hash
    /// trees; `None` uses a greedy smallest-relation-first order.
    pub join_order: Option<Vec<usize>>,
    /// HyperCube configuration override; `None` runs Algorithm 1.
    pub hc_config: Option<HcConfig>,
    /// Tributary global variable order; `None` runs the §5 cost-model
    /// optimizer (exhaustive up to 10 variables, the best of 20 orders
    /// sampled from [`Cluster::seed`] above), which prices a HyperCube
    /// plan's order per rank ([`OrderCostModel::per_rank`]).
    pub tj_order: Option<Vec<VarId>>,
    /// Materialize the (projected) output at the coordinator.
    pub collect_output: bool,
    /// Deduplicate the collected output (set semantics for projected
    /// heads, e.g. Q3's `CastMember(cast)`).
    pub distinct_output: bool,
    /// Use the heavy-hitter-resilient shuffle for regular-shuffle steps
    /// (the paper's footnote 2): hot keys are spread on one side and
    /// replicated on the other, bounding per-worker load. Each step
    /// first all-gathers bounded per-partition key summaries (one more
    /// recorded shuffle and round), so every rank derives the same
    /// heavy set. Only affects `ShuffleAlg::Regular` plans.
    pub skew_resilient: bool,
    /// Aggregate the output into `(head…, count)` groups — the paper's §1
    /// motivation is exactly this shape ("the frequencies of graphlets in
    /// the network"). Groups are pre-aggregated per worker, combined with
    /// one extra hash shuffle on the head columns (counted in the
    /// metrics), and replace the projected output, count column last.
    pub group_count: bool,
    /// Prepare Tributary atoms serially and without a cache (plain
    /// [`SortedAtom::prepare`] / `ColumnarAtom::prepare`: sort a view,
    /// build from it). The default (`false`) prepare path serves
    /// columnar tries from the process-wide [`TrieCache`], building
    /// misses with the pack → sort → emit kernel
    /// ([`prepare::columnar_trie`]), and the row layout's sorted views
    /// from the [`SortCache`], sorting misses with the intra-worker
    /// parallel sort; both are byte-identical to the sequential path. One of the
    /// three knobs of the *reference configuration* (`Local` transport +
    /// `sequential_prepare` + `sequential_probe` + [`TrieLayout::Row`]),
    /// the oracle the parity matrix and the e2e harness compare the
    /// production path against; it has no other purpose.
    pub sequential_prepare: bool,
    /// Probe sequentially: run the Tributary leapfrog, the hash-join
    /// probe, and the semijoin single-threaded per worker instead of
    /// morsel-parallel ([`crate::probe`]). The morsel path is
    /// byte-identical to this baseline. Reference-configuration knob
    /// (see [`PlanOptions::sequential_prepare`]).
    pub sequential_probe: bool,
    /// Override the per-worker probe thread count; `None` derives it
    /// from the host (`host_cores / workers`, at least 1); either way it
    /// is clamped to [`probe::MAX_PROBE_THREADS`]. Ignored when
    /// [`PlanOptions::sequential_probe`] is set. Mainly for tests and
    /// benchmarks that must exercise a fixed thread count regardless of
    /// the machine they run on.
    pub probe_threads: Option<usize>,
    /// Write a chrome://tracing / Perfetto-loadable JSON trace of the run
    /// to this path. Tracing is enabled **only** when this is set; with
    /// `None` the span machinery stays disabled and costs nothing on the
    /// hot path. Per-worker phase spans (`shuffle` on streaming
    /// transports, `prepare`, `probe`) appear one chrome "thread" per
    /// simulated worker, coordinator work on its own lane.
    pub trace_path: Option<PathBuf>,
    /// Trie representation for Tributary plans (default
    /// [`TrieLayout::Columnar`]). Output is byte-identical across
    /// layouts; `Row` is the reference-configuration layout (see
    /// [`PlanOptions::sequential_prepare`]).
    pub trie_layout: TrieLayout,
}

impl PlanOptions {
    /// The per-worker probe thread count this plan will use on `workers`
    /// simulated workers, at most [`probe::MAX_PROBE_THREADS`].
    pub fn effective_probe_threads(&self, workers: usize) -> usize {
        if self.sequential_probe {
            1
        } else {
            self.probe_threads
                .unwrap_or_else(|| probe::probe_threads_for_host(workers))
                .clamp(1, probe::MAX_PROBE_THREADS)
        }
    }
}

/// Everything measured about one plan execution — the quantities behind
/// the paper's bar charts and tables.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration name, e.g. `"HC_TJ"`.
    pub config: String,
    /// Simulated wall-clock: Σ over phases of the slowest worker.
    pub wall: Duration,
    /// Total CPU time across all workers and phases.
    pub total_cpu: Duration,
    /// Total tuples placed on the network.
    pub tuples_shuffled: u64,
    /// Per-shuffle metrics (Tables 2–4). Each shuffle's `bytes_sent` is
    /// its encoded payload: zero under the Local transport (nothing is
    /// encoded), and summed over a streaming run it equals
    /// `runtime.tx.bytes`.
    pub shuffles: Vec<ShuffleStats>,
    /// Number of result tuples (bag semantics over the head projection;
    /// [`metric_names::OUTPUT_TUPLES`]).
    pub output_tuples: u64,
    /// The collected output, when requested.
    pub output: Option<Relation>,
    /// Per-worker total busy time (Figure 8's utilization profile).
    pub per_worker_busy: Vec<Duration>,
    /// Per-worker time spent sorting (TJ preparation; Figure 10c).
    pub per_worker_sort: Vec<Duration>,
    /// Per-worker time spent joining (Figure 10c).
    pub per_worker_join: Vec<Duration>,
    /// The hypercube configuration used, for HC plans.
    pub hc_config: Option<HcConfig>,
    /// Largest number of live tuples observed on one worker
    /// ([`metric_names::PEAK_WORKER_TUPLES`]).
    pub peak_worker_tuples: u64,
    /// Communication rounds executed (shuffle barriers).
    pub rounds: u32,
    /// Per-worker time charged for shuffle send/receive (part of
    /// `per_worker_busy`).
    pub per_worker_net: Vec<Duration>,
    /// Warnings and the R420 parallel-correctness certificate the
    /// pre-flight analyzer attached to this plan (plans with analyzer
    /// *errors* never run; see [`EngineError::InvalidPlan`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Sort-cache hits ([`metric_names::SORT_CACHE_HITS`]).
    pub sort_cache_hits: u64,
    /// Sort-cache misses ([`metric_names::SORT_CACHE_MISSES`]).
    pub sort_cache_misses: u64,
    /// Sort-cache bytes resident at run end ([`metric_names::SORT_CACHE_RESIDENT_BYTES`]).
    pub sort_cache_resident_bytes: u64,
    /// Probe morsels ([`metric_names::PROBE_MORSELS`]).
    pub probe_morsels: u64,
    /// Probe morsels stolen ([`metric_names::PROBE_STEALS`]).
    pub probe_steals: u64,
    /// Trie-cache hits ([`metric_names::TRIE_CACHE_HITS`]).
    pub trie_cache_hits: u64,
    /// Trie-cache misses ([`metric_names::TRIE_CACHE_MISSES`]).
    pub trie_cache_misses: u64,
    /// Trie-cache bytes resident at run end ([`metric_names::TRIE_CACHE_RESIDENT_BYTES`]).
    pub trie_cache_resident_bytes: u64,
    /// Name-sorted snapshot of the run's metrics registry, taken once
    /// when the run finishes: the `engine.*` tallies of [`metric_names`]
    /// (each present once counted) and, under a streaming transport,
    /// the runtime's `runtime.*` counters. The registry is the only
    /// store of these numbers; the counter fields above are read from
    /// this snapshot.
    pub metrics: Vec<(String, u64)>,
}

/// Canonical names of the `engine.*` registry metrics every run counts
/// into its registry and snapshots into [`RunResult::metrics`]
/// (alongside the runtime's [`parjoin_runtime::metrics::names`]).
pub mod metric_names {
    /// Result tuples (bag semantics over the head projection).
    pub const OUTPUT_TUPLES: &str = "engine.output.tuples";
    /// Row-layout Tributary prepare lookups served from the
    /// process-wide [`SortCache`](crate::SortCache) (never counted on
    /// the default columnar layout, which consults only the
    /// [`TrieCache`](crate::TrieCache)).
    pub const SORT_CACHE_HITS: &str = "engine.sortcache.hits";
    /// Row-layout Tributary prepare lookups that sorted fresh.
    pub const SORT_CACHE_MISSES: &str = "engine.sortcache.misses";
    /// Process-wide sort-cache evictions during this run (the
    /// cumulative counter's delta between run start and finish).
    /// Non-zero under sustained traffic means the working set of sorted
    /// views exceeds the cache budget.
    pub const SORT_CACHE_EVICTIONS: &str = "engine.sortcache.evictions";
    /// Bytes resident in the process-wide sort cache at run end (a
    /// gauge: concurrent runs share the cache, so the absolute level is
    /// the meaningful number).
    pub const SORT_CACHE_RESIDENT_BYTES: &str = "engine.sortcache.resident_bytes";
    /// Probe morsels executed across workers and join steps, semijoin
    /// reductions included. Every probe operation counts at least 1
    /// (its sequential pass); more means morsel parallelism split work.
    pub const PROBE_MORSELS: &str = "engine.probe.morsels";
    /// Probe morsels a thread claimed from another thread's deque under
    /// the work-stealing scheduler (see [`crate::probe`]); zero when the
    /// sequential path ran or no imbalance arose.
    pub const PROBE_STEALS: &str = "engine.probe.steals";
    /// Prefix of the Tributary probe's per-level step tallies:
    /// `engine.probe.steps.l{d}` counts the loop iterations of the
    /// intersection that ran at trie depth `d`, summed over morsels and
    /// workers.
    pub const PROBE_STEPS_PREFIX: &str = "engine.probe.steps.l";
    /// Prefix of the per-level seek tallies: `engine.probe.seeks.l{d}`
    /// counts the seeks (gallops) issued at trie depth `d`.
    pub const PROBE_SEEKS_PREFIX: &str = "engine.probe.seeks.l";
    /// Per-worker probe threads the plan ran with (1 = sequential
    /// probe).
    pub const PROBE_THREADS: &str = "engine.probe.threads";
    /// Columnar trie prepare lookups served from the process-wide
    /// [`TrieCache`](crate::TrieCache) (never counted on the
    /// [`TrieLayout::Row`](super::TrieLayout) path, which has no trie).
    pub const TRIE_CACHE_HITS: &str = "engine.triecache.hits";
    /// Columnar trie prepare lookups that built the trie fresh.
    pub const TRIE_CACHE_MISSES: &str = "engine.triecache.misses";
    /// Prefix of the prepare's per-level trie sizes:
    /// `engine.trie.keys.l{d}` counts the level-`d` nodes of every trie
    /// this run built on a [`TrieCache`](crate::TrieCache) miss, summed
    /// over atoms and workers (hits add nothing).
    pub const TRIE_KEYS_PREFIX: &str = "engine.trie.keys.l";
    /// Process-wide trie-cache evictions during this run.
    pub const TRIE_CACHE_EVICTIONS: &str = "engine.triecache.evictions";
    /// Bytes resident in the process-wide trie cache at run end (a
    /// gauge).
    pub const TRIE_CACHE_RESIDENT_BYTES: &str = "engine.triecache.resident_bytes";
    /// Largest number of live tuples observed on one worker (a
    /// high-water mark).
    pub const PEAK_WORKER_TUPLES: &str = "engine.peak_worker_tuples";
    /// Relation statistics this run's planner found in the process-wide
    /// [`StatsCache`](crate::StatsCache).
    pub const STATS_CACHE_HITS: &str = "engine.statscache.hits";
    /// Relations this run's planner had to analyse.
    pub const STATS_CACHE_MISSES: &str = "engine.statscache.misses";
    /// Tuples a semijoin plan's reductions shuffled as deduplicated key
    /// projections (the paper's "2.29 million tuples from the projected
    /// tables").
    pub const SEMIJOIN_KEY_TUPLES: &str = "engine.semijoin.key_tuples";
    /// Tuples a semijoin plan's reductions shuffled as the relations
    /// being reduced.
    pub const SEMIJOIN_INPUT_TUPLES: &str = "engine.semijoin.input_tuples";
    /// Rank-steps of a regular plan whose hash join probed its left input
    /// batch by batch as the exchange delivered it (`engine::pipeline`,
    /// DESIGN §19); a rank whose left input ended no larger than its
    /// build side joins once its streams end, and is not counted.
    pub const PIPELINE_RECEIVED_JOINS: &str = "engine.pipeline.received_joins";
}

/// Per-run observability state: one [`Registry`] and one [`TraceSink`],
/// created by [`run_config`] and threaded through the plan. Deliberately
/// per-run rather than process-global — parallel tests (and parallel
/// plans) would otherwise race their tallies. Every scalar tally of the
/// run is added to `registry` where it is counted, worker closures
/// included; [`execute`] reads them back once through `finalize`.
pub(crate) struct RunObs {
    pub(crate) registry: Registry,
    pub(crate) trace: Arc<TraceSink>,
    /// Process-wide [`SortCache`] eviction count when the run started;
    /// `finalize` reports the delta as this run's eviction pressure.
    evictions_at_start: u64,
    /// Same snapshot for the process-wide [`TrieCache`].
    trie_evictions_at_start: u64,
}

impl RunObs {
    pub(crate) fn new(trace_enabled: bool) -> RunObs {
        RunObs {
            registry: Registry::new(),
            trace: if trace_enabled {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            evictions_at_start: SortCache::global().stats().evictions,
            trie_evictions_at_start: TrieCache::global().stats().evictions,
        }
    }

    /// The bundle the worker runtime reports into.
    pub(crate) fn runtime_obs(&self) -> RuntimeObs {
        RuntimeObs::on_registry(&self.registry, Arc::clone(&self.trace))
    }

    /// Counts one probe operation's morsels and steals.
    pub(crate) fn count_probe(&self, morsels: u64, steals: u64) {
        self.registry.add(metric_names::PROBE_MORSELS, morsels);
        self.registry.add(metric_names::PROBE_STEALS, steals);
    }

    /// Adds the per-level work a Tributary probe summed over its morsels
    /// as `engine.probe.{steps,seeks}.l{d}`.
    pub(crate) fn count_levels(&self, levels: &ProbeCounts) {
        for (prefix, tallies) in [
            (metric_names::PROBE_STEPS_PREFIX, &levels.steps),
            (metric_names::PROBE_SEEKS_PREFIX, &levels.seeks),
        ] {
            for (d, &n) in tallies.iter().enumerate() {
                self.registry.add(&format!("{prefix}{d}"), n);
            }
        }
    }

    /// Adds the nodes per level of a trie the TrieCache missed on as
    /// `engine.trie.keys.l{d}`.
    fn count_trie_keys(&self, trie: &ColumnarTrie) {
        for (d, n) in trie.level_sizes().into_iter().enumerate() {
            self.registry
                .add(&format!("{}{d}", metric_names::TRIE_KEYS_PREFIX), n as u64);
        }
    }

    /// Counts one cache lookup under `hit` or `miss`.
    fn count_lookup(&self, lookup: Lookup, hit: &str, miss: &str) {
        let name = match lookup {
            Lookup::Hit => hit,
            Lookup::Miss => miss,
        };
        self.registry.add(name, 1);
    }

    /// Samples the process-wide caches' eviction deltas and resident
    /// bytes into the registry, snapshots it into `result.metrics`, and
    /// fills `result`'s counter fields from that one snapshot — their
    /// only writer. Called once, at the end of [`execute`].
    fn finalize(&self, result: &mut RunResult) {
        let reg = &self.registry;
        let sort = SortCache::global().stats();
        let trie = TrieCache::global().stats();
        let sort_evictions = sort.evictions.saturating_sub(self.evictions_at_start);
        let trie_evictions = trie.evictions.saturating_sub(self.trie_evictions_at_start);
        reg.add(metric_names::SORT_CACHE_EVICTIONS, sort_evictions);
        reg.add(metric_names::SORT_CACHE_RESIDENT_BYTES, sort.resident_bytes);
        reg.add(metric_names::TRIE_CACHE_EVICTIONS, trie_evictions);
        reg.add(metric_names::TRIE_CACHE_RESIDENT_BYTES, trie.resident_bytes);
        result.metrics = reg.snapshot();
        let read = |name| result.metric(name).unwrap_or(0);
        [
            result.output_tuples,
            result.peak_worker_tuples,
            result.probe_morsels,
            result.probe_steals,
            result.sort_cache_hits,
            result.sort_cache_misses,
            result.sort_cache_resident_bytes,
            result.trie_cache_hits,
            result.trie_cache_misses,
            result.trie_cache_resident_bytes,
        ] = [
            read(metric_names::OUTPUT_TUPLES),
            read(metric_names::PEAK_WORKER_TUPLES),
            read(metric_names::PROBE_MORSELS),
            read(metric_names::PROBE_STEALS),
            read(metric_names::SORT_CACHE_HITS),
            read(metric_names::SORT_CACHE_MISSES),
            read(metric_names::SORT_CACHE_RESIDENT_BYTES),
            read(metric_names::TRIE_CACHE_HITS),
            read(metric_names::TRIE_CACHE_MISSES),
            read(metric_names::TRIE_CACHE_RESIDENT_BYTES),
        ];
    }

    /// Writes the chrome trace to `path` (no-op when `None`).
    pub(crate) fn write_trace(&self, path: Option<&Path>) -> Result<(), EngineError> {
        let Some(path) = path else { return Ok(()) };
        std::fs::write(path, self.trace.chrome_trace_json())
            .map_err(|e| EngineError::Trace(format!("writing {}: {e}", path.display())))
    }
}

/// Prep-vs-probe decomposition of a run's local-join CPU — the shape of
/// the paper's Table 5 ("BR_TJ: all sorts … 73%" of local-join time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepProbe {
    /// CPU spent preparing inputs (sorting; Table 5's "all sorts").
    pub prep: Duration,
    /// CPU spent in the join proper (probing/leapfrogging).
    pub probe: Duration,
}

impl PrepProbe {
    /// `prep / (prep + probe)`, or 0 when no local-join work ran.
    pub fn prep_fraction(&self) -> f64 {
        let total = (self.prep + self.probe).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.prep.as_secs_f64() / total
        }
    }
}

impl RunResult {
    fn new(config: String, workers: usize) -> Self {
        RunResult {
            config,
            wall: Duration::ZERO,
            total_cpu: Duration::ZERO,
            tuples_shuffled: 0,
            shuffles: Vec::new(),
            output_tuples: 0,
            output: None,
            per_worker_busy: vec![Duration::ZERO; workers],
            per_worker_sort: vec![Duration::ZERO; workers],
            per_worker_join: vec![Duration::ZERO; workers],
            hc_config: None,
            peak_worker_tuples: 0,
            rounds: 0,
            per_worker_net: vec![Duration::ZERO; workers],
            diagnostics: Vec::new(),
            sort_cache_hits: 0,
            sort_cache_misses: 0,
            sort_cache_resident_bytes: 0,
            probe_morsels: 0,
            probe_steals: 0,
            trie_cache_hits: 0,
            trie_cache_misses: 0,
            trie_cache_resident_bytes: 0,
            metrics: Vec::new(),
        }
    }

    /// Looks up one metric from [`RunResult::metrics`] by canonical name
    /// (a [`metric_names`] constant or a `runtime.*` name from
    /// [`parjoin_runtime::metrics::names`]). `None` if the run never
    /// registered it (e.g. `runtime.*` counters under the Local
    /// transport, which constructs no runtime).
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A human-readable run report: totals, the per-phase CPU breakdown,
    /// the per-worker load table, the max-vs-mean load skew (the
    /// quantity Algorithm 1 minimizes), and every registry counter.
    pub fn report(&self) -> String {
        let mut s = String::new();
        // Writing into a String cannot fail; discard the fmt plumbing.
        let _ = writeln!(s, "== {} ==", self.config);
        let _ = writeln!(
            s,
            "wall {:?}   cpu {:?}   rounds {}   output {} tuples",
            self.wall, self.total_cpu, self.rounds, self.output_tuples
        );
        let _ = writeln!(
            s,
            "shuffled {} tuples over {} shuffle(s)",
            self.tuples_shuffled,
            self.shuffles.len()
        );
        if !self.diagnostics.is_empty() {
            let _ = writeln!(s, "\ndiagnostics:");
            for d in &self.diagnostics {
                let _ = writeln!(s, "  {d}");
            }
        }

        let share = |d: Duration| -> f64 {
            let total = self.total_cpu.as_secs_f64();
            if total == 0.0 {
                0.0
            } else {
                100.0 * d.as_secs_f64() / total
            }
        };
        let _ = writeln!(s, "\n{:<12} {:>14} {:>7}", "phase", "cpu", "share");
        for (name, cpu) in [
            ("network", self.net_cpu()),
            ("sort(prep)", self.sort_cpu()),
            ("join(probe)", self.join_cpu()),
        ] {
            let _ = writeln!(
                s,
                "{name:<12} {:>14} {:>6.1}%",
                format!("{cpu:?}"),
                share(cpu)
            );
        }

        let _ = writeln!(
            s,
            "\n{:<7} {:>14} {:>14} {:>14} {:>14}",
            "worker", "busy", "net", "sort", "join"
        );
        for w in 0..self.per_worker_busy.len() {
            let _ = writeln!(
                s,
                "{w:<7} {:>14} {:>14} {:>14} {:>14}",
                format!("{:?}", self.per_worker_busy[w]),
                format!("{:?}", self.per_worker_net[w]),
                format!("{:?}", self.per_worker_sort[w]),
                format!("{:?}", self.per_worker_join[w]),
            );
        }
        let workers = self.per_worker_busy.len().max(1);
        let max = self
            .per_worker_busy
            .iter()
            .copied()
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        let mean = self.total_cpu.as_secs_f64() / workers as f64;
        if mean > 0.0 {
            // The load-balance quantity of the paper's Algorithm 1: how
            // much the straggler exceeds the average worker.
            let _ = writeln!(s, "load skew (max/mean busy): {:.2}", max / mean);
        }

        if !self.metrics.is_empty() {
            let width = self.metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            let _ = writeln!(s, "\ncounters:");
            for (name, value) in &self.metrics {
                let _ = writeln!(s, "  {name:<width$}  {value}");
            }
        }
        s
    }

    /// Total network-handling CPU across workers.
    pub fn net_cpu(&self) -> Duration {
        self.per_worker_net.iter().sum()
    }

    /// Books one communication round, the only place a round is
    /// counted: its shuffles execute as one parallel phase, so every
    /// worker is charged `shuffle_tuple_cost` per tuple it sent or
    /// received across all of them and the slowest worker extends the
    /// simulated wall-clock; each shuffle is tallied and recorded; the
    /// barrier costs one `round_latency`.
    pub(crate) fn absorb_round(
        &mut self,
        stats: impl IntoIterator<Item = ShuffleStats>,
        cluster: &Cluster,
    ) {
        let mut per_worker = vec![0u64; self.per_worker_busy.len()];
        for s in stats {
            for (w, &c) in s.per_producer.iter().enumerate() {
                per_worker[w] += c;
            }
            for (w, &c) in s.per_consumer.iter().enumerate() {
                per_worker[w] += c;
            }
            self.tuples_shuffled += s.tuples_sent;
            self.shuffles.push(s);
        }
        let mut slowest = Duration::ZERO;
        for (w, &tuples) in per_worker.iter().enumerate() {
            let cost = scale_duration(cluster.shuffle_tuple_cost, tuples);
            self.per_worker_busy[w] += cost;
            self.per_worker_net[w] += cost;
            self.total_cpu += cost;
            slowest = slowest.max(cost);
        }
        self.rounds += 1;
        self.wall += slowest + cluster.round_latency;
    }

    /// Total sorting CPU (Table 5's "all sorts" row).
    pub fn sort_cpu(&self) -> Duration {
        self.per_worker_sort.iter().sum()
    }

    /// Total joining CPU.
    pub fn join_cpu(&self) -> Duration {
        self.per_worker_join.iter().sum()
    }

    /// The prep-vs-probe breakdown of local-join CPU (Table 5's shape):
    /// prep is the sort CPU, probe the remaining join CPU. Network
    /// handling time is excluded from both.
    pub fn prep_probe(&self) -> PrepProbe {
        PrepProbe {
            prep: self.sort_cpu(),
            probe: self.join_cpu(),
        }
    }

    /// Books one local phase: the slowest worker extends the simulated
    /// wall-clock and each worker's busy time is charged as sort (`sort`'s
    /// share) or join CPU.
    pub(crate) fn absorb_phase(&mut self, busy: &[Duration], sort: Option<&[Duration]>) {
        let wall = busy.iter().copied().max().unwrap_or_default();
        self.wall += wall;
        for (w, &d) in busy.iter().enumerate() {
            self.per_worker_busy[w] += d;
            self.total_cpu += d;
            match sort {
                Some(s) => {
                    self.per_worker_sort[w] += s[w];
                    self.per_worker_join[w] += d.saturating_sub(s[w]);
                }
                None => self.per_worker_join[w] += d,
            }
        }
    }
}

/// `d * times` in u64-tuple-count precision. `Duration`'s `Mul<u32>`
/// would silently saturate the count at `u32::MAX` (≈4.3 billion tuples
/// — reachable for replicated shuffles of large inputs); this widens to
/// 128-bit nanosecond math and only clamps at `Duration::MAX`, which
/// represents over 10²² tuple-sends at any realistic per-tuple cost.
fn scale_duration(d: Duration, times: u64) -> Duration {
    let nanos = d.as_nanos().saturating_mul(u128::from(times));
    let secs = nanos / 1_000_000_000;
    let Ok(secs) = u64::try_from(secs) else {
        return Duration::MAX;
    };
    Duration::new(secs, (nanos % 1_000_000_000) as u32)
}

/// A fanout-aware greedy left-deep order: start from the smallest
/// relation, then repeatedly pick the connected atom with the smallest
/// *expected fanout* — its cardinality divided by the number of distinct
/// values of the shared join key. Pure cardinality ordering fails on
/// queries like Q3, where a selective `ObjectName` atom must be joined in
/// as soon as its variable binds; fanout ordering pulls low-multiplicity
/// extensions (and selections) forward, like the paper's Figure 5 plan.
///
/// The counts come from the process-wide [`StatsCache`](crate::StatsCache):
/// a relation is analysed the first time its content is seen.
pub fn greedy_join_order(atoms: &[(Vec<VarId>, &Relation)]) -> Vec<usize> {
    let stats = statscache::query_stats(atoms.iter().map(|(_, rel)| *rel)).stats;
    let atom_vars: Vec<Vec<VarId>> = atoms.iter().map(|(vars, _)| vars.clone()).collect();
    greedy_order(&atom_vars, &stats)
}

/// [`greedy_join_order`] as arithmetic over statistics already at hand.
pub(crate) fn greedy_order(atom_vars: &[Vec<VarId>], stats: &[Arc<RelStats>]) -> Vec<usize> {
    let n = atom_vars.len();
    let distinct = |i: usize, c: usize| stats[i].columns()[c].distinct.max(1) as f64;
    let card = |i: usize| stats[i].cardinality() as f64;

    let mut remaining: Vec<usize> = (0..n).collect();
    // total_cmp needs no finiteness assumption (scores can be +inf for
    // disconnected atoms), and resolved queries have at least one atom.
    let first = *remaining
        .iter()
        .min_by(|&&a, &&b| card(a).total_cmp(&card(b)))
        .expect("at least one atom"); // xtask: allow(expect)
    let mut order = vec![first];
    remaining.retain(|&i| i != first);
    let mut bound: Vec<VarId> = atom_vars[first].clone();
    while !remaining.is_empty() {
        let score = |i: usize| -> f64 {
            let vars = &atom_vars[i];
            let shared_distinct: f64 = vars
                .iter()
                .enumerate()
                .filter(|(_, v)| bound.contains(v))
                .map(|(c, _)| distinct(i, c))
                .product();
            if shared_distinct <= 1.0 && !vars.iter().any(|v| bound.contains(v)) {
                // Disconnected: cartesian product, worst possible.
                f64::INFINITY
            } else {
                card(i) / shared_distinct
            }
        };
        let connected_exists = remaining
            .iter()
            .any(|&i| atom_vars[i].iter().any(|v| bound.contains(v)));
        let next = *remaining
            .iter()
            .min_by(|&&a, &&b| {
                let (sa, sb) = (score(a), score(b));
                sa.total_cmp(&sb).then(card(a).total_cmp(&card(b)))
            })
            .expect("non-empty"); // xtask: allow(expect)
                                  // If everything is disconnected, fall back to the smallest atom.
        let next = if connected_exists {
            next
        } else {
            *remaining
                .iter()
                .min_by(|&&a, &&b| card(a).total_cmp(&card(b)))
                .expect("non-empty") // xtask: allow(expect)
        };
        order.push(next);
        remaining.retain(|&i| i != next);
        for &v in &atom_vars[next] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    order
}

/// A left-deep order rooted at `root`, growing by connectivity (used by
/// broadcast plans to start from the partitioned fragment).
fn rooted_order(atom_vars: &[Vec<VarId>], root: usize) -> Vec<usize> {
    let n = atom_vars.len();
    let mut order = vec![root];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != root).collect();
    let mut bound: Vec<VarId> = atom_vars[root].clone();
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .copied()
            .find(|&i| atom_vars[i].iter().any(|v| bound.contains(v)))
            .unwrap_or(remaining[0]);
        order.push(next);
        remaining.retain(|&i| i != next);
        for &v in &atom_vars[next] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    order
}

pub(crate) fn check_budget(
    cluster: &Cluster,
    worker: usize,
    needed: u64,
) -> Result<(), EngineError> {
    if let Some(budget) = cluster.memory_budget {
        if needed > budget {
            return Err(EngineError::MemoryBudget {
                worker,
                needed,
                budget,
            });
        }
    }
    Ok(())
}

/// Filters whose variables are fully bound by `schema`, removed from
/// `pending`.
fn take_ready_filters(pending: &mut Vec<Filter>, schema: &[VarId]) -> Vec<Filter> {
    let (ready, keep): (Vec<Filter>, Vec<Filter>) = pending
        .iter()
        .copied()
        .partition(|f| f.vars().iter().all(|v| schema.contains(v)));
    *pending = keep;
    ready
}

/// Refuses an atom order that is not a permutation of `0..atoms`. The
/// analyzer vets orders planned in this process; an order decoded from
/// a shipped fragment is only as good as its sender.
pub(crate) fn check_order(what: &str, order: &[usize], atoms: usize) -> Result<(), EngineError> {
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    if sorted.into_iter().eq(0..atoms) {
        return Ok(());
    }
    Err(EngineError::Unsupported(format!(
        "{what} {order:?} must cover every atom of a {atoms}-atom query exactly once"
    )))
}

/// Runs `query` on `db` under the given shuffle×join configuration.
///
/// ```
/// use parjoin_common::{Database, Relation};
/// use parjoin_engine::{run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg};
/// use parjoin_query::parser;
///
/// let q = parser::parse("P(x, y, z) :- E(x, y), E(y, z)").unwrap();
/// let mut db = Database::new();
/// db.insert("E", Relation::from_rows(2, [[1u64, 2], [2, 3], [3, 4]].iter()));
/// let r = run_config(
///     &q, &db, &Cluster::new(4),
///     ShuffleAlg::HyperCube, JoinAlg::Tributary,
///     &PlanOptions::default(),
/// ).unwrap();
/// assert_eq!(r.output_tuples, 2); // 1→2→3 and 2→3→4
/// ```
///
/// # Errors
/// Returns [`EngineError::InvalidPlan`] when the pre-flight analyzer
/// rejects the plan (malformed join order, unexecutable HyperCube
/// configuration, filters that would be dropped, …),
/// [`EngineError::MemoryBudget`] when a worker exceeds the cluster's
/// budget, [`EngineError::Resolve`] for catalog mismatches, or
/// [`EngineError::Unsupported`] for a semijoin plan of a cyclic query
/// (no full reduction exists, §3.6). Analyzer
/// *warnings* do not fail the run; they are carried on
/// [`RunResult::diagnostics`].
pub fn run_config(
    query: &ConjunctiveQuery,
    db: &parjoin_common::Database,
    cluster: &Cluster,
    shuffle_alg: ShuffleAlg,
    join_alg: JoinAlg,
    opts: &PlanOptions,
) -> Result<RunResult, EngineError> {
    let obs = RunObs::new(opts.trace_path.is_some());
    let (plan, atoms) = plan(query, db, cluster, shuffle_alg, join_alg, opts)?;
    // Seed each atom round-robin, as the initial data placement.
    let seeded = (atoms.iter())
        .map(|a| Hosted::seed(&a.rel, a.vars.clone(), cluster.workers))
        .collect();
    let (hits, misses) = plan.stats_lookups;
    obs.registry.add(metric_names::STATS_CACHE_HITS, hits);
    obs.registry.add(metric_names::STATS_CACHE_MISSES, misses);
    // Every shuffle of the plan streams through one worker runtime: live
    // under a streaming transport, none under Local (the degenerate
    // case).
    let rt = if cluster.transport.is_streaming() {
        Some(Runtime::new(RuntimeConfig {
            workers: cluster.workers,
            transport: cluster.transport,
            batch_tuples: cluster.batch_tuples,
            wire_format: cluster.wire_format,
            obs: obs.runtime_obs(),
            ..RuntimeConfig::default()
        })?)
    } else {
        None
    };
    let ex = Exec {
        query,
        cluster,
        opts,
        seam: &Seam::from(rt.as_ref()),
        obs: &obs,
    };
    let result = execute(&ex, plan, seeded)?;
    if let Some(rt) = rt {
        rt.shutdown()?;
    }
    obs.write_trace(opts.trace_path.as_deref())?;
    Ok(result)
}

/// Every global decision of one shuffle×join plan, made once by
/// [`plan`]: `run_config` executes it over all `p` seed partitions,
/// `plan_fragments` slices it per rank, and a mesh rank rebuilds it from
/// the fragment it was shipped. [`execute`] makes no decision of its
/// own, so every rank of every deployment runs the same step sequence.
pub(crate) struct Plan {
    pub(crate) shuffle: ShuffleAlg,
    pub(crate) join: JoinAlg,
    /// Effective left-deep join order (atom indices): explicit or the
    /// greedy choice.
    pub(crate) join_order: Vec<usize>,
    /// Order of a one-round plan's local hash tree: `join_order`, except
    /// under broadcast, where it is rooted at the atom that stays
    /// partitioned (the largest).
    pub(crate) local_order: Vec<usize>,
    /// Tributary global variable order (one-round Tributary plans).
    pub(crate) tj_order: Option<Vec<VarId>>,
    /// HyperCube share assignment (HyperCube plans).
    pub(crate) hc_config: Option<HcConfig>,
    /// Per-worker probe threads.
    pub(crate) probe_threads: usize,
    /// Analyzer warnings and the R420 certificate.
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// `(hits, misses)` of the planner's [`StatsCache`](crate::StatsCache)
    /// lookups; zero for a plan rebuilt from a shipped fragment.
    pub(crate) stats_lookups: (u64, u64),
}

/// One resolved atom as [`plan`] saw it, unseeded: `run_config` seeds
/// all `p` partitions of it, and a mesh fragment names rank `r`'s by
/// the relation's content fingerprint.
pub(crate) struct PlannedAtom {
    /// One variable per column of `rel`.
    pub(crate) vars: Vec<VarId>,
    /// The relation after selection pushdown: the catalog's own, shared,
    /// where no selection applied.
    pub(crate) rel: Arc<Relation>,
    /// `rel`'s content fingerprint, where the statistics lookups
    /// computed it; a plan whose orders are both explicit never hashes.
    pub(crate) fp: Option<u128>,
}

/// Plans `query` under the given configuration: resolves the atoms,
/// picks the effective join order, runs the pre-flight analyzer (whose
/// policy pass certifies the plan parallel-correct) on it, and derives
/// the HyperCube shares, the Tributary variable order (priced for the
/// partition one rank probes under those shares) and the broadcast
/// root. A semijoin plan is planned as the regular-shuffle plan it
/// ends in; its reduction rounds are a pure function of the query, left
/// to [`execute`]. Returns the plan and its resolved atoms, which it
/// does not seed: where their partitions come from is the caller's.
///
/// # Errors
/// [`EngineError::Resolve`] for catalog mismatches,
/// [`EngineError::InvalidPlan`] when the analyzer refuses the plan (a
/// policy counterexample included), [`EngineError::Unsupported`] when a
/// one-round Tributary plan needs the order optimiser over an atom wider
/// than [`MAX_SUBSET_ARITY`], or a semijoin plan is asked of a cyclic
/// query.
pub(crate) fn plan(
    query: &ConjunctiveQuery,
    db: &parjoin_common::Database,
    cluster: &Cluster,
    shuffle_alg: ShuffleAlg,
    join_alg: JoinAlg,
    opts: &PlanOptions,
) -> Result<(Plan, Vec<PlannedAtom>), EngineError> {
    if shuffle_alg == ShuffleAlg::Semijoin {
        semijoin::reduction_tree(query)?;
    }
    let (resolved, _residual) = resolve_atoms(query, db)?;
    let atom_vars: Vec<Vec<VarId>> = resolved.iter().map(|a| a.vars.clone()).collect();
    let cards: Vec<u64> = resolved.iter().map(|a| a.len() as u64).collect();
    // An atom no selection touched shares the catalog's relation (and a
    // self-join's atoms share one), so nothing here copies it.
    let rels: Vec<Arc<Relation>> = (resolved.into_iter())
        .map(|a| match a.rel {
            Cow::Borrowed(base) => {
                (db.get_shared(&a.base)).unwrap_or_else(|| Arc::new(base.clone()))
            }
            Cow::Owned(rel) => Arc::new(rel),
        })
        .collect();
    // Both optimisers below are arithmetic over the relations' cached
    // statistics; a plan whose orders are both explicit never asks.
    let stats = std::cell::OnceCell::new();
    let rel_stats = || -> &QueryStats {
        stats.get_or_init(|| statscache::query_stats(rels.iter().map(Arc::as_ref)))
    };
    let join_order = opts
        .join_order
        .clone()
        .unwrap_or_else(|| greedy_order(&atom_vars, &rel_stats().stats));

    // Pre-flight static analysis: refuse to run plans the analyzer
    // proves broken (instead of panicking mid-flight), a policy
    // counterexample included; carry warnings and the R420
    // parallel-correctness certificate through on the result. The
    // *effective* join order — explicit or greedy — is what gets vetted.
    let spec = analyze::PlanSpec {
        query,
        cards: cards.clone(),
        workers: cluster.workers,
        memory_budget: cluster.memory_budget,
        shuffle: shuffle_alg.into(),
        join: join_alg.into(),
        join_order: Some(join_order.clone()),
        hc_config: opts.hc_config.clone(),
        tj_order: opts.tj_order.clone(),
        batch_tuples: cluster
            .transport
            .is_streaming()
            .then_some(cluster.batch_tuples as u64),
        wire_format: cluster.wire_format,
        max_frame_bytes: cluster
            .transport
            .is_streaming()
            .then_some(u64::from(parjoin_runtime::transport::MAX_FRAME_BYTES)),
        host_cores: parjoin_common::threads::host_parallelism(),
        seed: cluster.seed,
    };
    let mut diagnostics = analyze::preflight(&spec).map_err(EngineError::InvalidPlan)?;
    diagnostics.extend(parallelism_warning());
    if opts.skew_resilient && !shuffle_alg.is_one_round() {
        // The certificate covers the plain hash route. The PRPD
        // fallback the skew_resilient knob adds for heavy keys (spread
        // one side, replicate the other) preserves co-location by
        // construction, so the verdict stands; the note keeps the
        // certificate honest about what it models.
        for d in &mut diagnostics {
            if d.code == analyze::DiagCode::PolicyCertified {
                d.context.push((
                    "note".to_string(),
                    "skew_resilient: heavy keys take the PRPD spread/replicate \
                     route, which co-locates every joining pair by construction; \
                     the hash-route proof covers light keys"
                        .to_string(),
                ));
            }
        }
    }
    analyze::sort_diagnostics(&mut diagnostics);

    let hc_config = (shuffle_alg == ShuffleAlg::HyperCube).then(|| {
        opts.hc_config.clone().unwrap_or_else(|| {
            let problem = ShareProblem {
                vars: query.all_vars(),
                atoms: atom_vars
                    .iter()
                    .zip(&cards)
                    .map(|(vs, &c)| parjoin_core::hypercube::AtomShape {
                        vars: vs.clone(),
                        cardinality: c,
                    })
                    .collect(),
            };
            problem.optimize(cluster.workers)
        })
    });

    // Tributary global variable order, cost-model optimized once on the
    // pre-shuffle relations' statistics. Under HyperCube every rank
    // probes a partition in which variable `v` keeps 1/`d_v` of its
    // values, so the model prices that rank's probe: each step divided
    // by its variable's share (DESIGN §21). A broadcast rank probes
    // whole relations beside one 1/p fragment, priced share-free.
    let tj_order = if join_alg == JoinAlg::Tributary && shuffle_alg.is_one_round() {
        Some(match &opts.tj_order {
            Some(order) => order.clone(),
            None => {
                let stats = &rel_stats().stats;
                if let Some(i) = stats.iter().position(|s| !s.has_subsets()) {
                    return Err(EngineError::Unsupported(format!(
                        "the atom over `{}` binds {} variables, but the Tributary order \
                         optimiser keeps distinct-prefix statistics for at most \
                         {MAX_SUBSET_ARITY}; pass PlanOptions::tj_order or pick a hash-join \
                         configuration",
                        query.atoms[i].relation,
                        stats[i].arity()
                    )));
                }
                let mut model = OrderCostModel::from_stats(
                    atom_vars
                        .iter()
                        .cloned()
                        .zip(stats.iter().cloned())
                        .collect(),
                );
                if let Some(config) = &hc_config {
                    model = model.per_rank(config);
                }
                best_order_seeded(&model, &query.all_vars(), cluster.seed).0
            }
        })
    } else {
        None
    };

    let local_order = if shuffle_alg == ShuffleAlg::Broadcast {
        // Root the local hash tree at the partitioned fragment so every
        // worker's intermediates stay ~1/p-sized (the broadcast plan's
        // whole point); full-copy atoms only extend it. This mirrors
        // Myria's fact-table-first broadcast plans. Queries have at
        // least one atom (the parser and analyzer both enforce it), so
        // the argmax exists; 0 is unreachable.
        let largest = (0..cards.len()).max_by_key(|&i| cards[i]).unwrap_or(0);
        rooted_order(&atom_vars, largest)
    } else {
        join_order.clone()
    };

    let fps = stats.get().map(|s| s.fingerprints.clone());
    let plan = Plan {
        shuffle: shuffle_alg,
        join: join_alg,
        join_order,
        local_order,
        tj_order,
        hc_config,
        probe_threads: opts.effective_probe_threads(cluster.workers),
        diagnostics,
        stats_lookups: stats.get().map_or((0, 0), |s| (s.hits, s.misses)),
    };
    let atoms = (atom_vars.into_iter().zip(rels).enumerate())
        .map(|(i, (vars, rel))| PlannedAtom {
            vars,
            rel,
            fp: fps.as_ref().map(|fps| fps[i]),
        })
        .collect();
    Ok((plan, atoms))
}

/// What [`execute`] runs a [`Plan`] against.
pub(crate) struct Exec<'a> {
    pub(crate) query: &'a ConjunctiveQuery,
    /// Always the *global* cluster shape: `workers` is the mesh width
    /// even when this process hosts one rank of it.
    pub(crate) cluster: &'a Cluster,
    pub(crate) opts: &'a PlanOptions,
    pub(crate) seam: &'a Seam<'a>,
    pub(crate) obs: &'a RunObs,
}

/// The one executor: runs `plan`'s step sequence over `seeded`, each
/// atom's hosted seed partitions (all `p` in-process, the rank's one on
/// a mesh), every shuffle going through `ex.seam`, then reads the run's
/// counters from one registry snapshot. `RunResult`'s per-worker vectors
/// are indexed by hosted partition.
///
/// # Errors
/// [`EngineError::Transport`] when an exchange fails,
/// [`EngineError::MemoryBudget`] (naming the global rank) when a join
/// step exceeds the per-worker budget, and [`EngineError::Unsupported`]
/// for a plan whose decisions do not fit the query — unreachable from
/// [`plan`], which the analyzer vets, but a plan rebuilt from a shipped
/// fragment is outside input.
pub(crate) fn execute(
    ex: &Exec<'_>,
    mut plan: Plan,
    seeded: Vec<Hosted>,
) -> Result<RunResult, EngineError> {
    let atoms = ex.query.atoms.len();
    let hosted = match seeded.first() {
        Some(d) if seeded.len() == atoms => d.parts.len(),
        _ => {
            return Err(EngineError::Unsupported(format!(
                "plan carries {} relations for a {atoms}-atom query",
                seeded.len()
            )))
        }
    };
    let mut result = RunResult::new(config_name(plan.shuffle, plan.join), hosted);
    result.diagnostics = std::mem::take(&mut plan.diagnostics);
    ex.obs
        .registry
        .add(metric_names::PROBE_THREADS, plan.probe_threads as u64);
    let pending = split_filters(ex.query).1;
    if plan.shuffle.is_one_round() {
        run_one_round(ex, plan, seeded, pending, &mut result)?;
    } else {
        run_regular(ex, plan, seeded, pending, &mut result)?;
    }

    if ex.opts.collect_output {
        if let Some(out) = result.output.take() {
            result.output = Some(if ex.opts.distinct_output {
                out.distinct()
            } else {
                out
            });
        }
    }
    ex.obs.finalize(&mut result);
    Ok(result)
}

/// One binary hash join on a worker, then the pending filters its output
/// schema completes: an RS_HJ step's whole local join, and each step of
/// a one-round plan's hash tree. Counts its morsels and steals.
fn hash_join_step(
    a: &SchemaRel,
    b: &SchemaRel,
    pending: &mut Vec<Filter>,
    seed: u64,
    threads: usize,
    obs: &RunObs,
) -> SchemaRel {
    let (joined, morsels, steals) = probe::hash_join_parallel(a, b, seed, threads);
    obs.count_probe(morsels, steals);
    let ready = take_ready_filters(pending, &joined.vars);
    if ready.is_empty() {
        joined
    } else {
        joined.filter(&ready)
    }
}

/// Left-deep tree of binary joins with a regular shuffle per step; a
/// semijoin plan first runs its reduction rounds over the seeded
/// relations. Each step's join is the next step's left input, run by
/// that step's exchange ([`pipeline`]); the last one is materialised
/// for the output.
fn run_regular(
    ex: &Exec<'_>,
    plan: Plan,
    seeded: Vec<Hosted>,
    mut pending: Vec<Filter>,
    result: &mut RunResult,
) -> Result<(), EngineError> {
    let (query, cluster, opts, seam) = (ex.query, ex.cluster, ex.opts, ex.seam);
    let Plan {
        shuffle,
        join: join_alg,
        join_order: order,
        probe_threads,
        ..
    } = plan;
    // Every step consumes its inputs.
    let seeded = seeded.into_iter().map(Hosted::into_dist).collect();
    let seeded = if shuffle == ShuffleAlg::Semijoin {
        semijoin::reduce(ex, seeded, probe_threads, result)?
    } else {
        seeded
    };
    let mut seeded: Vec<Option<DistRel>> = seeded.into_iter().map(Some).collect();
    if order.len() != seeded.len() {
        return Err(EngineError::Unsupported(
            "join order must cover every atom".to_string(),
        ));
    }
    let mut take_atom = |ai: usize| {
        seeded
            .get_mut(ai)
            .and_then(Option::take)
            .ok_or_else(|| EngineError::Unsupported(format!("join order reuses atom {ai}")))
    };
    let first = take_atom(order[0])?;
    let mut cur_label = query.atoms[order[0]].relation.clone();

    // Filters already covered by the first atom alone (e.g. a var-var
    // comparison within one atom) apply before any join.
    let ready0 = take_ready_filters(&mut pending, &first.vars);
    let first = if ready0.is_empty() {
        first
    } else {
        let keep = |p: Relation| p.filter(row_filter(&first.vars, &ready0));
        DistRel {
            parts: first.parts.into_iter().map(keep).collect(),
            vars: first.vars,
        }
    };
    let mut cur = Left::Rel(first);

    for (step, &ai) in order.iter().enumerate().skip(1) {
        let next = take_atom(ai)?;
        let next_label = &query.atoms[ai].relation;
        let shared: Vec<VarId> = cur
            .vars()
            .iter()
            .copied()
            .filter(|v| next.vars.contains(v))
            .collect();

        // The paper's regular shuffle "hash partitions a relation on a
        // single attribute" (§3) — pick the most recently bound shared
        // variable (z, not x, for Q1's second join, matching Table 2).
        // Partitioning on one shared variable still co-locates every
        // joining pair; the local join checks the full shared key. This
        // single-attribute hashing is exactly what exposes the plan to
        // power-law skew.
        let shuffle_key: Vec<VarId> = shared.last().copied().into_iter().collect();
        let key_desc = shuffle_key
            .iter()
            .map(|v| query.var_name(*v))
            .collect::<Vec<_>>()
            .join(",");
        let (cur_h, next_h) = (
            format!("{cur_label} ->h({key_desc})"),
            format!("{next_label} ->h({key_desc})"),
        );

        // This step's per-worker binary join; both sides' partitions go
        // to their worker by move.
        let out_schema = {
            let a = SchemaRel {
                vars: cur.vars().to_vec(),
                rel: Relation::new(cur.vars().len()),
            };
            let b = SchemaRel {
                vars: next.vars.clone(),
                rel: Relation::new(next.vars.len()),
            };
            hash_join(&a, &b, 0).vars
        };
        let ready = take_ready_filters(&mut pending, &out_schema);
        let rank_join = |a_vars: &[VarId], a, b_vars: &[VarId], b| RankJoin {
            a: SchemaRel {
                vars: a_vars.to_vec(),
                rel: a,
            },
            b: SchemaRel {
                vars: b_vars.to_vec(),
                rel: b,
            },
            ready: ready.clone(),
            alg: join_alg,
            seed: cluster.seed,
            threads: probe_threads,
        };
        let skew = opts.skew_resilient && !shuffle_key.is_empty();
        let on_key = |vars: &[VarId]| {
            shuffle::regular_route(vars, &shuffle_key, cluster.seed, cluster.workers)
        };
        if let Seam::Stream(rt) = seam {
            if step + 1 == order.len() && !skew && join_alg == JoinAlg::Hash && probe_threads <= 1 {
                // The last hash join runs on the receive side of its
                // left exchange: its base atom is shuffled first, so each
                // rank holds its build side before the first batch of the
                // left input arrives. Both routes hash the same key, as
                // below. It probes one batch at a time on the drain
                // thread, so it runs only where the probe would run on
                // one thread anyway; with more, the materialised join
                // keeps its morsels.
                let route = on_key(&next.vars)?;
                let (next_s, base) = shuffle::run_route(next, &route, next_h, seam)?;
                let (a_vars, arity) = (cur.vars().to_vec(), cur.arity());
                let ranks = (next_s.parts.into_iter())
                    .map(|b| rank_join(&a_vars, Relation::new(arity), &next_s.vars, b));
                let last = StepJoin {
                    vars: out_schema,
                    ranks: ranks.collect(),
                };
                let route = on_key(&a_vars)?;
                let left = (cur, &route, cur_h);
                let out = pipeline::join_received(ex, rt, left, (last, base), result)?;
                cur = Left::Rel(out);
                break;
            }
        }
        let (cur_s, next_s, s1, s2) = if skew {
            // The heavy-key summary reads the whole left input.
            let cur = pipeline::realise(ex, cur, result)?;
            let (cur_s, next_s, [summary, s1, s2]) = shuffle::skew_resilient_pair(
                cur,
                next,
                &shuffle_key,
                (&cur_label, next_label),
                cluster,
                // Keys above ~1x the average per-worker load are heavy;
                // PRPD-style engines use similar small multiples.
                1.0,
                seam,
            )?;
            // The summary all-gather is a round of its own: routing
            // waits for its outcome.
            result.absorb_round([summary], cluster);
            (cur_s, next_s, s1, s2)
        } else {
            let route = on_key(cur.vars())?;
            let (cur_s, s1) = pipeline::route(ex, cur, &route, cur_h, result)?;
            let route = on_key(&next.vars)?;
            let (next_s, s2) = shuffle::run_route(next, &route, next_h, seam)?;
            (cur_s, next_s, s1, s2)
        };
        result.absorb_round([s1, s2], cluster);

        #[cfg(feature = "strict-invariants")]
        crate::strict::assert_colocated(&cur_s, &next_s, &shuffle_key, "regular shuffle");

        let ranks = (cur_s.parts.into_iter().zip(next_s.parts))
            .map(|(a, b)| rank_join(&cur_s.vars, a, &next_s.vars, b));
        cur = Left::Join(StepJoin {
            vars: out_schema,
            ranks: ranks.collect(),
        });
        cur_label = format!("{cur_label}{next_label}");
    }
    // The last step's join, which the output gathers (already run when
    // it ran on the receive side).
    let cur = pipeline::realise(ex, cur, result)?;
    // The analyzer rejects plans whose filters never bind
    // (`FilterNeverApplied`), so this is unreachable through `run_config`;
    // it remains a hard error — not a debug assertion — so release builds
    // can never silently drop a filter.
    if !pending.is_empty() {
        return Err(EngineError::InvalidPlan(
            pending
                .iter()
                .map(|f| {
                    Diagnostic::error(
                        analyze::DiagCode::FilterNeverApplied,
                        format!("filter {f:?} was never applied by the join order"),
                    )
                })
                .collect(),
        ));
    }

    finish_output(ex, cur, result)
}

/// What every worker's Tributary local join shares, whatever the trie
/// layout.
struct TjProbe<'a> {
    order: &'a [VarId],
    filters: &'a [Filter],
    num_vars: usize,
    head: &'a [VarId],
    threads: usize,
}

impl TjProbe<'_> {
    /// One worker's Tributary local join over atoms of layout `A`:
    /// prepares every local atom with `prepare` (timed: the returned
    /// duration), runs the layout's `strict_check` on each prepared atom
    /// when `strict-invariants` is on, then probes.
    fn run<A: probe::ProbeAtom>(
        &self,
        lane: &Lane,
        locals: &[SchemaRel],
        prepare: impl FnMut(&SchemaRel) -> A,
        strict_check: impl Fn(usize, &A),
    ) -> (probe::ProbeOutcome, Duration) {
        let prep_span = lane.span("prepare", "engine");
        let t_sort = Instant::now();
        let prepared: Vec<A> = locals.iter().map(prepare).collect();
        let sort_time = t_sort.elapsed();
        drop(prep_span);
        if cfg!(feature = "strict-invariants") {
            for (i, a) in prepared.iter().enumerate() {
                strict_check(i, a);
            }
        }
        let _probe_span = lane.span("probe", "engine");
        let tj = Tributary::new(&prepared, self.order, self.filters, self.num_vars);
        let probed = probe::tributary_probe(&tj, &prepared, self.head, self.threads);
        (probed, sort_time)
    }
}

/// Broadcast and HyperCube plans: one communication round, then a local
/// multiway join on every worker.
fn run_one_round(
    ex: &Exec<'_>,
    plan: Plan,
    seeded: Vec<Hosted>,
    pending: Vec<Filter>,
    result: &mut RunResult,
) -> Result<(), EngineError> {
    let (query, cluster, opts, seam, obs) = (ex.query, ex.cluster, ex.opts, ex.seam, ex.obs);
    let Plan {
        shuffle: shuffle_alg,
        join: join_alg,
        local_order,
        tj_order,
        hc_config,
        probe_threads,
        ..
    } = plan;
    let hosted = result.per_worker_busy.len();
    check_order("local join order", &local_order, seeded.len())?;
    let tj_order = match (join_alg, tj_order) {
        (JoinAlg::Tributary, None) => {
            return Err(EngineError::Unsupported(
                "Tributary plan carries no variable order".to_string(),
            ))
        }
        (_, order) => order.unwrap_or_default(),
    };

    // --- The single communication round. --------------------------------
    let mut round = Vec::with_capacity(seeded.len());
    let shuffled: Vec<DistRel> = match shuffle_alg {
        ShuffleAlg::Broadcast => {
            // The plan rooted `local_order` at the atom that stays
            // partitioned.
            let largest = local_order[0];
            let mut out = Vec::with_capacity(seeded.len());
            for (i, d) in seeded.into_iter().enumerate() {
                if i == largest {
                    out.push(d.into_dist()); // stays partitioned, nothing sent
                } else {
                    let (bc, stats) = shuffle::route_parts(
                        d.vars,
                        d.parts,
                        &Route::broadcast(cluster.workers)?,
                        format!("Broadcast {}", query.atoms[i].relation),
                        seam,
                    )?;
                    round.push(stats);
                    out.push(bc);
                }
            }
            out
        }
        ShuffleAlg::HyperCube => {
            let Some(config) = hc_config else {
                return Err(EngineError::Unsupported(
                    "HyperCube plan carries no share configuration".to_string(),
                ));
            };
            if config.num_cells() > cluster.workers {
                return Err(EngineError::Unsupported(format!(
                    "configuration has {} cells but only {} workers",
                    config.num_cells(),
                    cluster.workers
                )));
            }
            let mut out = Vec::with_capacity(seeded.len());
            for (i, d) in seeded.into_iter().enumerate() {
                let route =
                    shuffle::hypercube_route(&d.vars, &config, cluster.seed, cluster.workers)?;
                let label = format!("HCS {}", query.atoms[i].relation);
                let (hc, stats) = shuffle::route_parts(d.vars, d.parts, &route, label, seam)?;
                round.push(stats);
                out.push(hc);
            }
            result.hc_config = Some(config);
            out
        }
        ShuffleAlg::Regular | ShuffleAlg::Semijoin => unreachable!("handled by run_regular"),
    };

    #[cfg(feature = "strict-invariants")]
    crate::strict::assert_all_colocated(
        &shuffled,
        match shuffle_alg {
            ShuffleAlg::Broadcast => "broadcast shuffle",
            _ => "hypercube shuffle",
        },
    );

    result.absorb_round(round, cluster);

    // --- The local multiway join. ----------------------------------------
    let head = query.output_vars();

    let seed = cluster.seed;
    // Each worker's prepare sorts can additionally use the host cores
    // left idle by the phase pool (workers < cores); see crate::prepare.
    let prep_threads = if opts.sequential_prepare {
        1
    } else {
        prepare::prepare_threads_for_host(cluster.workers)
    };
    let budget = cluster.memory_budget;
    // Hand every worker its partition of every atom by move: the
    // shuffled relations are not needed as such any more.
    let mut locals_of: Vec<Vec<SchemaRel>> = (0..hosted)
        .map(|_| Vec::with_capacity(shuffled.len()))
        .collect();
    for DistRel { vars, parts } in shuffled {
        for (locals, rel) in locals_of.iter_mut().zip(parts) {
            locals.push(SchemaRel {
                vars: vars.clone(),
                rel,
            });
        }
    }
    let tj = TjProbe {
        order: &tj_order,
        filters: &pending,
        num_vars: query.num_vars(),
        head: &head,
        threads: probe_threads,
    };
    let phase = run_phase_traced(hosted, &obs.trace, "local-join", |w, lane| {
        let locals = &locals_of[w];
        let (rel, live, sort_time) = match join_alg {
            JoinAlg::Hash => {
                let mut pending = pending.clone();
                // The root (under broadcast the largest atom) stays
                // borrowed until a filter or the first join makes an
                // owned intermediate.
                let root = &locals[local_order[0]];
                let ready0 = take_ready_filters(&mut pending, &root.vars);
                let mut cur = if ready0.is_empty() {
                    Cow::Borrowed(root)
                } else {
                    Cow::Owned(root.filter(&ready0))
                };
                let mut live: u64 = locals.iter().map(|l| l.rel.len() as u64).sum();
                let probe_span = lane.span("probe", "engine");
                for &ai in &local_order[1..] {
                    let joined =
                        hash_join_step(&cur, &locals[ai], &mut pending, seed, probe_threads, obs);
                    cur = Cow::Owned(joined);
                    live = live.max(
                        locals.iter().map(|l| l.rel.len() as u64).sum::<u64>()
                            + cur.rel.len() as u64,
                    );
                }
                drop(probe_span);
                let out = cur.project(&head);
                (out.rel, live, Duration::ZERO)
            }
            JoinAlg::Tributary => {
                let order = &tj_order;
                // A view (or trie) too large for a worker's memory budget
                // is returned but never cached — the budget bounds what
                // either cache may pin (budget is in tuples; a sorted
                // view costs `arity` values per tuple, and the
                // deduplicated trie never exceeds the view).
                let entry_cap = |cols: &[usize]| {
                    budget.map(|t| {
                        (t as usize).saturating_mul(cols.len().max(1) * std::mem::size_of::<u64>())
                    })
                };
                // The row layout's sorted views come from the SortCache…
                let cached_view = |r: &Relation, cols: &[usize]| {
                    let sort = |r: &Relation, cols: &[usize]| {
                        prepare::sorted_by_columns_parallel(r, cols, prep_threads)
                    };
                    let (view, lookup) =
                        SortCache::global().get_or_sort(r, cols, entry_cap(cols), sort);
                    obs.count_lookup(
                        lookup,
                        metric_names::SORT_CACHE_HITS,
                        metric_names::SORT_CACHE_MISSES,
                    );
                    view
                };
                // …and the columnar layout's tries from the TrieCache,
                // which on a miss packs, sorts and emits the trie in one
                // kernel: no sorted view is made, let alone cached.
                let cached_trie = |r: &Relation, cols: &[usize]| {
                    let build = || {
                        let trie = prepare::columnar_trie(r, cols, prep_threads);
                        obs.count_trie_keys(&trie);
                        trie
                    };
                    let (trie, lookup) = TrieCache::global().get_or_build(
                        r.fingerprint(),
                        cols,
                        entry_cap(cols),
                        build,
                    );
                    obs.count_lookup(
                        lookup,
                        metric_names::TRIE_CACHE_HITS,
                        metric_names::TRIE_CACHE_MISSES,
                    );
                    trie
                };
                let (probed, sort_time) = match opts.trie_layout {
                    TrieLayout::Row => tj.run(
                        lane,
                        locals,
                        |l| {
                            if opts.sequential_prepare {
                                SortedAtom::prepare(&l.rel, &l.vars, order)
                            } else {
                                SortedAtom::prepare_with(&l.rel, &l.vars, order, cached_view)
                            }
                        },
                        |i, sa: &SortedAtom| {
                            assert!(
                                sa.relation().is_sorted_lex(),
                                "strict-invariants: Tributary input {i} is not sorted \
                                 lexicographically after prepare"
                            );
                        },
                    ),
                    TrieLayout::Columnar => tj.run(
                        lane,
                        locals,
                        |l| {
                            if opts.sequential_prepare {
                                ColumnarAtom::prepare(&l.rel, &l.vars, order)
                            } else {
                                ColumnarAtom::prepare_with(&l.rel, &l.vars, order, cached_trie)
                            }
                        },
                        |i, ca: &ColumnarAtom| {
                            if let Err(e) = ca.trie().validate() {
                                // xtask: allow(panic)
                                panic!(
                                    "strict-invariants: columnar trie {i} malformed after \
                                     prepare: {e}"
                                );
                            }
                        },
                    ),
                };
                obs.count_probe(probed.morsels, probed.steals);
                obs.count_levels(&probed.counts);
                let live = locals.iter().map(|l| 2 * l.rel.len() as u64).sum::<u64>()
                    + probed.rel.len() as u64;
                (probed.rel, live, sort_time)
            }
        };
        obs.registry
            .counter(metric_names::PEAK_WORKER_TUPLES)
            .max(live);
        (rel, live, sort_time)
    });

    let mut outputs = Vec::with_capacity(hosted);
    let mut sort_times = Vec::with_capacity(hosted);
    for (w, (rel, live, sort_time)) in phase.results.into_iter().enumerate() {
        check_budget(cluster, seam.first_rank() + w, live)?;
        outputs.push(rel);
        sort_times.push(sort_time);
    }
    result.absorb_phase(&phase.busy, Some(&sort_times));

    let out = DistRel {
        vars: head,
        parts: outputs,
    };
    finish_output(ex, out, result)
}

/// Projects to the head (RS path still carries the full schema), counts,
/// and optionally gathers the output.
fn finish_output(ex: &Exec<'_>, cur: DistRel, result: &mut RunResult) -> Result<(), EngineError> {
    let opts = ex.opts;
    // Output projection/aggregation/gathering is coordinator work: it
    // gets the coordinator lane, not a worker lane.
    let lane = ex.obs.trace.lane(COORDINATOR_LANE);
    let _span = lane.span("output", "engine");
    let head = ex.query.output_vars();
    let needs_project = cur.vars != head;
    let projected: DistRel = if needs_project {
        let cols: Vec<usize> = head.iter().map(|&v| cur.col_of(v)).collect();
        DistRel {
            vars: head,
            parts: cur.parts.iter().map(|p| p.project(&cols)).collect(),
        }
    } else {
        cur
    };
    let out = if opts.group_count {
        group_count_output(ex, &projected, result)?
    } else {
        projected
    };
    ex.obs
        .registry
        .add(metric_names::OUTPUT_TUPLES, out.total_len());
    if opts.collect_output {
        result.output = Some(out.gather());
    }
    Ok(())
}

/// Groups one partition on its first `head` columns: `(head…, count)`
/// rows in key order. Rows wider than `head` already carry a partial
/// count in the next column, which is summed; bare rows count 1.
fn count_groups(part: &Relation, head: usize) -> Relation {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<&[parjoin_common::Value], u64> = BTreeMap::new();
    for row in part.rows() {
        *groups.entry(&row[..head]).or_insert(0) += row.get(head).copied().unwrap_or(1);
    }
    let mut flat = Vec::with_capacity(groups.len() * (head + 1));
    for (key, count) in groups {
        flat.extend_from_slice(key);
        flat.push(count);
    }
    Relation::from_flat(head + 1, flat)
}

/// Pre-aggregates `(head…, count)` per hosted partition (the classic
/// combiner step: at most one row per distinct group leaves each
/// worker), combines the partial groups with one hash shuffle on the
/// head columns, and merge-sums per destination. The combine shuffle is
/// recorded in the run's metrics like any other.
fn group_count_output(
    ex: &Exec<'_>,
    projected: &DistRel,
    result: &mut RunResult,
) -> Result<DistRel, EngineError> {
    let cluster = ex.cluster;
    let head = projected.vars.len();
    let mut vars = projected.vars.clone();
    vars.push(AGGREGATE);
    let partial = DistRel {
        vars,
        parts: projected
            .parts
            .iter()
            .map(|p| count_groups(p, head))
            .collect(),
    };
    // Groups are placed by the head columns in head order.
    let seed = shuffle::join_key_seed(cluster.seed, &projected.vars);
    let (mut combined, stats) = shuffle::run_route(
        partial,
        &Route::hash((0..head).collect(), seed, cluster.workers)?,
        "group-count combine",
        ex.seam,
    )?;
    result.absorb_round([stats], cluster);
    for part in &mut combined.parts {
        *part = count_groups(part, head);
    }
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Database;
    use parjoin_query::QueryBuilder;

    fn triangle_query() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("Tri");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("E1", [x, y]).atom("E2", [y, z]).atom("E3", [z, x]);
        b.build()
    }

    fn ring_db(n: u64) -> Database {
        // A directed ring 0→1→…→n-1→0 plus closing chords (i+2)→i, so
        // every i→(i+1)→(i+2)→i is a directed triangle.
        let mut rel = Relation::new(2);
        for i in 0..n {
            rel.push_row(&[i, (i + 1) % n]);
            rel.push_row(&[(i + 2) % n, i]);
        }
        let rel = rel.distinct();
        let mut db = Database::new();
        db.insert("E1", rel.clone());
        db.insert("E2", rel.clone());
        db.insert("E3", rel);
        db
    }

    fn run_collect(
        q: &ConjunctiveQuery,
        db: &Database,
        workers: usize,
        s: ShuffleAlg,
        j: JoinAlg,
    ) -> Vec<Vec<u64>> {
        let cluster = Cluster::new(workers).with_seed(17);
        let opts = PlanOptions {
            collect_output: true,
            ..Default::default()
        };
        let r = run_config(q, db, &cluster, s, j, &opts).expect("plan runs");
        let mut rows: Vec<Vec<u64>> = r
            .output
            .expect("collected")
            .rows()
            .map(|x| x.to_vec())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn config_names_are_built_from_the_tags_and_parse_back() {
        let names = PAPER_CONFIGS.map(|(s, j)| config_name(s, j));
        assert_eq!(
            names,
            ["RS_HJ", "RS_TJ", "BR_HJ", "BR_TJ", "HC_HJ", "HC_TJ"]
        );
        for s in ShuffleAlg::ALL {
            for j in JoinAlg::ALL {
                assert_eq!(parse_config(&config_name(s, j)), Some((s, j)));
            }
        }
        for bad in ["SJ", "SJ_", "_HJ", "SJ_HJ_", "sj_hj", "XX_YY"] {
            assert_eq!(parse_config(bad), None, "{bad}");
        }
    }

    #[test]
    fn scale_duration_survives_u32_overflowing_tuple_counts() {
        // 5 billion tuples at 1ns each: `Duration * u32` would have
        // saturated the count at ~4.29 billion and charged ~4.29s.
        let tuples = 5_000_000_000u64;
        let cost = scale_duration(Duration::from_nanos(1), tuples);
        assert_eq!(cost, Duration::from_secs(5));
        // And the extreme case clamps instead of wrapping.
        assert_eq!(
            scale_duration(Duration::from_secs(u64::MAX), u64::MAX),
            Duration::MAX
        );
    }

    #[test]
    fn absorb_round_charges_full_tuple_counts_and_one_latency() {
        let mut r = RunResult::new("t".into(), 1);
        let stats = ShuffleStats::new("s", vec![5_000_000_000], vec![0]);
        let cluster = Cluster::new(1)
            .with_shuffle_tuple_cost(Duration::from_nanos(1))
            .with_round_latency(Duration::from_secs(2));
        r.absorb_round([stats], &cluster);
        assert_eq!(r.per_worker_net[0], Duration::from_secs(5));
        assert_eq!(r.wall, Duration::from_secs(7));
        assert_eq!((r.rounds, r.shuffles.len()), (1, 1));
    }

    #[test]
    fn all_six_configs_agree_on_triangles() {
        let q = triangle_query();
        let db = ring_db(30);
        let reference = run_collect(&q, &db, 4, ShuffleAlg::Regular, JoinAlg::Hash);
        assert!(!reference.is_empty(), "ring with shortcuts has triangles");
        for (s, j) in PAPER_CONFIGS {
            let got = run_collect(&q, &db, 4, s, j);
            assert_eq!(got, reference, "{s:?}/{j:?} disagrees");
        }
    }

    #[test]
    fn results_invariant_across_worker_counts() {
        let q = triangle_query();
        let db = ring_db(24);
        let reference = run_collect(&q, &db, 1, ShuffleAlg::HyperCube, JoinAlg::Tributary);
        for workers in [2, 3, 8, 16] {
            let got = run_collect(&q, &db, workers, ShuffleAlg::HyperCube, JoinAlg::Tributary);
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn hypercube_shuffles_less_than_broadcast_on_triangle() {
        let q = triangle_query();
        let db = ring_db(60);
        let cluster = Cluster::new(8);
        let opts = PlanOptions::default();
        let hc = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &opts,
        )
        .unwrap();
        let br = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::Broadcast,
            JoinAlg::Tributary,
            &opts,
        )
        .unwrap();
        assert!(hc.tuples_shuffled < br.tuples_shuffled);
    }

    #[test]
    fn broadcast_keeps_largest_in_place() {
        let mut b = QueryBuilder::new("Q");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("Big", [x, y]).atom("Small", [y, z]);
        let q = b.build();
        let mut db = Database::new();
        let big = Relation::from_rows(
            2,
            (0..100u64).map(|i| [i, i % 10]).collect::<Vec<_>>().iter(),
        );
        let small = Relation::from_rows(2, (0..10u64).map(|i| [i, i]).collect::<Vec<_>>().iter());
        db.insert("Big", big);
        db.insert("Small", small);
        let r = run_config(
            &q,
            &db,
            &Cluster::new(4),
            ShuffleAlg::Broadcast,
            JoinAlg::Hash,
            &PlanOptions::default(),
        )
        .unwrap();
        // Only Small is broadcast: 10 × 4 workers.
        assert_eq!(r.tuples_shuffled, 40);
        assert_eq!(r.shuffles.len(), 1);
        assert!(r.shuffles[0].label.contains("Small"));
    }

    #[test]
    fn memory_budget_fails_plan() {
        let q = triangle_query();
        let db = ring_db(40);
        let cluster = Cluster::new(2).with_memory_budget(10);
        let err = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::Regular,
            JoinAlg::Tributary,
            &PlanOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::MemoryBudget { .. }));
    }

    #[test]
    fn filters_applied_in_all_configs() {
        let mut b = QueryBuilder::new("Q");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("E1", [x, y]).atom("E2", [y, z]);
        b.filter_vv(x, parjoin_query::CmpOp::Lt, z);
        let q = b.build();
        let db = ring_db(20);
        let reference = run_collect(&q, &db, 3, ShuffleAlg::Regular, JoinAlg::Hash);
        for (s, j) in PAPER_CONFIGS {
            assert_eq!(run_collect(&q, &db, 3, s, j), reference, "{s:?}/{j:?}");
        }
        // And the filter actually prunes: recompute without it.
        let mut b2 = QueryBuilder::new("Q");
        let (x, y, z) = (b2.var("x"), b2.var("y"), b2.var("z"));
        b2.atom("E1", [x, y]).atom("E2", [y, z]);
        let q2 = b2.build();
        let unfiltered = run_collect(&q2, &db, 3, ShuffleAlg::Regular, JoinAlg::Hash);
        assert!(reference.len() < unfiltered.len());
    }

    #[test]
    fn projection_head_respected() {
        let mut b = QueryBuilder::new("Q");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("E1", [x, y]).atom("E2", [y, z]);
        b.head([z]);
        let q = b.build();
        let db = ring_db(10);
        let cluster = Cluster::new(2);
        let opts = PlanOptions {
            collect_output: true,
            ..Default::default()
        };
        let r = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &opts,
        )
        .unwrap();
        assert_eq!(r.output.unwrap().arity(), 1);
    }

    #[test]
    fn hc_config_recorded() {
        let q = triangle_query();
        let db = ring_db(20);
        let r = run_config(
            &q,
            &db,
            &Cluster::new(8),
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &PlanOptions::default(),
        )
        .unwrap();
        assert!(r.hc_config.is_some());
        assert!(r.hc_config.unwrap().num_cells() <= 8);
    }

    #[test]
    fn distinct_output_dedups() {
        // Project onto y: many (x,y) pairs share y.
        let mut b = QueryBuilder::new("Q");
        let (x, y) = (b.var("x"), b.var("y"));
        b.atom("E1", [x, y]);
        b.head([y]);
        let q = b.build();
        let db = ring_db(12);
        let cluster = Cluster::new(3);
        let bag = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::Regular,
            JoinAlg::Hash,
            &PlanOptions {
                collect_output: true,
                ..Default::default()
            },
        )
        .unwrap();
        let set = run_config(
            &q,
            &db,
            &cluster,
            ShuffleAlg::Regular,
            JoinAlg::Hash,
            &PlanOptions {
                collect_output: true,
                distinct_output: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(set.output.unwrap().len() < bag.output.unwrap().len());
    }

    #[test]
    fn streaming_transport_matches_local_and_reports_bytes() {
        let q = triangle_query();
        let db = ring_db(24);
        let opts = PlanOptions {
            collect_output: true,
            ..Default::default()
        };
        for (s, j) in PAPER_CONFIGS {
            let local = run_config(&q, &db, &Cluster::new(4).with_seed(17), s, j, &opts)
                .expect("local plan runs");
            let streamed = run_config(
                &q,
                &db,
                &Cluster::new(4)
                    .with_seed(17)
                    .with_transport(parjoin_runtime::TransportKind::InProcess)
                    .with_batch_tuples(8),
                s,
                j,
                &opts,
            )
            .expect("streaming plan runs");
            assert_eq!(
                local.output.as_ref().expect("collected").raw(),
                streamed.output.as_ref().expect("collected").raw(),
                "{s:?}/{j:?}: streaming output must be byte-identical"
            );
            assert_eq!(local.tuples_shuffled, streamed.tuples_shuffled);
            let bytes = |r: &RunResult| r.shuffles.iter().map(|s| s.bytes_sent).sum::<u64>();
            assert_eq!(bytes(&local), 0, "{s:?}/{j:?}");
            assert!(bytes(&streamed) > 0, "{s:?}/{j:?}");
        }
    }

    #[test]
    fn eleven_variable_query_plans_by_sampled_orders() {
        // One variable more than the exhaustive order search enumerates:
        // the planner used to panic here.
        let text = format!(
            "P(x0, x10) :- {}",
            (0..10)
                .map(|i| format!("E1(x{i}, x{})", i + 1))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let q = parjoin_query::parser::parse(&text).expect("parses");
        assert_eq!(q.all_vars().len(), 11);
        let db = ring_db(8);
        let reference = run_collect(&q, &db, 4, ShuffleAlg::Regular, JoinAlg::Hash);
        assert!(!reference.is_empty());
        for s in [ShuffleAlg::Broadcast, ShuffleAlg::HyperCube] {
            assert_eq!(
                run_collect(&q, &db, 4, s, JoinAlg::Tributary),
                reference,
                "{s:?}"
            );
        }
        // The order is the best of the Fig. 12 sample drawn from the
        // cluster seed, so planning stays deterministic.
        let cluster = Cluster::new(4).with_seed(17);
        let plan = |c: &Cluster| {
            let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
            plan(&q, &db, c, s, j, &PlanOptions::default())
                .expect("plans")
                .0
                .tj_order
                .expect("one-round Tributary plans carry an order")
        };
        let order = plan(&cluster);
        assert_eq!(order, plan(&cluster));
        use parjoin_core::order::{sample_orders, SAMPLED_ORDERS};
        let sampled = sample_orders(&q.all_vars(), SAMPLED_ORDERS, cluster.seed);
        assert!(sampled.contains(&order));
    }

    #[test]
    fn thirteen_column_atom_is_refused_typed_for_tributary_only() {
        // One column more than `RelStats` keeps a subset table for: the
        // planner used to panic here.
        let vars: Vec<String> = (0..13).map(|i| format!("c{i}")).collect();
        let text = format!("P(c0, c12) :- Wide({}), E1(c0, c1)", vars.join(", "));
        let q = parjoin_query::parser::parse(&text).expect("parses");
        let mut db = ring_db(10);
        let rows: Vec<Vec<u64>> = (0..10u64)
            .map(|i| (0..13).map(|c| (i + c) % 10).collect())
            .collect();
        db.insert("Wide", Relation::from_rows(13, rows.iter()));

        let cluster = Cluster::new(4).with_seed(17);
        let opts = PlanOptions::default();
        for s in [ShuffleAlg::Broadcast, ShuffleAlg::HyperCube] {
            match run_config(&q, &db, &cluster, s, JoinAlg::Tributary, &opts) {
                Err(EngineError::Unsupported(why)) => {
                    assert!(why.contains("`Wide`") && why.contains("13"), "{why}");
                }
                other => panic!("{s:?}: expected Unsupported, got {other:?}"),
            }
        }
        // Hash-join plans only need the per-column statistics.
        let reference = run_collect(&q, &db, 4, ShuffleAlg::Regular, JoinAlg::Hash);
        assert_eq!(reference.len(), 10);
        for s in [ShuffleAlg::Broadcast, ShuffleAlg::HyperCube] {
            assert_eq!(
                run_collect(&q, &db, 4, s, JoinAlg::Hash),
                reference,
                "{s:?}"
            );
        }
        // And so does a Tributary plan that brings its own order.
        let with_order = PlanOptions {
            tj_order: Some(q.all_vars()),
            ..PlanOptions::default()
        };
        let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
        let r = run_config(&q, &db, &cluster, s, j, &with_order).expect("explicit order runs");
        assert_eq!(r.output_tuples, 10);
    }

    #[test]
    fn single_atom_query_runs() {
        let mut b = QueryBuilder::new("Q");
        let (x, y) = (b.var("x"), b.var("y"));
        b.atom("E1", [x, y]);
        let q = b.build();
        let db = ring_db(10);
        for (s, j) in PAPER_CONFIGS {
            let r = run_config(&q, &db, &Cluster::new(4), s, j, &PlanOptions::default())
                .unwrap_or_else(|e| panic!("{s:?}/{j:?}: {e}"));
            assert_eq!(r.output_tuples, 20, "{s:?}/{j:?}");
        }
    }
}
