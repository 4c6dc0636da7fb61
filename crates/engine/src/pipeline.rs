//! An RS step's local join, and the ways it runs (DESIGN §19).
//!
//! A left-deep regular-shuffle plan (RS_HJ, RS_TJ, and the join loop of
//! SJ_*) joins the running intermediate with the next atom once per
//! step. A [`StepJoin`] is one step's join on every hosted rank, not yet
//! run: the left input of the next step, which realises it.
//!
//! * **Pipelined on the send side** ([`route`] on a streaming seam):
//!   each rank's [`RankJoin`] is that rank's producer in the next step's
//!   exchange, handing every [`ROUTE_CHUNK`] rows of (filtered) output to
//!   the route and batch windows as it probes, so the intermediate is
//!   never materialised on the sending side and no barrier separates the
//!   join from the exchange.
//! * **Pipelined on the receive side** ([`join_received`]): the last step
//!   of a hash-join plan on a streaming seam, at one probe thread,
//!   shuffles its base atom first; each rank's [`ReceivedJoin`] then consumes the left exchange,
//!   probing every batch as its drain thread decodes it. The received
//!   intermediate is never concatenated, and the final join overlaps
//!   the exchange.
//! * **Materialised** ([`materialise`]): one `local-join` phase, whose
//!   output is then routed like any relation. The `Local` seam runs
//!   every step this way, as do skew-resilient steps (their heavy-key
//!   summary reads the whole input) and the last step of `RS_TJ` (a
//!   blocking merge join).
//!
//! All ways give each destination the same rows, order and batches, and
//! [`book`] charges the same counters: join CPU (a pipelined rank's own
//! thread CPU time, `CpuTimer`), `engine.peak_worker_tuples` (the paper's
//! counted memory model) and the per-rank memory budget, in rank order.

use crate::dist::DistRel;
use crate::error::EngineError;
use crate::exec::run_phase_traced;
use crate::local::{merge_join, row_filter, BuiltJoin, HashJoinShape, SchemaRel};
use crate::plans::{metric_names, Exec, JoinAlg, RunResult};
use crate::probe;
use crate::shuffle::{self, Seam};
use parjoin_common::threads::CpuTimer;
use parjoin_common::{Relation, ShuffleStats};
use parjoin_obs::{Lane, TraceSink};
use parjoin_query::{Filter, VarId};
use parjoin_runtime::exchange::{concat, Consume, Produce, RowSink};
use parjoin_runtime::route::ROUTE_CHUNK;
use parjoin_runtime::{Route, Runtime, RuntimeError};
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// One RS step's local join on every hosted rank, not yet run.
pub(crate) struct StepJoin {
    /// The output schema.
    pub(crate) vars: Vec<VarId>,
    /// One join per hosted rank, in rank order.
    pub(crate) ranks: Vec<RankJoin>,
}

/// The left input of an RS step: materialised partitions, or the
/// previous step's join.
pub(crate) enum Left {
    Rel(DistRel),
    Join(StepJoin),
}

impl Left {
    pub(crate) fn vars(&self) -> &[VarId] {
        match self {
            Left::Rel(d) => &d.vars,
            Left::Join(j) => &j.vars,
        }
    }

    /// Columns of a row this input sends through an exchange.
    pub(crate) fn arity(&self) -> usize {
        match self {
            Left::Rel(d) => d.vars.len(),
            Left::Join(j) => j.vars.len().max(1),
        }
    }
}

/// One rank's side of a step join: its two co-partitioned inputs and
/// what the join needs.
pub(crate) struct RankJoin {
    pub(crate) a: SchemaRel,
    pub(crate) b: SchemaRel,
    /// The filters the output schema completes.
    pub(crate) ready: Vec<Filter>,
    pub(crate) alg: JoinAlg,
    pub(crate) seed: u64,
    pub(crate) threads: usize,
}

/// What one rank's join reports besides its rows.
#[derive(Default)]
pub(crate) struct JoinReport {
    /// The paper's counted memory model for this rank.
    live: u64,
    /// Compute time (materialised: the phase times it instead).
    busy: Duration,
    /// The merge join's sort time, zero for a hash join.
    sort: Duration,
    morsels: u64,
    steals: u64,
    /// Whether the join probed its left input batch by batch as the
    /// exchange delivered it.
    received: bool,
    /// Rows of the left input a receive-side join was handed, for the
    /// co-location check.
    #[cfg(feature = "strict-invariants")]
    sample: Option<Relation>,
}

/// Drops the rows of `piece` (schema `vars`) that fail a `ready` filter;
/// returns how many rows it keeps.
fn keep_ready(piece: &mut Relation, vars: &[VarId], ready: &[Filter]) -> u64 {
    if !ready.is_empty() {
        *piece = piece.filter(row_filter(vars, ready));
    }
    piece.len() as u64
}

/// The join CPU a rank books for `report`'s join, timed by `timer` on
/// the thread that ran it, less `blocked`. A parallel probe (more than
/// one morsel) ran its morsels on other threads, which this thread's
/// clock does not see: it books the wall time, as a materialised phase
/// does.
fn booked(timer: &CpuTimer, report: &JoinReport, blocked: Duration) -> Duration {
    if report.morsels > 1 {
        timer.elapsed().saturating_sub(blocked)
    } else {
        timer.busy(blocked)
    }
}

impl RankJoin {
    /// Runs the join, handing `emit` its output rows in order and in
    /// pieces: of at least `chunk` rows (the last excepted) from a
    /// sequential hash probe, one per morsel from a parallel one, one
    /// piece from a merge join. `emit` may take a piece's rows or leave
    /// them.
    fn run<E>(
        &self,
        lane: &Lane,
        chunk: usize,
        emit: &mut dyn FnMut(&mut Relation) -> Result<(), E>,
    ) -> Result<JoinReport, E> {
        let (a, b) = (&self.a, &self.b);
        let mut rows = 0u64;
        let mut filtered = |piece: &mut Relation, vars: &[VarId]| {
            rows += keep_ready(piece, vars, &self.ready);
            emit(piece)
        };
        let mut report = JoinReport {
            morsels: 1,
            ..JoinReport::default()
        };
        match self.alg {
            JoinAlg::Hash => {
                let _probe = lane.span("probe", "engine");
                let shape = HashJoinShape::new(a, b, self.seed);
                let out_vars = shape.join.vars.clone();
                let each = &mut |piece: &mut Relation| filtered(piece, &out_vars);
                (report.morsels, report.steals) =
                    probe::hash_probe(&shape, self.threads, chunk, each)?;
                // Memory model per the paper's Q4 discussion: the
                // pipelined hash join keeps only its build side (the
                // smaller input) resident plus the output in flight.
                report.live = a.rel.len().min(b.rel.len()) as u64 + rows;
            }
            JoinAlg::Tributary => {
                // merge_join times its own sorting internally, so the
                // prepare/probe split is synthesized from its report
                // rather than measured by RAII spans.
                let t0 = Instant::now();
                let (j, sort_buf, sort) = merge_join(a, b, self.seed);
                let elapsed = t0.elapsed();
                lane.record("prepare", "engine", t0, sort);
                lane.record("probe", "engine", t0 + sort, elapsed.saturating_sub(sort));
                let mut out = j.rel;
                filtered(&mut out, &j.vars)?;
                // The blocking sort-merge join materialises *both*
                // inputs and their sorted copies — which is why RS_TJ
                // runs out of memory where RS_HJ survives (Figure 9).
                report.live = (a.rel.len() + b.rel.len()) as u64 + sort_buf + rows;
                report.sort = sort;
            }
        }
        Ok(report)
    }

    /// Runs the join to completion into one relation.
    fn run_whole(&self, lane: &Lane) -> (Relation, JoinReport) {
        let mut out = Relation::new(self.arity());
        let take = &mut |piece: &mut Relation| {
            if out.is_empty() {
                std::mem::swap(&mut out, piece);
            } else {
                out.extend_from(piece);
            }
            Ok::<(), Infallible>(())
        };
        let Ok(report) = self.run(lane, usize::MAX, take);
        (out, report)
    }
}

impl Produce for RankJoin {
    type Report = JoinReport;

    fn arity(&self) -> usize {
        let b_only = self.b.vars.iter().filter(|v| !self.a.vars.contains(v));
        (self.a.vars.len() + b_only.count()).max(1)
    }

    fn produce(self, sink: &mut dyn RowSink, lane: &Lane) -> Result<JoinReport, RuntimeError> {
        let (timer, blocked) = (CpuTimer::start(), sink.blocked());
        let span = lane.span("local-join", "engine");
        let mut report = self.run(lane, ROUTE_CHUNK, &mut |piece| {
            let sent = sink.push_relation(piece);
            piece.clear();
            sent
        })?;
        drop(span);
        report.busy = booked(&timer, &report, sink.blocked() - blocked);
        Ok(report)
    }
}

/// The last step's hash join on one rank, run on the receive side of the
/// step's left exchange: a [`Consume`]r holding the rank's partition of
/// the step's base atom (`join.b`), fed the left input (`join.a`'s
/// schema) batch by batch as the rank's drain thread decodes it.
///
/// It keeps [`HashJoinShape::new`]'s rule exact: the smaller side builds,
/// `a` on a tie. Until the streamed rows outnumber `b`'s it buffers them
/// per source, as `exchange::Accumulate` does. Once they do, `b` builds
/// for good (the streamed side only grows), the buffered rows are probed
/// in source order, and from then on each batch is probed as it arrives and
/// dropped. Output is kept per source and concatenated in ascending
/// source order at the end: the rows and order one probe of the
/// concatenated partition gives, since a probe emits in probe-row order.
/// A rank whose streams end first runs [`RankJoin::run`] on its buffered
/// rows, exactly as [`materialise`] would. The streamed probe runs one
/// batch at a time on the drain thread, so a plan uses this join only at
/// one probe thread.
pub(crate) struct ReceivedJoin {
    /// The step's join; `a` holds no rows until the fallback needs them.
    join: RankJoin,
    /// Rows streamed so far.
    streamed: usize,
    /// Per source: its streamed rows until the table is built, its
    /// output after.
    per_src: Vec<Relation>,
    /// The table over `b` once the streamed side has outgrown it, and
    /// the timer of the join's CPU from then on (on the drain thread).
    built: Option<(BuiltJoin, CpuTimer)>,
    /// Where a frame decodes once the table is built.
    batch: Relation,
    /// Output rows kept by the ready filters.
    rows: u64,
    /// The wall time of the build and the probes: what a platform
    /// without a thread CPU clock books, as the drain thread also waits
    /// for frames between them.
    worked: Duration,
    /// The join's CPU on the drain thread, from the build to the end of
    /// the streams.
    busy: Duration,
    /// The first rows of each batch, for the co-location check.
    #[cfg(feature = "strict-invariants")]
    sample: Relation,
}

impl ReceivedJoin {
    /// A consumer of `join`'s left input from `sources` ranks.
    pub(crate) fn new(join: RankJoin, sources: usize) -> Self {
        let arity = join.a.rel.arity();
        ReceivedJoin {
            join,
            streamed: 0,
            per_src: (0..sources).map(|_| Relation::new(arity)).collect(),
            built: None,
            batch: Relation::new(arity),
            rows: 0,
            worked: Duration::ZERO,
            busy: Duration::ZERO,
            #[cfg(feature = "strict-invariants")]
            sample: Relation::new(arity),
        }
    }

    /// Builds the table over `b` and probes what each source has sent.
    fn build(&mut self) {
        let (timer, t0) = (CpuTimer::start(), Instant::now());
        let join = BuiltJoin::new(&self.join.a, &self.join.b, false, self.join.seed);
        for part in &mut self.per_src {
            let input = std::mem::replace(part, Relation::new(join.out_arity()));
            self.rows += probe_rows(&join, &self.join.b.rel, &input, &self.join.ready, part);
        }
        self.built = Some((join, timer));
        self.worked += t0.elapsed();
    }
}

/// Probes every row of `input` against `join`, built over `build`, and
/// appends the output rows `ready` keeps to `out`; returns their count.
fn probe_rows(
    join: &BuiltJoin,
    build: &Relation,
    input: &Relation,
    ready: &[Filter],
    out: &mut Relation,
) -> u64 {
    let no_flush = &mut |_: &mut Relation| Ok::<(), Infallible>(());
    let mut piece = Relation::new(join.out_arity());
    let rows = (0, input.len());
    let Ok(()) = join.probe_chunked(build, input, rows, &mut piece, usize::MAX, no_flush);
    let kept = keep_ready(&mut piece, &join.vars, ready);
    if out.is_empty() {
        std::mem::swap(out, &mut piece);
    } else {
        out.extend_from(&piece);
    }
    kept
}

impl Consume for ReceivedJoin {
    type Report = JoinReport;

    fn inbox(&mut self, src: usize) -> &mut Relation {
        match self.built {
            Some(_) => &mut self.batch,
            None => &mut self.per_src[src],
        }
    }

    fn received(&mut self, src: usize, rows: usize) {
        #[cfg(feature = "strict-invariants")]
        {
            let inbox = match self.built {
                Some(_) => &self.batch,
                None => &self.per_src[src],
            };
            crate::strict::sample_batch(&mut self.sample, inbox, rows);
        }
        self.streamed += rows;
        match &self.built {
            Some((join, _)) => {
                let t0 = Instant::now();
                let (b, ready) = (&self.join.b.rel, &self.join.ready);
                self.rows += probe_rows(join, b, &self.batch, ready, &mut self.per_src[src]);
                self.batch.clear();
                self.worked += t0.elapsed();
            }
            None if self.streamed > self.join.b.rel.len() => self.build(),
            None => {}
        }
    }

    fn ended(&mut self) {
        if let Some((_, timer)) = &self.built {
            self.busy = timer.cpu().unwrap_or(self.worked);
        }
    }

    fn finish(mut self) -> (Relation, JoinReport) {
        let Some((join, _)) = self.built.take() else {
            // The streamed side ended no larger than `b`: join as the
            // materialised step does, on the rank's own thread (untraced:
            // `finish` is handed no lane).
            let timer = CpuTimer::start();
            self.join.a.rel = concat(self.join.a.rel.arity(), self.per_src);
            let (out, mut report) = self.join.run_whole(&TraceSink::disabled().lane(0));
            report.busy = booked(&timer, &report, Duration::ZERO);
            #[cfg(feature = "strict-invariants")]
            {
                report.sample = Some(self.sample);
            }
            return (out, report);
        };
        let out = concat(join.out_arity(), self.per_src);
        let report = JoinReport {
            // `b` built: the smaller side, as the materialised join counts.
            live: self.join.b.rel.len() as u64 + self.rows,
            busy: self.busy,
            morsels: 1,
            received: true,
            #[cfg(feature = "strict-invariants")]
            sample: Some(self.sample),
            ..JoinReport::default()
        };
        (out, report)
    }
}

/// Runs `join` as one `local-join` phase over the hosted ranks and
/// books it.
///
/// # Errors
/// [`EngineError::MemoryBudget`] naming the first rank over budget.
pub(crate) fn materialise(
    ex: &Exec<'_>,
    join: StepJoin,
    result: &mut RunResult,
) -> Result<DistRel, EngineError> {
    let ranks = &join.ranks;
    let phase = run_phase_traced(ranks.len(), &ex.obs.trace, "local-join", |w, lane| {
        ranks[w].run_whole(lane)
    });
    let (parts, mut reports): (Vec<_>, Vec<_>) = phase.results.into_iter().unzip();
    for (report, busy) in reports.iter_mut().zip(&phase.busy) {
        report.busy = *busy;
    }
    book(ex, &reports, result)?;
    Ok(DistRel {
        vars: join.vars,
        parts,
    })
}

/// Realises `left` as materialised partitions.
///
/// # Errors
/// As [`materialise`].
pub(crate) fn realise(
    ex: &Exec<'_>,
    left: Left,
    result: &mut RunResult,
) -> Result<DistRel, EngineError> {
    match left {
        Left::Rel(d) => Ok(d),
        Left::Join(join) => materialise(ex, join, result),
    }
}

/// Routes `left` through `route` over the plan's seam. A pending join
/// on a streaming seam runs inside the exchange, each rank's output
/// routed as it is produced; on `Local` it is materialised first.
///
/// # Errors
/// [`EngineError::Transport`] when the exchange fails, and
/// [`EngineError::MemoryBudget`] as [`materialise`].
pub(crate) fn route(
    ex: &Exec<'_>,
    left: Left,
    route: &Route,
    label: String,
    result: &mut RunResult,
) -> Result<(DistRel, ShuffleStats), EngineError> {
    match (left, ex.seam) {
        (Left::Join(join), Seam::Stream(rt)) => {
            let (outcome, reports) = rt.exchange(join.ranks, route)?;
            book(ex, &reports, result)?;
            Ok(shuffle::package(join.vars, outcome, label))
        }
        (left, seam) => shuffle::run_route(realise(ex, left, result)?, route, label, seam),
    }
}

/// Runs the last step of a hash-join plan on `rt`: routes `left` through
/// `route` into one [`ReceivedJoin`] per hosted rank, each over that
/// rank's join in `last` (its base-atom partition, already shuffled with
/// `base` as its stats; the left side empty). Books the round and both
/// steps' joins as the materialising pipeline does: the left input's
/// join, then the round `[left, base]`, then the last join. Returns the
/// last join's output.
///
/// # Errors
/// As [`route`].
pub(crate) fn join_received(
    ex: &Exec<'_>,
    rt: &Runtime,
    (left, route, label): (Left, &Route, String),
    (last, base): (StepJoin, ShuffleStats),
    result: &mut RunResult,
) -> Result<DistRel, EngineError> {
    let sources = route.workers();
    #[cfg(feature = "strict-invariants")]
    let strict_base = last.ranks.first().map(|r| {
        let parts = last.ranks.iter().map(|r| r.b.rel.clone()).collect();
        let vars = r.b.vars.clone();
        (r.a.vars.clone(), DistRel { vars, parts })
    });
    let consumers = (last.ranks.into_iter())
        .map(|join| ReceivedJoin::new(join, sources))
        .collect();
    let vars = last.vars;
    let (out, stats, joined) = match left {
        Left::Rel(d) => {
            let (out, stats, _, joined) =
                shuffle::run_exchange(vars, d.parts, consumers, route, label, rt)?;
            (out, stats, joined)
        }
        Left::Join(j) => {
            let (out, stats, reports, joined) =
                shuffle::run_exchange(vars, j.ranks, consumers, route, label, rt)?;
            book(ex, &reports, result)?;
            (out, stats, joined)
        }
    };
    result.absorb_round([stats, base], ex.cluster);
    #[cfg(feature = "strict-invariants")]
    if let Some((a_vars, base)) = strict_base {
        assert_received_colocated(a_vars, &joined, &base);
    }
    book(ex, &joined, result)?;
    Ok(out)
}

/// The materialised steps' co-location check (`strict-invariants`) on
/// a receive-side join, which keeps no received partition whole: over
/// the left rows (schema `a_vars`) each rank sampled as they arrived,
/// in `reports`' rank order, against the ranks' `base` partitions.
/// Sampled rows that join (agree on every shared variable) must have
/// met on one rank.
///
/// # Panics
/// When a sampled joining pair met on no rank.
#[cfg(feature = "strict-invariants")]
fn assert_received_colocated(a_vars: Vec<VarId>, reports: &[JoinReport], base: &DistRel) {
    let shared: Vec<VarId> = (a_vars.iter().copied())
        .filter(|v| base.vars.contains(v))
        .collect();
    let parts = reports.iter().map(|r| r.sample.clone());
    let sampled = DistRel {
        vars: a_vars,
        parts: parts
            .map(|p| p.unwrap_or_else(|| Relation::new(0)))
            .collect(),
    };
    crate::strict::assert_colocated(&sampled, base, &shared, "regular shuffle (received)");
}

/// Books one step's joins: probe and memory counters, the per-rank
/// budget in rank order, then one phase of join CPU.
fn book(ex: &Exec<'_>, reports: &[JoinReport], result: &mut RunResult) -> Result<(), EngineError> {
    let obs = ex.obs;
    for r in reports {
        obs.count_probe(r.morsels, r.steals);
        obs.registry
            .counter(metric_names::PEAK_WORKER_TUPLES)
            .max(r.live);
    }
    let received = reports.iter().filter(|r| r.received).count();
    obs.registry
        .add(metric_names::PIPELINE_RECEIVED_JOINS, received as u64);
    for (w, r) in reports.iter().enumerate() {
        crate::plans::check_budget(ex.cluster, ex.seam.first_rank() + w, r.live)?;
    }
    let busy: Vec<Duration> = reports.iter().map(|r| r.busy).collect();
    let sort: Vec<Duration> = reports.iter().map(|r| r.sort).collect();
    result.absorb_phase(&busy, Some(&sort));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Value;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const Z: VarId = VarId(2);

    fn side(vars: [VarId; 2], rows: &[[u64; 2]]) -> SchemaRel {
        SchemaRel {
            vars: vars.to_vec(),
            rel: Relation::from_rows(2, rows.iter()),
        }
    }

    fn hash_join(a: SchemaRel, b: SchemaRel, threads: usize) -> RankJoin {
        RankJoin {
            a,
            b,
            ready: Vec::new(),
            alg: JoinAlg::Hash,
            seed: 3,
            threads,
        }
    }

    /// A sink that takes every row and keeps none.
    struct Discard;

    impl RowSink for Discard {
        fn push_rows(&mut self, _: &[Value]) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn push_nullary(&mut self, _: usize) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    /// A pipelined producer whose probe splits into morsels runs them on
    /// other threads while its own waits: it books the wall time of the
    /// join, as a materialised phase does, not its own thread's CPU.
    #[test]
    fn a_parallel_probe_books_its_wall_time() {
        // A small build side and a long probe that matches nothing, so
        // nearly all the work is the morsels'.
        let build: Vec<[u64; 2]> = (0..64).map(|i| [i, i]).collect();
        let probe: Vec<[u64; 2]> = (0..60_000).map(|i| [1_000 + i, i]).collect();
        let join = hash_join(side([X, Y], &build), side([Y, Z], &probe), 2);
        let t0 = Instant::now();
        let lane = TraceSink::disabled().lane(0);
        let report = join.produce(&mut Discard, &lane).expect("no transport");
        let wall = t0.elapsed();
        assert!(report.morsels > 1, "the probe split: {}", report.morsels);
        assert!(
            report.busy * 2 >= wall,
            "booked {:?} of a {wall:?} join",
            report.busy
        );
    }

    /// Feeds each rank's left rows to a receive-side join over that
    /// rank's base rows, from one source, and finishes it.
    #[cfg(feature = "strict-invariants")]
    fn received(left: &[&[[u64; 2]]], base: &[&[[u64; 2]]]) -> (Vec<JoinReport>, DistRel) {
        let mut reports = Vec::new();
        for (rows, b) in left.iter().zip(base) {
            let empty = side([X, Y], &[]);
            let mut join = ReceivedJoin::new(hash_join(empty, side([Y, Z], b), 1), 1);
            join.inbox(0)
                .extend_from(&Relation::from_rows(2, rows.iter()));
            join.received(0, rows.len());
            join.ended();
            reports.push(join.finish().1);
        }
        let parts = base.iter().map(|b| Relation::from_rows(2, b.iter()));
        let base = DistRel {
            vars: vec![Y, Z],
            parts: parts.collect(),
        };
        (reports, base)
    }

    /// Under `strict-invariants` the receive-side join samples what it
    /// is handed, and the co-location check passes left rows that met
    /// their base rows, on the streamed branch (rank 0) and the fallback
    /// (rank 1) alike.
    #[cfg(feature = "strict-invariants")]
    #[test]
    fn received_rows_that_met_their_base_pass_the_strict_check() {
        let (reports, base) = received(
            &[&[[1, 5], [2, 5], [3, 5]], &[[4, 6]]],
            &[&[[5, 50]], &[[6, 60], [6, 61]]],
        );
        assert!(reports[0].received && !reports[1].received);
        assert_received_colocated(vec![X, Y], &reports, &base);
    }

    /// A left row handed to a rank other than its base rows' fails the
    /// check the materialised steps run.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "share no worker")]
    fn a_received_row_on_the_wrong_rank_fails_the_strict_check() {
        let (reports, base) = received(
            &[&[[1, 5], [2, 6], [3, 5]], &[[4, 6]]],
            &[&[[5, 50]], &[[6, 60], [6, 61]]],
        );
        assert_received_colocated(vec![X, Y], &reports, &base);
    }
}
