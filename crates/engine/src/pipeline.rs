//! An RS step's local join, and the two ways it runs (DESIGN §19).
//!
//! A left-deep regular-shuffle plan (RS_HJ, RS_TJ, and the join loop of
//! SJ_*) joins the running intermediate with the next atom once per
//! step. A [`StepJoin`] is one step's join on every hosted rank, not yet
//! run: the left input of the next step, which realises it.
//!
//! * **Pipelined** ([`route`] on a streaming seam): each rank's
//!   [`RankJoin`] is that rank's producer in the next step's exchange,
//!   handing every [`ROUTE_CHUNK`] rows of (filtered) output to the
//!   route and batch windows as it probes, so the intermediate is never
//!   materialised on the sending side and no barrier separates the join
//!   from the exchange.
//! * **Materialised** ([`materialise`]): one `local-join` phase, whose
//!   output is then routed like any relation. The `Local` seam runs
//!   every step this way, as do skew-resilient steps (their heavy-key
//!   summary reads the whole input) and the last step (the plan gathers
//!   its output).
//!
//! Both ways run the same [`RankJoin::run`], so each destination gets
//! the same rows, order and batches, and [`book`] charges the same
//! counters: join CPU (a pipelined rank's time minus its time inside
//! the transport's send), `engine.peak_worker_tuples` (the paper's
//! counted memory model) and the per-rank memory budget, in rank order.

use crate::dist::DistRel;
use crate::error::EngineError;
use crate::exec::run_phase_traced;
use crate::local::{merge_join, row_filter, HashJoinShape, SchemaRel};
use crate::plans::{metric_names, Exec, JoinAlg, RunResult};
use crate::probe;
use crate::shuffle::{self, Seam};
use parjoin_common::{Relation, ShuffleStats};
use parjoin_obs::Lane;
use parjoin_query::{Filter, VarId};
use parjoin_runtime::exchange::{Produce, RowSink};
use parjoin_runtime::route::ROUTE_CHUNK;
use parjoin_runtime::{Route, RuntimeError};
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
pub(crate) struct JoinReport {
    /// The paper's counted memory model for this rank.
    live: u64,
    /// Compute time (materialised: the phase times it instead).
    busy: Duration,
    /// The merge join's sort time, zero for a hash join.
    sort: Duration,
    morsels: u64,
    steals: u64,
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
            if !self.ready.is_empty() {
                *piece = piece.filter(row_filter(vars, &self.ready));
            }
            rows += piece.len() as u64;
            emit(piece)
        };
        let mut report = JoinReport {
            live: 0,
            busy: Duration::ZERO,
            sort: Duration::ZERO,
            morsels: 1,
            steals: 0,
        };
        match self.alg {
            JoinAlg::Hash => {
                let _probe = lane.span("probe", "engine");
                let shape = HashJoinShape::new(a, b, self.seed);
                let out_vars = shape.vars.clone();
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
}

impl Produce for RankJoin {
    type Report = JoinReport;

    fn arity(&self) -> usize {
        let b_only = self.b.vars.iter().filter(|v| !self.a.vars.contains(v));
        (self.a.vars.len() + b_only.count()).max(1)
    }

    fn produce(self, sink: &mut dyn RowSink, lane: &Lane) -> Result<JoinReport, RuntimeError> {
        let (t0, blocked) = (Instant::now(), sink.blocked());
        let span = lane.span("local-join", "engine");
        let mut report = self.run(lane, ROUTE_CHUNK, &mut |piece| {
            let sent = sink.push_relation(piece);
            piece.clear();
            sent
        })?;
        drop(span);
        report.busy = t0.elapsed().saturating_sub(sink.blocked() - blocked);
        Ok(report)
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
        let mut out = Relation::new(ranks[w].arity());
        let take = &mut |piece: &mut Relation| {
            if out.is_empty() {
                std::mem::swap(&mut out, piece);
            } else {
                out.extend_from(piece);
            }
            Ok::<(), Infallible>(())
        };
        let Ok(report) = ranks[w].run(lane, usize::MAX, take);
        (out, report)
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
            let (out, stats, reports) =
                shuffle::run_producers(join.vars, join.ranks, route, label, rt)?;
            book(ex, &reports, result)?;
            Ok((out, stats))
        }
        (left, seam) => shuffle::run_route(realise(ex, left, result)?, route, label, seam),
    }
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
    for (w, r) in reports.iter().enumerate() {
        crate::plans::check_budget(ex.cluster, ex.seam.first_rank() + w, r.live)?;
    }
    let busy: Vec<Duration> = reports.iter().map(|r| r.busy).collect();
    let sort: Vec<Duration> = reports.iter().map(|r| r.sort).collect();
    result.absorb_phase(&busy, Some(&sort));
    Ok(())
}
