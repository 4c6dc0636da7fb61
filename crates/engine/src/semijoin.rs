//! Distributed semijoin reduction (paper §3.6, following GYM \[4\]).
//!
//! For acyclic queries, Yannakakis' algorithm removes all dangling tuples
//! with one bottom-up and one top-down pass of semijoins along a join
//! tree, then joins the reduced relations. Every relation here is
//! distributed, so each semijoin `R ⋉ S` costs *two* shuffles: the
//! deduplicated projection `S_A` of `S` onto the shared attributes, and
//! `R` itself — which is precisely why the paper found semijoins
//! unprofitable on its workload ("the cost of the semijoin is higher"
//! than in the classical two-site setting).
//!
//! Steps (paper's Q7 walkthrough):
//! 1. bottom-up: replace each parent `P` by `P ⋉ child`, children first;
//! 2. top-down: replace each child `C` by `C ⋉ parent`, root first;
//! 3. final join of the reduced relations with a regular-shuffle plan.

use crate::cluster::Cluster;
use crate::dist::DistRel;
use crate::error::EngineError;
use crate::exec::run_phase_traced;
use crate::local::SchemaRel;
use crate::plans::{
    plan_and_execute, start_runtime, Exec, JoinAlg, PlanOptions, RunObs, RunResult, ShuffleAlg,
};
use crate::probe;
use crate::shuffle::{self, Seam};
use parjoin_common::{Database, ShuffleStats};
use parjoin_query::hypergraph::gyo_join_tree;
use parjoin_query::{resolve_atoms, ConjunctiveQuery, VarId};

/// Extra metrics for the semijoin phase, alongside the final-join run.
#[derive(Debug, Clone)]
pub struct SemijoinResult {
    /// The complete run (semijoin shuffles + final join) — `tuples_shuffled`
    /// includes everything.
    pub run: RunResult,
    /// Tuples shuffled for the deduplicated key projections only (the
    /// paper reports these separately: "2.29 million tuples from the
    /// projected tables").
    pub projected_tuples_shuffled: u64,
    /// Tuples shuffled for the reduced input relations during semijoins.
    pub input_tuples_shuffled: u64,
    /// Per-atom tuple counts after full reduction.
    pub reduced_cards: Vec<u64>,
}

/// One distributed semijoin step: reduce `target` (consumed by its
/// shuffle) by `reducer` on their shared variables. Returns the reduced relation, the two shuffle stats
/// (projection, input), and the probe morsels and steals executed across
/// workers (the local semijoin filter runs morsel-parallel with work
/// stealing; see [`crate::probe`]).
fn distributed_semijoin(
    target: DistRel,
    reducer: &DistRel,
    cluster: &Cluster,
    label: &str,
    probe_threads: usize,
    obs: &RunObs,
    seam: &Seam<'_>,
) -> Result<(DistRel, ShuffleStats, ShuffleStats, u64, u64), EngineError> {
    let shared: Vec<VarId> = target
        .vars
        .iter()
        .copied()
        .filter(|v| reducer.vars.contains(v))
        .collect();

    // Local preprocessing: project the reducer onto the shared variables
    // and deduplicate locally (free: no network).
    let cols: Vec<usize> = shared.iter().map(|&v| reducer.col_of(v)).collect();
    let projected = DistRel {
        vars: shared.clone(),
        parts: reducer
            .parts
            .iter()
            .map(|p| p.project(&cols).distinct())
            .collect(),
    };

    // Shuffle both on the shared variables.
    let hash_on_shared = |d: DistRel, what: &str| {
        let router = shuffle::regular_router_for(&d.vars, &shared, cluster.seed, cluster.workers);
        shuffle::run_router(d, router, format!("{label}: {what}"), seam)
    };
    let (proj_s, stats_proj) = hash_on_shared(projected, "keys")?;
    let (tgt_s, stats_tgt) = hash_on_shared(target, "input")?;

    // Local semijoin (morsel-parallel over the target's rows).
    let seed = cluster.seed;
    // Both sides' partitions go to their worker by move.
    let side = |vars: &[VarId], rel| SchemaRel {
        vars: vars.to_vec(),
        rel,
    };
    let sides: Vec<(SchemaRel, SchemaRel)> = tgt_s
        .parts
        .into_iter()
        .zip(proj_s.parts)
        .map(|(t, r)| (side(&tgt_s.vars, t), side(&proj_s.vars, r)))
        .collect();
    let phase = run_phase_traced(cluster.workers, &obs.trace, "semijoin", |w, _lane| {
        let (t, r) = &sides[w];
        let (reduced, morsels, steals) = probe::semijoin_parallel(t, r, seed, probe_threads);
        (reduced.rel, morsels, steals)
    });
    let mut parts = Vec::with_capacity(cluster.workers);
    let mut morsels = 0u64;
    let mut steals = 0u64;
    for (rel, m, st) in phase.results {
        parts.push(rel);
        morsels += m;
        steals += st;
    }
    let reduced = DistRel {
        vars: tgt_s.vars,
        parts,
    };
    Ok((reduced, stats_proj, stats_tgt, morsels, steals))
}

/// Runs the full semijoin plan on an acyclic query.
///
/// # Errors
/// [`EngineError::Unsupported`] if the query is cyclic (no full semijoin
/// reduction exists, §3.6), plus the usual resolve/budget errors from the
/// final join.
pub fn run_semijoin_plan(
    query: &ConjunctiveQuery,
    db: &Database,
    cluster: &Cluster,
    opts: &PlanOptions,
) -> Result<SemijoinResult, EngineError> {
    let tree = gyo_join_tree(query).ok_or_else(|| {
        EngineError::Unsupported(format!(
            "query `{}` is cyclic; semijoin reduction does not terminate",
            query.name
        ))
    })?;
    let (resolved, _residual) = resolve_atoms(query, db)?;

    let mut dists: Vec<DistRel> = resolved
        .iter()
        .map(|a| DistRel::round_robin(&a.rel, a.vars.clone(), cluster.workers))
        .collect();

    let mut sj_rounds = Vec::new();
    let mut projected_tuples = 0u64;
    let mut input_tuples = 0u64;
    let mut sj_morsels = 0u64;
    let mut sj_steals = 0u64;
    let probe_threads = opts.effective_probe_threads(cluster.workers);
    // One runtime, one registry and one trace span the whole plan —
    // reduction passes and final join — so every shuffle moves through
    // the same seam and the exported metrics and chrome trace cover the
    // semijoin work too (the final join's legacy counters are folded into
    // `run` below, and we finalize after that fold).
    let obs = RunObs::new(opts.trace_path.is_some());
    let rt = start_runtime(cluster, &obs)?;
    let seam = Seam::from(rt.as_ref());

    // Bottom-up, children reduce parents; then top-down, parents reduce
    // children. Each step is `(target, reducer)`.
    let bottom_up = tree
        .bottom_up
        .iter()
        .filter_map(|&a| Some((tree.parent[a]?, a)));
    let top_down = tree.top_down().into_iter();
    let top_down = top_down.flat_map(|a| tree.children(a).into_iter().map(move |c| (c, a)));
    for (target, reducer) in bottom_up.chain(top_down) {
        let atoms = &query.atoms;
        let unreduced = std::mem::replace(&mut dists[target], DistRel::empty(Vec::new(), 0));
        let (reduced, sp, st, morsels, steals) = distributed_semijoin(
            unreduced,
            &dists[reducer],
            cluster,
            &format!("{} ⋉ {}", atoms[target].relation, atoms[reducer].relation),
            probe_threads,
            &obs,
            &seam,
        )?;
        projected_tuples += sp.tuples_sent;
        input_tuples += st.tuples_sent;
        sj_morsels += morsels;
        sj_steals += steals;
        sj_rounds.push([sp, st]);
        dists[target] = reduced;
    }
    // Final join: run the RS_HJ plan over a database of reduced relations.
    // Atom names must be unique in the temporary catalog (self-joins reuse
    // a base name but may now have different reductions).
    let mut reduced_db = Database::new();
    let mut final_query = query.clone();
    for (i, d) in dists.iter().enumerate() {
        let name = format!("__reduced_{i}_{}", query.atoms[i].relation);
        reduced_db.insert(name.clone(), d.gather());
        final_query.atoms[i].relation = name;
        // The reduced relations are variables-only (selections applied
        // during resolve); rewrite terms accordingly.
        final_query.atoms[i].terms = d
            .vars
            .iter()
            .map(|&v| parjoin_query::Term::Var(v))
            .collect();
    }
    // Single-variable filters were already applied during the original
    // resolve; drop them to avoid double application (harmless but noisy).
    let reduced_cards: Vec<u64> = dists.iter().map(|d| d.total_len()).collect();
    // Let run_config pick its fanout-aware greedy order over the reduced
    // relations.
    let ex = Exec {
        query: &final_query,
        cluster,
        opts,
        seam: &seam,
        obs: &obs,
    };
    let mut run = plan_and_execute(&ex, &reduced_db, ShuffleAlg::Regular, JoinAlg::Hash)?;
    if let Some(rt) = rt {
        rt.shutdown()?;
    }

    // Fold the semijoin steps into the run's totals: each is one extra
    // communication round of two parallel shuffles. They ran first, so
    // the final join's (already tallied) shuffles are re-appended after.
    let final_shuffles = std::mem::take(&mut run.shuffles);
    for round in sj_rounds {
        run.absorb_round(round, cluster);
    }
    run.shuffles.extend(final_shuffles);
    run.probe_morsels += sj_morsels;
    run.probe_steals += sj_steals;
    run.config = "SJ_HJ".into();
    // Finalize only now, with the semijoin shuffles and morsels folded
    // in, so the metric mirrors match the folded totals exactly.
    obs.finalize(&mut run);
    obs.write_trace(opts.trace_path.as_deref())?;

    Ok(SemijoinResult {
        run,
        projected_tuples_shuffled: projected_tuples,
        input_tuples_shuffled: input_tuples,
        reduced_cards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::run_config;
    use parjoin_common::Relation;
    use parjoin_query::QueryBuilder;

    fn path_query() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("P");
        let (x, y, z, w) = (b.var("x"), b.var("y"), b.var("z"), b.var("w"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, w]);
        b.build()
    }

    fn path_db() -> Database {
        let mut db = Database::new();
        // R has dangling tuples (y values 100+ never join S).
        let r = Relation::from_rows(
            2,
            (0..20u64)
                .map(|i| [i, if i < 10 { i } else { i + 100 }])
                .collect::<Vec<_>>()
                .iter(),
        );
        let s = Relation::from_rows(2, (0..10u64).map(|i| [i, i * 2]).collect::<Vec<_>>().iter());
        let t = Relation::from_rows(2, (0..20u64).map(|i| [i, i]).collect::<Vec<_>>().iter());
        db.insert("R", r);
        db.insert("S", s);
        db.insert("T", t);
        db
    }

    #[test]
    fn semijoin_matches_regular_plan() {
        let q = path_query();
        let db = path_db();
        let cluster = Cluster::new(4).with_seed(3);
        let opts = PlanOptions {
            collect_output: true,
            ..Default::default()
        };
        let sj = run_semijoin_plan(&q, &db, &cluster, &opts).expect("acyclic");
        let rs =
            run_config(&q, &db, &cluster, ShuffleAlg::Regular, JoinAlg::Hash, &opts).expect("plan");
        let mut a: Vec<Vec<u64>> = sj.run.output.unwrap().rows().map(|r| r.to_vec()).collect();
        let mut b: Vec<Vec<u64>> = rs.output.unwrap().rows().map(|r| r.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn reduction_removes_dangling_tuples() {
        let q = path_query();
        let db = path_db();
        let cluster = Cluster::new(4);
        let sj = run_semijoin_plan(&q, &db, &cluster, &PlanOptions::default()).unwrap();
        // R had 20 tuples, 10 of which dangle.
        assert_eq!(sj.reduced_cards[0], 10);
        // T keeps only z values reachable as 2·y for y<10 and y=x<20 …
        assert!(sj.reduced_cards[2] <= 10);
        assert!(sj.projected_tuples_shuffled > 0);
        assert!(sj.input_tuples_shuffled > 0);
    }

    #[test]
    fn cyclic_query_rejected() {
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        let q = b.build();
        let db = path_db();
        let err =
            run_semijoin_plan(&q, &db, &Cluster::new(2), &PlanOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn shuffle_accounting_includes_semijoins() {
        let q = path_query();
        let db = path_db();
        let cluster = Cluster::new(4);
        let sj = run_semijoin_plan(&q, &db, &cluster, &PlanOptions::default()).unwrap();
        assert_eq!(
            sj.run.tuples_shuffled,
            sj.run.shuffles.iter().map(|s| s.tuples_sent).sum::<u64>()
        );
        assert!(sj.run.tuples_shuffled >= sj.projected_tuples_shuffled + sj.input_tuples_shuffled);
    }
}
