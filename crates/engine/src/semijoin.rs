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
//!
//! This module is the reduction half of [`ShuffleAlg::Semijoin`]: the
//! planner plans an SJ plan exactly like the regular-shuffle plan it
//! ends in, and `plans::run_regular` calls [`reduce`] on the seeded
//! partitions before its join loop. The join tree is a pure function of
//! the query, so every rank of a mesh derives the same rounds.
//!
//! [`ShuffleAlg::Semijoin`]: crate::ShuffleAlg::Semijoin

use crate::dist::DistRel;
use crate::error::EngineError;
use crate::exec::run_phase_traced;
use crate::local::SchemaRel;
use crate::plans::{metric_names, Exec, RunResult};
use crate::probe;
use crate::shuffle;
use parjoin_query::hypergraph::{gyo_join_tree, JoinTree};
use parjoin_query::{ConjunctiveQuery, VarId};

/// The GYM join tree the reductions follow, or the typed refusal a
/// cyclic query gets: no full semijoin reduction exists for it (§3.6).
pub(crate) fn reduction_tree(query: &ConjunctiveQuery) -> Result<JoinTree, EngineError> {
    gyo_join_tree(query).ok_or_else(|| {
        EngineError::Unsupported(format!(
            "query `{}` is cyclic; semijoin reduction does not terminate",
            query.name
        ))
    })
}

/// Runs the reduction rounds over the hosted partitions `dists` (one per
/// atom) and returns the reduced relations: bottom-up, children reduce
/// parents; then top-down, parents reduce children. Each step is one
/// communication round of two shuffles and one local semijoin phase,
/// both booked into `result` in order.
///
/// # Errors
/// [`EngineError::Unsupported`] for a cyclic query (see
/// [`reduction_tree`]) and [`EngineError::Transport`] when an exchange
/// fails.
pub(crate) fn reduce(
    ex: &Exec<'_>,
    mut dists: Vec<DistRel>,
    probe_threads: usize,
    result: &mut RunResult,
) -> Result<Vec<DistRel>, EngineError> {
    let tree = reduction_tree(ex.query)?;
    // Each step is `(target, reducer)`.
    let bottom_up = tree
        .bottom_up
        .iter()
        .filter_map(|&a| Some((tree.parent[a]?, a)));
    let top_down = tree.top_down().into_iter();
    let top_down = top_down.flat_map(|a| tree.children(a).into_iter().map(move |c| (c, a)));
    for (target, reducer) in bottom_up.chain(top_down) {
        let atoms = &ex.query.atoms;
        let label = format!("{} ⋉ {}", atoms[target].relation, atoms[reducer].relation);
        let unreduced = std::mem::replace(&mut dists[target], DistRel::empty(Vec::new(), 0));
        dists[target] = distributed_semijoin(
            unreduced,
            &dists[reducer],
            &label,
            probe_threads,
            ex,
            result,
        )?;
    }
    Ok(dists)
}

/// One distributed semijoin step: reduce `target` (consumed by its
/// shuffle) by `reducer` on their shared variables, booking the round's
/// two shuffles (projection, input) and the local semijoin's busy time
/// into `result`. The local semijoin filter runs morsel-parallel with
/// work stealing (see [`crate::probe`]); its morsels and steals are
/// counted into the run's registry.
fn distributed_semijoin(
    target: DistRel,
    reducer: &DistRel,
    label: &str,
    probe_threads: usize,
    ex: &Exec<'_>,
    result: &mut RunResult,
) -> Result<DistRel, EngineError> {
    let (cluster, obs) = (ex.cluster, ex.obs);
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
        let route = shuffle::regular_route(&d.vars, &shared, cluster.seed, cluster.workers)?;
        shuffle::run_route(d, &route, format!("{label}: {what}"), ex.seam)
    };
    let (proj_s, stats_proj) = hash_on_shared(projected, "keys")?;
    let (tgt_s, stats_tgt) = hash_on_shared(target, "input")?;
    obs.registry
        .add(metric_names::SEMIJOIN_KEY_TUPLES, stats_proj.tuples_sent);
    obs.registry
        .add(metric_names::SEMIJOIN_INPUT_TUPLES, stats_tgt.tuples_sent);
    result.absorb_round([stats_proj, stats_tgt], cluster);

    #[cfg(feature = "strict-invariants")]
    crate::strict::assert_colocated(&tgt_s, &proj_s, &shared, "semijoin reduction");

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
    let phase = run_phase_traced(sides.len(), &obs.trace, "semijoin", |w, _lane| {
        let (t, r) = &sides[w];
        let (reduced, morsels, steals) = probe::semijoin_parallel(t, r, seed, probe_threads);
        obs.count_probe(morsels, steals);
        reduced.rel
    });
    result.absorb_phase(&phase.busy, None);
    Ok(DistRel {
        vars: tgt_s.vars,
        parts: phase.results,
    })
}

#[cfg(test)]
mod tests {
    use crate::plans::{metric_names, run_config, RunResult};
    use crate::{Cluster, EngineError, JoinAlg, PlanOptions, ShuffleAlg};
    use parjoin_common::{Database, Relation};
    use parjoin_query::{ConjunctiveQuery, QueryBuilder};

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

    fn run_sj(q: &ConjunctiveQuery, cluster: &Cluster, opts: &PlanOptions) -> RunResult {
        let (s, j) = (ShuffleAlg::Semijoin, JoinAlg::Hash);
        run_config(q, &path_db(), cluster, s, j, opts).expect("acyclic")
    }

    #[test]
    fn semijoin_matches_regular_plan() {
        let q = path_query();
        let cluster = Cluster::new(4).with_seed(3);
        let opts = PlanOptions {
            collect_output: true,
            ..Default::default()
        };
        let sj = run_sj(&q, &cluster, &opts);
        assert_eq!(sj.config, "SJ_HJ");
        let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
        let rs = run_config(&q, &path_db(), &cluster, s, j, &opts).expect("plan");
        let mut a: Vec<Vec<u64>> = sj.output.unwrap().rows().map(|r| r.to_vec()).collect();
        let mut b: Vec<Vec<u64>> = rs.output.unwrap().rows().map(|r| r.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn reduction_removes_dangling_tuples() {
        let sj = run_sj(&path_query(), &Cluster::new(4), &PlanOptions::default());
        // An atom's first final-join shuffle is a hash route: it sends
        // every reduced tuple exactly once.
        let reduced = |rel: &str| {
            let prefix = format!("{rel} ->h(");
            let first = sj.shuffles.iter().find(|s| s.label.starts_with(&prefix));
            first.map(|s| s.tuples_sent).expect("atom shuffled")
        };
        // R had 20 tuples, 10 of which dangle.
        assert_eq!(reduced("R"), 10);
        // T keeps only z values reachable as 2·y for y<10 and y=x<20 …
        assert!(reduced("T") <= 10);
        assert!(sj.metric(metric_names::SEMIJOIN_KEY_TUPLES) > Some(0));
        assert!(sj.metric(metric_names::SEMIJOIN_INPUT_TUPLES) > Some(0));
    }

    #[test]
    fn cyclic_query_rejected() {
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        let q = b.build();
        for j in JoinAlg::ALL {
            let (c, opts) = (Cluster::new(2), PlanOptions::default());
            let err = run_config(&q, &path_db(), &c, ShuffleAlg::Semijoin, j, &opts).unwrap_err();
            assert!(matches!(err, EngineError::Unsupported(_)), "{j:?}: {err:?}");
        }
    }

    #[test]
    fn shuffle_accounting_includes_semijoins() {
        let q = path_query();
        let cluster = Cluster::new(4);
        let sj = run_sj(&q, &cluster, &PlanOptions::default());
        assert_eq!(
            sj.tuples_shuffled,
            sj.shuffles.iter().map(|s| s.tuples_sent).sum::<u64>()
        );
        let tally = |name| sj.metric(name).unwrap_or(0);
        let reductions =
            tally(metric_names::SEMIJOIN_KEY_TUPLES) + tally(metric_names::SEMIJOIN_INPUT_TUPLES);
        assert!(sj.tuples_shuffled >= reductions);

        // Every probe operation counts at least one morsel per worker:
        // each reduction step (two shuffles labelled `T ⋉ R: …`) and each
        // of the final join's binary joins.
        let workers = cluster.workers as u64;
        let steps = sj.shuffles.iter().filter(|s| s.label.contains('⋉')).count() as u64 / 2;
        let joins = q.atoms.len() as u64 - 1;
        assert_eq!(steps, 4, "two tree edges, reduced bottom-up then top-down");
        assert!(
            sj.probe_morsels >= (steps + joins) * workers,
            "{} morsels for {steps} reduction steps and {joins} joins on {workers} workers",
            sj.probe_morsels
        );
        assert_eq!(
            sj.metric(metric_names::PROBE_MORSELS),
            Some(sj.probe_morsels)
        );
    }
}
