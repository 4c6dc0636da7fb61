//! Decision parity: planning from cached [`RelStats`](parjoin_core::order::RelStats)
//! decides exactly what planning from the raw tuples decided.
//!
//! For Q1–Q8 under all six shuffle × join configurations, the greedy
//! join order, the Tributary variable order and the plan the coordinator
//! ships must equal what the formulas this engine used before it kept
//! statistics return — a `project(&[c]).distinct()` count per column for
//! the join order, and the cost model built from the round-robin-seeded,
//! re-gathered relations for the variable order, priced per rank under a
//! HyperCube plan's shares (Q1's `(y, z, x)` at `1x2x2` is pinned). Both
//! are kept here as oracles. The sweep runs once on an empty
//! [`StatsCache`] and once on the cache it left behind.
//!
//! The advisor prices the regular-shuffle plan along that same greedy
//! order — the sweep checks [`Advice::rs_join_order`](parjoin_engine::Advice)
//! against the planned one and pins Q1–Q8's verdicts — and the tied
//! query at the end is one where a second, tie-break-free walk used to
//! price an order the executor does not run.
//!
//! This file holds a single `#[test]` on purpose: integration-test
//! binaries run per-process, so nothing else touches the global cache
//! while its counters are compared. (The advisor's parity test lives
//! beside its private estimate functions, in `advisor.rs`.)

use parjoin_common::{Database, Relation};
use parjoin_core::order::{best_order, OrderCostModel};
use parjoin_core::HcConfig;
use parjoin_datagen::{all_queries, Scale};
use parjoin_engine::plans::greedy_join_order;
use parjoin_engine::{
    advise, plan_fragments, Cluster, DistRel, JoinAlg, PlanOptions, ShuffleAlg, StatsCache,
    PAPER_CONFIGS,
};
use parjoin_query::{resolve_atoms, VarId};

/// Q1–Q8 at tiny scale (seed 42, 4 workers): the advisor's verdict and
/// its regular-shuffle estimate (network tuples, busiest worker), as
/// recorded before the estimate walked the planner's own order.
const ADVICE: [(&str, ShuffleAlg, JoinAlg, f64, f64); 8] = [
    (
        "Q1",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        6179.418685121107,
        3545.418685121107,
    ),
    (
        "Q2",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        8930.819982674515,
        3545.418685121107,
    ),
    (
        "Q3",
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        12385.182734124794,
        2049.75854214123,
    ),
    (
        "Q4",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        409658.06698802934,
        258520.17177162843,
    ),
    (
        "Q5",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        15161.202787322947,
        8981.78410220184,
    ),
    (
        "Q6",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        8051.872724048683,
        3545.418685121107,
    ),
    (
        "Q7",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        432.0,
        171.0,
    ),
    (
        "Q8",
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        54675.41354956093,
        34790.654539357165,
    ),
];

/// `A(x, y)`, `C(y, w)`, `B(y, z)`: after `A`, both extensions have
/// fanout 2.0 (`C` 8 rows over 4 keys, `B` 4 rows over 2), so the
/// planner's cardinality tie-break picks `B`, the later atom.
fn tied_fanouts() -> (parjoin_query::ConjunctiveQuery, Database) {
    let q =
        parjoin_query::parser::parse("T(x, w, z) :- A(x, y), C(y, w), B(y, z)").expect("parses");
    let mut db = Database::new();
    db.insert("A", Relation::from_rows(2, [[0u64, 0], [1, 1]].iter()));
    let c: Vec<[u64; 2]> = (0..8).map(|i| [i / 2, i]).collect();
    db.insert("C", Relation::from_rows(2, c.iter()));
    let b: Vec<[u64; 2]> = (0..4).map(|i| [i / 2, i]).collect();
    db.insert("B", Relation::from_rows(2, b.iter()));
    (q, db)
}

/// The greedy join order as the engine computed it from the tuples.
fn oracle_greedy(atoms: &[(Vec<VarId>, &Relation)]) -> Vec<usize> {
    let distinct: Vec<Vec<f64>> = atoms
        .iter()
        .map(|(vars, rel)| {
            (0..vars.len())
                .map(|c| rel.project(&[c]).distinct().len().max(1) as f64)
                .collect()
        })
        .collect();
    let card = |i: usize| atoms[i].1.len() as f64;

    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let first = *remaining
        .iter()
        .min_by(|&&a, &&b| card(a).total_cmp(&card(b)))
        .expect("at least one atom");
    let mut order = vec![first];
    remaining.retain(|&i| i != first);
    let mut bound: Vec<VarId> = atoms[first].0.clone();
    while !remaining.is_empty() {
        let score = |i: usize| -> f64 {
            let (vars, _) = &atoms[i];
            let shared_distinct: f64 = vars
                .iter()
                .enumerate()
                .filter(|(_, v)| bound.contains(v))
                .map(|(c, _)| distinct[i][c])
                .product();
            if shared_distinct <= 1.0 && !vars.iter().any(|v| bound.contains(v)) {
                f64::INFINITY
            } else {
                card(i) / shared_distinct
            }
        };
        let connected_exists = remaining
            .iter()
            .any(|&i| atoms[i].0.iter().any(|v| bound.contains(v)));
        let by_card = |a: &&usize, b: &&usize| card(**a).total_cmp(&card(**b));
        let next = if connected_exists {
            *remaining
                .iter()
                .min_by(|a, b| score(**a).total_cmp(&score(**b)).then(by_card(a, b)))
                .expect("non-empty")
        } else {
            *remaining.iter().min_by(by_card).expect("non-empty")
        };
        order.push(next);
        remaining.retain(|&i| i != next);
        for &v in &atoms[next].0 {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    order
}

/// The Tributary order as the engine derives it: the cost model over
/// the gathered round-robin placement, enumerated exhaustively, and
/// under a HyperCube plan's `shares` priced per rank.
fn oracle_tj_order(
    atoms: &[(Vec<VarId>, &Relation)],
    vars: &[VarId],
    workers: usize,
    shares: Option<&HcConfig>,
) -> Vec<VarId> {
    let gathered: Vec<Relation> = atoms
        .iter()
        .map(|(vs, rel)| DistRel::round_robin(rel, vs.clone(), workers).gather())
        .collect();
    let model_atoms: Vec<(&Relation, Vec<VarId>)> = gathered
        .iter()
        .zip(atoms)
        .map(|(rel, (vs, _))| (rel, vs.clone()))
        .collect();
    let model = OrderCostModel::from_atoms(&model_atoms);
    let model = match shares {
        Some(config) => model.per_rank(config),
        None => model,
    };
    best_order(&model, vars).0
}

#[test]
fn plans_from_cached_stats_decide_what_plans_from_tuples_decided() {
    let cluster = Cluster::new(4).with_seed(11);
    let addrs: Vec<String> = (0..4).map(|r| format!("127.0.0.1:{}", 9100 + r)).collect();
    let work: Vec<_> = all_queries()
        .into_iter()
        .map(|spec| {
            let db = Scale::tiny().db_for(spec.dataset, 42);
            (spec, db)
        })
        .collect();

    let cache = StatsCache::global();
    cache.clear();
    let mut advice_cold = Vec::new();
    for pass in ["cold", "warm"] {
        let before = cache.stats();
        for (spec, db) in &work {
            let (resolved, _) = resolve_atoms(&spec.query, db).expect("resolves");
            let shapes: Vec<(Vec<VarId>, &Relation)> = resolved
                .iter()
                .map(|a| (a.vars.clone(), a.rel.as_ref()))
                .collect();
            let want_join = oracle_greedy(&shapes);
            let vars = spec.query.all_vars();
            let want_tj = |shares: Option<&HcConfig>| {
                oracle_tj_order(&shapes, &vars, cluster.workers, shares)
            };
            assert_eq!(
                greedy_join_order(&shapes),
                want_join,
                "{pass} {}: greedy join order",
                spec.name
            );

            for (s, j) in PAPER_CONFIGS {
                let frags = plan_fragments(
                    &spec.query,
                    db,
                    &cluster,
                    s,
                    j,
                    &PlanOptions::default(),
                    &addrs,
                )
                .unwrap_or_else(|e| panic!("{pass} {} {s:?}/{j:?}: {e}", spec.name));
                // A HyperCube rank probes its share of every variable
                // and is priced per rank; a broadcast rank is not.
                let planned_tj = (j == JoinAlg::Tributary && s.is_one_round())
                    .then(|| want_tj(frags[0].hc_config.as_ref()));
                for f in &frags {
                    assert_eq!(
                        f.join_order, want_join,
                        "{pass} {} {s:?}/{j:?}: planned join order",
                        spec.name
                    );
                    assert_eq!(
                        f.tj_order, planned_tj,
                        "{pass} {} {s:?}/{j:?}: planned Tributary order",
                        spec.name
                    );
                }
                if (spec.name, s, j) == ("Q1", ShuffleAlg::HyperCube, JoinAlg::Tributary) {
                    // Q1's `x` is the one variable `1x2x2` leaves whole on
                    // every rank, so the per-rank order binds it last.
                    let f = &frags[0];
                    let names: Vec<&str> = (f.tj_order.iter().flatten())
                        .map(|&v| spec.query.var_name(v))
                        .collect();
                    let config = f.hc_config.as_ref().map(ToString::to_string);
                    assert_eq!(config.as_deref(), Some("1x2x2"), "{pass} Q1: shares");
                    assert_eq!(names, ["y", "z", "x"], "{pass} Q1: per-rank order");
                }
            }

            // The advisor reads the same cache: its verdict must not
            // depend on whether the numbers were just computed.
            let a = advise(&spec.query, db, &cluster);
            let verdict = (
                a.shuffle,
                a.join,
                a.estimates
                    .map(|e| (e.network_tuples.to_bits(), e.max_worker_tuples.to_bits())),
            );
            if pass == "cold" {
                advice_cold.push(verdict);
            } else {
                assert_eq!(verdict, advice_cold.remove(0), "{}: advice", spec.name);
            }
            // The regular-shuffle estimate prices the order a regular
            // plan runs, and doing so changed no verdict.
            assert_eq!(
                a.rs_join_order, want_join,
                "{pass} {}: priced order",
                spec.name
            );
            let rs = a.estimates[0];
            let got = (
                spec.name,
                a.shuffle,
                a.join,
                rs.network_tuples,
                rs.max_worker_tuples,
            );
            assert!(ADVICE.contains(&got), "{pass}: advice moved: {got:?}");

            // The cached numbers are the integers the old per-query
            // kernel (`AtomStats`: one project-sort-dedup per column
            // subset) counted.
            for (_, rel) in &shapes {
                let stats = cache.get_or_compute(rel).0;
                for mask in 1u32..(1 << rel.arity()) {
                    let cols: Vec<usize> =
                        (0..rel.arity()).filter(|&c| mask & (1 << c) != 0).collect();
                    assert_eq!(
                        stats.distinct(mask),
                        rel.project(&cols).distinct().len() as u64,
                        "{pass} {}: V(R, {cols:?})",
                        spec.name
                    );
                }
            }
        }
        let (q, db) = tied_fanouts();
        let a = advise(&q, &db, &cluster);
        let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
        let frags = plan_fragments(&q, &db, &cluster, s, j, &PlanOptions::default(), &addrs)
            .expect("plans");
        assert_eq!(
            frags[0].join_order,
            [0, 2, 1],
            "{pass}: cardinality breaks the tie"
        );
        assert_eq!(a.rs_join_order, frags[0].join_order, "{pass}: tied fanouts");

        let after = cache.stats();
        if pass == "cold" {
            assert!(after.misses > 0, "an empty cache must analyse");
            assert_eq!(after.entries, after.misses, "one entry per content");
        } else {
            assert_eq!(after.misses, before.misses, "a warm cache never analyses");
            assert!(after.hits > before.hits);
        }
    }
}
