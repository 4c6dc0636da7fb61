//! A cost-based plan advisor.
//!
//! The paper's summary is that *"there is no overall best query plan"*:
//! regular shuffles win when intermediates are small and skew is mild
//! (Q3), HyperCube+Tributary wins when intermediates blow up or skew
//! bites (Q1/Q2/Q4/Q5/Q6), and broadcast wins when the replication factor
//! of a high-dimensional cube gets too large (Q4 in the paper). This
//! module turns that analysis into an optimizer: it estimates, per
//! configuration, the network volume and the busiest worker's load from
//! the same statistics the share optimizer and the §5 cost model already
//! use — each relation's cached [`RelStats`] — and picks the cheapest
//! plan.
//!
//! Estimates (all in tuples):
//!
//! * **RS** — walk the join order the executor will run
//!   ([`plans::greedy_join_order`](crate::plans::greedy_join_order)'s,
//!   tie-breaks included), estimating each intermediate as
//!   `|cur| · |atom| / V(atom, key)`; network = inputs +
//!   intermediates (each step reshuffles both); the busiest worker's
//!   share of each shuffled relation is `1/p` inflated by a skew factor
//!   estimated from the hashed key's hottest value.
//! * **BR** — network = (Σ non-largest atoms) · p; every worker holds all
//!   broadcast atoms plus `1/p` of the largest.
//! * **HC** — Algorithm 1's own objective: the expected per-worker
//!   workload of the optimal integral configuration, plus its exact
//!   replication volume.

use crate::cluster::Cluster;
use crate::plans::{greedy_order, JoinAlg, ShuffleAlg};
use crate::statscache;
use parjoin_common::Database;
use parjoin_core::hypercube::{AtomShape, ShareProblem};
use parjoin_core::order::RelStats;
use parjoin_query::{resolve_atoms, ConjunctiveQuery, VarId};

/// The advisor's verdict: a configuration plus its cost estimates.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Chosen shuffle algorithm.
    pub shuffle: ShuffleAlg,
    /// Chosen local join algorithm.
    pub join: JoinAlg,
    /// Estimated cost (see [`PlanEstimate`]) per shuffle algorithm, in
    /// the order `[Regular, Broadcast, HyperCube]`.
    pub estimates: [PlanEstimate; 3],
    /// The left-deep join order (atom indices) the `Regular` estimate
    /// priced: the one a regular-shuffle plan of this query runs.
    pub rs_join_order: Vec<usize>,
}

/// Cost estimate for one shuffle strategy.
#[derive(Debug, Clone, Copy)]
pub struct PlanEstimate {
    /// Estimated total tuples placed on the network.
    pub network_tuples: f64,
    /// Estimated tuples handled by the busiest worker.
    pub max_worker_tuples: f64,
}

impl PlanEstimate {
    /// The scalar objective: the busiest worker's send/receive/compute
    /// load dominates a one-round plan's latency (§4), and the network
    /// volume amortized over workers approximates everyone's
    /// serialization work.
    fn cost(&self, workers: usize) -> f64 {
        self.max_worker_tuples + self.network_tuples / workers as f64
    }
}

/// Per-atom statistics the estimates need.
struct AtomInfo {
    vars: Vec<VarId>,
    card: f64,
    /// Distinct count per column.
    distinct: Vec<f64>,
    /// Hottest value frequency per column.
    top_freq: Vec<f64>,
}

impl AtomInfo {
    fn new(vars: &[VarId], stats: &RelStats) -> AtomInfo {
        let columns = stats.columns();
        AtomInfo {
            vars: vars.to_vec(),
            card: stats.cardinality() as f64,
            distinct: columns.iter().map(|c| c.distinct.max(1) as f64).collect(),
            top_freq: columns.iter().map(|c| c.top_freq as f64).collect(),
        }
    }
}

/// Estimates the regular-shuffle plan by walking `order`, the left-deep
/// join order the executor runs.
fn estimate_rs(atoms: &[AtomInfo], order: &[usize], workers: usize) -> PlanEstimate {
    let first = &atoms[order[0]];
    let mut bound: Vec<VarId> = first.vars.clone();
    let mut cur_size = first.card;

    let mut network = cur_size;
    let mut max_worker = cur_size / workers as f64;

    for &next in &order[1..] {
        let a = &atoms[next];

        // Shuffle both sides on (one of) the shared variables.
        let shared_cols: Vec<usize> = a
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| bound.contains(v))
            .map(|(c, _)| c)
            .collect();
        network += cur_size + a.card;
        // Skew factor of the hashed single attribute: the hottest key's
        // frequency relative to the average key (capped at p — one worker
        // can at most receive everything). A power-law hub makes this
        // large; near-unique keys give ≈ 1.
        let skew = shared_cols
            .last()
            .map(|&c| {
                let avg_freq = (a.card / a.distinct[c]).max(1.0);
                (a.top_freq[c] / avg_freq).clamp(1.0, workers as f64)
            })
            .unwrap_or(1.0);
        max_worker = max_worker.max((cur_size + a.card) / workers as f64 * skew);

        // Estimated join output.
        let fanout: f64 = if shared_cols.is_empty() {
            a.card // cartesian: degenerate
        } else {
            let shared_distinct: f64 = shared_cols.iter().map(|&c| a.distinct[c]).product();
            a.card / shared_distinct.max(1.0)
        };
        cur_size *= fanout;
        for &v in &a.vars {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        // The output is reshuffled at the next step (or projected at the
        // end); its production concentrates on the worker holding the hot
        // key ("the skew factors are multiplied", §3.1).
        max_worker = max_worker.max(cur_size / workers as f64 * skew);
    }
    PlanEstimate {
        network_tuples: network,
        max_worker_tuples: max_worker,
    }
}

fn estimate_br(atoms: &[AtomInfo], workers: usize) -> PlanEstimate {
    let largest = atoms.iter().map(|a| a.card).fold(0.0f64, f64::max);
    let total: f64 = atoms.iter().map(|a| a.card).sum();
    let broadcast = total - largest;
    PlanEstimate {
        network_tuples: broadcast * workers as f64,
        max_worker_tuples: broadcast + largest / workers as f64,
    }
}

fn estimate_hc(query: &ConjunctiveQuery, atoms: &[AtomInfo], workers: usize) -> PlanEstimate {
    let problem = ShareProblem {
        vars: query.all_vars(),
        atoms: atoms
            .iter()
            .map(|a| AtomShape {
                vars: a.vars.clone(),
                cardinality: a.card as u64,
            })
            .collect(),
    };
    let config = problem.optimize(workers);
    PlanEstimate {
        network_tuples: config.expected_tuples_shuffled(&problem),
        max_worker_tuples: config.workload(&problem),
    }
}

/// Chooses a configuration for `query` on `db`.
///
/// The join algorithm follows the paper's findings: one-round plans pair
/// with the Tributary join (it needs all inputs co-located and beats a
/// local hash tree on multi-join queries), while regular-shuffle plans
/// pair with pipelined hash joins (the blocking sort-merge variant risks
/// memory blow-ups — Figure 9's FAIL — and rarely wins).
///
/// # Panics
/// Panics if the query does not resolve against `db` (missing relations).
pub fn advise(query: &ConjunctiveQuery, db: &Database, cluster: &Cluster) -> Advice {
    // Documented API contract (see `# Panics`). xtask: allow(expect)
    let (resolved, _) = resolve_atoms(query, db).expect("query resolves against catalog");
    let stats = statscache::query_stats(resolved.iter().map(|a| a.rel.as_ref())).stats;
    let infos: Vec<AtomInfo> = resolved
        .iter()
        .zip(&stats)
        .map(|(a, s)| AtomInfo::new(&a.vars, s))
        .collect();
    let atom_vars: Vec<Vec<VarId>> = resolved.iter().map(|a| a.vars.clone()).collect();
    let order = greedy_order(&atom_vars, &stats);
    advise_from(query, &infos, order, cluster.workers)
}

/// The verdict, as arithmetic over the atoms' statistics and the
/// regular-shuffle plan's join order.
fn advise_from(
    query: &ConjunctiveQuery,
    infos: &[AtomInfo],
    rs_join_order: Vec<usize>,
    workers: usize,
) -> Advice {
    let rs = estimate_rs(infos, &rs_join_order, workers);
    let br = estimate_br(infos, workers);
    let hc = estimate_hc(query, infos, workers);
    let estimates = [rs, br, hc];

    let algs = [
        ShuffleAlg::Regular,
        ShuffleAlg::Broadcast,
        ShuffleAlg::HyperCube,
    ];
    let best = (0..3)
        .min_by(|&a, &b| {
            estimates[a]
                .cost(workers)
                .total_cmp(&estimates[b].cost(workers))
        })
        // The range 0..3 is never empty. xtask: allow(expect)
        .expect("three candidates");
    let shuffle = algs[best];
    let join = match shuffle {
        ShuffleAlg::Regular => {
            if query.atoms.len() <= 2 {
                JoinAlg::Tributary // a single merge join is fine
            } else {
                JoinAlg::Hash
            }
        }
        _ => JoinAlg::Tributary,
    };
    Advice {
        shuffle,
        join,
        estimates,
        rs_join_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_datagen::{workloads, Scale};

    #[test]
    fn triangle_on_skewed_graph_prefers_hypercube() {
        let spec = workloads::q1();
        let db = Scale::small().twitter_db(42);
        let advice = advise(&spec.query, &db, &Cluster::new(64));
        assert_eq!(
            advice.shuffle,
            ShuffleAlg::HyperCube,
            "{:?}",
            advice.estimates
        );
        assert_eq!(advice.join, JoinAlg::Tributary);
    }

    #[test]
    fn selective_acyclic_query_prefers_regular() {
        // Q3: tiny selections keep every intermediate small.
        let spec = workloads::q3();
        let db = Scale::small().freebase_db(42);
        let advice = advise(&spec.query, &db, &Cluster::new(64));
        assert_eq!(
            advice.shuffle,
            ShuffleAlg::Regular,
            "{:?}",
            advice.estimates
        );
    }

    /// Per-atom statistics as the advisor counted them from the tuples,
    /// on every call, before it read the StatsCache.
    fn atom_info_from_tuples(rel: &parjoin_common::Relation, vars: &[VarId]) -> AtomInfo {
        let mut distinct = Vec::with_capacity(vars.len());
        let mut top_freq = Vec::with_capacity(vars.len());
        for c in 0..rel.arity() {
            let mut sorted = rel.project(&[c]);
            sorted.sort_lex();
            let mut best = 0u64;
            let mut run = 0u64;
            let mut prev: Option<u64> = None;
            let mut d = 0u64;
            for row in sorted.rows() {
                if prev == Some(row[0]) {
                    run += 1;
                } else {
                    d += 1;
                    run = 1;
                    prev = Some(row[0]);
                }
                best = best.max(run);
            }
            distinct.push(d.max(1) as f64);
            top_freq.push(best as f64);
        }
        AtomInfo {
            vars: vars.to_vec(),
            card: rel.len() as f64,
            distinct,
            top_freq,
        }
    }

    #[test]
    fn advice_from_cached_stats_is_the_advice_from_tuples() {
        let bits = |a: &Advice| {
            a.estimates
                .map(|e| (e.network_tuples.to_bits(), e.max_worker_tuples.to_bits()))
        };
        for spec in parjoin_datagen::all_queries() {
            let db = Scale::tiny().db_for(spec.dataset, 42);
            let cluster = Cluster::new(16);
            let (resolved, _) = resolve_atoms(&spec.query, &db).expect("resolves");
            let infos: Vec<AtomInfo> = resolved
                .iter()
                .map(|a| atom_info_from_tuples(a.rel.as_ref(), &a.vars))
                .collect();
            let shapes: Vec<_> = resolved
                .iter()
                .map(|a| (a.vars.clone(), a.rel.as_ref()))
                .collect();
            let order = crate::plans::greedy_join_order(&shapes);
            let want = advise_from(&spec.query, &infos, order, cluster.workers);
            // Twice: the first call may analyse, the second cannot.
            for _ in 0..2 {
                let got = advise(&spec.query, &db, &cluster);
                assert_eq!(
                    (got.shuffle, got.join, bits(&got)),
                    (want.shuffle, want.join, bits(&want)),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        for spec in parjoin_datagen::all_queries() {
            let db = Scale::tiny().db_for(spec.dataset, 3);
            let advice = advise(&spec.query, &db, &Cluster::new(16));
            for e in &advice.estimates {
                assert!(e.network_tuples.is_finite() && e.network_tuples >= 0.0);
                assert!(e.max_worker_tuples.is_finite() && e.max_worker_tuples >= 0.0);
            }
        }
    }

    #[test]
    fn advice_is_never_catastrophic() {
        // The advisor's pick must be within a small factor of the best
        // measured configuration for every workload query.
        use crate::plans::{run_config, PlanOptions};
        let scale = Scale {
            twitter_nodes: 300,
            twitter_m: 3,
            freebase_performances: 250,
        };
        for spec in parjoin_datagen::all_queries() {
            let db = scale.db_for(spec.dataset, 7);
            let cluster = Cluster::new(8).with_seed(7);
            let advice = advise(&spec.query, &db, &cluster);
            let run = |s, j| {
                run_config(&spec.query, &db, &cluster, s, j, &PlanOptions::default())
                    .expect("runs")
                    .wall
                    .as_secs_f64()
            };
            let picked = run(advice.shuffle, advice.join);
            let candidates = [
                run(ShuffleAlg::Regular, JoinAlg::Hash),
                run(ShuffleAlg::Broadcast, JoinAlg::Tributary),
                run(ShuffleAlg::HyperCube, JoinAlg::Tributary),
            ];
            let best = candidates.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(
                picked <= best * 6.0 + 2e-3,
                "{}: picked {picked:.5}s vs best {best:.5}s",
                spec.name
            );
        }
    }
}
