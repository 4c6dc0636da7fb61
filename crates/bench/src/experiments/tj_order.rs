//! The §5 order model against counted probe work (ROADMAP item 2's
//! "model vs actual").
//!
//! For Q1, Q2, Q5, Q6 and Q7, every global variable order runs under
//! HyperCube + Tributary with the share configuration the planner picks,
//! one probe thread and exact counters. Each order gets both models'
//! predictions — the share-free Eq. 3–4 cost and the per-rank cost, which
//! divides each step by its variable's share — beside its counted work,
//! Σ `engine.probe.{steps,seeks}.l{d}` over all ranks. Per model the
//! table reports the Spearman correlation of prediction and count, and
//! the regret of the order it picks: that order's counted work over the
//! least counted work of any order. No timing enters: every number is
//! an exact count and repeats run to run.

use crate::experiments::six_configs::scale_for;
use crate::report::print_table;
use crate::Settings;
use parjoin_common::Relation;
use parjoin_core::order::{all_orders, best_order, OrderCostModel};
use parjoin_datagen::workloads;
use parjoin_engine::{
    metric_names, run_config, Cluster, JoinAlg, PlanOptions, RunResult, ShuffleAlg,
};
use parjoin_query::{resolve_atoms, VarId};

/// Per-worker memory budget (tuples) of every run. A sweep over orders
/// is a sweep over plans, and none of them may grow without bound.
pub const BUDGET_TUPLES: u64 = 4_000_000;

/// Counted probe work of a run: Σ `engine.probe.{steps,seeks}.l{d}`.
pub fn probe_work(r: &RunResult) -> u64 {
    (r.metrics.iter())
        .filter(|(n, _)| {
            n.starts_with(metric_names::PROBE_STEPS_PREFIX)
                || n.starts_with(metric_names::PROBE_SEEKS_PREFIX)
        })
        .map(|&(_, v)| v)
        .sum()
}

/// Ranks of `xs` from 1, ties sharing their average rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman's rank correlation of `xs` and `ys`: Pearson's over their
/// tie-averaged ranks. A constant series correlates 0.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = rx.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let cov: f64 = rx.iter().zip(&ry).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = rx.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ry.iter().map(|y| (y - my).powi(2)).sum();
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Runs the sweep over Q1, Q2, Q5, Q6 and Q7.
pub fn run(settings: &Settings) {
    println!("\n=== Tributary order: the §5 model vs counted probe work ===");
    let mut summary = Vec::new();
    for spec in [
        workloads::q1(),
        workloads::q2(),
        workloads::q5(),
        workloads::q6(),
        workloads::q7(),
    ] {
        let db = scale_for(spec.name, settings.scale).db_for(spec.dataset, settings.seed);
        let cluster = Cluster::new(settings.workers)
            .with_seed(settings.seed)
            .with_memory_budget(BUDGET_TUPLES);
        let run = |opts: PlanOptions| {
            let opts = PlanOptions {
                probe_threads: Some(1),
                ..opts
            };
            let r = run_config(
                &spec.query,
                &db,
                &cluster,
                ShuffleAlg::HyperCube,
                JoinAlg::Tributary,
                &opts,
            );
            // xtask: allow(panic): bench driver aborts on failure
            r.unwrap_or_else(|e| panic!("{} HC_TJ: {e}", spec.name))
        };
        let planned = run(PlanOptions::default());
        // xtask: allow(expect): a HyperCube run records its configuration
        let config = planned.hc_config.clone().expect("HC config");

        // xtask: allow(expect): bench driver aborts on failure
        let (resolved, _) = resolve_atoms(&spec.query, &db).expect("resolves");
        let atoms: Vec<(&Relation, Vec<VarId>)> = resolved
            .iter()
            .map(|a| (a.rel.as_ref(), a.vars.clone()))
            .collect();
        let free = OrderCostModel::from_atoms(&atoms);
        let per_rank = OrderCostModel::from_atoms(&atoms).per_rank(&config);
        let vars = spec.query.all_vars();
        let (free_pick, per_rank_pick) =
            (best_order(&free, &vars).0, best_order(&per_rank, &vars).0);

        let name = |o: &[VarId]| -> String {
            let names: Vec<&str> = o.iter().map(|&v| spec.query.var_name(v)).collect();
            format!("({})", names.join(", "))
        };
        let mut rows = Vec::new();
        let (mut est_free, mut est_rank, mut work) = (Vec::new(), Vec::new(), Vec::new());
        let orders = all_orders(&vars);
        for order in &orders {
            let r = run(PlanOptions {
                hc_config: Some(config.clone()),
                tj_order: Some(order.clone()),
                ..Default::default()
            });
            let w = probe_work(&r);
            if *order == per_rank_pick {
                assert_eq!(w, probe_work(&planned), "{}: planned order", spec.name);
            }
            let picked_by: Vec<&str> = [(&free_pick, "share-free"), (&per_rank_pick, "per-rank")]
                .into_iter()
                .filter(|(pick, _)| *pick == order)
                .map(|(_, model)| model)
                .collect();
            let (f, pr) = (free.cost(order), per_rank.cost(order));
            rows.push(vec![
                name(order),
                format!("{f:.1}"),
                format!("{pr:.1}"),
                w.to_string(),
                picked_by.join(", "),
            ]);
            est_free.push(f);
            est_rank.push(pr);
            work.push(w as f64);
        }
        print_table(
            &format!("{} under {config} at p = {}", spec.name, settings.workers),
            &[
                "order",
                "share-free est",
                "per-rank est",
                "steps + seeks",
                "picked by",
            ],
            &rows,
        );

        let least = work.iter().copied().fold(f64::INFINITY, f64::min).max(1.0);
        let regret = |pick: &[VarId]| {
            let i = (orders.iter())
                .position(|o| o == pick)
                // xtask: allow(expect): every pick is one of the orders
                .expect("picked order enumerated");
            work[i] / least
        };
        summary.push(vec![
            spec.name.to_string(),
            config.to_string(),
            work.len().to_string(),
            format!("{:.3}", spearman(&est_free, &work)),
            format!("{:.3}", spearman(&est_rank, &work)),
            format!("{:.3}", regret(&free_pick)),
            format!("{:.3}", regret(&per_rank_pick)),
        ]);
    }
    print_table(
        "model vs counted work (ρ: Spearman; regret: picked order's work / least work)",
        &[
            "query",
            "shares",
            "orders",
            "ρ share-free",
            "ρ per-rank",
            "regret share-free",
            "regret per-rank",
        ],
        &summary,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_reads_rank_agreement() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&xs, &[10.0, 20.0, 30.0, 400.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&xs, &[5.0; 4]), 0.0);
    }

    #[test]
    fn ties_share_their_average_rank() {
        assert_eq!(ranks(&[3.0, 1.0, 3.0, 2.0]), [3.5, 1.0, 3.5, 2.0]);
    }
}
