//! Sensitivity analyses for the simulator's two main modelling knobs:
//!
//! 1. **Per-tuple shuffle cost** — the paper's wall-clock numbers embed a
//!    real network; our simulator charges a configurable per-tuple cost.
//!    Sweeping it shows where the plan ranking flips: at zero cost the
//!    comparison is pure compute (shuffle volume is free, broadcast looks
//!    cheap); at realistic costs the paper's ordering emerges.
//! 2. **Data skew** — rerunning Q1 on a preferential-attachment graph
//!    *without* the celebrity layer shows how much of the regular
//!    shuffle's disadvantage is skew rather than volume (the paper's
//!    claim that HyperCube "is more resilient to data skew").

use crate::report::print_table;
use crate::Settings;
use parjoin_common::Database;
use parjoin_datagen::graph;
use parjoin_engine::{run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg};
use std::time::Duration;

fn wall(db: &Database, cluster: &Cluster, s: ShuffleAlg, j: JoinAlg) -> f64 {
    let spec = parjoin_datagen::workloads::q1();
    run_config(&spec.query, db, cluster, s, j, &PlanOptions::default())
        .expect("plan runs") // xtask: allow(expect): bench driver aborts on failure
        .wall
        .as_secs_f64()
}

/// Sweeps the per-tuple shuffle cost on Q1.
pub fn tuple_cost(settings: &Settings) {
    println!("\n=== Sensitivity: per-tuple shuffle cost (Q1) ===");
    let db = settings.scale.twitter_db(settings.seed);
    let mut rows = Vec::new();
    for ns in [0u64, 100, 500, 2_000] {
        let cluster = Cluster::new(settings.workers)
            .with_seed(settings.seed)
            .with_shuffle_tuple_cost(Duration::from_nanos(ns));
        rows.push(vec![
            format!("{ns} ns"),
            format!(
                "{:.4}s",
                wall(&db, &cluster, ShuffleAlg::Regular, JoinAlg::Hash)
            ),
            format!(
                "{:.4}s",
                wall(&db, &cluster, ShuffleAlg::Broadcast, JoinAlg::Hash)
            ),
            format!(
                "{:.4}s",
                wall(&db, &cluster, ShuffleAlg::HyperCube, JoinAlg::Tributary)
            ),
        ]);
    }
    print_table(
        "Q1 wall clock vs modeled network cost",
        &["tuple cost", "RS_HJ", "BR_HJ", "HC_TJ"],
        &rows,
    );
    println!(
        "    (HC_TJ wins at every setting; the RS/BR ordering flips once the\n     \
         network is priced — exactly the trade the paper describes for Q1.)"
    );
}

/// Compares Q1 on graphs with and without the celebrity skew layer.
pub fn data_skew(settings: &Settings) {
    println!("\n=== Sensitivity: degree skew (Q1, with vs without celebrities) ===");
    let cluster = Cluster::new(settings.workers).with_seed(settings.seed);
    let scale = settings.scale;
    let with = scale.twitter_db(settings.seed);
    let mut without = Database::new();
    without.insert(
        "Twitter",
        graph::preferential_attachment(scale.twitter_nodes, scale.twitter_m, settings.seed),
    );
    let mut rows = Vec::new();
    for (name, db) in [("celebrity graph", &with), ("plain PA graph", &without)] {
        let rs = wall(db, &cluster, ShuffleAlg::Regular, JoinAlg::Hash);
        let hc = wall(db, &cluster, ShuffleAlg::HyperCube, JoinAlg::Tributary);
        rows.push(vec![
            name.to_string(),
            format!("{:.4}s", rs),
            format!("{:.4}s", hc),
            format!("{:.1}x", rs / hc.max(1e-12)),
        ]);
    }
    print_table(
        "Q1 wall clock: RS_HJ vs HC_TJ",
        &["graph", "RS_HJ", "HC_TJ", "RS/HC"],
        &rows,
    );
    println!(
        "    (the RS/HC gap shrinks without the hot hubs: part of HyperCube's\n     \
         advantage is volume, the rest is skew resilience — §2.1's analysis.)"
    );
}

/// Runs both sensitivity analyses.
pub fn run(settings: &Settings) {
    tuple_cost(settings);
    data_skew(settings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_datagen::Scale;

    #[test]
    fn smoke() {
        run(&Settings {
            scale: Scale::tiny(),
            workers: 8,
            seed: 1,
        });
    }

    /// The most tuples any one worker received over a run's shuffles:
    /// the counted work behind the plan's straggler, which no host
    /// stall can move.
    fn max_load(db: &Database, cluster: &Cluster, s: ShuffleAlg, j: JoinAlg) -> u64 {
        let spec = parjoin_datagen::workloads::q1();
        let r =
            run_config(&spec.query, db, cluster, s, j, &PlanOptions::default()).expect("plan runs");
        let mut load = vec![0u64; cluster.workers];
        for shuffle in &r.shuffles {
            for (w, &c) in shuffle.per_consumer.iter().enumerate() {
                load[w] += c;
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn skew_widens_the_gap() {
        // With celebrities, the RS/HC ratio of the max per-worker load
        // must exceed the plain-PA ratio at the same scale.
        let settings = Settings {
            scale: Scale::small(),
            workers: 64,
            seed: 42,
        };
        let cluster = Cluster::new(settings.workers).with_seed(settings.seed);
        let with = settings.scale.twitter_db(settings.seed);
        let mut without = Database::new();
        without.insert(
            "Twitter",
            graph::preferential_attachment(
                settings.scale.twitter_nodes,
                settings.scale.twitter_m,
                settings.seed,
            ),
        );
        let ratio = |db: &Database| {
            let rs = max_load(db, &cluster, ShuffleAlg::Regular, JoinAlg::Hash);
            let hc = max_load(db, &cluster, ShuffleAlg::HyperCube, JoinAlg::Tributary);
            rs as f64 / hc.max(1) as f64
        };
        let (with, without) = (ratio(&with), ratio(&without));
        assert!(
            with > without,
            "celebrities must widen the RS/HC gap: {with:.2} vs {without:.2}"
        );
    }
}
