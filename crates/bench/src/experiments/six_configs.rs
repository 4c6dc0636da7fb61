//! The six shuffle×join configuration experiments — Figures 3, 4, 6, 9,
//! 13, 14, 15 and 17: for one query, run `RS_HJ, RS_TJ, BR_HJ, BR_TJ,
//! HC_HJ, HC_TJ` and print the paper's three panels (wall clock, total
//! CPU, tuples shuffled).

use crate::report::{print_bars, secs, Bar, Json};
use crate::Settings;
use parjoin_common::Database;
use parjoin_datagen::{DatasetKind, QuerySpec, Scale};
use parjoin_engine::{
    config_name, run_config, Cluster, EngineError, JoinAlg, PlanOptions, RunResult, ShuffleAlg,
    PAPER_CONFIGS,
};

/// Runs all six configurations, in the paper's order, each result under
/// its configuration name.
pub fn run_six(
    spec: &QuerySpec,
    db: &Database,
    cluster: &Cluster,
) -> Vec<(String, Result<RunResult, EngineError>)> {
    PAPER_CONFIGS
        .into_iter()
        .map(|(s, j)| {
            (
                config_name(s, j),
                run_config(&spec.query, db, cluster, s, j, &PlanOptions::default()),
            )
        })
        .collect()
}

/// Per-query scale overrides: the explosive regular-shuffle plans (Q4's
/// 13.9-billion-tuple intermediate in the paper) need smaller inputs to
/// terminate on one machine. EXPERIMENTS.md records the scale per figure.
pub fn scale_for(spec_name: &str, base: Scale) -> Scale {
    match spec_name {
        "Q4" => Scale {
            freebase_performances: 2_500,
            ..base
        },
        "Q5" | "Q6" => Scale {
            twitter_nodes: base.twitter_nodes.min(2_000),
            twitter_m: base.twitter_m.min(4),
            ..base
        },
        _ => base,
    }
}

/// Runs one figure: the six configurations on `spec`, with the paper's
/// three panels. `fail_budget` optionally sets a per-worker memory budget
/// so that over-materializing plans FAIL as in Figure 9.
pub fn figure(
    title: &str,
    spec: &QuerySpec,
    settings: &Settings,
    fail_budget: Option<u64>,
) -> Vec<(String, Result<RunResult, EngineError>)> {
    let scale = scale_for(spec.name, settings.scale);
    let db = scale.db_for(spec.dataset, settings.seed);
    let mut cluster = Cluster::new(settings.workers).with_seed(settings.seed);
    if let Some(b) = fail_budget {
        cluster = cluster.with_memory_budget(b);
    }

    println!("\n=== {title}: {} ({}) ===", spec.name, spec.query.name);
    println!("  {}", spec.query);
    let input: u64 = match spec.dataset {
        DatasetKind::Twitter => {
            let e = db.expect("Twitter").len() as u64; // xtask: allow(expect): bench driver aborts on failure
            println!("  Twitter edges: {e}  ({} workers)", settings.workers);
            e * spec.query.atoms.len() as u64
        }
        DatasetKind::Freebase => {
            let total: u64 = spec
                .query
                .atoms
                .iter()
                .map(|a| db.expect(&a.relation).len() as u64) // xtask: allow(expect): bench driver aborts on failure
                .sum();
            println!(
                "  Freebase atoms total: {total} tuples  ({} workers)",
                settings.workers
            );
            total
        }
    };
    println!("  input size (tuples referenced by atoms): {input}");

    let results = run_six(spec, &db, &cluster);
    if let Some((_, Ok(hc))) = results.iter().find(|(n, _)| n == "HC_TJ") {
        if let Some(cfg) = &hc.hc_config {
            println!("  hypercube configuration: {cfg}");
        }
    }
    let panel = |name: &str, f: &dyn Fn(&RunResult) -> f64| -> Vec<Bar> {
        let _ = name;
        results
            .iter()
            .map(|(label, r)| Bar {
                label: label.to_string(),
                value: r.as_ref().ok().map(f),
            })
            .collect()
    };
    print_bars(
        "(a) wall clock time",
        "s",
        &panel("wall", &|r| secs(r.wall)),
    );
    print_bars(
        "(b) total CPU time",
        "s",
        &panel("cpu", &|r| secs(r.total_cpu)),
    );
    print_bars(
        "(c) tuples shuffled",
        "tuples",
        &panel("shuffled", &|r| r.tuples_shuffled as f64),
    );
    for (label, r) in &results {
        match r {
            Ok(r) => println!("    {label}: {} output tuples", r.output_tuples),
            Err(e) => println!("    {label}: FAIL ({e})"),
        }
    }
    results
}

/// Serializes a six-config result set to JSON (per-config wall/CPU/
/// shuffle metrics plus per-worker busy times), for external plotting.
pub fn results_json(
    figure: &str,
    spec: &QuerySpec,
    results: &[(String, Result<RunResult, EngineError>)],
) -> Json {
    let configs = results
        .iter()
        .map(|(name, r)| {
            let body = match r {
                Ok(r) => Json::Obj(vec![
                    ("wall_s".into(), Json::Num(r.wall.as_secs_f64())),
                    ("cpu_s".into(), Json::Num(r.total_cpu.as_secs_f64())),
                    (
                        "tuples_shuffled".into(),
                        Json::Num(r.tuples_shuffled as f64),
                    ),
                    ("output_tuples".into(), Json::Num(r.output_tuples as f64)),
                    ("rounds".into(), Json::Num(r.rounds as f64)),
                    (
                        "hc_config".into(),
                        r.hc_config
                            .as_ref()
                            .map(|c| Json::Str(c.to_string()))
                            .unwrap_or(Json::Null),
                    ),
                    (
                        "per_worker_busy_s".into(),
                        Json::Arr(
                            r.per_worker_busy
                                .iter()
                                .map(|d| Json::Num(d.as_secs_f64()))
                                .collect(),
                        ),
                    ),
                ]),
                Err(e) => Json::Obj(vec![("fail".into(), Json::Str(e.to_string()))]),
            };
            (name.clone(), body)
        })
        .collect();
    Json::Obj(vec![
        ("figure".into(), Json::Str(figure.into())),
        ("query".into(), Json::Str(spec.name.into())),
        ("datalog".into(), Json::Str(format!("{}", spec.query))),
        ("configs".into(), Json::Obj(configs)),
    ])
}

/// Figure 9 needs a budget between what RS_HJ and RS_TJ require, so the
/// blocking sort-merge plan FAILs while the pipelined one limps through
/// (the paper's exact outcome). Probes with no budget first.
pub fn fig09_budget(spec: &QuerySpec, settings: &Settings) -> Option<u64> {
    let scale = scale_for(spec.name, settings.scale);
    let db = scale.db_for(spec.dataset, settings.seed);
    let cluster = Cluster::new(settings.workers).with_seed(settings.seed);
    let peak = |s, j| -> Option<u64> {
        run_config(&spec.query, &db, &cluster, s, j, &PlanOptions::default())
            .ok()
            .map(|r| r.peak_worker_tuples)
    };
    let hj = peak(ShuffleAlg::Regular, JoinAlg::Hash)?;
    let tj = peak(ShuffleAlg::Regular, JoinAlg::Tributary)?;
    if tj > hj {
        Some((hj + tj) / 2)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_override_shrinks_q4() {
        let base = Scale::small();
        let q4 = scale_for("Q4", base);
        assert!(q4.freebase_performances < base.freebase_performances);
        let q1 = scale_for("Q1", base);
        assert_eq!(q1.twitter_nodes, base.twitter_nodes);
    }

    #[test]
    fn run_six_agrees_on_small_input() {
        let spec = parjoin_datagen::workloads::q1();
        let db = Scale::tiny().twitter_db(1);
        let cluster = Cluster::new(4);
        let results = run_six(&spec, &db, &cluster);
        let counts: Vec<u64> = results
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().output_tuples)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
