//! §3.6: distributed semijoin (GYM) plans vs regular and HyperCube
//! shuffles on the acyclic queries Q3 and Q7.

use crate::report::print_table;
use crate::Settings;
use parjoin_engine::{metric_names, run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg};
use std::time::Duration;

/// Runs the comparison and prints per-query rows.
pub fn run(settings: &Settings) {
    println!("\n=== §3.6: semijoin (GYM) plans on the acyclic queries ===");
    // The paper charges each extra communication round its
    // synchronization cost; model it with a fixed per-round latency so
    // the semijoin's longer pipeline ("2.5x more operators") shows up.
    let round_latency = Duration::from_millis(2);
    let cluster = Cluster::new(settings.workers)
        .with_seed(settings.seed)
        .with_round_latency(round_latency);
    let opts = PlanOptions::default();

    for spec in [
        parjoin_datagen::workloads::q3(),
        parjoin_datagen::workloads::q7(),
    ] {
        let db = settings.scale.db_for(spec.dataset, settings.seed);
        let run = |s, j| run_config(&spec.query, &db, &cluster, s, j, &opts);
        let runs = [
            run(ShuffleAlg::Regular, JoinAlg::Hash),
            run(ShuffleAlg::HyperCube, JoinAlg::Tributary),
            run(ShuffleAlg::Semijoin, JoinAlg::Hash),
        ]
        .map(|r| r.expect("acyclic paper query runs")); // xtask: allow(expect): bench driver aborts on failure
        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{:.4}s", r.wall.as_secs_f64()),
                    r.tuples_shuffled.to_string(),
                    r.rounds.to_string(),
                ]
            })
            .collect();
        let sj = &runs[2];
        print_table(
            &format!("{} (round latency {:?})", spec.name, round_latency),
            &["plan", "wall", "tuples shuffled", "rounds"],
            &rows,
        );
        println!(
            "    semijoin shuffles: {} projected-key tuples + {} input tuples",
            sj.metric(metric_names::SEMIJOIN_KEY_TUPLES).unwrap_or(0),
            sj.metric(metric_names::SEMIJOIN_INPUT_TUPLES).unwrap_or(0)
        );
    }
    println!(
        "    (paper: the semijoin reduction never pays off on this workload — the\n     \
         extra rounds cancel the dangling-tuple savings; Q3 RS shuffles 7.18M vs\n     \
         semijoin 2.29M projected + 6.57M input tuples.)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_datagen::Scale;

    #[test]
    fn smoke() {
        run(&Settings {
            scale: Scale::tiny(),
            workers: 4,
            seed: 1,
        });
    }
}
