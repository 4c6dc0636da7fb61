//! Knowledge-graph exploration on the Freebase-like catalog: the paper's
//! Q3 (co-star cast extraction) and Q7 (Oscar winners of the 90s),
//! including the §3.6 distributed semijoin plan for comparison.
//!
//! ```text
//! cargo run --release --example knowledge_graph
//! ```

use parjoin::prelude::*;

fn report(name: &str, r: &RunResult) {
    println!(
        "  {:<6} wall {:>9.2?}  cpu {:>9.2?}  shuffled {:>9}  results {}",
        name, r.wall, r.total_cpu, r.tuples_shuffled, r.output_tuples
    );
}

fn main() {
    let db = Scale::small().freebase_db(11);
    println!("Freebase-like catalog:");
    for (name, rel) in db.iter() {
        println!("  {:<14} {:>8} tuples", name, rel.len());
    }
    let cluster = Cluster::new(64);
    let opts = PlanOptions {
        collect_output: true,
        distinct_output: true,
        ..Default::default()
    };

    for spec in [
        parjoin::datagen::workloads::q3(),
        parjoin::datagen::workloads::q7(),
    ] {
        println!(
            "\n{} ({}):\n  {}",
            spec.name,
            if spec.cyclic { "cyclic" } else { "acyclic" },
            spec.query
        );
        let rs = run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::Regular,
            JoinAlg::Tributary,
            &opts,
        )
        .expect("RS_TJ");
        let hc = run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &opts,
        )
        .expect("HC_TJ");
        report("RS_TJ", &rs);
        report("HC_TJ", &hc);

        // Acyclic queries also admit the full Yannakakis/GYM semijoin
        // reduction (§3.6).
        let sj = run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::Semijoin,
            JoinAlg::Hash,
            &opts,
        )
        .expect("acyclic");
        report("SJ_HJ", &sj);
        let tally = |name| sj.metric(name).unwrap_or(0);
        println!(
            "         semijoin detail: {} key tuples + {} input tuples reshuffled",
            tally(metric_names::SEMIJOIN_KEY_TUPLES),
            tally(metric_names::SEMIJOIN_INPUT_TUPLES)
        );

        let distinct = rs.output.as_ref().map(|o| o.len()).unwrap_or(0);
        println!("  distinct answers: {distinct}");
        assert_eq!(
            rs.output.as_ref().map(|o| o.len()),
            hc.output.as_ref().map(|o| o.len()),
            "plans agree"
        );
    }
}
