//! Replays the paper's evaluation: every figure and table in paper
//! order, or just the ones named on the command line.
//!
//! ```text
//! figures [NAME…] [--scale tiny|small|medium] [--workers N] [--seed S] [--json DIR]
//! ```
//!
//! `--scale` trades fidelity for time; `--json` additionally writes the
//! six-configuration figures as JSON for plotting.
use parjoin_bench::experiments::*;
use parjoin_bench::Settings;
use parjoin_datagen::{workloads, QuerySpec};
use std::path::{Path, PathBuf};

/// One six-configuration figure, plus its JSON under `--json`.
fn six(title: &str, spec: &QuerySpec, s: &Settings, budget: Option<u64>, json: Option<&Path>) {
    let results = six_configs::figure(title, spec, s, budget);
    if let Some(dir) = json {
        std::fs::create_dir_all(dir).expect("create --json dir"); // xtask: allow(expect): bench driver aborts on failure
        let name = title.to_lowercase().replace(' ', "_");
        let path = dir.join(format!("{name}_{}.json", spec.name.to_lowercase()));
        let doc = six_configs::results_json(title, spec, &results);
        std::fs::write(&path, doc.to_string()).expect("write JSON"); // xtask: allow(expect): bench driver aborts on failure
        println!("    (JSON written to {})", path.display());
    }
}

/// How one experiment runs.
enum Figure {
    /// A query under all six shuffle × join configurations.
    Six(&'static str, fn() -> QuerySpec),
    /// Figure 9: [`Six`](Figure::Six) under a per-worker memory budget
    /// RS_TJ FAILs on, as in the paper.
    Fig09,
    /// Anything else.
    Run(fn(&Settings)),
}
use Figure::{Fig09, Run, Six};

/// Every experiment, in paper order.
const FIGURES: [(&str, Figure); 20] = [
    ("fig03", Six("Figure 3", workloads::q1)),
    ("tab02_04", Run(skew::run)),
    ("tab05", Run(breakdown::run)),
    ("fig04", Six("Figure 4", workloads::q2)),
    ("fig06", Six("Figure 6", workloads::q3)),
    ("fig09", Fig09),
    ("fig08", Run(worker_util::run)),
    ("fig13", Six("Figure 13", workloads::q5)),
    ("fig14", Six("Figure 14", workloads::q6)),
    ("fig15", Six("Figure 15", workloads::q7)),
    ("fig17", Six("Figure 17", workloads::q8)),
    ("tab06", Run(summary::run)),
    ("sec36", Run(semijoin::run)),
    ("fig10", Run(scalability::run)),
    ("fig11", Run(hc_config::run)),
    ("fig12", Run(order_cost::run)),
    ("fig18", Run(random_cells::run)),
    ("ablations", Run(ablation::run)),
    ("sensitivity", Run(sensitivity::run)),
    ("advisor", Run(advisor::run)),
];

fn main() {
    let settings = Settings::from_args();
    // Everything that is neither an option nor an option's value names
    // a figure.
    let mut json = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = args.next().map(PathBuf::from),
            opt if opt.starts_with("--") => drop(args.next()),
            _ => wanted.push(arg),
        }
    }
    if let Some(unknown) = wanted.iter().find(|w| FIGURES.iter().all(|(n, _)| n != w)) {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown figure `{unknown}`; known: {}", names.join(" "));
        std::process::exit(2);
    }
    if wanted.is_empty() {
        println!(
            "parjoin — full experiment suite (workers={}, seed={})",
            settings.workers, settings.seed
        );
    }
    let json = json.as_deref();
    for (name, figure) in FIGURES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        match figure {
            Six(title, spec) => six(title, &spec(), &settings, None, json),
            Fig09 => {
                let spec = workloads::q4();
                let budget = six_configs::fig09_budget(&spec, &settings);
                if let Some(b) = budget {
                    println!(
                        "(per-worker memory budget: {b} tuples — between RS_HJ's and RS_TJ's needs)"
                    );
                }
                six("Figure 9", &spec, &settings, budget, json);
            }
            Run(run) => run(&settings),
        }
    }
}
