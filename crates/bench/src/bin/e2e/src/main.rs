//! `e2e` — the repository's end-to-end benchmark (see `README.md` beside
//! this package's manifest and `BENCHMARK.json` at the repository root).
//!
//! Four workloads drive the system through its public surface only —
//! `run_config`, `serve::Server` / `Session`, and the
//! `parjoin-coordinator` binary as a child process — each in a process
//! of its own, every result checked against a reference oracle.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--data-seed D] [--scale tiny]
//!         one workload in this process; the last stdout line is the
//!         result object (what BENCHMARK.json's command runs)
//! e2e run [--seed N] [--seconds S] [--data-seed D]
//!         all four workloads, both passes, as a table
//! e2e selfcheck [--seed N] [--seconds S] [--data-seed D]
//!         every workload twice; fails on a pair outside its bound or a
//!         differing exact counter
//! e2e smoke
//!         every workload at tiny scale, generator seeds 7 and 8; fails
//!         unless the printed names are exactly BENCHMARK.json's and
//!         nothing failed
//! ```
//!
//! `--seed` (default 7) reorders the rows of the generated relations; on
//! the mesh workload it is the cluster's hash seed. `--data-seed`
//! (default 7) seeds the generator itself (`workload::RunCfg`).
//!
//! `--trace 0` measures a closed-loop window with tracing off and prints
//! the end-to-end metrics. `--trace 1` is the separate traced pass: it
//! times the calls into each layer's public functions from the bench
//! side, reads the public `RunResult` counters, prints the per-layer
//! metrics and leaves chrome traces under `target/e2e/`.

mod child;
mod counters;
mod layers;
mod mesh;
mod modes;
mod oracle;
mod procfs;
mod serve;
mod spec;
mod stats;
mod triangle;
mod window;
mod workload;

use spec::Metrics;
use std::process::ExitCode;
use std::time::Instant;
use workload::{RunCfg, Workload};

/// `setup_s` is the median over this many timed `Workload::setup`s
/// before the window (the last one's state is measured) …
const SETUPS_BEFORE: usize = 3;
/// … and this many after it. Interference on the box comes in bursts of
/// seconds and a set-up takes a tenth of one, so set-ups run back to
/// back are slow or fast together; the window between the two groups
/// keeps one burst from reaching most of them.
const SETUPS_AFTER: usize = 4;
/// `--seed` when not given.
const DEFAULT_SEED: u64 = 7;
/// `--data-seed` when not given.
const DEFAULT_DATA_SEED: u64 = 7;
/// Window length when `--seconds` is not given: `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

/// What one run of one workload reports.
pub struct Report {
    /// Queries attempted in the window (or checked by the traced pass).
    pub attempted: u64,
    /// Queries that errored, were refused or disagreed with the oracle.
    pub failed: u64,
    /// The pass's metrics.
    pub metrics: Metrics,
}

impl Report {
    /// The result object the benchmark contract asks for, on one line.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::unit_of(name).unwrap_or("");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one pass of workload `W` in this process.
fn run_pass<W: Workload>(cfg: &RunCfg, trace: bool) -> Result<Report, String> {
    if trace {
        let mut w = W::setup(cfg)?;
        let mut metrics = spec::empty_layers();
        let attempted = w.layers(cfg, &mut metrics)?;
        metrics.insert("datagen.generate_ms", w.datagen_ms());
        metrics.insert("oracle.output_tuples", w.output_tuples() as f64);
        return Ok(Report {
            attempted,
            failed: 0,
            metrics,
        });
    }

    let mut setup_s = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut timed_setup = || {
        let t0 = Instant::now();
        let state = W::setup(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        state
    };
    for _ in 1..SETUPS_BEFORE {
        // Dropped at once: a set-up's server or processes must be gone
        // before the next one starts.
        drop(timed_setup()?);
    }
    let mut w = timed_setup()?;
    let window = w.measure(cfg)?;
    drop(w);
    for _ in 0..SETUPS_AFTER {
        drop(timed_setup()?);
    }
    println!("# {}", window.describe());
    let mut metrics = Metrics::new();
    window.end_to_end(&mut metrics);
    if metrics.is_empty() {
        return Err("no query completed inside the window".to_string());
    }
    metrics.insert("setup_s", stats::median_of(&setup_s));
    Ok(Report {
        attempted: window.attempted(),
        failed: window.failed(),
        metrics,
    })
}

/// Runs one pass of the named workload in this process.
fn run_workload(name: &str, cfg: &RunCfg, trace: bool) -> Result<Report, String> {
    let report = match name {
        "tri_hc_tj_cold" => run_pass::<triangle::Cold>(cfg, trace),
        "tri_rs_hj_stream" => run_pass::<triangle::Stream>(cfg, trace),
        "serve_mixed_warm" => run_pass::<serve::Serve>(cfg, trace),
        "tri_hc_tj_mesh" => run_pass::<mesh::Mesh>(cfg, trace),
        other => Err(format!(
            "unknown workload {other}; one of {}",
            spec::WORKLOADS.join(", ")
        )),
    }?;
    if report.attempted == 0 {
        return Err("no query completed inside the window".to_string());
    }
    if let Some((name, v)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {v}"));
    }
    Ok(report)
}

/// `--flag value` pairs after the mode word.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    pairs.push((flag.clone(), value.clone()));
                }
                _ => return Err(format!("expected `--flag value`, got {}", pair.join(" "))),
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {flag} {v}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }

    fn cfg(&self) -> Result<RunCfg, String> {
        let seconds: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        let tiny = match self.get("--scale") {
            None => false,
            Some("tiny") => true,
            Some(other) => return Err(format!("bad --scale {other} (only `tiny`)")),
        };
        Ok(RunCfg {
            seed: self.number("--seed", DEFAULT_SEED)?,
            data_seed: self.number("--data-seed", DEFAULT_DATA_SEED)?,
            seconds,
            tiny,
        })
    }
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# host: nproc={nproc} host_parallelism={:?} serve_executors={} commit={}",
        parjoin_common::threads::host_parallelism(),
        parjoin_serve::ServerConfig::default().effective_executors(),
        modes::commit()
    )
}

fn run(args: &[String]) -> Result<(), String> {
    let (mode, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("workload", args),
    };
    let flags = Flags::parse(rest)?;
    match mode {
        "workload" => {
            flags.only(&[
                "--workload",
                "--seed",
                "--data-seed",
                "--seconds",
                "--trace",
                "--scale",
            ])?;
            let name = flags
                .get("--workload")
                .ok_or("--workload NAME is required")?;
            let trace = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("bad --trace {other} (0|1)")),
            };
            println!("{}", host_facts());
            // Every workload, so that whichever runs first in a fresh
            // checkout does the building, and so that the mesh never
            // measures binaries older than the harness.
            child::Bins::build_in_checkout()?;
            let report = run_workload(name, &flags.cfg()?, trace)?;
            println!("{}", report.to_json());
            Ok(())
        }
        "run" | "selfcheck" => {
            flags.only(&["--seed", "--data-seed", "--seconds"])?;
            println!("{}", host_facts());
            if mode == "run" {
                modes::run_all(&flags.cfg()?)
            } else {
                modes::selfcheck(&flags.cfg()?)
            }
        }
        "smoke" => {
            flags.only(&[])?;
            modes::smoke()
        }
        other => Err(format!(
            "unknown mode {other}; see the usage at the top of main.rs"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
