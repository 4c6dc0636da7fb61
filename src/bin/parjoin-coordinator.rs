//! `parjoin-coordinator` — plan paper queries, ship per-rank fragments
//! to a mesh of `parjoin-worker` processes, collect and check results.
//!
//! The coordinator makes every global plan decision (join order, shares,
//! variable orders, seeds) with the planner `run_config` uses; each
//! worker runs the engine's one executor over the fragment it is
//! shipped, its shuffles going over the TCP mesh. With `--check-local` each remote run is re-executed on the
//! in-process `Transport::Local` engine with the same cluster shape and
//! the collected outputs are compared byte-for-byte — the multi-process
//! path must be indistinguishable from the sequential one.
//!
//! ```text
//! parjoin-coordinator (--hosts A,B,C | --spawn-workers N) [options]
//!
//!   --hosts A,B,C        comma-separated worker control addresses
//!                        (hosts[r] becomes rank r)
//!   --spawn-workers N    spawn N parjoin-worker processes on loopback
//!                        (the binary is found next to this one)
//!   --queries Q1,..|all  paper queries to run (default all)
//!   --configs CS,..|all  shuffle×join configs, e.g. RS_HJ,HC_TJ,SJ_HJ
//!                        (default and `all`: the paper's six)
//!   --scale tiny|small|medium   dataset scale (default tiny)
//!   --twitter-nodes N    override the Twitter graph's node count
//!   --twitter-m N        override edges-per-node
//!   --freebase N         override Freebase performance count
//!   --db-seed N          dataset generator seed (default 7)
//!   --seed N             cluster hash seed (default 11)
//!   --batch-tuples N     exchange batch size (default 512)
//!   --connect-timeout-secs N    worker dial deadline (default 30)
//!   --check-local        also run each config on the Local transport
//!                        and fail unless outputs are byte-identical
//!   --distinct           deduplicate projected outputs (set semantics)
//! ```

use parjoin_datagen::Scale;
use parjoin_dist::RemoteCluster;
use parjoin_engine::{
    config_name, parse_config, run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg, PAPER_CONFIGS,
};
use std::io::BufRead;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: parjoin-coordinator (--hosts A,B,C | --spawn-workers N) \
                     [--queries Q1,..|all] [--configs RS_HJ,..|all] [--scale tiny|small|medium] \
                     [--twitter-nodes N] [--twitter-m N] [--freebase N] [--db-seed N] [--seed N] \
                     [--batch-tuples N] [--connect-timeout-secs N] [--check-local] [--distinct]";

struct Opts {
    hosts: Vec<String>,
    spawn_workers: usize,
    queries: Vec<String>,
    configs: Vec<(ShuffleAlg, JoinAlg)>,
    scale: Scale,
    db_seed: u64,
    seed: u64,
    batch_tuples: usize,
    connect_timeout: Duration,
    check_local: bool,
    distinct: bool,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("bad {flag} {v}: {e}"))
}

fn parse_opts() -> Result<Option<Opts>, String> {
    let mut o = Opts {
        hosts: Vec::new(),
        spawn_workers: 0,
        queries: vec!["all".to_string()],
        configs: PAPER_CONFIGS.to_vec(),
        scale: Scale::tiny(),
        db_seed: 7,
        seed: 11,
        batch_tuples: 512,
        connect_timeout: Duration::from_secs(30),
        check_local: false,
        distinct: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hosts" => {
                let v = args.next().ok_or("--hosts needs a list")?;
                o.hosts = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--spawn-workers" => o.spawn_workers = parse_num("--spawn-workers", args.next())?,
            "--queries" => {
                let v = args.next().ok_or("--queries needs a list")?;
                o.queries = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--configs" => {
                let v = args.next().ok_or("--configs needs a list")?;
                if v != "all" {
                    o.configs = Vec::new();
                    for name in v.split(',') {
                        let name = name.trim();
                        let config = parse_config(name)
                            .ok_or_else(|| format!("unknown config {name} (e.g. HC_TJ)"))?;
                        o.configs.push(config);
                    }
                }
            }
            "--scale" => {
                o.scale = match args.next().as_deref() {
                    Some("tiny") => Scale::tiny(),
                    Some("small") => Scale::small(),
                    Some("medium") => Scale::medium(),
                    other => return Err(format!("bad --scale {other:?}")),
                };
            }
            "--twitter-nodes" => o.scale.twitter_nodes = parse_num("--twitter-nodes", args.next())?,
            "--twitter-m" => o.scale.twitter_m = parse_num("--twitter-m", args.next())?,
            "--freebase" => o.scale.freebase_performances = parse_num("--freebase", args.next())?,
            "--db-seed" => o.db_seed = parse_num("--db-seed", args.next())?,
            "--seed" => o.seed = parse_num("--seed", args.next())?,
            "--batch-tuples" => o.batch_tuples = parse_num("--batch-tuples", args.next())?,
            "--connect-timeout-secs" => {
                o.connect_timeout =
                    Duration::from_secs(parse_num("--connect-timeout-secs", args.next())?);
            }
            "--check-local" => o.check_local = true,
            "--distinct" => o.distinct = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if o.hosts.is_empty() == (o.spawn_workers == 0) {
        return Err(format!(
            "pass exactly one of --hosts or --spawn-workers\n{USAGE}"
        ));
    }
    if o.queries.iter().any(|q| q == "all") {
        o.queries = parjoin_datagen::all_queries()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
    }
    Ok(Some(o))
}

/// Spawned worker children, killed on drop so a coordinator failure
/// never strands processes.
struct LocalWorkers {
    children: Vec<Child>,
}

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl LocalWorkers {
    /// Launches `n` `parjoin-worker` processes (the binary next to this
    /// one) on ephemeral loopback ports and collects their announced
    /// control addresses.
    fn launch(n: usize) -> Result<(LocalWorkers, Vec<String>), String> {
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let worker = me
            .parent()
            .map(|d| d.join("parjoin-worker"))
            .ok_or("cannot locate the parjoin-worker binary")?;
        let mut workers = LocalWorkers {
            children: Vec::with_capacity(n),
        };
        let mut hosts = Vec::with_capacity(n);
        for i in 0..n {
            let mut child = Command::new(&worker)
                .arg("--listen")
                .arg("127.0.0.1:0")
                .stdout(Stdio::piped())
                // Children are reaped by LocalWorkers::drop (kill +
                // wait) or by the clean join() below. xtask: allow(spawn)
                .spawn()
                .map_err(|e| format!("launch {}: {e}", worker.display()))?;
            let stdout = child.stdout.take().ok_or("worker stdout not piped")?;
            workers.children.push(child);
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("read worker {i} announcement: {e}"))?;
            let addr = line
                .strip_prefix("listening ")
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .ok_or_else(|| {
                    format!("worker {i} announced {line:?}, expected `listening ADDR`")
                })?;
            hosts.push(addr.to_string());
        }
        Ok((workers, hosts))
    }

    /// Waits for every child to exit cleanly (after the coordinator's
    /// `Shutdown`), failing on a nonzero worker exit.
    fn join(mut self) -> Result<(), String> {
        let children = std::mem::take(&mut self.children);
        for (i, mut c) in children.into_iter().enumerate() {
            let status = c.wait().map_err(|e| format!("wait worker {i}: {e}"))?;
            if !status.success() {
                return Err(format!("worker {i} exited with {status}"));
            }
        }
        Ok(())
    }
}

fn run() -> Result<(), String> {
    let Some(opts) = parse_opts()? else {
        return Ok(());
    };

    let (spawned, hosts) = if opts.spawn_workers > 0 {
        let (w, hosts) = LocalWorkers::launch(opts.spawn_workers)?;
        (Some(w), hosts)
    } else {
        (None, opts.hosts.clone())
    };

    let mut remote = RemoteCluster::connect(&hosts, opts.connect_timeout)
        .map_err(|e| format!("connecting the worker mesh: {e}"))?;
    let workers = remote.workers();
    println!("mesh up: {workers} workers");
    let cluster = Cluster::new(workers)
        .with_seed(opts.seed)
        .with_batch_tuples(opts.batch_tuples);
    let plan_opts = PlanOptions {
        collect_output: true,
        distinct_output: opts.distinct,
        ..Default::default()
    };

    let mut failures = 0usize;
    for qname in &opts.queries {
        let spec = parjoin_datagen::workloads::spec_for(qname)
            .ok_or_else(|| format!("unknown query {qname} (Q1..Q8)"))?;
        let db = opts.scale.db_for(spec.dataset, opts.db_seed);
        for &(s, j) in &opts.configs {
            let tag = config_name(s, j);
            let run = remote
                .run(&spec.query, &db, &cluster, s, j, &plan_opts)
                .map_err(|e| format!("{qname} {tag}: {e}"))?;
            run.reconcile().map_err(|e| format!("{qname} {tag}: {e}"))?;
            let shuffled: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
            let rounds = run.workers.first().map_or(0, |w| w.rounds);
            println!(
                "{qname} {tag}: {} tuples, {shuffled} shuffled, {rounds} rounds, \
                 tx/rx reconciled",
                run.output_tuples
            );
            if opts.check_local {
                let local = run_config(&spec.query, &db, &cluster, s, j, &plan_opts)
                    .map_err(|e| format!("{qname} {tag} local check: {e}"))?;
                let identical = local.output.as_ref().is_some_and(|l| {
                    l.arity() == run.output.arity() && l.raw() == run.output.raw()
                });
                if identical {
                    println!("{qname} {tag}: byte-identical to Local");
                } else {
                    eprintln!("{qname} {tag}: MISMATCH against Local transport");
                    failures += 1;
                }
            }
        }
    }

    remote.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if let Some(w) = spawned {
        w.join()?;
    }
    if failures > 0 {
        return Err(format!(
            "{failures} config(s) diverged from the Local transport"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("parjoin-coordinator: {e}");
            ExitCode::FAILURE
        }
    }
}
