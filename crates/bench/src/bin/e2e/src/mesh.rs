//! `tri_hc_tj_mesh`: the cold workload's query and data, run by a
//! `parjoin-coordinator` process over four `parjoin-worker` processes.
//!
//! The only workload that crosses process boundaries: fragment planning
//! and encode/decode, PJCP control frames, the loopback-TCP `HostMesh`,
//! `engine::remote` and the return of the output. The workers' caches
//! stay warm, so what it costs over a warm in-process run is the price
//! of the mesh. The harness launches the workers itself and hands them
//! to the coordinator with `--hosts`, and timestamps the result lines
//! the coordinator prints (its stdout is line-buffered).

use crate::child::{self, Bins, Line, Processes};
use crate::counters::RunStats;
use crate::layers::{self, Tracer};
use crate::spec::Metrics;
use crate::stats;
use crate::triangle::{Q1Inputs, COLD_SCALE};
use crate::window::{closed_loop, ms, us, Meter, OpResult, Window};
use crate::workload::{
    self, RunCfg, Workload, BATCH_TUPLES, MIN_TRACED_OPS, TRACED_OPS, WARMUP_OPS, WORKERS,
};
use parjoin_datagen::Scale;
use parjoin_engine::{
    plan_fragments, run_config, Cluster, Fragment, JoinAlg, PlanOptions, ShuffleAlg,
};
use std::time::{Duration, Instant};

const CONFIG: (ShuffleAlg, JoinAlg) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
/// Queries the coordinator is started with. It is killed when the
/// window closes; this only has to outlast the longest window, and as
/// one argument must stay under the kernel's 128 KiB limit.
const MAX_QUERIES: usize = 16_000;

/// What the coordinator's result lines reported.
#[derive(Default, Clone, Copy)]
struct LineFacts {
    shuffled: u64,
    rounds: u64,
}

/// The mesh and the inputs it was started on.
pub struct Mesh {
    inputs: Q1Inputs,
    cluster: Cluster,
    procs: Processes,
    facts: LineFacts,
}

fn coordinator_args(scale: Scale, cfg: &RunCfg, configs: usize) -> Vec<String> {
    let mut args: Vec<String> = [
        "--queries",
        "Q1",
        "--batch-tuples",
        &BATCH_TUPLES.to_string(),
        "--twitter-nodes",
        &scale.twitter_nodes.to_string(),
        "--twitter-m",
        &scale.twitter_m.to_string(),
        "--db-seed",
        &cfg.data_seed.to_string(),
        "--seed",
        &cfg.seed.to_string(),
        "--configs",
    ]
    .map(String::from)
    .to_vec();
    args.push(vec!["HC_TJ"; configs].join(","));
    args
}

/// One untimed query with `--check-local`: the coordinator itself
/// compares the mesh's output with the `Local` transport's, byte for
/// byte.
fn check_local(bins: &Bins, scale: Scale, cfg: &RunCfg, expected: u64) -> Result<(), String> {
    let mut args = coordinator_args(scale, cfg, 1);
    args.push("--check-local".to_string());
    let mut procs = Processes::launch(bins, WORKERS, &args)?;
    let (mut counted, mut identical) = (false, false);
    while let Some(line) = procs.next_line()? {
        match child::parse_line(&line) {
            Line::Result { tuples, .. } => counted = tuples == expected,
            Line::IdenticalToLocal => identical = true,
            Line::Other => {}
        }
    }
    procs.join()?;
    if counted && identical {
        Ok(())
    } else {
        Err(format!(
            "--check-local: oracle count matched: {counted}, byte-identical to Local: {identical}"
        ))
    }
}

impl Mesh {
    /// A closed-loop window over the coordinator's result lines: a
    /// query's latency is the time since the previous line.
    fn window(&mut self, warmup_ops: usize, seconds: f64) -> Result<Window, String> {
        let expected = self.inputs.expected.output_tuples;
        let meter = Meter::processes(&self.procs.pids());
        let (procs, facts) = (&mut self.procs, &mut self.facts);
        // Why no more lines will come, once that is so.
        let mut ended: Option<String> = None;
        let mut last = Instant::now();
        let mut clients = [|_: usize| {
            let line = match &ended {
                // Do not spin (or wait out another deadline) until the
                // window closes.
                Some(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    None
                }
                None => match procs.next_line() {
                    Ok(Some(line)) => Some(line),
                    Ok(None) => {
                        ended = Some(format!(
                            "the coordinator's output ended before the window closed: it \
                             died, or ran all its {MAX_QUERIES} queries (use a shorter --seconds)"
                        ));
                        None
                    }
                    Err(e) => {
                        ended = Some(e);
                        None
                    }
                },
            };
            let latency = last.elapsed();
            last += latency;
            let ok = match line.as_deref().map(child::parse_line) {
                Some(Line::Result {
                    tuples,
                    shuffled,
                    rounds,
                }) => {
                    *facts = LineFacts { shuffled, rounds };
                    tuples == expected
                }
                _ => false,
            };
            OpResult {
                kind: 0,
                latency,
                ok,
            }
        }];
        let window = closed_loop(&mut clients, warmup_ops, seconds, &meter);
        if let Some(why) = ended {
            return Err(why);
        }
        Ok(window)
    }
}

impl Workload for Mesh {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let bins = Bins::locate()?;
        let scale = cfg.scale(COLD_SCALE);
        let cluster = workload::cluster(cfg.seed);
        let inputs = Q1Inputs::generate(scale, cfg.data_seed, None, &cluster, CONFIG, false)?;
        check_local(&bins, scale, cfg, inputs.expected.output_tuples)?;
        let args = coordinator_args(scale, cfg, MAX_QUERIES);
        let procs = Processes::launch(&bins, WORKERS, &args)?;
        Ok(Mesh {
            inputs,
            cluster,
            procs,
            facts: LineFacts::default(),
        })
    }

    fn measure(&mut self, cfg: &RunCfg) -> Result<Window, String> {
        self.window(WARMUP_OPS, cfg.seconds)
    }

    fn layers(&mut self, cfg: &RunCfg, metrics: &mut Metrics) -> Result<u64, String> {
        let over_mesh = self.window(WARMUP_OPS, cfg.seconds / 3.0)?;
        if over_mesh.failed() > 0 {
            return Err("a mesh query disagrees with the oracle".to_string());
        }
        // The coordinator would keep running queries beside the
        // in-process measurements below.
        self.procs.kill();
        metrics.insert("dist.mesh_up_ms", ms(self.procs.mesh_up));
        metrics.insert("dist.shuffled_tuples", self.facts.shuffled as f64);
        metrics.insert("dist.rounds", self.facts.rounds as f64);

        // The same query on the same inputs in this process, caches
        // warm and output collected, as the coordinator's workers run it.
        let (q, db) = (&self.inputs.query, &self.inputs.db);
        let opts = PlanOptions {
            collect_output: true,
            ..PlanOptions::default()
        };
        let mut runs = RunStats::default();
        let mut local_ms = Vec::new();
        let mut tracer = Tracer::new();
        let (mut encode_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), 0usize);
        let addrs = vec!["127.0.0.1:0".to_string(); WORKERS];
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
        let mut facts = None;
        for op in 0..TRACED_OPS {
            if op >= MIN_TRACED_OPS && Instant::now() >= deadline {
                break;
            }
            let t0 = Instant::now();
            let run = run_config(q, db, &self.cluster, CONFIG.0, CONFIG.1, &opts);
            local_ms.push(ms(t0.elapsed()));
            let run = run.map_err(|e| e.to_string())?;
            if !self.inputs.expected.matches(&run) {
                return Err("the in-process run disagrees with the oracle".to_string());
            }
            runs.push(run);

            let fragments = tracer
                .time("fragment.plan_ms", || {
                    plan_fragments(q, db, &self.cluster, CONFIG.0, CONFIG.1, &opts, &addrs)
                })
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let encoded: Vec<Vec<u8>> = fragments.iter().map(Fragment::encode).collect();
            encode_us.push(us(t1.elapsed()));
            let t2 = Instant::now();
            let decoded = encoded.iter().filter_map(|b| Fragment::decode(b).ok());
            if decoded.count() != fragments.len() {
                return Err("an encoded fragment did not decode".to_string());
            }
            decode_us.push(us(t2.elapsed()));
            bytes = encoded.iter().map(Vec::len).sum();

            let replayed = layers::replay_hc_tj(&mut tracer, q, db, &self.cluster)?;
            tracer.end_op();
            if replayed.output_tuples != self.inputs.expected.output_tuples {
                return Err("the bench-side replay disagrees with the oracle".to_string());
            }
            facts = Some(replayed);
        }
        tracer.write(&workload::trace_file("tri_hc_tj_mesh", "trace"))?;

        tracer.fill(metrics);
        // The replay sorts and builds tries like a cold query; the
        // mesh's workers, caches warm, do neither.
        for cold_only in ["sort.sort_ms", "tributary.build_ms"] {
            metrics.insert(cold_only, 0.0);
        }
        runs.fill(metrics, self.inputs.base_tuples);
        if let Some(f) = facts {
            metrics.insert("hypercube.workload_ratio", f.workload_ratio);
        }
        let outputs = self.inputs.expected.output_tuples.max(1) as f64;
        metrics.insert(
            "tributary.probe_ns_per_output",
            metrics["tributary.probe_ms"] * 1e6 / outputs,
        );
        metrics.insert("fragment.encode_us", stats::median_of(&encode_us));
        metrics.insert("fragment.decode_us", stats::median_of(&decode_us));
        metrics.insert("fragment.bytes", bytes as f64);
        let (encode, decode) = layers::wire_ns_per_tuple();
        metrics.insert("wire.encode_ns_per_tuple", encode);
        metrics.insert("wire.decode_ns_per_tuple", decode);
        metrics.insert(
            "dist.mesh_minus_local_ms",
            over_mesh.p50_ms() - stats::median_of(&local_ms),
        );
        Ok(over_mesh.attempted() + 2 * local_ms.len() as u64)
    }

    fn datagen_ms(&self) -> f64 {
        self.inputs.datagen_ms
    }

    fn output_tuples(&self) -> u64 {
        self.inputs.expected.output_tuples
    }
}
