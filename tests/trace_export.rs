//! End-to-end checks of the observability layer: a traced run must emit
//! a chrome://tracing-loadable JSON file with one span per phase per
//! worker lane, the independent byte tallies (the engine's per-shuffle
//! `bytes_sent`, the runtime's sent and received bytes) must agree
//! *exactly*, and [`RunResult::report`] must render the phase/worker
//! tables and the registry counters.

use parjoin::obs::json::{self, summarize_chrome_trace, Json};
use parjoin::obs::COORDINATOR_LANE;
use parjoin::prelude::*;

fn traced_run(dir: &std::path::Path, transport: TransportKind) -> (RunResult, String) {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(7);
    let cluster = Cluster::new(4).with_seed(7).with_transport(transport);
    let path = dir.join(format!("trace-{transport:?}.json"));
    let opts = PlanOptions {
        trace_path: Some(path.clone()),
        ..Default::default()
    };
    let r = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &opts,
    )
    .expect("traced Q1 HC_TJ runs");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    (r, text)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parjoin-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn trace_has_one_span_per_phase_per_worker() {
    let dir = tmp_dir("spans");
    let (r, text) = traced_run(&dir, TransportKind::InProcess);
    let s = summarize_chrome_trace(&text).expect("trace parses as a chrome trace");
    for w in 0..4u64 {
        // One `shuffle` span per exchange (Q1 under HyperCube has one
        // per atom), and exactly one of each engine phase span.
        assert_eq!(s.count("shuffle", w), r.shuffles.len() as u64);
        for phase in ["local-join", "prepare", "probe"] {
            assert_eq!(s.count(phase, w), 1, "worker {w} span count for `{phase}`");
        }
    }
    assert_eq!(s.count("output", u64::from(COORDINATOR_LANE)), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn local_transport_still_traces_engine_phases() {
    // No runtime exchange under the Local transport: no `shuffle` spans,
    // but the engine phases must still be there.
    let dir = tmp_dir("local");
    let (_, text) = traced_run(&dir, TransportKind::Local);
    let s = summarize_chrome_trace(&text).expect("trace parses");
    assert!(s.lanes_with("shuffle").is_empty(), "no runtime spans");
    for w in 0..4u64 {
        assert_eq!(s.count("local-join", w), 1);
        assert_eq!(s.count("prepare", w), 1);
        assert_eq!(s.count("probe", w), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_reconciles_with_legacy_counters() {
    let dir = tmp_dir("metrics");
    let (r, _) = traced_run(&dir, TransportKind::InProcess);
    // The runtime sent and received exactly the bytes the engine's
    // shuffles recorded.
    let bytes: u64 = r.shuffles.iter().map(|s| s.bytes_sent).sum();
    assert!(bytes > 0);
    assert_eq!(r.metric("runtime.tx.bytes"), Some(bytes));
    assert_eq!(r.metric("runtime.rx.bytes"), Some(bytes));
    assert_eq!(r.metric("runtime.rx.decode_errors"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_runs_have_metrics_but_no_trace() {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(7);
    let cluster = Cluster::new(4).with_seed(7);
    let r = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &PlanOptions::default(),
    )
    .expect("untraced run");
    assert!(!r.metrics.is_empty(), "registry snapshot rides along");
    assert_eq!(r.metric(metric_names::OUTPUT_TUPLES), Some(r.output_tuples));
    // Local transport: no runtime, so runtime metrics are absent.
    assert_eq!(r.metric("runtime.tx.bytes"), None);
}

#[test]
fn report_renders_phase_and_worker_tables() {
    let dir = tmp_dir("report");
    let (r, _) = traced_run(&dir, TransportKind::InProcess);
    let report = r.report();
    for needle in [
        "== HC_TJ ==",
        "phase",
        "network",
        "sort(prep)",
        "join(probe)",
        "load skew (max/mean busy)",
        "engine.output.tuples",
        "runtime.tx.bytes",
    ] {
        assert!(
            report.contains(needle),
            "report missing `{needle}`:\n{report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn semijoin_reductions_are_charged_as_join_cpu() {
    // A phase charges each worker the time around its span, so the
    // run's join CPU covers every `local-join` span and — the
    // reductions' local semijoins being join work too — every
    // `semijoin` span.
    let dir = tmp_dir("semijoin");
    let path = dir.join("trace-sj.json");
    let spec = parjoin::datagen::workloads::q3();
    let db = Scale::tiny().db_for(spec.dataset, 7);
    let opts = PlanOptions {
        trace_path: Some(path.clone()),
        ..Default::default()
    };
    let (s, j) = (ShuffleAlg::Semijoin, JoinAlg::Hash);
    let r = run_config(&spec.query, &db, &Cluster::new(4).with_seed(7), s, j, &opts)
        .expect("traced Q3 SJ_HJ runs");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let Json::Arr(events) = json::parse(&text).expect("trace parses") else {
        panic!("a chrome trace is an array of events");
    };
    // `dur` is exported in microseconds to the nanosecond.
    let span_ns = |name: &str| -> u64 {
        let named = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name));
        let durs = named.filter_map(|e| e.get("dur").and_then(Json::as_f64));
        durs.map(|us| (us * 1000.0).round() as u64).sum()
    };
    let (semijoin, local_join) = (span_ns("semijoin"), span_ns("local-join"));
    assert!(semijoin > 0 && local_join > 0, "both phases traced");
    assert!(
        r.join_cpu().as_nanos() >= u128::from(semijoin + local_join),
        "join CPU {:?} < {semijoin} ns of semijoin spans + {local_join} ns of local-join spans",
        r.join_cpu()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
