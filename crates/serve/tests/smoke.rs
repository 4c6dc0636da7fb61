//! The CI serve smoke: an in-process `parjoin-serve` server under
//! open-loop overload.
//!
//! * loads the tiny Twitter + Freebase catalogs,
//! * fires 200 mixed Q1–Q8 submissions as fast as possible — far
//!   beyond 2× the admission cap (queue capacity + executors) — and
//!   asserts overload is shed with the *typed* queue-full error,
//! * byte-compares every completed query against a batch baseline run
//!   with identical advisor decision, cluster, and options,
//! * checks the latency report is strict JSON carrying the reconciled
//!   `serve.*` counters,
//! * asserts shutdown drains and then rejects with the typed
//!   shutting-down error.

use parjoin_core::queries;
use parjoin_datagen::workloads::Scale;
use parjoin_serve::{
    batch_run, ConfigChoice, ServeError, Server, ServerConfig, SessionConfig, Ticket, TrafficReport,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const QUEUE_CAPACITY: usize = 6;
const EXECUTORS: usize = 2;
const FLOOD: usize = 200;

struct Baseline {
    config: String,
    arity: usize,
    raw: Vec<u64>,
    output_tuples: u64,
}

fn start_loaded_server() -> Server {
    let server = Server::start(ServerConfig {
        workers: 4,
        seed: 11,
        queue_capacity: QUEUE_CAPACITY,
        session_cap: 2 * (QUEUE_CAPACITY + EXECUTORS),
        executors: Some(EXECUTORS),
    });
    let scale = Scale::tiny();
    server.load_db(&scale.twitter_db(7));
    server.load_db(&scale.freebase_db(7));
    server
}

fn baselines(server: &Server, cfg: &SessionConfig) -> BTreeMap<&'static str, Baseline> {
    let snapshot = server.snapshot();
    let cluster = server.cluster();
    queries::NAMES
        .iter()
        .map(|&name| {
            let query = queries::build(name).expect("registered");
            let result =
                batch_run(&query, &snapshot.db, &cluster, cfg).expect("batch baseline runs");
            let out = result.output.as_ref().expect("collected output");
            (
                name,
                Baseline {
                    config: result.config.clone(),
                    arity: out.arity(),
                    raw: out.raw().to_vec(),
                    output_tuples: result.output_tuples,
                },
            )
        })
        .collect()
}

fn assert_matches_baseline(
    name: &str,
    outcome: &parjoin_serve::QueryOutcome,
    baselines: &BTreeMap<&'static str, Baseline>,
) {
    let base = &baselines[name];
    assert_eq!(
        outcome.config, base.config,
        "{name}: served config drifted from the batch advisor decision"
    );
    assert_eq!(
        outcome.result.output_tuples, base.output_tuples,
        "{name}: output count drifted"
    );
    let out = outcome.result.output.as_ref().expect("collected output");
    assert_eq!(out.arity(), base.arity, "{name}: arity drifted");
    assert_eq!(
        out.raw(),
        &base.raw[..],
        "{name}: served output is not byte-identical to the batch run"
    );
}

#[test]
fn overloaded_server_sheds_typed_and_serves_byte_identical() {
    let server = start_loaded_server();
    let session_cfg = SessionConfig::default();
    let base = baselines(&server, &session_cfg);

    let session = server.session(session_cfg);
    let t0 = Instant::now();
    let mut accepted: Vec<(&str, Ticket)> = Vec::new();
    let mut queue_full = 0usize;
    for i in 0..FLOOD {
        let name = queries::NAMES[i % queries::NAMES.len()];
        match session.submit_named(name) {
            Ok(ticket) => accepted.push((name, ticket)),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, QUEUE_CAPACITY, "typed error carries the cap");
                queue_full += 1;
            }
            Err(other) => panic!("unexpected rejection for {name}: {other}"),
        }
    }
    assert!(
        queue_full > 0,
        "an open-loop flood of {FLOOD} must overflow a {QUEUE_CAPACITY}-slot queue"
    );
    assert!(!accepted.is_empty(), "some queries must be admitted");
    assert_eq!(accepted.len() + queue_full, FLOOD);

    let mut latencies: Vec<Duration> = Vec::new();
    for (name, ticket) in accepted {
        let outcome = ticket.wait().expect("admitted queries complete");
        assert_matches_baseline(name, &outcome, &base);
        assert!(outcome.latency >= outcome.queued);
        latencies.push(outcome.latency);
    }

    // Coverage pass: every workload query at least once, served after
    // the flood warmed the SortCache.
    for &name in &queries::NAMES {
        let outcome = session
            .submit_named(name)
            .expect("idle server admits")
            .wait()
            .expect("completes");
        assert_matches_baseline(name, &outcome, &base);
        latencies.push(outcome.latency);
    }

    // Counters reconcile with what the client observed.
    let completed = latencies.len() as u64;
    assert_eq!(
        server.metric("serve.queries.completed"),
        Some(completed),
        "completed counter"
    );
    assert_eq!(
        server.metric("serve.rejected.queue_full"),
        Some(queue_full as u64),
        "queue-full counter"
    );
    assert_eq!(server.metric("serve.queries.failed"), None, "no failures");

    // The latency report parses as strict JSON and carries the counters.
    let report =
        TrafficReport::from_latencies(&latencies, t0.elapsed()).expect("queries completed");
    let json_text = report.to_json(&server.metrics());
    let doc = parjoin_obs::json::parse(&json_text)
        .unwrap_or_else(|e| panic!("latency report must parse: {e}\n{json_text}"));
    assert_eq!(
        doc.get("completed").and_then(|v| v.as_f64()),
        Some(completed as f64)
    );
    assert!(doc.get("p50_ms").and_then(|v| v.as_f64()).is_some());
    assert!(doc.get("p99_ms").and_then(|v| v.as_f64()).is_some());
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("serve.rejected.queue_full")
            .and_then(|v| v.as_f64()),
        Some(queue_full as f64)
    );

    // Graceful shutdown: drains, then rejects with the typed error.
    server.shutdown();
    match session.submit_named("Q1") {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn bind_errors_reject_before_scheduling() {
    let server = Server::start(ServerConfig {
        executors: Some(1),
        ..ServerConfig::default()
    });
    server.load_db(&Scale::tiny().twitter_db(7));
    let session = server.session(SessionConfig::default());

    // Unknown relation: Q110 with the known-relation list.
    let err = session
        .submit("Bad(x,y) :- Nope(x,y).")
        .expect_err("must not bind");
    match err {
        ServeError::Bind(diags) => {
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].code.code(), "Q110");
            let known = diags[0].context_value("known").expect("known list");
            assert!(known.contains("Twitter"), "got {known}");
        }
        other => panic!("expected Bind, got {other:?}"),
    }

    // A Freebase query against a Twitter-only catalog binds nothing.
    let err = session.submit_named("Q3").expect_err("must not bind");
    match err {
        ServeError::Bind(diags) => {
            assert!(diags.iter().all(|d| d.code.code() == "Q110"));
            assert!(!diags.is_empty());
        }
        other => panic!("expected Bind, got {other:?}"),
    }

    // Wrong arity: Q111 carries both arities.
    let err = session
        .submit("Bad(x,y,z) :- Twitter(x,y,z).")
        .expect_err("arity mismatch");
    match err {
        ServeError::Bind(diags) => {
            assert_eq!(diags[0].code.code(), "Q111");
            assert_eq!(diags[0].context_value("catalog_arity"), Some("2"));
            assert_eq!(diags[0].context_value("query_arity"), Some("3"));
        }
        other => panic!("expected Bind, got {other:?}"),
    }

    // Parse errors are typed too, and nothing was scheduled for any of
    // the rejections above.
    assert!(matches!(
        session.submit("this is not datalog"),
        Err(ServeError::Parse(_))
    ));
    assert_eq!(server.metric("serve.queries.accepted"), None);
    assert_eq!(server.metric("serve.rejected.bind"), Some(3));
    assert_eq!(server.metric("serve.rejected.parse"), Some(1));
    server.shutdown();
}

#[test]
fn session_cap_rejects_with_typed_error() {
    let server = Server::start(ServerConfig {
        workers: 4,
        seed: 11,
        queue_capacity: 8,
        session_cap: 1,
        executors: Some(1),
    });
    server.load_db(&Scale::tiny().twitter_db(7));
    let session = server.session(SessionConfig::default());

    // One slow-ish query in flight; the second submission exceeds the
    // per-session cap even though the queue has room.
    let ticket = session.submit_named("Q2").expect("first admitted");
    let err = session.submit_named("Q1").expect_err("cap is 1");
    match err {
        ServeError::SessionLimit { in_flight, cap } => {
            assert_eq!((in_flight, cap), (1, 1));
        }
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    ticket.wait().expect("completes");
    // Slot released: admission works again.
    session
        .submit_named("Q1")
        .expect("slot freed")
        .wait()
        .expect("completes");
    assert_eq!(server.metric("serve.rejected.session_cap"), Some(1));
    server.shutdown();
}

#[test]
fn repeat_queries_warm_both_caches() {
    let server = start_loaded_server();
    // Pin a Tributary config: the columnar probe path is what populates
    // the SortCache and the TrieCache (hash joins touch neither).
    let session = server.session(SessionConfig {
        choice: ConfigChoice::parse("HC_TJ").expect("known config"),
        ..SessionConfig::default()
    });
    let run = || {
        session
            .submit_named("Q1")
            .expect("admitted")
            .wait()
            .expect("completes")
            .result
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.output.as_ref().expect("collected").raw(),
        second.output.as_ref().expect("collected").raw(),
        "warm run must be byte-identical to the cold run"
    );
    // The repeat reuses every sorted view and whole prepared trie: each
    // per-atom lookup of the warm run hits, none misses.
    assert!(
        second.sort_cache_hits > 0 && second.trie_cache_hits > 0,
        "warm run must hit both caches, got {second:?}"
    );
    assert_eq!(
        (second.sort_cache_misses, second.trie_cache_misses),
        (0, 0),
        "warm run must not re-sort or rebuild anything"
    );
    // The serve-level counters aggregate the per-run tallies.
    for (name, per_run) in [
        (
            "serve.sortcache.hits",
            first.sort_cache_hits + second.sort_cache_hits,
        ),
        (
            "serve.triecache.hits",
            first.trie_cache_hits + second.trie_cache_hits,
        ),
    ] {
        assert_eq!(server.metric(name), Some(per_run), "{name}");
    }
    server.shutdown();
}

#[test]
fn catalog_reload_changes_version_and_results_stay_consistent() {
    let server = start_loaded_server();
    let session = server.session(SessionConfig::default());
    let v1 = server.catalog_version();
    let first = session
        .submit_named("Q1")
        .expect("admitted")
        .wait()
        .expect("completes");
    assert_eq!(first.catalog_version, v1);

    // Reload Twitter with a different seed: new version, new answers —
    // but queries submitted before the reload already hold their
    // snapshot.
    server.load_db(&Scale::tiny().twitter_db(8));
    assert!(server.catalog_version() > v1);
    let second = session
        .submit_named("Q1")
        .expect("admitted")
        .wait()
        .expect("completes");
    assert_eq!(second.catalog_version, server.catalog_version());
    assert_ne!(
        first.result.output.as_ref().expect("collected").raw(),
        second.result.output.as_ref().expect("collected").raw(),
        "reloaded relation must change the answer"
    );
    server.shutdown();
}

/// A relation reloaded under the same name is planned from the *new*
/// content's statistics: the StatsCache is keyed by content, the load
/// itself analyses what it loads, and the old content's numbers can
/// never be served. The two contents are crafted so that the Tributary
/// variable order flips between them, which the collected output's row
/// order makes visible; the expected orders come straight from the
/// cost model over the raw tuples, bypassing the cache.
#[test]
fn reloaded_relation_is_planned_from_its_own_statistics() {
    use parjoin_common::Relation;
    use parjoin_core::order::{best_order, OrderCostModel};
    use parjoin_engine::statscache::Lookup;
    use parjoin_engine::{metric_names, run_config, JoinAlg, PlanOptions, ShuffleAlg, StatsCache};
    use parjoin_query::VarId;

    // Content only this test loads, so its cache entries are its own.
    // ReloadS(y, z): ten y values with three z each. ReloadR(x, y) is
    // first two x values fanning out over all ten y (cheapest from x),
    // then twenty x values over two y (cheapest from y).
    const BASE: u64 = 7_000;
    let pairs = |n: u64, f: fn(u64) -> [u64; 2]| {
        Relation::from_rows(2, (0..n).map(|i| f(i).map(|v| v + BASE)))
    };
    let few_x = pairs(20, |i| [i % 2, i / 2]);
    let few_y = pairs(20, |i| [i, i % 2]);
    let other = pairs(30, |i| [i % 10, i]);

    let server = Server::start(ServerConfig {
        executors: Some(1),
        ..ServerConfig::default()
    });
    let (shuffle, join) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
    let cfg = SessionConfig {
        choice: ConfigChoice::Fixed(shuffle, join),
        ..SessionConfig::default()
    };
    let session = server.session(cfg.clone());
    let text = "Reload(x, y, z) :- ReloadR(x, y), ReloadS(y, z).";
    let query = parjoin_query::parser::parse(text).expect("parses");
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    let order_for = |r: &Relation| {
        let model = OrderCostModel::from_atoms(&[(r, vec![x, y]), (&other, vec![y, z])]);
        best_order(&model, &[x, y, z]).0
    };
    let (order_a, order_b) = (order_for(&few_x), order_for(&few_y));
    assert_ne!(order_a, order_b, "the two contents must flip the order");

    server.load("ReloadS", other.clone());
    for (content, order, stale) in [(&few_x, &order_a, &order_b), (&few_y, &order_b, &order_a)] {
        server.load("ReloadR", content.clone());
        // ANALYZE at load: the content is already in the cache.
        let (stats, lookup) = StatsCache::global().get_or_compute(content);
        assert_eq!(lookup, Lookup::Hit, "load must analyse what it loads");
        assert_eq!(stats.distinct(0b01), if order == &order_a { 2 } else { 20 });

        let served = session
            .submit(text)
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.catalog_version, server.catalog_version());
        let metric = |name| served.result.metric(name);
        assert_eq!(metric(metric_names::STATS_CACHE_MISSES), Some(0));
        assert_eq!(metric(metric_names::STATS_CACHE_HITS), Some(2));

        let snapshot = server.snapshot();
        let with_order = |order: &Vec<VarId>| {
            let opts = PlanOptions {
                collect_output: true,
                certify: true,
                tj_order: Some(order.clone()),
                ..PlanOptions::default()
            };
            run_config(
                &query,
                &snapshot.db,
                &server.cluster(),
                shuffle,
                join,
                &opts,
            )
            .expect("runs")
            .output
            .expect("collected")
        };
        let out = served.result.output.as_ref().expect("collected");
        assert!(out.len() > 1);
        assert_eq!(
            out.raw(),
            with_order(order).raw(),
            "the served plan must follow this content's variable order"
        );
        assert_ne!(
            out.raw(),
            with_order(stale).raw(),
            "the other content's order would have shown in the row order"
        );
        let batch = batch_run(&query, &snapshot.db, &server.cluster(), &cfg).expect("batch");
        assert_eq!(out.raw(), batch.output.as_ref().expect("collected").raw());
    }
    server.shutdown();
}
