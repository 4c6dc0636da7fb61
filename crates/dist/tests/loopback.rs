//! Multi-worker loopback integration: a coordinator and four worker
//! servers in one process (separate threads, real TCP sockets for both
//! control and data planes) must produce output byte-identical to the
//! sequential `Transport::Local` engine for every shuffle×join
//! configuration — and their cross-process metric tallies must
//! reconcile exactly. A session ships each seed partition to its worker
//! once, and the tests at the end pin what the workers' stores hold.

use parjoin_dist::{RemoteCluster, WorkerServer};
use parjoin_engine::statscache::Lookup;
use parjoin_engine::{
    run_config, Cluster, JoinAlg, PartitionRef, PlanOptions, ShuffleAlg, SortCache, StatsCache,
    TrieCache,
};
use std::sync::Arc;
use std::time::Duration;

fn all_configs() -> Vec<(ShuffleAlg, JoinAlg)> {
    vec![
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::Regular, JoinAlg::Tributary),
        (ShuffleAlg::Broadcast, JoinAlg::Hash),
        (ShuffleAlg::Broadcast, JoinAlg::Tributary),
        (ShuffleAlg::HyperCube, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ]
}

/// Binds `n` worker servers on loopback, spawns their serve loops, and
/// returns the control address book plus the join handles.
fn spawn_workers(
    n: usize,
) -> (
    Vec<String>,
    Vec<std::thread::JoinHandle<Result<(), parjoin_dist::DistError>>>,
) {
    let mut addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let server = WorkerServer::bind("127.0.0.1:0").expect("bind worker");
        addrs.push(server.control_addr().expect("control addr").to_string());
        handles.push(std::thread::spawn(move || server.serve()));
    }
    (addrs, handles)
}

/// The tentpole safety net: every paper configuration of Q1, executed by
/// four worker servers over real sockets, is byte-identical to the
/// Local run — same raw buffer, same arity, same tuple count — and the
/// per-worker byte/batch tallies balance. All six configs run over ONE
/// persistent worker session, so this also proves fragment-after-
/// fragment reuse of the same mesh.
#[test]
fn six_configs_match_local_over_real_sockets() {
    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    for (s, j) in all_configs() {
        let local = run_config(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("local {s:?}/{j:?}: {e}"));
        let local_out = local.output.as_ref().expect("collected");

        let run = remote
            .run(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("remote {s:?}/{j:?}: {e}"));
        assert_eq!(
            local_out.arity(),
            run.output.arity(),
            "{s:?}/{j:?}: arity drifted"
        );
        assert_eq!(
            local_out.raw(),
            run.output.raw(),
            "{s:?}/{j:?}: output not byte-identical to Local"
        );
        assert_eq!(
            local.output_tuples, run.output_tuples,
            "{s:?}/{j:?}: tuple tallies drifted"
        );
        run.reconcile()
            .unwrap_or_else(|e| panic!("{s:?}/{j:?}: {e}"));
        assert_eq!(run.workers.len(), 4, "{s:?}/{j:?}: missing worker stats");
        let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
        assert_eq!(
            local.tuples_shuffled, sent,
            "{s:?}/{j:?}: shuffled-tuple tallies drifted"
        );
    }

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// The §3.6 semijoin plan is an ordinary plan: its reduction rounds run
/// on every rank over the partition that rank hosts, then the final
/// join, byte-identical to the Local run with the same tallies.
#[test]
fn semijoin_plans_match_local_over_real_sockets() {
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    for spec in [
        parjoin_datagen::workloads::q3(),
        parjoin_datagen::workloads::q7(),
    ] {
        let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
        for j in JoinAlg::ALL {
            let (s, q) = (ShuffleAlg::Semijoin, spec.name);
            let local = run_config(&spec.query, &db, &cluster, s, j, &opts)
                .unwrap_or_else(|e| panic!("local {q} SJ/{j:?}: {e}"));
            let run = remote
                .run(&spec.query, &db, &cluster, s, j, &opts)
                .unwrap_or_else(|e| panic!("remote {q} SJ/{j:?}: {e}"));
            let local_out = local.output.as_ref().expect("collected");
            assert_eq!(local_out.arity(), run.output.arity(), "{q} SJ/{j:?}");
            assert_eq!(
                local_out.raw(),
                run.output.raw(),
                "{q} SJ/{j:?}: output not byte-identical to Local"
            );
            assert_eq!(local.output_tuples, run.output_tuples, "{q} SJ/{j:?}");
            run.reconcile()
                .unwrap_or_else(|e| panic!("{q} SJ/{j:?}: {e}"));
            let rounds = local.shuffles.len() as u32;
            assert!(
                run.workers.iter().all(|w| w.rounds == rounds),
                "{q} SJ/{j:?}: every rank runs every reduction round"
            );
            let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
            assert_eq!(local.tuples_shuffled, sent, "{q} SJ/{j:?}: tallies drifted");
        }
    }

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// A mesh rank prepares through the process-wide trie cache like any
/// in-process worker: the second HC_TJ run on one persistent session
/// finds its tries resident, and neither run sorts a view. (The Local run
/// comes last — it shuffles to the very same partitions and would warm
/// the caches for the mesh.)
#[test]
fn second_run_on_a_session_hits_the_prepare_caches() {
    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    // A seed no other test here uses, so no one else's run leaves this
    // one's partitions in the shared caches.
    let cluster = Cluster::new(4).with_seed(2311).with_batch_tuples(512);
    let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    // No test here prepares the row layout, the SortCache's only user.
    let sort_lookups = || {
        let s = SortCache::global().stats();
        s.hits + s.misses
    };
    let sort_before = sort_lookups();
    let first = remote
        .run(&spec.query, &db, &cluster, s, j, &opts)
        .expect("first remote run");
    let trie_hits = TrieCache::global().stats().hits;
    let second = remote
        .run(&spec.query, &db, &cluster, s, j, &opts)
        .expect("second remote run");
    assert_eq!(
        sort_lookups(),
        sort_before,
        "the mesh runs' columnar prepare consulted the SortCache"
    );
    assert!(
        TrieCache::global().stats().hits > trie_hits,
        "the second mesh run found no trie in the TrieCache"
    );

    let local = run_config(&spec.query, &db, &cluster, s, j, &opts).expect("local");
    let local_out = local.output.as_ref().expect("collected");
    assert_eq!(local_out.raw(), first.output.raw(), "cold mesh run drifted");
    assert_eq!(
        local_out.raw(),
        second.output.raw(),
        "warm mesh run drifted"
    );

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// The coordinator plans through the engine's one planner, so it reads
/// relation statistics from the process-wide StatsCache: the first
/// query of a session analyses the relation, the second is planned from
/// the very same entry and computes nothing. (The counters are shared
/// with the tests running beside this one, so the entry itself is the
/// witness: a miss on resident content is impossible, and a recomputed
/// entry would be another allocation.)
#[test]
fn second_query_of_a_session_plans_from_cached_statistics() {
    let spec = parjoin_datagen::workloads::q1();
    // A generator seed no other test here uses: this content's cache
    // entry is this test's alone.
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 2312);
    let (_, rel) = db.iter().next().expect("Q1 reads one relation");
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let (s, j) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    let first = remote
        .run(&spec.query, &db, &cluster, s, j, &opts)
        .expect("first remote run");
    let (analysed, lookup) = StatsCache::global().get_or_compute(rel);
    assert_eq!(
        lookup,
        Lookup::Hit,
        "the first query must leave the relation's statistics behind"
    );
    let hits = StatsCache::global().stats().hits;
    let second = remote
        .run(&spec.query, &db, &cluster, s, j, &opts)
        .expect("second remote run");
    assert!(
        StatsCache::global().stats().hits > hits,
        "the second query's plan did not read the StatsCache"
    );
    let (again, lookup) = StatsCache::global().get_or_compute(rel);
    assert_eq!(lookup, Lookup::Hit);
    assert!(
        Arc::ptr_eq(&analysed, &again),
        "the second query analysed the relation again"
    );
    assert_eq!(first.output.raw(), second.output.raw());

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// Projected-distinct heads (Q3's shape) survive the wire: the remote
/// path must apply the coordinator-side distinct exactly like the Local
/// gather does.
#[test]
fn distinct_output_matches_local() {
    let spec = parjoin_datagen::workloads::q3();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(3).with_seed(11).with_batch_tuples(256);
    let opts = PlanOptions {
        collect_output: true,
        distinct_output: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(3);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    for (s, j) in [
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ] {
        let local = run_config(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("local {s:?}/{j:?}: {e}"));
        let run = remote
            .run(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("remote {s:?}/{j:?}: {e}"));
        assert_eq!(
            local.output.as_ref().expect("collected").raw(),
            run.output.raw(),
            "{s:?}/{j:?}: distinct output drifted"
        );
        run.reconcile()
            .unwrap_or_else(|e| panic!("{s:?}/{j:?}: {e}"));
    }

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// Rows of `rel` as a sorted multiset.
fn sorted_rows(rel: &parjoin_common::Relation) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = rel.rows().map(<[u64]>::to_vec).collect();
    rows.sort();
    rows
}

/// The mesh refuses no data-path option: the heavy-hitter-resilient
/// shuffle decides its heavy keys from all-gathered summaries, so four
/// ranks that each see a quarter of the data route exactly like the
/// Local run — same row multiset (the join is correct for *any* heavy
/// set; rank-ascending gather order is the same too), same tuple
/// tallies, and every rank runs the same number of exchange rounds,
/// the summary rounds included.
#[test]
fn skew_resilient_matches_local_over_real_sockets() {
    let spec = parjoin_datagen::workloads::q1();
    // A ring with one celebrity: everyone follows node 0 and node 0
    // follows 50 back, so y = 0 is well over a quarter of the first
    // join's input and both heavy routes (spread, replicate) run.
    let ring = (1..=200u64).map(|i| [i, i % 200 + 1]);
    let fans = (1..=200u64).map(|i| [i, 0]);
    let follows = (1..=50u64).map(|i| [0, i]);
    let edges: Vec<[u64; 2]> = ring.chain(fans).chain(follows).collect();
    let mut db = parjoin_common::Database::new();
    db.insert("Twitter", parjoin_common::Relation::from_rows(2, &edges));
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        skew_resilient: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    for j in [JoinAlg::Hash, JoinAlg::Tributary] {
        let s = ShuffleAlg::Regular;
        let local = run_config(&spec.query, &db, &cluster, s, j, &opts).expect("local");
        let replicated = |stats: &parjoin_common::ShuffleStats| {
            stats.label == "Twitter ->skew-resilient" && stats.tuples_sent > edges.len() as u64
        };
        assert!(
            local.shuffles.iter().any(replicated),
            "RS/{j:?}: no heavy key found, the heavy routes never ran"
        );
        let run = remote
            .run(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("remote RS/{j:?}: {e}"));
        assert_eq!(
            sorted_rows(local.output.as_ref().expect("collected")),
            sorted_rows(&run.output),
            "RS/{j:?}: row multiset drifted"
        );
        assert_eq!(local.output_tuples, run.output_tuples, "RS/{j:?}");
        run.reconcile().unwrap_or_else(|e| panic!("RS/{j:?}: {e}"));
        // Two join steps, each one summary all-gather and two data
        // shuffles, on every rank.
        assert!(
            run.workers.iter().all(|w| w.rounds == 6),
            "RS/{j:?}: rounds {:?}",
            run.workers.iter().map(|w| w.rounds).collect::<Vec<_>>()
        );
        let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
        assert_eq!(local.tuples_shuffled, sent, "RS/{j:?}: tallies drifted");
    }

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// `group_count` over the mesh: each rank pre-aggregates its output,
/// the combine is one more exchange round on the head columns, and the
/// coordinator gathers `(head…, count)` rows — byte-identical to the
/// Local run, with `output_tuples` the number of groups.
#[test]
fn group_count_matches_local_over_real_sockets() {
    let query = parjoin_query::parser::parse(
        "TrianglesPerNode(x) :- Twitter(x, y), Twitter(y, z), Twitter(z, x)",
    )
    .expect("parses");
    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        group_count: true,
        ..Default::default()
    };

    let (addrs, handles) = spawn_workers(4);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    for (s, j) in [
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ] {
        let local = run_config(&query, &db, &cluster, s, j, &opts).expect("local");
        let local_out = local.output.as_ref().expect("collected");
        let run = remote
            .run(&query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("remote {s:?}/{j:?}: {e}"));
        assert_eq!(run.output.arity(), 2, "{s:?}/{j:?}: (x, count)");
        assert_eq!(
            local_out.raw(),
            run.output.raw(),
            "{s:?}/{j:?}: groups not byte-identical to Local"
        );
        assert!(local_out.len() > 1, "{s:?}/{j:?}: a trivial grouping");
        assert_eq!(
            run.output_tuples,
            local_out.len() as u64,
            "{s:?}/{j:?}: output_tuples is the group count"
        );
        run.reconcile()
            .unwrap_or_else(|e| panic!("{s:?}/{j:?}: {e}"));
        let rounds = local.shuffles.len() as u32;
        assert!(
            run.workers.iter().all(|w| w.rounds == rounds),
            "{s:?}/{j:?}: every rank runs the combine round"
        );
        let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
        assert_eq!(local.tuples_shuffled, sent, "{s:?}/{j:?}: tallies drifted");
    }

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// A refused fragment (unsupported option) leaves the session usable:
/// the coordinator gets a typed `Worker` error, and the very next query
/// on the same connections still runs and matches Local.
#[test]
fn refusal_keeps_the_session_alive() {
    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(2).with_seed(11).with_batch_tuples(512);

    let (addrs, handles) = spawn_workers(2);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));

    // A mesh-width mismatch: a Cluster narrower than the connected
    // mesh is refused before any fragment ships.
    let narrow = Cluster::new(1).with_seed(11);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let err = remote
        .run(
            &spec.query,
            &db,
            &narrow,
            ShuffleAlg::Regular,
            JoinAlg::Hash,
            &opts,
        )
        .expect_err("width mismatch must be refused");
    assert!(
        matches!(err, parjoin_dist::DistError::Protocol(_)),
        "unexpected error: {err}"
    );

    // The session survives: the same connections run a real query next.
    let local = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &opts,
    )
    .expect("local");
    let run = remote
        .run(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::Regular,
            JoinAlg::Hash,
            &opts,
        )
        .expect("remote after refusal");
    assert_eq!(
        local.output.as_ref().expect("collected").raw(),
        run.output.raw()
    );

    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

/// Asserts `run` is byte-identical to the Local run of the same query
/// and that its cross-process tallies balance.
fn assert_matches_local(
    run: &parjoin_dist::RemoteRun,
    spec: &parjoin_datagen::workloads::QuerySpec,
    db: &parjoin_common::Database,
    cluster: &Cluster,
    (s, j): (ShuffleAlg, JoinAlg),
) {
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let local = run_config(&spec.query, db, cluster, s, j, &opts).expect("local");
    let local_out = local.output.as_ref().expect("collected");
    let what = format!("{} {s:?}/{j:?}", spec.name);
    assert_eq!(local_out.arity(), run.output.arity(), "{what}: arity");
    assert_eq!(
        local_out.raw(),
        run.output.raw(),
        "{what}: output not byte-identical to Local"
    );
    run.reconcile().unwrap_or_else(|e| panic!("{what}: {e}"));
    let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
    assert_eq!(local.tuples_shuffled, sent, "{what}: tallies drifted");
}

/// Bytes of the one edge relation's rows, across all ranks.
fn edge_bytes(db: &parjoin_common::Database) -> u64 {
    let rel = db.get("Twitter").expect("a Twitter relation");
    8 * rel.raw().len() as u64
}

/// Connects a session to `n` fresh loopback workers.
fn session(
    n: usize,
) -> (
    RemoteCluster,
    Vec<std::thread::JoinHandle<Result<(), parjoin_dist::DistError>>>,
) {
    let (addrs, handles) = spawn_workers(n);
    let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20)).expect("connect");
    remote.reply_timeout = Some(Duration::from_secs(60));
    (remote, handles)
}

fn end_session(
    remote: RemoteCluster,
    handles: Vec<std::thread::JoinHandle<Result<(), parjoin_dist::DistError>>>,
) {
    remote.shutdown().expect("shutdown");
    for h in handles {
        h.join().expect("worker thread").expect("worker serve");
    }
}

const HC_TJ: (ShuffleAlg, JoinAlg) = (ShuffleAlg::HyperCube, JoinAlg::Tributary);
const RS_HJ: (ShuffleAlg, JoinAlg) = (ShuffleAlg::Regular, JoinAlg::Hash);

/// Partitions live on the workers: the session's first fragment per
/// rank carries that rank's partition of the edge relation once, though
/// Q1 names it three times; every later query over the same edges, Q2
/// and the regular shuffle included, ships its plan alone, and every
/// output is byte-identical to Local.
#[test]
fn a_session_ships_each_partition_once() {
    let (q1, q2) = (
        parjoin_datagen::workloads::q1(),
        parjoin_datagen::workloads::q2(),
    );
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(q1.dataset, 7);
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let (mut remote, handles) = session(4);
    let edges = edge_bytes(&db);
    for (i, (spec, config)) in [(&q1, HC_TJ), (&q1, RS_HJ), (&q2, RS_HJ), (&q1, HC_TJ)]
        .into_iter()
        .enumerate()
    {
        let (s, j) = config;
        let run = remote
            .run(&spec.query, &db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_matches_local(&run, spec, &db, &cluster, config);
        if i == 0 {
            // The rows of every rank's partition, once, plus four plans.
            assert!(
                (edges..edges + 4 * 4096).contains(&run.fragment_bytes),
                "first query shipped {} bytes for {edges} bytes of edges",
                run.fragment_bytes
            );
        } else {
            assert!(
                run.fragment_bytes < 4096,
                "query {i}'s four fragments took {} bytes",
                run.fragment_bytes
            );
        }
    }
    end_session(remote, handles);
}

/// A partition's name is its content: a relation with one changed tuple
/// is a new fingerprint, so its partitions ship inline again and no
/// rank ever runs on a stale one. A store holds only what the latest
/// fragment named, so the old content ships again when next named, and
/// stays resident for the query after that.
#[test]
fn a_changed_relation_ships_inline_again() {
    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let mut rows: Vec<Vec<u64>> = db
        .get("Twitter")
        .expect("edges")
        .rows()
        .map(<[u64]>::to_vec)
        .collect();
    rows[0][1] += 1;
    let mut changed = parjoin_common::Database::new();
    changed.insert("Twitter", parjoin_common::Relation::from_rows(2, &rows));
    let cluster = Cluster::new(4).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let (s, j) = HC_TJ;
    let (mut remote, handles) = session(4);
    let edges = edge_bytes(&db);
    for (i, (db, inline)) in [(&db, true), (&changed, true), (&db, true), (&db, false)]
        .into_iter()
        .enumerate()
    {
        let run = remote
            .run(&spec.query, db, &cluster, s, j, &opts)
            .unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert_matches_local(&run, &spec, db, &cluster, HC_TJ);
        assert_eq!(
            run.fragment_bytes >= edges,
            inline,
            "query {i} shipped {} bytes",
            run.fragment_bytes
        );
    }
    end_session(remote, handles);
}

/// A fragment that names a partition its worker does not hold is
/// refused with a typed `Error` frame, never a panic, and leaves the
/// store empty; the session goes on. Spoken over a raw control stream,
/// since the coordinator never names a partition it has not shipped.
#[test]
fn an_unheld_partition_name_is_refused_and_the_session_goes_on() {
    use parjoin_common::wire::control::{self, FrameKind, DEFAULT_FRAME_LIMIT};
    use parjoin_common::wire::decode_frame_into;
    use parjoin_common::{Relation, WireFormat};
    use parjoin_dist::proto;

    let spec = parjoin_datagen::workloads::q1();
    let db = parjoin_datagen::workloads::Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(1).with_seed(11).with_batch_tuples(512);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let (s, j) = HC_TJ;
    let local = run_config(&spec.query, &db, &cluster, s, j, &opts).expect("local");
    let local = local.output.expect("collected");

    let server = WorkerServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.control_addr().expect("addr");
    let serving = std::thread::spawn(move || server.serve());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let (kind, ready) = control::read_frame(&mut stream, DEFAULT_FRAME_LIMIT).expect("ready");
    assert_eq!(kind, FrameKind::Ready);
    let data_addr = proto::decode_ready(&ready).expect("data address");

    // Ships `frag` and reads the worker's output, or its refusal.
    let mut run = |frag: &parjoin_engine::Fragment| -> Result<Relation, String> {
        control::write_frame(&mut stream, FrameKind::Fragment, &frag.encode()).expect("ship");
        let mut out = Relation::new(local.arity());
        loop {
            let (kind, payload) =
                control::read_frame(&mut stream, DEFAULT_FRAME_LIMIT).expect("reply");
            match kind {
                FrameKind::OutputBatch => {
                    let rows = decode_frame_into(WireFormat::Vectored, &payload, &mut out);
                    rows.expect("batch");
                }
                FrameKind::OutputDone => return Ok(out),
                FrameKind::Error => return Err(proto::decode_error(&payload).expect("message")),
                other => panic!("unexpected {other:?} frame"),
            }
        }
    };
    let inline =
        parjoin_engine::plan_fragments(&spec.query, &db, &cluster, s, j, &opts, &[data_addr])
            .expect("plans")
            .remove(0);
    let fp = inline.parts[0].fingerprint();
    let named = |fp| {
        let mut frag = inline.clone();
        frag.parts.fill(PartitionRef::Resident(fp));
        frag
    };
    let refused = |reply: Result<Relation, String>| {
        let err = reply.expect_err("an unheld partition must be refused");
        assert!(err.contains("does not hold"), "unexpected refusal: {err}");
    };

    refused(run(&named(fp)));
    assert_eq!(run(&inline).expect("inline").raw(), local.raw());
    assert_eq!(run(&named(fp)).expect("resident").raw(), local.raw());
    // A name of other content is refused and empties the store, so the
    // edges it held are refused next; shipped inline, they run again.
    refused(run(&named(0xDEAD_BEEF)));
    refused(run(&named(fp)));
    assert_eq!(run(&inline).expect("re-shipped").raw(), local.raw());

    control::write_frame(&mut stream, FrameKind::Shutdown, &[]).expect("shutdown");
    serving
        .join()
        .expect("worker thread")
        .expect("worker serve");
}
