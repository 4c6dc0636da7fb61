//! Group-count aggregation: the §1 graphlet-frequency use case.

mod parity;

use parjoin::prelude::*;

fn q1_grouped_by_x() -> ConjunctiveQuery {
    // Triangle count per starting vertex.
    parjoin::query::parser::parse(
        "TrianglesPerNode(x) :- Twitter(x, y), Twitter(y, z), Twitter(z, x)",
    )
    .unwrap()
}

fn run(
    q: &ConjunctiveQuery,
    db: &Database,
    workers: usize,
    s: ShuffleAlg,
    j: JoinAlg,
    group: bool,
) -> RunResult {
    let cluster = Cluster::new(workers).with_seed(5);
    let opts = PlanOptions {
        collect_output: true,
        group_count: group,
        ..Default::default()
    };
    run_config(q, db, &cluster, s, j, &opts).expect("plan runs")
}

#[test]
fn group_counts_match_bag_output() {
    let q = q1_grouped_by_x();
    let db = Scale::tiny().twitter_db(3);
    let bag = run(&q, &db, 4, ShuffleAlg::HyperCube, JoinAlg::Tributary, false);
    let grouped = run(&q, &db, 4, ShuffleAlg::HyperCube, JoinAlg::Tributary, true);

    // Reference: count occurrences of each x in the bag output.
    let mut expect = std::collections::BTreeMap::new();
    for row in bag.output.as_ref().unwrap().rows() {
        *expect.entry(row[0]).or_insert(0u64) += 1;
    }
    let out = grouped.output.unwrap();
    assert_eq!(out.arity(), 2, "(x, count)");
    let mut got = std::collections::BTreeMap::new();
    for row in out.rows() {
        assert!(
            got.insert(row[0], row[1]).is_none(),
            "duplicate group {}",
            row[0]
        );
    }
    assert_eq!(got, expect);
    // Sum of counts = bag cardinality; groups = distinct heads.
    assert_eq!(got.values().sum::<u64>(), bag.output_tuples);
    assert_eq!(grouped.output_tuples, expect.len() as u64);
}

#[test]
fn grouping_agrees_across_configs_and_workers() {
    let q = q1_grouped_by_x();
    let db = Scale::tiny().twitter_db(9);
    let reference = {
        let r = run(&q, &db, 1, ShuffleAlg::Regular, JoinAlg::Hash, true);
        let mut rows: Vec<Vec<u64>> = r.output.unwrap().rows().map(|x| x.to_vec()).collect();
        rows.sort();
        rows
    };
    for workers in [2, 5, 16] {
        for (s, j) in [
            (ShuffleAlg::Regular, JoinAlg::Hash),
            (ShuffleAlg::Broadcast, JoinAlg::Tributary),
            (ShuffleAlg::HyperCube, JoinAlg::Tributary),
        ] {
            let r = run(&q, &db, workers, s, j, true);
            let mut rows: Vec<Vec<u64>> = r.output.unwrap().rows().map(|x| x.to_vec()).collect();
            rows.sort();
            assert_eq!(rows, reference, "{workers} workers {s:?}/{j:?}");
        }
    }
}

#[test]
fn combine_shuffle_is_accounted() {
    let q = q1_grouped_by_x();
    let db = Scale::tiny().twitter_db(3);
    let plain = run(&q, &db, 4, ShuffleAlg::HyperCube, JoinAlg::Tributary, false);
    let grouped = run(&q, &db, 4, ShuffleAlg::HyperCube, JoinAlg::Tributary, true);
    assert_eq!(grouped.shuffles.len(), plain.shuffles.len() + 1);
    assert!(grouped.tuples_shuffled > plain.tuples_shuffled);
    assert_eq!(grouped.rounds, plain.rounds + 1);
    let combine = grouped.shuffles.last().unwrap();
    assert!(combine.label.contains("group-count"));
    // The combiner sends at most one row per (worker, group).
    assert!(combine.tuples_sent <= plain.output_tuples);
}

#[test]
fn every_round_pays_round_latency_exactly_once() {
    // With a one-hour barrier the wall reads the round count directly.
    // The combine round used to be charged twice: by the combine itself
    // and again by the executor's trailing `round_latency * rounds`.
    const HOUR: std::time::Duration = std::time::Duration::from_secs(3600);
    let db = Scale::tiny().twitter_db(3);
    let cluster = Cluster::new(4).with_seed(5).with_round_latency(HOUR);
    let check = |what: &str, r: &RunResult, rounds: u32| {
        assert_eq!(r.rounds, rounds, "{what}");
        assert!(
            HOUR * rounds <= r.wall && r.wall < HOUR * (rounds + 1),
            "{what}: {rounds} round(s) but wall {:?}",
            r.wall
        );
    };
    let q = q1_grouped_by_x();
    let (hc, tj, rs, hj) = (
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
    );
    let run = |s, j, opts: PlanOptions| run_config(&q, &db, &cluster, s, j, &opts).unwrap();
    check("HC_TJ", &run(hc, tj, PlanOptions::default()), 1);
    let grouped = PlanOptions {
        group_count: true,
        ..Default::default()
    };
    check("HC_TJ + group_count", &run(hc, tj, grouped.clone()), 2);
    check("RS_HJ", &run(rs, hj, PlanOptions::default()), 2);
    check("RS_HJ + group_count", &run(rs, hj, grouped), 3);
    let skew = PlanOptions {
        skew_resilient: true,
        ..Default::default()
    };
    // Each join step adds its heavy-key summary round.
    check("RS_HJ + skew_resilient", &run(rs, hj, skew), 4);

    // Semijoin plan on a path: two reductions up, two down, then the
    // final join's two steps.
    let plain = PlanOptions::default();
    let path =
        parjoin::query::parser::parse("P(x, w) :- Twitter(x, y), Twitter(y, z), Twitter(z, w)")
            .unwrap();
    let sj = run_config(&path, &db, &cluster, ShuffleAlg::Semijoin, hj, &plain).unwrap();
    check("SJ_HJ", &sj, 6);
}

#[test]
fn global_count_via_constant_free_group() {
    // Grouping on the full head degenerates gracefully: every distinct
    // assignment is its own group of size 1 for a full CQ over set data.
    let q =
        parjoin::query::parser::parse("T(x, y, z) :- Twitter(x, y), Twitter(y, z), Twitter(z, x)")
            .unwrap();
    let db = Scale::tiny().twitter_db(3);
    let grouped = run(&q, &db, 4, ShuffleAlg::HyperCube, JoinAlg::Tributary, true);
    let out = grouped.output.unwrap();
    assert!(
        out.rows().all(|r| r[3] == 1),
        "full-head groups are singletons"
    );
}

#[test]
fn combine_shuffle_streams_like_any_other_shuffle() {
    // The combine round is a hash shuffle of `(head…, count)` rows: on
    // a streaming transport it moves real bytes and the groups come out
    // exactly as on Local.
    let q = q1_grouped_by_x();
    let db = Scale::tiny().twitter_db(3);
    let opts = PlanOptions {
        collect_output: true,
        group_count: true,
        ..Default::default()
    };
    for (s, j) in [
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ] {
        let run = |transport| {
            let cluster = Cluster::new(4).with_seed(5).with_transport(transport);
            run_config(&q, &db, &cluster, s, j, &opts).expect("plan runs")
        };
        let local = run(TransportKind::Local);
        let streamed = run(TransportKind::InProcess);
        let cell = format!("TrianglesPerNode {s:?}/{j:?} on InProcess");
        parity::assert_parity(&cell, &local, &streamed);
        parity::assert_every_shuffle_streamed(&cell, &streamed);
        let combine = streamed.shuffles.last().unwrap();
        assert_eq!(combine.label, "group-count combine");
        assert!(combine.bytes_sent > 0);
    }
}
