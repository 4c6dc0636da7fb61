//! The heavy-hitter-resilient regular shuffle (paper footnote 2) must
//! preserve results while flattening the intermediate-result skew.

mod parity;

use parjoin::prelude::*;

fn rows(r: &RunResult) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = r
        .output
        .as_ref()
        .unwrap()
        .rows()
        .map(|x| x.to_vec())
        .collect();
    rows.sort();
    rows
}

#[test]
fn same_results_with_and_without_skew_handling() {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(4);
    let cluster = Cluster::new(8).with_seed(2);
    let base = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &PlanOptions {
            collect_output: true,
            ..Default::default()
        },
    )
    .unwrap();
    let resilient = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &PlanOptions {
            collect_output: true,
            skew_resilient: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(rows(&base), rows(&resilient));
}

/// Peak producer of the shuffle that moves the first join's result.
fn peak_intermediate_producer(r: &RunResult) -> u64 {
    let mut shuffles = r.shuffles.iter();
    let shuffle = shuffles
        .find(|s| s.label.starts_with("TwitterTwitter ->"))
        .unwrap();
    *shuffle.per_producer.iter().max().unwrap()
}

#[test]
fn skew_handling_flattens_hot_keys() {
    // The celebrity-laden graph gives the Q1 intermediate a heavy
    // producer skew under plain hashing; the resilient shuffle must cut
    // the *max received* load of the first join's inputs.
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::small().twitter_db(42);
    let cluster = Cluster::new(64).with_seed(42);
    let base = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &PlanOptions::default(),
    )
    .unwrap();
    let resilient = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &PlanOptions {
            skew_resilient: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(base.output_tuples, resilient.output_tuples);

    // The intermediate's shuffle is the skewed one in Q1.
    let base_peak = peak_intermediate_producer(&base);
    let res_peak = peak_intermediate_producer(&resilient);
    assert!(
        (res_peak as f64) < 0.6 * base_peak as f64,
        "hot-key spreading must cut the peak producer: {res_peak} vs {base_peak}"
    );
    // And the straggler improves end to end.
    assert!(
        resilient.wall < base.wall,
        "wall {:?} should beat {:?}",
        resilient.wall,
        base.wall
    );
}

#[test]
fn all_queries_agree_under_skew_handling() {
    let scale = Scale {
        twitter_nodes: 300,
        twitter_m: 3,
        freebase_performances: 250,
    };
    for spec in all_queries() {
        let db = scale.db_for(spec.dataset, 7);
        let cluster = Cluster::new(4).with_seed(7);
        let opts = |sr| PlanOptions {
            collect_output: true,
            skew_resilient: sr,
            ..Default::default()
        };
        for j in [JoinAlg::Hash, JoinAlg::Tributary] {
            let a = run_config(
                &spec.query,
                &db,
                &cluster,
                ShuffleAlg::Regular,
                j,
                &opts(false),
            )
            .unwrap();
            let b = run_config(
                &spec.query,
                &db,
                &cluster,
                ShuffleAlg::Regular,
                j,
                &opts(true),
            )
            .unwrap();
            assert_eq!(rows(&a), rows(&b), "{} {:?}", spec.name, j);
        }
    }
}

#[test]
fn skew_handling_streams_like_any_other_shuffle() {
    // The summary all-gather and both heavy routes go through the same
    // exchange as a plain hash shuffle: on a streaming transport they
    // move real bytes, and — the decision being a pure function of the
    // gathered summaries — produce exactly the Local run's output.
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::small().twitter_db(42);
    let opts = PlanOptions {
        collect_output: true,
        skew_resilient: true,
        ..Default::default()
    };
    let run = |transport| {
        let cluster = Cluster::new(64).with_seed(42).with_transport(transport);
        let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
        run_config(&spec.query, &db, &cluster, s, j, &opts).unwrap()
    };
    let local = run(TransportKind::Local);
    let streamed = run(TransportKind::InProcess);
    parity::assert_parity("Q1 RS_HJ skew-resilient on InProcess", &local, &streamed);
    parity::assert_every_shuffle_streamed("Q1 RS_HJ skew-resilient", &streamed);
    // Six recorded shuffles: per join step, the summary and two sides —
    // and at 64 workers the celebrity keys are heavy, so a side is
    // replicated.
    let labels: Vec<&str> = streamed.shuffles.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels.len(), 6, "{labels:?}");
    assert!(labels[0].ends_with("heavy-key summary"), "{labels:?}");
    assert!(
        streamed.shuffles[2].tuples_sent > local.shuffles[1].tuples_sent,
        "no heavy key: the replicated route never ran"
    );
}
