//! The engine's measurements must obey the paper's analytical accounting:
//! hypercube replication factors, broadcast volumes, skew definitions,
//! and the Algorithm 1 workload model.

use parjoin::prelude::*;

#[test]
fn hypercube_shuffle_matches_expected_replication() {
    // With a k-dim config, atom replication = ∏ of unpinned dims; the
    // measured shuffle volume must equal the analytical expectation
    // exactly (replication is deterministic, only placement is hashed).
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(3);
    let edges = db.expect("Twitter").len() as u64;
    let cluster = Cluster::new(64);
    let r = run_config(
        &spec.query,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &PlanOptions::default(),
    )
    .unwrap();
    let cfg = r.hc_config.as_ref().unwrap();
    assert_eq!(cfg.dims(), &[4, 4, 4], "equal-size triangle at 64 workers");
    // Paper §3.1: "Each relation is replicated 4 times" → 3 × 4 × |E|.
    assert_eq!(r.tuples_shuffled, 3 * 4 * edges);
}

#[test]
fn broadcast_volume_is_card_times_workers() {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(3);
    let edges = db.expect("Twitter").len() as u64;
    let workers = 16;
    let r = run_config(
        &spec.query,
        &db,
        &Cluster::new(workers),
        ShuffleAlg::Broadcast,
        JoinAlg::Hash,
        &PlanOptions::default(),
    )
    .unwrap();
    // Two of the three self-join copies are broadcast.
    assert_eq!(r.tuples_shuffled, 2 * edges * workers as u64);
    for s in &r.shuffles {
        assert!(
            (s.consumer_skew() - 1.0).abs() < 1e-9,
            "broadcast has no skew"
        );
    }
}

#[test]
fn regular_shuffle_base_relations_balanced_intermediate_skewed() {
    // Table 2's shape: base-relation shuffles have small consumer skew;
    // the intermediate result shuffle is far more skewed (power-law y).
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::small().twitter_db(4);
    let r = run_config(
        &spec.query,
        &db,
        &Cluster::new(64),
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &PlanOptions::default(),
    )
    .unwrap();
    // Shuffles: R→h, S→h, RS→h, T→h. Table 2's shape: the *base*
    // relations are round-robin partitioned, so their producer skew is 1;
    // the intermediate result was produced by a skewed join, so its
    // producer skew is large ("the skew factors are multiplied", 20.8 in
    // the paper).
    assert_eq!(r.shuffles.len(), 4);
    let base_producer = r.shuffles[0].producer_skew();
    let intermediate_producer = r.shuffles[2].producer_skew();
    assert!(
        (base_producer - 1.0).abs() < 0.05,
        "round-robin base: {base_producer}"
    );
    assert!(
        intermediate_producer > 2.0,
        "power-law data must skew the intermediate result, got {intermediate_producer}"
    );
    // And the base relations' consumer skew is visibly above 1 (1.35 and
    // 1.72 in Table 2) because a single hashed attribute is power-law.
    let base_consumer = r.shuffles[0].consumer_skew();
    assert!(
        base_consumer > 1.05,
        "hashed power-law attribute: {base_consumer}"
    );
}

#[test]
fn algorithm1_workload_predicts_hypercube_balance() {
    // The measured per-worker received volume under HC must stay close
    // to the Algorithm 1 workload model (expected tuples per worker).
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::small().twitter_db(5);
    let r = run_config(
        &spec.query,
        &db,
        &Cluster::new(64),
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &PlanOptions::default(),
    )
    .unwrap();
    let mut received = vec![0u64; 64];
    for s in &r.shuffles {
        for (w, &c) in s.per_consumer.iter().enumerate() {
            received[w] += c;
        }
    }
    let avg = received.iter().sum::<u64>() as f64 / 64.0;
    let max = *received.iter().max().unwrap() as f64;
    // The paper measured 1.05 consumer skew for HCS on Q1; allow slack
    // for our smaller data.
    assert!(max / avg < 1.8, "HC shuffle skew {}", max / avg);
}

#[test]
fn cpu_and_wall_relationships() {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(6);
    let r = run_config(
        &spec.query,
        &db,
        &Cluster::new(8),
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &PlanOptions::default(),
    )
    .unwrap();
    assert!(r.total_cpu >= r.wall, "total CPU ≥ straggler wall");
    assert_eq!(r.per_worker_busy.len(), 8);
    let sum: std::time::Duration = r.per_worker_busy.iter().sum();
    assert_eq!(sum, r.total_cpu);
    // Sort + join decomposition covers the busy time.
    let parts: std::time::Duration = r.sort_cpu() + r.join_cpu();
    assert!(parts <= r.total_cpu + std::time::Duration::from_millis(1));
}

#[test]
fn tuples_shuffled_equals_sum_of_stats() {
    let spec = parjoin::datagen::workloads::q3();
    let db = Scale::tiny().freebase_db(2);
    for alg in [
        ShuffleAlg::Regular,
        ShuffleAlg::Broadcast,
        ShuffleAlg::HyperCube,
    ] {
        let r = run_config(
            &spec.query,
            &db,
            &Cluster::new(8),
            alg,
            JoinAlg::Hash,
            &PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(
            r.tuples_shuffled,
            r.shuffles.iter().map(|s| s.tuples_sent).sum::<u64>(),
            "{alg:?}"
        );
    }
}

/// The probe's per-level tallies (`engine.probe.{steps,seeks}.l{d}`)
/// are exact counts: they repeat from run to run and across the
/// `Local`, `InProcess` and `Tcp` transports at a fixed probe-thread
/// count, every result costs at least one leaf step, and the run report
/// lists them.
#[test]
fn probe_level_tallies_are_exact_across_runs_and_transports() {
    let spec = parjoin::datagen::workloads::q1();
    let db = Scale::tiny().twitter_db(3);
    let run = |transport| {
        let cluster = Cluster::new(4).with_seed(11).with_transport(transport);
        let opts = PlanOptions {
            probe_threads: Some(2),
            ..Default::default()
        };
        run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &opts,
        )
        .unwrap()
    };
    let tallies = |r: &RunResult| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .filter(|(n, _)| {
                n.starts_with(metric_names::PROBE_STEPS_PREFIX)
                    || n.starts_with(metric_names::PROBE_SEEKS_PREFIX)
            })
            .cloned()
            .collect()
    };
    let first = run(TransportKind::Local);
    let want = tallies(&first);
    assert_eq!(want.len(), 6, "steps and seeks at Q1's three depths");
    let leaf_steps = first
        .metric(&format!("{}2", metric_names::PROBE_STEPS_PREFIX))
        .unwrap();
    assert!(first.output_tuples > 0);
    assert!(leaf_steps >= first.output_tuples, "a leaf step per result");
    let report = first.report();
    for (name, _) in &want {
        assert!(report.contains(name.as_str()), "report lists {name}");
    }
    for transport in [
        TransportKind::Local,
        TransportKind::InProcess,
        TransportKind::Tcp,
    ] {
        assert_eq!(tallies(&run(transport)), want, "{transport}");
    }
}
