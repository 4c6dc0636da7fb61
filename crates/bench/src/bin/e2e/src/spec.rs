//! The benchmark's vocabulary: workload and metric names with their
//! units. `BENCHMARK.json` repeats these; `e2e smoke` fails when the two
//! disagree.

use std::collections::BTreeMap;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "tri_hc_tj_cold",
    "tri_rs_hj_stream",
    "serve_mixed_warm",
    "tri_hc_tj_mesh",
];

/// End-to-end metrics (name, unit), printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (name, unit), printed with `--trace 1`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("query.parse_us", "us"),
    ("query.resolve_us", "us"),
    ("advisor.advise_us", "us"),
    ("plans.join_order_ms", "ms"),
    ("order.tj_order_ms", "ms"),
    ("hypercube.shares_us", "us"),
    ("hypercube.workload_ratio", "ratio"),
    ("shuffle.seed_ms", "ms"),
    ("shuffle.route_ms", "ms"),
    ("shuffle.tuples", "count"),
    ("shuffle.replication", "ratio"),
    ("shuffle.consumer_skew", "ratio"),
    ("runtime.start_ms", "ms"),
    ("runtime.exchange_ms", "ms"),
    ("runtime.tx_bytes", "B"),
    ("runtime.tx_batches", "count"),
    ("runtime.recv_wait_ms", "ms"),
    ("runtime.buf_reuse_frac", "ratio"),
    ("wire.bytes_per_tuple", "B"),
    ("wire.encode_ns_per_tuple", "ns"),
    ("wire.decode_ns_per_tuple", "ns"),
    ("sort.sort_ms", "ms"),
    ("sort.rows", "count"),
    ("tributary.build_ms", "ms"),
    ("prepare.cpu_ms", "ms"),
    ("sortcache.hit_frac", "ratio"),
    ("triecache.hit_frac", "ratio"),
    ("sortcache.resident_mb", "MB"),
    ("triecache.resident_mb", "MB"),
    ("tributary.probe_ms", "ms"),
    ("tributary.probe_ns_per_output", "ns"),
    ("probe.cpu_ms", "ms"),
    ("probe.worker_skew", "ratio"),
    ("probe.morsels", "count"),
    ("probe.steals", "count"),
    ("hashjoin.join_ms", "ms"),
    ("hashjoin.intermediate_tuples", "count"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.executors", "count"),
    ("fragment.plan_ms", "ms"),
    ("fragment.encode_us", "us"),
    ("fragment.decode_us", "us"),
    ("fragment.bytes", "B"),
    ("dist.mesh_up_ms", "ms"),
    ("dist.shuffled_tuples", "count"),
    ("dist.rounds", "count"),
    ("dist.mesh_minus_local_ms", "ms"),
    ("datagen.generate_ms", "ms"),
    ("oracle.output_tuples", "count"),
    ("engine.coverage_frac", "ratio"),
    ("engine.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Counters that depend only on the inputs: two runs of one commit with
/// one seed must print them identically (`e2e selfcheck` enforces it).
pub const EXACT: [&str; 6] = [
    "shuffle.tuples",
    "runtime.tx_bytes",
    "fragment.bytes",
    "sort.rows",
    "dist.shuffled_tuples",
    "oracle.output_tuples",
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// One pass's metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, for a workload to fill in what it
/// exercises.
pub fn empty_layers() -> Metrics {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}
