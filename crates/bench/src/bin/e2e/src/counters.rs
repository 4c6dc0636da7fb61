//! Per-layer metrics read from the public `RunResult` fields of the
//! queries a traced pass ran: exact counters from the last run, times
//! as the median over the runs.

use crate::spec::Metrics;
use crate::stats;
use crate::window::ms;
use parjoin_engine::RunResult;
use parjoin_runtime::metrics::names;
use std::time::Duration;

/// `RunResult`s of repeated runs of one query.
#[derive(Default)]
pub struct RunStats {
    prepare_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    probe_skew: Vec<f64>,
    recv_wait_ms: Vec<f64>,
    steals: Vec<f64>,
    last: Option<RunResult>,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl RunStats {
    /// Adds one run.
    pub fn push(&mut self, run: RunResult) {
        let join: Duration = run.per_worker_join.iter().sum();
        self.prepare_ms
            .push(ms(run.per_worker_sort.iter().sum::<Duration>()));
        self.probe_ms.push(ms(join));
        let max = run.per_worker_join.iter().max().copied();
        let mean = join.as_secs_f64() / run.per_worker_join.len().max(1) as f64;
        if mean > 0.0 {
            self.probe_skew
                .push(max.unwrap_or_default().as_secs_f64() / mean);
        }
        self.recv_wait_ms
            .push(run.metric(names::RX_WAIT_NS).unwrap_or(0) as f64 / 1e6);
        self.steals.push(run.probe_steals as f64);
        self.last = Some(run);
    }

    /// Writes the metrics. `base_tuples` is the number of tuples the
    /// query's atoms hold after selection pushdown, the denominator of
    /// `shuffle.replication`.
    pub fn fill(&self, metrics: &mut Metrics, base_tuples: u64) {
        let Some(run) = &self.last else { return };
        metrics.insert("shuffle.tuples", run.tuples_shuffled as f64);
        metrics.insert(
            "shuffle.replication",
            ratio(run.tuples_shuffled, base_tuples),
        );
        let skew = run.shuffles.iter().map(|s| s.consumer_skew());
        metrics.insert("shuffle.consumer_skew", skew.fold(0.0, f64::max));

        let counter = |name| run.metric(name).unwrap_or(0);
        metrics.insert("runtime.tx_bytes", counter(names::TX_BYTES) as f64);
        metrics.insert("runtime.tx_batches", counter(names::TX_BATCHES) as f64);
        metrics.insert(
            "wire.bytes_per_tuple",
            ratio(counter(names::TX_BYTES), run.tuples_shuffled),
        );
        metrics.insert("runtime.recv_wait_ms", stats::median_of(&self.recv_wait_ms));
        let (reuses, allocs) = (counter(names::BUF_REUSES), counter(names::BUF_ALLOCS));
        metrics.insert("runtime.buf_reuse_frac", ratio(reuses, reuses + allocs));

        metrics.insert("prepare.cpu_ms", stats::median_of(&self.prepare_ms));
        metrics.insert("probe.cpu_ms", stats::median_of(&self.probe_ms));
        metrics.insert("probe.worker_skew", stats::median_of(&self.probe_skew));
        metrics.insert("probe.morsels", run.probe_morsels as f64);
        metrics.insert("probe.steals", stats::median_of(&self.steals));

        metrics.insert(
            "sortcache.hit_frac",
            ratio(
                run.sort_cache_hits,
                run.sort_cache_hits + run.sort_cache_misses,
            ),
        );
        metrics.insert(
            "triecache.hit_frac",
            ratio(
                run.trie_cache_hits,
                run.trie_cache_hits + run.trie_cache_misses,
            ),
        );
        const MB: f64 = 1024.0 * 1024.0;
        metrics.insert(
            "sortcache.resident_mb",
            run.sort_cache_resident_bytes as f64 / MB,
        );
        metrics.insert(
            "triecache.resident_mb",
            run.trie_cache_resident_bytes as f64 / MB,
        );
        if run.config.ends_with("HJ") {
            metrics.insert(
                "hashjoin.intermediate_tuples",
                run.peak_worker_tuples as f64,
            );
        }
    }
}
