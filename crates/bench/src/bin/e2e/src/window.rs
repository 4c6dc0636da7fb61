//! The measured window: closed-loop clients, CPU and memory marks where
//! it opens and closes, and the end-to-end metrics derived from them.
//!
//! Every metric is a statistic of the whole window: the median and the
//! p90 of all its latencies, its completions over its length, the CPU
//! time and the peak resident set between its two marks. A stall, a
//! periodic rebuild or a one-off spike anywhere in the window moves
//! them. The per-block medians are printed for the operator only: they
//! show how quiet the box was, and never reach a result line.

use crate::procfs;
use crate::spec::Metrics;
use crate::stats;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Blocks the operator's diagnostic line cuts a window into.
const BLOCKS: usize = 10;

/// What one client reports for one query.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Which query of the workload's mix this was (0 where there is
    /// only one).
    pub kind: usize,
    /// Submit → result, as the client saw it.
    pub latency: Duration,
    /// The result arrived and matched the oracle.
    pub ok: bool,
}

/// One measured query.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time since the window opened.
    done: Duration,
    kind: usize,
    latency: Duration,
    ok: bool,
}

/// What a [`Meter`] reads when the window opens and when it closes.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// CPU seconds the measured processes have used so far.
    cpu_s: f64,
    /// Their peak resident set since the previous mark, in MB.
    peak_rss_mb: f64,
}

/// The processes a window measures: this one (`None`) or the mesh's.
pub struct Meter(Vec<Option<u32>>);

impl Meter {
    /// Measures the harness's own process.
    pub fn this_process() -> Meter {
        Meter(vec![None])
    }

    /// Measures the processes `pids`, summed.
    pub fn processes(pids: &[u32]) -> Meter {
        Meter(pids.iter().copied().map(Some).collect())
    }

    /// Reads CPU time and the peak resident set, and starts a new peak.
    fn mark(&self) -> Mark {
        let mut mark = Mark {
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
        };
        for &pid in &self.0 {
            mark.cpu_s += procfs::cpu_seconds(pid);
            mark.peak_rss_mb += procfs::peak_rss_mb(pid);
            procfs::reset_peak_rss(pid);
        }
        mark
    }
}

/// Everything a window recorded.
#[derive(Debug)]
pub struct Window {
    seconds: f64,
    samples: Vec<Sample>,
    /// CPU seconds the measured processes used while the window was open.
    cpu_s: f64,
    /// Their peak resident set while the window was open, in MB: the
    /// peak that set-up and warm-up left is dropped when it opens.
    peak_rss_mb: f64,
}

/// Runs `clients` closed-loop: each issues its next query only when the
/// previous one returned. Every client first runs `warmup_ops` unmeasured
/// queries; the window opens once all have, and lasts `seconds`.
/// `meter` is read when it opens and when it closes.
///
/// A client is called with a running query index and returns the
/// query's [`OpResult`]; it times its own query, so untimed
/// preparation (clearing a cache) may sit in the same closure.
pub fn closed_loop<C>(clients: &mut [C], warmup_ops: usize, seconds: f64, meter: &Meter) -> Window
where
    C: FnMut(usize) -> OpResult + Send,
{
    let length = Duration::from_secs_f64(seconds);
    let warmed = Barrier::new(clients.len() + 1);
    let open = Barrier::new(clients.len() + 1);
    let start: OnceLock<Instant> = OnceLock::new();

    let (samples, opened, closed) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (warmed, open, start) = (&warmed, &open, &start);
                scope.spawn(move || {
                    for i in 0..warmup_ops {
                        client(i);
                    }
                    warmed.wait();
                    open.wait();
                    let start = *start.get_or_init(Instant::now);
                    let mut samples = Vec::new();
                    let mut i = warmup_ops;
                    while start.elapsed() < length {
                        let r = client(i);
                        samples.push(Sample {
                            done: start.elapsed(),
                            kind: r.kind,
                            latency: r.latency,
                            ok: r.ok,
                        });
                        i += 1;
                    }
                    samples
                })
            })
            .collect();

        warmed.wait();
        let opened = meter.mark();
        let start = *start.get_or_init(Instant::now);
        open.wait();
        if let Some(wait) = length.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let closed = meter.mark();
        let mut samples = Vec::new();
        for h in handles {
            match h.join() {
                Ok(s) => samples.extend(s),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (samples, opened, closed)
    });

    Window {
        seconds,
        samples,
        cpu_s: closed.cpu_s - opened.cpu_s,
        peak_rss_mb: closed.peak_rss_mb,
    }
}

impl Window {
    /// Queries that completed inside the window.
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| s.done.as_secs_f64() < self.seconds)
    }

    /// Queries attempted in the window.
    pub fn attempted(&self) -> u64 {
        self.measured().count() as u64
    }

    /// Queries that errored, were refused or disagreed with the oracle.
    pub fn failed(&self) -> u64 {
        self.measured().filter(|s| !s.ok).count() as u64
    }

    /// All measured latencies, ascending, in ms.
    fn latencies_ms(&self) -> Vec<f64> {
        stats::ascending(&self.measured().map(|s| ms(s.latency)).collect::<Vec<_>>())
    }

    /// Median over all measured latencies, in ms (the traced passes use
    /// this; the end-to-end metrics use [`Window::end_to_end`]).
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms())
    }

    /// The window's median and nearest-rank p90 latency in ms, each
    /// taken per kind of query over the whole window and averaged over
    /// the kinds that ran.
    ///
    /// Pooled, the latencies of a six-query mix are a handful of
    /// far-apart clusters and their median jumps between two of them
    /// with the least shift (12 % from run to run on `serve_mixed_warm`,
    /// against 2–8 % per kind); with one kind the two definitions are
    /// the same.
    fn latency_ms(&self) -> (f64, f64) {
        let kinds = self.measured().map(|s| s.kind + 1).max().unwrap_or(0);
        let mut by_kind = vec![Vec::new(); kinds];
        for s in self.measured() {
            by_kind[s.kind].push(ms(s.latency));
        }
        by_kind.retain(|lat| !lat.is_empty());
        let (mut p50, mut p90) = (0.0, 0.0);
        for lat in &by_kind {
            let sorted = stats::ascending(lat);
            p50 += stats::median(&sorted) / by_kind.len() as f64;
            p90 += stats::percentile(&sorted, 90.0) / by_kind.len() as f64;
        }
        (p50, p90)
    }

    /// The latency, throughput, CPU and memory metrics of the whole
    /// window. A window in which no query completed inserts nothing.
    pub fn end_to_end(&self, metrics: &mut Metrics) {
        let completed = self.attempted() as f64;
        if completed == 0.0 {
            return;
        }
        let (p50, p90) = self.latency_ms();
        metrics.insert("latency_p50_ms", p50);
        metrics.insert("latency_p90_ms", p90);
        metrics.insert("throughput_qps", completed / self.seconds);
        metrics.insert("cpu_ms_per_query", self.cpu_s * 1e3 / completed);
        metrics.insert("peak_rss_mb", self.peak_rss_mb);
    }

    /// Lines for the operator: the sample count, the failed share, how
    /// far into the tail the samples resolve, the quartiles, and every
    /// block's median, p90 and completions, which show how much of the
    /// window the box's other tenants disturbed.
    pub fn describe(&self) -> String {
        let lat = self.latencies_ms();
        let n = lat.len();
        let tail = match stats::highest_resolvable_percentile(n) {
            Some(p) => format!(
                "highest percentile with >= 10 samples beyond: p{p} = {:.3} ms",
                stats::percentile(&lat, p)
            ),
            None => "too few to resolve any percentile".to_string(),
        };
        let (q1, q3) = stats::quartiles(&lat);
        let block_s = self.seconds / BLOCKS as f64;
        let mut per_block = vec![Vec::new(); BLOCKS];
        for s in self.measured() {
            let b = ((s.done.as_secs_f64() / block_s) as usize).min(BLOCKS - 1);
            per_block[b].push(ms(s.latency));
        }
        let row = |of: fn(&[f64]) -> f64| -> Vec<f64> {
            let blocks = per_block.iter().filter(|lat| !lat.is_empty());
            blocks.map(|lat| of(&stats::ascending(lat))).collect()
        };
        let show = |row: &[f64]| -> String {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.1}")).collect();
            cells.join(" ")
        };
        let medians = row(stats::median);
        let quietest = medians.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            "{n} samples in {:.1} s; failed_frac = {} ratio ({} of {n}); {tail}\n\
             # latency quartiles, ms: {q1:.3} / {:.3} / {q3:.3}\n\
             # block medians, ms: {} (quietest {quietest:.1})\n\
             # block p90s, ms: {}\n\
             # block completions: {}",
            self.seconds,
            self.failed() as f64 / n.max(1) as f64,
            self.failed(),
            stats::median(&lat),
            show(&medians),
            show(&row(|lat| stats::percentile(lat, 90.0))),
            show(&row(|lat| lat.len() as f64)),
        )
    }
}

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in (fractional) microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_and_marks() {
        let mut calls = 0usize;
        let mut clients = [|i: usize| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            OpResult {
                kind: 0,
                latency: Duration::from_millis(2),
                // One failed query, inside the window.
                ok: i != 4,
            }
        }];
        let w = closed_loop(&mut clients, 3, 0.25, &Meter::this_process());
        assert!(calls >= 3 + w.attempted() as usize);
        assert!(w.attempted() > 20, "{}", w.attempted());
        assert_eq!(w.failed(), 1);
        let mut m = Metrics::new();
        w.end_to_end(&mut m);
        assert_eq!(m["latency_p50_ms"], 2.0);
        assert_eq!(m["latency_p90_ms"], 2.0);
        assert_eq!(m["throughput_qps"], w.attempted() as f64 / 0.25);
        assert!(m["cpu_ms_per_query"] < 2.0);
        assert!(m["peak_rss_mb"] > 0.0);
        assert!(w.describe().contains("failed_frac = "), "{}", w.describe());
    }

    /// A window of ten seconds: second `b` completes `per_second(b)`
    /// queries, alternating two kinds that take `base(b)` and
    /// `base(b) + 8` ms; 10 ms of CPU per query.
    fn synthetic(per_second: impl Fn(usize) -> usize, base: impl Fn(usize) -> u64) -> Window {
        let mut samples = Vec::new();
        for b in 0..10 {
            let n = per_second(b);
            for i in 0..n {
                let kind = i % 2;
                samples.push(Sample {
                    done: Duration::from_secs_f64(b as f64 + (i as f64 + 0.5) / n as f64),
                    kind,
                    latency: Duration::from_millis(base(b) + 8 * kind as u64),
                    ok: true,
                });
            }
        }
        Window {
            seconds: 10.0,
            cpu_s: samples.len() as f64 * 0.010,
            samples,
            peak_rss_mb: 14.5,
        }
    }

    #[test]
    fn the_whole_window_is_reported_per_kind() {
        // Three slow seconds of ten: invisible to a best-of-blocks rule,
        // they are the window's p90 and they cost throughput.
        let w = synthetic(
            |b| if b < 3 { 10 } else { 20 },
            |b| if b < 3 { 30 } else { 10 },
        );
        let mut m = Metrics::new();
        w.end_to_end(&mut m);
        // Mean over the two kinds of 10 and 18 ms, not the pooled median.
        assert_eq!(m["latency_p50_ms"], 14.0);
        // 15 of each kind's 85 queries are slow: 30 and 38 ms.
        assert_eq!(m["latency_p90_ms"], 34.0);
        assert_eq!(m["throughput_qps"], 17.0);
        assert!((m["cpu_ms_per_query"] - 10.0).abs() < 1e-9, "{m:?}");
        assert_eq!(m["peak_rss_mb"], 14.5);
        assert_eq!(w.p50_ms(), 18.0);
        let described = w.describe();
        assert!(described.contains("170 samples"), "{described}");
        assert!(described.contains("(quietest 14.0)"), "{described}");
    }

    #[test]
    fn short_windows_still_report() {
        // Fewer queries than blocks, and one kind of the mix missing.
        let mut w = synthetic(|b| usize::from(b % 4 == 0), |_| 5);
        let mut m = Metrics::new();
        w.end_to_end(&mut m);
        assert_eq!(m["latency_p50_ms"], 5.0);
        assert_eq!(m["throughput_qps"], 0.3);
        w.describe();
        // A query that completed after the window closed does not count.
        w.samples.retain(|s| s.done.as_secs_f64() >= 10.0);
        let mut m = Metrics::new();
        w.end_to_end(&mut m);
        assert!(m.is_empty());
    }

    #[test]
    fn two_clients_share_one_window() {
        let op = |_: usize| {
            std::thread::sleep(Duration::from_millis(5));
            OpResult {
                kind: 0,
                latency: Duration::from_millis(5),
                ok: true,
            }
        };
        let mut clients = [op, op];
        let w = closed_loop(
            &mut clients,
            1,
            0.2,
            &Meter::processes(&[std::process::id()]),
        );
        assert!(w.attempted() >= 40, "{}", w.attempted());
        assert_eq!(w.failed(), 0);
    }
}
