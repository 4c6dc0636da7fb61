//! The workspace's thread-count heuristics, in one place.
//!
//! Two rules govern how the engine spends host cores, and both used to
//! be re-derived inline at each call site (executor pool, prepare sorts,
//! probe morsels, analyzer pre-flight). They live here so there is
//! exactly one site to audit — the concurrency lints in `cargo xtask
//! lint` assume spawn fan-out is always derived from these helpers.
//!
//! * [`pool_threads`] — how many OS threads a *phase pool* runs over `w`
//!   simulated workers: the host's parallelism clamped to `[1, w]`.
//!   One task (simulated worker) per thread at a time keeps per-worker
//!   busy timings honest.
//! * [`per_worker_threads`] — how many *extra* threads each simulated
//!   worker may claim for intra-worker work (chunked prepare sorts,
//!   probe morsels): the cores left over after every worker got one,
//!   `host / w`, at least 1. Worker-level parallelism takes priority
//!   because per-worker jobs are independent, while intra-worker
//!   parallelism pays merge/handoff overhead for its speedup.
//!
//! `host = None` (the host refused to report its parallelism) degrades
//! both rules to a single thread rather than guessing.
//!
//! [`CpuTimer`] is the one place that measures a thread's own CPU time,
//! which is what a worker books as compute when it shares the host's
//! cores with more runnable threads than there are cores.

use std::time::{Duration, Instant};

/// Pool width for a phase over `workers` simulated workers: the host's
/// available parallelism, clamped to `[1, workers]`.
pub fn pool_threads(workers: usize, host: Option<usize>) -> usize {
    host.unwrap_or(1).min(workers).max(1)
}

/// Threads each simulated worker may claim for intra-worker work: the
/// host cores left over after giving every worker one (`host / workers`,
/// at least 1).
pub fn per_worker_threads(workers: usize, host: Option<usize>) -> usize {
    (host.unwrap_or(1) / workers.max(1)).max(1)
}

/// The host's available parallelism, or `None` when the platform
/// refuses to report it (sandboxed cgroups, exotic targets).
pub fn host_parallelism() -> Option<usize> {
    std::thread::available_parallelism().ok().map(|n| n.get())
}

/// CPU time the calling thread has run so far: the first field of
/// Linux's `/proc/thread-self/schedstat`, in nanoseconds. `None` where
/// that file cannot be read.
///
/// The kernel folds a running thread's latest slice into that figure only
/// at a tick or a context switch, so the process-wide `/proc/self/stat`
/// is read first: producing it brings the calling thread's figure up to
/// date. Without that the reading could trail by a whole tick (4 ms at
/// 250 Hz), longer than many of the intervals it times.
pub fn thread_cpu_time() -> Option<Duration> {
    std::fs::read("/proc/self/stat").ok()?;
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns = stat.split_ascii_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// A stopwatch of the calling thread's own CPU time
/// ([`thread_cpu_time`]), so time the thread spent descheduled or
/// blocked is not booked as work. Start and read it on one thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    wall: Instant,
    cpu: Option<Duration>,
}

impl CpuTimer {
    /// Starts timing the calling thread.
    pub fn start() -> Self {
        CpuTimer {
            cpu: thread_cpu_time(),
            wall: Instant::now(),
        }
    }

    /// The CPU time the calling thread has run since [`CpuTimer::start`];
    /// `None` where there is no thread CPU clock.
    pub fn cpu(&self) -> Option<Duration> {
        Some(thread_cpu_time()?.saturating_sub(self.cpu?))
    }

    /// The wall time since [`CpuTimer::start`].
    pub fn elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    /// [`CpuTimer::cpu`]; where there is no thread CPU clock, the wall
    /// time since the start less `blocked`, the time the caller knows it
    /// spent waiting.
    pub fn busy(&self, blocked: Duration) -> Duration {
        self.cpu()
            .unwrap_or_else(|| self.elapsed().saturating_sub(blocked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_clamps_to_workers_and_one() {
        assert_eq!(pool_threads(4, Some(16)), 4);
        assert_eq!(pool_threads(16, Some(4)), 4);
        assert_eq!(pool_threads(4, None), 1);
        assert_eq!(pool_threads(0, Some(8)), 1);
    }

    #[test]
    fn per_worker_divides_leftover_cores() {
        assert_eq!(per_worker_threads(4, Some(16)), 4);
        assert_eq!(per_worker_threads(16, Some(4)), 1);
        assert_eq!(per_worker_threads(4, None), 1);
        assert_eq!(per_worker_threads(0, Some(8)), 8);
    }

    #[test]
    fn cpu_timer_skips_sleep_and_counts_spinning() {
        let (timer, t0) = (CpuTimer::start(), Instant::now());
        std::thread::sleep(Duration::from_millis(30));
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(10) {
            std::hint::black_box(spin);
        }
        let busy = timer.busy(Duration::from_millis(30));
        // A CPU clock sees some of the spin and none of the sleep; the
        // fallback sees the wall time less the declared wait.
        assert!(busy > Duration::ZERO, "{busy:?}");
        let awake = t0.elapsed() - Duration::from_millis(30);
        assert!(
            busy <= awake + Duration::from_millis(1),
            "{busy:?} > {awake:?}"
        );
    }
}
