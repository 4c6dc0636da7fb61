//! The concurrent query scheduler: a bounded run queue drained by a
//! fixed executor pool.
//!
//! Admission control is the bounded `sync_channel`: `Scheduler::submit`
//! uses `try_send`, so a full queue rejects *immediately* with the typed
//! [`ServeError::QueueFull`] instead of blocking the session thread or
//! buffering unboundedly — under overload the server sheds work at the
//! door, which is the only place shedding is cheap.
//!
//! Shutdown is graceful by construction: dropping the sender closes the
//! channel, executors drain every job already admitted, then their
//! `recv` errors and they exit; `Scheduler::shutdown` joins them all.
//! A query that got a ticket always gets an answer.

use crate::error::ServeError;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A unit of scheduled work (one query execution, fully bound).
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Bounded run queue + executor pool.
pub(crate) struct Scheduler {
    queue_capacity: usize,
    /// `None` once shutdown started: no further admissions.
    tx: Mutex<Option<SyncSender<Job>>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `executors` executor threads over a run queue of
    /// `queue_capacity` slots (both forced to at least 1; a zero-slot
    /// `sync_channel` would rendezvous and make admission block).
    pub(crate) fn new(queue_capacity: usize, executors: usize) -> Scheduler {
        let queue_capacity = queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let executors = (0..executors.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                // Executor threads exit when the queue sender drops.
                // xtask: allow(spawn): joined in `shutdown()` (also invoked by Drop)
                std::thread::spawn(move || run_executor(&rx))
            })
            .collect();
        Scheduler {
            queue_capacity,
            tx: Mutex::new(Some(tx)),
            executors: Mutex::new(executors),
        }
    }

    /// The configured run-queue capacity.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Admits a job, or rejects it with a typed error: `QueueFull` when
    /// the run queue is at capacity, `ShuttingDown` after shutdown
    /// started.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ServeError> {
        let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else {
            return Err(ServeError::ShuttingDown);
        };
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(ServeError::QueueFull {
                capacity: self.queue_capacity,
            }),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Stops admitting, drains every job already in the queue, and joins
    /// the executor pool. Idempotent.
    pub(crate) fn shutdown(&self) {
        // Dropping the sender is what lets executors finish their drain.
        drop(
            self.tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        let handles = std::mem::take(
            &mut *self
                .executors
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let me = std::thread::current().id();
        for h in handles {
            // Never join the current thread: if the last handle to the
            // server is released *inside* a job, this drop-driven
            // shutdown runs on an executor, and joining itself would
            // deadlock. That executor is already draining to channel
            // close, so skipping the join is safe.
            if h.thread().id() == me {
                continue;
            }
            // An executor only terminates by draining to channel close;
            // a join error would mean a panicked job, and jobs are
            // catch-all closures that report through their ticket.
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_executor(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only to receive; execute outside it so the other
        // executors keep pulling work while this job runs.
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // sender dropped: drained, shut down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let sched = Scheduler::new(4, 2);
        let hits = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            sched
                .submit(Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(());
                }))
                .expect("capacity available");
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(10)).expect("job ran");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn overload_rejects_with_queue_full() {
        // One executor wedged on a slow job; the queue (capacity 1)
        // fills with the second job, so the third submission must be
        // rejected with the typed error.
        let sched = Scheduler::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        sched
            .submit(Box::new(move || {
                let _ = started_tx.send(());
                let _ = release_rx.recv();
            }))
            .expect("first job admitted");
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("executor picked up the job");
        sched.submit(Box::new(|| {})).expect("queue slot available");
        let err = sched.submit(Box::new(|| {})).expect_err("queue is full");
        assert!(matches!(err, ServeError::QueueFull { capacity: 1 }));
        drop(release_tx);
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_rejects() {
        let sched = Scheduler::new(8, 1);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let hits = Arc::clone(&hits);
            sched
                .submit(Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }))
                .expect("admitted");
        }
        sched.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 6, "every admitted job ran");
        let err = sched.submit(Box::new(|| {})).expect_err("draining");
        assert!(matches!(err, ServeError::ShuttingDown));
    }
}
