#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-serve
//!
//! The serving front end: what turns the batch engine into a long-lived
//! process answering sustained query traffic (ROADMAP north star). Three
//! pieces, built exactly for cross-query amortization:
//!
//! * **Resident catalog** ([`catalog::Catalog`]) — named relations
//!   loaded once and shared as `Arc<Relation>` across every query.
//!   Queries run against immutable snapshots; loads/drops build the
//!   next version without disturbing runs in flight. A relation
//!   reloaded under the same name has new content, hence a new
//!   fingerprint, so the engine's caches can never serve it a view of
//!   the old one.
//! * **Sessions** ([`session::Session`]) — parse → bind-against-catalog
//!   → analyze → advise → execute, reusing `parjoin-query`'s Datalog
//!   parser, the `Q110`/`Q111` catalog-bind diagnostics, the engine's
//!   cost-based advisor, and `run_config` itself. Results return with
//!   the analyzer diagnostics and per-phase metrics already carried on
//!   [`parjoin_engine::RunResult`].
//! * **Scheduler** ([`scheduler`]) — a bounded run queue over a fixed
//!   executor pool sized from [`parjoin_common::threads`]. Admission
//!   control rejects with *typed* errors ([`ServeError::QueueFull`],
//!   [`ServeError::SessionLimit`]) instead of blocking or buffering;
//!   shutdown drains every admitted query before the pool exits.
//!
//! ```no_run
//! use parjoin_serve::{Server, ServerConfig, SessionConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! server.load("Twitter", parjoin_datagen::graph::twitter_graph(300, 3, 7));
//! let session = server.session(SessionConfig::default());
//! let ticket = session
//!     .submit("Triangle(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x).")
//!     .expect("admitted");
//! let outcome = ticket.wait().expect("completed");
//! println!("{}", outcome.result.report());
//! server.shutdown();
//! ```

pub mod catalog;
pub mod error;
pub mod report;
pub mod scheduler;
mod server_core;
pub mod session;

pub use catalog::{Catalog, CatalogEntry, CatalogSnapshot};
pub use error::ServeError;
pub use report::{percentile_ms, TrafficReport};
pub use session::{batch_run, ConfigChoice, QueryOutcome, Session, SessionConfig, Ticket};

use parjoin_common::{threads, Database, Relation};
use scheduler::Scheduler;
use server_core::ServerCore;
use std::sync::Arc;

/// Canonical names of the `serve.*` registry counters a [`Server`]
/// maintains (returned by [`Server::metrics`]).
pub struct ServeMetrics {
    /// Queries admitted to the run queue.
    pub accepted: &'static str,
    /// Queries that completed successfully.
    pub completed: &'static str,
    /// Queries that reached the engine and failed there.
    pub failed: &'static str,
    /// Submissions rejected because the run queue was full.
    pub rejected_queue_full: &'static str,
    /// Submissions rejected by the per-session concurrency cap.
    pub rejected_session_cap: &'static str,
    /// Submissions rejected by the catalog bind pass (Q110/Q111).
    pub rejected_bind: &'static str,
    /// Submissions whose Datalog text failed to parse.
    pub rejected_parse: &'static str,
    /// Submissions rejected because the server was shutting down.
    pub rejected_shutdown: &'static str,
    /// Catalog load operations (relations or whole databases).
    pub catalog_loads: &'static str,
    /// Catalog drop operations that removed a relation.
    pub catalog_drops: &'static str,
    /// Sum of submit→completion latencies, microseconds (divide by
    /// `completed` for the mean; percentiles live client-side, see
    /// [`TrafficReport`]).
    pub latency_micros: &'static str,
    /// SortCache hits aggregated over every completed query.
    pub sortcache_hits: &'static str,
    /// SortCache misses aggregated over every completed query.
    pub sortcache_misses: &'static str,
    /// TrieCache hits aggregated over every completed query (columnar
    /// layout only; zero on row-layout streams).
    pub triecache_hits: &'static str,
    /// TrieCache misses aggregated over every completed query.
    pub triecache_misses: &'static str,
}

/// The counter names (`serve.*` namespace).
pub const SERVE_METRICS: ServeMetrics = ServeMetrics {
    accepted: "serve.queries.accepted",
    completed: "serve.queries.completed",
    failed: "serve.queries.failed",
    rejected_queue_full: "serve.rejected.queue_full",
    rejected_session_cap: "serve.rejected.session_cap",
    rejected_bind: "serve.rejected.bind",
    rejected_parse: "serve.rejected.parse",
    rejected_shutdown: "serve.rejected.shutdown",
    catalog_loads: "serve.catalog.loads",
    catalog_drops: "serve.catalog.drops",
    latency_micros: "serve.latency.micros",
    sortcache_hits: "serve.sortcache.hits",
    sortcache_misses: "serve.sortcache.misses",
    triecache_hits: "serve.triecache.hits",
    triecache_misses: "serve.triecache.misses",
};

/// Server-wide knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated cluster workers per query (the batch harness default).
    pub workers: usize,
    /// Cluster seed; fixed so repeated queries are byte-reproducible.
    pub seed: u64,
    /// Run-queue slots — the admission cap. Submissions beyond
    /// `queue_capacity` queued + `executors` running are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Default per-session concurrency cap (a [`SessionConfig`] may
    /// override per session).
    pub session_cap: usize,
    /// Executor pool width; `None` derives it from the host: one
    /// query's phase pool already spans `min(host_cores, workers)` OS
    /// threads, so concurrent queries beyond
    /// [`threads::per_worker_threads`]`(workers, host)` would
    /// oversubscribe the machine.
    pub executors: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            seed: 11,
            queue_capacity: 16,
            session_cap: 4,
            executors: None,
        }
    }
}

impl ServerConfig {
    /// The executor pool width this config resolves to on this host.
    pub fn effective_executors(&self) -> usize {
        self.executors
            .unwrap_or_else(|| {
                threads::per_worker_threads(self.workers, threads::host_parallelism())
            })
            .max(1)
    }
}

/// A running server: resident catalog + session factory + scheduler.
pub struct Server {
    core: Arc<ServerCore>,
}

impl Server {
    /// Starts the executor pool and returns a server with an empty
    /// catalog.
    pub fn start(cfg: ServerConfig) -> Server {
        let sched = Scheduler::new(cfg.queue_capacity, cfg.effective_executors());
        Server {
            core: Arc::new(ServerCore::new(cfg, sched)),
        }
    }

    /// Loads (or replaces) one relation; returns the new catalog
    /// version.
    pub fn load(&self, name: impl Into<String>, rel: Relation) -> u64 {
        self.core.registry.add(SERVE_METRICS.catalog_loads, 1);
        self.core.catalog.load(name, rel)
    }

    /// Loads (or replaces) one relation already behind an `Arc`.
    pub fn load_shared(&self, name: impl Into<String>, rel: Arc<Relation>) -> u64 {
        self.core.registry.add(SERVE_METRICS.catalog_loads, 1);
        self.core.catalog.load_shared(name, rel)
    }

    /// Loads every relation of `db` in one catalog version bump.
    pub fn load_db(&self, db: &Database) -> u64 {
        self.core.registry.add(SERVE_METRICS.catalog_loads, 1);
        self.core.catalog.load_db(db)
    }

    /// Drops a relation; `Some(version)` if it was resident.
    pub fn drop_relation(&self, name: &str) -> Option<u64> {
        let dropped = self.core.catalog.drop_relation(name);
        if dropped.is_some() {
            self.core.registry.add(SERVE_METRICS.catalog_drops, 1);
        }
        dropped
    }

    /// Lists the resident relations.
    pub fn list(&self) -> Vec<CatalogEntry> {
        self.core.catalog.list()
    }

    /// The catalog version (0 = nothing ever loaded).
    pub fn catalog_version(&self) -> u64 {
        self.core.catalog.version()
    }

    /// A consistent catalog snapshot (what a query submitted right now
    /// would run against) — the batch baseline the acceptance tests
    /// compare served outputs to runs on exactly this.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.core.catalog.snapshot()
    }

    /// Opens a session.
    pub fn session(&self, cfg: SessionConfig) -> Session {
        let cap = cfg
            .max_in_flight
            .unwrap_or(self.core.cfg.session_cap)
            .max(1);
        Session {
            core: Arc::clone(&self.core),
            id: self.core.next_session_id(),
            cfg,
            cap,
        }
    }

    /// The per-query cluster every session run uses (for building batch
    /// baselines).
    pub fn cluster(&self) -> parjoin_engine::Cluster {
        self.core.cluster()
    }

    /// The configured run-queue capacity (the admission cap).
    pub fn queue_capacity(&self) -> usize {
        self.core.sched.queue_capacity()
    }

    /// Queries of `session` currently admitted (queued or executing) —
    /// the number the per-session cap compares against.
    pub fn session_in_flight(&self, session: u64) -> usize {
        self.core.in_flight(session)
    }

    /// Name-sorted snapshot of the `serve.*` counters.
    pub fn metrics(&self) -> Vec<(String, u64)> {
        self.core.registry.snapshot()
    }

    /// One counter by name (a [`SERVE_METRICS`] field).
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.core.registry.get(name)
    }

    /// Graceful shutdown: stop admitting, drain every in-flight query
    /// (their tickets still complete), join the executor pool.
    /// Idempotent; later submissions fail with
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        self.core.sched.shutdown();
    }
}
