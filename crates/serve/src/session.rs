//! Sessions: the parse → bind → analyze → advise → execute pipeline.
//!
//! A [`Session`] accepts Datalog text (the same grammar
//! `parjoin_query::parser` gives the batch examples) or a registered
//! workload name, and turns it into a scheduled query:
//!
//! 1. **parse** — on the session thread; malformed text never reaches
//!    the scheduler ([`ServeError::Parse`]).
//! 2. **bind** — against a catalog *snapshot*
//!    ([`parjoin_analyze::bind_against_catalog`]); unknown relations and
//!    arity mismatches are rejected with the `Q110`/`Q111` diagnostics
//!    before any scheduling work ([`ServeError::Bind`]).
//! 3. **admit** — per-session concurrency cap, then the bounded run
//!    queue ([`ServeError::SessionLimit`] / [`ServeError::QueueFull`]).
//! 4. **advise + execute** — on an executor: the advisor picks the
//!    shuffle × join config (unless the session pinned one), and
//!    `run_config` runs it against the snapshot with the same
//!    [`PlanOptions`] [`batch_run`] builds. The analyzer's diagnostics
//!    and the per-phase metrics ride back on the [`RunResult`] inside
//!    the [`QueryOutcome`].
//!
//! Submissions return a [`Ticket`] immediately; [`Ticket::wait`] blocks
//! for the outcome. Queries of one session (and of different sessions)
//! execute concurrently up to the pool width and their admission caps.

use crate::error::ServeError;
use crate::server_core::ServerCore;
use crate::SERVE_METRICS;
use parjoin_engine::{advise, run_config, Cluster, JoinAlg, PlanOptions, RunResult, ShuffleAlg};
use parjoin_query::{parser, ConjunctiveQuery};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a session picks the shuffle × join configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfigChoice {
    /// Ask the cost-based advisor per query (the serving default).
    #[default]
    Advised,
    /// Pin one configuration for every query of the session.
    Fixed(ShuffleAlg, JoinAlg),
}

impl ConfigChoice {
    /// Parses `"advise"` or a config name (`"RS_HJ"`, `"RS_TJ"`,
    /// `"BR_HJ"`, `"BR_TJ"`, `"HC_HJ"`, `"HC_TJ"`).
    pub fn parse(s: &str) -> Option<ConfigChoice> {
        let fixed = |sh, jn| Some(ConfigChoice::Fixed(sh, jn));
        match s {
            "advise" => Some(ConfigChoice::Advised),
            "RS_HJ" => fixed(ShuffleAlg::Regular, JoinAlg::Hash),
            "RS_TJ" => fixed(ShuffleAlg::Regular, JoinAlg::Tributary),
            "BR_HJ" => fixed(ShuffleAlg::Broadcast, JoinAlg::Hash),
            "BR_TJ" => fixed(ShuffleAlg::Broadcast, JoinAlg::Tributary),
            "HC_HJ" => fixed(ShuffleAlg::HyperCube, JoinAlg::Hash),
            "HC_TJ" => fixed(ShuffleAlg::HyperCube, JoinAlg::Tributary),
            _ => None,
        }
    }
}

/// Per-session knobs. [`Default`] matches the batch test harness:
/// collected, non-distinct output, certify mode on (every served plan
/// carries its R420 parallel-correctness proof).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Config selection (advisor by default).
    pub choice: ConfigChoice,
    /// Materialize the output at the coordinator (on by default — a
    /// served query wants its rows back).
    pub collect_output: bool,
    /// Deduplicate the collected output (set semantics).
    pub distinct_output: bool,
    /// Run in certify mode: plans carry the R420 parallel-correctness
    /// proof, or are refused with an R421 counterexample. Caching is the
    /// same either way: repeated queries hit on content.
    pub certify: bool,
    /// Per-session in-flight cap override; `None` uses the server's
    /// `session_cap`.
    pub max_in_flight: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            choice: ConfigChoice::Advised,
            collect_output: true,
            distinct_output: false,
            certify: true,
            max_in_flight: None,
        }
    }
}

/// Builds the engine options a session run uses. Exposed (crate-private
/// to the serving layer, public to its tests and benches via
/// [`batch_run`]) so served executions and their batch baselines can
/// never drift apart.
fn plan_options(cfg: &SessionConfig) -> PlanOptions {
    PlanOptions {
        collect_output: cfg.collect_output,
        distinct_output: cfg.distinct_output,
        certify: cfg.certify,
        ..PlanOptions::default()
    }
}

/// Resolves the session's config choice for one query.
fn resolve_choice(
    choice: ConfigChoice,
    query: &ConjunctiveQuery,
    db: &parjoin_common::Database,
    cluster: &Cluster,
) -> (ShuffleAlg, JoinAlg) {
    match choice {
        ConfigChoice::Advised => {
            let a = advise(query, db, cluster);
            (a.shuffle, a.join)
        }
        ConfigChoice::Fixed(s, j) => (s, j),
    }
}

/// Runs `query` exactly the way a session with `cfg` would — same
/// advisor decision, same plan options, same cluster — but directly,
/// without the scheduler. This is the batch baseline the acceptance
/// tests byte-compare served outputs against.
pub fn batch_run(
    query: &ConjunctiveQuery,
    db: &parjoin_common::Database,
    cluster: &Cluster,
    cfg: &SessionConfig,
) -> Result<RunResult, parjoin_engine::EngineError> {
    let (shuffle, join) = resolve_choice(cfg.choice, query, db, cluster);
    run_config(query, db, cluster, shuffle, join, &plan_options(cfg))
}

/// Everything a completed query hands back.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The query's own name (e.g. `Triangle` for Q1).
    pub query: String,
    /// Catalog version the query ran against.
    pub catalog_version: u64,
    /// The configuration that ran (e.g. `"HC_TJ"`), advisor-chosen or
    /// pinned.
    pub config: String,
    /// The full engine result: output, analyzer diagnostics, per-phase
    /// metrics, SortCache counters.
    pub result: RunResult,
    /// Time spent between admission and execution start.
    pub queued: Duration,
    /// Total submit → completion latency.
    pub latency: Duration,
}

/// A pending query: redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<QueryOutcome, ServeError>>,
}

impl Ticket {
    /// Blocks until the query completes (or failed in the engine).
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }
}

/// One client session on a [`crate::Server`].
pub struct Session {
    pub(crate) core: Arc<ServerCore>,
    pub(crate) id: u64,
    pub(crate) cfg: SessionConfig,
    pub(crate) cap: usize,
}

impl Session {
    /// The server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits Datalog query text (e.g.
    /// `Triangle(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x).`).
    pub fn submit(&self, text: &str) -> Result<Ticket, ServeError> {
        let query = parser::parse(text).map_err(|e| {
            self.core.registry.add(SERVE_METRICS.rejected_parse, 1);
            ServeError::Parse(e)
        })?;
        self.submit_query(query)
    }

    /// Submits a registered workload query by paper name (`"Q1"` …
    /// `"Q8"`, from [`parjoin_core::queries`]).
    pub fn submit_named(&self, name: &str) -> Result<Ticket, ServeError> {
        let query = parjoin_core::queries::build(name)
            .ok_or_else(|| ServeError::UnknownQuery(name.to_string()))?;
        self.submit_query(query)
    }

    /// Submits an already-built [`ConjunctiveQuery`]: binds it against
    /// the current catalog snapshot, admits it, and schedules execution.
    pub fn submit_query(&self, query: ConjunctiveQuery) -> Result<Ticket, ServeError> {
        let core = &self.core;
        let snapshot = core.catalog.snapshot();

        // Pre-flight bind: reject unknown relations / arity mismatches
        // before any scheduling work.
        let diags = parjoin_analyze::bind_against_catalog(&query, &snapshot.db);
        if !diags.is_empty() {
            core.registry.add(SERVE_METRICS.rejected_bind, 1);
            return Err(ServeError::Bind(diags));
        }

        // Admission, step 1: the per-session concurrency cap.
        core.try_begin(self.id, self.cap)?;

        let submitted = Instant::now();
        let (tx, rx) = mpsc::channel();
        let job_core = Arc::clone(core);
        let session_id = self.id;
        let cfg = self.cfg.clone();
        let job = Box::new(move || {
            let started = Instant::now();
            let outcome = execute(&job_core, &cfg, query, &snapshot, submitted, started);
            job_core.finish(session_id, outcome.is_ok());
            // A dropped ticket just means the client stopped listening.
            let _ = tx.send(outcome);
        });

        // Admission, step 2: the bounded run queue.
        if let Err(e) = core.sched.submit(job) {
            core.finish_admission_only(session_id);
            match &e {
                ServeError::QueueFull { .. } => {
                    core.registry.add(SERVE_METRICS.rejected_queue_full, 1);
                }
                _ => core.registry.add(SERVE_METRICS.rejected_shutdown, 1),
            }
            return Err(e);
        }
        core.registry.add(SERVE_METRICS.accepted, 1);
        Ok(Ticket { rx })
    }
}

fn execute(
    core: &ServerCore,
    cfg: &SessionConfig,
    query: ConjunctiveQuery,
    snapshot: &crate::catalog::CatalogSnapshot,
    submitted: Instant,
    started: Instant,
) -> Result<QueryOutcome, ServeError> {
    let cluster = core.cluster();
    let (shuffle, join) = resolve_choice(cfg.choice, &query, &snapshot.db, &cluster);
    let opts = plan_options(cfg);
    let result = run_config(&query, &snapshot.db, &cluster, shuffle, join, &opts)
        .map_err(ServeError::Engine)?;
    let reg = &core.registry;
    reg.add(SERVE_METRICS.sortcache_hits, result.sort_cache_hits);
    reg.add(SERVE_METRICS.sortcache_misses, result.sort_cache_misses);
    reg.add(SERVE_METRICS.triecache_hits, result.trie_cache_hits);
    reg.add(SERVE_METRICS.triecache_misses, result.trie_cache_misses);
    let latency = submitted.elapsed();
    reg.add(
        SERVE_METRICS.latency_micros,
        u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
    );
    Ok(QueryOutcome {
        query: query.name,
        catalog_version: snapshot.version,
        config: result.config.clone(),
        result,
        queued: started.duration_since(submitted),
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_choice_parses_all_names() {
        assert_eq!(ConfigChoice::parse("advise"), Some(ConfigChoice::Advised));
        for name in ["RS_HJ", "RS_TJ", "BR_HJ", "BR_TJ", "HC_HJ", "HC_TJ"] {
            assert!(
                matches!(ConfigChoice::parse(name), Some(ConfigChoice::Fixed(_, _))),
                "{name}"
            );
        }
        assert_eq!(ConfigChoice::parse("XX_YY"), None);
    }
}
