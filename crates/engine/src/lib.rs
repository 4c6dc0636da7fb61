#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-engine
//!
//! An in-process simulator of the shared-nothing parallel DBMS the paper
//! runs on (Myria, 64 workers over 16 machines): relations are
//! horizontally partitioned across `p` workers, shuffles move tuples
//! between partitions while tallying exactly the metrics the paper
//! reports (tuples sent, producer/consumer skew), and local joins run as
//! real computations whose per-worker busy times yield the simulated
//! wall-clock (the slowest worker — stragglers are physical here, not
//! modeled) and total CPU time.
//!
//! The six shuffle×join configurations of §3 are provided by
//! [`plans::run_config`]:
//!
//! | name | shuffle | local join |
//! |------|---------|-----------|
//! | `RS_HJ` | regular (per join step) | binary hash join |
//! | `RS_TJ` | regular (per join step) | binary sort-merge join |
//! | `BR_HJ` | broadcast | left-deep hash-join tree |
//! | `BR_TJ` | broadcast | Tributary join |
//! | `HC_HJ` | HyperCube | left-deep hash-join tree |
//! | `HC_TJ` | HyperCube | Tributary join |
//!
//! ([`PAPER_CONFIGS`], in that order), plus §3.6's distributed semijoin
//! (GYM) plan as [`ShuffleAlg::Semijoin`]: `SJ_HJ` / `SJ_TJ` run
//! semijoin reduction rounds along the join tree of an acyclic query,
//! then the regular-shuffle plan. [`parse_config`] reads all eight
//! names.
//!
//! Every plan is vetted by the static analyzer (`parjoin-analyze`)
//! before execution: malformed plans come back as
//! [`EngineError::InvalidPlan`] with typed [`Diagnostic`]s instead of
//! panicking mid-flight, and analyzer warnings ride along on
//! [`RunResult::diagnostics`]. The `strict-invariants` cargo feature
//! additionally cross-checks the analyzer's guarantees at runtime
//! (post-shuffle co-location of sampled tuples, sortedness of Tributary
//! inputs).
//!
//! Shuffles execute on the `parjoin-runtime` worker-actor runtime.
//! [`Cluster::with_transport`] selects how tuples move:
//! [`TransportKind::Local`] (default) replays the original sequential
//! in-memory loop, [`TransportKind::InProcess`] streams encoded batches
//! over bounded channels between worker threads, and
//! [`TransportKind::Tcp`] frames them over loopback sockets, every rank a
//! [`HostMesh`](parjoin_runtime::HostMesh) member. Results are
//! byte-identical across transports; the streaming ones add real
//! `bytes_sent`/`bytes_received` to every
//! [`ShuffleStats`](parjoin_common::ShuffleStats).
//!
//! A multi-process deployment runs the same executor: the coordinator
//! slices one plan into per-rank [`Fragment`]s, and each worker process
//! runs [`execute_fragment`] — [`plans`]' step sequence over the one
//! partition it hosts, its shuffles going through a runtime that hosts
//! that one rank of the workers' [`HostMesh`](parjoin_runtime::HostMesh)
//! instead of all `p` ranks of an in-process one. A fragment names each
//! partition by content fingerprint ([`PartitionRef`]) and carries its
//! rows only where the worker does not hold them yet.

pub mod advisor;
mod cache;
pub mod cluster;
pub mod dist;
pub mod error;
pub mod exec;
pub mod fragment;
pub mod local;
mod pipeline;
pub mod plans;
pub mod prepare;
pub mod probe;
mod semijoin;
pub mod shuffle;
pub mod sortcache;
pub mod statscache;
#[cfg(feature = "strict-invariants")]
mod strict;
pub mod triecache;

pub use advisor::{advise, Advice};
pub use cluster::Cluster;
pub use dist::DistRel;
pub use error::EngineError;
pub use fragment::{
    execute_fragment, plan_fragments, plan_mesh, Fragment, MeshPlan, PartitionRef, RemoteOutcome,
};
pub use parjoin_analyze::{DiagCode, Diagnostic, Severity};
pub use parjoin_obs as obs;
pub use parjoin_runtime::TransportKind;
pub use plans::{
    config_name, metric_names, parse_config, run_config, JoinAlg, PlanOptions, PrepProbe,
    RunResult, ShuffleAlg, TrieLayout, PAPER_CONFIGS,
};
pub use sortcache::SortCache;
pub use statscache::StatsCache;
pub use triecache::TrieCache;
