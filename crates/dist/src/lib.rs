//! Distributed execution of parallel join plans: a coordinator that
//! plans queries and ships per-rank [`parjoin_engine::Fragment`]s over
//! the PJCP control protocol, and workers that join the TCP data mesh,
//! execute their fragment, and stream results back.
//!
//! The crate deliberately contains no planning or join logic of its
//! own — the coordinator calls [`parjoin_engine::plan_fragments`], which
//! slices the plan `run_config` would execute, and workers call
//! [`parjoin_engine::execute_fragment`], which runs the engine's one
//! executor over the rank's partition with the TCP mesh as its shuffle
//! transport. A multi-process run therefore plans, routes, prepares and
//! joins with literally the same code as `Transport::Local`, making
//! byte-identical output a construction property rather than a hope.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod proto;
pub mod worker;

pub use coordinator::{RemoteCluster, RemoteRun};
pub use error::DistError;
pub use proto::WorkerStats;
pub use worker::WorkerServer;
