#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin-obs
//!
//! The observability layer behind the engine's per-phase breakdown
//! (paper §3, Tables 4–5): a lock-cheap counter [`Registry`],
//! hierarchical phase spans ([`TraceSink`] / [`Lane`] / [`Span`]), and a
//! chrome://tracing-compatible JSON exporter plus a dependency-free
//! validator ([`json`]) for it.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-allocation hot path.** A [`Counter`] is one `Arc<AtomicU64>`
//!    — registration (the only allocating step) happens once per run,
//!    and every subsequent `add` is a single relaxed atomic. Spans are
//!    opened *per phase per worker*, never per tuple or per morsel.
//! 2. **Near-nothing when disabled.** A disabled [`TraceSink`] makes
//!    [`Lane::span`] return an inert guard without even reading the
//!    clock; detached counters still count but feed no registry.
//! 3. **Per-run, not per-process.** Tests run many plans concurrently in
//!    one process; a global registry would interleave their tallies, and
//!    a run's registry is the only store of its scalar counters. Every
//!    run owns its own [`Registry`] and [`TraceSink`].

mod registry;
mod trace;

pub mod json;

pub use registry::{Counter, Registry};
pub use trace::{Lane, Span, SpanEvent, TraceSink, COORDINATOR_LANE};
