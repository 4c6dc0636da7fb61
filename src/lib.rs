#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parjoin
//!
//! Efficient join query evaluation in a (simulated) parallel database
//! system — a from-scratch Rust reproduction of Chu, Balazinska & Suciu,
//! *From Theory to Practice: Efficient Join Query Evaluation in a
//! Parallel Database System*, SIGMOD 2015.
//!
//! The facade re-exports the whole workspace:
//!
//! * [`query`] — conjunctive queries, the Datalog parser, hypergraph
//!   analysis;
//! * [`core`] — HyperCube share optimization (Algorithm 1), the Tributary
//!   join (a Leapfrog-Triejoin over sorted arrays), and the §5
//!   variable-order cost model;
//! * [`engine`] — a shared-nothing cluster simulator with the paper's six
//!   shuffle×join plan configurations and the §3.6 semijoin plans;
//! * [`runtime`] — the message-passing worker runtime the engine's
//!   shuffles execute on, with pluggable transports (in-memory,
//!   in-process channels, loopback TCP);
//! * [`datagen`] — seeded Twitter-like and Freebase-like datasets and the
//!   Q1–Q8 workloads;
//! * [`lp`] — the small simplex solver behind the fractional share LP.
//!
//! ## Quickstart
//!
//! ```
//! use parjoin::prelude::*;
//!
//! // All directed triangles, straight from the paper's §3.1.
//! let q = parjoin::query::parser::parse(
//!     "Triangle(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x)",
//! ).unwrap();
//!
//! let db = Scale::tiny().twitter_db(42);
//! let cluster = Cluster::new(8);
//! let result = run_config(
//!     &q, &db, &cluster,
//!     ShuffleAlg::HyperCube, JoinAlg::Tributary,
//!     &PlanOptions::default(),
//! ).unwrap();
//! assert!(result.output_tuples > 0);
//! ```

pub use parjoin_common as common;
pub use parjoin_core as core;
pub use parjoin_datagen as datagen;
pub use parjoin_dist as dist;
pub use parjoin_engine as engine;
pub use parjoin_lp as lp;
pub use parjoin_obs as obs;
pub use parjoin_query as query;
pub use parjoin_runtime as runtime;
pub use parjoin_serve as serve;

/// The names most programs need.
pub mod prelude {
    pub use parjoin_common::{Database, Relation, WireFormat};
    pub use parjoin_core::hypercube::{HcConfig, ShareProblem};
    pub use parjoin_core::order::{best_order, OrderCostModel};
    pub use parjoin_core::tributary::{
        BTreeAtom, ColumnarAtom, ColumnarTrie, SortedAtom, Tributary, TrieAtom, TrieCursor,
    };
    pub use parjoin_datagen::{all_queries, DatasetKind, QuerySpec, Scale};
    pub use parjoin_engine::{
        metric_names, run_config, Cluster, EngineError, JoinAlg, PlanOptions, RunResult,
        ShuffleAlg, TransportKind, TrieCache, TrieLayout,
    };
    pub use parjoin_query::{ConjunctiveQuery, QueryBuilder, VarId};
    pub use parjoin_serve::{Server, ServerConfig, SessionConfig};
}
