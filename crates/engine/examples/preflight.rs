//! Demonstrates the pre-flight plan analyzer: a malformed HyperCube
//! configuration is rejected with typed diagnostics before any data
//! moves, while a valid plan runs (carrying any warnings along).
//!
//! Run with `cargo run -p parjoin-engine --example preflight`.

use parjoin_common::{Database, Relation};
use parjoin_core::hypercube::HcConfig;
use parjoin_engine::{run_config, Cluster, EngineError, JoinAlg, PlanOptions, ShuffleAlg};
use parjoin_query::{QueryBuilder, VarId};

fn main() {
    // Triangle query over a small ring graph.
    let mut b = QueryBuilder::new("Tri");
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("E1", [x, y]).atom("E2", [y, z]).atom("E3", [z, x]);
    let q = b.build();

    let mut rel = Relation::new(2);
    for i in 0..16u64 {
        rel.push_row(&[i, (i + 1) % 16]);
        rel.push_row(&[(i + 2) % 16, i]);
    }
    let rel = rel.distinct();
    let mut db = Database::new();
    db.insert("E1", rel.clone());
    db.insert("E2", rel.clone());
    db.insert("E3", rel);

    let cluster = Cluster::new(8);

    // 1. A 4x4x4 hypercube on 8 workers: 64 cells cannot be placed.
    let bad = PlanOptions {
        hc_config: Some(HcConfig::new(
            vec![VarId(0), VarId(1), VarId(2)],
            vec![4, 4, 4],
        )),
        ..Default::default()
    };
    match run_config(
        &q,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &bad,
    ) {
        Err(EngineError::InvalidPlan(diags)) => {
            println!("rejected before execution ({} diagnostics):", diags.len());
            for d in &diags {
                println!("  {d}");
            }
        }
        Err(e) => println!("unexpected error: {e}"),
        Ok(_) => println!("unexpectedly ran"),
    }

    // 2. The same query with a sound plan runs to completion.
    let good = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    match run_config(
        &q,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &good,
    ) {
        Ok(r) => {
            println!(
                "valid plan ran: {} output tuples, {} diagnostics",
                r.output_tuples,
                r.diagnostics.len()
            );
            for d in &r.diagnostics {
                println!("  {d}");
            }
        }
        Err(e) => println!("unexpected error: {e}"),
    }
}
