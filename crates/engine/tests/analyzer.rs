//! Malformed plans must come back as `EngineError::InvalidPlan` with
//! typed diagnostics — never as panics — and analyzer warnings must ride
//! along on successful runs.

use parjoin_common::{Database, Relation};
use parjoin_core::hypercube::HcConfig;
use parjoin_engine::{
    run_config, Cluster, DiagCode, EngineError, JoinAlg, PlanOptions, ShuffleAlg,
};
use parjoin_query::{ConjunctiveQuery, QueryBuilder, VarId};

fn triangle_query() -> ConjunctiveQuery {
    let mut b = QueryBuilder::new("Tri");
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("E1", [x, y]).atom("E2", [y, z]).atom("E3", [z, x]);
    b.build()
}

fn ring_db(n: u64) -> Database {
    let mut rel = Relation::new(2);
    for i in 0..n {
        rel.push_row(&[i, (i + 1) % n]);
        rel.push_row(&[(i + 2) % n, i]);
    }
    let rel = rel.distinct();
    let mut db = Database::new();
    db.insert("E1", rel.clone());
    db.insert("E2", rel.clone());
    db.insert("E3", rel);
    db
}

/// Unwraps the InvalidPlan variant or panics with a useful message.
fn invalid_plan(
    r: Result<parjoin_engine::RunResult, EngineError>,
) -> Vec<parjoin_engine::Diagnostic> {
    match r {
        Err(EngineError::InvalidPlan(diags)) => {
            assert!(!diags.is_empty(), "InvalidPlan must carry diagnostics");
            diags
        }
        Err(e) => panic!("expected InvalidPlan, got {e}"),
        Ok(_) => panic!("expected InvalidPlan, plan ran"),
    }
}

#[test]
fn oversized_hc_config_is_rejected_not_panicked() {
    let q = triangle_query();
    let db = ring_db(12);
    // 4×4×4 = 64 cells on a 8-worker cluster: unexecutable.
    let opts = PlanOptions {
        hc_config: Some(HcConfig::new(
            vec![VarId(0), VarId(1), VarId(2)],
            vec![4, 4, 4],
        )),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(8),
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &opts,
    ));
    assert!(
        diags.iter().any(|d| d.code == DiagCode::HcConfigOversized),
        "{diags:?}"
    );
    let d = diags
        .iter()
        .find(|d| d.code == DiagCode::HcConfigOversized)
        .unwrap();
    assert_eq!(d.context_value("cells"), Some("64"));
    assert_eq!(d.context_value("workers"), Some("8"));
}

#[test]
fn hc_dim_on_unknown_var_is_rejected_as_duplicating() {
    let q = triangle_query();
    let db = ring_db(12);
    // A dimension on VarId(9), which no atom contains: every atom would
    // replicate across it and every triangle would be emitted twice.
    let opts = PlanOptions {
        hc_config: Some(HcConfig::new(vec![VarId(0), VarId(9)], vec![2, 2])),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &opts,
    ));
    assert!(
        diags.iter().any(|d| d.code == DiagCode::HcConfigUnknownVar),
        "{diags:?}"
    );
}

#[test]
fn hc_config_missing_join_vars_warns_but_runs_correctly() {
    let q = triangle_query();
    let db = ring_db(12);
    // Dimensions on x only: y and z are join variables left
    // undimensioned. Correct (atoms not containing x replicate) but
    // wasteful, so it runs with warnings.
    let opts = PlanOptions {
        hc_config: Some(HcConfig::new(vec![VarId(0)], vec![4])),
        collect_output: true,
        ..Default::default()
    };
    let r = run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &opts,
    )
    .expect("warnings must not fail the run");
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.code == DiagCode::HcConfigMissingJoinVar),
        "{:?}",
        r.diagnostics
    );
    // And the answer is still the right one.
    let baseline = run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &PlanOptions {
            collect_output: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.output_tuples, baseline.output_tuples);
}

#[test]
fn duplicate_join_order_is_rejected_not_panicked() {
    let q = triangle_query();
    let db = ring_db(12);
    let opts = PlanOptions {
        join_order: Some(vec![0, 0, 1]),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &opts,
    ));
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::JoinOrderNotPermutation),
        "{diags:?}"
    );
}

#[test]
fn short_join_order_reports_dropped_filters() {
    use parjoin_query::CmpOp;
    let mut b = QueryBuilder::new("F");
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", [x, y]).atom("S", [y, z]);
    b.filter_vv(x, CmpOp::Lt, z);
    let q = b.build();
    let mut db = Database::new();
    let rel = Relation::from_rows(2, (0..10u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter());
    db.insert("R", rel.clone());
    db.insert("S", rel);
    // The order covers only atom 0, so z never binds and the x<z filter
    // could never be applied (formerly a silently-passing debug_assert).
    let opts = PlanOptions {
        join_order: Some(vec![0]),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::Regular,
        JoinAlg::Hash,
        &opts,
    ));
    assert!(
        diags
            .iter()
            .any(|d| d.code == DiagCode::JoinOrderNotPermutation),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.code == DiagCode::FilterNeverApplied),
        "{diags:?}"
    );
}

#[test]
fn partial_tj_order_is_rejected_not_panicked() {
    let q = triangle_query();
    let db = ring_db(12);
    // Omits z: E2(y,z) and E3(z,x) cannot be sorted into this order.
    let opts = PlanOptions {
        tj_order: Some(vec![VarId(0), VarId(1)]),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::HyperCube,
        JoinAlg::Tributary,
        &opts,
    ));
    assert!(
        diags.iter().any(|d| d.code == DiagCode::TjOrderIncomplete),
        "{diags:?}"
    );
}

#[test]
fn tj_order_with_unknown_var_is_rejected() {
    let q = triangle_query();
    let db = ring_db(12);
    let opts = PlanOptions {
        tj_order: Some(vec![VarId(0), VarId(1), VarId(2), VarId(7)]),
        ..Default::default()
    };
    let diags = invalid_plan(run_config(
        &q,
        &db,
        &Cluster::new(4),
        ShuffleAlg::Broadcast,
        JoinAlg::Tributary,
        &opts,
    ));
    assert!(
        diags.iter().any(|d| d.code == DiagCode::TjOrderUnknownVar),
        "{diags:?}"
    );
}

#[test]
fn disconnected_query_warns_through_greedy_order_and_still_runs() {
    // R(x,y) × S(u,v): no shared variables at all. The greedy order falls
    // back to a cartesian step; the analyzer surfaces it as warnings and
    // the engine still computes the (cross product) answer.
    let mut b = QueryBuilder::new("Cross");
    let (x, y, u, w) = (b.var("x"), b.var("y"), b.var("u"), b.var("w"));
    b.atom("R", [x, y]).atom("S", [u, w]);
    let q = b.build();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(2, [[1u64, 2], [3, 4]].iter()));
    db.insert(
        "S",
        Relation::from_rows(2, [[5u64, 6], [7, 8], [9, 10]].iter()),
    );
    for (s, j) in [
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::Broadcast, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Hash),
    ] {
        let r = run_config(
            &q,
            &db,
            &Cluster::new(4),
            s,
            j,
            &PlanOptions {
                collect_output: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{s:?}/{j:?}: {e}"));
        assert_eq!(r.output_tuples, 6, "{s:?}/{j:?} cross product size");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == DiagCode::QueryDisconnected),
            "{s:?}/{j:?}: expected a disconnection warning, got {:?}",
            r.diagnostics
        );
    }
}

#[test]
fn memory_preflight_warning_precedes_budget_failure() {
    let q = triangle_query();
    let db = ring_db(60);
    // A budget of 1 tuple per worker cannot hold the shuffled inputs: the
    // analyzer predicts the failure up front…
    let cluster = Cluster::new(4).with_memory_budget(1);
    let err = run_config(
        &q,
        &db,
        &cluster,
        ShuffleAlg::Broadcast,
        JoinAlg::Hash,
        &PlanOptions::default(),
    )
    .unwrap_err();
    // …but the run still fails with the precise runtime error (the
    // pre-flight is a warning, not a refusal — estimates can be wrong).
    assert!(matches!(err, EngineError::MemoryBudget { .. }), "got {err}");
}

#[test]
fn clean_plans_have_no_warnings() {
    let q = triangle_query();
    let db = ring_db(24);
    // R413 is host-dependent: 4 simulated workers trigger it exactly
    // when the machine running this test has <= 4 cores. Besides it, a
    // clean plan carries its R420 certificate and nothing else.
    let saturated = std::thread::available_parallelism()
        .map(|n| 4 >= n.get())
        .unwrap_or(false);
    for (s, j) in [
        (ShuffleAlg::Regular, JoinAlg::Hash),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    ] {
        let r = run_config(&q, &db, &Cluster::new(4), s, j, &PlanOptions::default()).unwrap();
        let (r413, rest): (Vec<_>, Vec<_>) = r
            .diagnostics
            .iter()
            .partition(|d| d.code == DiagCode::ProbeParallelismDegraded);
        let (r420, rest): (Vec<_>, Vec<_>) = rest
            .into_iter()
            .partition(|d| d.code == DiagCode::PolicyCertified);
        assert!(rest.is_empty(), "{s:?}/{j:?}: {rest:?}");
        assert_eq!(r420.len(), 1, "{s:?}/{j:?}: {r420:?}");
        assert_eq!(
            !r413.is_empty(),
            saturated,
            "{s:?}/{j:?}: R413 should fire iff workers >= host cores, got {r413:?}"
        );
    }
}
