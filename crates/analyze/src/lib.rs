#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Pre-flight static analysis of parjoin plans.
//!
//! Given the same information the engine's `run_config` receives — a
//! [`ConjunctiveQuery`](parjoin_query::ConjunctiveQuery), the cluster
//! shape, the shuffle and join algorithm, and any explicit plan options
//! — [`analyze`] vets the plan *before* a single tuple moves and
//! returns typed [`Diagnostic`]s instead of letting the executor panic
//! mid-flight:
//!
//! * **Parallel-correctness** ([`checks::check_shuffle`]): the
//!   HyperCube shuffle is parallel-correct (in the sense of Ameloot et
//!   al.: the distribution policy co-locates every potential join
//!   result) for *any* configuration over the query's variables,
//!   because atoms replicate across dimensions they do not contain.
//!   The analyzer rejects the two cases that break this: more cells
//!   than workers (unexecutable) and dimensions on variables no atom
//!   contains (every join result is emitted once per coordinate —
//!   duplicated output under bag semantics). It warns about
//!   configurations that are correct but wasteful (join variables left
//!   undimensioned, most of the cluster idle) and about broadcast plans
//!   that ship more data than they keep partitioned.
//! * **Well-formedness** ([`checks::check_query`],
//!   [`checks::check_join_order`], [`checks::check_tj_order`]): the
//!   join order must be a permutation of the atom indices, the
//!   Tributary variable order must cover every variable of every atom,
//!   filters must become bindable somewhere in the plan, head
//!   variables must appear in some atom, and disconnected prefixes
//!   (which force cartesian expansion) are flagged.
//! * **Resource pre-flight** ([`checks::check_resources`]): a
//!   shuffle-specific per-worker load estimate is compared against the
//!   cluster memory budget, turning a guaranteed mid-flight
//!   `MemoryBudget` abort into an upfront warning;
//!   [`checks::check_sort_cache`], [`checks::check_probe_parallelism`]
//!   and [`checks::check_runtime`] do the same for the sorted working
//!   set, the intra-worker thread count and the streaming batch and
//!   frame sizes.
//! * **Parallel-correctness certification** ([`policy`]): every plan's
//!   shuffle strategy is modeled as an explicit distribution policy over
//!   a worker grid and *decided* once, in the pre-flight — either proved
//!   parallel-correct, which attaches the R420 proof certificate (the
//!   per-round, per-dimension hash-agreement obligations) to the plan's
//!   diagnostics, or refuted with a minimal concrete counterexample
//!   valuation (R421), which refuses the plan. The engine's caches need
//!   none of this: a sorted view or trie is a function of one worker's
//!   fragment content, so they key on that content alone.
//!
//! Errors mean "the engine must refuse to run this"; warnings and the
//! R420 certificate ride along with the result. The engine converts its
//! plan types into a [`PlanSpec`] and calls [`preflight`] at the top of
//! `run_config`.
//! Diagnostics are returned in a canonical deterministic order (by
//! code, then site) regardless of pass execution order.

pub mod bind;
pub mod checks;
pub mod diagnostic;
pub mod policy;
pub mod spec;

pub use bind::bind_against_catalog;
pub use checks::estimated_frame_bytes;
pub use diagnostic::{has_errors, sort_diagnostics, DiagCode, Diagnostic, Severity};
pub use policy::{certify, Policy, Verdict};
pub use spec::{JoinKind, PlanSpec, ShuffleKind};

/// Runs every analysis pass over the plan and returns the combined
/// findings (errors, warnings and — for a certified plan — the R420
/// certificate, sorted canonically by code then site).
pub fn analyze(spec: &PlanSpec<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    checks::check_query(spec, &mut out);
    checks::check_join_order(spec, &mut out);
    checks::check_tj_order(spec, &mut out);
    checks::check_shuffle(spec, &mut out);
    checks::check_resources(spec, &mut out);
    checks::check_sort_cache(spec, &mut out);
    checks::check_probe_parallelism(spec, &mut out);
    checks::check_runtime(spec, &mut out);
    policy::check(spec, &mut out);
    sort_diagnostics(&mut out);
    out
}

/// Pre-flight gate over [`analyze`]: `Ok(diags)` when the plan carries
/// no errors (warnings ride along), `Err(diags)` when at least one
/// diagnostic is an error and the plan must be refused.
///
/// This is the single entry point used on both ends of the wire — the
/// coordinator vets a plan before serializing fragments, and each
/// worker re-runs the same gate on the spec it rebuilds from a decoded
/// fragment, so a corrupted or stale fragment is refused before any
/// tuple moves.
///
/// # Errors
/// The full diagnostic list (errors and warnings) when any diagnostic
/// has error severity.
pub fn preflight(spec: &PlanSpec<'_>) -> Result<Vec<Diagnostic>, Vec<Diagnostic>> {
    let diags = analyze(spec);
    if has_errors(&diags) {
        Err(diags)
    } else {
        Ok(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_core::hypercube::HcConfig;
    use parjoin_query::{ConjunctiveQuery, QueryBuilder, VarId};

    fn triangle() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("Triangle");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        b.build()
    }

    #[test]
    fn clean_plan_yields_no_diagnostics() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 8, ShuffleKind::HyperCube, JoinKind::Hash)
            .with_cards(vec![100, 100, 100])
            .with_hc_config(HcConfig::new(
                vec![VarId(0), VarId(1), VarId(2)],
                vec![2, 2, 2],
            ));
        // Nothing but the certificate: one R420 info, no finding.
        let diags = analyze(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagCode::PolicyCertified);
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn oversized_hc_config_is_an_error() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::HyperCube, JoinKind::Hash).with_hc_config(
            HcConfig::new(vec![VarId(0), VarId(1), VarId(2)], vec![2, 2, 2]),
        );
        let diags = analyze(&spec);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == DiagCode::HcConfigOversized));
    }

    #[test]
    fn join_order_duplicate_is_an_error() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_join_order(vec![0, 0, 1]);
        let diags = analyze(&spec);
        assert!(diags
            .iter()
            .any(|d| d.code == DiagCode::JoinOrderNotPermutation));
    }

    #[test]
    fn partial_tj_order_is_an_error() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::HyperCube, JoinKind::Tributary)
            .with_tj_order(vec![VarId(0), VarId(1)]); // omits z
        let diags = analyze(&spec);
        assert!(diags.iter().any(|d| d.code == DiagCode::TjOrderIncomplete));
    }

    #[test]
    fn disconnected_query_warns() {
        let mut b = QueryBuilder::new("Cross");
        let (x, y, u, v) = (b.var("x"), b.var("y"), b.var("u"), b.var("v"));
        b.atom("R", [x, y]).atom("S", [u, v]);
        let q = b.build();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash);
        let diags = analyze(&spec);
        assert!(
            !has_errors(&diags),
            "disconnection is a warning, got {diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == DiagCode::QueryDisconnected));
    }

    #[test]
    fn zero_batch_size_is_an_error() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash).with_batch_tuples(0);
        let diags = analyze(&spec);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == DiagCode::BatchSizeZero));
    }

    #[test]
    fn batch_over_budget_warns() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_memory_budget(1_000)
            .with_batch_tuples(5_000);
        let diags = analyze(&spec);
        assert!(!has_errors(&diags), "over-budget batch is only a warning");
        assert!(diags.iter().any(|d| d.code == DiagCode::BatchOverBudget));
    }

    #[test]
    fn sane_batch_size_is_silent() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_memory_budget(10_000)
            .with_batch_tuples(4_096);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::BatchSizeZero && d.code != DiagCode::BatchOverBudget));
    }

    #[test]
    fn batch_over_budget_carries_frame_byte_estimate() {
        let q = triangle(); // widest atom: arity 2
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_memory_budget(1_000)
            .with_batch_tuples(5_000);
        let diags = analyze(&spec);
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::BatchOverBudget)
            .expect("R411 fires");
        let frame = d
            .context
            .iter()
            .find(|(k, _)| k == "frame_bytes")
            .map(|(_, v)| v.clone())
            .expect("R411 names the frame size");
        // The estimate is the wire module's own arithmetic for a full
        // batch of the widest atom — not a drifted re-derivation.
        let expect = parjoin_common::wire::frame_bytes(Default::default(), 2, 5_000);
        assert_eq!(frame, expect.to_string());
    }

    #[test]
    fn frame_over_limit_warns_with_both_sizes() {
        let q = triangle();
        // 4096 rows × arity 2 × 8 bytes ≈ 64 KiB per frame; a 1 KiB
        // limit cannot carry the very first full batch.
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_batch_tuples(4_096)
            .with_max_frame_bytes(1_024);
        let diags = analyze(&spec);
        assert!(!has_errors(&diags), "R414 is a warning: {diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::FrameOverLimit)
            .expect("R414 fires");
        assert_eq!(d.code.code(), "R414");
        assert!(d.context.iter().any(|(k, _)| k == "frame_bytes"));
        assert!(d
            .context
            .iter()
            .any(|(k, v)| k == "max_frame_bytes" && v == "1024"));
    }

    #[test]
    fn frame_under_limit_is_silent() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Hash)
            .with_batch_tuples(4_096)
            .with_max_frame_bytes(64 << 20);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::FrameOverLimit));
    }

    #[test]
    fn sort_cache_over_budget_warns() {
        let q = triangle();
        // Broadcast TJ: each worker sorts ~(total - largest) + largest/p
        // tuples plus their sorted copies — far over a budget of 100.
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Broadcast, JoinKind::Tributary)
            .with_cards(vec![1_000, 1_000, 1_000])
            .with_memory_budget(100);
        let diags = analyze(&spec);
        assert!(!has_errors(&diags), "R412 is a warning: {diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::SortCacheOverBudget)
            .expect("R412 expected");
        assert_eq!(d.code.code(), "R412");
        assert!(d.context_value("working_set_tuples").is_some());
    }

    #[test]
    fn sort_cache_within_budget_is_silent() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Broadcast, JoinKind::Tributary)
            .with_cards(vec![100, 100, 100])
            .with_memory_budget(1_000_000);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::SortCacheOverBudget));
    }

    #[test]
    fn sort_cache_check_ignores_hash_joins() {
        let q = triangle();
        // Same shape as the warning case but with a hash join: the sort
        // pipeline never runs, so R412 must stay silent.
        let spec = PlanSpec::new(&q, 4, ShuffleKind::Broadcast, JoinKind::Hash)
            .with_cards(vec![1_000, 1_000, 1_000])
            .with_memory_budget(100);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::SortCacheOverBudget));
    }

    #[test]
    fn probe_parallelism_degraded_warns() {
        let q = triangle();
        // 4 workers on a 4-core host: each worker's prepare/probe pool
        // gets exactly one thread.
        let spec =
            PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Tributary).with_host_cores(4);
        let diags = analyze(&spec);
        assert!(!has_errors(&diags), "R413 is a warning: {diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == DiagCode::ProbeParallelismDegraded)
            .expect("R413 expected");
        assert_eq!(d.code.code(), "R413");
        assert_eq!(d.context_value("per_worker_threads"), Some("1"));
        assert_eq!(d.context_value("host_cores"), Some("4"));
    }

    #[test]
    fn probe_parallelism_silent_with_spare_cores() {
        let q = triangle();
        let spec =
            PlanSpec::new(&q, 4, ShuffleKind::Regular, JoinKind::Tributary).with_host_cores(16);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::ProbeParallelismDegraded));
    }

    #[test]
    fn probe_parallelism_silent_when_host_unknown() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 64, ShuffleKind::Regular, JoinKind::Tributary);
        assert!(analyze(&spec)
            .iter()
            .all(|d| d.code != DiagCode::ProbeParallelismDegraded));
    }

    #[test]
    fn memory_preflight_warns() {
        let q = triangle();
        let spec = PlanSpec::new(&q, 2, ShuffleKind::Broadcast, JoinKind::Hash)
            .with_cards(vec![1_000, 1_000, 1_000])
            .with_memory_budget(10);
        let diags = analyze(&spec);
        assert!(!has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == DiagCode::MemoryPreflight));
    }
}
