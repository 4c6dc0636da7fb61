//! End-to-end tests of the pre-flight's certificate: every paper
//! workload under every shuffle × join configuration comes back, with
//! default options, carrying a parallel-correctness certificate (R420)
//! — and a deliberately miswired policy must be refuted with a
//! *concrete* counterexample valuation, not just a symbolic shrug.

use parjoin_analyze as analyze;
use parjoin_analyze::policy::{AtomRoute, Family, Pin, Policy, Verdict};
use parjoin_common::hash;
use parjoin_datagen::{all_queries, Scale};
use parjoin_engine::{
    run_config, Cluster, DiagCode, JoinAlg, PlanOptions, ShuffleAlg, TrieLayout, PAPER_CONFIGS,
};
use parjoin_query::VarId;

#[test]
fn all_workloads_certify_under_all_six_configs() {
    let scale = Scale::tiny();
    for spec in all_queries() {
        let db = scale.db_for(spec.dataset, 42);
        for (shuffle, join) in PAPER_CONFIGS {
            let r = run_config(
                &spec.query,
                &db,
                &Cluster::new(8),
                shuffle,
                join,
                &PlanOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} {shuffle:?}/{join:?}: {e}", spec.name));
            let certified = r
                .diagnostics
                .iter()
                .filter(|d| d.code == DiagCode::PolicyCertified)
                .count();
            assert_eq!(
                certified, 1,
                "{} {shuffle:?}/{join:?} must carry exactly one certificate: {:?}",
                spec.name, r.diagnostics
            );
            assert!(
                !r.diagnostics.iter().any(|d| matches!(
                    d.code,
                    DiagCode::PolicyCounterexample
                        | DiagCode::PolicyUnproven
                        | DiagCode::PolicyMalformed
                )),
                "{} {shuffle:?}/{join:?} must not be refuted: {:?}",
                spec.name,
                r.diagnostics
            );
            // Satellite: diagnostics come back in deterministic order
            // (sorted by code, then message, then context).
            let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.code()).collect();
            let mut sorted = codes.clone();
            sorted.sort_unstable();
            assert_eq!(codes, sorted, "{}: diagnostics must be sorted", spec.name);
            // The certificate also shows up in the human report.
            assert!(
                r.report().contains("R420"),
                "{}: report must print the certificate",
                spec.name
            );
        }
    }
}

#[test]
fn miswired_policy_is_refuted_with_a_concrete_valuation() {
    // R(x,y) ⋈ S(y,z), both sides hashed on the join variable — but
    // through *different* channels, the classic mis-seeded repartition
    // bug a sampled assert only catches when the sample happens to
    // disagree. The certifier must find a concrete valuation whose two
    // facts land on different workers.
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    let atom_vars = vec![vec![x, y], vec![y, z]];
    let workers = 8;
    let policy = Policy {
        dims: vec![workers],
        routes: vec![
            AtomRoute::Routed(vec![Pin::Hash {
                var: y,
                channel: 0xAAAA,
                family: Family::KeyRow,
            }]),
            AtomRoute::Routed(vec![Pin::Hash {
                var: y,
                channel: 0xBBBB,
                family: Family::KeyRow,
            }]),
        ],
        label: "miswired regular".to_string(),
    };
    match analyze::policy::certify(&atom_vars, &policy, None) {
        Verdict::Refuted(cex) => {
            let val = |v: VarId| {
                cex.valuation
                    .iter()
                    .find(|(w, _)| *w == v)
                    .map_or(0, |(_, n)| *n)
            };
            let left = hash::bucket_row(&[val(y)], 0xAAAA, workers);
            let right = hash::bucket_row(&[val(y)], 0xBBBB, workers);
            assert_ne!(
                left, right,
                "counterexample must disagree under the engine's real hash: {cex:?}"
            );
        }
        v => panic!("miswired policy must be refuted, got {v:?}"),
    }
}

#[test]
fn warm_certified_runs_hit_both_caches() {
    // Two identical HyperCube/Tributary runs per trie layout: the
    // certificate is a proof attached to the plan and leaves caching
    // alone, so every trie (columnar) and every sorted view (row) of the
    // second run comes out of its layout's cache.
    let spec = all_queries().remove(0);
    let db = Scale::tiny().db_for(spec.dataset, 7);
    let cluster = Cluster::new(8);
    let run = |trie_layout| {
        let opts = PlanOptions {
            trie_layout,
            ..Default::default()
        };
        run_config(
            &spec.query,
            &db,
            &cluster,
            ShuffleAlg::HyperCube,
            JoinAlg::Tributary,
            &opts,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    };
    run(TrieLayout::Row);
    let row = run(TrieLayout::Row);
    assert!(
        row.sort_cache_hits > 0 && row.sort_cache_misses == 0,
        "warm row run must re-sort nothing: {}",
        row.report()
    );
    run(TrieLayout::Columnar);
    let second = run(TrieLayout::Columnar);
    assert!(
        second.trie_cache_hits > 0 && second.sort_cache_hits == 0,
        "{}",
        second.report()
    );
    assert_eq!(
        (second.sort_cache_misses, second.trie_cache_misses),
        (0, 0),
        "warm run must rebuild nothing: {}",
        second.report()
    );
    assert!(
        second
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::PolicyCertified),
        "warm run still carries its R420 certificate"
    );
}
