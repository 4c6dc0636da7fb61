//! Runtime cross-checks behind the `strict-invariants` cargo feature.
//!
//! The static analyzer (`parjoin-analyze`) *argues* that every shuffle
//! the engine performs is parallel-correct — joining tuples always meet
//! on some worker. This module spot-checks that argument at runtime on
//! sampled tuples, and verifies the sortedness precondition of the
//! Tributary join's inputs. The checks cost extra passes over the data
//! and therefore live behind a feature flag; they panic on violation,
//! because a failure here means the engine itself (not the caller's
//! plan) is broken.

use crate::dist::DistRel;
use parjoin_analyze::{DiagCode, Diagnostic};
use parjoin_common::Value;
use parjoin_query::VarId;

/// Whether a run's diagnostics carry the R420 certificate. Such a run
/// skips the sampled co-location asserts: the proof covers *all*
/// valuations, the samples only the shuffled ones.
pub(crate) fn certified(diagnostics: &[Diagnostic]) -> bool {
    diagnostics
        .iter()
        .any(|d| d.code == DiagCode::PolicyCertified)
}

/// Rows sampled from each side of a co-location check.
const SAMPLE_PER_SIDE: usize = 32;

/// Column indices of `shared` within `vars` (`None` if any is missing —
/// the caller's shared set should always be a subset of both schemas).
fn cols_of(vars: &[VarId], shared: &[VarId]) -> Option<Vec<usize>> {
    shared
        .iter()
        .map(|v| vars.iter().position(|x| x == v))
        .collect()
}

/// Up to [`SAMPLE_PER_SIDE`] distinct rows, drawn evenly across parts so
/// skewed placements are still observed.
fn sample_rows(d: &DistRel) -> Vec<Vec<Value>> {
    let parts = d.parts.len().max(1);
    let per_part = SAMPLE_PER_SIDE.div_ceil(parts);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for p in &d.parts {
        for row in p.rows().take(per_part) {
            let row = row.to_vec();
            if !rows.contains(&row) {
                rows.push(row);
            }
            if rows.len() >= SAMPLE_PER_SIDE {
                return rows;
            }
        }
    }
    rows
}

/// Every worker whose part contains `row` (a row may live on several
/// workers under replicating shuffles).
fn worker_set(d: &DistRel, row: &[Value]) -> Vec<usize> {
    d.parts
        .iter()
        .enumerate()
        .filter(|(_, p)| p.rows().any(|r| r == row))
        .map(|(w, _)| w)
        .collect()
}

/// Asserts that sampled joining pairs of `a` and `b` (rows agreeing on
/// the `shared` variables) are co-located on at least one common worker.
///
/// # Panics
/// Panics when a sampled joining pair meets on no worker — i.e. the
/// shuffle just performed was not parallel-correct.
pub(crate) fn assert_colocated(a: &DistRel, b: &DistRel, shared: &[VarId], what: &str) {
    if shared.is_empty() {
        return;
    }
    let (Some(acols), Some(bcols)) = (cols_of(&a.vars, shared), cols_of(&b.vars, shared)) else {
        return;
    };
    let rows_a = sample_rows(a);
    let rows_b = sample_rows(b);
    for ra in &rows_a {
        let key_a: Vec<Value> = acols.iter().map(|&c| ra[c]).collect();
        for rb in &rows_b {
            let key_b: Vec<Value> = bcols.iter().map(|&c| rb[c]).collect();
            if key_a != key_b {
                continue;
            }
            let wa = worker_set(a, ra);
            let wb = worker_set(b, rb);
            assert!(
                wa.iter().any(|w| wb.contains(w)),
                "strict-invariants: {what}: joining tuples {ra:?} (workers {wa:?}) and \
                 {rb:?} (workers {wb:?}) share no worker"
            );
        }
    }
}

/// Asserts pairwise co-location across every pair of shuffled fragments
/// that share variables (the one-round plans' post-shuffle invariant).
pub(crate) fn assert_all_colocated(shuffled: &[DistRel], what: &str) {
    for (i, a) in shuffled.iter().enumerate() {
        for b in shuffled.iter().skip(i + 1) {
            let shared: Vec<VarId> = a
                .vars
                .iter()
                .copied()
                .filter(|v| b.vars.contains(v))
                .collect();
            assert_colocated(a, b, &shared, what);
        }
    }
}
