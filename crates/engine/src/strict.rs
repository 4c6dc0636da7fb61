//! Runtime cross-checks behind the `strict-invariants` cargo feature.
//!
//! The static analyzer (`parjoin-analyze`) *proves* that every shuffle
//! the engine plans is parallel-correct — joining tuples always meet on
//! some worker (the R420 certificate every run carries). This module
//! spot-checks, on sampled tuples of every run, that the shuffle the
//! executor actually ran keeps that promise, and verifies the
//! sortedness precondition of the Tributary join's inputs. The checks
//! cost extra passes over the data and therefore live behind a feature
//! flag; they panic on violation, because a failure here means the
//! engine itself (not the caller's plan) is broken.

use crate::dist::DistRel;
use parjoin_common::{Relation, Value};
use parjoin_query::VarId;

/// Rows sampled from each side of a co-location check.
const SAMPLE_PER_SIDE: usize = 32;

/// Rows [`sample_batch`] takes from one batch, so that a rank's sample
/// spans several batches and sources.
const SAMPLE_PER_BATCH: usize = 8;

/// Appends the first of the last `rows` rows of `batch` (a frame a
/// receive-side join was just handed) to `sample`: up to
/// [`SAMPLE_PER_BATCH`] of them, until `sample` holds
/// [`SAMPLE_PER_SIDE`]. A consumer that drops each batch once probed
/// keeps these rows for [`assert_colocated`].
pub(crate) fn sample_batch(sample: &mut Relation, batch: &Relation, rows: usize) {
    let take = (SAMPLE_PER_SIDE.saturating_sub(sample.len()))
        .min(SAMPLE_PER_BATCH)
        .min(rows);
    let first = batch.len() - rows;
    for i in first..first + take {
        sample.push_row(batch.row(i));
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Relation;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const Z: VarId = VarId(2);

    /// A two-column relation placed on two workers: `parts[w]` holds
    /// the rows listed for worker `w`.
    fn placed(vars: [VarId; 2], parts: [&[[Value; 2]]; 2]) -> DistRel {
        DistRel {
            vars: vars.to_vec(),
            parts: parts
                .iter()
                .map(|rows| Relation::from_rows(2, rows.iter()))
                .collect(),
        }
    }

    #[test]
    #[should_panic(expected = "share no worker")]
    fn split_joining_pair_panics() {
        // R(1,2) on worker 0 and S(2,3) on worker 1 join on y = 2.
        let r = placed([X, Y], [&[[1, 2]], &[]]);
        let s = placed([Y, Z], [&[], &[[2, 3]]]);
        assert_colocated(&r, &s, &[Y], "test shuffle");
    }

    #[test]
    fn colocated_pair_passes() {
        let r = placed([X, Y], [&[[1, 2]], &[[5, 6]]]);
        let s = placed([Y, Z], [&[[2, 3]], &[[6, 7]]]);
        assert_colocated(&r, &s, &[Y], "test shuffle");
        assert_all_colocated(&[r, s], "test shuffle");
    }

    #[test]
    fn row_replicated_on_every_worker_passes() {
        // The broadcast shape: S's row is on every worker, R stays
        // wherever it was seeded.
        let r = placed([X, Y], [&[], &[[1, 2]]]);
        let s = placed([Y, Z], [&[[2, 3]], &[[2, 3]]]);
        assert_colocated(&r, &s, &[Y], "broadcast shuffle");
        assert_all_colocated(&[s, r], "broadcast shuffle");
    }

    #[test]
    fn empty_shared_set_is_a_no_op() {
        // Split rows that would fail on `y` are never compared without
        // a shared variable.
        let r = placed([X, Y], [&[[1, 2]], &[]]);
        let s = placed([Y, Z], [&[], &[[2, 3]]]);
        assert_colocated(&r, &s, &[], "cartesian step");
        let t = placed([Z, VarId(3)], [&[], &[[9, 9]]]);
        assert_all_colocated(&[r, t], "cartesian step");
    }
}
