//! Per-relation statistics: the one value every optimiser reads.
//!
//! The §5 cost model needs `V(Rⱼ, prefix)` — the number of distinct
//! values of the prefix of `Rⱼ`'s join attributes under a candidate
//! global order. A distinct count is invariant under column permutation,
//! so it depends only on the column *subset*; [`RelStats`] therefore
//! holds the count for every subset and answers any order's query by
//! bitmask lookup. The fanout-greedy join order and the plan advisor
//! need less — per-column distinct counts and the hottest value's
//! frequency — and read it from the same value, so a relation is
//! analysed once however many optimisers look at it.
//!
//! Everything here is a function of the relation's *content* alone
//! (row order does not matter), which is what lets the engine cache a
//! `RelStats` under the relation's content fingerprint.

use parjoin_common::sort::sorted_indices;
use parjoin_common::Relation;

/// Widest relation that gets the all-subsets table (`2^12` counts,
/// 32 KiB). Wider relations keep per-column statistics only.
pub const MAX_SUBSET_ARITY: usize = 12;

/// Statistics of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Distinct values in the column (0 for an empty relation).
    pub distinct: u64,
    /// Rows holding the column's most frequent value (bag semantics).
    pub top_freq: u64,
}

/// Row count, per-column statistics and — up to [`MAX_SUBSET_ARITY`]
/// columns — the distinct count of every column subset of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelStats {
    rows: u64,
    columns: Vec<ColumnStats>,
    /// `subsets[mask]` = distinct tuples of the projection onto the
    /// columns in `mask`; `subsets[0] = 1` (the empty projection).
    /// Empty when the relation is wider than [`MAX_SUBSET_ARITY`].
    subsets: Vec<u64>,
}

/// Distinct rows of `rel` and the length of its longest run of equal
/// rows: one index sort, one pass, nothing materialised.
fn distinct_and_top(rel: &Relation) -> (u64, u64) {
    let (n, arity) = (rel.len(), rel.arity());
    if n == 0 {
        return (0, 0);
    }
    if arity == 0 {
        return (1, n as u64);
    }
    let data = rel.raw();
    let idx = sorted_indices(data, arity, 0, n);
    let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
    let (mut distinct, mut run, mut top) = (1u64, 1u64, 1u64);
    for w in idx.windows(2) {
        if row(w[0]) == row(w[1]) {
            run += 1;
            top = top.max(run);
        } else {
            distinct += 1;
            run = 1;
        }
    }
    (distinct, top)
}

impl RelStats {
    /// Analyses `rel`: one sort-and-count per column, plus one per
    /// multi-column subset when the relation is at most
    /// [`MAX_SUBSET_ARITY`] wide.
    pub fn compute(rel: &Relation) -> Self {
        let arity = rel.arity();
        let columns: Vec<ColumnStats> = (0..arity)
            .map(|c| {
                let (distinct, top_freq) = distinct_and_top(&rel.project(&[c]));
                ColumnStats { distinct, top_freq }
            })
            .collect();
        let mut subsets = Vec::new();
        if arity <= MAX_SUBSET_ARITY {
            subsets = vec![0u64; 1 << arity];
            subsets[0] = 1;
            for mask in 1..subsets.len() {
                subsets[mask] = if mask.is_power_of_two() {
                    columns[mask.trailing_zeros() as usize].distinct
                } else {
                    let cols: Vec<usize> = (0..arity).filter(|&c| mask & (1 << c) != 0).collect();
                    distinct_and_top(&rel.project(&cols)).0
                };
            }
        }
        RelStats {
            rows: rel.len() as u64,
            columns,
            subsets,
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Row count (bag semantics: duplicates count).
    pub fn cardinality(&self) -> u64 {
        self.rows
    }

    /// Per-column statistics, in column order.
    pub fn columns(&self) -> &[ColumnStats] {
        &self.columns
    }

    /// True when the all-subsets table exists, i.e. the relation is at
    /// most [`MAX_SUBSET_ARITY`] wide.
    pub fn has_subsets(&self) -> bool {
        !self.subsets.is_empty()
    }

    /// Distinct count for the column subset `mask`.
    ///
    /// # Panics
    /// Panics if `mask` has bits beyond the arity; without the table
    /// (see [`RelStats::has_subsets`]) every mask is out of range.
    #[inline]
    pub fn distinct(&self, mask: u32) -> u64 {
        assert!((mask as usize) < self.subsets.len(), "mask out of range");
        self.subsets[mask as usize]
    }

    /// Approximate heap footprint in bytes (the engine's statistics
    /// cache budgets by it).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.columns.len() * std::mem::size_of::<ColumnStats>()
            + self.subsets.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_all_subsets() {
        let r = Relation::from_rows(2, [[1u64, 10], [1, 20], [2, 10]].iter());
        let s = RelStats::compute(&r);
        assert_eq!(s.distinct(0b00), 1);
        assert_eq!(s.distinct(0b01), 2); // x ∈ {1, 2}
        assert_eq!(s.distinct(0b10), 2); // y ∈ {10, 20}
        assert_eq!(s.distinct(0b11), 3);
        assert_eq!(s.cardinality(), 3);
    }

    #[test]
    fn duplicates_collapse() {
        let r = Relation::from_rows(1, [[5u64], [5], [5]].iter());
        let s = RelStats::compute(&r);
        assert_eq!(s.distinct(0b1), 1);
    }

    #[test]
    fn column_stats_count_the_bag() {
        let r = Relation::from_rows(2, [[5u64, 1], [5, 2], [5, 2], [6, 3]].iter());
        let s = RelStats::compute(&r);
        let col = |distinct, top_freq| ColumnStats { distinct, top_freq };
        assert_eq!(s.columns(), &[col(2, 3), col(3, 2)]);
        assert_eq!(s.cardinality(), 4, "duplicates count as rows");
        assert_eq!(s.distinct(0b11), 3, "and collapse as tuples");
    }

    #[test]
    fn empty_relation() {
        let s = RelStats::compute(&Relation::new(2));
        assert_eq!(s.distinct(0b11), 0);
        assert_eq!(s.distinct(0), 1);
        assert_eq!(
            s.columns()[0],
            ColumnStats {
                distinct: 0,
                top_freq: 0
            }
        );
    }

    #[test]
    fn wide_relations_keep_column_stats_only() {
        let arity = MAX_SUBSET_ARITY + 1;
        let r = Relation::from_rows(arity, [vec![7u64; arity], vec![8u64; arity]].iter());
        let s = RelStats::compute(&r);
        assert!(!s.has_subsets());
        assert_eq!(s.arity(), arity);
        assert!(s.columns().iter().all(|c| c.distinct == 2));
        assert!(RelStats::compute(&Relation::new(MAX_SUBSET_ARITY)).has_subsets());
    }

    #[test]
    #[should_panic(expected = "mask out of range")]
    fn mask_bounds_checked() {
        let s = RelStats::compute(&Relation::new(2));
        let _ = s.distinct(0b100);
    }
}
