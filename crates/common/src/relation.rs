//! Flat, row-major relation storage.
//!
//! A [`Relation`] stores `len × arity` values contiguously. Row-major flat
//! storage keeps scans and lexicographic sorts cache-friendly and lets the
//! Tributary join operate on plain `&[u64]` windows — the paper's point
//! that "sorting on the fly is cheaper than computing a B-tree on the fly"
//! (§2.2) only holds when the sort itself touches contiguous memory.

use crate::Value;
use std::fmt;

/// A fixed-arity multiset of tuples over `u64` values.
///
/// Arity 0 is allowed: a *nullary* relation (the result shape of a
/// boolean query) stores no values, only a row count — `true` with
/// multiplicity. All row accessors hand out empty slices for it.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    /// Row count. For `arity > 0` this always equals
    /// `data.len() / arity`; for nullary relations it is the only record
    /// of the multiset's size.
    rows: usize,
    data: Vec<Value>,
}

impl Relation {
    /// Creates an empty relation with the given arity (0 is allowed —
    /// see the type-level docs on nullary relations).
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// Creates an empty relation with room for `rows` tuples.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Relation {
            arity,
            rows: 0,
            data: Vec::with_capacity(rows * arity),
        }
    }

    /// Builds a relation from an iterator of rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows<R, I>(arity: usize, rows: I) -> Self
    where
        R: AsRef<[Value]>,
        I: IntoIterator<Item = R>,
    {
        let mut rel = Relation::new(arity);
        for row in rows {
            rel.push_row(row.as_ref());
        }
        rel
    }

    /// Builds a relation directly from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `arity == 0` (nullary relations carry no buffer — use
    /// [`Relation::push_nullary_rows`]) or `data.len()` is not a multiple
    /// of `arity`.
    pub fn from_flat(arity: usize, data: Vec<Value>) -> Self {
        assert!(arity > 0, "from_flat requires a positive arity");
        assert_eq!(data.len() % arity, 0, "buffer length not a row multiple");
        Relation {
            arity,
            rows: data.len() / arity,
            data,
        }
    }

    /// 128-bit content fingerprint over arity, row count, and every value
    /// (order-sensitive). Two relations with equal fingerprints hold the
    /// same bytes up to a 2⁻¹²⁸-ish collision chance — strong enough to
    /// key the engine's sorted-view cache.
    pub fn fingerprint(&self) -> u128 {
        crate::hash::fingerprint128(self.arity as u64, self.rows as u64, &self.data)
    }

    /// Number of attributes per tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()` (except for nullary relations, whose
    /// every row is the empty slice).
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Appends one tuple.
    ///
    /// # Panics
    /// Panics if `row.len() != self.arity()`.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends `n` nullary (empty) tuples.
    ///
    /// # Panics
    /// Panics if the relation is not nullary.
    pub fn push_nullary_rows(&mut self, n: usize) {
        assert_eq!(self.arity, 0, "push_nullary_rows on a non-nullary relation");
        self.rows += n;
    }

    /// Appends `rows` rows decoded from row-major little-endian `u64`
    /// words — the wire format's fixed-width payload — without an
    /// intermediate row buffer.
    ///
    /// # Panics
    /// Panics if the relation is nullary or `bytes.len()` is not exactly
    /// `rows × arity × 8`.
    pub fn push_rows_le_bytes(&mut self, rows: usize, bytes: &[u8]) {
        assert!(self.arity > 0, "push_rows_le_bytes on a nullary relation");
        assert_eq!(
            bytes.len(),
            rows * self.arity * 8,
            "payload is not rows × arity words"
        );
        let start = self.data.len();
        self.data.resize(start + rows * self.arity, 0);
        let (words, _) = bytes.as_chunks::<8>();
        for (slot, &word) in self.data[start..].iter_mut().zip(words) {
            *slot = Value::from_le_bytes(word);
        }
        self.rows += rows;
    }

    /// Appends whole rows given flat, `arity` values per row.
    ///
    /// # Panics
    /// Panics if the relation is nullary or `flat` is not a whole number
    /// of rows.
    pub fn extend_flat(&mut self, flat: &[Value]) {
        assert!(self.arity > 0, "extend_flat on a nullary relation");
        assert_eq!(flat.len() % self.arity, 0, "flat rows of another arity");
        self.data.extend_from_slice(flat);
        self.rows += flat.len() / self.arity;
    }

    /// Removes every tuple, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Appends every tuple of `other`.
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn extend_from(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "arity mismatch in extend");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Iterates over rows as slices.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            chunks: self.data.chunks_exact(self.arity.max(1)),
            nullary_left: if self.arity == 0 { self.rows } else { 0 },
        }
    }

    /// Direct access to the backing buffer (row-major).
    #[inline]
    pub fn raw(&self) -> &[Value] {
        &self.data
    }

    /// Reads the value at `(row, col)` without slicing the whole row.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.data[row * self.arity + col]
    }

    /// Sorts tuples lexicographically in place.
    ///
    /// Sorts row indices then permutes — one allocation, each row moved
    /// exactly once — dispatching between the LSD radix kernel and the
    /// comparator kernel by size (see [`crate::sort`]).
    pub fn sort_lex(&mut self) {
        let arity = self.arity;
        if arity == 0 || self.len() <= 1 {
            return;
        }
        let idx = crate::sort::sorted_indices(&self.data, arity, 0, self.len());
        self.data = crate::sort::gather(&self.data, arity, &idx);
    }

    /// Returns a new relation whose columns are `cols` (projection with
    /// reordering), with rows sorted lexicographically.
    ///
    /// This is the preprocessing step of the Tributary join: given the
    /// global variable order, each input relation is permuted so its
    /// columns follow that order, then sorted (paper §2.2).
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn sorted_by_columns(&self, cols: &[usize]) -> Relation {
        let mut out = self.project(cols);
        out.sort_lex();
        out
    }

    /// Projects onto the given columns (duplicates retained, bag semantics).
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn project(&self, cols: &[usize]) -> Relation {
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "projection column out of range"
        );
        let n = self.len();
        let k = cols.len();
        // Projecting onto zero columns yields a nullary relation that
        // keeps the row count (bag semantics): each input tuple
        // contributes one empty witness.
        if k == 0 {
            let mut out = Relation::new(0);
            out.rows = n;
            return out;
        }
        // The identity permutation is a plain copy of the buffer.
        if k == self.arity && cols.iter().enumerate().all(|(i, &c)| i == c) {
            return self.clone();
        }
        // One up-front allocation written by index: the per-value
        // push/capacity-check path showed up in prepare profiles.
        let mut data = vec![0 as Value; n * k];
        for (r, row) in self.rows().enumerate() {
            let out_row = &mut data[r * k..(r + 1) * k];
            for (dst, &c) in out_row.iter_mut().zip(cols) {
                *dst = row[c];
            }
        }
        Relation {
            arity: k,
            rows: n,
            data,
        }
    }

    /// Removes duplicate tuples (sorts first); result is sorted.
    pub fn distinct(mut self) -> Relation {
        self.sort_lex();
        let arity = self.arity;
        let n = self.len();
        if arity == 0 {
            // All nullary tuples are equal; at most one survives.
            self.rows = n.min(1);
            return self;
        }
        if n <= 1 {
            return self;
        }
        let mut out = Vec::with_capacity(self.data.len());
        out.extend_from_slice(&self.data[..arity]);
        for i in 1..n {
            let prev = &self.data[(i - 1) * arity..i * arity];
            let cur = &self.data[i * arity..(i + 1) * arity];
            if cur != prev {
                out.extend_from_slice(cur);
            }
        }
        let rows = out.len() / arity;
        Relation {
            arity,
            rows,
            data: out,
        }
    }

    /// Keeps only rows satisfying `pred`.
    pub fn filter<F: FnMut(&[Value]) -> bool>(&self, mut pred: F) -> Relation {
        let mut out = Relation::new(self.arity);
        for row in self.rows() {
            if pred(row) {
                out.push_row(row);
            }
        }
        out
    }

    /// True when rows are in non-decreasing lexicographic order.
    pub fn is_sorted_lex(&self) -> bool {
        let mut prev: Option<&[Value]> = None;
        for row in self.rows() {
            if let Some(p) = prev {
                if p > row {
                    return false;
                }
            }
            prev = Some(row);
        }
        true
    }

    /// Approximate heap footprint in bytes (used by the engine's memory
    /// budget, which reproduces the paper's Q4 `RS_TJ` out-of-memory FAIL).
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Value>()
    }
}

/// Iterator over a relation's rows as value slices.
///
/// For positive arities this is a thin wrapper over
/// [`slice::chunks_exact`]; for nullary relations it yields the empty
/// slice once per stored row.
#[derive(Clone)]
pub struct Rows<'a> {
    chunks: std::slice::ChunksExact<'a, Value>,
    nullary_left: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.nullary_left > 0 {
            self.nullary_left -= 1;
            return Some(&[]);
        }
        self.chunks.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.chunks.len() + self.nullary_left;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation(arity={}, len={})", self.arity, self.len())?;
        for (i, row) in self.rows().enumerate() {
            if i >= 20 {
                writeln!(f, "  … {} more rows", self.len() - 20)?;
                break;
            }
            writeln!(f, "  {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rows: &[[u64; 2]]) -> Relation {
        Relation::from_rows(2, rows.iter())
    }

    #[test]
    fn push_and_read() {
        let rel = r(&[[1, 2], [3, 4]]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.arity(), 2);
        assert_eq!(rel.row(0), &[1, 2]);
        assert_eq!(rel.row(1), &[3, 4]);
        assert_eq!(rel.value(1, 0), 3);
    }

    #[test]
    fn nullary_relation_round_trips() {
        // Boolean-query shape: zero columns, real multiplicity.
        let mut rel = Relation::new(0);
        assert!(rel.is_empty());
        rel.push_row(&[]);
        rel.push_nullary_rows(2);
        assert_eq!(rel.arity(), 0);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.rows().len(), 3);
        for row in rel.rows() {
            assert!(row.is_empty());
        }
        // Sorting and distinct behave as on any multiset of equal rows.
        rel.sort_lex();
        assert_eq!(rel.len(), 3);
        let d = rel.clone().distinct();
        assert_eq!(d.len(), 1);
        // Extend keeps counting.
        let mut other = Relation::new(0);
        other.extend_from(&rel);
        assert_eq!(other.len(), 3);
    }

    #[test]
    fn project_to_zero_columns_keeps_row_count() {
        let rel = r(&[[1, 2], [3, 4], [5, 6]]);
        let p = rel.project(&[]);
        assert_eq!(p.arity(), 0);
        assert_eq!(p.len(), 3, "bag semantics: one empty witness per row");
    }

    #[test]
    fn sort_lex_orders_rows() {
        let mut rel = r(&[[2, 1], [1, 9], [2, 0], [1, 3]]);
        rel.sort_lex();
        let rows: Vec<_> = rel.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 3], vec![1, 9], vec![2, 0], vec![2, 1]]);
        assert!(rel.is_sorted_lex());
    }

    #[test]
    fn sort_empty_and_single() {
        let mut e = Relation::new(3);
        e.sort_lex();
        assert!(e.is_empty());
        let mut s = Relation::from_rows(3, [[5u64, 4, 3]].iter());
        s.sort_lex();
        assert_eq!(s.row(0), &[5, 4, 3]);
    }

    #[test]
    fn project_reorders_columns() {
        let rel = r(&[[1, 2], [3, 4]]);
        let p = rel.project(&[1, 0]);
        assert_eq!(p.row(0), &[2, 1]);
        assert_eq!(p.row(1), &[4, 3]);
    }

    #[test]
    fn project_can_duplicate_columns() {
        let rel = r(&[[7, 8]]);
        let p = rel.project(&[0, 0, 1]);
        assert_eq!(p.row(0), &[7, 7, 8]);
    }

    #[test]
    fn sorted_by_columns_matches_manual() {
        let rel = r(&[[3, 1], [1, 2], [3, 0]]);
        let s = rel.sorted_by_columns(&[1, 0]);
        let rows: Vec<_> = s.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![0, 3], vec![1, 3], vec![2, 1]]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let rel = r(&[[1, 1], [2, 2], [1, 1], [1, 1]]);
        let d = rel.distinct();
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(0), &[1, 1]);
        assert_eq!(d.row(1), &[2, 2]);
    }

    #[test]
    fn distinct_on_empty() {
        let d = Relation::new(2).distinct();
        assert!(d.is_empty());
    }

    #[test]
    fn filter_keeps_matching() {
        let rel = r(&[[1, 2], [3, 4], [5, 6]]);
        let f = rel.filter(|row| row[0] >= 3);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(0), &[3, 4]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = r(&[[1, 1]]);
        let b = r(&[[2, 2], [3, 3]]);
        a.extend_from(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(2), &[3, 3]);
    }

    #[test]
    fn from_flat_round_trips() {
        let rel = Relation::from_flat(2, vec![1, 2, 3, 4]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(1), &[3, 4]);
    }

    #[test]
    fn project_identity_is_copy() {
        let rel = r(&[[1, 2], [3, 4]]);
        let p = rel.project(&[0, 1]);
        assert_eq!(p.raw(), rel.raw());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = r(&[[1, 2], [3, 4]]);
        let b = r(&[[1, 2], [3, 4]]);
        let c = r(&[[1, 2], [3, 5]]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same values, different shape → different fingerprint.
        let flat = Relation::from_flat(4, vec![1, 2, 3, 4]);
        assert_ne!(a.fingerprint(), flat.fingerprint());
    }

    #[test]
    fn rows_iterator_is_exact_size() {
        let rel = r(&[[1, 2], [3, 4]]);
        let it = rel.rows();
        assert_eq!(it.len(), 2);
    }
}
