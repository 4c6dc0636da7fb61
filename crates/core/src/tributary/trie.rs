//! Trie iteration over a lexicographically sorted relation.
//!
//! A sorted relation *is* a trie: the distinct values of column 0 are the
//! children of the root; within the run of rows sharing a column-0 value,
//! the distinct values of column 1 are that node's children; and so on.
//! The iterator maintains, per depth, the row range of the current parent
//! node and a cursor to the first row of the current value's run.
//!
//! Navigation uses *galloping* (exponential) search from the current
//! cursor position: a doubling probe brackets the target, then a binary
//! search inside the bracket pins it down. A seek that moves the cursor
//! `m` rows forward therefore costs `O(log m)` — amortized over a full
//! leapfrog pass this yields the `O(n log(N/n))` intersection bound of
//! the paper's LFTJ-API discussion, instead of `O(n log N)` for
//! full-range binary search. In addition, the end of the current value
//! run (`run_end`) is memoized per level, because both `open()` and
//! `next_key()` need it for the same run and would otherwise re-search.

use parjoin_common::{Relation, Value};

/// The Leapfrog-Triejoin cursor API (Veldhuizen \[33\]): positional
/// navigation over a relation viewed as a trie whose level `d` holds the
/// distinct values of attribute `d` within the current prefix.
///
/// Implemented by [`TrieIter`] over sorted arrays (the paper's Tributary
/// join) and by
/// [`BTreeAtom`](crate::tributary::BTreeAtom)'s cursor over nested
/// ordered maps (LogicBlox's original representation), so the two can be
/// compared head-to-head.
pub trait TrieCursor {
    /// Descends into the children of the current value (or opens the
    /// first level from the root).
    fn open(&mut self);
    /// Returns to the parent level, restoring its cursor.
    fn up(&mut self);
    /// Advances to the next distinct value at the current level.
    fn next_key(&mut self);
    /// Positions at the least value `≥ v` at the current level.
    fn seek(&mut self, v: Value);
    /// The value under the cursor.
    fn key(&self) -> Value;
    /// True when the current level is exhausted.
    fn at_end(&self) -> bool;
    /// The distinct keys left at the current level, from the cursor's
    /// position to the end of the parent's child range, ascending — or
    /// `None` when the layout does not store a level as one contiguous
    /// key array (row layouts hold runs of duplicates, not distinct
    /// keys). [`Tributary`](crate::tributary::Tributary) intersects
    /// these slices directly at the last trie level.
    fn level_keys(&self) -> Option<&[Value]> {
        None
    }
}

/// A positional iterator over the trie view of a sorted relation.
#[derive(Debug)]
pub struct TrieIter<'a> {
    rel: &'a Relation,
    /// Current depth; `usize::MAX` encodes "at root, no column open".
    depth: usize,
    /// `range[d]` = row bounds of the parent group at depth `d`.
    range: Vec<(usize, usize)>,
    /// `pos[d]` = first row of the current value's run at depth `d`.
    pos: Vec<usize>,
    /// Memoized `run_end`: `run_cache[d] = (pos, end)` records that the
    /// run starting at row `pos` on level `d` ends at row `end`. A cursor
    /// never revisits a row at a level with a different parent range (row
    /// ranges of distinct parent prefixes are disjoint), so keying by
    /// `pos` alone is sound. `NO_RUN` marks an empty slot.
    run_cache: Vec<(usize, usize)>,
}

const ROOT: usize = usize::MAX;
/// Sentinel `pos` for an unfilled [`TrieIter::run_cache`] slot.
const NO_RUN: usize = usize::MAX;

impl<'a> TrieIter<'a> {
    /// Creates an iterator at the root of `rel`'s trie.
    ///
    /// # Panics
    /// Panics (debug) if the relation is not lexicographically sorted.
    pub fn new(rel: &'a Relation) -> Self {
        debug_assert!(rel.is_sorted_lex(), "TrieIter requires sorted input");
        let a = rel.arity();
        TrieIter {
            rel,
            depth: ROOT,
            range: vec![(0, 0); a],
            pos: vec![0; a],
            run_cache: vec![(NO_RUN, 0); a],
        }
    }

    /// Current depth (0-based column), or `None` at the root.
    pub fn depth(&self) -> Option<usize> {
        (self.depth != ROOT).then_some(self.depth)
    }

    /// True when the cursor has exhausted the current level.
    #[inline]
    pub fn at_end(&self) -> bool {
        debug_assert_ne!(self.depth, ROOT, "at_end at root");
        self.pos[self.depth] >= self.range[self.depth].1
    }

    /// The value under the cursor.
    ///
    /// # Panics
    /// Panics (debug) if at end or at root.
    #[inline]
    pub fn key(&self) -> Value {
        debug_assert!(!self.at_end(), "key() at end");
        self.rel.value(self.pos[self.depth], self.depth)
    }

    /// Descends into the children of the current value (or, from the root,
    /// opens column 0 over the whole relation). The cursor lands on the
    /// first child value; the level may be empty only for an empty
    /// relation at the root.
    pub fn open(&mut self) {
        if self.depth == ROOT {
            self.depth = 0;
            self.range[0] = (0, self.rel.len());
            self.pos[0] = 0;
        } else {
            let d = self.depth;
            debug_assert!(!self.at_end(), "open() at end");
            let child = (self.pos[d], self.run_end(d));
            self.depth = d + 1;
            debug_assert!(self.depth < self.rel.arity(), "open() past last column");
            self.range[self.depth] = child;
            self.pos[self.depth] = child.0;
        }
    }

    /// Returns to the parent level, restoring its cursor.
    pub fn up(&mut self) {
        debug_assert_ne!(self.depth, ROOT, "up() at root");
        self.depth = if self.depth == 0 {
            ROOT
        } else {
            self.depth - 1
        };
    }

    /// Advances to the next distinct value at the current level.
    pub fn next_key(&mut self) {
        debug_assert!(!self.at_end(), "next_key() at end");
        let d = self.depth;
        self.pos[d] = self.run_end(d);
    }

    /// Positions the cursor at the least value `≥ v` at the current level
    /// (no-op when already there); may hit the end.
    pub fn seek(&mut self, v: Value) {
        debug_assert!(!self.at_end(), "seek() at end");
        let d = self.depth;
        if self.key() >= v {
            return;
        }
        let (lo, hi) = (self.pos[d], self.range[d].1);
        self.pos[d] = lo + self.partition(lo, hi, d, v);
    }

    /// First row index within `(pos, range.1)` whose column-`d` value
    /// exceeds the current key — i.e. the end of the current run.
    ///
    /// Memoized per level: `open()` and `next_key()` both need the end of
    /// the same run, so the second lookup is a cache hit.
    fn run_end(&mut self, d: usize) -> usize {
        let (lo, hi) = (self.pos[d], self.range[d].1);
        if self.run_cache[d].0 == lo {
            return self.run_cache[d].1;
        }
        let cur = self.key();
        let end = match cur.checked_add(1) {
            Some(next) => lo + self.partition(lo, hi, d, next),
            // Value is u64::MAX: the run necessarily extends to the end.
            None => hi,
        };
        self.run_cache[d] = (lo, end);
        end
    }

    /// Galloping search: number of rows in `[lo, hi)` with column-`d`
    /// value `< v`. A doubling probe from `lo` brackets the first row
    /// `≥ v`, then a binary search inside the bracket pins it down —
    /// `O(log m)` for an answer `m` rows past `lo`.
    fn partition(&self, lo: usize, hi: usize, d: usize, v: Value) -> usize {
        // Gallop to bracket the answer, then binary search.
        let mut step = 1usize;
        let mut cur = lo;
        while cur < hi && self.rel.value(cur, d) < v {
            cur = cur.saturating_add(step).min(hi);
            step <<= 1;
        }
        let search_lo = if cur == lo {
            lo
        } else {
            cur - (step >> 1).min(cur - lo)
        };
        let mut a = search_lo;
        let mut b = cur;
        while a < b {
            let mid = a + (b - a) / 2;
            if self.rel.value(mid, d) < v {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        a - lo
    }
}

impl TrieCursor for TrieIter<'_> {
    #[inline]
    fn open(&mut self) {
        TrieIter::open(self);
    }
    #[inline]
    fn up(&mut self) {
        TrieIter::up(self);
    }
    #[inline]
    fn next_key(&mut self) {
        TrieIter::next_key(self);
    }
    #[inline]
    fn seek(&mut self, v: Value) {
        TrieIter::seek(self, v);
    }
    #[inline]
    fn key(&self) -> Value {
        TrieIter::key(self)
    }
    #[inline]
    fn at_end(&self) -> bool {
        TrieIter::at_end(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The relation of the paper's Figure 2 (column pair from `R`).
    fn figure2_r() -> Relation {
        Relation::from_rows(
            2,
            [[0u64, 1], [2, 0], [2, 3], [2, 5], [3, 4], [4, 2], [5, 6]].iter(),
        )
    }

    fn keys_at_level(it: &mut TrieIter<'_>) -> Vec<u64> {
        let mut out = Vec::new();
        while !it.at_end() {
            out.push(it.key());
            it.next_key();
        }
        out
    }

    #[test]
    fn level0_distinct_values() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        it.open();
        assert_eq!(keys_at_level(&mut it), vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn open_descends_into_run() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        it.open();
        it.seek(2);
        assert_eq!(it.key(), 2);
        it.open();
        assert_eq!(keys_at_level(&mut it), vec![0, 3, 5]);
        it.up();
        assert_eq!(it.key(), 2);
        it.next_key();
        assert_eq!(it.key(), 3);
    }

    #[test]
    fn seek_lands_on_least_geq() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        it.open();
        it.seek(1);
        assert_eq!(it.key(), 2);
        it.seek(2); // no-op
        assert_eq!(it.key(), 2);
        it.seek(6);
        assert!(it.at_end());
    }

    #[test]
    fn seek_to_exact_value() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        it.open();
        it.seek(4);
        assert_eq!(it.key(), 4);
    }

    #[test]
    fn empty_relation_open() {
        let r = Relation::new(2);
        let mut it = TrieIter::new(&r);
        it.open();
        assert!(it.at_end());
    }

    #[test]
    fn up_restores_parent_cursor() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        it.open();
        it.seek(2);
        it.open();
        it.seek(5);
        assert_eq!(it.key(), 5);
        it.up();
        assert_eq!(it.key(), 2);
        // Re-descend: child level starts at its first value again.
        it.open();
        assert_eq!(it.key(), 0);
    }

    #[test]
    fn depth_tracking() {
        let r = figure2_r();
        let mut it = TrieIter::new(&r);
        assert_eq!(it.depth(), None);
        it.open();
        assert_eq!(it.depth(), Some(0));
        it.open();
        assert_eq!(it.depth(), Some(1));
        it.up();
        it.up();
        assert_eq!(it.depth(), None);
    }

    #[test]
    fn duplicate_heavy_runs() {
        let r = Relation::from_rows(2, [[1u64, 1]; 10].iter().chain([[2u64, 9]; 3].iter()));
        let mut r2 = r.clone();
        r2.sort_lex();
        let mut it = TrieIter::new(&r2);
        it.open();
        assert_eq!(keys_at_level(&mut it), vec![1, 2]);
    }

    #[test]
    fn gallop_long_jump() {
        // 10k rows; seek far ahead must land exactly.
        let rows: Vec<[u64; 1]> = (0..10_000u64).map(|i| [i * 2]).collect();
        let r = Relation::from_rows(1, rows.iter());
        let mut it = TrieIter::new(&r);
        it.open();
        it.seek(9999);
        assert_eq!(it.key(), 10_000); // least even ≥ 9999
        it.seek(19_998);
        assert_eq!(it.key(), 19_998);
        it.next_key();
        assert!(it.at_end());
    }
}
