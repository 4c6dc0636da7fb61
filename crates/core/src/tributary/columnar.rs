//! Columnar level-segmented trie — the cache-conscious LFTJ layout.
//!
//! [`TrieIter`](super::TrieIter) walks a *row-major* sorted relation, so
//! every seek at depth `d` strides `arity`-wide rows through memory and
//! every `open`/`next_key` re-searches the end of the current duplicate
//! run. HoneyComb-style multicore WCOJ engines instead materialize the
//! trie *by level*: one contiguous, deduplicated key array per depth plus
//! a CSR-style child-offset array linking each node to its children's
//! range in the next level. The payoff is threefold:
//!
//! * **Contiguity** — a seek at depth `d` scans only `keys[d]`, a dense
//!   `u64` array, instead of touching one value per `arity`-wide row;
//! * **No run-end searches** — duplicates were merged at build time, so
//!   `next_key` is `pos += 1` and `open` is two offset loads;
//! * **Branch-free chunked galloping** — [`lower_bound_gallop`] brackets
//!   with a doubling probe, narrows with branch-free halving, and
//!   finishes with a fixed-width compare-and-count block the
//!   autovectorizer can lift to SIMD (the workspace forbids `unsafe`,
//!   so there are no intrinsics — the shape of the loop is the whole
//!   trick).
//!
//! The trie is built in **one pass** over the already-sorted view: each
//! row contributes new nodes only from its first level of disagreement
//! with the previous row, exactly the classic sorted-array-to-trie scan.
//! [`ColumnarCursor`] implements the same [`TrieCursor`] contract as the
//! row layout, so [`Tributary`](super::Tributary) runs on either; only
//! this layout hands out its remaining keys as one slice
//! ([`TrieCursor::level_keys`]), which the join's leaf kernel intersects
//! directly at the last trie level.

use super::join::{order_columns, TrieAtom};
use super::trie::TrieCursor;
use parjoin_common::{Relation, Value};
use parjoin_query::VarId;
use std::sync::Arc;

/// Fixed width of the final compare-and-count block of
/// [`lower_bound_gallop`]. Small enough to bound the scalar worst case,
/// wide enough that the count loop compiles to a handful of vector
/// compares on any SIMD width the target offers.
const GALLOP_CHUNK: usize = 32;

/// First index `i >= start` with `xs[i] >= v`, or `xs.len()` when every
/// key from `start` on is below `v`. `xs[start..]` must be sorted
/// ascending (trie key arrays are strictly increasing within a parent
/// range, which is the only slice cursors hand in).
///
/// Three phases, none of which branches on data in its inner loop:
///
/// 1. *gallop* — a doubling probe from `start` brackets the answer in
///    `O(log m)` for an answer `m` keys ahead;
/// 2. *branch-free halving* — the bracket shrinks by conditional-move
///    style arithmetic (`lo += (key < v) as usize * half`), no
///    hard-to-predict compare-and-jump;
/// 3. *chunk count* — once the bracket fits `GALLOP_CHUNK`, the answer
///    is `lo` plus the number of keys `< v` in the window, a
///    fixed-shape compare-and-sum the autovectorizer turns into SIMD.
#[inline]
pub fn lower_bound_gallop(xs: &[Value], start: usize, v: Value) -> usize {
    let n = xs.len();
    if start >= n || xs[start] >= v {
        return start.min(n);
    }
    // Gallop: maintain xs[lo] < v, double the step until the probe lands
    // on a key >= v (or runs off the end).
    let mut step = 1usize;
    let mut lo = start;
    let mut cur = start + 1;
    while cur < n && xs[cur] < v {
        lo = cur;
        cur = cur.saturating_add(step).min(n);
        step <<= 1;
    }
    // Answer is in (lo, cur]: xs[lo] < v, and xs[cur] >= v or cur == n.
    let mut base = lo + 1;
    let mut len = cur - base;
    // Branch-free halving. Invariant: answer in [base, base + len].
    // If xs[base+half-1] < v the answer is >= base + half; otherwise it
    // is <= base + half - 1 <= base + (len - half) since 2*half <= len+1.
    while len > GALLOP_CHUNK {
        let half = len / 2;
        base += usize::from(xs[base + half - 1] < v) * half;
        len -= half;
    }
    // Fixed-width compare-and-count: keys below the answer are < v, keys
    // at or after it are >= v, so the count of keys < v in the window is
    // exactly the answer's offset from `base`.
    base + xs[base..base + len]
        .iter()
        .map(|&k| usize::from(k < v))
        .sum::<usize>()
}

/// A relation materialized as a level-segmented columnar trie.
///
/// Level `d` holds the deduplicated keys of trie depth `d` in
/// `keys[d]`, ordered by the (parent-path, key) lexicographic order of
/// the source relation. For `d < arity - 1`, node `i` of level `d` owns
/// children `keys[d + 1][offsets[d][i] .. offsets[d][i + 1]]` — CSR
/// adjacency, one `u32` per node plus a trailing sentinel.
#[derive(Debug, Clone)]
pub struct ColumnarTrie {
    arity: usize,
    /// Distinct rows ingested (the leaf count); what parallelism
    /// thresholds should compare against, since duplicate source rows
    /// merge at build time.
    rows: usize,
    keys: Vec<Vec<Value>>,
    offsets: Vec<Vec<u32>>,
}

impl ColumnarTrie {
    /// Builds the trie in one pass over `rel`, which must be
    /// lexicographically sorted (duplicate rows merge into one leaf).
    ///
    /// # Panics
    /// Panics if `rel` holds `u32::MAX` or more rows (offsets are `u32`
    /// by design — half the adjacency footprint of `usize`), or (debug)
    /// if `rel` is not sorted.
    pub fn build(rel: &Relation) -> ColumnarTrie {
        debug_assert!(rel.is_sorted_lex(), "ColumnarTrie requires sorted input");
        let a = rel.arity();
        assert!(
            (rel.len() as u64) < u64::from(u32::MAX),
            "ColumnarTrie offsets are u32; relation of {} rows is too large",
            rel.len()
        );
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); a];
        let mut offsets: Vec<Vec<u32>> = vec![Vec::new(); a.saturating_sub(1)];
        if a == 0 {
            return ColumnarTrie {
                arity: 0,
                rows: 0,
                keys,
                offsets,
            };
        }
        let mut rows = 0usize;
        for i in 0..rel.len() {
            // First level where this row leaves the previous row's path;
            // everything above it is shared and already materialized.
            let mut start = if i == 0 { 0 } else { a };
            if i > 0 {
                for d in 0..a {
                    if rel.value(i, d) != rel.value(i - 1, d) {
                        start = d;
                        break;
                    }
                }
            }
            if start == a {
                continue; // exact duplicate row
            }
            rows += 1;
            for d in start..a {
                if d + 1 < a {
                    // The new node's children begin where level d+1
                    // currently ends; they are appended right after.
                    offsets[d].push(keys[d + 1].len() as u32);
                }
                keys[d].push(rel.value(i, d));
            }
        }
        // Trailing sentinels close the last node's child range per level.
        for d in 0..a.saturating_sub(1) {
            offsets[d].push(keys[d + 1].len() as u32);
        }
        ColumnarTrie {
            arity: a,
            rows,
            keys,
            offsets,
        }
    }

    /// Number of columns (trie depth).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Distinct rows ingested (leaf count of the trie).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The deduplicated key array of level 0 — ascending distinct values
    /// of the first column, the natural morsel split domain.
    pub fn level0(&self) -> &[Value] {
        self.keys.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Approximate heap footprint in bytes (key arrays + offset arrays),
    /// for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let key_bytes: usize = self
            .keys
            .iter()
            .map(|k| k.len() * std::mem::size_of::<Value>())
            .sum();
        let off_bytes: usize = self
            .offsets
            .iter()
            .map(|o| o.len() * std::mem::size_of::<u32>())
            .sum();
        key_bytes + off_bytes
    }

    /// Structural self-check: per level, offsets are monotone with a
    /// correct sentinel, and keys are strictly increasing within every
    /// parent range. `Ok(())` on a well-formed trie; used by the
    /// engine's `strict-invariants` feature after every build.
    pub fn validate(&self) -> Result<(), String> {
        for d in 0..self.arity.saturating_sub(1) {
            let offs = &self.offsets[d];
            if offs.len() != self.keys[d].len() + 1 {
                return Err(format!(
                    "level {d}: {} offsets for {} nodes",
                    offs.len(),
                    self.keys[d].len()
                ));
            }
            if offs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("level {d}: node with empty child range"));
            }
            if offs.last().copied().unwrap_or(0) as usize != self.keys[d + 1].len() {
                return Err(format!(
                    "level {d}: sentinel does not close level {}",
                    d + 1
                ));
            }
            for w in offs.windows(2) {
                let range = &self.keys[d + 1][w[0] as usize..w[1] as usize];
                if range.windows(2).any(|k| k[0] >= k[1]) {
                    return Err(format!("level {}: keys not strictly increasing", d + 1));
                }
            }
        }
        if let Some(level0) = self.keys.first() {
            if level0.windows(2).any(|k| k[0] >= k[1]) {
                return Err("level 0: keys not strictly increasing".into());
            }
        }
        Ok(())
    }

    /// A cursor at the trie root.
    pub fn cursor(&self) -> ColumnarCursor<'_> {
        let a = self.arity.max(1);
        ColumnarCursor {
            trie: self,
            depth: ROOT,
            range: vec![(0, 0); a],
            pos: vec![0; a],
        }
    }
}

const ROOT: usize = usize::MAX;

/// A [`TrieCursor`] over a [`ColumnarTrie`]: per level, the parent's
/// child range in that level's key array and the current position.
/// `next_key` is a position increment, `open` two offset loads, `seek` a
/// [`lower_bound_gallop`] over the contiguous key array.
#[derive(Debug)]
pub struct ColumnarCursor<'a> {
    trie: &'a ColumnarTrie,
    depth: usize,
    range: Vec<(usize, usize)>,
    pos: Vec<usize>,
}

impl ColumnarCursor<'_> {
    /// Current depth (0-based level), or `None` at the root.
    pub fn depth(&self) -> Option<usize> {
        (self.depth != ROOT).then_some(self.depth)
    }
}

impl TrieCursor for ColumnarCursor<'_> {
    fn open(&mut self) {
        if self.depth == ROOT {
            self.depth = 0;
            self.range[0] = (0, self.trie.keys.first().map(Vec::len).unwrap_or(0));
            self.pos[0] = 0;
        } else {
            let d = self.depth;
            debug_assert!(!self.at_end(), "open() at end");
            debug_assert!(d + 1 < self.trie.arity, "open() past last level");
            let node = self.pos[d];
            let offs = &self.trie.offsets[d];
            let child = (offs[node] as usize, offs[node + 1] as usize);
            self.depth = d + 1;
            self.range[self.depth] = child;
            self.pos[self.depth] = child.0;
        }
    }

    fn up(&mut self) {
        debug_assert_ne!(self.depth, ROOT, "up() at root");
        self.depth = if self.depth == 0 {
            ROOT
        } else {
            self.depth - 1
        };
    }

    fn next_key(&mut self) {
        debug_assert!(!self.at_end(), "next_key() at end");
        // Keys are deduplicated at build time: the next distinct value is
        // simply the next slot — no run-end search exists in this layout.
        self.pos[self.depth] += 1;
    }

    fn seek(&mut self, v: Value) {
        debug_assert!(!self.at_end(), "seek() at end");
        let d = self.depth;
        let hi = self.range[d].1;
        // The slice is capped at the parent range's end, and the search
        // starts at the current position inside it, so every key touched
        // belongs to this parent's strictly-increasing child block.
        self.pos[d] = lower_bound_gallop(&self.trie.keys[d][..hi], self.pos[d], v);
    }

    fn key(&self) -> Value {
        debug_assert!(!self.at_end(), "key() at end");
        self.trie.keys[self.depth][self.pos[self.depth]]
    }

    fn at_end(&self) -> bool {
        debug_assert_ne!(self.depth, ROOT, "at_end() at root");
        self.pos[self.depth] >= self.range[self.depth].1
    }

    fn level_keys(&self) -> Option<&[Value]> {
        debug_assert_ne!(self.depth, ROOT, "level_keys() at root");
        let d = self.depth;
        Some(&self.trie.keys[d][self.pos[d]..self.range[d].1])
    }
}

/// A relation prepared for the Tributary join in columnar trie layout:
/// the counterpart of [`SortedAtom`](super::SortedAtom), holding an
/// [`Arc<ColumnarTrie>`] so an engine-level cache can hand the same
/// prepared trie to many atoms and runs without rebuilding.
#[derive(Debug, Clone)]
pub struct ColumnarAtom {
    trie: Arc<ColumnarTrie>,
    /// Global order positions of the trie levels, strictly increasing.
    depths: Vec<usize>,
}

impl ColumnarAtom {
    /// Prepares `rel` (whose columns correspond one-to-one to `vars`)
    /// for joining under `order`: permute, sort, build the trie.
    ///
    /// # Panics
    /// Panics if some variable of `vars` is absent from `order`, or if
    /// `vars` contains duplicates.
    pub fn prepare(rel: &Relation, vars: &[VarId], order: &[VarId]) -> ColumnarAtom {
        Self::prepare_with(rel, vars, order, |r, cols| {
            Arc::new(ColumnarTrie::build(&r.sorted_by_columns(cols)))
        })
    }

    /// Like [`ColumnarAtom::prepare`], but trie construction is delegated
    /// to `build_trie`, which receives the input relation and the column
    /// permutation and must return the trie of the column-permuted,
    /// lexicographically sorted view. This is the injection point for the
    /// engine's trie cache and parallel sort — the core crate stays free
    /// of caching and scheduling policy, mirroring
    /// [`SortedAtom::prepare_with`](super::SortedAtom::prepare_with).
    ///
    /// # Panics
    /// Panics if some variable of `vars` is absent from `order`, or if
    /// `vars` contains duplicates.
    pub fn prepare_with<F>(
        rel: &Relation,
        vars: &[VarId],
        order: &[VarId],
        build_trie: F,
    ) -> ColumnarAtom
    where
        F: FnOnce(&Relation, &[usize]) -> Arc<ColumnarTrie>,
    {
        assert_eq!(rel.arity(), vars.len(), "one variable per column");
        let (cols, depths) = order_columns(vars, order);
        ColumnarAtom {
            trie: build_trie(rel, &cols),
            depths,
        }
    }

    /// The prepared trie.
    pub fn trie(&self) -> &ColumnarTrie {
        &self.trie
    }

    /// Global depths of the trie levels.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }
}

impl TrieAtom for ColumnarAtom {
    type Cursor<'a> = ColumnarCursor<'a>;

    fn depths(&self) -> &[usize] {
        &self.depths
    }

    fn cursor(&self) -> ColumnarCursor<'_> {
        self.trie.cursor()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SortedAtom, Tributary, TrieIter};
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// The relation of the paper's Figure 2 (column pair from `R`).
    fn figure2_r() -> Relation {
        Relation::from_rows(
            2,
            [[0u64, 1], [2, 0], [2, 3], [2, 5], [3, 4], [4, 2], [5, 6]].iter(),
        )
    }

    fn keys_at_level<C: TrieCursor>(c: &mut C) -> Vec<u64> {
        let mut out = Vec::new();
        while !c.at_end() {
            out.push(c.key());
            c.next_key();
        }
        out
    }

    #[test]
    fn level0_distinct_values() {
        let trie = ColumnarTrie::build(&figure2_r());
        assert!(trie.validate().is_ok());
        let mut c = trie.cursor();
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![0, 2, 3, 4, 5]);
        assert_eq!(trie.level0(), &[0, 2, 3, 4, 5]);
        assert_eq!(trie.rows(), 7);
    }

    #[test]
    fn open_descends_into_child_range() {
        let trie = ColumnarTrie::build(&figure2_r());
        let mut c = trie.cursor();
        c.open();
        c.seek(2);
        assert_eq!(c.key(), 2);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![0, 3, 5]);
        c.up();
        assert_eq!(c.key(), 2);
        c.next_key();
        assert_eq!(c.key(), 3);
    }

    #[test]
    fn seek_lands_on_least_geq() {
        let trie = ColumnarTrie::build(&figure2_r());
        let mut c = trie.cursor();
        c.open();
        c.seek(1);
        assert_eq!(c.key(), 2);
        c.seek(2); // no-op
        assert_eq!(c.key(), 2);
        c.seek(6);
        assert!(c.at_end());
    }

    #[test]
    fn duplicates_merge_at_build() {
        let mut r = Relation::from_rows(2, [[1u64, 1]; 10].iter().chain([[2u64, 9]; 3].iter()));
        r.sort_lex();
        let trie = ColumnarTrie::build(&r);
        assert_eq!(trie.rows(), 2);
        let mut c = trie.cursor();
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![1, 2]);
    }

    #[test]
    fn empty_and_nullary_relations() {
        let trie = ColumnarTrie::build(&Relation::new(2));
        assert_eq!(trie.rows(), 0);
        assert!(trie.validate().is_ok());
        let mut c = trie.cursor();
        c.open();
        assert!(c.at_end());
        let nullary = ColumnarTrie::build(&Relation::new(0));
        assert_eq!(nullary.arity(), 0);
        assert!(nullary.validate().is_ok());
    }

    #[test]
    fn up_restores_parent_cursor() {
        let trie = ColumnarTrie::build(&figure2_r());
        let mut c = trie.cursor();
        c.open();
        c.seek(2);
        c.open();
        c.seek(5);
        assert_eq!(c.key(), 5);
        c.up();
        assert_eq!(c.key(), 2);
        c.open();
        assert_eq!(c.key(), 0);
    }

    #[test]
    fn lower_bound_gallop_matches_reference() {
        let xs: Vec<Value> = (0..1000u64).map(|i| i * 3).collect();
        for start in [0usize, 1, 7, 500, 999, 1000] {
            for v in [0u64, 1, 2, 3, 1000, 1499, 1500, 2997, 2998, 5000] {
                let want = start
                    + xs[start.min(xs.len())..]
                        .iter()
                        .take_while(|&&k| k < v)
                        .count();
                assert_eq!(
                    lower_bound_gallop(&xs, start, v),
                    want,
                    "start={start} v={v}"
                );
            }
        }
        // Degenerate inputs.
        assert_eq!(lower_bound_gallop(&[], 0, 5), 0);
        assert_eq!(lower_bound_gallop(&[1, 2, 3], 5, 0), 3);
        assert_eq!(lower_bound_gallop(&[7], 0, u64::MAX), 1);
        assert_eq!(lower_bound_gallop(&[u64::MAX], 0, u64::MAX), 0);
    }

    #[test]
    fn cursor_matches_trieiter_on_figure2() {
        // Walk both layouts through the same open/seek/next script.
        let r = figure2_r();
        let trie = ColumnarTrie::build(&r);
        let mut col = trie.cursor();
        let mut row = TrieIter::new(&r);
        col.open();
        row.open();
        for target in [0u64, 1, 2, 3, 4, 5, 6] {
            let mut c2 = trie.cursor();
            let mut r2 = TrieIter::new(&r);
            c2.open();
            r2.open();
            c2.seek(target);
            r2.seek(target);
            assert_eq!(c2.at_end(), r2.at_end(), "seek({target})");
            if !c2.at_end() {
                assert_eq!(c2.key(), r2.key(), "seek({target})");
            }
        }
    }

    #[test]
    fn triangle_join_equals_row_layout() {
        let edges = Relation::from_rows(
            2,
            [[0u64, 1], [1, 2], [2, 0], [1, 3], [3, 2], [0, 2], [2, 1]].iter(),
        );
        let order = [v(0), v(1), v(2)];
        let row_atoms = vec![
            SortedAtom::prepare(&edges, &[v(0), v(1)], &order),
            SortedAtom::prepare(&edges, &[v(1), v(2)], &order),
            SortedAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let col_atoms = vec![
            ColumnarAtom::prepare(&edges, &[v(0), v(1)], &order),
            ColumnarAtom::prepare(&edges, &[v(1), v(2)], &order),
            ColumnarAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let row_tj = Tributary::new(&row_atoms, &order, &[], 3);
        let col_tj = Tributary::new(&col_atoms, &order, &[], 3);
        let mut row_out = Vec::new();
        row_tj.run(|a| {
            row_out.push(a.to_vec());
            true
        });
        let mut col_out = Vec::new();
        col_tj.run(|a| {
            col_out.push(a.to_vec());
            true
        });
        assert!(!row_out.is_empty());
        assert_eq!(row_out, col_out, "emission order must match exactly");
    }

    #[test]
    fn run_range_pieces_concatenate_like_row_layout() {
        let edges = Relation::from_rows(
            2,
            [
                [0u64, 1],
                [1, 2],
                [2, 0],
                [1, 3],
                [3, 2],
                [0, 2],
                [2, 1],
                [3, 0],
                [2, 3],
            ]
            .iter(),
        );
        let order = [v(0), v(1), v(2)];
        let atoms = vec![
            ColumnarAtom::prepare(&edges, &[v(0), v(1)], &order),
            ColumnarAtom::prepare(&edges, &[v(1), v(2)], &order),
            ColumnarAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let tj = Tributary::new(&atoms, &order, &[], 3);
        let mut full = Vec::new();
        tj.run(|a| {
            full.push(a.to_vec());
            true
        });
        assert!(!full.is_empty());
        for bounds in [vec![0], vec![0, 2], vec![0, 1, 2, 3], vec![0, 3, 100]] {
            let mut pieced = Vec::new();
            for (i, &lo) in bounds.iter().enumerate() {
                let hi = bounds.get(i + 1).copied();
                tj.run_range(lo, hi, |a| {
                    pieced.push(a.to_vec());
                    true
                });
            }
            assert_eq!(pieced, full, "split {bounds:?}");
        }
    }

    #[test]
    fn column_permutation_applies() {
        // vars (y, x) under order (x, y): level 0 must iterate x.
        let r = Relation::from_rows(2, [[10u64, 1], [20, 2]].iter());
        let atom = ColumnarAtom::prepare(&r, &[v(1), v(0)], &[v(0), v(1)]);
        let mut c = atom.cursor();
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![1, 2]);
        assert_eq!(atom.depths(), &[0, 1]);
    }

    #[test]
    fn gallop_long_jump() {
        let rows: Vec<[u64; 1]> = (0..10_000u64).map(|i| [i * 2]).collect();
        let r = Relation::from_rows(1, rows.iter());
        let trie = ColumnarTrie::build(&r);
        let mut c = trie.cursor();
        c.open();
        c.seek(9999);
        assert_eq!(c.key(), 10_000);
        c.seek(19_998);
        assert_eq!(c.key(), 19_998);
        c.next_key();
        assert!(c.at_end());
    }

    #[test]
    fn approx_bytes_tracks_levels() {
        let trie = ColumnarTrie::build(&figure2_r());
        // 5 level-0 keys + 7 level-1 keys, 8 bytes each; 6 offsets, 4 each.
        assert_eq!(trie.approx_bytes(), (5 + 7) * 8 + 6 * 4);
    }
}
