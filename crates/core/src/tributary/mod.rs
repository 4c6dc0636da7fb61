//! Tributary join — the Leapfrog Triejoin API over sorted arrays (§2.2).
//!
//! LogicBlox's LFTJ assumes relations preprocessed into B-trees. In a
//! parallel setting the relation fragments only exist *after* the shuffle,
//! so preprocessing is impossible; the Tributary join instead sorts each
//! fragment and implements the same iterator API over sorted arrays, with
//! `seek` as a binary search bounded to the current trie range — at most a
//! `log n` factor from LFTJ, hence still worst-case optimal up to `log n`.
//!
//! Pipeline:
//!
//! 1. fix a global variable order `A₁ ≺ A₂ ≺ … ≺ Aₖ` (see
//!    [`crate::order`] for choosing a good one);
//! 2. [`prepare`](SortedAtom::prepare) each relation: permute its columns
//!    to follow the order, sort lexicographically (the dominating cost —
//!    Table 5 of the paper);
//! 3. [`Tributary::run`]: recurse over the variables, leapfrog-intersecting
//!    the trie iterators of the atoms containing each variable.

mod btree;
mod columnar;
mod join;
mod trie;

pub use btree::{BTreeAtom, BTreeCursor};
pub use columnar::{lower_bound_gallop, ColumnarAtom, ColumnarCursor, ColumnarTrie, RankDirectory};
pub use join::{order_columns, ProbeCounts, SortedAtom, Tributary, TrieAtom};
pub use trie::{TrieCursor, TrieIter};
