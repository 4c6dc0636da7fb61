//! Per-worker local join operators: binary hash join, binary sort-merge
//! join, and hash semijoin. These run inside worker tasks; the engine
//! times them to produce per-worker busy times.

use parjoin_common::sort::sorted_indices;
use parjoin_common::{hash, Relation, Value};
use parjoin_query::{Filter, VarId};
use std::time::{Duration, Instant};

/// A relation whose columns are bound to query variables — the unit local
/// operators work on.
#[derive(Debug, Clone)]
pub struct SchemaRel {
    /// One variable per column.
    pub vars: Vec<VarId>,
    /// The data.
    pub rel: Relation,
}

impl SchemaRel {
    /// Column index of `v`, if bound.
    pub fn col_of(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// True when every variable of `f` is bound by this schema.
    pub fn covers_filter(&self, f: &Filter) -> bool {
        f.vars().iter().all(|v| self.col_of(*v).is_some())
    }

    /// Applies the given filters (all of which must be covered).
    pub fn filter(&self, filters: &[Filter]) -> SchemaRel {
        if filters.is_empty() {
            return self.clone();
        }
        SchemaRel {
            vars: self.vars.clone(),
            rel: self.rel.filter(row_filter(&self.vars, filters)),
        }
    }

    /// Projects onto `keep` variables (all must be bound).
    pub fn project(&self, keep: &[VarId]) -> SchemaRel {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| self.col_of(v).expect("projection var bound")) // xtask: allow(expect): analyzer-verified binding
            .collect();
        SchemaRel {
            vars: keep.to_vec(),
            rel: self.rel.project(&cols),
        }
    }
}

/// `filters` (all over `vars`) as one row predicate, with every
/// variable resolved to its column once.
pub(crate) fn row_filter(vars: &[VarId], filters: &[Filter]) -> impl Fn(&[Value]) -> bool {
    let col_of = |v: VarId| vars.iter().position(|&x| x == v);
    let lookups: Vec<(usize, parjoin_query::CmpOp, Operand2)> = filters
        .iter()
        .map(|f| {
            let l = col_of(f.left).expect("filter var bound"); // xtask: allow(expect): analyzer-verified binding
            let r = match f.right {
                parjoin_query::Operand::Var(v) => {
                    // xtask: allow(expect): analyzer-verified binding
                    Operand2::Col(col_of(v).expect("filter var bound"))
                }
                parjoin_query::Operand::Const(c) => Operand2::Const(c),
            };
            (l, f.op, r)
        })
        .collect();
    move |row: &[Value]| {
        lookups.iter().all(|&(l, op, r)| {
            let rv = match r {
                Operand2::Col(c) => row[c],
                Operand2::Const(c) => c,
            };
            op.eval(row[l], rv)
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Operand2 {
    Col(usize),
    Const(Value),
}

/// An open-chaining hash table over composite `u64` keys, allocation-free
/// per row (head/next index chains into flat buffers).
pub struct JoinTable {
    key_arity: usize,
    keys: Vec<Value>,
    rows: Vec<u32>,
    heads: Vec<i64>,
    next: Vec<i64>,
    mask: usize,
    seed: u64,
}

impl JoinTable {
    /// Builds a table over `rel`'s `key_cols` values.
    pub fn build(rel: &Relation, key_cols: &[usize], seed: u64) -> Self {
        let n = rel.len();
        let cap = (2 * n).next_power_of_two().max(16);
        let mut t = JoinTable {
            key_arity: key_cols.len(),
            keys: Vec::with_capacity(n * key_cols.len()),
            rows: Vec::with_capacity(n),
            heads: vec![-1; cap],
            next: Vec::with_capacity(n),
            mask: cap - 1,
            seed,
        };
        for (i, row) in rel.rows().enumerate() {
            let mut acc = t.seed;
            for &c in key_cols {
                acc = hash::hash64(row[c], acc);
                t.keys.push(row[c]);
            }
            let slot = (acc as usize) & t.mask;
            t.next.push(t.heads[slot]);
            t.heads[slot] = i as i64;
            t.rows.push(i as u32);
        }
        t
    }

    /// Iterates the row indices whose key equals `key`.
    pub fn probe<'a>(&'a self, key: &'a [Value]) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(key.len(), self.key_arity);
        let mut acc = self.seed;
        for &v in key {
            acc = hash::hash64(v, acc);
        }
        let mut cur = self.heads[(acc as usize) & self.mask];
        std::iter::from_fn(move || {
            while cur >= 0 {
                let e = cur as usize;
                cur = self.next[e];
                let stored = &self.keys[e * self.key_arity..(e + 1) * self.key_arity];
                if stored == key {
                    return Some(self.rows[e] as usize);
                }
            }
            None
        })
    }

    /// True when some row matches `key`.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.probe(key).next().is_some()
    }

    /// [`JoinTable::probe`] specialized to single-column keys (the common
    /// Q1–Q8 case): the key is one `u64`, so the chain walk compares a
    /// scalar instead of a slice and the caller skips building a key
    /// buffer per probe row.
    ///
    /// # Panics
    /// Panics (debug) if the table's key arity is not 1.
    #[inline]
    pub fn probe1(&self, key: Value) -> impl Iterator<Item = usize> + '_ {
        debug_assert_eq!(self.key_arity, 1, "probe1 needs key arity 1");
        let mut cur = self.heads[(hash::hash64(key, self.seed) as usize) & self.mask];
        std::iter::from_fn(move || {
            while cur >= 0 {
                let e = cur as usize;
                cur = self.next[e];
                if self.keys[e] == key {
                    return Some(self.rows[e] as usize);
                }
            }
            None
        })
    }

    /// [`JoinTable::contains`] for single-column keys.
    ///
    /// # Panics
    /// Panics (debug) if the table's key arity is not 1.
    #[inline]
    pub fn contains1(&self, key: Value) -> bool {
        self.probe1(key).next().is_some()
    }
}

/// The join variables two schemas share.
pub fn shared_vars(a: &SchemaRel, b: &SchemaRel) -> Vec<VarId> {
    a.vars
        .iter()
        .copied()
        .filter(|v| b.col_of(*v).is_some())
        .collect()
}

fn output_schema(a: &SchemaRel, b: &SchemaRel) -> (Vec<VarId>, Vec<usize>) {
    // Output vars: a's vars then b's vars not already bound; also return
    // the b-columns to append.
    let mut vars = a.vars.clone();
    let mut b_cols = Vec::new();
    for (c, &v) in b.vars.iter().enumerate() {
        if a.col_of(v).is_none() {
            vars.push(v);
            b_cols.push(c);
        }
    }
    (vars, b_cols)
}

/// What a binary hash join fixes before its first probe row: which side
/// builds, the key columns, the output schema, and the table over the
/// build side's rows. It borrows neither side, so a join whose probe side
/// arrives in batches ([`crate::pipeline`]) keeps it and probes each
/// batch as it comes.
pub(crate) struct BuiltJoin {
    build_is_a: bool,
    probe_cols: Vec<usize>,
    /// Output vars: a's vars then b-only vars.
    pub vars: Vec<VarId>,
    b_only_cols: Vec<usize>,
    table: JoinTable,
}

impl BuiltJoin {
    /// Plans the join of `a` and `b` with `a` building when `build_is_a`
    /// (`b` otherwise), and builds the table over the build side's rows;
    /// the probe side's rows are not read.
    pub fn new(a: &SchemaRel, b: &SchemaRel, build_is_a: bool, seed: u64) -> Self {
        let on = shared_vars(a, b);
        let (build, probe) = if build_is_a { (a, b) } else { (b, a) };
        let build_cols: Vec<usize> = on
            .iter()
            .map(|&v| build.col_of(v).expect("shared")) // xtask: allow(expect): analyzer-verified binding
            .collect();
        let probe_cols: Vec<usize> = on
            .iter()
            .map(|&v| probe.col_of(v).expect("shared")) // xtask: allow(expect): analyzer-verified binding
            .collect();
        let table = JoinTable::build(&build.rel, &build_cols, seed);
        let (vars, b_only_cols) = output_schema(a, b);
        BuiltJoin {
            build_is_a,
            probe_cols,
            vars,
            b_only_cols,
            table,
        }
    }

    /// Columns of an output row (at least one).
    pub fn out_arity(&self) -> usize {
        self.vars.len().max(1)
    }

    /// Probes rows `[lo, hi)` of `probe` against the table built over
    /// `build`, appending matches to `out` in probe-row order, and hands
    /// `out` to `flush` after every probe row that leaves it holding
    /// `chunk` rows or more; `flush` is expected to take them. Whatever
    /// is left in `out` at the end is the caller's. Concatenating the
    /// outputs of consecutive row ranges — or of consecutive pieces of
    /// the probe side — is byte-identical to one pass over the whole,
    /// and cutting the output into pieces changes neither its rows nor
    /// their order.
    ///
    /// # Errors
    /// Whatever `flush` returns; probing stops there.
    pub fn probe_chunked<E>(
        &self,
        build: &Relation,
        probe: &Relation,
        (lo, hi): (usize, usize),
        out: &mut Relation,
        chunk: usize,
        flush: &mut dyn FnMut(&mut Relation) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut row_buf: Vec<Value> = Vec::with_capacity(self.vars.len());
        let mut emit = |prow: &[Value], bidx: usize, out: &mut Relation| {
            let brow = build.row(bidx);
            let (arow, brow2) = if self.build_is_a {
                (brow, prow)
            } else {
                (prow, brow)
            };
            row_buf.clear();
            row_buf.extend_from_slice(arow);
            row_buf.extend(self.b_only_cols.iter().map(|&c| brow2[c]));
            out.push_row(&row_buf);
        };
        if let [pc] = self.probe_cols[..] {
            // Single-key fast path: scalar probe, no key buffer.
            for p in lo..hi {
                let prow = probe.row(p);
                for bidx in self.table.probe1(prow[pc]) {
                    emit(prow, bidx, out);
                }
                if out.len() >= chunk {
                    flush(out)?;
                }
            }
        } else {
            let mut key = Vec::with_capacity(self.probe_cols.len());
            for p in lo..hi {
                let prow = probe.row(p);
                key.clear();
                key.extend(self.probe_cols.iter().map(|&c| prow[c]));
                for bidx in self.table.probe(&key) {
                    emit(prow, bidx, out);
                }
                if out.len() >= chunk {
                    flush(out)?;
                }
            }
        }
        Ok(())
    }
}

/// A binary hash join over two borrowed sides, planned the way every
/// hash join here is: the smaller side builds. Splitting this out of
/// [`hash_join`] lets the morsel-parallel probe layer ([`crate::probe`])
/// build once and probe disjoint row ranges from many threads —
/// `JoinTable` is all flat `Vec`s, so sharing it read-only across scoped
/// threads is free.
pub(crate) struct HashJoinShape<'a> {
    build: &'a SchemaRel,
    probe: &'a SchemaRel,
    /// The built table and the output schema.
    pub join: BuiltJoin,
}

impl<'a> HashJoinShape<'a> {
    /// Plans the join (smaller side builds) and builds the hash table.
    pub fn new(a: &'a SchemaRel, b: &'a SchemaRel, seed: u64) -> Self {
        let build_is_a = a.rel.len() <= b.rel.len();
        let (build, probe) = if build_is_a { (a, b) } else { (b, a) };
        HashJoinShape {
            build,
            probe,
            join: BuiltJoin::new(a, b, build_is_a, seed),
        }
    }

    /// Rows on the probe side.
    pub fn probe_len(&self) -> usize {
        self.probe.rel.len()
    }

    /// Probes rows `[lo, hi)` of the probe side, emitting matches in
    /// probe-row order. Concatenating the outputs of a partition of
    /// `[0, probe_len)` in range order is byte-identical to one full
    /// probe pass — the morsel determinism invariant.
    pub fn probe_range(&self, lo: usize, hi: usize) -> Relation {
        let mut out = Relation::new(self.out_arity());
        let no_flush = &mut |_: &mut Relation| Ok::<(), std::convert::Infallible>(());
        let Ok(()) = self.probe_chunked(lo, hi, &mut out, usize::MAX, no_flush);
        out
    }

    /// Columns of an output row (at least one).
    pub fn out_arity(&self) -> usize {
        self.join.out_arity()
    }

    /// [`BuiltJoin::probe_chunked`] over rows `[lo, hi)` of the probe
    /// side.
    ///
    /// # Errors
    /// Whatever `flush` returns; probing stops there.
    pub fn probe_chunked<E>(
        &self,
        lo: usize,
        hi: usize,
        out: &mut Relation,
        chunk: usize,
        flush: &mut dyn FnMut(&mut Relation) -> Result<(), E>,
    ) -> Result<(), E> {
        let (build, probe) = (&self.build.rel, &self.probe.rel);
        (self.join).probe_chunked(build, probe, (lo, hi), out, chunk, flush)
    }
}

/// Binary hash join (the paper's symmetric-hash-join stand-in: we build
/// on the smaller input and probe with the larger, which produces the
/// same output and the same asymptotic CPU work as pulling both sides
/// round-robin into two tables).
///
/// Join keys are the shared variables; with no shared variable this is a
/// cartesian product (allowed, used by selection-only atoms of Q3/Q7).
pub fn hash_join(a: &SchemaRel, b: &SchemaRel, seed: u64) -> SchemaRel {
    let shape = HashJoinShape::new(a, b, seed);
    let rel = shape.probe_range(0, shape.probe_len());
    SchemaRel {
        vars: shape.join.vars,
        rel,
    }
}

/// Binary sort-merge join: sorts both inputs by the shared variables and
/// merges. This is what "Tributary join with regular shuffle" degenerates
/// to — "a binary Tributary join, which is a merge-join" (§3).
///
/// Returns the result, the number of tuples materialized in sort buffers
/// (for memory accounting: both inputs are copied and sorted), and the
/// time spent sorting — the prep component of `RS_TJ`'s prep-vs-probe
/// breakdown (paper Table 5 reports "both sorts: 5%" for `RS_TJ`).
pub fn merge_join(a: &SchemaRel, b: &SchemaRel, _seed: u64) -> (SchemaRel, u64, Duration) {
    let on = shared_vars(a, b);
    if on.is_empty() {
        // Degenerate to a cartesian product via hash join with empty key.
        return (hash_join(a, b, 0), 0, Duration::ZERO);
    }
    let a_cols: Vec<usize> = on.iter().map(|&v| a.col_of(v).expect("shared")).collect(); // xtask: allow(expect): analyzer-verified binding
    let b_cols: Vec<usize> = on.iter().map(|&v| b.col_of(v).expect("shared")).collect(); // xtask: allow(expect): analyzer-verified binding

    // Index-sort both sides with the radix kernels of `common::sort`:
    // project the key columns into a contiguous row-major buffer (radix
    // needs key-major layout) and sort its index array. The kernels are
    // stable, so equal-key runs keep input row order — a determinism
    // upgrade over the old unstable comparator closure.
    let t_sort = Instant::now();
    let pa = a.rel.project(&a_cols);
    let ia = sorted_indices(pa.raw(), pa.arity(), 0, pa.len());
    let pb = b.rel.project(&b_cols);
    let ib = sorted_indices(pb.raw(), pb.arity(), 0, pb.len());
    let sort_time = t_sort.elapsed();
    let sort_buffer_tuples = (a.rel.len() + b.rel.len()) as u64;

    let key_of = |r: &Relation, cols: &[usize], i: u32| -> Vec<Value> {
        cols.iter().map(|&c| r.row(i as usize)[c]).collect()
    };

    let (vars, b_only_cols) = output_schema(a, b);
    let mut out = Relation::new(vars.len().max(1));
    let mut row_buf: Vec<Value> = Vec::with_capacity(vars.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ia.len() && j < ib.len() {
        let ka = key_of(&a.rel, &a_cols, ia[i]);
        let kb = key_of(&b.rel, &b_cols, ib[j]);
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Extent of equal-key runs on both sides.
                let mut ie = i;
                while ie < ia.len() && key_of(&a.rel, &a_cols, ia[ie]) == ka {
                    ie += 1;
                }
                let mut je = j;
                while je < ib.len() && key_of(&b.rel, &b_cols, ib[je]) == kb {
                    je += 1;
                }
                for &xa in &ia[i..ie] {
                    let arow = a.rel.row(xa as usize);
                    for &yb in &ib[j..je] {
                        let brow = b.rel.row(yb as usize);
                        row_buf.clear();
                        row_buf.extend_from_slice(arow);
                        row_buf.extend(b_only_cols.iter().map(|&c| brow[c]));
                        out.push_row(&row_buf);
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    (SchemaRel { vars, rel: out }, sort_buffer_tuples, sort_time)
}

/// The fixed state of a hash semijoin `a ⋉ b`: key columns on the `a`
/// side and the membership table over `b`. `None` when the schemas share
/// no variable (the caller handles that degenerate case). Like
/// [`HashJoinShape`], this exists so [`crate::probe`] can build once and
/// filter disjoint `a`-row ranges concurrently.
pub(crate) struct SemijoinShape {
    a_cols: Vec<usize>,
    table: JoinTable,
}

impl SemijoinShape {
    /// Plans the semijoin and builds the membership table over `b`.
    pub fn new(a: &SchemaRel, b: &SchemaRel, seed: u64) -> Option<Self> {
        let on = shared_vars(a, b);
        if on.is_empty() {
            return None;
        }
        let b_cols: Vec<usize> = on.iter().map(|&v| b.col_of(v).expect("shared")).collect(); // xtask: allow(expect): analyzer-verified binding
        let a_cols: Vec<usize> = on.iter().map(|&v| a.col_of(v).expect("shared")).collect(); // xtask: allow(expect): analyzer-verified binding
        Some(SemijoinShape {
            a_cols,
            table: JoinTable::build(&b.rel, &b_cols, seed),
        })
    }

    /// Keeps the matching rows of `a[lo..hi]`, in input row order —
    /// concatenating a partition of `[0, a.len)` in range order equals
    /// one full pass.
    pub fn filter_range(&self, a: &SchemaRel, lo: usize, hi: usize) -> Relation {
        let mut out = Relation::new(a.rel.arity().max(1));
        if let [ac] = self.a_cols[..] {
            for i in lo..hi {
                let row = a.rel.row(i);
                if self.table.contains1(row[ac]) {
                    out.push_row(row);
                }
            }
        } else {
            let mut key = Vec::with_capacity(self.a_cols.len());
            for i in lo..hi {
                let row = a.rel.row(i);
                key.clear();
                key.extend(self.a_cols.iter().map(|&c| row[c]));
                if self.table.contains(&key) {
                    out.push_row(row);
                }
            }
        }
        out
    }
}

/// Hash semijoin `a ⋉ b` on their shared variables: keeps the `a` rows
/// with at least one match in `b`.
pub fn semijoin(a: &SchemaRel, b: &SchemaRel, seed: u64) -> SchemaRel {
    let Some(shape) = SemijoinShape::new(a, b, seed) else {
        return if b.rel.is_empty() {
            SchemaRel {
                vars: a.vars.clone(),
                rel: Relation::new(a.vars.len().max(1)),
            }
        } else {
            a.clone()
        };
    };
    SchemaRel {
        vars: a.vars.clone(),
        rel: shape.filter_range(a, 0, a.rel.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_query::CmpOp;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn sr(vars: &[u32], rows: &[&[u64]]) -> SchemaRel {
        let mut rel = Relation::new(vars.len());
        for r in rows {
            rel.push_row(r);
        }
        SchemaRel {
            vars: vars.iter().map(|&i| v(i)).collect(),
            rel,
        }
    }

    fn sorted_rows(s: &SchemaRel) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = s.rel.rows().map(|r| r.to_vec()).collect();
        out.sort();
        out
    }

    #[test]
    fn hash_join_basic() {
        let a = sr(&[0, 1], &[&[1, 10], &[2, 20], &[3, 10]]);
        let b = sr(&[1, 2], &[&[10, 7], &[10, 8], &[30, 9]]);
        let j = hash_join(&a, &b, 5);
        assert_eq!(j.vars, vec![v(0), v(1), v(2)]);
        assert_eq!(
            sorted_rows(&j),
            vec![
                vec![1, 10, 7],
                vec![1, 10, 8],
                vec![3, 10, 7],
                vec![3, 10, 8]
            ]
        );
    }

    #[test]
    fn hash_join_build_side_invariance() {
        let a = sr(&[0, 1], &[&[1, 10], &[2, 20]]);
        let b = sr(&[1, 2], &[&[10, 7], &[20, 8], &[20, 9], &[5, 5]]);
        let ab = hash_join(&a, &b, 1);
        // Force the other build side by making `a` the bigger input.
        let mut big_a = a.clone();
        for _ in 0..5 {
            big_a.rel.push_row(&[99, 99]);
        }
        let ab2 = hash_join(&big_a, &b, 1);
        // The common results must coincide (the 99s join nothing).
        assert_eq!(sorted_rows(&ab), sorted_rows(&ab2));
    }

    #[test]
    fn hash_join_multi_key() {
        let a = sr(&[0, 1], &[&[1, 2], &[1, 3]]);
        let b = sr(&[0, 1, 2], &[&[1, 2, 77], &[1, 9, 88]]);
        let j = hash_join(&a, &b, 2);
        assert_eq!(sorted_rows(&j), vec![vec![1, 2, 77]]);
        assert_eq!(j.vars, vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn hash_join_cartesian_when_disjoint() {
        let a = sr(&[0], &[&[1], &[2]]);
        let b = sr(&[1], &[&[7], &[8]]);
        let j = hash_join(&a, &b, 3);
        assert_eq!(j.rel.len(), 4);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let a = sr(&[0, 1], &[&[3, 10], &[1, 10], &[2, 20], &[9, 30]]);
        let b = sr(&[1, 2], &[&[20, 1], &[10, 7], &[10, 8], &[40, 2]]);
        let h = hash_join(&a, &b, 4);
        let (m, sorted, _) = merge_join(&a, &b, 4);
        assert_eq!(sorted_rows(&h), sorted_rows(&m));
        assert_eq!(sorted, 8);
    }

    #[test]
    fn merge_join_duplicate_keys_cross_product() {
        let a = sr(&[0, 1], &[&[1, 5], &[2, 5]]);
        let b = sr(&[1, 2], &[&[5, 8], &[5, 9]]);
        let (m, _, _) = merge_join(&a, &b, 0);
        assert_eq!(m.rel.len(), 4);
    }

    #[test]
    fn semijoin_keeps_matching() {
        let a = sr(&[0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let b = sr(&[1], &[&[10], &[30]]);
        let s = semijoin(&a, &b, 6);
        assert_eq!(sorted_rows(&s), vec![vec![1, 10], vec![3, 30]]);
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let a = sr(&[0], &[&[1]]);
        let b_empty = sr(&[1], &[]);
        assert!(semijoin(&a, &b_empty, 0).rel.is_empty());
        let b_full = sr(&[1], &[&[9]]);
        assert_eq!(semijoin(&a, &b_full, 0).rel.len(), 1);
    }

    #[test]
    fn filter_and_project() {
        let a = sr(&[0, 1], &[&[1, 10], &[20, 2]]);
        let f = Filter {
            left: v(0),
            op: CmpOp::Lt,
            right: parjoin_query::Operand::Var(v(1)),
        };
        let out = a.filter(&[f]);
        assert_eq!(out.rel.len(), 1);
        let p = out.project(&[v(1)]);
        assert_eq!(p.vars, vec![v(1)]);
        assert_eq!(p.rel.row(0), &[10]);
    }

    #[test]
    fn join_table_probe_exact() {
        let r = Relation::from_rows(2, [[1u64, 2], [1, 3], [4, 2]].iter());
        let t = JoinTable::build(&r, &[0], 9);
        let hits: Vec<usize> = t.probe(&[1]).collect();
        assert_eq!(hits.len(), 2);
        assert!(t.contains(&[4]));
        assert!(!t.contains(&[9]));
    }

    #[test]
    fn probe1_matches_generic_probe() {
        let r = Relation::from_rows(2, [[1u64, 2], [1, 3], [4, 2], [7, 7]].iter());
        let t = JoinTable::build(&r, &[0], 9);
        for k in 0..10u64 {
            let fast: Vec<usize> = t.probe1(k).collect();
            let slow: Vec<usize> = t.probe(&[k]).collect();
            assert_eq!(fast, slow, "key {k}");
            assert_eq!(t.contains1(k), t.contains(&[k]), "key {k}");
        }
    }

    #[test]
    fn hash_join_range_probe_concatenates() {
        let a = sr(&[0, 1], &[&[1, 10], &[2, 20], &[3, 10], &[4, 20]]);
        let b = sr(&[1, 2], &[&[10, 7], &[20, 8], &[10, 9]]);
        let full = hash_join(&a, &b, 5);
        let shape = HashJoinShape::new(&a, &b, 5);
        let n = shape.probe_len();
        for split in 0..=n {
            let mut out = shape.probe_range(0, split);
            out.extend_from(&shape.probe_range(split, n));
            assert_eq!(out.raw(), full.rel.raw(), "split at {split}");
        }
    }

    #[test]
    fn join_table_empty() {
        let r = Relation::new(1);
        let t = JoinTable::build(&r, &[0], 1);
        assert!(!t.contains(&[5]));
    }

    #[test]
    fn covers_filter_checks_schema() {
        let a = sr(&[0, 1], &[]);
        let f = Filter {
            left: v(0),
            op: CmpOp::Lt,
            right: parjoin_query::Operand::Var(v(2)),
        };
        assert!(!a.covers_filter(&f));
        let g = Filter {
            left: v(0),
            op: CmpOp::Lt,
            right: parjoin_query::Operand::Const(5),
        };
        assert!(a.covers_filter(&g));
    }
}
