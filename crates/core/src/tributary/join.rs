//! The multiway Tributary join executor.

use super::btree::{BTreeAtom, BTreeCursor};
use super::columnar::lower_bound_gallop;
use super::trie::{TrieCursor, TrieIter};
use parjoin_common::{Relation, Value};
use parjoin_query::{Filter, VarId};
use std::sync::Arc;

/// Maps an atom's per-column variables onto trie levels under the global
/// variable order: returns `(cols, depths)` where `cols[k]` is the input
/// column whose values populate trie level `k` and `depths[k]` is that
/// level's position in `order` (strictly increasing by construction).
///
/// This is the one level-boundary computation shared by every atom
/// preparation path — [`SortedAtom`], [`BTreeAtom`](super::BTreeAtom),
/// and [`ColumnarAtom`](super::ColumnarAtom) all permute their columns
/// through it.
///
/// # Panics
/// Panics if some variable of `vars` is absent from `order`, or if
/// `vars` contains duplicates.
pub fn order_columns(vars: &[VarId], order: &[VarId]) -> (Vec<usize>, Vec<usize>) {
    let mut pairs: Vec<(usize, usize)> = vars
        .iter()
        .enumerate()
        .map(|(col, v)| {
            let depth = order
                .iter()
                .position(|o| o == v)
                .unwrap_or_else(|| panic!("variable #{} not in global order", v.0)); // xtask: allow(panic)
            (depth, col)
        })
        .collect();
    pairs.sort_unstable();
    for w in pairs.windows(2) {
        assert_ne!(w[0].0, w[1].0, "duplicate variable in atom");
    }
    (
        pairs.iter().map(|&(_, c)| c).collect(),
        pairs.iter().map(|&(d, _)| d).collect(),
    )
}

/// A relation prepared for leapfrog joining: a trie whose levels map to
/// global-order depths, served through a [`TrieCursor`]. Implemented by
/// the paper's array-backed [`SortedAtom`], the columnar level-segmented
/// [`ColumnarAtom`](super::ColumnarAtom), and the B-tree-backed
/// [`BTreeAtom`](super::BTreeAtom) (LogicBlox's layout) for comparison.
pub trait TrieAtom {
    /// The cursor type borrowed from this atom.
    type Cursor<'a>: TrieCursor
    where
        Self: 'a;
    /// Global depths of the trie levels (strictly increasing).
    fn depths(&self) -> &[usize];
    /// Opens a cursor at the root.
    fn cursor(&self) -> Self::Cursor<'_>;
}

/// A relation prepared for the Tributary join: columns permuted to follow
/// the global variable order and rows sorted lexicographically.
///
/// Preparation is the sort phase the paper measures separately (Table 5:
/// "BR_TJ: all sorts … 73%" of local-join time). The sorted view is held
/// behind an [`Arc`] so an engine-level cache can hand the same view to
/// many atoms/runs without copying (see [`SortedAtom::prepare_with`]).
#[derive(Debug, Clone)]
pub struct SortedAtom {
    rel: Arc<Relation>,
    /// Global order positions of the (permuted) columns, strictly
    /// increasing.
    depths: Vec<usize>,
}

impl SortedAtom {
    /// Prepares `rel` (whose columns correspond one-to-one to `vars`) for
    /// joining under `order`.
    ///
    /// # Panics
    /// Panics if some variable of `vars` is absent from `order`, or if
    /// `vars` contains duplicates.
    pub fn prepare(rel: &Relation, vars: &[VarId], order: &[VarId]) -> SortedAtom {
        Self::prepare_with(rel, vars, order, |r, cols| {
            Arc::new(r.sorted_by_columns(cols))
        })
    }

    /// Like [`SortedAtom::prepare`], but the actual sort is delegated to
    /// `sort_view`, which receives the input relation and the column
    /// permutation and must return the column-permuted, lexicographically
    /// sorted view. This is the injection point for the engine's sorted-
    /// view cache and intra-worker parallel sort — the core crate stays
    /// free of any scheduling or caching policy.
    ///
    /// # Panics
    /// Panics if some variable of `vars` is absent from `order`, or if
    /// `vars` contains duplicates.
    pub fn prepare_with<F>(
        rel: &Relation,
        vars: &[VarId],
        order: &[VarId],
        sort_view: F,
    ) -> SortedAtom
    where
        F: FnOnce(&Relation, &[usize]) -> Arc<Relation>,
    {
        assert_eq!(rel.arity(), vars.len(), "one variable per column");
        let (cols, depths) = order_columns(vars, order);
        SortedAtom {
            rel: sort_view(rel, &cols),
            depths,
        }
    }

    /// The sorted, permuted relation.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Global depths of the columns.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }
}

impl TrieAtom for SortedAtom {
    type Cursor<'a> = TrieIter<'a>;

    fn depths(&self) -> &[usize] {
        &self.depths
    }

    fn cursor(&self) -> TrieIter<'_> {
        TrieIter::new(&self.rel)
    }
}

impl TrieAtom for BTreeAtom {
    type Cursor<'a> = BTreeCursor<'a>;

    fn depths(&self) -> &[usize] {
        BTreeAtom::depths(self)
    }

    fn cursor(&self) -> BTreeCursor<'_> {
        BTreeAtom::cursor(self)
    }
}

/// Per-trie-level work of Tributary runs: `steps[d]` counts loop
/// iterations of the intersection that ran at depth `d`, `seeks[d]` the
/// seeks (gallops) it issued there. A run tallies into plain integers of
/// its own; callers merge the tallies of a probe's morsels once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Intersection loop iterations per depth.
    pub steps: Vec<u64>,
    /// Seek (gallop) calls per depth.
    pub seeks: Vec<u64>,
}

impl ProbeCounts {
    /// Zero tallies for `depths` trie levels.
    fn new(depths: usize) -> ProbeCounts {
        ProbeCounts {
            steps: vec![0; depths],
            seeks: vec![0; depths],
        }
    }

    /// Adds `other`'s tallies level by level; both must come from the
    /// same join (one morsel's run each).
    pub fn merge(&mut self, other: &ProbeCounts) {
        let steps = self.steps.iter_mut().zip(&other.steps);
        for (mine, theirs) in steps.chain(self.seeks.iter_mut().zip(&other.seeks)) {
            *mine += theirs;
        }
    }
}

/// A configured Tributary join over prepared atoms.
///
/// ```
/// use parjoin_common::Relation;
/// use parjoin_core::tributary::{SortedAtom, Tributary};
/// use parjoin_query::VarId;
///
/// // Triangle query R(x,y), S(y,z), T(z,x) over one directed 3-cycle
/// // plus two extra edges that close no cycle.
/// let edges = Relation::from_rows(2, [
///     [0u64, 1], [1, 2], [2, 0], [2, 3], [3, 0],
/// ].iter());
/// let (x, y, z) = (VarId(0), VarId(1), VarId(2));
/// let order = [x, y, z];
/// let atoms = vec![
///     SortedAtom::prepare(&edges, &[x, y], &order),
///     SortedAtom::prepare(&edges, &[y, z], &order),
///     SortedAtom::prepare(&edges, &[z, x], &order),
/// ];
/// let tj = Tributary::new(&atoms, &order, &[], 3);
/// // The cycle 0→1→2→0 is found under all three rotations of (x,y,z).
/// assert_eq!(tj.count(), 3);
/// ```
pub struct Tributary<'a, A: TrieAtom = SortedAtom> {
    atoms: &'a [A],
    /// Variable at each global depth.
    order: &'a [VarId],
    /// Residual filters; `filters_at[d]` lists filters that become fully
    /// bound exactly at depth `d`.
    filters_at: Vec<Vec<Filter>>,
    /// Size of the variable-indexed assignment buffer.
    num_vars: usize,
    /// Atoms participating at each depth.
    participants: Vec<Vec<usize>>,
}

impl<'a, A: TrieAtom> Tributary<'a, A> {
    /// Builds the join. `num_vars` sizes the assignment buffer (it must
    /// exceed every `VarId` index used by atoms or filters).
    ///
    /// # Panics
    /// Panics if some depth has no participating atom, or a filter
    /// references a variable outside `order`.
    pub fn new(atoms: &'a [A], order: &'a [VarId], filters: &[Filter], num_vars: usize) -> Self {
        let mut participants = vec![Vec::new(); order.len()];
        for (ai, a) in atoms.iter().enumerate() {
            for &d in a.depths() {
                participants[d].push(ai);
            }
        }
        for (d, p) in participants.iter().enumerate() {
            assert!(!p.is_empty(), "no atom contains variable at depth {d}");
        }
        let depth_of = |v: VarId| -> usize {
            order
                .iter()
                .position(|&o| o == v)
                // xtask: allow(panic)
                .unwrap_or_else(|| panic!("filter variable #{} not in order", v.0))
        };
        let mut filters_at = vec![Vec::new(); order.len()];
        for f in filters {
            let d = f
                .vars()
                .into_iter()
                .map(depth_of)
                .max()
                // A comparison filter references at least one variable
                // by construction of the query AST. xtask: allow(expect)
                .expect("filter has vars");
            filters_at[d].push(*f);
        }
        Tributary {
            atoms,
            order,
            filters_at,
            num_vars,
            participants,
        }
    }

    /// Runs the join, invoking `emit` with the variable-indexed assignment
    /// (`assignment[v.index()]`) for every result. Returning `false` from
    /// `emit` aborts the join early. Returns the number of results emitted.
    pub fn run<F: FnMut(&[Value]) -> bool>(&self, emit: F) -> u64 {
        self.run_guarded(emit, || true).0
    }

    /// Runs the join restricted to first-order-variable values in
    /// `[lo, hi)` (`hi = None` means unbounded above).
    ///
    /// This is the morsel entry point for intra-worker parallel probing:
    /// the depth-0 leapfrog enumerates values in ascending order, so for
    /// any split `0 = b_0 < b_1 < … < b_k` the concatenation of
    /// `run_range(b_i, Some(b_{i+1}), …)` outputs in morsel order is
    /// *byte-identical* to a single [`Self::run`]. Morsels are
    /// independent: `run` takes `&self`, so one `Tributary` can serve
    /// many morsel threads, each with its own cursors.
    pub fn run_range<F: FnMut(&[Value]) -> bool>(
        &self,
        lo: Value,
        hi: Option<Value>,
        emit: F,
    ) -> u64 {
        self.run_range_counted(lo, hi, emit).0
    }

    /// Like [`Self::run`], but additionally consults `guard` every few
    /// thousand leapfrog operations — including during long result-free
    /// stretches, which is where bad variable orders burn their time.
    /// Returning `false` from `guard` aborts. Returns `(results_emitted,
    /// completed)`; `completed` is `false` when either closure aborted.
    ///
    /// This is the mechanism behind the paper's Figure 12/Table 7
    /// protocol of terminating hopeless variable orders at a time cutoff.
    pub fn run_guarded<F, G>(&self, emit: F, guard: G) -> (u64, bool)
    where
        F: FnMut(&[Value]) -> bool,
        G: FnMut() -> bool,
    {
        let (count, completed, _) = self.run_inner(0, None, emit, guard);
        (count, completed)
    }

    /// [`Self::run_range`] that also returns the run's per-level work
    /// (see [`ProbeCounts`]).
    pub fn run_range_counted<F: FnMut(&[Value]) -> bool>(
        &self,
        lo: Value,
        hi: Option<Value>,
        emit: F,
    ) -> (u64, ProbeCounts) {
        let (count, _, counts) = self.run_inner(lo, hi, emit, || true);
        (count, counts)
    }

    /// The one body behind every run entry point.
    fn run_inner<F, G>(
        &self,
        lo: Value,
        hi: Option<Value>,
        emit: F,
        guard: G,
    ) -> (u64, bool, ProbeCounts)
    where
        F: FnMut(&[Value]) -> bool,
        G: FnMut() -> bool,
    {
        let mut ctx = RunCtx {
            emit,
            guard,
            count: 0,
            ops: 0,
            lo,
            hi,
            counts: ProbeCounts::new(self.order.len()),
        };
        if self.order.is_empty() {
            return (0, true, ctx.counts);
        }
        let mut iters: Vec<A::Cursor<'_>> = self.atoms.iter().map(|a| a.cursor()).collect();
        let mut assignment = vec![0 as Value; self.num_vars];
        let completed = self.recurse(0, &mut iters, &mut assignment, &mut ctx);
        (ctx.count, completed, ctx.counts)
    }

    /// Counts results without materializing them.
    pub fn count(&self) -> u64 {
        self.run(|_| true)
    }

    /// Runs the join and materializes the projection onto `head`.
    pub fn collect(&self, head: &[VarId]) -> Relation {
        let mut out = Relation::new(head.len().max(1));
        let mut row = Vec::with_capacity(head.len());
        self.run(|asg| {
            row.clear();
            row.extend(head.iter().map(|v| asg[v.index()]));
            out.push_row(&row);
            true
        });
        out
    }

    /// Depth-`d` intersection over the participating iterators: the
    /// two-way leaf kernel ([`Self::leaf_pair`]) at the last depth when
    /// both participants hand out their key slices, the cursor leapfrog
    /// otherwise. Returns `false` to propagate early termination.
    fn recurse<F, G>(
        &self,
        d: usize,
        iters: &mut [A::Cursor<'_>],
        assignment: &mut [Value],
        ctx: &mut RunCtx<F, G>,
    ) -> bool
    where
        F: FnMut(&[Value]) -> bool,
        G: FnMut() -> bool,
    {
        let parts = &self.participants[d];
        for &a in parts {
            iters[a].open();
        }
        if d == 0 && ctx.lo > 0 {
            // Morsel lower bound: fast-forward every depth-0 cursor past
            // values below the range before the leapfrog starts.
            for &a in parts {
                if !iters[a].at_end() {
                    ctx.counts.seeks[0] += 1;
                    iters[a].seek(ctx.lo);
                }
            }
        }
        let mut keep_going = true;
        if parts.iter().all(|&a| !iters[a].at_end()) {
            let slices = match **parts {
                [a, b] if d + 1 == self.order.len() => {
                    iters[a].level_keys().zip(iters[b].level_keys())
                }
                _ => None,
            };
            keep_going = match slices {
                Some((a, b)) => self.leaf_pair(d, a, b, assignment, ctx),
                None => self.leapfrog(d, iters, assignment, ctx),
            };
        }
        for &a in parts {
            iters[a].up();
        }
        keep_going
    }

    /// Binds `x` at depth `d` and reports whether the filters that
    /// become bound there pass.
    #[inline]
    fn admit(&self, d: usize, x: Value, assignment: &mut [Value]) -> bool {
        assignment[self.order[d].index()] = x;
        self.filters_at[d].iter().all(|f| f.eval(assignment))
    }

    /// Two-way leaf intersection. Slices at a trie's last level are
    /// lopsided (a few keys against a hub's thousands), so the loop
    /// drives from the shorter one: each of its keys gallops the longer
    /// slice forward, and when the longer slice lands past the key the
    /// shorter one gallops up to where it landed, which keeps the
    /// kernel adaptive on disjoint ranges. Steps never exceed the
    /// shorter slice's length. Matches come out ascending, as the cursor
    /// leapfrog emits them, and every step ticks the guard.
    fn leaf_pair<F, G>(
        &self,
        d: usize,
        a: &[Value],
        b: &[Value],
        assignment: &mut [Value],
        ctx: &mut RunCtx<F, G>,
    ) -> bool
    where
        F: FnMut(&[Value]) -> bool,
        G: FnMut() -> bool,
    {
        let (a, b) = match (d, ctx.hi) {
            // A single-variable query's leaf is depth 0: keep the
            // morsel's upper bound by cutting both slices at `hi`.
            (0, Some(h)) => (
                &a[..a.partition_point(|&k| k < h)],
                &b[..b.partition_point(|&k| k < h)],
            ),
            _ => (a, b),
        };
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let (mut i, mut j) = (0, 0);
        while let Some(&x) = short.get(i) {
            if !ctx.tick(d) {
                return false;
            }
            ctx.counts.seeks[d] += 1;
            j = lower_bound_gallop(long, j, x);
            let Some(&y) = long.get(j) else {
                break;
            };
            if y == x {
                if self.admit(d, x, assignment) && !ctx.emit_one(assignment) {
                    return false;
                }
                i += 1;
                j += 1;
            } else {
                ctx.counts.seeks[d] += 1;
                i = lower_bound_gallop(short, i + 1, y);
            }
        }
        true
    }

    fn leapfrog<F, G>(
        &self,
        d: usize,
        iters: &mut [A::Cursor<'_>],
        assignment: &mut [Value],
        ctx: &mut RunCtx<F, G>,
    ) -> bool
    where
        F: FnMut(&[Value]) -> bool,
        G: FnMut() -> bool,
    {
        let parts = &self.participants[d];
        let k = parts.len();
        // Rotation order sorted by current key (Veldhuizen's init), held
        // on the stack unless the level is unusually wide.
        let mut stack = [0usize; STACK_WIDTH];
        let mut spill = Vec::new();
        let rot: &mut [usize] = if k <= STACK_WIDTH {
            stack[..k].copy_from_slice(parts);
            &mut stack[..k]
        } else {
            spill.extend_from_slice(parts);
            &mut spill
        };
        rot.sort_by_key(|&a| iters[a].key());
        let mut p = 0usize;
        let mut max_key = iters[rot[k - 1]].key();
        loop {
            // Morsel upper bound: depth-0 keys ascend monotonically, so
            // once the running max reaches `hi` no further match can fall
            // inside `[lo, hi)` and the morsel is done.
            if d == 0 {
                if let Some(h) = ctx.hi {
                    if max_key >= h {
                        return true;
                    }
                }
            }
            if !ctx.tick(d) {
                return false;
            }
            let a = rot[p];
            let x = iters[a].key();
            if x == max_key {
                // All k iterators agree on x: a match at this level.
                if self.admit(d, x, assignment) {
                    let go_on = if d + 1 == self.order.len() {
                        ctx.emit_one(assignment)
                    } else {
                        self.recurse(d + 1, iters, assignment, ctx)
                    };
                    if !go_on {
                        return false;
                    }
                }
                iters[a].next_key();
            } else {
                ctx.counts.seeks[d] += 1;
                iters[a].seek(max_key);
            }
            if iters[a].at_end() {
                return true;
            }
            max_key = iters[a].key();
            p = (p + 1) % k;
        }
    }
}

/// Participants per level whose rotation [`Tributary`] keeps on the
/// stack; a wider level's rotation spills to the heap.
const STACK_WIDTH: usize = 8;

/// Per-run mutable state: the emit/guard closures, the result count, an
/// operation counter driving periodic guard checks, and the per-level
/// tallies.
struct RunCtx<F, G> {
    emit: F,
    guard: G,
    count: u64,
    ops: u64,
    /// Depth-0 value range `[lo, hi)` of the current morsel; `(0, None)`
    /// for an unrestricted run.
    lo: Value,
    hi: Option<Value>,
    /// Per-level work of this run.
    counts: ProbeCounts,
}

impl<F, G: FnMut() -> bool> RunCtx<F, G> {
    /// Counts one emitted result and hands it to `emit`.
    #[inline]
    fn emit_one(&mut self, assignment: &[Value]) -> bool
    where
        F: FnMut(&[Value]) -> bool,
    {
        self.count += 1;
        (self.emit)(assignment)
    }

    /// Counts one intersection step at depth `d`; every 8192 steps, asks
    /// the guard.
    #[inline]
    fn tick(&mut self, d: usize) -> bool {
        self.counts.steps[d] += 1;
        self.ops += 1;
        if self.ops & 0x1fff == 0 {
            (self.guard)()
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_query::CmpOp;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Reference: naive nested-loop evaluation of a conjunctive query over
    /// variables-only atoms.
    fn naive_join(
        atoms: &[(&Relation, Vec<VarId>)],
        num_vars: usize,
        filters: &[Filter],
    ) -> Vec<Vec<Value>> {
        let mut results = Vec::new();
        let mut asg: Vec<Option<Value>> = vec![None; num_vars];
        fn rec(
            i: usize,
            atoms: &[(&Relation, Vec<VarId>)],
            asg: &mut Vec<Option<Value>>,
            filters: &[Filter],
            out: &mut Vec<Vec<Value>>,
        ) {
            if i == atoms.len() {
                let full: Vec<Value> = asg.iter().map(|o| o.unwrap_or(0)).collect();
                if filters.iter().all(|f| f.eval(&full)) {
                    out.push(full);
                }
                return;
            }
            let (rel, vars) = &atoms[i];
            'rows: for row in rel.rows() {
                let saved = asg.clone();
                for (c, &var) in vars.iter().enumerate() {
                    match asg[var.index()] {
                        Some(x) if x != row[c] => {
                            *asg = saved;
                            continue 'rows;
                        }
                        _ => asg[var.index()] = Some(row[c]),
                    }
                }
                rec(i + 1, atoms, asg, filters, out);
                *asg = saved;
            }
        }
        rec(0, atoms, &mut asg, filters, &mut results);
        results.sort();
        results.dedup();
        results
    }

    fn run_tj(
        atoms: &[(&Relation, Vec<VarId>)],
        order: &[VarId],
        num_vars: usize,
        filters: &[Filter],
    ) -> Vec<Vec<Value>> {
        let prepared: Vec<SortedAtom> = atoms
            .iter()
            .map(|(r, vs)| SortedAtom::prepare(r, vs, order))
            .collect();
        let tj = Tributary::new(&prepared, order, filters, num_vars);
        let mut out = Vec::new();
        tj.run(|asg| {
            out.push(asg.to_vec());
            true
        });
        out.sort();
        out
    }

    fn figure2_db() -> (Relation, Relation, Relation) {
        // Paper Figure 2: R(x,y), S(y,z), T(x,z).
        let r = Relation::from_rows(
            2,
            [[0u64, 1], [2, 0], [2, 3], [2, 5], [3, 4], [4, 2], [5, 6]].iter(),
        );
        let s = Relation::from_rows(
            2,
            [[0u64, 1], [2, 0], [2, 3], [2, 5], [3, 4], [4, 2], [5, 6]].iter(),
        );
        let t = Relation::from_rows(
            2,
            [[0u64, 2], [1, 0], [2, 4], [3, 2], [4, 3], [5, 2], [6, 5]].iter(),
        );
        (r, s, t)
    }

    #[test]
    fn figure2_example_emits_2_3_4() {
        // Q(x,y,z) :- R(x,y), S(y,z), T(z,x); the paper walks through
        // finding (2, 3, 4).
        let (r, s, t) = figure2_db();
        // T in Figure 2 is given as T(x, z) — column order (x, z).
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![
            (&r, vec![v(0), v(1)]),
            (&s, vec![v(1), v(2)]),
            (&t, vec![v(0), v(2)]),
        ];
        let got = run_tj(&atoms, &[v(0), v(1), v(2)], 3, &[]);
        assert!(
            got.contains(&vec![2, 3, 4]),
            "missing paper's example result: {got:?}"
        );
        let want = naive_join(&atoms, 3, &[]);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_naive_on_triangle() {
        let edges = Relation::from_rows(
            2,
            [[0u64, 1], [1, 2], [2, 0], [1, 3], [3, 2], [0, 2], [2, 1]].iter(),
        );
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![
            (&edges, vec![v(0), v(1)]),
            (&edges, vec![v(1), v(2)]),
            (&edges, vec![v(2), v(0)]),
        ];
        for order in [[v(0), v(1), v(2)], [v(2), v(0), v(1)], [v(1), v(2), v(0)]] {
            let got = run_tj(&atoms, &order, 3, &[]);
            let want = naive_join(&atoms, 3, &[]);
            assert_eq!(got, want, "order {order:?}");
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let e = Relation::new(2);
        let full = Relation::from_rows(2, [[1u64, 2]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> =
            vec![(&e, vec![v(0), v(1)]), (&full, vec![v(1), v(2)])];
        assert!(run_tj(&atoms, &[v(0), v(1), v(2)], 3, &[]).is_empty());
    }

    #[test]
    fn disjoint_keys_give_empty_output() {
        let a = Relation::from_rows(2, [[1u64, 10], [2, 20]].iter());
        let b = Relation::from_rows(2, [[30u64, 5], [40, 6]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> =
            vec![(&a, vec![v(0), v(1)]), (&b, vec![v(1), v(2)])];
        assert!(run_tj(&atoms, &[v(1), v(0), v(2)], 3, &[]).is_empty());
    }

    #[test]
    fn single_atom_enumerates_rows() {
        let a = Relation::from_rows(2, [[1u64, 2], [3, 4]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![(&a, vec![v(0), v(1)])];
        let got = run_tj(&atoms, &[v(0), v(1)], 2, &[]);
        assert_eq!(got, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn filters_prune_results() {
        let a = Relation::from_rows(2, [[1u64, 2], [3, 4], [5, 1]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![(&a, vec![v(0), v(1)])];
        let f = Filter {
            left: v(0),
            op: CmpOp::Lt,
            right: parjoin_query::Operand::Var(v(1)),
        };
        let got = run_tj(&atoms, &[v(0), v(1)], 2, &[f]);
        assert_eq!(got, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn filter_applied_at_binding_depth_not_after() {
        // x > 3 must prune the whole subtree below x without descending.
        let a = Relation::from_rows(2, [[1u64, 2], [4, 9]].iter());
        let b = Relation::from_rows(1, [[2u64], [9]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![(&a, vec![v(0), v(1)]), (&b, vec![v(1)])];
        let f = Filter {
            left: v(0),
            op: CmpOp::Gt,
            right: parjoin_query::Operand::Const(3),
        };
        let got = run_tj(&atoms, &[v(0), v(1)], 2, &[f]);
        assert_eq!(got, vec![vec![4, 9]]);
    }

    #[test]
    fn early_termination_via_emit() {
        let a = Relation::from_rows(1, (0..100u64).map(|i| [i]).collect::<Vec<_>>().iter());
        let atoms: Vec<SortedAtom> = vec![SortedAtom::prepare(&a, &[v(0)], &[v(0)])];
        let order = [v(0)];
        let tj = Tributary::new(&atoms, &order, &[], 1);
        let mut seen = 0;
        let n = tj.run(|_| {
            seen += 1;
            seen < 10
        });
        assert_eq!(n, 10);
    }

    #[test]
    fn collect_projects_head() {
        let a = Relation::from_rows(2, [[1u64, 2], [3, 4]].iter());
        let atoms: Vec<SortedAtom> = vec![SortedAtom::prepare(&a, &[v(0), v(1)], &[v(0), v(1)])];
        let order = [v(0), v(1)];
        let tj = Tributary::new(&atoms, &order, &[], 2);
        let out = tj.collect(&[v(1)]);
        assert_eq!(out.arity(), 1);
        let mut vals: Vec<u64> = out.rows().map(|r| r[0]).collect();
        vals.sort();
        assert_eq!(vals, vec![2, 4]);
    }

    #[test]
    fn chain_query_matches_naive() {
        let a = Relation::from_rows(2, [[1u64, 2], [2, 3], [1, 3], [3, 1]].iter());
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![
            (&a, vec![v(0), v(1)]),
            (&a, vec![v(1), v(2)]),
            (&a, vec![v(2), v(3)]),
        ];
        for order in [
            vec![v(0), v(1), v(2), v(3)],
            vec![v(3), v(2), v(1), v(0)],
            vec![v(1), v(3), v(0), v(2)],
        ] {
            let got = run_tj(&atoms, &order, 4, &[]);
            let want = naive_join(&atoms, 4, &[]);
            assert_eq!(got, want, "order {order:?}");
        }
    }

    #[test]
    fn four_clique_matches_naive() {
        // Q2's shape on a small random-ish graph.
        let edges = Relation::from_rows(
            2,
            [
                [0u64, 1],
                [1, 2],
                [2, 3],
                [3, 0],
                [0, 2],
                [1, 3],
                [2, 0],
                [3, 1],
                [1, 0],
                [2, 1],
                [3, 2],
                [0, 3],
            ]
            .iter(),
        );
        let (x, y, z, p) = (v(0), v(1), v(2), v(3));
        let atoms: Vec<(&Relation, Vec<VarId>)> = vec![
            (&edges, vec![x, y]),
            (&edges, vec![y, z]),
            (&edges, vec![z, p]),
            (&edges, vec![p, x]),
            (&edges, vec![x, z]),
            (&edges, vec![y, p]),
        ];
        let got = run_tj(&atoms, &[x, y, z, p], 4, &[]);
        let want = naive_join(&atoms, 4, &[]);
        assert_eq!(got, want);
        assert!(!got.is_empty(), "this graph has 4-cliques");
    }

    #[test]
    fn run_range_pieces_concatenate_to_full_run() {
        // Triangle query; outputs collected *in emission order* so this
        // checks the morsel determinism argument, not just set equality.
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
            SortedAtom::prepare(&edges, &[v(0), v(1)], &order),
            SortedAtom::prepare(&edges, &[v(1), v(2)], &order),
            SortedAtom::prepare(&edges, &[v(2), v(0)], &order),
        ];
        let tj = Tributary::new(&atoms, &order, &[], 3);
        let mut full = Vec::new();
        tj.run(|asg| {
            full.push(asg.to_vec());
            true
        });
        assert!(!full.is_empty(), "graph has triangles");
        for bounds in [vec![0], vec![0, 2], vec![0, 1, 2, 3], vec![0, 3, 100]] {
            let mut pieced = Vec::new();
            for (i, &lo) in bounds.iter().enumerate() {
                let hi = bounds.get(i + 1).copied();
                tj.run_range(lo, hi, |asg| {
                    pieced.push(asg.to_vec());
                    true
                });
            }
            assert_eq!(pieced, full, "split {bounds:?}");
        }
        // A range that excludes everything emits nothing.
        assert_eq!(tj.run_range(200, Some(300), |_| true), 0);
    }

    #[test]
    #[should_panic(expected = "not in global order")]
    fn prepare_rejects_missing_var() {
        let a = Relation::from_rows(2, [[1u64, 2]].iter());
        let _ = SortedAtom::prepare(&a, &[v(0), v(5)], &[v(0), v(1)]);
    }

    #[test]
    #[should_panic(expected = "no atom contains")]
    fn order_var_without_atom_rejected() {
        let a = Relation::from_rows(1, [[1u64]].iter());
        let atoms = vec![SortedAtom::prepare(&a, &[v(0)], &[v(0), v(1)])];
        let _ = Tributary::new(&atoms, &[v(0), v(1)], &[], 2);
    }
}
