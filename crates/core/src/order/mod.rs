//! Variable-order optimization for the Tributary join (paper §5).
//!
//! TJ is worst-case optimal under *any* global variable order, but in
//! practice a bad order can be an order of magnitude slower (Table 7).
//! The paper's cost model estimates the number of binary searches TJ will
//! perform: at each step the size of the intersection of the active
//! domains bounds both the searches at that level and the branching into
//! the next level (Eq. 3), combined by the recursion
//! `Cost_{≥i} = Sᵢ + Sᵢ · Cost_{≥i+1}` (Eq. 4).
//!
//! The required statistics — the number of distinct *prefix* values
//! `V(Rⱼ, p)` — depend only on the projected column **set**, not the
//! order, so [`RelStats`] holds all `2^arity` projection counts of a
//! relation (beside the per-column statistics the join-order and
//! advisor cost models read); evaluating one candidate order is then
//! `O(k · atoms)` arithmetic, which makes exhaustive enumeration over
//! `k!` orders cheap where the paper sampled 20 random orders.

mod cost;
mod stats;

pub use cost::OrderCostModel;
pub use stats::{ColumnStats, RelStats, MAX_SUBSET_ARITY};

use parjoin_query::VarId;

/// Most variables [`best_order`] enumerates exhaustively (10! ≈ 3.6 M
/// orders is the sensible limit).
pub const EXHAUSTIVE_MAX_VARS: usize = 10;

/// Orders sampled beyond [`EXHAUSTIVE_MAX_VARS`] — the paper's Figure 12
/// protocol.
pub const SAMPLED_ORDERS: usize = 20;

/// [`best_order_seeded`] with seed 0.
pub fn best_order(model: &OrderCostModel, vars: &[VarId]) -> (Vec<VarId>, f64) {
    best_order_seeded(model, vars, 0)
}

/// Finds the order with the least estimated cost: exhaustively up to
/// [`EXHAUSTIVE_MAX_VARS`] variables, and above that as the best of
/// [`SAMPLED_ORDERS`] orders [`sample_orders`] draws from `seed`.
pub fn best_order_seeded(model: &OrderCostModel, vars: &[VarId], seed: u64) -> (Vec<VarId>, f64) {
    if vars.len() > EXHAUSTIVE_MAX_VARS {
        return model.best_sampled(&sample_orders(vars, SAMPLED_ORDERS, seed));
    }
    let mut best: Option<(Vec<VarId>, f64)> = None;
    let mut perm = vars.to_vec();
    permute(&mut perm, 0, &mut |order| {
        let c = model.cost(order);
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            best = Some((order.to_vec(), c));
        }
    });
    // `permute` invokes the closure at least once (even for an empty
    // variable list), so `best` is always set. xtask: allow(expect)
    best.expect("at least one order")
}

/// Heap-style permutation enumeration (recursive swap form).
fn permute<F: FnMut(&[VarId])>(v: &mut Vec<VarId>, i: usize, f: &mut F) {
    if i == v.len() {
        f(v);
        return;
    }
    for j in i..v.len() {
        v.swap(i, j);
        permute(v, i + 1, f);
        v.swap(i, j);
    }
}

/// Deterministically samples `n` random orders of `vars` (Fisher–Yates
/// with a seeded SplitMix64) — the paper's Figure 12 protocol uses 20.
pub fn sample_orders(vars: &[VarId], n: usize, seed: u64) -> Vec<Vec<VarId>> {
    let mut state = seed ^ 0x6a09_e667_f3bc_c908;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let mut v = vars.to_vec();
            for i in (1..v.len()).rev() {
                let j = ((next() as u128 * (i as u128 + 1)) >> 64) as usize;
                v.swap(i, j);
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn permute_counts_factorial() {
        let mut count = 0;
        let mut v = vs(4);
        permute(&mut v, 0, &mut |_| count += 1);
        assert_eq!(count, 24);
    }

    #[test]
    fn permute_yields_distinct_orders() {
        let mut seen = std::collections::BTreeSet::new();
        let mut v = vs(3);
        permute(&mut v, 0, &mut |o| {
            seen.insert(o.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn sample_orders_are_permutations() {
        let orders = sample_orders(&vs(5), 10, 42);
        assert_eq!(orders.len(), 10);
        for o in orders {
            let mut s = o.clone();
            s.sort();
            assert_eq!(s, vs(5));
        }
    }

    #[test]
    fn wide_queries_fall_back_to_sampling() {
        // An 11-variable path: exhaustive search would walk 11! orders.
        let edge = parjoin_common::Relation::from_rows(2, [[1u64, 2], [2, 3], [3, 1]].iter());
        let atoms: Vec<_> = (0..10)
            .map(|i| (&edge, vec![VarId(i), VarId(i + 1)]))
            .collect();
        let model = OrderCostModel::from_atoms(&atoms);
        let (order, cost) = best_order_seeded(&model, &vs(11), 7);
        let sampled = sample_orders(&vs(11), SAMPLED_ORDERS, 7);
        assert!(sampled.contains(&order));
        assert!(sampled.iter().all(|o| cost <= model.cost(o)));
        assert_eq!(
            best_order(&model, &vs(11)),
            best_order_seeded(&model, &vs(11), 0)
        );
    }

    #[test]
    fn sample_orders_deterministic() {
        assert_eq!(sample_orders(&vs(6), 5, 7), sample_orders(&vs(6), 5, 7));
        assert_ne!(sample_orders(&vs(6), 5, 7), sample_orders(&vs(6), 5, 8));
    }
}
