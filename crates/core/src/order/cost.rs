//! The Tributary-join cost model (paper §5.1, Eq. 3–4).

use super::stats::RelStats;
use parjoin_common::Relation;
use parjoin_query::VarId;
use std::sync::Arc;

/// A cost model instance: per-atom variable lists plus each atom's
/// relation statistics.
///
/// ```
/// use parjoin_common::Relation;
/// use parjoin_core::order::{best_order, OrderCostModel};
/// use parjoin_query::VarId;
///
/// let r = Relation::from_rows(2, (0..100u64).map(|i| [i % 5, i]).collect::<Vec<_>>());
/// let s = Relation::from_rows(2, (0..100u64).map(|i| [i, i % 7]).collect::<Vec<_>>());
/// let (x, y, z) = (VarId(0), VarId(1), VarId(2));
/// let model = OrderCostModel::from_atoms(&[(&r, vec![x, y]), (&s, vec![y, z])]);
/// let (order, cost) = best_order(&model, &[x, y, z]);
/// assert_eq!(order.len(), 3);
/// assert!(cost.is_finite() && cost > 0.0);
/// ```
pub struct OrderCostModel {
    atoms: Vec<(Vec<VarId>, Arc<RelStats>)>,
}

impl OrderCostModel {
    /// Builds the model from variables-only atoms (e.g. the output of
    /// selection pushdown), analysing every relation on the spot. A
    /// caller that already holds the statistics uses
    /// [`OrderCostModel::from_stats`].
    ///
    /// # Panics
    /// As [`OrderCostModel::from_stats`].
    pub fn from_atoms(atoms: &[(&Relation, Vec<VarId>)]) -> Self {
        Self::from_stats(
            atoms
                .iter()
                .map(|(rel, vars)| (vars.clone(), Arc::new(RelStats::compute(rel))))
                .collect(),
        )
    }

    /// Builds the model from precomputed statistics, one
    /// `(variables, statistics)` pair per atom: no relation is read.
    ///
    /// # Panics
    /// Panics if an atom's variable count differs from its relation's
    /// arity, or its statistics carry no subset table
    /// ([`RelStats::has_subsets`]) — the model is defined by it.
    pub fn from_stats(atoms: Vec<(Vec<VarId>, Arc<RelStats>)>) -> Self {
        for (vars, stats) in &atoms {
            assert_eq!(stats.arity(), vars.len(), "one variable per column");
            assert!(
                stats.has_subsets(),
                "cost model limited to arity {}",
                super::stats::MAX_SUBSET_ARITY
            );
        }
        OrderCostModel { atoms }
    }

    /// Estimates TJ's cost (number of binary-search-driven steps) for a
    /// global variable order.
    ///
    /// Step sizes follow Eq. 3:
    /// `S₁ = min_j V(Rⱼ, {φ(1)})` and, for `i > 1`,
    /// `Sᵢ = min_{φ(i) ∈ Rⱼ} V(Rⱼ, pᵢⱼ) / V(Rⱼ, pᵢ₋₁ⱼ)`
    /// where `pᵢⱼ` is the prefix of `Rⱼ`'s attributes among the first `i`
    /// order variables. The total cost unrolls Eq. 4's recursion
    /// `Cost_{≥i} = Sᵢ + Sᵢ·Cost_{≥i+1}` into `Σᵢ Πⱼ≤ᵢ Sⱼ`.
    ///
    /// Variables absent from every atom contribute nothing; the order must
    /// cover every variable some atom mentions, or prefixes go stale —
    /// callers pass complete orders.
    pub fn cost(&self, order: &[VarId]) -> f64 {
        // Per-atom running prefix mask.
        let mut masks: Vec<u32> = vec![0; self.atoms.len()];
        let mut total = 0.0f64;
        let mut prefix_product = 1.0f64;
        for &var in order {
            let mut step: f64 = f64::INFINITY;
            let mut any = false;
            for (ai, (vars, stats)) in self.atoms.iter().enumerate() {
                let Some(col) = vars.iter().position(|&v| v == var) else {
                    continue;
                };
                any = true;
                let new_mask = masks[ai] | (1u32 << col);
                let denom = stats.distinct(masks[ai]).max(1) as f64;
                let numer = stats.distinct(new_mask) as f64;
                step = step.min(numer / denom);
                masks[ai] = new_mask;
            }
            if !any {
                continue; // variable not joined here; no step
            }
            prefix_product *= step;
            total += prefix_product;
            if step == 0.0 {
                break; // empty intersection: nothing below contributes
            }
        }
        total
    }

    /// Number of atoms in the model.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Evaluates several orders and returns the best `(order, cost)` —
    /// used when `k!` is too large to enumerate (see
    /// [`sample_orders`](super::sample_orders)).
    ///
    /// # Panics
    /// Panics when `orders` is empty — there is no best of nothing.
    pub fn best_sampled(&self, orders: &[Vec<VarId>]) -> (Vec<VarId>, f64) {
        orders
            .iter()
            .map(|o| (o.clone(), self.cost(o)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // Documented API contract above. xtask: allow(expect)
            .expect("at least one order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// R1(x1,x2), R2(x2,x3) — the §5.1 running example (Eq. 2 without R3).
    fn two_path() -> (Relation, Relation) {
        // R1: x2 has 2 distinct values; R2: x2 has 4, x3 fans out.
        let r1 = Relation::from_rows(2, [[1u64, 10], [2, 10], [3, 20]].iter());
        let r2 = Relation::from_rows(
            2,
            [[10u64, 100], [10, 101], [20, 100], [30, 102], [40, 103]].iter(),
        );
        (r1, r2)
    }

    #[test]
    fn step1_is_min_distinct_of_first_var() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        // Order x2 ≺ x1 ≺ x3: S1 = min(V(R1,{x2})=2, V(R2,{x2})=4) = 2.
        // S2 (x1, only in R1): V(R1,{x1,x2})/V(R1,{x2}) = 3/2.
        // S3 (x3, only in R2): V(R2,{x2,x3})/V(R2,{x2}) = 5/4.
        // Cost = 2 + 2·1.5 + 2·1.5·1.25 = 2 + 3 + 3.75 = 8.75.
        let c = m.cost(&[v(1), v(0), v(2)]);
        assert!((c - 8.75).abs() < 1e-9, "{c}");
    }

    #[test]
    fn cost_prefers_selective_first_variable() {
        // A relation with a highly selective join var vs a fanned one:
        // starting from the small active domain should cost less.
        let small = Relation::from_rows(2, [[1u64, 1], [1, 2], [1, 3]].iter());
        let big = Relation::from_rows(
            2,
            (0..30u64)
                .map(|i| [i % 3 + 1, i])
                .collect::<Vec<_>>()
                .iter(),
        );
        let m = OrderCostModel::from_atoms(&[(&small, vec![v(0), v(1)]), (&big, vec![v(0), v(2)])]);
        let c_good = m.cost(&[v(0), v(1), v(2)]);
        let c_bad = m.cost(&[v(1), v(2), v(0)]);
        assert!(c_good < c_bad, "good {c_good} bad {c_bad}");
    }

    #[test]
    fn empty_relation_zeroes_subtree() {
        let e = Relation::new(2);
        let m = OrderCostModel::from_atoms(&[(&e, vec![v(0), v(1)])]);
        assert_eq!(m.cost(&[v(0), v(1)]), 0.0);
    }

    #[test]
    fn best_order_finds_minimum() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        let vars = vec![v(0), v(1), v(2)];
        let (order, best_cost) = super::super::best_order(&m, &vars);
        // Verify optimality over the full enumeration by hand.
        let mut all = vec![];
        for o in super::super::sample_orders(&vars, 50, 3) {
            all.push(m.cost(&o));
        }
        for c in all {
            assert!(best_cost <= c + 1e-9);
        }
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn costs_monotone_in_cardinality() {
        // Scaling every relation up scales costs up.
        let small =
            Relation::from_rows(2, (0..10u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter());
        let large = Relation::from_rows(
            2,
            (0..100u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter(),
        );
        let ms = OrderCostModel::from_atoms(&[(&small, vec![v(0), v(1)])]);
        let ml = OrderCostModel::from_atoms(&[(&large, vec![v(0), v(1)])]);
        assert!(ml.cost(&[v(0), v(1)]) > ms.cost(&[v(0), v(1)]));
    }

    #[test]
    fn best_sampled_agrees_with_enumeration_on_small() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        let vars = vec![v(0), v(1), v(2)];
        let orders: Vec<Vec<VarId>> = super::super::sample_orders(&vars, 200, 1);
        let (_, sampled) = m.best_sampled(&orders);
        let (_, exact) = super::super::best_order(&m, &vars);
        // 200 samples of 6 orders will surely hit the optimum.
        assert!((sampled - exact).abs() < 1e-9);
    }
}
