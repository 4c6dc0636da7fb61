//! Distributed relations: a schema plus one partition per worker.

use parjoin_common::Relation;
use parjoin_query::VarId;
use std::sync::Arc;

/// Schema slot of a column that carries a count, not a query variable
/// (the group-count combine and the skew summaries are shuffled as
/// [`DistRel`]s too). Nothing looks the slot up.
pub(crate) const AGGREGATE: VarId = VarId(u32::MAX);

/// A horizontally partitioned relation whose columns are bound to query
/// variables.
#[derive(Debug, Clone)]
pub struct DistRel {
    /// One variable per column.
    pub vars: Vec<VarId>,
    /// One partition per worker.
    pub parts: Vec<Relation>,
}

impl DistRel {
    /// Partitions `rel` round-robin across `workers` workers — the
    /// paper's initial data placement ("all the input relations are
    /// horizontally partitioned across the 64 workers using round-robin
    /// partitioning", §3).
    pub fn round_robin(rel: &Relation, vars: Vec<VarId>, workers: usize) -> Self {
        assert_eq!(rel.arity(), vars.len(), "one variable per column");
        assert!(workers > 0);
        let mut parts: Vec<Relation> = (0..workers)
            .map(|_| Relation::with_capacity(rel.arity(), rel.len() / workers + 1))
            .collect();
        for (i, row) in rel.rows().enumerate() {
            parts[i % workers].push_row(row);
        }
        DistRel { vars, parts }
    }

    /// Rank `rank`'s share of [`DistRel::round_robin`]: rows `rank`,
    /// `rank + workers`, … of `rel`, copied straight out of it.
    pub(crate) fn round_robin_part(rel: &Relation, rank: usize, workers: usize) -> Relation {
        let rows = rel.len() / workers + usize::from(rank < rel.len() % workers);
        let mut part = Relation::with_capacity(rel.arity(), rows);
        match rel.arity() {
            0 => part.push_nullary_rows(rows),
            arity => (rel.raw().chunks_exact(arity).skip(rank).step_by(workers))
                .for_each(|row| part.push_row(row)),
        }
        part
    }

    /// An empty distributed relation. The partition arity is exactly
    /// `vars.len()` — a nullary schema yields genuine arity-0
    /// partitions, which matter for boolean (empty-head) results whose
    /// only information is the bag row count.
    pub fn empty(vars: Vec<VarId>, workers: usize) -> Self {
        let arity = vars.len();
        DistRel {
            vars,
            parts: (0..workers).map(|_| Relation::new(arity)).collect(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.parts.len()
    }

    /// Total tuples across partitions.
    pub fn total_len(&self) -> u64 {
        self.parts.iter().map(|p| p.len() as u64).sum()
    }

    /// Per-partition tuple counts.
    pub fn part_lens(&self) -> Vec<u64> {
        self.parts.iter().map(|p| p.len() as u64).collect()
    }

    /// Column index of variable `v`.
    ///
    /// # Panics
    /// Panics if `v` is not in the schema.
    pub fn col_of(&self, v: VarId) -> usize {
        self.vars
            .iter()
            .position(|&x| x == v)
            .unwrap_or_else(|| panic!("variable #{} not in schema", v.0)) // xtask: allow(panic)
    }

    /// Gathers all partitions into one relation (coordinator collect).
    pub fn gather(&self) -> Relation {
        let arity = self.parts.first().map_or(self.vars.len(), |p| p.arity());
        let mut out = Relation::with_capacity(arity, self.total_len() as usize);
        for p in &self.parts {
            out.extend_from(p);
        }
        out
    }
}

/// One atom's hosted seed partitions as the executor takes them:
/// shared, so a one-round plan routes a mesh worker's resident
/// partitions in place and the worker keeps them for the next query.
pub(crate) struct Hosted {
    /// One variable per column.
    pub(crate) vars: Vec<VarId>,
    /// One partition per hosted rank.
    pub(crate) parts: Vec<Arc<Relation>>,
}

impl Hosted {
    /// All `workers` round-robin seed partitions of `rel`: what an
    /// in-process run hosts.
    pub(crate) fn seed(rel: &Relation, vars: Vec<VarId>, workers: usize) -> Hosted {
        let DistRel { vars, parts } = DistRel::round_robin(rel, vars, workers);
        let parts = parts.into_iter().map(Arc::new).collect();
        Hosted { vars, parts }
    }

    /// The partitions owned, for a step that consumes its input: moved
    /// out where nothing else holds them (an in-process seed), copied
    /// where a worker's store keeps them.
    pub(crate) fn into_dist(self) -> DistRel {
        DistRel {
            vars: self.vars,
            parts: self.parts.into_iter().map(Arc::unwrap_or_clone).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn round_robin_balances() {
        let rel = Relation::from_rows(2, (0..10u64).map(|i| [i, i]).collect::<Vec<_>>().iter());
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 3);
        assert_eq!(d.part_lens(), vec![4, 3, 3]);
        assert_eq!(d.total_len(), 10);
    }

    #[test]
    fn one_rank_part_is_that_ranks_round_robin_partition() {
        let rel = Relation::from_rows(2, (0..10u64).map(|i| [i, i * 3]).collect::<Vec<_>>().iter());
        let mut nullary = Relation::new(0);
        nullary.push_nullary_rows(7);
        for rel in [rel, nullary, Relation::new(2)] {
            for workers in 1..5 {
                let d = DistRel::round_robin(&rel, vec![v(0); rel.arity()], workers);
                for (rank, part) in d.parts.iter().enumerate() {
                    assert_eq!(&DistRel::round_robin_part(&rel, rank, workers), part);
                }
            }
        }
    }

    #[test]
    fn gather_roundtrips_multiset() {
        let rel = Relation::from_rows(2, (0..7u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter());
        let d = DistRel::round_robin(&rel, vec![v(0), v(1)], 4);
        let g = d.gather().distinct();
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn col_lookup() {
        let rel = Relation::from_rows(2, [[1u64, 2]].iter());
        let d = DistRel::round_robin(&rel, vec![v(5), v(9)], 2);
        assert_eq!(d.col_of(v(9)), 1);
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn missing_col_panics() {
        let rel = Relation::from_rows(1, [[1u64]].iter());
        DistRel::round_robin(&rel, vec![v(0)], 1).col_of(v(3));
    }

    #[test]
    fn empty_dist() {
        let d = DistRel::empty(vec![v(0)], 4);
        assert_eq!(d.workers(), 4);
        assert_eq!(d.total_len(), 0);
    }

    #[test]
    fn nullary_empty_keeps_arity_zero() {
        // Regression: `empty` used to promote zero-column schemas to
        // arity 1, so a boolean result gathered as one-column garbage.
        let d = DistRel::empty(vec![], 3);
        assert!(d.parts.iter().all(|p| p.arity() == 0));
        assert_eq!(d.gather().arity(), 0);
    }

    #[test]
    fn nullary_round_trips_with_multiplicity() {
        let mut d = DistRel::empty(vec![], 2);
        d.parts[0].push_nullary_rows(3);
        d.parts[1].push_nullary_rows(2);
        let g = d.gather();
        assert_eq!(g.arity(), 0);
        assert_eq!(g.len(), 5);
    }
}
