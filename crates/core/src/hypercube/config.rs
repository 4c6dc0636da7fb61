//! Integral hypercube configurations.

use super::shares::ShareProblem;
use parjoin_query::VarId;
use std::fmt;

/// An integral hypercube configuration: one dimension size per variable.
///
/// `num_cells() = ∏ dims` cells are mapped one-to-one onto workers (the
/// paper's Algorithm 1 keeps one cell per worker; see
/// [`cells`](super::cells) for the many-cells variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HcConfig {
    vars: Vec<VarId>,
    dims: Vec<usize>,
}

impl HcConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if lengths differ or any dimension is zero.
    pub fn new(vars: Vec<VarId>, dims: Vec<usize>) -> Self {
        assert_eq!(vars.len(), dims.len(), "one dimension per variable");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        HcConfig { vars, dims }
    }

    /// The variables, aligned with [`Self::dims`].
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Dimension index of variable `v`, if it has one.
    pub fn dim_of(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// The share `d_v` of variable `v`: 1 where `v` has no dimension.
    pub fn share(&self, v: VarId) -> usize {
        self.dim_of(v).map_or(1, |d| self.dims[d])
    }

    /// Total number of cells `∏ dᵢ`.
    pub fn num_cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// Largest dimension (Algorithm 1's tie-break key).
    pub fn max_dim(&self) -> usize {
        self.dims.iter().copied().max().unwrap_or(1)
    }

    /// Expected tuples assigned to a single worker under uniform hashing:
    /// `Σⱼ |Sⱼ| / ∏_{i ∈ vars(Sⱼ)} dᵢ` — the paper's `workload(c)`.
    pub fn workload(&self, problem: &ShareProblem) -> f64 {
        problem
            .atoms
            .iter()
            .map(|a| {
                let denom: f64 = a.vars.iter().map(|&v| self.share(v) as f64).product();
                a.cardinality as f64 / denom
            })
            .sum()
    }

    /// Expected *total* tuples placed on the network: each tuple of atom
    /// `Sⱼ` is replicated to `∏_{i ∉ vars(Sⱼ)} dᵢ` cells.
    pub fn expected_tuples_shuffled(&self, problem: &ShareProblem) -> f64 {
        let cells = self.num_cells() as f64;
        problem
            .atoms
            .iter()
            .map(|a| {
                let hashed: f64 = a.vars.iter().map(|&v| self.share(v) as f64).product();
                a.cardinality as f64 * (cells / hashed)
            })
            .sum()
    }

    /// Converts mixed-radix coordinates to a flat cell index.
    ///
    /// # Panics
    /// Panics (in debug builds) if a coordinate exceeds its dimension.
    #[inline]
    pub fn cell_index(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut idx = 0usize;
        for (c, &d) in coords.iter().zip(&self.dims) {
            debug_assert!(*c < d, "coordinate out of range");
            idx = idx * d + c;
        }
        idx
    }

    /// Inverse of [`Self::cell_index`].
    pub fn cell_coords(&self, mut idx: usize) -> Vec<usize> {
        let mut out = vec![0usize; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            out[i] = idx % self.dims[i];
            idx /= self.dims[i];
        }
        out
    }
}

impl fmt::Display for HcConfig {
    /// Formats as `d1xd2x…` (e.g. `2x4x2x4`, the paper's Q2 configuration).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dims: &[usize]) -> HcConfig {
        let vars = (0..dims.len() as u32).map(VarId).collect();
        HcConfig::new(vars, dims.to_vec())
    }

    #[test]
    fn cells_and_max_dim() {
        let c = cfg(&[4, 4, 4]);
        assert_eq!(c.num_cells(), 64);
        assert_eq!(c.max_dim(), 4);
    }

    #[test]
    fn cell_index_roundtrip() {
        let c = cfg(&[2, 3, 4]);
        for idx in 0..24 {
            let coords = c.cell_coords(idx);
            assert_eq!(c.cell_index(&coords), idx);
        }
    }

    #[test]
    fn cell_index_is_bijection() {
        let c = cfg(&[3, 5]);
        let mut seen = [false; 15];
        for a in 0..3 {
            for b in 0..5 {
                let i = c.cell_index(&[a, b]);
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn workload_triangle_example() {
        // Paper §2.1: load per server is (|S1|+|S2|+|S3|)/p^(2/3) for the
        // 4×4×4 cube: each atom hashes 2 of 3 dims → card/16.
        use parjoin_query::QueryBuilder;
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        let p = ShareProblem::from_query(&b.build(), &[1600, 1600, 1600]);
        let c = HcConfig::new(p.vars.clone(), vec![4, 4, 4]);
        assert!((c.workload(&p) - 300.0).abs() < 1e-9); // 3·1600/16
                                                        // Replication: each tuple goes to 4 cells → 3·1600·4 total.
        assert!((c.expected_tuples_shuffled(&p) - 19200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        cfg(&[0, 2]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", cfg(&[2, 4, 2, 4])), "2x4x2x4");
    }
}
