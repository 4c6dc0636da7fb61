//! Conjunctive queries with comparison filters.
//!
//! Queries follow the paper's Datalog form (Eq. 1):
//!
//! ```text
//! q(x₁, …, xₖ) :- S₁(x̄₁), …, Sₗ(x̄ₗ) [, filters]
//! ```
//!
//! Atom arguments may be variables or constants; constants model the
//! pushed-down selections of Q3/Q7 (e.g. `ObjectName(a1, "Joe Pesci")`,
//! which the paper treats as "containing very few tuples" after pushdown).

use parjoin_common::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A query variable, an index into [`ConjunctiveQuery::var_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An atom argument: a variable or a constant (pushed-down selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A constant value the attribute must equal.
    Const(Value),
}

/// One atom `S(t₁, …, tₐ)` in the query body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Base relation name in the catalog.
    pub relation: String,
    /// Argument terms, one per attribute of the base relation.
    pub terms: Vec<Term>,
}

impl Atom {
    /// The distinct variables of this atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// True if the atom mentions `v`.
    pub fn contains_var(&self, v: VarId) -> bool {
        self.terms
            .iter()
            .any(|t| matches!(t, Term::Var(x) if *x == v))
    }
}

/// Comparison operators usable in filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates `l op r`.
    #[inline]
    pub fn eval(self, l: Value, r: Value) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// Right-hand side of a filter comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Compare against another variable (`f1 > f2`, Q4).
    Var(VarId),
    /// Compare against a constant (`y >= 1990`, Q7).
    Const(Value),
}

/// A comparison filter `left op right` on the query body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filter {
    /// Left variable.
    pub left: VarId,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Operand,
}

impl Filter {
    /// The variables this filter mentions.
    pub fn vars(&self) -> Vec<VarId> {
        match self.right {
            Operand::Var(v) => vec![self.left, v],
            Operand::Const(_) => vec![self.left],
        }
    }

    /// Evaluates the filter under a (partial) assignment; the caller
    /// guarantees all mentioned variables are bound.
    #[inline]
    pub fn eval(&self, assignment: &[Value]) -> bool {
        let l = assignment[self.left.index()];
        let r = match self.right {
            Operand::Var(v) => assignment[v.index()],
            Operand::Const(c) => c,
        };
        self.op.eval(l, r)
    }
}

/// A full conjunctive query with optional head projection and filters.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Query name (the head predicate).
    pub name: String,
    /// Head variables (projection). Empty head means "all variables".
    pub head: Vec<VarId>,
    /// Body atoms.
    pub atoms: Vec<Atom>,
    /// Comparison filters.
    pub filters: Vec<Filter>,
    /// Variable names, indexed by [`VarId`].
    pub var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables, `0..num_vars`.
    pub fn all_vars(&self) -> Vec<VarId> {
        (0..self.var_names.len() as u32).map(VarId).collect()
    }

    /// The name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Variables occurring in at least two atoms — the paper's
    /// "# Join Variables" for hypercube dimensioning purposes.
    pub fn join_vars(&self) -> Vec<VarId> {
        self.all_vars()
            .into_iter()
            .filter(|&v| self.atoms.iter().filter(|a| a.contains_var(v)).count() >= 2)
            .collect()
    }

    /// Indices of atoms containing `v`.
    pub fn atoms_containing(&self, v: VarId) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains_var(v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Head variables, defaulting to all variables when the head is empty.
    pub fn output_vars(&self) -> Vec<VarId> {
        if self.head.is_empty() {
            self.all_vars()
        } else {
            self.head.clone()
        }
    }

    /// Checks structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.atoms.is_empty() {
            return Err("query has no atoms".into());
        }
        let n = self.var_names.len() as u32;
        let check = |v: VarId| -> Result<(), String> {
            if v.0 >= n {
                Err(format!("variable id {} out of range ({n} vars)", v.0))
            } else {
                Ok(())
            }
        };
        for a in &self.atoms {
            if a.terms.is_empty() {
                return Err(format!("atom {} has no terms", a.relation));
            }
            for t in &a.terms {
                if let Term::Var(v) = t {
                    check(*v)?;
                }
            }
        }
        for h in &self.head {
            check(*h)?;
            if !self.atoms.iter().any(|a| a.contains_var(*h)) {
                return Err(format!(
                    "head variable {} not in any atom",
                    self.var_name(*h)
                ));
            }
        }
        for f in &self.filters {
            for v in f.vars() {
                check(v)?;
                if !self.atoms.iter().any(|a| a.contains_var(v)) {
                    return Err(format!(
                        "filter variable {} not in any atom",
                        self.var_name(v)
                    ));
                }
            }
        }
        // Every variable must be used somewhere.
        for v in self.all_vars() {
            if !self.atoms.iter().any(|a| a.contains_var(v)) {
                return Err(format!("declared variable {} unused", self.var_name(v)));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, h) in self.output_vars().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_name(*h))?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.relation)?;
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                match t {
                    Term::Var(v) => write!(f, "{}", self.var_name(*v))?,
                    Term::Const(c) => write!(f, "{c}")?,
                }
            }
            write!(f, ")")?;
        }
        for flt in &self.filters {
            write!(f, ", {} {} ", self.var_name(flt.left), flt.op)?;
            match flt.right {
                Operand::Var(v) => write!(f, "{}", self.var_name(v))?,
                Operand::Const(c) => write!(f, "{c}")?,
            }
        }
        Ok(())
    }
}

/// Fluent construction of [`ConjunctiveQuery`] values.
///
/// ```
/// use parjoin_query::QueryBuilder;
/// let mut b = QueryBuilder::new("Triangle");
/// let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
/// b.atom("R", [x, y]);
/// b.atom("S", [y, z]);
/// b.atom("T", [z, x]);
/// let q = b.build();
/// assert_eq!(q.atoms.len(), 3);
/// assert_eq!(q.join_vars().len(), 3);
/// ```
pub struct QueryBuilder {
    name: String,
    head: Vec<VarId>,
    atoms: Vec<Atom>,
    filters: Vec<Filter>,
    var_names: Vec<String>,
    by_name: BTreeMap<String, VarId>,
}

impl QueryBuilder {
    /// Starts a query with the given head-predicate name.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            head: Vec::new(),
            atoms: Vec::new(),
            filters: Vec::new(),
            var_names: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    /// Declares (or looks up) a variable by name.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Adds a body atom whose arguments are all variables.
    pub fn atom<I: IntoIterator<Item = VarId>>(&mut self, relation: &str, vars: I) -> &mut Self {
        let terms = vars.into_iter().map(Term::Var).collect();
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms,
        });
        self
    }

    /// Adds a body atom with arbitrary terms (variables and constants).
    pub fn atom_terms<I: IntoIterator<Item = Term>>(
        &mut self,
        relation: &str,
        terms: I,
    ) -> &mut Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms: terms.into_iter().collect(),
        });
        self
    }

    /// Sets the head (projection) variables.
    pub fn head<I: IntoIterator<Item = VarId>>(&mut self, vars: I) -> &mut Self {
        self.head = vars.into_iter().collect();
        self
    }

    /// Adds a variable-vs-variable filter.
    pub fn filter_vv(&mut self, left: VarId, op: CmpOp, right: VarId) -> &mut Self {
        self.filters.push(Filter {
            left,
            op,
            right: Operand::Var(right),
        });
        self
    }

    /// Adds a variable-vs-constant filter.
    pub fn filter_vc(&mut self, left: VarId, op: CmpOp, c: Value) -> &mut Self {
        self.filters.push(Filter {
            left,
            op,
            right: Operand::Const(c),
        });
        self
    }

    /// Finishes the query — the form for queries built from outside
    /// input (the Datalog parser's).
    ///
    /// # Errors
    /// The first violation [`ConjunctiveQuery::validate`] finds, prefixed
    /// with the query's name.
    pub fn try_build(self) -> Result<ConjunctiveQuery, String> {
        let q = ConjunctiveQuery {
            name: self.name,
            head: self.head,
            atoms: self.atoms,
            filters: self.filters,
            var_names: self.var_names,
        };
        match q.validate() {
            Ok(()) => Ok(q),
            Err(e) => Err(format!("invalid query `{}`: {e}", q.name)),
        }
    }

    /// Finishes a query written in code.
    ///
    /// # Panics
    /// Panics if the query fails [`ConjunctiveQuery::validate`] — builder
    /// misuse is a programming error.
    pub fn build(self) -> ConjunctiveQuery {
        // xtask: allow(panic)
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("T");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        b.build()
    }

    #[test]
    fn builder_dedups_vars() {
        let mut b = QueryBuilder::new("Q");
        let x1 = b.var("x");
        let x2 = b.var("x");
        assert_eq!(x1, x2);
    }

    #[test]
    fn triangle_join_vars() {
        let q = triangle();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.join_vars().len(), 3);
        assert_eq!(q.atoms_containing(VarId(0)), vec![0, 2]);
    }

    #[test]
    fn output_vars_defaults_to_all() {
        let q = triangle();
        assert_eq!(q.output_vars().len(), 3);
    }

    #[test]
    fn head_projection_kept() {
        let mut b = QueryBuilder::new("Q");
        let (x, y) = (b.var("x"), b.var("y"));
        b.atom("R", [x, y]);
        b.head([y]);
        let q = b.build();
        assert_eq!(q.output_vars(), vec![VarId(1)]);
    }

    #[test]
    fn try_build_reports_what_build_panics_with() {
        let mut b = QueryBuilder::new("Q");
        let (x, ghost) = (b.var("x"), b.var("ghost"));
        b.atom("R", [x]);
        b.head([x, ghost]);
        let err = b.try_build().unwrap_err();
        assert!(err.starts_with("invalid query `Q`: "), "{err}");
        assert!(err.contains("ghost"), "{err}");

        let mut ok = QueryBuilder::new("Q");
        let x = ok.var("x");
        ok.atom("R", [x]);
        assert_eq!(ok.try_build().unwrap().atoms.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unused")]
    fn unused_var_rejected() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        let _unused = b.var("dead");
        b.atom("R", [x]);
        b.build();
    }

    #[test]
    #[should_panic(expected = "head variable")]
    fn head_var_must_occur() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        b.atom("R", [x]);
        // Manually corrupt: head var beyond atoms.
        let q = ConjunctiveQuery {
            name: "Q".into(),
            head: vec![VarId(1)],
            atoms: b.build().atoms,
            filters: vec![],
            var_names: vec!["x".into(), "y".into()],
        };
        if let Err(e) = q.validate() {
            panic!("{e}");
        }
    }

    #[test]
    fn filters_eval() {
        let f = Filter {
            left: VarId(0),
            op: CmpOp::Gt,
            right: Operand::Var(VarId(1)),
        };
        assert!(f.eval(&[5, 3]));
        assert!(!f.eval(&[3, 5]));
        let g = Filter {
            left: VarId(0),
            op: CmpOp::Le,
            right: Operand::Const(4),
        };
        assert!(g.eval(&[4, 0]));
        assert!(!g.eval(&[5, 0]));
    }

    #[test]
    fn cmp_ops_all() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(CmpOp::Eq.eval(2, 2));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(!CmpOp::Eq.eval(1, 2));
    }

    #[test]
    fn display_roundtrips_shape() {
        let q = triangle();
        let s = format!("{q}");
        assert!(
            s.contains("T(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
            "got {s}"
        );
    }

    #[test]
    fn atom_vars_distinct_in_order() {
        let mut b = QueryBuilder::new("Q");
        let x = b.var("x");
        b.atom("R", [x, x]);
        let q = b.build();
        assert_eq!(q.atoms[0].vars(), vec![x]);
    }
}
