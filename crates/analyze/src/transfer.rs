//! Policy transfer: certifying that one query's shuffled placement is
//! parallel-correct for *another* query.
//!
//! Ameloot et al. study when parallel-correctness *transfers* from a
//! query `Q` to a query `Q'`: whenever a policy is parallel-correct for
//! `Q`, it is for `Q'` too, so data already distributed for `Q` can be
//! reused to answer `Q'` with **zero additional communication**. This
//! module implements the practical instance the engine needs: given the
//! *concrete* policy `P` a plan used for `Q`, decide whether the
//! placement `P` left behind is parallel-correct for `Q'`.
//!
//! The check has two stages:
//!
//! 1. **Induce** `Q'`-routes from `P` ([`induce_policy`]): `P` routes
//!    the *facts of relations*, not atoms, so each atom of `Q'` over a
//!    relation `R` inherits `R`'s placement from `Q`'s atom over `R`,
//!    with hashed columns re-expressed through `Q'`'s variables. A
//!    relation `Q` never shuffled, or one it shuffled two conflicting
//!    ways, leaves no well-defined placement — the transfer is
//!    [`TransferVerdict::NotDerivable`] and `Q'` must re-shuffle.
//! 2. **Certify** the induced policy for `Q'` with the standard
//!    [`certify`] decision, yielding a proof certificate or a concrete
//!    counterexample valuation.
//!
//! The engine's advisor uses this to keep a follow-up query on the
//! previous query's distribution.

use crate::diagnostic::{DiagCode, Diagnostic};
use crate::policy::{certify, AtomRoute, Certificate, Counterexample, Pin, Policy, Verdict};
use parjoin_query::{ConjunctiveQuery, VarId};

/// Outcome of a transfer check from `Q` (whose policy is known) to `Q'`.
#[derive(Debug, Clone)]
pub enum TransferVerdict {
    /// The placement transfers: the induced policy is parallel-correct
    /// for `Q'`. The certificate's obligations prove it.
    Transfers(Certificate),
    /// The placement is provably *not* parallel-correct for `Q'`; the
    /// counterexample valuation concretely fails under it.
    Refuted(Counterexample),
    /// The symbolic criterion failed for the induced policy but no
    /// concrete counterexample surfaced within the search budget.
    Unproven(String),
    /// `Q`'s policy does not determine a placement for `Q'` at all
    /// (unshuffled relation, conflicting routes, or incompatible atom
    /// shapes), so there is nothing to certify.
    NotDerivable(String),
}

impl TransferVerdict {
    /// True for [`TransferVerdict::Transfers`].
    pub fn is_transferable(&self) -> bool {
        matches!(self, TransferVerdict::Transfers(_))
    }
}

/// Re-expresses `policy` (routes parallel to `prev`'s atoms) as a policy
/// over `next`'s atoms, matching atoms by relation name and carrying
/// hashed pins across by column position in the atoms' distinct-variable
/// schemas. Errors describe why no placement is determined.
pub fn induce_policy(
    prev: &ConjunctiveQuery,
    policy: &Policy,
    next: &ConjunctiveQuery,
) -> Result<Policy, String> {
    let prev_vars: Vec<Vec<VarId>> = prev.atoms.iter().map(|a| a.vars()).collect();
    if policy.routes.len() != prev_vars.len() {
        return Err(format!(
            "policy covers {} atoms but the source query has {}",
            policy.routes.len(),
            prev_vars.len()
        ));
    }
    let mut routes = Vec::with_capacity(next.atoms.len());
    for atom in &next.atoms {
        let nv = atom.vars();
        let mut induced: Option<AtomRoute> = None;
        let mut any = false;
        for (i, patom) in prev.atoms.iter().enumerate() {
            if patom.relation != atom.relation {
                continue;
            }
            any = true;
            let candidate = match &policy.routes[i] {
                AtomRoute::Stationary => AtomRoute::Stationary,
                AtomRoute::Routed(pins) => {
                    let mut out = Vec::with_capacity(pins.len());
                    for pin in pins {
                        out.push(match pin {
                            Pin::Free => Pin::Free,
                            Pin::Const { channel } => Pin::Const { channel: *channel },
                            Pin::Hash {
                                var,
                                channel,
                                family,
                            } => {
                                let Some(col) = prev_vars[i].iter().position(|v| v == var) else {
                                    return Err(format!(
                                        "source atom {i} does not contain its own \
                                         pinned variable #{}",
                                        var.0
                                    ));
                                };
                                let Some(&nvar) = nv.get(col) else {
                                    return Err(format!(
                                        "relation {} has {} distinct variables in the \
                                         target query but its placement hashes \
                                         column {col}",
                                        atom.relation,
                                        nv.len()
                                    ));
                                };
                                Pin::Hash {
                                    var: nvar,
                                    channel: *channel,
                                    family: *family,
                                }
                            }
                        });
                    }
                    AtomRoute::Routed(out)
                }
            };
            match &induced {
                None => induced = Some(candidate),
                Some(prev_route) if *prev_route != candidate => {
                    return Err(format!(
                        "relation {} was shuffled two conflicting ways in the \
                         source query; its placement is ambiguous",
                        atom.relation
                    ));
                }
                Some(_) => {}
            }
        }
        if !any {
            return Err(format!(
                "relation {} was never shuffled by the source query; no \
                 placement to inherit",
                atom.relation
            ));
        }
        match induced {
            Some(route) => routes.push(route),
            // Unreachable: `any` is only set when `induced` is filled.
            None => return Err(format!("no route induced for {}", atom.relation)),
        }
    }
    Ok(Policy {
        dims: policy.dims.clone(),
        routes,
        label: format!("{} (transferred from {})", policy.label, prev.name),
    })
}

/// Decides whether the placement `policy` left behind after evaluating
/// `prev` is parallel-correct for `next`.
pub fn transfers(
    prev: &ConjunctiveQuery,
    policy: &Policy,
    next: &ConjunctiveQuery,
) -> TransferVerdict {
    let induced = match induce_policy(prev, policy, next) {
        Ok(p) => p,
        Err(why) => return TransferVerdict::NotDerivable(why),
    };
    let atom_vars: Vec<Vec<VarId>> = next.atoms.iter().map(|a| a.vars()).collect();
    let names: Vec<String> = next.var_names.clone();
    match certify(&atom_vars, &induced, Some(&names)) {
        Verdict::Certified(c) => TransferVerdict::Transfers(c),
        Verdict::Refuted(cex) => TransferVerdict::Refuted(cex),
        Verdict::Unproven { why } => TransferVerdict::Unproven(why),
        Verdict::Malformed(diags) => TransferVerdict::NotDerivable(format!(
            "induced policy is malformed: {}",
            diags.first().map_or_else(String::new, ToString::to_string)
        )),
    }
}

/// Runs the transfer check and renders the verdict as diagnostics:
/// [`DiagCode::PolicyTransferred`] (info) on success, otherwise
/// [`DiagCode::PolicyNotTransferable`] (warning) carrying the reason —
/// a failed transfer is not an error, it just means `next` must
/// re-shuffle. Returns whether the transfer certified.
pub fn transfer_diagnostics(
    prev: &ConjunctiveQuery,
    policy: &Policy,
    next: &ConjunctiveQuery,
    out: &mut Vec<Diagnostic>,
) -> bool {
    match transfers(prev, policy, next) {
        TransferVerdict::Transfers(cert) => {
            let mut d = Diagnostic::info(
                DiagCode::PolicyTransferred,
                format!(
                    "placement of {} ({}) is parallel-correct for {}: reuse \
                     without re-shuffling is certified",
                    prev.name, policy.label, next.name
                ),
            )
            .with("from", &prev.name)
            .with("to", &next.name)
            .with("policy", &cert.policy);
            for (k, ob) in cert.obligations.iter().enumerate() {
                d = d.with(format!("proof[{k}]"), ob);
            }
            out.push(d);
            true
        }
        TransferVerdict::Refuted(cex) => {
            out.push(
                Diagnostic::warning(
                    DiagCode::PolicyNotTransferable,
                    format!(
                        "placement of {} is not parallel-correct for {}: \
                         valuation [{}] places required facts on disjoint \
                         workers; {} must re-shuffle",
                        prev.name,
                        next.name,
                        cex.valuation_string(Some(&next.var_names)),
                        next.name
                    ),
                )
                .with("from", &prev.name)
                .with("to", &next.name)
                .with("why", &cex.why),
            );
            false
        }
        TransferVerdict::Unproven(why) => {
            out.push(
                Diagnostic::warning(
                    DiagCode::PolicyNotTransferable,
                    format!(
                        "transfer of {}'s placement to {} could not be \
                         certified; {} must re-shuffle",
                        prev.name, next.name, next.name
                    ),
                )
                .with("from", &prev.name)
                .with("to", &next.name)
                .with("why", why),
            );
            false
        }
        TransferVerdict::NotDerivable(why) => {
            out.push(
                Diagnostic::warning(
                    DiagCode::PolicyNotTransferable,
                    format!(
                        "{}'s policy determines no placement for {}; {} must \
                         re-shuffle",
                        prev.name, next.name, next.name
                    ),
                )
                .with("from", &prev.name)
                .with("to", &next.name)
                .with("why", why),
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{hypercube_policy, regular_step_policy, Family};
    use parjoin_core::hypercube::HcConfig;
    use parjoin_query::QueryBuilder;

    fn triangle() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("Triangle");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        b.build()
    }

    /// Same body as the triangle, different variable names and head.
    fn triangle_renamed() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("Triangle2");
        let (a, c, e) = (b.var("a"), b.var("c"), b.var("e"));
        b.atom("R", [a, c]).atom("S", [c, e]).atom("T", [e, a]);
        b.head([a]);
        b.build()
    }

    fn hc_policy_of(q: &ConjunctiveQuery, seed: u64) -> Policy {
        let av: Vec<Vec<VarId>> = q.atoms.iter().map(|a| a.vars()).collect();
        let config = HcConfig::new(q.all_vars(), vec![2, 2, 2]);
        hypercube_policy(&av, &config, seed)
    }

    #[test]
    fn hypercube_placement_transfers_to_isomorphic_query() {
        let q1 = triangle();
        let q2 = triangle_renamed();
        let policy = hc_policy_of(&q1, 42);
        let v = transfers(&q1, &policy, &q2);
        assert!(v.is_transferable(), "{v:?}");
    }

    #[test]
    fn transfer_refuted_when_next_query_joins_differently() {
        // Q1 partitions R(x,y) on x's dimension and S on y,z. Q2 joins
        // R's *second* column against S's second: R(u,w) ⋈ S(v,w). The
        // inherited placement hashes R on column 0 (now u) and S on
        // columns 0/1 — w never agrees.
        let q1 = {
            let mut b = QueryBuilder::new("Q1");
            let (x, y) = (b.var("x"), b.var("y"));
            b.atom("R", [x, y]).atom("S", [x, y]);
            b.build()
        };
        let av: Vec<Vec<VarId>> = q1.atoms.iter().map(|a| a.vars()).collect();
        // Partition both atoms on x only (dim over x).
        let config = HcConfig::new(vec![VarId(0)], vec![4]);
        let policy = hypercube_policy(&av, &config, 42);
        assert!(transfers(&q1, &policy, &q1).is_transferable());

        let q2 = {
            let mut b = QueryBuilder::new("Q2");
            let (u, v, w) = (b.var("u"), b.var("v"), b.var("w"));
            b.atom("R", [u, w]).atom("S", [v, w]);
            b.build()
        };
        // Inherited: R hashed on col 0 (= u), S hashed on col 0 (= v):
        // different variables pin the same dimension.
        match transfers(&q1, &policy, &q2) {
            TransferVerdict::Refuted(_) | TransferVerdict::Unproven(_) => {}
            v => panic!("must not transfer: {v:?}"),
        }
    }

    #[test]
    fn unshuffled_relation_is_not_derivable() {
        let q1 = triangle();
        let policy = hc_policy_of(&q1, 42);
        let q2 = {
            let mut b = QueryBuilder::new("Q2");
            let (x, y) = (b.var("x"), b.var("y"));
            b.atom("R", [x, y]).atom("U", [x, y]); // U never shuffled by Q1
            b.build()
        };
        assert!(matches!(
            transfers(&q1, &policy, &q2),
            TransferVerdict::NotDerivable(_)
        ));
    }

    #[test]
    fn conflicting_self_join_routes_are_not_derivable() {
        // Q1 = R(x,y) ⋈ R(y,z) under a regular step on y: the two R
        // occurrences are hashed on different columns, so "R's
        // placement" is ambiguous.
        let q1 = {
            let mut b = QueryBuilder::new("Path");
            let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
            b.atom("R", [x, y]).atom("R", [y, z]);
            b.build()
        };
        let policy = regular_step_policy(Some(VarId(1)), 4, 7);
        let q2 = {
            let mut b = QueryBuilder::new("Next");
            let (a, c) = (b.var("a"), b.var("c"));
            b.atom("R", [a, c]);
            b.build()
        };
        assert!(matches!(
            transfers(&q1, &policy, &q2),
            TransferVerdict::NotDerivable(_)
        ));
    }

    #[test]
    fn transfer_diagnostics_render_r424_and_r425() {
        let q1 = triangle();
        let q2 = triangle_renamed();
        let policy = hc_policy_of(&q1, 42);
        let mut out = Vec::new();
        assert!(transfer_diagnostics(&q1, &policy, &q2, &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code.code(), "R424");

        let q3 = {
            let mut b = QueryBuilder::new("Q3");
            let (x, y) = (b.var("x"), b.var("y"));
            b.atom("V", [x, y]);
            b.build()
        };
        let mut out = Vec::new();
        assert!(!transfer_diagnostics(&q1, &policy, &q3, &mut out));
        assert_eq!(out[0].code.code(), "R425");
    }

    #[test]
    fn induced_pins_are_reexpressed_through_columns() {
        let q1 = triangle();
        let q2 = triangle_renamed();
        let policy = hc_policy_of(&q1, 42);
        let induced = induce_policy(&q1, &policy, &q2).expect("derivable");
        // Q1's R(x,y) pins dim 0 on x (col 0); Q2's R(a,c) must pin it
        // on a — Q2's variable at col 0 — through the same channel.
        let AtomRoute::Routed(pins) = &induced.routes[0] else {
            panic!("routed");
        };
        assert!(matches!(
            pins[0],
            Pin::Hash {
                var: VarId(0),
                family: Family::Dimension,
                ..
            }
        ));
    }
}
