//! Distribution policies and the parallel-correctness certifier.
//!
//! A *distribution policy* (Ameloot et al., "Parallel-Correctness and
//! Transferability for Conjunctive Queries") assigns every fact of every
//! atom a set of workers. A policy is **parallel-correct** for a
//! conjunctive query when, for every valuation of the query's variables,
//! at least one worker receives *all* the facts the valuation needs —
//! the condition under which "shuffle, then join locally, then union"
//! computes exactly the global join.
//!
//! This module models the engine's three shuffle strategies as explicit
//! [`Policy`] values over a grid of cells and decides parallel
//! correctness *statically*:
//!
//! * Symbolically first: the engine routes facts by hashing variable
//!   values through seeded hash functions ("channels"). Under
//!   hash-generic reasoning — the proof may not assume anything about a
//!   hash function except that equal inputs through equal channels give
//!   equal outputs — a policy is parallel-correct **iff** on every grid
//!   dimension of extent ≥ 2, all atoms pinned to that dimension hash
//!   the *same variable* through the *same channel* (with special rules
//!   for stationary fragments; see [`certify`]). A proof is returned as
//!   a [`Certificate`] listing the per-dimension obligations.
//! * When the symbolic criterion fails, a bounded concrete search over
//!   tiny value domains (using the engine's actual hash functions and
//!   the policy's actual seeds) looks for a **minimal counterexample
//!   valuation** — a concrete assignment whose required facts share no
//!   cell. Found counterexamples are real: replaying the engine's
//!   routing on them drops join results.
//!
//! The analyzer runs [`check`] as a standard pass (silent on correct
//! policies); the engine's `certify` plan option calls [`certify_spec`]
//! to attach the full R420 proof certificate to the run's diagnostics.

use crate::diagnostic::{DiagCode, Diagnostic};
use crate::spec::{PlanSpec, ShuffleKind};
use parjoin_common::hash;
use parjoin_core::hypercube::{AtomShape, HcConfig, ShareProblem};
use parjoin_query::VarId;

/// Identity of a hash function: the concrete seed handed to the engine's
/// hash family. Two pins agree on a hashed coordinate for *every*
/// valuation only when they hash the same variable through the same
/// channel (and the same [`Family`]).
pub type Channel = u64;

/// Which concrete hash family evaluates a pin. The regular shuffle
/// routes through `hash::bucket_row` over a one-value key; the
/// HyperCube shuffle routes each dimension through `hash::bucket`.
/// The two families disagree on the same (value, seed) pair, so the
/// certifier treats them as distinct even on equal channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// The HyperCube per-dimension family (`hash::bucket`).
    Dimension,
    /// The regular shuffle's key-row family (`hash::bucket_row`).
    KeyRow,
}

/// How one atom is routed along one grid dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// Replicated across every coordinate of this dimension.
    Free,
    /// Pinned to the hash bucket of the atom's value for `var`.
    Hash {
        /// The variable whose value is hashed.
        var: VarId,
        /// The seed identifying the hash function.
        channel: Channel,
        /// The concrete hash family.
        family: Family,
    },
    /// Pinned to the bucket of the *empty* key: a per-channel constant
    /// coordinate. This is the degenerate cartesian-step shuffle, which
    /// routes every tuple of both sides to one worker.
    Const {
        /// The seed identifying the hash function.
        channel: Channel,
    },
}

/// How one atom's facts are placed on the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomRoute {
    /// Routed through the grid: one [`Pin`] per dimension.
    Routed(Vec<Pin>),
    /// Left in its seeded placement: each fact lives on one *arbitrary*
    /// cell the policy does not control (the broadcast plan's
    /// partitioned fragment). Sound only when every other atom reaches
    /// every cell.
    Stationary,
}

/// A distribution policy for one query (or one shuffle round of one):
/// a grid of cells — the cross product of the dimension extents, mapped
/// injectively onto workers — plus a route per atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Extent (number of coordinates) of each grid dimension.
    pub dims: Vec<usize>,
    /// One route per atom, parallel to the query's atom list.
    pub routes: Vec<AtomRoute>,
    /// Human-readable description, e.g. `"hypercube 2x2x2"`.
    pub label: String,
}

impl Policy {
    /// Number of grid cells (the product of the dimension extents).
    pub fn num_cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// Structural validation: every routed atom needs one pin per
    /// dimension, pinned variables must belong to the atom (the engine
    /// computes coordinates from the atom's own columns), and extents
    /// must be positive. Violations are [`DiagCode::PolicyMalformed`].
    pub fn validate(&self, atom_vars: &[Vec<VarId>]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.routes.len() != atom_vars.len() {
            out.push(
                Diagnostic::error(
                    DiagCode::PolicyMalformed,
                    "policy routes do not cover the query's atoms",
                )
                .with("routes", self.routes.len())
                .with("atoms", atom_vars.len()),
            );
            return out;
        }
        for (d, &extent) in self.dims.iter().enumerate() {
            if extent == 0 {
                out.push(
                    Diagnostic::error(DiagCode::PolicyMalformed, "zero-extent grid dimension")
                        .with("dim", d),
                );
            }
        }
        for (i, route) in self.routes.iter().enumerate() {
            let AtomRoute::Routed(pins) = route else {
                continue;
            };
            if pins.len() != self.dims.len() {
                out.push(
                    Diagnostic::error(
                        DiagCode::PolicyMalformed,
                        "pin vector length does not match the grid dimensions",
                    )
                    .with("atom", i)
                    .with("pins", pins.len())
                    .with("dims", self.dims.len()),
                );
                continue;
            }
            for (d, pin) in pins.iter().enumerate() {
                if let Pin::Hash { var, .. } = pin {
                    if !atom_vars[i].contains(var) {
                        out.push(
                            Diagnostic::error(
                                DiagCode::PolicyMalformed,
                                "atom pinned on a variable it does not contain",
                            )
                            .with("atom", i)
                            .with("dim", d)
                            .with("var", format!("#{}", var.0)),
                        );
                    }
                }
            }
        }
        out
    }

    /// The concrete per-dimension coordinate of atom `i`'s fact under
    /// `value_of`, or `None` for stationary atoms / free dimensions
    /// (meaning "all coordinates").
    fn coords(&self, atom: usize, value_of: &dyn Fn(VarId) -> u64) -> Option<Vec<Option<usize>>> {
        match &self.routes[atom] {
            AtomRoute::Stationary => None,
            AtomRoute::Routed(pins) => Some(
                self.dims
                    .iter()
                    .zip(pins)
                    .map(|(&extent, pin)| match pin {
                        Pin::Free => None,
                        Pin::Hash {
                            var,
                            channel,
                            family,
                        } => Some(match family {
                            Family::Dimension => hash::bucket(value_of(*var), *channel, extent),
                            Family::KeyRow => hash::bucket_row(&[value_of(*var)], *channel, extent),
                        }),
                        Pin::Const { channel } => Some(hash::bucket_row(&[], *channel, extent)),
                    })
                    .collect(),
            ),
        }
    }
}

/// A parallel-correctness proof: one discharged obligation per grid
/// dimension (plus the stationary-fragment argument when one exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The policy the proof is about.
    pub policy: String,
    /// Human-readable proof obligations, one line each, in dimension
    /// order.
    pub obligations: Vec<String>,
}

/// A concrete valuation whose required facts share no worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Value assigned to each query variable (ascending variable id).
    pub valuation: Vec<(VarId, u64)>,
    /// Per-atom destination description under the valuation.
    pub atom_dests: Vec<String>,
    /// Which proof obligation failed.
    pub why: String,
}

impl Counterexample {
    /// The valuation as `x=0 y=1 …`, using `names` when provided.
    pub fn valuation_string(&self, names: Option<&[String]>) -> String {
        self.valuation
            .iter()
            .map(|(v, val)| format!("{}={val}", var_label(*v, names)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Outcome of certifying one (query, policy) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Proved parallel-correct for every valuation and every choice of
    /// hash functions.
    Certified(Certificate),
    /// Proved *not* parallel-correct, with a concrete minimal
    /// counterexample under the engine's actual hash routing.
    Refuted(Counterexample),
    /// The symbolic criterion failed but the bounded concrete search
    /// found no failing valuation (small-domain hash collisions can
    /// mask one). Not certified.
    Unproven {
        /// Which obligation failed symbolically.
        why: String,
    },
    /// The policy is structurally invalid (see [`Policy::validate`]).
    Malformed(Vec<Diagnostic>),
}

impl Verdict {
    /// True for [`Verdict::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, Verdict::Certified(_))
    }
}

fn var_label(v: VarId, names: Option<&[String]>) -> String {
    names
        .and_then(|ns| ns.get(v.index()))
        .filter(|n| !n.is_empty())
        .cloned()
        .unwrap_or_else(|| format!("#{}", v.0))
}

fn pin_label(pin: &Pin, names: Option<&[String]>) -> String {
    match pin {
        Pin::Free => "free".to_string(),
        Pin::Hash { var, channel, .. } => {
            format!("h[{channel:#x}]({})", var_label(*var, names))
        }
        Pin::Const { channel } => format!("const[{channel:#x}]"),
    }
}

/// Decides parallel-correctness of `policy` for a query given as its
/// per-atom variable lists. `names` (indexed by variable id) is used for
/// human-readable obligations and counterexamples.
///
/// The decision is exact under hash-generic semantics:
///
/// * **Stationary fragments.** A stationary atom's fact sits on one
///   arbitrary cell, so with ≥ 2 cells it only ever meets atoms that
///   reach *every* cell; two stationary atoms can always be seeded
///   apart. (A single-cell grid is trivially correct.)
/// * **Routed atoms.** Destination sets are per-dimension products, so
///   the intersection over atoms is non-empty iff it is non-empty on
///   every dimension. On a dimension of extent ≥ 2, pinned coordinates
///   agree for every valuation iff all pins hash the same variable
///   through the same channel and family — the proof obligation the
///   certificate records. Free pins cover all coordinates.
///
/// When an obligation fails, a bounded concrete search (domains of
/// growing size, lexicographic valuations, the policy's actual seeds)
/// looks for a minimal real counterexample; if hash collisions mask
/// every candidate the verdict degrades to [`Verdict::Unproven`].
pub fn certify(atom_vars: &[Vec<VarId>], policy: &Policy, names: Option<&[String]>) -> Verdict {
    let diags = policy.validate(atom_vars);
    if !diags.is_empty() {
        return Verdict::Malformed(diags);
    }
    let cells = policy.num_cells();
    if cells <= 1 {
        return Verdict::Certified(Certificate {
            policy: policy.label.clone(),
            obligations: vec!["single cell: every fact lands on worker 0".to_string()],
        });
    }

    let stationary: Vec<usize> = policy
        .routes
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, AtomRoute::Stationary))
        .map(|(i, _)| i)
        .collect();
    let mut obligations = Vec::new();
    if stationary.len() >= 2 {
        let why = format!(
            "atoms {} and {} are both stationary: their facts can be seeded on \
             different workers",
            stationary[0], stationary[1]
        );
        return Verdict::Refuted(adversarial_counterexample(atom_vars, policy, names, why));
    }
    if let [st] = stationary[..] {
        for (i, route) in policy.routes.iter().enumerate() {
            let AtomRoute::Routed(pins) = route else {
                continue;
            };
            if let Some((d, pin)) = policy
                .dims
                .iter()
                .zip(pins)
                .enumerate()
                .find(|(_, (&extent, pin))| extent >= 2 && !matches!(pin, Pin::Free))
                .map(|(d, (_, pin))| (d, pin))
            {
                let why = format!(
                    "atom {st} is stationary but atom {i} pins dimension {d} \
                     ({}) instead of replicating: the stationary fact can be \
                     seeded on a cell atom {i} never reaches",
                    pin_label(pin, names)
                );
                return Verdict::Refuted(adversarial_counterexample(atom_vars, policy, names, why));
            }
        }
        obligations.push(format!(
            "atom {st} stays in place; every other atom replicates to all {cells} cells"
        ));
        return Verdict::Certified(Certificate {
            policy: policy.label.clone(),
            obligations,
        });
    }

    // All atoms routed: check the per-dimension agreement obligations.
    for (d, &extent) in policy.dims.iter().enumerate() {
        if extent < 2 {
            obligations.push(format!("dim {d}: extent {extent}, trivially agrees"));
            continue;
        }
        let pinned: Vec<(usize, &Pin)> = policy
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                AtomRoute::Routed(pins) => match &pins[d] {
                    Pin::Free => None,
                    p => Some((i, p)),
                },
                AtomRoute::Stationary => None,
            })
            .collect();
        let Some(&(first_atom, first)) = pinned.first() else {
            obligations.push(format!(
                "dim {d}: unpinned, every atom replicates across its {extent} coordinates"
            ));
            continue;
        };
        if let Some(&(other_atom, other)) = pinned.iter().find(|(_, p)| *p != first) {
            let why = format!(
                "dim {d}: atom {first_atom} routes by {} but atom {other_atom} \
                 routes by {} — their coordinates can disagree",
                pin_label(first, names),
                pin_label(other, names)
            );
            return match find_counterexample(atom_vars, policy, names) {
                Some(mut cex) => {
                    cex.why = why;
                    Verdict::Refuted(cex)
                }
                None => Verdict::Unproven { why },
            };
        }
        obligations.push(format!(
            "dim {d}: atoms {{{}}} all route by {}; the rest replicate",
            pinned
                .iter()
                .map(|(i, _)| i.to_string())
                .collect::<Vec<_>>()
                .join(","),
            pin_label(first, names)
        ));
    }
    Verdict::Certified(Certificate {
        policy: policy.label.clone(),
        obligations,
    })
}

/// Counterexample for stationary-atom failures: the facts' placement is
/// chosen by the *seeding*, not the valuation, so any valuation works —
/// report the all-zeros one with the adversarial-placement argument.
fn adversarial_counterexample(
    atom_vars: &[Vec<VarId>],
    policy: &Policy,
    names: Option<&[String]>,
    why: String,
) -> Counterexample {
    let vars = all_vars(atom_vars);
    let valuation: Vec<(VarId, u64)> = vars.iter().map(|&v| (v, 0)).collect();
    let atom_dests = describe_dests(atom_vars, policy, &|_| 0);
    let _ = names;
    Counterexample {
        valuation,
        atom_dests,
        why,
    }
}

fn all_vars(atom_vars: &[Vec<VarId>]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = Vec::new();
    for avs in atom_vars {
        for &v in avs {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars.sort_unstable_by_key(|v| v.0);
    vars
}

fn describe_dests(
    atom_vars: &[Vec<VarId>],
    policy: &Policy,
    value_of: &dyn Fn(VarId) -> u64,
) -> Vec<String> {
    (0..atom_vars.len())
        .map(|i| match policy.coords(i, value_of) {
            None => format!("atom {i}: one arbitrary cell (stationary)"),
            Some(cs) => {
                let coords: Vec<String> = cs
                    .iter()
                    .map(|c| c.map_or_else(|| "*".to_string(), |c| c.to_string()))
                    .collect();
                format!("atom {i}: cells ({})", coords.join(","))
            }
        })
        .collect()
}

/// Iteration budget for the concrete search, counted in valuations.
/// Symbolic failures almost always yield a disagreement within the
/// first few valuations of the first domain; the budget only bounds
/// pathological hash-collision chains.
const SEARCH_BUDGET: usize = 1 << 17;

/// Searches for a concrete valuation whose facts share no cell under
/// the policy's actual routing, growing the value domain `{0..D}` from
/// 2 upward and enumerating valuations lexicographically — the first
/// hit is minimal in (domain size, lexicographic) order.
fn find_counterexample(
    atom_vars: &[Vec<VarId>],
    policy: &Policy,
    names: Option<&[String]>,
) -> Option<Counterexample> {
    let vars = all_vars(atom_vars);
    let n = vars.len();
    if n == 0 {
        return None;
    }
    let mut budget = SEARCH_BUDGET;
    for domain in 2u64..=64 {
        let mut vals = vec![0u64; n];
        loop {
            if budget == 0 {
                return None;
            }
            // Valuations whose values all fit a smaller domain were
            // already enumerated under it — step past without spending
            // budget on a re-test.
            if domain == 2 || vals.contains(&(domain - 1)) {
                budget -= 1;
                let value_of =
                    |v: VarId| vals[vars.iter().position(|&x| x == v).unwrap_or_default()];
                if !colocated(atom_vars, policy, &value_of) {
                    let valuation = vars.iter().copied().zip(vals.iter().copied()).collect();
                    let atom_dests = describe_dests(atom_vars, policy, &value_of);
                    let _ = names;
                    return Some(Counterexample {
                        valuation,
                        atom_dests,
                        why: String::new(),
                    });
                }
            }
            // Odometer step.
            let mut k = n;
            loop {
                if k == 0 {
                    break;
                }
                k -= 1;
                vals[k] += 1;
                if vals[k] < domain {
                    break;
                }
                vals[k] = 0;
            }
            if vals.iter().all(|&v| v == 0) {
                break;
            }
        }
    }
    None
}

/// True when some cell receives every atom's fact under `value_of`.
/// Stationary atoms make this vacuously false unless everything else
/// covers all cells — callers handle those before searching.
fn colocated(atom_vars: &[Vec<VarId>], policy: &Policy, value_of: &dyn Fn(VarId) -> u64) -> bool {
    // The intersection of per-dimension product sets is non-empty iff
    // every dimension's coordinate sets intersect.
    for d in 0..policy.dims.len() {
        let mut fixed: Option<usize> = None;
        for i in 0..atom_vars.len() {
            let Some(cs) = policy.coords(i, value_of) else {
                return false; // stationary: adversarial placement misses
            };
            if let Some(c) = cs[d] {
                match fixed {
                    None => fixed = Some(c),
                    Some(f) if f != c => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

// --- Constructors mirroring the engine's shuffles. -----------------------

/// The policy of one regular-shuffle join step: both sides hash the
/// step's single shuffle key (the engine's `shared.last()`) through the
/// join-key channel onto a 1-dimensional grid of `workers` cells. An
/// empty key (cartesian step) degenerates to a per-channel constant.
pub fn regular_step_policy(key: Option<VarId>, workers: usize, base_seed: u64) -> Policy {
    let pin = match key {
        Some(v) => Pin::Hash {
            var: v,
            channel: hash::key_seed(base_seed, &[u64::from(v.0)]),
            family: Family::KeyRow,
        },
        None => Pin::Const {
            channel: hash::key_seed(base_seed, &[]),
        },
    };
    Policy {
        dims: vec![workers],
        routes: vec![AtomRoute::Routed(vec![pin]); 2],
        label: match key {
            Some(v) => format!("regular: both sides ->h(#{})", v.0),
            None => "regular: cartesian step (single worker)".to_string(),
        },
    }
}

/// The broadcast policy: atom `stationary` keeps its seeded partition,
/// every other atom is replicated to all `workers` cells.
pub fn broadcast_policy(n_atoms: usize, stationary: usize, workers: usize) -> Policy {
    let routes = (0..n_atoms)
        .map(|i| {
            if i == stationary {
                AtomRoute::Stationary
            } else {
                AtomRoute::Routed(vec![Pin::Free])
            }
        })
        .collect();
    Policy {
        dims: vec![workers],
        routes,
        label: format!("broadcast (atom {stationary} stays partitioned)"),
    }
}

/// The HyperCube policy of `config`: one grid dimension per configured
/// variable; an atom pins every dimension whose variable it contains
/// (hashed through that dimension's seed) and replicates across the
/// rest — exactly the engine's `hypercube_via` routing.
pub fn hypercube_policy(atom_vars: &[Vec<VarId>], config: &HcConfig, base_seed: u64) -> Policy {
    let routes = atom_vars
        .iter()
        .map(|avs| {
            AtomRoute::Routed(
                config
                    .vars()
                    .iter()
                    .enumerate()
                    .map(|(d, v)| {
                        if avs.contains(v) {
                            Pin::Hash {
                                var: *v,
                                channel: hash::dimension_seed(base_seed, d),
                                family: Family::Dimension,
                            }
                        } else {
                            Pin::Free
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    Policy {
        dims: config.dims().to_vec(),
        routes,
        label: format!(
            "hypercube {}",
            config
                .dims()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("x")
        ),
    }
}

// --- Spec-level certification. -------------------------------------------

/// One certification unit: a (sub)query given by atom variable lists and
/// the policy of its communication round. Regular plans produce one
/// unit per binary join step; one-round plans produce a single unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Human-readable step description.
    pub label: String,
    /// Variable lists of the unit's atoms.
    pub atom_vars: Vec<Vec<VarId>>,
    /// The round's distribution policy.
    pub policy: Policy,
}

/// The full distribution policy of a plan: one [`Unit`] per
/// communication round.
#[derive(Debug, Clone)]
pub struct PlannedPolicy {
    /// Overall policy description.
    pub label: String,
    /// The rounds, in execution order.
    pub units: Vec<Unit>,
}

/// Derives the plan's distribution policy from a [`PlanSpec`], mirroring
/// exactly what the engine executes: the regular plan's per-step shuffle
/// keys (last shared variable of the effective join order), the
/// broadcast plan's largest-cardinality stationary atom, the HyperCube
/// plan's explicit or share-optimized configuration. Returns `None`
/// when the policy is not derivable from the spec alone (a HyperCube
/// plan with neither an explicit config nor cardinalities, an oversized
/// config, or a malformed join order — other passes reject those).
pub fn planned_policy(spec: &PlanSpec<'_>) -> Option<PlannedPolicy> {
    let atom_vars = spec.atom_vars();
    let n = atom_vars.len();
    if n == 0 {
        return None;
    }
    match spec.shuffle {
        ShuffleKind::Regular => {
            let order: Vec<usize> = match &spec.join_order {
                Some(o) => o.clone(),
                None => (0..n).collect(),
            };
            if order.len() != n || order.iter().any(|&i| i >= n) {
                return None;
            }
            let mut units = Vec::new();
            let mut cur: Vec<VarId> = atom_vars[order[0]].clone();
            for (step, &ai) in order[1..].iter().enumerate() {
                let next = &atom_vars[ai];
                let shared: Vec<VarId> = cur.iter().copied().filter(|v| next.contains(v)).collect();
                let key = shared.last().copied();
                units.push(Unit {
                    label: format!(
                        "step {}: join atom {ai} on {}",
                        step + 1,
                        key.map_or_else(|| "<empty key>".to_string(), |v| format!("#{}", v.0))
                    ),
                    atom_vars: vec![cur.clone(), next.clone()],
                    policy: regular_step_policy(key, spec.workers, spec.seed),
                });
                // Mirror the engine's join output schema: left vars,
                // then right-only vars in the right atom's order.
                for &v in next {
                    if !cur.contains(&v) {
                        cur.push(v);
                    }
                }
            }
            Some(PlannedPolicy {
                label: format!("regular ({} step(s))", units.len()),
                units,
            })
        }
        ShuffleKind::Broadcast => {
            // Mirror the engine: the last index of maximal cardinality
            // stays partitioned (`max_by_key` returns the last max).
            let stationary = if spec.cards.len() == n {
                (0..n).max_by_key(|&i| spec.cards[i])?
            } else {
                0
            };
            let policy = broadcast_policy(n, stationary, spec.workers);
            Some(PlannedPolicy {
                label: policy.label.clone(),
                units: vec![Unit {
                    label: "one round".to_string(),
                    atom_vars,
                    policy,
                }],
            })
        }
        ShuffleKind::HyperCube => {
            let config = match &spec.hc_config {
                Some(c) => c.clone(),
                None if spec.cards.len() == n => {
                    let problem = ShareProblem {
                        vars: spec.query.all_vars(),
                        atoms: atom_vars
                            .iter()
                            .zip(&spec.cards)
                            .map(|(vs, &c)| AtomShape {
                                vars: vs.clone(),
                                cardinality: c,
                            })
                            .collect(),
                    };
                    problem.optimize(spec.workers)
                }
                None => return None,
            };
            if config.num_cells() > spec.workers || config.dims().contains(&0) {
                return None;
            }
            let policy = hypercube_policy(&atom_vars, &config, spec.seed);
            Some(PlannedPolicy {
                label: policy.label.clone(),
                units: vec![Unit {
                    label: "one round".to_string(),
                    atom_vars,
                    policy,
                }],
            })
        }
    }
}

fn spec_names(spec: &PlanSpec<'_>) -> Vec<String> {
    (0..spec.query.num_vars())
        .map(|i| spec.var_name(VarId(i as u32)))
        .collect()
}

/// Analyzer pass: derives the plan's policy and emits diagnostics only
/// for *negative* verdicts (counterexample, unproven, malformed) — a
/// certified policy stays silent, so clean plans keep producing zero
/// diagnostics. The engine's own plan shapes always certify; this pass
/// guards future policy constructors and hand-built specs.
pub fn check(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let Some(planned) = planned_policy(spec) else {
        return;
    };
    let names = spec_names(spec);
    for unit in &planned.units {
        push_negative_verdict(
            certify(&unit.atom_vars, &unit.policy, Some(&names)),
            &unit.label,
            Some(&names),
            out,
        );
    }
}

/// Converts a negative [`Verdict`] into diagnostics; certified verdicts
/// emit nothing. Returns `true` when the verdict was certified.
pub fn push_negative_verdict(
    verdict: Verdict,
    unit_label: &str,
    names: Option<&[String]>,
    out: &mut Vec<Diagnostic>,
) -> bool {
    match verdict {
        Verdict::Certified(_) => true,
        Verdict::Refuted(cex) => {
            let mut d = Diagnostic::error(
                DiagCode::PolicyCounterexample,
                format!(
                    "distribution policy is not parallel-correct: valuation \
                     [{}] places facts on disjoint workers",
                    cex.valuation_string(names)
                ),
            )
            .with("unit", unit_label)
            .with("valuation", cex.valuation_string(names))
            .with("why", &cex.why);
            for dest in &cex.atom_dests {
                d = d.with("dest", dest);
            }
            out.push(d);
            false
        }
        Verdict::Unproven { why } => {
            out.push(
                Diagnostic::warning(
                    DiagCode::PolicyUnproven,
                    "distribution policy failed the symbolic parallel-correctness \
                     criterion and no concrete counterexample was found within the \
                     search budget; the plan is not certified",
                )
                .with("unit", unit_label)
                .with("why", why),
            );
            false
        }
        Verdict::Malformed(diags) => {
            out.extend(diags);
            false
        }
    }
}

/// Explicit certification mode (the engine's `certify` plan option):
/// certifies every unit of the plan's policy and returns either a
/// single [`DiagCode::PolicyCertified`] info diagnostic carrying the
/// proof certificate, or the negative diagnostics.
pub fn certify_spec(spec: &PlanSpec<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(planned) = planned_policy(spec) else {
        out.push(
            Diagnostic::warning(
                DiagCode::PolicyUnproven,
                "plan policy is not derivable from the spec (missing cardinalities \
                 or configuration); nothing to certify",
            )
            .with("shuffle", format!("{:?}", spec.shuffle)),
        );
        return out;
    };
    let names = spec_names(spec);
    let mut cert = Diagnostic::info(
        DiagCode::PolicyCertified,
        format!(
            "distribution policy is parallel-correct for {} ({})",
            spec.query.name, planned.label
        ),
    )
    .with("policy", &planned.label)
    .with("units", planned.units.len());
    let mut all_certified = true;
    for (k, unit) in planned.units.iter().enumerate() {
        match certify(&unit.atom_vars, &unit.policy, Some(&names)) {
            Verdict::Certified(c) => {
                cert = cert.with(
                    format!("proof[{k}]"),
                    format!("{}: {}", unit.label, c.obligations.join("; ")),
                );
            }
            other => {
                all_certified = false;
                push_negative_verdict(other, &unit.label, Some(&names), &mut out);
            }
        }
    }
    if all_certified {
        out.push(cert);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JoinKind, PlanSpec, ShuffleKind};
    use parjoin_query::{ConjunctiveQuery, QueryBuilder};

    fn triangle() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("Triangle");
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", [x, y]).atom("S", [y, z]).atom("T", [z, x]);
        b.build()
    }

    fn triangle_atom_vars() -> Vec<Vec<VarId>> {
        triangle().atoms.iter().map(|a| a.vars()).collect()
    }

    #[test]
    fn hypercube_triangle_certifies() {
        let q = triangle();
        let av = triangle_atom_vars();
        let config = HcConfig::new(q.all_vars(), vec![2, 2, 2]);
        let policy = hypercube_policy(&av, &config, 42);
        let v = certify(&av, &policy, None);
        assert!(v.is_certified(), "expected certificate, got {v:?}");
        let Verdict::Certified(c) = v else {
            unreachable!()
        };
        assert_eq!(c.obligations.len(), 3, "one obligation per dim: {c:?}");
    }

    #[test]
    fn regular_step_certifies() {
        let x = VarId(0);
        let av = vec![vec![VarId(1), x], vec![x, VarId(2)]];
        let policy = regular_step_policy(Some(x), 8, 7);
        assert!(certify(&av, &policy, None).is_certified());
    }

    #[test]
    fn cartesian_step_certifies_on_single_worker_route() {
        let av = vec![vec![VarId(0)], vec![VarId(1)]];
        let policy = regular_step_policy(None, 8, 7);
        assert!(certify(&av, &policy, None).is_certified());
    }

    #[test]
    fn broadcast_certifies() {
        let av = triangle_atom_vars();
        let policy = broadcast_policy(3, 1, 8);
        let v = certify(&av, &policy, None);
        assert!(v.is_certified(), "{v:?}");
    }

    #[test]
    fn two_stationary_atoms_refuted() {
        let av = triangle_atom_vars();
        let mut policy = broadcast_policy(3, 1, 8);
        policy.routes[2] = AtomRoute::Stationary;
        let v = certify(&av, &policy, None);
        assert!(matches!(v, Verdict::Refuted(_)), "{v:?}");
    }

    #[test]
    fn stationary_plus_pinned_refuted() {
        let av = triangle_atom_vars();
        let mut policy = broadcast_policy(3, 1, 8);
        // Atom 0 hash-partitions instead of replicating: the stationary
        // fragment of atom 1 can sit on a cell atom 0 never reaches.
        policy.routes[0] = AtomRoute::Routed(vec![Pin::Hash {
            var: VarId(0),
            channel: 99,
            family: Family::KeyRow,
        }]);
        let v = certify(&av, &policy, None);
        assert!(matches!(v, Verdict::Refuted(_)), "{v:?}");
    }

    #[test]
    fn miswired_channels_yield_concrete_counterexample() {
        // Both sides claim to partition on the shared variable but
        // through different channels — the classic mis-seeded shuffle.
        let x = VarId(0);
        let av = vec![vec![x, VarId(1)], vec![x, VarId(2)]];
        let policy = Policy {
            dims: vec![8],
            routes: vec![
                AtomRoute::Routed(vec![Pin::Hash {
                    var: x,
                    channel: hash::key_seed(1, &[0]),
                    family: Family::KeyRow,
                }]),
                AtomRoute::Routed(vec![Pin::Hash {
                    var: x,
                    channel: hash::key_seed(2, &[0]),
                    family: Family::KeyRow,
                }]),
            ],
            label: "miswired regular".to_string(),
        };
        let v = certify(&av, &policy, None);
        let Verdict::Refuted(cex) = v else {
            panic!("expected a counterexample, got {v:?}");
        };
        // The counterexample must concretely fail under the actual hashes.
        let val = |q: VarId| {
            cex.valuation
                .iter()
                .find(|(v, _)| *v == q)
                .map(|(_, x)| *x)
                .unwrap()
        };
        let a = hash::bucket_row(&[val(x)], hash::key_seed(1, &[0]), 8);
        let b = hash::bucket_row(&[val(x)], hash::key_seed(2, &[0]), 8);
        assert_ne!(a, b, "counterexample does not actually disagree");
    }

    #[test]
    fn mismatched_vars_on_one_dim_refuted_or_unproven() {
        // Two atoms pin the same dimension on *different* variables.
        let av = vec![vec![VarId(0), VarId(1)], vec![VarId(1), VarId(2)]];
        let policy = Policy {
            dims: vec![4],
            routes: vec![
                AtomRoute::Routed(vec![Pin::Hash {
                    var: VarId(0),
                    channel: 7,
                    family: Family::Dimension,
                }]),
                AtomRoute::Routed(vec![Pin::Hash {
                    var: VarId(2),
                    channel: 7,
                    family: Family::Dimension,
                }]),
            ],
            label: "crossed pins".to_string(),
        };
        match certify(&av, &policy, None) {
            Verdict::Refuted(_) | Verdict::Unproven { .. } => {}
            v => panic!("must not certify: {v:?}"),
        }
    }

    #[test]
    fn family_mismatch_is_not_certified() {
        // Same variable, same channel, different hash family: the two
        // concrete hash functions disagree, so no certificate.
        let x = VarId(0);
        let av = vec![vec![x], vec![x]];
        let policy = Policy {
            dims: vec![8],
            routes: vec![
                AtomRoute::Routed(vec![Pin::Hash {
                    var: x,
                    channel: 7,
                    family: Family::Dimension,
                }]),
                AtomRoute::Routed(vec![Pin::Hash {
                    var: x,
                    channel: 7,
                    family: Family::KeyRow,
                }]),
            ],
            label: "family mismatch".to_string(),
        };
        match certify(&av, &policy, None) {
            Verdict::Refuted(_) | Verdict::Unproven { .. } => {}
            v => panic!("must not certify: {v:?}"),
        }
    }

    #[test]
    fn malformed_pin_reports_r423() {
        let av = vec![vec![VarId(0)], vec![VarId(1)]];
        let policy = Policy {
            dims: vec![4],
            routes: vec![
                AtomRoute::Routed(vec![Pin::Hash {
                    var: VarId(1), // not in atom 0
                    channel: 7,
                    family: Family::Dimension,
                }]),
                AtomRoute::Routed(vec![Pin::Free]),
            ],
            label: "bad pin".to_string(),
        };
        let Verdict::Malformed(diags) = certify(&av, &policy, None) else {
            panic!("expected malformed");
        };
        assert!(diags.iter().all(|d| d.code == DiagCode::PolicyMalformed));
    }

    #[test]
    fn single_cell_grid_trivially_certifies() {
        let av = triangle_atom_vars();
        let policy = Policy {
            dims: vec![1],
            routes: vec![AtomRoute::Routed(vec![Pin::Free]); 3],
            label: "one worker".to_string(),
        };
        assert!(certify(&av, &policy, None).is_certified());
    }

    #[test]
    fn planned_policy_mirrors_all_three_shuffles() {
        let q = triangle();
        let reg = PlanSpec::new(&q, 8, ShuffleKind::Regular, JoinKind::Hash);
        let p = planned_policy(&reg).expect("regular derivable");
        assert_eq!(p.units.len(), 2, "two binary steps");
        let br = PlanSpec::new(&q, 8, ShuffleKind::Broadcast, JoinKind::Hash)
            .with_cards(vec![100, 300, 200]);
        let p = planned_policy(&br).expect("broadcast derivable");
        assert!(matches!(p.units[0].policy.routes[1], AtomRoute::Stationary));
        let hc = PlanSpec::new(&q, 8, ShuffleKind::HyperCube, JoinKind::Hash)
            .with_cards(vec![100, 100, 100]);
        assert!(planned_policy(&hc).is_some(), "share-optimized derivable");
    }

    #[test]
    fn certify_spec_emits_r420_for_all_shuffles() {
        let q = triangle();
        for shuffle in [
            ShuffleKind::Regular,
            ShuffleKind::Broadcast,
            ShuffleKind::HyperCube,
        ] {
            let spec = PlanSpec::new(&q, 8, shuffle, JoinKind::Hash)
                .with_cards(vec![100, 100, 100])
                .with_seed(1234);
            let diags = certify_spec(&spec);
            assert_eq!(diags.len(), 1, "{shuffle:?}: {diags:?}");
            assert_eq!(diags[0].code, DiagCode::PolicyCertified);
            assert_eq!(diags[0].code.code(), "R420");
        }
    }
}
