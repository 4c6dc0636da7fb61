//! Property tests for the parallel-correctness certifier: the symbolic
//! verdicts of [`parjoin_analyze::policy::certify`] are checked against
//! a brute-force oracle that enumerates *every* valuation over a tiny
//! value domain and routes each fact through the engine's actual hash
//! functions (`parjoin_common::hash`).
//!
//! The oracle is deliberately re-derived from first principles rather
//! than shared with the analyzer: a policy is parallel-correct iff for
//! each valuation some grid cell receives every atom's fact, where a
//! pinned coordinate is whatever `hash::bucket` / `hash::bucket_row`
//! actually computes, a free coordinate reaches everything, and a
//! stationary fragment sits on one adversarially chosen cell.

use parjoin_analyze::policy::{certify, AtomRoute, Family, Pin, Policy, Verdict};
use parjoin_common::hash;
use parjoin_query::VarId;
use proptest::prelude::*;

/// Deterministic cursor over a vector of random words; all structure
/// (query shape, grid, pins) is derived from it so a failing case is
/// fully reproducible from the printed words.
struct Draw<'a> {
    words: &'a [u64],
    i: usize,
}

impl<'a> Draw<'a> {
    fn new(words: &'a [u64]) -> Self {
        Draw { words, i: 0 }
    }

    fn next(&mut self) -> u64 {
        let w = self.words[self.i % self.words.len()];
        self.i += 1;
        // Decorrelate wrap-around reuse of the same word.
        w.rotate_left((self.i % 63) as u32)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Hash channels drawn by generated pins. Only three, so that distinct
/// atoms frequently share a channel (the certifiable case) *and*
/// frequently disagree (the refutable case).
const CHANNELS: [u64; 3] = [0x1111, 0x2222, 0x3333];

/// A generated conjunctive-query body: per-atom distinct variable lists
/// over a pool of at most four variables.
fn gen_atom_vars(d: &mut Draw) -> Vec<Vec<VarId>> {
    let n_atoms = 1 + d.below(3) as usize;
    (0..n_atoms)
        .map(|_| {
            let arity = 1 + d.below(3);
            let mut vars: Vec<VarId> = Vec::new();
            for _ in 0..arity {
                let v = VarId(d.below(4) as u32);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars
        })
        .collect()
}

/// A structurally valid (but often parallel-incorrect) policy for the
/// given query body: a 1–2 dimensional grid with extents 1–3 and a
/// random mix of free, hashed, constant, and stationary routes.
fn gen_policy(atom_vars: &[Vec<VarId>], d: &mut Draw) -> Policy {
    let n_dims = 1 + d.below(2) as usize;
    let dims: Vec<usize> = (0..n_dims).map(|_| 1 + d.below(3) as usize).collect();
    let routes = atom_vars
        .iter()
        .map(|vars| {
            if d.below(8) == 0 {
                return AtomRoute::Stationary;
            }
            AtomRoute::Routed(
                dims.iter()
                    .map(|_| match d.below(4) {
                        0 => Pin::Free,
                        1 => Pin::Const {
                            channel: CHANNELS[d.below(3) as usize],
                        },
                        _ => Pin::Hash {
                            var: vars[d.below(vars.len() as u64) as usize],
                            channel: CHANNELS[d.below(3) as usize],
                            family: if d.below(2) == 0 {
                                Family::Dimension
                            } else {
                                Family::KeyRow
                            },
                        },
                    })
                    .collect(),
            )
        })
        .collect();
    Policy {
        dims,
        routes,
        label: "generated".to_string(),
    }
}

/// The concrete grid coordinate a pin routes to, through the engine's
/// actual hash functions — `None` for a replicated (free) coordinate.
fn concrete_coord(pin: &Pin, extent: usize, value_of: &dyn Fn(VarId) -> u64) -> Option<usize> {
    match pin {
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
    }
}

/// Brute-force ground truth for one valuation: does some cell receive
/// every atom's fact? Routed atoms reach the product of their per-dim
/// coordinate sets; a stationary atom's fact sits on one adversarially
/// chosen cell, so it only ever co-locates when the other atoms' common
/// reach covers the whole grid (and two stationary atoms never do on a
/// multi-cell grid).
fn oracle_colocated(policy: &Policy, value_of: &dyn Fn(VarId) -> u64) -> bool {
    let stationary = policy
        .routes
        .iter()
        .filter(|r| matches!(r, AtomRoute::Stationary))
        .count();
    if policy.num_cells() <= 1 {
        return true;
    }
    if stationary >= 2 {
        return false;
    }
    // Per-dimension intersection of the routed atoms' coordinate sets.
    let mut full_cover = true;
    let mut nonempty = true;
    for (dim, &extent) in policy.dims.iter().enumerate() {
        let mut inter: Vec<usize> = (0..extent).collect();
        for route in &policy.routes {
            let AtomRoute::Routed(pins) = route else {
                continue;
            };
            if let Some(c) = concrete_coord(&pins[dim], extent, value_of) {
                inter.retain(|&x| x == c);
            }
        }
        if inter.len() < extent {
            full_cover = false;
        }
        if inter.is_empty() {
            nonempty = false;
        }
    }
    if stationary == 1 {
        // The adversary picks the stationary fact's cell; the routed
        // atoms must reach every cell to be safe.
        full_cover
    } else {
        nonempty
    }
}

/// All query variables, in first-occurrence order.
fn all_vars(atom_vars: &[Vec<VarId>]) -> Vec<VarId> {
    let mut out: Vec<VarId> = Vec::new();
    for vars in atom_vars {
        for &v in vars {
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

/// Runs `f` over every valuation of `vars` into `{0, .., domain-1}`.
fn for_each_valuation(vars: &[VarId], domain: u64, mut f: impl FnMut(&dyn Fn(VarId) -> u64)) {
    let n = vars.len();
    let mut vals = vec![0u64; n];
    loop {
        {
            let vals = &vals;
            let value_of = move |v: VarId| vars.iter().position(|&x| x == v).map_or(0, |i| vals[i]);
            f(&value_of);
        }
        let mut k = n;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            vals[k] += 1;
            if vals[k] < domain {
                break;
            }
            vals[k] = 0;
        }
    }
}

/// Checks one (query, policy) pair against the brute-force oracle.
fn check_verdict_against_oracle(atom_vars: &[Vec<VarId>], policy: &Policy) {
    match certify(atom_vars, policy, None) {
        Verdict::Certified(cert) => {
            // Soundness: a certificate claims *every* valuation
            // co-locates; the oracle enumerates all of them over a
            // domain big enough to exercise each bucket.
            for_each_valuation(&all_vars(atom_vars), 3, |value_of| {
                assert!(
                    oracle_colocated(policy, value_of),
                    "certified policy fails concretely: {policy:?} cert={cert:?}"
                );
            });
        }
        Verdict::Refuted(cex) => {
            // A counterexample must *actually* fail under the engine's
            // hash functions — not merely fail the symbolic check.
            let value_of = |v: VarId| {
                cex.valuation
                    .iter()
                    .find(|(x, _)| *x == v)
                    .map_or(0, |(_, val)| *val)
            };
            assert!(
                !oracle_colocated(policy, &value_of),
                "counterexample does not refute: {policy:?} cex={cex:?}"
            );
        }
        Verdict::Unproven { .. } => {} // explicitly makes no claim
        Verdict::Malformed(diags) => {
            panic!("generator produced a malformed policy: {diags:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn certifier_matches_brute_force(words in proptest::collection::vec(any::<u64>(), 24)) {
        let mut d = Draw::new(&words);
        let atom_vars = gen_atom_vars(&mut d);
        let policy = gen_policy(&atom_vars, &mut d);
        check_verdict_against_oracle(&atom_vars, &policy);
    }
}
