//! Plan fragments: the per-rank slice of a distributed plan that the
//! coordinator serializes and ships to each worker process.
//!
//! A [`Fragment`] carries everything a worker needs to execute its
//! share of one shuffle×join configuration *without* a database, a
//! catalog, or an optimizer of its own: every global plan decision
//! (effective join order, Tributary variable order, HyperCube shares,
//! probe-thread count) is made **once**, by the same `plans::plan` that
//! `run_config` executes, and [`plan_fragments`] only slices that plan
//! per rank. [`execute_fragment`] feeds the decisions back into the same
//! executor over the rank's one hosted partition, so all ranks run the
//! same deterministic step sequence in lockstep and the multi-process
//! result is byte-identical to the single-process `Transport::Local`
//! run. The only things a worker recomputes are pure functions of the
//! query itself (residual filters, join schemas).
//!
//! The wire form rides inside a `Fragment` control frame of the PJCP
//! protocol (`parjoin_common::wire::control`): little-endian fixed-width
//! scalars, length-prefixed strings and lists, and relations encoded
//! with the same batch frame the data plane uses. [`Fragment::decode`]
//! refuses truncated, malformed, or trailing-garbage payloads with
//! typed [`ControlError`]s — and every decoded fragment is re-vetted by
//! [`Fragment::preflight`] before a single tuple moves.

use crate::cluster::Cluster;
use crate::dist::DistRel;
use crate::error::EngineError;
use crate::plans::{
    self, check_order, Exec, JoinAlg, Plan, PlanOptions, RunObs, ShuffleAlg, TrieLayout,
};
use crate::probe;
use crate::shuffle::Seam;
use parjoin_analyze as analyze;
use parjoin_common::wire::control::{self, ControlError, PayloadReader};
use parjoin_common::wire::{decode_frame_into, encode_vectored, frame_bytes};
use parjoin_common::{Relation, WireFormat};
use parjoin_core::hypercube::HcConfig;
use parjoin_query::{Atom, CmpOp, ConjunctiveQuery, Filter, Operand, Term, VarId};
use parjoin_runtime::exchange::ExchangeOpts;
use parjoin_runtime::{HostMesh, Runtime, TransportKind};
use std::time::Duration;

/// One rank's share of a distributed plan, self-contained and
/// serializable. See the module docs for the lockstep contract.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// This worker's rank in `0..workers`.
    pub rank: u32,
    /// Mesh width (number of worker processes).
    pub workers: u32,
    /// The cluster's hash seed — all ranks must agree or shuffles
    /// scatter joining tuples apart.
    pub seed: u64,
    /// Shuffle algorithm of the configuration.
    pub shuffle: ShuffleAlg,
    /// Local join algorithm of the configuration.
    pub join: JoinAlg,
    /// Trie representation for Tributary probes.
    pub trie_layout: TrieLayout,
    /// Batch encoding for the data-plane exchange.
    pub wire_format: WireFormat,
    /// Regular-shuffle steps take the heavy-hitter-resilient route
    /// ([`PlanOptions::skew_resilient`]).
    pub skew_resilient: bool,
    /// The output is `(head…, count)` groups, combined with one more
    /// exchange round ([`PlanOptions::group_count`]).
    pub group_count: bool,
    /// Tuples per exchange batch.
    pub batch_tuples: u32,
    /// Per-worker probe thread count (decided on the coordinator so a
    /// heterogeneous mesh still probes with identical parallelism).
    pub probe_threads: u32,
    /// Per-worker memory budget in tuples, if any.
    pub memory_budget: Option<u64>,
    /// The coordinator's host core count (pre-flight context only).
    pub host_cores: Option<u64>,
    /// Effective left-deep join order (atom indices) — explicit or the
    /// coordinator's greedy choice, never recomputed on the worker.
    pub join_order: Vec<usize>,
    /// Order of the local multiway join: [`Self::join_order`] except
    /// under broadcast, where it is rooted at the partitioned atom.
    pub local_order: Vec<usize>,
    /// Tributary global variable order (Tributary one-round plans).
    pub tj_order: Option<Vec<VarId>>,
    /// The HyperCube share assignment (HyperCube plans).
    pub hc_config: Option<HcConfig>,
    /// Global cardinality of each resolved atom.
    pub cards: Vec<u64>,
    /// The query, shipped structurally (re-parsing source text could
    /// renumber variables; the numbered form is the plan's identity).
    pub query: ConjunctiveQuery,
    /// Schema (variables) of each resolved atom.
    pub atom_vars: Vec<Vec<VarId>>,
    /// This rank's round-robin seed partition of each resolved atom.
    pub parts: Vec<Relation>,
    /// Data-plane addresses of every rank, index-aligned with ranks;
    /// the worker dials these to form the exchange mesh.
    pub data_addrs: Vec<String>,
}

/// Bits of the fragment's flags byte; any other bit is refused. Bit 0
/// requested wire compression, which no longer exists: a peer built
/// with it that sets the bit gets a typed refusal, not a misread plan.
const FLAG_SKEW_RESILIENT: u8 = 1 << 1;
const FLAG_GROUP_COUNT: u8 = 1 << 2;

fn put_u32_list(buf: &mut Vec<u8>, vs: impl ExactSizeIterator<Item = u32>) {
    control::put_u32(buf, vs.len() as u32);
    for v in vs {
        control::put_u32(buf, v);
    }
}

fn read_u32_list(r: &mut PayloadReader<'_>) -> Result<Vec<u32>, ControlError> {
    let n = r.count(4)?;
    (0..n).map(|_| r.u32()).collect()
}

/// One-byte wire codes: an enum value's code is its index here.
const SHUFFLES: [ShuffleAlg; 3] = [
    ShuffleAlg::Regular,
    ShuffleAlg::Broadcast,
    ShuffleAlg::HyperCube,
];
const JOINS: [JoinAlg; 2] = [JoinAlg::Hash, JoinAlg::Tributary];
const LAYOUTS: [TrieLayout; 2] = [TrieLayout::Row, TrieLayout::Columnar];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// Writes `v`'s index in `known` (a value missing from its table gets a
/// code every decoder refuses).
fn put_code<T: PartialEq>(buf: &mut Vec<u8>, known: &[T], v: T) {
    let code = known.iter().position(|k| *k == v);
    control::put_u8(buf, code.map_or(u8::MAX, |c| c as u8));
}

/// Reads a one-byte code: `known[code]`, or a typed refusal.
fn read_code<T: Copy>(
    r: &mut PayloadReader<'_>,
    what: &str,
    known: &[T],
) -> Result<T, ControlError> {
    let code = r.u8()?;
    let known = known.get(usize::from(code)).copied();
    known.ok_or_else(|| ControlError::Malformed(format!("unknown {what} code {code}")))
}

/// A variable or a constant (an atom's term, a filter's right side):
/// tag 0 or 1, then eight bytes.
fn put_operand(buf: &mut Vec<u8>, x: Operand) {
    let (tag, v) = match x {
        Operand::Var(v) => (0, u64::from(v.0)),
        Operand::Const(c) => (1, c),
    };
    control::put_u8(buf, tag);
    control::put_u64(buf, v);
}

fn read_operand(r: &mut PayloadReader<'_>) -> Result<Operand, ControlError> {
    let (tag, v) = (r.u8()?, r.u64()?);
    match (tag, u32::try_from(v)) {
        (0, Ok(id)) => Ok(Operand::Var(VarId(id))),
        (0, Err(_)) => Err(ControlError::Malformed(format!(
            "variable id {v} overflows u32"
        ))),
        (1, _) => Ok(Operand::Const(v)),
        _ => Err(ControlError::Malformed(format!(
            "unknown operand tag {tag}"
        ))),
    }
}

fn put_relation(buf: &mut Vec<u8>, rel: &Relation) {
    control::put_u32(buf, rel.arity() as u32);
    let body_len = frame_bytes(WireFormat::Vectored, rel.arity(), rel.len());
    control::put_u32(buf, body_len as u32);
    encode_vectored(rel.arity(), rel.len(), rel.raw(), false, buf);
}

fn read_relation(r: &mut PayloadReader<'_>) -> Result<Relation, ControlError> {
    let arity = r.u32()? as usize;
    let len = r.u32()? as usize;
    let body = r.take(len)?;
    let mut rel = Relation::new(arity);
    decode_frame_into(WireFormat::Vectored, body, &mut rel)
        .map_err(|e| ControlError::Malformed(format!("relation body: {e}")))?;
    Ok(rel)
}

impl Fragment {
    fn encode_query(&self, buf: &mut Vec<u8>) {
        let q = &self.query;
        control::put_str(buf, &q.name);
        control::put_u32(buf, q.var_names.len() as u32);
        for n in &q.var_names {
            control::put_str(buf, n);
        }
        put_u32_list(buf, q.head.iter().map(|v| v.0));
        control::put_u32(buf, q.atoms.len() as u32);
        for atom in &q.atoms {
            control::put_str(buf, &atom.relation);
            control::put_u32(buf, atom.terms.len() as u32);
            for t in &atom.terms {
                put_operand(
                    buf,
                    match *t {
                        Term::Var(v) => Operand::Var(v),
                        Term::Const(c) => Operand::Const(c),
                    },
                );
            }
        }
        control::put_u32(buf, q.filters.len() as u32);
        for f in &q.filters {
            control::put_u32(buf, f.left.0);
            put_code(buf, &CMP_OPS, f.op);
            put_operand(buf, f.right);
        }
    }

    fn decode_query(r: &mut PayloadReader<'_>) -> Result<ConjunctiveQuery, ControlError> {
        let name = r.str()?;
        let n_vars = r.count(4)?;
        let var_names = (0..n_vars)
            .map(|_| r.str())
            .collect::<Result<Vec<_>, _>>()?;
        let head = read_u32_list(r)?.into_iter().map(VarId).collect();
        // Every count is bounded by the bytes left to decode it from
        // before anything is sized by it (`PayloadReader::count`).
        let n_atoms = r.count(8)?;
        let mut atoms = Vec::new();
        for _ in 0..n_atoms {
            let relation = r.str()?;
            let n_terms = r.count(9)?;
            let mut terms = Vec::new();
            for _ in 0..n_terms {
                terms.push(match read_operand(r)? {
                    Operand::Var(v) => Term::Var(v),
                    Operand::Const(c) => Term::Const(c),
                });
            }
            atoms.push(Atom { relation, terms });
        }
        let n_filters = r.count(14)?;
        let mut filters = Vec::new();
        for _ in 0..n_filters {
            let left = VarId(r.u32()?);
            let op = read_code(r, "comparison op", &CMP_OPS)?;
            let right = read_operand(r)?;
            filters.push(Filter { left, op, right });
        }
        Ok(ConjunctiveQuery {
            name,
            head,
            atoms,
            filters,
            var_names,
        })
    }

    /// Serializes the fragment as a PJCP `Fragment` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        control::put_u32(&mut buf, self.rank);
        control::put_u32(&mut buf, self.workers);
        control::put_u64(&mut buf, self.seed);
        put_code(&mut buf, &SHUFFLES, self.shuffle);
        put_code(&mut buf, &JOINS, self.join);
        put_code(&mut buf, &LAYOUTS, self.trie_layout);
        control::put_u8(
            &mut buf,
            match self.wire_format {
                WireFormat::Vectored => 1,
            },
        );
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        control::put_u8(
            &mut buf,
            flag(self.skew_resilient, FLAG_SKEW_RESILIENT)
                | flag(self.group_count, FLAG_GROUP_COUNT),
        );
        control::put_u32(&mut buf, self.batch_tuples);
        control::put_u32(&mut buf, self.probe_threads);
        control::put_opt_u64(&mut buf, self.memory_budget);
        control::put_opt_u64(&mut buf, self.host_cores);
        put_u32_list(&mut buf, self.join_order.iter().map(|&i| i as u32));
        put_u32_list(&mut buf, self.local_order.iter().map(|&i| i as u32));
        match &self.tj_order {
            None => control::put_u8(&mut buf, 0),
            Some(order) => {
                control::put_u8(&mut buf, 1);
                put_u32_list(&mut buf, order.iter().map(|v| v.0));
            }
        }
        match &self.hc_config {
            None => control::put_u8(&mut buf, 0),
            Some(cfg) => {
                control::put_u8(&mut buf, 1);
                control::put_u32(&mut buf, cfg.vars().len() as u32);
                for (v, &d) in cfg.vars().iter().zip(cfg.dims()) {
                    control::put_u32(&mut buf, v.0);
                    control::put_u32(&mut buf, d as u32);
                }
            }
        }
        control::put_u32(&mut buf, self.cards.len() as u32);
        for &c in &self.cards {
            control::put_u64(&mut buf, c);
        }
        self.encode_query(&mut buf);
        control::put_u32(&mut buf, self.atom_vars.len() as u32);
        for vs in &self.atom_vars {
            put_u32_list(&mut buf, vs.iter().map(|v| v.0));
        }
        control::put_u32(&mut buf, self.parts.len() as u32);
        for p in &self.parts {
            put_relation(&mut buf, p);
        }
        control::put_u32(&mut buf, self.data_addrs.len() as u32);
        for a in &self.data_addrs {
            control::put_str(&mut buf, a);
        }
        buf
    }

    /// Decodes a fragment from a PJCP `Fragment` frame payload.
    ///
    /// # Errors
    /// [`ControlError::Truncated`] / [`ControlError::Malformed`] on a
    /// short payload, an unknown enum code or flag bit, a list count the
    /// remaining bytes cannot hold, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Fragment, ControlError> {
        let mut r = PayloadReader::new(bytes);
        let rank = r.u32()?;
        let workers = r.u32()?;
        let seed = r.u64()?;
        let shuffle = read_code(&mut r, "shuffle", &SHUFFLES)?;
        let join = read_code(&mut r, "join", &JOINS)?;
        let trie_layout = read_code(&mut r, "trie layout", &LAYOUTS)?;
        // Tag 0 named the second codec PJCP version 1 still carried.
        let wire_format = match r.u8()? {
            1 => WireFormat::Vectored,
            other => {
                return Err(ControlError::Malformed(format!(
                    "unknown wire format code {other}"
                )))
            }
        };
        let flags = r.u8()?;
        if flags & !(FLAG_SKEW_RESILIENT | FLAG_GROUP_COUNT) != 0 {
            return Err(ControlError::Malformed(format!(
                "unknown fragment flag bits {flags:#010b}"
            )));
        }
        let batch_tuples = r.u32()?;
        let probe_threads = r.u32()?;
        let memory_budget = r.opt_u64()?;
        let host_cores = r.opt_u64()?;
        let join_order: Vec<usize> = read_u32_list(&mut r)?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let local_order: Vec<usize> = read_u32_list(&mut r)?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let tj_order = if read_code(&mut r, "option tag", &[false, true])? {
            Some(read_u32_list(&mut r)?.into_iter().map(VarId).collect())
        } else {
            None
        };
        let hc_config = if read_code(&mut r, "option tag", &[false, true])? {
            let k = r.count(8)?;
            let (mut vars, mut dims) = (Vec::new(), Vec::new());
            for _ in 0..k {
                vars.push(VarId(r.u32()?));
                dims.push(match r.u32()? {
                    0 => {
                        return Err(ControlError::Malformed(
                            "hypercube dimension of zero".into(),
                        ))
                    }
                    d => d as usize,
                });
            }
            Some(HcConfig::new(vars, dims))
        } else {
            None
        };
        let n_cards = r.count(8)?;
        let cards = (0..n_cards)
            .map(|_| r.u64())
            .collect::<Result<Vec<_>, _>>()?;
        let query = Self::decode_query(&mut r)?;
        let n_atom_vars = r.count(4)?;
        let atom_vars = (0..n_atom_vars)
            .map(|_| Ok(read_u32_list(&mut r)?.into_iter().map(VarId).collect()))
            .collect::<Result<Vec<Vec<VarId>>, ControlError>>()?;
        let n_parts = r.count(8)?;
        let parts = (0..n_parts)
            .map(|_| read_relation(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        let n_addrs = r.count(4)?;
        let data_addrs = (0..n_addrs)
            .map(|_| r.str())
            .collect::<Result<Vec<_>, _>>()?;
        r.done()?;
        Ok(Fragment {
            rank,
            workers,
            seed,
            shuffle,
            join,
            trie_layout,
            wire_format,
            skew_resilient: flags & FLAG_SKEW_RESILIENT != 0,
            group_count: flags & FLAG_GROUP_COUNT != 0,
            batch_tuples,
            probe_threads,
            memory_budget,
            host_cores,
            join_order,
            local_order,
            tj_order,
            hc_config,
            cards,
            query,
            atom_vars,
            parts,
            data_addrs,
        })
    }

    /// The analyzer's [`PlanSpec`](analyze::PlanSpec) for this fragment
    /// — the same spec the coordinator vetted before shipping, rebuilt
    /// from the decoded bytes so a worker re-runs the identical
    /// pre-flight gate on what actually arrived.
    pub fn plan_spec(&self) -> analyze::PlanSpec<'_> {
        analyze::PlanSpec {
            query: &self.query,
            cards: self.cards.clone(),
            workers: self.workers as usize,
            memory_budget: self.memory_budget,
            shuffle: self.shuffle.into(),
            join: self.join.into(),
            join_order: Some(self.join_order.clone()),
            hc_config: self.hc_config.clone(),
            tj_order: self.tj_order.clone(),
            batch_tuples: Some(u64::from(self.batch_tuples)),
            wire_format: self.wire_format,
            max_frame_bytes: Some(u64::from(parjoin_runtime::transport::MAX_FRAME_BYTES)),
            host_cores: self.host_cores.map(|c| c as usize),
            seed: self.seed,
        }
    }

    /// Re-runs the pre-flight analyzer on the decoded fragment and
    /// sanity-checks the rank/mesh geometry. Workers call this before
    /// joining the exchange mesh so a corrupt or stale fragment is
    /// refused instead of executed.
    ///
    /// # Errors
    /// [`EngineError::InvalidPlan`] when the analyzer finds errors;
    /// [`EngineError::Unsupported`] when the fragment's geometry is
    /// inconsistent (rank out of range, address list of the wrong
    /// width, atom lists out of alignment), its local join order is not
    /// a permutation of the atoms, its probe thread count is 0 or above
    /// [`probe::MAX_PROBE_THREADS`], or it lacks the Tributary order or
    /// HyperCube shares its configuration needs.
    pub fn preflight(&self) -> Result<(), EngineError> {
        if self.rank >= self.workers {
            return Err(EngineError::Unsupported(format!(
                "fragment rank {} outside mesh of {} workers",
                self.rank, self.workers
            )));
        }
        if self.data_addrs.len() != self.workers as usize {
            return Err(EngineError::Unsupported(format!(
                "fragment lists {} data addresses for {} workers",
                self.data_addrs.len(),
                self.workers
            )));
        }
        let atoms = self.query.atoms.len();
        if self.atom_vars.len() != atoms || self.parts.len() != atoms || self.cards.len() != atoms {
            return Err(EngineError::Unsupported(format!(
                "fragment atom lists out of alignment: query has {atoms} atoms, \
                 {} schemas, {} partitions, {} cardinalities",
                self.atom_vars.len(),
                self.parts.len(),
                self.cards.len()
            )));
        }
        for (vs, p) in self.atom_vars.iter().zip(&self.parts) {
            if vs.len() != p.arity() {
                return Err(EngineError::Unsupported(format!(
                    "fragment partition arity {} does not match its {}-variable schema",
                    p.arity(),
                    vs.len()
                )));
            }
        }
        // The analyzer vets `join_order`; `local_order` is not part of
        // its spec, and the executor indexes the atoms with it.
        check_order("local join order", &self.local_order, atoms)?;
        checked_probe_threads(self.probe_threads)?;
        let one_round = self.shuffle != ShuffleAlg::Regular;
        if one_round && self.join == JoinAlg::Tributary && self.tj_order.is_none() {
            return Err(EngineError::Unsupported(
                "Tributary fragment carries no variable order".to_string(),
            ));
        }
        if self.shuffle == ShuffleAlg::HyperCube && self.hc_config.is_none() {
            return Err(EngineError::Unsupported(
                "HyperCube fragment carries no share configuration".to_string(),
            ));
        }
        analyze::preflight(&self.plan_spec()).map_err(EngineError::InvalidPlan)?;
        Ok(())
    }
}

/// A shipped probe thread count, refused outside
/// `1..=`[`probe::MAX_PROBE_THREADS`]: the executor spawns up to that
/// many threads per join and derives its morsel count from it.
fn checked_probe_threads(n: u32) -> Result<usize, EngineError> {
    match usize::try_from(n) {
        Ok(t @ 1..=probe::MAX_PROBE_THREADS) => Ok(t),
        _ => Err(EngineError::Unsupported(format!(
            "fragment asks for {n} probe threads; a worker runs 1 to {}",
            probe::MAX_PROBE_THREADS
        ))),
    }
}

/// Plans `query` exactly as [`run_config`](crate::run_config) does and
/// slices the plan into one [`Fragment`] per rank: every rank gets the
/// same decisions and its own round-robin seed partition of each atom.
///
/// `data_addrs[r]` must be rank `r`'s data-plane listener address.
///
/// # Errors
/// - [`EngineError::Unsupported`] for a mis-sized address list and for
///   the one plan option a mesh cannot run yet: `trace_path` needs a
///   channel that returns the ranks' spans to the coordinator (ROADMAP
///   item 4's `Stats` frame).
/// - [`EngineError::Resolve`] when the query references missing
///   relations.
/// - [`EngineError::InvalidPlan`] when the analyzer or certifier
///   refuses the plan.
pub fn plan_fragments(
    query: &ConjunctiveQuery,
    db: &parjoin_common::Database,
    cluster: &Cluster,
    shuffle_alg: ShuffleAlg,
    join_alg: JoinAlg,
    opts: &PlanOptions,
    data_addrs: &[String],
) -> Result<Vec<Fragment>, EngineError> {
    if opts.trace_path.is_some() {
        return Err(EngineError::Unsupported(
            "over a mesh, trace_path: workers have no channel to return their spans to the \
             coordinator"
                .to_string(),
        ));
    }
    if data_addrs.len() != cluster.workers {
        return Err(EngineError::Unsupported(format!(
            "{} data addresses for a cluster of {} workers",
            data_addrs.len(),
            cluster.workers
        )));
    }

    // The mesh is a streaming TCP transport whatever the coordinator's
    // own cluster says, so the analyzer vets batch and frame sizes.
    let mesh_cluster = cluster.clone().with_transport(TransportKind::Tcp);
    let plan = plans::plan(query, db, &mesh_cluster, shuffle_alg, join_alg, opts)?;
    let atom_vars: Vec<Vec<VarId>> = plan.seeded.iter().map(|d| d.vars.clone()).collect();
    let cards: Vec<u64> = plan.seeded.iter().map(DistRel::total_len).collect();
    let host_cores = parjoin_common::threads::host_parallelism().map(|c| c as u64);

    Ok((0..cluster.workers)
        .map(|rank| Fragment {
            rank: rank as u32,
            workers: cluster.workers as u32,
            seed: cluster.seed,
            shuffle: shuffle_alg,
            join: join_alg,
            trie_layout: opts.trie_layout,
            wire_format: cluster.wire_format,
            skew_resilient: opts.skew_resilient,
            group_count: opts.group_count,
            batch_tuples: cluster.batch_tuples as u32,
            probe_threads: plan.probe_threads as u32,
            memory_budget: cluster.memory_budget,
            host_cores,
            join_order: plan.join_order.clone(),
            local_order: plan.local_order.clone(),
            tj_order: plan.tj_order.clone(),
            hc_config: plan.hc_config.clone(),
            cards: cards.clone(),
            query: query.clone(),
            atom_vars: atom_vars.clone(),
            parts: plan.seeded.iter().map(|d| d.parts[rank].clone()).collect(),
            data_addrs: data_addrs.to_vec(),
        })
        .collect())
}

/// What one rank produced by executing its fragment.
#[derive(Debug)]
pub struct RemoteOutcome {
    /// This rank's partition of the output, projected to the head — or,
    /// under [`Fragment::group_count`], its `(head…, count)` groups.
    pub output: Relation,
    /// Tuples this rank sent across all exchange rounds.
    pub tuples_sent: u64,
    /// Exchange rounds this rank participated in.
    pub rounds: u32,
}

/// Executes `frag` on an already-joined `mesh` and returns this rank's
/// output partition: the fragment's decisions and its one partition per
/// atom go through the same executor `run_config` uses, with every
/// shuffle one exchange round on the mesh. The rank therefore prepares
/// through the process-wide sort and trie caches like any in-process
/// worker.
///
/// # Errors
/// - [`EngineError::Transport`] when an exchange round fails (peer
///   death, handshake timeout, frame errors — all typed
///   `RuntimeError`s).
/// - [`EngineError::MemoryBudget`] when a join step exceeds the
///   fragment's per-worker budget.
/// - [`EngineError::InvalidPlan`] / [`EngineError::Unsupported`] on
///   malformed fragments (callers normally run
///   [`Fragment::preflight`] first).
pub fn execute_fragment(frag: &Fragment, mesh: &HostMesh) -> Result<RemoteOutcome, EngineError> {
    if mesh.workers() != frag.workers as usize || mesh.rank() != frag.rank as usize {
        return Err(EngineError::Unsupported(format!(
            "fragment addressed to rank {}/{} but the mesh is rank {}/{}",
            frag.rank,
            frag.workers,
            mesh.rank(),
            mesh.workers()
        )));
    }
    let cluster = Cluster {
        workers: frag.workers as usize,
        memory_budget: frag.memory_budget,
        seed: frag.seed,
        // Simulated network costs model a cluster this process is not
        // simulating: the mesh's bytes really move.
        round_latency: Duration::ZERO,
        shuffle_tuple_cost: Duration::ZERO,
        transport: TransportKind::Tcp,
        batch_tuples: (frag.batch_tuples as usize).max(1),
        wire_format: frag.wire_format,
    };
    let opts = PlanOptions {
        collect_output: true,
        trie_layout: frag.trie_layout,
        skew_resilient: frag.skew_resilient,
        group_count: frag.group_count,
        ..PlanOptions::default()
    };
    let plan = Plan {
        shuffle: frag.shuffle,
        join: frag.join,
        join_order: frag.join_order.clone(),
        local_order: frag.local_order.clone(),
        tj_order: frag.tj_order.clone(),
        hc_config: frag.hc_config.clone(),
        probe_threads: checked_probe_threads(frag.probe_threads)?,
        diagnostics: Vec::new(),
        stats_lookups: (0, 0),
        seeded: frag
            .atom_vars
            .iter()
            .zip(&frag.parts)
            .map(|(vars, part)| DistRel {
                vars: vars.clone(),
                parts: vec![part.clone()],
            })
            .collect(),
    };
    // This process hosts one rank of the mesh; every shuffle is one
    // exchange round on it.
    let rt = Runtime::rank_of(
        mesh.clone(),
        ExchangeOpts {
            batch_tuples: cluster.batch_tuples,
            format: frag.wire_format,
        },
    )?;
    let ex = Exec {
        query: &frag.query,
        cluster: &cluster,
        opts: &opts,
        seam: &Seam::Stream(&rt),
        obs: &RunObs::new(false),
    };
    let result = plans::execute(&ex, plan)?;
    Ok(RemoteOutcome {
        // `collect_output` is set above. xtask: allow(expect)
        output: result.output.expect("collected output"),
        tuples_sent: result.tuples_shuffled,
        // One exchange round per shuffle; `result.rounds` counts
        // communication *barriers* (one for a whole HyperCube round).
        rounds: result.shuffles.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_common::Database;
    use parjoin_query::parser;

    fn triangle_db() -> (ConjunctiveQuery, Database) {
        let q = parser::parse("T(x, y, z) :- R(x, y), S(y, z), U(z, x)").unwrap();
        let mut db = Database::new();
        let edges = Relation::from_rows(
            2,
            (0..40u64)
                .map(|i| [i, (i * 7 + 1) % 40])
                .collect::<Vec<_>>()
                .iter(),
        );
        db.insert("R", edges.clone());
        db.insert("S", edges.clone());
        db.insert("U", edges);
        (q, db)
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|r| format!("127.0.0.1:{}", 9000 + r)).collect()
    }

    fn fragments_for(s: ShuffleAlg, j: JoinAlg) -> Vec<Fragment> {
        let (q, db) = triangle_db();
        let cluster = Cluster::new(4).with_seed(11);
        plan_fragments(&q, &db, &cluster, s, j, &PlanOptions::default(), &addrs(4)).unwrap()
    }

    #[test]
    fn fragments_roundtrip_all_configs() {
        for (s, j) in [
            (ShuffleAlg::Regular, JoinAlg::Hash),
            (ShuffleAlg::Regular, JoinAlg::Tributary),
            (ShuffleAlg::Broadcast, JoinAlg::Hash),
            (ShuffleAlg::Broadcast, JoinAlg::Tributary),
            (ShuffleAlg::HyperCube, JoinAlg::Hash),
            (ShuffleAlg::HyperCube, JoinAlg::Tributary),
        ] {
            for frag in fragments_for(s, j) {
                let bytes = frag.encode();
                let back = Fragment::decode(&bytes).unwrap();
                // The codec is canonical: decode∘encode re-encodes to
                // the identical bytes, which covers every field at once.
                assert_eq!(bytes, back.encode(), "{s:?}/{j:?} round-trip drifted");
                assert_eq!(frag.rank, back.rank);
                assert_eq!(frag.join_order, back.join_order);
                assert_eq!(frag.tj_order, back.tj_order);
                assert_eq!(frag.hc_config, back.hc_config);
                assert_eq!(
                    frag.parts.iter().map(Relation::raw).collect::<Vec<_>>(),
                    back.parts.iter().map(Relation::raw).collect::<Vec<_>>()
                );
                back.preflight().unwrap();
            }
        }
    }

    #[test]
    fn fragments_partition_the_seeded_data() {
        let frags = fragments_for(ShuffleAlg::HyperCube, JoinAlg::Hash);
        let total: usize = frags.iter().map(|f| f.parts[0].len()).sum();
        assert_eq!(total, 40, "round-robin partitions cover the relation");
        assert!(frags.iter().all(|f| f.workers == 4));
        assert!(frags.iter().any(|f| f.hc_config.is_some()));
    }

    #[test]
    fn truncated_fragment_is_a_typed_error() {
        let frag = &fragments_for(ShuffleAlg::Regular, JoinAlg::Hash)[0];
        let bytes = frag.encode();
        let err = Fragment::decode(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(
            matches!(err, ControlError::Truncated(_)),
            "want Truncated, got {err:?}"
        );
    }

    #[test]
    fn trailing_garbage_is_a_typed_error() {
        let frag = &fragments_for(ShuffleAlg::Regular, JoinAlg::Hash)[0];
        let mut bytes = frag.encode();
        bytes.push(0xAB);
        let err = Fragment::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, ControlError::Malformed(_)),
            "want Malformed, got {err:?}"
        );
    }

    #[test]
    fn corrupt_enum_code_is_a_typed_error() {
        let frag = &fragments_for(ShuffleAlg::Regular, JoinAlg::Hash)[0];
        let mut bytes = frag.encode();
        bytes[16] = 99; // the shuffle-algorithm code
        let err = Fragment::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, ControlError::Malformed(_)),
            "want Malformed, got {err:?}"
        );
    }

    #[test]
    fn unknown_wire_format_tags_are_malformed() {
        // Tag 0 was the second relation codec of PJCP version 1; tag 7
        // never existed. Neither may be guessed at.
        let frag = &fragments_for(ShuffleAlg::Regular, JoinAlg::Hash)[0];
        for tag in [0u8, 7] {
            let mut bytes = frag.encode();
            assert_eq!(bytes[19], 1, "offset 19 is the wire-format tag");
            bytes[19] = tag;
            let err = Fragment::decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, ControlError::Malformed(m) if m.contains("wire format")),
                "tag {tag}: want Malformed, got {err:?}"
            );
        }
    }

    #[test]
    fn relation_bodies_roundtrip_on_the_data_plane_frame() {
        let mut nullary = Relation::new(0);
        nullary.push_nullary_rows(5);
        let edges = Relation::from_rows(2, [[1u64, u64::MAX], [0, 7]].iter());
        for rel in [nullary, Relation::new(0), Relation::new(3), edges] {
            let mut buf = Vec::new();
            put_relation(&mut buf, &rel);
            // arity, length prefix, then exactly one data-plane frame.
            assert_eq!(
                buf.len() as u64,
                8 + frame_bytes(WireFormat::Vectored, rel.arity(), rel.len())
            );
            let mut r = PayloadReader::new(&buf);
            let back = read_relation(&mut r).unwrap();
            r.done().unwrap();
            assert_eq!(back, rel);
        }
    }

    #[test]
    fn hostile_relation_body_is_malformed_not_an_allocation() {
        // A body claiming 2^42 rows behind an honest length prefix: the
        // shared decoder must refuse it typed.
        let mut body = vec![0, 1];
        parjoin_common::wire::write_varint(&mut body, 1 << 42);
        let mut buf = Vec::new();
        control::put_u32(&mut buf, 1);
        control::put_u32(&mut buf, body.len() as u32);
        buf.extend_from_slice(&body);
        let err = read_relation(&mut PayloadReader::new(&buf)).unwrap_err();
        assert!(
            matches!(err, ControlError::Malformed(_)),
            "want Malformed, got {err:?}"
        );
    }

    #[test]
    fn mesh_refusals_name_what_the_mesh_lacks() {
        let (q, db) = triangle_db();
        let opts = PlanOptions {
            trace_path: Some("trace.json".into()),
            ..PlanOptions::default()
        };
        let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
        let err = plan_fragments(&q, &db, &Cluster::new(4), s, j, &opts, &addrs(4)).unwrap_err();
        assert!(
            matches!(&err, EngineError::Unsupported(m) if m.contains("no channel to return their spans")),
            "want Unsupported naming the missing channel, got {err:?}"
        );
    }

    #[test]
    fn option_flags_ride_in_one_byte_and_unknown_bits_are_malformed() {
        let (q, db) = triangle_db();
        let (s, j) = (ShuffleAlg::Regular, JoinAlg::Hash);
        let plain = fragments_for(s, j)[0].encode();
        for (skew, group) in [(true, false), (false, true), (true, true)] {
            let opts = PlanOptions {
                skew_resilient: skew,
                group_count: group,
                ..PlanOptions::default()
            };
            let cluster = Cluster::new(4).with_seed(11);
            let frag = plan_fragments(&q, &db, &cluster, s, j, &opts, &addrs(4))
                .unwrap()
                .remove(0);
            let bytes = frag.encode();
            assert_eq!(bytes.len(), plain.len(), "the flags cost no byte");
            let back = Fragment::decode(&bytes).unwrap();
            assert_eq!((back.skew_resilient, back.group_count), (skew, group));
        }
        assert_eq!(plain[20], 0, "offset 20 is the flags byte");
        // Bit 0 (the retired compression request) and bits above 2.
        for bit in [0, 3, 7] {
            let mut bytes = plain.clone();
            bytes[20] = 1 << bit;
            let err = Fragment::decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, ControlError::Malformed(m) if m.contains("flag bits")),
                "bit {bit}: want Malformed, got {err:?}"
            );
        }
    }

    /// The fixed-width head of a fragment payload up to and including
    /// the `tj_order` option tag: 40 bytes, every list empty.
    fn bomb_head() -> Vec<u8> {
        let mut buf = Vec::new();
        control::put_u32(&mut buf, 0); // rank
        control::put_u32(&mut buf, 1); // workers
        control::put_u64(&mut buf, 0); // seed
        buf.extend_from_slice(&[0, 0, 0, 1, 0]); // shuffle, join, layout, format, flags
        control::put_u32(&mut buf, 1); // batch_tuples
        control::put_u32(&mut buf, 1); // probe_threads
        buf.extend_from_slice(&[0, 0]); // no memory budget, no host cores
        control::put_u32(&mut buf, 0); // join_order
        control::put_u32(&mut buf, 0); // local_order
        control::put_u8(&mut buf, 0); // no tj_order
        buf
    }

    #[test]
    fn length_prefix_bombs_are_malformed_not_allocations() {
        // The 45-byte payload that aborted a worker: `hc_config` present
        // with u32::MAX dimensions (two `Vec`s were sized by it).
        let mut dims = bomb_head();
        control::put_u8(&mut dims, 1);
        control::put_u32(&mut dims, u32::MAX);
        assert_eq!(dims.len(), 45);

        // Its siblings sit in the query: atoms, terms, filters.
        let mut query = bomb_head();
        control::put_u8(&mut query, 0); // no hc_config
        control::put_u32(&mut query, 0); // cards
        control::put_str(&mut query, "Q");
        control::put_u32(&mut query, 0); // var names
        control::put_u32(&mut query, 0); // head
        let mut atoms = query.clone();
        control::put_u32(&mut atoms, u32::MAX);
        let mut terms = query.clone();
        control::put_u32(&mut terms, 1);
        control::put_str(&mut terms, "R");
        control::put_u32(&mut terms, u32::MAX);
        let mut filters = query;
        control::put_u32(&mut filters, 0); // atoms
        control::put_u32(&mut filters, u32::MAX);

        for (what, bytes) in [
            ("dims", dims),
            ("atoms", atoms),
            ("terms", terms),
            ("filters", filters),
        ] {
            let err = Fragment::decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, ControlError::Malformed(m) if m.contains("4294967295 elements")),
                "{what}: want Malformed naming the count, got {err:?}"
            );
        }
    }

    /// `preflight` and the executor itself must both answer a hostile
    /// fragment with `Unsupported`, never a panic: the executor runs it
    /// as the only rank of a real one-rank loopback mesh.
    fn assert_refused(frag: &Fragment, why: &str) {
        let err = frag.preflight().unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported(_)),
            "{why}: preflight gave {err:?}"
        );
        let mut mesh = HostMesh::bind("127.0.0.1:0").unwrap();
        let addr = mesh.local_addr().unwrap();
        mesh.join(0, vec![addr]).unwrap();
        let err = execute_fragment(frag, &mesh).unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported(_)),
            "{why}: executor gave {err:?}"
        );
    }

    fn single_rank_fragment(s: ShuffleAlg, j: JoinAlg) -> Fragment {
        let (q, db) = triangle_db();
        let frag = plan_fragments(
            &q,
            &db,
            &Cluster::new(1),
            s,
            j,
            &PlanOptions::default(),
            &addrs(1),
        )
        .unwrap()
        .remove(0);
        frag.preflight().unwrap();
        frag
    }

    #[test]
    fn local_order_must_be_a_permutation() {
        for hostile in [vec![0, 1, 7], vec![0, 0, 1], vec![2, 1]] {
            let mut frag = single_rank_fragment(ShuffleAlg::HyperCube, JoinAlg::Hash);
            frag.local_order = hostile.clone();
            assert_refused(&frag, &format!("local_order {hostile:?}"));
        }
    }

    #[test]
    fn tributary_fragment_needs_its_variable_order() {
        let mut frag = single_rank_fragment(ShuffleAlg::Broadcast, JoinAlg::Tributary);
        frag.tj_order = None;
        assert_refused(&frag, "missing tj_order");
    }

    #[test]
    fn hypercube_fragment_needs_its_shares() {
        let mut frag = single_rank_fragment(ShuffleAlg::HyperCube, JoinAlg::Tributary);
        frag.hc_config = None;
        assert_refused(&frag, "missing hc_config");
    }

    #[test]
    fn probe_threads_must_be_bounded() {
        for hostile in [0, u32::MAX] {
            let mut frag = single_rank_fragment(ShuffleAlg::HyperCube, JoinAlg::Tributary);
            frag.probe_threads = hostile;
            assert_refused(&frag, &format!("probe_threads {hostile}"));
        }
    }

    #[test]
    fn rank_geometry_is_checked() {
        let mut frag = fragments_for(ShuffleAlg::Regular, JoinAlg::Hash)[0].clone();
        frag.rank = 9;
        assert!(matches!(
            frag.preflight().unwrap_err(),
            EngineError::Unsupported(_)
        ));
    }
}
