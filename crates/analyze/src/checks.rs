//! The individual analysis passes.
//!
//! Each pass takes a [`PlanSpec`] and appends [`Diagnostic`]s; the
//! passes are independent so callers can run a subset. [`crate::analyze`]
//! runs them all in a fixed order (query shape first, so downstream
//! passes can assume a structurally sane query when it reports clean).

use crate::diagnostic::{DiagCode, Diagnostic};
use crate::spec::{JoinKind, PlanSpec, ShuffleKind};
use parjoin_core::hypercube::ShareProblem;
use parjoin_query::VarId;
use std::collections::HashSet;

/// Well-formedness of the query itself: every head variable and filter
/// variable must be bindable by some atom, variable ids must be in
/// range, and a disconnected hypergraph is flagged (every join order
/// over it contains a cartesian step).
pub fn check_query(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let q = spec.query;
    let before = out.len();

    if q.atoms.is_empty() {
        out.push(
            Diagnostic::error(DiagCode::QueryMalformed, "query has no body atoms")
                .with("query", &q.name),
        );
        return;
    }

    let num_vars = q.num_vars();
    let atom_vars = spec.atom_vars();
    let in_some_atom = |v: VarId| atom_vars.iter().any(|vars| vars.contains(&v));

    for (i, vars) in atom_vars.iter().enumerate() {
        for &v in vars {
            if v.index() >= num_vars {
                out.push(
                    Diagnostic::error(DiagCode::QueryMalformed, "variable id out of range")
                        .with("atom", i)
                        .with("var", v.0)
                        .with("num_vars", num_vars),
                );
            }
        }
    }

    for &v in &q.head {
        if !in_some_atom(v) {
            out.push(
                Diagnostic::error(
                    DiagCode::HeadVarUnbound,
                    format!("head variable {} occurs in no body atom", spec.var_name(v)),
                )
                .with("var", v.0),
            );
        }
    }

    for (i, f) in q.filters.iter().enumerate() {
        for v in f.vars() {
            if !in_some_atom(v) {
                out.push(
                    Diagnostic::error(
                        DiagCode::FilterVarUnbound,
                        format!(
                            "filter #{i} uses variable {} which occurs in no body atom",
                            spec.var_name(v)
                        ),
                    )
                    .with("filter", i)
                    .with("var", v.0),
                );
            }
        }
    }

    // A catch-all for structural defects the specific checks above do
    // not classify (e.g. an atom with no terms).
    if out.len() == before {
        if let Err(msg) = q.validate() {
            out.push(Diagnostic::error(DiagCode::QueryMalformed, msg).with("query", &q.name));
        }
    }

    if components(&atom_vars) > 1 {
        out.push(
            Diagnostic::warning(
                DiagCode::QueryDisconnected,
                "query hypergraph is disconnected; every join order contains a cartesian \
                 product step",
            )
            .with("components", components(&atom_vars)),
        );
    }
}

/// Number of connected components of the atom hypergraph (atoms are
/// nodes, shared variables are edges).
fn components(atom_vars: &[Vec<VarId>]) -> usize {
    let n = atom_vars.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            if atom_vars[i].iter().any(|v| atom_vars[j].contains(v)) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    (0..n).filter(|&i| find(&mut parent, i) == i).count()
}

/// Validity of an explicit join order: it must be a permutation of the
/// atom indices; disconnected prefixes and filters that never become
/// bindable are flagged.
pub fn check_join_order(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let Some(order) = &spec.join_order else {
        return;
    };
    let n = spec.query.atoms.len();
    let atom_vars = spec.atom_vars();

    let mut seen = vec![false; n];
    let mut valid = order.len() == n;
    if order.len() != n {
        out.push(
            Diagnostic::error(
                DiagCode::JoinOrderNotPermutation,
                "join_order must list every atom exactly once",
            )
            .with("expected_len", n)
            .with("got_len", order.len()),
        );
    }
    for &idx in order {
        if idx >= n {
            valid = false;
            out.push(
                Diagnostic::error(
                    DiagCode::JoinOrderNotPermutation,
                    "join_order index out of range",
                )
                .with("index", idx)
                .with("num_atoms", n),
            );
        } else if std::mem::replace(&mut seen[idx], true) {
            valid = false;
            out.push(
                Diagnostic::error(
                    DiagCode::JoinOrderNotPermutation,
                    "join_order lists an atom twice",
                )
                .with("index", idx),
            );
        }
    }

    // Walk the order (its in-range entries, so partial orders still get
    // prefix/filter feedback) tracking the bound variable set.
    let mut bound: HashSet<VarId> = HashSet::new();
    for (step, &idx) in order.iter().filter(|&&i| i < n).enumerate() {
        let vars = &atom_vars[idx];
        if step > 0 && valid && !vars.iter().any(|v| bound.contains(v)) {
            let mut d = Diagnostic::warning(
                DiagCode::JoinOrderCartesianStep,
                format!(
                    "step {step} of the join order shares no variable with the atoms before \
                     it: the join degenerates to a cartesian product"
                ),
            )
            .with("step", step)
            .with("atom", idx)
            .with("relation", &spec.query.atoms[idx].relation);
            if spec.shuffle == ShuffleKind::Regular {
                d = d.with(
                    "note",
                    "the shuffle key for this step is empty, routing all tuples to one worker",
                );
            }
            out.push(d);
        }
        bound.extend(vars.iter().copied());
    }

    // A filter whose variables never all become bound would be silently
    // dropped by the executor (formerly only a debug_assert).
    for (i, f) in spec.query.filters.iter().enumerate() {
        let fvars = f.vars();
        let in_atoms = fvars
            .iter()
            .all(|v| atom_vars.iter().any(|vars| vars.contains(v)));
        if in_atoms && !fvars.iter().all(|v| bound.contains(v)) {
            out.push(
                Diagnostic::error(
                    DiagCode::FilterNeverApplied,
                    format!("filter #{i} never becomes fully bound under this join order"),
                )
                .with("filter", i)
                .with(
                    "unbound",
                    fvars
                        .iter()
                        .filter(|v| !bound.contains(v))
                        .map(|&v| spec.var_name(v))
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            );
        }
    }
}

/// Validity of an explicit Tributary variable order: it must cover every
/// variable of every atom exactly once, mention only query variables,
/// and connected prefixes are preferred (a disconnected next variable
/// expands a cross product in the trie).
pub fn check_tj_order(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    if spec.join != JoinKind::Tributary {
        return;
    }
    let Some(order) = &spec.tj_order else { return };
    let atom_vars = spec.atom_vars();

    let mut seen: HashSet<VarId> = HashSet::new();
    for &v in order {
        if !seen.insert(v) {
            out.push(
                Diagnostic::error(
                    DiagCode::TjOrderDuplicate,
                    format!("tj_order lists variable {} twice", spec.var_name(v)),
                )
                .with("var", v.0),
            );
        }
        if !atom_vars.iter().any(|vars| vars.contains(&v)) {
            out.push(
                Diagnostic::error(
                    DiagCode::TjOrderUnknownVar,
                    format!(
                        "tj_order variable {} is contained in no atom",
                        spec.var_name(v)
                    ),
                )
                .with("var", v.0),
            );
        }
    }

    for (i, vars) in atom_vars.iter().enumerate() {
        for &v in vars {
            if !order.contains(&v) {
                out.push(
                    Diagnostic::error(
                        DiagCode::TjOrderIncomplete,
                        format!(
                            "tj_order omits variable {} of atom {i}; its columns cannot be \
                             sorted into the global order",
                            spec.var_name(v)
                        ),
                    )
                    .with("atom", i)
                    .with("relation", &spec.query.atoms[i].relation)
                    .with("var", v.0),
                );
            }
        }
    }

    // Connectivity of prefixes: variable at depth d should share an atom
    // with some earlier variable, otherwise the trie join enumerates the
    // cross product of the two groups.
    for (depth, &v) in order.iter().enumerate().skip(1) {
        let prefix = &order[..depth];
        let connected = atom_vars
            .iter()
            .any(|vars| vars.contains(&v) && vars.iter().any(|u| prefix.contains(u)));
        if !connected && atom_vars.iter().any(|vars| vars.contains(&v)) {
            out.push(
                Diagnostic::warning(
                    DiagCode::TjOrderDisconnectedPrefix,
                    format!(
                        "tj_order variable {} (depth {depth}) shares no atom with any \
                         earlier variable; the trie join expands a cross product here",
                        spec.var_name(v)
                    ),
                )
                .with("var", v.0)
                .with("depth", depth),
            );
        }
    }
}

/// Parallel-correctness of the shuffle policy.
///
/// The HyperCube shuffle replicates every atom across the dimensions of
/// variables the atom does not contain, so any configuration whose
/// cells fit the cluster co-locates all potential join results
/// (parallel-correct in the sense of Ameloot et al.). What *can* go
/// wrong statically: more cells than workers (unexecutable), a
/// dimension on a variable no atom contains (every join result is
/// emitted once per coordinate of that dimension — duplicated output),
/// join variables left undimensioned (pure replication — correct but
/// wasteful), and a broadcast plan that ships more tuples than it keeps
/// partitioned.
pub fn check_shuffle(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    match spec.shuffle {
        ShuffleKind::Regular => {
            // Pairwise hashing both sides on the shared key is correct by
            // construction; degenerate (empty) keys are reported by
            // `check_join_order` / `check_query`.
        }
        ShuffleKind::Broadcast => {
            if spec.cards.len() == spec.query.atoms.len() && !spec.cards.is_empty() {
                let total: u64 = spec.cards.iter().sum();
                let largest = *spec.cards.iter().max().unwrap_or(&0);
                let shipped = total - largest;
                if shipped > largest {
                    out.push(
                        Diagnostic::warning(
                            DiagCode::BroadcastDominated,
                            "broadcast ships more tuples than it keeps partitioned; a \
                             partitioned (regular or hypercube) shuffle would move less data",
                        )
                        .with("broadcast_tuples", shipped)
                        .with("partitioned_tuples", largest),
                    );
                }
            }
        }
        ShuffleKind::HyperCube => {
            let Some(config) = &spec.hc_config else {
                // The optimizer always returns a feasible configuration.
                return;
            };
            for (&v, &d) in config.vars().iter().zip(config.dims()) {
                if d == 0 {
                    out.push(
                        Diagnostic::error(
                            DiagCode::HcConfigZeroDim,
                            format!("hypercube dimension for {} is zero", spec.var_name(v)),
                        )
                        .with("var", v.0),
                    );
                }
            }
            let cells = config.num_cells();
            if cells > spec.workers {
                out.push(
                    Diagnostic::error(
                        DiagCode::HcConfigOversized,
                        format!("hypercube configuration {config} has more cells than workers"),
                    )
                    .with("cells", cells)
                    .with("workers", spec.workers),
                );
            } else if spec.workers >= 2 && cells * 2 <= spec.workers {
                out.push(
                    Diagnostic::warning(
                        DiagCode::HcConfigUnderutilized,
                        format!("hypercube configuration {config} uses under half the cluster"),
                    )
                    .with("cells", cells)
                    .with("workers", spec.workers),
                );
            }

            let all_vars = spec.query.all_vars();
            for &v in config.vars() {
                if !all_vars.contains(&v) {
                    out.push(
                        Diagnostic::error(
                            DiagCode::HcConfigUnknownVar,
                            format!(
                                "hypercube dimension assigned to variable {} which no atom \
                                 contains; every atom replicates across it and every join \
                                 result is emitted once per coordinate (duplicated output)",
                                spec.var_name(v)
                            ),
                        )
                        .with("var", v.0),
                    );
                }
            }
            for v in spec.query.join_vars() {
                if config.dim_of(v).is_none() {
                    out.push(
                        Diagnostic::warning(
                            DiagCode::HcConfigMissingJoinVar,
                            format!(
                                "join variable {} received no hypercube dimension; atoms \
                                 containing it are replicated instead of hash-partitioned",
                                spec.var_name(v)
                            ),
                        )
                        .with("var", v.0),
                    );
                }
            }
        }
    }
}

/// Resource pre-flight: predicts the per-worker input load of the
/// shuffle and warns when it already exceeds the memory budget, before
/// any tuple moves. The run itself still enforces the budget exactly;
/// this pass only converts a guaranteed mid-flight abort into an
/// upfront warning.
pub fn check_resources(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let Some(budget) = spec.memory_budget else {
        return;
    };
    if spec.cards.len() != spec.query.atoms.len() || spec.cards.is_empty() {
        return;
    }
    let workers = spec.workers.max(1) as f64;

    let (estimate, kind) = match spec.shuffle {
        ShuffleKind::Regular => {
            // Inputs-only lower bound: the largest relation hash-partitions
            // across the cluster; intermediate results only add to this.
            let largest = *spec.cards.iter().max().unwrap_or(&0);
            (largest as f64 / workers, "regular (input lower bound)")
        }
        ShuffleKind::Broadcast => {
            let total: u64 = spec.cards.iter().sum();
            let largest = *spec.cards.iter().max().unwrap_or(&0);
            (
                (total - largest) as f64 + largest as f64 / workers,
                "broadcast",
            )
        }
        ShuffleKind::HyperCube => {
            let problem = ShareProblem::from_query(spec.query, &spec.cards);
            let config = match &spec.hc_config {
                Some(c) => c.clone(),
                None if spec.workers >= 2 => problem.optimize(spec.workers),
                None => return,
            };
            if config.num_cells() > spec.workers {
                // Unexecutable anyway; `check_shuffle` reported the error.
                return;
            }
            (config.workload(&problem), "hypercube workload")
        }
    };

    if estimate > budget as f64 {
        out.push(
            Diagnostic::warning(
                DiagCode::MemoryPreflight,
                format!(
                    "predicted per-worker load exceeds the memory budget; the run is \
                     expected to abort with a MemoryBudget error ({kind} estimate)"
                ),
            )
            .with("estimated_tuples", format!("{estimate:.0}"))
            .with("budget", budget),
        );
    }
}

/// Prepare-cache pre-flight for Tributary plans: estimates the
/// per-worker *prepare working set* — every atom's post-shuffle
/// fragment plus its prepared copy (the columnar layout's sort words
/// and trie, the row layout's sorted view), i.e. twice the shuffled
/// input — and warns when it exceeds the memory budget. Unlike
/// [`check_resources`]'s general load estimate, this targets the
/// prepare pipeline specifically: over budget, the engine's prepare
/// caches refuse to pin any trie (or view) of this plan (caching
/// degrades to prepare-every-time) and the prepare itself is the likely
/// point of a mid-flight `MemoryBudget` abort.
pub fn check_sort_cache(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    if spec.join != JoinKind::Tributary {
        return;
    }
    let Some(budget) = spec.memory_budget else {
        return;
    };
    if spec.cards.len() != spec.query.atoms.len() || spec.cards.is_empty() {
        return;
    }
    let workers = spec.workers.max(1) as f64;

    // Per-worker tuples arriving at the prepare phase, by shuffle kind.
    let (input, kind) = match spec.shuffle {
        ShuffleKind::Regular => {
            // RS_TJ merge-joins pairwise; the largest single step sorts
            // its two fragments — inputs-only lower bound.
            let largest = *spec.cards.iter().max().unwrap_or(&0);
            (largest as f64 / workers, "regular (input lower bound)")
        }
        ShuffleKind::Broadcast => {
            let total: u64 = spec.cards.iter().sum();
            let largest = *spec.cards.iter().max().unwrap_or(&0);
            (
                (total - largest) as f64 + largest as f64 / workers,
                "broadcast",
            )
        }
        ShuffleKind::HyperCube => {
            let problem = ShareProblem::from_query(spec.query, &spec.cards);
            let config = match &spec.hc_config {
                Some(c) => c.clone(),
                None if spec.workers >= 2 => problem.optimize(spec.workers),
                None => return,
            };
            if config.num_cells() > spec.workers {
                return; // unexecutable; check_shuffle reported the error
            }
            (config.workload(&problem), "hypercube workload")
        }
    };
    let working_set = 2.0 * input; // fragment + prepared copy per atom

    if working_set > budget as f64 {
        out.push(
            Diagnostic::warning(
                DiagCode::SortCacheOverBudget,
                format!(
                    "projected working set of the Tributary prepare phase exceeds the \
                     per-worker memory budget; prepared tries of this plan will not be \
                     cached and the prepare is likely to abort ({kind} estimate)"
                ),
            )
            .with("working_set_tuples", format!("{working_set:.0}"))
            .with("budget", budget),
        );
    }
}

/// The worst-case encoded size of one full shuffle batch under `spec`'s
/// wire format: the widest atom's arity decides the payload, and the
/// estimate uses the **same** [`parjoin_common::wire`] arithmetic the
/// exchange's send path uses ([`parjoin_common::wire::frame_bytes`]), so
/// estimate and actual agree exactly for full batches (the regression
/// suite pins them within 10% end-to-end, partial final batches
/// included).
pub fn estimated_frame_bytes(spec: &PlanSpec<'_>, batch: u64) -> u64 {
    let max_arity = spec.atom_vars().iter().map(Vec::len).max().unwrap_or(0);
    parjoin_common::wire::frame_bytes(spec.wire_format, max_arity, batch as usize)
}

/// Runtime-knob pre-flight: vets the streaming-shuffle batch size before
/// the exchange starts. A zero batch can never flush (the send loop
/// would buffer forever), so it is an error; a batch larger than the
/// per-worker memory budget is legal but self-defeating — one arriving
/// batch already overruns the budget the run enforces — so it warns
/// (R411, with the frame's estimated on-wire size attached). A batch
/// whose estimated frame exceeds the transport's per-frame byte limit
/// warns too (R414): the exchange would reject the very first full
/// batch with `FrameTooLarge` instead of shuffling anything.
pub fn check_runtime(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let Some(batch) = spec.batch_tuples else {
        return;
    };
    if batch == 0 {
        out.push(Diagnostic::error(
            DiagCode::BatchSizeZero,
            "streaming shuffle batch size is zero; a zero-row batch can never flush",
        ));
        return;
    }
    let frame = estimated_frame_bytes(spec, batch);
    if let Some(budget) = spec.memory_budget {
        if batch > budget {
            out.push(
                Diagnostic::warning(
                    DiagCode::BatchOverBudget,
                    "one shuffle batch holds more tuples than the per-worker memory \
                     budget; a single arriving batch already exceeds the budget",
                )
                .with("batch_tuples", batch)
                .with("frame_bytes", frame)
                .with("budget", budget),
            );
        }
    }
    if let Some(limit) = spec.max_frame_bytes {
        if frame > limit {
            out.push(
                Diagnostic::warning(
                    DiagCode::FrameOverLimit,
                    format!(
                        "a full {batch}-row batch of the widest atom encodes to \
                         {frame} bytes, above the transport's {limit}-byte frame \
                         limit; the exchange would reject it with FrameTooLarge — \
                         lower batch_tuples or raise max_frame_bytes"
                    ),
                )
                .with("batch_tuples", batch)
                .with("frame_bytes", frame)
                .with("max_frame_bytes", limit),
            );
        }
    }
}

/// Intra-worker parallelism pre-flight: each simulated worker's prepare
/// sorts and probe morsels share a thread pool of
/// `host_cores / workers` OS threads, so simulating at least as many
/// workers as the host has cores silently degrades both phases to one
/// thread per worker. That is correct but surprising in speedup
/// experiments, so it warns with the effective per-worker thread count.
pub fn check_probe_parallelism(spec: &PlanSpec<'_>, out: &mut Vec<Diagnostic>) {
    let Some(host) = spec.host_cores else {
        return;
    };
    if spec.workers >= host {
        let per = parjoin_common::threads::per_worker_threads(spec.workers, Some(host));
        out.push(
            Diagnostic::warning(
                DiagCode::ProbeParallelismDegraded,
                format!(
                    "{} workers on a {host}-core host: intra-worker prepare/probe \
                     parallelism degrades to {per} thread(s) per worker",
                    spec.workers
                ),
            )
            .with("workers", spec.workers)
            .with("host_cores", host)
            .with("per_worker_threads", per),
        );
    }
}
