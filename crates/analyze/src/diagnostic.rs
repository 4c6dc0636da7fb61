//! Typed diagnostics emitted by the plan analyzer.
//!
//! Every check failure becomes a [`Diagnostic`] value instead of a
//! panic: a stable machine-readable [`DiagCode`], a [`Severity`], a
//! human-readable message, and key–value context (the offending
//! variable, the dimension product, the estimated workload, …) that
//! callers can log or surface verbatim.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Not a problem at all: a positive fact worth surfacing — the
    /// parallel-correctness proof certificate (R420) every certified
    /// plan carries.
    Info,
    /// The plan will run and produce correct results, but something is
    /// off — wasted workers, a cartesian blow-up, a predicted memory
    /// overrun.
    Warning,
    /// The plan is unexecutable or would produce wrong results; the
    /// engine refuses to run it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes, grouped by check family:
///
/// * `Q1xx` — query shape (well-formedness of the query itself, and
///   the serving layer's catalog bind),
/// * `P2xx` — plan shape (join order, Tributary order),
/// * `C3xx` — HyperCube configuration and broadcast shape,
/// * `R4xx` — resource pre-flight (`R40x`–`R41x`) and the
///   parallel-correctness certificate of the plan's distribution
///   policy (`R420`–`R423`).
///
/// DESIGN.md §9 tabulates every code with its severity and the pass
/// that emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// The query fails its own structural validation (no atoms, var id
    /// out of range, …).
    QueryMalformed,
    /// A head variable occurs in no body atom, so it can never be bound.
    HeadVarUnbound,
    /// A filter mentions a variable occurring in no body atom, so the
    /// filter can never be applied.
    FilterVarUnbound,
    /// The query hypergraph is disconnected: every join order contains a
    /// cartesian step.
    QueryDisconnected,
    /// A served query references a relation the resident catalog does
    /// not hold. The context carries the full known-relation list, so
    /// the client learns what *is* loadable from the rejection itself.
    /// Emitted by the session layer's bind pass before any scheduling
    /// work.
    CatalogUnknownRelation,
    /// A served query uses a catalog relation at the wrong arity; every
    /// column would mis-bind. Emitted by the session layer's bind pass
    /// before any scheduling work.
    CatalogArityMismatch,

    /// `join_order` is not a permutation of the atom indices (wrong
    /// length, duplicate, or out-of-range index).
    JoinOrderNotPermutation,
    /// A step of the join order shares no variable with the atoms
    /// joined before it: the step degenerates to a cartesian product
    /// (and, under a regular shuffle, an empty shuffle key that routes
    /// every tuple to a single worker).
    JoinOrderCartesianStep,
    /// A plan filter would never become fully bound at any step of the
    /// join order and would be silently dropped.
    FilterNeverApplied,

    /// `tj_order` omits a variable of some atom; the Tributary join
    /// cannot sort that atom's columns into the global order.
    TjOrderIncomplete,
    /// `tj_order` lists the same variable twice.
    TjOrderDuplicate,
    /// `tj_order` lists a variable contained in no atom.
    TjOrderUnknownVar,
    /// A prefix of `tj_order` is disconnected from the next variable:
    /// the trie join expands a cross product at that depth.
    TjOrderDisconnectedPrefix,

    /// The HyperCube configuration has more cells than workers
    /// (`∏ dᵢ > p`): cells beyond the worker count cannot be placed.
    HcConfigOversized,
    /// The HyperCube configuration contains a zero dimension.
    HcConfigZeroDim,
    /// The HyperCube configuration assigns a dimension to a variable no
    /// atom contains. Every atom replicates across that dimension, so
    /// every join result materializes once *per coordinate* — duplicated
    /// output under the engine's bag semantics.
    HcConfigUnknownVar,
    /// A join variable received no HyperCube dimension; atoms
    /// containing it replicate instead of hash-partitioning.
    HcConfigMissingJoinVar,
    /// The configuration leaves most of the cluster idle
    /// (`∏ dᵢ` ≪ workers).
    HcConfigUnderutilized,
    /// The broadcast plan ships more tuples than it keeps partitioned;
    /// partitioned plans would move less data.
    BroadcastDominated,

    /// The predicted per-worker workload exceeds the cluster memory
    /// budget; the run is likely to abort with a mid-flight
    /// `MemoryBudget` failure.
    MemoryPreflight,

    /// The host refused to report its parallelism
    /// (`available_parallelism` errored), so the executor runs every
    /// worker on a single OS thread instead of silently pretending the
    /// cluster is parallel.
    HostParallelismUnknown,
    /// The streaming shuffle batch size is zero; a zero-row batch can
    /// never flush, so the exchange would make no progress.
    BatchSizeZero,
    /// One shuffle batch holds more tuples than the per-worker memory
    /// budget: a single arriving batch already overruns the budget the
    /// run is supposed to enforce.
    BatchOverBudget,
    /// A full batch of the widest atom encodes to more bytes than the
    /// transport's per-frame limit: the exchange would reject the very
    /// first full batch with `FrameTooLarge` instead of shuffling
    /// anything. Lower `batch_tuples` or raise `max_frame_bytes`.
    FrameOverLimit,
    /// The Tributary prepare phase's projected working set (every
    /// atom's post-shuffle fragment, prepared copy included) exceeds
    /// the per-worker memory budget, so no prepared trie of this plan
    /// can be pinned by the prepare caches and the prepare itself is
    /// likely to overrun the budget. (The name predates the trie cache.)
    SortCacheOverBudget,
    /// The cluster simulates at least as many workers as the host has
    /// cores, so the intra-worker parallel prepare (chunked sorts) and
    /// probe (morsels) silently degrade to one thread per worker —
    /// worker-level parallelism already saturates the machine. Speedup
    /// experiments that expect intra-worker parallelism need
    /// `workers < host_cores`.
    ProbeParallelismDegraded,

    /// The distribution policy is statically *proved* parallel-correct
    /// (in the sense of Ameloot et al.): for every valuation of the
    /// query's variables, some worker receives every fact the valuation
    /// needs. The pre-flight's policy pass attaches it to every plan it
    /// certifies, carrying one `proof[k]` entry per communication round
    /// with that round's per-dimension proof obligations.
    PolicyCertified,
    /// The distribution policy is **not** parallel-correct: the attached
    /// context carries a concrete counterexample valuation whose
    /// required facts share no worker under the policy's actual hash
    /// routing.
    PolicyCounterexample,
    /// The policy failed the symbolic agreement criterion, but the
    /// bounded concrete search found no valuation that actually fails —
    /// hash collisions over small domains can mask one. The plan is not
    /// certified; treat it as suspect.
    PolicyUnproven,
    /// The policy is structurally malformed (a pin on a variable the
    /// atom does not contain, a pin vector of the wrong length, a
    /// zero-extent dimension): it describes no executable routing.
    PolicyMalformed,
}

impl DiagCode {
    /// The stable short code (e.g. `C301`) used in reports.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::QueryMalformed => "Q100",
            DiagCode::HeadVarUnbound => "Q101",
            DiagCode::FilterVarUnbound => "Q102",
            DiagCode::QueryDisconnected => "Q103",
            DiagCode::CatalogUnknownRelation => "Q110",
            DiagCode::CatalogArityMismatch => "Q111",
            DiagCode::JoinOrderNotPermutation => "P200",
            DiagCode::JoinOrderCartesianStep => "P201",
            DiagCode::FilterNeverApplied => "P202",
            DiagCode::TjOrderIncomplete => "P210",
            DiagCode::TjOrderDuplicate => "P211",
            DiagCode::TjOrderUnknownVar => "P212",
            DiagCode::TjOrderDisconnectedPrefix => "P213",
            DiagCode::HcConfigOversized => "C300",
            DiagCode::HcConfigZeroDim => "C301",
            DiagCode::HcConfigUnknownVar => "C302",
            DiagCode::HcConfigMissingJoinVar => "C303",
            DiagCode::HcConfigUnderutilized => "C304",
            DiagCode::BroadcastDominated => "C305",
            DiagCode::MemoryPreflight => "R400",
            DiagCode::HostParallelismUnknown => "R401",
            DiagCode::BatchSizeZero => "R410",
            DiagCode::BatchOverBudget => "R411",
            DiagCode::SortCacheOverBudget => "R412",
            DiagCode::ProbeParallelismDegraded => "R413",
            DiagCode::FrameOverLimit => "R414",
            DiagCode::PolicyCertified => "R420",
            DiagCode::PolicyCounterexample => "R421",
            DiagCode::PolicyUnproven => "R422",
            DiagCode::PolicyMalformed => "R423",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Machine-readable code.
    pub code: DiagCode,
    /// Error (refuse to run) or warning (run, but surface it).
    pub severity: Severity,
    /// Human-readable one-line description.
    pub message: String,
    /// Key–value context: the offending variable, the computed bound,
    /// the budget, … Order is the order of insertion.
    pub context: Vec<(String, String)>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// A new info diagnostic (positive findings, e.g. proof
    /// certificates).
    pub fn info(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Attaches one key–value context entry (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.context.push((key.into(), value.to_string()));
        self
    }

    /// Looks up a context value by key.
    pub fn context_value(&self, key: &str) -> Option<&str> {
        self.context
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        for (k, v) in &self.context {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// True if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Sorts diagnostics into the canonical report order: by code, then by
/// the site they anchor to (message, then context). The sort is stable,
/// so findings the same pass emitted for the same site keep their
/// emission order. CI diffs and certificate snapshots depend on this
/// ordering being deterministic across runs and platforms.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.code.code(), &a.message, &a.context).cmp(&(b.code.code(), &b.message, &b.context))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_context() {
        let d = Diagnostic::error(DiagCode::HcConfigOversized, "too many cells")
            .with("cells", 128)
            .with("workers", 64);
        let s = format!("{d}");
        assert!(s.contains("C300"), "got {s}");
        assert!(s.contains("cells=128"), "got {s}");
        assert_eq!(d.context_value("workers"), Some("64"));
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn has_errors_detects() {
        let w = Diagnostic::warning(DiagCode::MemoryPreflight, "tight");
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error(DiagCode::QueryMalformed, "bad");
        assert!(has_errors(&[w, e]));
    }
}
