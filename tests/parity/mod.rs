//! The reference-vs-production parity matrix, shared by the
//! `sort_cache`, `layout_parity`, `probe_parallel`, `transports` and
//! `wire_formats` suites — each runs one slice of it.
//!
//! The single claim: on every paper query under all six shuffle×join
//! configurations (and, for the acyclic ones, §3.6's semijoin plans:
//! [`configs_for`]), the production path's collected output is
//! **byte-identical** to the reference configuration's — the backing
//! buffers are compared raw, unsorted, so no row may move — and both
//! shuffle the same number of tuples.
//!
//! * The **reference configuration** is `Local` + `sequential_prepare` +
//!   `sequential_probe` + `TrieLayout::Row`, as the e2e harness's
//!   `oracle.rs` defines it: no caches, no threads, no wire.
//! * The **production path** is `PlanOptions::default()` — columnar
//!   tries from the TrieCache, built on a miss by the pack → sort → emit
//!   kernel, and the work-stealing morsel probe — varied only along
//!   [`Production`]: where the bytes go (`Local`, `InProcess`, `Tcp`),
//!   how many probe threads, how many tuples ride in one frame, and
//!   which trie layout prepares (`Row` sorts through the SortCache).
//!
//! Every cell also pins the accounting each run must report about
//! itself ([`assert_reference`], [`assert_production`]), so a slice
//! checks its counters on all of Q1–Q8, not on one hand-picked query.
#![allow(dead_code, unused_macros)]

use parjoin::prelude::*;
use std::fmt;

/// The six shuffle×join configurations of the paper.
pub const CONFIGS: [(ShuffleAlg, JoinAlg); 6] = parjoin::engine::PAPER_CONFIGS;

/// Every configuration `spec` runs under: the paper's six, then
/// `SJ_HJ` and `SJ_TJ` when the query is acyclic.
pub fn configs_for(spec: &QuerySpec) -> Vec<(ShuffleAlg, JoinAlg)> {
    let semijoin = JoinAlg::ALL.map(|j| (ShuffleAlg::Semijoin, j));
    let acyclic_only: &[_] = if spec.cyclic { &[] } else { &semijoin };
    CONFIGS.iter().chain(acyclic_only).copied().collect()
}

/// One point on the production side of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Production {
    /// Where shuffled bytes go.
    pub transport: TransportKind,
    /// Pinned probe threads (`None`: whatever the host grants), so no
    /// suite depends on how many cores CI happens to have.
    pub probe_threads: Option<usize>,
    /// `Cluster::batch_tuples`: rows per streamed frame.
    pub batch_tuples: usize,
    /// The trie layout Tributary plans prepare.
    pub layout: TrieLayout,
}

/// Rows per frame unless a slice says otherwise: small enough that even
/// tiny-scale shuffles stream several frames per directed pair, so the
/// flush path runs and not just the final partial batch.
pub const BATCH_TUPLES: usize = 512;

impl Production {
    /// The `Local` transport at `probe_threads`.
    pub const fn local(probe_threads: Option<usize>) -> Production {
        Production {
            transport: TransportKind::Local,
            probe_threads,
            batch_tuples: BATCH_TUPLES,
            layout: TrieLayout::Columnar,
        }
    }

    /// The same point with Tributary plans prepared in `layout`.
    pub const fn with_layout(self, layout: TrieLayout) -> Production {
        Production { layout, ..self }
    }

    /// A streaming transport at host-default probe threads.
    pub const fn streaming(transport: TransportKind) -> Production {
        Production::framed(transport, BATCH_TUPLES)
    }

    /// A streaming transport at `batch_tuples` rows per frame.
    pub const fn framed(transport: TransportKind, batch_tuples: usize) -> Production {
        Production {
            transport,
            probe_threads: None,
            batch_tuples,
            layout: TrieLayout::Columnar,
        }
    }
}

impl fmt::Display for Production {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.transport)?;
        if let Some(t) = self.probe_threads {
            write!(f, " t={t}")?;
        }
        if self.batch_tuples != BATCH_TUPLES {
            write!(f, " batch={}", self.batch_tuples)?;
        }
        if self.layout != TrieLayout::Columnar {
            write!(f, " {:?}", self.layout)?;
        }
        Ok(())
    }
}

/// Four workers at [`BATCH_TUPLES`] rows per frame.
pub fn cluster(transport: TransportKind) -> Cluster {
    Cluster::new(4)
        .with_seed(11)
        .with_transport(transport)
        .with_batch_tuples(BATCH_TUPLES)
}

/// The reference configuration's options.
pub fn reference_opts() -> PlanOptions {
    PlanOptions {
        collect_output: true,
        sequential_prepare: true,
        sequential_probe: true,
        trie_layout: TrieLayout::Row,
        ..Default::default()
    }
}

/// The production options at `p`.
pub fn production_opts(p: Production) -> PlanOptions {
    PlanOptions {
        collect_output: true,
        probe_threads: p.probe_threads,
        trie_layout: p.layout,
        ..Default::default()
    }
}

/// The catalog a query's cells run on: tiny, except Q4, whose
/// regular-shuffle plan blows up combinatorially and keeps the same
/// extra-small catalog as the `configs_agree` suite.
pub fn db_for(spec: &QuerySpec) -> Database {
    let scale = if spec.name == "Q4" {
        Scale {
            twitter_nodes: 300,
            twitter_m: 3,
            freebase_performances: 250,
        }
    } else {
        Scale::tiny()
    };
    scale.db_for(spec.dataset, 7)
}

/// Runs one configuration under the reference configuration.
pub fn reference(spec: &QuerySpec, db: &Database, s: ShuffleAlg, j: JoinAlg) -> RunResult {
    let cluster = cluster(TransportKind::Local);
    run_config(&spec.query, db, &cluster, s, j, &reference_opts())
        .unwrap_or_else(|e| panic!("{} {s:?}/{j:?} reference: {e}", spec.name))
}

/// Runs one configuration on the production path at `p`.
pub fn production(
    spec: &QuerySpec,
    db: &Database,
    s: ShuffleAlg,
    j: JoinAlg,
    p: Production,
) -> RunResult {
    let cluster = cluster(p.transport).with_batch_tuples(p.batch_tuples);
    run_config(&spec.query, db, &cluster, s, j, &production_opts(p))
        .unwrap_or_else(|e| panic!("{} {s:?}/{j:?} on {p}: {e}", spec.name))
}

/// True for the plans with a Tributary prepare phase (one-round TJ):
/// the only ones that consult a prepare cache — the TrieCache on the
/// columnar layout, the SortCache on the row layout.
pub fn prepares_tries(s: ShuffleAlg, j: JoinAlg) -> bool {
    j == JoinAlg::Tributary && s.is_one_round()
}

/// The claim itself: same bytes, same arity, same counts.
pub fn assert_parity(cell: &str, reference: &RunResult, run: &RunResult) {
    let want = reference.output.as_ref().expect("collected");
    let got = run.output.as_ref().expect("collected");
    assert_eq!(want.arity(), got.arity(), "{cell}: arity drifted");
    assert_eq!(
        want.raw(),
        got.raw(),
        "{cell}: output not byte-identical to the reference configuration"
    );
    assert_eq!(
        reference.output_tuples, run.output_tuples,
        "{cell}: output counts drifted"
    );
    assert_eq!(
        reference.tuples_shuffled, run.tuples_shuffled,
        "{cell}: shuffled-tuple tallies drifted"
    );
}

/// The encoded bytes a run's shuffles put on the network.
fn bytes_shuffled(r: &RunResult) -> u64 {
    r.shuffles.iter().map(|s| s.bytes_sent).sum()
}

/// What a reference run reports about itself: one probe thread, no
/// cache lookups of either kind, no bytes.
pub fn assert_reference(cell: &str, r: &RunResult) {
    assert_eq!(
        r.metric(metric_names::PROBE_THREADS),
        Some(1),
        "{cell}: sequential_probe is one thread"
    );
    assert!(r.probe_morsels >= 1, "{cell}: no probe morsels recorded");
    assert_eq!(
        (r.sort_cache_hits, r.sort_cache_misses),
        (0, 0),
        "{cell}: the reference must bypass the SortCache"
    );
    assert_eq!(
        (r.trie_cache_hits, r.trie_cache_misses),
        (0, 0),
        "{cell}: the reference must bypass the TrieCache"
    );
    assert_eq!(bytes_shuffled(r), 0, "{cell}: Local moves no bytes");
}

/// What a production run reports about itself.
pub fn assert_production(cell: &str, (s, j): (ShuffleAlg, JoinAlg), p: Production, r: &RunResult) {
    assert!(r.probe_morsels >= 1, "{cell}: no probe morsels recorded");
    if let Some(t) = p.probe_threads {
        assert_eq!(
            r.metric(metric_names::PROBE_THREADS),
            Some(t as u64),
            "{cell}: probe_threads must echo the override"
        );
    }
    let sort_lookups = r.sort_cache_hits + r.sort_cache_misses;
    let trie_lookups = r.trie_cache_hits + r.trie_cache_misses;
    if prepares_tries(s, j) {
        match p.layout {
            TrieLayout::Columnar => {
                assert!(trie_lookups > 0, "{cell}: TJ prepare skipped the TrieCache");
                assert_eq!(
                    sort_lookups, 0,
                    "{cell}: columnar TJ prepare consulted the SortCache"
                );
            }
            TrieLayout::Row => {
                assert!(sort_lookups > 0, "{cell}: TJ prepare skipped the SortCache");
                assert_eq!(
                    trie_lookups, 0,
                    "{cell}: row TJ prepare consulted the TrieCache"
                );
            }
        }
    } else {
        assert_eq!(
            (sort_lookups, trie_lookups),
            (0, 0),
            "{cell}: a plan without a TJ prepare phase touched a cache"
        );
    }
    let bytes = bytes_shuffled(r);
    if !p.transport.is_streaming() {
        assert_eq!(bytes, 0, "{cell}: Local moves no bytes");
        return;
    }
    assert!(
        bytes > 0 || r.tuples_shuffled == 0,
        "{cell}: streaming moved tuples but no bytes"
    );
    // One byte ledger: the bytes the engine reports are the bytes the
    // runtime put on the wire and took off it.
    for counter in ["runtime.tx.bytes", "runtime.rx.bytes"] {
        assert_eq!(
            r.metric(counter),
            Some(bytes),
            "{cell}: {counter} disagrees with the shuffles' bytes"
        );
    }
    if p.batch_tuples == 1 {
        assert_eq!(
            r.metric("runtime.tx.batches"),
            Some(r.tuples_shuffled),
            "{cell}: one tuple per frame means one frame per shuffled tuple"
        );
    }
}

/// What a run on a streaming transport owes every shuffle it records —
/// the heavy-key summaries, the group-count combine and the semijoin
/// reductions included: tuples moved means bytes moved, and the
/// engine's byte total is exactly what the runtime put on the wire.
pub fn assert_every_shuffle_streamed(cell: &str, r: &RunResult) {
    for s in &r.shuffles {
        assert!(
            s.bytes_sent > 0 || s.tuples_sent == 0,
            "{cell}: `{}` moved {} tuples and no bytes",
            s.label,
            s.tuples_sent
        );
    }
    let bytes = bytes_shuffled(r);
    assert!(bytes > 0, "{cell}: nothing was streamed");
    assert_eq!(
        r.metric("runtime.tx.bytes"),
        Some(bytes),
        "{cell}: engine and runtime disagree on the bytes shuffled"
    );
}

/// One slice of the matrix: per configuration, one reference run, then
/// the production path at every point of `axis`.
pub fn check(spec: &QuerySpec, axis: &[Production]) {
    let db = db_for(spec);
    for (s, j) in configs_for(spec) {
        let cell = format!("{} {s:?}/{j:?}", spec.name);
        let oracle = reference(spec, &db, s, j);
        assert_reference(&cell, &oracle);
        for &p in axis {
            let cell = format!("{cell} on {p}");
            let run = production(spec, &db, s, j, p);
            assert_parity(&cell, &oracle, &run);
            assert_production(&cell, (s, j), p, &run);
        }
    }
}

/// Declares one `#[test]` per `name => query` pair, each handing that
/// paper query (`q1` … `q8` of `datagen::workloads`) to `$check`.
macro_rules! parity_tests {
    ($check:path; $($name:ident => $query:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                $check(&parjoin::datagen::workloads::$query());
            }
        )+
    };
}
