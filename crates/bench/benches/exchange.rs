//! Exchange throughput: the sequential Local loop vs the InProcess
//! streaming transport at several batch sizes, hash-routing a two-column
//! graph across 8 workers. Streaming pays wire encoding and channel
//! hops; the interesting number is how quickly larger batches amortize
//! that overhead. The byte accounting behind these kernels is asserted
//! in `crates/runtime/tests/exchange.rs`.
//!
//! The `pipelined` group routes a hash join's output: each rank joins
//! its co-partitioned slice of `E(x, y) ⋈ E(y, z)` and either hands every
//! [`ROUTE_CHUNK`] rows of output to the exchange as it probes
//! ([`Runtime::exchange`], the pipelined regular-shuffle step) or
//! materialises its whole output and then shuffles it
//! ([`Runtime::shuffle`]). Both are checked to deliver the same
//! partitions before either is timed.
//!
//! Its receive-side pair routes a hash join's *probe* side instead:
//! each rank holds its build partition and either probes every batch as
//! its drain thread decodes it, keeping output per source
//! ([`Runtime::exchange_with`], the last step of a pipelined
//! regular-shuffle plan), or receives its whole partition and then
//! joins it in one phase. Both are checked to give every rank the same
//! output before either is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::Relation;
use parjoin_datagen::graph;
use parjoin_engine::exec::run_phase;
use parjoin_engine::local::JoinTable;
use parjoin_obs::Lane;
use parjoin_runtime::exchange::{concat, Consume, Produce, RowSink};
use parjoin_runtime::route::ROUTE_CHUNK;
use parjoin_runtime::{
    local_shuffle, Route, Runtime, RuntimeConfig, RuntimeError, ShuffleOutcome, TransportKind,
};
use std::sync::Arc;

const WORKERS: usize = 8;

fn make_parts(rel: &Relation) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..WORKERS).map(|_| Relation::new(rel.arity())).collect();
    for (i, row) in rel.rows().enumerate() {
        parts[i % WORKERS].push_row(row);
    }
    parts
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    let g = graph::twitter_graph(20_000, 5, 3);
    let parts = make_parts(&g);
    let route = Route::hash(vec![1], 42, WORKERS).expect("route");
    group.throughput(Throughput::Elements(g.len() as u64));

    group.bench_with_input(BenchmarkId::new("local", g.len()), &parts, |b, p| {
        b.iter(|| local_shuffle(p, &route));
    });

    for batch in [512usize, 4096, 16_384] {
        let rt = Runtime::new(RuntimeConfig {
            workers: WORKERS,
            transport: TransportKind::InProcess,
            batch_tuples: batch,
            ..RuntimeConfig::default()
        })
        .expect("runtime spawns");
        group.bench_with_input(
            BenchmarkId::new("in_process", format!("batch{batch}")),
            &parts,
            |b, p| {
                b.iter(|| rt.shuffle(p.clone(), &route).expect("exchange succeeds"));
            },
        );
        rt.shutdown().expect("clean shutdown");
    }
    group.finish();
}

/// One rank's `E(x, y) ⋈ E(y, z)`: the table is built on `build`'s `y`
/// (column 0), `probe` rows look up their `y` (column 1), and each match
/// emits `(x, y, z)`.
#[derive(Clone)]
struct TwoPath {
    probe: Relation,
    build: Relation,
}

impl TwoPath {
    /// Joins, handing `emit` the output in probe order, in pieces of at
    /// least `chunk` rows (the last excepted).
    fn run(
        &self,
        chunk: usize,
        emit: &mut dyn FnMut(&mut Relation) -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let table = JoinTable::build(&self.build, &[0], 7);
        let mut out = Relation::new(3);
        for row in self.probe.rows() {
            for b in table.probe1(row[1]) {
                out.push_row(&[row[0], row[1], self.build.value(b, 1)]);
            }
            if out.len() >= chunk {
                emit(&mut out)?;
            }
        }
        emit(&mut out)
    }

    /// The whole output, materialised.
    fn materialise(&self) -> Relation {
        let mut all = Relation::new(3);
        let keep = &mut |piece: &mut Relation| {
            std::mem::swap(&mut all, piece);
            Ok(())
        };
        self.run(usize::MAX, keep)
            .expect("a materialising join cannot fail");
        all
    }
}

impl Produce for TwoPath {
    type Report = ();

    fn arity(&self) -> usize {
        3
    }

    fn produce(self, sink: &mut dyn RowSink, _: &Lane) -> Result<(), RuntimeError> {
        self.run(ROUTE_CHUNK, &mut |piece| {
            let sent = sink.push_rows(piece.raw());
            piece.clear();
            sent
        })
    }
}

/// One rank's build side of `E(x, y) ⋈ E(y, z)` on the receive side of
/// the probe side's exchange: every decoded batch is probed at once and
/// its output kept per source.
struct ProbeOnReceipt {
    build: Arc<Relation>,
    table: JoinTable,
    batch: Relation,
    per_src: Vec<Relation>,
}

impl ProbeOnReceipt {
    fn new(build: Arc<Relation>) -> Self {
        ProbeOnReceipt {
            table: JoinTable::build(&build, &[0], 7),
            build,
            batch: Relation::new(2),
            per_src: (0..WORKERS).map(|_| Relation::new(3)).collect(),
        }
    }
}

/// Appends `probe ⋈ build` on `y`, in probe order, to `out`.
fn probe_into(table: &JoinTable, build: &Relation, probe: &Relation, out: &mut Relation) {
    for row in probe.rows() {
        for b in table.probe1(row[1]) {
            out.push_row(&[row[0], row[1], build.value(b, 1)]);
        }
    }
}

impl Consume for ProbeOnReceipt {
    type Report = ();

    fn inbox(&mut self, _: usize) -> &mut Relation {
        &mut self.batch
    }

    fn received(&mut self, src: usize, _: usize) {
        probe_into(
            &self.table,
            &self.build,
            &self.batch,
            &mut self.per_src[src],
        );
        self.batch.clear();
    }

    fn finish(self) -> (Relation, ()) {
        (concat(3, self.per_src), ())
    }
}

fn partitions(out: &ShuffleOutcome) -> Vec<&[u64]> {
    out.parts.iter().map(Relation::raw).collect()
}

fn bench_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipelined");
    let g = graph::twitter_graph(4_000, 4, 3);
    let parts = make_parts(&g);
    // Co-partition both sides on y, then route the output on z.
    let (on_y_probe, on_y_build) = (
        Route::hash(vec![1], 42, WORKERS).expect("route"),
        Route::hash(vec![0], 42, WORKERS).expect("route"),
    );
    let (probe, build) = (
        local_shuffle(&parts, &on_y_probe).parts,
        local_shuffle(&parts, &on_y_build).parts,
    );
    let joins: Vec<TwoPath> = (probe.into_iter().zip(build))
        .map(|(probe, build)| TwoPath { probe, build })
        .collect();
    let on_z = Route::hash(vec![2], 43, WORKERS).expect("route");
    let rt = Runtime::new(RuntimeConfig {
        workers: WORKERS,
        transport: TransportKind::InProcess,
        ..RuntimeConfig::default()
    })
    .expect("runtime spawns");
    let materialised = || {
        let outs = joins.iter().map(TwoPath::materialise).collect();
        rt.shuffle(outs, &on_z).expect("exchange succeeds")
    };
    let pipelined = || {
        let (out, _) = rt
            .exchange(joins.clone(), &on_z)
            .expect("exchange succeeds");
        out
    };
    let (want, got) = (materialised(), pipelined());
    assert_eq!(partitions(&want), partitions(&got), "same partitions");
    assert_eq!(want.bytes_sent, got.bytes_sent, "same bytes");
    let rows: u64 = want.per_consumer.iter().sum();
    group.throughput(Throughput::Elements(rows));
    group.bench_function(format!("materialise_then_shuffle/{rows}"), |b| {
        b.iter(materialised);
    });
    group.bench_function(format!("join_feeds_exchange/{rows}"), |b| {
        b.iter(pipelined);
    });

    // The receive side: the probe rows travel, the build rows stay.
    let probe_parts: Vec<Relation> = joins.iter().map(|j| j.probe.clone()).collect();
    let builds: Vec<Arc<Relation>> = joins.iter().map(|j| Arc::new(j.build.clone())).collect();
    let concat_then_join = || {
        let received = rt
            .shuffle(probe_parts.clone(), &on_y_probe)
            .expect("exchange succeeds");
        run_phase(WORKERS, |w| {
            let build = &builds[w];
            let mut out = Relation::new(3);
            let table = JoinTable::build(build, &[0], 7);
            probe_into(&table, build, &received.parts[w], &mut out);
            out
        })
        .results
    };
    let received_feeds_join = || {
        let consumers = builds.iter().cloned().map(ProbeOnReceipt::new).collect();
        let (out, _, _) = rt
            .exchange_with(probe_parts.clone(), consumers, &on_y_probe)
            .expect("exchange succeeds");
        out.parts
    };
    let (want, got) = (concat_then_join(), received_feeds_join());
    let raw =
        |parts: &[Relation]| -> Vec<Vec<u64>> { parts.iter().map(|p| p.raw().to_vec()).collect() };
    assert_eq!(raw(&want), raw(&got), "same output on every rank");
    let probed: u64 = probe_parts.iter().map(|p| p.len() as u64).sum();
    group.throughput(Throughput::Elements(probed));
    group.bench_function(format!("concat_then_join/{probed}"), |b| {
        b.iter(concat_then_join);
    });
    group.bench_function(format!("received_feeds_join/{probed}"), |b| {
        b.iter(received_feeds_join);
    });
    group.finish();
    rt.shutdown().expect("clean shutdown");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_exchange, bench_pipelined
}
criterion_main!(benches);
