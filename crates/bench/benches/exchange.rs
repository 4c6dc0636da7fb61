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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::Relation;
use parjoin_datagen::graph;
use parjoin_engine::local::JoinTable;
use parjoin_obs::Lane;
use parjoin_runtime::exchange::{Produce, RowSink};
use parjoin_runtime::route::ROUTE_CHUNK;
use parjoin_runtime::{
    local_shuffle, Route, Runtime, RuntimeConfig, RuntimeError, ShuffleOutcome, TransportKind,
};

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
    group.finish();
    rt.shutdown().expect("clean shutdown");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_exchange, bench_pipelined
}
criterion_main!(benches);
