//! Probe phase of the Tributary join — the other ~27% of local-join
//! time (Table 5) — across three kernels on Zipf-skewed graphs:
//!
//! * `binary_seek` — a bench-local [`TrieCursor`] whose `seek` and
//!   run-end scans are plain full-range binary searches with no
//!   memoization: the pre-galloping baseline.
//! * `gallop` — the production row-layout [`TrieIter`] (exponential
//!   probe + narrow binary search, memoized run ends), run sequentially.
//! * `columnar` — the production [`ColumnarAtom`] (level-segmented CSR
//!   trie, branch-free chunk-wise gallop), run sequentially: the
//!   layout speedup over `gallop` is the headline number.
//! * `morsel_t{2,4}` — the row-layout kernel under the morsel-parallel
//!   dispatcher ([`tributary_probe`]) at 2 and 4 probe threads.
//! * `steal_t{2,4}` — the columnar kernel under the same work-stealing
//!   dispatcher.
//!
//! Three shapes: the triangle and the four-cycle on a Zipf graph, and
//! the triangle on a hub graph whose leaf slices are one key against
//! thousands (the two-way leaf kernel's lopsided branch).
//!
//! Skew matters: under a Zipf-like degree distribution a few hot nodes
//! own long runs, so leapfrog seeks routinely jump many rows — exactly
//! where galloping's `O(log m)` beats restarting a binary search over
//! the whole remaining range. A kernel micro-benchmark for development
//! (`cargo bench -p parjoin-bench --bench probe`); recorded performance
//! lives in `BENCHMARK.json` only.
//!
//! The vendored criterion stand-in ignores CLI arguments, so quick mode
//! (CI's `-- --test` smoke run) is detected here: it shrinks the graph
//! (still above the morsel threshold) and the sample count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parjoin_common::{hash, Relation, Value};
use parjoin_core::tributary::{ColumnarAtom, SortedAtom, Tributary, TrieAtom, TrieCursor};
use parjoin_engine::probe::{tributary_probe, ProbeAtom};
use parjoin_query::VarId;

/// True when invoked as a smoke test (`cargo bench ... -- --test`); the
/// stub harness forwards but does not interpret the flag.
fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// `edges` directed edges over `nodes` vertices with a Zipf-like
/// endpoint distribution: endpoints are drawn by pushing a uniform
/// hash through an inverse power law, so low node ids are hot (a few
/// nodes own a large fraction of the edges) and trie runs are long.
fn zipf_edges(edges: usize, nodes: u64, seed: u64) -> Relation {
    let skew = |u: f64| -> Value {
        // Inverse-CDF of p(k) ~ 1/(k+1) truncated to [0, nodes)
        // (log-uniform): classic Zipf-1 frequencies — hot low ids with
        // a long tail, so out-degrees are heavily skewed.
        let k = (nodes as f64).powf(u) - 1.0;
        (k as u64).min(nodes - 1)
    };
    let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<[Value; 2]> = (0..edges)
        .map(|i| {
            let a = skew(unit(hash::hash64(2 * i as u64, seed)));
            let b = hash::hash64(2 * i as u64 + 1, seed ^ 0x9e37) % nodes;
            [a, b]
        })
        .collect();
    Relation::from_rows(2, rows).distinct()
}

/// The pre-galloping baseline: an array trie whose cursor re-runs a
/// full-range binary search on every `seek` and every run-end
/// computation (`open`/`next_key`), with no memoization. Functionally
/// identical to [`parjoin_core::tributary::TrieIter`].
struct BinAtom {
    rel: Relation,
    depths: Vec<usize>,
}

impl BinAtom {
    fn from_sorted(atom: &SortedAtom) -> BinAtom {
        BinAtom {
            rel: atom.relation().clone(),
            depths: atom.depths().to_vec(),
        }
    }
}

struct BinCursor<'a> {
    rel: &'a Relation,
    depth: usize,
    range: Vec<(usize, usize)>,
    pos: Vec<usize>,
}

const ROOT: usize = usize::MAX;

impl BinCursor<'_> {
    /// First row in `[self.pos[d], hi)` whose column-`d` value is `>= v`
    /// — textbook binary search over the whole remaining range.
    fn lower_bound(&self, d: usize, v: Value) -> usize {
        let (mut lo, mut hi) = (self.pos[d], self.range[d].1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rel.value(mid, d) < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn run_end(&self, d: usize) -> usize {
        match self.key().checked_add(1) {
            Some(next) => self.lower_bound(d, next),
            None => self.range[d].1,
        }
    }
}

impl TrieCursor for BinCursor<'_> {
    fn open(&mut self) {
        if self.depth == ROOT {
            self.depth = 0;
            self.range[0] = (0, self.rel.len());
            self.pos[0] = 0;
        } else {
            let child = (self.pos[self.depth], self.run_end(self.depth));
            self.depth += 1;
            self.range[self.depth] = child;
            self.pos[self.depth] = child.0;
        }
    }

    fn up(&mut self) {
        self.depth = if self.depth == 0 {
            ROOT
        } else {
            self.depth - 1
        };
    }

    fn next_key(&mut self) {
        self.pos[self.depth] = self.run_end(self.depth);
    }

    fn seek(&mut self, v: Value) {
        if self.key() < v {
            self.pos[self.depth] = self.lower_bound(self.depth, v);
        }
    }

    fn key(&self) -> Value {
        self.rel.value(self.pos[self.depth], self.depth)
    }

    fn at_end(&self) -> bool {
        self.pos[self.depth] >= self.range[self.depth].1
    }
}

impl TrieAtom for BinAtom {
    type Cursor<'a> = BinCursor<'a>;

    fn depths(&self) -> &[usize] {
        &self.depths
    }

    fn cursor(&self) -> BinCursor<'_> {
        let a = self.rel.arity();
        BinCursor {
            rel: &self.rel,
            depth: ROOT,
            range: vec![(0, 0); a],
            pos: vec![0; a],
        }
    }
}

impl ProbeAtom for BinAtom {
    fn split_rows(&self) -> usize {
        self.rel.len()
    }

    fn split_len(&self) -> usize {
        self.rel.len()
    }

    fn split_key(&self, k: usize) -> Value {
        self.rel.value(k, 0)
    }
}

fn v(i: u32) -> VarId {
    VarId(i)
}

/// A hub joined both ways to each of `nodes - 1` other vertices, plus
/// `extra` uniform edges among those. Under the triangle order `[x, y, z]`
/// with `x` the hub, the leaf intersects `y`'s few out-neighbours with the
/// hub's thousands: the lopsided slices the leaf kernel drives from the
/// short side.
fn hub_edges(nodes: u64, extra: usize, seed: u64) -> Relation {
    let spokes = (1..nodes).flat_map(|i| [[0, i], [i, 0]]);
    let others = (0..extra as u64).map(|i| {
        let a = 1 + hash::hash64(2 * i, seed) % (nodes - 1);
        let b = 1 + hash::hash64(2 * i + 1, seed) % (nodes - 1);
        [a, b]
    });
    Relation::from_rows(2, spokes.chain(others).collect::<Vec<[Value; 2]>>()).distinct()
}

/// (name, graph, atom variable lists): the two cyclic shapes on the
/// Zipf graph, and the triangle on the hub graph.
fn shapes() -> Vec<(&'static str, Relation, Vec<[VarId; 2]>)> {
    let quick = quick_mode();
    let edges_n: usize = if quick { 6_000 } else { 40_000 };
    let nodes: u64 = (edges_n as u64 / 4).max(64);
    let zipf = zipf_edges(edges_n, nodes, 17);
    let hub = if quick {
        hub_edges(2_000, 4_000, 23)
    } else {
        hub_edges(8_000, 16_000, 23)
    };
    let triangle = vec![[v(0), v(1)], [v(1), v(2)], [v(2), v(0)]];
    vec![
        ("triangle", zipf.clone(), triangle.clone()),
        (
            "four_cycle",
            zipf,
            vec![[v(0), v(1)], [v(1), v(2)], [v(2), v(3)], [v(3), v(0)]],
        ),
        ("hub_triangle", hub, triangle),
    ]
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe");
    for (name, edges, atom_vars) in shapes() {
        let num_vars = atom_vars.len();
        let order: Vec<VarId> = (0..num_vars as u32).map(v).collect();
        let sorted: Vec<SortedAtom> = atom_vars
            .iter()
            .map(|vs| SortedAtom::prepare(&edges, vs, &order))
            .collect();
        let bin: Vec<BinAtom> = sorted.iter().map(BinAtom::from_sorted).collect();
        let columnar: Vec<ColumnarAtom> = atom_vars
            .iter()
            .map(|vs| ColumnarAtom::prepare(&edges, vs, &order))
            .collect();
        let label = format!("{name}/{}e", edges.len());
        group.throughput(Throughput::Elements(edges.len() as u64));

        group.bench_with_input(BenchmarkId::new("binary_seek", &label), &bin, |b, atoms| {
            let tj = Tributary::new(atoms, &order, &[], num_vars);
            b.iter(|| {
                let mut n = 0u64;
                tj.run(|_| {
                    n += 1;
                    true
                });
                n
            });
        });

        group.bench_with_input(BenchmarkId::new("gallop", &label), &sorted, |b, atoms| {
            let tj = Tributary::new(atoms, &order, &[], num_vars);
            b.iter(|| {
                let mut n = 0u64;
                tj.run(|_| {
                    n += 1;
                    true
                });
                n
            });
        });

        group.bench_with_input(
            BenchmarkId::new("columnar", &label),
            &columnar,
            |b, atoms| {
                let tj = Tributary::new(atoms, &order, &[], num_vars);
                b.iter(|| {
                    let mut n = 0u64;
                    tj.run(|_| {
                        n += 1;
                        true
                    });
                    n
                });
            },
        );

        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("morsel_t{threads}"), &label),
                &sorted,
                |b, atoms| {
                    let tj = Tributary::new(atoms, &order, &[], num_vars);
                    b.iter(|| tributary_probe(&tj, atoms, &order, threads).rel.len());
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("steal_t{threads}"), &label),
                &columnar,
                |b, atoms| {
                    let tj = Tributary::new(atoms, &order, &[], num_vars);
                    b.iter(|| tributary_probe(&tj, atoms, &order, threads).rel.len());
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if quick_mode() { 2 } else { 10 });
    targets = bench_probe
}
criterion_main!(benches);
