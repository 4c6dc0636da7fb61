//! The batch routing kernel against a naive per-row reference.
//!
//! Every [`Route`] arm — hash, cube (broadcast included) and skew — is
//! replayed row by row from `hash::{bucket, bucket_row}` and
//! `HcConfig::cell_index`, over arities 0–7 and meshes of 1–16 ranks,
//! with empty and nullary partitions. `Local` must equal the reference
//! exactly (partitions in row order, per-producer and per-consumer
//! tallies) and hand out partitions of exact size; the streaming
//! transports must equal `Local`.

use parjoin_common::{hash, Relation, Value};
use parjoin_core::hypercube::HcConfig;
use parjoin_query::VarId;
use parjoin_runtime::route::{HeavyKeys, SPREAD_SALT};
use parjoin_runtime::{
    local_shuffle, Route, Runtime, RuntimeConfig, ShuffleOutcome, TransportKind,
};
use std::sync::Arc;
use std::time::Duration;

const ARITIES: [usize; 7] = [0, 1, 2, 3, 4, 5, 7];
const WIDTHS: [usize; 6] = [1, 2, 3, 4, 7, 16];

/// A per-row reference rule: the destinations of one row.
type Rule = Box<dyn Fn(&[Value]) -> Vec<usize>>;

/// One arm's route beside the per-row rule it must follow.
struct Case {
    name: String,
    route: Route,
    dests: Rule,
}

/// `p` partitions of `arity`-column rows over a small value domain (so
/// keys repeat and skew has heavy keys), partition 0 empty when `p > 1`.
fn make_parts(p: usize, arity: usize, rows: usize, seed: u64) -> Vec<Relation> {
    let mut parts: Vec<Relation> = (0..p).map(|_| Relation::new(arity)).collect();
    let mut row = vec![0; arity];
    for i in 0..rows {
        for (c, v) in row.iter_mut().enumerate() {
            *v = hash::bucket(i as u64 * 31 + c as u64, seed, 9) as Value;
        }
        let w = if p > 1 { 1 + i % (p - 1) } else { 0 };
        parts[w].push_row(&row);
    }
    parts
}

/// The naive shuffle: producers in order, rows in order, one copy per
/// destination the rule names.
fn reference(
    parts: &[Relation],
    p: usize,
    dests: &dyn Fn(&[Value]) -> Vec<usize>,
) -> ShuffleOutcome {
    let arity = parts[0].arity();
    let mut out: Vec<Relation> = (0..p).map(|_| Relation::new(arity)).collect();
    let mut per_producer = vec![0u64; parts.len()];
    let mut per_consumer = vec![0u64; p];
    for (w, part) in parts.iter().enumerate() {
        for row in part.rows() {
            for d in dests(row) {
                if arity == 0 {
                    out[d].push_nullary_rows(1);
                } else {
                    out[d].push_row(row);
                }
                per_producer[w] += 1;
                per_consumer[d] += 1;
            }
        }
    }
    ShuffleOutcome {
        parts: out,
        per_producer,
        per_consumer,
        bytes_sent: 0,
        bytes_received: 0,
    }
}

fn key(row: &[Value], cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row[c]).collect()
}

/// Cube shapes with at most `p` cells.
fn cube_shapes(p: usize) -> Vec<Vec<usize>> {
    let mut shapes = vec![vec![p], vec![1]];
    if p.is_multiple_of(2) {
        shapes.push(vec![2, p / 2]);
    }
    if p >= 8 {
        shapes.push(vec![2, 2, 2]);
    }
    if p >= 6 {
        shapes.push(vec![3, 2]);
    }
    shapes
}

/// Every arm over a `p`-rank mesh for `arity`-column rows.
fn cases(p: usize, arity: usize, parts: &[Relation]) -> Vec<Case> {
    let mut cases = Vec::new();
    let key_sets: Vec<Vec<usize>> = match arity {
        0 => vec![vec![]],
        1 => vec![vec![], vec![0]],
        _ => vec![vec![arity - 1], vec![1, 0]],
    };
    for cols in &key_sets {
        let (cols, seed) = (cols.clone(), 17 + cols.len() as u64);
        cases.push(Case {
            name: format!("hash{cols:?}"),
            route: Route::hash(cols.clone(), seed, p).expect("hash route"),
            dests: Box::new(move |row| vec![hash::bucket_row(&key(row, &cols), seed, p)]),
        });
    }
    cases.push(Case {
        name: "broadcast".into(),
        route: Route::broadcast(p).expect("broadcast route"),
        dests: Box::new(move |_| (0..p).collect()),
    });
    for shares in cube_shapes(p) {
        // Pin every dimension, none, and every other one.
        for pattern in 0..3 {
            let pins: Vec<Option<(usize, u64)>> = (0..shares.len())
                .map(|d| {
                    let pinned = arity > 0 && (pattern == 0 || (pattern == 2 && d % 2 == 0));
                    pinned.then(|| ((2 * d + 1) % arity, hash::dimension_seed(5, d)))
                })
                .collect();
            let vars = (0..shares.len() as u32).map(VarId).collect();
            let config = HcConfig::new(vars, shares.clone());
            let name = format!("cube{shares:?}{pins:?}");
            let route = Route::cube(&shares, &pins, p).expect("cube route");
            let shares = shares.clone();
            let dests = move |row: &[Value]| {
                let mut out = Vec::new();
                let mut coords = vec![0; shares.len()];
                for cell in 0..config.num_cells() {
                    // Enumerate every cell; keep those agreeing on the pins.
                    let mut rest = cell;
                    for d in (0..shares.len()).rev() {
                        coords[d] = rest % shares[d];
                        rest /= shares[d];
                    }
                    let agrees = pins
                        .iter()
                        .zip(&coords)
                        .zip(&shares)
                        .all(|((pin, &c), &s)| {
                            pin.is_none_or(|(col, seed)| hash::bucket(row[col], seed, s) == c)
                        });
                    if agrees {
                        out.push(config.cell_index(&coords));
                    }
                }
                out
            };
            cases.push(Case {
                name,
                route,
                dests: Box::new(dests),
            });
        }
    }
    // Skew: the two most frequent keys are heavy, one spread on each side.
    for cols in &key_sets {
        let mut freq: std::collections::BTreeMap<Vec<Value>, usize> = Default::default();
        for row in parts.iter().flat_map(Relation::rows) {
            *freq.entry(key(row, cols)).or_default() += 1;
        }
        let mut by_freq: Vec<_> = freq.into_iter().collect();
        by_freq.sort_by_key(|(k, n)| (std::cmp::Reverse(*n), k.clone()));
        let heavy: HeavyKeys = (by_freq.into_iter().take(2).enumerate())
            .map(|(i, (k, _))| (k, i == 0))
            .collect();
        let heavy = Arc::new(heavy);
        for spread_when in [true, false] {
            let (cols, heavy, seed) = (cols.clone(), Arc::clone(&heavy), 23);
            let route = Route::skew(cols.clone(), seed, Arc::clone(&heavy), spread_when, p)
                .expect("skew route");
            cases.push(Case {
                name: format!("skew{cols:?}/{spread_when}"),
                route,
                dests: Box::new(move |row| match heavy.get(&key(row, &cols)) {
                    None => vec![hash::bucket_row(&key(row, &cols), seed, p)],
                    Some(&a) if a == spread_when => {
                        vec![hash::bucket_row(row, seed ^ SPREAD_SALT, p)]
                    }
                    Some(_) => (0..p).collect(),
                }),
            });
        }
    }
    cases
}

fn runtime(kind: TransportKind, p: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        workers: p,
        transport: kind,
        batch_tuples: 5,
        io_timeout: Duration::from_secs(20),
        ..RuntimeConfig::default()
    })
    .expect("runtime")
}

fn assert_same(what: &str, a: &ShuffleOutcome, b: &ShuffleOutcome) {
    assert_eq!(a.parts, b.parts, "{what}: partitions, row order included");
    assert_eq!(a.per_producer, b.per_producer, "{what}: per producer");
    assert_eq!(a.per_consumer, b.per_consumer, "{what}: per consumer");
}

#[test]
fn every_arm_matches_the_per_row_reference_on_every_transport() {
    for p in WIDTHS {
        let streams = [TransportKind::InProcess, TransportKind::Tcp].map(|k| (k, runtime(k, p)));
        for arity in ARITIES {
            for rows in [0, 150] {
                let parts = make_parts(p, arity, rows, 3 + arity as u64);
                for case in cases(p, arity, &parts) {
                    let what = format!("p={p} arity={arity} rows={rows} {}", case.name);
                    let local = local_shuffle(&parts, &case.route);
                    assert_same(&what, &reference(&parts, p, &*case.dests), &local);
                    for part in &local.parts {
                        assert_eq!(
                            part.approx_bytes(),
                            part.len() * arity * 8,
                            "{what}: exact size"
                        );
                    }
                    for (kind, rt) in &streams {
                        let streamed = rt.shuffle(parts.clone(), &case.route).expect("shuffle");
                        assert_same(&format!("{what} on {kind}"), &local, &streamed);
                    }
                }
            }
        }
        for (_, rt) in streams {
            rt.shutdown().expect("shutdown");
        }
    }
}

/// A route is checked once, when it is built or handed to a runtime,
/// never per row: nothing it names can reach past the mesh.
#[test]
fn a_route_that_could_leave_the_mesh_is_refused_up_front() {
    use parjoin_runtime::RuntimeError;
    assert!(matches!(
        Route::hash(vec![0], 1, 0),
        Err(RuntimeError::Config(_))
    ));
    assert!(matches!(
        Route::skew(vec![0], 1, Arc::default(), true, 0),
        Err(RuntimeError::Config(_))
    ));
    assert!(matches!(
        Route::cube(&[3, 3], &[None, None], 8),
        Err(RuntimeError::Config(_))
    ));
    assert!(matches!(
        Route::cube(&[2, 0], &[None, None], 8),
        Err(RuntimeError::Config(_))
    ));
    let rt = runtime(TransportKind::InProcess, 3);
    let wide = Route::hash(vec![0], 1, 4).expect("route");
    let err = rt.shuffle(make_parts(3, 1, 30, 1), &wide);
    assert!(
        matches!(err, Err(RuntimeError::Config(ref m)) if m.contains("4 ranks")),
        "{err:?}"
    );
    // The refused round started no rank: the runtime still shuffles.
    let ok = Route::hash(vec![0], 1, 3).expect("route");
    assert!(rt.shuffle(make_parts(3, 1, 30, 1), &ok).is_ok());
    rt.shutdown().expect("shutdown");
}
