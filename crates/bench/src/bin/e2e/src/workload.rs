//! What the four workloads share: the fixed cluster shape, the run
//! parameters, and the interface `main` drives them through.

use crate::spec::Metrics;
use crate::window::Window;
use parjoin_common::{Database, Relation};
use parjoin_datagen::Scale;
use parjoin_engine::Cluster;
use std::path::PathBuf;

/// Simulated workers per query, everywhere.
pub const WORKERS: usize = 4;
/// The cluster's hash seed on the three in-process workloads. Which
/// worker a hub lands on moves `tri_rs_hj_stream` by a quarter and
/// `tri_hc_tj_cold` by several percent, so it stays put as well.
pub const CLUSTER_SEED: u64 = 11;
/// Exchange batch size, everywhere.
pub const BATCH_TUPLES: usize = 4096;
/// Unmeasured queries each client runs before the window opens.
pub const WARMUP_OPS: usize = 20;
/// Most queries a traced pass replays; its time budget may end it
/// sooner, but never before [`MIN_TRACED_OPS`].
pub const TRACED_OPS: usize = 60;
/// Fewest queries a traced pass replays.
pub const MIN_TRACED_OPS: usize = 5;

/// Parameters of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// The in-process workloads reorder the rows of every generated
    /// relation by a permutation drawn from this seed ([`permuted`]):
    /// round-robin seeding, sort inputs, hash-table insertion order and
    /// output order all change with it, the set of tuples and so the
    /// total work do not. The mesh workload cannot hand the coordinator
    /// a database, only generator parameters; there the seed is the
    /// cluster's hash seed, which a one-round `HC_TJ` plan with warm
    /// worker caches is least sensitive to.
    pub seed: u64,
    /// The generator's seed (`--data-seed`, 7 unless given). It does not
    /// follow `--seed`: a preferential-attachment graph from another
    /// seed has other hubs, and the work of a triangle query moves with
    /// them by tens of percent — far more than the regressions the
    /// benchmark has to resolve. It exists so that the oracle can be
    /// shown to hold on other data.
    pub data_seed: u64,
    /// Length of the measured window (or budget of the traced pass).
    pub seconds: f64,
    /// Shrink every dataset to `Scale::tiny()` (the smoke test).
    pub tiny: bool,
}

impl RunCfg {
    /// The workload's dataset scale: `full`, or tiny for the smoke test.
    pub fn scale(&self, full: Scale) -> Scale {
        if self.tiny {
            Scale::tiny()
        } else {
            full
        }
    }
}

/// The cluster every workload simulates, hashing with `seed`.
pub fn cluster(seed: u64) -> Cluster {
    Cluster::new(WORKERS)
        .with_seed(seed)
        .with_batch_tuples(BATCH_TUPLES)
}

/// `db` with the rows of every relation reordered by a Fisher–Yates
/// shuffle drawn from `seed` (SplitMix64, so the order depends on
/// nothing but the seed and the row count).
pub fn permuted(db: &Database, seed: u64) -> Database {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        let mut order: Vec<usize> = (0..rel.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut shuffled = Relation::with_capacity(rel.arity(), rel.len());
        for i in order {
            shuffled.push_row(rel.row(i));
        }
        out.insert(name, shuffled);
    }
    out
}

/// Where a traced pass leaves its chrome traces (not committed).
pub fn trace_file(workload: &str, kind: &str) -> PathBuf {
    PathBuf::from("target/e2e").join(format!("{workload}.{kind}.json"))
}

/// One benchmark workload. `setup` is what `setup_s` times.
pub trait Workload: Sized {
    /// Generates inputs, computes the oracle, warms what the workload
    /// keeps warm.
    fn setup(cfg: &RunCfg) -> Result<Self, String>;

    /// Runs the closed-loop measured window, tracing off.
    fn measure(&mut self, cfg: &RunCfg) -> Result<Window, String>;

    /// The traced pass: fills the per-layer metrics this workload
    /// exercises and returns how many queries it ran, every one checked
    /// against the oracle.
    fn layers(&mut self, cfg: &RunCfg, metrics: &mut Metrics) -> Result<u64, String>;

    /// How long `Scale::db_for` took in `setup`, in ms.
    fn datagen_ms(&self) -> f64;

    /// Result tuples of one round of the workload's queries, from the
    /// oracle.
    fn output_tuples(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuted_keeps_the_set_and_follows_the_seed() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, (0..100u64).map(|i| [i, i * i])));
        let rows = |db: &Database| -> Vec<Vec<u64>> {
            db.expect("R").rows().map(<[u64]>::to_vec).collect()
        };
        let (a, b, a_again) = (permuted(&db, 1), permuted(&db, 2), permuted(&db, 1));
        assert_eq!(rows(&a), rows(&a_again));
        assert_ne!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&db));
        let mut sorted = rows(&a);
        sorted.sort();
        assert_eq!(sorted, rows(&db));
    }
}
