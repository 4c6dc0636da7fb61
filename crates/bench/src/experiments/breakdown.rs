//! Table 5: where local-join time goes in Q1 — under BR_TJ the sorts
//! dominate ("all sorts … 73%"), which is the paper's argument for
//! pairing the Tributary join with the HyperCube shuffle (less data per
//! worker ⇒ less to sort).

use crate::report::print_table;
use crate::Settings;
use parjoin_engine::{config_name, run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg};

/// Runs Q1 under BR_TJ / HC_TJ / BR_HJ and prints the sort/join split.
pub fn run(settings: &Settings) {
    let spec = parjoin_datagen::workloads::q1();
    let db = settings.scale.twitter_db(settings.seed);
    let cluster = Cluster::new(settings.workers).with_seed(settings.seed);
    let opts = PlanOptions::default();

    println!("\n=== Table 5: Q1 operator time in the local join ===");
    let mut rows = Vec::new();
    for (s, j) in [
        (ShuffleAlg::Broadcast, JoinAlg::Tributary),
        (ShuffleAlg::HyperCube, JoinAlg::Tributary),
        (ShuffleAlg::Broadcast, JoinAlg::Hash),
    ] {
        let name = config_name(s, j);
        let r = run_config(&spec.query, &db, &cluster, s, j, &opts).expect(&name); // xtask: allow(expect): bench driver aborts on failure
        let pp = r.prep_probe();
        let sort = pp.prep.as_secs_f64();
        let join = pp.probe.as_secs_f64();
        // The paper's Table 5 reports contribution to *local join* time
        // (the shuffle/network phases are excluded).
        let total = (sort + join).max(1e-12);
        // The prepare cache the run's layout consulted: the TrieCache
        // for the default columnar tries, the SortCache for row views.
        let cache = [
            ("trie-cache", r.trie_cache_hits, r.trie_cache_misses),
            ("sort-cache", r.sort_cache_hits, r.sort_cache_misses),
        ]
        .into_iter()
        .find(|&(_, h, m)| h + m > 0)
        .map_or(String::new(), |(name, h, m)| format!(" [{name} {h}h/{m}m]"));
        rows.push(vec![
            format!("{name}: all sorts (prep){cache}"),
            format!("{:.3}s", sort),
            format!("{:.0}%", 100.0 * pp.prep_fraction()),
        ]);
        rows.push(vec![
            format!("{name}: join (probe)"),
            format!("{:.3}s", join),
            format!("{:.0}%", 100.0 * join / total),
        ]);
    }
    print_table(
        "operator times (total CPU across workers)",
        &["operator(s)", "total time", "contribution"],
        &rows,
    );
    println!(
        "    (paper: BR_TJ sorts take 73% of local-join time; the join itself 19%.\n     \
         HC_TJ sorts only 1/16th of the data per worker, collapsing the sort cost.)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parjoin_datagen::Scale;

    #[test]
    fn smoke_at_tiny_scale() {
        run(&Settings {
            scale: Scale::tiny(),
            workers: 4,
            seed: 1,
        });
    }
}
