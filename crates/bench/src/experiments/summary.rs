//! Table 6: the summary of the extended evaluation — all eight queries,
//! their shapes, shuffle volumes under RS vs HC, RS skew, the
//! RS_HJ/HC_TJ runtime ratio, and the winning configuration.

use crate::experiments::six_configs::{run_six, scale_for};
use crate::report::{millions, print_table};
use crate::Settings;
use parjoin_datagen::all_queries;
use parjoin_engine::Cluster;

/// Runs the whole workload and prints Table 6.
pub fn run(settings: &Settings) {
    println!("\n=== Table 6: summary of the extended evaluation ===");
    let mut rows = Vec::new();
    for spec in all_queries() {
        let scale = scale_for(spec.name, settings.scale);
        let db = scale.db_for(spec.dataset, settings.seed);
        let cluster = Cluster::new(settings.workers).with_seed(settings.seed);
        let results = run_six(&spec, &db, &cluster);
        let get = |name: &str| {
            results
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, r)| r.as_ref().ok())
        };

        let input: u64 = spec
            .query
            .atoms
            .iter()
            .map(|a| db.expect(&a.relation).len() as u64) // xtask: allow(expect): bench driver aborts on failure
            .sum();
        let rs = get("RS_HJ");
        let hc = get("HC_TJ");
        let rs_size = rs.map(|r| r.tuples_shuffled);
        let hc_size = hc.map(|r| r.tuples_shuffled);
        let rs_skew = rs.map(|r| {
            // Ignore degenerate shuffles (e.g. pushed-down selections of a
            // handful of tuples, whose "skew" is trivially the worker
            // count); the paper's skew column concerns data-bearing
            // shuffles.
            let floor = 10 * settings.workers as u64;
            r.shuffles
                .iter()
                .filter(|s| s.tuples_sent >= floor)
                .map(|s| s.producer_skew().max(s.consumer_skew()))
                .fold(1.0f64, f64::max)
        });
        let ratio = match (rs, hc) {
            (Some(a), Some(b)) => Some(a.wall.as_secs_f64() / b.wall.as_secs_f64().max(1e-12)),
            _ => None,
        };
        let best = results
            .iter()
            .filter_map(|(n, r)| r.as_ref().ok().map(|r| (n.as_str(), r.wall)))
            .min_by_key(|(_, w)| *w)
            .map(|(n, _)| n)
            .unwrap_or("-");

        rows.push(vec![
            spec.name.to_string(),
            spec.query.atoms.len().to_string(),
            spec.query.join_vars().len().to_string(),
            if spec.cyclic { "Y" } else { "N" }.to_string(),
            millions(input),
            rs_size.map_or("FAIL".into(), millions),
            hc_size.map_or("FAIL".into(), millions),
            rs_skew.map_or("-".into(), |s| format!("{s:.1}")),
            ratio.map_or("-".into(), |r| format!("{r:.2}")),
            best.to_string(),
        ]);
    }
    print_table(
        "queries grouped as in the paper (Table 6)",
        &[
            "Query",
            "#Tables",
            "#JoinVars",
            "Cyclic",
            "Input",
            "RS size",
            "HC size",
            "RS skew",
            "T(RS_HJ)/T(HC_TJ)",
            "best",
        ],
        &rows,
    );
    println!(
        "    (paper, 1.1M-edge Twitter / full Freebase: HC_TJ wins Q1, Q2, Q5, Q6, Q7;\n     \
         RS wins Q3 and Q8; BR_TJ wins Q4. Shapes, not absolute sizes, are comparable.)"
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
