//! A miniature CLI: evaluate any Datalog conjunctive query over TSV
//! relations with a chosen shuffle×join configuration.
//!
//! ```text
//! cargo run --release --example run_datalog -- \
//!     'Tri(x,y,z) :- E(x,y), E(y,z), E(z,x)' /path/to/data HC_TJ
//! ```
//!
//! Each relation `E` is loaded from `<data-dir>/E.tsv` (one tuple per
//! line, tab- or comma-separated unsigned integers). With no arguments, a
//! demo dataset is written to a temp dir and queried.

use parjoin::prelude::*;
use std::path::Path;

fn load_relation(dir: &Path, name: &str, arity: usize) -> Relation {
    let path = dir.join(format!("{name}.tsv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut rel = Relation::new(arity);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let vals: Vec<u64> = line
            .split(['\t', ','])
            .map(|t| {
                t.trim().parse().unwrap_or_else(|e| {
                    panic!("{}:{}: bad value `{t}`: {e}", path.display(), lineno + 1)
                })
            })
            .collect();
        assert_eq!(
            vals.len(),
            arity,
            "{}:{}: expected {arity} values",
            path.display(),
            lineno + 1
        );
        rel.push_row(&vals);
    }
    rel.distinct()
}

fn demo_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parjoin_datalog_demo");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A small directed graph with triangles.
    let mut edges = String::from("# demo edge list\n");
    for i in 0..30u64 {
        edges.push_str(&format!("{}\t{}\n", i, (i + 1) % 30));
        edges.push_str(&format!("{}\t{}\n", (i + 2) % 30, i));
    }
    std::fs::write(dir.join("E.tsv"), edges).expect("write demo data");
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (query_text, dir, config) = if args.len() >= 3 {
        (
            args[1].clone(),
            std::path::PathBuf::from(&args[2]),
            args.get(3).cloned().unwrap_or_else(|| "HC_TJ".into()),
        )
    } else {
        println!("(no arguments: running the built-in demo)\n");
        (
            "Tri(x, y, z) :- E(x, y), E(y, z), E(z, x)".to_string(),
            demo_dir(),
            "HC_TJ".into(),
        )
    };

    let query =
        parjoin::query::parser::parse(&query_text).unwrap_or_else(|e| panic!("bad query: {e}"));
    println!("query:  {query}");
    println!("config: {config}");

    // Load every distinct relation at the arity its atom demands.
    let mut db = Database::new();
    for atom in &query.atoms {
        if db.get(&atom.relation).is_none() {
            let rel = load_relation(&dir, &atom.relation, atom.terms.len());
            println!("loaded {}: {} tuples", atom.relation, rel.len());
            db.insert(atom.relation.clone(), rel);
        }
    }

    let (s, j) = parjoin::engine::parse_config(&config)
        .unwrap_or_else(|| panic!("unknown configuration `{config}` (use e.g. HC_TJ)"));
    let cluster = Cluster::new(16);
    let opts = PlanOptions {
        collect_output: true,
        distinct_output: true,
        ..Default::default()
    };
    let result = run_config(&query, &db, &cluster, s, j, &opts)
        .unwrap_or_else(|e| panic!("execution failed: {e}"));

    let out = result.output.expect("collected");
    println!(
        "\n{} distinct results ({} before dedup); {} tuples shuffled; wall {:?}",
        out.len(),
        result.output_tuples,
        result.tuples_shuffled,
        result.wall
    );
    for (i, row) in out.rows().enumerate() {
        if i >= 20 {
            println!("… {} more rows", out.len() - 20);
            break;
        }
        println!("  {row:?}");
    }
}
