//! Cross-crate correctness: every shuffle×join configuration (and, for
//! acyclic queries, the semijoin plans) computes the same answer for all
//! eight paper queries.

mod parity;

use parjoin::prelude::*;

fn run_rows(
    spec: &QuerySpec,
    db: &Database,
    workers: usize,
    s: ShuffleAlg,
    j: JoinAlg,
) -> Vec<Vec<u64>> {
    let cluster = Cluster::new(workers).with_seed(11);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let r = run_config(&spec.query, db, &cluster, s, j, &opts)
        .unwrap_or_else(|e| panic!("{} {s:?}/{j:?}: {e}", spec.name));
    let mut rows: Vec<Vec<u64>> = r
        .output
        .expect("collected")
        .rows()
        .map(|x| x.to_vec())
        .collect();
    rows.sort();
    rows
}

fn check_query(spec: &QuerySpec, expect_nonempty: bool) {
    check_query_at(spec, expect_nonempty, Scale::tiny());
}

fn check_query_at(spec: &QuerySpec, expect_nonempty: bool, scale: Scale) {
    let db = scale.db_for(spec.dataset, 7);
    let reference = run_rows(spec, &db, 4, ShuffleAlg::Regular, JoinAlg::Hash);
    if expect_nonempty {
        assert!(
            !reference.is_empty(),
            "{} should have results at tiny scale",
            spec.name
        );
    }
    for (s, j) in parity::configs_for(spec).into_iter().skip(1) {
        let got = run_rows(spec, &db, 4, s, j);
        assert_eq!(got, reference, "{} disagrees under {s:?}/{j:?}", spec.name);
    }
}

#[test]
fn q1_triangles() {
    check_query(&parjoin::datagen::workloads::q1(), true);
}

#[test]
fn q2_cliques() {
    // 4-cliques may or may not exist at tiny scale; agreement matters.
    check_query(&parjoin::datagen::workloads::q2(), false);
}

#[test]
fn q3_cast_members() {
    check_query(&parjoin::datagen::workloads::q3(), true);
}

#[test]
fn q4_actor_pairs() {
    // Q4's regular-shuffle plan blows up combinatorially (the paper's
    // point: 13.9 *billion* intermediate tuples at full scale), so the
    // agreement check runs on an extra-small catalog.
    let scale = Scale {
        twitter_nodes: 300,
        twitter_m: 3,
        freebase_performances: 250,
    };
    check_query_at(&parjoin::datagen::workloads::q4(), false, scale);
}

#[test]
fn q5_rectangles() {
    check_query(&parjoin::datagen::workloads::q5(), true);
}

#[test]
fn q6_two_rings() {
    check_query(&parjoin::datagen::workloads::q6(), false);
}

#[test]
fn q7_oscar_winners() {
    check_query(&parjoin::datagen::workloads::q7(), true);
}

#[test]
fn q8_actor_director() {
    check_query(&parjoin::datagen::workloads::q8(), true);
}
