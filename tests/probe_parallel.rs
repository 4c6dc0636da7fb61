//! Parity slice — **the morsel-parallel probe**: the production path on
//! `Local` at 2 and 4 probe threads (`probe_threads` override — the
//! suite must not depend on how many cores the CI host happens to have;
//! the 1-thread point is `layout_parity`'s) against the reference
//! configuration's sequential probe, Q1–Q8 × six configurations
//! (`parity::check`, which also pins the `probe_threads` echo).
//!
//! The depth-0 leapfrog enumerates morsel value ranges in ascending
//! order and hash-probe morsels scan contiguous row ranges in input
//! order, so concatenating per-morsel buffers in morsel order must
//! reproduce the sequential byte stream.

#[macro_use]
mod parity;

use parity::{cluster, db_for, production, production_opts, reference, reference_opts, Production};
use parjoin::prelude::*;

fn check(spec: &QuerySpec) {
    parity::check(
        spec,
        &[Production::local(Some(2)), Production::local(Some(4))],
    );
}

parity_tests! { check;
    q1_triangles_parallel_probe_identical => q1,
    q2_cliques_parallel_probe_identical => q2,
    q3_cast_members_parallel_probe_identical => q3,
    q4_actor_pairs_parallel_probe_identical => q4,
    q5_rectangles_parallel_probe_identical => q5,
    q6_two_rings_parallel_probe_identical => q6,
    q7_oscar_winners_parallel_probe_identical => q7,
    q8_actor_director_parallel_probe_identical => q8,
}

#[test]
fn probe_stats_count_morsels() {
    // Every probe operation counts at least one morsel, sequential or
    // not, so any plan that joins at all reports probe_morsels >= 1.
    let spec = parjoin::datagen::workloads::q1();
    let db = db_for(&spec);
    for (s, j) in parity::CONFIGS {
        let r = production(&spec, &db, s, j, Production::local(Some(2)));
        assert!(
            r.probe_morsels >= 1,
            "{s:?}/{j:?}: no probe morsels recorded"
        );
        let seq = reference(&spec, &db, s, j);
        assert!(
            seq.probe_morsels >= 1,
            "{s:?}/{j:?}: sequential probe recorded no morsels"
        );
    }
}

#[test]
fn semijoin_plan_parallel_probe_identical() {
    // The GYM semijoin plan has its own probe path (semijoin_parallel);
    // cover it separately from the six paper configurations.
    let spec = parjoin::datagen::workloads::q3();
    let db = db_for(&spec);
    let cluster = cluster(TransportKind::Local);
    let (s, j) = (ShuffleAlg::Semijoin, JoinAlg::Hash);
    let baseline =
        run_config(&spec.query, &db, &cluster, s, j, &reference_opts()).expect("semijoin baseline");
    for t in [1usize, 2, 4] {
        let opts = production_opts(Production::local(Some(t)));
        let parallel =
            run_config(&spec.query, &db, &cluster, s, j, &opts).expect("semijoin parallel");
        assert_eq!(
            baseline.output.as_ref().expect("collected").raw(),
            parallel.output.as_ref().expect("collected").raw(),
            "semijoin t={t}: output not byte-identical"
        );
    }
    // The reduction passes shuffle through the same runtime as the
    // final join: on a streaming transport every one of them moves real
    // bytes, and the reduced result is still the reference's.
    let streamed = run_config(
        &spec.query,
        &db,
        &parity::cluster(TransportKind::InProcess),
        s,
        j,
        &production_opts(Production::streaming(TransportKind::InProcess)),
    )
    .expect("semijoin on InProcess");
    parity::assert_parity("Q3 SJ_HJ on InProcess", &baseline, &streamed);
    parity::assert_every_shuffle_streamed("Q3 SJ_HJ on InProcess", &streamed);
    assert!(
        streamed.shuffles[0].label.ends_with(": keys"),
        "the first recorded shuffle is a reduction pass"
    );
}
