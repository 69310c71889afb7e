//! A snapshot restore runs no Algorithm 1: a restored refinement holds its
//! recorded split, and its partition is built by the first query that
//! reads it. `compress.refine.calls` counts every Algorithm-1 run of the
//! process, so this binary holds exactly one test — a second one running
//! beside it would move the counter under it.

use bonsai::prelude::*;

#[test]
fn a_restore_holds_splits_and_the_first_reader_refines() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let snapshot = include_str!("data/serve_fattree4_k2.warm.snapshot.json");
    let calls = || bonsai::obs::value("compress.refine.calls");

    let before = calls();
    let session = Session::builder(net)
        .options(SessionOptions {
            threads: 1,
            ..Default::default()
        })
        .restore(snapshot)
        .expect("the committed snapshot restores");
    assert_eq!(calls(), before, "a restore runs no Algorithm 1");
    assert!(session.stats().sweep.restored > 0);

    // `edge0_0` originates one class, 10.0.0.0/24. The snapshot records
    // its refinement for the scenario {agg0_0—edge0_0} with the split
    // [agg0_0], and its verdict memo holds no answer for that scenario:
    // answering it is a memo miss, served from the refinement as its
    // representative — whose partition is built here, by one Algorithm-1
    // run.
    let links = [("agg0_0".to_string(), "edge0_0".to_string())];
    let stats = session.stats();
    let answers = session
        .reach("edge1_0", "edge0_0", &links)
        .expect("reach answers");
    let after = session.stats();
    assert_eq!(answers.len(), 1, "one class at the destination");
    assert_eq!(
        after.verdict_cache_hits, stats.verdict_cache_hits,
        "a memo miss"
    );
    assert_eq!(after.by_representative, stats.by_representative + 1);
    assert_eq!(calls(), before + 1, "the first reader refines once");
}
