//! The `cli/failures` document layer: round-trips, and the headline
//! guarantee of the sharded sweep — shard documents merged at the
//! document level are **byte-identical** to the document of the
//! unsharded sweep (same flags, `--threads 1`).

use bonsai::cli::FailuresDoc;
use bonsai::core::compress::{compress, CompressOptions};
use bonsai::prelude::*;
use bonsai_config::NetworkConfig;

fn networks() -> Vec<(&'static str, NetworkConfig)> {
    vec![
        ("diamond", bonsai::srp::papernets::figure1_rip()),
        ("fattree4", fattree(4, FattreePolicy::ShortestPath)),
        ("mesh10", full_mesh(10)),
    ]
}

fn doc_for(
    network: &NetworkConfig,
    options: &NetworkSweepOptions,
    shard: Option<(usize, usize)>,
) -> (String, FailuresDoc) {
    let topo = BuiltTopology::build(network).expect("topology builds");
    let report = compress(network, CompressOptions::default());
    let options = &NetworkSweepOptions {
        shard: shard.map(|(i, n)| ShardSpec::new(i, n).expect("valid shard")),
        ..*options
    };
    let sweep = sweep_network(network, &topo, &report, options).expect("sweep succeeds");
    let doc = FailuresDoc::from_sweep(
        &topo,
        &sweep,
        options.sweep.prune_symmetric,
        options.share_across_ecs,
        Vec::new(),
    );
    (doc.render(), doc)
}

fn options(k: usize) -> NetworkSweepOptions {
    NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn documents_round_trip_through_parse() {
    for (label, network) in networks() {
        for k in [1, 2] {
            let (text, doc) = doc_for(&network, &options(k), None);
            let parsed = FailuresDoc::parse(&text)
                .unwrap_or_else(|e| panic!("{label} k={k}: parse failed: {e}"));
            assert_eq!(
                parsed, doc,
                "{label} k={k}: parse is not the inverse of render"
            );
            assert_eq!(
                parsed.render(),
                text,
                "{label} k={k}: render is not idempotent through parse"
            );
        }
    }
}

#[test]
fn merged_shard_documents_are_byte_identical_to_the_unsharded_document() {
    for (label, network) in networks() {
        for k in [1, 2] {
            let opts = options(k);
            let (mono, _) = doc_for(&network, &opts, None);
            for of in [2, 3] {
                // Parse each shard document from its bytes — the merge
                // must work from written files alone, as `--merge` does.
                let docs: Vec<FailuresDoc> = (0..of)
                    .map(|i| {
                        let (text, _) = doc_for(&network, &opts, Some((i, of)));
                        FailuresDoc::parse(&text).expect("shard document parses")
                    })
                    // Input order must not matter.
                    .rev()
                    .collect();
                let merged = FailuresDoc::merge(docs)
                    .unwrap_or_else(|e| panic!("{label} k={k} of={of}: merge failed: {e}"));
                assert_eq!(
                    merged.render(),
                    mono,
                    "{label} k={k} of={of}: merged document differs from the unsharded one"
                );
            }
        }
    }
}

#[test]
fn merge_rejects_incomplete_or_mixed_shard_sets() {
    let network = fattree(4, FattreePolicy::ShortestPath);
    let opts = options(1);
    let shard = |i, n| doc_for(&network, &opts, Some((i, n))).1;

    assert!(FailuresDoc::merge(Vec::new()).is_err(), "empty set");
    assert!(
        FailuresDoc::merge(vec![shard(0, 2)]).is_err(),
        "missing shard 1/2"
    );
    assert!(
        FailuresDoc::merge(vec![shard(0, 2), shard(0, 2)]).is_err(),
        "duplicate shard"
    );
    assert!(
        FailuresDoc::merge(vec![shard(0, 2), shard(1, 3)]).is_err(),
        "mixed shard counts"
    );
    let unsharded = doc_for(&network, &opts, None).1;
    assert!(
        FailuresDoc::merge(vec![unsharded]).is_err(),
        "unsharded document in the set"
    );
}

/// Integers are read exactly or rejected: a float→int cast used to read a
/// shard document's `"rank": -1` as 0 and `"scenarios": 1.5` as 1, so a
/// corrupted shard merged. (The envelope's `"version": 3.9` is pinned
/// beside `Envelope::parse`, in `core::snapshot`.)
#[test]
fn inexact_integers_are_rejected_not_truncated() {
    let network = fattree(4, FattreePolicy::ShortestPath);
    let (text, _) = doc_for(&network, &options(1), Some((0, 2)));
    for (key, bad, field) in [
        ("\"rank\":", "\"rank\":-1,\"was\":", "rank"),
        ("\"scenarios\":", "\"scenarios\":1.5,\"was\":", "scenarios"),
        ("\"index\": ", "\"index\": 0.25, \"was\": ", "index"),
    ] {
        assert!(text.contains(key), "{key} not in {text}");
        let err = FailuresDoc::parse(&text.replacen(key, bad, 1)).unwrap_err();
        assert_eq!(err, format!("missing integer field `{field}`"));
    }
}
