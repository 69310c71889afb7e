//! Compression is deterministic across thread counts: `threads: 1` and
//! `threads: N` must produce **byte-identical** abstractions and reports.
//!
//! The unified fan-out driver's contract is that parallelism only changes
//! *who* computes a class, never *what* is computed: workers share one
//! engine whose caches are keyed by everything the result depends on, and
//! results are re-ordered by class index after the scope joins. This test
//! pins the contract on the fattree k=8 (80 nodes, 32 destination
//! classes — enough classes for real interleaving).
//!
//! "Byte-identical" is checked on a canonical serialization of everything
//! semantically meaningful: the partition, the BGP copy vector, the
//! refinement iteration count, the class description and the printed
//! abstract configurations, plus the structural report fields. Wall-clock
//! times and engine cache *hit counters* are excluded by construction —
//! two racing workers may both miss the same cache entry, which changes
//! the statistics but never the results.

use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::abstraction::PolicySections;
use bonsai_core::compress::{compress, CompressOptions, CompressionReport};
use bonsai_topo::{fattree, FattreePolicy};

/// Canonical byte serialization of every semantic output of a run over
/// `net`.
fn canonical_bytes(report: &CompressionReport, net: &NetworkConfig) -> String {
    let topo = BuiltTopology::build(net).unwrap();
    let sections = PolicySections::new(net);
    let mut out = String::new();
    out.push_str(&format!(
        "concrete {} nodes {} links, {} ecs\n",
        report.concrete_nodes,
        report.concrete_links,
        report.num_ecs()
    ));
    out.push_str(&format!(
        "abs {:.6}±{:.6} nodes {:.6}±{:.6} links ratios {:.6}/{:.6}\n",
        report.mean_abstract_nodes(),
        report.std_abstract_nodes(),
        report.mean_abstract_links(),
        report.std_abstract_links(),
        report.node_ratio(),
        report.link_ratio(),
    ));
    for ec in &report.per_ec {
        out.push_str(&format!(
            "ec {} ranges {:?} origins {:?}\n",
            ec.ec.rep, ec.ec.ranges, ec.ec.origins
        ));
        out.push_str(&format!(
            "partition {:?} copies {:?} iterations {}\n",
            ec.abstraction.partition.as_sets(),
            ec.abstraction.copies,
            ec.abstraction.iterations
        ));
        (ec.abstract_network).print_into(&mut out, net, &topo, &sections);
        out.push_str(&format!("abs_ec {:?}\n", ec.abstract_network.ec));
    }
    out
}

#[test]
fn fattree8_compression_is_thread_count_invariant() {
    let net = fattree(8, FattreePolicy::ShortestPath);

    let sequential = compress(
        &net,
        CompressOptions {
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(sequential.num_ecs(), 32, "fattree-8 has 32 edge prefixes");

    for threads in [2, 4, 8] {
        let parallel = compress(
            &net,
            CompressOptions {
                threads,
                ..Default::default()
            },
        );
        assert_eq!(
            canonical_bytes(&sequential, &net),
            canonical_bytes(&parallel, &net),
            "threads: 1 vs threads: {threads} diverged"
        );
    }
}

/// The same contract holds with the unused-community-stripping `h` (a
/// different engine configuration exercising the community scan).
#[test]
fn fattree8_policy_compression_is_thread_count_invariant() {
    let net = fattree(8, FattreePolicy::PreferBottom);
    let sequential = compress(
        &net,
        CompressOptions {
            threads: 1,
            strip_unused_communities: true,
        },
    );
    let parallel = compress(
        &net,
        CompressOptions {
            threads: 4,
            strip_unused_communities: true,
        },
    );
    assert_eq!(
        canonical_bytes(&sequential, &net),
        canonical_bytes(&parallel, &net)
    );
}
