//! End-to-end compression shapes on the Table 1(a) topologies.
//!
//! The paper's headline numbers: a shortest-path eBGP fattree compresses
//! to 6 abstract nodes / 5 links per destination class regardless of
//! scale; a ring to `n/2 + 1` nodes; a full mesh to 2 nodes / 1 link.

use bonsai_core::compress::{compress, CompressOptions};
use bonsai_topo::{fattree, full_mesh, ring, FattreePolicy};

#[test]
fn fattree_compresses_to_six_nodes_five_links() {
    for k in [4usize, 8] {
        let net = fattree(k, FattreePolicy::ShortestPath);
        let report = compress(&net, CompressOptions::default());
        assert_eq!(report.num_ecs(), k * k / 2, "k={k}");
        for ec in &report.per_ec {
            assert_eq!(
                ec.abstraction.abstract_node_count(),
                6,
                "k={k}, ec={} (roles: {:?})",
                ec.ec.rep,
                ec.abstraction.partition.as_sets()
            );
            assert_eq!(
                ec.abstract_network.graph.link_count(),
                5,
                "k={k}, ec={}",
                ec.ec.rep
            );
        }
    }
}

#[test]
fn fattree_policy_variant_grows_abstraction() {
    let k = 4;
    let plain = compress(
        &fattree(k, FattreePolicy::ShortestPath),
        CompressOptions::default(),
    );
    let policy = compress(
        &fattree(k, FattreePolicy::PreferBottom),
        CompressOptions::default(),
    );
    // Figure 11: the prefer-bottom abstraction is strictly larger.
    assert!(
        policy.mean_abstract_nodes() > plain.mean_abstract_nodes(),
        "policy {} vs plain {}",
        policy.mean_abstract_nodes(),
        plain.mean_abstract_nodes()
    );
}

#[test]
fn ring_compresses_to_half_plus_one() {
    for n in [10usize, 17] {
        let net = ring(n);
        let report = compress(&net, CompressOptions::default());
        assert_eq!(report.num_ecs(), n);
        for ec in &report.per_ec {
            assert_eq!(
                ec.abstraction.abstract_node_count(),
                n / 2 + 1,
                "n={n}, ec={}",
                ec.ec.rep
            );
        }
    }
}

#[test]
fn mesh_compresses_to_two_nodes_one_link() {
    for n in [5usize, 12] {
        let net = full_mesh(n);
        let report = compress(&net, CompressOptions::default());
        assert_eq!(report.num_ecs(), n);
        for ec in &report.per_ec {
            assert_eq!(ec.abstraction.abstract_node_count(), 2, "n={n}");
            assert_eq!(ec.abstract_network.graph.link_count(), 1, "n={n}");
        }
    }
}
