//! §6 iBGP: symmetric iBGP neighbors can be compressed together.
//!
//! The paper argues iBGP routers may merge when they are symmetric with
//! respect to both the IGP and eBGP and no ACL blocks their sessions.
//! This test builds two such routers and checks the algorithm merges
//! them — and that the result is CP-equivalent.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai_config::{parse_network, BuiltTopology};

/// An AS with two symmetric iBGP core routers, both peering (eBGP) with
/// the same external origin and serving the same internal customer.
fn ibgp_pair() -> bonsai_config::NetworkConfig {
    let mut text = String::from(
        "
device ext
interface c0
interface c1
router bgp 100
 network 10.0.0.0/24
 neighbor c0 remote-as external
 neighbor c1 remote-as external
end
device cust
interface c0
interface c1
router bgp 200
 neighbor c0 remote-as external
 neighbor c1 remote-as external
end
",
    );
    for i in 0..2 {
        text.push_str(&format!(
            "
device core{i}
interface to_ext
interface to_cust
interface peer
router bgp 65000
 neighbor to_ext remote-as external
 neighbor to_cust remote-as external
 neighbor peer remote-as internal
end
"
        ));
    }
    text.push_str(
        "link ext c0 core0 to_ext
link ext c1 core1 to_ext
link cust c0 core0 to_cust
link cust c1 core1 to_cust
link core0 peer core1 peer
",
    );
    parse_network(&text).unwrap()
}

#[test]
fn symmetric_ibgp_neighbors_merge() {
    let net = ibgp_pair();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let c0 = topo.graph.node_by_name("core0").unwrap();
    let c1 = topo.graph.node_by_name("core1").unwrap();
    assert_eq!(
        ec.abstraction.role_of(c0),
        ec.abstraction.role_of(c1),
        "symmetric iBGP neighbors must share a role (roles: {:?})",
        ec.abstraction.partition.as_sets()
    );
    // 4 concrete devices -> 3 abstract (ext, merged core, cust).
    assert_eq!(ec.abstraction.abstract_node_count(), 3);
}

#[test]
fn merged_ibgp_network_is_cp_equivalent() {
    let net = ibgp_pair();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    check_cp_equivalence(
        &net,
        &topo,
        &ec.ec.to_ec_dest(),
        &ec.abstraction,
        ec.abstract_network(&net, &topo),
        6,
        Some(&report.policies),
    )
    .unwrap();
}
