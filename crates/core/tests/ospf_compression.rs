//! Compression of pure-OSPF networks: costs and areas drive refinement,
//! and the OSPF fields (cost, inter-area flag) are preserved across the
//! abstraction.

use bonsai_config::{parse_network, BuiltTopology, NetworkConfig};
use bonsai_core::compress::{compress, CompressOptions};
use bonsai_net::NodeId;
use bonsai_srp::instance::{MultiProtocol, RibAttr};
use bonsai_srp::{solve, Srp};

/// A two-armed OSPF star: the destination root with two identical arms of
/// three routers each, all in area 0 except the last hop (area 1).
fn ospf_star() -> NetworkConfig {
    let mut text = String::from(
        "
device root
interface arm0
 ip ospf cost 1
 ip ospf area 0
interface arm1
 ip ospf cost 1
 ip ospf area 0
router ospf
 network 10.0.0.0/24
end
",
    );
    for arm in 0..2 {
        for i in 0..3 {
            let area = if i == 2 { 1 } else { 0 };
            text.push_str(&format!(
                "
device a{arm}_{i}
interface up
 ip ospf cost {cost}
 ip ospf area {up_area}
interface down
 ip ospf cost {cost}
 ip ospf area {area}
router ospf
end
",
                cost = 5 + i,
                up_area = if i == 2 { 1 } else { 0 },
            ));
        }
    }
    text.push_str("link root arm0 a0_0 up\nlink root arm1 a1_0 up\n");
    for arm in 0..2 {
        for i in 0..2 {
            text.push_str(&format!("link a{arm}_{i} down a{arm}_{} up\n", i + 1));
        }
    }
    parse_network(&text).unwrap()
}

#[test]
fn symmetric_arms_merge() {
    let net = ospf_star();
    let report = compress(&net, CompressOptions::default());
    assert_eq!(report.num_ecs(), 1);
    let ec = &report.per_ec[0];
    // 7 concrete nodes -> 4 abstract (root + one merged arm of 3).
    assert_eq!(ec.abstraction.abstract_node_count(), 4);

    // Both arm tips share a role with each other, not with mid-arm nodes.
    let topo = BuiltTopology::build(&net).unwrap();
    let n = |s: &str| topo.graph.node_by_name(s).unwrap();
    assert_eq!(
        ec.abstraction.role_of(n("a0_2")),
        ec.abstraction.role_of(n("a1_2"))
    );
    assert_ne!(
        ec.abstraction.role_of(n("a0_1")),
        ec.abstraction.role_of(n("a0_2"))
    );
}

#[test]
fn ospf_costs_and_areas_preserved() {
    let net = ospf_star();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];

    // Concrete solution.
    let ec_dest = ec.ec.to_ec_dest();
    let origins: Vec<NodeId> = ec_dest.origins.iter().map(|(o, _)| *o).collect();
    let proto = MultiProtocol::build(&net, &topo, &ec_dest);
    let srp = Srp::with_origins(&topo.graph, origins.clone(), proto);
    let concrete = solve(&srp).unwrap();

    // Abstract solution.
    let abs = &ec.abstract_network;
    let abs_origins: Vec<NodeId> = abs.ec.origins.iter().map(|(o, _)| *o).collect();
    let abs_srp = Srp::with_origins(&abs.graph, abs_origins, abs.instance(&net, &topo));
    let abstract_sol = solve(&abs_srp).unwrap();

    for name in ["a0_0", "a0_1", "a0_2"] {
        let u = topo.graph.node_by_name(name).unwrap();
        let copies = abs.candidates_of(&ec.abstraction, u);
        let (Some(RibAttr::Ospf(c)), Some(RibAttr::Ospf(a))) =
            (concrete.label(u), abstract_sol.label(copies[0]))
        else {
            panic!("expected OSPF labels at {name}");
        };
        assert_eq!(c.cost, a.cost, "cost at {name}");
        assert_eq!(c.inter_area, a.inter_area, "area flag at {name}");
    }
    // The tip is inter-area (crossed into area 1), the rest intra.
    let tip = topo.graph.node_by_name("a0_2").unwrap();
    match concrete.label(tip) {
        Some(RibAttr::Ospf(o)) => assert!(o.inter_area),
        other => panic!("unexpected {other:?}"),
    }
}
