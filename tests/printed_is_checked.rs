//! What `bonsai compress --out` writes is what `bonsai check` checks.
//!
//! The check validates each class on its layout's lifted SRP instance
//! (`AbstractLayout::instance`: the concrete configurations read through
//! the layout, nothing written), and `compress --out` prints the layout
//! (`AbstractLayout::print_into`). Here every class of the corpus is
//! printed, parsed back and built the way any downstream analyzer builds
//! it, and the SRP instance of that text must equal the lifted one: the
//! class's origins, per node the BGP default preference, per edge the BGP
//! session plans and the OSPF and static facts, and the natural-order
//! solution.

use bonsai::core::abstraction::PolicySections;
use bonsai::core::compress::{compress, CompressOptions};
use bonsai::core::ecs::compute_ecs;
use bonsai::srp::instance::{MultiProtocol, OriginProto};
use bonsai::srp::papernets;
use bonsai::srp::protocols::bgp::MapPlan;
use bonsai::srp::solver::solve;
use bonsai::srp::{Protocol, Srp};
use bonsai::topo::{datacenter, fattree, wan, DatacenterParams, FattreePolicy, WanParams};
use bonsai_config::{parse_network, BuiltTopology, DeviceConfig, NetworkConfig};
use bonsai_net::{Graph, NodeId};
use std::collections::BTreeSet;

/// What the comparisons covered.
#[derive(Default, Debug)]
struct Tally {
    classes: usize,
    sessions: usize,
    ibgp: usize,
    interpreted: usize,
    ospf: usize,
    statics: usize,
}

/// The policy objects an interpreted plan runs.
fn policies(device: &DeviceConfig) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &device.route_maps,
        &device.prefix_lists,
        &device.community_lists,
    )
}

fn origin_nodes(origins: &[(NodeId, OriginProto)]) -> BTreeSet<NodeId> {
    origins.iter().map(|&(n, _)| n).collect()
}

/// Every class of `net`, printed, parsed back and built, against its
/// lifted instance.
fn check_network(name: &str, net: &NetworkConfig) -> Tally {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let report = compress(net, CompressOptions::default());
    let sections = PolicySections::new(net);
    let mut tally = Tally::default();
    for class in &report.per_ec {
        let layout = &class.abstract_network;
        let what = format!("{name} class {}", class.ec.rep);
        let mut printed = String::new();
        layout.print_into(&mut printed, net, &topo, &sections);
        let parsed = parse_network(&printed).unwrap_or_else(|e| panic!("{what}: {e}"));
        let parsed_topo = BuiltTopology::build(&parsed).unwrap_or_else(|e| panic!("{what}: {e}"));
        let from_text = MultiProtocol::build(&parsed, &parsed_topo, &layout.ec);
        let lifted = layout.instance(net, &topo);
        tally.classes += 1;

        // The printed network originates the class where the layout says.
        let parsed_class = (compute_ecs(&parsed, &parsed_topo).into_iter())
            .find(|c| c.rep == layout.ec.prefix)
            .unwrap_or_else(|| panic!("{what}: the printed network does not originate it"));
        assert_eq!(
            origin_nodes(&parsed_class.origins),
            origin_nodes(&layout.ec.origins),
            "{what}: origins"
        );

        let graph = &layout.graph;
        assert_eq!(graph.node_count(), parsed_topo.graph.node_count(), "{what}");
        assert_eq!(graph.edge_count(), parsed_topo.graph.edge_count(), "{what}");
        let (a, b) = (lifted.bgp(), from_text.bgp());
        for n in graph.nodes() {
            assert_eq!(
                a.origin(n),
                b.origin(n),
                "{what}: BGP default preference of {n}"
            );
        }
        for e in graph.edges() {
            let what = format!("{what}: {e:?} {:?}", graph.endpoints(e));
            assert_eq!(graph.endpoints(e), parsed_topo.graph.endpoints(e), "{what}");
            match (a.session_plans(e), b.session_plans(e)) {
                (None, None) => {}
                (Some((ibgp_a, export_a, import_a)), Some((ibgp_b, export_b, import_b))) => {
                    tally.sessions += 1;
                    tally.ibgp += usize::from(ibgp_a);
                    assert_eq!(ibgp_a, ibgp_b, "{what}: iBGP");
                    for (plan_a, plan_b) in [(export_a, export_b), (import_a, import_b)] {
                        match (plan_a, plan_b) {
                            (MapPlan::Constant(x), MapPlan::Constant(y)) => {
                                assert_eq!(x, y, "{what}: constant plan")
                            }
                            (
                                MapPlan::Interpreted { device: x, map: m },
                                MapPlan::Interpreted { device: y, map: n },
                            ) => {
                                tally.interpreted += 1;
                                assert_eq!(m, n, "{what}: interpreted map");
                                assert_eq!(
                                    policies(&net.devices[*x]),
                                    policies(&parsed.devices[*y]),
                                    "{what}: the interpreted map's device"
                                );
                            }
                            (x, y) => panic!("{what}: plans {x:?} and {y:?}"),
                        }
                    }
                }
                (x, y) => panic!("{what}: session {:?} and {:?}", x.is_some(), y.is_some()),
            }
            let ospf = lifted.ospf_edge(e);
            assert_eq!(ospf, from_text.ospf_edge(e), "{what}: OSPF");
            tally.ospf += usize::from(ospf.is_some());
            let statics = lifted.static_on_edge(e);
            assert_eq!(statics, from_text.static_on_edge(e), "{what}: static");
            tally.statics += usize::from(statics);
        }

        let solved = |graph: &Graph, proto| {
            let origins = origin_nodes(&layout.ec.origins).into_iter().collect();
            solve(&Srp::with_origins(graph, origins, proto))
                .map(|s| (s.labels, s.fwd))
                .map_err(|e| e.to_string())
        };
        assert_eq!(
            solved(graph, lifted),
            solved(&parsed_topo.graph, from_text),
            "{what}: natural-order solution"
        );
    }
    tally
}

#[test]
fn the_paper_networks() {
    for (name, net) in [
        ("figure 1", papernets::figure1_rip()),
        ("figure 2", papernets::figure2_gadget()),
        ("figure 5", papernets::figure5_bgp()),
    ] {
        let tally = check_network(name, &net);
        assert!(tally.classes > 0 && tally.sessions > 0, "{name}: {tally:?}");
        // Figure 5's import map reads a community: an interpreted plan.
        assert!(name != "figure 5" || tally.interpreted > 0, "{tally:?}");
    }
}

#[test]
fn the_fattrees() {
    for policy in [FattreePolicy::ShortestPath, FattreePolicy::PreferBottom] {
        let tally = check_network(&format!("{policy:?}"), &fattree(4, policy));
        assert!(
            tally.classes == 8 && tally.sessions > 0,
            "{policy:?}: {tally:?}"
        );
    }
}

/// OSPF and iBGP beside eBGP, and static routes on linked interfaces.
#[test]
fn a_wan() {
    let net = wan(WanParams {
        pops: 3,
        access_per_pop: 5,
        prefixes_per_agg: 2,
        ..Default::default()
    });
    let tally = check_network("wan", &net);
    assert!(
        tally.ospf > 0 && tally.ibgp > 0 && tally.statics > 0,
        "{tally:?}"
    );
}

/// Static routes, ACL'd interfaces and communities, at the bench's quick
/// size.
#[test]
fn a_datacenter() {
    let net = datacenter(DatacenterParams {
        clusters: 4,
        tors_per_cluster: 6,
        ..Default::default()
    });
    let tally = check_network("datacenter", &net);
    assert!(tally.classes > 0 && tally.sessions > 0, "{tally:?}");
}
