//! End-to-end acceptance of the §9 caveat the failure sweep answers: a
//! failure-free-sound abstraction, with a failed link lifted onto it,
//! differs from the concrete network — on a crafted gadget and on every
//! single-link scenario of a fattree-4 class — and named-link masks drive
//! the masked solver; all through the facade crate the way a user would.

use bonsai::core::compress::{compress, CompressOptions, CompressionReport};
use bonsai::core::scenarios::{FailureScenario, ScenarioStream};
use bonsai::srp::instance::MultiProtocol;
use bonsai::srp::solver::solve_masked;
use bonsai::srp::{papernets, Srp};
use bonsai::verify::lift_failure_mask;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::NodeId;

/// Nodes routed under `scenario` on class 0: concretely, and on the base
/// abstraction's lifted instance under the lifted mask.
fn routed_under(
    net: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    scenario: &FailureScenario,
) -> (usize, usize) {
    let ec = &report.per_ec[0];
    let ec_dest = ec.ec.to_ec_dest();
    let proto = MultiProtocol::build(net, topo, &ec_dest);
    let origins: Vec<NodeId> = ec_dest.origins.iter().map(|(n, _)| *n).collect();
    let srp = Srp::with_origins(&topo.graph, origins, proto);
    let concrete = solve_masked(&srp, Some(&scenario.mask(&topo.graph))).unwrap();

    let abs = &ec.abstract_network;
    let abs_mask = lift_failure_mask(scenario, &ec.abstraction, abs);
    let abs_origins: Vec<NodeId> = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let abs_srp = Srp::with_origins(&abs.graph, abs_origins, abs.instance(net, topo));
    let abstract_sol = solve_masked(&abs_srp, Some(&abs_mask)).unwrap();
    (concrete.routed_count(), abstract_sol.routed_count())
}

/// The crafted gadget: Figure 1's diamond, where {b1, b2} merge into one
/// abstract node. Failure-free the abstraction is CP-equivalent; under
/// the single failure `b1—d` the concrete network routes everywhere while
/// the lifted abstract network black-holes — the exact §9 unsoundness.
/// Fattree-4's first class shows it at scale: every one of its 32
/// single-link scenarios differs.
#[test]
fn crafted_gadget_abstract_differs_from_concrete_under_one_failure() {
    let net = papernets::figure1_rip();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];

    // Failure-free: sound (the PR-2 oracle).
    bonsai::verify::check_cp_equivalence(
        &net,
        &topo,
        &ec.ec.to_ec_dest(),
        &ec.abstraction,
        &ec.abstract_network,
        4,
        Some(&report.policies),
    )
    .expect("failure-free CP-equivalence holds");

    // Exhibit the mismatch directly: fail b1—d on both sides.
    let d = topo.graph.node_by_name("d").unwrap();
    let b1 = topo.graph.node_by_name("b1").unwrap();
    let scenario = FailureScenario::new(vec![(d, b1)]);
    let (concrete, abstract_) = routed_under(&net, &topo, &report, &scenario);
    // Concretely, everything still routes (b1 detours through a).
    assert_eq!(concrete, topo.graph.node_count());
    // Abstractly, the one b̂—d̂ link carried every b—d link: the network
    // black-holes. Abstract ≠ concrete under one failure.
    assert!(abstract_ < ec.abstract_network.graph.node_count());

    // Fattree-4, the class of `edge0_0`: 20 concrete nodes, 6 abstract.
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let origin = topo.graph.node_by_name("edge0_0").unwrap();
    assert_eq!(ec.ec.to_ec_dest().origins[0].0, origin);
    assert_eq!(ec.abstract_network.graph.node_count(), 6);
    let scenarios = ScenarioStream::new(&topo.graph, 1).to_vec();
    let (mut differ, mut uplinks) = (0, 0);
    for scenario in &scenarios {
        let (concrete, abstract_) = routed_under(&net, &topo, &report, scenario);
        // Every single failure leaves the fattree connected; the lifted
        // mask fails a whole orbit and strands some abstract node — all
        // but the origin when the failed link is one of its uplinks.
        assert_eq!(concrete, 20, "{scenario:?}");
        differ += usize::from(abstract_ < 6);
        let (u, v) = scenario.links[0];
        if u == origin || v == origin {
            assert_eq!(abstract_, 1, "{scenario:?}");
            uplinks += 1;
        }
    }
    assert_eq!((differ, uplinks, scenarios.len()), (32, 2, 32));
}

/// Name-based scenario helpers from bonsai-topo compose with the masked
/// solver: failing a named fattree link reroutes without touching the
/// instance.
#[test]
fn named_link_masks_drive_masked_solving() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let links = bonsai::topo::named_links(&topo);
    assert_eq!(links.len(), 32);

    let report = compress(&net, CompressOptions::default());
    let ec_dest = report.per_ec[0].ec.to_ec_dest();
    let proto = MultiProtocol::build(&net, &topo, &ec_dest);
    let origins: Vec<NodeId> = ec_dest.origins.iter().map(|(n, _)| *n).collect();
    let srp = Srp::with_origins(&topo.graph, origins, proto);

    let baseline = solve_masked(&srp, None).unwrap();
    let (a, b) = links[0].clone();
    let mask = bonsai::topo::fail_links_by_name(&topo, &[(&a, &b)]);
    let failed = solve_masked(&srp, Some(&mask)).unwrap();
    // Everything still routes (fattrees are redundant), but not the same
    // way: some forwarding set changed next to the failed link.
    assert_eq!(failed.routed_count(), baseline.routed_count());
    assert_ne!(baseline.fwd, failed.fwd);
}
