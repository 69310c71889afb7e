//! The paper's worked examples, end to end: exact numbers from the text.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::core::conditions::check_effective;
use bonsai::core::engine::CompiledPolicies;
use bonsai::core::signatures::build_sig_table;
use bonsai::srp::papernets;
use bonsai::verify::query::QueryCtx;
use bonsai_config::BuiltTopology;

/// Figure 1: the RIP diamond compresses to the 3-node chain of Fig 1(c).
#[test]
fn figure1_three_node_abstraction() {
    let report = compress(&papernets::figure1_rip(), CompressOptions::default());
    assert_eq!(report.num_ecs(), 1);
    assert_eq!(report.per_ec[0].abstraction.abstract_node_count(), 3);
    assert_eq!(report.per_ec[0].abstract_network.graph.link_count(), 2);
}

/// Figures 2/3/9: the gadget's final abstraction has 4 abstract nodes and
/// 4 links (the paper: "4 abstract nodes and 4 total edges — a reduction
/// from our concrete network with 5 nodes and 6 edges").
#[test]
fn figure3_final_abstraction_is_four_by_four() {
    let net = papernets::figure2_gadget();
    let topo = BuiltTopology::build(&net).unwrap();
    assert_eq!(topo.graph.node_count(), 5);
    assert_eq!(topo.graph.link_count(), 6);
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    assert_eq!(ec.abstraction.abstract_node_count(), 4);
    assert_eq!(ec.abstract_network.graph.link_count(), 4);
}

/// Figure 3's walk-through: the refinement needs at least two iterations
/// (coarsest → topological split → policy split), and the resulting
/// partition satisfies every effective-abstraction condition.
#[test]
fn figure3_refinement_steps_and_conditions() {
    let net = papernets::figure2_gadget();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    assert!(ec.abstraction.iterations >= 2);

    let ec_dest = ec.ec.to_ec_dest();
    let engine: &CompiledPolicies = &report.policies;
    let sigs = build_sig_table(engine, &net, &topo, &ec_dest);
    let violations = check_effective(&topo.graph, &ec_dest, &sigs, &ec.abstraction.partition);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Figure 5 has no symmetry to exploit: 4 nodes stay 4 nodes, but the
/// pipeline still produces a valid, CP-equivalent abstract network.
#[test]
fn figure5_incompressible_but_sound() {
    let net = papernets::figure5_bgp();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    assert_eq!(ec.abstraction.abstract_node_count(), 4);
    let topo = BuiltTopology::build(&net).unwrap();
    bonsai::verify::equivalence::check_cp_equivalence(
        &net,
        &topo,
        &ec.ec.to_ec_dest(),
        &ec.abstraction,
        ec.abstract_network(&net, &topo),
        4,
        Some(&report.policies),
    )
    .unwrap();
}

/// Figure 6: static routes — the black hole at `a` must exist in both the
/// concrete and the abstract network (black holes are preserved, §4.4).
#[test]
fn figure6_black_hole_preserved() {
    use bonsai::verify::properties::{Reachability, SolutionAnalysis};
    use bonsai::verify::SimEngine;

    let net = papernets::figure6_static();
    let engine = SimEngine::new(&net);
    // No BGP/OSPF origination: build the class by hand around d.
    let topo = &engine.topo;
    let d = topo.graph.node_by_name("d").unwrap();
    let a = topo.graph.node_by_name("a").unwrap();
    let ec = bonsai::core::ecs::DestEc {
        rep: papernets::DEST_PREFIX.parse().unwrap(),
        ranges: vec![papernets::DEST_PREFIX.parse().unwrap()],
        origins: vec![(d, bonsai::srp::instance::OriginProto::Bgp)],
    };
    let solution = engine.solve_ec(&ec, &QueryCtx::failure_free()).unwrap();
    let analysis = SolutionAnalysis::new(&topo.graph, &solution, &[d]);
    assert_eq!(analysis.reachability(a), Reachability::None);
    assert!(analysis.black_holes_from(a));
}
