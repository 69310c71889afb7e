//! §4.4: the properties CP-equivalence preserves, checked concretely —
//! answers computed on the abstract network must equal answers computed on
//! the concrete network, property by property.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::topo::{fattree, ring, FattreePolicy};
use bonsai::verify::properties::SolutionAnalysis;
use bonsai::verify::query::QueryCtx;
use bonsai::verify::SimEngine;
use bonsai_config::NetworkConfig;
use bonsai_net::NodeId;
use std::collections::BTreeSet;

/// For every class: reachability classification, path-length sets and
/// loop existence agree between concrete nodes and their abstract images.
fn check_properties(net: &NetworkConfig) {
    let engine = SimEngine::new(net);
    let report = compress(net, CompressOptions::default());
    for (ec_info, ec) in engine.ecs.iter().zip(&report.per_ec) {
        // Concrete analysis.
        let concrete_sol = engine.solve_ec(ec_info, &QueryCtx::failure_free()).unwrap();
        let concrete_origins: Vec<NodeId> = ec_info.origins.iter().map(|(n, _)| *n).collect();
        let concrete = SolutionAnalysis::new(&engine.topo.graph, &concrete_sol, &concrete_origins);

        // Abstract analysis.
        let layout = &ec.abstract_network;
        let abs = layout.render(net, &engine.topo);
        let abs_engine = SimEngine::new(&abs.network);
        let abs_sol = abs_engine
            .solve_ec(&abs_engine.ecs[0], &QueryCtx::failure_free())
            .unwrap();
        let abs_origins: Vec<NodeId> = abs_engine.ecs[0].origins.iter().map(|(n, _)| *n).collect();
        let abstract_a = SolutionAnalysis::new(&abs_engine.topo.graph, &abs_sol, &abs_origins);

        // Routing loops (global property).
        assert_eq!(
            concrete.has_routing_loop(),
            abstract_a.has_routing_loop(),
            "loop preservation for {}",
            ec_info.rep
        );

        for u in engine.topo.graph.nodes() {
            if concrete_origins.contains(&u) {
                continue;
            }
            // All copies of u's block (deterministic single-solution
            // networks: one copy suffices, but check them all).
            let candidates = layout.candidates_of(&ec.abstraction, u);

            // Reachability: u reaches iff every candidate copy reaches
            // (these networks are deterministic, so candidates agree).
            let concrete_reach = concrete.can_reach(u);
            for &c in &candidates {
                assert_eq!(
                    concrete_reach,
                    abstract_a.can_reach(c),
                    "reachability of {} vs copy {c:?} for {}",
                    engine.topo.graph.name(u),
                    ec_info.rep
                );
            }

            // Path lengths: the concrete set must equal the abstract set
            // of its image (CP-equivalence preserves path length, §4.4).
            let concrete_lengths = concrete.path_lengths(u, 64);
            let abstract_lengths = abstract_a.path_lengths(candidates[0], 64);
            assert_eq!(
                concrete_lengths,
                abstract_lengths,
                "path lengths of {} for {}",
                engine.topo.graph.name(u),
                ec_info.rep
            );
        }
    }
}

#[test]
fn fattree_properties_preserved() {
    check_properties(&fattree(4, FattreePolicy::ShortestPath));
}

#[test]
fn ring_properties_preserved() {
    check_properties(&ring(9));
}

/// Waypointing (§4.4): in the fattree, traffic between pods is waypointed
/// through the core tier — and the abstract network must agree.
#[test]
fn fattree_waypointing_preserved() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let engine = SimEngine::new(&net);
    let report = compress(&net, CompressOptions::default());
    let (ec_info, ec) = (&engine.ecs[0], &report.per_ec[0]);

    let concrete_sol = engine.solve_ec(ec_info, &QueryCtx::failure_free()).unwrap();
    let origins: Vec<NodeId> = ec_info.origins.iter().map(|(n, _)| *n).collect();
    let concrete = SolutionAnalysis::new(&engine.topo.graph, &concrete_sol, &origins);

    // Pick an edge router in a different pod from the destination.
    let dest_pod: usize = {
        let name = engine.topo.graph.name(origins[0]);
        name["edge".len()..name.find('_').unwrap()].parse().unwrap()
    };
    let other_pod = (dest_pod + 1) % 4;
    let src = engine
        .topo
        .graph
        .node_by_name(&format!("edge{other_pod}_0"))
        .unwrap();
    let cores: BTreeSet<NodeId> = engine
        .topo
        .graph
        .nodes()
        .filter(|&n| engine.topo.graph.name(n).starts_with("core"))
        .collect();
    assert!(concrete.waypointed(src, &cores), "concrete waypointing");

    // Abstract side: image of src, waypoints = copies of core blocks.
    let layout = &ec.abstract_network;
    let abs = layout.render(&net, &engine.topo);
    let abs_engine = SimEngine::new(&abs.network);
    let abs_sol = abs_engine
        .solve_ec(&abs_engine.ecs[0], &QueryCtx::failure_free())
        .unwrap();
    let abs_origins: Vec<NodeId> = abs_engine.ecs[0].origins.iter().map(|(n, _)| *n).collect();
    let abstract_a = SolutionAnalysis::new(&abs_engine.topo.graph, &abs_sol, &abs_origins);
    let abs_src = layout.candidates_of(&ec.abstraction, src)[0];
    let abs_cores: BTreeSet<NodeId> = cores
        .iter()
        .flat_map(|&c| layout.candidates_of(&ec.abstraction, c))
        .collect();
    assert!(
        abstract_a.waypointed(abs_src, &abs_cores),
        "abstract waypointing"
    );
}

/// The abstraction is (approximately) idempotent: compressing an abstract
/// network again yields a network of the same size — there is no symmetry
/// left to exploit.
#[test]
fn compression_is_idempotent() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let topo = bonsai::config::BuiltTopology::build(&net).unwrap();
    let again = compress(
        &ec.abstract_network.render(&net, &topo).network,
        CompressOptions::default(),
    );
    assert_eq!(again.num_ecs(), 1);
    assert_eq!(
        again.per_ec[0].abstraction.abstract_node_count(),
        ec.abstraction.abstract_node_count()
    );
}
