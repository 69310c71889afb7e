//! The BGP loop-prevention gadget of Figures 2, 3 and 9 — the example that
//! motivates BGP-effective abstractions.
//!
//! Three middle routers with *identical* configurations prefer routes via
//! the top router `a` (local preference 200). BGP loop prevention forces
//! exactly one of them onto its direct route in every stable solution, so
//! routers with the same configuration behave differently, and a sound
//! abstraction must keep **two** copies of the middle role (Theorem 4.4
//! bounds the behaviors by the number of local-preference values).
//!
//! ```sh
//! cargo run --release --example bgp_gadget
//! ```

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::srp::instance::{MultiProtocol, RibAttr};
use bonsai::srp::papernets;
use bonsai::srp::solver::{solve_with_order, SolverOptions};
use bonsai::srp::Srp;
use bonsai_config::BuiltTopology;
use bonsai_net::NodeId;

fn main() {
    let network = papernets::figure2_gadget();
    let topo = BuiltTopology::build(&network).unwrap();
    let d = topo.graph.node_by_name("d").unwrap();

    // --- The dynamics: different message timings, different solutions ---
    println!("stable solutions under different activation orders:");
    let nodes: Vec<NodeId> = topo.graph.nodes().collect();
    let ec = bonsai::srp::instance::EcDest::new(
        papernets::DEST_PREFIX.parse().unwrap(),
        vec![(d, bonsai::srp::instance::OriginProto::Bgp)],
    );
    let mut seen = std::collections::BTreeSet::new();
    for rot in 0..nodes.len() {
        let proto = MultiProtocol::build(&network, &topo, &ec);
        let srp = Srp::with_origins(&topo.graph, vec![d], proto);
        let mut order = nodes.clone();
        order.rotate_left(rot);
        let sol = solve_with_order(&srp, &order, SolverOptions::default()).unwrap();
        let direct: Vec<String> = ["b1", "b2", "b3"]
            .iter()
            .filter(|n| {
                let b = topo.graph.node_by_name(n).unwrap();
                matches!(sol.label(b), Some(RibAttr::Bgp(a)) if a.lp == 100)
            })
            .map(|n| n.to_string())
            .collect();
        if seen.insert(direct.clone()) {
            println!("  direct-to-d router: {direct:?} (the other two route via a)");
        }
    }

    // --- The compression: 5 nodes -> 4, with the middle role split ------
    let report = compress(&network, CompressOptions::default());
    let ec_result = &report.per_ec[0];
    println!(
        "\nrefinement took {} iterations; roles:",
        ec_result.abstraction.iterations
    );
    for set in ec_result.abstraction.partition.as_sets() {
        let names: Vec<&str> = set
            .iter()
            .map(|&m| network.devices[m as usize].name.as_str())
            .collect();
        let block = ec_result.abstraction.partition.block_of(set[0]);
        let copies = ec_result.abstraction.copies[block.index()];
        println!(
            "  {names:?} -> {copies} abstract cop{}",
            if copies == 1 { "y" } else { "ies" }
        );
    }
    println!(
        "\nabstract network: {} nodes, {} links (paper: 4 nodes, 4 edges)",
        ec_result.abstraction.abstract_node_count(),
        ec_result.abstract_network.graph.link_count(),
    );

    // --- Why one copy is NOT enough (Figure 2(b)) -----------------------
    let mut naive = ec_result.abstraction.clone();
    for c in naive.copies.iter_mut() {
        *c = 1;
    }
    let ec_dest = ec_result.ec.to_ec_dest();
    let naive_net =
        bonsai::core::abstraction::build_abstract_network(&network, &topo, &ec_dest, &naive);
    let verdict = bonsai::verify::equivalence::check_cp_equivalence(
        &network,
        &topo,
        &ec_dest,
        &naive,
        &naive_net,
        4,
        Some(&report.policies),
    );
    println!(
        "\nnaive single-copy abstraction (Figure 2(b)): {}",
        match verdict {
            Err(e) => format!("REJECTED — {e}"),
            Ok(()) => "unexpectedly accepted!?".into(),
        }
    );

    // The sound abstraction passes.
    bonsai::verify::equivalence::check_cp_equivalence(
        &network,
        &topo,
        &ec_dest,
        &ec_result.abstraction,
        ec_result.abstract_network(&network, &topo),
        6,
        Some(&report.policies),
    )
    .expect("the split abstraction is CP-equivalent");
    println!("two-copy abstraction (Figure 2(c)): CP-equivalent ✓");
}
