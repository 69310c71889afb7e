//! End-to-end acceptance of the bounded link-failure subsystem: the audit
//! finds the known unsoundness of a failure-free-sound abstraction on a
//! crafted gadget (abstract ≠ concrete under one failure), repairs it by
//! counterexample-guided refinement, and the repaired abstraction passes
//! every scenario — all driven through the facade crate the way a user
//! would.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::core::scenarios::{FailureScenario, ScenarioStream};
use bonsai::srp::instance::MultiProtocol;
use bonsai::srp::solver::solve_masked;
use bonsai::srp::{papernets, Srp};
use bonsai::verify::failures::{check_cp_equivalence_under_failures, lift_failure_mask};
use bonsai::verify::sweep::SweepOptions;
use bonsai_config::BuiltTopology;
use bonsai_net::NodeId;

/// The audit at its most thorough sampling: 4 concrete activation orders
/// per scenario.
fn thorough(prune_symmetric: bool) -> SweepOptions {
    SweepOptions {
        prune_symmetric,
        concrete_orders: 4,
        ..Default::default()
    }
}

/// The crafted gadget: Figure 1's diamond, where {b1, b2} merge into one
/// abstract node. Failure-free the abstraction is CP-equivalent; under
/// the single failure `b1—d` the concrete network routes everywhere while
/// the lifted abstract network black-holes — the exact §9 unsoundness.
#[test]
fn crafted_gadget_abstract_differs_from_concrete_under_one_failure() {
    let net = papernets::figure1_rip();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let ec_dest = ec.ec.to_ec_dest();

    // Failure-free: sound (the PR-2 oracle).
    bonsai::verify::check_cp_equivalence(
        &net,
        &topo,
        &ec_dest,
        &ec.abstraction,
        ec.abstract_network(&net, &topo),
        4,
        Some(&report.policies),
    )
    .expect("failure-free CP-equivalence holds");

    // Exhibit the mismatch directly: fail b1—d on both sides.
    let d = topo.graph.node_by_name("d").unwrap();
    let b1 = topo.graph.node_by_name("b1").unwrap();
    let scenario = FailureScenario::new(vec![(d, b1)]);

    let proto = MultiProtocol::build(&net, &topo, &ec_dest);
    let origins: Vec<NodeId> = ec_dest.origins.iter().map(|(n, _)| *n).collect();
    let srp = Srp::with_origins(&topo.graph, origins, proto);
    let concrete = solve_masked(&srp, Some(&scenario.mask(&topo.graph))).unwrap();
    // Concretely, everything still routes (b1 detours through a).
    assert_eq!(concrete.routed_count(), topo.graph.node_count());

    let abs = ec.abstract_network(&net, &topo);
    let abs_mask = lift_failure_mask(&scenario, &ec.abstraction, abs);
    let abs_proto = MultiProtocol::build(&abs.network, &abs.topo, &abs.ec);
    let abs_origins: Vec<NodeId> = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let abs_srp = Srp::with_origins(&abs.topo.graph, abs_origins, abs_proto);
    let abstract_sol = solve_masked(&abs_srp, Some(&abs_mask)).unwrap();
    // Abstractly, the one b̂—d̂ link carried every b—d link: the network
    // black-holes. Abstract ≠ concrete under one failure.
    assert!(abstract_sol.routed_count() < abs.topo.graph.node_count());
}

/// The refinement loop repairs the gadget and the result is k-failure
/// sound under the *exhaustive* scenario sweep (no reliance on symmetry
/// pruning).
#[test]
fn refinement_repairs_the_gadget_to_k_failure_soundness() {
    let net = papernets::figure1_rip();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let ec_dest = ec.ec.to_ec_dest();

    let audit = check_cp_equivalence_under_failures(
        &net,
        &topo,
        &ec_dest,
        &ec.abstraction,
        &report.policies,
        &thorough(false),
    )
    .expect("audit converges");

    assert!(!audit.was_sound(), "the unsound diamond must be refuted");
    assert!(audit.refinement_rounds >= 1);
    // Exhaustive sweep: every single-failure scenario was verified in the
    // final clean pass.
    assert_eq!(
        audit.scenarios_swept,
        ScenarioStream::new(&topo.graph, 1).len()
    );

    // The repaired abstraction survives a fresh audit without changes.
    let re_audit = check_cp_equivalence_under_failures(
        &net,
        &topo,
        &ec_dest,
        &audit.abstraction,
        &report.policies,
        &thorough(false),
    )
    .expect("re-audit converges");
    assert!(re_audit.was_sound());
    assert_eq!(
        re_audit.abstraction.partition.as_sets(),
        audit.abstraction.partition.as_sets()
    );
}

/// A fattree class audits end to end: the audit converges, the result
/// passes a clean re-audit, and no scenario solve diverges.
#[test]
fn fattree_class_audit_converges() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    let ec_dest = ec.ec.to_ec_dest();

    let audit = check_cp_equivalence_under_failures(
        &net,
        &topo,
        &ec_dest,
        &ec.abstraction,
        &report.policies,
        &SweepOptions {
            prune_symmetric: true,
            ..Default::default()
        },
    )
    .expect("audit converges");
    // The symmetric fattree abstraction is failure-broken (the paper's
    // caveat) and the repair never exceeds the concrete size.
    assert!(!audit.was_sound());
    assert!(audit.final_abstract_nodes() <= topo.graph.node_count());
    assert!(audit.final_abstract_nodes() > audit.initial_abstract_nodes);
}

/// The repairs the audit converges to at k = 1, pinned: the counterexample
/// trail and the repaired partition are part of the audit's contract (its
/// context carries no base fixpoints, so both sides sample the same cold
/// rotated orders whatever else the sweep machinery learns to reuse). The
/// symmetric topologies lose all compression — the reason per-scenario
/// refinements exist.
#[test]
fn audit_repairs_are_pinned() {
    let cases = [
        ("diamond", papernets::figure1_rip(), 3, 4, 1),
        ("gadget", papernets::figure2_gadget(), 4, 5, 2),
        (
            "fattree-4",
            bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath),
            6,
            20,
            6,
        ),
        ("mesh-10", bonsai::topo::full_mesh(10), 2, 10, 8),
    ];
    for (label, net, before, after, counterexamples) in cases {
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions::default());
        let ec = &report.per_ec[0];
        for prune_symmetric in [true, false] {
            let audit = check_cp_equivalence_under_failures(
                &net,
                &topo,
                &ec.ec.to_ec_dest(),
                &ec.abstraction,
                &report.policies,
                &thorough(prune_symmetric),
            )
            .expect("audit converges");
            let case = format!("{label} pruned={prune_symmetric}");
            assert_eq!(audit.initial_abstract_nodes, before, "{case}");
            assert_eq!(audit.final_abstract_nodes(), after, "{case}");
            assert_eq!(audit.counterexamples.len(), counterexamples, "{case}");
            assert_eq!(audit.refinement_rounds, counterexamples, "{case}");
            assert_eq!(audit.scenarios_swept, audit.scenarios_exhaustive, "{case}");
        }
    }
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
