//! Failure audit: discover that a sound abstraction becomes **unsound
//! when a link fails**, and repair it by counterexample-guided
//! refinement.
//!
//! ```sh
//! cargo run --release --example failure_audit
//! ```
//!
//! The paper proves CP-equivalence for the failure-free control plane and
//! explicitly cautions (§9) that the guarantee can break under link
//! failures. This example makes the caveat concrete on the Figure 1
//! diamond — `a — {b1, b2} — d` — whose two middle routers merge into one
//! abstract node: perfectly sound until the `b1—d` link fails, at which
//! point b1 detours through a while b2 still routes directly, and a
//! single abstract b-node cannot do both.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::srp::papernets;
use bonsai::verify::failures::check_cp_equivalence_under_failures;
use bonsai::verify::sweep::SweepOptions;
use bonsai_config::BuiltTopology;

fn main() {
    let network = papernets::figure1_rip();
    let topo = BuiltTopology::build(&network).unwrap();
    let report = compress(&network, CompressOptions::default());
    let ec = &report.per_ec[0];

    println!(
        "failure-free abstraction: {} concrete nodes -> {} abstract nodes",
        report.concrete_nodes,
        ec.abstraction.abstract_node_count()
    );
    println!("(b1 and b2 share one abstract role — sound while no link fails)\n");

    // Audit every single-link-failure scenario (one representative per
    // orbit signature of the abstraction being repaired).
    let audit = check_cp_equivalence_under_failures(
        &network,
        &topo,
        &ec.ec.to_ec_dest(),
        &ec.abstraction,
        &report.policies,
        &SweepOptions {
            prune_symmetric: true,
            ..Default::default()
        },
    )
    .expect("audit converges");

    println!(
        "audited k={} failures: {} scenario checks, {} counterexample(s)",
        audit.k,
        audit.checks_performed,
        audit.counterexamples.len()
    );
    for cx in &audit.counterexamples {
        println!(
            "\ncounterexample under failure {}:",
            cx.scenario.describe(&topo.graph)
        );
        println!("  {}", cx.detail);
        let names: Vec<&str> = cx.split.iter().map(|&n| topo.graph.name(n)).collect();
        println!("  refinement: isolate {names:?} and re-run Algorithm 1");
    }

    println!(
        "\nrepaired abstraction: {} -> {} abstract nodes, k-failure sound",
        audit.initial_abstract_nodes,
        audit.final_abstract_nodes()
    );
    println!("final roles (concrete members per abstract node):");
    for set in audit.abstraction.partition.as_sets() {
        let names: Vec<&str> = set
            .iter()
            .map(|&m| network.devices[m as usize].name.as_str())
            .collect();
        println!("  {names:?}");
    }
    assert!(
        !audit.was_sound(),
        "the diamond must be refuted under failures"
    );
    println!("\nre-verified: every <=1-failure scenario now has a matching abstract solution.");
}
