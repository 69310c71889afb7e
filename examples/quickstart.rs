//! Quickstart: compress the paper's Figure 1 network and inspect the
//! result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::srp::papernets;
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai_config::BuiltTopology;

fn main() {
    // The diamond of Figure 1: a — {b1, b2} — d, destination d.
    let network = papernets::figure1_rip();
    println!(
        "concrete network: {} devices, {} configuration lines",
        network.devices.len(),
        network.config_lines()
    );

    // Compress: one abstraction per destination equivalence class.
    let report = compress(&network, CompressOptions::default());
    println!(
        "compressed to {:.0} nodes / {:.0} links per destination class ({} classes) in {:?}",
        report.mean_abstract_nodes(),
        report.mean_abstract_links(),
        report.num_ecs(),
        report.total_time,
    );

    let ec = &report.per_ec[0];
    println!("\nabstract roles (concrete members per abstract node):");
    for set in ec.abstraction.partition.as_sets() {
        let names: Vec<&str> = set
            .iter()
            .map(|&m| network.devices[m as usize].name.as_str())
            .collect();
        println!("  {:?}", names);
    }

    // The abstract network is ordinary configuration text — Bonsai's
    // actual output format — so any tool can consume it.
    println!("\nabstract network configurations:\n");
    let topo = BuiltTopology::build(&network).unwrap();
    let abstract_network = ec.abstract_network(&network, &topo);
    println!(
        "{}",
        bonsai_config::print_network(&abstract_network.network)
    );

    // And it is control-plane equivalent to the original.
    check_cp_equivalence(
        &network,
        &topo,
        &ec.ec.to_ec_dest(),
        &ec.abstraction,
        abstract_network,
        4,
        Some(&report.policies),
    )
    .expect("CP-equivalence holds");
    println!("CP-equivalence verified: labels and forwarding correspond.");
}
