//! The full configuration pipeline: text in, compressed text out.
//!
//! Bonsai consumes vendor-independent configurations and *emits a smaller
//! network in the same format*, so downstream tools run unchanged. This
//! example parses a network from configuration text, compresses it, and
//! prints the abstract configurations — then round-trips the output
//! through the parser to prove it is well-formed.
//!
//! ```sh
//! cargo run --release --example config_pipeline
//! ```

use bonsai::core::compress::{compress, CompressOptions};
use bonsai_config::{parse_network, print_network, BuiltTopology};

/// A small campus: two identical distribution routers between a core and
/// four identical access routers — classic compressible symmetry, plus a
/// community/local-preference policy to exercise the BDD pipeline.
const CAMPUS: &str = "
device core
interface to_dist0
interface to_dist1
ip community-list backup permit 65000:99
route-map PICK permit 10
 match community backup
 set local-preference 50
route-map PICK permit 20
router bgp 65001
 network 10.10.0.0/24
 neighbor to_dist0 remote-as external
 neighbor to_dist0 route-map PICK in
 neighbor to_dist1 remote-as external
 neighbor to_dist1 route-map PICK in
end
device dist0
interface up
interface down0
interface down1
router bgp 65010
 neighbor up remote-as external
 neighbor down0 remote-as external
 neighbor down1 remote-as external
end
device dist1
interface up
interface down0
interface down1
router bgp 65011
 neighbor up remote-as external
 neighbor down0 remote-as external
 neighbor down1 remote-as external
end
device acc0
interface up0
interface up1
router bgp 65020
 network 10.20.0.0/24
 neighbor up0 remote-as external
 neighbor up1 remote-as external
end
device acc1
interface up0
interface up1
router bgp 65021
 network 10.20.1.0/24
 neighbor up0 remote-as external
 neighbor up1 remote-as external
end
device acc2
interface up0
interface up1
router bgp 65022
 network 10.20.2.0/24
 neighbor up0 remote-as external
 neighbor up1 remote-as external
end
device acc3
interface up0
interface up1
router bgp 65023
 network 10.20.3.0/24
 neighbor up0 remote-as external
 neighbor up1 remote-as external
end
link core to_dist0 dist0 up
link core to_dist1 dist1 up
link dist0 down0 acc0 up0
link dist0 down1 acc1 up0
link dist1 down0 acc0 up1
link dist1 down1 acc1 up1
";

fn main() {
    // NOTE: acc2/acc3 are declared but only acc0/acc1 are wired — dead
    // configuration like this is common in real networks; the pipeline
    // simply sees two isolated routers.
    let network = parse_network(CAMPUS).expect("campus configuration parses");
    println!(
        "parsed {} devices / {} links / {} config lines",
        network.devices.len(),
        network.links.len(),
        network.config_lines()
    );

    let report = compress(&network, CompressOptions::default());
    println!("\ndestination classes and their compressed sizes:");
    for ec in &report.per_ec {
        println!(
            "  {} (origins {:?}): {} nodes, {} links",
            ec.ec.rep,
            ec.ec
                .origins
                .iter()
                .map(|(n, _)| network.devices[n.index()].name.as_str())
                .collect::<Vec<_>>(),
            ec.abstraction.abstract_node_count(),
            ec.abstract_network.graph.link_count(),
        );
    }

    // Emit the compressed network for the first class, in configuration
    // text, and round-trip it.
    let first = &report.per_ec[0];
    let topo = BuiltTopology::build(&network).expect("the campus topology builds");
    let abstract_network = first.abstract_network(&network, &topo);
    let text = print_network(&abstract_network.network);
    println!(
        "\ncompressed configurations for {}:\n\n{}",
        first.ec.rep, text
    );
    let reparsed = parse_network(&text).expect("emitted configuration parses");
    assert_eq!(reparsed, abstract_network.network);
    println!("round-trip through the parser: ok");
}
