//! Regenerates **Figure 11**: abstraction size of a BGP fattree under two
//! routing policies — shortest path vs "middle tier prefers the bottom
//! tier". The policy variant must produce a strictly larger abstraction
//! because the aggregation routers can exhibit more forwarding behaviors.

use bonsai_bench::flags::{Arity, Flags};
use bonsai_core::compress::{compress, CompressOptions};
use bonsai_topo::{fattree, FattreePolicy};

fn main() {
    let quick = Flags::from_env(&[("--quick", Arity::Switch)]).switch("--quick");
    let ks: &[usize] = if quick { &[4] } else { &[4, 8, 12] };
    println!(
        "{:<4} {:<16} {:>14} {:>14} {:>10}",
        "k", "policy", "abs nodes", "abs links", "ECs"
    );
    for &k in ks {
        for (policy, label) in [
            (FattreePolicy::ShortestPath, "shortest-path"),
            (FattreePolicy::PreferBottom, "prefer-bottom"),
        ] {
            let net = fattree(k, policy);
            let report = compress(&net, CompressOptions::default());
            println!(
                "{:<4} {:<16} {:>11.1}±{:<3.1} {:>11.1}±{:<3.1} {:>8}",
                k,
                label,
                report.mean_abstract_nodes(),
                report.std_abstract_nodes(),
                report.mean_abstract_links(),
                report.std_abstract_links(),
                report.num_ecs(),
            );
        }
    }
}
