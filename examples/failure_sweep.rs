//! The per-scenario refinement sweep on a fattree. The failure-free
//! abstraction cannot express "exactly one of these links is down" (the
//! paper's §9 caveat); instead of decompressing it, the sweep keeps the
//! failure-free base and derives a tiny refinement per scenario — cached
//! by orbit signature, solved warm-started, fanned out over worker
//! threads. One class here: the network plane restricted to it, with
//! cross-class sharing off.
//!
//! ```sh
//! cargo run --release --example failure_sweep
//! ```

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::verify::netsweep::{sweep_network_subset, NetworkSweepOptions};
use bonsai_config::BuiltTopology;

fn main() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];
    println!(
        "fattree-4: {} nodes / {} links, base abstraction {} nodes",
        topo.graph.node_count(),
        topo.graph.link_count(),
        ec.abstraction.abstract_node_count(),
    );

    // The sweep: exhaustive coverage of class 0, per-scenario refinements.
    let t0 = std::time::Instant::now();
    // One scenario per claimed range: 32 scenarios would otherwise fit
    // one default-sized chunk and leave every other worker idle.
    let options = NetworkSweepOptions {
        share_across_ecs: false,
        chunk_size: 1,
        ..Default::default()
    };
    let mut plane =
        sweep_network_subset(&net, &topo, &report, &options, &[0]).expect("sweep completes");
    let sweep = plane.per_ec.remove(0).report;
    println!(
        "per-scenario sweep: {} scenarios, {} refinements (cache hit rate {:.0}%), \
         mean {:.1} / max {} abstract nodes ({:.1?}, {} threads)",
        sweep.scenarios_swept(),
        sweep.refinements.len(),
        sweep.cache_hit_rate() * 100.0,
        sweep.mean_refined_nodes(),
        sweep.max_refined_nodes(),
        t0.elapsed(),
        sweep.threads,
    );
    for r in sweep.refinements.values() {
        println!(
            "  {} -> {} nodes (split {:?})",
            r.representative.describe(&topo.graph),
            r.refined_nodes(),
            r.split
                .iter()
                .map(|&n| topo.graph.name(n))
                .collect::<Vec<_>>(),
        );
    }
    assert!(sweep.max_refined_nodes() < topo.graph.node_count());
    println!(
        "every per-scenario refinement is smaller than the concrete network — compression kept."
    );
}
