//! Auditing a data center the Bonsai way: compress first, then verify.
//!
//! Generates a multi-cluster Clos data center (the paper's §8 study,
//! scaled down for an example), counts device roles with and without the
//! unused-community abstraction, compresses every destination class,
//! checks each class's abstract network (its layout) CP-equivalent, and
//! answers an all-pairs reachability audit on the compressed networks —
//! cross-checking a sample against the concrete network.
//!
//! ```sh
//! cargo run --release --example datacenter_audit
//! ```

use bonsai::config::BuiltTopology;
use bonsai::core::compress::{compress, CompressOptions};
use bonsai::core::roles::{count_roles, RoleOptions};
use bonsai::topo::{datacenter, DatacenterParams};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai::verify::properties::SolutionAnalysis;
use bonsai::verify::query::QueryCtx;
use bonsai::verify::SimEngine;
use std::time::Instant;

fn main() {
    let params = DatacenterParams {
        clusters: 6,
        tors_per_cluster: 8,
        prefixes_per_tor: 4,
        ..Default::default()
    };
    let network = datacenter(params);
    println!(
        "data center: {} routers, {} configuration lines",
        network.devices.len(),
        network.config_lines()
    );

    // Role analysis (the paper's 112 -> 26 -> 8 story).
    println!(
        "roles: {} with full signatures, {} ignoring unused tags, {} also ignoring static routes",
        count_roles(&network, RoleOptions::default()),
        count_roles(
            &network,
            RoleOptions {
                strip_unused_communities: true,
                ..Default::default()
            }
        ),
        count_roles(
            &network,
            RoleOptions {
                strip_unused_communities: true,
                ignore_static_routes: true,
            }
        ),
    );

    // Compress every destination class (in parallel), with the
    // unused-tag-stripping attribute abstraction like the paper.
    let t = Instant::now();
    let report = compress(
        &network,
        CompressOptions {
            strip_unused_communities: true,
            ..Default::default()
        },
    );
    println!(
        "compressed {} classes in {:.2}s: {:.1}±{:.1} nodes ({:.1}x), {:.1}±{:.1} links ({:.1}x)",
        report.num_ecs(),
        t.elapsed().as_secs_f64(),
        report.mean_abstract_nodes(),
        report.std_abstract_nodes(),
        report.node_ratio(),
        report.mean_abstract_links(),
        report.std_abstract_links(),
        report.link_ratio(),
    );

    // Every class's abstract network is control-plane equivalent to the
    // data center: the check solves each layout's lifted instance, with
    // nothing rendered.
    let t = Instant::now();
    let topo = BuiltTopology::build(&network).expect("the data center's topology builds");
    for ec in &report.per_ec {
        check_cp_equivalence(
            &network,
            &topo,
            &ec.ec.to_ec_dest(),
            &ec.abstraction,
            &ec.abstract_network,
            4,
            Some(&report.policies),
        )
        .unwrap_or_else(|e| panic!("class {}: {e}", ec.ec.rep));
    }
    println!(
        "CP-equivalence verified for all {} classes in {:.2}s",
        report.num_ecs(),
        t.elapsed().as_secs_f64()
    );

    // Audit on the compressed networks: does every router deliver to
    // every destination class? The simulator reads configurations, so each
    // class's is rendered; its layout numbers the abstract nodes.
    let t = Instant::now();
    let mut delivered = 0usize;
    let mut holes = 0usize;
    for ec in &report.per_ec {
        let layout = &ec.abstract_network;
        let abs = layout.render(&network, &topo);
        let engine = SimEngine::new(&abs.network);
        let solution = engine
            .solve_ec(&engine.ecs[0], &QueryCtx::failure_free())
            .expect("converges");
        let data = engine.data_plane(&engine.ecs[0], &solution);
        let origins: Vec<_> = engine.ecs[0].origins.iter().map(|(n, _)| *n).collect();
        let analysis = SolutionAnalysis::new(&engine.topo.graph, &data, &origins);
        for n in engine.topo.graph.nodes() {
            if origins.contains(&n) {
                continue;
            }
            // Scale abstract answers back to concrete router counts.
            let (block, _) = layout.copy_of_node[n.index()];
            let weight = ec.abstraction.partition.members(block).len()
                / ec.abstraction.copies[block.index()].max(1) as usize;
            if analysis.can_reach(n) {
                delivered += weight.max(1);
            } else {
                holes += weight.max(1);
            }
        }
    }
    println!(
        "audit on compressed networks: {:.2}s — {} (router, class) pairs deliver, {} do not",
        t.elapsed().as_secs_f64(),
        delivered,
        holes
    );

    // Cross-check one class against the concrete network.
    let t = Instant::now();
    let engine = SimEngine::new(&network);
    let sample = &engine.ecs[0];
    let solution = engine
        .solve_ec(sample, &QueryCtx::failure_free())
        .expect("converges");
    let data = engine.data_plane(sample, &solution);
    let origins: Vec<_> = sample.origins.iter().map(|(n, _)| *n).collect();
    let analysis = SolutionAnalysis::new(&engine.topo.graph, &data, &origins);
    let concrete_reach = engine
        .topo
        .graph
        .nodes()
        .filter(|&u| !origins.contains(&u) && analysis.can_reach(u))
        .count();
    println!(
        "concrete cross-check for {}: {} routers deliver (one class took {:.2}s — \
         there are {} classes; that is the time compression saves)",
        sample.rep,
        concrete_reach,
        t.elapsed().as_secs_f64(),
        report.num_ecs(),
    );
}
