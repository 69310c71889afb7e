//! Regenerates the §8 **Batfish reachability query** experiment: a
//! port-to-port reachability query on the data-center network, answered by
//! the simulation engine with and without compression. The paper: 77 s
//! with Bonsai, out-of-memory after an hour without.
//!
//! With compression, only the destination classes rooted at the queried
//! device need abstractions ("we only generate abstract networks for
//! destination ECs that are relevant for a query", §7) — that selectivity
//! plus the tiny abstract networks is where the speedup comes from.

use bonsai_bench::flags::{Arity, Flags};
use bonsai_core::compress::{build_engine, compress_ec, CompressOptions};
use bonsai_topo::{datacenter, DatacenterParams};
use bonsai_verify::query::QueryCtx;
use bonsai_verify::SimEngine;
use std::time::Instant;

fn main() {
    let quick = Flags::from_env(&[("--quick", Arity::Switch)]).switch("--quick");
    let params = if quick {
        DatacenterParams {
            clusters: 4,
            tors_per_cluster: 6,
            prefixes_per_tor: 3,
            ..Default::default()
        }
    } else {
        DatacenterParams::default()
    };
    let net = datacenter(params);
    let src = "c0_tor0".to_string();
    let dst = format!("c{}_tor1", params.clusters - 1);
    println!(
        "reachability query {src} -> {dst} on {} routers / {} links",
        net.devices.len(),
        bonsai_config::BuiltTopology::build(&net)
            .unwrap()
            .graph
            .link_count()
    );

    // Without compression, Batfish-style: simulate the *entire* control
    // plane (every destination class) to produce the full data plane,
    // then answer the query — that is how Batfish works and why the
    // paper's concrete run exhausted memory.
    let t0 = Instant::now();
    let engine = SimEngine::new(&net);
    let mut solved = 0usize;
    for ec in &engine.ecs {
        let solution = engine.solve_ec(ec, &QueryCtx::failure_free()).unwrap();
        let _data_plane = engine.data_plane(ec, &solution);
        solved += 1;
    }
    let concrete = engine
        .query_reachability(&src, &dst, &QueryCtx::failure_free())
        .unwrap();
    let concrete_time = t0.elapsed();
    println!(
        "  without Bonsai: full data plane ({solved} classes), {} reachable prefixes, {:.2}s",
        concrete.len(),
        concrete_time.as_secs_f64()
    );

    // With compression: compress only the classes rooted at dst, then
    // query the abstract networks.
    let t1 = Instant::now();
    let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
    let ecs = bonsai_core::ecs::compute_ecs(&net, &topo);
    let dst_node = topo.graph.node_by_name(&dst).unwrap();
    let src_node = topo.graph.node_by_name(&src).unwrap();
    let options = CompressOptions {
        strip_unused_communities: true,
        ..Default::default()
    };
    // One shared engine even for the selective per-EC path: queried
    // classes reuse each other's compiled policies.
    let policy_engine = build_engine(&net, options);
    let mut reachable = 0usize;
    let mut queried = 0usize;
    for ec in ecs
        .iter()
        .filter(|ec| ec.origins.iter().any(|(n, _)| *n == dst_node))
    {
        queried += 1;
        let compression = compress_ec(&policy_engine, &net, &topo, ec);
        // The analyzer reads configurations: render the class's, and keep
        // its layout for the numbering.
        let layout = &compression.abstract_network;
        let abs = layout.render(&net, &topo);
        let abs_engine = SimEngine::new(&abs.network);
        let abs_src = layout.candidates_of(&compression.abstraction, src_node);
        // The source reaches iff all its candidate copies reach (copy
        // assignment is solution-dependent).
        let solution = abs_engine
            .solve_ec(&abs_engine.ecs[0], &QueryCtx::failure_free())
            .unwrap();
        let data = abs_engine.data_plane(&abs_engine.ecs[0], &solution);
        let origins: Vec<_> = abs_engine.ecs[0].origins.iter().map(|(n, _)| *n).collect();
        let analysis = bonsai_verify::properties::SolutionAnalysis::new(
            &abs_engine.topo.graph,
            &data,
            &origins,
        );
        if abs_src.iter().all(|&c| analysis.can_reach(c)) {
            reachable += 1;
        }
    }
    let abstract_time = t1.elapsed();
    println!(
        "  with Bonsai:    {reachable} reachable prefixes (of {queried} classes) in {:.2}s",
        abstract_time.as_secs_f64()
    );
    let concrete_at_dst = concrete.len();
    assert_eq!(
        reachable, concrete_at_dst,
        "abstract query disagrees with concrete query"
    );
    println!(
        "  speedup: {:.1}x",
        concrete_time.as_secs_f64() / abstract_time.as_secs_f64().max(1e-9)
    );
}
