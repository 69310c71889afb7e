//! The boundary of the theory, demonstrated executably:
//!
//! * §4.4 "Convergence": a necessarily-diverging concrete network yields a
//!   necessarily-diverging abstract network (and vice versa).
//! * §4.5 "Properties not preserved": fault tolerance is *not* preserved —
//!   the abstraction may collapse link-disjoint paths, so failure analysis
//!   on the compressed network is unsound by design. This test documents
//!   that limitation with a concrete witness.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::topo::{fattree, FattreePolicy};
use bonsai::verify::query::QueryCtx;
use bonsai::verify::SimEngine;
use bonsai_config::parse_network;
use bonsai_net::NodeId;
use bonsai_srp::instance::{EcDest, MultiProtocol, OriginProto};
use bonsai_srp::solver::{solve, SolveError};
use bonsai_srp::Srp;

/// A BGP wheel that oscillates under our solver (mutual preference for
/// each other's routes around a cycle — the classic dispute pattern):
/// each spoke prefers the route via its clockwise neighbor over the
/// direct route.
fn disputed_wheel() -> bonsai_config::NetworkConfig {
    let mut text = String::from(
        "
device d
interface to_s0
interface to_s1
interface to_s2
router bgp 100
 network 10.0.0.0/24
 neighbor to_s0 remote-as external
 neighbor to_s1 remote-as external
 neighbor to_s2 remote-as external
end
",
    );
    for i in 0..3 {
        let next = (i + 1) % 3;
        text.push_str(&format!(
            "
device s{i}
interface to_d
interface to_s{next}
interface from_s{}
route-map SPIN permit 10
 set local-preference 200
router bgp {}
 neighbor to_d remote-as external
 neighbor to_s{next} remote-as external
 neighbor to_s{next} route-map SPIN in
 neighbor from_s{} remote-as external
end
",
            (i + 2) % 3,
            i + 1,
            (i + 2) % 3,
        ));
    }
    for i in 0..3 {
        let next = (i + 1) % 3;
        text.push_str(&format!("link d to_s{i} s{i} to_d\n"));
        text.push_str(&format!("link s{i} to_s{next} s{next} from_s{i}\n"));
    }
    parse_network(&text).unwrap()
}

/// Divergence is preserved by the abstraction: if the concrete wheel
/// oscillates, the compressed wheel oscillates too (the paper's §4.4
/// convergence discussion).
#[test]
fn divergence_is_preserved() {
    let net = disputed_wheel();
    let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
    let d = topo.graph.node_by_name("d").unwrap();
    let ec = EcDest::new("10.0.0.0/24".parse().unwrap(), vec![(d, OriginProto::Bgp)]);
    let proto = MultiProtocol::build(&net, &topo, &ec);
    let srp = Srp::with_origins(&topo.graph, vec![d], proto);
    let concrete_diverges = matches!(solve(&srp), Err(SolveError::Diverged { .. }));

    // Compress (refinement itself does not solve, so it succeeds) and
    // solve the abstract instance.
    let report = compress(&net, CompressOptions::default());
    let ec_c = &report.per_ec[0];
    let abs = &ec_c.abstract_network;
    let abs_origins: Vec<NodeId> = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let abs_srp = Srp::with_origins(&abs.graph, abs_origins, abs.instance(&net, &topo));
    let abstract_diverges = matches!(solve(&abs_srp), Err(SolveError::Diverged { .. }));

    assert_eq!(
        concrete_diverges, abstract_diverges,
        "convergence behavior must correspond across the abstraction"
    );
}

/// §4.5: fault tolerance is NOT preserved. In a fattree the concrete
/// network survives any single link failure (multiple disjoint paths),
/// but the abstract network has single points of failure. This is the
/// intended trade-off — the abstraction removes redundancy on purpose —
/// and users must not run failure analyses on compressed networks.
#[test]
fn fault_tolerance_is_not_preserved() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let report = compress(&net, CompressOptions::default());
    let ec = &report.per_ec[0];

    // Concrete: a remote edge router has at least 2 disjoint next hops
    // toward the destination.
    let engine = SimEngine::new(&net);
    let sol = engine
        .solve_ec(&engine.ecs[0], &QueryCtx::failure_free())
        .unwrap();
    let dest = engine.ecs[0].origins[0].0;
    let dest_pod: usize = {
        let name = engine.topo.graph.name(dest);
        name["edge".len()..name.find('_').unwrap()].parse().unwrap()
    };
    let remote = engine
        .topo
        .graph
        .node_by_name(&format!("edge{}_0", (dest_pod + 1) % 4))
        .unwrap();
    assert!(
        sol.fwd(remote).len() >= 2,
        "concrete fattree multipaths ({} next hops)",
        sol.fwd(remote).len()
    );

    // Abstract: the compressed chain has exactly one next hop everywhere —
    // redundancy is gone.
    let layout = &ec.abstract_network;
    let abs = layout.render(&net, &engine.topo);
    let abs_engine = SimEngine::new(&abs.network);
    let abs_sol = abs_engine
        .solve_ec(&abs_engine.ecs[0], &QueryCtx::failure_free())
        .unwrap();
    let abs_remote = layout.candidates_of(&ec.abstraction, remote)[0];
    assert_eq!(
        abs_sol.fwd(abs_remote).len(),
        1,
        "abstract network must have collapsed the redundant paths"
    );
}
