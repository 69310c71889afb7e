//! The lifted-instance oracle: the SRP instance a check builds over a
//! candidate's layout ([`AbstractLayout::instance`], no configuration
//! written) against [`MultiProtocol::build`] over the configuration the
//! layout renders, and the text printed from the layout
//! ([`AbstractLayout::print_into`]) against that configuration printed and
//! parsed back, on every candidate the check reference walks
//! ([`super::reference::walk_class`]: the base and one-copy abstractions,
//! then every derivation round, refuted ones included). Per edge: the BGP
//! session (iBGP, the export and import plans), the OSPF and static facts
//! and the ACL verdict; per node the BGP default preference; and the
//! solutions and label-update counts under the lifted mask in the natural
//! order and [`ROTATIONS`] rotated orders.
//!
//! Slow in a debug build, so `#[ignore]`d: CI runs it in release with
//! `cargo test -p bonsai_verify --release --lib lifted -- --ignored`.

use super::reference::{random_nets, walk_class};
use super::*;
use crate::equivalence::rotated_order;
use crate::sim_engine::edge_passes_acls;
use bonsai_config::{parse_network, print_network, DeviceConfig};
use bonsai_core::abstraction::PolicySections;
use bonsai_core::compress::{compress_each, CompressOptions, EcCompression};
use bonsai_srp::papernets;
use bonsai_srp::protocols::bgp::MapPlan;
use bonsai_srp::solver::solve_with_order_masked_stats;
use bonsai_srp::view::ConfigView;
use bonsai_srp::Protocol;
use bonsai_topo::{datacenter, fattree, wan, FattreePolicy, WanParams};

/// The activation orders each candidate's two instances are solved in.
const ROTATIONS: usize = 8;

/// What the comparisons covered.
#[derive(Default, Debug)]
struct Tally {
    candidates: usize,
    refuted: usize,
    sessions: usize,
    interpreted: usize,
    ospf: usize,
    statics: usize,
    acl_drops: usize,
    solves: usize,
}

/// The policy objects an interpreted plan runs: equal on a representative
/// and on the device rendered from it.
fn policies(device: &DeviceConfig) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &device.route_maps,
        &device.prefix_lists,
        &device.community_lists,
    )
}

/// One candidate: its lifted instance against the rendered network's, and
/// the text printed from its layout against the rendered network printed.
fn compare(
    ctx: &SweepCtx<'_>,
    candidate: &Candidate<'_>,
    sections: &PolicySections,
    tally: &mut Tally,
    what: &str,
) {
    let (network, topo) = (ctx.env.network, ctx.env.topo);
    let layout = candidate.layout;
    let rendered = layout.render(network, topo);
    let mut printed = String::new();
    layout.print_into(&mut printed, network, topo, sections);
    assert_eq!(printed, print_network(&rendered.network), "{what}: printed");
    let reparsed = parse_network(&printed).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(reparsed, rendered.network, "{what}: parsed");
    let parsed = class_srp(&rendered.network, &rendered.topo, &rendered.ec);
    let lifted = &candidate.srp;
    let graph = &layout.graph;
    tally.candidates += 1;

    assert_eq!(lifted.origins, parsed.origins, "{what}: origins");
    assert_eq!(
        graph.edge_count(),
        rendered.topo.graph.edge_count(),
        "{what}"
    );
    for n in graph.nodes() {
        assert_eq!(
            lifted.protocol.bgp().origin(n),
            parsed.protocol.bgp().origin(n),
            "{what}: BGP default preference of {n}"
        );
    }
    let range = ctx.class.ec.range();
    let (lifted_view, rendered_view) = (
        layout.view(network, topo),
        ConfigView::identity(&rendered.network, &rendered.topo),
    );
    for e in graph.edges() {
        let what = format!("{what}: {e:?} {:?}", graph.endpoints(e));
        assert_eq!(
            graph.endpoints(e),
            rendered.topo.graph.endpoints(e),
            "{what}"
        );
        let (a, b) = (lifted.protocol.bgp(), parsed.protocol.bgp());
        match (a.session_plans(e), b.session_plans(e)) {
            (None, None) => {}
            (Some((ibgp_a, export_a, import_a)), Some((ibgp_b, export_b, import_b))) => {
                tally.sessions += 1;
                assert_eq!(ibgp_a, ibgp_b, "{what}: iBGP");
                for (plan_a, plan_b) in [(export_a, export_b), (import_a, import_b)] {
                    match (plan_a, plan_b) {
                        (MapPlan::Constant(x), MapPlan::Constant(y)) => {
                            assert_eq!(x, y, "{what}: constant plan")
                        }
                        (
                            MapPlan::Interpreted { device: x, map: m },
                            MapPlan::Interpreted { device: y, map: n },
                        ) => {
                            tally.interpreted += 1;
                            assert_eq!(m, n, "{what}: interpreted map");
                            assert_eq!(
                                policies(&network.devices[*x]),
                                policies(&rendered.network.devices[*y]),
                                "{what}: the interpreted map's device"
                            );
                        }
                        (x, y) => panic!("{what}: plans {x:?} and {y:?}"),
                    }
                }
            }
            (x, y) => panic!("{what}: session {:?} and {:?}", x.is_some(), y.is_some()),
        }
        let ospf = lifted.protocol.ospf_edge(e);
        assert_eq!(ospf, parsed.protocol.ospf_edge(e), "{what}: OSPF");
        tally.ospf += usize::from(ospf.is_some());
        let statics = lifted.protocol.static_on_edge(e);
        assert_eq!(statics, parsed.protocol.static_on_edge(e), "{what}: static");
        tally.statics += usize::from(statics);
        let passes = edge_passes_acls(&lifted_view, e, range);
        assert_eq!(
            passes,
            edge_passes_acls(&rendered_view, e, range),
            "{what}: ACLs"
        );
        tally.acl_drops += usize::from(!passes);
    }

    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mask = Some(&candidate.mask);
    for rot in 0..ROTATIONS {
        let order = rotated_order(&nodes, rot);
        let options = SolverOptions::default();
        let solve = |srp| {
            solve_with_order_masked_stats(srp, &order, options, mask)
                .map(|(s, stats)| (s.labels, s.fwd, stats.updates))
                .map_err(|e| e.to_string())
        };
        assert_eq!(solve(lifted), solve(&parsed), "{what}: rotation {rot}");
        tally.solves += 1;
    }
}

/// Compares every candidate of every `class_step`-th class of `net` at
/// bound `k`, on every `step`-th signature representative.
fn compare_network(net: &NetworkConfig, k: usize, class_step: usize, step: usize) -> Tally {
    let keep = |i: usize, class: EcCompression, _: &BuiltTopology| {
        i.is_multiple_of(class_step).then_some(class)
    };
    let report = compress_each(net, CompressOptions::default(), keep);
    let sections = PolicySections::new(net);
    let mut tally = Tally::default();
    for class in report.per_ec.iter().flatten() {
        walk_class(
            net,
            &report.policies,
            class,
            k,
            step,
            &mut |ctx, rep, solutions, candidate, _| {
                let what = format!(
                    "{} under {}",
                    ctx.class.ec.prefix,
                    rep.describe(&ctx.env.topo.graph)
                );
                compare(ctx, candidate, &sections, &mut tally, &what);
                let verdict = check_scenario_refined(ctx, rep, solutions, candidate);
                let refutation = verdict.err().map(|r| *r);
                tally.refuted += usize::from(refutation.is_some());
                refutation
            },
        );
    }
    tally
}

/// Four routers around a square, an origin at `d`: an inbound ACL that
/// drops the class at `a`, an outbound one at `b`, and static routes of
/// several lengths on linked interfaces, one redistributed into BGP.
fn guarded() -> NetworkConfig {
    bonsai_config::parse_network(
        "
device d
interface to_a
interface to_b
router bgp 1
 network 10.0.0.0/24
 neighbor to_a remote-as external
 neighbor to_b remote-as external
end
device c
interface to_a
interface to_b
ip route 10.0.0.0/8 to_a
router bgp 4
 neighbor to_a remote-as external
 neighbor to_b remote-as external
end
device a
interface to_d
 ip access-group GUARD in
interface to_c
ip access-list GUARD deny 10.0.0.0/16
ip access-list GUARD permit 0.0.0.0/0
router bgp 2
 neighbor to_d remote-as external
 neighbor to_c remote-as external
end
device b
interface to_d
interface to_c
 ip access-group OUT out
ip access-list OUT deny 10.0.0.0/24
ip route 10.0.0.0/24 to_d
ip route 10.0.0.0/16 to_c
router bgp 3
 neighbor to_d remote-as external
 neighbor to_c remote-as external
 redistribute static
end
link d to_a a to_d
link d to_b b to_d
link a to_c c to_a
link b to_c c to_b
",
    )
    .expect("the guarded square parses")
}

#[test]
#[ignore = "≈ 15 s in a debug build; CI runs it in release"]
fn lifted_instances_are_the_rendered_configurations() {
    let mut seeded = Tally::default();
    for net in random_nets::seeded_networks() {
        for k in 1..=2 {
            let tally = compare_network(&net, k, 1, 1);
            seeded.candidates += tally.candidates;
            seeded.refuted += tally.refuted;
            seeded.interpreted += tally.interpreted;
        }
    }
    assert!(seeded.refuted > 0 && seeded.interpreted > 0, "{seeded:?}");

    // Figure 2(b) is refuted; Figure 5's import map reads a community.
    let gadget = compare_network(&papernets::figure2_gadget(), 2, 1, 1);
    assert!(gadget.refuted > 0, "{gadget:?}");
    let figure5 = compare_network(&papernets::figure5_bgp(), 2, 1, 1);
    assert!(figure5.interpreted > 0, "{figure5:?}");

    // The `sweep_derive` network: two of its 18 classes.
    let tally = compare_network(&fattree(6, FattreePolicy::PreferBottom), 1, 9, 1);
    assert!(tally.refuted > 0, "{tally:?}");

    // `gen:datacenter` (197 routers, 1296 classes): three classes, every
    // fourth single-link signature. Its static routes leave through an
    // unlinked interface and its ACLs guard unoriginated ranges, so the
    // square below is what exercises those.
    let tally = compare_network(&datacenter(Default::default()), 1, 432, 4);
    assert!(tally.refuted > 0, "{tally:?}");

    // ACLs and static routes on linked interfaces: `c`, the smallest
    // non-origin, has no link to `d`, so the coarsest candidate copies its
    // edge toward `d` from `a`, not from its representative.
    let guarded = compare_network(&guarded(), 1, 1, 1);
    assert!(guarded.acl_drops > 0 && guarded.statics > 0, "{guarded:?}");

    // A small WAN: OSPF, iBGP and static routes beside eBGP.
    let small_wan = wan(WanParams {
        pops: 3,
        access_per_pop: 5,
        prefixes_per_agg: 2,
        ..Default::default()
    });
    let tally = compare_network(&small_wan, 1, 8, 2);
    assert!(tally.ospf > 0 && tally.statics > 0, "{tally:?}");
}
