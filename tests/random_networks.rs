//! The flagship soundness property test: compression of *random* networks
//! is CP-equivalent.
//!
//! Networks are generated with random connected topologies and random
//! per-device policies drawn from a pool (community tagging, local
//! preference bumps, filters) — deliberately un-symmetric, so compression
//! often achieves little; what matters is that whatever abstraction comes
//! out is *correct*: stable solutions correspond, under several activation
//! orders on both sides.

mod common;

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai_config::{
    BgpConfig, BgpNeighbor, BuiltTopology, Community, CommunityList, DeviceConfig, Interface, Link,
    MatchCond, NetworkConfig, PrefixList, PrefixListEntry, RouteMap, RouteMapClause, SetAction,
};
use bonsai_net::prefix::{Ipv4Addr, Prefix};
use proptest::prelude::*;

/// A compact description of a random network, expanded deterministically.
#[derive(Debug, Clone)]
struct NetSpec {
    n: usize,
    /// Extra edges beyond a random spanning tree, as (a, b) seeds.
    extra_edges: Vec<(u8, u8)>,
    /// Per-node policy selector (0 = none, 1..=3 policy flavors).
    policies: Vec<u8>,
    /// Number of origin routers (1..=2).
    origins: usize,
}

fn arb_spec() -> impl Strategy<Value = NetSpec> {
    (3usize..9)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((any::<u8>(), any::<u8>()), 0..6),
                prop::collection::vec(0u8..4, n),
                1usize..=2,
            )
        })
        .prop_map(|(n, extra_edges, policies, origins)| NetSpec {
            n,
            extra_edges,
            policies,
            origins,
        })
}

fn build(spec: &NetSpec) -> NetworkConfig {
    let mut net = NetworkConfig::default();
    for i in 0..spec.n {
        let mut d = DeviceConfig::new(format!("r{i}"));
        let mut bgp = BgpConfig::new(i as u32 + 1);
        if i < spec.origins {
            bgp.networks
                .push(Prefix::new(Ipv4Addr::new(10, 0, i as u8, 0), 24));
        }
        d.bgp = Some(bgp);
        // Policy pool.
        d.community_lists.push(CommunityList {
            name: "TAGGED".into(),
            communities: vec![Community::new(7, 7)],
        });
        d.prefix_lists.push(PrefixList {
            name: "TEN".into(),
            entries: vec![PrefixListEntry {
                seq: 5,
                action: bonsai_config::Action::Permit,
                prefix: "10.0.0.0/8".parse().unwrap(),
                ge: None,
                le: Some(32),
            }],
        });
        let policy = match spec.policies[i] {
            1 => Some(RouteMap {
                // Tag everything.
                name: "POL".into(),
                clauses: vec![RouteMapClause {
                    seq: 10,
                    action: bonsai_config::Action::Permit,
                    matches: vec![],
                    sets: vec![SetAction::AddCommunity(Community::new(7, 7))],
                }],
            }),
            2 => Some(RouteMap {
                // Prefer tagged routes.
                name: "POL".into(),
                clauses: vec![
                    RouteMapClause {
                        seq: 10,
                        action: bonsai_config::Action::Permit,
                        matches: vec![MatchCond::Community("TAGGED".into())],
                        sets: vec![SetAction::LocalPref(200)],
                    },
                    RouteMapClause {
                        seq: 20,
                        action: bonsai_config::Action::Permit,
                        matches: vec![],
                        sets: vec![],
                    },
                ],
            }),
            3 => Some(RouteMap {
                // Filter to the aggregate.
                name: "POL".into(),
                clauses: vec![RouteMapClause {
                    seq: 10,
                    action: bonsai_config::Action::Permit,
                    matches: vec![MatchCond::PrefixList("TEN".into())],
                    sets: vec![],
                }],
            }),
            _ => None,
        };
        if let Some(p) = policy {
            d.route_maps.push(p);
        }
        net.devices.push(d);
    }

    // Connected topology: a path backbone plus random chords.
    let connect = |net: &mut NetworkConfig, a: usize, b: usize| {
        let ia = format!("to{b}");
        let ib = format!("to{a}");
        if net.devices[a].interface(&ia).is_some() {
            return; // already linked
        }
        net.devices[a].interfaces.push(Interface::named(ia.clone()));
        net.devices[b].interfaces.push(Interface::named(ib.clone()));
        for (dev, iface) in [(a, &ia), (b, &ib)] {
            let import = net.devices[dev].route_map("POL").map(|_| "POL".to_string());
            let bgp = net.devices[dev].bgp.as_mut().unwrap();
            bgp.neighbors.push(BgpNeighbor {
                iface: iface.clone(),
                import_policy: import,
                export_policy: None,
                ibgp: false,
            });
        }
        let (na, nb) = (net.devices[a].name.clone(), net.devices[b].name.clone());
        net.links.push(Link::new((na, ia), (nb, ib)));
    };
    for i in 1..spec.n {
        connect(&mut net, i - 1, i);
    }
    for &(a, b) in &spec.extra_edges {
        let a = a as usize % spec.n;
        let b = b as usize % spec.n;
        if a != b {
            connect(&mut net, a.min(b), a.max(b));
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_compress_soundly(spec in arb_spec()) {
        let net = build(&spec);
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions { threads: 1, ..Default::default() });
        for ec in &report.per_ec {
            // Solutions must exist and match across the abstraction.
            let result = check_cp_equivalence(
                &net,
                &topo,
                &ec.ec.to_ec_dest(),
                &ec.abstraction,
                &ec.abstract_network,
                6,
                24,
                Some(&report.policies),
            );
            prop_assert!(
                result.is_ok(),
                "CP-equivalence failed for class {} of {:?}: {}",
                ec.ec.rep,
                spec,
                result.unwrap_err()
            );
            // The abstraction never grows the network.
            prop_assert!(
                ec.abstraction.abstract_node_count() <= topo.graph.node_count()
            );
        }
    }

    /// On asymmetric networks orbits are small and signatures many: the
    /// raw-key interner of the failure plane must still agree with
    /// `signature_of` on every `≤ 2`-failure item of every class.
    #[test]
    fn interner_ids_are_exactly_signature_of_on_random_networks(spec in arb_spec()) {
        let net = build(&spec);
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions { threads: 1, ..Default::default() });
        for orbits in common::class_orbits(&net, &topo, &report) {
            common::assert_interner_matches_signature_of(&topo.graph, &orbits, 2);
        }
    }
}
