//! The random-network generator shared by the property tests (included
//! with `#[path]`, not a test target itself): random connected eBGP
//! topologies with per-device import policies drawn from a pool
//! (community tagging, local-preference bumps on tagged routes, filters)
//! — deliberately un-symmetric. Each includer uses a different part.

#![allow(dead_code)]

use bonsai_config::{
    BgpConfig, BgpNeighbor, Community, CommunityList, DeviceConfig, Interface, Link, MatchCond,
    NetworkConfig, PrefixList, PrefixListEntry, RouteMap, RouteMapClause, SetAction,
};
use bonsai_net::prefix::{Ipv4Addr, Prefix};
use proptest::prelude::*;

/// A compact description of a random network, expanded deterministically.
#[derive(Debug, Clone)]
pub struct NetSpec {
    pub n: usize,
    /// Extra edges beyond a random spanning tree, as (a, b) seeds.
    pub extra_edges: Vec<(u8, u8)>,
    /// Per-node policy selector (0 = none, 1..=3 policy flavors).
    pub policies: Vec<u8>,
    /// Number of origin routers (1..=2).
    pub origins: usize,
}

/// A deterministic generator for seeded networks and samples.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Sixteen seeded networks from [`build`]: 4–8 routers, a path backbone
/// plus chords, import policies that tag, prefer tagged routes or filter,
/// one or two origins. Seeded rather than drawn from [`arb_spec`], so a
/// count pinned against them names the same networks every run.
pub fn seeded_networks() -> Vec<NetworkConfig> {
    let mut rng = Lcg(0x5eed);
    (0..16).map(|_| build(&seeded_spec(&mut rng))).collect()
}

/// The next network of the seeded generator `rng`: what
/// [`seeded_networks`] draws sixteen times from seed `0x5eed`.
pub fn seeded_spec(rng: &mut Lcg) -> NetSpec {
    let n = 4 + rng.below(5);
    NetSpec {
        n,
        extra_edges: (0..rng.below(6))
            .map(|_| (rng.below(256) as u8, rng.below(256) as u8))
            .collect(),
        policies: (0..n).map(|_| rng.below(4) as u8).collect(),
        origins: 1 + rng.below(2),
    }
}

pub fn arb_spec() -> impl Strategy<Value = NetSpec> {
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

pub fn build(spec: &NetSpec) -> NetworkConfig {
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
