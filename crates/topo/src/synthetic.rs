//! The Table 1(a) topologies: fattree, ring, full mesh.
//!
//! All three run eBGP with one private AS per router (the data-center
//! style of RFC 7938 cited by the paper) and shortest-AS-path routing;
//! each "server-facing" router originates one /24. A uniform import
//! filter (permit the data-center aggregate, deny the rest) gives the BDD
//! pipeline real policy work without breaking symmetry — the paper's
//! "destination-based prefix filters".

use bonsai_config::{
    BgpConfig, BgpNeighbor, DeviceConfig, Interface, Link, NetworkConfig, PrefixList,
    PrefixListEntry, RouteMap, RouteMapClause, SetAction,
};
use bonsai_net::prefix::{Ipv4Addr, Prefix};

/// Routing policy of the fattree (Figure 11).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FattreePolicy {
    /// Plain shortest AS-path routing.
    ShortestPath,
    /// The aggregation tier prefers routes learned from the edge tier
    /// (local preference 200) — the Figure 11 variant whose abstraction
    /// must grow to capture the extra behaviors.
    PreferBottom,
}

/// The standard filter + (optionally) the prefer-bottom route map.
fn add_common_policy(device: &mut DeviceConfig, policy_needed: bool) {
    device.prefix_lists.push(PrefixList {
        name: "DC".into(),
        entries: vec![PrefixListEntry {
            seq: 5,
            action: bonsai_config::Action::Permit,
            prefix: "10.0.0.0/8".parse().unwrap(),
            ge: None,
            le: Some(32),
        }],
    });
    device.route_maps.push(RouteMap {
        name: "FILTER".into(),
        clauses: vec![RouteMapClause {
            seq: 10,
            action: bonsai_config::Action::Permit,
            matches: vec![bonsai_config::MatchCond::PrefixList("DC".into())],
            sets: vec![],
        }],
    });
    if policy_needed {
        device.route_maps.push(RouteMap {
            name: "PREFER_DOWN".into(),
            clauses: vec![RouteMapClause {
                seq: 10,
                action: bonsai_config::Action::Permit,
                matches: vec![bonsai_config::MatchCond::PrefixList("DC".into())],
                sets: vec![SetAction::LocalPref(200)],
            }],
        });
    }
}

fn bgp_node(name: &str, asn: u32) -> DeviceConfig {
    let mut d = DeviceConfig::new(name);
    d.bgp = Some(BgpConfig::new(asn));
    d
}

/// Connects two devices, creating the interfaces and neighbor sessions.
fn connect(
    net: &mut NetworkConfig,
    a: usize,
    b: usize,
    import_a: Option<&str>,
    import_b: Option<&str>,
) {
    let ia = format!("to_{}", net.devices[b].name);
    let ib = format!("to_{}", net.devices[a].name);
    net.devices[a].interfaces.push(Interface::named(ia.clone()));
    net.devices[b].interfaces.push(Interface::named(ib.clone()));
    let (na, nb) = (net.devices[a].name.clone(), net.devices[b].name.clone());
    for (dev, iface, import) in [(a, &ia, import_a), (b, &ib, import_b)] {
        let bgp = net.devices[dev].bgp.as_mut().expect("bgp configured");
        bgp.neighbors.push(BgpNeighbor {
            iface: iface.clone(),
            import_policy: Some(import.unwrap_or("FILTER").to_string()),
            export_policy: None,
            ibgp: false,
        });
    }
    net.links.push(Link::new((na, ia), (nb, ib)));
}

/// An Al-Fares fattree with parameter `k` (k pods, `5k²/4` switches):
/// `k = 12, 20, 30` give the paper's 180-, 500- and 1125-node networks.
/// Each edge switch originates one /24, so there are `k²/2` destination
/// equivalence classes (the paper's 72 / 200 / 450).
///
/// # Panics
///
/// Panics if `k` is odd or zero.
pub fn fattree(k: usize, policy: FattreePolicy) -> NetworkConfig {
    assert!(
        k > 0 && k.is_multiple_of(2),
        "fattree parameter must be even"
    );
    let half = k / 2;
    let mut net = NetworkConfig::default();
    let mut asn = 1u32;
    let mut fresh_asn = || {
        let a = asn;
        asn += 1;
        a
    };

    // Core switches: (k/2)².
    let mut cores = Vec::new();
    for i in 0..half * half {
        let idx = net.devices.len();
        net.devices.push(bgp_node(&format!("core{i}"), fresh_asn()));
        add_common_policy(&mut net.devices[idx], false);
        cores.push(idx);
    }
    // Pods: k/2 aggregation + k/2 edge each.
    let mut aggs: Vec<Vec<usize>> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    for p in 0..k {
        let mut pod_aggs = Vec::new();
        let mut pod_edges = Vec::new();
        for i in 0..half {
            let idx = net.devices.len();
            net.devices
                .push(bgp_node(&format!("agg{p}_{i}"), fresh_asn()));
            add_common_policy(&mut net.devices[idx], policy == FattreePolicy::PreferBottom);
            pod_aggs.push(idx);
        }
        for i in 0..half {
            let idx = net.devices.len();
            net.devices
                .push(bgp_node(&format!("edge{p}_{i}"), fresh_asn()));
            add_common_policy(&mut net.devices[idx], false);
            let prefix = Prefix::new(Ipv4Addr::new(10, p as u8, i as u8, 0), 24);
            net.devices[idx].bgp.as_mut().unwrap().networks.push(prefix);
            pod_edges.push(idx);
        }
        aggs.push(pod_aggs);
        edges.push(pod_edges);
    }

    let agg_import = match policy {
        FattreePolicy::ShortestPath => None,
        FattreePolicy::PreferBottom => Some("PREFER_DOWN"),
    };

    for p in 0..k {
        // Edge–aggregation full bipartite within the pod. The aggregation
        // side uses the policy import on edge-facing sessions.
        for &e in &edges[p] {
            for &a in &aggs[p] {
                connect(&mut net, a, e, agg_import, None);
            }
        }
        // Aggregation–core: agg i of each pod connects to cores
        // i*(k/2) .. (i+1)*(k/2).
        for (i, &a) in aggs[p].iter().enumerate() {
            for j in 0..half {
                connect(&mut net, a, cores[i * half + j], None, None);
            }
        }
    }
    net
}

/// A ring of `n` routers, each its own AS, each originating one /24.
/// Compression must preserve path length, so the abstraction grows with
/// the diameter: `n/2 + 1` abstract nodes (the paper's 51 / 251 / 501).
pub fn ring(n: usize) -> NetworkConfig {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut net = NetworkConfig::default();
    for i in 0..n {
        let idx = net.devices.len();
        net.devices.push(bgp_node(&format!("r{i}"), i as u32 + 1));
        add_common_policy(&mut net.devices[idx], false);
        let prefix = Prefix::new(Ipv4Addr::new(10, (i / 256) as u8, (i % 256) as u8, 0), 24);
        net.devices[idx].bgp.as_mut().unwrap().networks.push(prefix);
    }
    for i in 0..n {
        connect(&mut net, i, (i + 1) % n, None, None);
    }
    net
}

/// A full mesh of `n` routers, each its own AS, each originating one /24.
/// Every non-destination router is one hop from the destination, so each
/// class compresses to 2 nodes and 1 link regardless of `n`.
pub fn full_mesh(n: usize) -> NetworkConfig {
    assert!(n >= 2);
    let mut net = NetworkConfig::default();
    for i in 0..n {
        let idx = net.devices.len();
        net.devices.push(bgp_node(&format!("m{i}"), i as u32 + 1));
        add_common_policy(&mut net.devices[idx], false);
        let prefix = Prefix::new(Ipv4Addr::new(10, (i / 256) as u8, (i % 256) as u8, 0), 24);
        net.devices[idx].bgp.as_mut().unwrap().networks.push(prefix);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            connect(&mut net, i, j, None, None);
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::BuiltTopology;

    #[test]
    fn fattree_sizes_match_paper() {
        for (k, nodes, ecs) in [(4usize, 20usize, 8usize), (12, 180, 72)] {
            let net = fattree(k, FattreePolicy::ShortestPath);
            assert_eq!(net.devices.len(), nodes, "k={k}");
            let originated: usize = net
                .devices
                .iter()
                .map(|d| d.bgp.as_ref().map(|b| b.networks.len()).unwrap_or(0))
                .sum();
            assert_eq!(originated, ecs, "k={k}");
            BuiltTopology::build(&net).unwrap();
        }
    }

    #[test]
    fn fattree_link_structure() {
        let k = 4;
        let net = fattree(k, FattreePolicy::ShortestPath);
        let topo = BuiltTopology::build(&net).unwrap();
        // k³/2 links: edge-agg (k * (k/2)²) + agg-core (k * (k/2)²).
        assert_eq!(topo.graph.link_count(), k * k * k / 2);
        // Every device runs BGP with a session per interface.
        for d in &net.devices {
            let bgp = d.bgp.as_ref().unwrap();
            assert_eq!(bgp.neighbors.len(), d.interfaces.len());
        }
    }

    #[test]
    fn prefer_bottom_adds_policy_to_aggs_only() {
        let net = fattree(4, FattreePolicy::PreferBottom);
        for d in &net.devices {
            let has_policy = d.route_map("PREFER_DOWN").is_some();
            assert_eq!(has_policy, d.name.starts_with("agg"), "{}", d.name);
        }
    }

    #[test]
    fn ring_and_mesh_shapes() {
        let r = ring(10);
        assert_eq!(r.devices.len(), 10);
        let rt = BuiltTopology::build(&r).unwrap();
        assert_eq!(rt.graph.link_count(), 10);

        let m = full_mesh(6);
        let mt = BuiltTopology::build(&m).unwrap();
        assert_eq!(mt.graph.link_count(), 15);
    }

    #[test]
    fn unique_prefixes_per_origin() {
        let net = fattree(8, FattreePolicy::ShortestPath);
        let mut seen = std::collections::BTreeSet::new();
        for d in &net.devices {
            if let Some(bgp) = &d.bgp {
                for p in &bgp.networks {
                    assert!(seen.insert(*p), "duplicate originated prefix {p}");
                }
            }
        }
    }
}
