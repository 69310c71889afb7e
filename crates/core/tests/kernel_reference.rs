//! An independent reference for the refine-and-materialize kernel.
//!
//! `core::algorithm` refines on flat key buffers and skips `Refine` calls
//! it can prove to be no-ops; `core::abstraction` assembles the abstract
//! network from indices and never resolves a name. This file keeps the
//! straightforward versions of both — one tree-set key per member and
//! every block examined in every pass; devices found by scanning the
//! abstract links, the topology re-resolved from device and interface
//! names — as a test-only oracle, and checks that the kernel's results
//! are *equal*, not merely equivalent: block ids, members, `copies` and
//! `iterations`; the abstract configuration; the abstract topology (graph,
//! `out_iface`, `in_iface`); the layout's numbering (`node_of` /
//! `copy_of_node`); the transported class.

use bonsai_config::{
    parse_network, BgpConfig, BgpNeighbor, BuiltTopology, Community, CommunityList, DeviceConfig,
    Interface, Link, MatchCond, NetworkConfig, RouteMap, RouteMapClause, SetAction, StaticRoute,
};
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::algorithm::{find_abstraction, refine_with_split, Abstraction};
use bonsai_core::compress::refine_ec_with_split;
use bonsai_core::ecs::compute_ecs;
use bonsai_core::engine::CompiledPolicies;
use bonsai_core::signatures::{build_sig_table, origin_key, SigTable};
use bonsai_net::partition::BlockId;
use bonsai_net::prefix::{Ipv4Addr, Prefix};
use bonsai_net::{EdgeId, Graph, GraphBuilder, NodeId, Partition};
use bonsai_srp::instance::EcDest;
use bonsai_srp::papernets;
use bonsai_topo::{datacenter, fattree, FattreePolicy};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

// ---------------------------------------------------------------------------
// The oracle: Algorithm 1 with tree-set keys, every block every pass
// ---------------------------------------------------------------------------

fn oracle_prefs_of_block(sigs: &SigTable, members: &[u32]) -> usize {
    let mut union: Vec<u32> = Vec::new();
    for &m in members {
        union.extend_from_slice(&sigs.prefs[m as usize]);
    }
    union.sort_unstable();
    union.dedup();
    union.len()
}

fn oracle_find_abstraction(graph: &Graph, ec: &EcDest, sigs: &SigTable) -> Abstraction {
    let mut partition = Partition::coarsest(graph.node_count());
    let origin_nodes: Vec<u32> = ec.origins.iter().map(|(n, _)| n.0).collect();
    partition.split(&origin_nodes);
    let bgp_origins: Vec<u32> = ec
        .origins
        .iter()
        .filter(|(n, _)| origin_key(ec, *n) == 1)
        .map(|(n, _)| n.0)
        .collect();
    partition.split(&bgp_origins);
    oracle_find_abstraction_from(graph, ec, sigs, partition)
}

fn oracle_find_abstraction_from(
    graph: &Graph,
    ec: &EcDest,
    sigs: &SigTable,
    mut partition: Partition,
) -> Abstraction {
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let before = partition.block_count();
        let blocks: Vec<BlockId> = partition.blocks().collect();
        for block in blocks {
            if partition.members(block).len() <= 1 {
                continue;
            }
            let num_prefs = oracle_prefs_of_block(sigs, partition.members(block));
            oracle_refine(graph, &mut partition, block, sigs, num_prefs);
        }
        if partition.block_count() == before {
            break;
        }
    }

    let max_block = partition.blocks().map(|b| b.index() + 1).max().unwrap_or(0);
    let mut copies = vec![1u32; max_block];
    for block in partition.blocks() {
        let members = partition.members(block);
        let is_origin_block = members.iter().any(|&m| origin_key(ec, NodeId(m)) != 0);
        if is_origin_block {
            copies[block.index()] = 1;
            continue;
        }
        let prefs = oracle_prefs_of_block(sigs, members).max(1);
        copies[block.index()] = (prefs.min(members.len())).max(1) as u32;
    }
    Abstraction {
        partition,
        copies,
        iterations,
    }
}

fn oracle_refine_with_split(
    graph: &Graph,
    ec: &EcDest,
    sigs: &SigTable,
    abstraction: &Abstraction,
    split: &[NodeId],
) -> Abstraction {
    let mut partition = abstraction.partition.clone();
    for &u in split {
        partition.isolate(u.0);
    }
    oracle_find_abstraction_from(graph, ec, sigs, partition)
}

fn oracle_refine(
    graph: &Graph,
    partition: &mut Partition,
    block: BlockId,
    sigs: &SigTable,
    num_prefs: usize,
) {
    let members = partition.members(block).to_vec();
    let keys: HashMap<u32, BTreeSet<(u32, u32)>> = members
        .iter()
        .map(|&m| {
            let mut key: BTreeSet<(u32, u32)> = BTreeSet::new();
            for e in graph.out(NodeId(m)) {
                let v = graph.target(e);
                let neighbor = if num_prefs > 1 {
                    v.0 | 0x8000_0000
                } else {
                    partition.block_of(v.0).0
                };
                key.insert((sigs.sig_of_edge[e.index()], neighbor));
            }
            (m, key)
        })
        .collect();
    partition.refine_block_by_key(block, |u| keys[&u].clone());
}

// ---------------------------------------------------------------------------
// The oracle: the name-resolving builder
// ---------------------------------------------------------------------------

/// The abstract topology as a parsed network's is built: resolve every
/// link end by name, then add the halves.
fn oracle_build_topology(network: &NetworkConfig) -> (Graph, Vec<usize>, Vec<usize>) {
    let mut gb = GraphBuilder::new();
    for d in &network.devices {
        gb.add_node(d.name.clone());
    }
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    let mut resolve = |end: &bonsai_config::LinkEnd| -> (NodeId, usize) {
        let dev = network.device_index(&end.device).expect("known device");
        let iface = network.devices[dev]
            .interface_index(&end.iface)
            .expect("known interface");
        assert!(used.insert((dev, iface)), "interface used once");
        (NodeId(dev as u32), iface)
    };
    let mut halves: Vec<(NodeId, NodeId, usize, usize)> = Vec::new();
    for link in &network.links {
        let (na, ia) = resolve(&link.a);
        let (nb, ib) = resolve(&link.b);
        assert_ne!(na, nb, "no self link");
        halves.push((na, nb, ia, ib));
        halves.push((nb, na, ib, ia));
    }
    let mut out_iface = Vec::new();
    let mut in_iface = Vec::new();
    for (src, dst, oi, ii) in halves {
        assert!(!gb.has_edge(src, dst), "no parallel link");
        gb.add_edge(src, dst);
        out_iface.push(oi);
        in_iface.push(ii);
    }
    (gb.build(), out_iface, in_iface)
}

struct OracleNetwork {
    network: NetworkConfig,
    graph: Graph,
    out_iface: Vec<usize>,
    in_iface: Vec<usize>,
    ec: EcDest,
    node_of_copy: HashMap<(BlockId, u32), NodeId>,
    copy_of_node: Vec<(BlockId, u32)>,
}

fn oracle_build_abstract_network(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
) -> OracleNetwork {
    let graph = &topo.graph;
    let ordered = |a: NodeId, b: NodeId| if a.0 <= b.0 { (a, b) } else { (b, a) };

    let mut blocks: Vec<BlockId> = abstraction.partition.blocks().collect();
    blocks.sort_by_key(|b| abstraction.partition.members(*b)[0]);

    let mut node_of_copy: HashMap<(BlockId, u32), NodeId> = HashMap::new();
    let mut copy_of_node: Vec<(BlockId, u32)> = Vec::new();
    for &b in &blocks {
        for c in 0..abstraction.copies[b.index()] {
            node_of_copy.insert((b, c), NodeId(copy_of_node.len() as u32));
            copy_of_node.push((b, c));
        }
    }

    let mut quotient: BTreeMap<(BlockId, BlockId), EdgeId> = BTreeMap::new();
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        let bu = abstraction.partition.block_of(u.0);
        let bv = abstraction.partition.block_of(v.0);
        let rep = abstraction.partition.members(bu)[0];
        quotient
            .entry((bu, bv))
            .and_modify(|slot| {
                if graph.source(*slot).0 != rep && u.0 == rep {
                    *slot = e;
                }
            })
            .or_insert(e);
    }

    let mut abs_links: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for &(ba, bb) in quotient.keys() {
        let ca = abstraction.copies[ba.index()];
        let cb = abstraction.copies[bb.index()];
        if ba == bb {
            for i in 0..ca {
                for j in (i + 1)..ca {
                    abs_links.insert(ordered(node_of_copy[&(ba, i)], node_of_copy[&(ba, j)]));
                }
            }
            continue;
        }
        for i in 0..ca {
            for j in 0..cb {
                abs_links.insert(ordered(node_of_copy[&(ba, i)], node_of_copy[&(bb, j)]));
            }
        }
    }

    let mut devices: Vec<DeviceConfig> = Vec::new();
    for (abs_id, &(block, _copy)) in copy_of_node.iter().enumerate() {
        let abs_id = NodeId(abs_id as u32);
        let rep = NodeId(abstraction.partition.members(block)[0]);
        let rep_dev = &network.devices[rep.index()];
        let mut dev = DeviceConfig::new(format!("abs{}_{}", abs_id.0, rep_dev.name));
        dev.route_maps = rep_dev.route_maps.clone();
        dev.prefix_lists = rep_dev.prefix_lists.clone();
        dev.community_lists = rep_dev.community_lists.clone();
        dev.acls = rep_dev.acls.clone();

        let mut bgp_neighbors: Vec<BgpNeighbor> = Vec::new();
        let mut static_routes: Vec<StaticRoute> = Vec::new();
        for &(na, nb) in abs_links.iter() {
            let peer = if na == abs_id {
                nb
            } else if nb == abs_id {
                na
            } else {
                continue;
            };
            let (peer_block, _) = copy_of_node[peer.index()];
            let iface_name = format!("to{}", peer.0);
            let Some(&ce) = quotient.get(&(block, peer_block)) else {
                continue;
            };
            let src_dev = &network.devices[graph.source(ce).index()];
            let src_iface = &src_dev.interfaces[topo.egress(ce)];
            let mut iface = Interface::named(iface_name.clone());
            iface.acl_in = src_iface.acl_in.clone();
            iface.acl_out = src_iface.acl_out.clone();
            iface.ospf_cost = src_iface.ospf_cost;
            iface.ospf_area = src_iface.ospf_area;
            dev.interfaces.push(iface);

            if let Some(rep_bgp) = &src_dev.bgp {
                if let Some(nb_cfg) = rep_bgp.neighbors.iter().find(|n| n.iface == src_iface.name) {
                    bgp_neighbors.push(BgpNeighbor {
                        iface: iface_name.clone(),
                        import_policy: nb_cfg.import_policy.clone(),
                        export_policy: nb_cfg.export_policy.clone(),
                        ibgp: nb_cfg.ibgp,
                    });
                }
            }
            for sr in &src_dev.static_routes {
                if sr.iface == src_iface.name && sr.prefix.contains(ec.prefix) {
                    static_routes.push(StaticRoute {
                        prefix: sr.prefix,
                        iface: iface_name.clone(),
                    });
                }
            }
        }

        if let Some(rep_bgp) = &rep_dev.bgp {
            let mut bgp = rep_bgp.clone();
            bgp.neighbors = bgp_neighbors;
            bgp.networks = rep_bgp
                .networks
                .iter()
                .copied()
                .filter(|p| *p == ec.prefix || p.contains(ec.prefix))
                .collect();
            dev.bgp = Some(bgp);
        }
        if let Some(rep_ospf) = &rep_dev.ospf {
            let mut ospf = rep_ospf.clone();
            ospf.networks = rep_ospf
                .networks
                .iter()
                .copied()
                .filter(|p| *p == ec.prefix || p.contains(ec.prefix))
                .collect();
            dev.ospf = Some(ospf);
        }
        dev.static_routes = static_routes;
        devices.push(dev);
    }

    let mut links = Vec::new();
    for &(na, nb) in &abs_links {
        links.push(Link::new(
            (devices[na.index()].name.clone(), format!("to{}", nb.0)),
            (devices[nb.index()].name.clone(), format!("to{}", na.0)),
        ));
    }
    let abs_network = NetworkConfig { devices, links };
    let (abs_graph, out_iface, in_iface) = oracle_build_topology(&abs_network);

    let mut abs_origins = Vec::new();
    let mut seen_blocks: BTreeSet<BlockId> = BTreeSet::new();
    for &(n, proto) in &ec.origins {
        let block = abstraction.role_of(n);
        if seen_blocks.insert(block) {
            abs_origins.push((node_of_copy[&(block, 0)], proto));
        }
    }
    OracleNetwork {
        network: abs_network,
        graph: abs_graph,
        out_iface,
        in_iface,
        ec: EcDest {
            prefix: ec.prefix,
            ranges: ec.ranges.clone(),
            origins: abs_origins,
        },
        node_of_copy,
        copy_of_node,
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn assert_same_abstraction(kernel: &Abstraction, oracle: &Abstraction, what: &str) {
    let blocks = |a: &Abstraction| -> Vec<(BlockId, Vec<u32>)> {
        a.partition
            .blocks()
            .map(|b| (b, a.partition.members(b).to_vec()))
            .collect()
    };
    assert_eq!(blocks(kernel), blocks(oracle), "{what}: blocks");
    for x in 0..kernel.partition.len() as u32 {
        assert_eq!(
            kernel.partition.block_of(x),
            oracle.partition.block_of(x),
            "{what}: block of {x}"
        );
    }
    assert_eq!(kernel.copies, oracle.copies, "{what}: copies");
    assert_eq!(kernel.iterations, oracle.iterations, "{what}: iterations");
}

fn assert_same_graph(kernel: &Graph, oracle: &Graph, what: &str) {
    assert_eq!(kernel.node_count(), oracle.node_count(), "{what}: nodes");
    assert_eq!(kernel.edge_count(), oracle.edge_count(), "{what}: edges");
    for u in kernel.nodes() {
        assert_eq!(kernel.name(u), oracle.name(u), "{what}: name of {u}");
        let out = |g: &Graph| g.out(u).collect::<Vec<_>>();
        let inn = |g: &Graph| g.inn(u).collect::<Vec<_>>();
        assert_eq!(out(kernel), out(oracle), "{what}: out-edges of {u}");
        assert_eq!(inn(kernel), inn(oracle), "{what}: in-edges of {u}");
    }
    for e in kernel.edges() {
        assert_eq!(kernel.endpoints(e), oracle.endpoints(e), "{what}: {e:?}");
        let (u, v) = kernel.endpoints(e);
        assert!(kernel.has_edge(u, v), "{what}: has_edge {e:?}");
    }
    assert_eq!(kernel.links(), oracle.links(), "{what}: links");
}

fn assert_same_network(
    net: &NetworkConfig,
    topo: &BuiltTopology,
    layout: &AbstractLayout,
    oracle: &OracleNetwork,
    what: &str,
) {
    let kernel = layout.render(net, topo);
    assert_eq!(kernel.network, oracle.network, "{what}: abstract config");
    assert_same_graph(&kernel.topo.graph, &oracle.graph, what);
    assert_eq!(kernel.topo.out_iface, oracle.out_iface, "{what}: out_iface");
    assert_eq!(kernel.topo.in_iface, oracle.in_iface, "{what}: in_iface");
    for (&(block, copy), &node) in &oracle.node_of_copy {
        assert_eq!(layout.node_of(block, copy), node, "{what}: node_of");
    }
    assert_eq!(
        layout.copy_of_node, oracle.copy_of_node,
        "{what}: copy_of_node"
    );
    assert_eq!(kernel.ec.prefix, oracle.ec.prefix, "{what}: class prefix");
    assert_eq!(kernel.ec.ranges, oracle.ec.ranges, "{what}: class ranges");
    assert_eq!(
        kernel.ec.origins, oracle.ec.origins,
        "{what}: class origins"
    );
}

/// A small deterministic generator for the split choices.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Checks the base abstraction and `splits_per_class` random splits (one
/// to four nodes each, every third one refined a second time on top of
/// the first — a derivation's escalation chain) of every `stride`-th class.
fn check_network(
    name: &str,
    net: &NetworkConfig,
    stride: usize,
    splits_per_class: usize,
    seed: u64,
) {
    let topo = BuiltTopology::build(net).unwrap();
    let graph = &topo.graph;
    let ecs = compute_ecs(net, &topo);
    assert!(!ecs.is_empty(), "{name}: no classes");
    let engine = CompiledPolicies::from_network(net, false);
    let mut rng = Lcg(seed);
    for (ci, class) in ecs.iter().enumerate().step_by(stride) {
        let ec = class.to_ec_dest();
        let sigs = build_sig_table(&engine, net, &topo, &ec);
        let what = format!("{name} class {ci} ({})", class.rep);

        for block in 0..graph.node_count() as u32 {
            // Every prefix of the node list is a member set worth asking.
            let members: Vec<u32> = (0..=block).collect();
            assert_eq!(
                sigs.prefs_of_block(&members),
                oracle_prefs_of_block(&sigs, &members),
                "{what}: prefs of 0..={block}"
            );
        }

        let base = find_abstraction(graph, &ec, &sigs);
        let oracle_base = oracle_find_abstraction(graph, &ec, &sigs);
        assert_same_abstraction(&base, &oracle_base, &what);
        assert_same_network(
            net,
            &topo,
            &AbstractLayout::new(graph, &ec, &base),
            &oracle_build_abstract_network(net, &topo, &ec, &oracle_base),
            &what,
        );

        for round in 0..splits_per_class {
            let split: Vec<NodeId> = (0..1 + rng.below(4))
                .map(|_| NodeId(rng.below(graph.node_count()) as u32))
                .collect();
            let what = format!("{what} split {split:?}");
            let (refined, refined_layout) = refine_ec_with_split(graph, &ec, &sigs, &base, &split);
            let oracle_refined = oracle_refine_with_split(graph, &ec, &sigs, &oracle_base, &split);
            assert_same_abstraction(&refined, &oracle_refined, &what);
            assert_same_network(
                net,
                &topo,
                &refined_layout,
                &oracle_build_abstract_network(net, &topo, &ec, &oracle_refined),
                &what,
            );
            if round % 3 == 2 {
                let again = [NodeId(rng.below(graph.node_count()) as u32)];
                let what = format!("{what} then {again:?}");
                let chained = refine_with_split(graph, &ec, &sigs, &refined, &again);
                let oracle_chained =
                    oracle_refine_with_split(graph, &ec, &sigs, &oracle_refined, &again);
                assert_same_abstraction(&chained, &oracle_chained, &what);
                assert_same_network(
                    net,
                    &topo,
                    &AbstractLayout::new(graph, &ec, &chained),
                    &oracle_build_abstract_network(net, &topo, &ec, &oracle_chained),
                    &what,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Networks
// ---------------------------------------------------------------------------

#[test]
fn paper_networks_match_the_reference() {
    // Figure 2's gadget is the ∀∀ case: prefs {100, 200} key the b-block
    // on concrete neighbors and split it into two BGP copies.
    for (name, net) in [
        ("figure1", papernets::figure1_rip()),
        ("figure2", papernets::figure2_gadget()),
        ("figure5", papernets::figure5_bgp()),
    ] {
        check_network(name, &net, 1, 24, 16);
    }
}

#[test]
fn gadget_exercises_forall_forall_and_bgp_copies() {
    // Guards the claim above against a papernets edit.
    let net = papernets::figure2_gadget();
    let topo = BuiltTopology::build(&net).unwrap();
    let ec = compute_ecs(&net, &topo)[0].to_ec_dest();
    let engine = CompiledPolicies::from_network(&net, false);
    let sigs = build_sig_table(&engine, &net, &topo, &ec);
    let base = find_abstraction(&topo.graph, &ec, &sigs);
    assert!(base.copies.iter().any(|&c| c > 1));
    assert!(base
        .partition
        .blocks()
        .any(|b| sigs.prefs_of_block(base.partition.members(b)) > 1));
}

#[test]
fn fattrees_match_the_reference() {
    check_network(
        "fattree4",
        &fattree(4, FattreePolicy::ShortestPath),
        1,
        12,
        4,
    );
    check_network(
        "fattree4/bottom",
        &fattree(4, FattreePolicy::PreferBottom),
        3,
        12,
        5,
    );
    check_network(
        "fattree6",
        &fattree(6, FattreePolicy::ShortestPath),
        5,
        8,
        6,
    );
    check_network(
        "fattree6/bottom",
        &fattree(6, FattreePolicy::PreferBottom),
        7,
        8,
        7,
    );
}

#[test]
fn datacenter_matches_the_reference() {
    // 1296 classes over 197 routers with route maps, prefix lists, ACLs,
    // communities and static routes; every 81st class keeps a debug-build
    // run in seconds.
    check_network("datacenter", &datacenter(Default::default()), 81, 4, 2018);
}

/// OSPF costs and areas, static routes redistributed into both protocols,
/// ACLs in both directions whose entries carve the originated /16 into
/// several classes, and BGP over the same links.
fn mixed_protocol_network() -> NetworkConfig {
    let mut text = String::from(
        "
device root
interface arm0
 ip ospf cost 1
 ip ospf area 0
interface arm1
 ip ospf cost 1
 ip ospf area 0
interface stub
ip route 10.9.0.0/16 stub
router ospf
 network 10.0.0.0/24
 network 10.9.0.0/16
 redistribute static
router bgp 100
 network 10.0.0.0/24
 network 10.9.0.0/16
 redistribute static
 neighbor arm0 remote-as external
 neighbor arm1 remote-as external
end
device sink
interface up
end
",
    );
    for arm in 0..2 {
        for i in 0..3 {
            let area = if i == 2 { 1 } else { 0 };
            text.push_str(&format!(
                "
device a{arm}_{i}
interface up
 ip ospf cost {cost}
 ip ospf area {area}
 ip access-group GUARD in
interface down
 ip ospf cost {cost}
 ip ospf area {area}
 ip access-group GUARD out
ip access-list GUARD deny 10.9.{i}.0/24
ip access-list GUARD permit any
ip route 10.9.0.0/16 up
router ospf
router bgp {asn}
 neighbor up remote-as external
 neighbor down remote-as external
end
",
                cost = 5 + i,
                asn = 200 + 10 * arm + i,
            ));
        }
    }
    text.push_str("link root arm0 a0_0 up\nlink root arm1 a1_0 up\nlink root stub sink up\n");
    for arm in 0..2 {
        for i in 0..2 {
            text.push_str(&format!("link a{arm}_{i} down a{arm}_{} up\n", i + 1));
        }
    }
    parse_network(&text).unwrap()
}

#[test]
fn ospf_static_acl_network_matches_the_reference() {
    let net = mixed_protocol_network();
    let topo = BuiltTopology::build(&net).unwrap();
    // The builder branches this network is here for.
    assert!(compute_ecs(&net, &topo).len() >= 3);
    assert!(net.devices.iter().any(|d| !d.static_routes.is_empty()));
    assert!(net
        .devices
        .iter()
        .any(|d| d.ospf.is_some() && d.bgp.is_some()));
    check_network("ospf+static+acl", &net, 1, 16, 6);
}

/// A random connected eBGP network in the style of
/// `tests/random_networks.rs`: a path backbone plus chords, per-device
/// import policy drawn from a pool (tag, prefer tagged — two local
/// preferences, the ∀∀ trigger — or none), one or two origins.
fn random_network(chords: &[(u8, u8)], policies: &[u8], origins: usize) -> NetworkConfig {
    let n = policies.len();
    let mut net = NetworkConfig::default();
    for (i, &policy) in policies.iter().enumerate() {
        let mut d = DeviceConfig::new(format!("r{i}"));
        let mut bgp = BgpConfig::new(i as u32 + 1);
        if i < origins {
            bgp.networks
                .push(Prefix::new(Ipv4Addr::new(10, 0, i as u8, 0), 24));
        }
        d.bgp = Some(bgp);
        d.community_lists.push(CommunityList {
            name: "TAGGED".into(),
            communities: vec![Community::new(7, 7)],
        });
        let clause = |seq, matches, sets| RouteMapClause {
            seq,
            action: bonsai_config::Action::Permit,
            matches,
            sets,
        };
        let clauses = match policy {
            1 => vec![clause(
                10,
                vec![],
                vec![SetAction::AddCommunity(Community::new(7, 7))],
            )],
            2 => vec![
                clause(
                    10,
                    vec![MatchCond::Community("TAGGED".into())],
                    vec![SetAction::LocalPref(200)],
                ),
                clause(20, vec![], vec![]),
            ],
            _ => vec![],
        };
        if !clauses.is_empty() {
            d.route_maps.push(RouteMap {
                name: "POL".into(),
                clauses,
            });
        }
        net.devices.push(d);
    }
    let mut connect = |a: usize, b: usize| {
        let (ia, ib) = (format!("to{b}"), format!("to{a}"));
        if net.devices[a].interface(&ia).is_some() {
            return;
        }
        for (dev, iface) in [(a, &ia), (b, &ib)] {
            let import = net.devices[dev].route_map("POL").map(|_| "POL".to_string());
            net.devices[dev]
                .interfaces
                .push(Interface::named(iface.clone()));
            net.devices[dev]
                .bgp
                .as_mut()
                .unwrap()
                .neighbors
                .push(BgpNeighbor {
                    iface: iface.clone(),
                    import_policy: import,
                    export_policy: None,
                    ibgp: false,
                });
        }
        let (na, nb) = (net.devices[a].name.clone(), net.devices[b].name.clone());
        net.links.push(Link::new((na, ia), (nb, ib)));
    };
    for i in 1..n {
        connect(i - 1, i);
    }
    for &(a, b) in chords {
        let (a, b) = (a as usize % n, b as usize % n);
        if a != b {
            connect(a.min(b), a.max(b));
        }
    }
    net
}

type NetSpec = (Vec<(u8, u8)>, Vec<u8>, usize, u64);

fn arb_spec() -> impl Strategy<Value = NetSpec> {
    (3usize..10).prop_flat_map(|n| {
        (
            prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
            prop::collection::vec(0u8..3, n),
            1usize..=2,
            any::<u64>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_with_random_splits_match_the_reference(spec in arb_spec()) {
        let (chords, policies, origins, seed) = spec;
        let net = random_network(&chords, &policies, origins);
        check_network("random", &net, 1, 6, seed);
    }
}
