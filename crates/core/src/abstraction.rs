//! Materializing an [`Abstraction`] as a smaller, runnable network.
//!
//! Bonsai's output is a set of vendor-independent configurations for the
//! *abstract* network, so that any downstream analyzer (here: the SRP
//! solver and the verification engines) runs on it unchanged. This module
//! builds that network in two steps, and prints it without the second:
//!
//! 1. The **layout** ([`AbstractLayout::new`]) is config-free: the abstract
//!    node numbering (one node per block copy, a block's copies
//!    consecutive, blocks by smallest member), the abstract graph and the
//!    transported class, and for every abstract node and directed edge the
//!    concrete object it copies — the block's representative (its smallest
//!    member) and a representative concrete edge between the two blocks.
//! 2. The **renderer** ([`AbstractLayout::render`]) writes the
//!    configuration: one device per node with the representative's route
//!    maps, filter lists, ACLs, OSPF settings and BGP globals (all members
//!    agree at the refinement fixpoint — that is what refinement
//!    enforced), and one interface per abstract neighbor configured from
//!    the representative edge's source interface. It is the only code that
//!    builds a configuration object.
//!
//! [`build_abstract_network`] is the two in a row. Whoever only solves the
//! abstract network skips the second: [`AbstractLayout::view`] reads the
//! concrete objects the renderer would copy, so the instance
//! [`AbstractLayout::instance`] builds equals the one parsed back from the
//! rendered files. Whoever only wants the text skips it too:
//! [`AbstractLayout::print_into`] writes what printing the rendered network
//! writes, formatting names, interfaces and processes from the layout with
//! the dialect's own line writers ([`bonsai_config::print`]) and copying
//! each device's policy objects from a section printed once per concrete
//! device ([`PolicySections`]). The renderer and the printer read the
//! representative edges through the same helpers, so they cannot disagree
//! on which interface, session or static route an edge copies.
//!
//! Intra-block quotient edges are dropped for single-copy blocks (they can
//! only represent strictly-worse detours at equal preference; this mirrors
//! the tool evaluated in the paper, where a full mesh compresses to two
//! nodes and one link) and expanded between distinct copies for BGP-split
//! blocks, where loop prevention makes peer routes matter.
//!
//! # Assembly by index
//!
//! The layout is the other half of the failure sweep's kernel, so it
//! works block by block on indices and never looks a name up: one pass
//! over a block's out-edges finds its adjacent blocks and the
//! representative concrete edge toward each, which is every node's
//! neighbor list (ascending by peer, so "interface `i` of device `a`" is
//! "the `i`-th peer of `a`"), and the graph is built link by link in that
//! order. The renderer formats each name once and hands the graph over
//! with names attached; the printer formats names as it writes them.
//! `tests/kernel_reference.rs` keeps the builder that scanned the abstract
//! links per device and re-resolved every name, and checks the two
//! produce equal configurations and topologies.

use crate::algorithm::Abstraction;
use bonsai_config::{
    print, BgpConfig, BgpNeighbor, BuiltTopology, DeviceConfig, Interface, Link, NetworkConfig,
    OspfConfig, StaticRoute,
};
use bonsai_net::partition::BlockId;
use bonsai_net::prefix::Prefix;
use bonsai_net::{EdgeId, Graph, GraphBuilder, NodeId};
use bonsai_srp::instance::{EcDest, MultiProtocol};
use bonsai_srp::view::ConfigView;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// The abstract network generated for one destination equivalence class.
#[derive(Clone, Debug)]
pub struct AbstractNetwork {
    /// The generated configurations.
    pub network: NetworkConfig,
    /// The generated topology.
    pub topo: BuiltTopology,
    /// The destination class transported to the abstract network.
    pub ec: EcDest,
    /// Abstract node of each `(block, copy)` pair.
    pub node_of_copy: HashMap<(BlockId, u32), NodeId>,
    /// `(block, copy)` of each abstract node.
    pub copy_of_node: Vec<(BlockId, u32)>,
}

impl AbstractNetwork {
    /// The abstract nodes a concrete node may map to (all copies of its
    /// block — which copy applies is solution-dependent, paper §4.3).
    pub fn candidates_of(&self, abstraction: &Abstraction, u: NodeId) -> Vec<NodeId> {
        let block = abstraction.role_of(u);
        (0..abstraction.copies[block.index()])
            .map(|c| self.node_of_copy[&(block, c)])
            .collect()
    }

    /// Undirected link count of the abstract network.
    pub fn link_count(&self) -> usize {
        self.topo.graph.link_count()
    }
}

/// The abstract node numbering an [`AbstractLayout`] fixes and the
/// [`AbstractNetwork`] rendered from it keeps: what lifting a scenario,
/// transporting a solution or mapping a verdict back reads, on either.
pub trait AbstractNumbering {
    /// The abstract graph.
    fn abstract_graph(&self) -> &Graph;
    /// The destination class transported to the abstract network.
    fn abstract_ec(&self) -> &EcDest;
    /// `(block, copy)` of abstract node `n`.
    fn copy_of(&self, n: NodeId) -> (BlockId, u32);
    /// The abstract node of copy `copy` of `block`.
    fn node_of(&self, block: BlockId, copy: u32) -> NodeId;
}

impl AbstractNumbering for AbstractNetwork {
    fn abstract_graph(&self) -> &Graph {
        &self.topo.graph
    }
    fn abstract_ec(&self) -> &EcDest {
        &self.ec
    }
    fn copy_of(&self, n: NodeId) -> (BlockId, u32) {
        self.copy_of_node[n.index()]
    }
    fn node_of(&self, block: BlockId, copy: u32) -> NodeId {
        self.node_of_copy[&(block, copy)]
    }
}

impl AbstractNumbering for AbstractLayout {
    fn abstract_graph(&self) -> &Graph {
        &self.graph
    }
    fn abstract_ec(&self) -> &EcDest {
        &self.ec
    }
    fn copy_of(&self, n: NodeId) -> (BlockId, u32) {
        self.copy_of_node[n.index()]
    }
    fn node_of(&self, block: BlockId, copy: u32) -> NodeId {
        NodeId(self.first_node[block.index()] + copy)
    }
}

/// The config-free half of an abstract network: its numbering, graph and
/// class, and the concrete node and edge each abstract node and edge
/// copies. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct AbstractLayout {
    /// The abstract graph, its nodes unnamed. The two directions of link
    /// `i` are edges `2i` (lower node first) and `2i + 1`, and a node's
    /// out-edges ascend by target: out-edge `i` leaves through interface
    /// `i`.
    pub graph: Graph,
    /// The destination class transported to the abstract network.
    pub ec: EcDest,
    /// `(block, copy)` of each abstract node.
    pub copy_of_node: Vec<(BlockId, u32)>,
    /// The block representative (smallest member) of each abstract node:
    /// the device it copies.
    pub reps: Vec<NodeId>,
    /// The concrete edge each abstract edge copies: out of the source's
    /// block into the target's, from the representative when it has one.
    pub rep_edges: Vec<EdgeId>,
    /// Abstract node of copy 0 of each block, by block id.
    first_node: Vec<u32>,
}

impl AbstractLayout {
    /// Lays out the abstract network of `abstraction`, a partition of
    /// `graph` for class `ec`.
    pub fn new(graph: &Graph, ec: &EcDest, abstraction: &Abstraction) -> Self {
        let partition = &abstraction.partition;
        let copies = &abstraction.copies;

        // Deterministic block order: by smallest member.
        let mut blocks: Vec<BlockId> = partition.blocks().collect();
        blocks.sort_by_key(|b| partition.members(*b)[0]);

        // Allocate abstract nodes: the copies of a block are consecutive ids.
        let mut first_node = vec![0u32; copies.len()];
        let mut copy_of_node: Vec<(BlockId, u32)> = Vec::new();
        for &b in &blocks {
            first_node[b.index()] = copy_of_node.len() as u32;
            copy_of_node.extend((0..copies[b.index()]).map(|c| (b, c)));
        }
        let nodes = copy_of_node.len();

        // Neighbors, block by block. `peers[peer_start[a]..peer_start[a + 1]]`
        // are the abstract neighbors of node `a`, ascending, and `via` the
        // concrete edge toward each.
        let mut reps: Vec<NodeId> = Vec::with_capacity(nodes);
        let mut peer_start: Vec<u32> = Vec::with_capacity(nodes + 1);
        let mut peers: Vec<u32> = Vec::new();
        let mut via: Vec<EdgeId> = Vec::new();
        // The quotient edges out of the block at hand: per neighbor block its
        // representative concrete edge (`NO_EDGE` = not adjacent), and the
        // adjacent blocks in abstract-node order.
        const NO_EDGE: u32 = u32::MAX;
        let mut edge_to_block = vec![NO_EDGE; copies.len()];
        let mut adjacent: Vec<BlockId> = Vec::new();
        for &block in &blocks {
            let members = partition.members(block);
            let rep = members[0];
            // Prefer an edge whose source is the block representative so the
            // interface settings we copy exist on the representative device;
            // among equals, the lowest edge id. The representative is the
            // first member and out-edges ascend, so its edges claim their
            // slots first and only a lower non-representative edge replaces a
            // non-representative one.
            for &m in members {
                for e in graph.out(NodeId(m)) {
                    let to = partition.block_of(graph.target(e).0);
                    let slot = &mut edge_to_block[to.index()];
                    if *slot == NO_EDGE {
                        adjacent.push(to);
                        *slot = e.0;
                    } else if m != rep && graph.source(EdgeId(*slot)).0 != rep && e.0 < *slot {
                        *slot = e.0;
                    }
                }
            }
            adjacent.sort_unstable_by_key(|b| first_node[b.index()]);

            // Intra-block adjacency links distinct copies only.
            for copy in 0..copies[block.index()] {
                reps.push(NodeId(rep));
                peer_start.push(peers.len() as u32);
                for &peer_block in &adjacent {
                    let edge = EdgeId(edge_to_block[peer_block.index()]);
                    for peer_copy in 0..copies[peer_block.index()] {
                        if peer_block != block || peer_copy != copy {
                            peers.push(first_node[peer_block.index()] + peer_copy);
                            via.push(edge);
                        }
                    }
                }
            }

            for b in adjacent.drain(..) {
                edge_to_block[b.index()] = NO_EDGE;
            }
        }
        peer_start.push(peers.len() as u32);
        let range = |a: u32| peer_start[a as usize] as usize..peer_start[a as usize + 1] as usize;

        // Links, lower end first, each as its two directions.
        let mut gb = GraphBuilder::new();
        for _ in 0..nodes {
            gb.add_node(String::new());
        }
        let mut rep_edges = Vec::with_capacity(peers.len());
        for a in 0..nodes as u32 {
            for at in range(a) {
                let b = peers[at];
                if b < a {
                    continue;
                }
                let back = peers[range(b)].binary_search(&a).expect(CONSISTENT);
                gb.add_link(NodeId(a), NodeId(b));
                rep_edges.push(via[at]);
                rep_edges.push(via[range(b).start + back]);
            }
        }
        // A one-way quotient edge would leave a peer without its link.
        assert_eq!(rep_edges.len(), peers.len(), "{CONSISTENT}");

        // Transport the EC: origins are copy 0 of each origin block (origin
        // blocks always have exactly one copy).
        let mut abs_origins: Vec<(NodeId, bonsai_srp::instance::OriginProto)> = Vec::new();
        for &(n, proto) in &ec.origins {
            let node = NodeId(first_node[abstraction.role_of(n).index()]);
            if abs_origins.iter().all(|&(seen, _)| seen != node) {
                abs_origins.push((node, proto));
            }
        }
        let abs_ec = EcDest {
            prefix: ec.prefix,
            ranges: ec.ranges.clone(),
            origins: abs_origins,
        };

        AbstractLayout {
            graph: gb.build(),
            ec: abs_ec,
            copy_of_node,
            reps,
            rep_edges,
            first_node,
        }
    }

    /// The configuration the rendered network would hold, read from the
    /// concrete `network` and `topo` the layout was made from.
    pub fn view<'n, 't>(
        &'t self,
        network: &'n NetworkConfig,
        topo: &'t BuiltTopology,
    ) -> ConfigView<'n, 't> {
        let (graph, class) = (&self.graph, self.ec.prefix);
        ConfigView::lifted(network, topo, graph, &self.reps, &self.rep_edges, class)
    }

    /// The class's SRP instance over the abstract network, built on
    /// [`AbstractLayout::view`]: equal to [`MultiProtocol::build`] over
    /// the rendered network, with nothing rendered.
    pub fn instance<'n>(
        &self,
        network: &'n NetworkConfig,
        topo: &BuiltTopology,
    ) -> MultiProtocol<'n> {
        MultiProtocol::from_view(&self.view(network, topo), &self.ec)
    }

    /// The interfaces of abstract node `a`, one per out-edge in edge
    /// order: the concrete device and interface the edge copies (the
    /// representative edge's source), and the peer it leads to.
    fn out_interfaces<'a>(
        &'a self,
        a: NodeId,
        network: &'a NetworkConfig,
        topo: &'a BuiltTopology,
    ) -> impl Iterator<Item = (EdgeId, &'a DeviceConfig, &'a Interface, NodeId)> + 'a {
        self.graph.out(a).map(move |e| {
            let ce = self.rep_edges[e.index()];
            let src_dev = &network.devices[topo.graph.source(ce).index()];
            let src_iface = &src_dev.interfaces[topo.egress(ce)];
            (e, src_dev, src_iface, self.graph.target(e))
        })
    }

    /// The name of abstract node `a`.
    fn device_name<'n>(&self, a: NodeId, network: &'n NetworkConfig) -> DeviceName<'n> {
        DeviceName(a, &network.devices[self.reps[a.index()].index()].name)
    }

    /// Writes the configuration: names every node and interface and copies
    /// the policy objects. `network` and `topo` must be the ones the layout
    /// was made from.
    pub fn render(self, network: &NetworkConfig, topo: &BuiltTopology) -> AbstractNetwork {
        bonsai_obs::add("compress.abstract.rendered", 1);
        let graph = &self.graph;
        let class = self.ec.prefix;
        let nodes = graph.node_count();

        // Every name is formatted once and cloned where a config object owns
        // a copy.
        let iface_names: Vec<String> = (0..nodes)
            .map(|peer| IfaceName(NodeId(peer as u32)).to_string())
            .collect();

        let mut devices: Vec<DeviceConfig> = Vec::with_capacity(nodes);
        let mut out_iface = vec![0usize; graph.edge_count()];
        for a in graph.nodes() {
            let rep_dev = &network.devices[self.reps[a.index()].index()];
            let mut dev = DeviceConfig::new(self.device_name(a, network).to_string());

            // Copy named policy objects wholesale (referenced by name).
            dev.route_maps = rep_dev.route_maps.clone();
            dev.prefix_lists = rep_dev.prefix_lists.clone();
            dev.community_lists = rep_dev.community_lists.clone();
            dev.acls = rep_dev.acls.clone();

            // One interface per abstract neighbor, configured from the
            // representative edge's source interface.
            let degree = graph.out_degree(a);
            dev.interfaces.reserve_exact(degree);
            let mut bgp_neighbors: Vec<BgpNeighbor> =
                Vec::with_capacity(if rep_dev.bgp.is_some() { degree } else { 0 });
            let out = self.out_interfaces(a, network, topo);
            for (iface, (e, src_dev, src_iface, peer)) in out.enumerate() {
                out_iface[e.index()] = iface;
                let iface_name = &iface_names[peer.index()];
                dev.interfaces.push(Interface {
                    name: iface_name.clone(),
                    prefix: None,
                    acl_in: src_iface.acl_in.clone(),
                    acl_out: src_iface.acl_out.clone(),
                    ospf_cost: src_iface.ospf_cost,
                    ospf_area: src_iface.ospf_area,
                });

                // BGP session on the representative edge → session here.
                if let Some(session) = session_on(src_dev, src_iface) {
                    bgp_neighbors.push(BgpNeighbor {
                        iface: iface_name.clone(),
                        import_policy: session.import_policy.clone(),
                        export_policy: session.export_policy.clone(),
                        ibgp: session.ibgp,
                    });
                }

                // Static routes out of the representative edge (only those
                // matching this class).
                let statics = statics_on(src_dev, src_iface, class).map(|sr| StaticRoute {
                    prefix: sr.prefix,
                    iface: iface_name.clone(),
                });
                dev.static_routes.extend(statics);
            }

            // Processes.
            dev.bgp = rep_dev.bgp.as_ref().map(|rep_bgp| BgpConfig {
                asn: rep_bgp.asn,
                networks: covering(&rep_bgp.networks, class).collect(),
                neighbors: bgp_neighbors,
                default_local_pref: rep_bgp.default_local_pref,
                redistribute_static: rep_bgp.redistribute_static,
                redistribute_ospf: rep_bgp.redistribute_ospf,
            });
            dev.ospf = rep_dev.ospf.as_ref().map(|rep_ospf| OspfConfig {
                networks: covering(&rep_ospf.networks, class).collect(),
                redistribute_static: rep_ospf.redistribute_static,
            });
            devices.push(dev);
        }

        // Links in edge-pair order; an edge arrives on the interface its
        // reverse leaves through.
        let in_iface: Vec<usize> = graph.edges().map(|e| out_iface[e.index() ^ 1]).collect();
        let links = (graph.edges().step_by(2))
            .map(|e| {
                let (a, b) = graph.endpoints(e);
                debug_assert_eq!(graph.endpoints(EdgeId(e.0 ^ 1)), (b, a), "{CONSISTENT}");
                Link::new(
                    (
                        devices[a.index()].name.clone(),
                        iface_names[b.index()].clone(),
                    ),
                    (
                        devices[b.index()].name.clone(),
                        iface_names[a.index()].clone(),
                    ),
                )
            })
            .collect();
        let names = devices.iter().map(|d| d.name.clone()).collect();
        let topo = BuiltTopology {
            graph: self.graph.with_names(names),
            out_iface,
            in_iface,
        };
        let node_of_copy = (self.copy_of_node.iter().enumerate())
            .map(|(node, &copy)| (copy, NodeId(node as u32)))
            .collect();

        AbstractNetwork {
            network: NetworkConfig { devices, links },
            topo,
            ec: self.ec,
            node_of_copy,
            copy_of_node: self.copy_of_node,
        }
    }

    /// Appends the text [`AbstractLayout::render`] would produce, printed
    /// with [`bonsai_config::print_network`], to `out` — without building
    /// the configuration: names, interfaces, processes, static routes and
    /// links are formatted from the layout, and each device's policy
    /// objects are copied from its representative's section in
    /// `sections`. `network` and `topo` must be the ones the layout was
    /// made from, and `sections` made for `network`.
    pub fn print_into(
        &self,
        out: &mut String,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        sections: &PolicySections,
    ) {
        self.write(out, network, topo, sections)
            .expect("writing to a String cannot fail");
    }

    fn write(
        &self,
        w: &mut String,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        sections: &PolicySections,
    ) -> fmt::Result {
        let graph = &self.graph;
        let class = self.ec.prefix;
        for a in graph.nodes() {
            let rep = self.reps[a.index()];
            let rep_dev = &network.devices[rep.index()];
            print::write_device_open(w, self.device_name(a, network))?;
            let out = || self.out_interfaces(a, network, topo);
            for (_, _, src_iface, peer) in out() {
                print::write_interface(w, IfaceName(peer), None, src_iface)?;
            }
            w.push_str(sections.section(network, rep));
            if let Some(bgp) = &rep_dev.bgp {
                let sessions = out().filter_map(|(_, src_dev, src_iface, peer)| {
                    Some((IfaceName(peer), session_on(src_dev, src_iface)?))
                });
                print::write_bgp(w, bgp, covering(&bgp.networks, class), sessions)?;
            }
            if let Some(ospf) = &rep_dev.ospf {
                print::write_ospf(w, ospf, covering(&ospf.networks, class))?;
            }
            for (_, src_dev, src_iface, peer) in out() {
                for sr in statics_on(src_dev, src_iface, class) {
                    print::write_static_route(w, sr.prefix, IfaceName(peer))?;
                }
            }
            print::write_device_close(w)?;
        }
        for e in graph.edges().step_by(2) {
            let (a, b) = graph.endpoints(e);
            let (a_name, b_name) = (self.device_name(a, network), self.device_name(b, network));
            print::write_link(w, (a_name, IfaceName(b)), (b_name, IfaceName(a)))?;
        }
        Ok(())
    }
}

/// The name of an abstract node: `abs<node>_<representative>`.
#[derive(Clone, Copy)]
struct DeviceName<'n>(NodeId, &'n str);

impl fmt::Display for DeviceName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "abs{}_{}", self.0 .0, self.1)
    }
}

/// The name of the interface toward abstract node `peer`: `to<peer>`.
#[derive(Clone, Copy)]
struct IfaceName(NodeId);

impl fmt::Display for IfaceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "to{}", self.0 .0)
    }
}

/// The BGP session `device` runs on `iface`, if any.
fn session_on<'n>(device: &'n DeviceConfig, iface: &Interface) -> Option<&'n BgpNeighbor> {
    let bgp = device.bgp.as_ref()?;
    bgp.neighbors.iter().find(|n| n.iface == iface.name)
}

/// The static routes `device` sends out of `iface` that cover `class`.
fn statics_on<'n>(
    device: &'n DeviceConfig,
    iface: &'n Interface,
    class: Prefix,
) -> impl Iterator<Item = &'n StaticRoute> {
    (device.static_routes.iter())
        .filter(move |sr| sr.iface == iface.name && sr.prefix.contains(class))
}

/// The process `network` statements that cover `class`.
fn covering(networks: &[Prefix], class: Prefix) -> impl Iterator<Item = Prefix> + '_ {
    (networks.iter().copied()).filter(move |p| *p == class || p.contains(class))
}

/// Every concrete device's policy objects, printed
/// ([`bonsai_config::print::write_policies`]) by the first abstract
/// network that copies them and shared with every later one: the text
/// [`AbstractLayout::print_into`] copies verbatim. One per network, shared
/// by the workers that print its classes.
pub struct PolicySections {
    sections: Vec<OnceLock<Box<str>>>,
}

impl PolicySections {
    /// No section printed yet, one slot per device of `network`.
    pub fn new(network: &NetworkConfig) -> Self {
        PolicySections {
            sections: network.devices.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The policy objects of `device`, printed on first read.
    fn section(&self, network: &NetworkConfig, device: NodeId) -> &str {
        self.sections[device.index()].get_or_init(|| {
            let mut text = String::new();
            print::write_policies(&mut text, &network.devices[device.index()])
                .expect("writing to a String cannot fail");
            text.into_boxed_str()
        })
    }

    /// How many devices' sections have been printed.
    pub fn printed(&self) -> usize {
        self.sections.iter().filter(|s| s.get().is_some()).count()
    }
}

/// Builds the abstract network for one class from a refined abstraction:
/// its [`AbstractLayout`], rendered.
pub fn build_abstract_network(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
) -> AbstractNetwork {
    AbstractLayout::new(&topo.graph, ec, abstraction).render(network, topo)
}

const CONSISTENT: &str = "abstract network construction yields a consistent topology";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::find_abstraction;
    use crate::engine::CompiledPolicies;
    use crate::signatures::build_sig_table;
    use bonsai_srp::instance::OriginProto;
    use bonsai_srp::papernets;

    fn abstract_of(
        net: &NetworkConfig,
        dest: &str,
    ) -> (BuiltTopology, Abstraction, AbstractNetwork) {
        let topo = BuiltTopology::build(net).unwrap();
        let d = topo.graph.node_by_name(dest).unwrap();
        let ec = EcDest::new(
            papernets::DEST_PREFIX.parse().unwrap(),
            vec![(d, OriginProto::Bgp)],
        );
        let engine = CompiledPolicies::from_network(net, false);
        let sigs = build_sig_table(&engine, net, &topo, &ec);
        let abs = find_abstraction(&topo.graph, &ec, &sigs);
        let abs_net = build_abstract_network(net, &topo, &ec, &abs);
        (topo, abs, abs_net)
    }

    #[test]
    fn figure1_abstract_is_three_node_chain() {
        let net = papernets::figure1_rip();
        let (_topo, abs, abs_net) = abstract_of(&net, "d");
        assert_eq!(abs.abstract_node_count(), 3);
        assert_eq!(abs_net.topo.graph.node_count(), 3);
        assert_eq!(abs_net.link_count(), 2); // d̂—b̂—â
        assert_eq!(abs_net.ec.origins.len(), 1);
        // The abstract network parses/prints through the normal pipeline.
        let text = bonsai_config::print_network(&abs_net.network);
        let reparsed = bonsai_config::parse_network(&text).unwrap();
        assert_eq!(reparsed, abs_net.network);
    }

    #[test]
    fn gadget_abstract_has_four_nodes_four_links() {
        let net = papernets::figure2_gadget();
        let (_topo, abs, abs_net) = abstract_of(&net, "d");
        assert_eq!(abs.abstract_node_count(), 4);
        assert_eq!(abs_net.topo.graph.node_count(), 4);
        assert_eq!(abs_net.link_count(), 4);
        // Both b-copies carry the UP route map with lp 200.
        let b_copies: Vec<&DeviceConfig> = abs_net
            .network
            .devices
            .iter()
            .filter(|d| d.name.contains("_b"))
            .collect();
        assert_eq!(b_copies.len(), 2);
        for b in b_copies {
            assert!(b.route_map("UP").is_some());
        }
    }

    #[test]
    fn candidates_cover_all_copies() {
        let net = papernets::figure2_gadget();
        let (topo, abs, abs_net) = abstract_of(&net, "d");
        let b1 = topo.graph.node_by_name("b1").unwrap();
        assert_eq!(abs_net.candidates_of(&abs, b1).len(), 2);
        let d = topo.graph.node_by_name("d").unwrap();
        assert_eq!(abs_net.candidates_of(&abs, d).len(), 1);
    }

    #[test]
    fn mesh_compresses_to_two_nodes_one_link() {
        // A 6-node full mesh running shortest-path eBGP, destination at m0.
        let mut text = String::new();
        for i in 0..6 {
            text.push_str(&format!("device m{i}\n"));
            for j in 0..6 {
                if i != j {
                    text.push_str(&format!("interface to{j}\n"));
                }
            }
            text.push_str(&format!("router bgp {}\n", i + 1));
            if i == 0 {
                text.push_str(" network 10.0.0.0/24\n");
            }
            for j in 0..6 {
                if i != j {
                    text.push_str(&format!(" neighbor to{j} remote-as external\n"));
                }
            }
            text.push_str("end\n");
        }
        for i in 0..6 {
            for j in (i + 1)..6 {
                text.push_str(&format!("link m{i} to{j} m{j} to{i}\n"));
            }
        }
        let net = bonsai_config::parse_network(&text).unwrap();
        let (_topo, abs, abs_net) = abstract_of(&net, "m0");
        assert_eq!(abs.abstract_node_count(), 2);
        assert_eq!(abs_net.topo.graph.node_count(), 2);
        assert_eq!(abs_net.link_count(), 1);
    }

    /// The printer formats from the layout what printing the rendered
    /// configuration writes, and prints each representative's policy
    /// objects once however many classes copy them.
    #[test]
    fn printed_layout_is_the_printed_rendering() {
        for (net, dest) in [
            (papernets::figure1_rip(), "d"),
            (papernets::figure2_gadget(), "d"),
            (papernets::figure5_bgp(), "d"),
        ] {
            let topo = BuiltTopology::build(&net).unwrap();
            let d = topo.graph.node_by_name(dest).unwrap();
            let ec = EcDest::new(
                papernets::DEST_PREFIX.parse().unwrap(),
                vec![(d, OriginProto::Bgp)],
            );
            let engine = CompiledPolicies::from_network(&net, false);
            let sigs = build_sig_table(&engine, &net, &topo, &ec);
            let abs = find_abstraction(&topo.graph, &ec, &sigs);
            let layout = AbstractLayout::new(&topo.graph, &ec, &abs);
            let sections = PolicySections::new(&net);
            let mut printed = String::new();
            layout.print_into(&mut printed, &net, &topo, &sections);
            let reps = sections.printed();
            assert!(reps > 0 && reps <= net.devices.len());
            layout.print_into(&mut printed, &net, &topo, &sections);
            assert_eq!(sections.printed(), reps, "a section is printed once");
            let rendered = bonsai_config::print_network(&layout.render(&net, &topo).network);
            assert_eq!(printed, rendered.repeat(2));
        }
    }
}
