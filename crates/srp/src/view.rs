//! Where an SRP instance reads its configuration from.
//!
//! An instance needs, per node, the processes and named policy objects of
//! one device (BGP and OSPF globals, route maps, prefix lists, community
//! lists, ACLs), and per directed edge `u → v` the two interfaces the edge
//! leaves through and arrives on: their settings, the BGP `neighbor`
//! statement on each, and the static routes out of the egress one.
//!
//! Over a plain network every node is its own device and every edge its
//! own link ([`ConfigView::identity`]). Over an abstraction, a node reads
//! its block representative's device and an edge the concrete edge it
//! copies ([`ConfigView::lifted`]) — exactly the objects the abstract
//! configuration files are rendered from, so an instance built on the
//! lifted view equals one parsed back from those files without anyone
//! writing them.

use bonsai_config::{BgpNeighbor, BuiltTopology, DeviceConfig, Interface, NetworkConfig};
use bonsai_net::prefix::Prefix;
use bonsai_net::{EdgeId, Graph, NodeId};

/// The configuration an instance's nodes and edges read.
///
/// Everything it hands out borrows from the network (`'n`), so an instance
/// built on a view may outlive the topology and tables it was read
/// through (`'t`).
#[derive(Clone, Copy, Debug)]
pub struct ConfigView<'n, 't> {
    network: &'n NetworkConfig,
    /// The topology `network`'s link ends resolve in.
    topo: &'t BuiltTopology,
    /// The graph the instance runs on.
    graph: &'t Graph,
    lift: Option<Lift<'t>>,
}

/// How an abstract graph reads a concrete network.
#[derive(Clone, Copy, Debug)]
struct Lift<'t> {
    /// The device of each node.
    devices: &'t [NodeId],
    /// The concrete edge each edge copies: its egress side is that edge's.
    edges: &'t [EdgeId],
    /// The class prefix a copied static route must cover.
    class: Prefix,
}

impl<'n, 't> ConfigView<'n, 't> {
    /// A plain network: node `i` is device `i`, and an edge's interfaces
    /// are its link's ends.
    pub fn identity(network: &'n NetworkConfig, topo: &'t BuiltTopology) -> Self {
        ConfigView {
            network,
            topo,
            graph: &topo.graph,
            lift: None,
        }
    }

    /// `graph` over the concrete `network`: node `n` reads device
    /// `devices[n]`, and edge `e` leaves through the egress interface of
    /// the concrete edge `edges[e]` (interface settings, BGP `neighbor`
    /// statement and the static routes out of it that cover `class`) and
    /// arrives on the one its reverse edge leaves through. A `neighbor`
    /// statement names route maps of the edge's source device, which are
    /// looked up on the node's own device, as in a configuration that
    /// copies the statement onto that device.
    ///
    /// # Panics
    ///
    /// Panics if the tables do not cover `graph`.
    pub fn lifted(
        network: &'n NetworkConfig,
        topo: &'t BuiltTopology,
        graph: &'t Graph,
        devices: &'t [NodeId],
        edges: &'t [EdgeId],
        class: Prefix,
    ) -> Self {
        assert_eq!(devices.len(), graph.node_count(), "one device per node");
        assert_eq!(
            edges.len(),
            graph.edge_count(),
            "one concrete edge per edge"
        );
        ConfigView {
            network,
            topo,
            graph,
            lift: Some(Lift {
                devices,
                edges,
                class,
            }),
        }
    }

    /// The concrete network read.
    pub fn network(&self) -> &'n NetworkConfig {
        self.network
    }

    /// The graph the instance runs on.
    pub fn graph(&self) -> &'t Graph {
        self.graph
    }

    /// The device node `n` reads, as an index into the network's devices.
    pub fn device_of(&self, n: NodeId) -> NodeId {
        match self.lift {
            None => n,
            Some(lift) => lift.devices[n.index()],
        }
    }

    /// The device node `n` reads.
    pub fn device(&self, n: NodeId) -> &'n DeviceConfig {
        &self.network.devices[self.device_of(n).index()]
    }

    /// The device and interface edge `e` leaves through.
    pub fn egress(&self, e: EdgeId) -> (&'n DeviceConfig, &'n Interface) {
        let concrete = match self.lift {
            None => e,
            Some(lift) => lift.edges[e.index()],
        };
        let device = &self.network.devices[self.topo.graph.source(concrete).index()];
        (device, &device.interfaces[self.topo.egress(concrete)])
    }

    /// The device and interface edge `e` arrives on: the ones its reverse
    /// edge leaves through.
    pub fn ingress(&self, e: EdgeId) -> (&'n DeviceConfig, &'n Interface) {
        match self.lift {
            None => {
                let device = &self.network.devices[self.graph.target(e).index()];
                (device, &device.interfaces[self.topo.ingress(e)])
            }
            Some(_) => {
                let (u, v) = self.graph.endpoints(e);
                let reverse = self.graph.find_edge(v, u);
                self.egress(reverse.expect("every abstract link has both directions"))
            }
        }
    }

    /// The `neighbor` statement on the interface edge `e` leaves through,
    /// when the edge's source runs BGP.
    pub fn egress_neighbor(&self, e: EdgeId) -> Option<&'n BgpNeighbor> {
        self.device(self.graph.source(e)).bgp.as_ref()?;
        neighbor_on(self.egress(e))
    }

    /// The `neighbor` statement on the interface edge `e` arrives on, when
    /// the edge's target runs BGP.
    pub fn ingress_neighbor(&self, e: EdgeId) -> Option<&'n BgpNeighbor> {
        self.device(self.graph.target(e)).bgp.as_ref()?;
        neighbor_on(self.ingress(e))
    }

    /// The prefixes of the static routes out of the interface edge `e`
    /// leaves through.
    pub fn statics_out(&self, e: EdgeId) -> impl Iterator<Item = Prefix> + 'n {
        let (device, iface) = self.egress(e);
        let class = self.lift.map(|lift| lift.class);
        device
            .static_routes
            .iter()
            .filter(move |r| r.iface == iface.name && class.is_none_or(|c| r.prefix.contains(c)))
            .map(|r| r.prefix)
    }

    /// The prefixes of every static route node `n` has: its device's, or
    /// on a lifted view the ones out of its edges.
    pub fn statics_of(&self, n: NodeId) -> impl Iterator<Item = Prefix> + '_ {
        let (own, copied) = match self.lift {
            None => (Some(self.device(n).static_routes.iter()), None),
            Some(_) => {
                let view = *self;
                let out = self.graph.out(n);
                (None, Some(out.flat_map(move |e| view.statics_out(e))))
            }
        };
        let own = own.into_iter().flatten().map(|r| r.prefix);
        own.chain(copied.into_iter().flatten())
    }
}

/// The first `neighbor` statement of `device` on `iface`.
fn neighbor_on<'n>((device, iface): (&'n DeviceConfig, &Interface)) -> Option<&'n BgpNeighbor> {
    let bgp = device.bgp.as_ref()?;
    bgp.neighbors.iter().find(|n| n.iface == iface.name)
}
