//! Deriving the SRP graph from device and link declarations.
//!
//! A [`crate::NetworkConfig`] lists devices and the physical links between
//! their interfaces. The SRP model wants a directed graph whose nodes are
//! devices and whose directed edges are link halves, plus — for the
//! transfer function — the interface each directed edge leaves through and
//! arrives on. [`BuiltTopology`] packages all of that.

use crate::ir::NetworkConfig;
use bonsai_net::{EdgeId, Graph, GraphBuilder, NodeId};
use std::fmt;

/// Error produced when a network's link declarations are inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyError(pub String);

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topology error: {}", self.0)
    }
}

impl std::error::Error for TopologyError {}

/// The SRP graph derived from a [`NetworkConfig`], with edge→interface maps.
///
/// Node `i` of the graph is device `i` of the configuration. Every physical
/// link contributes two directed edges (one per direction).
#[derive(Clone, Debug)]
pub struct BuiltTopology {
    /// The directed SRP graph.
    pub graph: Graph,
    /// For each directed edge: index (into the *source* device's interface
    /// list) of the egress interface.
    pub out_iface: Vec<usize>,
    /// For each directed edge: index (into the *target* device's interface
    /// list) of the ingress interface.
    pub in_iface: Vec<usize>,
}

impl BuiltTopology {
    /// Builds the topology, validating that every link endpoint names an
    /// existing device and interface, that no interface is used twice, and
    /// that no link is a self-link or parallel to another.
    pub fn build(network: &NetworkConfig) -> Result<Self, TopologyError> {
        let resolve = |end: &crate::ir::LinkEnd| -> Result<(usize, usize), TopologyError> {
            let dev = network
                .device_index(&end.device)
                .ok_or_else(|| TopologyError(format!("unknown device `{}`", end.device)))?;
            let iface = network.devices[dev]
                .interface_index(&end.iface)
                .ok_or_else(|| {
                    TopologyError(format!(
                        "unknown interface `{}` on device `{}`",
                        end.iface, end.device
                    ))
                })?;
            Ok((dev, iface))
        };
        let ends = network
            .links
            .iter()
            .map(|link| Ok((resolve(&link.a)?, resolve(&link.b)?)))
            .collect::<Result<Vec<_>, TopologyError>>()?;

        let mut gb = GraphBuilder::new();
        for d in &network.devices {
            gb.add_node(d.name.clone());
        }

        // One flag per (device, interface), devices back to back.
        let mut first_iface = Vec::with_capacity(network.devices.len());
        let mut total = 0usize;
        for d in &network.devices {
            first_iface.push(total);
            total += d.interfaces.len();
        }
        let mut used = vec![false; total];

        let mut out_iface = Vec::with_capacity(2 * ends.len());
        let mut in_iface = Vec::with_capacity(2 * ends.len());
        for (link, &(a, b)) in network.links.iter().zip(&ends) {
            for ((dev, iface), end) in [(a, &link.a), (b, &link.b)] {
                if std::mem::replace(&mut used[first_iface[dev] + iface], true) {
                    return Err(TopologyError(format!(
                        "interface `{}` on device `{}` appears in two links",
                        end.iface, end.device
                    )));
                }
            }
            if a.0 == b.0 {
                return Err(TopologyError(format!(
                    "link connects device `{}` to itself",
                    link.a.device
                )));
            }
            let (na, nb) = (NodeId(a.0 as u32), NodeId(b.0 as u32));
            if gb.has_edge(na, nb) {
                return Err(TopologyError(format!(
                    "parallel link between `{}` and `{}` (one link per device pair supported)",
                    link.a.device, link.b.device,
                )));
            }
            gb.add_edge(na, nb);
            out_iface.push(a.1);
            in_iface.push(b.1);
            gb.add_edge(nb, na);
            out_iface.push(b.1);
            in_iface.push(a.1);
        }

        Ok(BuiltTopology {
            graph: gb.build(),
            out_iface,
            in_iface,
        })
    }

    /// Egress interface index of a directed edge.
    #[inline]
    pub fn egress(&self, e: EdgeId) -> usize {
        self.out_iface[e.index()]
    }

    /// Ingress interface index of a directed edge.
    #[inline]
    pub fn ingress(&self, e: EdgeId) -> usize {
        self.in_iface[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn two_node_network() -> NetworkConfig {
        let mut n = NetworkConfig::default();
        for name in ["r1", "r2"] {
            let mut d = DeviceConfig::new(name);
            d.interfaces.push(Interface::named("eth0"));
            d.interfaces.push(Interface::named("eth1"));
            n.devices.push(d);
        }
        n.links.push(Link::new(("r1", "eth0"), ("r2", "eth1")));
        n
    }

    #[test]
    fn builds_two_directed_edges_per_link() {
        let topo = BuiltTopology::build(&two_node_network()).unwrap();
        assert_eq!(topo.graph.node_count(), 2);
        assert_eq!(topo.graph.edge_count(), 2);
        let e01 = topo.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e10 = topo.graph.find_edge(NodeId(1), NodeId(0)).unwrap();
        // r1 leaves through eth0 (index 0), arrives on r2's eth1 (index 1).
        assert_eq!(topo.egress(e01), 0);
        assert_eq!(topo.ingress(e01), 1);
        assert_eq!(topo.egress(e10), 1);
        assert_eq!(topo.ingress(e10), 0);
    }

    #[test]
    fn rejects_unknown_device() {
        let mut n = two_node_network();
        n.links.push(Link::new(("r9", "eth0"), ("r1", "eth1")));
        let err = BuiltTopology::build(&n).unwrap_err();
        assert!(err.0.contains("unknown device"));
    }

    #[test]
    fn rejects_unknown_interface() {
        let mut n = two_node_network();
        n.links.push(Link::new(("r1", "eth9"), ("r2", "eth0")));
        let err = BuiltTopology::build(&n).unwrap_err();
        assert!(err.0.contains("unknown interface"));
    }

    #[test]
    fn rejects_reused_interface() {
        let mut n = two_node_network();
        n.links.push(Link::new(("r1", "eth0"), ("r2", "eth0")));
        let err = BuiltTopology::build(&n).unwrap_err();
        assert!(err.0.contains("two links"));
    }

    #[test]
    fn rejects_self_link() {
        let mut n = two_node_network();
        n.links.push(Link::new(("r1", "eth1"), ("r1", "eth1")));
        let err = BuiltTopology::build(&n).unwrap_err();
        // Reused interface triggers first when both ends are the same iface;
        // use distinct ifaces to hit the self-link check.
        assert!(err.0.contains("two links") || err.0.contains("itself"));
        let mut n2 = NetworkConfig::default();
        let mut d = DeviceConfig::new("r1");
        d.interfaces.push(Interface::named("a"));
        d.interfaces.push(Interface::named("b"));
        n2.devices.push(d);
        n2.links.push(Link::new(("r1", "a"), ("r1", "b")));
        let err = BuiltTopology::build(&n2).unwrap_err();
        assert!(err.0.contains("itself"));
    }
}
