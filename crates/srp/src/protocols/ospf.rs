//! OSPF: link-state routing with configured costs and areas (paper §3.2).
//!
//! Attributes are `(cost, inter_area)` pairs. The comparison prefers
//! intra-area routes, then lower cost — the paper's two-component model of
//! OSPF areas. The transfer function adds the egress interface's configured
//! cost and sets the inter-area bit when a route crosses an area boundary.

use crate::model::Protocol;
use crate::view::ConfigView;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::{EdgeId, NodeId};
use std::cmp::Ordering;

/// An OSPF route attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OspfAttr {
    /// Accumulated path cost.
    pub cost: u32,
    /// True once the route has crossed an area boundary.
    pub inter_area: bool,
}

/// Per-edge OSPF facts extracted from configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OspfEdge {
    /// Cost of the egress interface at the receiving router.
    pub cost: u32,
    /// True if the edge joins interfaces in different areas.
    pub crosses_area: bool,
}

/// The OSPF protocol for one network: per-edge costs and area crossings.
#[derive(Clone, Debug)]
pub struct OspfProtocol {
    /// `edges[e]` is `None` when OSPF is not enabled on both sides.
    edges: Vec<Option<OspfEdge>>,
}

impl OspfProtocol {
    /// Extracts OSPF edge facts from a configured network.
    ///
    /// OSPF runs over an edge `(u, v)` iff both endpoint interfaces carry
    /// an `ip ospf area` setting and both devices run an OSPF process.
    pub fn from_network(network: &NetworkConfig, topo: &BuiltTopology) -> Self {
        Self::from_view(&ConfigView::identity(network, topo))
    }

    /// The OSPF protocol of the instance `view` describes.
    pub fn from_view(view: &ConfigView<'_, '_>) -> Self {
        let edges = view.graph().edges().map(|e| Self::facts(view, e)).collect();
        OspfProtocol { edges }
    }

    /// The OSPF facts of one edge (public so the compression layer uses the
    /// identical extraction when building transfer-function signatures).
    pub fn edge_facts(
        network: &NetworkConfig,
        topo: &BuiltTopology,
        e: EdgeId,
    ) -> Option<OspfEdge> {
        Self::facts(&ConfigView::identity(network, topo), e)
    }

    fn facts(view: &ConfigView<'_, '_>, e: EdgeId) -> Option<OspfEdge> {
        let (u, v) = view.graph().endpoints(e);
        view.device(u).ospf.as_ref()?;
        view.device(v).ospf.as_ref()?;
        let (_, iu) = view.egress(e);
        let (_, iv) = view.ingress(e);
        let area_u = iu.ospf_area?;
        let area_v = iv.ospf_area?;
        Some(OspfEdge {
            cost: iu.ospf_cost.unwrap_or(1),
            crosses_area: area_u != area_v,
        })
    }

    /// The facts of one edge, if OSPF-enabled.
    pub fn edge(&self, e: EdgeId) -> Option<OspfEdge> {
        self.edges[e.index()]
    }
}

impl Protocol for OspfProtocol {
    type Attr = OspfAttr;

    fn origin(&self, _: NodeId) -> OspfAttr {
        OspfAttr {
            cost: 0,
            inter_area: false,
        }
    }

    fn compare(&self, a: &OspfAttr, b: &OspfAttr) -> Option<Ordering> {
        // Intra-area first, then cost.
        Some((a.inter_area, a.cost).cmp(&(b.inter_area, b.cost)))
    }

    fn transfer(&self, e: EdgeId, a: Option<&OspfAttr>) -> Option<OspfAttr> {
        let edge = self.edges[e.index()]?;
        let a = a?;
        Some(OspfAttr {
            cost: a.cost.saturating_add(edge.cost),
            inter_area: a.inter_area || edge.crosses_area,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Srp;
    use crate::solver::solve;
    use bonsai_config::{DeviceConfig, Interface, Link, NetworkConfig, OspfConfig};
    use bonsai_net::NodeId;

    /// Builds a line network r0 — r1 — … with the given per-link costs and
    /// areas (cost/area apply to both interfaces of link i, except area is
    /// per interface pair: `(area_left, area_right)`).
    fn line(costs: &[u32], areas: &[(u32, u32)]) -> (NetworkConfig, BuiltTopology) {
        assert_eq!(costs.len(), areas.len());
        let n = costs.len() + 1;
        let mut net = NetworkConfig::default();
        for i in 0..n {
            let mut d = DeviceConfig::new(format!("r{i}"));
            d.ospf = Some(OspfConfig::default());
            // left iface connects to previous node, right to next
            for name in ["left", "right"] {
                d.interfaces.push(Interface::named(name));
            }
            net.devices.push(d);
        }
        for (i, (&cost, &(al, ar))) in costs.iter().zip(areas).enumerate() {
            // link between r_i (right) and r_{i+1} (left)
            net.links.push(Link::new(
                (format!("r{i}"), "right"),
                (format!("r{}", i + 1), "left"),
            ));
            let right = net.devices[i].interface_index("right").unwrap();
            net.devices[i].interfaces[right].ospf_cost = Some(cost);
            net.devices[i].interfaces[right].ospf_area = Some(al);
            let left = net.devices[i + 1].interface_index("left").unwrap();
            net.devices[i + 1].interfaces[left].ospf_cost = Some(cost);
            net.devices[i + 1].interfaces[left].ospf_area = Some(ar);
        }
        let topo = BuiltTopology::build(&net).unwrap();
        (net, topo)
    }

    #[test]
    fn accumulates_costs_toward_destination() {
        let (net, topo) = line(&[3, 5], &[(0, 0), (0, 0)]);
        let ospf = OspfProtocol::from_network(&net, &topo);
        let srp = Srp::new(&topo.graph, NodeId(0), ospf);
        let sol = solve(&srp).unwrap();
        assert_eq!(sol.label(NodeId(1)).unwrap().cost, 3);
        assert_eq!(sol.label(NodeId(2)).unwrap().cost, 8);
        assert!(!sol.label(NodeId(2)).unwrap().inter_area);
    }

    #[test]
    fn area_crossing_marks_routes_inter_area() {
        let (net, topo) = line(&[1, 1], &[(0, 0), (0, 1)]);
        let ospf = OspfProtocol::from_network(&net, &topo);
        let srp = Srp::new(&topo.graph, NodeId(0), ospf);
        let sol = solve(&srp).unwrap();
        assert!(!sol.label(NodeId(1)).unwrap().inter_area);
        assert!(sol.label(NodeId(2)).unwrap().inter_area);
    }

    #[test]
    fn intra_area_preferred_over_cheaper_inter_area() {
        let p = OspfProtocol { edges: vec![] };
        let intra = OspfAttr {
            cost: 100,
            inter_area: false,
        };
        let inter = OspfAttr {
            cost: 1,
            inter_area: true,
        };
        assert_eq!(p.compare(&intra, &inter), Some(Ordering::Less));
    }

    #[test]
    fn disabled_interfaces_drop_routes() {
        let (mut net, _) = line(&[1], &[(0, 0)]);
        // Remove the OSPF process on r1: edge facts become None.
        net.devices[1].ospf = None;
        let topo = BuiltTopology::build(&net).unwrap();
        let ospf = OspfProtocol::from_network(&net, &topo);
        let srp = Srp::new(&topo.graph, NodeId(0), ospf);
        let sol = solve(&srp).unwrap();
        assert_eq!(sol.label(NodeId(1)), None);
    }

    #[test]
    fn default_cost_is_one() {
        let (mut net, _) = line(&[7], &[(0, 0)]);
        let right = net.devices[0].interface_index("right").unwrap();
        net.devices[0].interfaces[right].ospf_cost = None;
        let left = net.devices[1].interface_index("left").unwrap();
        net.devices[1].interfaces[left].ospf_cost = None;
        let topo = BuiltTopology::build(&net).unwrap();
        let ospf = OspfProtocol::from_network(&net, &topo);
        let srp = Srp::new(&topo.graph, NodeId(0), ospf);
        let sol = solve(&srp).unwrap();
        assert_eq!(sol.label(NodeId(1)).unwrap().cost, 1);
    }
}
