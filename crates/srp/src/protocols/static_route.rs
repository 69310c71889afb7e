//! Static routing (paper §3.2, Figure 6).
//!
//! The attribute set is the singleton `{true}` (here `()`): the presence of
//! a static route. The comparison relation is trivially empty and the
//! transfer function is *spontaneous* — it ignores the neighbor's label and
//! returns a route exactly when the device has a static route for the
//! destination pointing out of the edge's egress interface. Static routes
//! may therefore form forwarding loops, which the theory handles separately
//! (Theorem 4.3).

use crate::model::Protocol;
use crate::view::ConfigView;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::prefix::Prefix;
use bonsai_net::{EdgeId, NodeId};
use std::cmp::Ordering;

/// Static routing for one destination prefix.
#[derive(Clone, Debug)]
pub struct StaticProtocol {
    /// `on_edge[e]` is true when the edge's source device has a static
    /// route for the destination out of the edge's egress interface.
    on_edge: Vec<bool>,
}

impl StaticProtocol {
    /// Extracts static-route facts for a destination from a network.
    pub fn from_network(network: &NetworkConfig, topo: &BuiltTopology, dest: Prefix) -> Self {
        Self::from_view(&ConfigView::identity(network, topo), dest)
    }

    /// The static routes toward `dest` of the instance `view` describes.
    pub fn from_view(view: &ConfigView<'_, '_>, dest: Prefix) -> Self {
        let graph = view.graph();
        let best: Vec<Option<u8>> = graph.nodes().map(|n| longest(view, n, dest)).collect();
        let on_edge = graph
            .edges()
            .map(|e| out_of(view, e, dest, best[graph.source(e).index()]))
            .collect();
        StaticProtocol { on_edge }
    }

    /// True if the source of `e` has a matching static route out of `e`.
    ///
    /// A static route matches when its prefix covers the destination and is
    /// the device's *longest* such match (so `ip route 0.0.0.0/0` loses to
    /// a more specific route out of a different interface).
    pub fn edge_fact(
        network: &NetworkConfig,
        topo: &BuiltTopology,
        e: EdgeId,
        dest: Prefix,
    ) -> bool {
        let view = ConfigView::identity(network, topo);
        out_of(&view, e, dest, longest(&view, topo.graph.source(e), dest))
    }

    /// True if the edge carries a static route.
    pub fn on_edge(&self, e: EdgeId) -> bool {
        self.on_edge[e.index()]
    }
}

/// The length of node `n`'s longest static route covering `dest`.
fn longest(view: &ConfigView<'_, '_>, n: NodeId, dest: Prefix) -> Option<u8> {
    view.statics_of(n)
        .filter(|p| p.contains(dest))
        .map(|p| p.len())
        .max()
}

/// Whether one of the routes out of `e` covers `dest` at length `best`.
fn out_of(view: &ConfigView<'_, '_>, e: EdgeId, dest: Prefix, best: Option<u8>) -> bool {
    best.is_some_and(|best| {
        view.statics_out(e)
            .any(|p| p.contains(dest) && p.len() == best)
    })
}

impl Protocol for StaticProtocol {
    type Attr = ();

    fn origin(&self, _: NodeId) {}

    fn compare(&self, _: &(), _: &()) -> Option<Ordering> {
        // The comparison relation is empty; all attributes are ≈.
        Some(Ordering::Equal)
    }

    fn transfer(&self, e: EdgeId, _a: Option<&()>) -> Option<()> {
        // Spontaneous: ignores the neighbor's label entirely.
        self.on_edge[e.index()].then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Srp;
    use crate::solver::solve;
    use bonsai_config::{DeviceConfig, Interface, Link, NetworkConfig, StaticRoute};
    use bonsai_net::NodeId;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Figure 6: a — b1 — b2 — d; a and b2 have static routes toward d,
    /// b1 does not. Labels: a=true, b1=⊥, b2=true.
    fn figure6() -> (NetworkConfig, BuiltTopology) {
        let mut net = NetworkConfig::default();
        for name in ["a", "b1", "b2", "d"] {
            let mut dv = DeviceConfig::new(name);
            dv.interfaces.push(Interface::named("left"));
            dv.interfaces.push(Interface::named("right"));
            net.devices.push(dv);
        }
        net.links.push(Link::new(("a", "right"), ("b1", "left")));
        net.links.push(Link::new(("b1", "right"), ("b2", "left")));
        net.links.push(Link::new(("b2", "right"), ("d", "left")));
        // a: static route toward b1 (pointing at d's prefix)
        net.devices[0].static_routes.push(StaticRoute {
            prefix: p("10.0.0.0/24"),
            iface: "right".into(),
        });
        // b2: static route toward d
        net.devices[2].static_routes.push(StaticRoute {
            prefix: p("10.0.0.0/24"),
            iface: "right".into(),
        });
        let topo = BuiltTopology::build(&net).unwrap();
        (net, topo)
    }

    #[test]
    fn figure_6_labels() {
        let (net, topo) = figure6();
        let proto = StaticProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let srp = Srp::new(&topo.graph, NodeId(3), proto);
        let sol = solve(&srp).unwrap();
        assert_eq!(sol.label(NodeId(0)), Some(&())); // a
        assert_eq!(sol.label(NodeId(1)), None); // b1: no static route
        assert_eq!(sol.label(NodeId(2)), Some(&())); // b2
                                                     // a forwards toward b1 even though b1 has no route (black hole
                                                     // potential — exactly what the theory must preserve).
        assert_eq!(topo.graph.target(sol.fwd(NodeId(0))[0]), NodeId(1));
    }

    #[test]
    fn longest_prefix_static_route_wins() {
        let mut net = NetworkConfig::default();
        for name in ["a", "b", "c"] {
            let mut dv = DeviceConfig::new(name);
            dv.interfaces.push(Interface::named("to_b"));
            dv.interfaces.push(Interface::named("to_c"));
            net.devices.push(dv);
        }
        net.links.push(Link::new(("a", "to_b"), ("b", "to_b")));
        net.links.push(Link::new(("a", "to_c"), ("c", "to_c")));
        // Default route via b, specific route via c.
        net.devices[0].static_routes.push(StaticRoute {
            prefix: Prefix::DEFAULT,
            iface: "to_b".into(),
        });
        net.devices[0].static_routes.push(StaticRoute {
            prefix: p("10.0.0.0/8"),
            iface: "to_c".into(),
        });
        let topo = BuiltTopology::build(&net).unwrap();
        let dest = p("10.1.0.0/16");
        let e_ab = topo.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_ac = topo.graph.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert!(!StaticProtocol::edge_fact(&net, &topo, e_ab, dest));
        assert!(StaticProtocol::edge_fact(&net, &topo, e_ac, dest));
        // For a destination outside 10/8 the default route applies.
        let other = p("192.168.0.0/16");
        assert!(StaticProtocol::edge_fact(&net, &topo, e_ab, other));
        assert!(!StaticProtocol::edge_fact(&net, &topo, e_ac, other));
    }

    #[test]
    fn static_loops_are_representable() {
        // a -> b and b -> a both configured statically: a forwarding loop.
        let mut net = NetworkConfig::default();
        for name in ["a", "b", "d"] {
            let mut dv = DeviceConfig::new(name);
            dv.interfaces.push(Interface::named("x"));
            dv.interfaces.push(Interface::named("y"));
            net.devices.push(dv);
        }
        net.links.push(Link::new(("a", "x"), ("b", "x")));
        net.links.push(Link::new(("b", "y"), ("d", "y")));
        net.devices[0].static_routes.push(StaticRoute {
            prefix: p("10.0.0.0/24"),
            iface: "x".into(),
        });
        net.devices[1].static_routes.push(StaticRoute {
            prefix: p("10.0.0.0/24"),
            iface: "x".into(), // b points BACK at a: loop
        });
        let topo = BuiltTopology::build(&net).unwrap();
        let proto = StaticProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let srp = Srp::new(&topo.graph, NodeId(2), proto);
        let sol = solve(&srp).unwrap();
        // Both a and b have routes; b forwards to a, a to b.
        assert_eq!(topo.graph.target(sol.fwd(NodeId(0))[0]), NodeId(1));
        assert_eq!(topo.graph.target(sol.fwd(NodeId(1))[0]), NodeId(0));
    }
}
