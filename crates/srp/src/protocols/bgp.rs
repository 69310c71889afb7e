//! BGP: policy-rich path-vector routing (paper §3.2, Figure 5; §4.3; §6).
//!
//! Attributes are `(local-pref, communities, node path)` tuples — the
//! paper's `A = N × 2^N × list(V)`, where paths record *nodes* (each router
//! in the studied networks is its own AS, so node paths and AS paths
//! coincide). The comparison prefers higher local preference, then shorter
//! paths, then lower MED. The transfer function applies the exporter's
//! outbound route map, prepends the exporter to the path, performs **loop
//! prevention** (the receiver rejects any path it already appears on), and
//! applies the receiver's inbound route map, which decides the new local
//! preference.
//!
//! Loop prevention is what breaks transfer-equivalence for BGP and forces
//! the ∀∀-abstraction + `transfer-approx` conditions of §4.3; this module
//! therefore also exposes [`BgpProtocol::transfer_ignoring_loops`] so the
//! compression layer can reason about the loop-free part of the function.
//!
//! Route maps are **specialized per instance** (the route-map half of §5.1's
//! "Specialize(bdds, G.d)"): an instance has one destination, and prefix
//! lists see nothing else, so a map whose clauses up to the deciding one
//! match prefix lists only has one result for every route — computed once,
//! at build, by [`bonsai_config::eval::eval_route_map`] itself. A map with a
//! community condition at or before its deciding clause is interpreted on
//! every offer, by the same functions. Plans are interned by value, so an
//! instance holds one copy of each distinct result, not one per map.

use crate::model::Protocol;
use crate::view::ConfigView;
use bonsai_config::eval::{
    eval_optional_route_map, eval_route_map, match_holds, PolicyInput, PolicyResult,
};
use bonsai_config::{BuiltTopology, Community, DeviceConfig, MatchCond, NetworkConfig};
use bonsai_net::prefix::Prefix;
use bonsai_net::{EdgeId, NodeId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A BGP route attribute.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BgpAttr {
    /// Local preference (assigned by the receiving router on import).
    pub lp: u32,
    /// Attached communities.
    pub comms: BTreeSet<Community>,
    /// Node path, nearest hop first. Empty at the origin.
    pub path: Vec<NodeId>,
    /// MED (metric), set by route maps; lower preferred, compared last.
    pub med: u32,
    /// True if the route was learned over an iBGP session (affects
    /// re-advertisement and administrative distance).
    pub from_ibgp: bool,
}

impl BgpAttr {
    /// The attribute an origin router injects: default preference, no
    /// communities, empty path.
    pub fn origin(default_lp: u32) -> Self {
        BgpAttr {
            lp: default_lp,
            comms: BTreeSet::new(),
            path: Vec::new(),
            med: 0,
            from_ibgp: false,
        }
    }
}

/// Facts about one directed edge's BGP session, if any.
#[derive(Clone, Debug)]
pub struct BgpEdge {
    /// iBGP session (both neighbor statements `remote-as internal`).
    pub ibgp: bool,
    /// Name of the exporter's outbound route map, if configured.
    pub export_map: Option<String>,
    /// Name of the importer's inbound route map, if configured.
    pub import_map: Option<String>,
}

/// How one direction of a session applies its route map under this
/// instance's destination.
#[derive(PartialEq, Debug)]
pub enum MapPlan<'a> {
    /// The same result for every route: no map (permit unchanged), a
    /// dangling one (deny), or one decided by prefix-list clauses alone.
    Constant(PolicyResult),
    /// A community condition is reached: the map is run on each offer.
    Interpreted {
        /// The device (of the network the instance reads) whose map,
        /// prefix lists and community lists run.
        device: usize,
        /// The map's name.
        map: &'a str,
    },
}

impl<'a> MapPlan<'a> {
    /// The plan of `device`'s map `name` for routes toward `dest`.
    fn of(network: &'a NetworkConfig, device: NodeId, name: Option<&'a str>, dest: Prefix) -> Self {
        let config = &network.devices[device.index()];
        let Some(name) = name else {
            return MapPlan::Constant(PolicyResult::permit_unchanged());
        };
        let Some(map) = config.route_map(name) else {
            // Dangling route-map reference: IOS treats it as deny-all.
            return MapPlan::Constant(PolicyResult::deny());
        };
        let input = PolicyInput {
            dest,
            communities: BTreeSet::new(),
        };
        for clause in &map.clauses {
            if clause
                .matches
                .iter()
                .any(|m| matches!(m, MatchCond::Community(_)))
            {
                return MapPlan::Interpreted {
                    device: device.index(),
                    map: name,
                };
            }
            if clause
                .matches
                .iter()
                .all(|m| match_holds(config, m, &input))
            {
                break;
            }
        }
        // Every clause up to the deciding one (or the implicit deny)
        // matches on the destination alone.
        MapPlan::Constant(eval_route_map(config, map, &input))
    }
}

/// One directed edge's session, its route maps resolved to plans.
#[derive(Clone, Copy, Debug)]
struct Session {
    ibgp: bool,
    /// Index into the instance's plans of the exporter's outbound map.
    export: u16,
    /// Index of the importer's inbound map.
    import: u16,
}

/// The BGP protocol for one network and destination prefix.
///
/// Holds per-edge session facts, each route map resolved to its plan for
/// the destination.
pub struct BgpProtocol<'a> {
    network: &'a NetworkConfig,
    dest: Prefix,
    /// The device each node reads.
    devices: Vec<&'a DeviceConfig>,
    graph_edges: Vec<(NodeId, NodeId)>,
    sessions: Vec<Option<Session>>,
    /// The distinct plans of this instance's maps.
    plans: Vec<MapPlan<'a>>,
}

/// `(ibgp, export map, import map)` of the session on edge `e`, the names
/// borrowed from the configuration.
type SessionNames<'n> = (bool, Option<&'n str>, Option<&'n str>);

impl<'a> BgpProtocol<'a> {
    /// Extracts BGP session facts from a configured network.
    ///
    /// A session exists on edge `(u, v)` iff *both* devices run BGP and
    /// have a `neighbor` statement on the respective interface. The session
    /// is iBGP iff both sides declare `remote-as internal`.
    pub fn from_network(network: &'a NetworkConfig, topo: &BuiltTopology, dest: Prefix) -> Self {
        Self::from_view(&ConfigView::identity(network, topo), dest)
    }

    /// The BGP protocol of the instance `view` describes. Each session
    /// direction's route map is looked up on the device of the node that
    /// applies it.
    pub fn from_view(view: &ConfigView<'a, '_>, dest: Prefix) -> Self {
        let (network, graph) = (view.network(), view.graph());
        let mut plans: Vec<MapPlan<'a>> = Vec::new();
        let mut intern = |plan: MapPlan<'a>| {
            let at = plans.iter().position(|p| *p == plan).unwrap_or_else(|| {
                plans.push(plan);
                plans.len() - 1
            });
            u16::try_from(at).expect("fewer than 65 536 distinct route-map plans")
        };
        let mut sessions = Vec::with_capacity(graph.edge_count());
        let mut graph_edges = Vec::with_capacity(graph.edge_count());
        for e in graph.edges() {
            let (u, v) = graph.endpoints(e);
            graph_edges.push((u, v));
            sessions.push(
                Self::session_names(view, e).map(|(ibgp, export, import)| Session {
                    ibgp,
                    export: intern(MapPlan::of(network, view.device_of(v), export, dest)),
                    import: intern(MapPlan::of(network, view.device_of(u), import, dest)),
                }),
            );
        }
        BgpProtocol {
            network,
            dest,
            devices: graph.nodes().map(|n| view.device(n)).collect(),
            graph_edges,
            sessions,
            plans,
        }
    }

    /// The session facts of one edge (shared with the compression layer).
    pub fn edge_facts(network: &NetworkConfig, topo: &BuiltTopology, e: EdgeId) -> Option<BgpEdge> {
        let (ibgp, export, import) = Self::session_names(&ConfigView::identity(network, topo), e)?;
        Some(BgpEdge {
            ibgp,
            export_map: export.map(str::to_string),
            import_map: import.map(str::to_string),
        })
    }

    fn session_names<'n>(view: &ConfigView<'n, '_>, e: EdgeId) -> Option<SessionNames<'n>> {
        let nb_u = view.egress_neighbor(e)?;
        let nb_v = view.ingress_neighbor(e)?;
        Some((
            nb_u.ibgp && nb_v.ibgp,
            nb_v.export_policy.as_deref(),
            nb_u.import_policy.as_deref(),
        ))
    }

    /// The device node `n` reads.
    pub(crate) fn device(&self, n: NodeId) -> &'a DeviceConfig {
        self.devices[n.index()]
    }

    /// The default local preference of node `n`'s BGP process (100 without
    /// one).
    fn default_lp(&self, n: NodeId) -> u32 {
        let bgp = self.device(n).bgp.as_ref();
        bgp.map(|b| b.default_local_pref).unwrap_or(100)
    }

    /// The session on edge `e` as this instance applies it: whether it is
    /// iBGP, then the plans of the exporter's outbound and the importer's
    /// inbound map (what the lifted-instance oracle compares).
    pub fn session_plans(&self, e: EdgeId) -> Option<(bool, &MapPlan<'a>, &MapPlan<'a>)> {
        let session = self.sessions[e.index()]?;
        let plan = |at: u16| &self.plans[usize::from(at)];
        Some((session.ibgp, plan(session.export), plan(session.import)))
    }

    /// The `(source, target)` endpoints of an edge (cached from the graph).
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.graph_edges[e.index()]
    }

    /// The destination prefix this instance routes toward.
    pub fn dest(&self) -> Prefix {
        self.dest
    }

    /// The transfer function *without* the receiver's loop-prevention check
    /// (`transfer-approx` in the paper: both sides agree whenever the
    /// receiver is not on the incoming path).
    pub fn transfer_ignoring_loops(&self, e: EdgeId, a: Option<&BgpAttr>) -> Option<BgpAttr> {
        self.transfer_inner(e, a, false)
    }

    /// The result of plan `plan` on a route carrying `communities`: lent
    /// when constant, computed when interpreted.
    fn apply(&self, plan: u16, communities: &BTreeSet<Community>) -> Cow<'_, PolicyResult> {
        match &self.plans[usize::from(plan)] {
            MapPlan::Constant(result) => Cow::Borrowed(result),
            MapPlan::Interpreted { device, map } => Cow::Owned(eval_optional_route_map(
                &self.network.devices[*device],
                Some(map),
                &PolicyInput {
                    dest: self.dest,
                    communities: communities.clone(),
                },
            )),
        }
    }

    fn transfer_inner(&self, e: EdgeId, a: Option<&BgpAttr>, check_loop: bool) -> Option<BgpAttr> {
        let session = self.sessions[e.index()]?;
        let a = a?;
        let (u, v) = self.graph_edges[e.index()];

        // Rule: routes learned over iBGP are not re-advertised to other
        // iBGP peers (paper §6 relies on this to merge iBGP neighbors).
        if a.from_ibgp && session.ibgp {
            return None;
        }

        // 1. Exporter's outbound policy.
        let export = self.apply(session.export, &a.comms);
        if !export.permit {
            return None;
        }
        let mut comms = a.comms.clone();
        export.apply_communities(&mut comms);

        // 2. Path: the exporter prepends itself (plus any as-path prepend).
        let mut path = Vec::with_capacity(a.path.len() + 1 + export.prepend as usize);
        for _ in 0..=export.prepend {
            path.push(v);
        }
        path.extend_from_slice(&a.path);

        // 3. Loop prevention at the receiver.
        if check_loop && path.contains(&u) {
            return None;
        }

        // 4. Importer's inbound policy; it decides the local preference.
        let import = self.apply(session.import, &comms);
        if !import.permit {
            return None;
        }
        import.apply_communities(&mut comms);
        let lp = import.local_pref.unwrap_or(if session.ibgp {
            a.lp // local preference is carried across iBGP
        } else {
            self.default_lp(u)
        });
        let med = import
            .metric
            .or(export.metric)
            .unwrap_or(if session.ibgp { a.med } else { 0 });

        Some(BgpAttr {
            lp,
            comms,
            path,
            med,
            from_ibgp: session.ibgp,
        })
    }
}

impl Protocol for BgpProtocol<'_> {
    type Attr = BgpAttr;

    fn origin(&self, origin: NodeId) -> BgpAttr {
        BgpAttr::origin(self.default_lp(origin))
    }

    fn compare(&self, a: &BgpAttr, b: &BgpAttr) -> Option<Ordering> {
        // Higher local preference first, then shorter path, then lower MED.
        // Distinct paths of equal length are equally good (≈) — that is
        // BGP multipath and the source of solution multiplicity.
        Some(
            b.lp.cmp(&a.lp)
                .then(a.path.len().cmp(&b.path.len()))
                .then(a.med.cmp(&b.med)),
        )
    }

    fn transfer(&self, e: EdgeId, a: Option<&BgpAttr>) -> Option<BgpAttr> {
        self.transfer_inner(e, a, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Srp;
    use crate::solver::{solve_with_order, SolverOptions};
    use bonsai_config::parse_network;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Figure 5: a — b1 — d chain plus b2 — d and a — b2? The paper's
    /// Figure 5 network is a — b1 — d with b2 attached to both a and d;
    /// a adds tag 1 on export, b2 raises local preference on tagged
    /// routes, so b2 routes through a despite the longer path.
    fn figure5() -> NetworkConfig {
        parse_network(
            "
device d
interface to_b1
interface to_b2
router bgp 4
 network 10.0.0.0/24
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
end
device b1
interface to_d
interface to_a
router bgp 2
 neighbor to_d remote-as external
 neighbor to_a remote-as external
end
device a
interface to_b1
interface to_b2
route-map TAG permit 10
 set community 65001:1 additive
router bgp 1
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
 neighbor to_b2 route-map TAG out
end
device b2
interface to_a
interface to_d
ip community-list tagged permit 65001:1
route-map PREF permit 10
 match community tagged
 set local-preference 200
route-map PREF permit 20
router bgp 3
 neighbor to_a remote-as external
 neighbor to_a route-map PREF in
 neighbor to_d remote-as external
end
link d to_b1 b1 to_d
link b1 to_a a to_b1
link a to_b2 b2 to_a
link b2 to_d d to_b2
",
        )
        .unwrap()
    }

    /// A map is constant exactly when prefix-list clauses alone decide it
    /// for the destination; the constant is what interpreting it returns.
    #[test]
    fn route_maps_specialize_per_destination() {
        let net = parse_network(
            "
device x
ip community-list C permit 1:1
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 32
route-map PREFIX_FIRST permit 10
 match ip address prefix-list TEN
 set local-preference 300
route-map PREFIX_FIRST permit 20
 match community C
route-map COMM_FIRST permit 10
 match community C
route-map COMM_FIRST permit 20
 match ip address prefix-list TEN
end
",
        )
        .unwrap();
        let x = NodeId(0);
        let inside = p("10.1.0.0/24");
        let plan = |name, dest| MapPlan::of(&net, x, Some(name), dest);
        let interpreted = MapPlan::Interpreted {
            device: 0,
            map: "COMM_FIRST",
        };
        let mut expected = PolicyResult::permit_unchanged();
        expected.local_pref = Some(300);
        assert_eq!(plan("PREFIX_FIRST", inside), MapPlan::Constant(expected));
        // Outside TEN the community clause is reached.
        assert!(matches!(
            plan("PREFIX_FIRST", p("11.0.0.0/24")),
            MapPlan::Interpreted { .. }
        ));
        assert_eq!(plan("COMM_FIRST", inside), interpreted);
        assert_eq!(
            plan("NOPE", inside),
            MapPlan::Constant(PolicyResult::deny())
        );
        assert_eq!(
            MapPlan::of(&net, x, None, inside),
            MapPlan::Constant(PolicyResult::permit_unchanged())
        );
    }

    /// Plans are interned by value: Figure 5 has three (no map, `a`'s
    /// tagging export, `b2`'s community-matching import) over eight
    /// session directions.
    #[test]
    fn plans_are_interned_by_value() {
        let net = figure5();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        assert_eq!(bgp.sessions.iter().flatten().count(), 8);
        assert_eq!(bgp.plans.len(), 3);
    }

    #[test]
    fn figure_5_policy_routing() {
        let net = figure5();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let d = topo.graph.node_by_name("d").unwrap();
        let srp = Srp::new(&topo.graph, d, bgp);
        let order: Vec<NodeId> = topo.graph.nodes().collect();
        let sol = solve_with_order(&srp, &order, SolverOptions::default()).unwrap();

        let a = topo.graph.node_by_name("a").unwrap();
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let b2 = topo.graph.node_by_name("b2").unwrap();

        // b1 takes the direct route to d.
        let lb1 = sol.label(b1).unwrap();
        assert_eq!(lb1.path, vec![d]);
        assert_eq!(lb1.lp, 100);

        // a routes through b1 (path [b1, d]).
        let la = sol.label(a).unwrap();
        assert_eq!(la.path, vec![b1, d]);

        // b2 prefers the tagged route through a (lp 200, path [a, b1, d])
        // over its direct route to d (lp 100, path [d]).
        let lb2 = sol.label(b2).unwrap();
        assert_eq!(lb2.lp, 200);
        assert_eq!(lb2.path, vec![a, b1, d]);
        assert!(lb2.comms.contains(&Community::new(65001, 1)));
        assert_eq!(topo.graph.target(sol.fwd(b2)[0]), a);
    }

    /// The Figure 2 gadget: a connected to b1, b2, b3; each bi connected
    /// to d. All bi prefer routes via a (lp 200). One bi must fall back to
    /// its direct route because of loop prevention.
    pub(crate) fn figure2() -> NetworkConfig {
        let mut text = String::from(
            "
device d
interface to_b1
interface to_b2
interface to_b3
router bgp 100
 network 10.0.0.0/24
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
 neighbor to_b3 remote-as external
end
device a
interface to_b1
interface to_b2
interface to_b3
router bgp 50
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
 neighbor to_b3 remote-as external
end
",
        );
        for i in 1..=3 {
            text.push_str(&format!(
                "
device b{i}
interface to_a
interface to_d
route-map UP permit 10
 set local-preference 200
router bgp {i}
 neighbor to_a remote-as external
 neighbor to_a route-map UP in
 neighbor to_d remote-as external
end
"
            ));
        }
        text.push_str(
            "
link d to_b1 b1 to_d
link d to_b2 b2 to_d
link d to_b3 b3 to_d
link a to_b1 b1 to_a
link a to_b2 b2 to_a
link a to_b3 b3 to_a
",
        );
        parse_network(&text).unwrap()
    }

    #[test]
    fn figure_2_loop_prevention_splits_behaviors() {
        let net = figure2();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let d = topo.graph.node_by_name("d").unwrap();
        let a = topo.graph.node_by_name("a").unwrap();
        let srp = Srp::new(&topo.graph, d, bgp);
        let sol = crate::solver::solve(&srp).unwrap();

        // Exactly one of b1, b2, b3 routes directly to d (lp 100); the
        // other two route via a (lp 200). That is the paper's point:
        // identical configurations, different behaviors.
        let mut direct = 0;
        let mut via_a = 0;
        for name in ["b1", "b2", "b3"] {
            let b = topo.graph.node_by_name(name).unwrap();
            let l = sol.label(b).unwrap();
            if l.lp == 100 {
                direct += 1;
                assert_eq!(l.path, vec![d]);
            } else {
                via_a += 1;
                assert_eq!(l.lp, 200);
                assert_eq!(l.path.first(), Some(&a));
            }
        }
        assert_eq!(direct, 1);
        assert_eq!(via_a, 2);
        // `a` routes through the direct router.
        let la = sol.label(a).unwrap();
        assert_eq!(la.path.len(), 2);
    }

    #[test]
    fn different_orders_find_different_gadget_solutions() {
        let net = figure2();
        let topo = BuiltTopology::build(&net).unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        let mut direct_routers = std::collections::BTreeSet::new();
        let nodes: Vec<NodeId> = topo.graph.nodes().collect();
        // Try rotations of the activation order; collect which router ends
        // up with the direct route. The gadget has 3 stable solutions.
        for rot in 0..nodes.len() {
            let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
            let srp = Srp::new(&topo.graph, d, bgp);
            let mut order = nodes.clone();
            order.rotate_left(rot);
            let sol = solve_with_order(&srp, &order, SolverOptions::default()).unwrap();
            for name in ["b1", "b2", "b3"] {
                let b = topo.graph.node_by_name(name).unwrap();
                if sol.label(b).unwrap().lp == 100 {
                    direct_routers.insert(name);
                }
            }
        }
        assert!(
            direct_routers.len() >= 2,
            "expected multiple distinct stable solutions, saw {direct_routers:?}"
        );
    }

    #[test]
    fn loop_prevention_rejects_own_node() {
        let net = figure5();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let a = topo.graph.node_by_name("a").unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        let e = topo.graph.find_edge(b1, a).unwrap();
        // a's route already goes through b1: b1 must reject it...
        let attr = BgpAttr {
            lp: 100,
            comms: BTreeSet::new(),
            path: vec![b1, d],
            med: 0,
            from_ibgp: false,
        };
        assert_eq!(bgp.transfer(e, Some(&attr)), None);
        // ...but the loop-ignoring transfer accepts it (transfer-approx).
        assert!(bgp.transfer_ignoring_loops(e, Some(&attr)).is_some());
    }

    #[test]
    fn ebgp_resets_local_pref_ibgp_carries_it() {
        let net = parse_network(
            "
device x
interface i
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as internal
end
device y
interface i
router bgp 1
 neighbor i remote-as internal
end
link x i y i
",
        )
        .unwrap();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let x = topo.graph.node_by_name("x").unwrap();
        let y = topo.graph.node_by_name("y").unwrap();
        let e = topo.graph.find_edge(y, x).unwrap();
        let mut attr = BgpAttr::origin(100);
        attr.lp = 777;
        let out = bgp.transfer(e, Some(&attr)).unwrap();
        assert_eq!(out.lp, 777, "iBGP must carry local preference");
        assert!(out.from_ibgp);
        // And an iBGP-learned route is not re-advertised over iBGP.
        let e_back = topo.graph.find_edge(x, y).unwrap();
        assert_eq!(bgp.transfer(e_back, Some(&out)), None);
    }

    #[test]
    fn no_session_no_route() {
        let net = parse_network(
            "
device x
interface i
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
end
device y
interface i
end
link x i y i
",
        )
        .unwrap();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let y = topo.graph.node_by_name("y").unwrap();
        let x = topo.graph.node_by_name("x").unwrap();
        let e = topo.graph.find_edge(y, x).unwrap();
        assert_eq!(bgp.transfer(e, Some(&BgpAttr::origin(100))), None);
    }

    #[test]
    fn export_deny_drops_route() {
        let net = parse_network(
            "
device x
interface i
route-map NONE deny 10
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
 neighbor i route-map NONE out
end
device y
interface i
router bgp 2
 neighbor i remote-as external
end
link x i y i
",
        )
        .unwrap();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let y = topo.graph.node_by_name("y").unwrap();
        let x = topo.graph.node_by_name("x").unwrap();
        let e = topo.graph.find_edge(y, x).unwrap();
        assert_eq!(bgp.transfer(e, Some(&BgpAttr::origin(100))), None);
    }

    #[test]
    fn prepend_lengthens_path() {
        let net = parse_network(
            "
device x
interface i
route-map PAD permit 10
 set as-path prepend 2
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
 neighbor i route-map PAD out
end
device y
interface i
router bgp 2
 neighbor i remote-as external
end
link x i y i
",
        )
        .unwrap();
        let topo = BuiltTopology::build(&net).unwrap();
        let bgp = BgpProtocol::from_network(&net, &topo, p("10.0.0.0/24"));
        let y = topo.graph.node_by_name("y").unwrap();
        let x = topo.graph.node_by_name("x").unwrap();
        let e = topo.graph.find_edge(y, x).unwrap();
        let out = bgp.transfer(e, Some(&BgpAttr::origin(100))).unwrap();
        assert_eq!(out.path, vec![x, x, x]); // 1 natural + 2 prepended
    }
}
