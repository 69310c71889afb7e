//! Canonical per-edge transfer-function signatures.
//!
//! Algorithm 1 refines the abstraction by grouping nodes whose edges carry
//! equal policies toward equal neighbors. The "equal policies" test is the
//! hot operation: this module compiles, for every directed edge and one
//! destination equivalence class, an [`EdgeSig`] — a small hashable value
//! combining
//!
//! * the BGP import∘export BDD signature (drop predicate, community
//!   rewrites, local-preference / MED / prepend cases, session kind),
//! * the OSPF edge facts (cost, area crossing),
//! * static-route presence,
//! * ACL behavior toward the destination on both interfaces (paper §6),
//! * the exporter-side redistribution switches.
//!
//! Since BDD `Ref`s are canonical within the shared arena, `EdgeSig`
//! equality is semantic transfer-function equality (modulo BGP loop
//! prevention — `transfer-approx`, paper §4.3), and hashing an `EdgeSig`
//! is O(signature length).
//!
//! The BGP part of every signature is compiled through the run-wide
//! [`CompiledPolicies`] engine, so classes that resolve the same route
//! maps the same way share both the compilation work and the resulting
//! canonical `Ref`s; only the cheap per-class facts (ACL/static outcomes
//! for the class's packet ranges) are recomputed here.

use crate::engine::CompiledPolicies;
use bonsai_bdd::Ref;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::NodeId;
use bonsai_srp::instance::EcDest;

/// Resulting local preference of an import: an explicit value, or the
/// session default (receiver's configured default for eBGP, inherited from
/// the sender for iBGP).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LpOut {
    /// `set local-preference` fired (or the receiver default applied).
    Const(u32),
    /// iBGP: local preference carried over from the neighbor's attribute.
    Inherit,
}

/// Resulting MED, mirroring [`LpOut`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MedOut {
    /// Explicit or defaulted constant.
    Const(u32),
    /// iBGP: carried over.
    Inherit,
}

/// The BGP part of an edge signature (present iff a session runs on it).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BgpSig {
    /// iBGP session.
    pub ibgp: bool,
    /// Inputs (community sets) for which the route is dropped.
    pub drop: Ref,
    /// Per modeled community: presence after the edge, masked by ¬drop.
    pub comm: Vec<Ref>,
    /// Disjoint, covering local-preference cases (sorted).
    pub lp: Vec<(LpOut, Ref)>,
    /// Disjoint, covering MED cases (sorted).
    pub med: Vec<(MedOut, Ref)>,
    /// Disjoint prepend-count cases for nonzero counts (sorted).
    pub prepend: Vec<(u8, Ref)>,
    /// Exporter redistributes static routes into BGP.
    pub redist_static: bool,
    /// Exporter redistributes OSPF into BGP.
    pub redist_ospf: bool,
    /// Exporter's default local preference (seed of redistributed routes,
    /// inherited over iBGP).
    pub exporter_default_lp: u32,
}

/// The full canonical signature of one directed edge for one destination
/// equivalence class.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EdgeSig {
    /// BGP session signature.
    pub bgp: Option<BgpSig>,
    /// OSPF facts: `(cost, crosses_area)`.
    pub ospf: Option<(u32, bool)>,
    /// Receiver has a matching static route out of this edge.
    pub static_route: bool,
    /// Exporter redistributes static routes into OSPF.
    pub ospf_redist_static: bool,
    /// The receiver's egress ACL permits traffic to the destination
    /// (None = no ACL configured).
    pub acl_out: Option<bool>,
    /// The sender's ingress ACL permits traffic to the destination.
    pub acl_in: Option<bool>,
}

/// All edge signatures of one (network, EC) pair, interned to dense ids so
/// the refinement loop compares plain integers.
///
/// `PartialEq` compares the full interned content. Because signature ids
/// are assigned in deterministic edge order and `Ref`s are canonical
/// within one arena, equality of two tables **built through the same
/// engine** is semantic transfer-function equality edge by edge — the
/// proof obligation of post-delta fingerprint adoption
/// ([`CompiledPolicies::adopt_fingerprint`]). Comparing tables from
/// different engines is meaningless (`Ref`s are arena-scoped).
#[derive(PartialEq, Eq)]
pub struct SigTable {
    /// Interned signature id per edge.
    pub sig_of_edge: Vec<u32>,
    /// The distinct signatures, indexed by id.
    pub sigs: Vec<EdgeSig>,
    /// Per node: the set of local-preference values its import policies can
    /// assign for this EC, plus its default (paper's `prefs(v)`), ascending
    /// without repeats.
    pub prefs: Vec<Vec<u32>>,
}

impl SigTable {
    /// Number of distinct signatures.
    pub fn distinct(&self) -> usize {
        self.sigs.len()
    }

    /// `|prefs(û)|` for a set of concrete nodes: size of the union.
    ///
    /// Counts by successive minima over the members' sorted lists — one
    /// pass over the members per distinct value, no allocation (the
    /// refinement loop asks this of every block it examines).
    pub fn prefs_of_block(&self, members: &[u32]) -> usize {
        let mut count = 0usize;
        let mut floor: Option<u32> = None;
        loop {
            let next = members
                .iter()
                .filter_map(|&m| {
                    let prefs = &self.prefs[m as usize];
                    let from = floor.map_or(0, |f| prefs.partition_point(|&p| p <= f));
                    prefs.get(from).copied()
                })
                .min();
            match next {
                Some(value) => {
                    count += 1;
                    floor = Some(value);
                }
                None => return count,
            }
        }
    }
}

/// Compiles every edge's signature for one destination class, through the
/// run-wide shared engine. Classes with identical destination-dependent
/// residues (prefix-list outcomes, ACL/static outcomes) share one cached
/// table wholesale — see [`CompiledPolicies::sig_table`].
pub fn build_sig_table(
    engine: &CompiledPolicies,
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
) -> std::sync::Arc<SigTable> {
    engine.sig_table(network, topo, ec)
}

/// Constructs the table data for one class (called by the engine on a
/// table-cache miss). `outcomes` carries the already-evaluated per-edge
/// static/ACL bits; `statics` the destination-independent edge facts.
pub(crate) fn build_table_data(
    engine: &CompiledPolicies,
    network: &NetworkConfig,
    topo: &BuiltTopology,
    dest: bonsai_net::prefix::Prefix,
    statics: &crate::engine::EdgeStatics,
    outcomes: &[u8],
) -> SigTable {
    let mut interner: std::collections::HashMap<EdgeSig, u32> = std::collections::HashMap::new();
    let mut sigs: Vec<EdgeSig> = Vec::new();
    let mut sig_of_edge = Vec::with_capacity(topo.graph.edge_count());

    for e in topo.graph.edges() {
        let (u, v) = topo.graph.endpoints(e);

        // BGP signature: exporter stage at v, importer stage at u —
        // compiled (or recalled) by the shared engine.
        let bgp = statics.sessions[e.index()]
            .as_ref()
            .map(|session| engine.bgp_edge_sig(network, dest, u.index(), v.index(), session));

        let ospf = statics.ospf[e.index()];
        let ospf_redist_static = statics.ospf_redist_static[e.index()];
        let (static_route, acl_out, acl_in) =
            crate::engine::unpack_edge_outcome(outcomes[e.index()]);

        let sig = EdgeSig {
            bgp,
            ospf,
            static_route,
            ospf_redist_static,
            acl_out,
            acl_in,
        };
        let next = sigs.len() as u32;
        let id = *interner.entry(sig.clone()).or_insert_with(|| {
            sigs.push(sig);
            next
        });
        sig_of_edge.push(id);
    }

    // prefs(v): union of feasible Const local preferences over the node's
    // learning edges, plus its own default.
    let mut prefs: Vec<Vec<u32>> = vec![Vec::new(); topo.graph.node_count()];
    for u in topo.graph.nodes() {
        let mut set: Vec<u32> = Vec::new();
        if let Some(bgp) = &network.devices[u.index()].bgp {
            set.push(bgp.default_local_pref);
        }
        for e in topo.graph.out(u) {
            if let Some(bgp_sig) = &sigs[sig_of_edge[e.index()] as usize].bgp {
                for &(out, cond) in &bgp_sig.lp {
                    if cond != Ref::FALSE {
                        if let LpOut::Const(v) = out {
                            set.push(v);
                        }
                    }
                }
            }
        }
        set.sort_unstable();
        set.dedup();
        prefs[u.index()] = set;
    }

    SigTable {
        sig_of_edge,
        sigs,
        prefs,
    }
}

/// Per-node refinement facts that are not edge-local: whether the node is
/// an origin of the class (and into which protocol).
pub fn origin_key(ec: &EcDest, u: NodeId) -> u8 {
    match ec.origins.iter().find(|(n, _)| *n == u) {
        None => 0,
        Some((_, bonsai_srp::instance::OriginProto::Bgp)) => 1,
        Some((_, bonsai_srp::instance::OriginProto::Ospf)) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::parse_network;
    use bonsai_srp::instance::OriginProto;

    fn setup(text: &str) -> (NetworkConfig, BuiltTopology) {
        let net = parse_network(text).unwrap();
        let topo = BuiltTopology::build(&net).unwrap();
        (net, topo)
    }

    /// In the Figure 2 gadget, the three b-routers' edges toward `a` must
    /// share one signature, and their edges toward `d` another.
    #[test]
    fn gadget_edges_share_signatures() {
        let net = bonsai_srp::papernets::figure2_gadget();
        let topo = BuiltTopology::build(&net).unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        let ec = EcDest::new("10.0.0.0/24".parse().unwrap(), vec![(d, OriginProto::Bgp)]);
        let engine = CompiledPolicies::from_network(&net, false);
        let table = build_sig_table(&engine, &net, &topo, &ec);

        let a = topo.graph.node_by_name("a").unwrap();
        let sig_to_a: Vec<u32> = ["b1", "b2", "b3"]
            .iter()
            .map(|n| {
                let b = topo.graph.node_by_name(n).unwrap();
                let e = topo.graph.find_edge(b, a).unwrap();
                table.sig_of_edge[e.index()]
            })
            .collect();
        assert_eq!(sig_to_a[0], sig_to_a[1]);
        assert_eq!(sig_to_a[1], sig_to_a[2]);

        let sig_to_d: Vec<u32> = ["b1", "b2", "b3"]
            .iter()
            .map(|n| {
                let b = topo.graph.node_by_name(n).unwrap();
                let e = topo.graph.find_edge(b, d).unwrap();
                table.sig_of_edge[e.index()]
            })
            .collect();
        assert_eq!(sig_to_d[0], sig_to_d[1]);
        assert_eq!(sig_to_d[1], sig_to_d[2]);
        // Toward a (lp 200 import) differs from toward d (default).
        assert_ne!(sig_to_a[0], sig_to_d[0]);

        // prefs: each b can use {100, 200}; a and d only {100}.
        let b1 = topo.graph.node_by_name("b1").unwrap();
        assert_eq!(table.prefs[b1.index()], vec![100, 200]);
        assert_eq!(table.prefs[a.index()], vec![100]);
        assert_eq!(table.prefs_of_block(&[b1.0]), 2);
    }

    /// Different export policies at the far end yield different signatures
    /// even when the import side is identical.
    #[test]
    fn exporter_policy_distinguishes_edges() {
        let (net, topo) = setup(
            "
device x1
interface i
route-map OUT permit 10
 set as-path prepend 3
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
 neighbor i route-map OUT out
end
device x2
interface i
router bgp 2
 network 10.0.0.0/24
 neighbor i remote-as external
end
device y
interface a
interface b
router bgp 3
 neighbor a remote-as external
 neighbor b remote-as external
end
link x1 i y a
link x2 i y b
",
        );
        let y = topo.graph.node_by_name("y").unwrap();
        let x1 = topo.graph.node_by_name("x1").unwrap();
        let x2 = topo.graph.node_by_name("x2").unwrap();
        let ec = EcDest::new(
            "10.0.0.0/24".parse().unwrap(),
            vec![(x1, OriginProto::Bgp), (x2, OriginProto::Bgp)],
        );
        let engine = CompiledPolicies::from_network(&net, false);
        let table = build_sig_table(&engine, &net, &topo, &ec);
        let e1 = topo.graph.find_edge(y, x1).unwrap();
        let e2 = topo.graph.find_edge(y, x2).unwrap();
        assert_ne!(table.sig_of_edge[e1.index()], table.sig_of_edge[e2.index()]);
        let s1 = &table.sigs[table.sig_of_edge[e1.index()] as usize];
        assert_eq!(s1.bgp.as_ref().unwrap().prepend, vec![(3, Ref::TRUE)]);
    }

    /// ACLs toward the destination are part of the signature (paper §6).
    #[test]
    fn acls_fold_into_signatures() {
        let (net, topo) = setup(
            "
device x
interface i
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
end
device y1
interface i
 ip access-group BLOCK out
ip access-list BLOCK deny 10.0.0.0/24
ip access-list BLOCK permit any
router bgp 2
 neighbor i remote-as external
end
link x i y1 i
",
        );
        let x = topo.graph.node_by_name("x").unwrap();
        let y1 = topo.graph.node_by_name("y1").unwrap();
        let ec = EcDest::new("10.0.0.0/24".parse().unwrap(), vec![(x, OriginProto::Bgp)]);
        let engine = CompiledPolicies::from_network(&net, false);
        let table = build_sig_table(&engine, &net, &topo, &ec);
        let e = topo.graph.find_edge(y1, x).unwrap();
        let sig = &table.sigs[table.sig_of_edge[e.index()] as usize];
        assert_eq!(sig.acl_out, Some(false)); // y1's ACL blocks the dest
                                              // For a different destination the same ACL permits.
        let ec2 = EcDest::new("10.7.0.0/24".parse().unwrap(), vec![(x, OriginProto::Bgp)]);
        let engine2 = CompiledPolicies::from_network(&net, false);
        let table2 = build_sig_table(&engine2, &net, &topo, &ec2);
        let sig2 = &table2.sigs[table2.sig_of_edge[e.index()] as usize];
        assert_eq!(sig2.acl_out, Some(true));
    }

    #[test]
    fn origin_key_distinguishes_protocols() {
        let ec = EcDest::new(
            "10.0.0.0/24".parse().unwrap(),
            vec![
                (NodeId(1), OriginProto::Bgp),
                (NodeId(2), OriginProto::Ospf),
            ],
        );
        assert_eq!(origin_key(&ec, NodeId(0)), 0);
        assert_eq!(origin_key(&ec, NodeId(1)), 1);
        assert_eq!(origin_key(&ec, NodeId(2)), 2);
    }
}
