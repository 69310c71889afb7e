//! The multi-protocol SRP instance: BGP + OSPF + static + the main RIB.
//!
//! Real devices run several protocols at once. Following the paper (§6),
//! the combined SRP tracks, per node, the best route in the *main RIB*,
//! chosen by administrative distance across protocols; route
//! redistribution is folded into the transfer function. The attribute set
//! is the tagged union [`RibAttr`] with IOS administrative distances:
//! static 1, eBGP 20, OSPF 110, iBGP 200.
//!
//! One [`MultiProtocol`] is built per **destination equivalence class**
//! ([`EcDest`]): the class's representative prefix specializes every prefix
//! list, ACL and static route, and every route map with them — a map
//! decided by prefix lists alone becomes one constant result at build, so
//! only maps that read communities are interpreted per offer (paper §5.1
//! "Specialize(bdds, G.d)"; see [`crate::protocols::bgp`]).

use crate::model::Protocol;
use crate::protocols::bgp::{BgpAttr, BgpProtocol};
use crate::protocols::ospf::{OspfAttr, OspfEdge, OspfProtocol};
use crate::protocols::static_route::StaticProtocol;
use crate::view::ConfigView;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::prefix::Prefix;
use bonsai_net::{EdgeId, NodeId};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Which protocol a node originates a destination into.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OriginProto {
    /// `network` statement under `router bgp`.
    Bgp,
    /// `network` statement under `router ospf`.
    Ospf,
}

/// A destination equivalence class, reduced to what an SRP needs: a
/// representative prefix, the packet ranges the class covers, and the
/// nodes that originate it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EcDest {
    /// Representative destination prefix (the most specific originated
    /// prefix of the class) — the *route object* that prefix lists and
    /// route maps match against.
    pub prefix: Prefix,
    /// The *packet ranges* of the class — what ACLs and static routes
    /// (which see packets, not advertisements) match against. Often the
    /// single prefix itself, but a filter carving sub-ranges out of an
    /// originated prefix leaves a class covering several disjoint ranges.
    /// Non-empty; by the defining property of a destination equivalence
    /// class, every filter construct treats all ranges alike, so
    /// [`EcDest::range`] is a sound representative (asserted in debug
    /// builds wherever a range is consumed).
    pub ranges: Vec<Prefix>,
    /// Originating nodes and the protocol they inject the prefix into.
    pub origins: Vec<(NodeId, OriginProto)>,
}

impl EcDest {
    /// A class whose packet range coincides with its route prefix.
    pub fn new(prefix: Prefix, origins: Vec<(NodeId, OriginProto)>) -> Self {
        EcDest {
            prefix,
            ranges: vec![prefix],
            origins,
        }
    }

    /// A class covering explicit packet ranges.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is empty.
    pub fn with_ranges(
        prefix: Prefix,
        ranges: Vec<Prefix>,
        origins: Vec<(NodeId, OriginProto)>,
    ) -> Self {
        assert!(!ranges.is_empty(), "an EC must cover at least one range");
        EcDest {
            prefix,
            ranges,
            origins,
        }
    }

    /// The representative packet range (the class's first range; all
    /// ranges are filter-equivalent by construction).
    pub fn range(&self) -> Prefix {
        self.ranges[0]
    }
}

/// A route in the main RIB: best route per protocol family.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RibAttr {
    /// A statically configured route.
    Static,
    /// A BGP-learned route.
    Bgp(BgpAttr),
    /// An OSPF-learned route.
    Ospf(OspfAttr),
}

impl RibAttr {
    /// IOS administrative distance: lower wins across protocols.
    pub fn admin_distance(&self) -> u8 {
        match self {
            RibAttr::Static => 1,
            RibAttr::Bgp(a) if !a.from_ibgp => 20,
            RibAttr::Bgp(_) => 200,
            RibAttr::Ospf(_) => 110,
        }
    }
}

/// The multi-protocol SRP for one destination equivalence class.
pub struct MultiProtocol<'a> {
    bgp: BgpProtocol<'a>,
    ospf: OspfProtocol,
    static_: StaticProtocol,
    /// Per-origin protocol, indexed by node (None = not an origin).
    origin_proto: Vec<Option<OriginProto>>,
}

impl<'a> MultiProtocol<'a> {
    /// Builds the combined protocol for one destination class of a plain
    /// network: [`MultiProtocol::from_view`] over the identity view.
    pub fn build(network: &'a NetworkConfig, topo: &BuiltTopology, ec: &EcDest) -> Self {
        Self::from_view(&ConfigView::identity(network, topo), ec)
    }

    /// Builds the combined protocol for one destination class (its origins
    /// are nodes of `view`'s graph) from the configuration `view` reads:
    /// the one builder, over a plain network or lifted onto an abstraction.
    pub fn from_view(view: &ConfigView<'a, '_>, ec: &EcDest) -> Self {
        let mut origin_proto = vec![None; view.graph().node_count()];
        for &(n, proto) in &ec.origins {
            origin_proto[n.index()] = Some(proto);
        }
        MultiProtocol {
            bgp: BgpProtocol::from_view(view, ec.prefix),
            ospf: OspfProtocol::from_view(view),
            static_: StaticProtocol::from_view(view, ec.range()),
            origin_proto,
        }
    }

    /// The BGP sub-protocol.
    pub fn bgp(&self) -> &BgpProtocol<'a> {
        &self.bgp
    }

    /// The OSPF facts of one edge.
    pub fn ospf_edge(&self, e: EdgeId) -> Option<OspfEdge> {
        self.ospf.edge(e)
    }

    /// True if the edge carries a matching static route.
    pub fn static_on_edge(&self, e: EdgeId) -> bool {
        self.static_.on_edge(e)
    }

    /// The BGP route `v` would advertise given its RIB label — its own BGP
    /// route, lent, or a freshly originated one if it redistributes the
    /// label's protocol into BGP.
    fn bgp_advertisable<'l>(&self, v: NodeId, label: &'l RibAttr) -> Option<Cow<'l, BgpAttr>> {
        let bgp_cfg = self.bgp.device(v).bgp.as_ref()?;
        match label {
            RibAttr::Bgp(a) => Some(Cow::Borrowed(a)),
            RibAttr::Static if bgp_cfg.redistribute_static => {
                Some(Cow::Owned(BgpAttr::origin(bgp_cfg.default_local_pref)))
            }
            RibAttr::Ospf(_) if bgp_cfg.redistribute_ospf => {
                Some(Cow::Owned(BgpAttr::origin(bgp_cfg.default_local_pref)))
            }
            _ => None,
        }
    }

    /// The OSPF route `v` would flood given its RIB label.
    fn ospf_advertisable(&self, v: NodeId, label: &RibAttr) -> Option<OspfAttr> {
        let ospf_cfg = self.bgp.device(v).ospf.as_ref()?;
        match label {
            RibAttr::Ospf(a) => Some(*a),
            RibAttr::Static if ospf_cfg.redistribute_static => Some(OspfAttr {
                cost: 0,
                inter_area: false,
            }),
            _ => None,
        }
    }

    /// Transfer with a switch for BGP loop prevention (the compression
    /// layer needs the loop-blind variant for `transfer-approx`).
    pub fn transfer_with(
        &self,
        e: EdgeId,
        a: Option<&RibAttr>,
        check_loops: bool,
    ) -> Option<RibAttr> {
        let mut best: Option<RibAttr> = None;
        let mut consider = |cand: RibAttr, this: &Self| {
            let better = match &best {
                None => true,
                Some(b) => this.compare(&cand, b) == Some(Ordering::Less),
            };
            if better {
                best = Some(cand);
            }
        };

        // Static candidate: spontaneous, independent of the neighbor.
        if self.static_.on_edge(e) {
            consider(RibAttr::Static, self);
        }

        if let Some(label) = a {
            // BGP candidate (with redistribution into BGP at v).
            if let Some(adv) = {
                let v = self.edge_target(e);
                self.bgp_advertisable(v, label)
            } {
                let transferred = if check_loops {
                    self.bgp.transfer(e, Some(&adv))
                } else {
                    self.bgp.transfer_ignoring_loops(e, Some(&adv))
                };
                if let Some(b) = transferred {
                    consider(RibAttr::Bgp(b), self);
                }
            }
            // OSPF candidate (with redistribution into OSPF at v).
            if let Some(adv) = {
                let v = self.edge_target(e);
                self.ospf_advertisable(v, label)
            } {
                if let Some(o) = self.ospf.transfer(e, Some(&adv)) {
                    consider(RibAttr::Ospf(o), self);
                }
            }
        }

        best
    }

    fn edge_target(&self, e: EdgeId) -> NodeId {
        self.bgp.edge_endpoints(e).1
    }
}

impl Protocol for MultiProtocol<'_> {
    type Attr = RibAttr;

    fn origin(&self, origin: NodeId) -> RibAttr {
        match self.origin_proto[origin.index()] {
            Some(OriginProto::Bgp) => RibAttr::Bgp(self.bgp.origin(origin)),
            Some(OriginProto::Ospf) => RibAttr::Ospf(OspfAttr {
                cost: 0,
                inter_area: false,
            }),
            None => panic!("origin() called on a non-origin node"),
        }
    }

    fn compare(&self, a: &RibAttr, b: &RibAttr) -> Option<Ordering> {
        let by_distance = a.admin_distance().cmp(&b.admin_distance());
        if by_distance != Ordering::Equal {
            return Some(by_distance);
        }
        match (a, b) {
            (RibAttr::Static, RibAttr::Static) => Some(Ordering::Equal),
            (RibAttr::Bgp(x), RibAttr::Bgp(y)) => self.bgp.compare(x, y),
            (RibAttr::Ospf(x), RibAttr::Ospf(y)) => self.ospf.compare(x, y),
            _ => Some(Ordering::Equal), // equal distance, different families
        }
    }

    fn transfer(&self, e: EdgeId, a: Option<&RibAttr>) -> Option<RibAttr> {
        self.transfer_with(e, a, true)
    }
}
