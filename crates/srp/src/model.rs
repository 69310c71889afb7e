//! The SRP model: protocols, instances, solutions, stability.
//!
//! An SRP instance is the tuple `(G, A, a_d, ≺, trans)` of the paper's
//! Figure 4. Here the attribute set `A`, comparison relation `≺` and
//! transfer function `trans` are bundled into a [`Protocol`] implementation,
//! while the graph and destination live in [`Srp`].
//!
//! A [`Solution`] is a labeling `L : V → A⊥` together with the forwarding
//! relation it induces. [`Srp::check_stable`] checks the defining constraints
//! locally, exactly as written in the paper:
//!
//! ```text
//! L(d) = a_d
//! L(u) = ⊥                          if attrs_L(u) = ∅
//! L(u) = some ≺-minimal a ∈ attrs_L(u)  otherwise
//! fwd_L(u) = { e | (e,a) ∈ choices_L(u), a ≈ L(u) }
//! ```

use bonsai_net::{EdgeId, FailureMask, Graph, NodeId};
use std::cmp::Ordering;
use std::fmt::Debug;
use std::hash::Hash;

/// A routing protocol: attribute set, comparison relation and transfer
/// function. One value of the implementing type models one *configured*
/// network (the transfer function embeds the device configurations).
pub trait Protocol {
    /// Routing message attributes (`A` in the paper). `Option<Attr>`
    /// plays the role of `A⊥`.
    type Attr: Clone + Eq + Hash + Debug;

    /// The initial attribute `a_d` advertised by an origin node.
    fn origin(&self, origin: NodeId) -> Self::Attr;

    /// The comparison relation `≺`, as a partial order:
    /// `Some(Less)` means `a` is preferred over `b`, `Some(Equal)` means
    /// the attributes are equally good (`≈`), `None` means incomparable.
    fn compare(&self, a: &Self::Attr, b: &Self::Attr) -> Option<Ordering>;

    /// The transfer function `trans(e, a)`.
    ///
    /// `e = (u, v)` is an edge of the graph and `a` the label of the
    /// neighbor `v` across it (`None` = ⊥, no route). Returns the attribute
    /// `u` obtains through `e`, or `None` if the route is dropped.
    ///
    /// Non-spontaneous protocols return `None` for `a = None`; static
    /// routing is the (paper-sanctioned) exception.
    fn transfer(&self, e: EdgeId, a: Option<&Self::Attr>) -> Option<Self::Attr>;
}

/// An SRP instance: a graph, a set of origin (destination) nodes, and a
/// protocol. The paper's single destination `d` generalizes to a set of
/// origins to support anycast destination equivalence classes; a singleton
/// set recovers the paper's definition exactly.
pub struct Srp<'a, P: Protocol> {
    /// The network topology.
    pub graph: &'a Graph,
    /// Nodes that originate the destination. Their labels are pinned to
    /// [`Protocol::origin`]. Must be non-empty.
    pub origins: Vec<NodeId>,
    /// The protocol (with configurations baked into its transfer function).
    pub protocol: P,
}

/// A solution to an SRP: the label of every node plus the induced
/// forwarding relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution<A> {
    /// `labels[u] = L(u)`; `None` is ⊥ (no route).
    pub labels: Vec<Option<A>>,
    /// `fwd[u]` = edges `u` forwards on (all ≈-minimal choices).
    pub fwd: Vec<Vec<EdgeId>>,
}

impl<A> Solution<A> {
    /// The label of a node.
    pub fn label(&self, u: NodeId) -> Option<&A> {
        self.labels[u.index()].as_ref()
    }

    /// The forwarding edges of a node.
    pub fn fwd(&self, u: NodeId) -> &[EdgeId] {
        &self.fwd[u.index()]
    }

    /// Number of nodes with a route.
    pub fn routed_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }
}

impl<'a, P: Protocol> Srp<'a, P> {
    /// Creates an instance with a single destination (the paper's form).
    pub fn new(graph: &'a Graph, dest: NodeId, protocol: P) -> Self {
        Srp {
            graph,
            origins: vec![dest],
            protocol,
        }
    }

    /// Creates an instance with several origin nodes (anycast EC).
    pub fn with_origins(graph: &'a Graph, origins: Vec<NodeId>, protocol: P) -> Self {
        assert!(!origins.is_empty(), "an SRP needs at least one origin");
        Srp {
            graph,
            origins,
            protocol,
        }
    }

    /// True if `u` is an origin of this instance.
    pub fn is_origin(&self, u: NodeId) -> bool {
        self.origins.contains(&u)
    }

    /// `choices_L(u)`: the non-⊥ attributes offered to `u` by its
    /// neighbors under the given labels.
    pub fn choices(&self, labels: &[Option<P::Attr>], u: NodeId) -> Vec<(EdgeId, P::Attr)> {
        self.choices_masked(labels, u, None)
    }

    /// [`Srp::choices`] under a link-failure mask: offers across disabled
    /// edges do not exist (the SRP semantics of removing the edge from
    /// `E`, without rebuilding the instance).
    pub fn choices_masked(
        &self,
        labels: &[Option<P::Attr>],
        u: NodeId,
        mask: Option<&FailureMask>,
    ) -> Vec<(EdgeId, P::Attr)> {
        let mut out = Vec::new();
        self.choices_into(labels, u, mask, &mut out);
        out
    }

    /// [`Srp::choices_masked`] into a reused buffer (cleared first).
    /// Returns the offers evaluated: one transfer per surviving out-edge.
    pub(crate) fn choices_into(
        &self,
        labels: &[Option<P::Attr>],
        u: NodeId,
        mask: Option<&FailureMask>,
        out: &mut Vec<(EdgeId, P::Attr)>,
    ) -> usize {
        out.clear();
        let mut offers = 0;
        for e in self.graph.out(u) {
            if mask.is_some_and(|m| m.is_disabled(e)) {
                continue;
            }
            offers += 1;
            let v = self.graph.target(e);
            if let Some(a) = self.protocol.transfer(e, labels[v.index()].as_ref()) {
                out.push((e, a));
            }
        }
        offers
    }

    /// A ≺-minimal element of a non-empty choice set (first minimal in
    /// edge order — deterministic). Returns its index.
    pub fn pick_minimal(&self, choices: &[(EdgeId, P::Attr)]) -> usize {
        let mut best = 0;
        for i in 1..choices.len() {
            if self.protocol.compare(&choices[i].1, &choices[best].1) == Some(Ordering::Less) {
                best = i;
            }
        }
        best
    }

    /// `a ≈ b`: neither attribute is preferred over the other.
    pub fn equally_good(&self, a: &P::Attr, b: &P::Attr) -> bool {
        !matches!(self.protocol.compare(a, b), Some(Ordering::Less))
            && !matches!(self.protocol.compare(b, a), Some(Ordering::Less))
    }

    /// The edges of the choices that are ≈ `label`, in edge order.
    fn minimal_edges(&self, choices: &[(EdgeId, P::Attr)], label: &P::Attr) -> Vec<EdgeId> {
        choices
            .iter()
            .filter(|(_, a)| self.equally_good(a, label))
            .map(|(e, _)| *e)
            .collect()
    }

    /// Computes the forwarding relation induced by a labeling.
    pub fn forwarding(&self, labels: &[Option<P::Attr>]) -> Vec<Vec<EdgeId>> {
        self.forwarding_masked(labels, None)
    }

    /// [`Srp::forwarding`] under a link-failure mask: disabled edges are
    /// never forwarded on. A node forwards on its ≈-minimal surviving
    /// choices; origins consume traffic and forward nowhere.
    pub fn forwarding_masked(
        &self,
        labels: &[Option<P::Attr>],
        mask: Option<&FailureMask>,
    ) -> Vec<Vec<EdgeId>> {
        let mut choices = Vec::new();
        self.graph
            .nodes()
            .map(|u| match &labels[u.index()] {
                Some(lu) if !self.is_origin(u) => {
                    self.choices_into(labels, u, mask, &mut choices);
                    self.minimal_edges(&choices, lu)
                }
                _ => Vec::new(),
            })
            .collect()
    }

    /// Checks the SRP solution constraints locally at every node.
    ///
    /// Returns `Ok(())` or the first violated constraint, described.
    pub fn check_stable(&self, labels: &[Option<P::Attr>]) -> Result<(), String> {
        self.check_stable_masked(labels, None)
    }

    /// [`Srp::check_stable`] for the instance with the masked edges
    /// removed: stability is judged against the *surviving* choice sets.
    pub fn check_stable_masked(
        &self,
        labels: &[Option<P::Attr>],
        mask: Option<&FailureMask>,
    ) -> Result<(), String> {
        self.validated_forwarding(labels, mask, &mut 0).map(drop)
    }

    /// Validates every node in node order — the first violation is the
    /// error — and returns the forwarding relation, one choice set per
    /// node. The offers evaluated are added to `offers`.
    pub(crate) fn validated_forwarding(
        &self,
        labels: &[Option<P::Attr>],
        mask: Option<&FailureMask>,
        offers: &mut usize,
    ) -> Result<Vec<Vec<EdgeId>>, String> {
        if labels.len() != self.graph.node_count() {
            return Err("label vector length mismatch".into());
        }
        let mut choices = Vec::new();
        self.graph
            .nodes()
            .map(|u| self.validated_node(labels, u, mask, &mut choices, offers))
            .collect()
    }

    /// The solution constraints at `u` alone, and `u`'s forwarding edges —
    /// its ≈-minimal surviving choices — from one choice set, computed into
    /// `choices`. The warm-started solver calls this for the region a
    /// failure touched only (untouched nodes keep inputs identical to an
    /// already-validated solution).
    pub(crate) fn validated_node(
        &self,
        labels: &[Option<P::Attr>],
        u: NodeId,
        mask: Option<&FailureMask>,
        choices: &mut Vec<(EdgeId, P::Attr)>,
        offers: &mut usize,
    ) -> Result<Vec<EdgeId>, String> {
        let lu = &labels[u.index()];
        if self.is_origin(u) {
            return match lu {
                Some(a) if *a == self.protocol.origin(u) => Ok(Vec::new()),
                _ => Err(format!("origin {u:?} not labeled with a_d")),
            };
        }
        *offers += self.choices_into(labels, u, mask, choices);
        let Some(a) = lu else {
            return match choices.len() {
                0 => Ok(Vec::new()),
                n => Err(format!("{u:?} labeled ⊥ but has {n} choices")),
            };
        };
        // The label must be one of the offered attributes...
        if !choices.iter().any(|(_, c)| c == a) {
            return Err(format!("{u:?} label {a:?} is not among its choices"));
        }
        // ...and no choice may be strictly preferred over it.
        for (e, c) in choices.iter() {
            if self.protocol.compare(c, a) == Some(Ordering::Less) {
                return Err(format!(
                    "{u:?} prefers {c:?} (via {e:?}) over its label {a:?}"
                ));
            }
        }
        Ok(self.minimal_edges(choices, a))
    }

    /// Builds a [`Solution`] from labels (computing forwarding), after
    /// validating stability.
    pub fn solution_from_labels(
        &self,
        labels: Vec<Option<P::Attr>>,
    ) -> Result<Solution<P::Attr>, String> {
        self.solution_from_labels_masked(labels, None)
    }

    /// [`Srp::solution_from_labels`] for the masked instance: one choice
    /// set per node serves the stability check and the forwarding.
    pub fn solution_from_labels_masked(
        &self,
        labels: Vec<Option<P::Attr>>,
        mask: Option<&FailureMask>,
    ) -> Result<Solution<P::Attr>, String> {
        let fwd = self.validated_forwarding(&labels, mask, &mut 0)?;
        Ok(Solution { labels, fwd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_net::GraphBuilder;

    /// Hop-count protocol for tests (RIP without the 16 limit).
    struct Hops;
    impl Protocol for Hops {
        type Attr = u32;
        fn origin(&self, _: NodeId) -> u32 {
            0
        }
        fn compare(&self, a: &u32, b: &u32) -> Option<Ordering> {
            Some(a.cmp(b))
        }
        fn transfer(&self, _e: EdgeId, a: Option<&u32>) -> Option<u32> {
            a.map(|x| x + 1)
        }
    }

    fn line3() -> Graph {
        // n0 -- n1 -- n2
        let mut g = GraphBuilder::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_link(a, b);
        g.add_link(b, c);
        g.build()
    }

    #[test]
    fn stable_labeling_accepted() {
        let g = line3();
        let srp = Srp::new(&g, NodeId(2), Hops);
        let labels = vec![Some(2), Some(1), Some(0)];
        assert!(srp.check_stable(&labels).is_ok());
        let sol = srp.solution_from_labels(labels).unwrap();
        // n0 forwards to n1, n1 to n2, the destination nowhere.
        assert_eq!(sol.fwd(NodeId(0)).len(), 1);
        assert_eq!(g.target(sol.fwd(NodeId(0))[0]), NodeId(1));
        assert_eq!(sol.fwd(NodeId(2)), &[] as &[EdgeId]);
        assert_eq!(sol.routed_count(), 3);
    }

    #[test]
    fn unstable_labeling_rejected() {
        let g = line3();
        let srp = Srp::new(&g, NodeId(2), Hops);
        // n0 claims distance 5; its choice through n1 would be 2.
        let labels = vec![Some(5), Some(1), Some(0)];
        assert!(srp.check_stable(&labels).is_err());
        // Destination mislabeled.
        let labels = vec![Some(2), Some(1), Some(7)];
        assert!(srp.check_stable(&labels).is_err());
        // ⊥ despite available choice.
        let labels = vec![None, Some(1), Some(0)];
        assert!(srp.check_stable(&labels).is_err());
    }

    #[test]
    fn choices_and_minimal() {
        let g = line3();
        let srp = Srp::new(&g, NodeId(2), Hops);
        let labels = vec![Some(2), Some(1), Some(0)];
        let ch = srp.choices(&labels, NodeId(1));
        // Offers from both neighbors: via n0 (3 hops) and via n2 (1 hop).
        assert_eq!(ch.len(), 2);
        let best = srp.pick_minimal(&ch);
        assert_eq!(ch[best].1, 1);
    }

    #[test]
    fn multi_origin_pins_all_origins() {
        let g = line3();
        let srp = Srp::with_origins(&g, vec![NodeId(0), NodeId(2)], Hops);
        let labels = vec![Some(0), Some(1), Some(0)];
        assert!(srp.check_stable(&labels).is_ok());
        let fwd = srp.forwarding(&labels);
        // The middle node load-balances to both origins (1 hop each).
        assert_eq!(fwd[1].len(), 2);
    }
}
