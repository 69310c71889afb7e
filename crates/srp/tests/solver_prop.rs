//! Property tests for the SRP solver: every produced solution satisfies
//! the local stability constraints, shortest-path protocols agree with
//! BFS/Dijkstra, and activation order never affects *values* for
//! deterministic protocols.

use bonsai_net::{EdgeId, Graph, GraphBuilder, NodeId};
use bonsai_srp::model::{Protocol, Srp};
use bonsai_srp::protocols::Rip;
use bonsai_srp::solver::{solve, solve_with_order, SolverOptions};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Builds a connected random graph from a spanning-path plus chords.
fn build_graph(n: usize, chords: &[(u8, u8)]) -> Graph {
    let mut gb = GraphBuilder::new();
    let nodes = gb.add_nodes("r", n);
    for w in nodes.windows(2) {
        gb.add_link(w[0], w[1]);
    }
    for &(a, b) in chords {
        let a = nodes[a as usize % n];
        let b = nodes[b as usize % n];
        if a != b && !gb.has_edge(a, b) {
            gb.add_link(a, b);
        }
    }
    gb.build()
}

/// A weighted-cost protocol: edge id parity decides cost 1 or 3.
struct Weighted;
impl Protocol for Weighted {
    type Attr = u32;
    fn origin(&self, _: NodeId) -> u32 {
        0
    }
    fn compare(&self, a: &u32, b: &u32) -> Option<Ordering> {
        Some(a.cmp(b))
    }
    fn transfer(&self, e: EdgeId, a: Option<&u32>) -> Option<u32> {
        a.map(|x| x + if e.0.is_multiple_of(2) { 1 } else { 3 })
    }
}

proptest! {
    /// Hop-count solutions equal BFS distances, whatever the order.
    #[test]
    fn rip_matches_bfs(
        n in 2usize..12,
        chords in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        rot in any::<usize>(),
    ) {
        let g = build_graph(n, &chords);
        let dest = NodeId(0);
        let srp = Srp::new(&g, dest, Rip);
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.rotate_left(rot % n);
        let sol = solve_with_order(&srp, &order, SolverOptions::default()).unwrap();
        let bfs = g.bfs_distances(dest);
        for u in g.nodes() {
            let expect = bfs[u.index()].filter(|&d| d < 16).map(|d| d as u8);
            prop_assert_eq!(sol.label(u).copied(), expect);
        }
    }

    /// Every solution the solver returns passes the independent stability
    /// checker (the defining constraints of Figure 4).
    #[test]
    fn solutions_are_stable(
        n in 2usize..12,
        chords in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
    ) {
        let g = build_graph(n, &chords);
        let srp = Srp::new(&g, NodeId(0), Weighted);
        let sol = solve(&srp).unwrap();
        prop_assert!(srp.check_stable(&sol.labels).is_ok());
        // Forwarding edges all carry ≈-minimal attributes.
        for u in g.nodes() {
            for &e in sol.fwd(u) {
                prop_assert_eq!(g.source(e), u);
            }
        }
    }

    /// Deterministic protocols: label values are order-independent.
    #[test]
    fn weighted_labels_order_independent(
        n in 2usize..10,
        chords in prop::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        rot in any::<usize>(),
    ) {
        let g = build_graph(n, &chords);
        let srp = Srp::new(&g, NodeId(0), Weighted);
        let base = solve(&srp).unwrap();
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.rotate_left(rot % n);
        order.reverse();
        let other = solve_with_order(&srp, &order, SolverOptions::default()).unwrap();
        prop_assert_eq!(base.labels, other.labels);
    }
}
