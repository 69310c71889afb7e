//! Directed graph used as the SRP topology.
//!
//! The paper models a network as a graph `G = (V, E, d)` with a set of
//! vertices (routers), a set of *directed* edges (links, one per direction)
//! and a distinguished destination vertex. This module provides a compact
//! adjacency representation tuned for the access patterns of the compression
//! algorithm: iterate the out-edges of a node, iterate the in-edges of a
//! node, look up whether `(u, v)` is an edge, and map an edge to a dense
//! index usable as a table key.
//!
//! Node and edge identifiers are dense `u32` newtypes so they can index
//! `Vec` tables without hashing.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node (router) in a [`Graph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed edge in a [`Graph`].
///
/// Edge ids are dense: a graph with `m` edges uses ids `0..m`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize`, for indexing per-edge tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Builder for [`Graph`].
///
/// Edges may be added in any order; duplicate directed edges are rejected
/// (the SRP model has at most one edge per ordered pair), as are self loops
/// (well-formed SRPs are self-loop-free, paper §3.1).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    names: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    seen: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given display name, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Adds `n` nodes named `prefix0..prefix{n-1}`, returning their ids.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Adds a directed edge `u -> v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self loop), if either endpoint is out of range,
    /// or if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(
            u != v,
            "SRP graphs are self-loop-free (tried {u:?} -> {v:?})"
        );
        assert!(
            (u.index()) < self.names.len() && (v.index()) < self.names.len(),
            "edge endpoint out of range"
        );
        assert!(
            self.seen.insert((u.0, v.0)),
            "duplicate directed edge {u:?} -> {v:?}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((u, v));
        id
    }

    /// Adds both directed edges `u -> v` and `v -> u`.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> (EdgeId, EdgeId) {
        (self.add_edge(u, v), self.add_edge(v, u))
    }

    /// Returns true if the directed edge `u -> v` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&(u.0, v.0))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.names.len();
        let m = self.edges.len();

        // Counting sort of edges into per-source and per-target adjacency.
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            out_start[u.index() + 1] += 1;
            in_start[v.index() + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        let mut out_edges = vec![EdgeId(0); m];
        let mut in_edges = vec![EdgeId(0); m];
        let mut out_cursor = out_start.clone();
        let mut in_cursor = in_start.clone();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            out_edges[out_cursor[u.index()] as usize] = EdgeId(i as u32);
            out_cursor[u.index()] += 1;
            in_edges[in_cursor[v.index()] as usize] = EdgeId(i as u32);
            in_cursor[v.index()] += 1;
        }

        Graph {
            names: self.names,
            edges: self.edges,
            edge_set: self.seen,
            out_start,
            out_edges,
            in_start,
            in_edges,
            by_name: OnceLock::new(),
        }
    }
}

/// An immutable directed graph: the topology of an SRP instance.
///
/// Build one with [`GraphBuilder`]. All queries are O(1) or O(degree) except
/// [`Graph::has_edge`] and [`Graph::node_by_name`], which are O(log m) and
/// O(log n).
#[derive(Clone, Debug)]
pub struct Graph {
    names: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
    edge_set: BTreeSet<(u32, u32)>,
    out_start: Vec<u32>,
    out_edges: Vec<EdgeId>,
    in_start: Vec<u32>,
    in_edges: Vec<EdgeId>,
    /// Node ids sorted by name (ids ascending among equal names), built by
    /// the first [`Graph::node_by_name`] call — graphs nobody asks by name
    /// (every abstract network a compression assembles) never pay for it.
    by_name: OnceLock<Vec<u32>>,
}

impl Graph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected links (pairs of antiparallel directed edges are
    /// counted once; a directed edge without its reverse counts as one).
    pub fn link_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|&&(u, v)| self.is_canonical(u, v))
            .count()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The same graph with node `i` named `names[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one name per node.
    pub fn with_names(self, names: Vec<String>) -> Graph {
        assert_eq!(names.len(), self.names.len(), "one name per node");
        Graph {
            names,
            by_name: OnceLock::new(),
            ..self
        }
    }

    /// The display name of a node.
    pub fn name(&self, u: NodeId) -> &str {
        &self.names[u.index()]
    }

    /// Looks a node up by display name: the first node of that name, by
    /// binary search over a name index built on the first call.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        let name_of = |i: u32| self.names[i as usize].as_str();
        let index = self.by_name.get_or_init(|| {
            let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
            ids.sort_by_key(|&i| name_of(i));
            ids
        });
        let at = index.partition_point(|&i| name_of(i) < name);
        index
            .get(at)
            .filter(|&&i| name_of(i) == name)
            .map(|&i| NodeId(i))
    }

    /// The `(source, target)` pair of a directed edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// The source node of a directed edge.
    #[inline]
    pub fn source(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].0
    }

    /// The target node of a directed edge.
    #[inline]
    pub fn target(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].1
    }

    /// True if the directed edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_set.contains(&(u.0, v.0))
    }

    /// Finds the id of the directed edge `u -> v`, if present (O(degree)).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.out(u).find(|&e| self.target(e) == v)
    }

    /// Iterator over the out-edges of `u`.
    pub fn out(&self, u: NodeId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        let lo = self.out_start[u.index()] as usize;
        let hi = self.out_start[u.index() + 1] as usize;
        self.out_edges[lo..hi].iter().copied()
    }

    /// Iterator over the in-edges of `u`.
    pub fn inn(&self, u: NodeId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        let lo = self.in_start[u.index()] as usize;
        let hi = self.in_start[u.index() + 1] as usize;
        self.in_edges[lo..hi].iter().copied()
    }

    /// Iterator over the out-neighbors of `u`.
    pub fn successors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out(u).map(|e| self.target(e))
    }

    /// Iterator over the in-neighbors of `u`.
    pub fn predecessors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.inn(u).map(|e| self.source(e))
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out(u).len()
    }

    /// The orientation rule of an undirected link, given that the directed
    /// edge `u -> v` exists: an antiparallel pair is named smaller id
    /// first, a directed edge without a reverse source first.
    fn is_canonical(&self, u: NodeId, v: NodeId) -> bool {
        u.0 < v.0 || !self.has_edge(v, u)
    }

    /// The undirected links of the graph as canonical node pairs: one
    /// `(u, v)` per antiparallel edge pair with `u < v`, plus one pair per
    /// directed edge without a reverse (in source-first orientation).
    /// Deterministic order (by the canonical edge's id); the basis of
    /// link-failure scenario enumeration.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        self.edges
            .iter()
            .copied()
            .filter(|&(u, v)| self.is_canonical(u, v))
            .collect()
    }

    /// The pair [`Graph::links`] lists the link between `u` and `v` as,
    /// whichever way round the caller names it; `None` when neither
    /// directed edge exists. O(log m), no link list is built.
    pub fn canonical_link(&self, u: NodeId, v: NodeId) -> Option<(NodeId, NodeId)> {
        if self.has_edge(u, v) && self.is_canonical(u, v) {
            Some((u, v))
        } else if self.has_edge(v, u) {
            Some((v, u))
        } else {
            None
        }
    }

    /// Unweighted BFS distances from `src` following *out*-edges.
    /// Unreachable nodes get `None`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.index()] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].unwrap();
            for v in self.successors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // a -> b1 -> d, a -> b2 -> d (bidirectional links)
        let mut g = GraphBuilder::new();
        let a = g.add_node("a");
        let b1 = g.add_node("b1");
        let b2 = g.add_node("b2");
        let d = g.add_node("d");
        g.add_link(a, b1);
        g.add_link(a, b2);
        g.add_link(b1, d);
        g.add_link(b2, d);
        g.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.link_count(), 4);
    }

    #[test]
    fn adjacency_is_consistent_with_edge_list() {
        let g = diamond();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(g.out(u).any(|x| x == e));
            assert!(g.inn(v).any(|x| x == e));
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn neighbors() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let d = g.node_by_name("d").unwrap();
        let succ: Vec<_> = g.successors(a).map(|n| g.name(n).to_string()).collect();
        assert_eq!(succ, vec!["b1", "b2"]);
        let pred: Vec<_> = g.predecessors(d).map(|n| g.name(n).to_string()).collect();
        assert_eq!(pred, vec!["b1", "b2"]);
    }

    #[test]
    fn find_edge_and_endpoints() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let b1 = g.node_by_name("b1").unwrap();
        let e = g.find_edge(a, b1).unwrap();
        assert_eq!(g.source(e), a);
        assert_eq!(g.target(e), b1);
        assert!(g.find_edge(a, g.node_by_name("d").unwrap()).is_none());
    }

    #[test]
    fn bfs() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let dist = g.bfs_distances(a);
        assert_eq!(dist[a.index()], Some(0));
        assert_eq!(dist[g.node_by_name("b1").unwrap().index()], Some(1));
        assert_eq!(dist[g.node_by_name("d").unwrap().index()], Some(2));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = GraphBuilder::new();
        let a = g.add_node("a");
        g.add_edge(a, a);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edge() {
        let mut g = GraphBuilder::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b);
        g.add_edge(a, b);
    }

    #[test]
    fn directed_edge_without_reverse_counts_as_link() {
        let mut g = GraphBuilder::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(b, a);
        let g = g.build();
        assert_eq!(g.link_count(), 1);
        // Source first, whichever way the caller names it.
        assert_eq!(g.links(), vec![(b, a)]);
        assert_eq!(g.canonical_link(a, b), Some((b, a)));
        assert_eq!(g.canonical_link(b, a), Some((b, a)));
    }

    #[test]
    fn node_by_name_answers_like_a_scan() {
        let scan = |g: &Graph, name: &str| g.nodes().find(|&n| g.name(n) == name);
        let mut b = GraphBuilder::new();
        for name in ["d", "b2", "a", "b1", "b2", "core10", "core1"] {
            b.add_node(name);
        }
        let g = b.build();
        for n in g.nodes() {
            assert_eq!(g.node_by_name(g.name(n)), scan(&g, g.name(n)));
        }
        // Duplicate names resolve to the first node, as the scan did.
        assert_eq!(g.node_by_name("b2"), Some(NodeId(1)));
        for missing in ["", "b", "b3", "core", "core100", "zz"] {
            assert_eq!(g.node_by_name(missing), None, "{missing:?}");
        }
        assert_eq!(GraphBuilder::new().build().node_by_name("a"), None);
        let d = diamond();
        assert!(d.nodes().all(|n| d.node_by_name(d.name(n)) == Some(n)));
    }

    #[test]
    fn canonical_link_is_the_links_orientation() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let b1 = g.node_by_name("b1").unwrap();
        let d = g.node_by_name("d").unwrap();
        assert_eq!(g.canonical_link(b1, a), Some((a, b1)));
        assert_eq!(g.canonical_link(a, b1), Some((a, b1)));
        assert_eq!(g.canonical_link(a, d), None, "not adjacent");
    }
}
