//! Bounded link-failure scenario enumeration (with symmetry pruning) and
//! the signature machinery the per-scenario and network-level sweep
//! engines cache by.
//!
//! The paper's guarantee is for the failure-free control plane; §9 notes
//! the abstraction may be **unsound once links fail**, because one
//! abstract link stands for many concrete links and cannot express "one
//! of them is down". Opening the failure workload therefore needs a way
//! to enumerate the `≤ k` link-failure scenarios of a network, and a way
//! to avoid enumerating (or re-verifying) scenarios the abstraction
//! already proves symmetric.
//!
//! This module provides:
//!
//! * [`ScenarioStream`] — every subset of undirected links of size
//!   `1..=k`, as [`FailureScenario`]s, **lazily**: any rank range of the
//!   canonical enumeration order (size-major, then lexicographic by link
//!   index) materializes via combination unranking without enumerating
//!   its predecessors.
//! * [`link_orbits`] — groups links into *orbits* by their position in the
//!   abstraction: two links are in the same orbit when their endpoints lie
//!   in the same blocks and both directions carry the same compiled
//!   edge signatures (the [`SigTable`] ids produced by the shared
//!   [`CompiledPolicies`](crate::engine::CompiledPolicies) engine — so
//!   orbit equality is semantic transfer-function equality, not syntactic
//!   config equality).
//! * [`OrbitSignature`] — the cache key of the sweep engines: per-orbit
//!   failure counts **plus the canonical form of the failed subgraph**
//!   (which endpoints the failed links share, their blocks, and their
//!   pairwise distances in the intact network). Two scenarios share a
//!   signature only when their failed link sets are isomorphic as
//!   block-and-orbit-labeled, distance-annotated graphs — this is what
//!   makes `k ≥ 2` caching exact where the old orbit-count multiset
//!   wrongly merged, e.g., two same-orbit failures sharing an endpoint
//!   with two disjoint ones.
//! * [`ScenarioStream::iter_pruned`] — the same stream filtered down to
//!   one representative scenario (the enumeration-first, i.e.
//!   lexicographically smallest) per signature.
//! * [`SignatureInterner`] / [`SigId`] — what makes a signature cache
//!   *hit* cheap: the stream's cursor ([`ScenarioRangeIter`]) exposes each
//!   item as link indices, the interner maps the item's **raw signature
//!   inputs** to a dense id with one hash probe, and
//!   [`LinkOrbits::signature_of`] (the canonicalization, and the reference
//!   the interner is tested against) runs only on the first sight of a
//!   raw key. The one search for a signature's representative,
//!   [`SignatureInterner::canonical_scenario`], checks its candidates
//!   through the same memo.
//! * [`quotient_canon`] / [`CanonicalSignature`] — the cross-EC layer:
//!   a canonical labeling of the abstraction's quotient structure that
//!   lets the network-level sweep compare signatures **across destination
//!   classes** whose policy fingerprints
//!   ([`EcFingerprint`](crate::engine::EcFingerprint)) agree.
//!
//! Exactness: pruning by signature is exact for `k = 1` when the
//! abstraction is sound for the failure-free plane — any two links of an
//! orbit relate to the rest of the network identically. For `k ≥ 2` the
//! refined signature removes the historic caveat (same-orbit pairs that
//! share an endpoint versus disjoint pairs now get distinct signatures);
//! the residual assumption is that scenarios with isomorphic labeled,
//! distance-annotated failed subgraphs are related by a network
//! automorphism — which holds whenever the orbit structure itself
//! certifies real symmetry, and is witnessed empirically by the
//! cache-hit ≡ fresh-derivation byte-identity tests.
//!
//! Exactness of the raw key: the interner's key is, per failed link in
//! the order given, `(orbit, block(u), block(v))`, then the upper-triangle
//! intact-graph distances between the `2k` endpoint positions (0 ⇔ same
//! node; distances are symmetric because every link is bidirectional).
//! That is the label-, orbit- and distance-annotated failed multigraph up
//! to the names of its vertices. On its canonical branch the pattern
//! search reads nothing else: vertex labels are emitted in colour order
//! and the rendering is minimized over **all** label-preserving
//! permutations, so it cannot depend on which isomorphic copy it started
//! from; `counts` is a function of the orbit ids; and the permutation
//! budget test is a function of the colour-group sizes. Equal raw keys
//! therefore imply equal signatures — the converse need not hold (other
//! link order or endpoint orientation), which is why ids are assigned by
//! full signature. The over-budget fallback embeds raw node ids, which the
//! raw key does not determine: a signature with `pattern.canonical ==
//! false` is never memoized under a raw key.

use crate::algorithm::Abstraction;
use crate::signatures::{origin_key, SigTable};
use bonsai_net::{FailureMask, Graph, NodeId};
use bonsai_srp::instance::EcDest;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One bounded-failure scenario: a set of failed undirected links, stored
/// as canonical node pairs (as produced by [`Graph::links`]), sorted.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FailureScenario {
    /// The failed links, each in canonical orientation, sorted.
    pub links: Vec<(NodeId, NodeId)>,
}

impl FailureScenario {
    /// A scenario failing the given links (normalized to canonical order).
    pub fn new(mut links: Vec<(NodeId, NodeId)>) -> Self {
        links.sort();
        links.dedup();
        FailureScenario { links }
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for the failure-free scenario.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The scenario as a [`FailureMask`] over the graph's directed edges
    /// (both directions of every failed link).
    pub fn mask(&self, graph: &Graph) -> FailureMask {
        let mut mask = FailureMask::for_graph(graph);
        for &(u, v) in &self.links {
            mask.disable_link(graph, u, v);
        }
        mask
    }

    /// Human-readable rendering using the graph's node names, e.g.
    /// `{b1—d, b2—d}`.
    pub fn describe(&self, graph: &Graph) -> String {
        let parts: Vec<String> = self
            .links
            .iter()
            .map(|&(u, v)| format!("{}—{}", graph.name(u), graph.name(v)))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// All-pairs shortest-path distances of the intact concrete graph
/// (`u32::MAX` = unreachable). Distances are invariant under every graph
/// automorphism, which is why they may appear in symmetry signatures.
/// Built once and `Arc`-shared across the per-EC orbit structures of a
/// network-level sweep.
#[derive(Debug)]
pub struct NodeDistances {
    n: usize,
    d: Vec<u32>,
}

impl NodeDistances {
    /// Computes all-pairs BFS distances (`O(V·(V+E))` — cheap at our
    /// scales; the 197-router data center costs well under a millisecond).
    pub fn of_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut d = vec![u32::MAX; n * n];
        for u in graph.nodes() {
            let row = graph.bfs_distances(u);
            for (v, dist) in row.iter().enumerate() {
                if let Some(x) = dist {
                    d[u.index() * n + v] = *x;
                }
            }
        }
        NodeDistances { n, d }
    }

    /// Distance between two nodes (`u32::MAX` = unreachable).
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        self.d[u.index() * self.n + v.index()]
    }
}

/// The canonical form of a scenario's failed subgraph: the structural part
/// of an [`OrbitSignature`] beyond per-orbit counts.
///
/// Endpoints of the failed links become canonically numbered vertices
/// (grouped by their label, minimized over label-preserving
/// permutations); the failed links become labeled edges between them, and
/// the pairwise intact-network distances between all endpoints are
/// recorded. Two scenarios with equal patterns have failed subgraphs that
/// are isomorphic as labeled, distance-annotated graphs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FailurePattern {
    /// Per canonical vertex: its label (the endpoint's block id in the
    /// per-EC form; the block's canonical color in the cross-EC form; the
    /// raw node id when canonicalization was skipped).
    pub vertex_labels: Vec<u32>,
    /// Failed links as `(vertex, vertex, orbit label)`, each pair
    /// lo-hi ordered, sorted.
    pub edges: Vec<(u32, u32, u32)>,
    /// Upper-triangle pairwise distances between canonical vertices in the
    /// **intact** graph (`i < j`, row-major; `u32::MAX` = disconnected).
    pub distances: Vec<u32>,
    /// False when the permutation search was skipped (more symmetric
    /// endpoints than the search budget): vertex labels are then raw node
    /// ids — strictly finer, so caching stays sound, only sharing is lost.
    pub canonical: bool,
}

/// Budget for the label-preserving permutation search of
/// [`FailurePattern`] canonicalization. Scenarios have at most `2k`
/// endpoints, so this is only ever hit for large `k` over fully symmetric
/// endpoint sets; the fallback is finer, never coarser.
const PATTERN_PERM_BUDGET: usize = 10_080;

/// Builds the canonical pattern of a scenario under the given labelings.
fn failure_pattern(
    scenario: &FailureScenario,
    dist: &NodeDistances,
    label_of: impl Fn(NodeId) -> u32,
    orbit_label_of: impl Fn((NodeId, NodeId)) -> u32,
) -> FailurePattern {
    // Distinct endpoints, in node order.
    let mut endpoints: Vec<NodeId> = scenario.links.iter().flat_map(|&(u, v)| [u, v]).collect();
    endpoints.sort();
    endpoints.dedup();
    let idx_of: HashMap<NodeId, usize> =
        endpoints.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    // Raw edges over endpoint indices, with orbit labels.
    let raw_edges: Vec<(usize, usize, u32)> = scenario
        .links
        .iter()
        .map(|&(u, v)| (idx_of[&u], idx_of[&v], orbit_label_of((u, v))))
        .collect();

    // Initial vertex colors: (label, sorted incident orbit labels).
    let color_of = |i: usize| -> (u32, Vec<u32>) {
        let mut incident: Vec<u32> = raw_edges
            .iter()
            .filter(|&&(a, b, _)| a == i || b == i)
            .map(|&(_, _, o)| o)
            .collect();
        incident.sort_unstable();
        (label_of(endpoints[i]), incident)
    };
    let colors: Vec<(u32, Vec<u32>)> = (0..endpoints.len()).map(color_of).collect();

    // Group endpoint indices by color; groups in color order.
    let mut groups: BTreeMap<(u32, Vec<u32>), Vec<usize>> = BTreeMap::new();
    for (i, c) in colors.iter().enumerate() {
        groups.entry(c.clone()).or_default().push(i);
    }
    let groups: Vec<Vec<usize>> = groups.into_values().collect();
    let perms: usize = groups.iter().map(|g| factorial(g.len())).product();

    if perms > PATTERN_PERM_BUDGET {
        // Fallback: identity order with raw node ids as labels — finer
        // than any canonical form, so never merges what it should not.
        let order: Vec<usize> = (0..endpoints.len()).collect();
        let (edges, distances) = materialize_pattern(&order, &raw_edges, &endpoints, dist);
        return FailurePattern {
            vertex_labels: endpoints.iter().map(|n| n.0).collect(),
            edges,
            distances,
            canonical: false,
        };
    }

    // Search label-preserving assignments for the lexicographically
    // smallest (edges, distances) rendering.
    let base_order: Vec<usize> = groups.iter().flatten().copied().collect();
    let vertex_labels: Vec<u32> = base_order.iter().map(|&i| colors[i].0).collect();
    let mut best: Option<PatternRendering> = None;
    let mut group_perms: Vec<Vec<usize>> = groups.clone();
    permute_groups(&mut group_perms, 0, &mut |assignment: &[Vec<usize>]| {
        let order: Vec<usize> = assignment.iter().flatten().copied().collect();
        let candidate = materialize_pattern(&order, &raw_edges, &endpoints, dist);
        if best.as_ref().is_none_or(|b| candidate < *b) {
            best = Some(candidate);
        }
    });
    let (edges, distances) = best.expect("at least one assignment");
    FailurePattern {
        vertex_labels,
        edges,
        distances,
        canonical: true,
    }
}

/// One rendered pattern candidate: the sorted edge list plus the
/// upper-triangle distance vector of a particular endpoint ordering.
type PatternRendering = (Vec<(u32, u32, u32)>, Vec<u32>);

/// Renders edges and distances for one endpoint ordering. `order[c] = i`
/// maps canonical position `c` to endpoint index `i`.
fn materialize_pattern(
    order: &[usize],
    raw_edges: &[(usize, usize, u32)],
    endpoints: &[NodeId],
    dist: &NodeDistances,
) -> PatternRendering {
    let mut pos = vec![0u32; order.len()];
    for (c, &i) in order.iter().enumerate() {
        pos[i] = c as u32;
    }
    let mut edges: Vec<(u32, u32, u32)> = raw_edges
        .iter()
        .map(|&(a, b, o)| {
            let (x, y) = (pos[a], pos[b]);
            (x.min(y), x.max(y), o)
        })
        .collect();
    edges.sort_unstable();
    let mut distances = Vec::with_capacity(order.len() * (order.len().saturating_sub(1)) / 2);
    for ci in 0..order.len() {
        for cj in ci + 1..order.len() {
            distances.push(dist.get(endpoints[order[ci]], endpoints[order[cj]]));
        }
    }
    (edges, distances)
}

fn factorial(n: usize) -> usize {
    (1..=n).product::<usize>().max(1)
}

/// Visits every sequence of within-group permutations: for each group in
/// turn, every permutation of its elements, crossed with the later groups
/// (original order restored on return).
fn permute_groups(groups: &mut [Vec<usize>], at: usize, visit: &mut impl FnMut(&[Vec<usize>])) {
    fn rec(groups: &mut [Vec<usize>], at: usize, i: usize, visit: &mut impl FnMut(&[Vec<usize>])) {
        if at == groups.len() {
            visit(groups);
            return;
        }
        if i + 1 >= groups[at].len() {
            rec(groups, at + 1, 0, visit);
            return;
        }
        for j in i..groups[at].len() {
            groups[at].swap(i, j);
            rec(groups, at, i + 1, visit);
            groups[at].swap(i, j);
        }
    }
    rec(groups, at, 0, visit);
}

/// A scenario's position in the orbit structure: per-orbit failure counts
/// **plus** the canonical failed-subgraph pattern.
///
/// This is the cache key of the per-scenario sweep engine
/// (`bonsai-verify`'s `sweep` module): scenarios with equal signatures
/// fail symmetric link sets, so one refinement — derived from the
/// [`SignatureInterner::canonical_scenario`] representative — serves them
/// all.
/// The orbit ids come from the interned edge-signature descriptors of
/// [`link_orbits`], so signature equality is semantic, not syntactic; the
/// pattern part keeps `k ≥ 2` exact (see the module docs).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrbitSignature {
    /// `(orbit id, failed links of that orbit)`, sorted by orbit id, every
    /// count nonzero.
    pub counts: Vec<(u32, u32)>,
    /// Canonical form of the failed subgraph (blocks, sharing structure,
    /// intact-network distances).
    pub pattern: FailurePattern,
}

impl OrbitSignature {
    /// Total number of failed links the signature stands for.
    pub fn total_failures(&self) -> usize {
        self.counts.iter().map(|&(_, c)| c as usize).sum()
    }
}

/// The undirected links of a graph grouped into symmetry orbits induced
/// by an abstraction.
#[derive(Clone, Debug)]
pub struct LinkOrbits {
    /// All undirected links, canonical orientation ([`Graph::links`]).
    pub links: Vec<(NodeId, NodeId)>,
    /// Orbit id of each link (indexes [`LinkOrbits::orbits`]).
    pub orbit_of_link: Vec<u32>,
    /// Members of each orbit, as indices into [`LinkOrbits::links`].
    pub orbits: Vec<Vec<usize>>,
    /// Block id of every node under the abstraction the orbits were
    /// computed from (vertex labels of signature patterns).
    block_of_node: Vec<u32>,
    /// Intact-network all-pairs distances (pattern annotations), shared
    /// across the per-EC orbit structures of a network-level sweep.
    distances: Arc<NodeDistances>,
    /// O(1) lookup from a canonical link pair to its index in
    /// [`LinkOrbits::links`] — [`LinkOrbits::signature_of`] runs once per
    /// scenario for sequential callers ([`ScenarioStream::iter_pruned`]).
    index_of_link: HashMap<(NodeId, NodeId), usize>,
}

impl LinkOrbits {
    /// Number of orbits.
    pub fn num_orbits(&self) -> usize {
        self.orbits.len()
    }

    /// Orbit id of a canonical link pair (as stored in
    /// [`LinkOrbits::links`]). `None` when the pair is not a link of the
    /// graph the orbits were computed over.
    pub fn orbit_of(&self, link: (NodeId, NodeId)) -> Option<u32> {
        self.index_of_link
            .get(&link)
            .map(|&i| self.orbit_of_link[i])
    }

    /// The **orbit signature** of a scenario: per-orbit failure counts
    /// plus the canonical failed-subgraph pattern. Two scenarios with the
    /// same signature fail symmetric link sets — the cache key of the
    /// per-scenario sweep engine. Returns `None` when a failed link is
    /// unknown to these orbits (a scenario from a different graph).
    pub fn signature_of(&self, scenario: &FailureScenario) -> Option<OrbitSignature> {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for &link in &scenario.links {
            *counts.entry(self.orbit_of(link)?).or_insert(0) += 1;
        }
        let pattern = failure_pattern(
            scenario,
            &self.distances,
            |n| self.block_of_node[n.index()],
            |l| self.orbit_of(l).expect("links verified above"),
        );
        Some(OrbitSignature {
            counts: counts.into_iter().collect(),
            pattern,
        })
    }
}

/// Groups the links of `graph` into orbits under `abstraction`: links are
/// equivalent when their endpoint blocks coincide and both directed edges
/// carry equal interned signatures from `sigs`.
///
/// Orbit keys are direction-normalized, so `u—v` and `v—u` of a symmetric
/// pair land in the same orbit regardless of canonical orientation.
///
/// Computes a fresh intact-network distance matrix; use
/// [`link_orbits_with_distances`] to share one across the per-EC orbit
/// structures of a network-level sweep.
pub fn link_orbits(graph: &Graph, abstraction: &Abstraction, sigs: &SigTable) -> LinkOrbits {
    link_orbits_with_distances(
        graph,
        abstraction,
        sigs,
        Arc::new(NodeDistances::of_graph(graph)),
    )
}

/// [`link_orbits`] with a shared, precomputed distance matrix (must have
/// been computed over the same graph).
pub fn link_orbits_with_distances(
    graph: &Graph,
    abstraction: &Abstraction,
    sigs: &SigTable,
    distances: Arc<NodeDistances>,
) -> LinkOrbits {
    let links = graph.links();
    let mut key_of: HashMap<[Descr; 2], u32> = HashMap::new();
    let mut orbit_of_link = Vec::with_capacity(links.len());
    let mut orbits: Vec<Vec<usize>> = Vec::new();

    for (i, &(u, v)) in links.iter().enumerate() {
        let key = orbit_key(graph, abstraction, sigs, u, v);
        let next = orbits.len() as u32;
        let id = *key_of.entry(key).or_insert_with(|| {
            orbits.push(Vec::new());
            next
        });
        orbits[id as usize].push(i);
        orbit_of_link.push(id);
    }

    let index_of_link = links.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let block_of_node = (0..graph.node_count())
        .map(|n| abstraction.role_of(NodeId(n as u32)).0)
        .collect();
    LinkOrbits {
        links,
        orbit_of_link,
        orbits,
        block_of_node,
        distances,
        index_of_link,
    }
}

/// Directed descriptor of one half of a link: `(block(src), block(dst),
/// sig(src→dst))`, with a sentinel signature for a missing reverse edge.
/// Kept unpacked — truncating ids into packed bit fields could silently
/// merge distinct orbits, which a pruned sweep would turn into unswept
/// scenarios.
type Descr = (u32, u32, Option<u32>);

/// The direction-normalized orbit key of one undirected link.
fn orbit_key(
    graph: &Graph,
    abstraction: &Abstraction,
    sigs: &SigTable,
    u: NodeId,
    v: NodeId,
) -> [Descr; 2] {
    let descr = |a: NodeId, b: NodeId| -> Descr {
        let sig = graph.find_edge(a, b).map(|e| sigs.sig_of_edge[e.index()]);
        (abstraction.role_of(a).0, abstraction.role_of(b).0, sig)
    };
    let fwd = descr(u, v);
    let rev = descr(v, u);
    if fwd <= rev {
        [fwd, rev]
    } else {
        [rev, fwd]
    }
}

/// Dense id of an [`OrbitSignature`] interned by a [`SignatureInterner`]:
/// ids count up from 0 in first-sight order, so per-signature state lives
/// in a plain `Vec` indexed by [`SigId::index`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SigId(u32);

impl SigId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maps scenarios — given as link **indices**, the way
/// [`ScenarioRangeIter::indices`] yields them — to the dense [`SigId`] of
/// their [`OrbitSignature`] under one class's [`LinkOrbits`], running
/// [`LinkOrbits::signature_of`] only on the first sight of a *raw key*.
///
/// The raw key is everything `signature_of` reads, before any
/// canonicalization: per failed link `(orbit, block(u), block(v))` in the
/// order given, then the upper triangle of intact-graph distances between
/// the `2k` endpoint positions `u₀ v₀ u₁ v₁ …` (distance 0 ⇔ the two
/// positions are the same node, which encodes the sharing structure).
/// See the module docs for why equal raw keys imply equal signatures.
/// Signatures whose pattern fell back to raw node ids
/// (`pattern.canonical == false`) are interned by full signature only —
/// never under a raw key, which does not determine them.
///
/// Worker-local by design: no locks, one interner per (worker, class).
#[derive(Debug)]
pub struct SignatureInterner<'a> {
    orbits: &'a LinkOrbits,
    /// Raw key → id. Holds canonical-pattern signatures only.
    by_raw_key: HashMap<Box<[u32]>, SigId>,
    /// Full signature → id, so distinct raw keys of one signature (other
    /// link order, other endpoint orientation) share one id.
    by_signature: HashMap<OrbitSignature, SigId>,
    /// Id → signature.
    signatures: Vec<OrbitSignature>,
    /// Reusable raw-key and endpoint buffers: a hit allocates nothing.
    key: Vec<u32>,
    endpoints: Vec<NodeId>,
}

impl<'a> SignatureInterner<'a> {
    /// An empty interner over one class's orbits.
    pub fn new(orbits: &'a LinkOrbits) -> Self {
        SignatureInterner {
            orbits,
            by_raw_key: HashMap::new(),
            by_signature: HashMap::new(),
            signatures: Vec::new(),
            key: Vec::new(),
            endpoints: Vec::new(),
        }
    }

    /// The id of the scenario failing the links at `indices` (indices into
    /// [`LinkOrbits::links`]): [`SignatureInterner::signature`] of the
    /// result is exactly `signature_of` of that scenario, and two
    /// scenarios get one id iff their signatures are equal.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range for the orbits' link list.
    pub fn id_of(&mut self, indices: &[usize]) -> SigId {
        let orbits = self.orbits;
        self.key.clear();
        self.endpoints.clear();
        for &i in indices {
            let (u, v) = orbits.links[i];
            self.key.extend([
                orbits.orbit_of_link[i],
                orbits.block_of_node[u.index()],
                orbits.block_of_node[v.index()],
            ]);
            self.endpoints.extend([u, v]);
        }
        for (p, &a) in self.endpoints.iter().enumerate() {
            for &b in &self.endpoints[p + 1..] {
                debug_assert_eq!(
                    orbits.distances.get(a, b),
                    orbits.distances.get(b, a),
                    "links are bidirectional, so intact distances are symmetric"
                );
                self.key.push(orbits.distances.get(a, b));
            }
        }
        if let Some(&id) = self.by_raw_key.get(self.key.as_slice()) {
            return id;
        }

        let scenario = FailureScenario::new(indices.iter().map(|&i| orbits.links[i]).collect());
        let signature = orbits
            .signature_of(&scenario)
            .expect("indexed links are links of these orbits");
        let canonical = signature.pattern.canonical;
        let id = self.intern(&signature);
        if canonical {
            self.by_raw_key.insert(self.key.as_slice().into(), id);
        }
        id
    }

    /// The id of `signature`, interned by full signature if it is new.
    fn intern(&mut self, signature: &OrbitSignature) -> SigId {
        if let Some(&id) = self.by_signature.get(signature) {
            return id;
        }
        let id = SigId(u32::try_from(self.signatures.len()).expect("fewer than 2^32 signatures"));
        self.signatures.push(signature.clone());
        self.by_signature.insert(signature.clone(), id);
        id
    }

    /// The canonical representative scenario of an orbit signature: the
    /// **enumeration-first** (smallest in link-index order) scenario with
    /// this signature — exactly the representative
    /// [`ScenarioStream::iter_pruned`] keeps for it.
    ///
    /// A count-respecting walk: the combinations of the signature's orbits'
    /// member links, in the lexicographic link-index order of the
    /// exhaustive enumeration, with a prefix cut as soon as one orbit's
    /// count is spent (its further members are skipped) or can no longer
    /// be met by the members left. Every leaf therefore has the
    /// signature's per-orbit counts, and the walk visits them in the order
    /// an exhaustive search over all subsets would — so the first leaf
    /// whose full signature matches is that search's answer. Leaves are
    /// compared through [`SignatureInterner::id_of`]: a raw key this
    /// interner has seen — from an earlier walk or item — costs one hash
    /// probe, not a canonicalization. Signatures interned along the way
    /// stay interned.
    ///
    /// # Panics
    ///
    /// Panics when no scenario of this graph realizes the signature (it
    /// came from different orbits).
    pub fn canonical_scenario(&mut self, signature: &OrbitSignature) -> FailureScenario {
        let target = self.intern(signature);
        let orbits = self.orbits;
        // Member links in ascending index order, each with the position of
        // its orbit in `signature.counts`.
        let mut members: Vec<(usize, usize)> = signature
            .counts
            .iter()
            .enumerate()
            .flat_map(|(at, &(orbit, _))| {
                orbits.orbits[orbit as usize].iter().map(move |&l| (l, at))
            })
            .collect();
        members.sort_unstable();
        let mut need: Vec<usize> = signature.counts.iter().map(|&(_, c)| c as usize).collect();
        // `left[at * stride + i]`: members of orbit `at` from position `i` on.
        let stride = members.len() + 1;
        let mut left = vec![0usize; need.len() * stride];
        for (i, &(_, at)) in members.iter().enumerate().rev() {
            for o in 0..need.len() {
                left[o * stride + i] = left[o * stride + i + 1] + usize::from(o == at);
            }
        }
        let walk = Walk {
            members: &members,
            left: &left,
            stride,
            target,
        };
        let mut chosen = Vec::with_capacity(signature.total_failures());
        if walk.descend(self, &mut need, 0, &mut chosen) {
            return FailureScenario::new(chosen.iter().map(|&i| orbits.links[i]).collect());
        }
        panic!("no scenario of this graph realizes signature {signature:?}")
    }

    /// The signature behind an id this interner handed out.
    pub fn signature(&self, id: SigId) -> &OrbitSignature {
        &self.signatures[id.index()]
    }

    /// Distinct signatures interned so far (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True before the first `id_of`.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Distinct raw keys memoized so far (`>= len()` on canonical
    /// signatures; the gap is what interning by full signature merges).
    pub fn raw_keys(&self) -> usize {
        self.by_raw_key.len()
    }
}

/// The fixed inputs of one [`SignatureInterner::canonical_scenario`] walk.
struct Walk<'a> {
    /// `(link index, orbit position)`, ascending by link index.
    members: &'a [(usize, usize)],
    /// Members left per orbit position and member position (`stride`
    /// entries per orbit position).
    left: &'a [usize],
    stride: usize,
    target: SigId,
}

impl Walk<'_> {
    /// Extends the prefix `chosen` from member position `from` on, with
    /// `need` links still to take per orbit position; true once `chosen`
    /// holds the first matching leaf (it is then left in place).
    fn descend(
        &self,
        memo: &mut SignatureInterner<'_>,
        need: &mut [usize],
        from: usize,
        chosen: &mut Vec<usize>,
    ) -> bool {
        if need.iter().all(|&n| n == 0) {
            return memo.id_of(chosen) == self.target;
        }
        for i in from..self.members.len() {
            let short = (0..need.len()).any(|o| self.left[o * self.stride + i] < need[o]);
            if short {
                return false;
            }
            let (link, at) = self.members[i];
            if need[at] == 0 {
                continue;
            }
            need[at] -= 1;
            chosen.push(link);
            if self.descend(memo, need, i + 1, chosen) {
                return true;
            }
            chosen.pop();
            need[at] += 1;
        }
        false
    }
}

/// One size band of a [`ScenarioStream`]: all scenarios with exactly
/// `size` failed links occupy ranks `start .. start + count`.
#[derive(Clone, Copy, Debug)]
struct SizeBand {
    size: usize,
    start: u128,
    count: u128,
}

/// The lazy form of the exhaustive enumeration: every `1..=k`-subset of
/// the link list, addressable by **rank** in the canonical enumeration
/// order (by failure count, then lexicographically by link index — the
/// exact order `enumerate_scenarios` produced).
///
/// Any `(start, len)` rank range is materialized without enumerating its
/// predecessors: the start rank is *unranked* into a combination directly
/// (size band lookup + lexicographic combination unranking), and the rest
/// of the range steps through cheap lexicographic successors. This is what
/// lets the network-level sweep hand workers chunked ranges of an implicit
/// scenario space instead of an `Arc<Vec>` of all `C(L, k)` scenarios.
#[derive(Clone, Debug)]
pub struct ScenarioStream {
    links: Vec<(NodeId, NodeId)>,
    bands: Vec<SizeBand>,
    total: u128,
}

/// `C(n, k)`, exact in `u128` for every feasible stream (saturating only
/// far beyond any rank a 64-bit machine could iterate).
fn binom(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 0..k {
        // Exact at every step: c holds C(n, i) and C(n, i) * (n - i) is
        // divisible by i + 1.
        c = c.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    c
}

impl ScenarioStream {
    /// The stream of every `1..=k` failure scenario of `graph`, in
    /// canonical enumeration order.
    pub fn new(graph: &Graph, k: usize) -> Self {
        let links = graph.links();
        let mut bands = Vec::new();
        let mut total: u128 = 0;
        for size in 1..=k.min(links.len()) {
            let count = binom(links.len(), size);
            bands.push(SizeBand {
                size,
                start: total,
                count,
            });
            total += count;
        }
        ScenarioStream {
            links,
            bands,
            total,
        }
    }

    /// Total scenario count (`C(L,1)+…+C(L,k)`), saturating at
    /// `usize::MAX`.
    pub fn len(&self) -> usize {
        usize::try_from(self.total).unwrap_or(usize::MAX)
    }

    /// True when the stream holds no scenarios (`k == 0` or no links).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The scenario at `rank` — without enumerating its predecessors.
    ///
    /// # Panics
    ///
    /// Panics when `rank >= len()`.
    pub fn get(&self, rank: usize) -> FailureScenario {
        let mut iter = self.iter_range(rank, 1);
        iter.next()
            .unwrap_or_else(|| panic!("rank {rank} out of range for {} scenarios", self.len()))
    }

    /// Iterates the scenarios of the rank range `start .. start + len`
    /// (clamped to the stream's end): one combination unranking, then
    /// lexicographic successor stepping.
    pub fn iter_range(&self, start: usize, len: usize) -> ScenarioRangeIter<'_> {
        bonsai_obs::add("scenarios.ranges.unranked", 1);
        let start = (start as u128).min(self.total);
        let end = start.saturating_add(len as u128).min(self.total);
        let remaining = (end - start) as usize;
        let (band_idx, chosen) = if remaining == 0 {
            (self.bands.len(), Vec::new())
        } else {
            let band_idx = self.bands.partition_point(|b| b.start + b.count <= start);
            let band = &self.bands[band_idx];
            (
                band_idx,
                unrank_combination(self.links.len(), band.size, start - band.start),
            )
        };
        ScenarioRangeIter {
            stream: self,
            band: band_idx,
            chosen,
            remaining,
            started: false,
        }
    }

    /// Iterates the whole stream.
    pub fn iter(&self) -> ScenarioRangeIter<'_> {
        self.iter_range(0, self.len())
    }

    /// Iterates the stream pruned by signature: one representative — the
    /// enumeration-first scenario, i.e.
    /// [`SignatureInterner::canonical_scenario`] — per distinct
    /// [`OrbitSignature`] under `orbits`, so two scenarios differing only
    /// in *which* symmetric links failed collapse to one.
    ///
    /// On symmetric topologies this shrinks a sweep by orders of magnitude
    /// (a fattree's `C(L,2)` pair scenarios collapse to a handful of
    /// signatures). The walk still computes one signature per exhaustive
    /// scenario — the price of the `k ≥ 2` exactness discussed in the
    /// module docs — but only the representatives are ever yielded.
    ///
    /// # Panics
    ///
    /// The iterator panics when `orbits` was computed over a different
    /// graph than this stream.
    pub fn iter_pruned<'a>(
        &'a self,
        orbits: &'a LinkOrbits,
    ) -> impl Iterator<Item = FailureScenario> + 'a {
        let mut seen: BTreeSet<OrbitSignature> = BTreeSet::new();
        self.iter().filter(move |scenario| {
            seen.insert(
                orbits
                    .signature_of(scenario)
                    .expect("scenario links come from the orbits' graph"),
            )
        })
    }

    /// Materializes the whole stream (the exhaustive enumeration, in
    /// canonical order).
    pub fn to_vec(&self) -> Vec<FailureScenario> {
        self.iter().collect()
    }
}

/// Unranks the `rank`-th (lexicographic) `size`-combination of `0..n`.
fn unrank_combination(n: usize, size: usize, mut rank: u128) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(size);
    let mut x = 0usize;
    let mut remaining = size;
    while remaining > 0 {
        // Combinations that continue with x lead with C(n-1-x, remaining-1)
        // completions.
        let c = binom(n - 1 - x, remaining - 1);
        if rank < c {
            chosen.push(x);
            remaining -= 1;
        } else {
            rank -= c;
        }
        x += 1;
    }
    chosen
}

/// Cursor over a rank range of a [`ScenarioStream`] (see
/// [`ScenarioStream::iter_range`]).
///
/// The cursor itself moves over **link indices**: [`advance`] steps to
/// the next combination in place, [`indices`] exposes it, and
/// [`scenario`] materializes it as a [`FailureScenario`] only when a
/// caller needs one — the failure plane's hit path never does. The
/// `Iterator` impl is `advance` + `scenario`.
///
/// [`advance`]: ScenarioRangeIter::advance
/// [`indices`]: ScenarioRangeIter::indices
/// [`scenario`]: ScenarioRangeIter::scenario
pub struct ScenarioRangeIter<'a> {
    stream: &'a ScenarioStream,
    /// Current size band (index into `stream.bands`).
    band: usize,
    /// Current combination, as ascending link indices (before the first
    /// `advance`: the combination the range starts at).
    chosen: Vec<usize>,
    /// Items not yet stepped onto.
    remaining: usize,
    /// `chosen` is the current item (false until the first `advance`).
    started: bool,
}

impl ScenarioRangeIter<'_> {
    /// Steps onto the next item of the range; `false` when the range is
    /// exhausted (the cursor then stays on its last item).
    pub fn advance(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        if self.started && !advance_combination(&mut self.chosen, self.stream.links.len()) {
            // Band exhausted: restart at the first combination of the next
            // size (it exists — the range is clamped to the stream).
            self.band += 1;
            let size = self.stream.bands[self.band].size;
            self.chosen.clear();
            self.chosen.extend(0..size);
        }
        self.started = true;
        self.remaining -= 1;
        true
    }

    /// The current item as ascending indices into the stream's link list
    /// (== [`LinkOrbits::links`] of orbits over the same graph). Meaningful
    /// after an `advance` that returned `true`.
    pub fn indices(&self) -> &[usize] {
        &self.chosen
    }

    /// The current item as a [`FailureScenario`].
    pub fn scenario(&self) -> FailureScenario {
        FailureScenario::new(self.chosen.iter().map(|&i| self.stream.links[i]).collect())
    }
}

impl Iterator for ScenarioRangeIter<'_> {
    type Item = FailureScenario;

    fn next(&mut self) -> Option<FailureScenario> {
        self.advance().then(|| self.scenario())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ScenarioRangeIter<'_> {}

/// Steps a combination (ascending indices over `0..n`) to its
/// lexicographic successor in place; `false` when it was the last one.
fn advance_combination(chosen: &mut [usize], n: usize) -> bool {
    let size = chosen.len();
    for j in (0..size).rev() {
        if chosen[j] < n - (size - j) {
            chosen[j] += 1;
            for l in j + 1..size {
                chosen[l] = chosen[l - 1] + 1;
            }
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Cross-EC canonicalization: quotient classes and canonical signatures.
// ---------------------------------------------------------------------------

/// One labeled quotient out-edge: `(edge sig, neighbor canonical block,
/// concrete edge count)`.
pub type QuotientEdge = (u32, u32, u32);

/// One canonical quotient block: `(origin kind, members, copies, labeled
/// out-edges)`.
pub type QuotientBlock = (u8, u32, u32, Vec<QuotientEdge>);

/// The canonical description of an abstraction's quotient structure: per
/// canonical block its origin kind, member count, BGP copy count and
/// labeled out-edge multiset.
///
/// Two destination classes with equal [`QuotientClass`]es (and equal
/// policy fingerprints) have base abstractions that are isomorphic as
/// sig-labeled quotient graphs — the precondition for transferring a
/// derived per-scenario refinement from one class to the other.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QuotientClass {
    /// Per canonical block: `(origin kind, members, copies, edges)`.
    pub blocks: Vec<QuotientBlock>,
}

/// The canonical labeling of one class's quotient structure: the class
/// value plus the block → canonical color and orbit → canonical rank maps
/// needed to express signatures in class-relative-free coordinates.
#[derive(Clone, Debug)]
pub struct QuotientCanon {
    /// The canonical quotient description (the cross-EC comparison value).
    pub class: QuotientClass,
    /// Canonical color of each block id (dense rank in canonical order).
    color_of_block: Vec<u32>,
    /// Canonical rank of each orbit id.
    canon_orbit_of: Vec<u32>,
}

impl QuotientCanon {
    /// Canonical color of a block id.
    pub(crate) fn color_of(&self, block: u32) -> u32 {
        self.color_of_block[block as usize]
    }

    /// Canonical rank of an orbit id.
    fn orbit_rank(&self, orbit: u32) -> u32 {
        self.canon_orbit_of[orbit as usize]
    }
}

/// An [`OrbitSignature`] re-expressed in canonical quotient coordinates:
/// orbit ranks instead of per-EC orbit ids, block colors instead of block
/// ids. Comparable across destination classes with equal policy
/// fingerprints and equal [`QuotientClass`]es — the cross-EC cache key of
/// the network-level sweep.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonicalSignature {
    /// `(canonical orbit rank, failed links of that orbit)`, sorted.
    pub counts: Vec<(u32, u32)>,
    /// The canonical failed-subgraph pattern with block colors as vertex
    /// labels and orbit ranks as edge labels.
    pub pattern: FailurePattern,
}

/// Computes the canonical labeling of one class's quotient structure, or
/// `None` when color refinement cannot tell two blocks apart (an
/// ambiguous quotient — cross-EC transfer is then disabled for the class,
/// which costs sharing, never soundness).
pub fn quotient_canon(
    graph: &Graph,
    ec: &EcDest,
    abstraction: &Abstraction,
    sigs: &SigTable,
    orbits: &LinkOrbits,
) -> Option<QuotientCanon> {
    let blocks: Vec<u32> = abstraction.partition.blocks().map(|b| b.0).collect();
    let max_block = blocks.iter().copied().max().map_or(0, |m| m as usize + 1);

    // Static per-block facts.
    let mut origin_kind = vec![0u8; max_block];
    let mut size = vec![0u32; max_block];
    for &b in &blocks {
        let members = abstraction
            .partition
            .members(bonsai_net::partition::BlockId(b));
        size[b as usize] = members.len() as u32;
        origin_kind[b as usize] = members
            .iter()
            .map(|&m| origin_key(ec, NodeId(m)))
            .max()
            .unwrap_or(0);
    }

    // Labeled quotient edges: (block u, sig, block v) -> concrete count.
    let mut qedges: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
    for e in graph.edges() {
        let (u, v) = graph.endpoints(e);
        let bu = abstraction.role_of(u).0;
        let bv = abstraction.role_of(v).0;
        *qedges
            .entry((bu, sigs.sig_of_edge[e.index()], bv))
            .or_insert(0) += 1;
    }

    // Color refinement until stable.
    let mut color: HashMap<u32, u32> = blocks.iter().map(|&b| (b, 0u32)).collect();
    // Initial key: static facts only.
    type Key = (u32, (u8, u32, u32), Vec<(u32, u32, u32)>);
    loop {
        let mut keys: Vec<(Key, u32)> = blocks
            .iter()
            .map(|&b| {
                let mut edges: Vec<(u32, u32, u32)> = qedges
                    .iter()
                    .filter(|&(&(bu, _, _), _)| bu == b)
                    .map(|(&(_, sig, bv), &count)| (sig, color[&bv], count))
                    .collect();
                edges.sort_unstable();
                (
                    (
                        color[&b],
                        (
                            origin_kind[b as usize],
                            size[b as usize],
                            abstraction.copies[b as usize],
                        ),
                        edges,
                    ),
                    b,
                )
            })
            .collect();
        keys.sort();
        let mut next: HashMap<u32, u32> = HashMap::new();
        let mut rank = 0u32;
        let mut prev: Option<&Key> = None;
        // Iterate by reference so `prev` can point into the vector.
        for (key, b) in &keys {
            if prev.is_some_and(|p| p != key) {
                rank += 1;
            }
            next.insert(*b, rank);
            prev = Some(key);
        }
        let stable = blocks.iter().all(|b| next[b] == color[b]);
        color = next;
        if stable {
            break;
        }
    }

    // Injectivity: every block must have its own color, otherwise the
    // canonical form would conflate distinct roles.
    let distinct: BTreeSet<u32> = blocks.iter().map(|b| color[b]).collect();
    if distinct.len() != blocks.len() {
        return None;
    }

    let mut color_of_block = vec![u32::MAX; max_block];
    for &b in &blocks {
        color_of_block[b as usize] = color[&b];
    }

    // Canonical quotient description, blocks in color order.
    let mut by_color: Vec<(u32, u32)> = blocks.iter().map(|&b| (color[&b], b)).collect();
    by_color.sort_unstable();
    let class_blocks: Vec<QuotientBlock> = by_color
        .iter()
        .map(|&(_, b)| {
            let mut edges: Vec<(u32, u32, u32)> = qedges
                .iter()
                .filter(|&(&(bu, _, _), _)| bu == b)
                .map(|(&(_, sig, bv), &count)| (sig, color[&bv], count))
                .collect();
            edges.sort_unstable();
            (
                origin_kind[b as usize],
                size[b as usize],
                abstraction.copies[b as usize],
                edges,
            )
        })
        .collect();

    // Canonical orbit ranks: orbits sorted by their color-relabeled keys.
    let mut orbit_keys: Vec<([Descr; 2], u32)> = Vec::with_capacity(orbits.num_orbits());
    for (id, members) in orbits.orbits.iter().enumerate() {
        let (u, v) = orbits.links[members[0]];
        let relabel = |d: Descr| -> Descr {
            (
                color_of_block[d.0 as usize],
                color_of_block[d.1 as usize],
                d.2,
            )
        };
        let raw = orbit_key(graph, abstraction, sigs, u, v);
        let a = relabel(raw[0]);
        let b = relabel(raw[1]);
        let key = if a <= b { [a, b] } else { [b, a] };
        orbit_keys.push((key, id as u32));
    }
    orbit_keys.sort();
    debug_assert!(
        orbit_keys.windows(2).all(|w| w[0].0 != w[1].0),
        "injective block colors must keep orbit keys distinct"
    );
    let mut canon_orbit_of = vec![u32::MAX; orbits.num_orbits()];
    for (rank, &(_, id)) in orbit_keys.iter().enumerate() {
        canon_orbit_of[id as usize] = rank as u32;
    }

    Some(QuotientCanon {
        class: QuotientClass {
            blocks: class_blocks,
        },
        color_of_block,
        canon_orbit_of,
    })
}

/// Re-expresses a scenario's signature in canonical quotient coordinates
/// (see [`CanonicalSignature`]). Returns `None` when a failed link is
/// unknown to the orbits, or when the pattern could not be canonicalized
/// (raw node ids would not transfer across classes).
pub fn canonical_signature_of(
    orbits: &LinkOrbits,
    canon: &QuotientCanon,
    scenario: &FailureScenario,
) -> Option<CanonicalSignature> {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &link in &scenario.links {
        *counts
            .entry(canon.orbit_rank(orbits.orbit_of(link)?))
            .or_insert(0) += 1;
    }
    let pattern = failure_pattern(
        scenario,
        &orbits.distances,
        |n| canon.color_of(orbits.block_of_node[n.index()]),
        |l| canon.orbit_rank(orbits.orbit_of(l).expect("links verified above")),
    );
    if !pattern.canonical {
        return None;
    }
    Some(CanonicalSignature {
        counts: counts.into_iter().collect(),
        pattern,
    })
}

/// Recursive combination walk — the independent test oracle the stream's
/// unranking is validated against (production enumeration goes through
/// [`ScenarioStream`]).
#[cfg_attr(not(test), allow(dead_code))]
fn combinations(
    n: usize,
    size: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    emit: &mut impl FnMut(&[usize]),
) {
    if chosen.len() == size {
        emit(chosen);
        return;
    }
    let remaining = size - chosen.len();
    for i in start..=n.saturating_sub(remaining) {
        chosen.push(i);
        combinations(n, size, i + 1, chosen, emit);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompiledPolicies;
    use crate::signatures::build_sig_table;
    use bonsai_config::BuiltTopology;
    use bonsai_srp::instance::{EcDest, OriginProto};
    use bonsai_srp::papernets;

    fn gadget_setup() -> (BuiltTopology, Abstraction, std::sync::Arc<SigTable>, EcDest) {
        let net = papernets::figure2_gadget();
        let topo = BuiltTopology::build(&net).unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        let ec = EcDest::new(
            papernets::DEST_PREFIX.parse().unwrap(),
            vec![(d, OriginProto::Bgp)],
        );
        let engine = CompiledPolicies::from_network(&net, false);
        let sigs = build_sig_table(&engine, &net, &topo, &ec);
        let abs = crate::algorithm::find_abstraction(&topo.graph, &ec, &sigs);
        (topo, abs, sigs, ec)
    }

    /// The pruned enumeration, materialized.
    fn pruned(graph: &Graph, abs: &Abstraction, sigs: &SigTable, k: usize) -> Vec<FailureScenario> {
        let orbits = link_orbits(graph, abs, sigs);
        ScenarioStream::new(graph, k).iter_pruned(&orbits).collect()
    }

    /// The independent enumeration oracle: the recursive combination walk
    /// the stream replaced, over the same link list.
    fn enumerate_oracle(graph: &Graph, k: usize) -> Vec<FailureScenario> {
        let links = graph.links();
        let mut out = Vec::new();
        let mut chosen: Vec<usize> = Vec::new();
        for size in 1..=k.min(links.len()) {
            combinations(links.len(), size, 0, &mut chosen, &mut |c| {
                out.push(FailureScenario::new(c.iter().map(|&i| links[i]).collect()));
            });
        }
        out
    }

    #[test]
    fn exhaustive_enumeration_counts() {
        let (topo, _, _, _) = gadget_setup();
        // The gadget has 6 links: C(6,1)=6, C(6,2)=15.
        assert_eq!(topo.graph.link_count(), 6);
        let s1 = ScenarioStream::new(&topo.graph, 1).to_vec();
        assert_eq!(s1.len(), 6);
        let s2 = ScenarioStream::new(&topo.graph, 2).to_vec();
        assert_eq!(s2.len(), 21);
        assert_eq!(ScenarioStream::new(&topo.graph, 2).len(), 21);
        // All distinct, all within bounds.
        let set: std::collections::BTreeSet<_> = s2.iter().collect();
        assert_eq!(set.len(), 21);
        assert!(s2.iter().all(|s| (1..=2).contains(&s.len())));
    }

    #[test]
    fn stream_matches_recursive_oracle_in_order() {
        let (topo, _, _, _) = gadget_setup();
        for k in 0..=4 {
            let stream = ScenarioStream::new(&topo.graph, k);
            let oracle = enumerate_oracle(&topo.graph, k);
            assert_eq!(stream.len(), oracle.len(), "k={k}");
            assert_eq!(stream.to_vec(), oracle, "k={k}");
        }
    }

    #[test]
    fn stream_ranges_slice_the_full_enumeration() {
        let (topo, _, _, _) = gadget_setup();
        let stream = ScenarioStream::new(&topo.graph, 3);
        let full = stream.to_vec();
        assert_eq!(full.len(), 6 + 15 + 20);
        for start in 0..=full.len() {
            for len in [0, 1, 2, 5, 7, full.len()] {
                let got: Vec<_> = stream.iter_range(start, len).collect();
                let end = (start + len).min(full.len());
                assert_eq!(got, full[start..end], "start={start} len={len}");
            }
        }
        // Past-the-end ranges are empty, not a panic.
        assert_eq!(stream.iter_range(full.len() + 3, 10).count(), 0);
    }

    #[test]
    fn stream_get_and_index_cursor_match_the_enumeration() {
        let (topo, _, _, _) = gadget_setup();
        let links = topo.graph.links();
        let stream = ScenarioStream::new(&topo.graph, 3);
        let full = stream.to_vec();
        // Stepping by indices visits the same items, across band
        // boundaries, without building a scenario per step.
        let mut cursor = stream.iter_range(2, full.len());
        for (rank, scenario) in full.iter().enumerate() {
            assert_eq!(stream.get(rank), *scenario);
            if rank >= 2 {
                assert!(cursor.advance());
                let from_indices =
                    FailureScenario::new(cursor.indices().iter().map(|&i| links[i]).collect());
                assert_eq!(from_indices, *scenario);
                assert_eq!(cursor.scenario(), *scenario);
            }
        }
        assert!(!cursor.advance());
    }

    #[test]
    fn empty_streams_behave() {
        let (topo, _, _, _) = gadget_setup();
        let stream = ScenarioStream::new(&topo.graph, 0);
        assert!(stream.is_empty());
        assert_eq!(stream.len(), 0);
        assert_eq!(stream.iter().count(), 0);
    }

    #[test]
    fn gadget_links_fall_into_two_orbits() {
        // {bi—d} and {bi—a} are each one orbit: identical block pairs and
        // identical compiled signatures both ways.
        let (topo, abs, sigs, _) = gadget_setup();
        let orbits = link_orbits(&topo.graph, &abs, &sigs);
        assert_eq!(orbits.links.len(), 6);
        assert_eq!(orbits.num_orbits(), 2);
        for o in &orbits.orbits {
            assert_eq!(o.len(), 3);
        }
        // Links of one orbit share endpoint blocks.
        for o in &orbits.orbits {
            let blocks: std::collections::BTreeSet<_> = o
                .iter()
                .map(|&li| {
                    let (u, v) = orbits.links[li];
                    let mut pair = [abs.role_of(u), abs.role_of(v)];
                    pair.sort();
                    pair
                })
                .collect();
            assert_eq!(blocks.len(), 1);
        }
    }

    #[test]
    fn pruned_enumeration_collapses_symmetric_scenarios() {
        let (topo, abs, sigs, _) = gadget_setup();
        // k=1: 6 exhaustive scenarios collapse to 2 (one per orbit).
        let p1 = pruned(&topo.graph, &abs, &sigs, 1);
        assert_eq!(p1.len(), 2);
        // k=2: the orbit-count multisets {2+0, 0+2, 1+1} split further by
        // sharing structure — the mixed 1+1 class distinguishes "both
        // failures at one b" from "failures at different b's" — plus the
        // two k=1 classes: 6 total.
        let p2 = pruned(&topo.graph, &abs, &sigs, 2);
        assert_eq!(p2.len(), 6);
        assert!(p2.len() < ScenarioStream::new(&topo.graph, 2).to_vec().len());
        // Every pruned scenario is a member of the exhaustive set.
        let all: std::collections::BTreeSet<_> = ScenarioStream::new(&topo.graph, 2)
            .to_vec()
            .into_iter()
            .collect();
        assert!(p2.iter().all(|s| all.contains(s)));
    }

    #[test]
    fn masks_cover_both_directions() {
        let (topo, _, _, _) = gadget_setup();
        let s = ScenarioStream::new(&topo.graph, 1).to_vec();
        for sc in &s {
            let mask = sc.mask(&topo.graph);
            assert_eq!(mask.disabled_count(), 2, "{}", sc.describe(&topo.graph));
        }
    }

    #[test]
    fn signatures_collapse_symmetric_scenarios() {
        let (topo, abs, sigs, _) = gadget_setup();
        let orbits = link_orbits(&topo.graph, &abs, &sigs);
        // Every k=1 scenario of one orbit shares a signature; the two
        // orbits give exactly two distinct signatures.
        let all = ScenarioStream::new(&topo.graph, 1).to_vec();
        let sigset: std::collections::BTreeSet<OrbitSignature> = all
            .iter()
            .map(|s| orbits.signature_of(s).unwrap())
            .collect();
        assert_eq!(sigset.len(), 2);
        for sig in &sigset {
            assert_eq!(sig.total_failures(), 1);
        }
        // k=2 exhaustive (21 scenarios) collapses to the 6 pruned
        // signatures: signatures and pruned enumeration agree exactly.
        let all2 = ScenarioStream::new(&topo.graph, 2).to_vec();
        let sigset2: std::collections::BTreeSet<OrbitSignature> = all2
            .iter()
            .map(|s| orbits.signature_of(s).unwrap())
            .collect();
        assert_eq!(sigset2.len(), 6);
        assert_eq!(pruned(&topo.graph, &abs, &sigs, 2).len(), sigset2.len());
    }

    /// The k ≥ 2 exactness regression: in the gadget's b—d orbit, failing
    /// a b—d link together with the *same* b's link toward `a` shares an
    /// endpoint, while pairing it with a *different* b's link does not.
    /// The old orbit-count multiset signature merged the two (both are
    /// "one failure in each orbit"); the pattern-refined signature keeps
    /// them apart, and their derived splits genuinely differ (3 vs 4
    /// distinct endpoints).
    #[test]
    fn pattern_distinguishes_shared_endpoint_from_disjoint_pairs() {
        let (topo, abs, sigs, _) = gadget_setup();
        let orbits = link_orbits(&topo.graph, &abs, &sigs);
        let n = |name: &str| topo.graph.node_by_name(name).unwrap();
        let shared = FailureScenario::new(vec![(n("d"), n("b1")), (n("a"), n("b1"))]);
        let disjoint = FailureScenario::new(vec![(n("d"), n("b1")), (n("a"), n("b2"))]);
        let sig_shared = orbits.signature_of(&shared).unwrap();
        let sig_disjoint = orbits.signature_of(&disjoint).unwrap();
        // The old multiset part agrees — this is exactly what pruning
        // used to key by...
        assert_eq!(sig_shared.counts, sig_disjoint.counts);
        // ...but the full signatures differ (the bug this fixes).
        assert_ne!(sig_shared, sig_disjoint);
        // Shared-endpoint scenarios have 3 distinct endpoints, disjoint 4.
        assert_eq!(sig_shared.pattern.vertex_labels.len(), 3);
        assert_eq!(sig_disjoint.pattern.vertex_labels.len(), 4);
        // Symmetric counterparts still collapse onto the representatives.
        let shared2 = FailureScenario::new(vec![(n("d"), n("b3")), (n("a"), n("b3"))]);
        let disjoint2 = FailureScenario::new(vec![(n("d"), n("b3")), (n("a"), n("b2"))]);
        assert_eq!(orbits.signature_of(&shared2).unwrap(), sig_shared);
        assert_eq!(orbits.signature_of(&disjoint2).unwrap(), sig_disjoint);
    }

    #[test]
    fn canonical_scenario_matches_pruned_representative() {
        let (topo, abs, sigs, _) = gadget_setup();
        let orbits = link_orbits(&topo.graph, &abs, &sigs);
        let mut memo = SignatureInterner::new(&orbits);
        // For every pruned representative, round-tripping through its
        // signature reproduces the representative itself.
        for rep in pruned(&topo.graph, &abs, &sigs, 2) {
            let sig = orbits.signature_of(&rep).unwrap();
            assert_eq!(memo.canonical_scenario(&sig), rep);
        }
        // Every exhaustive scenario canonicalizes to *some* pruned
        // representative with the same signature.
        let reps: std::collections::BTreeSet<_> =
            pruned(&topo.graph, &abs, &sigs, 2).into_iter().collect();
        for s in ScenarioStream::new(&topo.graph, 2).to_vec() {
            let sig = orbits.signature_of(&s).unwrap();
            let rep = memo.canonical_scenario(&sig);
            assert!(reps.contains(&rep), "{}", s.describe(&topo.graph));
            assert_eq!(orbits.signature_of(&rep).unwrap(), sig);
        }
    }

    /// The gadget's quotient canonicalizes (three roles, all colors
    /// distinct) and canonical signatures collapse exactly like per-EC
    /// ones.
    #[test]
    fn quotient_canonicalization_is_injective_on_the_gadget() {
        let (topo, abs, sigs, ec) = gadget_setup();
        let orbits = link_orbits(&topo.graph, &abs, &sigs);
        let canon = quotient_canon(&topo.graph, &ec, &abs, &sigs, &orbits)
            .expect("gadget quotient has distinct roles");
        assert_eq!(canon.class.blocks.len(), 3);
        // The origin block is flagged.
        assert_eq!(
            canon.class.blocks.iter().filter(|b| b.0 != 0).count(),
            1,
            "{:?}",
            canon.class
        );
        // Canonical signatures collapse the k=2 exhaustive set to the same
        // 6 classes as the per-EC signatures.
        let canonical: std::collections::BTreeSet<CanonicalSignature> =
            ScenarioStream::new(&topo.graph, 2)
                .to_vec()
                .iter()
                .map(|s| canonical_signature_of(&orbits, &canon, s).unwrap())
                .collect();
        assert_eq!(canonical.len(), 6);
    }

    #[test]
    fn describe_uses_node_names() {
        let (topo, _, _, _) = gadget_setup();
        let d = topo.graph.node_by_name("d").unwrap();
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let sc = FailureScenario::new(vec![(d, b1)]);
        assert_eq!(sc.describe(&topo.graph), "{d—b1}");
    }
}
