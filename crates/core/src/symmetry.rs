//! The **class witness**: a verified automorphism of the concrete network
//! that carries one destination class onto another.
//!
//! The failure plane shares refinements across classes keyed by
//! `(EcFingerprint, QuotientClass, CanonicalSignature)` — a certificate of
//! policy-level and quotient-level symmetry, not a construction. This
//! module constructs the symmetry itself: for a *receiving* class `j` and
//! a *donor* class `i` it searches for a node permutation σ of the
//! concrete graph with σ(origins_j) = origins_i that preserves every
//! label the sweep's signatures read, and returns σ only after an
//! independent check ([`is_class_witness`]):
//!
//! * σ is a bijection of the nodes;
//! * every directed edge `u → v` maps onto the edge `σu → σv` carrying
//!   the same `sig_of_edge` id (so σ is a graph automorphism: the edge
//!   counts are equal and σ is injective on pairs);
//! * per-node `prefs` and origin kind (with protocol) are preserved;
//! * every base block of `j` maps onto a base block of `i` with equal
//!   copies.
//!
//! What the check buys: σ maps `j`'s link orbits onto `i`'s (an orbit key
//! is two block ids and two edge signatures), intact distances are
//! automorphism-invariant, so σ is a bijection of the scenario space that
//! commutes with [`LinkOrbits::signature_of`] up to the relabelling of
//! blocks and orbits — two scenarios share a signature in `j` iff their
//! images share one in `i`, and every signature class of `j` has exactly
//! as many scenarios as its image in `i`.
//!
//! The search is individualization–refinement over two labelled copies of
//! the graph, one per class: nodes start coloured by the canonical colour
//! of their base block ([`QuotientCanon`]), their origin kind and their
//! `prefs`; colours are refined jointly until equitable (a node's next
//! colour is its colour plus the multiset of `(edge signature, neighbour
//! colour)` over its out- and in-edges); a colour class whose sizes differ
//! between the copies ends the branch; a discrete colouring is a candidate
//! σ for the check; otherwise the first node of the smallest non-singleton
//! class of the receiver is individualized against each same-coloured
//! donor node in turn. Colours are 64-bit multiset hashes — a collision
//! can cost a branch or produce a candidate the check refuses, never a
//! wrong witness. Every choice is deterministic, and the search stops
//! after [`WITNESS_SEARCH_BUDGET`] tree nodes.
//!
//! [`LinkOrbits::signature_of`]: crate::scenarios::LinkOrbits::signature_of

use crate::algorithm::Abstraction;
use crate::scenarios::{FailureScenario, QuotientCanon};
use crate::signatures::{origin_key, SigTable};
use bonsai_net::{Graph, NodeId};
use bonsai_srp::instance::EcDest;
use std::collections::HashMap;

/// Search-tree nodes one witness search may visit before giving up. A
/// fattree-8 class takes 45, one per individualization (no branch fails
/// there); an exhausted budget costs the tally, never exactness — the
/// class is then visited item by item.
pub const WITNESS_SEARCH_BUDGET: usize = 512;

/// One destination class as the witness search and its check see it.
#[derive(Clone, Copy)]
pub struct ClassView<'a> {
    /// The class's origins (node and protocol).
    pub ec: &'a EcDest,
    /// Its signature table: per-edge signature ids and per-node `prefs`.
    pub sigs: &'a SigTable,
    /// Its failure-free base abstraction.
    pub base: &'a Abstraction,
    /// The canonical labelling of its quotient — the search's starting
    /// colours; [`is_class_witness`] does not read it.
    pub canon: &'a QuotientCanon,
}

/// A verified σ from a receiving class onto a donor class (see the
/// module docs for what [`is_class_witness`] checked).
#[derive(Clone, Debug)]
pub struct ClassWitness {
    /// σ, indexed by receiver node.
    image: Vec<NodeId>,
    /// σ⁻¹, indexed by donor node.
    preimage: Vec<NodeId>,
}

impl ClassWitness {
    /// σ as a table: `image()[v]` is the donor-side image of receiver
    /// node `v`.
    pub fn image(&self) -> &[NodeId] {
        &self.image
    }

    /// σ⁻¹ of a donor scenario: the receiving class's scenario whose
    /// signature class corresponds to the donor scenario's.
    pub fn to_receiver(&self, graph: &Graph, scenario: &FailureScenario) -> FailureScenario {
        let link = |&(u, v): &(NodeId, NodeId)| {
            let (a, b) = (self.preimage[u.index()], self.preimage[v.index()]);
            graph
                .canonical_link(a, b)
                .expect("an automorphism maps links onto links")
        };
        FailureScenario::new(scenario.links.iter().map(link).collect())
    }
}

/// What one witness search did.
#[derive(Debug)]
pub struct WitnessSearch {
    /// The verified σ, or `None`: no automorphism, or the budget ran out.
    pub witness: Option<ClassWitness>,
    /// Search-tree nodes visited.
    pub nodes: usize,
}

/// Searches for a verified σ carrying `receiver` onto `donor` (module
/// docs). Meaningful for classes of one graph whose policy fingerprints
/// and quotient classes are equal; any other pair just finds nothing.
pub fn find_class_witness(
    graph: &Graph,
    donor: ClassView<'_>,
    receiver: ClassView<'_>,
) -> WitnessSearch {
    search_with_budget(graph, donor, receiver, WITNESS_SEARCH_BUDGET)
}

/// [`find_class_witness`] with an explicit tree-node budget.
fn search_with_budget(
    graph: &Graph,
    donor: ClassView<'_>,
    receiver: ClassView<'_>,
    budget: usize,
) -> WitnessSearch {
    let mut search = Search {
        graph,
        views: [receiver, donor],
        budget,
        nodes: 0,
    };
    let image = Colouring::initial(graph, search.views).and_then(|mut colouring| {
        let every_cell = (0..colouring.cells() as u32).collect();
        search
            .refine(&mut colouring, every_cell)
            .then(|| search.descend(colouring))
            .flatten()
    });
    WitnessSearch {
        witness: image.map(|image| {
            let mut preimage = vec![NodeId(0); image.len()];
            for (v, w) in image.iter().enumerate() {
                preimage[w.index()] = NodeId(v as u32);
            }
            ClassWitness { image, preimage }
        }),
        nodes: search.nodes,
    }
}

/// The independent check a candidate σ (`image[v]` = σ(v), receiver node
/// → donor node) must pass before it is trusted — O(V + E·degree), and
/// reads only the classes' concrete facts: origins, signature table, base
/// partition and copies (see the module docs for the list).
pub fn is_class_witness(
    graph: &Graph,
    donor: ClassView<'_>,
    receiver: ClassView<'_>,
    image: &[NodeId],
) -> bool {
    let n = graph.node_count();
    if image.len() != n {
        return false;
    }
    let mut taken = vec![false; n];
    for &w in image {
        if w.index() >= n || std::mem::replace(&mut taken[w.index()], true) {
            return false;
        }
    }
    let sigma = |v: NodeId| image[v.index()];
    let edges_map = graph.edges().all(|e| {
        let (u, v) = graph.endpoints(e);
        graph.find_edge(sigma(u), sigma(v)).is_some_and(|f| {
            donor.sigs.sig_of_edge[f.index()] == receiver.sigs.sig_of_edge[e.index()]
        })
    });
    let nodes_map = graph.nodes().all(|v| {
        receiver.sigs.prefs[v.index()] == donor.sigs.prefs[sigma(v).index()]
            && origin_key(receiver.ec, v) == origin_key(donor.ec, sigma(v))
    });
    let blocks_map = receiver.base.partition.blocks().all(|b| {
        let members = receiver.base.partition.members(b);
        let target = donor.base.role_of(sigma(NodeId(members[0])));
        donor.base.partition.members(target).len() == members.len()
            && donor.base.copies[target.index()] == receiver.base.copies[b.index()]
            && members
                .iter()
                .all(|&m| donor.base.role_of(sigma(NodeId(m))) == target)
    });
    edges_map && nodes_map && blocks_map
}

/// The joint ordered partition of the two copies (side 0 the receiver,
/// side 1 the donor): a cell is a contiguous segment of each side's
/// `order`, laid out identically in both — a branch dies as soon as a
/// cell's sizes would differ, so they never do.
#[derive(Clone)]
struct Colouring {
    /// Nodes by position.
    order: [Vec<u32>; 2],
    /// Position of each node in `order`.
    pos: [Vec<u32>; 2],
    /// Cell of each node.
    cell: [Vec<u32>; 2],
    /// Per cell: first position and size.
    start: Vec<u32>,
    len: Vec<u32>,
}

impl Colouring {
    /// Cells from the starting colours: block colour, origin kind and
    /// `prefs` of each node. `None` when the copies disagree already.
    fn initial(graph: &Graph, views: [ClassView<'_>; 2]) -> Option<Colouring> {
        let n = graph.node_count();
        let mut id_of: HashMap<u64, u32> = HashMap::new();
        let mut cell = [vec![0u32; n], vec![0u32; n]];
        let mut balance: Vec<i64> = Vec::new();
        for (side, sign) in [(0, 1), (1, -1)] {
            let view = views[side];
            for v in graph.nodes() {
                let block = view.canon.color_of(view.base.role_of(v).0);
                let origin = u64::from(origin_key(view.ec, v));
                let prefs = view.sigs.prefs[v.index()]
                    .iter()
                    .fold(origin, |h, &p| pair(h, u64::from(p)));
                let next = id_of.len() as u32;
                let id = *id_of.entry(pair(u64::from(block), prefs)).or_insert(next);
                if id as usize == balance.len() {
                    balance.push(0);
                }
                balance[id as usize] += sign;
                cell[side][v.index()] = id;
            }
        }
        if balance.iter().any(|&b| b != 0) {
            return None;
        }
        let mut len = vec![0u32; balance.len()];
        for &c in &cell[0] {
            len[c as usize] += 1;
        }
        let start: Vec<u32> = len
            .iter()
            .scan(0, |at, &l| Some(std::mem::replace(at, *at + l)))
            .collect();
        let [order, pos] = [0, 1].map(|_| [vec![0u32; n], vec![0u32; n]]);
        let mut colouring = Colouring {
            order,
            pos,
            cell,
            start,
            len,
        };
        for side in 0..2 {
            let mut next = colouring.start.clone();
            for v in 0..n {
                let at = &mut next[colouring.cell[side][v] as usize];
                colouring.order[side][*at as usize] = v as u32;
                colouring.pos[side][v] = *at;
                *at += 1;
            }
        }
        Some(colouring)
    }

    fn cells(&self) -> usize {
        self.start.len()
    }

    /// The nodes of cell `c` on one side.
    fn members(&self, side: usize, c: u32) -> &[u32] {
        let at = self.start[c as usize] as usize;
        &self.order[side][at..at + self.len[c as usize] as usize]
    }

    /// Moves `x` (receiver) and `y` (donor), both of cell `c`, into a new
    /// singleton cell at the end of `c`'s segment; returns the new cell.
    fn individualize(&mut self, c: u32, x: u32, y: u32) -> u32 {
        let last = self.start[c as usize] + self.len[c as usize] - 1;
        for (side, v) in [(0, x), (1, y)] {
            let other = self.order[side][last as usize];
            let at = self.pos[side][v as usize];
            self.order[side].swap(at as usize, last as usize);
            self.pos[side][other as usize] = at;
            self.pos[side][v as usize] = last;
            self.cell[side][v as usize] = self.start.len() as u32;
        }
        self.len[c as usize] -= 1;
        self.start.push(last);
        self.len.push(1);
        self.start.len() as u32 - 1
    }
}

/// The individualization–refinement walk.
struct Search<'a> {
    graph: &'a Graph,
    views: [ClassView<'a>; 2],
    budget: usize,
    nodes: usize,
}

impl Search<'_> {
    /// One tree node over an equitable `colouring`: stop at a discrete
    /// one, or branch on the smallest non-singleton cell. Returns a
    /// checked σ.
    fn descend(&mut self, colouring: Colouring) -> Option<Vec<NodeId>> {
        if self.nodes == self.budget {
            return None;
        }
        self.nodes += 1;
        let n = self.graph.node_count();
        if colouring.cells() == n {
            let mut image = vec![NodeId(0); n];
            for (&v, &w) in colouring.order[0].iter().zip(&colouring.order[1]) {
                image[v as usize] = NodeId(w);
            }
            let [receiver, donor] = self.views;
            return is_class_witness(self.graph, donor, receiver, &image).then_some(image);
        }
        let c = (0..colouring.cells() as u32)
            .filter(|&c| colouring.len[c as usize] > 1)
            .min_by_key(|&c| colouring.len[c as usize])
            .expect("a non-discrete colouring has a cell of two or more");
        let x = *colouring
            .members(0, c)
            .iter()
            .min()
            .expect("cells are nonempty");
        let mut candidates = colouring.members(1, c).to_vec();
        candidates.sort_unstable();
        for y in candidates {
            if self.nodes == self.budget {
                return None;
            }
            let mut child = colouring.clone();
            let single = child.individualize(c, x, y);
            if self.refine(&mut child, vec![single]) {
                if let Some(image) = self.descend(child) {
                    return Some(image);
                }
            }
        }
        None
    }

    /// Refines `colouring` jointly to the coarsest equitable colouring
    /// below it, splitting cells by the multiset of `(direction, edge
    /// signature)` of their members' edges into each splitter cell; the
    /// colouring must be equitable with respect to every cell not in
    /// `queue`. False when a cell would split differently in the two
    /// copies (no σ extends this branch).
    fn refine(&self, colouring: &mut Colouring, mut queue: Vec<u32>) -> bool {
        let graph = self.graph;
        let n = graph.node_count();
        let mut queued = vec![false; n];
        for &c in &queue {
            queued[c as usize] = true;
        }
        let mut acc = [vec![0u64; n], vec![0u64; n]];
        let mut hit: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut touched: Vec<u32> = Vec::new();
        let mut sorted: [Vec<(u64, u32)>; 2] = [Vec::new(), Vec::new()];
        let mut head = 0;
        while let Some(&splitter) = queue.get(head) {
            head += 1;
            queued[splitter as usize] = false;
            for side in 0..2 {
                let sig = &self.views[side].sigs.sig_of_edge;
                for &w in colouring.members(side, splitter) {
                    let w = NodeId(w);
                    let out = graph.out(w).map(|e| (graph.target(e), 1, e));
                    let inn = graph.inn(w).map(|e| (graph.source(e), 2, e));
                    for (v, dir, e) in out.chain(inn) {
                        let h = pair(dir, u64::from(sig[e.index()]));
                        acc[side][v.index()] = acc[side][v.index()].wrapping_add(h);
                        hit[side].push(v.0);
                        touched.push(colouring.cell[side][v.index()]);
                    }
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                for (side, sorted) in sorted.iter_mut().enumerate() {
                    sorted.clear();
                    let members = colouring.members(side, c).iter();
                    sorted.extend(members.map(|&v| (acc[side][v as usize], v)));
                    sorted.sort_unstable();
                }
                if !sorted[0]
                    .iter()
                    .map(|s| s.0)
                    .eq(sorted[1].iter().map(|s| s.0))
                {
                    return false;
                }
                if sorted[0].first().map(|s| s.0) == sorted[0].last().map(|s| s.0) {
                    continue;
                }
                // Split `c` at every change of key, in key order: the first
                // part keeps `c`, the others become new cells; every part
                // is a splitter again.
                let first = colouring.start[c as usize] as usize;
                let mut part = c;
                for i in 0..sorted[0].len() {
                    let at = (first + i) as u32;
                    if i > 0 && sorted[0][i].0 != sorted[0][i - 1].0 {
                        colouring.len[part as usize] = at - colouring.start[part as usize];
                        enqueue(&mut queue, &mut queued, part);
                        part = colouring.cells() as u32;
                        colouring.start.push(at);
                        colouring.len.push(0);
                    }
                    for (side, sorted) in sorted.iter().enumerate() {
                        let v = sorted[i].1;
                        colouring.order[side][at as usize] = v;
                        colouring.pos[side][v as usize] = at;
                        colouring.cell[side][v as usize] = part;
                    }
                }
                let end = (first + sorted[0].len()) as u32;
                colouring.len[part as usize] = end - colouring.start[part as usize];
                enqueue(&mut queue, &mut queued, part);
            }
            touched.clear();
            for side in 0..2 {
                for v in hit[side].drain(..) {
                    acc[side][v as usize] = 0;
                }
            }
        }
        true
    }
}

/// Puts cell `c` on the splitter queue unless it is waiting there.
fn enqueue(queue: &mut Vec<u32>, queued: &mut [bool], c: u32) {
    if !std::mem::replace(&mut queued[c as usize], true) {
        queue.push(c);
    }
}

/// Order-dependent 64-bit combination (splitmix64's finalizer over the
/// mixed pair): the colour hashes of the search.
fn pair(a: u64, b: u64) -> u64 {
    let mut z = (a.rotate_left(29) ^ b).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressOptions, CompressionReport};
    use crate::engine::EcFingerprint;
    use crate::scenarios::{link_orbits, quotient_canon, QuotientClass, ScenarioStream};
    use crate::signatures::build_sig_table;
    use bonsai_config::{BuiltTopology, NetworkConfig};
    use bonsai_topo::{fattree, full_mesh, ring, FattreePolicy};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// One class as the sweep hoists it.
    struct Class {
        ec: EcDest,
        sigs: Arc<SigTable>,
        canon: Option<QuotientCanon>,
        fingerprint: EcFingerprint,
    }

    struct Network {
        topo: BuiltTopology,
        report: CompressionReport,
        classes: Vec<Class>,
    }

    impl Network {
        fn of(net: &NetworkConfig) -> Network {
            let topo = BuiltTopology::build(net).unwrap();
            let report = compress(net, CompressOptions::default());
            let classes = report
                .per_ec
                .iter()
                .map(|comp| {
                    let ec = comp.ec.to_ec_dest();
                    let sigs = build_sig_table(&report.policies, net, &topo, &ec);
                    let orbits = link_orbits(&topo.graph, &comp.abstraction, &sigs);
                    let canon = quotient_canon(&topo.graph, &ec, &comp.abstraction, &sigs, &orbits);
                    let fingerprint = report.policies.ec_fingerprint(net, &topo, &ec);
                    Class {
                        ec,
                        sigs,
                        canon,
                        fingerprint,
                    }
                })
                .collect();
            Network {
                topo,
                report,
                classes,
            }
        }

        fn view(&self, i: usize) -> ClassView<'_> {
            let class = &self.classes[i];
            ClassView {
                ec: &class.ec,
                sigs: &class.sigs,
                base: &self.report.per_ec[i].abstraction,
                canon: class.canon.as_ref().expect("the class canonicalizes"),
            }
        }

        /// The sweep's grouping key.
        fn key(&self, i: usize) -> Option<(EcFingerprint, &QuotientClass)> {
            let class = &self.classes[i];
            Some((class.fingerprint, &class.canon.as_ref()?.class))
        }
    }

    /// A network of eBGP routers, each its own AS originating one /24.
    fn bgp_network(n: usize, edges: &[(usize, usize)]) -> NetworkConfig {
        let mut text = String::new();
        for r in 0..n {
            let peers: Vec<usize> = edges
                .iter()
                .filter_map(|&(a, b)| (a == r).then_some(b).or((b == r).then_some(a)))
                .collect();
            text += &format!("device r{r}\n");
            for p in &peers {
                text += &format!("interface to{p}\n");
            }
            text += &format!("router bgp {}\n network 10.0.{r}.0/24\n", r + 1);
            for p in &peers {
                text += &format!(" neighbor to{p} remote-as external\n");
            }
            text += "end\n";
        }
        for (a, b) in edges {
            text += &format!("link r{a} to{b} r{b} to{a}\n");
        }
        bonsai_config::parse_network(&text).expect("the network parses")
    }

    /// The Frucht graph: 12 routers, 3-regular, no automorphism but the
    /// identity.
    fn frucht() -> NetworkConfig {
        let chords = [(0, 7), (1, 11), (2, 10), (3, 5), (4, 9), (6, 8)];
        let edges: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 12)).chain(chords).collect();
        bgp_network(12, &edges)
    }

    /// Two adjacent roots r0 and r1, each with two children and four
    /// grandchildren: r0's split 1 + 3, r1's 2 + 2.
    fn lopsided_tree() -> NetworkConfig {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (2, 4),
            (3, 5),
            (3, 6),
            (3, 7),
            (1, 8),
            (1, 9),
            (8, 10),
            (8, 11),
            (9, 12),
            (9, 13),
        ];
        bgp_network(14, &edges)
    }

    /// Every pair the sweep would group: the search must find σ from each
    /// class onto class 0.
    fn witnesses_onto_class_zero(network: &Network) -> Vec<(usize, ClassWitness)> {
        (1..network.classes.len())
            .map(|j| {
                assert_eq!(
                    network.key(j),
                    network.key(0),
                    "class {j} groups with class 0"
                );
                let search =
                    find_class_witness(&network.topo.graph, network.view(0), network.view(j));
                let witness = search
                    .witness
                    .unwrap_or_else(|| panic!("class {j}: no witness in {} nodes", search.nodes));
                (j, witness)
            })
            .collect()
    }

    /// Each σ the search returns is checked again here, edge by edge and
    /// node pair by node pair, without the verifier — and shown to do
    /// what the sweep's tally needs: σ maps the receiver's signature
    /// classes one to one onto the donor's.
    #[test]
    fn every_witness_maps_every_edge_block_and_signature_class() {
        for (net, k) in [
            (fattree(4, FattreePolicy::ShortestPath), 2),
            (fattree(8, FattreePolicy::ShortestPath), 1),
            (ring(20), 2),
            (full_mesh(10), 2),
        ] {
            let network = Network::of(&net);
            let graph = &network.topo.graph;
            let donor = network.view(0);
            let donor_orbits = link_orbits(graph, donor.base, donor.sigs);
            for (j, witness) in witnesses_onto_class_zero(&network) {
                let receiver = network.view(j);
                let sigma = witness.image();
                let mut seen: Vec<NodeId> = sigma.to_vec();
                seen.sort_unstable();
                assert!(
                    seen.iter().copied().eq(graph.nodes()),
                    "class {j}: σ is a bijection"
                );
                for e in graph.edges() {
                    let (u, v) = graph.endpoints(e);
                    let f = graph
                        .find_edge(sigma[u.index()], sigma[v.index()])
                        .unwrap_or_else(|| panic!("class {j}: edge {u:?}→{v:?} has no image"));
                    assert_eq!(
                        receiver.sigs.sig_of_edge[e.index()],
                        donor.sigs.sig_of_edge[f.index()]
                    );
                }
                let mut origins: Vec<_> = receiver
                    .ec
                    .origins
                    .iter()
                    .map(|&(n, p)| (sigma[n.index()], p))
                    .collect();
                let mut expected = donor.ec.origins.clone();
                origins.sort_by_key(|o| o.0);
                expected.sort_by_key(|o| o.0);
                assert_eq!(
                    origins, expected,
                    "class {j}: σ(origins) = the donor's origins"
                );
                for u in graph.nodes() {
                    let (bu, du) = (
                        receiver.base.role_of(u),
                        donor.base.role_of(sigma[u.index()]),
                    );
                    assert_eq!(
                        receiver.base.copies[bu.index()],
                        donor.base.copies[du.index()]
                    );
                    assert_eq!(
                        receiver.sigs.prefs[u.index()],
                        donor.sigs.prefs[sigma[u.index()].index()]
                    );
                    for v in graph.nodes() {
                        assert_eq!(
                            receiver.base.role_of(v) == bu,
                            donor.base.role_of(sigma[v.index()]) == du,
                            "class {j}: blocks map onto blocks"
                        );
                    }
                }
                // Signature classes correspond one to one, with equal sizes.
                let orbits = link_orbits(graph, receiver.base, receiver.sigs);
                let (mut forward, mut backward) = (BTreeMap::new(), BTreeMap::new());
                for scenario in ScenarioStream::new(graph, k).iter() {
                    let image = FailureScenario::new(
                        scenario
                            .links
                            .iter()
                            .map(|&(u, v)| {
                                graph
                                    .canonical_link(sigma[u.index()], sigma[v.index()])
                                    .unwrap()
                            })
                            .collect(),
                    );
                    assert_eq!(witness.to_receiver(graph, &image), scenario);
                    let (mine, theirs) = (
                        orbits.signature_of(&scenario).unwrap(),
                        donor_orbits.signature_of(&image).unwrap(),
                    );
                    assert_eq!(
                        *forward.entry(mine.clone()).or_insert(theirs.clone()),
                        theirs
                    );
                    assert_eq!(*backward.entry(theirs).or_insert(mine.clone()), mine);
                }
            }
        }
    }

    /// One transposition applied to a verified σ: moving the origin's
    /// image anywhere else breaks the origin kind, swapping a core's image
    /// with an edge switch's breaks the edges.
    #[test]
    fn a_transposed_witness_is_refused() {
        let network = Network::of(&fattree(8, FattreePolicy::ShortestPath));
        let graph = &network.topo.graph;
        let (j, witness) = witnesses_onto_class_zero(&network).remove(0);
        let (donor, receiver) = (network.view(0), network.view(j));
        assert!(is_class_witness(graph, donor, receiver, witness.image()));
        let transposed = |a: NodeId, b: NodeId| {
            let mut image = witness.image().to_vec();
            image.swap(a.index(), b.index());
            is_class_witness(graph, donor, receiver, &image)
        };
        let origin = receiver.ec.origins[0].0;
        assert!(graph
            .nodes()
            .filter(|&v| v != origin)
            .all(|v| !transposed(origin, v)));
        let named = |name: &str| graph.node_by_name(name).unwrap();
        assert!(!transposed(named("core0"), named("edge3_1")));
        assert!(!is_class_witness(
            graph,
            donor,
            receiver,
            &witness.image()[1..]
        ));
    }

    /// Equal policy fingerprints and quotient classes do not imply an
    /// automorphism: the roots of the lopsided tree have isomorphic
    /// quotients (two children, four leaf grandchildren) but split their
    /// grandchildren 1 + 3 and 2 + 2, so the search finds nothing either
    /// way. The Frucht graph cannot show it: Algorithm 1 leaves eleven of
    /// its twelve classes discrete, and on a discrete partition equal
    /// canonical quotients *are* an automorphism — no two classes share
    /// a quotient there.
    #[test]
    fn equal_quotients_without_an_automorphism_find_nothing() {
        let tree = Network::of(&lopsided_tree());
        assert!(tree.key(0).is_some());
        assert_eq!(tree.key(0), tree.key(1));
        let graph = &tree.topo.graph;
        assert!(find_class_witness(graph, tree.view(0), tree.view(1))
            .witness
            .is_none());
        assert!(find_class_witness(graph, tree.view(1), tree.view(0))
            .witness
            .is_none());

        let frucht = Network::of(&frucht());
        let keys: Vec<_> = (0..12).map(|i| frucht.key(i).expect("canonical")).collect();
        for i in 0..12 {
            assert!(
                keys[i + 1..].iter().all(|k| *k != keys[i]),
                "class {i} shares its quotient"
            );
        }
    }

    /// The budget bounds the search: a search cut short finds nothing, and
    /// the same search with room enough finds σ.
    #[test]
    fn an_exhausted_budget_finds_nothing() {
        let network = Network::of(&fattree(4, FattreePolicy::ShortestPath));
        let graph = &network.topo.graph;
        let (donor, receiver) = (network.view(0), network.view(1));
        let full = find_class_witness(graph, donor, receiver);
        assert!(full.witness.is_some() && full.nodes > 1);
        let short = search_with_budget(graph, donor, receiver, full.nodes - 1);
        assert!(short.witness.is_none());
        assert_eq!(short.nodes, full.nodes - 1);
        assert!(search_with_budget(graph, donor, receiver, full.nodes)
            .witness
            .is_some());
    }
}
