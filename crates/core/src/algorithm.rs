//! Abstraction refinement: Algorithm 1 of the paper (§5.2).
//!
//! `FindAbstraction` starts from the coarsest partition — origins isolated,
//! everything else in one block — and repeatedly splits blocks whose
//! members disagree on their *refinement key*: the set of
//! `(edge-signature, neighbor)` pairs over their out-edges, where
//! "neighbor" is the neighbor's **block** for ordinary nodes
//! (∀∃-abstraction) and the **concrete** neighbor for nodes that may use
//! several local-preference values (the stronger ∀∀-abstraction BGP loop
//! prevention demands, §4.3). At the fixpoint, every condition of an
//! effective abstraction holds by construction; a final
//! `SplitIntoBGPCases` step splits each block into `min(|prefs|, |block|)`
//! copies, bounding the dynamic behaviors loop prevention can produce
//! (Theorem 4.4).
//!
//! # The key buffer
//!
//! `Refine` runs thousands of times per failure sweep (every derivation
//! round, symmetric transfer and snapshot replay re-enters through
//! [`refine_with_split`]), so it allocates nothing per member: one
//! `(signature, neighbor)` pair is one `u64` word, the members' keys are
//! written back to back into one buffer that lives as long as the
//! [`find_abstraction_from`] call, and each member's run is sorted and
//! de-duplicated in place — a set, compared as a slice. Most calls end
//! right there, on "every run equals the first". Otherwise the member
//! positions are sorted by `(run, position)`, which makes each group of
//! equal keys a contiguous run headed by its first-seen member —
//! `O(n log n)` comparisons even in ∀∀ mode, where every key is distinct —
//! and [`Partition::split_block_by_groups`] carves the groups off in
//! first-seen order. That order is what fixes the block id each group
//! gets, so partitions come out identical to grouping through a hash map
//! of tree sets, ids included (`tests/kernel_reference.rs` keeps that
//! version as the oracle).
//!
//! # Skipped `Refine` calls
//!
//! Algorithm 1 as written re-examines every block in every pass, and the
//! last pass — the one that proves the fixpoint — splits nothing by
//! definition. `Refine(B)` is a function of `B`'s members and, in ∀∃
//! mode, of the blocks of their out-neighbors (∀∀ keys name concrete
//! neighbors, and the mode itself is a function of the members). So a
//! call is skipped exactly when neither input changed since `B`'s keys
//! were last seen to agree:
//!
//! * a block's members change only when `Refine` splits that block, and
//!   then every piece — the remainder and each carved-off group — consists
//!   of members whose keys agreed under the partition *before* the split.
//!   A subset of a block has a subset of its preferences, so a piece is
//!   either in the same mode as its parent or has dropped from ∀∀ to ∀∃,
//!   where members that agreed on concrete neighbors agree on their
//!   blocks too. Its keys can only have stopped agreeing if an
//!   out-neighbor of one of its members moved to a fresh block in that
//!   very split;
//! * so after every split, each block holding a predecessor of a moved
//!   node is marked stale (the pieces of the split block included), and
//!   nothing else is.
//!
//! Every block is stale on entry — the caller's partition is taken as
//! given, never as a fixpoint — passes still walk the blocks of their
//! starting snapshot in id order, and a skipped call is one that would
//! have compared equal keys and returned. Split order, block ids and the
//! `iterations` count are therefore those of the unskipped loop.

use crate::signatures::{origin_key, SigTable};
use bonsai_net::partition::BlockId;
use bonsai_net::{Graph, NodeId, Partition};
use bonsai_srp::instance::EcDest;
use std::collections::BTreeSet;

/// The output of Algorithm 1 for one destination equivalence class.
#[derive(Clone, Debug)]
pub struct Abstraction {
    /// The refined partition of concrete nodes (before BGP case
    /// splitting): each block is one abstract *role*.
    pub partition: Partition,
    /// Per block (indexed by `BlockId`): how many abstract copies the
    /// block expands into (`min(|prefs|, |block|)`, at least 1; exactly 1
    /// for origin blocks and singletons).
    pub copies: Vec<u32>,
    /// Number of refinement iterations until fixpoint.
    pub iterations: usize,
}

impl Abstraction {
    /// Number of abstract nodes (blocks, counting BGP copies).
    pub fn abstract_node_count(&self) -> usize {
        self.partition
            .blocks()
            .map(|b| self.copies[b.index()] as usize)
            .sum()
    }

    /// Number of abstract edges: one per unordered pair of adjacent
    /// abstract copies (directed edges counted like the concrete graph —
    /// i.e. we count directed edges of the quotient-with-copies).
    pub fn abstract_edge_count(&self, graph: &Graph) -> usize {
        // Distinct (block, block) directed pairs in the quotient.
        let mut pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
        for e in graph.edges() {
            let (u, v) = graph.endpoints(e);
            let bu = self.partition.block_of(u.0);
            let bv = self.partition.block_of(v.0);
            pairs.insert((bu.0, bv.0));
        }
        // Each quotient edge (A, B) expands to copies(A) * copies(B)
        // abstract edges (A ≠ B); intra-block adjacency (A, A) expands to
        // edges between distinct copies.
        let mut count = 0usize;
        for (a, b) in pairs {
            let ca = self.copies[a as usize] as usize;
            let cb = self.copies[b as usize] as usize;
            if a == b {
                count += ca * (ca - 1); // directed, no self loops
            } else {
                count += ca * cb;
            }
        }
        count
    }

    /// The block (role) of a concrete node.
    pub fn role_of(&self, u: NodeId) -> BlockId {
        self.partition.block_of(u.0)
    }
}

/// Runs Algorithm 1 for one destination class over a prebuilt signature
/// table.
pub fn find_abstraction(graph: &Graph, ec: &EcDest, sigs: &SigTable) -> Abstraction {
    let n = graph.node_count();
    let mut partition = Partition::coarsest(n);

    // Line 4: give the destination its own abstract node. Origins of
    // different protocols are separated from each other and from the rest.
    let origin_nodes: Vec<u32> = ec.origins.iter().map(|(n, _)| n.0).collect();
    partition.split(&origin_nodes);
    // Separate BGP-origins from OSPF-origins if mixed.
    let bgp_origins: Vec<u32> = ec
        .origins
        .iter()
        .filter(|(n, _)| origin_key(ec, *n) == 1)
        .map(|(n, _)| n.0)
        .collect();
    partition.split(&bgp_origins);

    find_abstraction_from(graph, ec, sigs, partition)
}

/// Runs the refinement loop of Algorithm 1 starting from an arbitrary
/// partition instead of the coarsest one, then recomputes BGP copy counts.
///
/// This is the re-entry point of counterexample-guided refinement: the
/// failure sweep splits nodes out of their blocks and calls this to
/// restore the effective-abstraction fixpoint (splits only ever
/// propagate more splits — refinement is monotone — so starting from a
/// finer partition is sound and yields a partition at least as fine as
/// `find_abstraction`'s).
pub fn find_abstraction_from(
    graph: &Graph,
    ec: &EcDest,
    sigs: &SigTable,
    mut partition: Partition,
) -> Abstraction {
    // Lines 5-11: refine until no block splits. Every pass walks the
    // blocks that existed when it started, in id order (ids are dense:
    // blocks are never emptied, so `0..block_count()`); `stale[b]` says
    // whether `Refine(b)` could split anything (module docs, "Skipped
    // `Refine` calls") — nothing is known about the partition handed in,
    // so every block starts stale.
    let mut scratch = RefineScratch::default();
    let mut stale = vec![true; partition.block_count()];
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let before = partition.block_count();
        for block in (0..before as u32).map(BlockId) {
            if !std::mem::take(&mut stale[block.index()]) || partition.members(block).len() <= 1 {
                continue;
            }
            let forall_forall = sigs.prefs_of_block(partition.members(block)) > 1;
            refine(
                graph,
                &mut partition,
                block,
                sigs,
                forall_forall,
                &mut scratch,
                &mut stale,
            );
        }
        if partition.block_count() == before {
            break;
        }
    }

    // Line 12: SplitIntoBGPCases — each block may exhibit up to
    // |prefs(û)| behaviors (Theorem 4.4), but never more than it has
    // members; origins are pinned and need exactly one copy.
    let mut copies = vec![1u32; partition.block_count()];
    for block in partition.blocks() {
        let members = partition.members(block);
        let is_origin_block = members.iter().any(|&m| origin_key(ec, NodeId(m)) != 0);
        if is_origin_block || members.len() == 1 {
            continue;
        }
        let prefs = sigs.prefs_of_block(members).max(1);
        copies[block.index()] = prefs.min(members.len()) as u32;
    }

    Abstraction {
        partition,
        copies,
        iterations,
    }
}

/// Splits the given concrete nodes into singleton blocks of an existing
/// abstraction and re-runs refinement to the fixpoint.
///
/// The counterexample-guided step of the failure sweep: when an
/// abstraction turns out to be unsound under a link-failure scenario, the
/// nodes adjacent to the failed links (or the members of the offending
/// block) are isolated so the abstract network can represent the asymmetry
/// the failure introduced, and refinement then propagates the split to any
/// block whose members now see different neighbor blocks. The result is
/// strictly finer than the input whenever any of the nodes shared a block.
pub fn refine_with_split(
    graph: &Graph,
    ec: &EcDest,
    sigs: &SigTable,
    abstraction: &Abstraction,
    split: &[NodeId],
) -> Abstraction {
    bonsai_obs::add("compress.refine.calls", 1);
    let mut partition = abstraction.partition.clone();
    for &u in split {
        partition.isolate(u.0);
    }
    find_abstraction_from(graph, ec, sigs, partition)
}

/// The reusable buffers of one [`find_abstraction_from`] run: every
/// `Refine` call writes its members' keys into them instead of allocating
/// a set per member.
#[derive(Default)]
struct RefineScratch {
    /// The members' keys back to back, each a sorted, de-duplicated run of
    /// `(edge signature << 32) | neighbor` words.
    keys: Vec<u64>,
    /// `ends[i]` is where member `i`'s run stops (it starts at `ends[i-1]`).
    ends: Vec<u32>,
    /// Member positions, sorted by key to find the groups.
    order: Vec<u32>,
    /// Group of each member position, numbered in first-seen order.
    group_of: Vec<u32>,
}

/// One `Refine` step (Algorithm 1, lines 14-22): group a block's members
/// by their outgoing (policy, neighbor) sets and split accordingly. Marks
/// every block whose keys the split may have changed in `stale`.
fn refine(
    graph: &Graph,
    partition: &mut Partition,
    block: BlockId,
    sigs: &SigTable,
    forall_forall: bool,
    scratch: &mut RefineScratch,
    stale: &mut Vec<bool>,
) {
    // Keys are computed against a snapshot of the current partition,
    // before any split is applied. A key is an order-insensitive set, so
    // each run is sorted and de-duplicated.
    scratch.keys.clear();
    scratch.ends.clear();
    for &m in partition.members(block) {
        let start = scratch.keys.len();
        for e in graph.out(NodeId(m)) {
            let v = graph.target(e);
            let neighbor = if forall_forall {
                // ∀∀: key on the concrete neighbor (paper line 19).
                v.0 | 0x8000_0000
            } else {
                // ∀∃: key on the neighbor's current abstract node.
                partition.block_of(v.0).0
            };
            scratch
                .keys
                .push(u64::from(sigs.sig_of_edge[e.index()]) << 32 | u64::from(neighbor));
        }
        scratch.keys[start..].sort_unstable();
        let mut kept = start;
        for i in start..scratch.keys.len() {
            if i == start || scratch.keys[i] != scratch.keys[kept - 1] {
                scratch.keys[kept] = scratch.keys[i];
                kept += 1;
            }
        }
        scratch.keys.truncate(kept);
        scratch.ends.push(kept as u32);
    }

    // The common case by far: every member agrees, nothing to split.
    let RefineScratch {
        keys,
        ends,
        order,
        group_of,
    } = scratch;
    let key = |member: u32| {
        let start = match member {
            0 => 0,
            m => ends[m as usize - 1] as usize,
        };
        &keys[start..ends[member as usize] as usize]
    };
    let members = ends.len() as u32;
    if (1..members).all(|m| key(m) == key(0)) {
        return;
    }

    // GroupKeysByValue by sorting member positions on (key, position):
    // equal keys become adjacent runs headed by their first-seen member,
    // and numbering the heads in position order numbers the groups in
    // first-seen order — which decides the block id each group gets.
    order.clear();
    order.extend(0..members);
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
    group_of.clear();
    group_of.resize(members as usize, 0);
    let mut head = order[0];
    for &at in order.iter() {
        if key(at) != key(head) {
            head = at;
        }
        // Until the heads are numbered, a member's group is its head.
        group_of[at as usize] = head;
    }
    let mut groups = 0u32;
    for at in 0..members as usize {
        let head = group_of[at] as usize;
        if head == at {
            group_of[at] = groups;
            groups += 1;
        } else {
            // A head precedes its group in position order: numbered.
            group_of[at] = group_of[head];
        }
    }

    let first = partition.split_block_by_groups(block, group_of, groups as usize);

    // The nodes that left `block` changed their block id; that can change
    // the key of exactly the nodes with an edge into them.
    let end = first.0 + groups - 1;
    stale.resize(end as usize, false);
    for fresh in (first.0..end).map(BlockId) {
        for &moved in partition.members(fresh) {
            for u in graph.predecessors(NodeId(moved)) {
                stale[partition.block_of(u.0).index()] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompiledPolicies;
    use crate::signatures::build_sig_table;
    use bonsai_config::BuiltTopology;
    use bonsai_srp::instance::OriginProto;
    use bonsai_srp::papernets;

    fn run(net: &bonsai_config::NetworkConfig, dest_name: &str) -> (BuiltTopology, Abstraction) {
        let topo = BuiltTopology::build(net).unwrap();
        let d = topo.graph.node_by_name(dest_name).unwrap();
        let ec = EcDest::new(
            papernets::DEST_PREFIX.parse().unwrap(),
            vec![(d, OriginProto::Bgp)],
        );
        let engine = CompiledPolicies::from_network(net, false);
        let sigs = build_sig_table(&engine, net, &topo, &ec);
        let abs = find_abstraction(&topo.graph, &ec, &sigs);
        (topo, abs)
    }

    /// Figure 1/2(c)-style shortest-path diamond: b1 and b2 merge; the
    /// abstraction is the 3-node chain of Figure 1(c).
    #[test]
    fn figure_1_compresses_to_three_roles() {
        let net = papernets::figure1_rip();
        let (topo, abs) = run(&net, "d");
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let b2 = topo.graph.node_by_name("b2").unwrap();
        let a = topo.graph.node_by_name("a").unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        assert_eq!(abs.role_of(b1), abs.role_of(b2));
        assert_ne!(abs.role_of(a), abs.role_of(b1));
        assert_ne!(abs.role_of(d), abs.role_of(b1));
        assert_eq!(abs.partition.block_count(), 3);
        // No local-pref policy: single copy each → 3 abstract nodes.
        assert_eq!(abs.abstract_node_count(), 3);
        // Edges: d̂—b̂ and b̂—â, directed both ways = 4.
        assert_eq!(abs.abstract_edge_count(&topo.graph), 4);
    }

    /// The Figure 2 gadget: refinement reaches {d}, {a}, {b1,b2,b3} (the
    /// walk-through of Figure 3), then BGP case splitting doubles the b
    /// role because prefs = {100, 200}. Final: 4 abstract nodes, 8
    /// directed edges (4 links — the "4 total edges" of the paper).
    #[test]
    fn figure_2_gadget_splits_into_two_b_copies() {
        let net = papernets::figure2_gadget();
        let (topo, abs) = run(&net, "d");
        let b: Vec<NodeId> = ["b1", "b2", "b3"]
            .iter()
            .map(|n| topo.graph.node_by_name(n).unwrap())
            .collect();
        // One role for all three b's.
        assert_eq!(abs.role_of(b[0]), abs.role_of(b[1]));
        assert_eq!(abs.role_of(b[1]), abs.role_of(b[2]));
        assert_eq!(abs.partition.block_count(), 3);
        // The b role gets 2 copies (|prefs| = |{100, 200}| = 2).
        assert_eq!(abs.copies[abs.role_of(b[0]).index()], 2);
        assert_eq!(abs.abstract_node_count(), 4);
        // Links: b̂a—â, b̂n—â, b̂a—d̂, b̂n—d̂ = 4 links = 8 directed edges.
        assert_eq!(abs.abstract_edge_count(&topo.graph), 8);
    }

    /// Origins never receive extra copies, and different-policy middles
    /// split topologically (the Figure 3(a) → 3(b) step).
    #[test]
    fn topological_refinement_separates_a_from_bs() {
        let net = papernets::figure2_gadget();
        let (topo, abs) = run(&net, "d");
        let a = topo.graph.node_by_name("a").unwrap();
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        assert_ne!(abs.role_of(a), abs.role_of(b1));
        assert_eq!(abs.copies[abs.role_of(d).index()], 1);
        assert_eq!(abs.copies[abs.role_of(a).index()], 1);
        assert!(abs.iterations >= 2);
    }

    /// `refine_with_split` isolates the requested nodes and restores the
    /// fixpoint; splitting a node of a merged block leaves the remainder
    /// intact and recomputes BGP copies per block.
    #[test]
    fn split_refinement_isolates_and_refixpoints() {
        let net = papernets::figure2_gadget();
        let topo = BuiltTopology::build(&net).unwrap();
        let d = topo.graph.node_by_name("d").unwrap();
        let ec = EcDest::new(
            papernets::DEST_PREFIX.parse().unwrap(),
            vec![(d, OriginProto::Bgp)],
        );
        let engine = CompiledPolicies::from_network(&net, false);
        let sigs = build_sig_table(&engine, &net, &topo, &ec);
        let abs = find_abstraction(&topo.graph, &ec, &sigs);
        assert_eq!(abs.partition.block_count(), 3);

        let b1 = topo.graph.node_by_name("b1").unwrap();
        let b2 = topo.graph.node_by_name("b2").unwrap();
        let refined = refine_with_split(&topo.graph, &ec, &sigs, &abs, &[b1]);
        assert_eq!(refined.partition.block_count(), 4);
        assert_eq!(refined.partition.members(refined.role_of(b1)), &[b1.0]);
        // The remainder {b2, b3} still shares a block…
        let b3 = topo.graph.node_by_name("b3").unwrap();
        assert_eq!(refined.role_of(b2), refined.role_of(b3));
        // …with recomputed copies: prefs {100,200} but only 2 members for
        // the remainder, 1 for the singleton.
        assert_eq!(refined.copies[refined.role_of(b2).index()], 2);
        assert_eq!(refined.copies[refined.role_of(b1).index()], 1);
        // Splitting every node degenerates to the discrete partition.
        let all: Vec<NodeId> = topo.graph.nodes().collect();
        let discrete = refine_with_split(&topo.graph, &ec, &sigs, &abs, &all);
        assert_eq!(discrete.partition.block_count(), topo.graph.node_count());
        assert_eq!(discrete.abstract_node_count(), topo.graph.node_count());
    }

    /// Figure 5: a, b1, b2 all play different roles (different policies),
    /// so the abstraction cannot compress this 4-node network.
    #[test]
    fn figure_5_has_no_symmetry() {
        let net = papernets::figure5_bgp();
        let (_topo, abs) = run(&net, "d");
        assert_eq!(abs.partition.block_count(), 4);
        assert_eq!(abs.abstract_node_count(), 4);
    }
}
