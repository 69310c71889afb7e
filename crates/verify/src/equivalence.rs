//! Executable CP-equivalence: the bisimulation check of §2/§4, run on
//! actual solutions.
//!
//! Given a concrete network, a destination class, and the abstraction
//! produced for it, this module solves both SRPs and checks:
//!
//! * **label-equivalence** — `h(L(u)) = L̂(f(u))`, where `h` erases the
//!   concrete identity of path nodes (keeping protocol, local preference,
//!   communities, path *length*, MED and administrative kind — every field
//!   the comparison relation observes);
//! * **fwd-equivalence** — `u` forwards into block `B` iff `f(u)` forwards
//!   into a copy of `B`.
//!
//! For BGP-split blocks the node abstraction `f` is *solution-dependent*
//! (paper §4.3): a concrete member maps to whichever copy exhibits its
//! behavior. The check therefore matches each block's set of concrete
//! behaviors against its copies' behaviors. The abstract network may have
//! several stable solutions, and CP-equivalence promises only that *some*
//! of them corresponds; the check does not search for it but builds it the
//! way the paper's proof does (Theorem 4.5): each copy takes a concrete
//! member's label, mapped through the abstraction (`transport_sample`),
//! and the labelling is validated, not solved.

use bonsai_config::{BuiltTopology, Community, NetworkConfig};
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::algorithm::Abstraction;
use bonsai_net::partition::BlockId;
use bonsai_net::{FailureMask, NodeId};
use bonsai_srp::instance::{EcDest, MultiProtocol, RibAttr};
use bonsai_srp::solver::{solve_with_order, SolverOptions};
use bonsai_srp::{Solution, Srp};
use std::collections::{BTreeSet, HashMap};

/// Why CP-equivalence checking failed.
#[derive(Clone, Debug)]
pub enum EquivalenceError {
    /// The concrete instance did not converge.
    ConcreteDiverged(String),
    /// No abstract solution matched the concrete solution's behaviors.
    NoMatchingSolution {
        /// Human-readable mismatch report.
        detail: String,
    },
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::ConcreteDiverged(e) => write!(f, "concrete diverged: {e}"),
            EquivalenceError::NoMatchingSolution { detail } => {
                write!(f, "no abstract solution matches: {detail}")
            }
        }
    }
}

/// The observable content of a label under the attribute abstraction `h`:
/// everything except concrete node identities in the path.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) enum HLabel {
    /// No route.
    Bottom,
    /// A static route.
    Static,
    /// A BGP route: `(lp, communities, path length, med, from_ibgp)`.
    Bgp(u32, Vec<Community>, usize, u32, bool),
    /// An OSPF route: `(cost, inter_area)`.
    Ospf(u32, bool),
}

impl HLabel {
    /// Applies `h` to a label. `keep` restricts the observed communities
    /// to the modeled set (the unused-tag-stripping `h` of §8); `None`
    /// keeps them all.
    pub(crate) fn of(label: Option<&RibAttr>, keep: Option<&BTreeSet<Community>>) -> HLabel {
        match label {
            None => HLabel::Bottom,
            Some(RibAttr::Static) => HLabel::Static,
            Some(RibAttr::Bgp(a)) => HLabel::Bgp(
                a.lp,
                a.comms
                    .iter()
                    .copied()
                    .filter(|c| keep.is_none_or(|k| k.contains(c)))
                    .collect(),
                a.path.len(),
                a.med,
                a.from_ibgp,
            ),
            Some(RibAttr::Ospf(o)) => HLabel::Ospf(o.cost, o.inter_area),
        }
    }
}

/// A node's observable behavior in a solution: the `h`-image of its set
/// of ≈-minimal choices (labels it may equally well hold — comparing the
/// whole set makes the check independent of how ties were broken; this is
/// the paper's *choice-equivalence*, Definition A.1, restricted to minimal
/// elements) plus the set of blocks it forwards into.
///
/// A check compares behaviors as ids of its [`BehaviorTable`]; this value
/// form is read back from the table only to render a [`BehaviorMismatch`]
/// and to order behaviors where the order is observable (the deviating
/// split's tie-break).
pub(crate) type Behavior = (BTreeSet<HLabel>, BTreeSet<u32>);

/// A structured behavior mismatch: which block failed the comparison, and
/// a human-readable description. A failure-sweep derivation uses the
/// block to choose a refinement split when no failed-link endpoint is
/// available.
#[derive(Clone, Debug)]
pub(crate) struct BehaviorMismatch {
    /// The block whose concrete and abstract behavior sets disagree.
    pub block: BlockId,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The abstract side's behavior set for the block, as sorted ids of the
    /// check's [`BehaviorTable`] (empty when the abstract network lacks the
    /// block entirely). The sweep engine's deviating-member split compares
    /// each concrete member against this set to refine only the members the
    /// abstraction cannot mirror.
    pub(crate) abs_behaviors: Vec<u32>,
}

/// The behaviors of one check, interned: an `h`-label is an id, and a
/// behavior — its sorted label ids and its sorted forwarding blocks — is an
/// id, so a block's behavior set is a sorted id slice ([`BlockSets`]) and
/// comparing two sets is comparing two slices. Ids mean nothing outside
/// the table that issued them; one table lives as long as one check.
#[derive(Default)]
pub(crate) struct BehaviorTable {
    label_ids: HashMap<HLabel, u32>,
    labels: Vec<HLabel>,
    behavior_ids: HashMap<Vec<u32>, u32>,
    /// Per behavior id, its key: the label count, the label ids, then the
    /// forwarding blocks.
    behaviors: Vec<Vec<u32>>,
    // Scratch buffers, reused by every lookup.
    comms: Vec<Community>,
    ids: Vec<u32>,
    blocks: Vec<u32>,
    key: Vec<u32>,
}

impl BehaviorTable {
    /// The id of `h(attr)`: the observed communities are collected into a
    /// reused buffer, so a label seen before costs no allocation.
    fn label_id(&mut self, attr: &RibAttr, keep: Option<&BTreeSet<Community>>) -> u32 {
        let label = match attr {
            RibAttr::Bgp(a) => {
                let mut comms = std::mem::take(&mut self.comms);
                comms.clear();
                let kept = a
                    .comms
                    .iter()
                    .filter(|c| keep.is_none_or(|k| k.contains(c)));
                comms.extend(kept);
                HLabel::Bgp(a.lp, comms, a.path.len(), a.med, a.from_ibgp)
            }
            other => HLabel::of(Some(other), keep),
        };
        let id = match self.label_ids.get(&label) {
            Some(&id) => id,
            None => {
                let id = self.labels.len() as u32;
                self.label_ids.insert(label.clone(), id);
                self.labels.push(label.clone());
                id
            }
        };
        if let HLabel::Bgp(_, comms, ..) = label {
            self.comms = comms;
        }
        id
    }

    /// The behavior id of node `u` under `solution`: `srp` and `mask` are
    /// the instance and mask it was solved under, `block_of` names the
    /// block a forwarding target stands for.
    ///
    /// The ≈-minimal choices are read off the validated forwarding:
    /// `solution.fwd(u)` is exactly the edges of `u`'s ≈-minimal surviving
    /// choices — the solver built it from that choice set under this
    /// instance and `mask` — so only those offers are evaluated. Origins
    /// contribute their pinned label, unrouted nodes none. Debug builds
    /// check the labels against the whole choice set.
    fn behavior_id<P: bonsai_srp::Protocol<Attr = RibAttr>>(
        &mut self,
        srp: &Srp<'_, P>,
        solution: &Solution<RibAttr>,
        u: NodeId,
        keep: Option<&BTreeSet<Community>>,
        mask: Option<&FailureMask>,
        block_of: impl Fn(NodeId) -> u32,
    ) -> u32 {
        self.ids.clear();
        self.blocks.clear();
        if let Some(label) = solution.label(u) {
            if srp.is_origin(u) {
                let id = self.label_id(label, keep);
                self.ids.push(id);
            } else {
                for &e in solution.fwd(u) {
                    let v = srp.graph.target(e);
                    let offer = srp
                        .protocol
                        .transfer(e, solution.labels[v.index()].as_ref())
                        .expect("a forwarding edge carries an offer");
                    let id = self.label_id(&offer, keep);
                    self.ids.push(id);
                }
                debug_assert_eq!(
                    self.ids
                        .iter()
                        .map(|&id| self.labels[id as usize].clone())
                        .collect::<BTreeSet<HLabel>>(),
                    srp.choices_masked(&solution.labels, u, mask)
                        .iter()
                        .filter(|(_, a)| srp.equally_good(a, label))
                        .map(|(_, a)| HLabel::of(Some(a), keep))
                        .collect::<BTreeSet<HLabel>>(),
                    "the forwarding of {u:?} is its ≈-minimal choice set"
                );
            }
        }
        self.blocks.extend(
            solution
                .fwd(u)
                .iter()
                .map(|&e| block_of(srp.graph.target(e))),
        );
        for set in [&mut self.ids, &mut self.blocks] {
            set.sort_unstable();
            set.dedup();
        }
        self.key.clear();
        self.key.push(self.ids.len() as u32);
        self.key.extend_from_slice(&self.ids);
        self.key.extend_from_slice(&self.blocks);
        if let Some(&id) = self.behavior_ids.get(self.key.as_slice()) {
            return id;
        }
        let id = self.behaviors.len() as u32;
        self.behavior_ids.insert(self.key.clone(), id);
        self.behaviors.push(self.key.clone());
        id
    }

    /// The behavior an id stands for.
    pub(crate) fn behavior(&self, id: u32) -> Behavior {
        let key = &self.behaviors[id as usize];
        let (labels, blocks) = key[1..].split_at(key[0] as usize);
        let labels = labels.iter().map(|&l| self.labels[l as usize].clone());
        (labels.collect(), blocks.iter().copied().collect())
    }

    /// The behavior of every concrete node under a solution, in node order:
    /// the per-node raw material of the per-block sets
    /// ([`BlockSets::of_nodes`]), kept so the sweep engine can split exactly
    /// the members whose behavior the abstract side cannot realize. `srp`
    /// and `mask` are the instance and mask the solution was solved under.
    pub(crate) fn concrete<P: bonsai_srp::Protocol<Attr = RibAttr>>(
        &mut self,
        srp: &Srp<'_, P>,
        topo: &BuiltTopology,
        solution: &Solution<RibAttr>,
        abstraction: &Abstraction,
        keep: Option<&BTreeSet<Community>>,
        mask: Option<&FailureMask>,
    ) -> Vec<u32> {
        let block_of = |v| abstraction.role_of(v).0;
        (topo.graph.nodes())
            .map(|u| self.behavior_id(srp, solution, u, keep, mask, block_of))
            .collect()
    }

    /// The per-block behavior sets of an abstract network under a
    /// solution; `srp` and `mask` are the network's instance and the mask
    /// the solution was solved under, `abs` its layout.
    pub(crate) fn abstract_sets(
        &mut self,
        abs: &AbstractLayout,
        srp: &Srp<'_, MultiProtocol<'_>>,
        solution: &Solution<RibAttr>,
        keep: Option<&BTreeSet<Community>>,
        mask: Option<&FailureMask>,
    ) -> BlockSets {
        let block_of = |v: NodeId| abs.copy_of_node[v.index()].0 .0;
        let pairs = (srp.graph.nodes())
            .map(|n| {
                let behavior = self.behavior_id(srp, solution, n, keep, mask, block_of);
                (block_of(n), behavior)
            })
            .collect();
        BlockSets::new(pairs)
    }

    /// The mismatch at `block`, the first block [`BlockSets::first_mismatch`]
    /// names: either the abstract side lacks it, or the first concrete
    /// behavior (in behavior order) no copy realizes, else the first copy
    /// behavior no concrete member has (onto-ness of `f_r`, adjusted as in
    /// Theorem 4.5: spare copies may duplicate an existing behavior).
    pub(crate) fn mismatch(
        &self,
        block: BlockId,
        concrete: &BlockSets,
        abstract_sets: &BlockSets,
    ) -> BehaviorMismatch {
        let abs_behaviors = abstract_sets.block(block).to_vec();
        if abs_behaviors.is_empty() {
            return BehaviorMismatch {
                block,
                detail: format!("abstract network lacks block {block:?}"),
                abs_behaviors,
            };
        }
        let set = |ids: &[u32]| -> BTreeSet<Behavior> {
            ids.iter().map(|&id| self.behavior(id)).collect()
        };
        let (cset, aset) = (set(concrete.block(block)), set(&abs_behaviors));
        let detail = match cset.iter().find(|b| !aset.contains(b)) {
            Some(b) => format!(
                "block {block:?}: concrete behavior {b:?} not realized by any copy \
                 (abstract behaviors: {aset:?})"
            ),
            None => {
                let b = aset.iter().find(|b| !cset.contains(b));
                let b = b.expect("the mismatched sets differ");
                format!(
                    "block {block:?}: abstract copy behavior {b:?} has no concrete witness \
                     (concrete behaviors: {cset:?})"
                )
            }
        };
        BehaviorMismatch {
            block,
            detail,
            abs_behaviors,
        }
    }
}

/// The per-block behavior sets of one solution, as ids of one
/// [`BehaviorTable`]: block `b`'s set is `ids[start[b]..start[b + 1]]`,
/// sorted and deduplicated, and empty for a block no node stands in.
#[derive(Clone, Debug)]
pub(crate) struct BlockSets {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl BlockSets {
    /// From `(block, behavior)` pairs, in any order and with repeats.
    fn new(mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let blocks = pairs.last().map_or(0, |&(b, _)| b as usize + 1);
        let mut start = vec![0u32; blocks + 1];
        for &(b, _) in &pairs {
            start[b as usize + 1] += 1;
        }
        for b in 0..blocks {
            start[b + 1] += start[b];
        }
        let ids = pairs.into_iter().map(|(_, id)| id).collect();
        BlockSets { start, ids }
    }

    /// The concrete side's sets: each node's behavior ([`BehaviorTable::concrete`])
    /// in its block.
    pub(crate) fn of_nodes(node_behaviors: &[u32], abstraction: &Abstraction) -> Self {
        let block = |u: usize| abstraction.role_of(NodeId(u as u32)).0;
        let pairs = node_behaviors.iter().enumerate();
        BlockSets::new(pairs.map(|(u, &id)| (block(u), id)).collect())
    }

    fn block(&self, block: BlockId) -> &[u32] {
        match self.start.get(block.index()..block.index() + 2) {
            Some(&[from, to]) => &self.ids[from as usize..to as usize],
            _ => &[],
        }
    }

    /// CP-equivalence of one solution pair: concrete block behaviors
    /// (`self`) must coincide with the copies' behaviors — every concrete
    /// behavior realized by a copy (label- and fwd-equivalence for some
    /// refinement `f_r`), and no copy exhibiting a behavior no concrete
    /// member has. `None` when they do, else the first block, in block
    /// order, where they do not ([`BehaviorTable::mismatch`] renders it).
    pub(crate) fn first_mismatch(&self, abstract_sets: &BlockSets) -> Option<BlockId> {
        (0..self.start.len() - 1)
            .map(|b| BlockId(b as u32))
            .find(|&b| {
                let concrete = self.block(b);
                !concrete.is_empty() && concrete != abstract_sets.block(b)
            })
    }
}

/// The shared activation-order scheme of every solution sampler in this
/// crate: the node list rotated left by `rot`, reversed on every second
/// wrap. The equivalence oracle and the sweep engine MUST both draw
/// orders from this one function — the sweep's cache
/// determinism ("a cache hit is byte-identical to a fresh derivation")
/// rests on the samplers staying in lockstep.
pub(crate) fn rotated_order(nodes: &[NodeId], rot: usize) -> Vec<NodeId> {
    let n = nodes.len().max(1);
    let mut order = nodes.to_vec();
    order.rotate_left(rot % n);
    if rot / n % 2 == 1 {
        order.reverse();
    }
    order
}

/// The SRP instance of one destination class over a (concrete or
/// abstract) network.
pub(crate) fn class_srp<'n>(
    network: &'n NetworkConfig,
    topo: &'n BuiltTopology,
    ec: &EcDest,
) -> Srp<'n, MultiProtocol<'n>> {
    let origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
    Srp::with_origins(
        &topo.graph,
        origins,
        MultiProtocol::build(network, topo, ec),
    )
}

/// The class's SRP instance over an abstract network's layout: the lifted
/// instance ([`AbstractLayout::instance`]), equal to the one the rendered
/// configuration parses into.
pub(crate) fn layout_srp<'n>(
    network: &'n NetworkConfig,
    topo: &BuiltTopology,
    layout: &'n AbstractLayout,
) -> Srp<'n, MultiProtocol<'n>> {
    let origins: Vec<NodeId> = layout.ec.origins.iter().map(|(n, _)| *n).collect();
    Srp::with_origins(&layout.graph, origins, layout.instance(network, topo))
}

/// The paper's witness for one concrete sample (Theorem 4.5): the abstract
/// labelling built from `sample` through the abstraction, validated on the
/// abstract instance `abs_srp` under `abs_mask` and compared by behavior.
/// No abstract instance is solved.
///
/// Each block's members are grouped by behavior (`node_behaviors`, the
/// sample's per-node ids in `behaviors`, as [`BehaviorTable::concrete`]
/// returns them), in member order. A block with more groups than copies
/// refutes the sample; otherwise copy `c` takes the label of the first
/// member of group `min(c, groups − 1)`, and every BGP path entry names the
/// copy of its concrete node's group. `concrete` is the sample's per-block
/// sets ([`BlockSets::of_nodes`]). `Err` carries the refutation's detail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transport_sample(
    behaviors: &mut BehaviorTable,
    sample: &Solution<RibAttr>,
    node_behaviors: &[u32],
    concrete: &BlockSets,
    abstraction: &Abstraction,
    abs: &AbstractLayout,
    abs_srp: &Srp<'_, MultiProtocol<'_>>,
    abs_mask: Option<&FailureMask>,
    keep: Option<&BTreeSet<Community>>,
) -> Result<(), String> {
    // Per concrete node, the copy of its group; per abstract node, the
    // member whose label it takes.
    let mut copy_of = vec![0u32; node_behaviors.len()];
    let mut source = vec![0u32; abs.graph.node_count()];
    let mut groups: Vec<(u32, u32)> = Vec::new();
    for block in abstraction.partition.blocks() {
        groups.clear();
        for &m in abstraction.partition.members(block) {
            let behavior = node_behaviors[m as usize];
            let group = match groups.iter().position(|&(b, _)| b == behavior) {
                Some(group) => group,
                None => {
                    groups.push((behavior, m));
                    groups.len() - 1
                }
            };
            copy_of[m as usize] = group as u32;
        }
        let copies = abstraction.copies[block.index()];
        if groups.len() > copies as usize {
            return Err(format!(
                "block {block:?}: {} concrete behaviors, copies: {copies}",
                groups.len()
            ));
        }
        for c in 0..copies {
            let (_, member) = groups[(c as usize).min(groups.len() - 1)];
            source[abs.node_of(block, c).index()] = member;
        }
    }
    let node = |u: NodeId| abs.node_of(abstraction.role_of(u), copy_of[u.index()]);
    let labels = source.iter().map(|&m| {
        let mut label = sample.labels[m as usize].clone();
        if let Some(RibAttr::Bgp(b)) = &mut label {
            b.path.iter_mut().for_each(|p| *p = node(*p));
        }
        label
    });
    let witness = (abs_srp.solution_from_labels_masked(labels.collect(), abs_mask))
        .map_err(|e| format!("the transported labelling is not stable: {e}"))?;
    let sets = behaviors.abstract_sets(abs, abs_srp, &witness, keep, abs_mask);
    match concrete.first_mismatch(&sets) {
        None => Ok(()),
        Some(block) => Err(behaviors.mismatch(block, concrete, &sets).detail),
    }
}

/// End-to-end CP-equivalence check for one destination class: solves the
/// concrete network under `concrete_orders` different activation orders
/// and requires every resulting solution to transport onto a stable
/// abstract solution with the same per-block behaviors
/// (`transport_sample`): label- and fwd-equivalence modulo `h` and the
/// copy assignment. Identical concrete samples are checked once, and no
/// abstract instance is solved.
///
/// The abstract side is `layout`, the abstract network of `abstraction`:
/// the check validates on its lifted instance ([`AbstractLayout::instance`],
/// what the rendered configuration parses into) and renders nothing.
///
/// The attribute abstraction `h` is taken **from `engine`** — the
/// compression run's shared policy-compilation engine
/// (`CompressionReport::policies`): an engine built with
/// `strip_unused_communities` models exactly the matched-community
/// universe, so labels are compared modulo unused tags iff the
/// compression itself stripped them (the `h` of the paper's data-center
/// study) and the two can never disagree. `None` compares every
/// community.
pub fn check_cp_equivalence(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    layout: &AbstractLayout,
    concrete_orders: usize,
    engine: Option<&bonsai_core::engine::CompiledPolicies>,
) -> Result<(), EquivalenceError> {
    let keep: Option<BTreeSet<Community>> = engine
        .filter(|e| e.strips_unused_communities())
        .map(|e| e.communities().iter().copied().collect());
    let keep = keep.as_ref();
    let srp = class_srp(network, topo, ec);
    let abs_srp = layout_srp(network, topo, layout);
    let nodes: Vec<NodeId> = topo.graph.nodes().collect();
    let mut behaviors = BehaviorTable::default();
    let mut samples: Vec<Solution<RibAttr>> = Vec::new();
    for rot in 0..concrete_orders.max(1) {
        let order = rotated_order(&nodes, rot);
        let solution = solve_with_order(&srp, &order, SolverOptions::default())
            .map_err(|e| EquivalenceError::ConcreteDiverged(e.to_string()))?;
        if samples.contains(&solution) {
            continue;
        }
        let node_behaviors = behaviors.concrete(&srp, topo, &solution, abstraction, keep, None);
        let concrete = BlockSets::of_nodes(&node_behaviors, abstraction);
        transport_sample(
            &mut behaviors,
            &solution,
            &node_behaviors,
            &concrete,
            abstraction,
            layout,
            &abs_srp,
            None,
            keep,
        )
        .map_err(|detail| EquivalenceError::NoMatchingSolution { detail })?;
        samples.push(solution);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_core::compress::{compress, CompressOptions};
    use bonsai_srp::papernets;

    fn check_network(net: &NetworkConfig) {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        for ec in &report.per_ec {
            let ec_dest = ec.ec.to_ec_dest();
            // Reuse the compression run's shared engine (the same manager)
            // rather than rescanning the network.
            check_cp_equivalence(
                net,
                &topo,
                &ec_dest,
                &ec.abstraction,
                &ec.abstract_network,
                8,
                Some(&report.policies),
            )
            .unwrap_or_else(|e| panic!("CP-equivalence failed for {}: {e}", ec.ec.rep));
        }
    }

    #[test]
    fn figure1_cp_equivalent() {
        check_network(&papernets::figure1_rip());
    }

    #[test]
    fn figure2_gadget_cp_equivalent() {
        check_network(&papernets::figure2_gadget());
    }

    #[test]
    fn figure5_cp_equivalent() {
        check_network(&papernets::figure5_bgp());
    }

    /// The naive gadget abstraction of Figure 2(b) — all three b's merged
    /// into ONE copy — must fail the equivalence check (it cannot express
    /// the direct/indirect behavior split).
    #[test]
    fn naive_gadget_abstraction_fails() {
        let net = papernets::figure2_gadget();
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions::default());
        let ec = &report.per_ec[0];
        let ec_dest = ec.ec.to_ec_dest();

        // Sabotage: force one copy for every block (Figure 2(b)).
        let mut naive = ec.abstraction.clone();
        for c in naive.copies.iter_mut() {
            *c = 1;
        }
        let naive_layout = AbstractLayout::new(&topo.graph, &ec_dest, &naive);
        let result = check_cp_equivalence(&net, &topo, &ec_dest, &naive, &naive_layout, 4, None);
        // The b's show two behaviors (direct and indirect), one copy can
        // hold only one.
        let refused = result.expect_err("the unsound single-copy abstraction must be rejected");
        assert!(
            refused
                .to_string()
                .contains("2 concrete behaviors, copies: 1"),
            "{refused}"
        );
    }
}
