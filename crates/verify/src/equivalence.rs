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
//! behaviors against its copies' behaviors, and — because the abstract
//! network may itself have several stable solutions — retries abstract
//! activation orders until one matches (CP-equivalence promises only that
//! *some* abstract solution corresponds).

use bonsai_config::{BuiltTopology, Community, NetworkConfig};
use bonsai_core::abstraction::AbstractNetwork;
use bonsai_core::algorithm::Abstraction;
use bonsai_net::partition::BlockId;
use bonsai_net::{FailureMask, NodeId};
use bonsai_srp::instance::{EcDest, MultiProtocol, RibAttr};
use bonsai_srp::solver::{solve_with_order, SolverOptions};
use bonsai_srp::{Solution, Srp};
use std::collections::{BTreeMap, BTreeSet};

/// Why CP-equivalence checking failed.
#[derive(Clone, Debug)]
pub enum EquivalenceError {
    /// The concrete instance did not converge.
    ConcreteDiverged(String),
    /// The abstract instance did not converge.
    AbstractDiverged(String),
    /// No abstract solution (over the tried activation orders) matched the
    /// concrete solution's behaviors.
    NoMatchingSolution {
        /// Human-readable mismatch report for the closest attempt.
        detail: String,
    },
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::ConcreteDiverged(e) => write!(f, "concrete diverged: {e}"),
            EquivalenceError::AbstractDiverged(e) => write!(f, "abstract diverged: {e}"),
            EquivalenceError::NoMatchingSolution { detail } => {
                write!(f, "no abstract solution matches: {detail}")
            }
        }
    }
}

/// The observable content of a label under the attribute abstraction `h`:
/// everything except concrete node identities in the path.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
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
    fn of(label: Option<&RibAttr>, keep: Option<&BTreeSet<Community>>) -> HLabel {
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
pub(crate) type Behavior = (BTreeSet<HLabel>, BTreeSet<u32>);

/// A structured behavior mismatch: which block failed the comparison, and
/// a human-readable description. The failure auditor uses the block to
/// choose a refinement split when no failed-link endpoint is available.
#[derive(Clone, Debug)]
pub(crate) struct BehaviorMismatch {
    /// The block whose concrete and abstract behavior sets disagree.
    pub block: BlockId,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The abstract side's behavior set for the block (empty when the
    /// abstract network lacks the block entirely). The sweep engine's
    /// deviating-member split compares each concrete member against this
    /// set to refine only the members the abstraction cannot mirror.
    pub(crate) abs_behaviors: BTreeSet<Behavior>,
}

/// The shared activation-order scheme of every solution sampler in this
/// crate: the node list rotated left by `rot`, reversed on every second
/// wrap. The equivalence oracle, the failure auditor and the sweep engine
/// MUST all draw orders from this one function — the sweep's cache
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

/// The ≈-minimal choice set of a node under a solution, as `h`-labels.
/// Origins contribute their pinned label; unrouted nodes the empty set.
///
/// Read off the validated forwarding: `solution.fwd(u)` is exactly the
/// edges of `u`'s ≈-minimal surviving choices — the solver built it from
/// that choice set under this instance and `mask` — so only those offers
/// are evaluated. Debug builds check the result against the whole choice
/// set.
fn minimal_hlabels<P: bonsai_srp::Protocol<Attr = RibAttr>>(
    srp: &Srp<'_, P>,
    solution: &Solution<RibAttr>,
    u: NodeId,
    keep: Option<&BTreeSet<Community>>,
    mask: Option<&FailureMask>,
) -> BTreeSet<HLabel> {
    let Some(label) = solution.label(u) else {
        return BTreeSet::new();
    };
    if srp.is_origin(u) {
        return BTreeSet::from([HLabel::of(Some(label), keep)]);
    }
    let offer = |e| {
        let v = srp.graph.target(e);
        srp.protocol
            .transfer(e, solution.labels[v.index()].as_ref())
            .expect("a forwarding edge carries an offer")
    };
    let out: BTreeSet<HLabel> = solution
        .fwd(u)
        .iter()
        .map(|&e| HLabel::of(Some(&offer(e)), keep))
        .collect();
    debug_assert_eq!(
        out,
        srp.choices_masked(&solution.labels, u, mask)
            .iter()
            .filter(|(_, a)| srp.equally_good(a, label))
            .map(|(_, a)| HLabel::of(Some(a), keep))
            .collect::<BTreeSet<HLabel>>(),
        "the forwarding of {u:?} is its ≈-minimal choice set"
    );
    out
}

/// The behavior of every concrete node under a solution, in node order:
/// the per-node raw material of the per-block behavior sets, kept
/// unaggregated so the sweep engine can split exactly the members whose
/// behavior the abstract side cannot realize. `srp` and `mask` are the
/// instance and mask the solution was solved under.
pub(crate) fn concrete_node_behaviors<P: bonsai_srp::Protocol<Attr = RibAttr>>(
    srp: &Srp<'_, P>,
    topo: &BuiltTopology,
    solution: &Solution<RibAttr>,
    abstraction: &Abstraction,
    keep: Option<&BTreeSet<Community>>,
    mask: Option<&FailureMask>,
) -> Vec<(NodeId, Behavior)> {
    topo.graph
        .nodes()
        .map(|u| {
            let labels = minimal_hlabels(srp, solution, u, keep, mask);
            let fwd_blocks: BTreeSet<u32> = solution
                .fwd(u)
                .iter()
                .map(|&e| abstraction.role_of(topo.graph.target(e)).0)
                .collect();
            (u, (labels, fwd_blocks))
        })
        .collect()
}

/// Aggregates per-node behaviors into per-block behavior sets.
pub(crate) fn aggregate_behaviors(
    node_behaviors: &[(NodeId, Behavior)],
    abstraction: &Abstraction,
) -> BTreeMap<BlockId, BTreeSet<Behavior>> {
    let mut map: BTreeMap<BlockId, BTreeSet<Behavior>> = BTreeMap::new();
    for (u, behavior) in node_behaviors {
        map.entry(abstraction.role_of(*u))
            .or_default()
            .insert(behavior.clone());
    }
    map
}

/// The per-block behavior sets of an abstract network under a solution;
/// `srp` and `mask` are the instance of `abs` and the mask the solution
/// was solved under.
pub(crate) fn abstract_behaviors(
    abs: &AbstractNetwork,
    srp: &Srp<'_, MultiProtocol<'_>>,
    solution: &Solution<RibAttr>,
    keep: Option<&BTreeSet<Community>>,
    mask: Option<&FailureMask>,
) -> BTreeMap<BlockId, BTreeSet<Behavior>> {
    let mut map: BTreeMap<BlockId, BTreeSet<Behavior>> = BTreeMap::new();
    for n in abs.topo.graph.nodes() {
        let (block, _copy) = abs.copy_of_node[n.index()];
        let labels = minimal_hlabels(srp, solution, n, keep, mask);
        let fwd_blocks: BTreeSet<u32> = solution
            .fwd(n)
            .iter()
            .map(|&e| abs.copy_of_node[abs.topo.graph.target(e).index()].0 .0)
            .collect();
        map.entry(block).or_default().insert((labels, fwd_blocks));
    }
    map
}

/// Whether an abstract solution's labeling is new to `tried`, recording it:
/// equal labelings have equal forwarding and behaviors, so a repeat would
/// only repeat the comparison.
pub(crate) fn first_sighting(
    tried: &mut Vec<Vec<Option<RibAttr>>>,
    solution: &Solution<RibAttr>,
) -> bool {
    if tried.contains(&solution.labels) {
        return false;
    }
    tried.push(solution.labels.clone());
    true
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

/// Checks CP-equivalence of a concrete solution against the abstract
/// network, trying up to `orders` abstract activation orders.
///
/// Returns `Ok(())` when some abstract solution is label- and
/// fwd-equivalent to the given concrete solution (modulo `h` and the
/// copy assignment). `srp` and `abs_srp` are the concrete and abstract
/// instances, built once by the caller for every order.
#[allow(clippy::too_many_arguments)]
fn check_solution_equivalence(
    srp: &Srp<'_, MultiProtocol<'_>>,
    topo: &BuiltTopology,
    concrete_solution: &Solution<RibAttr>,
    abstraction: &Abstraction,
    abs: &AbstractNetwork,
    abs_srp: &Srp<'_, MultiProtocol<'_>>,
    orders: usize,
    keep: Option<&BTreeSet<Community>>,
) -> Result<(), EquivalenceError> {
    let concrete = aggregate_behaviors(
        &concrete_node_behaviors(srp, topo, concrete_solution, abstraction, keep, None),
        abstraction,
    );

    let nodes: Vec<NodeId> = abs.topo.graph.nodes().collect();
    let mut last_detail = String::new();
    let mut tried = Vec::new();

    for rot in 0..orders.max(1) {
        let order = rotated_order(&nodes, rot);
        let abs_solution = match solve_with_order(abs_srp, &order, SolverOptions::default()) {
            Ok(s) => s,
            Err(e) => return Err(EquivalenceError::AbstractDiverged(e.to_string())),
        };
        if !first_sighting(&mut tried, &abs_solution) {
            continue;
        }

        let abstract_b = abstract_behaviors(abs, abs_srp, &abs_solution, keep, None);
        match behaviors_match(&concrete, &abstract_b) {
            Ok(()) => return Ok(()),
            Err(mismatch) => last_detail = mismatch.detail,
        }
    }
    Err(EquivalenceError::NoMatchingSolution {
        detail: last_detail,
    })
}

/// Concrete block behaviors must coincide with the copies' behaviors:
/// every concrete behavior is realized by a copy (label- and
/// fwd-equivalence for some refinement `f_r`), and no copy exhibits a
/// behavior no concrete member has (onto-ness of `f_r`, adjusted as in
/// Theorem 4.5: spare copies may duplicate an existing behavior).
pub(crate) fn behaviors_match(
    concrete: &BTreeMap<BlockId, BTreeSet<Behavior>>,
    abstract_b: &BTreeMap<BlockId, BTreeSet<Behavior>>,
) -> Result<(), BehaviorMismatch> {
    for (block, cset) in concrete {
        let Some(aset) = abstract_b.get(block) else {
            return Err(BehaviorMismatch {
                block: *block,
                detail: format!("abstract network lacks block {block:?}"),
                abs_behaviors: BTreeSet::new(),
            });
        };
        for b in cset {
            if !aset.contains(b) {
                return Err(BehaviorMismatch {
                    block: *block,
                    detail: format!(
                        "block {block:?}: concrete behavior {b:?} not realized by any copy \
                         (abstract behaviors: {aset:?})"
                    ),
                    abs_behaviors: aset.clone(),
                });
            }
        }
        for b in aset {
            if !cset.contains(b) {
                return Err(BehaviorMismatch {
                    block: *block,
                    detail: format!(
                        "block {block:?}: abstract copy behavior {b:?} has no concrete witness \
                         (concrete behaviors: {cset:?})"
                    ),
                    abs_behaviors: aset.clone(),
                });
            }
        }
    }
    Ok(())
}

/// End-to-end CP-equivalence check for one destination class: solves the
/// concrete network under `concrete_orders` different activation orders
/// and requires every resulting solution to have a matching abstract
/// solution.
///
/// The attribute abstraction `h` is taken **from `engine`** — the
/// compression run's shared policy-compilation engine
/// (`CompressionReport::policies`): an engine built with
/// `strip_unused_communities` models exactly the matched-community
/// universe, so labels are compared modulo unused tags iff the
/// compression itself stripped them (the `h` of the paper's data-center
/// study) and the two can never disagree. `None` compares every
/// community.
#[allow(clippy::too_many_arguments)]
pub fn check_cp_equivalence(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    abs: &AbstractNetwork,
    concrete_orders: usize,
    abstract_orders: usize,
    engine: Option<&bonsai_core::engine::CompiledPolicies>,
) -> Result<(), EquivalenceError> {
    let keep: Option<BTreeSet<Community>> = engine
        .filter(|e| e.strips_unused_communities())
        .map(|e| e.communities().iter().copied().collect());
    let srp = class_srp(network, topo, ec);
    let abs_srp = class_srp(&abs.network, &abs.topo, &abs.ec);
    let nodes: Vec<NodeId> = topo.graph.nodes().collect();
    for rot in 0..concrete_orders.max(1) {
        let order = rotated_order(&nodes, rot);
        let solution = solve_with_order(&srp, &order, SolverOptions::default())
            .map_err(|e| EquivalenceError::ConcreteDiverged(e.to_string()))?;
        check_solution_equivalence(
            &srp,
            topo,
            &solution,
            abstraction,
            abs,
            &abs_srp,
            abstract_orders,
            keep.as_ref(),
        )?;
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
                16,
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
        let naive_abs =
            bonsai_core::abstraction::build_abstract_network(&net, &topo, &ec_dest, &naive);
        let result = check_cp_equivalence(&net, &topo, &ec_dest, &naive, &naive_abs, 4, 16, None);
        assert!(
            result.is_err(),
            "the unsound single-copy abstraction must be rejected"
        );
    }
}
