//! The CP-equivalence check as a test-only reference, kept as it was
//! before behaviors were interned and before the check built its abstract
//! witness instead of searching for one: per-node behaviors as
//! `BTreeSet`s, per-block sets in a `BTreeMap`, and a **search** — the base
//! abstract fixpoint transported onto the candidate and solved from there,
//! then [`ABSTRACT_ORDERS`] rotated cold orders — with the failure-free
//! oracle solving every abstract order again for each concrete sample.
//!
//! It is the shipped check's completeness oracle, over the seeded policy
//! networks, the paper gadgets, fattree-6 PreferBottom and a
//! `gen:datacenter` class, on every derivation round and on candidates
//! coarse enough to be refuted. The shipped check and
//! `check_cp_equivalence` accept whatever the search accepts. Where both
//! refute a derivation round, the shipped check's mismatch (block, detail
//! bytes, abstract behaviors), per-node behaviors and deviating split are
//! the search's. Where only the shipped check accepts, the case is listed:
//! the search missed a witness that exists (seeded network 0's class
//! 10.0.1.0/24, and Figure 5's abstraction at two abstract orders).

#[path = "../../../../tests/common/random_nets.rs"]
pub(super) mod random_nets;

use super::*;
use crate::equivalence::{check_cp_equivalence, Behavior, HLabel};
use bonsai_config::BuiltTopology;
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::compress::{compress_each, CompressOptions, EcCompression};
use bonsai_core::scenarios::ScenarioStream;
use bonsai_net::partition::BlockId;
use bonsai_net::Graph;
use bonsai_srp::papernets;
use bonsai_srp::solver::{solve, solve_seeded_masked, solve_with_order};
use bonsai_topo::{datacenter, fattree, FattreePolicy};

/// The ≈-minimal choice set of a node under a solution, as `h`-labels.
fn minimal_hlabels<P: bonsai_srp::Protocol<Attr = RibAttr>>(
    srp: &Srp<'_, P>,
    solution: &Solution<RibAttr>,
    u: NodeId,
    keep: Option<&BTreeSet<Community>>,
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
    (solution.fwd(u).iter())
        .map(|&e| HLabel::of(Some(&offer(e)), keep))
        .collect()
}

fn concrete_node_behaviors<P: bonsai_srp::Protocol<Attr = RibAttr>>(
    srp: &Srp<'_, P>,
    topo: &BuiltTopology,
    solution: &Solution<RibAttr>,
    abstraction: &Abstraction,
    keep: Option<&BTreeSet<Community>>,
) -> Vec<(NodeId, Behavior)> {
    topo.graph
        .nodes()
        .map(|u| {
            let labels = minimal_hlabels(srp, solution, u, keep);
            let fwd_blocks: BTreeSet<u32> = (solution.fwd(u).iter())
                .map(|&e| abstraction.role_of(topo.graph.target(e)).0)
                .collect();
            (u, (labels, fwd_blocks))
        })
        .collect()
}

fn aggregate_behaviors(
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

fn abstract_behaviors(
    abs: &AbstractLayout,
    srp: &Srp<'_, MultiProtocol<'_>>,
    solution: &Solution<RibAttr>,
    keep: Option<&BTreeSet<Community>>,
) -> BTreeMap<BlockId, BTreeSet<Behavior>> {
    let mut map: BTreeMap<BlockId, BTreeSet<Behavior>> = BTreeMap::new();
    for n in srp.graph.nodes() {
        let (block, _copy) = abs.copy_of_node[n.index()];
        let labels = minimal_hlabels(srp, solution, n, keep);
        let fwd_blocks: BTreeSet<u32> = (solution.fwd(n).iter())
            .map(|&e| abs.copy_of_node[srp.graph.target(e).index()].0 .0)
            .collect();
        map.entry(block).or_default().insert((labels, fwd_blocks));
    }
    map
}

struct Mismatch {
    block: BlockId,
    detail: String,
    abs_behaviors: BTreeSet<Behavior>,
}

fn behaviors_match(
    concrete: &BTreeMap<BlockId, BTreeSet<Behavior>>,
    abstract_b: &BTreeMap<BlockId, BTreeSet<Behavior>>,
) -> Result<(), Mismatch> {
    for (block, cset) in concrete {
        let Some(aset) = abstract_b.get(block) else {
            return Err(Mismatch {
                block: *block,
                detail: format!("abstract network lacks block {block:?}"),
                abs_behaviors: BTreeSet::new(),
            });
        };
        for b in cset {
            if !aset.contains(b) {
                return Err(Mismatch {
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
                return Err(Mismatch {
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

struct Refuted {
    mismatch: Option<Mismatch>,
    node_behaviors: Vec<(NodeId, Behavior)>,
}

/// The rotated abstract activation orders the search tries after the
/// transported base fixpoint.
const ABSTRACT_ORDERS: usize = 8;

/// Whether an abstract solution's labeling is new to `tried`, recording it:
/// equal labelings have equal forwarding and behaviors, so a repeat would
/// only repeat the comparison.
fn first_sighting(tried: &mut Vec<Vec<Option<RibAttr>>>, solution: &Solution<RibAttr>) -> bool {
    if tried.contains(&solution.labels) {
        return false;
    }
    tried.push(solution.labels.clone());
    true
}

/// The failure-free fixpoint of the class's **base** abstract network, the
/// search's warm start.
fn base_abs_solution(ctx: &SweepCtx<'_>) -> Option<Solution<RibAttr>> {
    let (network, topo) = (ctx.env.network, ctx.env.topo);
    solve(&layout_srp(network, topo, &ctx.class.layout)).ok()
}

/// Transports the failure-free fixpoint of the **base** abstract network
/// onto a **refined** abstract network of the same class: each refined
/// abstract node takes the label of its parent block's corresponding copy
/// (clamped to the parent's copy count), with BGP path entries remapped
/// through a representative refined node per base node — a warm guess the
/// search solves from.
fn transport_abstract_solution(
    base: &Abstraction,
    base_net: &AbstractLayout,
    refined: &Abstraction,
    refined_net: &AbstractLayout,
    base_solution: &Solution<RibAttr>,
) -> Vec<Option<RibAttr>> {
    let fine_n = refined_net.graph.node_count();
    let coarse_n = base_net.graph.node_count();
    let mut fine_to_coarse: Vec<NodeId> = Vec::with_capacity(fine_n);
    for i in 0..fine_n {
        let (fb, copy) = refined_net.copy_of_node[i];
        let member = refined.partition.members(fb)[0];
        let pb = base.role_of(NodeId(member));
        let c = copy.min(base.copies[pb.index()].saturating_sub(1));
        fine_to_coarse.push(base_net.node_of(pb, c));
    }
    let mut coarse_to_fine: Vec<Option<NodeId>> = vec![None; coarse_n];
    for (i, c) in fine_to_coarse.iter().enumerate() {
        coarse_to_fine[c.index()].get_or_insert(NodeId(i as u32));
    }
    (0..fine_n)
        .map(|i| {
            let mut label = base_solution.labels[fine_to_coarse[i].index()].clone();
            if let Some(RibAttr::Bgp(b)) = &mut label {
                for p in b.path.iter_mut() {
                    if let Some(f) = coarse_to_fine.get(p.index()).copied().flatten() {
                        *p = f;
                    }
                }
            }
            label
        })
        .collect()
}

/// The scenario check as a search: the transported base fixpoint first,
/// then the rotated orders, every attempt solved again for each sample.
fn check(
    ctx: &SweepCtx<'_>,
    solutions: &[Solution<RibAttr>],
    candidate: &Candidate<'_>,
) -> Result<(), Refuted> {
    let env = ctx.env;
    let (abstraction, abs) = (candidate.abstraction, candidate.layout);
    let (abs_srp, abs_mask) = (&candidate.srp, &candidate.mask);
    let abs_nodes: Vec<NodeId> = abs.graph.nodes().collect();
    let transported: Option<Solution<RibAttr>> = base_abs_solution(ctx).and_then(|base_abs| {
        let (base, base_layout) = (&ctx.class.base, &ctx.class.layout);
        let initial = transport_abstract_solution(base, base_layout, abstraction, abs, &base_abs);
        solve_seeded_masked(abs_srp, initial, SolverOptions::default(), Some(abs_mask))
            .ok()
            .map(|(s, _)| s)
    });
    for solution in solutions {
        let keep = env.keep.as_ref();
        let node_behaviors =
            concrete_node_behaviors(&ctx.srp, env.topo, solution, abstraction, keep);
        let concrete = aggregate_behaviors(&node_behaviors, abstraction);
        let mut last_mismatch = None;
        let mut tried = Vec::new();
        let mut consider = |abs_solution: &Solution<RibAttr>| -> bool {
            if !first_sighting(&mut tried, abs_solution) {
                return false;
            }
            let abstract_b = abstract_behaviors(abs, abs_srp, abs_solution, keep);
            match behaviors_match(&concrete, &abstract_b) {
                Ok(()) => true,
                Err(mismatch) => {
                    last_mismatch = Some(mismatch);
                    false
                }
            }
        };
        let mut matched = transported.as_ref().is_some_and(&mut consider);
        for arot in 0..ABSTRACT_ORDERS {
            if matched {
                break;
            }
            let order = rotated_order(&abs_nodes, arot);
            let options = SolverOptions::default();
            if let Ok(s) = solve_with_order_masked(abs_srp, &order, options, Some(abs_mask)) {
                matched = consider(&s);
            }
        }
        if !matched {
            return Err(Refuted {
                mismatch: last_mismatch,
                node_behaviors,
            });
        }
    }
    Ok(())
}

fn deviating_split_of(abstraction: &Abstraction, refuted: &Refuted) -> Vec<NodeId> {
    let Some(mismatch) = &refuted.mismatch else {
        return Vec::new();
    };
    let members = abstraction.partition.members(mismatch.block);
    if members.len() <= 1 {
        return Vec::new();
    }
    let member_set: BTreeSet<u32> = members.iter().copied().collect();
    let behaviors: Vec<(NodeId, &Behavior)> = (refuted.node_behaviors.iter())
        .filter(|(n, _)| member_set.contains(&n.0))
        .map(|(n, b)| (*n, b))
        .collect();
    let mut deviating: Vec<NodeId> = (behaviors.iter())
        .filter(|(_, b)| !mismatch.abs_behaviors.contains(*b))
        .map(|(n, _)| *n)
        .collect();
    deviating.sort();
    if !deviating.is_empty() && deviating.len() < members.len() {
        return deviating;
    }
    let mut groups: BTreeMap<Behavior, Vec<NodeId>> = BTreeMap::new();
    for (n, b) in &behaviors {
        groups.entry((*b).clone()).or_default().push(*n);
    }
    if groups.len() <= 1 {
        return Vec::new();
    }
    let keep: Behavior = (groups.iter())
        .max_by(|(ka, va), (kb, vb)| va.len().cmp(&vb.len()).then(kb.cmp(ka)))
        .map(|(k, _)| k.clone())
        .expect("at least two groups");
    let mut out: Vec<NodeId> = (groups.iter())
        .filter(|(k, _)| **k != keep)
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    out.sort();
    out
}

/// The failure-free oracle on the configuration `layout` renders, every
/// abstract order solved for each sample.
#[allow(clippy::too_many_arguments)]
fn cp_equivalence(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    layout: &AbstractLayout,
    concrete_orders: usize,
    abstract_orders: usize,
    keep: Option<&BTreeSet<Community>>,
) -> Result<(), EquivalenceError> {
    let srp = class_srp(network, topo, ec);
    let abs = layout.render(network, topo);
    let abs_srp = class_srp(&abs.network, &abs.topo, &abs.ec);
    let nodes: Vec<NodeId> = topo.graph.nodes().collect();
    let abs_nodes: Vec<NodeId> = abs.topo.graph.nodes().collect();
    for rot in 0..concrete_orders.max(1) {
        let order = rotated_order(&nodes, rot);
        let solution = solve_with_order(&srp, &order, SolverOptions::default())
            .map_err(|e| EquivalenceError::ConcreteDiverged(e.to_string()))?;
        let concrete = aggregate_behaviors(
            &concrete_node_behaviors(&srp, topo, &solution, abstraction, keep),
            abstraction,
        );
        let mut last_detail = String::new();
        let mut tried = Vec::new();
        let mut matched = false;
        for arot in 0..abstract_orders.max(1) {
            let order = rotated_order(&abs_nodes, arot);
            let abs_solution = solve_with_order(&abs_srp, &order, SolverOptions::default())
                .map_err(|e| EquivalenceError::NoMatchingSolution {
                    detail: format!("abstract diverged: {e}"),
                })?;
            if !first_sighting(&mut tried, &abs_solution) {
                continue;
            }
            let abstract_b = abstract_behaviors(layout, &abs_srp, &abs_solution, keep);
            match behaviors_match(&concrete, &abstract_b) {
                Ok(()) => {
                    matched = true;
                    break;
                }
                Err(mismatch) => last_detail = mismatch.detail,
            }
        }
        if !matched {
            return Err(EquivalenceError::NoMatchingSolution {
                detail: last_detail,
            });
        }
    }
    Ok(())
}

/// What the comparisons covered.
#[derive(Default, Debug)]
struct Tally {
    accepted: usize,
    refuted: usize,
    oracle_refuted: usize,
    /// The candidates only the shipped check accepts, described.
    kernel_only: Vec<String>,
}

/// Runs the shipped check and the reference on one candidate: the shipped
/// check accepts whatever the reference accepts, and where both refute a
/// derivation `round` they refute alike. (Off a derivation the search's
/// last mismatch may come from another abstract solution than the
/// canonical one, and nothing escalates on it.) Returns the shipped
/// refutation, when there is one.
fn agree(
    ctx: &SweepCtx<'_>,
    scenario: &FailureScenario,
    solutions: &[Solution<RibAttr>],
    candidate: &Candidate<'_>,
    round: bool,
    tally: &mut Tally,
) -> Option<Refutation> {
    let what = scenario.describe(&ctx.env.topo.graph);
    let what = format!("{} under {what}", ctx.class.ec.prefix);
    let shipped = check_scenario_refined(ctx, scenario, solutions, candidate);
    match (shipped, check(ctx, solutions, candidate)) {
        (Ok(()), Ok(())) => {
            tally.accepted += 1;
            None
        }
        (Err(shipped), Err(_)) if !round => {
            tally.refuted += 1;
            Some(*shipped)
        }
        (Err(shipped), Err(reference)) => {
            let found = (shipped.mismatch.as_ref()).map(|m| {
                let abs: BTreeSet<Behavior> = (m.abs_behaviors.iter())
                    .map(|&id| shipped.behaviors.behavior(id))
                    .collect();
                (m.block, m.detail.clone(), abs)
            });
            let expected = (reference.mismatch.as_ref())
                .map(|m| (m.block, m.detail.clone(), m.abs_behaviors.clone()));
            assert_eq!(found, expected, "mismatch: {what}");
            let node_behaviors: Vec<(NodeId, Behavior)> = (shipped.node_behaviors.iter())
                .enumerate()
                .map(|(u, &id)| (NodeId(u as u32), shipped.behaviors.behavior(id)))
                .collect();
            assert_eq!(
                node_behaviors, reference.node_behaviors,
                "behaviors: {what}"
            );
            let abstraction = candidate.abstraction;
            assert_eq!(
                deviating_split(abstraction, &shipped),
                deviating_split_of(abstraction, &reference),
                "deviating split: {what}"
            );
            tally.refuted += 1;
            Some(*shipped)
        }
        (Ok(()), Err(_)) => {
            tally.kernel_only.push(what);
            None
        }
        (Err(_), Ok(())) => panic!("{what}: the check refutes a candidate the search accepts"),
    }
}

/// Both failure-free oracles on one candidate of one class: the shipped
/// check, which validates on `layout`'s lifted instance, accepts whatever
/// the reference check run on the configuration `layout` renders accepts.
fn agree_failure_free(
    net: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    layout: &AbstractLayout,
    tally: &mut Tally,
) {
    for (concrete, abstract_orders) in [(4, 16), (8, 2)] {
        let shipped = check_cp_equivalence(net, topo, ec, abstraction, layout, concrete, None);
        let reference = cp_equivalence(
            net,
            topo,
            ec,
            abstraction,
            layout,
            concrete,
            abstract_orders,
            None,
        );
        let nodes = abstraction.abstract_node_count();
        let what = format!(
            "{} ({nodes} nodes) with {concrete} concrete orders",
            ec.prefix
        );
        match (shipped, reference) {
            (Ok(()), Ok(())) => {}
            (Err(_), Err(_)) => tally.oracle_refuted += 1,
            (Ok(()), Err(_)) => tally.kernel_only.push(format!("failure-free {what}")),
            (Err(e), Ok(())) => panic!("{what}: the oracle refutes what the search accepts: {e}"),
        }
    }
}

/// `abstraction` with one copy per block: Figure 2(b)'s abstraction of the
/// gadget, too coarse wherever BGP needed copies.
fn one_copy(abstraction: &Abstraction) -> Abstraction {
    let mut coarse = abstraction.clone();
    coarse.copies.iter_mut().for_each(|c| *c = 1);
    coarse
}

/// The coarsest candidate of class `ec` over `graph`: every origin alone,
/// every other node in one block of two copies (one if it is a single
/// node). No fixpoint of Algorithm 1 — a member may lack the edges its
/// block's representative has, and the other way round.
fn coarsest(graph: &Graph, ec: &EcDest) -> Abstraction {
    let mut partition = bonsai_net::Partition::coarsest(graph.node_count());
    for &(origin, _) in &ec.origins {
        partition.split(&[origin.0]);
    }
    let copies = (0..partition.block_count())
        .map(|b| {
            let members = partition.members(BlockId(b as u32));
            let origin = ec.origins.iter().any(|(o, _)| members.contains(&o.0));
            if !origin && members.len() > 1 {
                2
            } else {
                1
            }
        })
        .collect();
    Abstraction {
        partition,
        copies,
        iterations: 0,
    }
}

/// What a walk over one class's candidates hands its visitor: the class's
/// context, the scenario, its concrete samples, the candidate and whether
/// the candidate is a round of the scenario's derivation.
pub(super) type Visit<'v> = dyn FnMut(
        &SweepCtx<'_>,
        &FailureScenario,
        &[Solution<RibAttr>],
        &Candidate<'_>,
        bool,
    ) -> Option<Refutation>
    + 'v;

/// Walks the candidates of class `class` of `net` at bound `k`, on the
/// failure-free state and every `step`-th signature representative: the
/// base abstraction, the one-copy abstraction (coarse wherever a scenario
/// needs a split or BGP needs copies) and the [`coarsest`] one, then every
/// round of the derivation, escalated as `derive_scenario_refinement`
/// escalates on the refutation `visit` returns. The base is the
/// derivation's first round when the endpoint split is empty.
pub(super) fn walk_class(
    net: &NetworkConfig,
    engine: &CompiledPolicies,
    class: &EcCompression,
    k: usize,
    step: usize,
    visit: &mut Visit<'_>,
) {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let options = SweepOptions {
        max_failures: k,
        threads: 1,
        ..Default::default()
    };
    let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
    let env = SweepEnv::new(net, &topo, engine, &options, distances);
    let ec = class.ec.to_ec_dest();
    let base = &class.abstraction;
    let ctx = SweepCtx::hoist(&env, ec.clone(), base);
    let coarse = one_copy(base);
    let coarse_layout = AbstractLayout::new(&topo.graph, &ec, &coarse);
    let coarsest = coarsest(&topo.graph, &ec);
    let coarsest_layout = AbstractLayout::new(&topo.graph, &ec, &coarsest);
    let candidates = [
        (base, &ctx.class.layout),
        (&coarse, &coarse_layout),
        (&coarsest, &coarsest_layout),
    ];

    let stream = ScenarioStream::new(&topo.graph, k);
    let scenarios = std::iter::once(FailureScenario::new(vec![]))
        .chain(stream.iter_pruned(&ctx.orbits).step_by(step));
    for rep in scenarios {
        let Ok(solutions) = sample_concrete_solutions(&ctx, &rep) else {
            continue;
        };
        let mut split = endpoint_split(base, &rep);
        for (i, (abstraction, layout)) in candidates.into_iter().enumerate() {
            let candidate = Candidate::new(net, &topo, abstraction, layout, &rep);
            visit(
                &ctx,
                &rep,
                &solutions,
                &candidate,
                i == 0 && split.is_empty(),
            );
        }
        if split.is_empty() {
            continue;
        }
        for _ in 0..=topo.graph.node_count() {
            let (ec, sigs) = (&ctx.class.ec, &ctx.class.sigs);
            let (cur, cur_layout) = refine_ec_with_split(&topo.graph, ec, sigs, base, &split);
            let candidate = Candidate::new(net, &topo, &cur, &cur_layout, &rep);
            let Some(refutation) = visit(&ctx, &rep, &solutions, &candidate, true) else {
                break;
            };
            let mut additions = deviating_split(&cur, &refutation);
            if additions.is_empty() {
                additions = split_candidates(&cur, &rep, &refutation.mismatch);
            }
            if additions.is_empty() {
                break;
            }
            split.extend(additions);
            split.sort();
            split.dedup();
        }
    }
}

/// Compares the two checks over class `class` of `net` at bound `k` on
/// every candidate [`walk_class`] visits, and the failure-free oracles on
/// the base and the one-copy abstraction.
fn compare_class(
    net: &NetworkConfig,
    engine: &CompiledPolicies,
    class: &EcCompression,
    k: usize,
    step: usize,
) -> Tally {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let ec = class.ec.to_ec_dest();
    let base = &class.abstraction;
    let coarse = one_copy(base);
    let coarse_layout = AbstractLayout::new(&topo.graph, &ec, &coarse);
    let mut tally = Tally::default();
    agree_failure_free(net, &topo, &ec, base, &class.abstract_network, &mut tally);
    agree_failure_free(net, &topo, &ec, &coarse, &coarse_layout, &mut tally);
    walk_class(
        net,
        engine,
        class,
        k,
        step,
        &mut |ctx, rep, solutions, candidate, round| {
            agree(ctx, rep, solutions, candidate, round, &mut tally)
        },
    );
    tally
}

/// Compares every `class_step`-th class of `net`.
fn compare_network(net: &NetworkConfig, k: usize, class_step: usize, step: usize) -> Tally {
    let keep = |i: usize, class: EcCompression, _: &BuiltTopology| {
        i.is_multiple_of(class_step).then_some(class)
    };
    let report = compress_each(net, CompressOptions::default(), keep);
    let mut tally = Tally::default();
    for class in report.per_ec.iter().flatten() {
        let found = compare_class(net, &report.policies, class, k, step);
        tally.accepted += found.accepted;
        tally.refuted += found.refuted;
        tally.oracle_refuted += found.oracle_refuted;
        tally.kernel_only.extend(found.kernel_only);
    }
    tally
}

/// Only seeded network 0 has candidates the search refutes and the shipped
/// checks accept: its class 10.0.1.0/24, under `{r2—r3}` (a matching
/// abstract solution no tried order reaches) and failure-free at eight
/// concrete samples and two abstract orders.
#[test]
fn the_seeded_policy_networks() {
    let mut refuted = 0;
    let mut kernel_only = Vec::new();
    for (i, net) in random_nets::seeded_networks().iter().enumerate() {
        let tally = compare_network(net, 2, 1, 1);
        assert!(tally.accepted > 0, "{tally:?}");
        refuted += tally.refuted;
        kernel_only.extend(tally.kernel_only.into_iter().map(|what| (i, what)));
    }
    assert!(refuted > 0, "no refutation was compared");
    let networks: BTreeSet<usize> = kernel_only.iter().map(|(i, _)| *i).collect();
    assert_eq!(networks, BTreeSet::from([0]), "{kernel_only:#?}");
    assert!(
        (kernel_only.iter()).any(|(_, what)| what.starts_with("10.0.1.0/24 under {r2—r3}")),
        "{kernel_only:#?}"
    );
}

/// Figure 2(b), one copy for the gadget's three b's, is refuted
/// failure-free. Figure 5's abstraction (one copy per block already, so
/// its one-copy candidate is itself) is CP-equivalent: a search of two
/// abstract orders misses the solution matching one of eight concrete
/// samples, sixteen orders find it, and the transport builds it.
#[test]
fn the_paper_gadgets() {
    let gadget = compare_network(&papernets::figure2_gadget(), 2, 1, 1);
    assert!(
        gadget.refuted > 0 && gadget.oracle_refuted > 0 && gadget.kernel_only.is_empty(),
        "{gadget:?}"
    );
    let figure5 = compare_network(&papernets::figure5_bgp(), 2, 1, 1);
    let missed = "failure-free 10.0.0.0/24 (4 nodes) with 8 concrete orders";
    assert!(
        figure5.accepted > 0 && figure5.oracle_refuted == 0 && figure5.kernel_only == [missed; 2],
        "{figure5:?}"
    );
}

/// The `sweep_derive` network: two of its 18 classes.
#[test]
fn fattree6_prefer_bottom() {
    let tally = compare_network(&fattree(6, FattreePolicy::PreferBottom), 1, 9, 1);
    assert!(
        tally.accepted > 0 && tally.refuted > 0 && tally.kernel_only.is_empty(),
        "{tally:?}"
    );
}

/// `gen:datacenter` (197 routers, 1296 classes): one class, every fourth
/// single-link signature.
#[test]
fn the_datacenter() {
    let tally = compare_network(&datacenter(Default::default()), 1, 1296, 4);
    assert!(
        tally.accepted > 0 && tally.kernel_only.is_empty(),
        "{tally:?}"
    );
}
