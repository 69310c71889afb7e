//! The CP-equivalence check as a test-only reference, kept as it was
//! before behaviors were interned and the canonical solution was tried
//! first: per-node behaviors as `BTreeSet`s, per-block sets in a
//! `BTreeMap`, the transported base fixpoint tried before the rotated
//! orders, and the failure-free oracle solving every abstract order again
//! for each concrete sample. The shipped check, the deviating split and
//! `check_cp_equivalence` must answer exactly as this does — verdict,
//! mismatch block and detail bytes, per-node behaviors and split — over
//! the seeded policy networks, the paper gadgets, fattree-6 PreferBottom
//! and a `gen:datacenter` class, on every derivation round and on
//! candidates coarse enough to be refuted.

#[path = "../../../../tests/common/random_nets.rs"]
pub(super) mod random_nets;

use super::*;
use crate::equivalence::{check_cp_equivalence, Behavior, HLabel};
use bonsai_config::BuiltTopology;
use bonsai_core::abstraction::{build_abstract_network, AbstractLayout};
use bonsai_core::compress::{compress_each, CompressOptions, EcCompression};
use bonsai_core::scenarios::ScenarioStream;
use bonsai_net::partition::BlockId;
use bonsai_net::Graph;
use bonsai_srp::papernets;
use bonsai_srp::solver::solve_with_order;
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
    abs: &impl AbstractNumbering,
    srp: &Srp<'_, MultiProtocol<'_>>,
    solution: &Solution<RibAttr>,
    keep: Option<&BTreeSet<Community>>,
) -> BTreeMap<BlockId, BTreeSet<Behavior>> {
    let mut map: BTreeMap<BlockId, BTreeSet<Behavior>> = BTreeMap::new();
    for n in srp.graph.nodes() {
        let (block, _copy) = abs.copy_of(n);
        let labels = minimal_hlabels(srp, solution, n, keep);
        let fwd_blocks: BTreeSet<u32> = (solution.fwd(n).iter())
            .map(|&e| abs.copy_of(srp.graph.target(e)).0 .0)
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

/// The scenario check: the transported base fixpoint first, then the
/// rotated orders, every attempt solved again for each sample.
fn check(
    ctx: &SweepCtx<'_>,
    solutions: &[Solution<RibAttr>],
    candidate: &Candidate<'_>,
) -> Result<(), Refuted> {
    let env = ctx.env;
    let (abstraction, abs) = (candidate.abstraction, candidate.layout);
    let (abs_srp, abs_mask) = (&candidate.srp, &candidate.mask);
    let abs_nodes: Vec<NodeId> = abs.graph.nodes().collect();
    let transported: Option<Solution<RibAttr>> = ctx.base_abs_solution().and_then(|base_abs| {
        let (base, base_layout) = (&ctx.class.base, &ctx.class.layout);
        let initial = transport_abstract_solution(base, base_layout, abstraction, abs, base_abs);
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
        for arot in 0..env.options.abstract_orders.max(1) {
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

/// The failure-free oracle, every abstract order solved for each sample.
#[allow(clippy::too_many_arguments)]
fn cp_equivalence(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    abs: &AbstractNetwork,
    concrete_orders: usize,
    abstract_orders: usize,
    keep: Option<&BTreeSet<Community>>,
) -> Result<(), EquivalenceError> {
    let srp = class_srp(network, topo, ec);
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
                .map_err(|e| EquivalenceError::AbstractDiverged(e.to_string()))?;
            if !first_sighting(&mut tried, &abs_solution) {
                continue;
            }
            let abstract_b = abstract_behaviors(abs, &abs_srp, &abs_solution, keep);
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
}

/// Runs the shipped check and the reference on one candidate and requires
/// the same answer; the shipped refutation, when there is one.
fn agree(
    ctx: &SweepCtx<'_>,
    scenario: &FailureScenario,
    solutions: &[Solution<RibAttr>],
    candidate: &Candidate<'_>,
    tally: &mut Tally,
) -> Option<Refutation> {
    let what = scenario.describe(&ctx.env.topo.graph);
    let what = format!("{} under {what}", ctx.class.ec.prefix);
    let shipped = check_scenario_refined(ctx, scenario, solutions, candidate).expect("auditable");
    match (shipped, check(ctx, solutions, candidate)) {
        (Ok(()), Ok(())) => {
            tally.accepted += 1;
            None
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
            Some(shipped)
        }
        (shipped, reference) => panic!(
            "{what}: the check says {:?}, the reference {:?}",
            shipped.is_ok(),
            reference.is_ok()
        ),
    }
}

/// Both failure-free oracles on one candidate of one class.
fn agree_failure_free(
    net: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    abs: &AbstractNetwork,
    tally: &mut Tally,
) {
    for orders in [(4, 16), (8, 2)] {
        let shipped =
            check_cp_equivalence(net, topo, ec, abstraction, abs, orders.0, orders.1, None);
        let reference = cp_equivalence(net, topo, ec, abstraction, abs, orders.0, orders.1, None);
        assert_eq!(
            shipped.as_ref().map_err(ToString::to_string),
            reference.as_ref().map_err(ToString::to_string),
            "{} with {orders:?} orders",
            ec.prefix
        );
        tally.oracle_refuted += usize::from(shipped.is_err());
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
/// context, the scenario, its concrete samples and the candidate.
pub(super) type Visit<'v> = dyn FnMut(
        &SweepCtx<'_>,
        &FailureScenario,
        &[Solution<RibAttr>],
        &Candidate<'_>,
    ) -> Option<Refutation>
    + 'v;

/// Walks the candidates of class `class` of `net` at bound `k`, on the
/// failure-free state and every `step`-th signature representative: the
/// base abstraction, the one-copy abstraction (coarse wherever a scenario
/// needs a split or BGP needs copies) and the [`coarsest`] one, then every
/// round of the derivation, escalated as `derive_scenario_refinement`
/// escalates on the refutation `visit` returns.
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
    let ctx = SweepCtx::hoist(&env, ec.clone(), base).warmed();
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
        for (abstraction, layout) in candidates {
            let candidate = Candidate::new(net, &topo, abstraction, layout, &rep);
            visit(&ctx, &rep, &solutions, &candidate);
        }
        let mut split = endpoint_split(base, &rep);
        if split.is_empty() {
            continue;
        }
        for _ in 0..=topo.graph.node_count() {
            let (ec, sigs) = (&ctx.class.ec, &ctx.class.sigs);
            let (cur, cur_layout) = refine_ec_with_split(&topo.graph, ec, sigs, base, &split);
            let candidate = Candidate::new(net, &topo, &cur, &cur_layout, &rep);
            let Some(refutation) = visit(&ctx, &rep, &solutions, &candidate) else {
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
    let (base, base_net) = (&class.abstraction, &class.abstract_network);
    let coarse = one_copy(base);
    let coarse_net = build_abstract_network(net, &topo, &ec, &coarse);
    let mut tally = Tally::default();
    agree_failure_free(net, &topo, &ec, base, base_net, &mut tally);
    agree_failure_free(net, &topo, &ec, &coarse, &coarse_net, &mut tally);
    walk_class(
        net,
        engine,
        class,
        k,
        step,
        &mut |ctx, rep, solutions, candidate| agree(ctx, rep, solutions, candidate, &mut tally),
    );
    tally
}

/// Compares every `class_step`-th class of `net`.
fn compare_network(net: &NetworkConfig, k: usize, class_step: usize, step: usize) -> Tally {
    let keep = |i: usize, class: EcCompression| i.is_multiple_of(class_step).then_some(class);
    let report = compress_each(net, CompressOptions::default(), keep);
    let mut tally = Tally::default();
    for class in report.per_ec.iter().flatten() {
        let found = compare_class(net, &report.policies, class, k, step);
        tally.accepted += found.accepted;
        tally.refuted += found.refuted;
        tally.oracle_refuted += found.oracle_refuted;
    }
    tally
}

#[test]
fn the_seeded_policy_networks() {
    let mut refuted = 0;
    for net in random_nets::seeded_networks() {
        let tally = compare_network(&net, 2, 1, 1);
        assert!(tally.accepted > 0, "{tally:?}");
        refuted += tally.refuted;
    }
    assert!(refuted > 0, "no refutation was compared");
}

/// Figure 2(b), one copy for the gadget's three b's, is refuted
/// failure-free, and so is the one-copy abstraction of Figure 5.
#[test]
fn the_paper_gadgets() {
    let gadget = compare_network(&papernets::figure2_gadget(), 2, 1, 1);
    assert!(
        gadget.refuted > 0 && gadget.oracle_refuted > 0,
        "{gadget:?}"
    );
    let figure5 = compare_network(&papernets::figure5_bgp(), 2, 1, 1);
    assert!(
        figure5.accepted > 0 && figure5.oracle_refuted > 0,
        "{figure5:?}"
    );
}

/// The `sweep_derive` network: two of its 18 classes.
#[test]
fn fattree6_prefer_bottom() {
    let tally = compare_network(&fattree(6, FattreePolicy::PreferBottom), 1, 9, 1);
    assert!(tally.accepted > 0 && tally.refuted > 0, "{tally:?}");
}

/// `gen:datacenter` (197 routers, 1296 classes): one class, every fourth
/// single-link signature.
#[test]
fn the_datacenter() {
    let tally = compare_network(&datacenter(Default::default()), 1, 1296, 4);
    assert!(tally.accepted > 0, "{tally:?}");
}
