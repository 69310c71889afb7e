//! The k-failure soundness **audit**: repair one abstraction until it is
//! sound for every `≤ k` link-failure scenario at once.
//!
//! The paper proves CP-equivalence for the failure-free control plane and
//! warns (§9) that compression may become **unsound when links fail**: an
//! abstract link stands for a whole orbit of concrete links, so the
//! abstract network cannot express "exactly one of them is down" — the
//! very asymmetry a failure introduces. The audit turns that caveat into
//! a checked, repairable property. It is a thin counterexample-guided
//! loop over the verification kernel of [`crate::sweep`]:
//!
//! 1. Every scenario of the [`ScenarioStream`] (optionally one
//!    representative per orbit signature of the *current* abstraction) is
//!    checked by the kernel: the concrete instance solved under the
//!    scenario's mask, the abstract instance under the *lifted* mask
//!    ([`lift_failure_mask`]), per-block behaviors compared exactly like
//!    the failure-free oracle. The audit's context carries no base
//!    fixpoint, so its concrete samples are cold rotated activation
//!    orders.
//! 2. On a refutation the kernel's fallback candidate rule names the split
//!    — failed-link endpoints still sharing a block, else the offending
//!    block itself — and [`refine_ec_with_split`] isolates those nodes,
//!    restores the refinement fixpoint and lays out the abstract network
//!    against the class's hoisted signature table.
//! 3. The pass continues against the refined abstraction (refinement is
//!    monotone) and passes repeat until one finds no counterexample: the
//!    abstraction is then **k-failure sound**, and the
//!    [`FailureAuditReport`] carries it with every counterexample found
//!    along the way.
//!
//! Termination: every effective refinement strictly increases the block
//! count, which is bounded by the node count; the discrete partition's
//! abstract network is isomorphic to the concrete one, where every
//! scenario passes trivially. On symmetric topologies the splits
//! accumulate until little compression is left (fattree-4 goes 6 → 20
//! nodes per class, mesh-10 2 → 10) — callers who can work with one small
//! refinement *per scenario* use the network sweep ([`crate::netsweep`])
//! instead.

use crate::equivalence::EquivalenceError;
use crate::sweep::{
    check_scenario_refined, sample_concrete_solutions, split_candidates, Candidate, SweepCtx,
    SweepEnv, SweepOptions,
};
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::algorithm::Abstraction;
use bonsai_core::compress::refine_ec_with_split;
use bonsai_core::engine::CompiledPolicies;
use bonsai_core::scenarios::{
    link_orbits_with_distances, FailureScenario, NodeDistances, ScenarioStream,
};
use bonsai_net::partition::BlockId;
use bonsai_net::{FailureMask, NodeId};
use bonsai_srp::instance::EcDest;
use std::sync::Arc;

/// One scenario the abstraction could not mirror, and how it was repaired.
#[derive(Clone, Debug)]
pub struct FailureCounterexample {
    /// The failing scenario.
    pub scenario: FailureScenario,
    /// The block whose behaviors disagreed (when the comparison got that
    /// far; `None` when the abstract instance diverged outright).
    pub block: Option<BlockId>,
    /// Human-readable mismatch description.
    pub detail: String,
    /// The concrete nodes the refinement step isolated in response.
    pub split: Vec<NodeId>,
}

/// The outcome of a k-failure soundness audit: the (possibly refined)
/// abstraction that passes every scenario, plus the audit trail.
#[derive(Debug)]
pub struct FailureAuditReport {
    /// The failure bound that was audited.
    pub k: usize,
    /// Scenario count of the exhaustive enumeration (what the sweep would
    /// cost without symmetry pruning).
    pub scenarios_exhaustive: usize,
    /// Scenarios actually verified in the final (passing) sweep.
    pub scenarios_swept: usize,
    /// Total scenario checks across all sweeps, including the aborted
    /// ones that ended in a counterexample.
    pub checks_performed: usize,
    /// Every counterexample found, in discovery order.
    pub counterexamples: Vec<FailureCounterexample>,
    /// Number of refinement rounds (== `counterexamples.len()`).
    pub refinement_rounds: usize,
    /// Abstract node count before the audit.
    pub initial_abstract_nodes: usize,
    /// The k-failure-sound abstraction (the input one if no refinement
    /// was needed).
    pub abstraction: Abstraction,
    /// Its abstract network, laid out: [`AbstractLayout::instance`] is
    /// what a solver runs, [`AbstractLayout::print_into`] what is written.
    pub layout: AbstractLayout,
}

impl FailureAuditReport {
    /// True if the input abstraction was already k-failure sound.
    pub fn was_sound(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Abstract node count after the audit.
    pub fn final_abstract_nodes(&self) -> usize {
        self.abstraction.abstract_node_count()
    }
}

/// Lifts a concrete failure scenario onto an abstract network: for every
/// failed concrete link `u — v`, every abstract link between a copy of
/// `u`'s block and a copy of `v`'s block is failed.
///
/// This is the only possible interpretation of the scenario on the
/// abstract topology — and precisely where unsoundness comes from: when
/// the blocks have *other* concrete links that did not fail, the lifted
/// mask over-fails the abstract network. The auditor detects the
/// resulting behavior mismatch and refines until every failed link is the
/// unique concrete witness of the abstract links it lifts to.
///
/// `abs` is the abstract network of `abstraction`, laid out.
pub fn lift_failure_mask(
    scenario: &FailureScenario,
    abstraction: &Abstraction,
    abs: &AbstractLayout,
) -> FailureMask {
    let graph = &abs.graph;
    let mut mask = FailureMask::for_graph(graph);
    for &(u, v) in &scenario.links {
        let bu = abstraction.role_of(u);
        let bv = abstraction.role_of(v);
        for cu in 0..abstraction.copies[bu.index()] {
            for cv in 0..abstraction.copies[bv.index()] {
                let nu = abs.node_of(bu, cu);
                let nv = abs.node_of(bv, cv);
                if nu != nv {
                    mask.disable_link(graph, nu, nv);
                }
            }
        }
    }
    mask
}

/// Sweeps all `≤ k` link-failure scenarios, checking CP-equivalence of
/// the abstraction under each; on a counterexample, refines the
/// abstraction (splitting the offending nodes) and continues, until a
/// whole pass is clean and the abstraction is **k-failure sound**.
///
/// `options.prune_symmetric` checks one representative per orbit
/// signature of the current abstraction instead of every link
/// combination; `options.threads` is ignored (the loop is sequential —
/// each check runs against the abstraction the previous one left).
///
/// The attribute abstraction `h` is taken from the engine, exactly as in
/// [`crate::equivalence::check_cp_equivalence`]; the class's
/// signature table is looked up once in the same shared
/// [`CompiledPolicies`] engine (a cache hit after a compression run) and
/// every refinement step reuses it, so an audit recompiles nothing.
///
/// The audit checks every scenario on layouts and the lifted instance
/// ([`AbstractLayout::instance`]) and renders nothing: it returns the
/// sound abstraction's layout.
///
/// Errors only when a *concrete* instance diverges under some scenario
/// (nothing to audit against) or a mismatch is left with nothing to split.
pub fn check_cp_equivalence_under_failures(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    engine: &CompiledPolicies,
    options: &SweepOptions,
) -> Result<FailureAuditReport, EquivalenceError> {
    let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
    let env = SweepEnv::new(network, topo, engine, options, distances);
    let ctx = SweepCtx::hoist(&env, ec.clone(), abstraction);
    let k = options.max_failures;
    let stream = ScenarioStream::new(&topo.graph, k);
    let mut current = abstraction.clone();
    let mut current_layout = ctx.class.layout.clone();
    let mut counterexamples: Vec<FailureCounterexample> = Vec::new();
    let mut checks_performed = 0usize;

    loop {
        // Prune per pass: pruning is relative to the *current*
        // abstraction's orbits, and refinement makes orbits finer. Within
        // a pass, a counterexample refines the abstraction and the sweep
        // **continues** against the refined one (restarting per
        // counterexample would cost rounds × scenarios); a pass with no
        // counterexample is the clean confirmation the soundness claim
        // rests on.
        let orbits = options.prune_symmetric.then(|| {
            link_orbits_with_distances(
                &topo.graph,
                &current,
                &ctx.class.sigs,
                env.distances.clone(),
            )
        });
        let scenarios: Box<dyn Iterator<Item = FailureScenario> + '_> = match &orbits {
            Some(orbits) => Box::new(stream.iter_pruned(orbits)),
            None => Box::new(stream.iter()),
        };

        let mut scenarios_swept = 0usize;
        let mut refined_this_pass = false;
        for scenario in scenarios {
            scenarios_swept += 1;
            checks_performed += 1;
            let solutions = sample_concrete_solutions(&ctx, &scenario)?;
            let candidate = Candidate::new(network, topo, &current, &current_layout, &scenario);
            let Err(refutation) = check_scenario_refined(&ctx, &scenario, &solutions, &candidate)
            else {
                continue;
            };
            let split = split_candidates(&current, &scenario, &refutation.mismatch);
            if split.is_empty() {
                // Nothing left to split: a genuine equivalence bug rather
                // than a refinable failure asymmetry.
                return Err(EquivalenceError::NoMatchingSolution {
                    detail: format!(
                        "irrefinable mismatch under {}: {}",
                        scenario.describe(&topo.graph),
                        refutation.describe(),
                    ),
                });
            }
            (current, current_layout) =
                refine_ec_with_split(&topo.graph, ec, &ctx.class.sigs, &current, &split);
            counterexamples.push(FailureCounterexample {
                scenario,
                block: refutation.mismatch.as_ref().map(|m| m.block),
                detail: refutation.describe(),
                split,
            });
            refined_this_pass = true;
        }

        if !refined_this_pass {
            return Ok(FailureAuditReport {
                k,
                scenarios_exhaustive: stream.len(),
                scenarios_swept,
                checks_performed,
                refinement_rounds: counterexamples.len(),
                counterexamples,
                initial_abstract_nodes: abstraction.abstract_node_count(),
                layout: current_layout,
                abstraction: current,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_core::compress::{compress, CompressOptions};
    use bonsai_srp::papernets;

    /// The audit over one representative per orbit signature.
    fn pruned() -> SweepOptions {
        SweepOptions {
            prune_symmetric: true,
            ..Default::default()
        }
    }

    /// Audits the first EC of a compressed network and returns the report.
    fn audit(net: &NetworkConfig, options: &SweepOptions) -> (BuiltTopology, FailureAuditReport) {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        let ec = &report.per_ec[0];
        let audit = check_cp_equivalence_under_failures(
            net,
            &topo,
            &ec.ec.to_ec_dest(),
            &ec.abstraction,
            &report.policies,
            options,
        )
        .expect("audit completes");
        (topo, audit)
    }

    /// The crafted unsoundness gadget: Figure 1's diamond merges b1 and
    /// b2, which is CP-equivalent failure-free but unsound the moment one
    /// of the two parallel b—d links fails (b1 detours, b2 does not — one
    /// abstract b-node cannot do both). The audit must find exactly this,
    /// split the b-block, and converge to a sound 4-node abstraction.
    #[test]
    fn figure1_is_unsound_under_one_failure_and_gets_repaired() {
        let net = papernets::figure1_rip();
        let (topo, audit) = audit(&net, &pruned());
        assert!(!audit.was_sound(), "the merged diamond must be refuted");
        assert!(audit.refinement_rounds >= 1);
        assert_eq!(audit.initial_abstract_nodes, 3);
        // Repair splits the merged b-block; the result re-verifies sound.
        assert!(audit.final_abstract_nodes() > 3);
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let b2 = topo.graph.node_by_name("b2").unwrap();
        assert_ne!(audit.abstraction.role_of(b1), audit.abstraction.role_of(b2));
        // The counterexample names a failed link and a real split.
        let cx = &audit.counterexamples[0];
        assert_eq!(cx.scenario.len(), 1);
        assert!(!cx.split.is_empty());
    }

    /// Exhaustive and pruned sweeps agree on the final abstraction for
    /// the diamond (pruning only skips symmetric duplicates).
    #[test]
    fn pruned_and_exhaustive_audits_agree() {
        let net = papernets::figure1_rip();
        let (_, reps) = audit(&net, &pruned());
        let (_, full) = audit(&net, &SweepOptions::default());
        assert_eq!(
            reps.abstraction.partition.as_sets(),
            full.abstraction.partition.as_sets()
        );
        assert!(reps.scenarios_swept <= full.scenarios_swept);
        assert_eq!(full.scenarios_swept, full.scenarios_exhaustive);
    }

    /// The BGP gadget (Figure 2): loop prevention already forces a copy
    /// split failure-free; one failed b—d link still breaks the 3-member
    /// b-block's symmetry and must trigger a further split.
    #[test]
    fn gadget_refines_under_single_failure() {
        let net = papernets::figure2_gadget();
        let (topo, audit) = audit(&net, &pruned());
        assert!(!audit.was_sound());
        // Whatever the split sequence, the result is k-failure sound and
        // still smaller than or equal to the concrete network.
        assert!(audit.final_abstract_nodes() <= topo.graph.node_count());
        assert!(audit.final_abstract_nodes() > audit.initial_abstract_nodes);
    }

    /// A network whose abstraction is already discrete (no compression,
    /// Figure 5) is vacuously failure-sound: the audit passes without
    /// refinement.
    #[test]
    fn incompressible_network_is_already_failure_sound() {
        let net = papernets::figure5_bgp();
        let (_, audit) = audit(&net, &pruned());
        assert!(audit.was_sound(), "{:?}", audit.counterexamples);
        assert_eq!(audit.refinement_rounds, 0);
    }

    /// k = 2 on the diamond: failing *both* parallel links is exactly
    /// representable (the whole orbit dies), and the refined abstraction
    /// handles every pair.
    #[test]
    fn diamond_two_failure_audit_converges() {
        let net = papernets::figure1_rip();
        let (topo, audit) = audit(
            &net,
            &SweepOptions {
                max_failures: 2,
                ..pruned()
            },
        );
        assert_eq!(audit.k, 2);
        assert!(audit.final_abstract_nodes() <= topo.graph.node_count());
        // Sound after refinement for every ≤2-failure scenario.
        assert!(audit.checks_performed >= audit.scenarios_swept);
    }

    /// The lifted mask over-fails exactly when a block-pair is partially
    /// failed — the documented source of unsoundness.
    #[test]
    fn lift_mask_covers_all_copies() {
        let net = papernets::figure1_rip();
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions::default());
        let ec = &report.per_ec[0];
        let d = topo.graph.node_by_name("d").unwrap();
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let scenario = FailureScenario::new(vec![(d, b1)]);
        let mask = lift_failure_mask(&scenario, &ec.abstraction, &ec.abstract_network);
        // The single concrete failure kills the one abstract d̂—b̂ link,
        // i.e. both directed edges.
        assert_eq!(mask.disabled_count(), 2);
    }
}
