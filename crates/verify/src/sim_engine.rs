//! The simulation engine: our stand-in for Batfish (paper §8).
//!
//! Batfish "first simulates the control plane to produce the data plane and
//! then … computes all possible packets that can traverse between source
//! and destination nodes". This engine does exactly that on our stack: per
//! destination equivalence class it solves the SRP (control plane), prunes
//! the forwarding relation by the ACLs that apply to the class's packet
//! range (data plane), and answers reachability queries over the result.
//!
//! Every query takes a [`QueryCtx`] saying which failures apply: the
//! intact network, an explicit [`FailureMask`], one bounded link-failure
//! scenario, or every `≤ k` scenario at once. When the context carries a
//! [`crate::sweep::ScenarioRefinement`] (from the sweep engines) and asks
//! for the scenario that refinement was verified for — its canonical
//! representative — per-node reachability is read off the refinement's
//! canonical solution ([`crate::sweep::Materialized::abstract_solution`])
//! with **zero** solver work and mapped back to concrete nodes: the
//! compressed fast path whose agreement with the concrete masked
//! simulation is the §9-closing acceptance check. Any other scenario is
//! simulated concretely — a refinement answers for its own scenario only
//! ([`crate::sweep::scenario_verdict`]).

use crate::equivalence::class_srp;
use crate::properties::SolutionAnalysis;
use crate::query::{QueryCtx, QueryScope, QueryStats};
use crate::sweep::scenario_verdict;
use bonsai_config::eval::acl_permits;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::algorithm::Abstraction;
use bonsai_core::ecs::{compute_ecs, DestEc};
use bonsai_net::prefix::Prefix;
use bonsai_net::{FailureMask, NodeId};
use bonsai_srp::instance::RibAttr;
use bonsai_srp::solver::{solve_with_order_masked_stats, SolveError, SolverOptions};
use bonsai_srp::view::ConfigView;
use bonsai_srp::Solution;

/// Control-plane simulation plus data-plane queries for one network.
pub struct SimEngine<'a> {
    network: &'a NetworkConfig,
    /// The derived topology.
    pub topo: BuiltTopology,
    /// The destination equivalence classes of the network.
    pub ecs: Vec<DestEc>,
}

/// Result of an all-pairs reachability computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllPairs {
    /// Number of `(source node, class)` pairs where the source delivers to
    /// the class's destination on every forwarding path.
    pub delivered: usize,
    /// Pairs where delivery happens on some but not all paths.
    pub partial: usize,
    /// Pairs with no delivering path.
    pub unreachable: usize,
}

impl<'a> SimEngine<'a> {
    /// Prepares the engine: builds the topology and the classes.
    pub fn new(network: &'a NetworkConfig) -> Self {
        let topo = BuiltTopology::build(network).expect("consistent topology");
        let ecs = compute_ecs(network, &topo);
        SimEngine { network, topo, ecs }
    }

    /// Simulates the control plane for one class under a single-state
    /// context (panics on the [`QueryScope::AllScenarios`] sweep scope —
    /// a sweep has no single solution; use the reachability queries).
    pub fn solve_ec(
        &self,
        ec: &DestEc,
        ctx: &QueryCtx<'_>,
    ) -> Result<Solution<RibAttr>, SolveError> {
        let mask = ctx.scope.concrete_mask(&self.topo.graph);
        self.solve_ec_inner(ec, mask.as_ref()).map(|(s, _)| s)
    }

    fn solve_ec_inner(
        &self,
        ec: &DestEc,
        mask: Option<&FailureMask>,
    ) -> Result<(Solution<RibAttr>, bonsai_srp::solver::SolveStats), SolveError> {
        let srp = class_srp(self.network, &self.topo, &ec.to_ec_dest());
        let order: Vec<NodeId> = self.topo.graph.nodes().collect();
        solve_with_order_masked_stats(&srp, &order, SolverOptions::default(), mask)
    }

    /// Derives the data-plane forwarding for a class: the control-plane
    /// forwarding relation minus edges whose egress/ingress ACLs drop the
    /// class's packets (paper §6: ACLs do not affect routing, only
    /// delivery).
    pub fn data_plane(&self, ec: &DestEc, solution: &Solution<RibAttr>) -> Solution<RibAttr> {
        acl_pruned(
            &ConfigView::identity(self.network, &self.topo),
            ec,
            solution.clone(),
        )
    }

    /// All-pairs reachability over every class: the Figure 12 workload.
    ///
    /// Under the [`QueryScope::AllScenarios`] sweep scope a pair's verdict
    /// is its **worst** over the failure-free state and every `≤ k`
    /// scenario (delivery must survive all of them).
    pub fn all_pairs(&self, ctx: &QueryCtx<'_>) -> Result<AllPairs, SolveError> {
        let mut result = AllPairs::default();
        for ec in &self.ecs {
            let origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
            // Per non-origin node: worst Reachability across states,
            // encoded 0 = unreachable, 1 = partial, 2 = all paths.
            let mut worst: Vec<u8> = vec![2; self.topo.graph.node_count()];
            for mask in self.scope_masks(&ctx.scope) {
                let (solution, _) = self.solve_ec_inner(ec, mask.as_ref())?;
                let data = self.data_plane(ec, &solution);
                let analysis = SolutionAnalysis::new(&self.topo.graph, &data, &origins);
                for u in self.topo.graph.nodes() {
                    let grade = match analysis.reachability(u) {
                        crate::properties::Reachability::AllPaths => 2,
                        crate::properties::Reachability::SomePaths => 1,
                        crate::properties::Reachability::None => 0,
                    };
                    worst[u.index()] = worst[u.index()].min(grade);
                }
            }
            for u in self.topo.graph.nodes() {
                if origins.contains(&u) {
                    continue;
                }
                match worst[u.index()] {
                    2 => result.delivered += 1,
                    1 => result.partial += 1,
                    _ => result.unreachable += 1,
                }
            }
        }
        Ok(result)
    }

    /// The Batfish query of §8: which destination prefixes originated at
    /// `dst` can `src` deliver packets to? Returns the class
    /// representatives that are reachable — under every state of the
    /// context's scope.
    pub fn query_reachability(
        &self,
        src: &str,
        dst: &str,
        ctx: &QueryCtx<'_>,
    ) -> Result<Vec<Prefix>, SolveError> {
        let src = self
            .topo
            .graph
            .node_by_name(src)
            .expect("source device exists");
        let dst = self
            .topo
            .graph
            .node_by_name(dst)
            .expect("destination device exists");
        let mut reachable = Vec::new();
        for ec in &self.ecs {
            if !ec.origins.iter().any(|(n, _)| *n == dst) {
                continue;
            }
            let origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
            let mut ok = true;
            for mask in self.scope_masks(&ctx.scope) {
                let (solution, _) = self.solve_ec_inner(ec, mask.as_ref())?;
                let data = self.data_plane(ec, &solution);
                let analysis = SolutionAnalysis::new(&self.topo.graph, &data, &origins);
                if !analysis.can_reach(src) {
                    ok = false;
                    break;
                }
            }
            if ok {
                reachable.push(ec.rep);
            }
        }
        Ok(reachable)
    }

    /// Per-node reachability for one class under the context: one flag
    /// per concrete node (origins report `true`), conjoined over every
    /// state of the scope.
    ///
    /// With a refinement and a [`QueryScope::Scenario`] scope the verdict
    /// is [`scenario_verdict`]'s without a class base: read off the
    /// refinement's abstract network when the scenario is its
    /// representative (a concrete node is reachable iff every copy of its
    /// block delivers — the copy assignment is solution-dependent, so
    /// universal quantification is the sound direction), simulated
    /// concretely otherwise. Agreement of the two is exactly what the
    /// refinement's CP-equivalence-under-its-scenario guarantees — the
    /// acceptance tests check the verdict vectors are equal.
    pub fn reachability(&self, ec: &DestEc, ctx: &QueryCtx<'_>) -> Result<Vec<bool>, SolveError> {
        self.reachability_with_stats(ec, ctx).map(|(v, _)| v)
    }

    /// [`SimEngine::reachability`], also reporting how much solver work
    /// the answer cost (zero when served from a refinement's cached
    /// canonical solution).
    pub fn reachability_with_stats(
        &self,
        ec: &DestEc,
        ctx: &QueryCtx<'_>,
    ) -> Result<(Vec<bool>, QueryStats), SolveError> {
        let mut stats = QueryStats::default();
        if let (Some(refinement), QueryScope::Scenario(scenario)) = (ctx.refinement, &ctx.scope) {
            let (network, held) = (self.network, Some(refinement));
            let verdict =
                scenario_verdict(network, &self.topo, ec, None, held, scenario, &mut stats)?;
            return Ok((verdict, stats));
        }
        let mut verdict: Vec<bool> = vec![true; self.topo.graph.node_count()];
        for mask in self.scope_masks(&ctx.scope) {
            let one = self.concrete_verdict(ec, mask.as_ref(), &mut stats)?;
            for (v, o) in verdict.iter_mut().zip(one) {
                *v = *v && o;
            }
        }
        Ok((verdict, stats))
    }

    /// Per-node verdict of one concrete masked simulation.
    fn concrete_verdict(
        &self,
        ec: &DestEc,
        mask: Option<&FailureMask>,
        stats: &mut QueryStats,
    ) -> Result<Vec<bool>, SolveError> {
        concrete_verdict(self.network, &self.topo, ec, mask, stats)
    }

    /// The single-state masks a scope expands to (sweeps expand to the
    /// failure-free state plus every `≤ k` scenario).
    fn scope_masks(&self, scope: &QueryScope) -> Vec<Option<FailureMask>> {
        crate::query::scope_masks(&self.topo.graph, scope)
    }
}

/// Per-node reachability read off a solution of a verified abstract
/// network (the failure-free base or a per-scenario refinement), mapped
/// back to concrete nodes: a node delivers iff every copy of its block
/// does. No solve — `solution` is the canonical solution of `abs`, the
/// layout of `abstraction` over `network`, under the state asked about.
pub(crate) fn abstract_verdict(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &DestEc,
    abstraction: &Abstraction,
    abs: &AbstractLayout,
    solution: &Solution<RibAttr>,
) -> Vec<bool> {
    // Abstract data plane: the abstract interfaces carry the ACLs of the
    // edges they copy, so the same pruning applies on the abstract side.
    let abs_origins: Vec<NodeId> = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let solution = acl_pruned(&abs.view(network, topo), ec, solution.clone());
    let analysis = SolutionAnalysis::new(&abs.graph, &solution, &abs_origins);

    // Map back: concrete node → all copies of its block deliver.
    let concrete_origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
    topo.graph
        .nodes()
        .map(|u| {
            if concrete_origins.contains(&u) {
                return true;
            }
            let block = abstraction.role_of(u);
            (0..abstraction.copies[block.index()])
                .all(|c| analysis.can_reach(abs.node_of(block, c)))
        })
        .collect()
}

/// The concrete data plane of one class under a mask: the masked
/// control-plane fixpoint with ACL-dropped edges pruned, plus the class's
/// origin set. Counts one concrete solve into `stats`. Shared by the
/// per-node verdict below and the resident session's path-property
/// queries ([`crate::session::Session::path`]), so "what the data plane
/// looks like under this scenario" has exactly one definition.
pub(crate) fn concrete_data_plane(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &DestEc,
    mask: Option<&FailureMask>,
    stats: &mut QueryStats,
) -> Result<(Solution<RibAttr>, Vec<NodeId>), SolveError> {
    let srp = class_srp(network, topo, &ec.to_ec_dest());
    let order: Vec<NodeId> = topo.graph.nodes().collect();
    let (solution, solve_stats) =
        solve_with_order_masked_stats(&srp, &order, SolverOptions::default(), mask)?;
    stats.concrete_solves += 1;
    stats.solver_updates += solve_stats.updates;
    let origins = ec.origins.iter().map(|(n, _)| *n).collect();
    Ok((
        acl_pruned(&ConfigView::identity(network, topo), ec, solution),
        origins,
    ))
}

/// Per-node verdict of one concrete masked simulation — the fallback path
/// for scenarios no refinement covers, shared by [`SimEngine`] and the
/// resident [`crate::session::Session`].
pub(crate) fn concrete_verdict(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &DestEc,
    mask: Option<&FailureMask>,
    stats: &mut QueryStats,
) -> Result<Vec<bool>, SolveError> {
    let (data, origins) = concrete_data_plane(network, topo, ec, mask, stats)?;
    let analysis = SolutionAnalysis::new(&topo.graph, &data, &origins);
    Ok(topo
        .graph
        .nodes()
        .map(|u| origins.contains(&u) || analysis.can_reach(u))
        .collect())
}

/// `solution`'s data plane for class `ec`: its forwarding relation minus
/// the edges whose ACLs drop the class's packet range. The one pruning of
/// the concrete data plane (the identity view) and of an abstract one (a
/// layout's lifted view: the ACLs the rendered configs would carry).
fn acl_pruned(
    view: &ConfigView<'_, '_>,
    ec: &DestEc,
    mut solution: Solution<RibAttr>,
) -> Solution<RibAttr> {
    let range = ec.ranges.first().copied().unwrap_or(ec.rep);
    for fwd in solution.fwd.iter_mut() {
        fwd.retain(|&e| edge_passes_acls(view, e, range));
    }
    solution
}

/// True when neither the egress ACL of the edge's source interface nor
/// the ingress ACL of its target interface drops the packet range — each
/// looked up on its node's device; shared by the concrete and abstract
/// data planes.
pub(crate) fn edge_passes_acls(
    view: &ConfigView<'_, '_>,
    e: bonsai_net::EdgeId,
    range: Prefix,
) -> bool {
    let (u, v) = view.graph().endpoints(e);
    let passes = |node: NodeId, acl: &Option<String>| {
        let acl = acl.as_deref();
        acl.is_none_or(|name| {
            view.device(node)
                .acl(name)
                .is_some_and(|a| acl_permits(a, range))
        })
    };
    passes(u, &view.egress(e).1.acl_out) && passes(v, &view.ingress(e).1.acl_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::parse_network;

    #[test]
    fn all_pairs_on_gadget() {
        let net = bonsai_srp::papernets::figure2_gadget();
        let engine = SimEngine::new(&net);
        assert_eq!(engine.ecs.len(), 1);
        let result = engine.all_pairs(&QueryCtx::failure_free()).unwrap();
        // 4 non-origin nodes, all of which deliver to d.
        assert_eq!(result.delivered, 4);
        assert_eq!(result.unreachable, 0);
    }

    #[test]
    fn acl_blocks_data_plane_but_not_control_plane() {
        // x originates; y's egress ACL toward x drops the prefix. y still
        // *learns* the route (control plane) but cannot deliver.
        let net = parse_network(
            "
device x
interface i
router bgp 1
 network 10.0.0.0/24
 neighbor i remote-as external
end
device y
interface i
 ip access-group BLOCK out
ip access-list BLOCK deny 10.0.0.0/24
ip access-list BLOCK permit any
router bgp 2
 neighbor i remote-as external
end
link x i y i
",
        )
        .unwrap();
        let engine = SimEngine::new(&net);
        let ec = &engine.ecs[0];
        let solution = engine.solve_ec(ec, &QueryCtx::failure_free()).unwrap();
        let y = engine.topo.graph.node_by_name("y").unwrap();
        assert!(solution.label(y).is_some(), "route learned");
        assert_eq!(solution.fwd(y).len(), 1, "control plane forwards");
        let data = engine.data_plane(ec, &solution);
        assert!(data.fwd(y).is_empty(), "data plane filtered by ACL");
        let result = engine.all_pairs(&QueryCtx::failure_free()).unwrap();
        assert_eq!(result.delivered, 0);
        assert_eq!(result.unreachable, 1);
    }

    #[test]
    fn query_reachability_lists_prefixes() {
        let net = parse_network(
            "
device a
interface i
router bgp 1
 network 10.0.1.0/24
 network 10.0.2.0/24
 neighbor i remote-as external
end
device b
interface i
router bgp 2
 neighbor i remote-as external
end
link a i b i
",
        )
        .unwrap();
        let engine = SimEngine::new(&net);
        let ctx = QueryCtx::failure_free();
        let reachable = engine.query_reachability("b", "a", &ctx).unwrap();
        assert_eq!(reachable.len(), 2);
        // Nothing originates at b.
        assert!(engine
            .query_reachability("a", "b", &ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bounded_scope_conjoins_scenarios() {
        // Two parallel paths a→d: single failures keep d reachable, so
        // the ≤1 sweep still delivers; a ≤2 sweep can cut both.
        let net = bonsai_srp::papernets::figure2_gadget();
        let engine = SimEngine::new(&net);
        let free = engine.all_pairs(&QueryCtx::failure_free()).unwrap();
        let k1 = engine.all_pairs(&QueryCtx::bounded(1)).unwrap();
        assert!(k1.delivered <= free.delivered);
        let total = |r: &AllPairs| r.delivered + r.partial + r.unreachable;
        assert_eq!(total(&free), total(&k1));
    }

    #[test]
    fn masked_ctx_with_no_mask_matches_failure_free() {
        let net = bonsai_srp::papernets::figure2_gadget();
        let engine = SimEngine::new(&net);
        let masked = engine.all_pairs(&QueryCtx::masked(None)).unwrap();
        let free = engine.all_pairs(&QueryCtx::failure_free()).unwrap();
        assert_eq!(masked, free);
    }
}
