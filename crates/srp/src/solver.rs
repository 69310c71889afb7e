//! Fixpoint solver for SRP instances: the control-plane simulator.
//!
//! The solver mimics the asynchronous message passing of a real control
//! plane: nodes are *activated* one at a time; an activated node recomputes
//! its best choice from its neighbors' current labels and, if its label
//! changes, schedules its in-neighbors for re-activation. A fixpoint of
//! this process is by construction a stable solution (every node holds a
//! ≺-minimal available choice).
//!
//! Because SRPs may have **multiple** stable solutions (paper §3.1 and the
//! Figure 2 gadget), the activation order matters: different orders can
//! land in different solutions, exactly like different message timings in
//! a real network. [`solve_with_order`] exposes the order so callers can
//! explore several solutions; [`solve`] uses the natural node order.
//!
//! BGP-like protocols can also *diverge* (oscillate forever — the "bad
//! gadget" of Griffin et al.). The solver bounds the number of label
//! updates and reports [`SolveError::Diverged`] when the bound is hit.
//!
//! Every entry point has a `_masked` variant taking an optional
//! [`FailureMask`]: the fixpoint is then computed on the instance with the
//! masked edges removed, which is how the failure-scenario subsystem
//! re-solves one instance under thousands of link-failure combinations
//! without cloning it.
//!
//! [`solve_warm_masked`] goes one step further: instead of restarting from
//! ⊥, it **repairs** a failure-free fixpoint after edge deletion. Labels
//! whose forwarding chain to an origin survives the mask are provably still
//! stable (removing edges only shrinks choice sets); everything downstream
//! of the failed links is invalidated to ⊥ and the worklist re-runs from
//! exactly that region. On scenario sweeps this turns each solve from
//! O(network) propagation into O(affected region) propagation, and the
//! resulting labeling is validated by the same stability check as a cold
//! solve — a warm solution is never trusted, only reached faster.
//!
//! **One choice set per validated node.** Validation evaluates a node's
//! offers once: the same choice set is checked against the stability
//! constraint and yields the node's forwarding edges (every node of a cold
//! or seeded solve, the touched region of a warm one). The worklist reuses
//! one choice buffer across activations. Each solve counts its label
//! updates and offers in locals and publishes them, with its kind
//! (`srp.solves.{cold,seeded,warm}`), once when it returns.

use crate::model::{Protocol, Solution, Srp};
use bonsai_net::{FailureMask, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// The solver aborts after `update_factor * (V + E)` label updates.
    pub update_factor: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { update_factor: 64 }
    }
}

/// Why the solver failed to produce a solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The update budget was exhausted: the instance oscillates (or is far
    /// larger than the budget assumes).
    Diverged {
        /// Number of label updates performed before giving up.
        updates: usize,
    },
    /// The computed fixpoint failed the stability check — indicates a bug
    /// in a [`Protocol`] implementation (e.g. a non-antisymmetric compare).
    Internal(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Diverged { updates } => {
                write!(f, "control plane diverged after {updates} updates")
            }
            SolveError::Internal(msg) => write!(f, "internal solver error: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Statistics of one solver run. Label updates are a deterministic
/// machine-independent cost measure — the warm-start assertions compare
/// them instead of noisy wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Label updates performed until the fixpoint.
    pub updates: usize,
}

/// What one solve did, counted in locals.
#[derive(Default)]
struct Work {
    updates: usize,
    /// Transfer calls: every route offer the solve evaluated, during
    /// propagation and validation.
    offers: usize,
}

impl Work {
    /// Runs one solve of `kind` and publishes what it did into the metric
    /// registry once, when it ends (a diverged or refused solve too).
    fn counted<T>(kind: &str, solve: impl FnOnce(&mut Work) -> T) -> T {
        let mut work = Work::default();
        let solved = solve(&mut work);
        bonsai_obs::add(kind, 1);
        bonsai_obs::add("srp.label_updates", work.updates as u64);
        bonsai_obs::add("srp.offers", work.offers as u64);
        solved
    }
}

/// Solves the SRP with nodes initially activated in natural id order.
pub fn solve<P: Protocol>(srp: &Srp<'_, P>) -> Result<Solution<P::Attr>, SolveError> {
    let order: Vec<NodeId> = srp.graph.nodes().collect();
    solve_with_order(srp, &order, SolverOptions::default())
}

/// Solves the SRP with a set of failed edges removed, activating nodes in
/// natural id order. The instance itself is untouched — the mask only
/// filters which edges offer choices.
pub fn solve_masked<P: Protocol>(
    srp: &Srp<'_, P>,
    mask: Option<&FailureMask>,
) -> Result<Solution<P::Attr>, SolveError> {
    let order: Vec<NodeId> = srp.graph.nodes().collect();
    solve_with_order_masked(srp, &order, SolverOptions::default(), mask)
}

/// Solves the SRP, activating nodes initially in the given order.
///
/// The order is a permutation of the nodes (checked). Different orders may
/// yield different (all stable) solutions when the instance has several.
pub fn solve_with_order<P: Protocol>(
    srp: &Srp<'_, P>,
    order: &[NodeId],
    options: SolverOptions,
) -> Result<Solution<P::Attr>, SolveError> {
    solve_with_order_masked(srp, order, options, None)
}

/// [`solve_with_order`] with a link-failure mask threaded through: the
/// fixpoint is computed, and its stability validated, on the instance with
/// the masked edges removed. `None` (or an empty mask) is the failure-free
/// solve; the `Srp` is shared by reference across any number of scenario
/// solves.
pub fn solve_with_order_masked<P: Protocol>(
    srp: &Srp<'_, P>,
    order: &[NodeId],
    options: SolverOptions,
    mask: Option<&FailureMask>,
) -> Result<Solution<P::Attr>, SolveError> {
    solve_with_order_masked_stats(srp, order, options, mask).map(|(s, _)| s)
}

/// [`solve_with_order_masked`] additionally reporting [`SolveStats`].
pub fn solve_with_order_masked_stats<P: Protocol>(
    srp: &Srp<'_, P>,
    order: &[NodeId],
    options: SolverOptions,
    mask: Option<&FailureMask>,
) -> Result<(Solution<P::Attr>, SolveStats), SolveError> {
    let n = srp.graph.node_count();
    assert_eq!(order.len(), n, "activation order must cover every node");

    let mut labels: Vec<Option<P::Attr>> = vec![None; n];
    for &o in &srp.origins {
        labels[o.index()] = Some(srp.protocol.origin(o));
    }

    let seeds: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&u| !srp.is_origin(u))
        .collect();
    Work::counted("srp.solves.cold", |work| {
        solve_from(srp, labels, &seeds, options, mask, work)
    })
}

/// The tail of a cold and a seeded solve: propagate from `seeds`, then
/// validate every node.
fn solve_from<P: Protocol>(
    srp: &Srp<'_, P>,
    mut labels: Vec<Option<P::Attr>>,
    seeds: &[NodeId],
    options: SolverOptions,
    mask: Option<&FailureMask>,
    work: &mut Work,
) -> Result<(Solution<P::Attr>, SolveStats), SolveError> {
    let mut touched = vec![false; labels.len()];
    propagate(srp, &mut labels, seeds, options, mask, &mut touched, work)?;
    let fwd = srp
        .validated_forwarding(&labels, mask, &mut work.offers)
        .map_err(SolveError::Internal)?;
    Ok((
        Solution { labels, fwd },
        SolveStats {
            updates: work.updates,
        },
    ))
}

/// Solves the masked instance from an explicit initial labeling — the
/// **solution-transport** warm start of the per-scenario sweep engine.
///
/// `initial` is a *guess*, typically the base abstract network's
/// failure-free fixpoint transported through a partition-refinement map
/// onto a refined abstract network: near the fixpoint when the refinement
/// is local, but carrying no guarantees whatsoever. Origins are pinned to
/// their protocol origin labels (the guess is ignored there), **every**
/// non-origin node is seeded for re-examination, and the result passes the
/// same full stability validation as a cold solve — a bad guess can only
/// cost updates, never correctness. With a good guess most activations
/// confirm the label without an update, which is the measurable win
/// ([`SolveStats::updates`]).
///
/// A pathological guess can make the worklist leapfrog stale labels until
/// the update budget dies ([`SolveError::Diverged`]) where a cold order
/// would have converged — callers treat that as "guess wasted" and fall
/// back to a cold solve, exactly like [`solve_warm_masked`] divergence.
pub fn solve_seeded_masked<P: Protocol>(
    srp: &Srp<'_, P>,
    initial: Vec<Option<P::Attr>>,
    options: SolverOptions,
    mask: Option<&FailureMask>,
) -> Result<(Solution<P::Attr>, SolveStats), SolveError> {
    let n = srp.graph.node_count();
    assert_eq!(initial.len(), n, "initial labeling must cover every node");
    let mut labels = initial;
    for &o in &srp.origins {
        labels[o.index()] = Some(srp.protocol.origin(o));
    }

    let seeds: Vec<NodeId> = srp.graph.nodes().filter(|&u| !srp.is_origin(u)).collect();
    Work::counted("srp.solves.seeded", |work| {
        solve_from(srp, labels, &seeds, options, mask, work)
    })
}

/// Repairs a failure-free fixpoint after edge deletion instead of
/// restarting from ⊥.
///
/// `base` must be a stable solution of the *unmasked* instance (typically
/// the failure-free fixpoint, computed once per sweep). Nodes whose
/// forwarding chain to an origin survives the mask keep their labels —
/// masking only removes choices, so a label that is still offered along an
/// intact chain remains ≺-minimal. Every other routed node is invalidated
/// to ⊥, and the worklist re-runs from the invalidated region (plus its
/// predecessors and the failed-edge sources, whose choice sets changed).
///
/// The repaired region passes through the same per-node stability
/// validation as a cold solve; nodes the repair never touched keep inputs
/// identical to the already-validated base solution, so their constraints
/// (and forwarding sets) carry over unchanged — that is what makes the
/// warm solve O(affected region) end to end. Warm-starting can never
/// produce a wrong solution — at worst it diverges
/// ([`SolveError::Diverged`]) where a cold order would have converged, and
/// the caller falls back to [`solve_masked`].
pub fn solve_warm_masked<P: Protocol>(
    srp: &Srp<'_, P>,
    base: &Solution<P::Attr>,
    options: SolverOptions,
    mask: &FailureMask,
) -> Result<Solution<P::Attr>, SolveError> {
    let n = srp.graph.node_count();
    assert_eq!(base.labels.len(), n, "base solution must cover every node");
    let mut labels = base.labels.clone();

    // A node is *safe* when some forwarding chain of the base solution
    // reaches an origin without crossing a disabled edge: origins by
    // definition, and any node with an enabled fwd edge into a safe node.
    // Computed by reverse BFS over the base forwarding relation.
    let mut safe = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &o in &srp.origins {
        if !safe[o.index()] {
            safe[o.index()] = true;
            queue.push_back(o);
        }
    }
    // Reverse forwarding adjacency: fwd_preds[v] = nodes forwarding into v
    // across an enabled edge.
    let mut fwd_preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for u in srp.graph.nodes() {
        for &e in base.fwd(u) {
            if !mask.is_disabled(e) {
                fwd_preds[srp.graph.target(e).index()].push(u);
            }
        }
    }
    while let Some(v) = queue.pop_front() {
        for &u in &fwd_preds[v.index()] {
            if !safe[u.index()] {
                safe[u.index()] = true;
                queue.push_back(u);
            }
        }
    }

    // Invalidate everything downstream of the failures; seed the worklist
    // with the invalidated region, its predecessors, and the sources of
    // disabled edges (their choice sets shrank even when they stay safe).
    let mut seed_set = vec![false; n];
    for u in srp.graph.nodes() {
        if !safe[u.index()] && !srp.is_origin(u) && labels[u.index()].is_some() {
            labels[u.index()] = None;
            seed_set[u.index()] = true;
            for w in srp.graph.predecessors(u) {
                seed_set[w.index()] = true;
            }
        }
    }
    for e in mask.iter_disabled() {
        if e.index() < srp.graph.edge_count() {
            seed_set[srp.graph.source(e).index()] = true;
        }
    }
    let seeds: Vec<NodeId> = srp
        .graph
        .nodes()
        .filter(|&u| seed_set[u.index()] && !srp.is_origin(u))
        .collect();

    let mut touched = seed_set;
    let fwd = Work::counted("srp.solves.warm", |work| {
        propagate(
            srp,
            &mut labels,
            &seeds,
            options,
            Some(mask),
            &mut touched,
            work,
        )?;
        // Finish incrementally: only nodes whose inputs could have
        // changed — the touched region — get their forwarding recomputed
        // and their stability constraint rechecked. Everything else
        // carries over from the validated base verbatim.
        let mut fwd = base.fwd.clone();
        let mut choices = Vec::new();
        for u in srp.graph.nodes().filter(|u| touched[u.index()]) {
            fwd[u.index()] = srp
                .validated_node(&labels, u, Some(mask), &mut choices, &mut work.offers)
                .map_err(SolveError::Internal)?;
        }
        Ok(fwd)
    })?;
    Ok(Solution { labels, fwd })
}

/// The shared worklist loop: activates the seeds (in order), recomputes
/// each popped node's best choice, and propagates label changes to
/// predecessors until a fixpoint. Every node that is (re-)examined or
/// enqueued is marked in `touched`; callers validate at least that region.
/// Label updates and offers are counted into `work`.
fn propagate<P: Protocol>(
    srp: &Srp<'_, P>,
    labels: &mut [Option<P::Attr>],
    seeds: &[NodeId],
    options: SolverOptions,
    mask: Option<&FailureMask>,
    touched: &mut [bool],
    work: &mut Work,
) -> Result<(), SolveError> {
    let n = srp.graph.node_count();
    let mut queue: VecDeque<NodeId> = VecDeque::with_capacity(seeds.len().max(4) * 2);
    let mut queued = vec![false; n];
    for &u in seeds {
        debug_assert!(!srp.is_origin(u), "origins are pinned, never activated");
        if !queued[u.index()] {
            queue.push_back(u);
            queued[u.index()] = true;
            touched[u.index()] = true;
        }
    }

    let budget = options
        .update_factor
        .saturating_mul(n + srp.graph.edge_count())
        .max(1024);
    let mut choices = Vec::new();
    while let Some(u) = queue.pop_front() {
        queued[u.index()] = false;
        work.offers += srp.choices_into(labels, u, mask, &mut choices);
        let new_label = if choices.is_empty() {
            None
        } else {
            let best = srp.pick_minimal(&choices);
            // Keep the current label if it is still among the ≈-minimal
            // choices: real routers do not churn between equally good
            // routes, and this makes fixpoints sticky (helps convergence).
            let keep = labels[u.index()].as_ref().is_some_and(|cur| {
                choices
                    .iter()
                    .any(|(_, a)| a == cur && srp.equally_good(a, &choices[best].1))
            });
            if keep {
                continue;
            }
            Some(choices.swap_remove(best).1)
        };
        if new_label != labels[u.index()] {
            labels[u.index()] = new_label;
            work.updates += 1;
            if work.updates > budget {
                return Err(SolveError::Diverged {
                    updates: work.updates,
                });
            }
            for w in srp.graph.predecessors(u) {
                if !srp.is_origin(w) {
                    touched[w.index()] = true;
                    if !queued[w.index()] {
                        queued[w.index()] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Protocol;
    use bonsai_net::{EdgeId, Graph, GraphBuilder};
    use std::cmp::Ordering;

    struct Hops;
    impl Protocol for Hops {
        type Attr = u32;
        fn origin(&self, _: NodeId) -> u32 {
            0
        }
        fn compare(&self, a: &u32, b: &u32) -> Option<Ordering> {
            Some(a.cmp(b))
        }
        fn transfer(&self, _e: EdgeId, a: Option<&u32>) -> Option<u32> {
            a.map(|x| x + 1)
        }
    }

    fn grid(width: usize, height: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let nodes: Vec<Vec<NodeId>> = (0..height)
            .map(|y| {
                (0..width)
                    .map(|x| gb.add_node(format!("g{x}_{y}")))
                    .collect()
            })
            .collect();
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    gb.add_link(nodes[y][x], nodes[y][x + 1]);
                }
                if y + 1 < height {
                    gb.add_link(nodes[y][x], nodes[y + 1][x]);
                }
            }
        }
        gb.build()
    }

    #[test]
    fn shortest_paths_on_grid() {
        let g = grid(5, 4);
        let dest = NodeId(0);
        let srp = Srp::new(&g, dest, Hops);
        let sol = solve(&srp).unwrap();
        let bfs = g.bfs_distances(dest);
        for u in g.nodes() {
            assert_eq!(sol.label(u).copied(), bfs[u.index()]);
        }
        // Interior nodes with two equally short next hops multipath.
        let corner_opposite = NodeId((5 * 4 - 1) as u32);
        assert_eq!(sol.fwd(corner_opposite).len(), 2);
    }

    #[test]
    fn unreachable_nodes_get_bottom() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node("a");
        let b = gb.add_node("b");
        let c = gb.add_node("c"); // isolated
        gb.add_link(a, b);
        let _ = c;
        let g = gb.build();
        let srp = Srp::new(&g, NodeId(0), Hops);
        let sol = solve(&srp).unwrap();
        assert_eq!(sol.label(NodeId(1)).copied(), Some(1));
        assert_eq!(sol.label(NodeId(2)), None);
        assert!(sol.fwd(NodeId(2)).is_empty());
    }

    #[test]
    fn masked_solve_reroutes_around_failed_link() {
        // Diamond: d — {b1, b2} — a. Failing d—b1 pushes b1 onto the
        // 3-hop detour through a while b2 keeps its direct route.
        let mut gb = GraphBuilder::new();
        let d = gb.add_node("d");
        let b1 = gb.add_node("b1");
        let b2 = gb.add_node("b2");
        let a = gb.add_node("a");
        gb.add_link(d, b1);
        gb.add_link(d, b2);
        gb.add_link(a, b1);
        gb.add_link(a, b2);
        let g = gb.build();
        let srp = Srp::new(&g, d, Hops);

        let mut mask = bonsai_net::FailureMask::for_graph(&g);
        mask.disable_link(&g, d, b1);
        let sol = solve_masked(&srp, Some(&mask)).unwrap();
        assert_eq!(sol.label(b1).copied(), Some(3));
        assert_eq!(sol.label(b2).copied(), Some(1));
        assert_eq!(sol.label(a).copied(), Some(2));
        // b1 forwards only via a; the dead edge never appears in fwd.
        assert_eq!(sol.fwd(b1).len(), 1);
        assert_eq!(g.target(sol.fwd(b1)[0]), a);

        // The same instance still solves failure-free afterwards.
        let sol0 = solve(&srp).unwrap();
        assert_eq!(sol0.label(b1).copied(), Some(1));
    }

    #[test]
    fn masked_solve_partitions_network_to_bottom() {
        // Cutting a line graph strands the far side with ⊥ labels.
        let mut gb = GraphBuilder::new();
        let d = gb.add_node("d");
        let m = gb.add_node("m");
        let f = gb.add_node("f");
        gb.add_link(d, m);
        gb.add_link(m, f);
        let g = gb.build();
        let srp = Srp::new(&g, d, Hops);
        let mut mask = bonsai_net::FailureMask::for_graph(&g);
        mask.disable_link(&g, d, m);
        let sol = solve_masked(&srp, Some(&mask)).unwrap();
        assert_eq!(sol.label(m), None);
        assert_eq!(sol.label(f), None);
        assert_eq!(sol.routed_count(), 1); // just the origin
    }

    #[test]
    fn order_is_validated() {
        let g = grid(2, 2);
        let srp = Srp::new(&g, NodeId(0), Hops);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_with_order(&srp, &[NodeId(0)], SolverOptions::default())
        }));
        assert!(result.is_err());
    }

    #[test]
    fn warm_solve_matches_cold_solve_on_diamond() {
        let mut gb = GraphBuilder::new();
        let d = gb.add_node("d");
        let b1 = gb.add_node("b1");
        let b2 = gb.add_node("b2");
        let a = gb.add_node("a");
        gb.add_link(d, b1);
        gb.add_link(d, b2);
        gb.add_link(a, b1);
        gb.add_link(a, b2);
        let g = gb.build();
        let srp = Srp::new(&g, d, Hops);
        let base = solve(&srp).unwrap();

        let mut mask = bonsai_net::FailureMask::for_graph(&g);
        mask.disable_link(&g, d, b1);
        let warm = solve_warm_masked(&srp, &base, SolverOptions::default(), &mask).unwrap();
        let cold = solve_masked(&srp, Some(&mask)).unwrap();
        assert_eq!(warm.labels, cold.labels);
        assert_eq!(warm.fwd, cold.fwd);
    }

    /// Warm-starting must not count to infinity: cutting a line graph
    /// invalidates the stranded side down to ⊥ instead of leapfrogging
    /// stale labels upward until the budget dies.
    #[test]
    fn warm_solve_handles_partition_without_divergence() {
        let mut gb = GraphBuilder::new();
        let d = gb.add_node("d");
        let m = gb.add_node("m");
        let f = gb.add_node("f");
        gb.add_link(d, m);
        gb.add_link(m, f);
        let g = gb.build();
        let srp = Srp::new(&g, d, Hops);
        let base = solve(&srp).unwrap();

        let mut mask = bonsai_net::FailureMask::for_graph(&g);
        mask.disable_link(&g, d, m);
        let warm = solve_warm_masked(&srp, &base, SolverOptions::default(), &mask).unwrap();
        assert_eq!(warm.label(m), None);
        assert_eq!(warm.label(f), None);
        assert_eq!(warm.routed_count(), 1);
    }

    /// A failure that carried no traffic leaves the base fixpoint intact:
    /// the warm solve touches nothing and returns the base labeling.
    #[test]
    fn warm_solve_is_noop_off_the_forwarding_paths() {
        let g = grid(4, 3);
        let srp = Srp::new(&g, NodeId(0), Hops);
        let base = solve(&srp).unwrap();
        // The far-corner link only ever carries traffic *toward* the
        // origin; failing it still leaves every node a shortest path.
        let far = NodeId((4 * 3 - 1) as u32);
        let near_far = NodeId((4 * 3 - 2) as u32);
        let mut mask = bonsai_net::FailureMask::for_graph(&g);
        mask.disable_link(&g, far, near_far);
        let warm = solve_warm_masked(&srp, &base, SolverOptions::default(), &mask).unwrap();
        let cold = solve_masked(&srp, Some(&mask)).unwrap();
        assert_eq!(warm.labels, cold.labels);
        // Labels are unchanged from the base (the detour is equally long).
        assert_eq!(warm.labels, base.labels);
    }

    /// A protocol with no stable solution on a cycle: it prefers *longer*
    /// paths, so two adjacent nodes keep leapfrogging each other's labels
    /// forever (a minimal stand-in for Griffin's "bad gadget").
    struct Greedy;
    impl Protocol for Greedy {
        type Attr = u32;
        fn origin(&self, _: NodeId) -> u32 {
            0
        }
        fn compare(&self, a: &u32, b: &u32) -> Option<Ordering> {
            Some(b.cmp(a)) // larger is better
        }
        fn transfer(&self, _e: EdgeId, a: Option<&u32>) -> Option<u32> {
            a.map(|x| x + 1)
        }
    }

    #[test]
    fn divergent_instance_reports_divergence() {
        // d — a — b: `a` prefers the ever-growing offer through `b`, which
        // grows whenever `a` grows; labels increase without bound.
        let mut gb = GraphBuilder::new();
        let d = gb.add_node("d");
        let a = gb.add_node("a");
        let b = gb.add_node("b");
        gb.add_link(d, a);
        gb.add_link(a, b);
        let g = gb.build();
        let srp = Srp::new(&g, d, Greedy);
        match solve(&srp) {
            Err(SolveError::Diverged { updates }) => assert!(updates > 0),
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
