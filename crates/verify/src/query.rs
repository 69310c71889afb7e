//! The one query-parameter object both verification engines take.
//!
//! Earlier revisions grew a `_masked` / `_under_refinement` /
//! `_under_failures` method family per engine — one name per way of
//! looking at failures. [`QueryCtx`] collapses them: every query method
//! takes the same context describing *which failures apply* and *which
//! per-scenario refinement (if any) to answer on*, so the CLI, the
//! daemon, and tests share one call path.
//!
//! ```
//! use bonsai_verify::query::QueryCtx;
//! use bonsai_core::scenarios::FailureScenario;
//!
//! let _everything_up = QueryCtx::failure_free();
//! let _one_scenario = QueryCtx::scenario(FailureScenario::new(vec![]));
//! let _bounded = QueryCtx::bounded(2); // every ≤2-link-failure scenario
//! ```

use crate::sweep::ScenarioRefinement;
use bonsai_core::scenarios::{FailureScenario, ScenarioStream};
use bonsai_net::{FailureMask, Graph};

/// Which failures a query is asked under.
#[derive(Clone, Debug, Default)]
pub enum QueryScope {
    /// No failures: the intact network.
    #[default]
    FailureFree,
    /// An explicit directed-edge mask on the concrete graph (the most
    /// general single-state scope; scenarios are undirected-link masks).
    Mask(FailureMask),
    /// One bounded link-failure scenario (a canonical set of failed
    /// undirected links).
    Scenario(FailureScenario),
    /// Every scenario with at most this many failed links, including the
    /// failure-free one — a sweep scope: answers hold under *all* states.
    AllScenarios(usize),
}

impl QueryScope {
    /// True for the sweep scope ([`QueryScope::AllScenarios`]).
    pub fn is_sweep(&self) -> bool {
        matches!(self, QueryScope::AllScenarios(_))
    }

    /// The concrete failure mask of a single-state scope (`None` for
    /// [`QueryScope::FailureFree`]). Panics on the sweep scope — callers
    /// enumerate its scenarios instead.
    pub fn concrete_mask(&self, graph: &Graph) -> Option<FailureMask> {
        match self {
            QueryScope::FailureFree => None,
            QueryScope::Mask(m) => Some(m.clone()),
            QueryScope::Scenario(s) => {
                if s.is_empty() {
                    None
                } else {
                    Some(s.mask(graph))
                }
            }
            QueryScope::AllScenarios(_) => {
                panic!("AllScenarios has no single mask; enumerate its scenarios")
            }
        }
    }
}

/// The query context: a failure scope plus (optionally) the per-scenario
/// refinement to answer on.
///
/// With a refinement and a [`QueryScope::Scenario`] scope naming the
/// refinement's representative, engines take the **compressed fast
/// path**: the refinement's canonical solution answers (zero solves) and
/// the verdict is mapped back to concrete nodes. Without one, or for any
/// other scenario, they simulate the concrete network under the scope's
/// mask ([`crate::sweep::scenario_verdict`]).
#[derive(Clone, Debug, Default)]
pub struct QueryCtx<'r> {
    /// Which failures apply.
    pub scope: QueryScope,
    /// The per-scenario refinement fast path (sweep engines produce
    /// these); only consulted for [`QueryScope::Scenario`] scopes.
    pub refinement: Option<&'r ScenarioRefinement>,
}

impl QueryCtx<'static> {
    /// The intact network.
    pub fn failure_free() -> Self {
        QueryCtx {
            scope: QueryScope::FailureFree,
            refinement: None,
        }
    }

    /// An explicit directed-edge failure mask (`None` = failure-free) —
    /// the shape the retired `_masked` methods took.
    pub fn masked(mask: Option<&FailureMask>) -> Self {
        QueryCtx {
            scope: match mask {
                None => QueryScope::FailureFree,
                Some(m) => QueryScope::Mask(m.clone()),
            },
            refinement: None,
        }
    }

    /// One bounded link-failure scenario, simulated concretely.
    pub fn scenario(scenario: FailureScenario) -> Self {
        QueryCtx {
            scope: QueryScope::Scenario(scenario),
            refinement: None,
        }
    }

    /// Every `≤ k`-link-failure scenario (the retired `_under_failures`
    /// sweep shape): answers must hold in every state.
    pub fn bounded(k: usize) -> Self {
        QueryCtx {
            scope: QueryScope::AllScenarios(k),
            refinement: None,
        }
    }
}

impl<'r> QueryCtx<'r> {
    /// One scenario answered on the refinement verified for it (the
    /// compressed fast path of the retired `_under_refinement` methods);
    /// a scenario that is not `refinement`'s representative is simulated
    /// concretely.
    pub fn refined(refinement: &'r ScenarioRefinement, scenario: FailureScenario) -> Self {
        QueryCtx {
            scope: QueryScope::Scenario(scenario),
            refinement: Some(refinement),
        }
    }
}

/// The single-state masks a scope expands to: one entry for a
/// single-state scope, and the failure-free state plus every `≤ k`
/// scenario for the sweep scope. Shared by both engines so sweep
/// semantics cannot drift between them.
pub(crate) fn scope_masks(graph: &Graph, scope: &QueryScope) -> Vec<Option<FailureMask>> {
    match scope {
        QueryScope::AllScenarios(k) => {
            let mut masks = vec![None];
            masks.extend(
                ScenarioStream::new(graph, *k)
                    .iter()
                    .map(|s| Some(s.mask(graph))),
            );
            masks
        }
        single => vec![single.concrete_mask(graph)],
    }
}

/// Work counters a query reports back, for cache-effectiveness
/// assertions: the daemon's integration test proves a repeated batch
/// performs **zero** solver updates by differencing these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Abstract (refined-network) control-plane solves performed: the
    /// canonical solve of a scenario's own stage-1 refinement, built for
    /// the query and dropped after it. The canonical solve of a refinement
    /// the *sweep* holds is not a query's — a derivation paid it, a
    /// transferred or replayed one pays it once at its representative's
    /// first read ([`crate::sweep::ScenarioRefinement::materialized`]) —
    /// and is counted by `sweep.refinements.materialized` instead.
    pub abstract_solves: usize,
    /// Concrete control-plane solves performed.
    pub concrete_solves: usize,
    /// Total label updates across those solves
    /// ([`bonsai_srp::solver::SolveStats::updates`]).
    pub solver_updates: usize,
    /// Queries answered from a cached canonical solution (no solve).
    pub cached_answers: usize,
    /// Scenario verdicts by the arm of [`crate::sweep::scenario_verdict`]
    /// that answered: the held refinement's canonical solution (the
    /// scenario is its representative) …
    pub by_representative: usize,
    /// … the scenario's own stage-1 refinement, materialized and dropped …
    pub by_own_refinement: usize,
    /// … or the concrete masked simulation.
    pub by_concrete: usize,
}

impl QueryStats {
    /// Accumulates another query's counters into this one.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.abstract_solves += other.abstract_solves;
        self.concrete_solves += other.concrete_solves;
        self.solver_updates += other.solver_updates;
        self.cached_answers += other.cached_answers;
        self.by_representative += other.by_representative;
        self.by_own_refinement += other.by_own_refinement;
        self.by_concrete += other.by_concrete;
    }
}
