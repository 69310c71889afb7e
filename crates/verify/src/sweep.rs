//! The failure-verification **kernel**: deriving and checking the
//! refinement of one link-failure scenario for one destination class.
//!
//! The paper's abstraction is CP-equivalent failure-free, but one abstract
//! link stands for a whole orbit of concrete links and cannot express
//! "exactly one of them is down" (§9). Instead of decompressing one
//! abstraction until it survives every scenario at once, the kernel keeps
//! the failure-free **base** abstraction and derives a tiny refinement
//! *per scenario*:
//!
//! 1. **Localized split** — only the failed links' endpoints are isolated
//!    ([`bonsai_core::compress::refine_ec_with_split`] restores the
//!    Algorithm-1 fixpoint from there), so the rest of the network stays
//!    compressed. One failed link typically costs 1–3 extra blocks.
//! 2. **Orbit-signature keying** — a refinement is a pure function of the
//!    scenario's [`OrbitSignature`] (interned edge-signature orbit counts
//!    plus the canonical failed-subgraph pattern): it is derived from the
//!    signature's canonical representative, so symmetric scenarios share
//!    one refinement and one verified abstract solve.
//! 3. **Escalation** — when the localized split is refuted, only the block
//!    members whose *concrete behavior deviates* from what the abstract
//!    copies realize are split, and only then the fallback candidate rule
//!    (endpoints still sharing a block, else the whole offending block)
//!    applies. Every step strictly refines, so the loop is bounded by the
//!    node count, where abstract = concrete and every scenario passes.
//! 4. **One abstract solve per candidate** — the concrete check repairs
//!    the class's failure-free fixpoint
//!    ([`bonsai_srp::solve_warm_masked`]), and each concrete sample is
//!    compared first with the candidate's canonical abstract solution, the
//!    one the derivation keeps. A sample it does not match is transported
//!    onto the candidate the way the paper's proof builds its witness
//!    (each copy takes a member's label; `equivalence::transport_sample`)
//!    and the labelling is validated, not solved. Nothing searches
//!    abstract activation orders.
//!
//! Everything a check needs is hoisted **once per class** into a
//! `SweepCtx` (signature table, link orbits, the concrete SRP instance,
//! and the concrete failure-free fixpoint once a derivation reads it) over
//! a per-sweep `SweepEnv`; both entry points of the crate build exactly
//! that and call the same two functions, `derive_scenario_refinement` and
//! `check_scenario_refined`:
//!
//! * [`crate::netsweep`] — the one scenario loop: the (scenario × class)
//!   plane, fanned out over worker threads, with per-worker signature
//!   caches and cross-class sharing. Sweeping a single class is the plane
//!   restricted to it.
//! * [`derive_refinement`] — one derivation, every cache bypassed: the
//!   independent reference cache hits and transfers are tested against.
//!
//! Every refinement a sweep keeps — derived, transferred exactly or
//! symmetrically (eagerly or through a class witness), or replayed from a
//! snapshot — is [`ClassBase::split_partition`] of its split: it holds the
//! split and one `Arc` of its class's handle, and its partition is derived
//! on first read unless its producer already has it (a derivation hands
//! over its verified partition and network, an eager transfer its
//! partition, a witnessed transfer only the node count its donor carried
//! through the class witness, a snapshot replay nothing).
//!
//! Soundness of signature keying: exact for `k = 1`, and for `k ≥ 2` up
//! to labeled failed-subgraph isomorphism (the pattern-refined
//! [`OrbitSignature`] keeps shared-endpoint and disjoint same-orbit pairs
//! apart; see the [`bonsai_core::scenarios`] module docs).

use crate::equivalence::{
    class_srp, layout_srp, rotated_order, transport_sample, BehaviorMismatch, BehaviorTable,
    BlockSets, EquivalenceError,
};
use crate::query::QueryStats;
use crate::sim_engine::{abstract_verdict, concrete_verdict};
use bonsai_config::{BuiltTopology, Community, NetworkConfig};
use bonsai_core::abstraction::AbstractLayout;
use bonsai_core::algorithm::{refine_with_split, Abstraction};
use bonsai_core::compress::refine_ec_with_split;
use bonsai_core::ecs::DestEc;
use bonsai_core::engine::CompiledPolicies;
use bonsai_core::scenarios::{
    link_orbits_with_distances, FailureScenario, LinkOrbits, NodeDistances, OrbitSignature,
    SignatureInterner,
};
use bonsai_core::signatures::{build_sig_table, SigTable};
use bonsai_net::{FailureMask, Graph, NodeId};
use bonsai_srp::instance::{EcDest, MultiProtocol, RibAttr};
use bonsai_srp::solver::{
    solve_warm_masked, solve_with_order_masked, solve_with_order_masked_stats, SolveError,
    SolverOptions,
};
use bonsai_srp::{Solution, Srp};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Options of the failure-verification kernel.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Maximum number of simultaneously failed links (`k`).
    pub max_failures: usize,
    /// Verify one representative per orbit signature instead of every
    /// link combination. With signature caching an exhaustive sweep costs
    /// little more than a pruned one (every duplicate is a cache hit), so
    /// the default keeps the exhaustive per-scenario records.
    pub prune_symmetric: bool,
    /// Worker threads for the scenario fan-out (0 = all available cores).
    pub threads: usize,
    /// Concrete solution samples per verified scenario (the first is
    /// warm-started when a base fixpoint is available, the rest use
    /// rotated cold activation orders).
    pub concrete_orders: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_failures: 1,
            prune_symmetric: false,
            threads: 0,
            concrete_orders: 2,
        }
    }
}

/// How a [`ScenarioRefinement`] came to be in a sweep's result set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefinementProvenance {
    /// Derived and verified from scratch (the escalation loop ran).
    Derived,
    /// Materialized from a cross-EC cache entry of a class with the
    /// **identical** origin set (and equal policy fingerprint + quotient
    /// class): byte-identical to a fresh derivation by determinism.
    TransferredExact,
    /// Materialized from a cross-EC cache entry of a *symmetric* class
    /// (equal policy fingerprint, quotient class and canonical signature,
    /// different origins) whose derivation needed no escalation: the
    /// localized endpoint split is recomputed against this class's own
    /// base abstraction, and the donor's verification stands in for this
    /// class's by the certified symmetry.
    TransferredSymmetric,
}

impl RefinementProvenance {
    /// The spelling every document and table uses (`cli/failures`,
    /// `bonsai/session`, the `bonsai failures` listing).
    pub fn as_str(self) -> &'static str {
        match self {
            RefinementProvenance::Derived => "derived",
            RefinementProvenance::TransferredExact => "transferred-exact",
            RefinementProvenance::TransferredSymmetric => "transferred-symmetric",
        }
    }

    /// The inverse of [`RefinementProvenance::as_str`]; `None` for any
    /// other spelling.
    pub fn parse(s: &str) -> Option<Self> {
        [
            RefinementProvenance::Derived,
            RefinementProvenance::TransferredExact,
            RefinementProvenance::TransferredSymmetric,
        ]
        .into_iter()
        .find(|p| p.as_str() == s)
    }
}

/// One cached per-scenario refinement: the split that verified the
/// canonical representative of an orbit signature, plus how it was found.
///
/// A refinement *is* its split (Algorithm 1's `Refine` is a pure function
/// of the class's base partition and the nodes split off it): it holds
/// one `Arc` of its class's [`ClassBase`], and its partition —
/// [`ClassBase::split_partition`] of `split` — is derived on first read
/// ([`ScenarioRefinement::abstraction`]) unless the producer already has
/// it. The abstract network's layout and its canonical solution are
/// derived data the same way — a pure function of (network, class,
/// partition, representative) — and live behind
/// [`ScenarioRefinement::materialized`]: a sweep that only counts refined
/// nodes never lays out or solves them, a snapshot restore runs no
/// Algorithm 1 at all, and no configuration is written.
#[derive(Clone, Debug)]
pub struct ScenarioRefinement {
    /// The orbit signature this refinement is cached under.
    pub signature: OrbitSignature,
    /// The canonical representative scenario that was actually verified.
    pub representative: FailureScenario,
    /// Concrete nodes isolated from the base abstraction (empty when the
    /// base abstraction already verifies the representative).
    pub split: Vec<NodeId>,
    /// The class the split is taken from, shared by its refinements.
    class: Arc<ClassBase>,
    /// The per-scenario abstraction, handed over by the producer or
    /// filled by the first [`ScenarioRefinement::abstraction`] read.
    abstraction: OnceLock<Abstraction>,
    /// The node count a class witness carried over from the donor
    /// (`Some` exactly for a witnessed transfer).
    witnessed: Option<usize>,
    /// The localized endpoint split was refuted at least once.
    pub localized_refuted: bool,
    /// Rounds that split only deviating block members.
    pub deviating_rounds: usize,
    /// The fallback candidate rule (endpoints, then whole offending block)
    /// had to be used.
    pub global_fallback: bool,
    /// How this refinement entered the result set (derived here, or
    /// transferred from another destination class by the network sweep).
    pub provenance: RefinementProvenance,
    /// Filled by the derivation that verified it, or by the first
    /// [`ScenarioRefinement::materialized`] read; never evicted.
    materialized: OnceLock<Materialized>,
}

/// What the producer of a [`ScenarioRefinement`] already has of the data
/// derived from its split; the rest waits for the first reader.
pub(crate) enum Known {
    /// Nothing: a snapshot replay.
    Split,
    /// The partition's node count, carried through a class witness.
    Nodes(usize),
    /// The partition: an eager symmetric transfer, an exact one.
    Partition(Abstraction),
    /// The partition and the abstract layout a derivation verified.
    Verified(Abstraction, Box<Materialized>),
}

/// What [`ScenarioRefinement::materialized`] derives from a refinement's
/// partition: the abstract network's layout and canonical solution.
#[derive(Clone, Debug)]
pub struct Materialized {
    layout: AbstractLayout,
    /// The canonical solution and the label updates it took.
    canonical: Option<(Solution<RibAttr>, usize)>,
}

impl Materialized {
    /// The refinement's abstract network, laid out: what its canonical
    /// solution was solved on.
    pub fn layout(&self) -> &AbstractLayout {
        &self.layout
    }

    /// The **canonical solution** of that network under the
    /// representative's lifted failure mask: the natural-order
    /// [`bonsai_srp::solver::solve_masked`] fixpoint. This is exactly the
    /// solve every reachability query against the refinement would
    /// otherwise repeat per call — keeping it decouples query cost from
    /// solve cost. `None` when the natural-order solve diverges (the
    /// scenario is then answered on the concrete network).
    pub fn abstract_solution(&self) -> Option<&Solution<RibAttr>> {
        self.canonical.as_ref().map(|(solution, _)| solution)
    }
}

/// The one function from a partition to its derived pair: lays out the
/// abstract network and solves its lifted instance canonically under the
/// representative. Renders nothing.
fn materialize(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    representative: &FailureScenario,
) -> Materialized {
    let _span = bonsai_obs::span!(
        "refinement.materialize",
        class = ec.prefix.to_string(),
        abstract_nodes = abstraction.abstract_node_count()
    );
    bonsai_obs::add("sweep.refinements.materialized", 1);
    let layout = AbstractLayout::new(&topo.graph, ec, abstraction);
    let canonical =
        canonical_abstract_solution(network, topo, abstraction, &layout, representative);
    Materialized { layout, canonical }
}

impl ScenarioRefinement {
    /// The one place a refinement is put together: what it is and how it
    /// was found, over its class's handle, with whatever of the derived
    /// data its producer already has.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        class: Arc<ClassBase>,
        signature: OrbitSignature,
        representative: FailureScenario,
        split: Vec<NodeId>,
        known: Known,
        localized_refuted: bool,
        deviating_rounds: usize,
        global_fallback: bool,
        provenance: RefinementProvenance,
    ) -> Self {
        let (abstraction, witnessed, materialized) = match known {
            Known::Split => (None, None, None),
            Known::Nodes(nodes) => (None, Some(nodes), None),
            Known::Partition(abstraction) => (Some(abstraction), None, None),
            Known::Verified(abstraction, materialized) => {
                (Some(abstraction), None, Some(*materialized))
            }
        };
        ScenarioRefinement {
            signature,
            representative,
            split,
            class,
            abstraction: abstraction.map_or_else(OnceLock::new, OnceLock::from),
            witnessed,
            localized_refuted,
            deviating_rounds,
            global_fallback,
            provenance,
            materialized: materialized.map_or_else(OnceLock::new, OnceLock::from),
        }
    }

    /// This refinement over `class`, as `provenance`, with the partition
    /// it holds and without the derived pair (which embeds the class's own
    /// prefix): what the cross-class cache keeps of a donor, and what an
    /// exact transfer makes of that.
    pub(crate) fn carried(&self, class: &Arc<ClassBase>, provenance: RefinementProvenance) -> Self {
        let known = self
            .abstraction
            .get()
            .cloned()
            .map_or(Known::Split, Known::Partition);
        ScenarioRefinement::new(
            Arc::clone(class),
            self.signature.clone(),
            self.representative.clone(),
            self.split.clone(),
            known,
            self.localized_refuted,
            self.deviating_rounds,
            self.global_fallback,
            provenance,
        )
    }

    /// The per-scenario abstraction: the class's base with `split`
    /// isolated, at the Algorithm-1 fixpoint — [`ClassBase::split_partition`],
    /// computed here on first read unless the producer handed it over, and
    /// kept.
    pub fn abstraction(&self) -> &Abstraction {
        self.abstraction
            .get_or_init(|| self.class.split_partition(&self.split))
    }

    /// The class this refinement refines.
    pub fn class(&self) -> &ClassBase {
        &self.class
    }

    /// Whether this is a witnessed transfer (its node count carried over
    /// by a class witness; a recorded fact, nothing reads it to decide).
    pub fn is_witnessed(&self) -> bool {
        self.witnessed.is_some()
    }

    /// The refinement's abstract layout and canonical solution, built on
    /// first read and shared by every later one (racing first readers get
    /// one value). `network` and `topo` must be the ones the refinement was
    /// derived for. Deterministic, so a value built here equals the one a
    /// derivation pre-fills byte for byte.
    pub fn materialized(&self, network: &NetworkConfig, topo: &BuiltTopology) -> &Materialized {
        self.materialized.get_or_init(|| {
            let (ec, representative) = (&self.class.ec, &self.representative);
            materialize(network, topo, ec, self.abstraction(), representative)
        })
    }

    /// Whether the derived pair is resident (a derivation's is from the
    /// start; a transferred or replayed refinement's after its first
    /// [`ScenarioRefinement::materialized`] read).
    pub fn is_materialized(&self) -> bool {
        self.materialized.get().is_some()
    }

    /// The derivation converged on the stage-1 endpoint split with no
    /// escalation: what makes a refinement transferable to a symmetric
    /// class, and to another scenario of its signature.
    pub fn stage1_only(&self) -> bool {
        !self.localized_refuted && !self.global_fallback
    }

    /// Abstract node count of the per-scenario refinement (a witnessed
    /// transfer's is read without its partition).
    pub fn refined_nodes(&self) -> usize {
        self.witnessed
            .unwrap_or_else(|| self.abstraction().abstract_node_count())
    }

    /// How the refinement was found, as the documents and the `bonsai
    /// failures` listing spell it.
    pub fn how(&self) -> &'static str {
        if self.global_fallback {
            "global fallback"
        } else if self.deviating_rounds > 0 {
            "deviating-member split"
        } else if self.split.is_empty() {
            "base abstraction"
        } else {
            "localized split"
        }
    }
}

/// Per-scenario record of the sweep, in enumeration order.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario's rank in the exhaustive [`ScenarioStream`] (pruned
    /// sweeps keep it) — the global sort key sharded sweeps merge by.
    ///
    /// [`ScenarioStream`]: bonsai_core::scenarios::ScenarioStream
    pub rank: usize,
    /// The scenario.
    pub scenario: FailureScenario,
    /// Its orbit signature (the cache key).
    pub signature: OrbitSignature,
    /// The worker found the refinement in its local cache. Depends on the
    /// work-stealing schedule — diagnostics only; use
    /// [`SweepReport::cache_hit_rate`] for the deterministic rate.
    pub cache_hit: bool,
    /// Abstract node count of the scenario's refinement.
    pub refined_nodes: usize,
}

/// Aggregate per-scenario statistics, maintained even when individual
/// [`ScenarioOutcome`]s are not collected (the streamed aggregate mode of
/// the network-level sweep, where `O(C(L,k))` outcome records would defeat
/// the bounded-memory point). Integer sums, so merging shard or worker
/// tallies is exact and order-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeStats {
    /// Scenarios verified.
    pub scenarios: usize,
    /// Sum of per-scenario refined abstract node counts.
    pub refined_nodes_sum: usize,
    /// Largest per-scenario refinement (0 when nothing was swept).
    pub max_refined_nodes: usize,
}

impl OutcomeStats {
    /// Records one verified scenario.
    pub fn record(&mut self, refined_nodes: usize) {
        self.record_items(refined_nodes, 1);
    }

    /// Records `items` verified scenarios served by one refinement (a
    /// tallied class's signature).
    pub(crate) fn record_items(&mut self, refined_nodes: usize, items: usize) {
        self.scenarios += items;
        self.refined_nodes_sum += refined_nodes * items;
        self.max_refined_nodes = self.max_refined_nodes.max(refined_nodes);
    }

    /// Folds another tally in (worker states, shard reports).
    pub fn merge(&mut self, other: &OutcomeStats) {
        self.scenarios += other.scenarios;
        self.refined_nodes_sum += other.refined_nodes_sum;
        self.max_refined_nodes = self.max_refined_nodes.max(other.max_refined_nodes);
    }

    /// The tally of a collected outcome list.
    pub fn from_outcomes(outcomes: &[ScenarioOutcome]) -> Self {
        let mut stats = OutcomeStats::default();
        for o in outcomes {
            stats.record(o.refined_nodes);
        }
        stats
    }
}

/// One destination class's slice of a sweep: every scenario verified (via
/// its signature's representative), every distinct refinement kept.
#[derive(Debug)]
pub struct SweepReport {
    /// The failure bound that was swept.
    pub k: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Abstract node count of the failure-free base abstraction.
    pub base_abstract_nodes: usize,
    /// Scenario count of the exhaustive enumeration.
    pub scenarios_exhaustive: usize,
    /// Per-scenario outcomes, in enumeration order. Empty in the network
    /// sweep's aggregate mode — [`SweepReport::stats`] keeps the totals.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Aggregate tallies over every verified scenario (equals
    /// `OutcomeStats::from_outcomes(&outcomes)` whenever outcomes are
    /// collected).
    pub stats: OutcomeStats,
    /// The distinct refinements, keyed by orbit signature.
    pub refinements: BTreeMap<OrbitSignature, ScenarioRefinement>,
    /// Derivations actually performed across workers (`>=
    /// refinements.len()`; two workers may race on one signature).
    pub derivations: usize,
}

impl SweepReport {
    /// Scenarios verified (directly or via their cached representative).
    pub fn scenarios_swept(&self) -> usize {
        self.stats.scenarios
    }

    /// The deterministic cache hit rate: the fraction of scenarios served
    /// by an already-derived refinement, `1 - distinct/total`. Invariant
    /// under the thread count (unlike per-worker hit observations).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.stats.scenarios == 0 {
            return 0.0;
        }
        1.0 - self.refinements.len() as f64 / self.stats.scenarios as f64
    }

    /// Mean abstract node count across per-scenario refinements (weighted
    /// by scenario, i.e. what a random scenario's verification costs).
    /// Computed from the integer sum, so merged shard reports reproduce
    /// the monolithic value bit-for-bit.
    pub fn mean_refined_nodes(&self) -> f64 {
        if self.stats.scenarios == 0 {
            return self.base_abstract_nodes as f64;
        }
        self.stats.refined_nodes_sum as f64 / self.stats.scenarios as f64
    }

    /// Largest per-scenario refinement.
    pub fn max_refined_nodes(&self) -> usize {
        if self.stats.scenarios == 0 {
            self.base_abstract_nodes
        } else {
            self.stats.max_refined_nodes
        }
    }

    /// Refinements that needed the fallback candidate rule.
    pub fn fallback_count(&self) -> usize {
        self.refinements
            .values()
            .filter(|r| r.global_fallback)
            .count()
    }
}

/// What every class of one sweep shares: the network, the compression
/// run's policy engine, the attribute abstraction `h` it implies, and the
/// intact-network distance matrix behind every signature pattern.
pub(crate) struct SweepEnv<'a> {
    pub(crate) network: &'a NetworkConfig,
    pub(crate) topo: &'a BuiltTopology,
    /// `topo.graph`, owned once for every class handle of the sweep.
    graph: Arc<Graph>,
    pub(crate) engine: &'a CompiledPolicies,
    /// The communities labels are compared modulo — `Some` iff the
    /// compression itself stripped unused tags, so the two cannot disagree.
    pub(crate) keep: Option<BTreeSet<Community>>,
    pub(crate) distances: Arc<NodeDistances>,
    pub(crate) options: SweepOptions,
}

impl<'a> SweepEnv<'a> {
    /// `distances` must be [`NodeDistances::of_graph`] of `topo.graph` —
    /// a session passes the one it holds, so a build or reload computes
    /// it once.
    pub(crate) fn new(
        network: &'a NetworkConfig,
        topo: &'a BuiltTopology,
        engine: &'a CompiledPolicies,
        options: &SweepOptions,
        distances: Arc<NodeDistances>,
    ) -> Self {
        SweepEnv {
            network,
            topo,
            graph: Arc::new(topo.graph.clone()),
            engine,
            keep: engine
                .strips_unused_communities()
                .then(|| engine.communities().iter().copied().collect()),
            distances,
            options: *options,
        }
    }
}

/// Everything a scenario check of one destination class needs, hoisted
/// once and shared (immutably) by every worker: masked and warm solves
/// never clone or rebuild the concrete instance.
pub(crate) struct SweepCtx<'a> {
    pub(crate) env: &'a SweepEnv<'a>,
    /// The class and its failure-free (CP-equivalent) base abstraction,
    /// the handle every refinement of the class holds.
    pub(crate) class: Arc<ClassBase>,
    pub(crate) orbits: LinkOrbits,
    pub(crate) srp: Srp<'a, MultiProtocol<'a>>,
    /// The concrete failure-free fixpoint (natural order), solved by the
    /// first derivation that reads it — on a symmetric sweep most classes
    /// derive nothing. `None` inside when the instance does not converge
    /// failure-free: its samples fall back to cold orders.
    fixpoint: OnceLock<Option<Solution<RibAttr>>>,
}

impl<'a> SweepCtx<'a> {
    /// Hoists one class: its handle (signature table and base), link
    /// orbits and the concrete instance. The base fixpoint is solved on
    /// first read.
    pub(crate) fn hoist(env: &'a SweepEnv<'a>, ec: EcDest, base: &Abstraction) -> Self {
        let (network, topo) = (env.network, env.topo);
        let class = ClassBase::hoist(env.engine, network, topo, &env.graph, ec, base);
        let orbits =
            link_orbits_with_distances(&topo.graph, base, &class.sigs, env.distances.clone());
        let srp = class_srp(network, topo, &class.ec);
        SweepCtx {
            env,
            class,
            orbits,
            srp,
            fixpoint: OnceLock::new(),
        }
    }

    /// Failure-free fixpoint of the concrete instance, the warm start of
    /// every scenario's first concrete sample.
    fn base_solution(&self) -> Option<&Solution<RibAttr>> {
        self.fixpoint
            .get_or_init(|| bonsai_srp::solver::solve(&self.srp).ok())
            .as_ref()
    }
}

/// Lifts a concrete failure scenario onto an abstract network: for every
/// failed concrete link `u — v`, every abstract link between a copy of
/// `u`'s block and a copy of `v`'s block is failed.
///
/// This is the only possible interpretation of the scenario on the
/// abstract topology — and precisely where unsoundness comes from: when
/// the blocks have *other* concrete links that did not fail, the lifted
/// mask over-fails the abstract network. A check detects the resulting
/// behavior mismatch, and a derivation refines until every failed link is
/// the unique concrete witness of the abstract links it lifts to.
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

/// Solves a refined abstract network under its representative's lifted
/// failure mask with the **natural** activation order — the canonical
/// per-refinement solution kept in
/// [`Materialized::abstract_solution`] — with the label updates it took.
/// Deterministic (no rotation, no warm seed), so a cached copy, a fresh
/// derivation, and a snapshot-restored refinement all agree byte-for-byte.
/// `None` when the instance diverges under the mask.
pub(crate) fn canonical_abstract_solution(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    abstraction: &Abstraction,
    layout: &AbstractLayout,
    representative: &FailureScenario,
) -> Option<(Solution<RibAttr>, usize)> {
    Candidate::new(network, topo, abstraction, layout, representative).into_canonical()
}

/// One candidate refinement under one scenario, as its abstract side is
/// solved: the lifted SRP instance over the abstract network's layout and
/// the scenario's failure mask lifted onto it, built once and shared by
/// every abstract solve and behavior read of a check, and its canonical
/// solution, solved once — the abstract solution a check compares first,
/// and what the derivation it verifies keeps.
pub(crate) struct Candidate<'n> {
    abstraction: &'n Abstraction,
    layout: &'n AbstractLayout,
    srp: Srp<'n, MultiProtocol<'n>>,
    mask: FailureMask,
    canonical: OnceCell<Option<(Solution<RibAttr>, usize)>>,
}

impl<'n> Candidate<'n> {
    pub(crate) fn new(
        network: &'n NetworkConfig,
        topo: &BuiltTopology,
        abstraction: &'n Abstraction,
        layout: &'n AbstractLayout,
        scenario: &FailureScenario,
    ) -> Self {
        Candidate {
            abstraction,
            layout,
            srp: layout_srp(network, topo, layout),
            mask: lift_failure_mask(scenario, abstraction, layout),
            canonical: OnceCell::new(),
        }
    }

    /// The natural-order masked solve ([`canonical_abstract_solution`]),
    /// solved on first read.
    fn canonical(&self) -> Option<&(Solution<RibAttr>, usize)> {
        let solve = || {
            let order: Vec<NodeId> = self.layout.graph.nodes().collect();
            let options = SolverOptions::default();
            solve_with_order_masked_stats(&self.srp, &order, options, Some(&self.mask))
                .ok()
                .map(|(solution, stats)| (solution, stats.updates))
        };
        self.canonical.get_or_init(solve).as_ref()
    }

    /// The canonical solution, owned.
    fn into_canonical(self) -> Option<(Solution<RibAttr>, usize)> {
        self.canonical();
        self.canonical.into_inner().flatten()
    }
}

/// Derives (and verifies) the refinement of one orbit signature, bypassing
/// every cache — the independent reference tests use to prove that a
/// cache hit or a cross-class transfer returns byte-identically what a
/// fresh derivation would.
///
/// `abstraction`/`abs` must be the failure-free (CP-equivalent) base pair
/// of a compression run — `abs` its layout, whose numbering only a debug
/// build reads; `engine` the run's shared policy-compilation engine.
///
/// Errors when the concrete instance diverges under the representative or
/// the representative stays refuted at the discrete partition (a genuine
/// equivalence bug, not a failure asymmetry).
#[allow(clippy::too_many_arguments)]
pub fn derive_refinement(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &EcDest,
    abstraction: &Abstraction,
    abs: &AbstractLayout,
    engine: &CompiledPolicies,
    options: &SweepOptions,
    signature: &OrbitSignature,
) -> Result<ScenarioRefinement, EquivalenceError> {
    let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
    let env = SweepEnv::new(network, topo, engine, options, distances);
    let ctx = SweepCtx::hoist(&env, ec.clone(), abstraction);
    debug_assert_eq!(
        abs.copy_of_node, ctx.class.layout.copy_of_node,
        "the base pair"
    );
    derive_scenario_refinement(&ctx, signature)
}

/// Stage 1 of every derivation: the failed links' endpoints that still
/// share a block under `base` — the minimal split that lets the lifted
/// mask express the failure exactly (each failed link becomes the unique
/// witness of the abstract links it lifts to). Also the split a
/// symmetric cross-EC transfer recomputes against its own base.
pub(crate) fn endpoint_split(base: &Abstraction, scenario: &FailureScenario) -> Vec<NodeId> {
    let mut split: Vec<NodeId> = scenario
        .links
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .filter(|&n| base.partition.members(base.role_of(n)).len() > 1)
        .collect();
    split.sort();
    split.dedup();
    split
}

/// One destination class as every refinement of it is built against:
/// the concrete graph (one `Arc` per sweep or session, shared by every
/// class), the class, its signature table, and its failure-free base
/// abstraction with that abstraction's layout. Built once per class by
/// `ClassBase::hoist` (for `SweepCtx::hoist` and the session's plane
/// hoist), and shared by `Arc` with each refinement of the class, which
/// derives its partition from it.
pub struct ClassBase {
    /// The concrete graph.
    pub graph: Arc<Graph>,
    /// The class, as the SRP instance names it.
    pub ec: EcDest,
    /// The class's signature table
    /// ([`bonsai_core::signatures::build_sig_table`]).
    pub sigs: Arc<SigTable>,
    /// The class's failure-free base abstraction.
    pub base: Abstraction,
    /// The base abstraction's layout: the candidate of a derivation whose
    /// endpoint split is empty, and what the failure-free state is
    /// answered on.
    pub layout: AbstractLayout,
}

impl ClassBase {
    /// Hoists class `ec` over `graph` (`topo`'s, owned once by the
    /// caller): its signature table from the run's shared engine, a copy
    /// of its failure-free base and the base's layout.
    pub(crate) fn hoist(
        engine: &CompiledPolicies,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        graph: &Arc<Graph>,
        ec: EcDest,
        base: &Abstraction,
    ) -> Arc<Self> {
        let sigs = build_sig_table(engine, network, topo, &ec);
        let layout = AbstractLayout::new(graph, &ec, base);
        let (graph, base) = (Arc::clone(graph), base.clone());
        Arc::new(ClassBase {
            graph,
            ec,
            sigs,
            base,
            layout,
        })
    }

    /// From a split to its partition: the class's base with `split`
    /// isolated, back at the Algorithm-1 fixpoint (the base itself for an
    /// empty split). Of the endpoint split, this is stage 1 of a
    /// derivation without its check. Every refinement's partition is this
    /// of its split, and so is [`scenario_verdict`]'s own-refinement arm.
    pub fn split_partition(&self, split: &[NodeId]) -> Abstraction {
        if split.is_empty() {
            self.base.clone()
        } else {
            refine_with_split(&self.graph, &self.ec, &self.sigs, &self.base, split)
        }
    }
}

impl std::fmt::Debug for ClassBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassBase")
            .field("class", &self.ec.prefix)
            .finish_non_exhaustive()
    }
}

/// The per-node verdict of class `ec` under `scenario` — one flag per
/// concrete node, origins `true` — and the one place a scenario of the
/// sweep is answered: the resident [`crate::session::Session`], `bonsai
/// failures --query` and [`crate::sim_engine::SimEngine`] all end here.
/// `held` is the refinement the sweep keeps for the scenario's orbit
/// signature, if any. A scenario is answered on **its own** refinement,
/// never by lifting its links onto the refinement of another one:
///
/// 1. `scenario` is `held`'s representative — the scenario that
///    refinement was verified for: its canonical solution answers, with
///    no solver work in the query ([`QueryStats::by_representative`]).
/// 2. `held` verified at stage 1 ([`ScenarioRefinement::stage1_only`]) and
///    the class base is known: the scenario's own endpoint split (the
///    failed links' endpoints that share a block under the base) goes
///    through Algorithm 1 and the one `materialize`, its canonical
///    solution answers, and the network is dropped — one small abstract
///    solve, counted in `stats` ([`QueryStats::by_own_refinement`]).
/// 3. Anything else — an escalated `held` (its split names nodes specific
///    to the representative), no refinement, a scenario past the swept
///    bound, no class base, a diverging abstract solve: the concrete
///    masked simulation ([`QueryStats::by_concrete`]).
///
/// Arms 1 and 3 are exact by construction. Arm 2 rests on the argument
/// the sweep already trusts for every symmetric transfer — scenarios of
/// one orbit signature verify at the same stage — which is measured, not
/// proved: `tests/answer_oracle.rs` reads 0 differences from the concrete
/// simulation over every `≤ 2` scenario of its networks. What would
/// certify it is a *scenario* witness — an automorphism fixing the
/// class's origins that maps the scenario onto the representative — the
/// within-class counterpart of [`bonsai_core::symmetry`]'s class witness.
pub fn scenario_verdict(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &DestEc,
    class: Option<&ClassBase>,
    held: Option<&ScenarioRefinement>,
    scenario: &FailureScenario,
    stats: &mut QueryStats,
) -> Result<Vec<bool>, SolveError> {
    let answer_on = |abstraction: &Abstraction, materialized: &Materialized| {
        let (layout, solution) = (materialized.layout(), materialized.abstract_solution()?);
        Some(abstract_verdict(
            network,
            topo,
            ec,
            abstraction,
            layout,
            solution,
        ))
    };
    let verdict = match (held, class) {
        (Some(held), _) if held.representative == *scenario => {
            let materialized = held.materialized(network, topo);
            let verdict = answer_on(held.abstraction(), materialized);
            stats.by_representative += usize::from(verdict.is_some());
            stats.cached_answers += usize::from(verdict.is_some());
            verdict
        }
        (Some(held), Some(class)) if held.stage1_only() => {
            let own = class.split_partition(&endpoint_split(&class.base, scenario));
            let materialized = materialize(network, topo, &class.ec, &own, scenario);
            stats.abstract_solves += 1;
            stats.solver_updates += materialized.canonical.as_ref().map_or(0, |c| c.1);
            let verdict = answer_on(&own, &materialized);
            stats.by_own_refinement += usize::from(verdict.is_some());
            verdict
        }
        _ => None,
    };
    if let Some(verdict) = verdict {
        return Ok(verdict);
    }
    stats.by_concrete += 1;
    let mask = scenario.mask(&topo.graph);
    concrete_verdict(network, topo, ec, Some(&mask), stats)
}

/// The escalation loop behind every cache miss: localized endpoint split →
/// deviating-member splits → fallback candidate rule, each round strictly
/// refining, until the canonical representative verifies.
pub(crate) fn derive_scenario_refinement(
    ctx: &SweepCtx<'_>,
    signature: &OrbitSignature,
) -> Result<ScenarioRefinement, EquivalenceError> {
    let (env, class) = (ctx.env, &ctx.class);
    let mut span = bonsai_obs::span!("sweep.derive", class = class.ec.prefix.to_string());
    let refine = |split: &[NodeId]| {
        let (ec, sigs, base) = (&class.ec, &class.sigs, &class.base);
        refine_ec_with_split(&env.topo.graph, ec, sigs, base, split)
    };
    let rep = SignatureInterner::new(&ctx.orbits).canonical_scenario(signature);
    let mut split = endpoint_split(&class.base, &rep);

    let (mut cur, mut cur_layout) = if split.is_empty() {
        (class.base.clone(), class.layout.clone())
    } else {
        refine(&split)
    };

    let mut localized_refuted = false;
    let mut deviating_rounds = 0usize;
    let mut global_fallback = false;

    // The concrete side does not depend on the candidate abstraction:
    // sample the solutions once per representative (first warm-started,
    // then rotated cold orders) and reuse them across escalation rounds.
    let solutions = sample_concrete_solutions(ctx, &rep)?;

    // Each round adds at least one node from a multi-member block to the
    // split, so the loop is bounded by the node count; the discrete
    // partition's abstract network is isomorphic to the concrete one and
    // verifies trivially.
    for round in 1..=env.topo.graph.node_count() + 1 {
        let candidate = Candidate::new(env.network, env.topo, &cur, &cur_layout, &rep);
        let refutation = match check_scenario_refined(ctx, &rep, &solutions, &candidate) {
            Ok(()) => {
                if let Some(span) = &mut span {
                    span.record("rounds", round);
                    span.record("abstract_nodes", cur.abstract_node_count());
                }
                // The layout just verified is the one `materialize` would
                // build: keep it, with the canonical solution the check
                // compared first.
                let canonical = candidate.into_canonical();
                let verified = Materialized {
                    layout: cur_layout,
                    canonical,
                };
                return Ok(ScenarioRefinement::new(
                    Arc::clone(class),
                    signature.clone(),
                    rep,
                    split,
                    Known::Verified(cur, Box::new(verified)),
                    localized_refuted,
                    deviating_rounds,
                    global_fallback,
                    RefinementProvenance::Derived,
                ));
            }
            Err(r) => r,
        };
        localized_refuted = true;

        // Stage 2: split only the members whose concrete behavior the
        // abstract copies cannot realize.
        let mut additions = deviating_split(&cur, &refutation);
        if !additions.is_empty() {
            deviating_rounds += 1;
        } else {
            // Stage 3: endpoints still sharing a block under the
            // *current* partition, else the whole offending block.
            global_fallback = true;
            additions = split_candidates(&cur, &rep, &refutation.mismatch);
        }
        if additions.is_empty() {
            return Err(EquivalenceError::NoMatchingSolution {
                detail: format!(
                    "irrefinable mismatch under {}: {}",
                    rep.describe(&env.topo.graph),
                    refutation.describe(),
                ),
            });
        }
        split.extend(additions);
        split.sort();
        split.dedup();
        (cur, cur_layout) = refine(&split);
    }
    Err(EquivalenceError::NoMatchingSolution {
        detail: format!(
            "refinement bound exhausted deriving a refinement for {}",
            rep.describe(&env.topo.graph)
        ),
    })
}

/// Why a representative was refuted under a candidate refinement: the
/// canonical solution's mismatch with the refuted sample plus that
/// sample's per-node concrete behaviors (the raw material of the
/// deviating-member split), as ids of the check's behavior table, which
/// comes along.
pub(crate) struct Refutation {
    /// `None` when the canonical solve diverged.
    pub(crate) mismatch: Option<BehaviorMismatch>,
    /// Each concrete node's behavior id, in node order.
    node_behaviors: Vec<u32>,
    behaviors: BehaviorTable,
}

impl Refutation {
    /// Human-readable reason, for counterexamples and errors.
    pub(crate) fn describe(&self) -> String {
        match &self.mismatch {
            Some(m) => m.detail.clone(),
            None => "abstract instance diverged".to_string(),
        }
    }
}

/// Samples the concrete solutions of one scenario: the first is
/// warm-started from the failure-free fixpoint (cold when there is none
/// or on divergence), the rest use rotated cold orders.
/// Deduplicated — identical fixpoints would only repeat the abstract
/// matching work.
pub(crate) fn sample_concrete_solutions(
    ctx: &SweepCtx<'_>,
    scenario: &FailureScenario,
) -> Result<Vec<Solution<RibAttr>>, EquivalenceError> {
    let env = ctx.env;
    let mask = scenario.mask(&env.topo.graph);
    let nodes: Vec<NodeId> = env.topo.graph.nodes().collect();
    let mut out: Vec<Solution<RibAttr>> = Vec::new();
    for rot in 0..env.options.concrete_orders.max(1) {
        let solution = if rot == 0 {
            match ctx.base_solution() {
                // Warm-start from the failure-free fixpoint; a warm
                // divergence is repaired by the cold path below.
                Some(base) => {
                    match solve_warm_masked(&ctx.srp, base, SolverOptions::default(), &mask) {
                        Ok(s) => Ok(s),
                        Err(SolveError::Diverged { .. }) => cold_solve(ctx, &nodes, rot, &mask),
                        Err(e) => Err(e),
                    }
                }
                None => cold_solve(ctx, &nodes, rot, &mask),
            }
        } else {
            cold_solve(ctx, &nodes, rot, &mask)
        }
        .map_err(|e| {
            EquivalenceError::ConcreteDiverged(format!(
                "under {}: {e}",
                scenario.describe(&env.topo.graph)
            ))
        })?;
        if !out.contains(&solution) {
            out.push(solution);
        }
    }
    Ok(out)
}

/// Checks one scenario against a candidate abstraction: every sampled
/// concrete solution must have a matching abstract solution under the
/// lifted mask. The solutions come from [`sample_concrete_solutions`] —
/// they do not depend on the candidate abstraction, so escalation rounds
/// reuse them.
///
/// Each sample is compared with the candidate's canonical solution first.
/// A sample it does not match (`sweep.check.transported`) is transported
/// onto the candidate, validated and compared (`transport_sample`: the
/// witness the paper's proof constructs, no solve). A sample neither
/// matches refutes the candidate with the canonical solution's mismatch.
/// Behaviors are interned in one [`BehaviorTable`] per check.
pub(crate) fn check_scenario_refined(
    ctx: &SweepCtx<'_>,
    scenario: &FailureScenario,
    solutions: &[Solution<RibAttr>],
    candidate: &Candidate<'_>,
) -> Result<(), Box<Refutation>> {
    let env = ctx.env;
    let keep = env.keep.as_ref();
    let mask = scenario.mask(&env.topo.graph);
    let Candidate {
        abstraction,
        layout: abs,
        srp: abs_srp,
        mask: abs_mask,
        ..
    } = candidate;
    let mut behaviors = BehaviorTable::default();
    let canonical = (candidate.canonical())
        .map(|(solution, _)| behaviors.abstract_sets(abs, abs_srp, solution, keep, Some(abs_mask)));

    for solution in solutions {
        let node_behaviors =
            behaviors.concrete(&ctx.srp, env.topo, solution, abstraction, keep, Some(&mask));
        let concrete = BlockSets::of_nodes(&node_behaviors, abstraction);
        let mismatch = canonical
            .as_ref()
            .map(|sets| (concrete.first_mismatch(sets), sets));
        if let Some((None, _)) = mismatch {
            continue;
        }
        bonsai_obs::add("sweep.check.transported", 1);
        let transported = transport_sample(
            &mut behaviors,
            solution,
            &node_behaviors,
            &concrete,
            abstraction,
            abs,
            abs_srp,
            Some(abs_mask),
            keep,
        );
        if transported.is_ok() {
            continue;
        }
        let mismatch = mismatch.map(|(block, sets)| {
            let block = block.expect("the canonical solution did not match");
            behaviors.mismatch(block, &concrete, sets)
        });
        return Err(Box::new(Refutation {
            mismatch,
            node_behaviors,
            behaviors,
        }));
    }
    Ok(())
}

/// One cold masked solve under the shared rotation scheme.
fn cold_solve(
    ctx: &SweepCtx<'_>,
    nodes: &[NodeId],
    rot: usize,
    mask: &bonsai_net::FailureMask,
) -> Result<Solution<RibAttr>, SolveError> {
    let order = rotated_order(nodes, rot);
    solve_with_order_masked(&ctx.srp, &order, SolverOptions::default(), Some(mask))
}

/// The deviating-member split: of the offending block, exactly the members
/// whose concrete behavior no abstract copy realizes — or, when deviation
/// alone cannot separate them (every member deviates, or none does), all
/// members outside the largest behavior group. Empty when the block cannot
/// be split this way (singleton, unknown block, or one behavior group).
fn deviating_split(abstraction: &Abstraction, refutation: &Refutation) -> Vec<NodeId> {
    let Some(mismatch) = &refutation.mismatch else {
        return Vec::new();
    };
    let members = abstraction.partition.members(mismatch.block);
    if members.len() <= 1 {
        return Vec::new();
    }
    let behavior = |m: u32| refutation.node_behaviors[m as usize];

    let mut deviating: Vec<NodeId> = (members.iter().copied())
        .filter(|&m| mismatch.abs_behaviors.binary_search(&behavior(m)).is_err())
        .map(NodeId)
        .collect();
    deviating.sort();
    if !deviating.is_empty() && deviating.len() < members.len() {
        return deviating;
    }

    // Deviation alone cannot separate the members; keep the largest
    // behavior group together (ties: the ≤-smallest behavior) and isolate
    // the rest — still strictly less aggressive than the whole block.
    let mut groups: BTreeMap<u32, usize> = BTreeMap::new();
    for &m in members {
        *groups.entry(behavior(m)).or_default() += 1;
    }
    if groups.len() <= 1 {
        return Vec::new();
    }
    let largest = groups.values().copied().max().expect("at least two groups");
    let table = &refutation.behaviors;
    let keep = (groups.iter())
        .filter(|&(_, &size)| size == largest)
        .map(|(&id, _)| (table.behavior(id), id))
        .min()
        .map(|(_, id)| id)
        .expect("a largest group");
    let mut out: Vec<NodeId> = (members.iter().copied())
        .filter(|&m| behavior(m) != keep)
        .map(NodeId)
        .collect();
    out.sort();
    out
}

/// The fallback candidate rule, against the current partition: failed-link
/// endpoints still sharing a block with other nodes; if all endpoints are
/// already singletons, the members of the offending block. The last-resort
/// escalation of a derivation.
fn split_candidates(
    abstraction: &Abstraction,
    scenario: &FailureScenario,
    mismatch: &Option<BehaviorMismatch>,
) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = scenario
        .links
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .filter(|&n| abstraction.partition.members(abstraction.role_of(n)).len() > 1)
        .collect();
    out.sort();
    out.dedup();
    if out.is_empty() {
        if let Some(m) = mismatch {
            let members = abstraction.partition.members(m.block);
            if members.len() > 1 {
                out = members.iter().map(|&x| NodeId(x)).collect();
            }
        }
    }
    out
}

#[cfg(test)]
mod lifted;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsweep::{sweep_network_subset, NetworkSweepOptions};
    use bonsai_core::abstraction::PolicySections;
    use bonsai_core::compress::{compress, CompressOptions, CompressionReport};
    use bonsai_srp::papernets;

    /// One class on the plane, nothing shared: the per-class sweep.
    fn sweep_class(
        net: &NetworkConfig,
        topo: &BuiltTopology,
        report: &CompressionReport,
        options: &SweepOptions,
    ) -> SweepReport {
        let options = NetworkSweepOptions {
            sweep: *options,
            share_across_ecs: false,
            ..Default::default()
        };
        let mut sweep =
            sweep_network_subset(net, topo, report, &options, &[0]).expect("sweep completes");
        sweep.per_ec.remove(0).report
    }

    fn sweep_first_ec(net: &NetworkConfig, options: &SweepOptions) -> (BuiltTopology, SweepReport) {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        let sweep = sweep_class(net, &topo, &report, options);
        (topo, sweep)
    }

    /// The Figure-1 diamond: 4 links in 2 orbits, so the exhaustive k=1
    /// sweep derives 2 refinements and serves the other 2 scenarios from
    /// the cache. Each refinement splits exactly the failed link's
    /// endpoint out of the merged b-block — never the full decompression.
    #[test]
    fn diamond_sweep_stays_small_and_caches_by_orbit() {
        let net = papernets::figure1_rip();
        let (topo, sweep) = sweep_first_ec(
            &net,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(sweep.scenarios_swept(), 4);
        assert_eq!(sweep.scenarios_exhaustive, 4);
        assert_eq!(sweep.refinements.len(), 2);
        assert_eq!(sweep.cache_hit_rate(), 0.5);
        assert_eq!(sweep.base_abstract_nodes, 3);
        // Per-scenario refinements split one b out: 4 abstract nodes (the
        // diamond is tiny; on larger nets the point is the *ratio*).
        for r in sweep.refinements.values() {
            assert_eq!(r.refined_nodes(), 4, "{:?}", r.signature);
            assert!(!r.split.is_empty());
            assert!(!r.global_fallback);
        }
        assert!(sweep.mean_refined_nodes() <= 2.0 * sweep.base_abstract_nodes as f64);
        let _ = topo;
    }

    /// A cache hit returns byte-identically what a fresh derivation would:
    /// the per-signature refinement is a pure function of the signature.
    #[test]
    fn cache_hit_equals_fresh_derivation() {
        let net = papernets::figure1_rip();
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions::default());
        let ec = &report.per_ec[0];
        let ec_dest = ec.ec.to_ec_dest();
        let options = SweepOptions {
            threads: 1,
            ..Default::default()
        };
        let sweep = sweep_class(&net, &topo, &report, &options);
        for outcome in sweep.outcomes.iter().filter(|o| o.cache_hit) {
            let cached = &sweep.refinements[&outcome.signature];
            let fresh = derive_refinement(
                &net,
                &topo,
                &ec_dest,
                &ec.abstraction,
                &ec.abstract_network,
                &report.policies,
                &options,
                &outcome.signature,
            )
            .unwrap();
            assert_eq!(cached.representative, fresh.representative);
            assert_eq!(cached.split, fresh.split);
            assert_eq!(
                cached.abstraction().partition.as_sets(),
                fresh.abstraction().partition.as_sets()
            );
            assert_eq!(cached.abstraction().copies, fresh.abstraction().copies);
            let network_of = |r: &ScenarioRefinement| {
                let (mut text, sections) = (String::new(), PolicySections::new(&net));
                let layout = r.materialized(&net, &topo).layout();
                layout.print_into(&mut text, &net, &topo, &sections);
                text
            };
            assert_eq!(network_of(cached), network_of(&fresh));
        }
        assert!(sweep.outcomes.iter().any(|o| o.cache_hit));
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

    /// A widened Figure-1 diamond (three parallel b's): the deviating-
    /// member split isolates only the b whose behavior deviates under the
    /// failure, yielding a strictly smaller refined abstraction than the
    /// whole-block fallback it precedes.
    #[test]
    fn deviating_split_refines_strictly_less_than_whole_block() {
        let net = wide_diamond();
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions::default());
        let ec = &report.per_ec[0];
        let ec_dest = ec.ec.to_ec_dest();
        // Base abstraction merges the three b's: 3 roles for 5 nodes.
        assert_eq!(ec.abstraction.abstract_node_count(), 3);

        let d = topo.graph.node_by_name("d").unwrap();
        let b1 = topo.graph.node_by_name("b1").unwrap();
        let scenario = FailureScenario::new(vec![(d, b1)]);
        let mask = scenario.mask(&topo.graph);

        // Refute the *base* abstraction under the failure to obtain a real
        // mismatch (the lifted mask over-fails the merged b-block).
        let srp = class_srp(&net, &topo, &ec_dest);
        let solution = bonsai_srp::solver::solve_masked(&srp, Some(&mask)).unwrap();
        let mut behaviors = BehaviorTable::default();
        let node_behaviors =
            behaviors.concrete(&srp, &topo, &solution, &ec.abstraction, None, Some(&mask));
        let concrete = BlockSets::of_nodes(&node_behaviors, &ec.abstraction);
        let abs = &ec.abstract_network;
        let abs_mask = lift_failure_mask(&scenario, &ec.abstraction, abs);
        let abs_srp = layout_srp(&net, &topo, abs);
        let abs_solution = bonsai_srp::solver::solve_masked(&abs_srp, Some(&abs_mask)).unwrap();
        let abstract_sets =
            behaviors.abstract_sets(abs, &abs_srp, &abs_solution, None, Some(&abs_mask));
        let block = concrete
            .first_mismatch(&abstract_sets)
            .expect("the merged b-block must be refuted under the failure");
        let mismatch = behaviors.mismatch(block, &concrete, &abstract_sets);

        // The smarter split isolates exactly the deviating member b1…
        let refutation = Refutation {
            mismatch: Some(mismatch.clone()),
            node_behaviors,
            behaviors,
        };
        let smart = deviating_split(&ec.abstraction, &refutation);
        assert_eq!(smart, vec![b1]);
        let sigs = build_sig_table(&report.policies, &net, &topo, &ec_dest);
        let (smart_abs, _) =
            refine_ec_with_split(&topo.graph, &ec_dest, &sigs, &ec.abstraction, &smart);

        // …while the old fallback isolates the whole offending block.
        let whole: Vec<NodeId> = ec
            .abstraction
            .partition
            .members(mismatch.block)
            .iter()
            .map(|&x| NodeId(x))
            .collect();
        assert_eq!(whole.len(), 3);
        let (whole_abs, _) =
            refine_ec_with_split(&topo.graph, &ec_dest, &sigs, &ec.abstraction, &whole);

        // Strictly smaller: {b2, b3} stay merged.
        assert!(smart_abs.abstract_node_count() < whole_abs.abstract_node_count());
        assert_eq!(smart_abs.abstract_node_count(), 4);
        assert_eq!(whole_abs.abstract_node_count(), 5);
        let b2 = topo.graph.node_by_name("b2").unwrap();
        let b3 = topo.graph.node_by_name("b3").unwrap();
        assert_eq!(smart_abs.role_of(b2), smart_abs.role_of(b3));
    }

    /// Sweeping the widened diamond end to end: every per-scenario
    /// refinement stays strictly below the concrete size (the whole-block
    /// fallback would have discretized it).
    #[test]
    fn wide_diamond_sweep_keeps_symmetric_remainder_merged() {
        let net = wide_diamond();
        let (topo, sweep) = sweep_first_ec(
            &net,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(sweep.max_refined_nodes() < topo.graph.node_count());
        assert!(sweep.fallback_count() == 0);
        // 6 links in 2 orbits: hit rate 2/3.
        assert!(sweep.cache_hit_rate() > 0.5);
    }

    /// Pruned sweeps keep one representative per signature: no cache
    /// hits, same refinement set as the exhaustive sweep, exhaustive ranks.
    #[test]
    fn pruned_and_exhaustive_sweeps_agree_on_refinements() {
        let net = papernets::figure1_rip();
        let (_, exhaustive) = sweep_first_ec(
            &net,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let (_, pruned) = sweep_first_ec(
            &net,
            &SweepOptions {
                threads: 1,
                prune_symmetric: true,
                ..Default::default()
            },
        );
        assert_eq!(pruned.cache_hit_rate(), 0.0);
        assert_eq!(
            pruned.refinements.keys().collect::<Vec<_>>(),
            exhaustive.refinements.keys().collect::<Vec<_>>()
        );
        for (sig, r) in &pruned.refinements {
            assert_eq!(
                r.abstraction().partition.as_sets(),
                exhaustive.refinements[sig]
                    .abstraction()
                    .partition
                    .as_sets()
            );
        }
        assert!(pruned.scenarios_swept() <= exhaustive.scenarios_swept());
        for o in &pruned.outcomes {
            assert_eq!(exhaustive.outcomes[o.rank].scenario, o.scenario);
            assert_eq!(pruned.refinements[&o.signature].representative, o.scenario);
        }
    }

    /// The BGP gadget exercises the escalation path end to end (copy
    /// splits make the localized endpoint split insufficient on its own
    /// for some scenarios) and still converges per scenario.
    #[test]
    fn gadget_sweep_converges_per_scenario() {
        let net = papernets::figure2_gadget();
        let (topo, sweep) = sweep_first_ec(
            &net,
            &SweepOptions {
                threads: 1,
                max_failures: 2,
                ..Default::default()
            },
        );
        assert_eq!(sweep.scenarios_swept(), 21);
        // 6 signature classes at k=2: the pattern-refined signature keeps
        // the shared-endpoint and disjoint mixed pairs apart (the old
        // orbit-count multiset merged them into 5).
        assert!(sweep.refinements.len() <= 6);
        assert!(sweep.cache_hit_rate() > 0.5);
        for r in sweep.refinements.values() {
            assert!(r.refined_nodes() <= topo.graph.node_count());
        }
    }

    /// `a — {b1, b2, b3} — d`: Figure 1's diamond widened to three
    /// parallel paths, the smallest network where "split the deviating
    /// member" and "split the whole block" differ.
    fn wide_diamond() -> NetworkConfig {
        bonsai_config::parse_network(
            "
device d
interface to_b1
interface to_b2
interface to_b3
router bgp 100
 network 10.0.0.0/24
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
 neighbor to_b3 remote-as external
end
device b1
interface to_d
interface to_a
router bgp 1
 neighbor to_d remote-as external
 neighbor to_a remote-as external
end
device b2
interface to_d
interface to_a
router bgp 2
 neighbor to_d remote-as external
 neighbor to_a remote-as external
end
device b3
interface to_d
interface to_a
router bgp 3
 neighbor to_d remote-as external
 neighbor to_a remote-as external
end
device a
interface to_b1
interface to_b2
interface to_b3
router bgp 50
 neighbor to_b1 remote-as external
 neighbor to_b2 remote-as external
 neighbor to_b3 remote-as external
end
link d to_b1 b1 to_d
link d to_b2 b2 to_d
link d to_b3 b3 to_d
link a to_b1 b1 to_a
link a to_b2 b2 to_a
link a to_b3 b3 to_a
",
        )
        .expect("wide diamond parses")
    }
}
