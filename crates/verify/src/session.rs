//! The resident verification session: compress once, sweep once, answer
//! reachability queries at interactive latency forever after.
//!
//! Every earlier entry point (`bonsai check`, `bonsai failures`, the
//! bench bins) rebuilt the [`CompiledPolicies`](bonsai_core::engine::CompiledPolicies) arena, the base
//! abstractions, and the cross-EC refinement cache per invocation and
//! threw them away. A [`Session`] is the long-lived home those artifacts
//! were shaped for:
//!
//! 1. **build** — parse → compress ([`bonsai_core::compress::compress`])
//!    → network sweep ([`crate::netsweep::sweep_network`]), keeping the
//!    shared engine, every per-scenario [`ScenarioRefinement`] (its
//!    abstract network and canonical solution built by the first query to
//!    touch it, a derivation's at once), and a per-class orbit index.
//! 2. **query** — [`Session::reach`], [`Session::sweep_reach`],
//!    [`Session::all_pairs`], [`Session::path`] (path lengths and
//!    waypointing, the §4.4 checkers), and [`Session::batch`] (fanned out
//!    over [`bonsai_core::fanout::fan_out`]) answer under any `≤ k`
//!    failure scenario through [`scenario_verdict`]: a representative
//!    scenario is served from its refinement's canonical solution with
//!    **zero** solver work, a symmetric one on its *own* stage-1
//!    refinement (one tiny abstract solve), anything else concretely —
//!    never by lifting a scenario onto another one's refinement — and
//!    verdicts are memoized per `(class, scenario)`: a repeated query
//!    batch performs zero solver updates (counter-asserted by
//!    [`Session::stats`]).
//! 3. **snapshot** — [`Session::snapshot_json`] serializes the sweep's
//!    refinement cache *and both answer memos* (see [module docs on the
//!    format](#snapshot-format)) and [`SessionBuilder::restore`] rebuilds
//!    a warm session from it with **zero verification solves** and no
//!    Algorithm-1 run (splits are held, partitions built on first read);
//!    every persisted verdict and path answer is reloaded verbatim —
//!    so a restarted daemon answers previously-seen queries
//!    byte-identically **without touching the solver at all**
//!    (answer-warm, not just refinement-warm).
//! 4. **reload** — [`Session::reload`] absorbs a config edit: classes the
//!    edit touched are re-swept, every other class's query plane is
//!    carried over as it is, with its memoized answers.
//!
//! However a session comes to be — cold build, wired from a finished
//! sweep, restored, reloaded — it is put together by one private
//! assembler from per-class plane sources (swept, kept, or recorded in a
//! snapshot); the snapshot codec and the byte-capped memo live in the
//! `codec` and `memo` submodules.
//!
//! # Example
//!
//! The builder is the only way in; everything else hangs off the built
//! session:
//!
//! ```
//! use bonsai_verify::session::{Session, SessionOptions};
//!
//! let session = Session::builder(bonsai_srp::papernets::figure2_gadget())
//!     .options(SessionOptions {
//!         max_failures: 1,
//!         threads: 1,
//!         ..Default::default()
//!     })
//!     .build()
//!     .expect("gadget session builds");
//!
//! // Reachability under a failed link, answered from the sweep cache.
//! let answers = session
//!     .reach("a", "d", &[("b1".into(), "d".into())])
//!     .expect("known devices");
//! assert!(answers.iter().all(|a| a.delivered));
//!
//! // Path properties: every delivering a→d path crosses some b-router.
//! let paths = session
//!     .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
//!     .expect("known devices");
//! assert_eq!(paths[0].waypointed, Some(true));
//! ```
//!
//! # Snapshot format
//!
//! A session snapshot is a [`bonsai_core::snapshot`] envelope of kind
//! `"bonsai/session"`, version 1. The payload:
//!
//! ```json
//! {
//!   "k": 1,
//!   "prune_symmetric": false,
//!   "fingerprint": "<fnv64 of the canonical config printout>",
//!   "ecs": [
//!     {"rep": "10.0.0.0/24",
//!      "refinements": [
//!        {"links": [["agg0_0", "core0"]],
//!         "split": ["agg0_0", "agg1_0"],
//!         "localized_refuted": false,
//!         "deviating_rounds": 0,
//!         "global_fallback": false,
//!         "provenance": "derived"}]}
//!   ],
//!   "verdicts": [
//!     {"rep": "10.0.0.0/24",
//!      "entries": [{"links": [["agg0_0", "core0"]], "bits": "1011…"}]}
//!   ],
//!   "paths": [
//!     {"src": "edge0_0", "dst": "edge1_1", "links": [],
//!      "waypoints": ["agg0_0"],
//!      "answers": [{"prefix": "10.0.0.0/24", "lengths": [4],
//!                   "waypointed": true}]}
//!   ]
//! }
//! ```
//!
//! `verdicts` is the **persistent verdict-memo tier**: one `bits` string
//! per memoized `(class, scenario)` pair, `'1'`/`'0'` per concrete node
//! in node order. `paths` persists the path-query memo the same way.
//! Both sections are *optional on read* — snapshots written before they
//! existed restore fine, just refinement-warm instead of answer-warm.
//! That is the payload versioning policy: **additive optional fields do
//! not bump the version; a field changing shape or meaning does** (and
//! readers reject other versions with an explicit regenerate message).
//! Optional means *may be absent*: a member that is present with the
//! wrong type — `"split": "b1"`, `"deviating_rounds": -1`, `"verdicts":
//! "none"` — refuses the restore with a message naming it, and a member
//! this version does not know is skipped.
//!
//! Everything node-valued is stored by **display name** (stable across
//! processes); the `fingerprint` guards against restoring onto a
//! different network, with an explicit mismatch error.

mod codec;
mod digest;
mod memo;
mod plane;
mod reload;

use crate::equivalence::EquivalenceError;
use crate::netsweep::{sweep_with_distances, NetworkSweepOptions, NetworkSweepReport};
use crate::properties::SolutionAnalysis;
use crate::query::QueryStats;
use crate::sim_engine::{abstract_verdict, concrete_data_plane, concrete_verdict};
use crate::sweep::{scenario_verdict, ScenarioRefinement};
use bonsai_config::{print_network, BuiltTopology, NetworkConfig};
use bonsai_core::compress::{compress, CompressionReport};
use bonsai_core::ecs::DestEc;
use bonsai_core::fanout::fan_out;
use bonsai_core::scenarios::{FailureScenario, NodeDistances, OrbitSignature, ScenarioStream};
use bonsai_net::{Graph, NodeId};
use codec::{bits_string, parse_bits, PathRecord, RefinementRecord, SnapshotDoc, VerdictRecord};
use memo::{lock, MemoTier, VerdictKey, VerdictKeyRef};
use plane::{PlaneSource, QueryPlane};
pub use reload::ReloadOutcome;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The per-`(class index, scenario)` verdict memo behind a [`Session`].
type VerdictMemo = MemoTier<VerdictKey, Vec<bool>>;

/// Key of the path-query memo: `(src, dst, scenario, sorted waypoints)`.
type PathKey = (NodeId, NodeId, FailureScenario, Vec<NodeId>);

/// The memo behind [`Session::path`].
type PathMemo = MemoTier<PathKey, Vec<PathAnswer>>;

/// A class's verified refinements, by signature.
type Refinements = BTreeMap<OrbitSignature, ScenarioRefinement>;

/// The two answer memos a session starts from.
struct Memos {
    verdicts: VerdictMemo,
    paths: PathMemo,
}

impl Memos {
    /// Empty memos, each capped at `cap` bytes
    /// ([`SessionOptions::memo_cap_bytes`]).
    fn new(cap: usize) -> Self {
        Memos {
            verdicts: MemoTier::new(cap, |key, verdict| {
                48 + key.1.links.len() * 16 + verdict.len()
            }),
            paths: MemoTier::new(cap, |key, answers| {
                64 + key.2.links.len() * 16
                    + key.3.len() * 8
                    + answers
                        .iter()
                        .map(|a| {
                            48 + a.prefix.len() + a.lengths.as_ref().map_or(0, |l| l.len() * 8)
                        })
                        .sum::<usize>()
            }),
        }
    }
}

/// Envelope kind of a serialized session snapshot.
pub const SESSION_SNAPSHOT_KIND: &str = "bonsai/session";
/// Payload version of the session snapshot format.
pub const SESSION_SNAPSHOT_VERSION: u32 = 1;

/// What can go wrong building or querying a [`Session`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Compression or the verification sweep failed.
    Build(String),
    /// A query named a device the network does not have.
    UnknownNode(String),
    /// A query failed a link the topology does not have.
    UnknownLink(String, String),
    /// A control-plane solve diverged while answering.
    Solve(String),
    /// A snapshot could not be parsed or does not match this network.
    Snapshot(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Build(e) => write!(f, "session build failed: {e}"),
            SessionError::UnknownNode(n) => write!(f, "unknown device \"{n}\""),
            SessionError::UnknownLink(u, v) => write!(f, "no link between \"{u}\" and \"{v}\""),
            SessionError::Solve(e) => write!(f, "solve failed: {e}"),
            SessionError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Build-time knobs of a [`Session`].
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// Failure bound `k`: every `≤ k` link-failure scenario is swept at
    /// build time and answerable from cache afterwards (larger failure
    /// sets still work, via the concrete fallback path).
    pub max_failures: usize,
    /// Worker threads for the sweep and for [`Session::batch`] (0 = all
    /// available cores).
    pub threads: usize,
    /// Sweep one representative per orbit signature instead of every
    /// scenario (cheaper build, identical query coverage).
    pub prune_symmetric: bool,
    /// Byte cap applied to **each** answer memo (verdict tier and path
    /// tier independently); 0 = unbounded. When an insert pushes a tier
    /// past the cap, the least-recently-used entries are evicted (counted
    /// by `session.memo.evictions` and [`SessionStats::memo_evictions`]).
    pub memo_cap_bytes: usize,
    /// Compression options (community stripping, worker threads).
    pub compress: bonsai_core::compress::CompressOptions,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_failures: 1,
            threads: 0,
            prune_symmetric: false,
            memo_cap_bytes: 0,
            compress: Default::default(),
        }
    }
}

/// Builder for a [`Session`]: set the [`SessionOptions`], then
/// [`SessionBuilder::build`] (compress + sweep from scratch) or
/// [`SessionBuilder::restore`] (warm start from a snapshot).
pub struct SessionBuilder {
    network: NetworkConfig,
    options: SessionOptions,
}

impl SessionBuilder {
    /// Sets the options (default: [`SessionOptions::default`]).
    pub fn options(mut self, options: SessionOptions) -> Self {
        self.options = options;
        self
    }

    /// Compresses the network, sweeps every `≤ k` scenario, and wires the
    /// query planes — the cold path.
    pub fn build(self) -> Result<Session, SessionError> {
        let topo = build_topo(&self.network)?;
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let report = compress(&self.network, self.options.compress);
        let options = sweep_options(&self.options, self.options.max_failures);
        let every: Vec<usize> = (0..report.per_ec.len()).collect();
        let sweep =
            sweep_with_distances(&self.network, &topo, &report, &options, &every, &distances)
                .map_err(build_error)?;
        Session::of_sweep(self.network, (topo, distances), report, sweep, self.options)
    }

    /// Rebuilds a warm session from a snapshot produced by
    /// [`Session::snapshot_json`]: compression runs (it is not part of
    /// the snapshot), but **no solves** — the recorded splits are
    /// replayed to partitions. Rejects snapshots of other networks
    /// (fingerprint), other schema kinds/versions, and pre-envelope
    /// dialects, each with an explicit message.
    pub fn restore(mut self, snapshot_text: &str) -> Result<Session, SessionError> {
        let doc = SnapshotDoc::decode(snapshot_text).map_err(SessionError::Snapshot)?;
        let fingerprint = network_fingerprint(&self.network);
        if doc.fingerprint != fingerprint {
            return Err(SessionError::Snapshot(format!(
                "network fingerprint mismatch: snapshot was taken of {}, \
                 this network is {fingerprint} — rebuild instead of restoring",
                doc.fingerprint
            )));
        }
        self.options.max_failures = doc.k;
        if let Some(prune) = doc.prune_symmetric {
            self.options.prune_symmetric = prune;
        }
        let topo = build_topo(&self.network)?;
        let report = compress(&self.network, self.options.compress);

        let mut recorded: HashMap<String, Vec<RefinementRecord<String>>> =
            doc.classes.into_iter().collect();
        let mut class_of: HashMap<String, usize> = HashMap::new();
        let mut planes = Vec::with_capacity(report.per_ec.len());
        for (i, comp) in report.per_ec.iter().enumerate() {
            let rep = comp.ec.rep.to_string();
            let records = recorded.remove(&rep).ok_or_else(|| {
                SessionError::Snapshot(format!("snapshot has no class for prefix {rep}"))
            })?;
            planes.push(PlaneSource::Recorded(records));
            class_of.insert(rep, i);
        }

        // The persistent answer tier: every memoized verdict and path
        // answer is reloaded verbatim, so previously-seen queries never
        // reach the solver after a restart.
        let graph = &topo.graph;
        let n_nodes = graph.node_count();
        let mut memos = Memos::new(self.options.memo_cap_bytes);
        let (mut evicted, mut restored_answers) = (0usize, 0usize);
        for (rep, entries) in doc.verdicts {
            let Some(&i) = class_of.get(&rep) else {
                continue;
            };
            for entry in entries {
                let scenario = resolve_scenario(graph, &entry.links).map_err(in_snapshot)?;
                let verdict = parse_bits(&entry.bits, n_nodes).ok_or_else(|| {
                    SessionError::Snapshot(format!(
                        "verdict bits for {rep} are not {n_nodes} of '0'/'1'"
                    ))
                })?;
                evicted += memos.verdicts.insert((i, scenario), Arc::new(verdict));
                restored_answers += 1;
            }
        }
        for path in doc.paths {
            let key = (
                resolve_node(graph, &path.src).map_err(in_snapshot)?,
                resolve_node(graph, &path.dst).map_err(in_snapshot)?,
                resolve_scenario(graph, &path.links).map_err(in_snapshot)?,
                resolve_waypoints(graph, &path.waypoints).map_err(in_snapshot)?,
            );
            evicted += memos.paths.insert(key, path.answers);
            restored_answers += 1;
        }

        let summary = SweepSummary {
            k: doc.k,
            restored_answers,
            ..Default::default()
        };
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let session = Session::assemble(
            self.network,
            (topo, distances),
            fingerprint,
            report,
            self.options,
            planes,
            memos,
            summary,
        )?;
        session.note_evictions(evicted);
        Ok(session)
    }
}

/// How the sweep behind a session went — fixed at build time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// The failure bound swept.
    pub k: usize,
    /// (scenario, class) pairs verified at build time.
    pub scenarios_swept: usize,
    /// Full refinement derivations performed.
    pub derivations: usize,
    /// Cross-EC exact transfers.
    pub exact_transfers: usize,
    /// Cross-EC symmetric transfers.
    pub symmetric_transfers: usize,
    /// Distinct refinements held across all classes.
    pub refinements: usize,
    /// Refinements that were not swept for this session: rebuilt from a
    /// snapshot, or carried over by a reload with their untouched class
    /// (0 on cold builds).
    pub restored: usize,
    /// Memoized answers (verdicts + path results) reloaded from a
    /// snapshot's answer tier or carried over by a reload (0 on cold
    /// builds and on snapshots predating the tier).
    pub restored_answers: usize,
}

impl SweepSummary {
    /// The tallies of a finished sweep.
    fn of_sweep(sweep: &NetworkSweepReport) -> Self {
        SweepSummary {
            k: sweep.k,
            scenarios_swept: sweep.scenarios_swept(),
            derivations: sweep.derivations,
            exact_transfers: sweep.exact_transfers,
            symmetric_transfers: sweep.symmetric_transfers,
            ..Default::default()
        }
    }
}

/// A resident verification session: the compiled engine, the sweep state,
/// and memoizing query handles over both. See the module docs.
pub struct Session {
    network: NetworkConfig,
    topo: BuiltTopology,
    report: CompressionReport,
    /// One plane per class of `report`, in its order.
    planes: Vec<Arc<QueryPlane>>,
    /// Every non-empty `≤ k` scenario, unranked lazily (what
    /// [`Session::sweep_reach`] iterates).
    scenarios: ScenarioStream,
    fingerprint: String,
    options: SessionOptions,
    summary: SweepSummary,
    /// Memoized per-(class, scenario) verdicts.
    verdicts: Mutex<VerdictMemo>,
    /// Memoized path-property answers ([`Session::path`]).
    paths: Mutex<PathMemo>,
    queries: AtomicUsize,
    verdict_cache_hits: AtomicUsize,
    /// Memo entries evicted by the byte cap since build
    /// ([`SessionOptions::memo_cap_bytes`]).
    memo_evictions: AtomicUsize,
    solve_stats: Mutex<QueryStats>,
}

/// A point-in-time copy of a session's counters ([`Session::stats`]).
/// Difference two copies around a batch to prove cache effectiveness —
/// the daemon integration test asserts a repeated batch moves
/// `solver_updates` by exactly zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Destination classes served.
    pub classes: usize,
    /// Failure bound.
    pub k: usize,
    /// Non-empty scenarios answerable from the sweep.
    pub scenarios: usize,
    /// Queries answered since build.
    pub queries: usize,
    /// Verdicts served from the (class, scenario) memo.
    pub verdict_cache_hits: usize,
    /// Abstract control-plane solves performed by queries.
    pub abstract_solves: usize,
    /// Concrete control-plane solves performed by queries (fallback path).
    pub concrete_solves: usize,
    /// Label updates across all query solves.
    pub solver_updates: usize,
    /// Query verdicts served from a refinement's cached canonical
    /// solution.
    pub cached_answers: usize,
    /// Scenario verdicts computed (memo misses) by the arm of
    /// [`scenario_verdict`] that answered: the held refinement's canonical
    /// solution, for its representative …
    pub by_representative: usize,
    /// … the scenario's own stage-1 refinement …
    pub by_own_refinement: usize,
    /// … or the concrete masked simulation.
    pub by_concrete: usize,
    /// Entries resident in the (class, scenario) verdict memo.
    pub verdict_memo: usize,
    /// Entries resident in the path-query memo.
    pub path_memo: usize,
    /// Estimated resident bytes across both answer memos.
    pub memo_bytes: usize,
    /// Memo entries evicted by the byte cap since build
    /// ([`SessionOptions::memo_cap_bytes`]; 0 when uncapped).
    pub memo_evictions: usize,
    /// The build-time sweep.
    pub sweep: SweepSummary,
}

impl SessionStats {
    /// Fold this snapshot into the process-wide metric registry
    /// (`session.*` — see `docs/OBSERVABILITY.md`). The counters are
    /// lifetime-cumulative, so each publish overwrites the last.
    pub fn publish(&self) {
        for (metric, value) in [
            ("session.queries", self.queries),
            ("session.verdict.hits", self.verdict_cache_hits),
            ("session.answers.cached", self.cached_answers),
            ("session.answers.representative", self.by_representative),
            ("session.answers.own_refinement", self.by_own_refinement),
            ("session.answers.concrete", self.by_concrete),
            ("session.solver.updates", self.solver_updates),
            ("session.answers.restored", self.sweep.restored_answers),
            ("session.memo.verdicts", self.verdict_memo),
            ("session.memo.paths", self.path_memo),
            ("session.memo.bytes", self.memo_bytes),
        ] {
            bonsai_obs::set(metric, value as u64);
        }
    }
}

impl Session {
    /// Starts configuring a session over an owned network.
    pub fn builder(network: NetworkConfig) -> SessionBuilder {
        SessionBuilder {
            network,
            options: SessionOptions::default(),
        }
    }

    /// Wires a session from an already-run compression + network sweep
    /// (the bench uses this to avoid sweeping twice). `sweep` must come
    /// from `sweep_network(&network, _, &report, _)`.
    pub fn from_sweep(
        network: NetworkConfig,
        report: CompressionReport,
        sweep: NetworkSweepReport,
        options: SessionOptions,
    ) -> Result<Session, SessionError> {
        let topo = build_topo(&network)?;
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        Session::of_sweep(network, (topo, distances), report, sweep, options)
    }

    /// [`Session::from_sweep`] over the topology (and its distance matrix)
    /// the sweep already ran on.
    fn of_sweep(
        network: NetworkConfig,
        topo: (BuiltTopology, Arc<NodeDistances>),
        report: CompressionReport,
        sweep: NetworkSweepReport,
        options: SessionOptions,
    ) -> Result<Session, SessionError> {
        if !sweep
            .per_ec
            .iter()
            .map(|e| e.rep)
            .eq(report.per_ec.iter().map(|c| c.ec.rep))
        {
            return Err(SessionError::Build(
                "the sweep does not cover the compression run's classes in order".into(),
            ));
        }
        let summary = SweepSummary::of_sweep(&sweep);
        let planes = sweep
            .per_ec
            .into_iter()
            .map(|class| PlaneSource::Swept(class.report.refinements))
            .collect();
        let memos = Memos::new(options.memo_cap_bytes);
        let fingerprint = network_fingerprint(&network);
        Session::assemble(
            network,
            topo,
            fingerprint,
            report,
            options,
            planes,
            memos,
            summary,
        )
    }

    /// The one way a session comes to be. `sources` names, per class of
    /// `report` and in its order, where the class's query plane comes
    /// from; the topology with its intact-distance matrix and
    /// `fingerprint` are the network's (every caller has them — a build or
    /// reload swept over the same matrix), the rest of what is a function
    /// of it and `summary.k` is computed here, and `summary` arrives with
    /// the caller's sweep tallies and leaves with `refinements` and
    /// `restored` counted off the planes.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        network: NetworkConfig,
        (topo, distances): (BuiltTopology, Arc<NodeDistances>),
        fingerprint: String,
        report: CompressionReport,
        options: SessionOptions,
        sources: Vec<PlaneSource>,
        memos: Memos,
        mut summary: SweepSummary,
    ) -> Result<Session, SessionError> {
        let mut planes = Vec::with_capacity(sources.len());
        let graph = Arc::new(topo.graph.clone());
        for (comp, source) in report.per_ec.iter().zip(sources) {
            // The one per-class hoist, for a class not carried over whole.
            let hoist = || QueryPlane::hoist(&network, &topo, &graph, &report, comp, &distances);
            let plane = match source {
                PlaneSource::Swept(refinements) => {
                    let mut plane = hoist();
                    plane.refinements = refinements;
                    Arc::new(plane)
                }
                PlaneSource::Kept(plane) => {
                    summary.restored += plane.refinements.len();
                    plane
                }
                PlaneSource::Recorded(records) => {
                    let mut plane = hoist();
                    for record in records {
                        plane.replay(record)?;
                    }
                    summary.restored += plane.refinements.len();
                    Arc::new(plane)
                }
            };
            summary.refinements += plane.refinements.len();
            planes.push(plane);
        }
        let scenarios = ScenarioStream::new(&topo.graph, summary.k);
        Ok(Session {
            network,
            topo,
            report,
            planes,
            scenarios,
            fingerprint,
            options,
            summary,
            verdicts: Mutex::new(memos.verdicts),
            paths: Mutex::new(memos.paths),
            queries: AtomicUsize::new(0),
            verdict_cache_hits: AtomicUsize::new(0),
            memo_evictions: AtomicUsize::new(0),
            solve_stats: Mutex::new(QueryStats::default()),
        })
    }

    /// The failure bound queries are cached up to.
    pub fn max_failures(&self) -> usize {
        self.summary.k
    }

    /// Number of destination classes served.
    pub fn classes(&self) -> usize {
        self.planes.len()
    }

    /// Effective worker-thread count for [`Session::batch`].
    fn threads(&self) -> usize {
        if self.options.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.options.threads
        }
    }

    /// A point-in-time copy of the counters. Also folds the snapshot
    /// into the process-wide metric registry (`session.*`).
    pub fn stats(&self) -> SessionStats {
        let solve = *self.solve_stats();
        let (verdict_memo, verdict_bytes) = {
            let v = lock(&self.verdicts);
            (v.len(), v.resident_bytes())
        };
        let (path_memo, path_bytes) = {
            let p = lock(&self.paths);
            (p.len(), p.resident_bytes())
        };
        let stats = SessionStats {
            classes: self.planes.len(),
            k: self.summary.k,
            scenarios: self.scenarios.len(),
            queries: self.queries.load(Ordering::Relaxed),
            verdict_cache_hits: self.verdict_cache_hits.load(Ordering::Relaxed),
            abstract_solves: solve.abstract_solves,
            concrete_solves: solve.concrete_solves,
            solver_updates: solve.solver_updates,
            cached_answers: solve.cached_answers,
            by_representative: solve.by_representative,
            by_own_refinement: solve.by_own_refinement,
            by_concrete: solve.by_concrete,
            verdict_memo,
            path_memo,
            memo_bytes: verdict_bytes + path_bytes,
            memo_evictions: self.memo_evictions.load(Ordering::Relaxed),
            sweep: self.summary,
        };
        stats.publish();
        stats
    }

    fn node(&self, name: &str) -> Result<NodeId, SessionError> {
        resolve_node(&self.topo.graph, name)
    }

    /// The classes `dst` originates, with their index.
    fn classes_at(&self, dst: NodeId) -> impl Iterator<Item = (usize, &DestEc)> {
        let classes = self.report.per_ec.iter().map(|c| &c.ec).enumerate();
        classes.filter(move |(_, ec)| ec.origins.iter().any(|(n, _)| *n == dst))
    }

    /// Canonicalizes a named link list into a scenario.
    fn scenario_of(&self, links: &[(String, String)]) -> Result<FailureScenario, SessionError> {
        resolve_scenario(&self.topo.graph, links)
    }

    /// The query-work counters; plain integers, so a lock a panicking
    /// holder poisoned still holds a usable tally.
    fn solve_stats(&self) -> std::sync::MutexGuard<'_, QueryStats> {
        let stats = self.solve_stats.lock();
        stats.unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoizing verdict: one bool per concrete node for class `i`
    /// under `scenario` — the base abstract network's canonical solution
    /// for the failure-free state, [`scenario_verdict`] for every other.
    fn ec_verdict(
        &self,
        i: usize,
        scenario: &FailureScenario,
    ) -> Result<Arc<Vec<bool>>, SessionError> {
        if let Some(v) = lock(&self.verdicts).get(&(i, scenario) as &dyn VerdictKeyRef) {
            self.verdict_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        let comp = &self.report.per_ec[i];
        let (network, topo, ec) = (&self.network, &self.topo, &comp.ec);
        let plane = &self.planes[i];
        let mut stats = QueryStats::default();
        let verdict = if !scenario.is_empty() {
            let signature = plane.orbits.signature_of(scenario);
            let held = signature.and_then(|sig| plane.refinements.get(&sig));
            let class = Some(&*plane.class);
            scenario_verdict(network, topo, ec, class, held, scenario, &mut stats)
        } else if let Some(solution) = &plane.base_solution {
            stats.cached_answers += 1;
            let (base, layout) = (&comp.abstraction, &plane.class.layout);
            Ok(abstract_verdict(network, topo, ec, base, layout, solution))
        } else {
            concrete_verdict(network, topo, ec, None, &mut stats)
        }
        .map_err(|e| SessionError::Solve(e.to_string()))?;
        self.solve_stats().absorb(&stats);
        let verdict = Arc::new(verdict);
        let evicted = lock(&self.verdicts).insert((i, scenario.clone()), verdict.clone());
        self.note_evictions(evicted);
        Ok(verdict)
    }

    /// Folds cap evictions into the session counter and the process-wide
    /// registry.
    fn note_evictions(&self, evicted: usize) {
        if evicted > 0 {
            self.memo_evictions.fetch_add(evicted, Ordering::Relaxed);
            bonsai_obs::add("session.memo.evictions", evicted as u64);
        }
    }

    /// Which prefixes originated at `dst` does `src` deliver to, with the
    /// given links failed? One answer per destination class of `dst`.
    pub fn reach(
        &self,
        src: &str,
        dst: &str,
        links: &[(String, String)],
    ) -> Result<Vec<ReachAnswer>, SessionError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let src = self.node(src)?;
        let dst = self.node(dst)?;
        let scenario = self.scenario_of(links)?;
        let mut answers = Vec::new();
        for (i, ec) in self.classes_at(dst) {
            let verdict = self.ec_verdict(i, &scenario)?;
            answers.push(ReachAnswer {
                prefix: ec.rep.to_string(),
                delivered: verdict[src.index()],
            });
        }
        Ok(answers)
    }

    /// [`Session::reach`] swept over the failure-free state **and every**
    /// `≤ k` scenario: per prefix, in how many of those states `src`
    /// delivers.
    pub fn sweep_reach(&self, src: &str, dst: &str) -> Result<Vec<SweepAnswer>, SessionError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let src = self.node(src)?;
        let dst = self.node(dst)?;
        let states = 1 + self.scenarios.len();
        let mut answers = Vec::new();
        for (i, ec) in self.classes_at(dst) {
            let mut delivered = 0usize;
            let failure_free = std::iter::once(FailureScenario::new(vec![]));
            for state in failure_free.chain(self.scenarios.iter()) {
                if self.ec_verdict(i, &state)?[src.index()] {
                    delivered += 1;
                }
            }
            answers.push(SweepAnswer {
                prefix: ec.rep.to_string(),
                delivered,
                scenarios: states,
            });
        }
        Ok(answers)
    }

    /// All-pairs delivery counts under one failure scenario: over every
    /// served class, how many `(source, class)` pairs deliver.
    pub fn all_pairs(&self, links: &[(String, String)]) -> Result<AllPairsAnswer, SessionError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let scenario = self.scenario_of(links)?;
        let mut answer = AllPairsAnswer::default();
        for i in 0..self.planes.len() {
            let ec = &self.report.per_ec[i].ec;
            let origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
            let verdict = self.ec_verdict(i, &scenario)?;
            for u in self.topo.graph.nodes() {
                if origins.contains(&u) {
                    continue;
                }
                if verdict[u.index()] {
                    answer.delivered += 1;
                } else {
                    answer.unreachable += 1;
                }
            }
        }
        Ok(answer)
    }

    /// Path properties of the delivering `src → dst` forwarding paths
    /// with the given links failed: the set of path lengths (`None` when
    /// forwarding loops) and, if `waypoints` is non-empty, whether every
    /// path crosses at least one waypoint — the §4.4 checkers of the
    /// paper, served per destination class of `dst`.
    ///
    /// Answered by one memoized concrete data-plane build per class (path
    /// shape is a concrete-topology property, so the abstraction cache
    /// does not apply); repeats are served from the memo with zero solver
    /// work, and the memo persists across [`Session::snapshot_json`] /
    /// [`SessionBuilder::restore`].
    pub fn path(
        &self,
        src: &str,
        dst: &str,
        links: &[(String, String)],
        waypoints: &[String],
    ) -> Result<Vec<PathAnswer>, SessionError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let src = self.node(src)?;
        let dst = self.node(dst)?;
        let scenario = self.scenario_of(links)?;
        let points = resolve_waypoints(&self.topo.graph, waypoints)?;
        let key: PathKey = (src, dst, scenario, points);
        if let Some(v) = lock(&self.paths).get(&key) {
            self.verdict_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v.as_ref().clone());
        }
        let (_, _, scenario, points) = &key;
        let mask = if scenario.is_empty() {
            None
        } else {
            Some(scenario.mask(&self.topo.graph))
        };
        let waypoint_set: BTreeSet<NodeId> = points.iter().copied().collect();
        let cap = self.topo.graph.node_count().max(1);
        let mut stats = QueryStats::default();
        let mut answers = Vec::new();
        for (_, ec) in self.classes_at(dst) {
            let (data, origins) =
                concrete_data_plane(&self.network, &self.topo, ec, mask.as_ref(), &mut stats)
                    .map_err(|e| SessionError::Solve(e.to_string()))?;
            let analysis = SolutionAnalysis::new(&self.topo.graph, &data, &origins);
            let lengths = analysis
                .path_lengths(src, cap)
                .map(|set| set.into_iter().collect::<Vec<usize>>());
            let waypointed = if waypoint_set.is_empty() {
                None
            } else {
                Some(analysis.waypointed(src, &waypoint_set))
            };
            answers.push(PathAnswer {
                prefix: ec.rep.to_string(),
                lengths,
                waypointed,
            });
        }
        self.solve_stats().absorb(&stats);
        let answers = Arc::new(answers);
        let evicted = lock(&self.paths).insert(key, answers.clone());
        self.note_evictions(evicted);
        Ok(answers.as_ref().clone())
    }

    /// Answers a batch concurrently, fanned out over the shared
    /// lock-free driver ([`bonsai_core::fanout::fan_out`]). Answers come
    /// back in request order.
    pub fn batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryAnswer, SessionError>> {
        let threads = self.threads().min(requests.len().max(1));
        let (results, _) = fan_out(
            requests.len(),
            threads,
            || (),
            |_, i| self.query(&requests[i]),
        );
        results
    }

    /// Answers one structured request.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryAnswer, SessionError> {
        match request {
            QueryRequest::Reach { src, dst, links } => {
                self.reach(src, dst, links).map(QueryAnswer::Reach)
            }
            QueryRequest::Sweep { src, dst } => self.sweep_reach(src, dst).map(QueryAnswer::Sweep),
            QueryRequest::AllPairs { links } => self.all_pairs(links).map(QueryAnswer::AllPairs),
            QueryRequest::Path {
                src,
                dst,
                links,
                waypoints,
            } => self.path(src, dst, links, waypoints).map(QueryAnswer::Path),
        }
    }

    /// Serializes the session's sweep state as an enveloped snapshot (see
    /// the module docs for the format).
    pub fn snapshot_json(&self) -> String {
        let graph = &self.topo.graph;
        let name = |n: &NodeId| graph.name(*n);
        let links = |s: &FailureScenario| -> Vec<(&str, &str)> {
            s.links.iter().map(|(u, v)| (name(u), name(v))).collect()
        };
        let reps: Vec<String> = self
            .report
            .per_ec
            .iter()
            .map(|c| c.ec.rep.to_string())
            .collect();
        let record = |r: &ScenarioRefinement| RefinementRecord {
            links: links(&r.representative),
            split: r.split.iter().map(name).collect(),
            localized_refuted: r.localized_refuted,
            deviating_rounds: r.deviating_rounds,
            global_fallback: r.global_fallback,
            provenance: r.provenance,
        };
        let classes = reps
            .iter()
            .zip(&self.planes)
            .map(|(rep, plane)| {
                (
                    rep.as_str(),
                    plane.refinements.values().map(record).collect(),
                )
            })
            .collect();

        // The answer tier: both memos, in deterministic (sorted) order so
        // identical sessions snapshot byte-identically.
        let verdicts = lock(&self.verdicts);
        let mut entries: Vec<_> = verdicts.iter().collect();
        entries.sort_by_key(|&(key, _)| key);
        let mut by_class: BTreeMap<usize, Vec<VerdictRecord<&str>>> = BTreeMap::new();
        for ((i, scenario), verdict) in entries {
            by_class.entry(*i).or_default().push(VerdictRecord {
                links: links(scenario),
                bits: bits_string(verdict),
            });
        }
        let paths = lock(&self.paths);
        let sorted_paths: BTreeMap<&PathKey, &Arc<Vec<PathAnswer>>> = paths.iter().collect();
        SnapshotDoc {
            k: self.summary.k,
            prune_symmetric: Some(self.options.prune_symmetric),
            fingerprint: self.fingerprint.as_str(),
            classes,
            verdicts: by_class
                .into_iter()
                .map(|(i, entries)| (reps[i].as_str(), entries))
                .collect(),
            paths: sorted_paths
                .into_iter()
                .map(|((src, dst, scenario, waypoints), answers)| PathRecord {
                    src: name(src),
                    dst: name(dst),
                    links: links(scenario),
                    waypoints: waypoints.iter().map(name).collect(),
                    answers: Arc::clone(answers),
                })
                .collect(),
        }
        .encode()
    }

    /// Writes [`Session::snapshot_json`] to a file, returning the byte
    /// count. The document goes to `<path>.tmp.<pid>`, is synced and is
    /// renamed over `path`, so a failed or interrupted save leaves the
    /// previous snapshot — what the next start restores from — untouched.
    pub fn save_snapshot(&self, path: &std::path::Path) -> std::io::Result<usize> {
        use std::io::Write;
        let doc = self.snapshot_json();
        let mut temp = path.as_os_str().to_owned();
        temp.push(format!(".tmp.{}", std::process::id()));
        let written = std::fs::File::create(&temp)
            .and_then(|mut file| {
                file.write_all(doc.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&temp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        written.map(|()| doc.len())
    }
}

/// One prefix's delivery verdict under one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReachAnswer {
    /// The destination class's representative prefix.
    pub prefix: String,
    /// `src` delivers to it on every forwarding path.
    pub delivered: bool,
}

/// One prefix's delivery count across the swept scenario set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepAnswer {
    /// The destination class's representative prefix.
    pub prefix: String,
    /// States (failure-free + scenarios) in which `src` delivers.
    pub delivered: usize,
    /// Total states swept.
    pub scenarios: usize,
}

/// One prefix's path properties under one scenario ([`Session::path`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathAnswer {
    /// The destination class's representative prefix.
    pub prefix: String,
    /// Sorted distinct hop counts of the delivering `src → dst` paths;
    /// `None` when the forwarding graph loops from `src`.
    pub lengths: Option<Vec<usize>>,
    /// Whether every path crosses a requested waypoint; `None` when the
    /// query named no waypoints.
    pub waypointed: Option<bool>,
}

/// All-pairs delivery counts under one scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllPairsAnswer {
    /// `(source, class)` pairs that deliver on every path.
    pub delivered: usize,
    /// Pairs with at least one non-delivering path.
    pub unreachable: usize,
}

/// A structured query, the unit [`Session::batch`] fans out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRequest {
    /// [`Session::reach`].
    Reach {
        /// Source device name.
        src: String,
        /// Destination device name.
        dst: String,
        /// Failed links, by endpoint names.
        links: Vec<(String, String)>,
    },
    /// [`Session::sweep_reach`].
    Sweep {
        /// Source device name.
        src: String,
        /// Destination device name.
        dst: String,
    },
    /// [`Session::all_pairs`].
    AllPairs {
        /// Failed links, by endpoint names.
        links: Vec<(String, String)>,
    },
    /// [`Session::path`].
    Path {
        /// Source device name.
        src: String,
        /// Destination device name.
        dst: String,
        /// Failed links, by endpoint names.
        links: Vec<(String, String)>,
        /// Waypoint device names (may be empty).
        waypoints: Vec<String>,
    },
}

/// A structured answer, mirroring [`QueryRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Answer to a [`QueryRequest::Reach`].
    Reach(Vec<ReachAnswer>),
    /// Answer to a [`QueryRequest::Sweep`].
    Sweep(Vec<SweepAnswer>),
    /// Answer to a [`QueryRequest::AllPairs`].
    AllPairs(AllPairsAnswer),
    /// Answer to a [`QueryRequest::Path`].
    Path(Vec<PathAnswer>),
}

/// FNV-1a over the canonical config printout, as 16 hex digits — what
/// guards a snapshot against being restored onto another network.
fn network_fingerprint(network: &NetworkConfig) -> String {
    format!("{:016x}", crate::netsweep::fnv64(&print_network(network)))
}

fn build_error(e: EquivalenceError) -> SessionError {
    SessionError::Build(e.to_string())
}

fn build_topo(network: &NetworkConfig) -> Result<BuiltTopology, SessionError> {
    BuiltTopology::build(network).map_err(|e| SessionError::Build(e.to_string()))
}

/// The sweep a session is built by and re-swept by on reload.
fn sweep_options(options: &SessionOptions, k: usize) -> NetworkSweepOptions {
    NetworkSweepOptions {
        sweep: crate::sweep::SweepOptions {
            max_failures: k,
            prune_symmetric: options.prune_symmetric,
            threads: options.threads,
            ..Default::default()
        },
        share_across_ecs: true,
        // The session reads the refinement maps and the tallies, never
        // the per-scenario records.
        collect_outcomes: false,
        ..Default::default()
    }
}

fn resolve_node(graph: &Graph, name: &str) -> Result<NodeId, SessionError> {
    graph
        .node_by_name(name)
        .ok_or_else(|| SessionError::UnknownNode(name.to_string()))
}

/// The one place named links become a scenario: every pair in the
/// orientation of [`Graph::links`] ([`Graph::canonical_link`]), sorted.
fn resolve_scenario<S: AsRef<str>>(
    graph: &Graph,
    links: &[(S, S)],
) -> Result<FailureScenario, SessionError> {
    let pair = |(a, b): &(S, S)| {
        let (a, b) = (a.as_ref(), b.as_ref());
        let link = graph.canonical_link(resolve_node(graph, a)?, resolve_node(graph, b)?);
        link.ok_or_else(|| SessionError::UnknownLink(a.to_string(), b.to_string()))
    };
    Ok(FailureScenario::new(
        links.iter().map(pair).collect::<Result<_, _>>()?,
    ))
}

/// Waypoints as the path memo keys them: resolved, sorted, de-duplicated.
fn resolve_waypoints<S: AsRef<str>>(
    graph: &Graph,
    names: &[S],
) -> Result<Vec<NodeId>, SessionError> {
    let resolved = names.iter().map(|n| resolve_node(graph, n.as_ref()));
    let mut points: Vec<NodeId> = resolved.collect::<Result<_, _>>()?;
    points.sort_unstable();
    points.dedup();
    Ok(points)
}

/// A name a query would reject is, in a snapshot, a rejected snapshot.
fn in_snapshot(e: SessionError) -> SessionError {
    SessionError::Snapshot(match e {
        SessionError::UnknownNode(n) => format!("snapshot names unknown device {n}"),
        SessionError::UnknownLink(u, v) => {
            format!("snapshot names a link this network lacks: {u} -- {v}")
        }
        other => other.to_string(),
    })
}

// `CompiledPolicies` (inside the report) is shared across sweep worker
// threads already; every other field is plain data behind locks.
#[allow(dead_code)]
fn _assert_session_sync(s: &Session) -> &(dyn Sync + Send) {
    s
}
