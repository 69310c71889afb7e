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
//!    shared engine, every per-scenario [`ScenarioRefinement`] (each with
//!    its canonical abstract solution cached at derivation time), and a
//!    per-class orbit index.
//! 2. **query** — [`Session::reach`], [`Session::sweep_reach`],
//!    [`Session::all_pairs`], [`Session::path`] (path lengths and
//!    waypointing, the §4.4 checkers), and [`Session::batch`] (fanned out
//!    over [`bonsai_core::fanout::fan_out`]) answer under any `≤ k`
//!    failure scenario by orbit-signature lookup: representative
//!    scenarios are served from the cached canonical solution with
//!    **zero** solver work, symmetric ones by one tiny refined-abstract
//!    solve, and verdicts memoized per `(class, scenario)` — a repeated
//!    query batch performs zero solver updates (counter-asserted by
//!    [`Session::stats`]).
//! 3. **snapshot** — [`Session::snapshot_json`] serializes the sweep's
//!    refinement cache *and both answer memos* (see [module docs on the
//!    format](#snapshot-format)) and [`SessionBuilder::restore`] rebuilds
//!    a warm session from it with **zero verification solves**: splits
//!    are replayed through
//!    [`bonsai_core::compress::refine_ec_with_split`], only the cheap
//!    canonical solutions are recomputed, and every persisted verdict and
//!    path answer is reloaded verbatim — so a restarted daemon answers
//!    previously-seen queries byte-identically **without touching the
//!    solver at all** (answer-warm, not just refinement-warm).
//!
//! # Example
//!
//! The builder is the only way in; everything else hangs off the built
//! session:
//!
//! ```
//! use bonsai_verify::session::Session;
//!
//! let session = Session::builder(bonsai_srp::papernets::figure2_gadget())
//!     .max_failures(1)
//!     .threads(1)
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
//!
//! Everything node-valued is stored by **display name** (stable across
//! processes); the `fingerprint` guards against restoring onto a
//! different network, with an explicit mismatch error.

use crate::equivalence::EquivalenceError;
use crate::netsweep::{
    sweep_network, sweep_network_subset, NetworkSweepOptions, NetworkSweepReport,
};
use crate::properties::SolutionAnalysis;
use crate::query::QueryStats;
use crate::sim_engine::{abstract_verdict, concrete_data_plane, concrete_verdict, refined_verdict};
use crate::sweep::{canonical_abstract_solution, RefinementProvenance, ScenarioRefinement};
use bonsai_config::{print_network, BuiltTopology, NetworkConfig};
use bonsai_core::compress::{compress, recompress_delta, refine_ec_with_split, CompressionReport};
use bonsai_core::engine::DeltaInvalidation;
use bonsai_core::fanout::fan_out;
use bonsai_core::scenarios::{
    link_orbits_with_distances, FailureScenario, LinkOrbits, NodeDistances, OrbitSignature,
    ScenarioStream,
};
use bonsai_core::signatures::build_sig_table;
use bonsai_core::snapshot::{json_escape, write_envelope, Envelope, Json};
use bonsai_net::prefix::Prefix;
use bonsai_net::NodeId;
use bonsai_srp::instance::{OriginProto, RibAttr};
use bonsai_srp::Solution;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The per-`(class index, scenario)` verdict memo behind a [`Session`].
type VerdictMemo = MemoTier<(usize, FailureScenario), Vec<bool>>;

/// Key of the path-query memo: `(src, dst, scenario, sorted waypoints)`.
type PathKey = (NodeId, NodeId, FailureScenario, Vec<NodeId>);

/// The memo behind [`Session::path`].
type PathMemo = MemoTier<PathKey, Vec<PathAnswer>>;

/// The identity a destination class keeps across a config delta: same
/// representative, same address ranges, same origin set. Matches
/// `recompress_delta`'s class correspondence.
type EcIdentity = (Prefix, Vec<Prefix>, Vec<(NodeId, OriginProto)>);

/// One resident memo entry: the shared answer plus the bookkeeping the
/// byte cap needs.
struct MemoEntry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A byte-capped memo with least-recently-used eviction. With a cap of 0
/// the tier is unbounded (the historical behavior); otherwise an insert
/// that pushes the estimated resident bytes past the cap evicts the
/// stalest entries (never the one just inserted) until the tier fits.
struct MemoTier<K, V> {
    map: HashMap<K, MemoEntry<V>>,
    bytes: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> MemoTier<K, V> {
    fn new() -> Self {
        MemoTier {
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Estimated resident bytes across all entries.
    fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Inserts and enforces the cap, returning how many entries were
    /// evicted to make room.
    fn insert(&mut self, key: K, value: Arc<V>, bytes: usize, cap: usize) -> usize {
        self.tick += 1;
        let entry = MemoEntry {
            value,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        if cap > 0 {
            // The freshly inserted entry holds the highest tick, so the
            // LRU scan never picks it while anything else remains.
            while self.bytes > cap && self.map.len() > 1 {
                let stalest = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map has a minimum");
                if let Some(e) = self.map.remove(&stalest) {
                    self.bytes -= e.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &Arc<V>)> {
        self.map.iter().map(|(k, e)| (k, &e.value))
    }
}

/// Estimated resident bytes of one verdict-memo entry.
fn verdict_entry_bytes(key: &(usize, FailureScenario), verdict: &[bool]) -> usize {
    48 + key.1.links.len() * 16 + verdict.len()
}

/// Estimated resident bytes of one path-memo entry.
fn path_entry_bytes(key: &PathKey, answers: &[PathAnswer]) -> usize {
    64 + key.2.links.len() * 16
        + key.3.len() * 8
        + answers
            .iter()
            .map(|a| 48 + a.prefix.len() + a.lengths.as_ref().map_or(0, |l| l.len() * 8))
            .sum::<usize>()
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
    /// Re-verify symmetric cross-EC transfers during the sweep.
    pub verify_transfers: bool,
    /// Cap on destination classes (0 = all). Queries only see swept
    /// classes.
    pub max_ecs: usize,
    /// Byte cap applied to **each** answer memo (verdict tier and path
    /// tier independently); 0 = unbounded. When an insert pushes a tier
    /// past the cap, the least-recently-used entries are evicted (counted
    /// by `session.memo.evictions` and [`SessionStats::memo_evictions`]).
    pub memo_cap_bytes: usize,
    /// Compression options (community stripping, arena size).
    pub compress: bonsai_core::compress::CompressOptions,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            max_failures: 1,
            threads: 0,
            prune_symmetric: false,
            verify_transfers: false,
            max_ecs: 0,
            memo_cap_bytes: 0,
            compress: Default::default(),
        }
    }
}

/// Builder for a [`Session`]: configure, then [`SessionBuilder::build`]
/// (compress + sweep from scratch) or [`SessionBuilder::restore`] (warm
/// start from a snapshot).
pub struct SessionBuilder {
    network: NetworkConfig,
    options: SessionOptions,
}

impl SessionBuilder {
    /// Failure bound to sweep (default 1).
    pub fn max_failures(mut self, k: usize) -> Self {
        self.options.max_failures = k;
        self
    }

    /// Worker threads (default 0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Sweep one representative per orbit signature (default false).
    pub fn prune_symmetric(mut self, prune: bool) -> Self {
        self.options.prune_symmetric = prune;
        self
    }

    /// Cap on destination classes (default 0 = all).
    pub fn max_ecs(mut self, max_ecs: usize) -> Self {
        self.options.max_ecs = max_ecs;
        self
    }

    /// Byte cap per answer-memo tier (default 0 = unbounded).
    pub fn memo_cap_bytes(mut self, cap: usize) -> Self {
        self.options.memo_cap_bytes = cap;
        self
    }

    /// Replace the whole option set.
    pub fn options(mut self, options: SessionOptions) -> Self {
        self.options = options;
        self
    }

    /// Compresses the network, sweeps every `≤ k` scenario, and wires the
    /// query planes — the cold path.
    pub fn build(self) -> Result<Session, SessionError> {
        let topo =
            BuiltTopology::build(&self.network).map_err(|e| SessionError::Build(e.to_string()))?;
        let report = compress(&self.network, self.options.compress);
        let sweep_opts = NetworkSweepOptions {
            sweep: crate::sweep::SweepOptions {
                max_failures: self.options.max_failures,
                prune_symmetric: self.options.prune_symmetric,
                threads: self.options.threads,
                ..Default::default()
            },
            share_across_ecs: true,
            verify_transfers: self.options.verify_transfers,
            max_ecs: self.options.max_ecs,
            // `from_sweep` reads the refinement maps and the tallies, never
            // the per-scenario records.
            collect_outcomes: false,
            ..Default::default()
        };
        let sweep = sweep_network(&self.network, &topo, &report, &sweep_opts)
            .map_err(|e: EquivalenceError| SessionError::Build(e.to_string()))?;
        Session::from_sweep(self.network, report, sweep, self.options)
    }

    /// Rebuilds a warm session from a snapshot produced by
    /// [`Session::snapshot_json`]: compression runs (it is not part of
    /// the snapshot), but **no verification solves** — the recorded
    /// splits are replayed and only the canonical per-refinement
    /// solutions are recomputed. Rejects snapshots of other networks
    /// (fingerprint), other schema kinds/versions, and pre-envelope
    /// dialects, each with an explicit message.
    pub fn restore(mut self, snapshot_text: &str) -> Result<Session, SessionError> {
        let env = Envelope::parse_expecting(
            snapshot_text,
            SESSION_SNAPSHOT_KIND,
            SESSION_SNAPSHOT_VERSION,
        )
        .map_err(SessionError::Snapshot)?;
        let payload = &env.payload;
        let fingerprint = fnv64(&print_network(&self.network));
        let stored = payload
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| SessionError::Snapshot("payload has no fingerprint".into()))?;
        if stored != fingerprint {
            return Err(SessionError::Snapshot(format!(
                "network fingerprint mismatch: snapshot was taken of {stored}, \
                 this network is {fingerprint} — rebuild instead of restoring"
            )));
        }
        let k = payload
            .get("k")
            .and_then(Json::as_f64)
            .ok_or_else(|| SessionError::Snapshot("payload has no k".into()))?
            as usize;
        self.options.max_failures = k;
        if let Some(p) = payload.get("prune_symmetric").and_then(Json::as_bool) {
            self.options.prune_symmetric = p;
        }

        let topo =
            BuiltTopology::build(&self.network).map_err(|e| SessionError::Build(e.to_string()))?;
        let report = compress(&self.network, self.options.compress);
        let ec_docs = payload
            .get("ecs")
            .and_then(Json::as_arr)
            .ok_or_else(|| SessionError::Snapshot("payload has no ecs".into()))?;
        let n_ecs = if self.options.max_ecs == 0 {
            report.per_ec.len()
        } else {
            report.per_ec.len().min(self.options.max_ecs)
        }
        .min(ec_docs.len());

        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let mut planes = Vec::with_capacity(n_ecs);
        let mut restored = 0usize;
        for comp in report.per_ec.iter().take(n_ecs) {
            let rep = comp.ec.rep.to_string();
            let doc = ec_docs
                .iter()
                .find(|d| d.get("rep").and_then(Json::as_str) == Some(rep.as_str()))
                .ok_or_else(|| {
                    SessionError::Snapshot(format!("snapshot has no class for prefix {rep}"))
                })?;
            let ec_dest = comp.ec.to_ec_dest();
            let sigs = build_sig_table(&report.policies, &self.network, &topo, &ec_dest);
            let orbits = link_orbits_with_distances(
                &topo.graph,
                &comp.abstraction,
                &sigs,
                distances.clone(),
            );
            let mut refinements: BTreeMap<OrbitSignature, ScenarioRefinement> = BTreeMap::new();
            for r in doc.get("refinements").and_then(Json::as_arr).unwrap_or(&[]) {
                let names = parse_name_pairs(r.get("links"))
                    .ok_or_else(|| SessionError::Snapshot("malformed refinement links".into()))?;
                let mut pairs = Vec::with_capacity(names.len());
                for (a, b) in &names {
                    let resolve = |n: &str| {
                        topo.graph.node_by_name(n).ok_or_else(|| {
                            SessionError::Snapshot(format!("snapshot names unknown device {n}"))
                        })
                    };
                    pairs.push((resolve(a)?, resolve(b)?));
                }
                let scenario = FailureScenario::new(canonical_links(&topo.graph, &pairs).map_err(
                    |(u, v)| {
                        SessionError::Snapshot(format!(
                            "snapshot names a link this network lacks: {u} -- {v}"
                        ))
                    },
                )?);
                let signature = orbits.signature_of(&scenario).ok_or_else(|| {
                    SessionError::Snapshot("snapshot scenario outside this graph".into())
                })?;
                let mut split = Vec::new();
                for name in r
                    .get("split")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_str)
                {
                    split.push(topo.graph.node_by_name(name).ok_or_else(|| {
                        SessionError::Snapshot(format!("snapshot split names unknown node {name}"))
                    })?);
                }
                let (abstraction, abstract_network) = if split.is_empty() {
                    (comp.abstraction.clone(), comp.abstract_network.clone())
                } else {
                    refine_ec_with_split(
                        &self.network,
                        &topo,
                        &ec_dest,
                        &sigs,
                        &comp.abstraction,
                        &split,
                    )
                };
                let abstract_solution =
                    canonical_abstract_solution(&abstraction, &abstract_network, &scenario);
                let flag = |key: &str| r.get(key).and_then(Json::as_bool).unwrap_or(false);
                refinements.insert(
                    signature.clone(),
                    ScenarioRefinement {
                        signature,
                        representative: scenario,
                        split,
                        abstraction,
                        abstract_network,
                        localized_refuted: flag("localized_refuted"),
                        deviating_rounds: r
                            .get("deviating_rounds")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0) as usize,
                        global_fallback: flag("global_fallback"),
                        provenance: parse_provenance(
                            r.get("provenance").and_then(Json::as_str).unwrap_or(""),
                        ),
                        abstract_solution,
                    },
                );
                restored += 1;
            }
            let base_solution = canonical_abstract_solution(
                &comp.abstraction,
                &comp.abstract_network,
                &FailureScenario::new(vec![]),
            );
            planes.push(QueryPlane {
                orbits,
                refinements,
                base_solution,
            });
        }

        // The persistent answer tier (optional, additive — absent in
        // snapshots written before it existed): reload every memoized
        // verdict and path answer verbatim, so previously-seen queries
        // never reach the solver after a restart.
        let n_nodes = topo.graph.node_count();
        let mut verdicts = VerdictMemo::new();
        let mut paths = PathMemo::new();
        let memo_cap = self.options.memo_cap_bytes;
        let mut restore_evictions = 0usize;
        let mut restored_answers = 0usize;
        let rep_index: HashMap<String, usize> = report
            .per_ec
            .iter()
            .take(n_ecs)
            .enumerate()
            .map(|(i, c)| (c.ec.rep.to_string(), i))
            .collect();
        let resolve = |n: &str| {
            topo.graph
                .node_by_name(n)
                .ok_or_else(|| SessionError::Snapshot(format!("snapshot names unknown device {n}")))
        };
        let scenario_from = |links: Option<&Json>| {
            let names = parse_name_pairs(links)
                .ok_or_else(|| SessionError::Snapshot("malformed snapshot links".into()))?;
            let mut pairs = Vec::with_capacity(names.len());
            for (a, b) in &names {
                pairs.push((resolve(a)?, resolve(b)?));
            }
            Ok(FailureScenario::new(
                canonical_links(&topo.graph, &pairs).map_err(|(u, v)| {
                    SessionError::Snapshot(format!(
                        "snapshot names a link this network lacks: {u} -- {v}"
                    ))
                })?,
            ))
        };
        for doc in payload
            .get("verdicts")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let rep = doc.get("rep").and_then(Json::as_str).unwrap_or("");
            let Some(&i) = rep_index.get(rep) else {
                continue;
            };
            for entry in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
                let scenario = scenario_from(entry.get("links"))?;
                let bits = entry
                    .get("bits")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SessionError::Snapshot("verdict entry has no bits".into()))?;
                let verdict = parse_bits(bits, n_nodes).ok_or_else(|| {
                    SessionError::Snapshot(format!(
                        "verdict bits for {rep} are not {n_nodes} of '0'/'1'"
                    ))
                })?;
                let key = (i, scenario);
                let bytes = verdict_entry_bytes(&key, &verdict);
                restore_evictions += verdicts.insert(key, Arc::new(verdict), bytes, memo_cap);
                restored_answers += 1;
            }
        }
        for doc in payload.get("paths").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = |key: &str| {
                doc.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| SessionError::Snapshot(format!("path entry has no {key}")))
            };
            let src = resolve(name("src")?)?;
            let dst = resolve(name("dst")?)?;
            let scenario = scenario_from(doc.get("links"))?;
            let mut waypoints = Vec::new();
            for w in doc
                .get("waypoints")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
            {
                waypoints.push(resolve(w)?);
            }
            waypoints.sort_unstable();
            waypoints.dedup();
            let mut answers = Vec::new();
            for a in doc.get("answers").and_then(Json::as_arr).unwrap_or(&[]) {
                let prefix = a
                    .get("prefix")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SessionError::Snapshot("path answer has no prefix".into()))?
                    .to_string();
                let lengths = a.get("lengths").and_then(Json::as_arr).map(|arr| {
                    arr.iter()
                        .filter_map(Json::as_f64)
                        .map(|x| x as usize)
                        .collect::<Vec<usize>>()
                });
                let waypointed = a.get("waypointed").and_then(Json::as_bool);
                answers.push(PathAnswer {
                    prefix,
                    lengths,
                    waypointed,
                });
            }
            let key = (src, dst, scenario, waypoints);
            let bytes = path_entry_bytes(&key, &answers);
            restore_evictions += paths.insert(key, Arc::new(answers), bytes, memo_cap);
            restored_answers += 1;
        }

        let scenarios = ScenarioStream::new(&topo.graph, k).to_vec();
        if restore_evictions > 0 {
            bonsai_obs::add("session.memo.evictions", restore_evictions as u64);
        }
        Ok(Session {
            summary: SweepSummary {
                k,
                scenarios_swept: 0,
                derivations: 0,
                exact_transfers: 0,
                symmetric_transfers: 0,
                refinements: planes.iter().map(|p| p.refinements.len()).sum(),
                restored,
                restored_answers,
            },
            network: self.network,
            topo,
            report,
            planes,
            scenarios,
            fingerprint,
            options: self.options,
            verdicts: Mutex::new(verdicts),
            paths: Mutex::new(paths),
            queries: AtomicUsize::new(0),
            verdict_cache_hits: AtomicUsize::new(0),
            memo_evictions: AtomicUsize::new(restore_evictions),
            solve_stats: Mutex::new(QueryStats::default()),
        })
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
    /// Refinements rebuilt from a snapshot (0 on cold builds).
    pub restored: usize,
    /// Memoized answers (verdicts + path results) reloaded from a
    /// snapshot's answer tier (0 on cold builds and on snapshots
    /// predating the tier).
    pub restored_answers: usize,
}

/// Per-class query state.
struct QueryPlane {
    /// The class's link-orbit index (scenario → signature).
    orbits: LinkOrbits,
    /// The sweep's verified refinements, by signature.
    refinements: BTreeMap<OrbitSignature, ScenarioRefinement>,
    /// Canonical failure-free solution of the base abstract network.
    base_solution: Option<Solution<RibAttr>>,
}

/// A resident verification session: the compiled engine, the sweep state,
/// and memoizing query handles over both. See the module docs.
pub struct Session {
    network: NetworkConfig,
    topo: BuiltTopology,
    report: CompressionReport,
    planes: Vec<QueryPlane>,
    /// Every non-empty `≤ k` scenario, exhaustively (what
    /// [`Session::sweep_reach`] iterates).
    scenarios: Vec<FailureScenario>,
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
        bonsai_obs::set("session.queries", self.queries as u64);
        bonsai_obs::set("session.verdict.hits", self.verdict_cache_hits as u64);
        bonsai_obs::set("session.answers.cached", self.cached_answers as u64);
        bonsai_obs::set("session.solver.updates", self.solver_updates as u64);
        bonsai_obs::set(
            "session.answers.restored",
            self.sweep.restored_answers as u64,
        );
        bonsai_obs::set("session.memo.verdicts", self.verdict_memo as u64);
        bonsai_obs::set("session.memo.paths", self.path_memo as u64);
        bonsai_obs::set("session.memo.bytes", self.memo_bytes as u64);
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
        let topo =
            BuiltTopology::build(&network).map_err(|e| SessionError::Build(e.to_string()))?;
        let summary = SweepSummary {
            k: sweep.k,
            scenarios_swept: sweep.scenarios_swept(),
            derivations: sweep.derivations,
            exact_transfers: sweep.exact_transfers,
            symmetric_transfers: sweep.symmetric_transfers,
            refinements: sweep
                .per_ec
                .iter()
                .map(|e| e.report.refinements.len())
                .sum(),
            restored: 0,
            restored_answers: 0,
        };
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let mut planes = Vec::with_capacity(sweep.per_ec.len());
        for (i, ec_sweep) in sweep.per_ec.into_iter().enumerate() {
            let comp = &report.per_ec[i];
            debug_assert_eq!(
                comp.ec.rep, ec_sweep.rep,
                "sweep order follows compress order"
            );
            let ec_dest = comp.ec.to_ec_dest();
            let sigs = build_sig_table(&report.policies, &network, &topo, &ec_dest);
            let orbits = link_orbits_with_distances(
                &topo.graph,
                &comp.abstraction,
                &sigs,
                distances.clone(),
            );
            let base_solution = canonical_abstract_solution(
                &comp.abstraction,
                &comp.abstract_network,
                &FailureScenario::new(vec![]),
            );
            planes.push(QueryPlane {
                orbits,
                refinements: ec_sweep.report.refinements,
                base_solution,
            });
        }
        let scenarios = ScenarioStream::new(&topo.graph, sweep.k).to_vec();
        let fingerprint = fnv64(&print_network(&network));
        Ok(Session {
            network,
            topo,
            report,
            planes,
            scenarios,
            fingerprint,
            options,
            summary,
            verdicts: Mutex::new(VerdictMemo::new()),
            paths: Mutex::new(PathMemo::new()),
            queries: AtomicUsize::new(0),
            verdict_cache_hits: AtomicUsize::new(0),
            memo_evictions: AtomicUsize::new(0),
            solve_stats: Mutex::new(QueryStats::default()),
        })
    }

    /// The owned network.
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// The derived topology.
    pub fn topo(&self) -> &BuiltTopology {
        &self.topo
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
        let solve = *self.solve_stats.lock().unwrap();
        let (verdict_memo, verdict_bytes) = {
            let v = self.verdicts.lock().unwrap();
            (v.len(), v.resident_bytes())
        };
        let (path_memo, path_bytes) = {
            let p = self.paths.lock().unwrap();
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
        self.topo
            .graph
            .node_by_name(name)
            .ok_or_else(|| SessionError::UnknownNode(name.to_string()))
    }

    /// Canonicalizes a named link list into a scenario.
    fn scenario_of(&self, links: &[(String, String)]) -> Result<FailureScenario, SessionError> {
        let mut pairs = Vec::with_capacity(links.len());
        for (a, b) in links {
            let u = self.node(a)?;
            let v = self.node(b)?;
            pairs.push((u, v));
        }
        Ok(FailureScenario::new(
            canonical_links(&self.topo.graph, &pairs)
                .map_err(|(u, v)| SessionError::UnknownLink(u, v))?,
        ))
    }

    /// The memoizing verdict: one bool per concrete node for class `i`
    /// under `scenario`.
    fn ec_verdict(
        &self,
        i: usize,
        scenario: &FailureScenario,
    ) -> Result<Arc<Vec<bool>>, SessionError> {
        if let Some(v) = self.verdicts.lock().unwrap().get(&(i, scenario.clone())) {
            self.verdict_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v);
        }
        let comp = &self.report.per_ec[i];
        let plane = &self.planes[i];
        let mut stats = QueryStats::default();
        let verdict = if scenario.is_empty() {
            abstract_verdict(
                &self.topo,
                &comp.ec,
                &comp.abstraction,
                &comp.abstract_network,
                None,
                plane.base_solution.as_ref(),
                &mut stats,
            )
        } else {
            match plane
                .orbits
                .signature_of(scenario)
                .and_then(|sig| plane.refinements.get(&sig))
            {
                Some(refinement) => {
                    refined_verdict(&self.topo, &comp.ec, refinement, scenario, &mut stats)
                }
                // Scenarios past the swept bound (or stray masks) fall
                // back to the concrete masked simulation.
                None => concrete_verdict(
                    &self.network,
                    &self.topo,
                    &comp.ec,
                    Some(&scenario.mask(&self.topo.graph)),
                    &mut stats,
                ),
            }
        }
        .map_err(|e| SessionError::Solve(e.to_string()))?;
        self.solve_stats.lock().unwrap().absorb(&stats);
        let verdict = Arc::new(verdict);
        let key = (i, scenario.clone());
        let bytes = verdict_entry_bytes(&key, &verdict);
        let evicted = self.verdicts.lock().unwrap().insert(
            key,
            verdict.clone(),
            bytes,
            self.options.memo_cap_bytes,
        );
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
        for i in 0..self.planes.len() {
            let ec = &self.report.per_ec[i].ec;
            if !ec.origins.iter().any(|(n, _)| *n == dst) {
                continue;
            }
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
        for i in 0..self.planes.len() {
            let ec = &self.report.per_ec[i].ec;
            if !ec.origins.iter().any(|(n, _)| *n == dst) {
                continue;
            }
            let mut delivered = 0usize;
            let empty = FailureScenario::new(vec![]);
            if self.ec_verdict(i, &empty)?[src.index()] {
                delivered += 1;
            }
            for s in &self.scenarios {
                if self.ec_verdict(i, s)?[src.index()] {
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
        let mut points = Vec::with_capacity(waypoints.len());
        for w in waypoints {
            points.push(self.node(w)?);
        }
        points.sort_unstable();
        points.dedup();
        let key: PathKey = (src, dst, scenario, points);
        if let Some(v) = self.paths.lock().unwrap().get(&key) {
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
        for i in 0..self.planes.len() {
            let ec = &self.report.per_ec[i].ec;
            if !ec.origins.iter().any(|(n, _)| *n == dst) {
                continue;
            }
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
        self.solve_stats.lock().unwrap().absorb(&stats);
        let answers = Arc::new(answers);
        let bytes = path_entry_bytes(&key, &answers);
        let evicted = self.paths.lock().unwrap().insert(
            key,
            answers.clone(),
            bytes,
            self.options.memo_cap_bytes,
        );
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
        let mut payload = String::new();
        payload.push_str(&format!(
            "{{\"k\": {}, \"prune_symmetric\": {}, \"fingerprint\": \"{}\", \"ecs\": [",
            self.summary.k, self.options.prune_symmetric, self.fingerprint
        ));
        for (i, plane) in self.planes.iter().enumerate() {
            if i > 0 {
                payload.push_str(", ");
            }
            payload.push_str(&format!(
                "{{\"rep\": \"{}\", \"refinements\": [",
                json_escape(&self.report.per_ec[i].ec.rep.to_string())
            ));
            for (j, r) in plane.refinements.values().enumerate() {
                if j > 0 {
                    payload.push_str(", ");
                }
                let links: Vec<String> = r
                    .representative
                    .links
                    .iter()
                    .map(|&(u, v)| {
                        format!(
                            "[\"{}\", \"{}\"]",
                            json_escape(self.topo.graph.name(u)),
                            json_escape(self.topo.graph.name(v))
                        )
                    })
                    .collect();
                let split: Vec<String> = r
                    .split
                    .iter()
                    .map(|&n| format!("\"{}\"", json_escape(self.topo.graph.name(n))))
                    .collect();
                payload.push_str(&format!(
                    "{{\"links\": [{}], \"split\": [{}], \"localized_refuted\": {}, \
                     \"deviating_rounds\": {}, \"global_fallback\": {}, \"provenance\": \"{}\"}}",
                    links.join(", "),
                    split.join(", "),
                    r.localized_refuted,
                    r.deviating_rounds,
                    r.global_fallback,
                    provenance_str(r.provenance),
                ));
            }
            payload.push_str("]}");
        }
        payload.push(']');

        // The answer tier: both memos, in deterministic (sorted) order so
        // identical sessions snapshot byte-identically.
        let graph = &self.topo.graph;
        let links_json = |s: &FailureScenario| {
            let parts: Vec<String> = s
                .links
                .iter()
                .map(|&(u, v)| {
                    format!(
                        "[\"{}\", \"{}\"]",
                        json_escape(graph.name(u)),
                        json_escape(graph.name(v))
                    )
                })
                .collect();
            parts.join(", ")
        };
        let verdicts = self.verdicts.lock().unwrap();
        let mut by_class: BTreeMap<usize, BTreeMap<&FailureScenario, &Arc<Vec<bool>>>> =
            BTreeMap::new();
        for ((i, scenario), verdict) in verdicts.iter() {
            by_class.entry(*i).or_default().insert(scenario, verdict);
        }
        payload.push_str(", \"verdicts\": [");
        for (j, (i, entries)) in by_class.iter().enumerate() {
            if j > 0 {
                payload.push_str(", ");
            }
            payload.push_str(&format!(
                "{{\"rep\": \"{}\", \"entries\": [",
                json_escape(&self.report.per_ec[*i].ec.rep.to_string())
            ));
            for (j, (scenario, verdict)) in entries.iter().enumerate() {
                if j > 0 {
                    payload.push_str(", ");
                }
                payload.push_str(&format!(
                    "{{\"links\": [{}], \"bits\": \"{}\"}}",
                    links_json(scenario),
                    bits_string(verdict)
                ));
            }
            payload.push_str("]}");
        }
        payload.push(']');
        let paths = self.paths.lock().unwrap();
        let sorted_paths: BTreeMap<&PathKey, &Arc<Vec<PathAnswer>>> = paths.iter().collect();
        payload.push_str(", \"paths\": [");
        for (j, ((src, dst, scenario, waypoints), answers)) in sorted_paths.iter().enumerate() {
            if j > 0 {
                payload.push_str(", ");
            }
            let points: Vec<String> = waypoints
                .iter()
                .map(|&w| format!("\"{}\"", json_escape(graph.name(w))))
                .collect();
            payload.push_str(&format!(
                "{{\"src\": \"{}\", \"dst\": \"{}\", \"links\": [{}], \"waypoints\": [{}], \
                 \"answers\": [",
                json_escape(graph.name(*src)),
                json_escape(graph.name(*dst)),
                links_json(scenario),
                points.join(", ")
            ));
            for (j, a) in answers.iter().enumerate() {
                if j > 0 {
                    payload.push_str(", ");
                }
                let lengths = match &a.lengths {
                    Some(ls) => format!(
                        "[{}]",
                        ls.iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    None => "null".to_string(),
                };
                let waypointed = match a.waypointed {
                    Some(w) => w.to_string(),
                    None => "null".to_string(),
                };
                payload.push_str(&format!(
                    "{{\"prefix\": \"{}\", \"lengths\": {}, \"waypointed\": {}}}",
                    json_escape(&a.prefix),
                    lengths,
                    waypointed
                ));
            }
            payload.push_str("]}");
        }
        payload.push_str("]}");
        write_envelope(
            SESSION_SNAPSHOT_KIND,
            SESSION_SNAPSHOT_VERSION,
            "unknown",
            "unknown",
            &payload,
        )
    }

    /// Writes [`Session::snapshot_json`] to a file, returning the byte
    /// count.
    pub fn save_snapshot(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let doc = self.snapshot_json();
        std::fs::write(path, &doc)?;
        Ok(doc.len())
    }

    /// The sweep options this session was built under (what [`reload`]
    /// re-sweeps with).
    ///
    /// [`reload`]: Session::reload
    fn network_sweep_options(&self) -> NetworkSweepOptions {
        NetworkSweepOptions {
            sweep: crate::sweep::SweepOptions {
                max_failures: self.summary.k,
                prune_symmetric: self.options.prune_symmetric,
                threads: self.options.threads,
                ..Default::default()
            },
            share_across_ecs: true,
            verify_transfers: self.options.verify_transfers,
            max_ecs: 0,
            collect_outcomes: false,
            ..Default::default()
        }
    }

    /// Warm-reloads the session onto an edited configuration — the
    /// incremental counterpart of a cold [`Session::builder`] build.
    ///
    /// The difference between the resident network and `new_network` is
    /// classified and absorbed by
    /// [`recompress_delta`]:
    /// only destination classes whose signature table actually changed
    /// are re-swept (through [`sweep_network_subset`], sharing
    /// refinements among themselves exactly as a full sweep would), while
    /// every untouched class keeps its abstraction and replays its cached
    /// refinement splits against the new configs with **zero**
    /// verification solves — the same replay the snapshot-restore path
    /// uses. Memoized answers survive for untouched classes: verdicts are
    /// remapped to the class's new index, and path answers are kept
    /// unless any class they mention (or the destination's origin set)
    /// was re-derived. A structural delta (device set, links, BGP session
    /// shape, …) falls back to a cold rebuild with all memos dropped.
    ///
    /// The resident session is left untouched — the caller (the daemon's
    /// `reload` op) swaps the returned session in atomically. The
    /// returned [`ReloadOutcome`] is the audit trail of what moved;
    /// [`Session::state_digest`] of the result is byte-identical to a
    /// fresh build's.
    pub fn reload(
        &self,
        new_network: NetworkConfig,
    ) -> Result<(Session, ReloadOutcome), SessionError> {
        let dr = recompress_delta(
            &self.report,
            &self.network,
            &new_network,
            self.options.compress,
        );
        if dr.full_rebuild {
            let verdicts_dropped = self.verdicts.lock().unwrap().len();
            let paths_dropped = self.paths.lock().unwrap().len();
            let structural = dr.delta.structural.clone();
            let changed_devices = dr.delta.changed_devices.clone();
            let fingerprints_moved = dr.fingerprints_moved;
            let invalidation = dr.invalidation;
            // `dr.report` already holds the fresh compression on a fresh
            // engine — sweep it rather than compressing a second time.
            let topo = BuiltTopology::build(&new_network)
                .map_err(|e| SessionError::Build(e.to_string()))?;
            let mut opts = self.network_sweep_options();
            opts.max_ecs = self.options.max_ecs;
            let sweep = sweep_network(&new_network, &topo, &dr.report, &opts)
                .map_err(|e: EquivalenceError| SessionError::Build(e.to_string()))?;
            let session = Session::from_sweep(new_network, dr.report, sweep, self.options)?;
            let outcome = ReloadOutcome {
                classes: session.classes(),
                rederived: session.classes(),
                reused: 0,
                fingerprints_moved,
                refinements_replayed: 0,
                verdicts_kept: 0,
                verdicts_dropped,
                paths_kept: 0,
                paths_dropped,
                full_rebuild: true,
                structural,
                changed_devices,
                invalidation,
            };
            return Ok((session, outcome));
        }

        let report = dr.report;
        let topo =
            BuiltTopology::build(&new_network).map_err(|e| SessionError::Build(e.to_string()))?;
        let n_ecs = if self.options.max_ecs == 0 {
            report.per_ec.len()
        } else {
            report.per_ec.len().min(self.options.max_ecs)
        };

        // Old class identity → old plane index (only classes the old
        // session actually served can donate state).
        let old_index: HashMap<EcIdentity, usize> = self
            .report
            .per_ec
            .iter()
            .take(self.planes.len())
            .enumerate()
            .map(|(i, c)| (ec_identity(&c.ec), i))
            .collect();

        // A class is re-swept when the delta re-derived its abstraction,
        // or when the old session has no plane for it (brand-new class,
        // or one past the old `max_ecs` cap).
        let mut rederived: BTreeSet<usize> = dr
            .rederived
            .iter()
            .copied()
            .filter(|&i| i < n_ecs)
            .collect();
        let mut kept: Vec<(usize, usize)> = Vec::new();
        for (i, comp) in report.per_ec.iter().take(n_ecs).enumerate() {
            if rederived.contains(&i) {
                continue;
            }
            match old_index.get(&ec_identity(&comp.ec)) {
                Some(&old_i) => kept.push((i, old_i)),
                None => {
                    rederived.insert(i);
                }
            }
        }

        // One subset sweep over every re-derived class: the subset shares
        // refinements among itself exactly as the cold build's full sweep
        // would have.
        let rederived_list: Vec<usize> = rederived.iter().copied().collect();
        let mut fresh: HashMap<usize, crate::netsweep::EcSweep> = HashMap::new();
        let mut subset = (0usize, 0usize, 0usize, 0usize);
        if !rederived_list.is_empty() {
            let opts = self.network_sweep_options();
            let sweep = sweep_network_subset(&new_network, &topo, &report, &opts, &rederived_list)
                .map_err(|e: EquivalenceError| SessionError::Build(e.to_string()))?;
            subset = (
                sweep.scenarios_swept(),
                sweep.derivations,
                sweep.exact_transfers,
                sweep.symmetric_transfers,
            );
            for (&ci, ec_sweep) in rederived_list.iter().zip(sweep.per_ec) {
                fresh.insert(ci, ec_sweep);
            }
        }

        let kept_of_new: HashMap<usize, usize> = kept.iter().copied().collect();
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let mut planes = Vec::with_capacity(n_ecs);
        let mut refinements_replayed = 0usize;
        for (i, comp) in report.per_ec.iter().take(n_ecs).enumerate() {
            let ec_dest = comp.ec.to_ec_dest();
            let sigs = build_sig_table(&report.policies, &new_network, &topo, &ec_dest);
            let orbits = link_orbits_with_distances(
                &topo.graph,
                &comp.abstraction,
                &sigs,
                distances.clone(),
            );
            let refinements = if let Some(ec_sweep) = fresh.remove(&i) {
                ec_sweep.report.refinements
            } else {
                // Kept class: replay the resident refinements' splits
                // against the new configs — cheap refines and canonical
                // solves only, no verification loop.
                let old_plane = &self.planes[kept_of_new[&i]];
                let mut replayed: BTreeMap<OrbitSignature, ScenarioRefinement> = BTreeMap::new();
                for r in old_plane.refinements.values() {
                    let Some(signature) = orbits.signature_of(&r.representative) else {
                        continue;
                    };
                    let (abstraction, abstract_network) = if r.split.is_empty() {
                        (comp.abstraction.clone(), comp.abstract_network.clone())
                    } else {
                        refine_ec_with_split(
                            &new_network,
                            &topo,
                            &ec_dest,
                            &sigs,
                            &comp.abstraction,
                            &r.split,
                        )
                    };
                    let abstract_solution = canonical_abstract_solution(
                        &abstraction,
                        &abstract_network,
                        &r.representative,
                    );
                    replayed.insert(
                        signature.clone(),
                        ScenarioRefinement {
                            signature,
                            representative: r.representative.clone(),
                            split: r.split.clone(),
                            abstraction,
                            abstract_network,
                            localized_refuted: r.localized_refuted,
                            deviating_rounds: r.deviating_rounds,
                            global_fallback: r.global_fallback,
                            provenance: r.provenance,
                            abstract_solution,
                        },
                    );
                    refinements_replayed += 1;
                }
                replayed
            };
            let base_solution = canonical_abstract_solution(
                &comp.abstraction,
                &comp.abstract_network,
                &FailureScenario::new(vec![]),
            );
            planes.push(QueryPlane {
                orbits,
                refinements,
                base_solution,
            });
        }

        // Answer migration. Verdicts are keyed by class index: remap kept
        // classes, drop the rest. A path entry survives only if every
        // class it mentions was kept and its destination's origin set
        // gained no re-derived class (those would add answer rows the
        // memo cannot know about).
        let memo_cap = self.options.memo_cap_bytes;
        let old_to_new: HashMap<usize, usize> = kept.iter().map(|&(n, o)| (o, n)).collect();
        let mut verdicts = VerdictMemo::new();
        let (mut verdicts_kept, mut verdicts_dropped) = (0usize, 0usize);
        {
            let old = self.verdicts.lock().unwrap();
            for ((old_i, scenario), verdict) in old.iter() {
                match old_to_new.get(old_i) {
                    Some(&i) => {
                        let key = (i, scenario.clone());
                        let bytes = verdict_entry_bytes(&key, verdict);
                        verdicts.insert(key, verdict.clone(), bytes, memo_cap);
                        verdicts_kept += 1;
                    }
                    None => verdicts_dropped += 1,
                }
            }
        }
        let kept_reps: BTreeSet<String> = kept
            .iter()
            .map(|&(i, _)| report.per_ec[i].ec.rep.to_string())
            .collect();
        let mut dirty_dsts: BTreeSet<NodeId> = BTreeSet::new();
        for &i in &rederived {
            for &(n, _) in &report.per_ec[i].ec.origins {
                dirty_dsts.insert(n);
            }
        }
        let mut paths = PathMemo::new();
        let (mut paths_kept, mut paths_dropped) = (0usize, 0usize);
        {
            let old = self.paths.lock().unwrap();
            for (key, answers) in old.iter() {
                let valid = !dirty_dsts.contains(&key.1)
                    && answers.iter().all(|a| kept_reps.contains(&a.prefix));
                if valid {
                    let bytes = path_entry_bytes(key, answers);
                    paths.insert(key.clone(), answers.clone(), bytes, memo_cap);
                    paths_kept += 1;
                } else {
                    paths_dropped += 1;
                }
            }
        }

        let scenarios = ScenarioStream::new(&topo.graph, self.summary.k).to_vec();
        let fingerprint = fnv64(&print_network(&new_network));
        let summary = SweepSummary {
            k: self.summary.k,
            scenarios_swept: subset.0,
            derivations: subset.1,
            exact_transfers: subset.2,
            symmetric_transfers: subset.3,
            refinements: planes.iter().map(|p| p.refinements.len()).sum(),
            restored: refinements_replayed,
            restored_answers: verdicts_kept + paths_kept,
        };
        let outcome = ReloadOutcome {
            classes: n_ecs,
            rederived: rederived.len(),
            reused: kept.len(),
            fingerprints_moved: dr.fingerprints_moved,
            refinements_replayed,
            verdicts_kept,
            verdicts_dropped,
            paths_kept,
            paths_dropped,
            full_rebuild: false,
            structural: None,
            changed_devices: dr.delta.changed_devices.clone(),
            invalidation: dr.invalidation,
        };
        let session = Session {
            network: new_network,
            topo,
            report,
            planes,
            scenarios,
            fingerprint,
            options: self.options,
            summary,
            verdicts: Mutex::new(verdicts),
            paths: Mutex::new(paths),
            queries: AtomicUsize::new(0),
            verdict_cache_hits: AtomicUsize::new(0),
            memo_evictions: AtomicUsize::new(0),
            solve_stats: Mutex::new(QueryStats::default()),
        };
        Ok((session, outcome))
    }

    /// A canonical, provenance-free rendering of the session's verified
    /// state: destination classes, abstractions, abstract configs,
    /// refinements, and the engine's sharing structure (policy
    /// fingerprints densely renumbered by first use, so equal sharing
    /// renders equally regardless of the engine's allocation history).
    ///
    /// Two sessions over the same network with the same options render
    /// **byte-identically** whether built cold, restored from a snapshot,
    /// or warm-reloaded through any chain of deltas, at any thread count
    /// — the delta-equivalence tests pin exactly this. Memoized answers,
    /// timings, and refinement provenance are excluded (they legitimately
    /// differ between a cold build and a warm reload).
    pub fn state_digest(&self) -> String {
        let graph = &self.topo.graph;
        let mut out = String::new();
        out.push_str("bonsai-session-state v1\n");
        out.push_str(&format!("k {}\n", self.summary.k));
        out.push_str(&format!(
            "prune_symmetric {}\n",
            self.options.prune_symmetric
        ));
        out.push_str(&format!("network {}\n", self.fingerprint));
        out.push_str(&format!("classes {}\n", self.planes.len()));
        let mut canon_fp: HashMap<u32, usize> = HashMap::new();
        for (i, plane) in self.planes.iter().enumerate() {
            let comp = &self.report.per_ec[i];
            let ec_dest = comp.ec.to_ec_dest();
            let fp = self
                .report
                .policies
                .ec_fingerprint(&self.network, &self.topo, &ec_dest);
            let next = canon_fp.len();
            let dense = *canon_fp.entry(fp.raw()).or_insert(next);
            out.push_str(&format!("class {} rep {} fp {}\n", i, comp.ec.rep, dense));
            let ranges: Vec<String> = comp.ec.ranges.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("  ranges {}\n", ranges.join(" ")));
            let origins: Vec<String> = comp
                .ec
                .origins
                .iter()
                .map(|&(n, p)| format!("{}:{:?}", graph.name(n), p))
                .collect();
            out.push_str(&format!("  origins {}\n", origins.join(" ")));
            let mut blocks: Vec<(Vec<&str>, u32)> = comp
                .abstraction
                .partition
                .blocks()
                .map(|b| {
                    let mut names: Vec<&str> = comp
                        .abstraction
                        .partition
                        .members(b)
                        .iter()
                        .map(|&x| graph.name(NodeId(x)))
                        .collect();
                    names.sort_unstable();
                    (names, comp.abstraction.copies[b.index()])
                })
                .collect();
            blocks.sort();
            for (names, copies) in &blocks {
                out.push_str(&format!(
                    "  block {{{}}} copies {}\n",
                    names.join(","),
                    copies
                ));
            }
            out.push_str("  abstract-config\n");
            for line in print_network(&comp.abstract_network.network).lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str(&format!("  refinements {}\n", plane.refinements.len()));
            for r in plane.refinements.values() {
                let links: Vec<String> = r
                    .representative
                    .links
                    .iter()
                    .map(|&(u, v)| format!("{}--{}", graph.name(u), graph.name(v)))
                    .collect();
                let split: Vec<&str> = r.split.iter().map(|&n| graph.name(n)).collect();
                out.push_str(&format!(
                    "  refine links [{}] split [{}] localized_refuted {} \
                     deviating_rounds {} global_fallback {}\n",
                    links.join(" "),
                    split.join(" "),
                    r.localized_refuted,
                    r.deviating_rounds,
                    r.global_fallback,
                ));
            }
        }
        out
    }
}

/// What one [`Session::reload`] did: how much of the resident state
/// survived the delta, and what had to be redone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Destination classes the new session serves.
    pub classes: usize,
    /// Classes whose abstraction was re-derived and re-swept.
    pub rederived: usize,
    /// Classes that kept their abstraction and replayed their cached
    /// refinements (table proven semantically equal across the delta).
    pub reused: usize,
    /// Classes whose engine fingerprint changed across the delta.
    pub fingerprints_moved: usize,
    /// Refinements replayed for kept classes (zero verification solves).
    pub refinements_replayed: usize,
    /// Verdict-memo entries remapped onto the new session.
    pub verdicts_kept: usize,
    /// Verdict-memo entries invalidated by the delta.
    pub verdicts_dropped: usize,
    /// Path-memo entries carried over.
    pub paths_kept: usize,
    /// Path-memo entries invalidated by the delta.
    pub paths_dropped: usize,
    /// True when the delta was structural and the session was rebuilt
    /// cold (all memos dropped).
    pub full_rebuild: bool,
    /// Why the rebuild was structural (`None` on the incremental path).
    pub structural: Option<String>,
    /// Devices whose configuration changed, by name.
    pub changed_devices: Vec<String>,
    /// What the engine evicted (zeroed on a full rebuild).
    pub invalidation: DeltaInvalidation,
}

/// The delta-stable identity of a destination class.
fn ec_identity(ec: &bonsai_core::ecs::DestEc) -> EcIdentity {
    (ec.rep, ec.ranges.clone(), ec.origins.clone())
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

/// Renders a verdict as one `'1'`/`'0'` per node, in node order.
fn bits_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a [`bits_string`] of exactly `n` bits; `None` on any other
/// length or character.
fn parse_bits(s: &str, n: usize) -> Option<Vec<bool>> {
    if s.len() != n {
        return None;
    }
    s.chars()
        .map(|c| match c {
            '1' => Some(true),
            '0' => Some(false),
            _ => None,
        })
        .collect()
}

/// FNV-1a over a string, as 16 hex digits — the network fingerprint.
fn fnv64(s: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Normalizes node pairs to the canonical link orientation of
/// [`bonsai_net::Graph::links`]; errors (with the offending names) on a
/// pair the topology has no link between.
fn canonical_links(
    graph: &bonsai_net::Graph,
    pairs: &[(NodeId, NodeId)],
) -> Result<Vec<(NodeId, NodeId)>, (String, String)> {
    let canonical: BTreeSet<(NodeId, NodeId)> = graph.links().into_iter().collect();
    let mut out = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs {
        if canonical.contains(&(u, v)) {
            out.push((u, v));
        } else if canonical.contains(&(v, u)) {
            out.push((v, u));
        } else {
            return Err((graph.name(u).to_string(), graph.name(v).to_string()));
        }
    }
    Ok(out)
}

fn provenance_str(p: RefinementProvenance) -> &'static str {
    match p {
        RefinementProvenance::Derived => "derived",
        RefinementProvenance::TransferredExact => "transferred-exact",
        RefinementProvenance::TransferredSymmetric => "transferred-symmetric",
    }
}

fn parse_provenance(s: &str) -> RefinementProvenance {
    match s {
        "transferred-exact" => RefinementProvenance::TransferredExact,
        "transferred-symmetric" => RefinementProvenance::TransferredSymmetric,
        _ => RefinementProvenance::Derived,
    }
}

/// Parses `[["a", "b"], ...]` into name pairs.
fn parse_name_pairs(v: Option<&Json>) -> Option<Vec<(String, String)>> {
    let arr = v?.as_arr()?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let p = pair.as_arr()?;
        if p.len() != 2 {
            return None;
        }
        out.push((p[0].as_str()?.to_string(), p[1].as_str()?.to_string()));
    }
    Some(out)
}

// `CompiledPolicies` (inside the report) is shared across sweep worker
// threads already; every other field is plain data behind locks.
#[allow(dead_code)]
fn _assert_session_sync(s: &Session) -> &(dyn Sync + Send) {
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_topo::{fattree, FattreePolicy};

    fn gadget_session() -> Session {
        Session::builder(bonsai_srp::papernets::figure2_gadget())
            .max_failures(1)
            .threads(2)
            .build()
            .expect("session builds")
    }

    #[test]
    fn reach_agrees_with_sweep_and_memoizes() {
        let s = gadget_session();
        let a = s.reach("a", "d", &[]).unwrap();
        assert_eq!(a.len(), 1);
        assert!(a[0].delivered);
        let before = s.stats();
        let again = s.reach("a", "d", &[]).unwrap();
        assert_eq!(a, again);
        let after = s.stats();
        assert_eq!(after.solver_updates, before.solver_updates, "memoized");
        assert!(after.verdict_cache_hits > before.verdict_cache_hits);
    }

    #[test]
    fn repeated_batch_is_solve_free() {
        let s = gadget_session();
        let requests = vec![
            QueryRequest::Sweep {
                src: "a".into(),
                dst: "d".into(),
            },
            QueryRequest::AllPairs { links: vec![] },
        ];
        let first = s.batch(&requests);
        let mid = s.stats();
        let second = s.batch(&requests);
        let end = s.stats();
        assert_eq!(first, second, "batch answers are deterministic");
        assert_eq!(end.solver_updates, mid.solver_updates, "zero solver work");
        assert_eq!(end.abstract_solves, mid.abstract_solves);
        assert_eq!(end.concrete_solves, mid.concrete_solves);
    }

    #[test]
    fn snapshot_restores_warm_and_identical() {
        let s = gadget_session();
        let cold = s.sweep_reach("a", "d").unwrap();
        let snap = s.snapshot_json();
        let warm_session = Session::builder(bonsai_srp::papernets::figure2_gadget())
            .threads(2)
            .restore(&snap)
            .expect("snapshot restores");
        assert!(warm_session.stats().sweep.restored > 0);
        assert_eq!(warm_session.stats().sweep.derivations, 0);
        let warm = warm_session.sweep_reach("a", "d").unwrap();
        assert_eq!(cold, warm, "restored session answers byte-identically");
    }

    #[test]
    fn path_answers_lengths_and_waypoints_and_memoizes() {
        let s = gadget_session();
        let a = s
            .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
            .unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].lengths.as_deref(), Some(&[2][..]), "a→bX→d");
        assert_eq!(a[0].waypointed, Some(true), "every path crosses a b");
        let no_points = s.path("a", "d", &[], &[]).unwrap();
        assert_eq!(no_points[0].waypointed, None, "no waypoints asked");
        // Waypointing through a node the paths avoid is refuted.
        let wrong = s
            .path("a", "d", &[("a".into(), "b1".into())], &["b1".into()])
            .unwrap();
        assert_eq!(wrong[0].waypointed, Some(false));
        let before = s.stats();
        let again = s
            .path("a", "d", &[], &["b2".into(), "b1".into(), "b3".into()])
            .unwrap();
        let after = s.stats();
        assert_eq!(a, again, "waypoint order does not matter");
        assert_eq!(after.solver_updates, before.solver_updates, "memoized");
        assert!(after.verdict_cache_hits > before.verdict_cache_hits);
    }

    #[test]
    fn snapshot_restores_answer_warm() {
        let s = gadget_session();
        let reach = s.reach("a", "d", &[("b1".into(), "d".into())]).unwrap();
        let paths = s
            .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
            .unwrap();
        let snap = s.snapshot_json();
        let warm = Session::builder(bonsai_srp::papernets::figure2_gadget())
            .threads(2)
            .restore(&snap)
            .expect("snapshot restores");
        assert!(
            warm.stats().sweep.restored_answers > 0,
            "answer tier loaded"
        );
        let before = warm.stats();
        let reach2 = warm.reach("a", "d", &[("b1".into(), "d".into())]).unwrap();
        let paths2 = warm
            .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
            .unwrap();
        let after = warm.stats();
        assert_eq!(reach, reach2);
        assert_eq!(paths, paths2);
        assert_eq!(after.solver_updates, before.solver_updates, "zero solves");
        assert_eq!(after.abstract_solves, before.abstract_solves);
        assert_eq!(after.concrete_solves, before.concrete_solves);
        assert!(after.verdict_cache_hits > before.verdict_cache_hits);
        // A warm snapshot round-trips byte-identically.
        assert_eq!(snap, warm.snapshot_json(), "snapshot is deterministic");
    }

    #[test]
    fn snapshot_of_other_network_is_rejected() {
        let s = gadget_session();
        let snap = s.snapshot_json();
        let err = Session::builder(fattree(4, FattreePolicy::ShortestPath))
            .restore(&snap)
            .err()
            .expect("restore onto another network must fail");
        match err {
            SessionError::Snapshot(msg) => assert!(msg.contains("fingerprint mismatch"), "{msg}"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    /// Two devices, two destination classes: a route-map clause on `a`
    /// matches only 10.0.1.0/24, so editing its set action re-derives
    /// exactly that class (mirrors the core delta tests).
    fn delta_base_net() -> NetworkConfig {
        bonsai_config::parse_network(
            "
device a
interface i
ip prefix-list P10 seq 5 permit 10.0.1.0/24
route-map M permit 10
 match ip address prefix-list P10
 set local-preference 200
route-map M permit 20
router bgp 1
 neighbor i remote-as external
 neighbor i route-map M in
end
device b
interface i
router bgp 2
 network 10.0.1.0/24
 network 10.0.2.0/24
 neighbor i remote-as external
end
link a i b i
",
        )
        .unwrap()
    }

    #[test]
    fn reload_rederives_only_touched_classes() {
        let old_net = delta_base_net();
        let s = Session::builder(old_net.clone())
            .max_failures(1)
            .threads(2)
            .build()
            .expect("session builds");
        // Warm the verdict memo across both classes.
        let before = s.reach("a", "b", &[]).unwrap();
        assert_eq!(before.len(), 2);

        let mut new_net = old_net.clone();
        new_net.devices[0].route_maps[0].clauses[0].sets =
            vec![bonsai_config::SetAction::LocalPref(300)];
        let (reloaded, outcome) = s.reload(new_net.clone()).expect("reload succeeds");
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.classes, 2);
        assert_eq!(outcome.reused, 1);
        assert_eq!(outcome.rederived, 1);
        assert_eq!(outcome.changed_devices, vec!["a".to_string()]);
        assert!(outcome.invalidation.tables_evicted > 0);
        // The kept class's memoized verdict survived; the touched one's
        // was dropped.
        assert_eq!(outcome.verdicts_kept, 1);
        assert_eq!(outcome.verdicts_dropped, 1);

        // Answers agree with a cold build of the new network.
        let fresh = Session::builder(new_net)
            .max_failures(1)
            .threads(2)
            .build()
            .expect("fresh session builds");
        assert_eq!(
            reloaded.reach("a", "b", &[]).unwrap(),
            fresh.reach("a", "b", &[]).unwrap()
        );
        assert_eq!(
            reloaded.state_digest(),
            fresh.state_digest(),
            "warm reload state is byte-identical to a cold build"
        );
    }

    #[test]
    fn reload_of_structural_edit_rebuilds_cold() {
        let old_net = delta_base_net();
        let s = Session::builder(old_net.clone())
            .max_failures(1)
            .threads(1)
            .build()
            .expect("session builds");
        s.reach("a", "b", &[]).unwrap();
        let mut new_net = old_net.clone();
        new_net.devices[1].bgp.as_mut().unwrap().default_local_pref = 150;
        let (reloaded, outcome) = s.reload(new_net.clone()).expect("reload succeeds");
        assert!(outcome.full_rebuild);
        assert!(outcome.structural.is_some());
        assert_eq!(outcome.verdicts_kept, 0);
        assert!(outcome.verdicts_dropped > 0);
        let fresh = Session::builder(new_net)
            .max_failures(1)
            .threads(1)
            .build()
            .expect("fresh session builds");
        assert_eq!(reloaded.state_digest(), fresh.state_digest());
    }

    #[test]
    fn reload_onto_identical_config_keeps_everything() {
        let net = delta_base_net();
        let s = Session::builder(net.clone())
            .max_failures(1)
            .threads(1)
            .build()
            .expect("session builds");
        s.reach("a", "b", &[]).unwrap();
        let (reloaded, outcome) = s.reload(net).expect("reload succeeds");
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.rederived, 0);
        assert_eq!(outcome.reused, 2);
        assert_eq!(outcome.verdicts_dropped, 0);
        assert_eq!(outcome.verdicts_kept, 2);
        assert_eq!(reloaded.state_digest(), s.state_digest());
        // Served from the carried memo: zero additional solver work.
        let before = reloaded.stats();
        reloaded.reach("a", "b", &[]).unwrap();
        let after = reloaded.stats();
        assert_eq!(after.solver_updates, before.solver_updates);
        assert!(after.verdict_cache_hits > before.verdict_cache_hits);
    }

    #[test]
    fn memo_cap_evicts_stalest_entries() {
        let cap = 160;
        let s = Session::builder(bonsai_srp::papernets::figure2_gadget())
            .max_failures(1)
            .threads(1)
            .memo_cap_bytes(cap)
            .build()
            .expect("session builds");
        let links = [
            ("a", "b1"),
            ("a", "b2"),
            ("a", "b3"),
            ("b1", "d"),
            ("b2", "d"),
            ("b3", "d"),
        ];
        let first = s.reach("a", "d", &[]).unwrap();
        for (u, v) in links {
            s.reach("a", "d", &[(u.into(), v.into())]).unwrap();
        }
        let stats = s.stats();
        assert!(stats.memo_evictions > 0, "cap forced evictions");
        assert!(
            stats.verdict_memo < 1 + links.len(),
            "memo stayed bounded: {} entries",
            stats.verdict_memo
        );
        // Evicted answers recompute identically.
        assert_eq!(s.reach("a", "d", &[]).unwrap(), first);
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let s = gadget_session();
        assert!(matches!(
            s.reach("nope", "d", &[]),
            Err(SessionError::UnknownNode(_))
        ));
        assert!(matches!(
            s.reach("a", "d", &[("a".into(), "d".into())]),
            Err(SessionError::UnknownLink(_, _))
        ));
    }
}
