//! The failure-verification **plane**: the one scenario loop of the
//! crate, over the **(scenario × destination class)** product, with
//! refinements shared across classes.
//!
//! Every class walks the same lazy [`ScenarioStream`] — nothing of the
//! `C(L, k)` space is materialized; workers claim chunked rank ranges of
//! the flattened plane from [`bonsai_core::fanout`], unrank their start
//! and step successors **over link indices**. Per item a worker asks its
//! class's [`SignatureInterner`] for the dense `SigId` of the item's
//! [`OrbitSignature`] — one hash probe of the item's raw signature inputs
//! (orbits, blocks, endpoint distances; exact, see
//! [`bonsai_core::scenarios`]) — and indexes its per-class slot vector
//! with it. A slot holds what the worker knows about one (class,
//! signature): the resolved refinement and its node count, the memoized
//! canonical representative, the memoized shard key. A hit reads the slot
//! and bumps integer tallies; a `FailureScenario` and a signature clone
//! exist only for a miss, the pruning comparison or a collected outcome
//! record. A miss runs the kernel of [`crate::sweep`] once for the
//! signature's canonical representative, and after the fan-out the slots
//! fold back into the per-class `BTreeMap<OrbitSignature, _>` every
//! report carries. Symmetry pruning
//! ([`SweepOptions::prune_symmetric`]) is a filter inside the same loop:
//! an item survives iff it *is* its signature's canonical representative
//! — a property of the item, not of the schedule. Sweeping one class, or
//! the classes a config delta moved, is [`sweep_network_subset`] over
//! those indices.
//!
//! The paper's central claim is that one compressed network answers
//! questions about *all* destination classes cheaply — but class by class
//! the same symmetric refinements would be derived again and again: on a
//! fattree every destination class sees the same five single-failure
//! shapes. The plane therefore re-keys its refinement cache from
//! class-relative orbit signatures to **(policy fingerprint, quotient
//! class, canonical signature)**:
//!
//! * [`EcFingerprint`] (from the shared engine) — equal iff the two
//!   classes provably compile every policy identically.
//! * [`QuotientClass`] — equal iff the classes' base abstractions are
//!   isomorphic as sig-labeled quotient graphs (origin position included:
//!   origin flags and block sizes are part of the canonical colors).
//! * [`CanonicalSignature`] — the scenario's failed-subgraph signature in
//!   canonical quotient coordinates.
//!
//! A cache hit under this key comes in two strengths:
//!
//! * **Exact** — the donor class has the *identical* origin set. Every
//!   input of the derivation is then equal by construction, so the
//!   donor's split replays byte-identically; only the abstract network is
//!   rebuilt (it embeds the class's own prefix). Any derivation
//!   transfers, escalated or not.
//! * **Symmetric** — the donor is a different (symmetric) class. The
//!   localized endpoint split is recomputed against the receiving class's
//!   own base abstraction — the split is a function of the representative
//!   scenario, not of the donor — and the donor's verification verdict
//!   stands in for the receiver's. Only **unescalated** donors transfer
//!   (escalated splits name donor-specific concrete nodes);
//!   [`NetworkSweepOptions::verify_transfers`] re-runs the verification
//!   per receiving class for callers who want the symmetry argument
//!   checked rather than trusted, falling back to a full derivation on
//!   refutation.
//!
//! **Whole-class symmetry.** When outcomes are not collected and sharing
//! is on, the plane does not visit every class. Classes are grouped by
//! `(EcFingerprint, QuotientClass)`; the first class of a group is
//! visited, and each later one asks [`bonsai_core::symmetry`] for a class
//! witness onto an earlier visited class of its group — a node permutation
//! σ of the concrete graph, verified edge by edge, carrying the class's
//! origins, edge signatures and base blocks onto the donor's. A class with
//! a witness is **tallied**: for each donor signature with representative
//! R, its own signature is `signature_of(σ⁻¹(R))` and its representative
//! the [`SignatureInterner::canonical_scenario`] of that (one memo per
//! tallied class); its refinement is resolved by the same
//! `resolve_refinement` a visit calls (same shared cache, same transfer
//! or derivation, same provenance), and its item count is the donor's
//! count for that signature, the shard and prune filters applied per
//! signature as a visit applies them per item. A class without a witness —
//! no automorphism, or the search ran out of budget — is visited.
//!
//! A tallied class's symmetric transfer is **witnessed** when σ⁻¹(R) *is*
//! its representative and the donor's refinement of R is the stage-1
//! endpoint-split partition: the transfer is handed the donor's node count
//! and nothing else. Its partition, like every refinement's, is its split
//! over the class handle ([`crate::sweep::ClassBase::split_partition`]),
//! derived by its first reader ([`ScenarioRefinement::abstraction`]) — the
//! call an eager transfer makes, so the block ids are the eager ones. A
//! sweep that only counts refined nodes runs no Algorithm 1 for it
//! (fattree-8 `k = 2`: 1144 of the 1364 transfers; the other 220, where
//! σ⁻¹(R) is another scenario of the signature, are refined eagerly).
//!
//! Exactness: the fingerprint + quotient-class + canonical-signature key
//! certifies policy-level and quotient-level symmetry between two classes;
//! the class witness *constructs* it. σ is a bijection of the scenario
//! space that commutes with signatures — intact distances are
//! automorphism-invariant, and blocks and orbits map through σ, which the
//! verifier checks — so a tallied class's per-signature counts are its
//! donor's. σ also commutes with the endpoint split (it maps base blocks
//! onto base blocks of equal size) and with Algorithm 1 (it preserves edge
//! signatures, `prefs` and origins, so every refinement step maps through
//! it), so σ⁻¹ of the donor's stage-1 partition *is* the receiver's, as
//! sets with equal copies: a witnessed transfer's node count comes through
//! σ, exactly, and debug builds check it at tally time; everything else is
//! computed by the code that computes it for a visited class. What stays
//! trusted is *within* a class: that scenarios of one signature are
//! automorphic images of its representative (see
//! [`bonsai_core::scenarios`]), which every signature cache hit and every
//! symmetric transfer's *verdict* rests on, tallied or not. On networks
//! whose orbit structure certifies real symmetry (every topology in our
//! suite) a transfer is byte-identical to the fresh derivation —
//! `tests/netsweep_acceptance.rs` proves exactly that, per transfer,
//! against [`crate::sweep::derive_refinement`], and every witnessed
//! transfer against σ⁻¹ of its donor and against the eager transfer — and
//! a tallied sweep's tallies and refinements equal those of the collected
//! sweep, which always visits.

use crate::equivalence::EquivalenceError;
use crate::sweep::{
    check_scenario_refined, derive_scenario_refinement, endpoint_split, sample_concrete_solutions,
    Candidate, Known, OutcomeStats, RefinementProvenance, ScenarioOutcome, ScenarioRefinement,
    SweepCtx, SweepEnv, SweepOptions, SweepReport,
};
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::compress::CompressionReport;
use bonsai_core::engine::EcFingerprint;
use bonsai_core::fanout::{fan_out, fan_out_ranges};
use bonsai_core::scenarios::{
    canonical_signature_of, quotient_canon, CanonicalSignature, FailureScenario, NodeDistances,
    OrbitSignature, QuotientCanon, QuotientClass, ScenarioRangeIter, ScenarioStream,
    SignatureInterner,
};
use bonsai_core::symmetry::{find_class_witness, ClassView, ClassWitness};
use bonsai_net::prefix::Prefix;
use bonsai_net::{Graph, NodeId};
use bonsai_srp::instance::OriginProto;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default worker chunk size of the streamed fan-out. A chunk costs one
/// atomic claim, one combination unranking, one span and two touches of
/// the resident gauge — ≈ 0.6 µs together, measured as the slope of
/// fattree-8 k=2 `--threads 1 --aggregate` wall over `--chunk-size`
/// (1.05 s at 1, 0.40 s at 16, flat at 0.36–0.37 s from 64 through 16384).
/// A hit item costs ≈ 40 ns (median `sweep.chunk` span of that run / 1024)
/// since the raw-key interner replaced per-item canonicalization, so the
/// per-chunk overhead is no longer invisible at small sizes; 1024 keeps it
/// under 2 % while a fattree-8 k=3 plane (~2.8M scenarios/class) still
/// spreads over thousands of chunks.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// One shard of a sharded network sweep: this process sweeps only the
/// scenarios whose signature class hashes (stable FNV-1a of the
/// **canonical** signature) to `index` mod `of`. A whole symmetric class —
/// across every destination class it appears in — therefore lands in
/// exactly one shard: independent shard processes never duplicate a
/// derivation, and [`merge_reports`] reassembles the monolithic report
/// byte-for-byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    of: usize,
}

impl ShardSpec {
    /// Shard `index` of `of`; rejects `of == 0` and `index >= of`.
    pub fn new(index: usize, of: usize) -> Result<Self, String> {
        if index < of {
            Ok(ShardSpec { index, of })
        } else {
            Err(format!("shard index {index} out of 0..{of}"))
        }
    }

    /// This shard's index, `0 <= index < of`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards (at least 1).
    pub fn of(&self) -> usize {
        self.of
    }

    /// Whether the signature class with this [`shard_key`] is this shard's.
    fn holds(&self, key: u64) -> bool {
        key % self.of as u64 == self.index as u64
    }
}

/// Options for a network-level sweep.
#[derive(Clone, Copy, Debug)]
pub struct NetworkSweepOptions {
    /// The kernel options (failure bound, orders, pruning, thread count).
    pub sweep: SweepOptions,
    /// Share refinements across destination classes through the
    /// (fingerprint, quotient class, canonical signature) cache. Disable
    /// to measure what the sharing saves.
    pub share_across_ecs: bool,
    /// Re-verify symmetric transfers against the receiving class
    /// (deriving from scratch on refutation) instead of trusting the
    /// certified symmetry. Exact same-origin transfers are never
    /// re-verified — they are byte-identical by determinism.
    pub verify_transfers: bool,
    /// Scenarios per claimed fan-out range (0 = [`DEFAULT_CHUNK_SIZE`]).
    /// Peak resident scenario count in aggregate mode is
    /// `O(threads × chunk)`, not `O(C(L,k))`.
    pub chunk_size: usize,
    /// Collect per-scenario [`ScenarioOutcome`] records (the default;
    /// required by snapshot/query layers that replay outcomes). Disable
    /// for bounded-memory sweeps of huge scenario spaces — the aggregate
    /// [`OutcomeStats`] and the refinement maps are still complete.
    pub collect_outcomes: bool,
    /// Sweep only the scenarios of one canonical-signature shard.
    /// `None` sweeps everything.
    pub shard: Option<ShardSpec>,
}

impl Default for NetworkSweepOptions {
    fn default() -> Self {
        NetworkSweepOptions {
            sweep: SweepOptions::default(),
            share_across_ecs: true,
            verify_transfers: false,
            chunk_size: 0,
            collect_outcomes: true,
            shard: None,
        }
    }
}

/// One class's slice of a network-level sweep.
#[derive(Debug)]
pub struct EcSweep {
    /// The class's representative prefix.
    pub rep: Prefix,
    /// Its policy fingerprint (engine-interned).
    pub fingerprint: EcFingerprint,
    /// Whether the class's quotient canonicalized (cross-EC sharing was
    /// available to it).
    pub canonical: bool,
    /// The per-class sweep report. `derivations` counts the full
    /// derivations kept for this class — transfers count zero.
    pub report: SweepReport,
}

/// The outcome of a network-level sweep: every (scenario, class) pair
/// verified, with cross-EC sharing statistics.
#[derive(Debug)]
pub struct NetworkSweepReport {
    /// The failure bound that was swept.
    pub k: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Per-class results, in compression-report order.
    pub per_ec: Vec<EcSweep>,
    /// Full refinement derivations actually performed across workers
    /// (racing duplicates included — compare with
    /// [`NetworkSweepReport::unshared_derivations`]).
    pub derivations: usize,
    /// Cross-EC transfers from same-origin donors (byte-exact).
    pub exact_transfers: usize,
    /// Cross-EC transfers from symmetric donors (certified by the
    /// canonical key; re-verified iff `verify_transfers`).
    pub symmetric_transfers: usize,
    /// Symmetric transfers that were re-verified per receiving class.
    pub verified_transfers: usize,
    /// Symmetric transfers of tallied classes whose node count came through
    /// the class witness, with no partition until one is read (a subset of
    /// `symmetric_transfers`; see the module docs).
    pub witnessed_transfers: usize,
    /// Distinct policy fingerprints among the swept classes.
    pub distinct_fingerprints: usize,
    /// Classes tallied through a verified class witness instead of
    /// visited item by item (see the module docs; 0 whenever outcomes are
    /// collected or sharing is off).
    pub classes_tallied: usize,
    /// Effective scenarios-per-range of the streamed fan-out.
    pub chunk_size: usize,
    /// The (scenario, class) items the plane **covers**: every class's
    /// whole stream, whether its items were stepped one by one or tallied
    /// through a witness (pruned sweeps stream every item too; the filter
    /// runs after) — always classes × `C(L,1) + … + C(L,k)`.
    pub scenarios_streamed: usize,
    /// High-water mark of concurrently resident scenario items: the item
    /// each worker is standing on + collected outcome records. Workers
    /// tally a chunk locally and touch the gauge at its start and end, so
    /// the value is exact at `threads = 1`; above that the records in
    /// other workers' unfinished chunks are not seen (short by less than
    /// `threads × chunk`). In aggregate mode (`collect_outcomes = false`)
    /// this is the number of workers in flight, `O(threads)` — never
    /// `O(C(L,k))`.
    pub peak_resident_scenarios: usize,
    /// Distinct [`OrbitSignature`]s interned by the per-(worker, class)
    /// interners, summed over workers and visited classes (a tallied class
    /// interns nothing).
    pub signatures_interned: usize,
    /// Distinct raw signature keys those interners memoized, summed the
    /// same way: the memo a hit probes, and what grows with `k`.
    pub raw_keys: usize,
    /// The shard this report covers (`None` = the full sweep).
    pub shard: Option<ShardSpec>,
}

impl NetworkSweepReport {
    /// Total (scenario, class) pairs verified.
    pub fn scenarios_swept(&self) -> usize {
        self.per_ec.iter().map(|e| e.report.scenarios_swept()).sum()
    }

    /// What the per-EC engine would have derived without cross-EC
    /// sharing: the distinct refinements of every class, summed.
    pub fn unshared_derivations(&self) -> usize {
        self.per_ec.iter().map(|e| e.report.refinements.len()).sum()
    }

    /// Fraction of would-be derivations served by the cross-EC cache:
    /// `1 - derivations / unshared_derivations`, clamped at 0 — racing
    /// workers can derive one signature more than once, which must read
    /// as "no sharing", not as a negative ratio.
    pub fn sharing_ratio(&self) -> f64 {
        let unshared = self.unshared_derivations();
        if unshared == 0 {
            return 0.0;
        }
        (1.0 - self.derivations as f64 / unshared as f64).max(0.0)
    }

    /// Fold this report's tallies into the process-wide metric registry
    /// (`sweep.*` — see `docs/OBSERVABILITY.md`). Counters accumulate
    /// across sweeps; the resident high-water mark is a max.
    fn publish_metrics(&self) {
        bonsai_obs::add("sweep.derivations", self.derivations as u64);
        bonsai_obs::add("sweep.transfer.exact", self.exact_transfers as u64);
        bonsai_obs::add("sweep.transfer.symmetric", self.symmetric_transfers as u64);
        bonsai_obs::add("sweep.transfer.verified", self.verified_transfers as u64);
        bonsai_obs::add("sweep.transfer.witnessed", self.witnessed_transfers as u64);
        bonsai_obs::add("sweep.scenarios.streamed", self.scenarios_streamed as u64);
        bonsai_obs::add("sweep.scenarios.swept", self.scenarios_swept() as u64);
        bonsai_obs::set_max("sweep.resident.peak", self.peak_resident_scenarios as u64);
        bonsai_obs::add("sweep.signatures.interned", self.signatures_interned as u64);
        bonsai_obs::add("sweep.signatures.raw_keys", self.raw_keys as u64);
        bonsai_obs::add("sweep.classes.tallied", self.classes_tallied as u64);
    }
}

/// One class of the plane: the kernel context hoisted once before the
/// fan-out, plus the class's half of the cross-EC cache key.
struct EcPlane<'a> {
    ctx: SweepCtx<'a>,
    canon: Option<QuotientCanon>,
    fingerprint: EcFingerprint,
}

impl EcPlane<'_> {
    /// The class as a witness search sees it (`None` without a canonical
    /// quotient).
    fn view(&self) -> Option<ClassView<'_>> {
        let class = &self.ctx.class;
        self.canon.as_ref().map(|canon| ClassView {
            ec: &class.ec,
            sigs: &class.sigs,
            base: &class.base,
            canon,
        })
    }
}

/// The cross-EC cache key: equal only for classes with provably identical
/// compiled policies and isomorphic labeled quotients, and scenarios with
/// equal canonical signatures.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SharedKey {
    fingerprint: EcFingerprint,
    quotient: QuotientClass,
    signature: CanonicalSignature,
}

/// A cross-EC cache entry: the donor's refinement plus enough provenance
/// to decide transfer strength.
struct SharedEntry {
    donor_origins: Vec<(NodeId, OriginProto)>,
    donor: ScenarioRefinement,
    /// The donor derivation converged on the stage-1 endpoint split with
    /// no escalation — the precondition for symmetric transfer.
    stage1_only: bool,
}

/// The cross-EC cache, shared by **all** workers behind a mutex — unlike
/// the per-EC materialization caches, which stay worker-local. The lock
/// is only touched on per-EC cache misses (rare: most items hit the
/// local cache), and held for a hash probe or an insert, never across a
/// derivation — so the sharing statistics stay near the threads=1
/// optimum instead of degrading by a factor of the worker count. Two
/// workers can still race one key (both miss, both derive); the first
/// insert wins and the duplicate is counted honestly in `derivations`.
type SharedCache = std::sync::Mutex<HashMap<SharedKey, Arc<SharedEntry>>>;

/// What one worker knows about one (class, signature) pair, indexed by
/// the class interner's dense `SigId` — a hit bumps `items`, reads
/// `refined_nodes` (and `shard_key`/`rep` when those filters are on) and
/// nothing else.
#[derive(Default)]
struct Slot {
    /// Items of the signature this worker stepped onto, filters or not:
    /// what a class tallied against this one counts.
    items: usize,
    /// The resolved refinement (`None` until the first unfiltered item of
    /// the signature), folded into the report's per-class map after the
    /// fan-out.
    refinement: Option<ScenarioRefinement>,
    /// `refinement.refined_nodes()`, hoisted out of the per-item tally.
    refined_nodes: usize,
    /// Memoized canonical representative: the scenario a refinement is
    /// derived from, the one item of its signature a pruned sweep keeps,
    /// and the input of the shard key.
    rep: Option<FailureScenario>,
    /// Memoized shard key — the canonical key behind it is
    /// signature-level, so one computation serves every scenario of the
    /// signature.
    shard_key: Option<u64>,
}

impl Slot {
    /// The canonical representative of this slot's signature.
    fn rep(&mut self, plane: &EcPlane<'_>, signature: &OrbitSignature) -> &FailureScenario {
        self.rep.get_or_insert_with(|| {
            SignatureInterner::new(&plane.ctx.orbits).canonical_scenario(signature)
        })
    }
}

/// How a class's refinements were resolved, by provenance.
#[derive(Clone, Copy, Default)]
struct Resolved {
    /// Full derivations kept for the class.
    derived: usize,
    exact: usize,
    symmetric: usize,
    /// Symmetric transfers re-verified (`verify_transfers`).
    verified: usize,
    /// Symmetric transfers taken through a class witness.
    witnessed: usize,
}

impl Resolved {
    fn record(&mut self, refinement: &ScenarioRefinement, options: &NetworkSweepOptions) {
        match refinement.provenance {
            RefinementProvenance::Derived => self.derived += 1,
            RefinementProvenance::TransferredExact => self.exact += 1,
            RefinementProvenance::TransferredSymmetric => {
                self.symmetric += 1;
                // In audited mode a symmetric transfer only stands once
                // re-verified.
                self.verified += usize::from(options.verify_transfers);
                self.witnessed += usize::from(refinement.is_witnessed());
            }
        }
    }

    fn merge(&mut self, other: &Resolved) {
        self.derived += other.derived;
        self.exact += other.exact;
        self.symmetric += other.symmetric;
        self.verified += other.verified;
        self.witnessed += other.witnessed;
    }
}

/// One class's slice of the sweep before it becomes an [`EcSweep`]: what
/// a worker holds for a visited class, and what a tally produces.
#[derive(Default)]
struct ClassTally {
    refinements: BTreeMap<OrbitSignature, ScenarioRefinement>,
    /// Aggregate outcome tallies — complete even when outcome records are
    /// not collected.
    stats: OutcomeStats,
    resolved: Resolved,
}

/// One worker's state for one visited class of the plane.
struct ClassState<'a> {
    interner: SignatureInterner<'a>,
    /// Indexed by `SigId`; grown as the interner hands out ids.
    slots: Vec<Slot>,
    stats: OutcomeStats,
    resolved: Resolved,
}

/// Worker-local state of the network fan-out.
struct WorkerState<'a> {
    /// One per visited class, in visiting order.
    classes: Vec<ClassState<'a>>,
    /// Scenario items this worker stepped through the stream.
    streamed: usize,
}

/// Sweeps every `≤ k` link-failure scenario of **every** destination
/// class of a compression run through one shared fan-out plane, sharing
/// refinements across classes (see the module docs for the cache key and
/// the transfer rules).
///
/// `report` must be the compression run of `network`/`topo`; its shared
/// engine serves every signature table, fingerprint and refinement.
pub fn sweep_network(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    options: &NetworkSweepOptions,
) -> Result<NetworkSweepReport, EquivalenceError> {
    let every: Vec<usize> = (0..report.per_ec.len()).collect();
    sweep_network_subset(network, topo, report, options, &every)
}

/// [`sweep_network`] restricted to a chosen subset of the compression
/// report's classes (`indices` into `report.per_ec`, in the order the
/// caller wants them reported). This is the incremental-re-verification
/// primitive: after a config delta, only the classes whose fingerprint
/// moved are re-swept, and the subset's members share refinements among
/// themselves exactly as a full sweep would; a caller that wants only the
/// first `n` classes passes `0..n`. With one index and
/// `share_across_ecs: false` it is the sweep of a single class. The
/// returned report's `per_ec` has one entry per requested index, in
/// request order.
///
/// Errors when a concrete instance diverges under some scenario or a
/// representative stays refuted at the discrete partition (a genuine
/// equivalence bug, not a failure asymmetry).
pub fn sweep_network_subset(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    options: &NetworkSweepOptions,
    indices: &[usize],
) -> Result<NetworkSweepReport, EquivalenceError> {
    let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
    sweep_with_distances(network, topo, report, options, indices, &distances)
}

/// [`sweep_network_subset`] over the intact-network distance matrix of
/// `topo.graph` the caller already holds.
pub(crate) fn sweep_with_distances(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    options: &NetworkSweepOptions,
    indices: &[usize],
    distances: &Arc<NodeDistances>,
) -> Result<NetworkSweepReport, EquivalenceError> {
    let env = SweepEnv::new(
        network,
        topo,
        &report.policies,
        &options.sweep,
        Arc::clone(distances),
    );
    let k = options.sweep.max_failures;
    let n_ecs = indices.len();

    // Hoist the per-class planes sequentially (deterministic fingerprint
    // interning and engine-cache population). Every class walks the same
    // implicit scenario stream.
    let stream = ScenarioStream::new(&topo.graph, k);
    let mut planes: Vec<EcPlane<'_>> = Vec::with_capacity(n_ecs);
    for &ci in indices {
        let comp = &report.per_ec[ci];
        let ctx = SweepCtx::hoist(&env, comp.ec.to_ec_dest(), &comp.abstraction);
        let class = &ctx.class;
        let canon = if options.share_across_ecs {
            quotient_canon(
                &topo.graph,
                &class.ec,
                &class.base,
                &class.sigs,
                &ctx.orbits,
            )
        } else {
            None
        };
        let fingerprint = env.engine.ec_fingerprint(network, topo, &class.ec);
        planes.push(EcPlane {
            ctx,
            canon,
            fingerprint,
        });
    }

    // A class with a verified witness onto an earlier visited class is
    // tallied after the fan-out; the plane visits the rest.
    let donors: Vec<Option<(usize, ClassWitness)>> =
        if options.share_across_ecs && !options.collect_outcomes {
            find_donors(&topo.graph, &planes)
        } else {
            planes.iter().map(|_| None).collect()
        };
    let visited: Vec<usize> = (0..n_ecs).filter(|&e| donors[e].is_none()).collect();

    // The flattened class-major plane of the visited classes: item `i` is
    // scenario rank `i % per_class` of class `visited[i / per_class]`.
    let per_class = stream.len();
    let total = visited.len() * per_class;

    let chunk_size = if options.chunk_size == 0 {
        DEFAULT_CHUNK_SIZE
    } else {
        options.chunk_size
    };
    // Sized by the plane the sweep covers, tallied classes included.
    let threads = if options.sweep.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.sweep.threads
    }
    .min((n_ecs * per_class).div_ceil(chunk_size).max(1));

    // Resident-scenario gauge: an item counts while in flight, a collected
    // outcome record from collection to the end of the sweep. Workers
    // tally a chunk locally and touch the gauge at its start and its end.
    let resident = ResidentGauge::default();

    let shared: SharedCache = std::sync::Mutex::new(HashMap::new());
    type ChunkOut = Vec<(usize, ScenarioOutcome)>;
    let work = |state: &mut WorkerState<'_>,
                range: std::ops::Range<usize>|
     -> Result<ChunkOut, EquivalenceError> {
        let _chunk_span = bonsai_obs::span!(
            "sweep.chunk",
            start = range.start,
            len = range.end - range.start
        );
        let mut out: ChunkOut = Vec::new();
        resident.begin_chunk();
        // This chunk's resident high-water mark, relative to its start:
        // the item in flight plus the outcomes collected so far.
        let mut high = 1usize;
        // A chunk may span class boundaries: process it as per-class runs,
        // each run a contiguous rank range of the stream — one unranking
        // for the run start, successor stepping over link indices after.
        let mut i = range.start;
        while i < range.end {
            let (v, first) = (i / per_class, i % per_class);
            let e = visited[v];
            let run_end = ((v + 1) * per_class).min(range.end);
            let mut item = stream.iter_range(first, run_end - i);
            let mut rank = first;
            while item.advance() {
                high = high.max(out.len() + 1);
                let class = &mut state.classes[v];
                if let Some(outcome) =
                    process_item(class, &shared, rank, &item, &planes[e], options)?
                {
                    out.push((e, outcome));
                }
                rank += 1;
            }
            state.streamed += run_end - i;
            i = run_end;
        }
        resident.end_chunk(high, out.len());
        bonsai_obs::add("sweep.chunks.completed", 1);
        Ok(out)
    };

    let init = || WorkerState {
        classes: visited
            .iter()
            .map(|&e| ClassState {
                interner: SignatureInterner::new(&planes[e].ctx.orbits),
                slots: Vec::new(),
                stats: OutcomeStats::default(),
                resolved: Resolved::default(),
            })
            .collect(),
        streamed: 0,
    };
    let (chunks, states) = fan_out_ranges(total, chunk_size, threads, init, work);

    // Flatten chunk outcomes back into per-class lists. Chunks come back
    // in range order and the plane is class-major, so every class's
    // outcomes arrive in rank order.
    let mut per_ec_outcomes: Vec<Vec<ScenarioOutcome>> = (0..n_ecs).map(|_| Vec::new()).collect();
    for chunk in chunks {
        for (e, outcome) in chunk? {
            per_ec_outcomes[e].push(outcome);
        }
    }

    // Merge worker states: the slots fold back into per-class refinement
    // maps keyed by full signature (racing duplicates are deterministic,
    // so any copy is kept — and must agree), then aggregate tallies and
    // the sharing counters; the slots also fold into per-signature donor
    // facts, keyed by representative — what a tally against the class
    // reads.
    let mut classes: Vec<ClassTally> = (0..n_ecs).map(|_| ClassTally::default()).collect();
    let mut donor_signatures: Vec<BTreeMap<FailureScenario, DonorSignature>> =
        (0..n_ecs).map(|_| BTreeMap::new()).collect();
    let mut scenarios_streamed = (n_ecs - visited.len()) * per_class;
    let mut signatures_interned = 0usize;
    let mut raw_keys = 0usize;
    for state in states {
        scenarios_streamed += state.streamed;
        for (class, &e) in state.classes.into_iter().zip(&visited) {
            let tally = &mut classes[e];
            tally.stats.merge(&class.stats);
            tally.resolved.merge(&class.resolved);
            signatures_interned += class.interner.len();
            raw_keys += class.interner.raw_keys();
            for slot in class.slots {
                if slot.items > 0 {
                    let rep = slot.rep.expect("a stepped slot knows its representative");
                    let donor = donor_signatures[e].entry(rep).or_default();
                    donor.items += slot.items;
                    if slot.refinement.as_ref().is_some_and(|r| r.stage1_only()) {
                        donor.stage1_nodes = Some(slot.refined_nodes);
                    }
                }
                let Some(refinement) = slot.refinement else {
                    continue;
                };
                match tally.refinements.entry(refinement.signature.clone()) {
                    Entry::Vacant(v) => {
                        v.insert(refinement);
                    }
                    Entry::Occupied(existing) => debug_assert_eq!(
                        existing.get().abstraction().partition.as_sets(),
                        refinement.abstraction().partition.as_sets(),
                        "racing derivations of one signature must agree"
                    ),
                }
            }
        }
    }

    // The tallied classes, after every visited one: a donor's shared-cache
    // entries are all in place, so a tally resolves exactly what the visit
    // would have.
    let tallied: Vec<(usize, usize, &ClassWitness)> = donors
        .iter()
        .enumerate()
        .filter_map(|(e, donor)| donor.as_ref().map(|(d, witness)| (e, *d, witness)))
        .collect();
    let (tallies, _) = fan_out(
        tallied.len(),
        threads,
        || (),
        |_, t| {
            let (e, d, witness) = tallied[t];
            tally_class(&shared, &planes[e], witness, &donor_signatures[d], options)
        },
    );
    for (&(e, _, _), tally) in tallied.iter().zip(tallies) {
        classes[e] = tally?;
    }

    let mut resolved = Resolved::default();
    let mut per_ec: Vec<EcSweep> = Vec::with_capacity(n_ecs);
    for ((plane, class), outcomes) in planes.iter().zip(classes).zip(per_ec_outcomes) {
        debug_assert!(
            !options.collect_outcomes || class.stats == OutcomeStats::from_outcomes(&outcomes),
            "collected outcomes and aggregate tallies must agree"
        );
        resolved.merge(&class.resolved);
        per_ec.push(EcSweep {
            rep: plane.ctx.class.ec.prefix,
            fingerprint: plane.fingerprint,
            canonical: plane.canon.is_some(),
            report: SweepReport {
                k,
                threads,
                base_abstract_nodes: plane.ctx.class.base.abstract_node_count(),
                scenarios_exhaustive: stream.len(),
                outcomes,
                stats: class.stats,
                refinements: class.refinements,
                derivations: class.resolved.derived,
            },
        });
    }

    let distinct_fingerprints = planes
        .iter()
        .map(|p| p.fingerprint)
        .collect::<BTreeSet<_>>()
        .len();

    let report = NetworkSweepReport {
        k,
        threads,
        per_ec,
        derivations: resolved.derived,
        exact_transfers: resolved.exact,
        symmetric_transfers: resolved.symmetric,
        verified_transfers: resolved.verified,
        witnessed_transfers: resolved.witnessed,
        distinct_fingerprints,
        classes_tallied: tallied.len(),
        chunk_size,
        scenarios_streamed,
        peak_resident_scenarios: resident.peak(),
        signatures_interned,
        raw_keys,
        shard: options.shard,
    };
    report.publish_metrics();
    Ok(report)
}

/// For each class: the earlier visited class of its group
/// `(EcFingerprint, QuotientClass)` it has a verified witness onto, and
/// the witness — `None` for a class that is visited (the first of its
/// group, one without a canonical quotient, or one no search succeeded
/// for; such a class is a donor candidate for the classes after it).
fn find_donors(graph: &Graph, planes: &[EcPlane<'_>]) -> Vec<Option<(usize, ClassWitness)>> {
    let mut groups: HashMap<(EcFingerprint, &QuotientClass), Vec<usize>> = HashMap::new();
    let mut donors = Vec::with_capacity(planes.len());
    for (e, plane) in planes.iter().enumerate() {
        let Some(receiver) = plane.view() else {
            donors.push(None);
            continue;
        };
        let group = groups
            .entry((plane.fingerprint, &receiver.canon.class))
            .or_default();
        let found = group.iter().find_map(|&d| {
            let donor = planes[d].view().expect("group members canonicalize");
            let mut span = bonsai_obs::span!(
                "sweep.witness",
                class = plane.ctx.class.ec.prefix.to_string()
            );
            let search = find_class_witness(graph, donor, receiver);
            if let Some(span) = &mut span {
                span.record("found", u64::from(search.witness.is_some()));
                span.record("nodes", search.nodes);
            }
            search.witness.map(|witness| (d, witness))
        });
        if found.is_none() {
            group.push(e);
        }
        donors.push(found);
    }
    donors
}

/// What a tally reads of one signature of its donor class, keyed by the
/// signature's representative.
#[derive(Default)]
struct DonorSignature {
    /// Items of the signature the donor's workers stepped onto.
    items: usize,
    /// The node count of the donor's refinement when it is the stage-1
    /// endpoint-split partition (`None`: escalated, or filtered away).
    stage1_nodes: Option<usize>,
}

/// A tallied class (module docs): every signature of the donor, carried
/// onto this class through σ⁻¹, resolved as a visit would resolve it, and
/// counted with the donor's item count.
fn tally_class(
    shared: &SharedCache,
    plane: &EcPlane<'_>,
    witness: &ClassWitness,
    donor: &BTreeMap<FailureScenario, DonorSignature>,
    options: &NetworkSweepOptions,
) -> Result<ClassTally, EquivalenceError> {
    let ctx = &plane.ctx;
    let mut span = bonsai_obs::span!(
        "sweep.tally",
        class = ctx.class.ec.prefix.to_string(),
        signatures = donor.len()
    );
    let mut reps = SignatureInterner::new(&ctx.orbits);
    let mut tally = ClassTally::default();
    for (donor_rep, facts) in donor {
        let scenario = witness.to_receiver(&ctx.class.graph, donor_rep);
        let signature = ctx
            .orbits
            .signature_of(&scenario)
            .expect("σ⁻¹ maps links onto links");
        let rep = reps.canonical_scenario(&signature);
        if options
            .shard
            .is_some_and(|shard| !shard.holds(shard_key(plane, &signature, &rep)))
        {
            continue;
        }
        // σ⁻¹ carries the donor's representative onto this class's own:
        // σ commutes with the endpoint split and with Algorithm 1, so the
        // donor's stage-1 node count is this class's.
        let witnessed = facts.stage1_nodes.filter(|_| rep == scenario);
        let refinement = resolve_refinement(shared, plane, &signature, &rep, options, witnessed)?;
        tally.resolved.record(&refinement, options);
        // A pruned sweep keeps one item per signature: its representative.
        let items = if options.sweep.prune_symmetric {
            1
        } else {
            facts.items
        };
        tally.stats.record_items(refinement.refined_nodes(), items);
        let previous = tally.refinements.insert(signature, refinement);
        debug_assert!(previous.is_none(), "σ maps signature classes one to one");
    }
    if let Some(span) = &mut span {
        span.record("witnessed", tally.resolved.witnessed);
    }
    Ok(tally)
}

/// Merges the reports of a complete shard set (`index = 0..of`, any input
/// order) back into the report of the unsharded sweep. Every signature
/// class lives in exactly one shard, so refinement maps union disjointly,
/// counters sum exactly, and outcome lists interleave by rank; a
/// `threads = 1` shard set reproduces the `threads = 1` monolithic sweep
/// field-for-field (racing duplicate derivations only exist at
/// `threads > 1`, in both the sharded and the monolithic run).
pub fn merge_reports(mut shards: Vec<NetworkSweepReport>) -> Result<NetworkSweepReport, String> {
    if shards.is_empty() {
        return Err("no shard reports to merge".into());
    }
    let of = match shards[0].shard {
        Some(s) => s.of,
        None => return Err("merge input contains an unsharded report".into()),
    };
    if shards.len() != of {
        return Err(format!("expected {of} shard reports, got {}", shards.len()));
    }
    shards.sort_by_key(|r| r.shard.map_or(usize::MAX, |s| s.index));
    for (i, r) in shards.iter().enumerate() {
        let s = r.shard.ok_or("merge input contains an unsharded report")?;
        if s.of != of {
            return Err(format!("mixed shard counts: {of} and {}", s.of));
        }
        if s.index != i {
            return Err(format!("shard indices must cover 0..{of} exactly once"));
        }
    }

    let mut iter = shards.into_iter();
    let mut acc = iter.next().expect("nonempty checked above");
    for r in iter {
        if r.k != acc.k || r.per_ec.len() != acc.per_ec.len() {
            return Err("shard reports disagree on k or the class set".into());
        }
        acc.threads = acc.threads.max(r.threads);
        acc.derivations += r.derivations;
        acc.exact_transfers += r.exact_transfers;
        acc.symmetric_transfers += r.symmetric_transfers;
        acc.verified_transfers += r.verified_transfers;
        acc.witnessed_transfers += r.witnessed_transfers;
        acc.classes_tallied += r.classes_tallied;
        acc.chunk_size = acc.chunk_size.max(r.chunk_size);
        acc.scenarios_streamed += r.scenarios_streamed;
        acc.peak_resident_scenarios = acc.peak_resident_scenarios.max(r.peak_resident_scenarios);
        acc.signatures_interned += r.signatures_interned;
        acc.raw_keys += r.raw_keys;
        if r.distinct_fingerprints != acc.distinct_fingerprints {
            return Err("shard reports disagree on the fingerprint set".into());
        }
        for (a, b) in acc.per_ec.iter_mut().zip(r.per_ec) {
            if a.rep != b.rep || a.fingerprint != b.fingerprint {
                return Err("shard reports disagree on the class set".into());
            }
            if a.report.base_abstract_nodes != b.report.base_abstract_nodes {
                return Err("shard reports disagree on a base abstraction".into());
            }
            a.report.derivations += b.report.derivations;
            a.report.stats.merge(&b.report.stats);
            a.report.threads = a.report.threads.max(b.report.threads);
            for (sig, refinement) in b.report.refinements {
                if a.report.refinements.insert(sig, refinement).is_some() {
                    return Err("one signature class appears in two shards".into());
                }
            }
            a.report.outcomes.extend(b.report.outcomes);
        }
    }
    for ec in &mut acc.per_ec {
        ec.report.outcomes.sort_by_key(|o| o.rank);
    }
    acc.shard = None;
    Ok(acc)
}

/// The high-water gauge behind
/// [`NetworkSweepReport::peak_resident_scenarios`].
#[derive(Default)]
struct ResidentGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ResidentGauge {
    /// A worker starts a chunk: the item it stands on is resident until
    /// [`ResidentGauge::end_chunk`], so concurrent workers are counted.
    fn begin_chunk(&self) {
        let before = self.current.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(before + 1, Ordering::Relaxed);
    }

    /// The chunk ends: its in-flight item is swapped for the `kept`
    /// outcome records it leaves resident, and its own high-water mark
    /// (`high`, in-flight item included, relative to the chunk's start)
    /// is stacked on whatever else was resident.
    fn end_chunk(&self, high: usize, kept: usize) {
        let before = self
            .current
            .fetch_add(kept.wrapping_sub(1), Ordering::Relaxed);
        self.peak.fetch_max(before - 1 + high, Ordering::Relaxed);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Stable 64-bit FNV-1a. **Not** `std`'s `DefaultHasher`: shard membership
/// must agree between independent shard processes, so the hash may not
/// vary per process. Also the session's network fingerprint.
pub(crate) fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The shard key of a (class, signature) pair: a stable hash of the
/// class's **canonical** signature when the class canonicalizes — every
/// symmetric occurrence of a scenario shape, across all destination
/// classes, then shares one shard and its single derivation — falling
/// back to the per-EC signature otherwise (still deterministic, so each
/// (scenario, class) item belongs to exactly one shard).
fn shard_key(plane: &EcPlane<'_>, signature: &OrbitSignature, rep: &FailureScenario) -> u64 {
    let canonical = plane
        .canon
        .as_ref()
        .and_then(|canon| canonical_signature_of(&plane.ctx.orbits, canon, rep));
    match canonical {
        Some(sig) => fnv64(&format!("{sig:?}")),
        None => fnv64(&format!("{signature:?}")),
    }
}

/// Verifies one (class, scenario) item of a chunk — `item` is the stream
/// cursor standing on it: signature id, shard and pruning filters, slot
/// probe, refinement resolution on a miss (see [`resolve_refinement`]) and
/// tallies. A hit touches the interner's raw-key memo and one slot; the
/// scenario and its signature are materialized only for a miss, the
/// pruning comparison or a collected outcome. Returns the item's outcome
/// record when outcomes are collected and no filter dropped it.
fn process_item(
    class: &mut ClassState<'_>,
    shared: &SharedCache,
    rank: usize,
    item: &ScenarioRangeIter<'_>,
    plane: &EcPlane<'_>,
    options: &NetworkSweepOptions,
) -> Result<Option<ScenarioOutcome>, EquivalenceError> {
    let id = class.interner.id_of(item.indices());
    if id.index() >= class.slots.len() {
        class.slots.resize_with(id.index() + 1, Slot::default);
    }
    let slot = &mut class.slots[id.index()];
    slot.items += 1;
    let signature = class.interner.signature(id);

    if let Some(shard) = options.shard {
        let key = match slot.shard_key {
            Some(key) => key,
            None => {
                let key = shard_key(plane, signature, slot.rep(plane, signature));
                slot.shard_key = Some(key);
                key
            }
        };
        if !shard.holds(key) {
            return Ok(None);
        }
    }
    // Schedule-independent pruning: exactly one item per signature — its
    // canonical representative — survives, whichever worker meets it.
    if options.sweep.prune_symmetric && *slot.rep(plane, signature) != item.scenario() {
        return Ok(None);
    }

    let cache_hit = slot.refinement.is_some();
    if !cache_hit {
        let rep = slot.rep(plane, signature);
        let refinement = resolve_refinement(shared, plane, signature, rep, options, None)?;
        class.resolved.record(&refinement, options);
        slot.refined_nodes = refinement.refined_nodes();
        slot.refinement = Some(refinement);
    }
    class.stats.record(slot.refined_nodes);
    Ok(options.collect_outcomes.then(|| ScenarioOutcome {
        rank,
        scenario: item.scenario(),
        signature: signature.clone(),
        cache_hit,
        refined_nodes: slot.refined_nodes,
    }))
}

/// Resolves a (class, signature) slot miss for the signature's canonical
/// representative `scenario`: cross-EC transfer when the canonical key
/// hits with a compatible donor, full derivation otherwise (recording the
/// result for future transfers). The result's provenance says which; a
/// tally passes the node count it `witnessed` — its donor class's stage-1
/// refinement of the signature carried through σ⁻¹ — for a symmetric
/// transfer to take.
fn resolve_refinement(
    shared: &SharedCache,
    plane: &EcPlane<'_>,
    signature: &OrbitSignature,
    scenario: &FailureScenario,
    options: &NetworkSweepOptions,
    witnessed: Option<usize>,
) -> Result<ScenarioRefinement, EquivalenceError> {
    let ctx = &plane.ctx;
    let shared_key = plane.canon.as_ref().and_then(|canon| {
        canonical_signature_of(&ctx.orbits, canon, scenario).map(|sig| SharedKey {
            fingerprint: plane.fingerprint,
            quotient: canon.class.clone(),
            signature: sig,
        })
    });

    // Probe the shared cache under the lock, transfer outside it.
    let hit: Option<Arc<SharedEntry>> = shared_key
        .as_ref()
        .and_then(|key| shared.lock().unwrap().get(key).cloned());
    if let Some(entry) = hit {
        if entry.donor_origins == ctx.class.ec.origins {
            // Exact (same origins): the donor's partition replays
            // byte-identically over this class's handle; the abstract
            // network, which embeds this class's own prefix, is left to
            // the refinement's first reader.
            debug_assert_eq!(
                entry.donor.signature, *signature,
                "identical origins and fingerprints must yield identical per-EC signatures"
            );
            let exact = RefinementProvenance::TransferredExact;
            return Ok(entry.donor.carried(&ctx.class, exact));
        }
        if entry.stage1_only {
            let candidate = transfer_symmetric(ctx, signature, scenario, witnessed);
            if !options.verify_transfers {
                return Ok(candidate);
            }
            // Audited mode: run this class's own verification against
            // the transferred refinement; a refutation (the symmetry
            // certificate over-promised) falls back to deriving.
            let solutions = sample_concrete_solutions(ctx, &candidate.representative)?;
            let (network, topo) = (ctx.env.network, ctx.env.topo);
            let layout = candidate.materialized(network, topo).layout();
            let (abstraction, rep) = (candidate.abstraction(), &candidate.representative);
            let check = Candidate::new(network, topo, abstraction, layout, rep);
            if check_scenario_refined(ctx, &candidate.representative, &solutions, &check).is_ok() {
                return Ok(candidate);
            }
        }
    }

    let refinement = derive_scenario_refinement(ctx, signature)?;
    if let Some(key) = shared_key {
        let entry = Arc::new(SharedEntry {
            donor_origins: ctx.class.ec.origins.clone(),
            stage1_only: refinement.stage1_only(),
            donor: refinement.carried(&ctx.class, refinement.provenance),
        });
        shared.lock().unwrap().entry(key).or_insert(entry);
    }
    Ok(refinement)
}

/// A symmetric transfer: the stage-1 endpoint split of the receiving
/// class's own representative, over its own base abstraction — exactly
/// the partition a fresh derivation produces when its first check passes,
/// which is what the donor's verdict certifies. An eager transfer computes
/// that partition; a `witnessed` one knows its node count already and
/// leaves the partition to its first reader.
fn transfer_symmetric(
    ctx: &SweepCtx<'_>,
    signature: &OrbitSignature,
    scenario: &FailureScenario,
    witnessed: Option<usize>,
) -> ScenarioRefinement {
    let split = endpoint_split(&ctx.class.base, scenario);
    debug_assert!(
        witnessed.is_none_or(|n| ctx.class.split_partition(&split).abstract_node_count() == n),
        "Algorithm 1 commutes with a verified class witness"
    );
    let known = witnessed.map_or_else(
        || Known::Partition(ctx.class.split_partition(&split)),
        Known::Nodes,
    );
    ScenarioRefinement::new(
        Arc::clone(&ctx.class),
        signature.clone(),
        scenario.clone(),
        split,
        known,
        false,
        0,
        false,
        RefinementProvenance::TransferredSymmetric,
    )
}
