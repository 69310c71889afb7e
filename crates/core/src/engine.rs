//! The shared policy-compilation engine: one BDD arena and one set of
//! compiled-policy caches for an **entire compression run**, shared across
//! every destination equivalence class.
//!
//! Bonsai compresses once per EC, and on real configurations the EC count
//! dominates wall-clock time. The destination-*independent* part of policy
//! compilation — the community universe, route-map structure, session
//! kinds — is identical for every class, and even the destination-
//! *dependent* part collapses to a small set of cases: a route map's
//! compiled form depends on the destination only through the boolean
//! outcome of each prefix-list match (paper §5.1, "Specialize(bdds, G.d)").
//! [`CompiledPolicies`] therefore caches compiled stages and whole per-edge
//! BGP signatures keyed by those outcomes, so the second EC that resolves a
//! route map the same way reuses the first EC's work — including the
//! canonical [`Ref`]s, because all classes share one arena.
//!
//! Concurrency: the engine is shared immutably (`Arc<CompiledPolicies>`)
//! across EC workers; the arena and caches live behind one internal mutex.
//! Workers hold the lock only while compiling/looking up a signature — on
//! a warm cache that is a hash probe — and run refinement and abstract-
//! network construction fully outside it.
//!
//! Cross-class canonicity is what makes the sharing sound: two [`Ref`]s
//! from the same arena are equal iff the functions are equal, no matter
//! which class compiled them first (witnessed by
//! `tests/shared_engine.rs`).

use crate::policy_bdd::{compile_stage, PolicyCtx, StageOutput};
use crate::signatures::{BgpSig, LpOut, MedOut, SigTable};
use bonsai_bdd::{BddStats, Ref};
use bonsai_config::eval::{acl_permits, prefix_list_permits};
use bonsai_config::{BuiltTopology, Community, DeviceConfig, MatchCond, NetworkConfig};
use bonsai_net::prefix::Prefix;
use bonsai_srp::instance::EcDest;
use bonsai_srp::protocols::bgp::{BgpEdge, BgpProtocol};
use bonsai_srp::protocols::ospf::OspfProtocol;
use bonsai_srp::protocols::static_route::StaticProtocol;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-run statistics of the shared engine: arena health plus hit rates of
/// the stage- and signature-level caches. Exposed on
/// [`CompressionReport`](crate::compress::CompressionReport) so benchmarks
/// (Table 1, `BENCH_compress.json`) can report how much cross-EC reuse a
/// run achieved.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Live nodes in the shared arena.
    pub arena_nodes: usize,
    /// Peak node count (no GC yet, so equal to `arena_nodes`).
    pub arena_peak: usize,
    /// Apply-cache probes inside the arena.
    pub apply_lookups: u64,
    /// Apply-cache hits inside the arena.
    pub apply_hits: u64,
    /// Unique-table probes (hash-consing) inside the arena.
    pub unique_lookups: u64,
    /// Unique-table probes answered by an existing node.
    pub unique_hits: u64,
    /// Route-map stage compilations requested.
    pub stage_lookups: u64,
    /// Stage requests answered from the cross-EC stage cache.
    pub stage_hits: u64,
    /// Per-edge BGP signature assemblies requested.
    pub sig_lookups: u64,
    /// Signature requests answered from the cross-EC signature cache.
    pub sig_hits: u64,
    /// Whole signature tables requested (one per EC).
    pub table_lookups: u64,
    /// Tables answered from the cross-EC table cache (the class resolved
    /// every policy exactly like an earlier class).
    pub table_hits: u64,
}

impl EngineStats {
    /// Fraction of arena apply probes answered from the cache.
    pub fn apply_hit_rate(&self) -> f64 {
        ratio(self.apply_hits, self.apply_lookups)
    }

    /// Fraction of stage compilations served from the cache.
    pub fn stage_hit_rate(&self) -> f64 {
        ratio(self.stage_hits, self.stage_lookups)
    }

    /// Fraction of per-edge BGP signatures served from the cache.
    pub fn sig_hit_rate(&self) -> f64 {
        ratio(self.sig_hits, self.sig_lookups)
    }

    /// Fraction of per-EC signature tables served whole from the cache.
    pub fn table_hit_rate(&self) -> f64 {
        ratio(self.table_hits, self.table_lookups)
    }

    /// True if any cache tier (table, signature, stage) recorded a hit —
    /// the "reuse happened" predicate for multi-EC runs.
    pub fn reuse_observed(&self) -> bool {
        self.table_hits > 0 || self.sig_hits > 0 || self.stage_hits > 0
    }

    /// Publishes this snapshot into the `engine.*` registry metrics.
    /// Engine counters are cumulative for the engine's lifetime, so the
    /// registry mirrors them with `set`.
    pub fn publish(&self) {
        bonsai_obs::set("engine.stage.lookups", self.stage_lookups);
        bonsai_obs::set("engine.stage.hits", self.stage_hits);
        bonsai_obs::set("engine.sig.lookups", self.sig_lookups);
        bonsai_obs::set("engine.sig.hits", self.sig_hits);
        bonsai_obs::set("engine.table.lookups", self.table_lookups);
        bonsai_obs::set("engine.table.hits", self.table_hits);
    }
}

fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The exact destination-dependent resolution of one (device, map) stage:
/// the only channel through which the destination enters
/// [`compile_stage`]. Stored verbatim in every cache key (no lossy
/// fingerprints), so a cache hit is a proof of identical compilation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum StageResolution {
    /// No map configured: pass everything through unchanged.
    Passthrough,
    /// Dangling map reference: deny all (IOS).
    DenyAll,
    /// The ordered outcome of every prefix-list match the map performs
    /// against the destination.
    Outcomes(Vec<bool>),
}

/// Cache key of one compiled route-map stage: `(device, map, exact
/// prefix-list resolution, symbolic input functions)` — `None` inputs mean
/// the identity (community `i` is variable `i`). Inputs are canonical
/// `Ref`s of the shared arena, so raw values are exact identities.
type StageKey = (u32, Option<String>, StageResolution, Option<Vec<u32>>);

/// Cache key of one assembled per-edge BGP signature:
/// `(exporter, importer, export map, import map, ibgp, exact exporter/
/// importer stage resolutions)`. Device indices cover everything else the
/// assembly reads from the devices (defaults, redistribution switches).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SigKey {
    exporter: u32,
    importer: u32,
    export_map: Option<String>,
    import_map: Option<String>,
    ibgp: bool,
    export_res: StageResolution,
    import_res: StageResolution,
}

/// Destination-independent facts of every directed edge, computed once per
/// run: session kinds, OSPF facts, redistribution switches, ACL names, and
/// the interned `(device, map)` stage pairs the sessions reference.
pub(crate) struct EdgeStatics {
    /// Per edge: the BGP session, if any.
    pub(crate) sessions: Vec<Option<BgpEdge>>,
    /// Per edge: OSPF `(cost, crosses_area)`.
    pub(crate) ospf: Vec<Option<(u32, bool)>>,
    /// Per edge: exporter redistributes static routes into OSPF.
    pub(crate) ospf_redist_static: Vec<bool>,
    /// Distinct `(device index, map name)` stage pairs used by sessions.
    pub(crate) stage_pairs: Vec<(u32, Option<String>)>,
}

impl EdgeStatics {
    fn build(network: &NetworkConfig, topo: &BuiltTopology) -> Self {
        let mut sessions = Vec::with_capacity(topo.graph.edge_count());
        let mut ospf = Vec::with_capacity(topo.graph.edge_count());
        let mut ospf_redist_static = Vec::with_capacity(topo.graph.edge_count());
        let mut pair_ids: HashMap<(u32, Option<String>), u32> = HashMap::new();
        let mut stage_pairs: Vec<(u32, Option<String>)> = Vec::new();
        let mut intern = |pair: (u32, Option<String>)| {
            if let Some(&id) = pair_ids.get(&pair) {
                return id;
            }
            let id = stage_pairs.len() as u32;
            stage_pairs.push(pair.clone());
            pair_ids.insert(pair, id);
            id
        };
        for e in topo.graph.edges() {
            let (u, v) = topo.graph.endpoints(e);
            let session = BgpProtocol::edge_facts(network, topo, e);
            if let Some(s) = &session {
                intern((v.index() as u32, s.export_map.clone()));
                intern((u.index() as u32, s.import_map.clone()));
            }
            sessions.push(session);
            ospf.push(OspfProtocol::edge_facts(network, topo, e).map(|f| (f.cost, f.crosses_area)));
            ospf_redist_static.push(
                network.devices[v.index()]
                    .ospf
                    .as_ref()
                    .map(|o| o.redistribute_static)
                    .unwrap_or(false),
            );
        }
        EdgeStatics {
            sessions,
            ospf,
            ospf_redist_static,
            stage_pairs,
        }
    }
}

/// The exact destination-dependent residue of one class: everything a
/// signature table can observe beyond the static edge facts. Two classes
/// with equal keys provably compile to the identical table, so the cache
/// carries no hash-collision soundness risk (keys compare by value).
#[derive(Clone, PartialEq, Eq, Hash)]
struct TableKey {
    /// Per stage pair: the exact prefix-list resolution for the class's
    /// route object.
    pair_res: Vec<StageResolution>,
    /// Per edge: packed static-route/ACL outcomes for the class's packet
    /// ranges (see `pack_edge_outcome`).
    edge_outcomes: Vec<u8>,
}

/// The canonical per-EC **policy fingerprint**: an interned identity for
/// the exact destination-dependent residue of a class (`TableKey` — the
/// same value the whole-table cache keys by). Two classes carry equal
/// fingerprints **iff** every prefix list, route map, ACL and static route
/// of the network resolves identically for both, i.e. iff they provably
/// compile to the identical signature table.
///
/// This is the cross-EC sharing handle of the network-level failure sweep:
/// refinements derived for one class transfer to another only when the
/// fingerprints agree (plus the quotient-structure checks layered on top in
/// `bonsai_core::scenarios`). Fingerprints are interned per engine — the
/// numeric value is only meaningful within one engine's lifetime, and only
/// equality is — so they are `Copy` and hash-cheap without any
/// hash-collision soundness risk (the intern table compares full keys).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EcFingerprint(u32);

impl EcFingerprint {
    /// The interned id (diagnostics/serialization; engine-scoped).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Packed per-edge destination-dependent outcomes: bit 0 static route,
/// bits 1-2 egress ACL (0 none, 1 deny, 2 permit), bits 3-4 ingress ACL.
pub(crate) fn pack_edge_outcome(
    static_route: bool,
    acl_out: Option<bool>,
    acl_in: Option<bool>,
) -> u8 {
    let enc = |o: Option<bool>| match o {
        None => 0u8,
        Some(false) => 1,
        Some(true) => 2,
    };
    static_route as u8 | (enc(acl_out) << 1) | (enc(acl_in) << 3)
}

/// Inverse of [`pack_edge_outcome`]: `(static_route, acl_out, acl_in)`.
pub(crate) fn unpack_edge_outcome(b: u8) -> (bool, Option<bool>, Option<bool>) {
    let dec = |bits: u8| match bits {
        0 => None,
        1 => Some(false),
        _ => Some(true),
    };
    (b & 1 == 1, dec((b >> 1) & 3), dec((b >> 3) & 3))
}

/// One interned policy residue: the class's fingerprint plus, once some
/// class actually built it, the shared signature table. One entry per
/// distinct [`TableKey`] — fingerprint interning and the whole-table
/// cache share the key storage.
struct TableEntry {
    fingerprint: EcFingerprint,
    table: Option<Arc<SigTable>>,
}

/// Mutable engine state, guarded by the engine's mutex.
struct EngineInner {
    /// The compilation kernel: community variables + the shared arena.
    ctx: PolicyCtx,
    /// Cached identity input functions (community `i` is variable `i`).
    identity: Vec<Ref>,
    stage_cache: HashMap<StageKey, u32>,
    stages: Vec<StageOutput>,
    sig_cache: HashMap<SigKey, BgpSig>,
    table_cache: HashMap<TableKey, TableEntry>,
    /// Monotone fingerprint allocator. Never reset — not even by
    /// [`CompiledPolicies::apply_delta`] — so a fingerprint interned
    /// after a delta can never collide with one issued before it.
    next_fingerprint: u32,
    /// Fingerprints below this were issued before the most recent delta;
    /// only entries at or above it may adopt a pre-delta identity
    /// (see [`CompiledPolicies::adopt_fingerprint`]).
    fingerprint_floor: u32,
    stage_lookups: u64,
    stage_hits: u64,
    sig_lookups: u64,
    sig_hits: u64,
    table_lookups: u64,
    table_hits: u64,
}

impl EngineInner {
    /// Interns a table key, assigning the next fingerprint on first sight.
    fn intern(&mut self, key: TableKey) -> &mut TableEntry {
        match self.table_cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let fp = EcFingerprint(self.next_fingerprint);
                self.next_fingerprint += 1;
                v.insert(TableEntry {
                    fingerprint: fp,
                    table: None,
                })
            }
        }
    }
}

/// What [`CompiledPolicies::apply_delta`] flushed: the precise cost of
/// absorbing a policy-content edit into a warm engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaInvalidation {
    /// Compiled route-map stages evicted (stages of the edited devices).
    pub stages_evicted: usize,
    /// Per-edge BGP signatures evicted (edges importing from or exporting
    /// to an edited device).
    pub sigs_evicted: usize,
    /// Whole per-EC signature tables evicted (every table spans all
    /// edges, so any policy-content edit can stale any table).
    pub tables_evicted: usize,
}

/// The destination-independent compiled-policy engine: built **once** per
/// network and shared immutably (behind an `Arc`) across every EC worker
/// of a compression run. See the module docs for the architecture.
///
/// **Contract:** an engine is bound to the network it was built from;
/// every `network`/`topo` passed to its methods must be that network (the
/// caches key device *indices*, not device contents). The one sanctioned
/// rebind is the incremental-delta path: when
/// [`diff_configs`](crate::delta::diff_configs) classifies an edit as
/// non-structural and [`CompiledPolicies::apply_delta`] has flushed the
/// edit's eviction class, the engine may be used against the *new*
/// network — every frozen input (device indexing, edge statics, the
/// community universe) is provably identical across such a delta.
pub struct CompiledPolicies {
    /// Communities modeled as BDD variables, ascending (lock-free copy).
    communities: Vec<Community>,
    index: HashMap<Community, u32>,
    /// Whether the engine was built under the unused-community-stripping
    /// attribute abstraction `h` (§8).
    strip_unused: bool,
    /// Number of devices of the bound network (cheap misuse tripwire).
    device_count: usize,
    /// Destination-independent edge facts, filled on first table build
    /// (outside the mutex: read-mostly).
    statics: OnceLock<EdgeStatics>,
    inner: Mutex<EngineInner>,
}

impl CompiledPolicies {
    /// Scans the network once and prepares the shared arena. `strip_unused`
    /// applies the attribute abstraction `h` that ignores communities which
    /// are attached but never matched (§8).
    pub fn from_network(network: &NetworkConfig, strip_unused: bool) -> Self {
        let mut ctx = PolicyCtx::from_network(network, strip_unused);
        let identity = ctx.identity_inputs();
        let communities = ctx.communities.clone();
        let index = communities
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i as u32))
            .collect();
        CompiledPolicies {
            communities,
            index,
            strip_unused,
            device_count: network.devices.len(),
            statics: OnceLock::new(),
            inner: Mutex::new(EngineInner {
                ctx,
                identity,
                stage_cache: HashMap::new(),
                stages: Vec::new(),
                sig_cache: HashMap::new(),
                table_cache: HashMap::new(),
                next_fingerprint: 0,
                fingerprint_floor: 0,
                stage_lookups: 0,
                stage_hits: 0,
                sig_lookups: 0,
                sig_hits: 0,
                table_lookups: 0,
                table_hits: 0,
            }),
        }
    }

    /// Communities modeled as variables, ascending (no lock taken).
    pub fn communities(&self) -> &[Community] {
        &self.communities
    }

    /// True if the engine was built under the unused-community-stripping
    /// attribute abstraction `h` (its community universe then contains
    /// only *matched* communities).
    pub fn strips_unused_communities(&self) -> bool {
        self.strip_unused
    }

    /// The variable index of a community, if modeled (no lock taken).
    pub fn var_of(&self, c: Community) -> Option<u32> {
        self.index.get(&c).copied()
    }

    /// A snapshot of the engine statistics. Each snapshot also publishes
    /// the `engine.*` (and, via [`bonsai_bdd::Bdd::stats`], the `bdd.*`)
    /// metrics of the process registry ([`bonsai_obs`]).
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().unwrap();
        let arena: BddStats = inner.ctx.bdd.stats();
        let stats = EngineStats {
            arena_nodes: arena.nodes,
            arena_peak: arena.peak_nodes,
            apply_lookups: arena.apply_lookups,
            apply_hits: arena.apply_hits,
            unique_lookups: arena.unique_lookups,
            unique_hits: arena.unique_hits,
            stage_lookups: inner.stage_lookups,
            stage_hits: inner.stage_hits,
            sig_lookups: inner.sig_lookups,
            sig_hits: inner.sig_hits,
            table_lookups: inner.table_lookups,
            table_hits: inner.table_hits,
        };
        stats.publish();
        stats
    }

    /// Destination-independent edge facts, built on first use.
    pub(crate) fn edge_statics(
        &self,
        network: &NetworkConfig,
        topo: &BuiltTopology,
    ) -> &EdgeStatics {
        debug_assert_eq!(
            network.devices.len(),
            self.device_count,
            "engine used with a network it was not built from"
        );
        self.statics
            .get_or_init(|| EdgeStatics::build(network, topo))
    }

    /// The exact destination-dependent residue of a class — everything a
    /// signature table (and the per-class SRP behavior the failure sweep
    /// compares) can observe beyond the destination-independent statics.
    fn table_key(&self, network: &NetworkConfig, topo: &BuiltTopology, ec: &EcDest) -> TableKey {
        let statics = self.edge_statics(network, topo);

        let pair_res: Vec<StageResolution> = statics
            .stage_pairs
            .iter()
            .map(|(d, m)| stage_resolution(&network.devices[*d as usize], m.as_deref(), ec.prefix))
            .collect();
        let edge_outcomes: Vec<u8> = topo
            .graph
            .edges()
            .map(|e| {
                let (u, v) = topo.graph.endpoints(e);
                let du = &network.devices[u.index()];
                let dv = &network.devices[v.index()];
                let static_route = StaticProtocol::edge_fact(network, topo, e, ec.range());
                debug_assert!(
                    ec.ranges
                        .iter()
                        .all(|&r| StaticProtocol::edge_fact(network, topo, e, r) == static_route),
                    "EC ranges disagree on a static route — class computation is broken"
                );
                let acl_out = du.interfaces[topo.egress(e)]
                    .acl_out
                    .as_deref()
                    .map(|name| acl_outcome(du, name, ec));
                let acl_in = dv.interfaces[topo.ingress(e)]
                    .acl_in
                    .as_deref()
                    .map(|name| acl_outcome(dv, name, ec));
                pack_edge_outcome(static_route, acl_out, acl_in)
            })
            .collect();
        TableKey {
            pair_res,
            edge_outcomes,
        }
    }

    /// The canonical policy fingerprint of one destination class: the
    /// interned identity of its `TableKey`. See [`EcFingerprint`] for
    /// the equality contract and what it licenses.
    pub fn ec_fingerprint(
        &self,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        ec: &EcDest,
    ) -> EcFingerprint {
        let key = self.table_key(network, topo, ec);
        self.inner.lock().unwrap().intern(key).fingerprint
    }

    /// Absorbs a non-structural config delta into the warm engine by
    /// evicting exactly the cache entries a policy-content edit can
    /// stale. `changed_policy_devices` is the eviction class of
    /// [`diff_configs`](crate::delta::diff_configs) (devices whose
    /// route-map or community-list *content* changed — the objects cache
    /// keys name but do not capture):
    ///
    /// * **stages** compiled for an edited device are dropped. Import
    ///   stages of *unchanged* devices stay: their keys carry the exact
    ///   input `Ref`s the (now re-evicted) export stage produced, so a
    ///   stale composition is unreachable — either the recompiled export
    ///   stage yields the same canonical functions (hit is sound) or
    ///   different ones (key misses).
    /// * **per-edge signatures** with an edited device as importer or
    ///   exporter are dropped.
    /// * **all per-EC tables** are dropped: a table spans every edge, so
    ///   any policy edit can stale any table. Rebuilds are warm — every
    ///   edge not touching an edited device re-hits the signature tier.
    ///
    /// When the eviction class is empty (a purely key-visible edit:
    /// prefix lists, ACLs, static routes, bindings, originations) nothing
    /// is evicted — the keys themselves rout stale entries.
    ///
    /// Either way, the call opens a new fingerprint epoch: freshly
    /// interned table keys may subsequently re-adopt a pre-delta identity
    /// through [`CompiledPolicies::adopt_fingerprint`].
    pub fn apply_delta(&self, changed_policy_devices: &[u32]) -> DeltaInvalidation {
        let mut inner = self.inner.lock().unwrap();
        inner.fingerprint_floor = inner.next_fingerprint;
        if changed_policy_devices.is_empty() {
            return DeltaInvalidation::default();
        }
        let changed: std::collections::HashSet<u32> =
            changed_policy_devices.iter().copied().collect();
        let stages_before = inner.stage_cache.len();
        inner.stage_cache.retain(|key, _| !changed.contains(&key.0));
        let sigs_before = inner.sig_cache.len();
        inner
            .sig_cache
            .retain(|key, _| !changed.contains(&key.exporter) && !changed.contains(&key.importer));
        let tables_evicted = inner.table_cache.len();
        inner.table_cache.clear();
        DeltaInvalidation {
            stages_evicted: stages_before - inner.stage_cache.len(),
            sigs_evicted: sigs_before - inner.sig_cache.len(),
            tables_evicted,
        }
    }

    /// Re-binds the class's post-delta table entry to its pre-delta
    /// fingerprint. The delta driver calls this only after proving the
    /// rebuilt table equals the table `fp` identified before the delta
    /// (semantic equality: `Ref`s are canonical within this engine's
    /// arena), which is exactly the license [`EcFingerprint`] equality
    /// grants — so sweep state keyed under `fp` stays valid.
    ///
    /// First adoption wins: an entry already carrying a pre-epoch
    /// fingerprint keeps it (two classes that converge on one key after
    /// an edit were proven equal to *equal* tables, so either identity
    /// licenses the same sharing). Returns the entry's fingerprint after
    /// the call.
    pub fn adopt_fingerprint(
        &self,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        ec: &EcDest,
        fp: EcFingerprint,
    ) -> EcFingerprint {
        let key = self.table_key(network, topo, ec);
        let mut inner = self.inner.lock().unwrap();
        let floor = inner.fingerprint_floor;
        let entry = inner.intern(key);
        if entry.fingerprint.0 >= floor {
            entry.fingerprint = fp;
        }
        entry.fingerprint
    }

    /// Builds (or recalls, whole) the signature table of one destination
    /// class. The cache key is the class's *exact* destination-dependent
    /// residue — prefix-list outcome fingerprints per referenced route-map
    /// stage, plus per-edge ACL/static outcomes — so two classes share a
    /// table iff they provably compile identically.
    pub fn sig_table(
        &self,
        network: &NetworkConfig,
        topo: &BuiltTopology,
        ec: &EcDest,
    ) -> Arc<SigTable> {
        let statics = self.edge_statics(network, topo);
        let key = self.table_key(network, topo, ec);

        {
            let mut inner = self.inner.lock().unwrap();
            inner.table_lookups += 1;
            if let Some(table) = inner.table_cache.get(&key).and_then(|e| e.table.clone()) {
                inner.table_hits += 1;
                return table;
            }
        }
        // Build outside the engine lock (the per-edge signature path
        // re-acquires it); a racing duplicate build is harmless — the
        // first insert wins. (The entry itself may already exist with no
        // table when only the fingerprint was interned so far.)
        let table = Arc::new(crate::signatures::build_table_data(
            self,
            network,
            topo,
            ec.prefix,
            statics,
            &key.edge_outcomes,
        ));
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.intern(key).table.get_or_insert(table))
    }

    /// Evaluates a compiled function under a community assignment (indexed
    /// like [`CompiledPolicies::communities`]). Test/diagnostic helper.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        self.inner.lock().unwrap().ctx.bdd.eval(f, assignment)
    }

    /// Runs a closure against the locked compilation kernel. Escape hatch
    /// for tests and tools that need raw arena access; production callers
    /// go through [`CompiledPolicies::bgp_edge_sig`].
    pub fn with_ctx<R>(&self, f: impl FnOnce(&mut PolicyCtx) -> R) -> R {
        f(&mut self.inner.lock().unwrap().ctx)
    }

    /// Compiles (or recalls) the full BGP signature of one directed edge —
    /// exporter stage composed with importer stage, local-preference / MED
    /// / prepend case analysis, drop masking — for destination `dest`.
    ///
    /// `importer`/`exporter` are device indices (`u`/`v` of the edge
    /// `u ← v` in signature-table orientation: `u` imports what `v`
    /// exports).
    pub fn bgp_edge_sig(
        &self,
        network: &NetworkConfig,
        dest: Prefix,
        importer: usize,
        exporter: usize,
        session: &BgpEdge,
    ) -> BgpSig {
        let du = &network.devices[importer];
        let dv = &network.devices[exporter];
        let key = SigKey {
            exporter: exporter as u32,
            importer: importer as u32,
            export_map: session.export_map.clone(),
            import_map: session.import_map.clone(),
            ibgp: session.ibgp,
            export_res: stage_resolution(dv, session.export_map.as_deref(), dest),
            import_res: stage_resolution(du, session.import_map.as_deref(), dest),
        };

        let mut inner = self.inner.lock().unwrap();
        inner.sig_lookups += 1;
        if let Some(sig) = inner.sig_cache.get(&key).cloned() {
            inner.sig_hits += 1;
            return sig;
        }
        let sig = assemble_bgp_sig(&mut inner, network, dest, importer, exporter, session);
        inner.sig_cache.insert(key, sig.clone());
        sig
    }
}

/// ACL outcome toward the class: evaluated on the representative range,
/// with a debug check that every range of the class agrees (that is the
/// defining property of a destination equivalence class — see
/// `crate::ecs`).
fn acl_outcome(device: &DeviceConfig, name: &str, ec: &EcDest) -> bool {
    let permits = device
        .acl(name)
        .map(|a| acl_permits(a, ec.range()))
        .unwrap_or(false);
    debug_assert!(
        ec.ranges
            .iter()
            .all(|&r| device.acl(name).map(|a| acl_permits(a, r)).unwrap_or(false) == permits),
        "EC ranges disagree on ACL {name} — class computation is broken"
    );
    permits
}

/// The exact prefix-list resolution a (device, map) pair observes for
/// `dest`: the full destination-dependent input of [`compile_stage`]. Two
/// destinations with equal resolutions provably compile the map to the
/// identical stage (given identical symbolic inputs).
fn stage_resolution(device: &DeviceConfig, map: Option<&str>, dest: Prefix) -> StageResolution {
    let Some(name) = map else {
        return StageResolution::Passthrough;
    };
    let Some(map) = device.route_map(name) else {
        return StageResolution::DenyAll;
    };
    let mut outcomes = Vec::new();
    for clause in &map.clauses {
        for m in &clause.matches {
            if let MatchCond::PrefixList(list) = m {
                outcomes.push(
                    device
                        .prefix_list(list)
                        .map(|pl| prefix_list_permits(pl, dest))
                        .unwrap_or(false),
                );
            }
        }
    }
    StageResolution::Outcomes(outcomes)
}

/// Compiles a route-map stage through the cross-EC stage cache. `inputs`
/// of `None` means the cached identity inputs.
fn cached_stage(
    inner: &mut EngineInner,
    network: &NetworkConfig,
    dest: Prefix,
    device_idx: usize,
    map: Option<&str>,
    inputs: Option<&[Ref]>,
) -> u32 {
    let device = &network.devices[device_idx];
    let key: StageKey = (
        device_idx as u32,
        map.map(str::to_string),
        stage_resolution(device, map, dest),
        inputs.map(|refs| refs.iter().map(|r| r.raw()).collect()),
    );
    inner.stage_lookups += 1;
    if let Some(&i) = inner.stage_cache.get(&key) {
        inner.stage_hits += 1;
        return i;
    }
    let owned_inputs: Vec<Ref> = match inputs {
        None => inner.identity.clone(),
        Some(refs) => refs.to_vec(),
    };
    let out = compile_stage(&mut inner.ctx, device, map, dest, &owned_inputs);
    inner.stages.push(out);
    let id = (inner.stages.len() - 1) as u32;
    inner.stage_cache.insert(key, id);
    id
}

/// The signature assembly formerly inlined in `build_sig_table`: composes
/// the exporter and importer stages and derives the canonical case lists.
fn assemble_bgp_sig(
    inner: &mut EngineInner,
    network: &NetworkConfig,
    dest: Prefix,
    importer: usize,
    exporter: usize,
    session: &BgpEdge,
) -> BgpSig {
    let export_idx = cached_stage(
        inner,
        network,
        dest,
        exporter,
        session.export_map.as_deref(),
        None,
    );
    // The import stage's inputs are the export stage's outputs.
    let export_comm = inner.stages[export_idx as usize].comm.clone();
    let export_drop = inner.stages[export_idx as usize].drop;
    let export_med = inner.stages[export_idx as usize].med.clone();
    let export_prepend = inner.stages[export_idx as usize].prepend.clone();
    let import_idx = cached_stage(
        inner,
        network,
        dest,
        importer,
        session.import_map.as_deref(),
        Some(&export_comm),
    );
    let import = inner.stages[import_idx as usize].clone();

    let ctx = &mut inner.ctx;
    let drop = ctx.bdd.or(export_drop, import.drop);
    let keep = ctx.bdd.not(drop);
    let comm: Vec<Ref> = import.comm.iter().map(|&c| ctx.bdd.and(c, keep)).collect();

    // Local preference cases: explicit sets, then the default.
    let du = &network.devices[importer];
    let bgp_u = du.bgp.as_ref().expect("session implies bgp at importer");
    let mut lp: Vec<(LpOut, Ref)> = Vec::new();
    let mut explicit = Ref::FALSE;
    for &(value, cond) in &import.lp {
        let c = ctx.bdd.and(cond, keep);
        if c != Ref::FALSE {
            lp.push((LpOut::Const(value), c));
            explicit = ctx.bdd.or(explicit, c);
        }
    }
    let not_explicit = ctx.bdd.not(explicit);
    let default_cond = ctx.bdd.and(keep, not_explicit);
    if default_cond != Ref::FALSE {
        let out = if session.ibgp {
            LpOut::Inherit
        } else {
            LpOut::Const(bgp_u.default_local_pref)
        };
        lp.push((out, default_cond));
    }
    lp = merge_cases(ctx, lp);

    // MED: import overrides export overrides default.
    let mut med: Vec<(MedOut, Ref)> = Vec::new();
    let mut covered = Ref::FALSE;
    for &(value, cond) in &import.med {
        let c = ctx.bdd.and(cond, keep);
        if c != Ref::FALSE {
            med.push((MedOut::Const(value), c));
            covered = ctx.bdd.or(covered, c);
        }
    }
    for &(value, cond) in &export_med {
        let not_covered = ctx.bdd.not(covered);
        let c = ctx.bdd.and_all([cond, keep, not_covered]);
        if c != Ref::FALSE {
            med.push((MedOut::Const(value), c));
            covered = ctx.bdd.or(covered, c);
        }
    }
    let not_covered = ctx.bdd.not(covered);
    let default_cond = ctx.bdd.and(keep, not_covered);
    if default_cond != Ref::FALSE {
        let out = if session.ibgp {
            MedOut::Inherit
        } else {
            MedOut::Const(0)
        };
        med.push((out, default_cond));
    }
    med = merge_cases(ctx, med);

    // Prepend: the exporter's outbound map only (mirrors the interpreter
    // in bonsai-srp).
    let mut prepend: Vec<(u8, Ref)> = Vec::new();
    for &(n, cond) in &export_prepend {
        let c = ctx.bdd.and(cond, keep);
        if c != Ref::FALSE {
            prepend.push((n, c));
        }
    }
    prepend = merge_cases(ctx, prepend);

    let dv = &network.devices[exporter];
    let bgp_v = dv.bgp.as_ref().expect("session implies bgp at exporter");
    BgpSig {
        ibgp: session.ibgp,
        drop,
        comm,
        lp,
        med,
        prepend,
        redist_static: bgp_v.redistribute_static,
        redist_ospf: bgp_v.redistribute_ospf,
        exporter_default_lp: bgp_v.default_local_pref,
    }
}

/// Merges duplicate case keys (OR-ing their conditions) and sorts by key,
/// producing the canonical case list.
fn merge_cases<K: Copy + Ord + std::hash::Hash>(
    ctx: &mut PolicyCtx,
    cases: Vec<(K, Ref)>,
) -> Vec<(K, Ref)> {
    let mut map: std::collections::BTreeMap<K, Ref> = std::collections::BTreeMap::new();
    for (k, c) in cases {
        let slot = map.entry(k).or_insert(Ref::FALSE);
        *slot = ctx.bdd.or(*slot, c);
    }
    map.into_iter().filter(|(_, c)| *c != Ref::FALSE).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::parse_network;
    use bonsai_srp::protocols::bgp::BgpProtocol;

    fn two_dest_net() -> NetworkConfig {
        parse_network(
            "
device a
interface i
ip community-list tagged permit 7:1
route-map IN permit 10
 match community tagged
 set local-preference 200
route-map IN permit 20
router bgp 1
 network 10.0.1.0/24
 neighbor i remote-as external
 neighbor i route-map IN in
end
device b
interface i
router bgp 2
 network 10.0.2.0/24
 neighbor i remote-as external
end
link a i b i
",
        )
        .unwrap()
    }

    #[test]
    fn sig_cache_shares_across_destinations() {
        let net = two_dest_net();
        let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
        let engine = CompiledPolicies::from_network(&net, false);
        let e = topo.graph.edges().next().unwrap();
        let (u, v) = topo.graph.endpoints(e);
        let session = BgpProtocol::edge_facts(&net, &topo, e).unwrap();

        // Two destinations with identical prefix-list outcomes (no prefix
        // lists at all here) must share one cached signature.
        let d1: Prefix = "10.0.1.0/24".parse().unwrap();
        let d2: Prefix = "10.0.2.0/24".parse().unwrap();
        let s1 = engine.bgp_edge_sig(&net, d1, u.index(), v.index(), &session);
        let s2 = engine.bgp_edge_sig(&net, d2, u.index(), v.index(), &session);
        assert_eq!(s1, s2, "identical plist outcomes must share Refs");
        let stats = engine.stats();
        assert_eq!(stats.sig_lookups, 2);
        assert_eq!(stats.sig_hits, 1, "second class must hit: {stats:?}");
    }

    #[test]
    fn stage_resolution_distinguishes_outcomes() {
        let net = parse_network(
            "
device r
interface i
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 32
route-map M deny 10
 match ip address prefix-list TEN
route-map M permit 20
router bgp 1
 neighbor i remote-as external
end
device s
interface i
router bgp 2
 network 10.0.0.0/24
 neighbor i remote-as external
end
link r i s i
",
        )
        .unwrap();
        let r = &net.devices[0];
        let inside: Prefix = "10.1.0.0/24".parse().unwrap();
        let outside: Prefix = "192.168.0.0/24".parse().unwrap();
        let also_inside: Prefix = "10.2.0.0/24".parse().unwrap();
        assert_ne!(
            stage_resolution(r, Some("M"), inside),
            stage_resolution(r, Some("M"), outside)
        );
        assert_eq!(
            stage_resolution(r, Some("M"), inside),
            stage_resolution(r, Some("M"), also_inside)
        );
        assert_eq!(
            stage_resolution(r, Some("M"), inside),
            StageResolution::Outcomes(vec![true])
        );
        // Absent and dangling maps resolve destination-independently.
        assert_eq!(
            stage_resolution(r, None, inside),
            StageResolution::Passthrough
        );
        assert_eq!(
            stage_resolution(r, Some("NOPE"), inside),
            StageResolution::DenyAll
        );
    }

    /// Fingerprints intern the exact table key: destinations that resolve
    /// every policy alike share one fingerprint; an ACL that treats them
    /// differently splits it.
    #[test]
    fn fingerprints_intern_by_exact_table_key() {
        use bonsai_net::NodeId;
        use bonsai_srp::instance::{EcDest, OriginProto};

        let net = two_dest_net();
        let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
        let engine = CompiledPolicies::from_network(&net, false);
        let a = topo.graph.node_by_name("a").unwrap();
        let ec = |p: &str, n: NodeId| EcDest::new(p.parse().unwrap(), vec![(n, OriginProto::Bgp)]);
        let f1 = engine.ec_fingerprint(&net, &topo, &ec("10.0.1.0/24", a));
        let f2 = engine.ec_fingerprint(&net, &topo, &ec("10.0.2.0/24", a));
        assert_eq!(f1, f2, "no prefix lists/ACLs: one compiled residue");

        let acl_net = parse_network(
            "
device a
interface i
 ip access-group BLOCK out
ip access-list BLOCK deny 10.0.5.0/24
ip access-list BLOCK permit any
router bgp 1
 network 10.0.0.0/16
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
        let topo = bonsai_config::BuiltTopology::build(&acl_net).unwrap();
        let engine = CompiledPolicies::from_network(&acl_net, false);
        let a = topo.graph.node_by_name("a").unwrap();
        let blocked = engine.ec_fingerprint(&acl_net, &topo, &ec("10.0.5.0/24", a));
        let passed = engine.ec_fingerprint(&acl_net, &topo, &ec("10.0.6.0/24", a));
        assert_ne!(blocked, passed, "the ACL splits the table keys");
        // Interning is stable: asking again returns the same id.
        assert_eq!(
            blocked,
            engine.ec_fingerprint(&acl_net, &topo, &ec("10.0.5.0/24", a))
        );
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPolicies>();
    }
}
