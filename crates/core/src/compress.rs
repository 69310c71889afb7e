//! The top-level compression driver: configurations in, per-class abstract
//! networks and a timing/size report out.
//!
//! Mirrors Bonsai's pipeline (§5, §7) on top of the shared engine
//! architecture: compute destination equivalence classes, build **one**
//! [`CompiledPolicies`] engine for the whole network, then fan the classes
//! over scoped workers. Workers pull class indices from one atomic
//! counter, keep their results in worker-local vectors, and the driver
//! merges them after the scope joins — no per-slot locks. All BDD work
//! flows through the shared engine, so route maps compiled for one class
//! are reused by every other class that resolves them the same way; the
//! report carries the engine statistics that prove (and quantify) the
//! reuse.
//!
//! There is **one** driver, [`compress_each`]: it hands every finished
//! class to a caller-supplied consumer *inside the worker that compressed
//! it* and keeps only what the consumer returns, so a consumer that
//! prints, checks or counts a class and drops it holds one abstract
//! network per worker instead of one per class. [`compress`] is its
//! collecting instance (the consumer is the identity). A class comes with
//! its abstract network laid out, not rendered: printing reads the layout
//! ([`AbstractLayout::print_into`]), checking solves its lifted instance
//! ([`AbstractLayout::instance`]), and only a consumer of configurations
//! calls [`AbstractLayout::render`].

use crate::abstraction::AbstractLayout;
use crate::algorithm::{find_abstraction, Abstraction};
use crate::ecs::{compute_ecs, DestEc};
use crate::engine::{CompiledPolicies, EngineStats};
use crate::signatures::{build_sig_table, SigTable};
use bonsai_config::{BuiltTopology, NetworkConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for a compression run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompressOptions {
    /// Apply the attribute abstraction that ignores communities which are
    /// attached but never matched (the `h` of the paper's data-center
    /// study, §8).
    pub strip_unused_communities: bool,
    /// Number of worker threads for per-EC work (0 = all available cores).
    pub threads: usize,
}

/// Result of compressing one destination equivalence class.
pub struct EcCompression {
    /// The class.
    pub ec: DestEc,
    /// The refined abstraction.
    pub abstraction: Abstraction,
    /// The abstract network, laid out: its numbering, graph and
    /// transported class, and the concrete device and edge each abstract
    /// node and edge copies. [`AbstractLayout::print_into`] prints it,
    /// [`AbstractLayout::instance`] is what a check solves and
    /// [`AbstractLayout::render`] writes its configuration.
    pub abstract_network: AbstractLayout,
    /// Time spent building the BDD signature table (mostly engine-cache
    /// lookups after the first class touches a policy).
    pub bdd_time: Duration,
    /// Time spent in refinement + abstract-network layout.
    pub compress_time: Duration,
}

/// The per-class numbers the report's statistics read — everything a
/// streaming consumer of [`compress_each`] has to keep of a class for the
/// Table 1 row to come out the same.
pub trait ClassStats {
    /// Abstract nodes of the class.
    fn abstract_nodes(&self) -> usize;
    /// Abstract (undirected) links of the class.
    fn abstract_links(&self) -> usize;
    /// Time spent building the class's BDD signature table.
    fn bdd_time(&self) -> Duration;
    /// Time spent in refinement + abstract-network construction.
    fn compress_time(&self) -> Duration;
}

impl ClassStats for EcCompression {
    fn abstract_nodes(&self) -> usize {
        self.abstraction.abstract_node_count()
    }
    fn abstract_links(&self) -> usize {
        self.abstract_network.graph.link_count()
    }
    fn bdd_time(&self) -> Duration {
        self.bdd_time
    }
    fn compress_time(&self) -> Duration {
        self.compress_time
    }
}

/// Whole-network compression report (the raw material of Table 1).
///
/// `T` is what was kept of each class: the whole [`EcCompression`] for
/// [`compress`], whatever the consumer returned for [`compress_each`].
pub struct CompressionReport<T = EcCompression> {
    /// Concrete size: nodes.
    pub concrete_nodes: usize,
    /// Concrete size: undirected links.
    pub concrete_links: usize,
    /// Per-class results, ordered by representative prefix.
    pub per_ec: Vec<T>,
    /// Wall-clock time of the whole run (consumer included).
    pub total_time: Duration,
    /// Time spent partitioning the address space into classes.
    pub ec_compute_time: Duration,
    /// Time spent building the shared engine (community scan + arena).
    pub engine_build_time: Duration,
    /// End-of-run statistics of the shared policy-compilation engine:
    /// arena size and cache hit rates across **all** classes.
    pub engine: EngineStats,
    /// The shared engine itself, for downstream consumers (verification
    /// reuses the same manager instead of rescanning the network).
    pub policies: Arc<CompiledPolicies>,
}

impl<T> CompressionReport<T> {
    /// Number of destination equivalence classes.
    pub fn num_ecs(&self) -> usize {
        self.per_ec.len()
    }
}

impl<T: ClassStats> CompressionReport<T> {
    /// Mean abstract node count across classes.
    pub fn mean_abstract_nodes(&self) -> f64 {
        mean(self.per_ec.iter().map(|e| e.abstract_nodes() as f64))
    }

    /// Standard deviation of the abstract node count.
    pub fn std_abstract_nodes(&self) -> f64 {
        std_dev(self.per_ec.iter().map(|e| e.abstract_nodes() as f64))
    }

    /// Mean abstract link count across classes.
    pub fn mean_abstract_links(&self) -> f64 {
        mean(self.per_ec.iter().map(|e| e.abstract_links() as f64))
    }

    /// Standard deviation of the abstract link count.
    pub fn std_abstract_links(&self) -> f64 {
        std_dev(self.per_ec.iter().map(|e| e.abstract_links() as f64))
    }

    /// Node compression ratio (concrete / mean abstract).
    pub fn node_ratio(&self) -> f64 {
        self.concrete_nodes as f64 / self.mean_abstract_nodes().max(1e-9)
    }

    /// Link compression ratio (concrete / mean abstract).
    pub fn link_ratio(&self) -> f64 {
        self.concrete_links as f64 / self.mean_abstract_links().max(1e-9)
    }

    /// Total BDD-construction time across classes (the paper's "BDD time"
    /// column; our pipeline specializes BDDs per class through the shared
    /// engine, so this is the sum of per-class signature-table builds).
    pub fn bdd_time(&self) -> Duration {
        self.per_ec.iter().map(|e| e.bdd_time()).sum()
    }

    /// Mean per-class compression time (the paper's "Compression time
    /// (per EC)" column).
    pub fn compress_time_per_ec(&self) -> Duration {
        if self.per_ec.is_empty() {
            return Duration::ZERO;
        }
        self.per_ec
            .iter()
            .map(|e| e.compress_time())
            .sum::<Duration>()
            / self.per_ec.len() as u32
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn std_dev(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.len() < 2 {
        return 0.0;
    }
    let m = v.iter().sum::<f64>() / v.len() as f64;
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
}

/// Builds the shared engine a compression run (or an external caller that
/// wants to share one) uses.
pub fn build_engine(network: &NetworkConfig, options: CompressOptions) -> CompiledPolicies {
    CompiledPolicies::from_network(network, options.strip_unused_communities)
}

/// Compresses one destination class against a shared engine.
pub fn compress_ec(
    engine: &CompiledPolicies,
    network: &NetworkConfig,
    topo: &BuiltTopology,
    ec: &DestEc,
) -> EcCompression {
    let ec_dest = ec.to_ec_dest();
    let t0 = Instant::now();
    let sigs = build_sig_table(engine, network, topo, &ec_dest);
    let bdd_time = t0.elapsed();

    let t1 = Instant::now();
    let abstraction = find_abstraction(&topo.graph, &ec_dest, &sigs);
    let abstract_network = AbstractLayout::new(&topo.graph, &ec_dest, &abstraction);
    let compress_time = t1.elapsed();

    EcCompression {
        ec: ec.clone(),
        abstraction,
        abstract_network,
        bdd_time,
        compress_time,
    }
}

/// The counterexample-guided refinement step of the failure sweep:
/// isolates the given concrete nodes in an existing abstraction, re-runs
/// refinement to the fixpoint, and lays out the refined abstract network.
///
/// `sigs` is the class's signature table, which every caller hoists once
/// per class (a sweep refines one class thousands of times); the kernel
/// itself never touches the engine, and reads no configuration: the
/// layout is what a check solves ([`AbstractLayout::instance`]), and
/// [`AbstractLayout::render`] writes the configuration for whoever reads
/// it.
///
/// Returns the refined abstraction and its layout. The result is at least
/// as fine as the input; callers loop this against re-verification until
/// the abstraction is sound for their scenario set (termination: each
/// effective split strictly increases the block count, bounded by the
/// node count, where abstract = concrete and every check passes).
pub fn refine_ec_with_split(
    graph: &bonsai_net::Graph,
    ec: &bonsai_srp::instance::EcDest,
    sigs: &SigTable,
    abstraction: &Abstraction,
    split: &[bonsai_net::NodeId],
) -> (Abstraction, AbstractLayout) {
    let refined = crate::algorithm::refine_with_split(graph, ec, sigs, abstraction, split);
    let layout = AbstractLayout::new(graph, ec, &refined);
    (refined, layout)
}

/// Compresses a whole network, streaming: every destination equivalence
/// class is compressed in parallel over one shared policy-compilation
/// engine, and `each(index, class, topo)` runs **inside the fan-out worker**
/// that compressed the class — only what it returns is kept, in class
/// order. `topo` is the network's topology, the one a consumer that prints
/// or checks the class's layout passes along with `network`. Nothing is
/// rendered unless the consumer calls [`AbstractLayout::render`].
///
/// The fan-out is the unified driver of [`crate::fanout::fan_out`]:
/// workers claim class indices from one atomic counter and collect into
/// worker-local vectors (lock-free; the only shared mutable state is the
/// engine's internal arena lock), and `threads: 1` runs the identical
/// worker loop inline. `each` therefore runs concurrently with itself on
/// different classes, in no particular order; anything schedule-independent
/// it wants to say about the whole run belongs in its return value.
pub fn compress_each<R: Send>(
    network: &NetworkConfig,
    options: CompressOptions,
    each: impl Fn(usize, EcCompression, &BuiltTopology) -> R + Sync,
) -> CompressionReport<R> {
    let start = Instant::now();
    let topo = BuiltTopology::build(network).expect("network has a consistent topology");

    let t_ecs = Instant::now();
    let ecs = compute_ecs(network, &topo);
    let ec_compute_time = t_ecs.elapsed();

    let t_engine = Instant::now();
    let engine = Arc::new(build_engine(network, options));
    let engine_build_time = t_engine.elapsed();

    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.threads
    }
    .min(ecs.len().max(1));

    let (per_ec, _) = crate::fanout::fan_out(
        ecs.len(),
        threads,
        || (),
        |(), i| each(i, compress_ec(&engine, network, &topo, &ecs[i]), &topo),
    );

    CompressionReport {
        concrete_nodes: topo.graph.node_count(),
        concrete_links: topo.graph.link_count(),
        per_ec,
        total_time: start.elapsed(),
        ec_compute_time,
        engine_build_time,
        engine: engine.stats(),
        policies: engine,
    }
}

/// Compresses a whole network and keeps every class: [`compress_each`]
/// with the identity consumer.
pub fn compress(network: &NetworkConfig, options: CompressOptions) -> CompressionReport {
    compress_each(network, options, |_, class, _| class)
}

/// Result of absorbing a config delta into an existing compression: the
/// new-network report (sharing the old run's engine when the delta was
/// incremental) plus the audit trail of what had to be redone.
pub struct DeltaReport {
    /// The compression of the *new* network, per-class order as
    /// [`compress`] would produce it.
    pub report: CompressionReport,
    /// The classified difference that drove the invalidation.
    pub delta: crate::delta::ConfigDelta,
    /// What [`CompiledPolicies::apply_delta`] evicted (zeroed on a full
    /// rebuild — the old engine was discarded wholesale).
    pub invalidation: crate::engine::DeltaInvalidation,
    /// True when the delta was structural and the result is a fresh full
    /// compression on a fresh engine.
    pub full_rebuild: bool,
    /// Indices into `report.per_ec` whose abstraction had to be
    /// re-derived (new classes, or classes whose signature table changed).
    pub rederived: Vec<usize>,
    /// Classes that kept their old abstraction (table proven equal).
    pub reused: usize,
    /// Per class of `report`: the index into the *old* report's `per_ec`
    /// of the class it kept its abstraction from, `None` where the class
    /// was re-derived — the class correspondence, for callers that carry
    /// more than the abstraction across the delta.
    pub kept_from: Vec<Option<usize>>,
    /// Classes whose engine fingerprint changed across the delta
    /// (rederived classes, plus kept classes that converged onto another
    /// class's adopted identity).
    pub fingerprints_moved: usize,
    /// Wall-clock time of the whole delta application.
    pub delta_time: Duration,
}

impl DeltaReport {
    /// Number of classes in the new network.
    pub fn ecs_total(&self) -> usize {
        self.report.num_ecs()
    }
}

/// Absorbs the difference between `old_network` (which `old` compressed)
/// and `new_network` into `old`'s warm engine, recompressing **only** the
/// classes the edit actually touched.
///
/// Sequence: classify the delta; on a structural change fall back to a
/// fresh [`compress`]. Otherwise snapshot each old class's fingerprint
/// and table (cache hits), flush the eviction class with
/// [`CompiledPolicies::apply_delta`], recompute the EC partition of the
/// new network, and reconcile class by class: a class matching an old
/// class whose rebuilt table equals the old one re-adopts the old
/// fingerprint and reuses the old abstraction (only the abstract network
/// is re-materialized against the new configs — cheap, no refinement);
/// everything else is recompressed from the warm caches.
///
/// The result is semantically identical to `compress(new_network)` — the
/// delta-equivalence property tests pin this — while doing work
/// proportional to the edit, not the network.
pub fn recompress_delta(
    old: &CompressionReport,
    old_network: &NetworkConfig,
    new_network: &NetworkConfig,
    options: CompressOptions,
) -> DeltaReport {
    let start = Instant::now();
    let delta =
        crate::delta::diff_configs(old_network, new_network, options.strip_unused_communities);

    if delta.structural.is_some() {
        let report = compress(new_network, options);
        let rederived = (0..report.num_ecs()).collect();
        return DeltaReport {
            kept_from: vec![None; report.num_ecs()],
            report,
            delta,
            invalidation: crate::engine::DeltaInvalidation::default(),
            full_rebuild: true,
            rederived,
            reused: 0,
            fingerprints_moved: old.num_ecs(),
            delta_time: start.elapsed(),
        };
    }

    let engine = Arc::clone(&old.policies);
    // The delta is non-structural, so the topology (devices, links,
    // interfaces modulo ACL bindings) is unchanged and the engine's
    // frozen edge statics remain valid for the new network.
    let topo = BuiltTopology::build(new_network).expect("network has a consistent topology");

    // Snapshot the old identities before eviction (warm-cache reads).
    let old_state: HashMap<EcMatchKey, (crate::engine::EcFingerprint, Arc<SigTable>, usize)> = old
        .per_ec
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let ec_dest = c.ec.to_ec_dest();
            let fp = engine.ec_fingerprint(old_network, &topo, &ec_dest);
            let table = engine.sig_table(old_network, &topo, &ec_dest);
            (ec_match_key(&c.ec), (fp, table, i))
        })
        .collect();

    let invalidation = engine.apply_delta(&delta.policy_devices);

    let t_ecs = Instant::now();
    let ecs = compute_ecs(new_network, &topo);
    let ec_compute_time = t_ecs.elapsed();

    let mut per_ec = Vec::with_capacity(ecs.len());
    let mut rederived = Vec::new();
    let mut kept_from = Vec::with_capacity(ecs.len());
    let mut fingerprints_moved = 0usize;
    let mut old_survives = vec![false; old.per_ec.len()];
    for (i, ec) in ecs.iter().enumerate() {
        let ec_dest = ec.to_ec_dest();
        let matched = old_state.get(&ec_match_key(ec));
        if let Some(&(_, _, old_idx)) = matched {
            old_survives[old_idx] = true;
        }
        let t0 = Instant::now();
        let new_table = engine.sig_table(new_network, &topo, &ec_dest);
        let bdd_time = t0.elapsed();
        match matched {
            Some((old_fp, old_table, old_idx)) if *new_table == **old_table => {
                let adopted = engine.adopt_fingerprint(new_network, &topo, &ec_dest, *old_fp);
                if adopted != *old_fp {
                    fingerprints_moved += 1;
                }
                kept_from.push(Some(*old_idx));
                let t1 = Instant::now();
                let abstraction = old.per_ec[*old_idx].abstraction.clone();
                // The abstraction is provably still the fixpoint (same
                // signature table); its layout reads no configuration, and
                // whoever renders or prints it reads the new one.
                let abstract_network = AbstractLayout::new(&topo.graph, &ec_dest, &abstraction);
                let compress_time = t1.elapsed();
                per_ec.push(EcCompression {
                    ec: ec.clone(),
                    abstraction,
                    abstract_network,
                    bdd_time,
                    compress_time,
                });
            }
            _ => {
                rederived.push(i);
                kept_from.push(None);
                if matched.is_some() {
                    fingerprints_moved += 1;
                }
                let mut c = compress_ec(&engine, new_network, &topo, ec);
                c.bdd_time += bdd_time;
                per_ec.push(c);
            }
        }
    }
    let reused = per_ec.len() - rederived.len();
    // Old classes the new partition no longer contains also moved.
    fingerprints_moved += old_survives.iter().filter(|&&s| !s).count();

    let report = CompressionReport {
        concrete_nodes: topo.graph.node_count(),
        concrete_links: topo.graph.link_count(),
        per_ec,
        total_time: start.elapsed(),
        ec_compute_time,
        engine_build_time: Duration::ZERO,
        engine: engine.stats(),
        policies: engine,
    };
    DeltaReport {
        report,
        delta,
        invalidation,
        full_rebuild: false,
        rederived,
        reused,
        kept_from,
        fingerprints_moved,
        delta_time: start.elapsed(),
    }
}

/// The identity under which old and new classes are matched across a
/// delta: representative, exact ranges, exact origins. Two classes with
/// equal keys denote the same destination set with the same originators.
type EcMatchKey = (
    bonsai_net::prefix::Prefix,
    Vec<bonsai_net::prefix::Prefix>,
    Vec<(bonsai_net::NodeId, bonsai_srp::instance::OriginProto)>,
);

fn ec_match_key(ec: &DestEc) -> EcMatchKey {
    (ec.rep, ec.ranges.clone(), ec.origins.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::PolicySections;
    use bonsai_srp::papernets;

    /// The class's abstract network as `compress --out` writes it.
    fn printed(class: &EcCompression, net: &NetworkConfig, topo: &BuiltTopology) -> String {
        let mut text = String::new();
        (class.abstract_network).print_into(&mut text, net, topo, &PolicySections::new(net));
        text
    }

    #[test]
    fn gadget_report() {
        let net = papernets::figure2_gadget();
        let report = compress(&net, CompressOptions::default());
        assert_eq!(report.concrete_nodes, 5);
        assert_eq!(report.concrete_links, 6);
        assert_eq!(report.num_ecs(), 1);
        assert_eq!(report.mean_abstract_nodes(), 4.0);
        assert_eq!(report.mean_abstract_links(), 4.0);
        assert!(report.node_ratio() > 1.0);
        assert!(report.link_ratio() > 1.0);
        // The engine saw work even for a single class (the gadget models
        // no communities, so the arena is just the shared terminal).
        assert!(report.engine.arena_nodes >= 1);
        assert!(report.engine.sig_lookups > 0);
    }

    #[test]
    fn multiple_ecs_processed_in_parallel() {
        // Two destinations → two ECs; run with 2 threads.
        let net = bonsai_config::parse_network(
            "
device a
interface i
router bgp 1
 network 10.0.1.0/24
 neighbor i remote-as external
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
        .unwrap();
        let report = compress(
            &net,
            CompressOptions {
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.num_ecs(), 2);
        for ec in &report.per_ec {
            assert_eq!(ec.abstraction.abstract_node_count(), 2);
        }
        // Deterministic order by representative prefix.
        assert!(report.per_ec[0].ec.rep < report.per_ec[1].ec.rep);
    }

    /// When an ACL makes two classes differ (different table keys), the
    /// middle cache tier still shares the per-edge BGP signatures, whose
    /// keys depend only on the route-map resolution.
    #[test]
    fn sig_tier_absorbs_acl_only_differences() {
        let net = bonsai_config::parse_network(
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
        let report = compress(&net, CompressOptions::default());
        assert_eq!(report.num_ecs(), 2);
        let stats = &report.engine;
        // The ACL splits the classes' table keys...
        assert_eq!(stats.table_hits, 0, "{stats:?}");
        // ...but the BGP signatures (no prefix lists involved) are shared.
        assert!(
            stats.sig_hits > 0,
            "acl-only difference must still share BGP signatures: {stats:?}"
        );
        assert!(stats.reuse_observed());
    }

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

    /// A route-map edit behind a prefix-list match re-derives only the
    /// class the match selects; the other class's rebuilt table proves
    /// equal and its abstraction (and fingerprint) are reused.
    #[test]
    fn delta_rederives_only_touched_classes() {
        let old_net = delta_base_net();
        let old = compress(&old_net, CompressOptions::default());
        assert_eq!(old.num_ecs(), 2);

        let mut new_net = old_net.clone();
        // Clause 10 fires only for 10.0.1.0/24: bump its local-pref.
        new_net.devices[0].route_maps[0].clauses[0].sets =
            vec![bonsai_config::SetAction::LocalPref(300)];

        let d = recompress_delta(&old, &old_net, &new_net, CompressOptions::default());
        assert!(!d.full_rebuild);
        assert_eq!(d.delta.policy_devices, vec![0]);
        assert!(d.invalidation.stages_evicted > 0);
        assert_eq!(d.invalidation.tables_evicted, 2);
        assert_eq!(d.reused, 1);
        let touched: Vec<_> = d
            .rederived
            .iter()
            .map(|&i| d.report.per_ec[i].ec.rep)
            .collect();
        assert_eq!(touched, vec!["10.0.1.0/24".parse().unwrap()]);
        // The correspondence: the touched class has no donor, the other
        // kept the abstraction of the old class with its identity.
        assert_eq!(d.kept_from.len(), 2);
        for (new, kept) in d.kept_from.iter().enumerate() {
            assert_eq!(kept.is_none(), d.rederived.contains(&new));
            if let Some(old_idx) = kept {
                assert_eq!(old.per_ec[*old_idx].ec.rep, d.report.per_ec[new].ec.rep);
            }
        }

        // The delta result is semantically the fresh result.
        let fresh = compress(&new_net, CompressOptions::default());
        let topo = BuiltTopology::build(&new_net).unwrap();
        assert_eq!(d.report.num_ecs(), fresh.num_ecs());
        for (a, b) in d.report.per_ec.iter().zip(&fresh.per_ec) {
            assert_eq!(a.ec.rep, b.ec.rep);
            assert_eq!(printed(a, &new_net, &topo), printed(b, &new_net, &topo));
        }
    }

    /// The unchanged class keeps its interned fingerprint across the
    /// delta, so sweep state keyed under it stays valid.
    #[test]
    fn delta_preserves_untouched_fingerprints() {
        let old_net = delta_base_net();
        let old = compress(&old_net, CompressOptions::default());
        let topo = BuiltTopology::build(&old_net).unwrap();
        let untouched = old
            .per_ec
            .iter()
            .find(|c| c.ec.rep == "10.0.2.0/24".parse().unwrap())
            .unwrap()
            .ec
            .to_ec_dest();
        let fp_before = old.policies.ec_fingerprint(&old_net, &topo, &untouched);

        let mut new_net = old_net.clone();
        new_net.devices[0].route_maps[0].clauses[0].sets =
            vec![bonsai_config::SetAction::LocalPref(300)];
        let d = recompress_delta(&old, &old_net, &new_net, CompressOptions::default());
        let fp_after = d
            .report
            .policies
            .ec_fingerprint(&new_net, &topo, &untouched);
        assert_eq!(
            fp_before, fp_after,
            "untouched class re-adopts its identity"
        );
        assert_eq!(d.fingerprints_moved, 1, "only the edited class moved");
    }

    /// A structural edit (here: a session-shape change) falls back to a
    /// fresh full compression on a fresh engine.
    #[test]
    fn structural_delta_falls_back_to_full_rebuild() {
        let old_net = delta_base_net();
        let old = compress(&old_net, CompressOptions::default());
        let mut new_net = old_net.clone();
        new_net.devices[1].bgp.as_mut().unwrap().default_local_pref = 150;
        let d = recompress_delta(&old, &old_net, &new_net, CompressOptions::default());
        assert!(d.full_rebuild);
        assert!(d.delta.structural.is_some());
        assert_eq!(d.rederived.len(), d.report.num_ecs());
        assert!(!Arc::ptr_eq(&d.report.policies, &old.policies));
    }

    /// The acceptance criterion of the shared-engine refactor: on a
    /// multi-EC network the second class reuses the first class's
    /// compiled signatures, visible as nonzero cache hit rates.
    #[test]
    fn engine_is_shared_across_ecs() {
        let more = bonsai_config::parse_network(
            "
device a
interface i
router bgp 1
 network 10.0.1.0/24
 network 10.0.2.0/24
 network 10.0.3.0/24
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
        let report = compress(&more, CompressOptions::default());
        assert!(report.num_ecs() >= 3);
        let stats = &report.engine;
        assert!(
            stats.table_hits > 0,
            "multi-EC compression must reuse cached tables: {stats:?}"
        );
        assert!(stats.table_hit_rate() > 0.0);
        assert!(stats.reuse_observed());
        // One arena served every class.
        assert!(stats.arena_nodes >= 1);
        // An identical single-threaded run produces identical results
        // (the unified driver contract at threads: 1).
        let seq = compress(
            &more,
            CompressOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(seq.num_ecs(), report.num_ecs());
        let topo = BuiltTopology::build(&more).unwrap();
        for (a, b) in seq.per_ec.iter().zip(report.per_ec.iter()) {
            assert_eq!(a.ec.rep, b.ec.rep);
            assert_eq!(
                a.abstraction.abstract_node_count(),
                b.abstraction.abstract_node_count()
            );
            assert_eq!(printed(a, &more, &topo), printed(b, &more, &topo));
        }
    }
}
