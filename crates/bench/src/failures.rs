//! The bounded link-failure study behind the `failures` binary: what does
//! it cost to verify every `≤ k` link-failure scenario concretely, versus
//! the per-scenario refinement **sweep** (signature-cached refinements,
//! warm-started solves)?
//!
//! Per network and per `k`, a [`FailureRow`] reports the scenario counts
//! (one per orbit signature vs exhaustive) and five wall-clock columns:
//! solving every scenario cold on the concrete network, the same sweep
//! **warm-started** from the failure-free fixpoint, the sweep plane over
//! the sampled classes with sharing off (always exhaustive — the
//! signature cache absorbs the symmetry), the **network-level sweep**
//! over *every* class with cross-EC refinement sharing, and the merge of
//! its two shards — together with the sweep's cache hit rate, refined
//! sizes, and the cross-EC sharing statistics (classes covered,
//! derivations vs. the unshared count, sharing ratio).

use crate::secs;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::compress::{compress, CompressOptions};
use bonsai_core::scenarios::{link_orbits, FailureScenario, ScenarioStream};
use bonsai_core::signatures::build_sig_table;
use bonsai_core::snapshot::{write_object, Layout};
use bonsai_net::NodeId;
use bonsai_srp::instance::MultiProtocol;
use bonsai_srp::solver::{solve, solve_masked, solve_warm_masked, SolverOptions};
use bonsai_srp::{papernets, Srp};
use bonsai_topo::{fattree, full_mesh, FattreePolicy};
use bonsai_verify::netsweep::{
    merge_reports, sweep_network, sweep_network_subset, NetworkSweepOptions, ShardSpec,
};
use bonsai_verify::session::{QueryRequest, Session, SessionOptions};
use bonsai_verify::sweep::SweepOptions;
use std::time::{Duration, Instant};

/// One (network, failure bound) row of the study.
pub struct FailureRow {
    label: String,
    k: usize,
    links: usize,
    ecs_sampled: usize,
    scenarios: usize,
    scenarios_exhaustive: usize,
    concrete: Duration,
    warm: Duration,
    sweep: Duration,
    sweep_scenarios: usize,
    sweep_refinements: usize,
    sweep_hit_rate: f64,
    sweep_base_mean: f64,
    sweep_mean_refined: f64,
    sweep_max_refined: usize,
    sweep_fallbacks: usize,
    netsweep: Duration,
    netsweep_ecs: usize,
    netsweep_derivations: usize,
    netsweep_unshared: usize,
    netsweep_sharing_ratio: f64,
    netsweep_exact: usize,
    netsweep_symmetric: usize,
    netsweep_fingerprints: usize,
    chunk_size: usize,
    scenarios_streamed: usize,
    peak_resident_scenarios: usize,
    merge: Duration,
    query_cold_us: f64,
    query_warm_us: f64,
}

impl FailureRow {
    /// The row as the binary prints it, under [`FailureRow::header`].
    pub fn render(&self) -> String {
        format!(
            "{:<10} {:>2} {:>6} {:>7}/{:<7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>5.0}% {:>5.0}% {:>6.1} {:>7} {:>9.0} {:>9.0}",
            self.label,
            self.k,
            self.links,
            self.scenarios,
            self.scenarios_exhaustive,
            secs(self.concrete),
            secs(self.warm),
            secs(self.sweep),
            secs(self.netsweep),
            secs(self.merge),
            self.sweep_hit_rate * 100.0,
            self.netsweep_sharing_ratio * 100.0,
            self.sweep_mean_refined,
            self.peak_resident_scenarios,
            self.query_cold_us,
            self.query_warm_us,
        )
    }

    /// The column headings of [`FailureRow::render`].
    pub fn header() -> String {
        format!(
            "{:<10} {:>2} {:>6} {:>7}/{:<7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>9} {:>9}",
            "Topology",
            "k",
            "Links",
            "Scen.",
            "All",
            "Cold(s)",
            "Warm(s)",
            "Sweep(s)",
            "Net(s)",
            "Merge(s)",
            "Hit",
            "Share",
            "Mean",
            "Peak",
            "Qcold(us)",
            "Qwarm(us)"
        )
    }

    /// The row as one object of the `bench/failures` snapshot.
    pub fn json(&self) -> String {
        let mut row = String::new();
        write_object(&mut row, Layout::Compact, |o| {
            o.str("label", &self.label)
                .uint("k", self.k)
                .uint("links", self.links)
                .uint("ecs_sampled", self.ecs_sampled)
                .uint("scenarios", self.scenarios)
                .uint("scenarios_exhaustive", self.scenarios_exhaustive);
            o.object("times", Layout::Compact, |o| {
                o.float("concrete_s", self.concrete.as_secs_f64(), 6)
                    .float("warm_s", self.warm.as_secs_f64(), 6)
                    .float("sweep_s", self.sweep.as_secs_f64(), 6)
                    .float("netsweep_s", self.netsweep.as_secs_f64(), 6)
                    .float("merge_s", self.merge.as_secs_f64(), 6);
            });
            o.object("sweep", Layout::Compact, |o| {
                o.uint("scenarios", self.sweep_scenarios)
                    .uint("refinements", self.sweep_refinements)
                    .float("cache_hit_rate", self.sweep_hit_rate, 6)
                    .float("base_abs_nodes_mean", self.sweep_base_mean, 6)
                    .float("mean_refined_nodes", self.sweep_mean_refined, 6)
                    .uint("max_refined_nodes", self.sweep_max_refined)
                    .uint("global_fallbacks", self.sweep_fallbacks);
            });
            o.object("cross_ec", Layout::Compact, |o| {
                o.uint("ecs_covered", self.netsweep_ecs)
                    .uint("derivations", self.netsweep_derivations)
                    .uint("unshared_derivations", self.netsweep_unshared)
                    .float("sharing_ratio", self.netsweep_sharing_ratio, 6)
                    .uint("exact_transfers", self.netsweep_exact)
                    .uint("symmetric_transfers", self.netsweep_symmetric)
                    .uint("distinct_fingerprints", self.netsweep_fingerprints);
            });
            o.object("streamed", Layout::Compact, |o| {
                o.uint("chunk_size", self.chunk_size)
                    .uint("scenarios_streamed", self.scenarios_streamed)
                    .uint("peak_resident_scenarios", self.peak_resident_scenarios);
            });
            o.float("query_cold_us", self.query_cold_us, 3);
            o.float("query_warm_us", self.query_warm_us, 3);
        });
        row
    }
}

/// Solves every scenario of the sweep on one (network, EC) instance —
/// cold (from ⊥) or warm-started from the failure-free fixpoint — under
/// its mask.
fn sweep_time(
    srp: &Srp<'_, MultiProtocol<'_>>,
    scenarios: &[FailureScenario],
    warm: bool,
) -> Duration {
    let t0 = Instant::now();
    // The failure-free fixpoint is part of the warm column's cost: one
    // cold solve amortized over every scenario.
    let base = if warm { solve(srp).ok() } else { None };
    for scenario in scenarios {
        let mask = scenario.mask(srp.graph);
        // Divergence is a property of the instance, not the harness; it
        // is counted like any other solve.
        match &base {
            Some(b) => {
                let _ = solve_warm_masked(srp, b, SolverOptions::default(), &mask);
            }
            None => {
                let _ = solve_masked(srp, Some(&mask));
            }
        }
    }
    t0.elapsed()
}

fn run_network(label: &str, net: &NetworkConfig, k: usize, max_ecs: usize) -> FailureRow {
    let topo = BuiltTopology::build(net).expect("network builds");
    let report = compress(net, CompressOptions::default());
    let ecs_sampled = report.num_ecs().min(max_ecs);

    let mut concrete = Duration::ZERO;
    let mut warm = Duration::ZERO;
    let mut scenario_count = 0usize;
    let stream = ScenarioStream::new(&topo.graph, k);

    for ec in report.per_ec.iter().take(ecs_sampled) {
        let ec_dest = ec.ec.to_ec_dest();
        let sigs = build_sig_table(&report.policies, net, &topo, &ec_dest);
        let orbits = link_orbits(&topo.graph, &ec.abstraction, &sigs);
        scenario_count += stream.iter_pruned(&orbits).count();

        // Columns 1+2: concrete per-scenario verification, cold (from ⊥)
        // vs warm-started (repairing the failure-free fixpoint, whose one
        // cold solve is part of the column). Both sweep the *exhaustive*
        // enumeration — "verify every scenario" is the workload these
        // columns price, and the same one the sweep engine covers.
        let all_scenarios = stream.to_vec();
        let origins: Vec<NodeId> = ec_dest.origins.iter().map(|(n, _)| *n).collect();
        let srp = Srp::with_origins(
            &topo.graph,
            origins,
            MultiProtocol::build(net, &topo, &ec_dest),
        );
        concrete += sweep_time(&srp, &all_scenarios, false);
        warm += sweep_time(&srp, &all_scenarios, true);
    }

    let exhaustive = SweepOptions {
        max_failures: k,
        prune_symmetric: false,
        threads: 1,
        ..Default::default()
    };

    // Column 3: the sweep plane over the sampled classes, nothing shared
    // between them — always exhaustive (the signature cache absorbs the
    // symmetry; the hit rate proves it).
    let sampled: Vec<usize> = (0..ecs_sampled).collect();
    let t2 = Instant::now();
    let per_class = sweep_network_subset(
        net,
        &topo,
        &report,
        &NetworkSweepOptions {
            sweep: exhaustive,
            share_across_ecs: false,
            ..Default::default()
        },
        &sampled,
    )
    .expect("sweep completes");
    let sweep_total = t2.elapsed();
    let sweep_scenarios = per_class.scenarios_swept();
    let sweep_refinements = per_class.unshared_derivations();
    let mut sweep_base_sum = 0usize;
    let mut sweep_refined_sum = 0usize;
    let mut sweep_max_refined = 0usize;
    let mut sweep_fallbacks = 0usize;
    for ec in &per_class.per_ec {
        sweep_base_sum += ec.report.base_abstract_nodes;
        sweep_refined_sum += ec.report.stats.refined_nodes_sum;
        sweep_max_refined = sweep_max_refined.max(ec.report.max_refined_nodes());
        sweep_fallbacks += ec.report.fallback_count();
    }

    // The network-level column: one orchestrated sweep over **every**
    // class (not just the sampled subset) with cross-EC sharing — the
    // "verify any property under ≤ k failures, for all destinations"
    // workload. Single-threaded like the other columns.
    let t3 = Instant::now();
    let netsweep = sweep_network(
        net,
        &topo,
        &report,
        &NetworkSweepOptions {
            sweep: exhaustive,
            ..Default::default()
        },
    )
    .expect("network sweep completes");
    let netsweep_time = t3.elapsed();

    let netsweep_ecs = netsweep.per_ec.len();
    let netsweep_derivations = netsweep.derivations;
    let netsweep_unshared = netsweep.unshared_derivations();
    let netsweep_sharing_ratio = netsweep.sharing_ratio();
    let netsweep_exact = netsweep.exact_transfers;
    let netsweep_symmetric = netsweep.symmetric_transfers;
    let netsweep_fingerprints = netsweep.distinct_fingerprints;
    let netsweep_scenarios = netsweep.scenarios_swept();
    let scenarios_streamed = netsweep.scenarios_streamed;

    let sweep_opts_for = |collect_outcomes: bool, shard: Option<ShardSpec>| NetworkSweepOptions {
        sweep: exhaustive,
        collect_outcomes,
        shard,
        ..Default::default()
    };

    // The bounded-memory rerun: aggregate mode drops the per-scenario
    // outcome records, so the resident gauge proves the O(chunk) claim —
    // the peak must be bounded by threads × chunk no matter how large
    // C(L,k) × ECs is. Its integer tallies must match the collected run.
    let aggregate = sweep_network(net, &topo, &report, &sweep_opts_for(false, None))
        .expect("aggregate network sweep completes");
    assert!(
        aggregate.peak_resident_scenarios <= aggregate.chunk_size,
        "aggregate-mode peak {} exceeds the chunk bound {}",
        aggregate.peak_resident_scenarios,
        aggregate.chunk_size
    );
    assert_eq!(
        aggregate.scenarios_swept(),
        netsweep_scenarios,
        "aggregate tallies must match the collected sweep"
    );
    let chunk_size = aggregate.chunk_size;
    let peak_resident_scenarios = aggregate.peak_resident_scenarios;

    // The sharded run: two canonical-signature shards swept independently
    // (as two processes would), then merged. The merge column times only
    // the reassembly; the equality asserts prove the sharding exact.
    let shard_reports: Vec<_> = (0..2)
        .map(|i| {
            let shard = ShardSpec::new(i, 2).expect("index below the shard count");
            sweep_network(net, &topo, &report, &sweep_opts_for(true, Some(shard)))
                .expect("shard sweep completes")
        })
        .collect();
    let t_merge = Instant::now();
    let merged = merge_reports(shard_reports).expect("shard set merges");
    let merge_time = t_merge.elapsed();
    assert_eq!(merged.scenarios_swept(), netsweep_scenarios);
    assert_eq!(merged.derivations, netsweep_derivations);
    assert_eq!(merged.unshared_derivations(), netsweep_unshared);

    // The resident-session columns: wire a Session from the compression +
    // sweep just measured (no re-solving) and time one identical query
    // batch twice. Cold fills the per-(class, scenario) verdict memo from
    // the sweep's cached refinements; warm must be pure memo lookups —
    // latency decoupled from solve time.
    let (query_cold_us, query_warm_us) = {
        let session = Session::from_sweep(
            net.clone(),
            report,
            netsweep,
            SessionOptions {
                max_failures: k,
                threads: 1,
                ..Default::default()
            },
        )
        .expect("session wires from the sweep");
        let (u, v) = topo.graph.links()[0];
        let link = (
            topo.graph.name(u).to_string(),
            topo.graph.name(v).to_string(),
        );
        let requests = vec![
            QueryRequest::AllPairs { links: vec![] },
            QueryRequest::AllPairs { links: vec![link] },
        ];
        let t4 = Instant::now();
        let cold = session.batch(&requests);
        let cold_us = t4.elapsed().as_secs_f64() * 1e6;
        let t5 = Instant::now();
        let warm = session.batch(&requests);
        let warm_us = t5.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            cold.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>(),
            warm.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>(),
            "repeated batch must answer identically"
        );
        (cold_us, warm_us)
    };

    FailureRow {
        label: label.to_string(),
        k,
        links: topo.graph.link_count(),
        ecs_sampled,
        scenarios: scenario_count,
        scenarios_exhaustive: stream.len() * ecs_sampled.max(1),
        concrete,
        warm,
        sweep: sweep_total,
        sweep_scenarios,
        sweep_refinements,
        sweep_hit_rate: if sweep_scenarios == 0 {
            0.0
        } else {
            1.0 - sweep_refinements as f64 / sweep_scenarios as f64
        },
        // Per-EC mean, the same unit as mean_refined_nodes — the snapshot
        // ratio mean_refined_nodes / base_abs_nodes_mean is the headline
        // "stays within 2x of base" number.
        sweep_base_mean: sweep_base_sum as f64 / ecs_sampled.max(1) as f64,
        sweep_mean_refined: if sweep_scenarios == 0 {
            0.0
        } else {
            sweep_refined_sum as f64 / sweep_scenarios as f64
        },
        sweep_max_refined,
        sweep_fallbacks,
        netsweep: netsweep_time,
        netsweep_ecs,
        netsweep_derivations,
        netsweep_unshared,
        netsweep_sharing_ratio,
        netsweep_exact,
        netsweep_symmetric,
        netsweep_fingerprints,
        chunk_size,
        scenarios_streamed,
        peak_resident_scenarios,
        merge: merge_time,
        query_cold_us,
        query_warm_us,
    }
}

/// The rows of the study, one per (network, `k ≤ max_k`), each measured
/// when the iterator reaches it: diamond, gadget and fattree-4 (two
/// sampled classes under `quick`, four otherwise), plus mesh-10 when not
/// `quick`.
pub fn rows(quick: bool, max_k: usize) -> impl Iterator<Item = FailureRow> {
    let mut cases = vec![
        ("Diamond", papernets::figure1_rip(), usize::MAX),
        ("Gadget", papernets::figure2_gadget(), usize::MAX),
        (
            "Fattree4",
            fattree(4, FattreePolicy::ShortestPath),
            if quick { 2 } else { 4 },
        ),
    ];
    if !quick {
        cases.push(("FullMesh10", full_mesh(10), 1));
    }
    cases.into_iter().flat_map(move |(label, net, max_ecs)| {
        (1..=max_k).map(move |k| run_network(label, &net, k, max_ecs))
    })
}
