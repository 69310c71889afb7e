//! Acceptance of the network-level sweep orchestrator: cross-EC sharing
//! makes the derivation count independent of the destination-class count
//! on symmetric topologies, every transfer is byte-identical to the
//! fresh per-EC derivation it replaced, the network fan-out is
//! deterministic across thread counts, and masked reachability queries
//! through the simulation engine agree with the per-scenario refined
//! abstract networks on every scenario.

#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::core::abstraction::PolicySections;
use bonsai::core::compress::{compress, CompressOptions, CompressionReport};
use bonsai::core::scenarios::ScenarioStream;
use bonsai::core::signatures::build_sig_table;
use bonsai::verify::netsweep::{
    merge_reports, sweep_network, sweep_network_subset, NetworkSweepOptions, NetworkSweepReport,
    ShardSpec,
};
use bonsai::verify::properties::SolutionAnalysis;
use bonsai::verify::query::{QueryCtx, QueryStats};
use bonsai::verify::sim_engine::SimEngine;
use bonsai::verify::sweep::{
    derive_refinement, scenario_verdict, OutcomeStats, RefinementProvenance, ScenarioRefinement,
    SweepOptions,
};
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::NodeId;
use std::collections::BTreeSet;

fn run_network_sweep(
    net: &NetworkConfig,
    k: usize,
    threads: usize,
) -> (BuiltTopology, CompressionReport, NetworkSweepReport) {
    let topo = BuiltTopology::build(net).unwrap();
    let report = compress(net, CompressOptions::default());
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let sweep = sweep_network(net, &topo, &report, &options).expect("network sweep completes");
    (topo, report, sweep)
}

/// The ISSUE 5 acceptance criterion: on fattree-4 at k=1 exhaustive, the
/// full-network sweep performs strictly fewer refinement derivations than
/// per-EC derivations × EC count — in fact the derivation count is
/// independent of the EC count: all 8 symmetric destination classes are
/// served by the first class's five derivations.
#[test]
fn fattree4_network_sweep_shares_refinements_across_classes() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let (_, report, sweep) = run_network_sweep(&net, 1, 1);
    assert_eq!(report.num_ecs(), 8);
    assert_eq!(sweep.per_ec.len(), 8);
    // Every class covers the full exhaustive enumeration.
    assert_eq!(sweep.scenarios_swept(), 8 * 32);
    // All classes share one policy fingerprint and canonicalize.
    assert_eq!(sweep.distinct_fingerprints, 1);
    assert!(sweep.per_ec.iter().all(|e| e.canonical));
    // The acceptance inequality, and the stronger EC-count independence:
    // a per-EC sweep derives 5 refinements per class (40 network-wide);
    // the orchestrator derives them once.
    let unshared = sweep.unshared_derivations();
    assert_eq!(unshared, 8 * 5);
    assert!(
        sweep.derivations < unshared,
        "derivations {} must be strictly below unshared {}",
        sweep.derivations,
        unshared
    );
    assert_eq!(
        sweep.derivations, 5,
        "derivation count independent of EC count"
    );
    assert_eq!(sweep.exact_transfers + sweep.symmetric_transfers, 40 - 5);
    assert!(sweep.sharing_ratio() > 0.8, "{}", sweep.sharing_ratio());
}

/// The refinement kernel takes the class's hoisted signature table: a
/// sweep probes the engine's table cache once per class (the hoist), on
/// top of the compression's own once per class — not once per refinement,
/// however many refinements the kernel materializes.
#[test]
fn sweep_looks_a_signature_table_up_once_per_class() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let classes = report.num_ecs() as u64;
    assert_eq!(report.policies.stats().table_lookups, classes);

    let kernel_calls = bonsai::obs::value("compress.refine.calls");
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 2,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let sweep = sweep_network(&net, &topo, &report, &options).expect("network sweep completes");
    // Every refinement with a nonempty split went through the kernel
    // (other tests of this binary may add their own calls meanwhile).
    let split_refinements = sweep
        .per_ec
        .iter()
        .flat_map(|e| e.report.refinements.values())
        .filter(|r| !r.split.is_empty())
        .count() as u64;
    assert!(split_refinements > classes);
    assert!(bonsai::obs::value("compress.refine.calls") >= kernel_calls + split_refinements);
    assert_eq!(report.policies.stats().table_lookups, 2 * classes);
}

/// Cross-EC sharing soundness: every transferred refinement is
/// byte-identical to what a fresh per-EC derivation (bypassing all
/// caches) produces — across the diamond, fattree-4 and mesh-10 at
/// k = 1 and 2.
#[test]
fn transfers_are_byte_identical_to_fresh_derivations() {
    let diamond = bonsai::srp::papernets::figure1_rip();
    let fattree = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let mesh = bonsai::topo::full_mesh(10);
    for (label, net) in [
        ("diamond", &diamond),
        ("fattree4", &fattree),
        ("mesh10", &mesh),
    ] {
        for k in [1usize, 2] {
            let (topo, report, sweep) = run_network_sweep(net, k, 1);
            let mut transfers_checked = 0usize;
            for (comp, ec_sweep) in report.per_ec.iter().zip(&sweep.per_ec) {
                let ec_dest = comp.ec.to_ec_dest();
                let options = SweepOptions {
                    max_failures: k,
                    threads: 1,
                    ..Default::default()
                };
                for (sig, cached) in &ec_sweep.report.refinements {
                    if cached.provenance == RefinementProvenance::Derived {
                        continue;
                    }
                    transfers_checked += 1;
                    let fresh = derive_refinement(
                        net,
                        &topo,
                        &ec_dest,
                        &comp.abstraction,
                        &comp.abstract_network,
                        &report.policies,
                        &options,
                        sig,
                    )
                    .unwrap();
                    assert_eq!(
                        cached.representative, fresh.representative,
                        "{label} k={k} {:?}",
                        cached.provenance
                    );
                    assert_eq!(cached.split, fresh.split, "{label} k={k}");
                    assert_eq!(
                        cached.abstraction().partition.as_sets(),
                        fresh.abstraction().partition.as_sets(),
                        "{label} k={k}"
                    );
                    assert_eq!(cached.abstraction().copies, fresh.abstraction().copies);
                    let network_of = |r: &ScenarioRefinement| {
                        let (mut text, sections) = (String::new(), PolicySections::new(net));
                        let layout = r.materialized(net, &topo).layout();
                        layout.print_into(&mut text, net, &topo, &sections);
                        text
                    };
                    assert_eq!(
                        network_of(cached),
                        network_of(&fresh),
                        "{label} k={k}: transferred and fresh abstract networks differ"
                    );
                    assert_eq!(cached.localized_refuted, fresh.localized_refuted);
                    assert_eq!(cached.deviating_rounds, fresh.deviating_rounds);
                    assert_eq!(cached.global_fallback, fresh.global_fallback);
                }
            }
            // The diamond has one class (nothing to transfer); the
            // symmetric multi-class topologies must actually share.
            if report.num_ecs() > 1 {
                assert!(
                    transfers_checked > 0,
                    "{label} k={k}: no transfers happened"
                );
            }
        }
    }
}

/// Thread-count determinism of the network-level fan-out: refinement
/// sets, splits, partitions and per-scenario verdicts are identical for
/// any worker count. (Cache-hit flags and provenance depend on the
/// schedule — a refinement may be derived on one schedule and
/// transferred on another — but the bytes may not.)
#[test]
fn network_sweep_deterministic_across_thread_counts() {
    for net in [
        bonsai::srp::papernets::figure1_rip(),
        bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath),
    ] {
        let (_, _, reference) = run_network_sweep(&net, 1, 1);
        for threads in [4usize, 8] {
            let (_, _, parallel) = run_network_sweep(&net, 1, threads);
            assert_eq!(reference.per_ec.len(), parallel.per_ec.len());
            for (a, b) in reference.per_ec.iter().zip(&parallel.per_ec) {
                assert_eq!(a.rep, b.rep);
                assert_eq!(a.fingerprint, b.fingerprint);
                assert_eq!(
                    a.report.refinements.keys().collect::<Vec<_>>(),
                    b.report.refinements.keys().collect::<Vec<_>>()
                );
                for (sig, r) in &a.report.refinements {
                    let p = &b.report.refinements[sig];
                    assert_eq!(
                        r.abstraction().partition.as_sets(),
                        p.abstraction().partition.as_sets()
                    );
                    assert_eq!(r.abstraction().copies, p.abstraction().copies);
                    assert_eq!(r.split, p.split);
                }
                assert_eq!(a.report.outcomes.len(), b.report.outcomes.len());
                for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
                    assert_eq!(x.scenario, y.scenario);
                    assert_eq!(x.signature, y.signature);
                    assert_eq!(x.refined_nodes, y.refined_nodes);
                }
            }
        }
    }
}

/// Two network sweep reports are interchangeable: same classes, same
/// refinement bytes, same per-scenario outcomes (ranks, scenarios,
/// signatures, verdicts) and same aggregate tallies. Scheduling-dependent
/// bookkeeping (threads, chunk size, resident peak, streamed count) is
/// deliberately not compared.
fn assert_reports_equivalent(label: &str, a: &NetworkSweepReport, b: &NetworkSweepReport) {
    assert_eq!(a.k, b.k, "{label}");
    assert_eq!(a.derivations, b.derivations, "{label}");
    assert_eq!(a.exact_transfers, b.exact_transfers, "{label}");
    assert_eq!(a.symmetric_transfers, b.symmetric_transfers, "{label}");
    assert_eq!(a.distinct_fingerprints, b.distinct_fingerprints, "{label}");
    assert_eq!(a.per_ec.len(), b.per_ec.len(), "{label}");
    for (x, y) in a.per_ec.iter().zip(&b.per_ec) {
        assert_eq!(x.rep, y.rep, "{label}");
        assert_eq!(x.fingerprint, y.fingerprint, "{label}");
        assert_eq!(x.canonical, y.canonical, "{label}");
        assert_eq!(
            x.report.base_abstract_nodes, y.report.base_abstract_nodes,
            "{label}"
        );
        assert_eq!(x.report.stats, y.report.stats, "{label}");
        assert_eq!(x.report.derivations, y.report.derivations, "{label}");
        assert_eq!(
            x.report.refinements.keys().collect::<Vec<_>>(),
            y.report.refinements.keys().collect::<Vec<_>>(),
            "{label}"
        );
        for (sig, r) in &x.report.refinements {
            let p = &y.report.refinements[sig];
            assert_eq!(r.representative, p.representative, "{label}");
            assert_eq!(r.split, p.split, "{label}");
            assert_eq!(
                r.abstraction().partition.as_sets(),
                p.abstraction().partition.as_sets(),
                "{label}"
            );
            assert_eq!(r.abstraction().copies, p.abstraction().copies, "{label}");
            assert_eq!(r.provenance, p.provenance, "{label}");
        }
        assert_eq!(x.report.outcomes.len(), y.report.outcomes.len(), "{label}");
        for (o, q) in x.report.outcomes.iter().zip(&y.report.outcomes) {
            assert_eq!(o.rank, q.rank, "{label}");
            assert_eq!(o.scenario, q.scenario, "{label}");
            assert_eq!(o.signature, q.signature, "{label}");
            assert_eq!(o.cache_hit, q.cache_hit, "{label}");
            assert_eq!(o.refined_nodes, q.refined_nodes, "{label}");
        }
    }
}

/// The streamed chunked fan-out is a pure scheduling change: any chunk
/// size at any thread count reproduces the reference sweep — outcome for
/// outcome, refinement for refinement — on the diamond, fattree-4 and
/// mesh-10 at k = 1 and 2.
#[test]
fn chunked_sweeps_match_the_reference_at_every_chunk_size() {
    let diamond = bonsai::srp::papernets::figure1_rip();
    let fattree = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let mesh = bonsai::topo::full_mesh(10);
    for (label, net) in [
        ("diamond", &diamond),
        ("fattree4", &fattree),
        ("mesh10", &mesh),
    ] {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        for k in [1usize, 2] {
            let (_, _, reference) = run_network_sweep(net, k, 1);
            for chunk_size in [5usize, 64] {
                for threads in [1usize, 4] {
                    let options = NetworkSweepOptions {
                        sweep: SweepOptions {
                            max_failures: k,
                            threads,
                            ..Default::default()
                        },
                        chunk_size,
                        ..Default::default()
                    };
                    let sweep = sweep_network(net, &topo, &report, &options).unwrap();
                    assert_eq!(sweep.chunk_size, chunk_size);
                    if threads == 1 {
                        assert_reports_equivalent(
                            &format!("{label} k={k} chunk={chunk_size}"),
                            &reference,
                            &sweep,
                        );
                    } else {
                        // Parallel schedules can race duplicate
                        // derivations; the bytes still may not change.
                        for (a, b) in reference.per_ec.iter().zip(&sweep.per_ec) {
                            assert_eq!(a.report.stats, b.report.stats);
                            assert_eq!(
                                a.report.refinements.keys().collect::<Vec<_>>(),
                                b.report.refinements.keys().collect::<Vec<_>>()
                            );
                            for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
                                assert_eq!(x.rank, y.rank);
                                assert_eq!(x.scenario, y.scenario);
                                assert_eq!(x.signature, y.signature);
                                assert_eq!(x.refined_nodes, y.refined_nodes);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Symmetry pruning is a filter over the same stream, decided per item:
/// a scenario survives iff it is its signature's canonical representative.
/// So at any thread count the pruned sweep keeps the same outcomes (with
/// their exhaustive ranks) and the same refinement bytes, exactly one
/// outcome per signature, and per class exactly the exhaustive sweep's
/// refinement keys — on fattree-4 and mesh-10 at k = 1, 2.
#[test]
fn pruned_sweeps_are_schedule_independent_and_cover_every_signature() {
    let fattree = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let mesh = bonsai::topo::full_mesh(10);
    for (label, net) in [("fattree4", &fattree), ("mesh10", &mesh)] {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        for k in [1usize, 2] {
            let options = |prune_symmetric: bool, threads: usize| NetworkSweepOptions {
                sweep: SweepOptions {
                    max_failures: k,
                    prune_symmetric,
                    threads,
                    ..Default::default()
                },
                // Small ranges, so every requested worker claims some.
                chunk_size: 7,
                ..Default::default()
            };
            let exhaustive = sweep_network(net, &topo, &report, &options(false, 1)).unwrap();
            let reference = sweep_network(net, &topo, &report, &options(true, 1)).unwrap();
            for threads in [1usize, 2, 4] {
                let case = format!("{label} k={k} threads={threads}");
                let pruned = sweep_network(net, &topo, &report, &options(true, threads)).unwrap();
                assert_eq!(pruned.scenarios_streamed, exhaustive.scenarios_streamed);
                for ((p, r), x) in pruned
                    .per_ec
                    .iter()
                    .zip(&reference.per_ec)
                    .zip(&exhaustive.per_ec)
                {
                    let (p, r, x) = (&p.report, &r.report, &x.report);
                    assert_eq!(
                        p.refinements.keys().collect::<Vec<_>>(),
                        x.refinements.keys().collect::<Vec<_>>(),
                        "{case}: pruned and exhaustive refinement keys"
                    );
                    assert_eq!(p.outcomes.len(), p.refinements.len(), "{case}");
                    assert_eq!(p.stats, r.stats, "{case}");
                    assert_eq!(p.outcomes.len(), r.outcomes.len(), "{case}");
                    for (o, q) in p.outcomes.iter().zip(&r.outcomes) {
                        assert_eq!(o.rank, q.rank, "{case}");
                        assert_eq!(o.scenario, q.scenario, "{case}");
                        assert_eq!(o.signature, q.signature, "{case}");
                        assert_eq!(o.refined_nodes, q.refined_nodes, "{case}");
                        // The kept item is the canonical representative,
                        // at its rank in the exhaustive stream.
                        assert_eq!(o.scenario, x.outcomes[o.rank].scenario, "{case}");
                        assert_eq!(
                            o.scenario, p.refinements[&o.signature].representative,
                            "{case}"
                        );
                    }
                    for (sig, a) in &p.refinements {
                        let b = &x.refinements[sig];
                        assert_eq!(a.split, b.split, "{case}");
                        assert_eq!(
                            a.abstraction().partition.as_sets(),
                            b.abstraction().partition.as_sets(),
                            "{case}"
                        );
                        assert_eq!(a.abstraction().copies, b.abstraction().copies, "{case}");
                    }
                }
            }
        }
    }
}

/// Sharding is exact: sweeping each canonical-signature shard
/// independently (as separate processes would) and merging reproduces
/// the monolithic `threads = 1` report field for field — outcomes with
/// their cache-hit flags, refinement provenance, derivation counts —
/// for 2 and 3 shards on the diamond, fattree-4 and mesh-10 at k = 1, 2,
/// exhaustive and (2 shards) pruned.
#[test]
fn sharded_sweeps_merge_to_the_monolithic_report() {
    let diamond = bonsai::srp::papernets::figure1_rip();
    let fattree = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let mesh = bonsai::topo::full_mesh(10);
    for (label, net) in [
        ("diamond", &diamond),
        ("fattree4", &fattree),
        ("mesh10", &mesh),
    ] {
        let topo = BuiltTopology::build(net).unwrap();
        let report = compress(net, CompressOptions::default());
        for (k, prune_symmetric, of) in [
            (1usize, false, 2usize),
            (1, false, 3),
            (1, true, 2),
            (2, false, 2),
            (2, false, 3),
            (2, true, 2),
        ] {
            let label = format!("{label} pruned={prune_symmetric}");
            let options = NetworkSweepOptions {
                sweep: SweepOptions {
                    max_failures: k,
                    prune_symmetric,
                    threads: 1,
                    ..Default::default()
                },
                ..Default::default()
            };
            let monolithic = sweep_network(net, &topo, &report, &options).unwrap();
            let shards: Vec<NetworkSweepReport> = (0..of)
                .map(|i| {
                    let options = NetworkSweepOptions {
                        shard: Some(ShardSpec::new(i, of).unwrap()),
                        ..options
                    };
                    sweep_network(net, &topo, &report, &options).unwrap()
                })
                .collect();
            // Every (scenario, class) item lands in exactly one shard.
            let per_shard: Vec<usize> = shards.iter().map(|s| s.scenarios_swept()).collect();
            assert_eq!(
                per_shard.iter().sum::<usize>(),
                monolithic.scenarios_swept(),
                "{label} k={k} of={of}: shard sizes {per_shard:?}"
            );
            let merged = merge_reports(shards).unwrap();
            assert!(merged.shard.is_none());
            assert_reports_equivalent(&format!("{label} k={k} of={of}"), &monolithic, &merged);
        }
    }
}

/// Merge rejects incomplete or inconsistent shard sets instead of
/// producing a silently partial report, and a shard that names no part of
/// the plane cannot be constructed at all.
#[test]
fn merge_rejects_bad_shard_sets() {
    let net = bonsai::srp::papernets::figure1_rip();
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 1,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let shard0 = NetworkSweepOptions {
        shard: Some(ShardSpec::new(0, 2).unwrap()),
        ..options
    };
    let s0 = sweep_network(&net, &topo, &report, &shard0).unwrap();
    let s0_dup = sweep_network(&net, &topo, &report, &shard0).unwrap();
    let unsharded = sweep_network(&net, &topo, &report, &options).unwrap();

    assert!(ShardSpec::new(3, 2).is_err(), "index past the shard count");
    assert!(
        ShardSpec::new(2, 2).is_err(),
        "index equal to the shard count"
    );
    assert!(ShardSpec::new(0, 0).is_err(), "zero shards");

    assert!(merge_reports(vec![]).is_err(), "empty set");
    assert!(merge_reports(vec![s0_dup]).is_err(), "missing shard 1");
    assert!(
        merge_reports(vec![s0, unsharded]).is_err(),
        "unsharded report in the set"
    );
}

/// Aggregate mode is the bounded-memory configuration: dropping outcome
/// records keeps the resident-scenario peak at O(threads), far below the
/// chunk bound and the scenario space, while the aggregate statistics,
/// refinements and derivations stay identical to the collected sweep.
#[test]
fn aggregate_mode_bounds_resident_scenarios() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let base = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 2,
            threads: 1,
            ..Default::default()
        },
        chunk_size: 64,
        ..Default::default()
    };
    let collected = sweep_network(&net, &topo, &report, &base).unwrap();
    let aggregate = sweep_network(
        &net,
        &topo,
        &report,
        &NetworkSweepOptions {
            collect_outcomes: false,
            ..base
        },
    )
    .unwrap();

    // The collected run keeps every outcome resident; aggregate mode
    // holds at most the in-flight item per worker.
    assert_eq!(aggregate.scenarios_swept(), collected.scenarios_swept());
    assert!(collected.peak_resident_scenarios >= collected.scenarios_swept());
    assert!(
        aggregate.peak_resident_scenarios <= base.chunk_size,
        "aggregate peak {} exceeds the chunk bound {}",
        aggregate.peak_resident_scenarios,
        base.chunk_size
    );
    assert!(
        aggregate.peak_resident_scenarios < collected.scenarios_swept() / 100,
        "aggregate peak {} is not O(chunk) against {} swept",
        aggregate.peak_resident_scenarios,
        collected.scenarios_swept()
    );
    assert_eq!(aggregate.derivations, collected.derivations);
    for (a, c) in aggregate.per_ec.iter().zip(&collected.per_ec) {
        assert!(a.report.outcomes.is_empty());
        assert_eq!(a.report.stats, c.report.stats);
        assert_eq!(
            a.report.refinements.keys().collect::<Vec<_>>(),
            c.report.refinements.keys().collect::<Vec<_>>()
        );
    }
}

/// A network of eBGP routers over `edges`, each its own AS originating one
/// /24.
fn bgp_network(n: usize, edges: &[(usize, usize)]) -> NetworkConfig {
    let mut text = String::new();
    for r in 0..n {
        let peers: Vec<usize> = edges
            .iter()
            .filter_map(|&(a, b)| (a == r).then_some(b).or((b == r).then_some(a)))
            .collect();
        text += &format!("device r{r}\n");
        for p in &peers {
            text += &format!("interface to{p}\n");
        }
        text += &format!("router bgp {}\n network 10.0.{r}.0/24\n", r + 1);
        for p in &peers {
            text += &format!(" neighbor to{p} remote-as external\n");
        }
        text += "end\n";
    }
    for (a, b) in edges {
        text += &format!("link r{a} to{b} r{b} to{a}\n");
    }
    bonsai_config::parse_network(&text).expect("the network parses")
}

/// Adjacent roots r0 and r1 with two children and four leaf grandchildren
/// each — split 1 + 3 under r0, 2 + 2 under r1: equal quotient classes, no
/// automorphism, so r1 is visited although it groups with r0.
fn lopsided_tree() -> NetworkConfig {
    let edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (2, 4),
        (3, 5),
        (3, 6),
        (3, 7),
        (1, 8),
        (1, 9),
        (8, 10),
        (8, 11),
        (9, 12),
        (9, 13),
    ];
    bgp_network(14, &edges)
}

/// One tally case: a network, its failure bound, the classes swept
/// (`None`: all), and the classes the aggregate sweep must tally.
struct TallyCase {
    label: &'static str,
    net: NetworkConfig,
    k: usize,
    subset: Option<Vec<usize>>,
    tallied: usize,
}

/// The hit path keeps no per-item record — a worker's tallies come from
/// its `SigId`-indexed slots alone — and a class with a verified witness
/// onto an earlier one is not visited at all: its tallies are its donor's
/// per-signature counts, its refinements resolved as a visit resolves
/// them. Both must equal what the collected outcome records add up to:
/// the collected sweep always visits, so it is the reference. Covered over
/// fattree-4/6/8 at `k ≤ 2` (fattree-8 `k = 2` on three classes: the
/// collected plane of all 32 is a million records), mesh-10, ring-20, the
/// lopsided tree (a group without a witness) and the sixteen seeded
/// policy networks, exhaustive and pruned, unsharded and through both
/// halves of a 2-shard split, at 1, 2 and 4 workers (fattree-4 also at
/// chunk size 1). A search that finds nothing — no automorphism, or an
/// exhausted budget (`bonsai_core::symmetry`'s own tests) — visits.
#[test]
fn aggregate_tallies_match_collected_outcomes_through_the_slots() {
    use bonsai::topo::{fattree, full_mesh, ring, FattreePolicy::ShortestPath};
    let mut cases = vec![
        TallyCase {
            label: "fattree4",
            net: fattree(4, ShortestPath),
            k: 2,
            subset: None,
            tallied: 7,
        },
        TallyCase {
            label: "fattree6",
            net: fattree(6, ShortestPath),
            k: 2,
            subset: None,
            tallied: 17,
        },
        TallyCase {
            label: "fattree8",
            net: fattree(8, ShortestPath),
            k: 1,
            subset: None,
            tallied: 31,
        },
        TallyCase {
            label: "fattree8 x3",
            net: fattree(8, ShortestPath),
            k: 2,
            subset: Some(vec![0, 1, 2]),
            tallied: 2,
        },
        TallyCase {
            label: "mesh10",
            net: full_mesh(10),
            k: 2,
            subset: None,
            tallied: 9,
        },
        TallyCase {
            label: "ring20",
            net: ring(20),
            k: 2,
            subset: None,
            tallied: 19,
        },
        TallyCase {
            label: "lopsided tree",
            net: lopsided_tree(),
            k: 2,
            subset: None,
            // r1 groups with r0 but has no witness; the groups r5–r7,
            // r8–r9 and r10–r13 tally 2 + 1 + 3.
            tallied: 6,
        },
    ];
    // Deliberately un-symmetric: nothing tallies, and nothing may change.
    for net in random_nets::seeded_networks() {
        cases.push(TallyCase {
            label: "seeded",
            net,
            k: 2,
            subset: None,
            tallied: 0,
        });
    }
    let shards = [
        None,
        Some(ShardSpec::new(0, 2).unwrap()),
        Some(ShardSpec::new(1, 2).unwrap()),
    ];
    for (n, case) in cases.iter().enumerate() {
        let topo = BuiltTopology::build(&case.net).unwrap();
        let report = compress(&case.net, CompressOptions::default());
        let every: Vec<usize> = (0..report.num_ecs()).collect();
        let subset = case.subset.as_deref().unwrap_or(&every);
        let chunk_sizes: &[usize] = if n == 0 { &[1, 1024] } else { &[1024] };
        for &chunk_size in chunk_sizes {
            for threads in [1usize, 2, 4] {
                for prune_symmetric in [false, true] {
                    for shard in shards {
                        let label = format!(
                            "{} #{n} chunk={chunk_size} threads={threads} pruned={prune_symmetric} {shard:?}",
                            case.label
                        );
                        let collected_options = NetworkSweepOptions {
                            sweep: SweepOptions {
                                max_failures: case.k,
                                prune_symmetric,
                                threads,
                                ..Default::default()
                            },
                            chunk_size,
                            shard,
                            ..Default::default()
                        };
                        let aggregate_options = NetworkSweepOptions {
                            collect_outcomes: false,
                            ..collected_options
                        };
                        let sweep = |options| {
                            sweep_network_subset(&case.net, &topo, &report, options, subset)
                        };
                        let collected = sweep(&collected_options).expect(&label);
                        let aggregate = sweep(&aggregate_options).expect(&label);
                        assert_tally_matches(&label, &collected, &aggregate, threads);
                        let unsharded = threads == 1 && shard.is_none();
                        assert_interned(&label, &collected, &aggregate, unsharded);
                        assert_eq!(aggregate.classes_tallied, case.tallied, "{label}");
                    }
                }
            }
        }
    }
}

/// The aggregate sweep's tallies, refinements and (at one worker, where
/// no derivation races) provenance equal the collected sweep's.
fn assert_tally_matches(
    label: &str,
    collected: &NetworkSweepReport,
    aggregate: &NetworkSweepReport,
    threads: usize,
) {
    assert_eq!(collected.classes_tallied, 0, "{label}: collecting visits");
    assert_eq!(
        aggregate.scenarios_streamed, collected.scenarios_streamed,
        "{label}"
    );
    for (a, c) in aggregate.per_ec.iter().zip(&collected.per_ec) {
        assert!(a.report.outcomes.is_empty(), "{label}");
        assert_eq!(
            a.report.stats,
            OutcomeStats::from_outcomes(&c.report.outcomes),
            "{label} {}",
            c.rep
        );
        assert_eq!(a.report.stats, c.report.stats, "{label} {}", c.rep);
        assert_eq!(
            a.report.refinements.keys().collect::<Vec<_>>(),
            c.report.refinements.keys().collect::<Vec<_>>(),
            "{label} {}",
            c.rep
        );
        for (sig, r) in &c.report.refinements {
            let t = &a.report.refinements[sig];
            assert_eq!(t.representative, r.representative, "{label}");
            assert_eq!(t.split, r.split, "{label}");
            assert_eq!(
                t.abstraction().partition.as_sets(),
                r.abstraction().partition.as_sets(),
                "{label}"
            );
            if threads == 1 {
                assert_eq!(t.provenance, r.provenance, "{label} {}", c.rep);
            }
        }
        if threads == 1 {
            assert_eq!(a.report.derivations, c.report.derivations, "{label}");
        }
        // Every kept item found its refinement under its own signature's
        // slot.
        for o in &c.report.outcomes {
            assert_eq!(
                o.refined_nodes,
                c.report.refinements[&o.signature].refined_nodes(),
                "{label}"
            );
        }
    }
    if threads == 1 {
        let counts =
            |r: &NetworkSweepReport| (r.derivations, r.exact_transfers, r.symmetric_transfers);
        assert_eq!(counts(aggregate), counts(collected), "{label}");
    }
}

/// The interner counters. Filters run after interning, so one worker
/// interns every signature of every class it visits exactly once, and a
/// tallied class interns nothing.
fn assert_interned(
    label: &str,
    collected: &NetworkSweepReport,
    aggregate: &NetworkSweepReport,
    unsharded: bool,
) {
    for r in [collected, aggregate] {
        assert!(r.raw_keys >= r.signatures_interned, "{label}");
    }
    if !unsharded {
        return;
    }
    let unshared = collected.unshared_derivations();
    assert_eq!(collected.signatures_interned, unshared, "{label}");
    assert_eq!(
        aggregate.signatures_interned == unshared,
        aggregate.classes_tallied == 0,
        "{label}"
    );
    let per_class: BTreeSet<usize> = collected
        .per_ec
        .iter()
        .map(|e| e.report.refinements.len())
        .collect();
    if let [count] = per_class.into_iter().collect::<Vec<_>>()[..] {
        let visited = collected.per_ec.len() - aggregate.classes_tallied;
        assert_eq!(aggregate.signatures_interned, visited * count, "{label}");
    }
}

/// One equivariance case: a network, its failure bound, the classes swept
/// (`None`: all), and — where pinned — `(witnessed, symmetric)` transfers.
struct WitnessCase {
    label: &'static str,
    net: NetworkConfig,
    k: usize,
    subset: Option<Vec<usize>>,
    transfers: Option<(usize, usize)>,
}

/// A tallied class takes a symmetric transfer through its class witness σ
/// when σ⁻¹ of the donor's representative is its own representative: the
/// node count is the donor's, and the partition waits for a reader. That
/// is exact because Algorithm 1 commutes with σ. Every witnessed transfer
/// of fattree-4/6/8, mesh-10 and the lopsided tree at `k ≤ 2`, of
/// `gen:datacenter`'s first group at `k = 1` (class 0 visited, the next 17
/// tallied; all 1296 classes, 67 851 witnessed transfers, pass in a
/// release build) and of the seeded networks (which tally nothing) is
/// checked against the eager transfer, `split_partition` of the
/// receiver's endpoint split:
///
/// * σ⁻¹ of the donor's partition is that partition, as sets, with equal
///   per-set copies;
/// * the node count is its node count;
/// * the partition, derived from the split on first read, is that
///   partition block for block, block ids included.
///
/// Fattree-8 `k = 2` pins the counts: 1144 witnessed of 1364 symmetric
/// transfers; the other 220 — σ⁻¹(R) is not the receiver's representative —
/// are refined eagerly.
#[test]
fn witnessed_transfers_are_the_donors_carried_through_the_witness() {
    use bonsai::topo::{datacenter, fattree, full_mesh, FattreePolicy::ShortestPath};
    let mut cases = Vec::new();
    for (label, net) in [
        ("fattree4", fattree(4, ShortestPath)),
        ("fattree6", fattree(6, ShortestPath)),
        ("fattree8", fattree(8, ShortestPath)),
        ("mesh10", full_mesh(10)),
        ("lopsided tree", lopsided_tree()),
    ] {
        for k in 1..=2 {
            let transfers = (label == "fattree8" && k == 2).then_some((1144, 1364));
            cases.push(WitnessCase {
                label,
                net: net.clone(),
                k,
                subset: None,
                transfers,
            });
        }
    }
    cases.push(WitnessCase {
        label: "datacenter",
        net: datacenter(Default::default()),
        k: 1,
        subset: Some((0..18).collect()),
        transfers: None,
    });
    for net in random_nets::seeded_networks() {
        cases.push(WitnessCase {
            label: "seeded",
            net,
            k: 2,
            subset: None,
            transfers: Some((0, 0)),
        });
    }
    let mut witnessed = 0;
    for case in &cases {
        let label = format!("{} k={}", case.label, case.k);
        let topo = BuiltTopology::build(&case.net).unwrap();
        let report = compress(&case.net, CompressOptions::default());
        let every: Vec<usize> = (0..report.num_ecs()).collect();
        let subset = case.subset.as_deref().unwrap_or(&every);
        let options = NetworkSweepOptions {
            sweep: SweepOptions {
                max_failures: case.k,
                threads: 1,
                ..Default::default()
            },
            collect_outcomes: false,
            ..Default::default()
        };
        let sweep = sweep_network_subset(&case.net, &topo, &report, &options, subset)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let checked = assert_witnessed(&label, &case.net, &topo, &report, subset, &sweep);
        assert_eq!(checked, sweep.witnessed_transfers, "{label}");
        if let Some(transfers) = case.transfers {
            let counts = (sweep.witnessed_transfers, sweep.symmetric_transfers);
            assert_eq!(counts, transfers, "{label}");
        }
        witnessed += checked;
    }
    assert_eq!(witnessed, 3224);
}

/// The checks of [`witnessed_transfers_are_the_donors_carried_through_the_witness`]
/// over one sweep of `subset`; returns the witnessed transfers checked.
fn assert_witnessed(
    label: &str,
    net: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    subset: &[usize],
    sweep: &NetworkSweepReport,
) -> usize {
    use bonsai::core::algorithm::{refine_with_split, Abstraction};
    use bonsai::core::scenarios::{link_orbits, quotient_canon, FailureScenario};
    use bonsai::core::symmetry::{find_class_witness, ClassView};
    use std::collections::BTreeMap;

    let graph = &topo.graph;
    // The classes as the sweep hoists them, and their witness-search views.
    let classes: Vec<_> = subset
        .iter()
        .map(|&ci| {
            let comp = &report.per_ec[ci];
            let ec = comp.ec.to_ec_dest();
            let sigs = build_sig_table(&report.policies, net, topo, &ec);
            let orbits = link_orbits(graph, &comp.abstraction, &sigs);
            let canon = quotient_canon(graph, &ec, &comp.abstraction, &sigs, &orbits);
            let fingerprint = report.policies.ec_fingerprint(net, topo, &ec);
            (ec, sigs, canon, fingerprint, &comp.abstraction)
        })
        .collect();
    let view = |i: usize| {
        let (ec, sigs, canon, _, base) = &classes[i];
        let canon = canon.as_ref()?;
        Some(ClassView {
            ec,
            sigs,
            base,
            canon,
        })
    };
    let group = |i: usize| Some((classes[i].3, &view(i)?.canon.class));
    // Blocks as (sorted members, copies), after mapping members through `f`.
    let blocks = |a: &Abstraction, f: &dyn Fn(u32) -> u32| {
        let mut out: Vec<(Vec<u32>, u32)> = a
            .partition
            .blocks()
            .map(|b| {
                let mut members: Vec<u32> = a.partition.members(b).iter().map(|&m| f(m)).collect();
                members.sort_unstable();
                (members, a.copies[b.index()])
            })
            .collect();
        out.sort();
        out
    };

    let mut checked = 0;
    for (e, ec_sweep) in sweep.per_ec.iter().enumerate() {
        let mine: Vec<&ScenarioRefinement> = ec_sweep
            .report
            .refinements
            .values()
            .filter(|r| r.is_witnessed())
            .collect();
        if mine.is_empty() {
            continue;
        }
        // A donor: an earlier visited class of the group (it holds no
        // witnessed transfer) with a verified σ onto this one whose
        // representatives are the images of these.
        let image_of = |image: &[NodeId], r: &ScenarioRefinement| {
            let link = |&(u, v): &(NodeId, NodeId)| {
                graph
                    .canonical_link(image[u.index()], image[v.index()])
                    .unwrap()
            };
            FailureScenario::new(r.representative.links.iter().map(link).collect())
        };
        let visited = |d: usize| {
            let refinements = &sweep.per_ec[d].report.refinements;
            !refinements.values().any(|r| r.is_witnessed())
        };
        let (d, image) = (0..e)
            .filter(|&d| group(d).is_some() && group(d) == group(e) && visited(d))
            .find_map(|d| {
                let witness = find_class_witness(graph, view(d)?, view(e)?).witness?;
                let image = witness.image().to_vec();
                let reps: BTreeSet<&FailureScenario> = sweep.per_ec[d]
                    .report
                    .refinements
                    .values()
                    .map(|r| &r.representative)
                    .collect();
                let carried = mine.iter().all(|r| reps.contains(&image_of(&image, r)));
                carried.then_some((d, image))
            })
            .unwrap_or_else(|| panic!("{label}: class {e} has no donor"));
        let mut preimage = vec![0u32; image.len()];
        for (v, w) in image.iter().enumerate() {
            preimage[w.index()] = v as u32;
        }
        let donor: BTreeMap<&FailureScenario, &ScenarioRefinement> = sweep.per_ec[d]
            .report
            .refinements
            .values()
            .map(|r| (&r.representative, r))
            .collect();
        let (ec, sigs, _, _, base) = &classes[e];
        for r in mine {
            // The eager transfer: `split_partition` of the endpoint split.
            let mut split: Vec<NodeId> = r
                .representative
                .links
                .iter()
                .flat_map(|&(u, v)| [u, v])
                .filter(|&n| base.partition.members(base.role_of(n)).len() > 1)
                .collect();
            split.sort();
            split.dedup();
            assert_eq!(r.split, split, "{label}");
            let eager = if split.is_empty() {
                (*base).clone()
            } else {
                refine_with_split(graph, ec, sigs, base, &split)
            };
            assert_eq!(r.refined_nodes(), eager.abstract_node_count(), "{label}");
            let donor = donor[&image_of(&image, r)];
            assert!(donor.stage1_only(), "{label}");
            let pulled = blocks(donor.abstraction(), &|m| preimage[m as usize]);
            assert_eq!(
                pulled,
                blocks(&eager, &|m| m),
                "{label}: σ⁻¹ of the donor's"
            );
            let read = r.abstraction();
            assert_eq!(read.copies, eager.copies, "{label}");
            assert_eq!(read.iterations, eager.iterations, "{label}");
            let ids = |a: &Abstraction| graph.nodes().map(|n| a.role_of(n)).collect::<Vec<_>>();
            assert_eq!(ids(read), ids(&eager), "{label}: block ids");
            assert_eq!(
                read.partition.as_sets(),
                eager.partition.as_sets(),
                "{label}"
            );
            checked += 1;
        }
    }
    checked
}

/// Audited symmetric transfers: re-verifying every transfer against the
/// receiving class changes nothing (the symmetry certificate holds on the
/// fattree) — same refinement bytes, and the audit actually ran, on every
/// symmetric transfer: a visited class's, and a tallied class's whether it
/// came through the class witness or not (the audit reads a witnessed
/// transfer's partition, derived on that read).
#[test]
fn verified_transfers_agree_with_trusted_transfers() {
    let net = bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    for (k, collect_outcomes) in [(1, true), (2, false)] {
        let base_options = NetworkSweepOptions {
            sweep: SweepOptions {
                max_failures: k,
                threads: 1,
                ..Default::default()
            },
            collect_outcomes,
            ..Default::default()
        };
        let trusted = sweep_network(&net, &topo, &report, &base_options).unwrap();
        let audited = sweep_network(
            &net,
            &topo,
            &report,
            &NetworkSweepOptions {
                verify_transfers: true,
                ..base_options
            },
        )
        .unwrap();
        assert!(audited.verified_transfers > 0);
        assert_eq!(audited.verified_transfers, audited.symmetric_transfers);
        assert_eq!(audited.witnessed_transfers, trusted.witnessed_transfers);
        assert_eq!(trusted.witnessed_transfers > 0, !collect_outcomes);
        assert_eq!(audited.derivations, trusted.derivations);
        for (a, b) in trusted.per_ec.iter().zip(&audited.per_ec) {
            assert_eq!(
                a.report.refinements.keys().collect::<Vec<_>>(),
                b.report.refinements.keys().collect::<Vec<_>>()
            );
            for (sig, r) in &a.report.refinements {
                assert_eq!(
                    r.abstraction().partition.as_sets(),
                    b.report.refinements[sig].abstraction().partition.as_sets()
                );
            }
        }
    }
}

/// The failure-aware query acceptance: a masked reachability query
/// through the simulation engine returns the same per-node verdict as
/// the scenario's refined **abstract** network, for every class and
/// every k=1 scenario of the diamond and the fattree. The compressed side
/// is [`scenario_verdict`] over the class base — a representative on the
/// refinement the sweep holds, every other scenario on its own — and never
/// falls back to the concrete simulation it is compared with.
#[test]
fn masked_sim_queries_agree_with_refined_abstract_networks() {
    for net in [
        bonsai::srp::papernets::figure1_rip(),
        bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath),
    ] {
        let (topo, report, sweep) = run_network_sweep(&net, 1, 1);
        let engine = SimEngine::new(&net);
        let scenarios = ScenarioStream::new(&topo.graph, 1).to_vec();
        let mut stats = QueryStats::default();
        for (comp, ec_sweep) in report.per_ec.iter().zip(&sweep.per_ec) {
            let sim_ec = engine
                .ecs
                .iter()
                .find(|e| e.rep == comp.ec.rep)
                .expect("sim engine shares the class set");
            let origins: Vec<NodeId> = comp.ec.origins.iter().map(|(n, _)| *n).collect();
            for (scenario, outcome) in scenarios.iter().zip(&ec_sweep.report.outcomes) {
                assert_eq!(&outcome.scenario, scenario);
                let refinement = &ec_sweep.report.refinements[&outcome.signature];

                // Concrete masked simulation (the Batfish-style path).
                let mask = scenario.mask(&topo.graph);
                let solution = engine
                    .solve_ec(sim_ec, &QueryCtx::masked(Some(&mask)))
                    .unwrap();
                let data = engine.data_plane(sim_ec, &solution);
                let analysis = SolutionAnalysis::new(&topo.graph, &data, &origins);

                // Compressed path: the refined abstract network. Without
                // a class base the engine has the held refinement only,
                // and must still say the same.
                let (held, class) = (Some(refinement), Some(refinement.class()));
                let abstract_reach =
                    scenario_verdict(&net, &topo, sim_ec, class, held, scenario, &mut stats)
                        .unwrap();
                let ctx = QueryCtx::refined(refinement, scenario.clone());
                assert_eq!(engine.reachability(sim_ec, &ctx).unwrap(), abstract_reach);

                for u in topo.graph.nodes() {
                    if origins.contains(&u) {
                        continue;
                    }
                    assert_eq!(
                        analysis.can_reach(u),
                        abstract_reach[u.index()],
                        "{} under {}: node {} disagrees",
                        comp.ec.rep,
                        scenario.describe(&topo.graph),
                        topo.graph.name(u)
                    );
                }
            }
        }
        assert!(stats.by_representative > 0 && stats.by_own_refinement > 0);
        assert_eq!(
            stats.by_concrete, 0,
            "the compressed side stayed compressed"
        );
    }
}
