//! Criterion micro-benchmarks of the compression pipeline stages, plus an
//! ablation: canonical-BDD policy equality vs deep structural comparison.

use bonsai_core::compress::{compress, refine_ec_with_split, CompressOptions};
use bonsai_core::ecs::compute_ecs;
use bonsai_core::engine::CompiledPolicies;
use bonsai_core::signatures::build_sig_table;
use bonsai_topo::{fattree, full_mesh, ring, FattreePolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.sample_size(10);
    for k in [4usize, 8] {
        let net = fattree(k, FattreePolicy::ShortestPath);
        group.bench_with_input(BenchmarkId::new("fattree", k), &net, |b, net| {
            b.iter(|| {
                compress(
                    net,
                    CompressOptions {
                        threads: 1,
                        ..Default::default()
                    },
                )
            })
        });
    }
    let net = ring(64);
    group.bench_function("ring64", |b| {
        b.iter(|| {
            compress(
                &net,
                CompressOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
        })
    });
    let net = full_mesh(24);
    group.bench_function("mesh24", |b| {
        b.iter(|| {
            compress(
                &net,
                CompressOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let net = fattree(8, FattreePolicy::ShortestPath);
    let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
    let ecs = compute_ecs(&net, &topo);
    let ec = ecs[0].to_ec_dest();

    let mut group = c.benchmark_group("stages");
    group.bench_function("compute_ecs/fattree8", |b| {
        b.iter(|| compute_ecs(&net, &topo))
    });
    group.bench_function("sig_table/fattree8", |b| {
        b.iter(|| {
            let engine = CompiledPolicies::from_network(&net, false);
            build_sig_table(&engine, &net, &topo, &ec)
        })
    });
    group.bench_function("refinement/fattree8", |b| {
        let engine = CompiledPolicies::from_network(&net, false);
        let sigs = build_sig_table(&engine, &net, &topo, &ec);
        b.iter(|| bonsai_core::algorithm::find_abstraction(&topo.graph, &ec, &sigs))
    });
    // The failure sweep's kernel, per call: one sample is three calls,
    // cycling through the endpoint split of every single-link scenario
    // against the class's base abstraction.
    {
        let engine = CompiledPolicies::from_network(&net, false);
        let sigs = build_sig_table(&engine, &net, &topo, &ec);
        let base = bonsai_core::algorithm::find_abstraction(&topo.graph, &ec, &sigs);
        let splits: Vec<Vec<bonsai_net::NodeId>> = topo
            .graph
            .links()
            .into_iter()
            .map(|(u, v)| {
                let mut split: Vec<_> = [u, v]
                    .into_iter()
                    .filter(|&n| base.partition.members(base.role_of(n)).len() > 1)
                    .collect();
                split.sort();
                split
            })
            .filter(|split| !split.is_empty())
            .collect();
        let mut next = 0usize;
        group.sample_size(splits.len());
        group.bench_function("refine_ec_with_split/fattree8", |b| {
            b.iter(|| {
                let split = &splits[next % splits.len()];
                next += 1;
                refine_ec_with_split(&topo.graph, &ec, &sigs, &base, split)
            })
        });
        // What a derivation does with the layout (build its lifted SRP
        // instance) and what only a reader of the configuration pays
        // (render it), over the same splits.
        let layouts: Vec<_> = (splits.iter())
            .map(|split| refine_ec_with_split(&topo.graph, &ec, &sigs, &base, split).1)
            .collect();
        let mut next = 0usize;
        group.bench_function("lifted_instance/fattree8", |b| {
            b.iter(|| {
                next += 1;
                layouts[next % layouts.len()].instance(&net, &topo)
            })
        });
        let mut next = 0usize;
        group.bench_function("render/fattree8", |b| {
            b.iter(|| {
                next += 1;
                layouts[next % layouts.len()].render(&net, &topo)
            })
        });
    }
    // The snapshot reader on what a warm restart feeds it: an
    // answer-tier-shaped document (named link pairs + one bit string per
    // memoized verdict) of about 300 KB. Linear in the document since
    // PR 17; it validated the rest of the document once per character
    // before.
    {
        let names: Vec<&str> = topo.graph.nodes().map(|n| topo.graph.name(n)).collect();
        let bits = "10".repeat(names.len() / 2);
        let entries: Vec<String> = (0..2000usize)
            .map(|i| {
                let name = |j: usize| names[(i * 7 + j * 13) % names.len()];
                format!(
                    "{{\"links\": [[\"{}\", \"{}\"], [\"{}\", \"{}\"]], \"bits\": \"{bits}\"}}",
                    name(0),
                    name(1),
                    name(2),
                    name(3)
                )
            })
            .collect();
        let doc = format!(
            "{{\"verdicts\": [{{\"rep\": \"10.0.0.0/24\", \"entries\": [{}]}}]}}",
            entries.join(", ")
        );
        group.sample_size(10);
        group.bench_function("snapshot_parse", |b| {
            b.iter(|| bonsai_core::snapshot::Json::parse(&doc).expect("document parses"))
        });
    }
    group.finish();
}

/// The shared-engine ablation: building every EC's signature table against
/// one engine (production path) vs rebuilding a fresh engine per EC (the
/// pre-refactor architecture).
fn bench_engine_sharing(c: &mut Criterion) {
    let net = fattree(8, FattreePolicy::PreferBottom);
    let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
    let ecs = compute_ecs(&net, &topo);

    let mut group = c.benchmark_group("engine_sharing");
    group.sample_size(10);
    group.bench_function("shared_engine_all_ecs", |b| {
        b.iter(|| {
            let engine = CompiledPolicies::from_network(&net, false);
            for ec in &ecs {
                let ec_dest = ec.to_ec_dest();
                build_sig_table(&engine, &net, &topo, &ec_dest);
            }
        })
    });
    group.bench_function("fresh_engine_per_ec", |b| {
        b.iter(|| {
            for ec in &ecs {
                let engine = CompiledPolicies::from_network(&net, false);
                let ec_dest = ec.to_ec_dest();
                build_sig_table(&engine, &net, &topo, &ec_dest);
            }
        })
    });
    group.finish();
}

/// Ablation: policy equality by canonical BDD id vs deep structural
/// comparison of the route-map IR (what refinement would cost without the
/// BDD encoding).
fn bench_policy_eq(c: &mut Criterion) {
    let net = fattree(8, FattreePolicy::PreferBottom);
    let topo = bonsai_config::BuiltTopology::build(&net).unwrap();
    let ecs = compute_ecs(&net, &topo);
    let ec = ecs[0].to_ec_dest();
    let engine = CompiledPolicies::from_network(&net, false);
    let sigs = build_sig_table(&engine, &net, &topo, &ec);

    let mut group = c.benchmark_group("policy_eq");
    group.bench_function("bdd_ids", |b| {
        b.iter(|| {
            let mut equal_pairs = 0usize;
            for e1 in topo.graph.edges() {
                for e2 in topo.graph.out(topo.graph.source(e1)) {
                    if sigs.sig_of_edge[e1.index()] == sigs.sig_of_edge[e2.index()] {
                        equal_pairs += 1;
                    }
                }
            }
            equal_pairs
        })
    });
    group.bench_function("structural", |b| {
        b.iter(|| {
            let mut equal_pairs = 0usize;
            for e1 in topo.graph.edges() {
                let (u1, v1) = topo.graph.endpoints(e1);
                let d1 = &net.devices[u1.index()];
                let x1 = &net.devices[v1.index()];
                for e2 in topo.graph.out(u1) {
                    let (u2, v2) = topo.graph.endpoints(e2);
                    let d2 = &net.devices[u2.index()];
                    let x2 = &net.devices[v2.index()];
                    // Deep structural comparison of the policy surface.
                    if d1.route_maps == d2.route_maps
                        && d1.prefix_lists == d2.prefix_lists
                        && x1.route_maps == x2.route_maps
                        && x1.prefix_lists == x2.prefix_lists
                    {
                        equal_pairs += 1;
                    }
                }
            }
            equal_pairs
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_stages,
    bench_policy_eq,
    bench_engine_sharing
);
criterion_main!(benches);
