//! The traced run: per-layer numbers.
//!
//! Tracing inside the program is a later change. Here the harness itself
//! calls each crate's public functions, stage by stage, on the same
//! generated inputs the end-to-end run feeds the binary, and records a
//! span around every call: name, start, end, and the span that caused it.
//! Spans stay in memory until the workload ends; then the table is
//! printed and the raw spans are written out. A traced run never feeds
//! the end-to-end numbers.
//!
//! A layer is a crate or module of the repository. Every workload reports
//! every per-layer metric; a layer that is not on the workload's path
//! reports 0, which is itself the prediction ("this workload bypasses the
//! BDD") a later change is checked against.

use crate::checks::{expected_reach_reply, reach_reply, sweep_options, Tally};
use crate::daemon::{Daemon, LineClient};
use crate::gen::{dc_policy, Request, Rng};
use crate::measure::{median, pin_to_one_cpu, quantile_sorted, run_child};
use crate::spec::{self, PER_LAYER};
use crate::workloads::{
    absorb_replay, clear_dir, path_str, push_config, replay, serve_inputs, sweep_args, write_text,
    Env, Expect, Sample, K2,
};
use bonsai::config::{parse_network, print_network, BuiltTopology, NetworkConfig};
use bonsai::core::abstraction::build_abstract_network;
use bonsai::core::algorithm::find_abstraction;
use bonsai::core::compress::{
    build_engine, compress, recompress_delta, CompressOptions, CompressionReport,
};
use bonsai::core::delta::diff_configs;
use bonsai::core::ecs::compute_ecs;
use bonsai::core::engine::EngineStats;
use bonsai::core::scenarios::{
    canonical_signature_of, link_orbits, quotient_canon, FailureScenario, ScenarioStream,
};
use bonsai::core::signatures::build_sig_table;
use bonsai::srp::instance::MultiProtocol;
use bonsai::srp::solver::{
    solve, solve_masked, solve_warm_masked, solve_with_order_masked_stats, SolverOptions,
};
use bonsai::srp::Srp;
use bonsai::topo::{fattree, FattreePolicy};
use bonsai::verify::netsweep::{sweep_network, sweep_network_subset, NetworkSweepReport};
use bonsai::verify::session::{QueryRequest, Session, SessionOptions};
use bonsai::verify::sim_engine::SimEngine;
use bonsai::verify::sweep::derive_refinement;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Single-threaded by design: the traced run
/// calls the stages one after another, so the open spans form a stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        (result, span.duration_ns() as f64 / 1e9)
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// One row of the span table.
#[derive(Debug, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_ns: u64,
    /// Total minus the part of each interval its child spans cover.
    pub self_ns: u64,
}

/// Groups spans by name. Rows are ordered by first appearance.
pub fn span_rows(spans: &[Span]) -> Vec<SpanRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut rows: Vec<SpanRow> = Vec::new();
    for s in spans {
        let self_ns = s.duration_ns().saturating_sub(child_ns[s.id as usize]);
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(row) => {
                row.calls += 1;
                row.total_ns += s.duration_ns();
                row.self_ns += self_ns;
            }
            None => rows.push(SpanRow {
                name: s.name,
                calls: 1,
                total_ns: s.duration_ns(),
                self_ns,
            }),
        }
    }
    rows
}

/// One table per workload: span, calls, total, self, and self time as a
/// share of the workload's traced total (the root span).
pub fn print_span_table(workload: &str, spans: &[Span]) {
    let Some(root) = spans.first() else { return };
    let traced_total = root.duration_ns().max(1) as f64;
    println!(
        "span table of {workload} (traced total {:.3} s):",
        traced_total / 1e9
    );
    println!(
        "  {:<52} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "total_s", "self_s", "share"
    );
    for row in span_rows(spans) {
        println!(
            "  {:<52} {:>7} {:>12.6} {:>12.6} {:>6.1}%",
            row.name,
            row.calls,
            row.total_ns as f64 / 1e9,
            row.self_ns as f64 / 1e9,
            100.0 * row.self_ns as f64 / traced_total
        );
    }
}

/// Writes the raw spans, one JSON object per line.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(failed)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns
        )
        .map_err(failed)?;
    }
    out.flush().map_err(failed)
}

/// The result of one traced workload.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub layers: BTreeMap<&'static str, Sample>,
    pub spans: Vec<Span>,
}

/// Per-layer values under construction.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Sample>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, Sample { value, samples });
    }
}

fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// Where a traced run leaves its raw spans: the working directory, which
/// is the checkout.
fn spans_file(workload: &str) -> String {
    format!("sysbench_spans_{workload}.jsonl")
}

pub fn run(name: &str, env: &Env<'_>) -> Result<Traced, String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let root: &'static str = spec::workload(name)
        .map(|w| w.name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (result, _) = tracer.span(root, |t| match name {
        "compress_policy" => trace_compress(env, t, &mut layers, &mut tally),
        "sweep_symmetric" => trace_sweep(env, t, &mut layers, &mut tally, false),
        "sweep_derive" => trace_sweep(env, t, &mut layers, &mut tally, true),
        "serve_cycle" => trace_serve(env, t, &mut layers, &mut tally),
        other => Err(format!("unknown workload `{other}`")),
    });
    result?;
    let spans = tracer.finish();
    write_spans(Path::new(&spans_file(name)), name, &spans)?;
    Ok(Traced {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        failures: tally.failures,
        layers: layers.0,
        spans,
    })
}

// ---------------------------------------------------------------------
// Shared stages
// ---------------------------------------------------------------------

/// Text → network → topology, each under its own span; returns the time
/// of both.
fn traced_parse(
    t: &mut Tracer,
    layers: &mut Layers,
    text: &str,
) -> Result<(NetworkConfig, BuiltTopology, f64), String> {
    let (network, parse_s) = t.span("config.parse_network", |_| parse_network(text));
    let network = network.map_err(|e| format!("generated config: {e}"))?;
    let (topo, topology_s) = t.span("config.BuiltTopology::build", |_| {
        BuiltTopology::build(&network)
    });
    let topo = topo.map_err(|e| format!("generated topology: {e}"))?;
    layers.set("config.parse_s", parse_s + topology_s, 1);
    Ok((network, topo, parse_s + topology_s))
}

fn engine_layers(layers: &mut Layers, e: &EngineStats) {
    layers.set(
        "core.engine.stage_hit_rate",
        ratio(e.stage_hits, e.stage_lookups),
        e.stage_lookups as usize,
    );
    layers.set(
        "core.engine.sig_hit_rate",
        ratio(e.sig_hits, e.sig_lookups),
        e.sig_lookups as usize,
    );
    layers.set(
        "core.engine.table_hit_rate",
        ratio(e.table_hits, e.table_lookups),
        e.table_lookups as usize,
    );
    layers.set("bdd.arena_nodes", e.arena_nodes as f64, 1);
    layers.set("bdd.apply_lookups", e.apply_lookups as f64, 1);
    layers.set(
        "bdd.apply_hit_rate",
        ratio(e.apply_hits, e.apply_lookups),
        e.apply_lookups as usize,
    );
    layers.set("bdd.unique_lookups", e.unique_lookups as f64, 1);
}

/// Runs the workload's command with and without the program's own
/// `--trace <file>`, alternating, as often as three seconds allow (one to
/// three rounds); reports the plain wall and the overhead share. `extra`
/// lists further variants of the command to time in the same rounds
/// (their median walls are returned in order); `prepare` runs before
/// every child, as the end-to-end run's does.
fn time_cli(
    env: &Env<'_>,
    t: &mut Tracer,
    layers: &mut Layers,
    args: &[&str],
    extra: &[&[&str]],
    prepare: &dyn Fn() -> Result<(), String>,
) -> Result<(f64, Vec<f64>), String> {
    let trace_file = env.dir.join("program.trace.jsonl");
    let mut traced_args = args.to_vec();
    traced_args.extend(["--trace", path_str(&trace_file)?]);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut extras: Vec<Vec<f64>> = vec![Vec::new(); extra.len()];
    let begun = Instant::now();
    while plain.is_empty() || (plain.len() < 3 && begun.elapsed() < Duration::from_secs(3)) {
        prepare()?;
        let (run, _) = t.span("cli.child (plain)", |_| run_child(env.bin, args, env.dir));
        plain.push(run?.wall.as_secs_f64());
        prepare()?;
        let (run, _) = t.span("cli.child (--trace)", |_| {
            run_child(env.bin, &traced_args, env.dir)
        });
        traced.push(run?.wall.as_secs_f64());
        for (variant, walls) in extra.iter().zip(&mut extras) {
            prepare()?;
            let (run, _) = t.span("cli.child (variant)", |_| {
                run_child(env.bin, variant, env.dir)
            });
            walls.push(run?.wall.as_secs_f64());
        }
    }
    let wall = median(&plain);
    layers.set("cli.wall_s", wall, plain.len());
    layers.set(
        "obs.trace_overhead_share",
        (median(&traced) - wall) / wall,
        plain.len(),
    );
    Ok((wall, extras.iter().map(|w| median(w)).collect()))
}

/// `bonsai ecs` on the paper's 4-router diamond: process start, argument
/// handling, a trivial parse and exit — the floor under every CLI wall.
fn cli_startup(env: &Env<'_>, t: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let path = env.dir.join("diamond.cfg");
    write_text(
        &path,
        &print_network(&bonsai::srp::papernets::figure1_rip()),
    )?;
    let path = path_str(&path)?;
    let mut walls = Vec::new();
    for _ in 0..20 {
        let (run, _) = t.span("cli.child (ecs diamond)", |_| {
            run_child(env.bin, &["ecs", path], env.dir)
        });
        walls.push(run?.wall.as_secs_f64() * 1e3);
    }
    layers.set("cli.startup_ms", median(&walls), walls.len());
    Ok(())
}

// ---------------------------------------------------------------------
// compress_policy
// ---------------------------------------------------------------------

fn trace_compress(
    env: &Env<'_>,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let config = env.dir.join("dcpolicy.cfg");
    let (text, _) = t.span("harness.generate", |_| print_network(&dc_policy(env.seed)));
    write_text(&config, &text)?;
    let (network, topo, parse_s) = traced_parse(t, layers, &text)?;

    // The driver as the CLI calls it — its default workers, its own
    // engine — and in the CLI's position, straight after the parse.
    let options = CompressOptions::default();
    let (report, compress_s) = t.span("core.compress.compress", |_| compress(&network, options));

    // Then stage by stage, serially, so each stage's time is its own.
    let (ecs, ecs_s) = t.span("core.ecs.compute_ecs", |_| compute_ecs(&network, &topo));
    layers.set("core.ecs.compute_s", ecs_s, 1);
    layers.set("core.ecs.classes", ecs.len() as f64, 1);
    tally.check(report.num_ecs() == ecs.len(), || {
        format!(
            "compress() found {} classes, compute_ecs {}",
            report.num_ecs(),
            ecs.len()
        )
    });
    let (engine, build_s) = t.span("core.compress.build_engine", |_| {
        build_engine(&network, options)
    });
    layers.set("core.engine.build_s", build_s, 1);
    let (mut sig_table_s, mut refine_s, mut print_s) = (0.0, 0.0, 0.0);
    let mut abstract_nodes = 0usize;
    t.span("core.compress (per class, serial)", |t| {
        for ec in &ecs {
            let ec_dest = ec.to_ec_dest();
            let (sigs, s) = t.span("core.signatures.build_sig_table", |_| {
                build_sig_table(&engine, &network, &topo, &ec_dest)
            });
            sig_table_s += s;
            let (abstraction, s) = t.span("core.algorithm.find_abstraction", |_| {
                find_abstraction(&topo.graph, &ec_dest, &sigs)
            });
            refine_s += s;
            let (abs_net, s) = t.span("core.abstraction.build_abstract_network", |_| {
                build_abstract_network(&network, &topo, &ec_dest, &abstraction)
            });
            refine_s += s;
            let (printed, s) = t.span("config.print_network", |_| print_network(&abs_net.network));
            print_s += s;
            std::hint::black_box(printed);
            abstract_nodes += abstraction.abstract_node_count();
        }
    });
    layers.set("core.engine.sig_table_s", sig_table_s, ecs.len());
    layers.set("core.compress.refine_s", refine_s, ecs.len());
    layers.set("config.print_s", print_s, ecs.len());
    layers.set(
        "core.compress.abs_nodes_mean",
        abstract_nodes as f64 / ecs.len() as f64,
        ecs.len(),
    );
    engine_layers(layers, &engine.stats());

    let out_dir = env.dir.join("abstract");
    let args = ["compress", path_str(&config)?, "--out", path_str(&out_dir)?];
    let (wall, _) = time_cli(env, t, layers, &args, &[], &|| clear_dir(&out_dir))?;
    layers.set(
        "cli.unattributed_s",
        wall - (parse_s + compress_s + print_s),
        1,
    );
    cli_startup(env, t, layers)
}

// ---------------------------------------------------------------------
// sweep_*
// ---------------------------------------------------------------------

fn netsweep_layers(layers: &mut Layers, sweep: &NetworkSweepReport, sweep_s: f64) {
    let items = sweep.scenarios_swept();
    layers.set("verify.netsweep.sweep_s", sweep_s, 1);
    layers.set("verify.netsweep.items", items as f64, 1);
    layers.set(
        "verify.netsweep.ns_per_item",
        sweep_s * 1e9 / items as f64,
        items,
    );
    layers.set(
        "verify.netsweep.sharing_ratio",
        sweep.sharing_ratio(),
        sweep.unshared_derivations(),
    );
    layers.set(
        "verify.netsweep.refined_nodes_mean",
        crate::checks::refined_nodes_mean(sweep),
        items,
    );
    layers.set("verify.sweep.derivations", sweep.derivations as f64, 1);
}

fn trace_sweep(
    env: &Env<'_>,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
    derive: bool,
) -> Result<(), String> {
    let (config_name, network, k) = if derive {
        ("ft6pb.cfg", fattree(6, FattreePolicy::PreferBottom), 1)
    } else {
        ("ft8.cfg", fattree(8, FattreePolicy::ShortestPath), K2)
    };
    let config = env.dir.join(config_name);
    let (text, _) = t.span("harness.generate", |_| print_network(&network));
    write_text(&config, &text)?;
    let (network, topo, parse_s) = traced_parse(t, layers, &text)?;
    let options = CompressOptions::default();
    let (report, compress_s) = t.span("core.compress.compress", |_| compress(&network, options));
    layers.set("core.ecs.classes", report.num_ecs() as f64, 1);
    layers.set(
        "core.compress.abs_nodes_mean",
        report.mean_abstract_nodes(),
        report.num_ecs(),
    );
    engine_layers(layers, &report.engine);

    // The scenario layer on its own: unranking the whole plane, and the
    // two signatures every item pays for.
    let stream = ScenarioStream::new(&topo.graph, k);
    let (count, unrank_s) = t.span("core.scenarios.ScenarioStream::iter_range", |_| {
        stream
            .iter_range(0, stream.len())
            .map(|s| std::hint::black_box(s).len())
            .sum::<usize>()
    });
    tally.check(count >= stream.len(), || {
        "the stream skipped scenarios".to_string()
    });
    layers.set(
        "core.scenarios.unrank_ns_per_item",
        unrank_s * 1e9 / stream.len() as f64,
        stream.len(),
    );
    let mut quotient_s = 0.0;
    let mut class0 = None;
    for (i, comp) in report.per_ec.iter().enumerate() {
        let ec_dest = comp.ec.to_ec_dest();
        let sigs = build_sig_table(&report.policies, &network, &topo, &ec_dest);
        let orbits = link_orbits(&topo.graph, &comp.abstraction, &sigs);
        let (canon, s) = t.span("core.scenarios.quotient_canon", |_| {
            quotient_canon(&topo.graph, &ec_dest, &comp.abstraction, &sigs, &orbits)
        });
        quotient_s += s;
        if i == 0 {
            class0 = Some((orbits, canon));
        }
    }
    layers.set(
        "core.scenarios.quotient_canon_s",
        quotient_s,
        report.num_ecs(),
    );
    let (orbits, canon) = class0.ok_or("the network has no destination class")?;
    let mut rng = Rng::new(env.seed);
    let sampled: Vec<FailureScenario> = (0..100_000)
        .map(|_| stream.get(rng.below(stream.len())))
        .collect();
    let (known, sig_s) = t.span("core.scenarios.LinkOrbits::signature_of", |_| {
        sampled
            .iter()
            .filter(|s| std::hint::black_box(orbits.signature_of(s)).is_some())
            .count()
    });
    tally.check(known == sampled.len(), || {
        "a streamed scenario had no orbit signature".to_string()
    });
    layers.set(
        "core.scenarios.signature_ns_per_item",
        sig_s * 1e9 / sampled.len() as f64,
        sampled.len(),
    );
    if let Some(canon) = &canon {
        let (_, canon_s) = t.span("core.scenarios.canonical_signature_of", |_| {
            sampled
                .iter()
                .filter(|s| {
                    std::hint::black_box(canonical_signature_of(&orbits, canon, s)).is_some()
                })
                .count()
        });
        layers.set(
            "core.scenarios.canon_sig_ns_per_item",
            canon_s * 1e9 / sampled.len() as f64,
            sampled.len(),
        );
    }

    // The solver on the concrete network of class 0: cold from ⊥, and
    // repairing the failure-free fixpoint.
    srp_layers(t, layers, &network, &topo, &report, &sampled[..256])?;

    // One derivation per distinct signature of class 0, every cache
    // bypassed.
    let comp = &report.per_ec[0];
    let ec_dest = comp.ec.to_ec_dest();
    let signatures: std::collections::BTreeSet<_> = stream
        .iter()
        .filter_map(|s| orbits.signature_of(&s))
        .collect();
    let sweep_opts = sweep_options(k, 1, false).sweep;
    let mut derive_us = Vec::new();
    for signature in signatures.iter().take(64) {
        let (derived, s) = t.span("verify.sweep.derive_refinement", |_| {
            derive_refinement(
                &network,
                &topo,
                &ec_dest,
                &comp.abstraction,
                &comp.abstract_network,
                &report.policies,
                &sweep_opts,
                signature,
            )
        });
        tally.check(derived.is_ok(), || {
            format!("derive_refinement failed: {:?}", derived.as_ref().err())
        });
        derive_us.push(s * 1e6);
    }
    layers.set(
        "verify.sweep.derive_us",
        median(&derive_us),
        derive_us.len(),
    );

    // The sweep itself: serially, as the workload's command runs it, and
    // fanned over every core for `core.fanout.speedup_x`. A process's
    // first multi-threaded sweep also pays for thread and allocator-arena
    // start-up, so the fanned sweep runs on both sides of the serial one
    // and the faster of the two counts.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fan = |t: &mut Tracer| {
        let (sweep, s) = t.span("verify.netsweep.sweep_network (nproc threads)", |_| {
            sweep_network(&network, &topo, &report, &sweep_options(k, nproc, derive))
        });
        sweep
            .map(|sweep| (sweep, s))
            .map_err(|e| format!("sweep: {e}"))
    };
    let first = fan(t)?;
    let (serial, serial_s) = t.span("verify.netsweep.sweep_network (1 thread)", |_| {
        sweep_network(&network, &topo, &report, &sweep_options(k, 1, derive))
    });
    let serial = serial.map_err(|e| format!("sweep: {e}"))?;
    let second = fan(t)?;
    let (fanned, fanned_s) = if first.1 <= second.1 { first } else { second };
    tally.check(serial.scenarios_swept() == fanned.scenarios_swept(), || {
        "the fanned sweep covered another plane than the serial one".to_string()
    });
    layers.set("core.fanout.speedup_x", serial_s / fanned_s, nproc);
    netsweep_layers(layers, &serial, serial_s);

    let k_arg = k.to_string();
    let json = env.dir.join("sweep.json");
    let (config_arg, json_arg) = (path_str(&config)?, path_str(&json)?);
    let with_json = sweep_args(true, config_arg, &k_arg, json_arg);
    let aggregate = sweep_args(false, config_arg, &k_arg, json_arg);
    let wall = if derive {
        let (wall, others) = time_cli(env, t, layers, &with_json, &[&aggregate], &|| Ok(()))?;
        layers.set("cli.encode_s", wall - others[0], 1);
        wall
    } else {
        time_cli(env, t, layers, &aggregate, &[], &|| Ok(()))?.0
    };
    layers.set(
        "cli.unattributed_s",
        wall - (parse_s + compress_s + serial_s),
        1,
    );
    cli_startup(env, t, layers)
}

/// Cold and warm concrete solves of class 0 under the given scenarios.
fn srp_layers(
    t: &mut Tracer,
    layers: &mut Layers,
    network: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
    scenarios: &[FailureScenario],
) -> Result<(), String> {
    let ec_dest = report.per_ec[0].ec.to_ec_dest();
    let origins = ec_dest.origins.iter().map(|(n, _)| *n).collect();
    let srp = Srp::with_origins(
        &topo.graph,
        origins,
        MultiProtocol::build(network, topo, &ec_dest),
    );
    let base = solve(&srp).map_err(|e| format!("failure-free solve: {e}"))?;
    let order: Vec<_> = topo.graph.nodes().collect();
    let (mut cold_us, mut warm_us, mut updates) = (Vec::new(), Vec::new(), 0usize);
    for scenario in scenarios {
        let mask = scenario.mask(&topo.graph);
        let (cold, s) = t.span("srp.solver.solve_masked", |_| {
            solve_masked(&srp, Some(&mask))
        });
        cold.map_err(|e| format!("cold solve: {e}"))?;
        cold_us.push(s * 1e6);
        let (warm, s) = t.span("srp.solver.solve_warm_masked", |_| {
            solve_warm_masked(&srp, &base, SolverOptions::default(), &mask)
        });
        warm.map_err(|e| format!("warm solve: {e}"))?;
        warm_us.push(s * 1e6);
        let (_, stats) =
            solve_with_order_masked_stats(&srp, &order, SolverOptions::default(), Some(&mask))
                .map_err(|e| format!("counted solve: {e}"))?;
        updates += stats.updates;
    }
    let n = scenarios.len();
    layers.set("srp.solve_cold_us", median(&cold_us), n);
    layers.set("srp.solve_warm_us", median(&warm_us), n);
    layers.set("srp.updates_per_solve", updates as f64 / n as f64, n);
    Ok(())
}

// ---------------------------------------------------------------------
// serve_cycle
// ---------------------------------------------------------------------

fn to_query(r: &Request) -> QueryRequest {
    if r.is_reach {
        QueryRequest::Reach {
            src: r.src.clone(),
            dst: r.dst.clone(),
            links: r.links.clone(),
        }
    } else {
        QueryRequest::Path {
            src: r.src.clone(),
            dst: r.dst.clone(),
            links: r.links.clone(),
            waypoints: r.waypoints.clone(),
        }
    }
}

/// One in-process pass of the request list; per-query latency in µs.
fn session_pass(
    t: &mut Tracer,
    name: &'static str,
    session: &Session,
    queries: &[QueryRequest],
    tally: &mut Tally,
) -> Vec<f64> {
    let (latencies, _) = t.span(name, |_| {
        queries
            .iter()
            .map(|q| {
                let begun = Instant::now();
                let answer = session.query(q);
                let took = begun.elapsed().as_secs_f64() * 1e6;
                tally.check(answer.is_ok(), || {
                    format!("{q:?}: {:?}", answer.as_ref().err())
                });
                took
            })
            .collect::<Vec<f64>>()
    });
    latencies
}

/// The value of a Prometheus sample inside the JSON-escaped `metrics`
/// body (`…\ndaemon_errors_total 0\n…`, newlines escaped).
pub fn scraped(metrics_reply: &str, name: &str) -> Option<f64> {
    let marker = format!("\\n{name} ");
    let rest = &metrics_reply[metrics_reply.find(&marker)? + marker.len()..];
    let end = rest.find("\\n").unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Wire cycles of the traced run after the cold pass: B, A, B, A.
const TRACED_CYCLES: usize = 4;

fn trace_serve(
    env: &Env<'_>,
    t: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let inputs = serve_inputs(env)?;
    let queries: Vec<QueryRequest> = inputs.requests.iter().map(to_query).collect();
    let options = SessionOptions {
        max_failures: K2,
        threads: 1,
        ..Default::default()
    };
    let (session, build_s) = t.span("verify.session.SessionBuilder::build", |_| {
        Session::builder(inputs.network.clone())
            .options(options)
            .build()
    });
    let session = session.map_err(|e| format!("session build: {e}"))?;
    layers.set("verify.session.build_s", build_s, 1);
    layers.set("core.ecs.classes", session.classes() as f64, 1);
    // Before any query: the refinement-only snapshot a restart would read.
    let (bare_snapshot, _) = t.span("verify.session.Session::snapshot_json", |_| {
        session.snapshot_json()
    });

    let cold = session_pass(
        t,
        "verify.session.Session::query (cold pass)",
        &session,
        &queries,
        tally,
    );
    let after_cold = session.stats();
    layers.set("verify.session.query_cold_us", median(&cold), cold.len());
    layers.set(
        "verify.session.solver_updates",
        after_cold.solver_updates as f64,
        1,
    );
    layers.set("verify.session.memo_bytes", after_cold.memo_bytes as f64, 1);
    let warm = session_pass(
        t,
        "verify.session.Session::query (warm pass)",
        &session,
        &queries,
        tally,
    );
    let after_warm = session.stats();
    let warm_p50 = median(&warm);
    layers.set("verify.session.query_warm_us", warm_p50, warm.len());
    layers.set(
        "verify.session.verdict_hit_rate",
        after_warm.verdict_cache_hits as f64 / after_warm.queries.max(1) as f64,
        after_warm.queries,
    );
    tally.check(
        after_warm.solver_updates == after_cold.solver_updates,
        || "the warm pass ran the solver".to_string(),
    );
    let (share, _) = t.span("harness.check (lifted answers vs concrete)", |_| {
        lifted_mismatch_share(layers, &session, &inputs.network, &inputs.requests)
    });
    share?;

    // The layers under a reload, each on its own…
    let (delta, diff_s) = t.span("core.delta.diff_configs", |_| {
        diff_configs(&inputs.network, &inputs.edited, false)
    });
    tally.check(delta.is_incremental() && !delta.is_empty(), || {
        format!("the edit is not an incremental delta: {delta:?}")
    });
    layers.set("core.delta.diff_s", diff_s, 1);
    let compress_options = CompressOptions::default();
    let report = compress(&inputs.network, compress_options);
    engine_layers(layers, &report.engine);
    let (dr, delta_s) = t.span("core.compress.recompress_delta", |_| {
        recompress_delta(&report, &inputs.network, &inputs.edited, compress_options)
    });
    layers.set("core.compress.recompress_delta_s", delta_s, 1);
    layers.set(
        "core.compress.classes_rederived",
        dr.rederived.len() as f64,
        1,
    );
    layers.set(
        "core.delta.fingerprints_moved",
        dr.fingerprints_moved as f64,
        1,
    );
    let edited_topo =
        BuiltTopology::build(&inputs.edited).map_err(|e| format!("edited topology: {e}"))?;
    let (subset, subset_s) = t.span("verify.netsweep.sweep_network_subset", |_| {
        sweep_network_subset(
            &inputs.edited,
            &edited_topo,
            &dr.report,
            &sweep_options(K2, 1, true),
            &dr.rederived,
        )
    });
    subset.map_err(|e| format!("subset sweep: {e}"))?;
    layers.set("verify.netsweep.subset_sweep_s", subset_s, 1);

    // …and the reload as the session does it, memos included.
    let (reloaded, reload_s) = t.span("verify.session.Session::reload", |_| {
        session.reload(inputs.edited.clone())
    });
    let (_, outcome) = reloaded.map_err(|e| format!("session reload: {e}"))?;
    layers.set("verify.session.reload_s", reload_s, 1);
    let verdicts = outcome.verdicts_kept + outcome.verdicts_dropped;
    layers.set(
        "verify.session.verdicts_kept_share",
        outcome.verdicts_kept as f64 / verdicts.max(1) as f64,
        verdicts,
    );
    drop(session);

    // What a restart costs per remembered answer: the refinement-only
    // snapshot, then one that also carries the answers of 256 queries.
    // (Restoring the answers of a whole pass takes minutes — PR 11
    // measured 225 s for 27 k — the per-answer figure is what shows it.)
    let restore = |t: &mut Tracer, snapshot: &str| {
        let (restored, s) = t.span("verify.session.SessionBuilder::restore", |_| {
            Session::builder(inputs.network.clone())
                .options(options)
                .restore(snapshot)
        });
        restored
            .map(|r| (r, s))
            .map_err(|e| format!("snapshot restore: {e}"))
    };
    let (restored, restore_s) = restore(t, &bare_snapshot)?;
    session_pass(
        t,
        "verify.session.Session::query (256 on the restored session)",
        &restored,
        &queries[..256],
        tally,
    );
    let answers = restored.stats().verdict_memo + restored.stats().path_memo;
    let (_, with_answers_s) = restore(t, &restored.snapshot_json())?;
    layers.set(
        "verify.session.restore_ms_per_answer",
        (with_answers_s - restore_s) * 1e3 / answers.max(1) as f64,
        answers,
    );
    drop(restored);

    // The same cycle on the wire: one connection, a cold pass, then
    // pushes with the list replayed after each; client and daemon on one
    // CPU, as in the end-to-end run.
    pin_to_one_cpu();
    let (daemon, _) = t.span("daemon (spawn to first ping)", |_| {
        Daemon::spawn(env.bin, &inputs.configs[0], env.dir, K2)
    });
    let daemon = daemon?;
    let mut client = LineClient::connect(&daemon.socket)?;
    let (pass, _) = t.span("daemon (wire, cold pass)", |_| {
        replay(&mut client, &inputs.requests, Expect::Record, true)
    });
    let mut pass = pass?;
    absorb_replay(tally, &pass, "wire cold pass");
    layers.set(
        "daemon.cold_p50_us",
        median(&pass.latencies_us),
        pass.latencies_us.len(),
    );
    let mut recorded = [std::mem::take(&mut pass.replies), Vec::new()];
    let (mut reload_ms, mut replay_us) = (Vec::new(), Vec::new());
    for cycle in 0..TRACED_CYCLES {
        let target = (cycle + 1) % 2;
        let (pushed, _) = t.span("daemon (wire, reload)", |_| {
            push_config(&mut client, &inputs.configs[target], tally)
        });
        reload_ms.push(pushed?);
        let expect = if recorded[target].is_empty() {
            Expect::Record
        } else {
            Expect::Same(&recorded[target])
        };
        let (pass, _) = t.span("daemon (wire, replay)", |_| {
            replay(&mut client, &inputs.requests, expect, true)
        });
        let mut pass = pass?;
        absorb_replay(tally, &pass, "wire replay");
        replay_us.append(&mut pass.latencies_us);
        if recorded[target].is_empty() {
            recorded[target] = pass.replies;
        }
    }
    layers.set("daemon.reload_p50_ms", median(&reload_ms), reload_ms.len());
    replay_us.sort_by(f64::total_cmp);
    let replay_p50 = quantile_sorted(&replay_us, 0.5);
    layers.set("daemon.replay_p50_us", replay_p50, replay_us.len());
    layers.set(
        "daemon.replay_p99_us",
        quantile_sorted(&replay_us, 0.99),
        replay_us.len(),
    );
    layers.set(
        "daemon.wire_overhead_us",
        replay_p50 - warm_p50,
        replay_us.len(),
    );
    let scrape = client
        .call("{\"op\": \"metrics\"}\n")
        .map_err(|e| format!("metrics: {e}"))?
        .to_string();
    for (metric, sample) in [
        ("daemon.errors", "daemon_errors_total"),
        ("daemon.shed", "daemon_query_shed"),
    ] {
        let value = scraped(&scrape, sample)
            .ok_or_else(|| format!("{sample} missing from the metrics scrape"))?;
        layers.set(metric, value, 1);
    }
    drop(client);
    daemon.shutdown()
}

/// The known lifted-answer defect, as a share: two-failure `reach`
/// answers of the session against the concrete simulation (see
/// `checks::check_sweep_output`). A fix drives this to 0.
fn lifted_mismatch_share(
    layers: &mut Layers,
    session: &Session,
    network: &NetworkConfig,
    requests: &[Request],
) -> Result<(), String> {
    let engine = SimEngine::new(network);
    let (mut compared, mut mismatched) = (0usize, 0usize);
    for r in requests
        .iter()
        .filter(|r| r.is_reach && r.links.len() == 2)
        .take(2000)
    {
        let answers = session
            .reach(&r.src, &r.dst, &r.links)
            .map_err(|e| format!("{}: {e}", r.line.trim_end()))?;
        let answers: Vec<(String, bool)> = answers
            .into_iter()
            .map(|a| (a.prefix, a.delivered))
            .collect();
        compared += 1;
        mismatched += usize::from(reach_reply(&answers) != expected_reach_reply(&engine, r)?);
    }
    layers.set(
        "verify.session.lifted_mismatch_share",
        mismatched as f64 / compared.max(1) as f64,
        compared,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "stage", 10, 40),
            span(2, Some(1), "inner", 15, 25),
            span(3, Some(0), "stage", 50, 90),
        ];
        let rows = span_rows(&spans);
        let row = |name, calls, total_ns, self_ns| SpanRow {
            name,
            calls,
            total_ns,
            self_ns,
        };
        assert_eq!(
            rows,
            vec![
                row("root", 1, 100, 30),
                row("stage", 2, 70, 60),
                row("inner", 1, 10, 10),
            ]
        );
        // Self times partition the root.
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let ((), outer_s) = t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[1].start_ns >= spans[0].start_ns);
        assert!(outer_s >= 0.002);
    }

    #[test]
    fn prometheus_samples_are_read_from_the_escaped_body() {
        let reply = "{\"ok\": true, \"op\": \"metrics\", \"body\": \"# HELP x\\ndaemon_requests_total 40012\\ndaemon_query_shed 0\\n\"}";
        assert_eq!(scraped(reply, "daemon_requests_total"), Some(40012.0));
        assert_eq!(scraped(reply, "daemon_query_shed"), Some(0.0));
        assert_eq!(scraped(reply, "daemon_errors_total"), None);
    }
}
