//! The `bonsai` command-line tool: compress a network configuration file.
//!
//! The command line — every subcommand, its arguments, its flags — is
//! declared once, in [`bonsai::cli::args::COMMANDS`]; `bonsai help` prints
//! it, and this file reads flags only through the table's
//! [`Matches`](bonsai::cli::args::Matches). A command line the table does
//! not accept (an unknown, misplaced, repeated or valueless flag, a wrong
//! argument count) exits 2 with the offender named and the usage text,
//! before any file is read; an I/O, parse or verification failure exits 1.
//!
//! Every subcommand also takes `--trace <path>`: every
//! pipeline stage then appends one JSON line per span/event to `<path>`
//! (see `docs/OBSERVABILITY.md`). Tracing never changes results — the
//! sweep output is byte-identical with it on or off.
//!
//! The input format is the vendor-independent dialect documented in
//! `bonsai_config::parse` (`device <name> … end` blocks plus `link` lines).
//! Every command also accepts a *directory* of `.cfg` files, concatenated
//! in name order — the usual layout of per-device config dumps — or a
//! builtin generator spec (`gen:fattree4`, `gen:gadget`, `gen:diamond`,
//! `gen:mesh10`, `gen:datacenter`) in place of the path.
//! `compress` writes one abstract network per destination equivalence
//! class (`<out>/<prefix>.cfg`, streamed: printed, written and dropped by
//! the worker that built it — [`bonsai::cli::compress_streamed`]) and
//! prints a Table 1-style summary row.
//! `failures` runs the **network-level** sweep orchestrator
//! (`bonsai_verify::netsweep`) over the (scenario × destination class)
//! product, sharing refinements across symmetric classes; it prints
//! per-class refinement sizes, the orbit-cache hit rate and the cross-EC
//! sharing statistics. `--query a:d` additionally answers "which prefixes
//! of `d` can `a` still reach" per failure scenario on the refined
//! abstract networks; `--json` emits the whole report machine-readable
//! (to stdout, or to a file when a path follows the flag).
//! Scenarios stream through chunked ranges (`--chunk-size`, default
//! [`bonsai::verify::netsweep::DEFAULT_CHUNK_SIZE`]) — the full scenario
//! set is never materialized. `--shard i/n` sweeps only the `i`-th of `n`
//! signature-class shards and writes a partial document (requires
//! `--json`, excludes `--query`); `--merge` reads one document per shard
//! and reassembles the full report **byte-identical** to the unsharded
//! `--json` output (run every shard with the same flags and
//! `--threads 1` — parallel schedules may race duplicate derivations).
//! `serve` loads
//! a config set once (building the compressed session, or restoring it
//! warm from `--snapshot` when that file exists — and saving one there
//! after a cold build) and answers the `bonsai_daemon` line-JSON protocol
//! on the Unix socket and/or TCP listener until a `shutdown` request,
//! re-saving the snapshot *answer-warm* on the way out; the `--max-*` and
//! `--idle-timeout` flags set the serving limits documented in
//! `docs/PROTOCOL.md` (`--idle-timeout 0` never reaps). `query` is the
//! matching client and needs no network file.

use bonsai::cli::args::{self, Invocation, Matches, UsageError};
use bonsai::cli::{
    compress_streamed, compress_summary_line, first_emit_error, DiffDoc, FailuresDoc, QueryDoc,
    RederivedDoc,
};
use bonsai::core::compress::{compress, compress_each, recompress_delta, CompressOptions};
use bonsai::core::engine::CompiledPolicies;
use bonsai::core::roles::{count_roles, RoleOptions};
use bonsai::core::snapshot::Json;
use bonsai::daemon::{render_control, render_error, render_query, Client, Server, ServerOptions};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai::verify::netsweep::{
    sweep_network, sweep_network_subset, NetworkSweepOptions, NetworkSweepReport, ShardSpec,
};
use bonsai::verify::query::QueryStats;
use bonsai::verify::session::{QueryRequest, Session, SessionOptions};
use bonsai::verify::sweep::{scenario_verdict, ScenarioRefinement, SweepOptions};
use bonsai_config::{parse_network, print_network, BuiltTopology, NetworkConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every write to stdout goes through here (the [`out!`] / [`outln!`]
/// macros). A reader that has seen enough and closed the pipe (`bonsai
/// failures … | head`) is not a bug of this program: the write fails with
/// `BrokenPipe` and the process exits quietly, with the status a SIGPIPE
/// death would have left (128 + 13) — no message, no backtrace. Any other
/// write error is the panic `println!` would have raised.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Why the process exits nonzero: the status — 2 for a command line the
/// table or a subcommand's cross-flag rule rejects, 1 for an I/O, parse
/// or verification failure — and what stderr says about it.
struct Failure {
    code: u8,
    message: String,
}

impl From<UsageError> for Failure {
    fn from(e: UsageError) -> Self {
        Failure {
            code: 2,
            message: e.0,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure { code: 1, message }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure { code, message }) => {
            eprintln!("{}", message.trim_end());
            ExitCode::from(code)
        }
    }
}

fn run() -> Result<(), Failure> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let m = match args::resolve(&argv)? {
        Invocation::Help(text) => {
            out!("{text}");
            return Ok(());
        }
        Invocation::Run(m) => m,
    };
    // `--trace <path>` turns on the structured tracer for the rest of the
    // process — install it before any stage runs.
    if let Some(path) = m.value("--trace") {
        bonsai::obs::trace_to(Path::new(path)).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    // `query` and `metrics` talk to a running bonsaid, `diff` loads two
    // networks itself and `failures --merge` works on written shard
    // documents alone: none of them has the one network the rest load.
    match m.command().name {
        "query" => return cmd_query(&m),
        "metrics" => return cmd_metrics(&m),
        "diff" => return cmd_diff(&m),
        "failures" if !m.values("--merge").is_empty() => return cmd_merge(&m),
        _ => {}
    }
    let spec = m
        .positionals()
        .first()
        .ok_or_else(|| m.usage("missing network file"))?;
    let (network, topo) = load_network(spec)?;
    match m.command().name {
        // Round-trips the parsed network to canonical config text —
        // chiefly for materializing `gen:` specs into editable files
        // (the delta-smoke workflow: print, edit one stanza, `diff`).
        "print" => out!("{}", print_network(&network)),
        "ecs" => cmd_ecs(&network, &topo),
        "roles" => cmd_roles(&m, &network),
        "compress" => return cmd_compress(&m, &network),
        "check" => return cmd_check(&m, &network),
        "failures" => return cmd_failures(&m, &network, &topo),
        "serve" => return cmd_serve(&m, &network),
        other => unreachable!("`{other}` is a row of the table without a handler"),
    }
    Ok(())
}

/// Reads a network source: one config file, a directory whose `.cfg`
/// files are concatenated in name order, or a `gen:<name>` builtin
/// generator spec (handy for trying `serve` without config dumps).
fn read_network_text(path: &str) -> Result<String, String> {
    if let Some(spec) = path.strip_prefix("gen:") {
        let net = match spec {
            "fattree4" => bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath),
            "fattree6" => bonsai::topo::fattree(6, bonsai::topo::FattreePolicy::ShortestPath),
            "fattree8" => bonsai::topo::fattree(8, bonsai::topo::FattreePolicy::ShortestPath),
            "gadget" => bonsai::srp::papernets::figure2_gadget(),
            "diamond" => bonsai::srp::papernets::figure1_rip(),
            "mesh10" => bonsai::topo::full_mesh(10),
            "datacenter" => bonsai::topo::datacenter(Default::default()),
            other => {
                return Err(format!(
                    "unknown generator `gen:{other}` \
                     (try fattree4, fattree6, fattree8, gadget, diamond, mesh10, datacenter)"
                ))
            }
        };
        return Ok(print_network(&net));
    }
    let p = Path::new(path);
    if !p.is_dir() {
        return std::fs::read_to_string(p).map_err(|e| format!("cannot read {path}: {e}"));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(p)
        .map_err(|e| format!("cannot read directory {path}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|f| f.extension().is_some_and(|ext| ext == "cfg"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no .cfg files in directory"));
    }
    let mut text = String::new();
    for f in &files {
        text.push_str(
            &std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?,
        );
        text.push('\n');
    }
    Ok(text)
}

/// Reads, parses and builds the network `spec` names — the one loader
/// behind every `<network>`, `<old>` and `<new>` argument.
fn load_network(spec: &str) -> Result<(NetworkConfig, BuiltTopology), String> {
    let text = read_network_text(spec)?;
    let _span = bonsai::obs::span!("cli.parse", bytes = text.len());
    let network = parse_network(&text).map_err(|e| format!("{spec}: {e}"))?;
    let topo = BuiltTopology::build(&network).map_err(|e| format!("{spec}: {e}"))?;
    Ok((network, topo))
}

/// Where a `--json [path]` document goes: into the file (announced on
/// stdout), or onto stdout itself.
fn emit_json(doc: &str, path: Option<&str>) -> Result<(), Failure> {
    match path {
        None => out!("{doc}"),
        Some(path) => {
            std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            outln!("wrote {path}");
        }
    }
    Ok(())
}

/// The daemon that `--socket <path>` (preferred) or `--tcp <addr>` names,
/// and the attempt to reach it; `None` when neither flag was given.
fn connect(m: &Matches) -> Option<(&str, std::io::Result<Client>)> {
    match (m.value("--socket"), m.value("--tcp")) {
        (Some(path), _) => Some((path, Client::connect(Path::new(path)))),
        (None, Some(addr)) => Some((addr, Client::connect_tcp(addr))),
        (None, None) => None,
    }
}

fn compress_options(m: &Matches) -> CompressOptions {
    CompressOptions {
        strip_unused_communities: m.switch("--strip-unused-communities"),
        ..Default::default()
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn cmd_ecs(network: &NetworkConfig, topo: &BuiltTopology) {
    let ecs = bonsai::core::ecs::compute_ecs(network, topo);
    outln!("{} destination equivalence classes:", ecs.len());
    for ec in &ecs {
        let origins: Vec<&str> = ec
            .origins
            .iter()
            .map(|(n, _)| network.devices[n.index()].name.as_str())
            .collect();
        outln!(
            "  {} ({} range{}) originated at {origins:?}",
            ec.rep,
            ec.ranges.len(),
            plural(ec.ranges.len()),
        );
    }
}

fn cmd_roles(m: &Matches, network: &NetworkConfig) {
    let options = RoleOptions {
        strip_unused_communities: m.switch("--strip-unused-communities"),
        ignore_static_routes: m.switch("--ignore-static"),
    };
    outln!(
        "{} roles among {} devices{}{}",
        count_roles(network, options),
        network.devices.len(),
        if options.strip_unused_communities {
            " (unused tags stripped)"
        } else {
            ""
        },
        if options.ignore_static_routes {
            " (static routes ignored)"
        } else {
            ""
        },
    );
}

/// `bonsai compress`: the span covers the emit stage too when `--out` is
/// given — every class is printed and written inside the worker that
/// built it. The summary row is printed before a failed write is
/// reported (the lowest failing class, whatever the schedule).
fn cmd_compress(m: &Matches, network: &NetworkConfig) -> Result<(), Failure> {
    let out_dir = m.value("--out").map(Path::new);
    let report = {
        let _span = bonsai::obs::span!("cli.compress", devices = network.devices.len());
        compress_streamed(network, compress_options(m), out_dir).map_err(|e| e.to_string())?
    };
    outln!("{}", compress_summary_line(&report));
    if let Some(e) = first_emit_error(&report) {
        return Err(e.to_string().into());
    }
    if let Some(dir) = out_dir {
        outln!(
            "wrote {} abstract networks to {}",
            report.num_ecs(),
            dir.display()
        );
    }
    Ok(())
}

/// `bonsai check`: each class is checked inside the worker that
/// compressed it and dropped after its verdict; the failures print in
/// class order. The check solves the class's layout (its lifted SRP
/// instance), so nothing is rendered. The attribute abstraction `h` — one
/// scan of the network for the communities any configuration matches — is
/// built once for the run and shared by every class's check.
fn cmd_check(m: &Matches, network: &NetworkConfig) -> Result<(), Failure> {
    let options = compress_options(m);
    let h = options
        .strip_unused_communities
        .then(|| CompiledPolicies::from_network(network, true));
    let report = compress_each(network, options, |_, ec, topo| {
        check_cp_equivalence(
            network,
            topo,
            &ec.ec.to_ec_dest(),
            &ec.abstraction,
            &ec.abstract_network,
            4,
            h.as_ref(),
        )
        .map_err(|e| format!("class {}: {e}", ec.ec.rep))
    });
    let mut failed: Vec<String> = report
        .per_ec
        .iter()
        .filter_map(|verdict| verdict.as_ref().err().cloned())
        .collect();
    if failed.is_empty() {
        outln!(
            "CP-equivalence verified for all {} classes",
            report.num_ecs()
        );
        return Ok(());
    }
    failed.push(format!("{} classes FAILED", failed.len()));
    Err(failed.join("\n").into())
}

/// `bonsai failures --merge <shard.json>...`: reassembles one document
/// per shard ([`bonsai::cli::FailuresDoc`]) into the full sweep
/// document, byte-identical to what the unsharded sweep writes. Pure
/// document surgery — no network file, no re-verification.
fn cmd_merge(m: &Matches) -> Result<(), Failure> {
    let mut docs = Vec::new();
    for p in m.values("--merge") {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        docs.push(FailuresDoc::parse(&text).map_err(|e| format!("{p}: {e}"))?);
    }
    let merged = FailuresDoc::merge(docs).map_err(|e| format!("--merge: {e}"))?;
    emit_json(&merged.render(), m.optional("--json").flatten())
}

/// Answers `--query src:dst`: for every class originated at `dst`, in
/// how many swept scenarios does `src` deliver? Every scenario is answered
/// by [`scenario_verdict`] — on its own compressed refinement wherever the
/// sweep verified one at stage 1, the point of the sweep — exactly as a
/// resident session answers it.
fn answer_query(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    sweep: &NetworkSweepReport,
    report: &bonsai::core::compress::CompressionReport,
    (src, dst): (&str, &str),
) -> Result<Vec<QueryDoc>, String> {
    let node = |name: &str| {
        topo.graph
            .node_by_name(name)
            .ok_or_else(|| format!("--query: unknown device `{name}`"))
    };
    let (src_node, dst_node) = (node(src)?, node(dst)?);
    let mut stats = QueryStats::default();
    let mut answers = Vec::new();
    for (comp, ec_sweep) in report.per_ec.iter().zip(&sweep.per_ec) {
        if !comp.ec.origins.iter().any(|(n, _)| *n == dst_node) {
            continue;
        }
        let mut delivered = 0usize;
        for outcome in &ec_sweep.report.outcomes {
            let held = ec_sweep.report.refinements.get(&outcome.signature);
            let (ec, scenario) = (&comp.ec, &outcome.scenario);
            // The class handle is the one the held refinement refines.
            let class = held.map(ScenarioRefinement::class);
            let reach = scenario_verdict(network, topo, ec, class, held, scenario, &mut stats)
                .map_err(|e| format!("query under {}: {e}", scenario.describe(&topo.graph)))?;
            if reach[src_node.index()] {
                delivered += 1;
            }
        }
        answers.push(QueryDoc {
            src: src.to_string(),
            dst: dst.to_string(),
            prefix: comp.ec.rep.to_string(),
            delivered,
            scenarios: ec_sweep.report.outcomes.len(),
        });
    }
    Ok(answers)
}

/// `bonsai failures <network>`: the network-level sweep.
fn cmd_failures(m: &Matches, network: &NetworkConfig, topo: &BuiltTopology) -> Result<(), Failure> {
    let k = m.parsed("--failures", 1)?;
    let json = m.optional("--json");
    let query = m.pair("--query")?;
    // `--shard i/n`: sweep only the i-th of n signature-class shards. The
    // partial document only makes sense machine-readable (it feeds
    // `--merge`), and per-class query answers over a partial sweep would
    // be silently wrong.
    let shard = match m.value("--shard") {
        None => None,
        Some(s) => Some(
            s.split_once('/')
                .and_then(|(i, n)| ShardSpec::new(i.parse().ok()?, n.parse().ok()?).ok())
                .ok_or_else(|| m.usage(format!("--shard expects <i>/<n> with i < n, got `{s}`")))?,
        ),
    };
    if shard.is_some() && json.is_none() {
        return Err(m
            .usage("--shard writes a partial document and requires --json")
            .into());
    }
    if shard.is_some() && query.is_some() {
        return Err(m
            .usage("--query needs the full sweep; drop --shard (or merge first)")
            .into());
    }
    let pruned = m.switch("--pruned");
    let share = !m.switch("--no-share");
    // `--aggregate`: keep only the integer outcome statistics, never the
    // per-scenario outcome list — peak resident scenarios stays O(chunk)
    // instead of O(C(links, k)), which is what makes billion-scenario
    // sweeps fit in memory. The JSON document and `--query` need the full
    // outcome list.
    let aggregate = m.switch("--aggregate");
    if aggregate && json.is_some() {
        return Err(m
            .usage("--aggregate keeps no per-scenario outcomes; drop --json")
            .into());
    }
    if aggregate && query.is_some() {
        return Err(m
            .usage("--query needs per-scenario outcomes; drop --aggregate")
            .into());
    }
    let sweep_options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            prune_symmetric: pruned,
            threads: m.parsed("--threads", 0)?,
            ..Default::default()
        },
        share_across_ecs: share,
        chunk_size: m.parsed("--chunk-size", 0)?,
        collect_outcomes: !aggregate,
        shard,
        ..Default::default()
    };
    let report = {
        let _span = bonsai::obs::span!("cli.compress", devices = network.devices.len());
        compress(network, compress_options(m))
    };
    let sweep = {
        let _span = bonsai::obs::span!("cli.sweep", k = k, classes = report.num_ecs());
        sweep_network(network, topo, &report, &sweep_options)
            .map_err(|e| format!("network sweep failed: {e}"))?
    };
    let answers = match query {
        Some(pair) => answer_query(network, topo, &sweep, &report, pair)?,
        None => Vec::new(),
    };

    // Bare `--json` replaces the human output on stdout; with a path, the
    // document is written alongside the table.
    let doc = json.map(|path| {
        let doc = FailuresDoc::from_sweep(topo, &sweep, pruned, share, answers.clone());
        (doc.render(), path)
    });
    if let Some((doc, None)) = &doc {
        return emit_json(doc, None);
    }

    outln!(
        "network failure sweep: k={k}, {} classes, {}, sharing {}",
        sweep.per_ec.len(),
        if pruned {
            "pruned enumeration"
        } else {
            "exhaustive enumeration"
        },
        if share { "on" } else { "off" },
    );
    outln!(
        "cross-EC: {} derivations for {} refinements ({} exact + {} symmetric \
         transfers, sharing ratio {:.0}%, {} fingerprint{})",
        sweep.derivations,
        sweep.unshared_derivations(),
        sweep.exact_transfers,
        sweep.symmetric_transfers,
        sweep.sharing_ratio() * 100.0,
        sweep.distinct_fingerprints,
        plural(sweep.distinct_fingerprints),
    );
    outln!(
        "streamed {} scenario items in chunks of {}, peak resident {}{}",
        sweep.scenarios_streamed,
        sweep.chunk_size,
        sweep.peak_resident_scenarios,
        match sweep.shard {
            Some(shard) => format!(" (shard {}/{})", shard.index(), shard.of()),
            None => String::new(),
        },
    );
    for ec in &sweep.per_ec {
        outln!(
            "class {}: {} scenarios ({} exhaustive), {} refinements ({} derived here), \
             cache hit rate {:.0}%, base {} -> mean {:.1} / max {} abstract nodes",
            ec.rep,
            ec.report.scenarios_swept(),
            ec.report.scenarios_exhaustive,
            ec.report.refinements.len(),
            ec.report.derivations,
            ec.report.cache_hit_rate() * 100.0,
            ec.report.base_abstract_nodes,
            ec.report.mean_refined_nodes(),
            ec.report.max_refined_nodes(),
        );
        for r in ec.report.refinements.values() {
            outln!(
                "  {} -> {} nodes (+{} split, {}, {})",
                r.representative.describe(&topo.graph),
                r.refined_nodes(),
                r.split.len(),
                r.how(),
                r.provenance.as_str(),
            );
        }
    }
    if let Some((src, dst)) = query {
        for a in &answers {
            outln!(
                "query {src} -> {dst}: {} delivered in {}/{} scenarios{}",
                a.prefix,
                a.delivered,
                a.scenarios,
                if a.delivered == a.scenarios {
                    " (always reachable)"
                } else {
                    ""
                },
            );
        }
        if answers.is_empty() {
            outln!("query {src} -> {dst}: no class originates at {dst}");
        }
    }
    if let Some((doc, path @ Some(_))) = &doc {
        emit_json(doc, *path)?;
    }
    Ok(())
}

/// `bonsai diff <old> <new>`: classify the config delta, absorb it into
/// the old network's warm engine, and re-verify only the classes the
/// edit touched. `full_s` is the measured full compress + sweep of the
/// old network (the warm baseline a non-incremental pipeline would pay
/// again); `delta_s` is the delta apply plus the subset re-sweep.
fn cmd_diff(m: &Matches) -> Result<(), Failure> {
    let k = m.parsed("--failures", 1)?;
    let threads = m.parsed("--threads", 0)?;
    let json = m.optional("--json");
    let options = compress_options(m);
    let (old_net, old_topo) = load_network(&m.positionals()[0])?;
    let (new_net, new_topo) = load_network(&m.positionals()[1])?;
    let sweep_options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads,
            ..Default::default()
        },
        share_across_ecs: true,
        // Only counts are read below.
        collect_outcomes: false,
        ..Default::default()
    };

    // The warm baseline: the full compress + sweep of the old network.
    let full_start = std::time::Instant::now();
    let old_report = {
        let _span = bonsai::obs::span!("cli.compress", devices = old_net.devices.len());
        compress(&old_net, options)
    };
    sweep_network(&old_net, &old_topo, &old_report, &sweep_options)
        .map_err(|e| format!("baseline sweep failed: {e}"))?;
    let full_s = full_start.elapsed().as_secs_f64();

    // The delta path: absorb the edit, then re-sweep only what moved.
    let delta_start = std::time::Instant::now();
    let dr = {
        let _span = bonsai::obs::span!("cli.diff", devices = new_net.devices.len());
        recompress_delta(&old_report, &old_net, &new_net, options)
    };
    let subset = {
        let _span = bonsai::obs::span!("cli.sweep", k = k, classes = dr.rederived.len());
        sweep_network_subset(
            &new_net,
            &new_topo,
            &dr.report,
            &sweep_options,
            &dr.rederived,
        )
        .map_err(|e| format!("delta re-sweep failed: {e}"))?
    };
    let delta_s = delta_start.elapsed().as_secs_f64();

    let doc = DiffDoc {
        k,
        threads,
        nodes: new_topo.graph.node_count(),
        links: new_topo.graph.link_count(),
        ecs_total: dr.ecs_total(),
        ecs_rederived: dr.rederived.len(),
        reused: dr.reused,
        fingerprints_moved: dr.fingerprints_moved,
        full_rebuild: dr.full_rebuild,
        structural: dr.delta.structural.clone(),
        changed_devices: dr.delta.changed_devices.clone(),
        stages_evicted: dr.invalidation.stages_evicted,
        sigs_evicted: dr.invalidation.sigs_evicted,
        tables_evicted: dr.invalidation.tables_evicted,
        rederived: subset
            .per_ec
            .iter()
            .map(|ec| RederivedDoc {
                rep: ec.rep.to_string(),
                scenarios: ec.report.scenarios_swept(),
                refinements: ec.report.refinements.len(),
                derivations: ec.report.derivations,
            })
            .collect(),
        full_s,
        delta_s,
    };
    if let Some(None) = json {
        return emit_json(&doc.render(), None);
    }

    if doc.changed_devices.is_empty() {
        outln!("no device changed; all {} classes reused", doc.ecs_total);
    } else if let Some(why) = &doc.structural {
        outln!(
            "structural delta ({why}); full rebuild of all {} classes",
            doc.ecs_total,
        );
    } else {
        outln!(
            "delta: {} changed device{} {:?} \
             ({} stages, {} sigs, {} tables evicted)",
            doc.changed_devices.len(),
            plural(doc.changed_devices.len()),
            doc.changed_devices,
            doc.stages_evicted,
            doc.sigs_evicted,
            doc.tables_evicted,
        );
    }
    outln!(
        "classes: {} total, {} rederived, {} reused, {} fingerprint{} moved",
        doc.ecs_total,
        doc.ecs_rederived,
        doc.reused,
        doc.fingerprints_moved,
        plural(doc.fingerprints_moved),
    );
    for r in &doc.rederived {
        outln!(
            "re-verified {}: {} scenarios, {} refinements ({} derived)",
            r.rep,
            r.scenarios,
            r.refinements,
            r.derivations,
        );
    }
    outln!(
        "full {:.3}s -> delta {:.3}s ({:.1}%)",
        doc.full_s,
        doc.delta_s,
        if doc.full_s > 0.0 {
            100.0 * doc.delta_s / doc.full_s
        } else {
            0.0
        },
    );
    if let Some(path @ Some(_)) = json {
        emit_json(&doc.render(), path)?;
    }
    Ok(())
}

/// `bonsai serve`: load (or restore) a [`Session`] and run `bonsaid` on a
/// Unix socket and/or a TCP listener until a `shutdown` request arrives.
fn cmd_serve(m: &Matches, network: &NetworkConfig) -> Result<(), Failure> {
    let (socket, tcp) = (m.value("--socket"), m.value("--tcp"));
    if socket.is_none() && tcp.is_none() {
        return Err(m
            .usage("serve needs --socket <path> and/or --tcp <addr>")
            .into());
    }
    let defaults = ServerOptions::default();
    let server_options = ServerOptions {
        max_request_bytes: m.parsed("--max-request-bytes", defaults.max_request_bytes)?,
        max_batch: m.parsed("--max-batch", defaults.max_batch)?,
        max_inflight: m.parsed("--max-inflight", defaults.max_inflight)?,
        max_requests_per_conn: m.parsed("--max-requests", defaults.max_requests_per_conn)?,
        // 0 = never reap.
        idle_timeout: match m.parsed(
            "--idle-timeout",
            defaults.idle_timeout.map_or(0, |d| d.as_secs()),
        )? {
            0 => None,
            secs => Some(std::time::Duration::from_secs(secs)),
        },
        write_timeout: defaults.write_timeout,
    };
    let session_options = SessionOptions {
        max_failures: m.parsed("--failures", 1)?,
        threads: m.parsed("--threads", 0)?,
        prune_symmetric: m.switch("--pruned"),
        compress: compress_options(m),
        ..Default::default()
    };
    let builder = Session::builder(network.clone()).options(session_options);

    // A `--snapshot` file that already exists restores the session warm
    // (no verification solves); otherwise we build cold and leave a
    // snapshot behind for the next restart.
    let snapshot_path = m.value("--snapshot").map(Path::new);
    let save = |session: &Session, p: &Path, what: &str| -> Result<(), String> {
        let n = session
            .save_snapshot(p)
            .map_err(|e| format!("cannot write snapshot {}: {e}", p.display()))?;
        outln!("wrote {what} {} ({n} bytes)", p.display());
        Ok(())
    };
    let restore_text = match snapshot_path {
        Some(p) if p.exists() => Some(
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read snapshot {}: {e}", p.display()))?,
        ),
        _ => None,
    };
    let session = {
        let _span = bonsai::obs::span!("cli.serve.build", warm = u64::from(restore_text.is_some()));
        match &restore_text {
            Some(text) => builder.restore(text),
            None => builder.build(),
        }
    }
    .map_err(|e| format!("cannot start session: {e}"))?;
    if let (None, Some(p)) = (&restore_text, snapshot_path) {
        save(&session, p, "snapshot")?;
    }

    let stats = session.stats();
    let summary = format!(
        "bonsaid: {} classes, k={}, {} scenarios swept, {} refinements ({})",
        session.classes(),
        session.max_failures(),
        stats.sweep.scenarios_swept,
        stats.sweep.refinements,
        if stats.sweep.restored > 0 {
            format!(
                "{} restored from snapshot, {} answers warm",
                stats.sweep.restored, stats.sweep.restored_answers
            )
        } else {
            format!("{} derived", stats.sweep.derivations)
        },
    );
    let server = match (socket, tcp) {
        (Some(path), _) => {
            Server::bind_with(session, Path::new(path), server_options).and_then(|s| match tcp {
                Some(addr) => s.with_tcp(addr),
                None => Ok(s),
            })
        }
        (None, Some(addr)) => Server::bind_tcp_with(session, addr, server_options),
        (None, None) => unreachable!("an endpoint was required above"),
    }
    .map_err(|e| format!("cannot bind: {e}"))?;
    let mut endpoints: Vec<String> = socket.iter().map(|path| path.to_string()).collect();
    if let Some(addr) = server.tcp_addr() {
        endpoints.push(format!("tcp {addr}"));
    }
    outln!("{summary}, listening on {}", endpoints.join(" + "));
    // Keep a handle so the snapshot can be re-saved *warm* after the
    // drain: by then the memo tier holds every answer served, so the next
    // restart replays them without touching the solver.
    let resident = server.session();
    server.run().map_err(|e| format!("bonsaid: {e}"))?;
    if let Some(p) = snapshot_path {
        save(&resident, p, "warm snapshot")?;
    }
    Ok(())
}

/// `bonsai metrics`: print a Prometheus text exposition. With `--socket`
/// or `--tcp`, scrape a running `bonsaid` (the `metrics` op carries the
/// exposition as one escaped JSON string; this unescapes and prints it
/// raw — pipe-ready for a node-exporter-style textfile collector). An
/// unreachable endpoint is a **structured error and a nonzero exit** —
/// a scrape that silently yields the wrong registry poisons dashboards.
/// `--fallback` opts into the in-process registry instead (every
/// inventoried metric at zero — the scrape *shape*, exit 0), and is the
/// only way to run without an endpoint.
fn cmd_metrics(m: &Matches) -> Result<(), Failure> {
    let fallback = m.switch("--fallback");
    let structured = |code: u8, error: &str| Failure {
        code,
        message: render_error("io", error),
    };
    let Some((endpoint, client)) = connect(m) else {
        if fallback {
            out!("{}", bonsai::obs::render_prometheus());
            return Ok(());
        }
        return Err(structured(
            2,
            "no endpoint: pass --socket <path> or --tcp <addr> to scrape a \
             running bonsaid, or --fallback for this process's own registry",
        ));
    };
    let scraped = client
        .map_err(|e| format!("cannot connect to {endpoint}: {e}"))
        .and_then(|mut client| {
            client
                .call(&render_control("metrics", None))
                .map_err(|e| format!("{endpoint}: {e}"))
        });
    let response = match scraped {
        Ok(response) => response,
        Err(e) if fallback => {
            eprintln!("{e}; serving the in-process registry");
            out!("{}", bonsai::obs::render_prometheus());
            return Ok(());
        }
        Err(e) => return Err(structured(1, &e)),
    };
    let doc = Json::parse(&response)
        .map_err(|e| format!("{endpoint}: unparsable metrics response: {e}"))?;
    if doc.bool("ok") != Ok(true) {
        return Err(format!("{endpoint}: {response}").into());
    }
    let body = doc
        .str("body")
        .map_err(|_| format!("{endpoint}: metrics response has no \"body\""))?;
    out!("{body}");
    Ok(())
}

/// `bonsai query`: send request lines to a running `bonsaid` and print
/// the response lines. Requests come from raw JSON positional arguments,
/// convenience flags, or both: the raw lines first, in order, then the
/// flags in the fixed order below.
fn cmd_query(m: &Matches) -> Result<(), Failure> {
    // Every `--fail u:v` adds one failed link to the query masks; every
    // `--via n` adds one waypoint to the `--path` query.
    let owned = |(a, b): (&str, &str)| (a.to_string(), b.to_string());
    let links: Vec<(String, String)> = m.pairs("--fail")?.into_iter().map(owned).collect();

    let mut lines: Vec<String> = m.positionals().to_vec();
    if m.switch("--ping") {
        lines.push(render_control("ping", None));
    }
    if let Some((src, dst)) = m.pair("--reach")?.map(owned) {
        let links = links.clone();
        lines.push(render_query(&QueryRequest::Reach { src, dst, links }));
    }
    if let Some((src, dst)) = m.pair("--sweep")?.map(owned) {
        lines.push(render_query(&QueryRequest::Sweep { src, dst }));
    }
    if let Some((src, dst)) = m.pair("--path")?.map(owned) {
        lines.push(render_query(&QueryRequest::Path {
            src,
            dst,
            links: links.clone(),
            waypoints: m.values("--via").to_vec(),
        }));
    }
    if m.switch("--all-pairs") {
        lines.push(render_query(&QueryRequest::AllPairs { links }));
    }
    if m.switch("--stats") {
        lines.push(render_control("stats", None));
    }
    if let Some(path) = m.value("--reload") {
        lines.push(render_control("reload", Some(path)));
    }
    if m.switch("--shutdown") {
        lines.push(render_control("shutdown", None));
    }
    if lines.is_empty() {
        lines.push(render_control("ping", None));
    }

    let (endpoint, client) =
        connect(m).ok_or_else(|| m.usage("query needs --socket <path> or --tcp <addr>"))?;
    let mut client = client.map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    for line in &lines {
        let response = client.call(line).map_err(|e| format!("{endpoint}: {e}"))?;
        outln!("{response}");
    }
    Ok(())
}
