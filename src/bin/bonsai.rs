//! The `bonsai` command-line tool: compress a network configuration file.
//!
//! ```text
//! bonsai compress <network.cfg> [--out <dir>] [--strip-unused-communities]
//! bonsai print    <network.cfg>          # canonical config text (expands gen:)
//! bonsai roles    <network.cfg> [--strip-unused-communities] [--ignore-static]
//! bonsai check    <network.cfg>          # verify CP-equivalence per class
//! bonsai ecs      <network.cfg>          # list destination classes
//! bonsai failures <network.cfg> [--failures k] [--threads n] [--pruned]
//!                 [--no-share] [--chunk-size n] [--shard i/n] [--aggregate]
//!                 [--query <src>:<dst>] [--json [path]]
//!                                        # network-level refinement sweep
//! bonsai failures --merge <shard.json>... [--json [path]]
//!                                        # reassemble sharded sweep documents
//! bonsai serve    <network.cfg> [--socket <path>] [--tcp <addr>]
//!                 [--failures k] [--threads n] [--pruned] [--snapshot <path>]
//!                 [--max-inflight n] [--max-request-bytes n] [--max-batch n]
//!                 [--max-requests n] [--idle-timeout secs]
//!                                        # run bonsaid (socket and/or TCP)
//! bonsai query    (--socket <path> | --tcp <addr>) [--ping] [--stats]
//!                 [--reload <path>] [--shutdown] [--reach <src>:<dst>]
//!                 [--sweep <src>:<dst>] [--path <src>:<dst> [--via <node>]...]
//!                 [--all-pairs] [--fail <u>:<v>]... ['{"op": ...}']...
//!                                        # talk to a running bonsaid
//!                                        # (--reload warm-swaps the daemon
//!                                        # onto the server-side config file)
//! bonsai metrics  [--socket <path> | --tcp <addr>] [--fallback]
//!                                        # Prometheus exposition: scrape a
//!                                        # running bonsaid; an unreachable
//!                                        # endpoint is a nonzero exit unless
//!                                        # --fallback serves this process's
//!                                        # (empty) registry instead
//! bonsai diff     <old.cfg> <new.cfg> [--failures k] [--threads n]
//!                 [--json [path]]        # classify the config delta and
//!                                        # re-verify only the touched classes
//! ```
//!
//! `compress`, `failures` and `serve` also take `--trace <path>`: every
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

use bonsai::cli::{
    compress_streamed, compress_summary_line, first_emit_error, DiffDoc, FailuresDoc, QueryDoc,
    RederivedDoc,
};
use bonsai::core::compress::{compress, compress_each, recompress_delta, CompressOptions};
use bonsai::core::roles::{count_roles, RoleOptions};
use bonsai::core::snapshot::json_escape;
use bonsai::daemon::{Client, Server, ServerOptions};
use bonsai::verify::equivalence::check_cp_equivalence_under_h;
use bonsai::verify::netsweep::{
    sweep_network, sweep_network_subset, NetworkSweepOptions, NetworkSweepReport, ShardSpec,
};
use bonsai::verify::query::QueryCtx;
use bonsai::verify::session::Session;
use bonsai::verify::sim_engine::SimEngine;
use bonsai::verify::sweep::{RefinementProvenance, SweepOptions};
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

/// Parses `--name <usize>`, defaulting when the flag is absent. A flag
/// with a missing or unparsable value is a usage error — silently running
/// a different sweep than requested must not look like success.
fn usize_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Parses `--name <value>` (required value, same strictness as
/// [`usize_flag`]); `Ok(None)` when the flag is absent.
fn str_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(|v| Some(v.clone()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// `--json` with an *optional* path value: `None` = flag absent,
/// `Some(None)` = print to stdout, `Some(Some(path))` = write a file.
fn json_flag(args: &[String]) -> Option<Option<String>> {
    args.iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned())
}

/// One `--query` answer: a prefix of the queried destination, and how
/// many swept scenarios deliver it from the source.
struct QueryAnswer {
    prefix: String,
    delivered: usize,
    scenarios: usize,
}

/// How a refinement was found, for the human and JSON outputs.
fn refinement_how(r: &bonsai::verify::sweep::ScenarioRefinement) -> &'static str {
    if r.global_fallback {
        "global fallback"
    } else if r.deviating_rounds > 0 {
        "deviating-member split"
    } else if r.split.is_empty() {
        "base abstraction"
    } else {
        "localized split"
    }
}

fn provenance_label(p: RefinementProvenance) -> &'static str {
    match p {
        RefinementProvenance::Derived => "derived",
        RefinementProvenance::TransferredExact => "transferred-exact",
        RefinementProvenance::TransferredSymmetric => "transferred-symmetric",
    }
}

/// `bonsai failures --merge <shard.json>...`: reassembles one document
/// per shard ([`bonsai::cli::FailuresDoc`]) into the full sweep
/// document, byte-identical to what the unsharded sweep writes. Pure
/// document surgery — no network file, no re-verification — so it
/// dispatches before the network-path requirement in [`main`].
fn cmd_merge_failures(args: &[String]) -> ExitCode {
    let at = args
        .iter()
        .position(|a| a == "--merge")
        .expect("dispatched on --merge");
    let paths: Vec<&String> = args[at + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    if paths.is_empty() {
        eprintln!(
            "--merge needs one shard document per shard, \
             e.g. `bonsai failures --merge s0.json s1.json`"
        );
        return ExitCode::from(2);
    }
    let mut docs = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {p}: {e}");
                return ExitCode::from(1);
            }
        };
        match FailuresDoc::parse(&text) {
            Ok(d) => docs.push(d),
            Err(e) => {
                eprintln!("{p}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let merged = match FailuresDoc::merge(docs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("--merge: {e}");
            return ExitCode::from(1);
        }
    };
    let doc = merged.render();
    match json_flag(args) {
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            outln!("wrote {path}");
        }
        _ => out!("{doc}"),
    }
    ExitCode::SUCCESS
}

/// Answers one `--query src:dst` on the refined abstract networks: for
/// every class originated at `dst`, in how many swept scenarios does
/// `src` deliver? Runs on the compressed per-scenario networks — the
/// point of the sweep — with verdicts mapped back through the blocks.
fn answer_query(
    network: &NetworkConfig,
    topo: &BuiltTopology,
    sweep: &NetworkSweepReport,
    report: &bonsai::core::compress::CompressionReport,
    src: &str,
    dst: &str,
) -> Result<Vec<QueryAnswer>, String> {
    let src_node = topo
        .graph
        .node_by_name(src)
        .ok_or_else(|| format!("--query: unknown device `{src}`"))?;
    let dst_node = topo
        .graph
        .node_by_name(dst)
        .ok_or_else(|| format!("--query: unknown device `{dst}`"))?;
    let engine = SimEngine::new(network);
    let mut answers = Vec::new();
    for (comp, ec_sweep) in report.per_ec.iter().zip(&sweep.per_ec) {
        if !comp.ec.origins.iter().any(|(n, _)| *n == dst_node) {
            continue;
        }
        let sim_ec = engine
            .ecs
            .iter()
            .find(|e| e.rep == comp.ec.rep)
            .ok_or_else(|| format!("class {} missing from the simulation engine", comp.ec.rep))?;
        let mut delivered = 0usize;
        for outcome in &ec_sweep.report.outcomes {
            let refinement = &ec_sweep.report.refinements[&outcome.signature];
            let reach = engine
                .reachability(
                    sim_ec,
                    &QueryCtx::refined(refinement, outcome.scenario.clone()),
                )
                .map_err(|e| {
                    format!(
                        "query under {}: {e}",
                        outcome.scenario.describe(&topo.graph)
                    )
                })?;
            if reach[src_node.index()] {
                delivered += 1;
            }
        }
        answers.push(QueryAnswer {
            prefix: comp.ec.rep.to_string(),
            delivered,
            scenarios: ec_sweep.report.outcomes.len(),
        });
    }
    Ok(answers)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: bonsai <compress|roles|check|ecs|failures|diff|serve|query|metrics> \
             <network.cfg> [options]"
        );
        return ExitCode::from(2);
    };
    // `--trace <path>` turns on the structured tracer for the rest of the
    // process — install it before any stage runs.
    match str_flag(&args, "--trace") {
        Ok(Some(path)) => {
            if let Err(e) = bonsai::obs::trace_to(Path::new(&path)) {
                eprintln!("--trace {path}: {e}");
                return ExitCode::from(1);
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    // `query` and `metrics` talk to a running bonsaid and need no network
    // file, so they dispatch before the network-path requirement below.
    // So does `failures --merge`, which works on written shard documents
    // alone.
    if command == "query" {
        return cmd_query(&args);
    }
    if command == "metrics" {
        return cmd_metrics(&args);
    }
    // `diff` takes *two* network paths, so it dispatches before the
    // single-network requirement below.
    if command == "diff" {
        return cmd_diff(&args);
    }
    if command == "failures" && args.iter().any(|a| a == "--merge") {
        return cmd_merge_failures(&args);
    }
    let Some(path) = args.get(1) else {
        eprintln!("missing network file");
        return ExitCode::from(2);
    };
    let strip = args.iter().any(|a| a == "--strip-unused-communities");
    let ignore_static = args.iter().any(|a| a == "--ignore-static");
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let text = match read_network_text(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    let (network, topo) = {
        let _span = bonsai::obs::span!("cli.parse", bytes = text.len());
        let network = match parse_network(&text) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(1);
            }
        };
        let topo = match BuiltTopology::build(&network) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(1);
            }
        };
        (network, topo)
    };

    let options = CompressOptions {
        strip_unused_communities: strip,
        ..Default::default()
    };

    match command.as_str() {
        // Round-trips the parsed network to canonical config text —
        // chiefly for materializing `gen:` specs into editable files
        // (the delta-smoke workflow: print, edit one stanza, `diff`).
        "print" => {
            out!("{}", print_network(&network));
            ExitCode::SUCCESS
        }
        "ecs" => {
            let ecs = bonsai::core::ecs::compute_ecs(&network, &topo);
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
                    if ec.ranges.len() == 1 { "" } else { "s" },
                );
            }
            ExitCode::SUCCESS
        }
        "roles" => {
            let n = count_roles(
                &network,
                RoleOptions {
                    strip_unused_communities: strip,
                    ignore_static_routes: ignore_static,
                },
            );
            outln!(
                "{n} roles among {} devices{}{}",
                network.devices.len(),
                if strip { " (unused tags stripped)" } else { "" },
                if ignore_static {
                    " (static routes ignored)"
                } else {
                    ""
                },
            );
            ExitCode::SUCCESS
        }
        // The span covers the emit stage too when `--out` is given: every
        // class is printed and written inside the worker that built it.
        "compress" => {
            let report = {
                let _span = bonsai::obs::span!("cli.compress", devices = network.devices.len());
                match compress_streamed(&network, options, out_dir.as_deref()) {
                    Ok(report) => report,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(1);
                    }
                }
            };
            outln!("{}", compress_summary_line(&report));
            if let Some(e) = first_emit_error(&report) {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
            if let Some(dir) = out_dir {
                outln!(
                    "wrote {} abstract networks to {}",
                    report.num_ecs(),
                    dir.display()
                );
            }
            ExitCode::SUCCESS
        }
        // Each class is checked inside the worker that compressed it and
        // dropped after its verdict; the failures print in class order.
        "check" => {
            let report = compress_each(&network, options, |_, ec| {
                check_cp_equivalence_under_h(
                    &network,
                    &topo,
                    &ec.ec.to_ec_dest(),
                    &ec.abstraction,
                    &ec.abstract_network,
                    4,
                    16,
                    strip,
                )
                .map_err(|e| format!("class {}: {e}", ec.ec.rep))
            });
            let failed: Vec<&String> = report
                .per_ec
                .iter()
                .filter_map(|verdict| verdict.as_ref().err())
                .collect();
            for line in &failed {
                eprintln!("{line}");
            }
            if failed.is_empty() {
                outln!(
                    "CP-equivalence verified for all {} classes",
                    report.num_ecs()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("{} classes FAILED", failed.len());
                ExitCode::from(1)
            }
        }
        "failures" => {
            let (k, threads, chunk_size, query, shard) = match (
                usize_flag(&args, "--failures", 1),
                usize_flag(&args, "--threads", 0),
                usize_flag(&args, "--chunk-size", 0),
                str_flag(&args, "--query"),
                str_flag(&args, "--shard"),
            ) {
                (Ok(k), Ok(t), Ok(c), Ok(q), Ok(s)) => (k, t, c, q, s),
                (Err(e), _, _, _, _)
                | (_, Err(e), _, _, _)
                | (_, _, Err(e), _, _)
                | (_, _, _, Err(e), _)
                | (_, _, _, _, Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            // `--shard i/n`: sweep only the i-th of n signature-class
            // shards. The partial document only makes sense machine-
            // readable (it feeds `--merge`), and per-class query answers
            // over a partial sweep would be silently wrong.
            let shard = match shard.map(|s| {
                s.split_once('/')
                    .and_then(|(i, n)| ShardSpec::new(i.parse().ok()?, n.parse().ok()?).ok())
                    .ok_or_else(|| format!("--shard expects <i>/<n> with i < n, got `{s}`"))
            }) {
                None => None,
                Some(Ok(shard)) => Some(shard),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            if shard.is_some() && json_flag(&args).is_none() {
                eprintln!("--shard writes a partial document and requires --json");
                return ExitCode::from(2);
            }
            if shard.is_some() && query.is_some() {
                eprintln!("--query needs the full sweep; drop --shard (or merge first)");
                return ExitCode::from(2);
            }
            let query = match query.map(|q| {
                q.split_once(':')
                    .map(|(s, d)| (s.to_string(), d.to_string()))
                    .ok_or_else(|| format!("--query expects <src>:<dst>, got `{q}`"))
            }) {
                None => None,
                Some(Ok(q)) => Some(q),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let pruned = args.iter().any(|a| a == "--pruned");
            let share = !args.iter().any(|a| a == "--no-share");
            let json = json_flag(&args);
            // `--aggregate`: keep only the integer outcome statistics,
            // never the per-scenario outcome list — peak resident
            // scenarios stays O(chunk) instead of O(C(links, k)), which
            // is what makes billion-scenario sweeps fit in memory. The
            // JSON document and `--query` need the full outcome list.
            let aggregate = args.iter().any(|a| a == "--aggregate");
            if aggregate && json.is_some() {
                eprintln!("--aggregate keeps no per-scenario outcomes; drop --json");
                return ExitCode::from(2);
            }
            if aggregate && query.is_some() {
                eprintln!("--query needs per-scenario outcomes; drop --aggregate");
                return ExitCode::from(2);
            }
            let report = {
                let _span = bonsai::obs::span!("cli.compress", devices = network.devices.len());
                compress(&network, options)
            };
            let sweep_options = NetworkSweepOptions {
                sweep: SweepOptions {
                    max_failures: k,
                    prune_symmetric: pruned,
                    threads,
                    ..Default::default()
                },
                share_across_ecs: share,
                chunk_size,
                collect_outcomes: !aggregate,
                shard,
                ..Default::default()
            };
            let sweep = {
                let _span = bonsai::obs::span!("cli.sweep", k = k, classes = report.num_ecs());
                match sweep_network(&network, &topo, &report, &sweep_options) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("network sweep failed: {e}");
                        return ExitCode::from(1);
                    }
                }
            };

            let mut queries: Vec<(String, String, Vec<QueryAnswer>)> = Vec::new();
            if let Some((src, dst)) = &query {
                match answer_query(&network, &topo, &sweep, &report, src, dst) {
                    Ok(answers) => queries.push((src.clone(), dst.clone(), answers)),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(1);
                    }
                }
            }

            // Bare `--json` replaces the human output on stdout; with a
            // path, the document is written alongside the table.
            let query_docs: Vec<QueryDoc> = queries
                .iter()
                .flat_map(|(src, dst, answers)| {
                    answers.iter().map(move |a| QueryDoc {
                        src: src.clone(),
                        dst: dst.clone(),
                        prefix: a.prefix.clone(),
                        delivered: a.delivered,
                        scenarios: a.scenarios,
                    })
                })
                .collect();
            let json_doc = json.as_ref().map(|_| {
                FailuresDoc::from_sweep(&topo, &sweep, pruned, share, query_docs).render()
            });
            if let Some(None) = &json {
                out!("{}", json_doc.as_ref().expect("rendered above"));
                return ExitCode::SUCCESS;
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
                if sweep.distinct_fingerprints == 1 {
                    ""
                } else {
                    "s"
                },
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
                        refinement_how(r),
                        provenance_label(r.provenance),
                    );
                }
            }
            for (src, dst, answers) in &queries {
                for a in answers {
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
            if let Some(Some(path)) = &json {
                if let Err(e) = std::fs::write(path, json_doc.expect("rendered above")) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(1);
                }
                outln!("wrote {path}");
            }
            ExitCode::SUCCESS
        }
        "serve" => cmd_serve(&network, options, &args),
        other => {
            eprintln!("unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

/// `bonsai diff <old> <new>`: classify the config delta, absorb it into
/// the old network's warm engine, and re-verify only the classes the
/// edit touched. `full_s` is the measured full compress + sweep of the
/// old network (the warm baseline a non-incremental pipeline would pay
/// again); `delta_s` is the delta apply plus the subset re-sweep.
fn cmd_diff(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let [old_path, new_path] = paths[..] else {
        eprintln!(
            "usage: bonsai diff <old.cfg> <new.cfg> [--failures k] [--threads n] [--json [path]]"
        );
        return ExitCode::from(2);
    };
    let (k, threads) = match (
        usize_flag(args, "--failures", 1),
        usize_flag(args, "--threads", 0),
    ) {
        (Ok(k), Ok(t)) => (k, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let strip = args.iter().any(|a| a == "--strip-unused-communities");
    let json = json_flag(args);
    let mut nets = Vec::with_capacity(2);
    for path in [old_path, new_path] {
        let text = match read_network_text(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        match parse_network(&text) {
            Ok(n) => nets.push(n),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let new_net = nets.pop().expect("two networks read");
    let old_net = nets.pop().expect("two networks read");
    let new_topo = match BuiltTopology::build(&new_net) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{new_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let options = CompressOptions {
        strip_unused_communities: strip,
        ..Default::default()
    };
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
    let old_topo = match BuiltTopology::build(&old_net) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{old_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let full_start = std::time::Instant::now();
    let old_report = {
        let _span = bonsai::obs::span!("cli.compress", devices = old_net.devices.len());
        compress(&old_net, options)
    };
    if let Err(e) = sweep_network(&old_net, &old_topo, &old_report, &sweep_options) {
        eprintln!("baseline sweep failed: {e}");
        return ExitCode::from(1);
    }
    let full_s = full_start.elapsed().as_secs_f64();

    // The delta path: absorb the edit, then re-sweep only what moved.
    let delta_start = std::time::Instant::now();
    let dr = {
        let _span = bonsai::obs::span!("cli.diff", devices = new_net.devices.len());
        recompress_delta(&old_report, &old_net, &new_net, options)
    };
    let subset = {
        let _span = bonsai::obs::span!("cli.sweep", k = k, classes = dr.rederived.len());
        match sweep_network_subset(
            &new_net,
            &new_topo,
            &dr.report,
            &sweep_options,
            &dr.rederived,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("delta re-sweep failed: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let delta_s = delta_start.elapsed().as_secs_f64();

    let rederived_docs: Vec<RederivedDoc> = subset
        .per_ec
        .iter()
        .map(|ec| RederivedDoc {
            rep: ec.rep.to_string(),
            scenarios: ec.report.scenarios_swept(),
            refinements: ec.report.refinements.len(),
            derivations: ec.report.derivations,
        })
        .collect();
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
        rederived: rederived_docs,
        full_s,
        delta_s,
    };
    if let Some(None) = &json {
        out!("{}", doc.render());
        return ExitCode::SUCCESS;
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
            if doc.changed_devices.len() == 1 {
                ""
            } else {
                "s"
            },
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
        if doc.fingerprints_moved == 1 { "" } else { "s" },
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
    if let Some(Some(path)) = &json {
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        outln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `bonsai serve`: load (or restore) a [`Session`] and run `bonsaid` on a
/// Unix socket until a `shutdown` request arrives.
fn cmd_serve(
    network: &bonsai::config::NetworkConfig,
    compress_options: CompressOptions,
    args: &[String],
) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let socket = str_flag(args, "--socket")?;
        let tcp = str_flag(args, "--tcp")?;
        let k = usize_flag(args, "--failures", 1)?;
        let threads = usize_flag(args, "--threads", 0)?;
        let snapshot = str_flag(args, "--snapshot")?;
        let defaults = ServerOptions::default();
        let server_options = ServerOptions {
            max_request_bytes: usize_flag(args, "--max-request-bytes", defaults.max_request_bytes)?,
            max_batch: usize_flag(args, "--max-batch", defaults.max_batch)?,
            max_inflight: usize_flag(args, "--max-inflight", defaults.max_inflight)?,
            max_requests_per_conn: usize_flag(
                args,
                "--max-requests",
                defaults.max_requests_per_conn,
            )?,
            // 0 = never reap.
            idle_timeout: match usize_flag(args, "--idle-timeout", 300)? {
                0 => None,
                secs => Some(std::time::Duration::from_secs(secs as u64)),
            },
            write_timeout: defaults.write_timeout,
        };
        if socket.is_none() && tcp.is_none() {
            return Err("serve needs --socket <path> and/or --tcp <addr>".into());
        }
        Ok((socket, tcp, k, threads, snapshot, server_options))
    })();
    let (socket, tcp, k, threads, snapshot, server_options) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let pruned = args.iter().any(|a| a == "--pruned");
    let session_options = bonsai::verify::session::SessionOptions {
        max_failures: k,
        threads,
        prune_symmetric: pruned,
        compress: compress_options,
        ..Default::default()
    };
    let builder = Session::builder(network.clone()).options(session_options);

    // A `--snapshot` file that already exists restores the session warm
    // (no verification solves); otherwise we build cold and leave a
    // snapshot behind for the next restart.
    let snapshot_path = snapshot.map(PathBuf::from);
    let restore_text = match &snapshot_path {
        Some(p) if p.exists() => match std::fs::read_to_string(p) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("cannot read snapshot {}: {e}", p.display());
                return ExitCode::from(1);
            }
        },
        _ => None,
    };
    let session = {
        let _span = bonsai::obs::span!("cli.serve.build", warm = u64::from(restore_text.is_some()));
        match &restore_text {
            Some(text) => builder.restore(text),
            None => builder.build(),
        }
    };
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start session: {e}");
            return ExitCode::from(1);
        }
    };
    if restore_text.is_none() {
        if let Some(p) = &snapshot_path {
            match session.save_snapshot(p) {
                Ok(n) => outln!("wrote snapshot {} ({n} bytes)", p.display()),
                Err(e) => {
                    eprintln!("cannot write snapshot {}: {e}", p.display());
                    return ExitCode::from(1);
                }
            }
        }
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
    let server = match &socket {
        Some(path) => {
            Server::bind_with(session, Path::new(path), server_options).and_then(|s| match &tcp {
                Some(addr) => s.with_tcp(addr),
                None => Ok(s),
            })
        }
        None => Server::bind_tcp_with(session, tcp.as_deref().unwrap(), server_options),
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::from(1);
        }
    };
    let mut endpoints = Vec::new();
    if let Some(path) = &socket {
        endpoints.push(path.clone());
    }
    if let Some(addr) = server.tcp_addr() {
        endpoints.push(format!("tcp {addr}"));
    }
    outln!("{summary}, listening on {}", endpoints.join(" + "));
    // Keep a handle so the snapshot can be re-saved *warm* after the
    // drain: by then the memo tier holds every answer served, so the next
    // restart replays them without touching the solver.
    let resident = server.session();
    match server.run() {
        Ok(()) => {
            if let Some(p) = &snapshot_path {
                match resident.save_snapshot(p) {
                    Ok(n) => outln!("wrote warm snapshot {} ({n} bytes)", p.display()),
                    Err(e) => {
                        eprintln!("cannot write snapshot {}: {e}", p.display());
                        return ExitCode::from(1);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bonsaid: {e}");
            ExitCode::from(1)
        }
    }
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
fn cmd_metrics(args: &[String]) -> ExitCode {
    let (socket, tcp) = match (str_flag(args, "--socket"), str_flag(args, "--tcp")) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let fallback = args.iter().any(|a| a == "--fallback");
    let structured_error = |code: &str, error: &str| {
        eprintln!(
            "{{\"ok\": false, \"code\": \"{}\", \"error\": \"{}\"}}",
            json_escape(code),
            json_escape(error),
        );
    };
    if socket.is_none() && tcp.is_none() {
        if fallback {
            out!("{}", bonsai::obs::render_prometheus());
            return ExitCode::SUCCESS;
        }
        structured_error(
            "io",
            "no endpoint: pass --socket <path> or --tcp <addr> to scrape a \
             running bonsaid, or --fallback for this process's own registry",
        );
        return ExitCode::from(2);
    }
    let endpoint = socket
        .clone()
        .unwrap_or_else(|| tcp.clone().unwrap_or_default());
    let connected = match &socket {
        Some(path) => Client::connect(Path::new(path)),
        None => Client::connect_tcp(tcp.as_deref().unwrap()),
    };
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            if fallback {
                eprintln!("cannot connect to {endpoint}: {e}; serving the in-process registry");
                out!("{}", bonsai::obs::render_prometheus());
                return ExitCode::SUCCESS;
            }
            structured_error("io", &format!("cannot connect to {endpoint}: {e}"));
            return ExitCode::from(1);
        }
    };
    let response = match client.call("{\"op\": \"metrics\"}") {
        Ok(r) => r,
        Err(e) => {
            if fallback {
                eprintln!("{endpoint}: {e}; serving the in-process registry");
                out!("{}", bonsai::obs::render_prometheus());
                return ExitCode::SUCCESS;
            }
            structured_error("io", &format!("{endpoint}: {e}"));
            return ExitCode::from(1);
        }
    };
    let doc = match bonsai::core::snapshot::Json::parse(&response) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{endpoint}: unparsable metrics response: {e}");
            return ExitCode::from(1);
        }
    };
    use bonsai::core::snapshot::Json;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("{endpoint}: {response}");
        return ExitCode::from(1);
    }
    let Some(body) = doc.get("body").and_then(Json::as_str) else {
        eprintln!("{endpoint}: metrics response has no \"body\"");
        return ExitCode::from(1);
    };
    out!("{body}");
    ExitCode::SUCCESS
}

/// `bonsai query`: send request lines to a running `bonsaid` and print
/// the response lines. Requests come from convenience flags, raw JSON
/// positional arguments, or both (raw lines are sent first, in order).
fn cmd_query(args: &[String]) -> ExitCode {
    let (socket, tcp) = match (str_flag(args, "--socket"), str_flag(args, "--tcp")) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if socket.is_none() && tcp.is_none() {
        eprintln!("query needs --socket <path> or --tcp <addr>");
        return ExitCode::from(2);
    }
    let pair_flag = |name: &str| -> Result<Option<(String, String)>, String> {
        match str_flag(args, name)? {
            None => Ok(None),
            Some(v) => v
                .split_once(':')
                .map(|(a, b)| Some((a.to_string(), b.to_string())))
                .ok_or_else(|| format!("{name} expects <a>:<b>, got `{v}`")),
        }
    };
    // Every `--fail u:v` adds one failed link to the query masks; every
    // `--via n` adds one waypoint to the `--path` query.
    let mut fails: Vec<(String, String)> = Vec::new();
    let mut vias: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--fail" {
            let Some(v) = args.get(i + 1) else {
                eprintln!("--fail needs a value");
                return ExitCode::from(2);
            };
            let Some((u, w)) = v.split_once(':') else {
                eprintln!("--fail expects <u>:<v>, got `{v}`");
                return ExitCode::from(2);
            };
            fails.push((u.to_string(), w.to_string()));
            i += 2;
        } else if args[i] == "--via" {
            let Some(v) = args.get(i + 1) else {
                eprintln!("--via needs a device name");
                return ExitCode::from(2);
            };
            vias.push(v.clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    let links_json = format!(
        "[{}]",
        fails
            .iter()
            .map(|(u, v)| format!("[\"{}\", \"{}\"]", json_escape(u), json_escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut lines: Vec<String> = Vec::new();
    for a in &args[1..] {
        if a.starts_with('{') {
            lines.push(a.clone());
        }
    }
    if args.iter().any(|a| a == "--ping") {
        lines.push("{\"op\": \"ping\"}".to_string());
    }
    match pair_flag("--reach") {
        Ok(Some((src, dst))) => lines.push(format!(
            "{{\"op\": \"reach\", \"src\": \"{}\", \"dst\": \"{}\", \"links\": {links_json}}}",
            json_escape(&src),
            json_escape(&dst),
        )),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    match pair_flag("--sweep") {
        Ok(Some((src, dst))) => lines.push(format!(
            "{{\"op\": \"sweep\", \"src\": \"{}\", \"dst\": \"{}\"}}",
            json_escape(&src),
            json_escape(&dst),
        )),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    match pair_flag("--path") {
        Ok(Some((src, dst))) => {
            let waypoints_json = format!(
                "[{}]",
                vias.iter()
                    .map(|w| format!("\"{}\"", json_escape(w)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            lines.push(format!(
                "{{\"op\": \"path\", \"src\": \"{}\", \"dst\": \"{}\", \
                 \"links\": {links_json}, \"waypoints\": {waypoints_json}}}",
                json_escape(&src),
                json_escape(&dst),
            ));
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if args.iter().any(|a| a == "--all-pairs") {
        lines.push(format!(
            "{{\"op\": \"all_pairs\", \"links\": {links_json}}}"
        ));
    }
    if args.iter().any(|a| a == "--stats") {
        lines.push("{\"op\": \"stats\"}".to_string());
    }
    match str_flag(args, "--reload") {
        Ok(Some(path)) => lines.push(format!(
            "{{\"op\": \"reload\", \"path\": \"{}\"}}",
            json_escape(&path)
        )),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if args.iter().any(|a| a == "--shutdown") {
        lines.push("{\"op\": \"shutdown\"}".to_string());
    }
    if lines.is_empty() {
        lines.push("{\"op\": \"ping\"}".to_string());
    }

    let endpoint = socket
        .clone()
        .unwrap_or_else(|| tcp.clone().unwrap_or_default());
    let connected = match &socket {
        Some(path) => Client::connect(Path::new(path)),
        None => Client::connect_tcp(tcp.as_deref().unwrap()),
    };
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {endpoint}: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &lines {
        match client.call(line) {
            Ok(response) => outln!("{response}"),
            Err(e) => {
                eprintln!("{endpoint}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
