//! # bonsai-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§8). An experiment is a library function that
//! returns its rows; each binary prints them in the paper's format and,
//! with `--json`, writes them as a snapshot:
//!
//! * `table1` — compression results for the synthetic topologies
//!   (Table 1(a), [`table1_synthetic`]) and, with `--real`, the
//!   data-center and WAN simulacra (Table 1(b), [`table1_real`]);
//!   `--roles` reproduces the role-count study.
//! * `fig11` — abstraction size for the fattree under the two policies.
//! * `fig12` — all-pairs reachability verification time with and without
//!   compression (Minesweeper substitute, [`fig12_point`]), with
//!   timeout/OOM reporting.
//! * `batfish_query` — the single reachability query on the data center
//!   (simulation engine), with and without compression.
//! * `failures` — the bounded link-failure study ([`failures::rows`]):
//!   concrete vs refined-abstract solve time per failure bound `k`.
//! * `delta` — one route-map edit on fattree-8, fresh full pipeline vs
//!   warm delta pipeline ([`delta::run`]).
//!
//! The bins share one declared-flags reader ([`flags`]). Criterion
//! micro-benchmarks of the pipeline stages live in `benches/`.
//!
//! Snapshots carry provenance metadata (`git_sha`, `toolchain`) so
//! artifacts uploaded from different runs remain traceable. Every count
//! of the three committed `--quick` baselines is held equal by
//! `tests/bench_baselines.rs` at the repository root, which runs the same
//! functions in process and compares through [`gate`].

#![forbid(unsafe_code)]

pub mod delta;
pub mod failures;
pub mod flags;
pub mod gate;

use bonsai_core::compress::{compress, CompressOptions, CompressionReport};
use bonsai_core::snapshot::{write_envelope, write_object, Layout};
use bonsai_net::NodeId;
use bonsai_verify::properties::SolutionAnalysis;
use bonsai_verify::search_engine::{for_each_solution, SearchBudget, SearchOutcome};
use std::time::{Duration, Instant};

/// One row of Table 1.
pub struct Table1Row {
    /// Topology label, e.g. `Fattree` or `Data center`.
    pub topology: String,
    /// Concrete nodes / links.
    pub nodes: usize,
    /// Concrete undirected links.
    pub links: usize,
    /// Mean ± std abstract nodes.
    pub abs_nodes: (f64, f64),
    /// Mean ± std abstract links.
    pub abs_links: (f64, f64),
    /// Compression ratios (nodes, links).
    pub ratios: (f64, f64),
    /// Number of destination classes.
    pub ecs: usize,
    /// Total BDD-construction time.
    pub bdd_time: Duration,
    /// Mean per-class compression time.
    pub per_ec_time: Duration,
    /// Shared-arena node count at end of run.
    pub arena_nodes: usize,
    /// Cross-EC signature-cache hit rate (0..1).
    pub sig_hit_rate: f64,
    /// Whole-table cache hit rate across ECs (0..1).
    pub table_hit_rate: f64,
}

impl Table1Row {
    /// Builds a row from a compression report.
    pub fn from_report(topology: impl Into<String>, report: &CompressionReport) -> Self {
        Table1Row {
            topology: topology.into(),
            nodes: report.concrete_nodes,
            links: report.concrete_links,
            abs_nodes: (report.mean_abstract_nodes(), report.std_abstract_nodes()),
            abs_links: (report.mean_abstract_links(), report.std_abstract_links()),
            ratios: (report.node_ratio(), report.link_ratio()),
            ecs: report.num_ecs(),
            bdd_time: report.bdd_time(),
            per_ec_time: report.compress_time_per_ec(),
            arena_nodes: report.engine.arena_nodes,
            sig_hit_rate: report.engine.sig_hit_rate(),
            table_hit_rate: report.engine.table_hit_rate(),
        }
    }

    /// Renders the row in the paper's column layout, extended with the
    /// shared-engine columns (arena nodes, signature-cache hit rate).
    pub fn render(&self) -> String {
        format!(
            "{:<12} {:>6} / {:<7} {:>7.1}±{:<5.1} / {:>7.1}±{:<7.1} {:>7.2}x / {:<9.2}x {:>6} {:>10.2} {:>12.4} {:>8} {:>6.0}%",
            self.topology,
            self.nodes,
            self.links,
            self.abs_nodes.0,
            self.abs_nodes.1,
            self.abs_links.0,
            self.abs_links.1,
            self.ratios.0,
            self.ratios.1,
            self.ecs,
            self.bdd_time.as_secs_f64(),
            self.per_ec_time.as_secs_f64(),
            self.arena_nodes,
            self.table_hit_rate * 100.0,
        )
    }

    /// The table header matching [`Table1Row::render`].
    pub fn header() -> String {
        format!(
            "{:<12} {:>6} / {:<7} {:>13} / {:<17} {:>19} {:>6} {:>10} {:>12} {:>8} {:>7}",
            "Topology",
            "Nodes",
            "Links",
            "Abs.Nodes",
            "Abs.Links",
            "Compression",
            "ECs",
            "BDD(s)",
            "perEC(s)",
            "BDDnode",
            "ecHit"
        )
    }
}

/// The rows of Table 1(a), each compressed when the iterator reaches it:
/// fattree, ring and full-mesh sweeps at the paper's sizes, or the small
/// sizes the committed `BENCH_baseline.json` records under `quick`.
pub fn table1_synthetic(
    quick: bool,
    options: CompressOptions,
) -> impl Iterator<Item = (String, CompressionReport)> {
    let fattree_ks: &[usize] = if quick { &[4, 8] } else { &[12, 20, 30] };
    let ring_ns: &[usize] = if quick { &[20, 50] } else { &[100, 500, 1000] };
    let mesh_ns: &[usize] = if quick { &[10, 20] } else { &[50, 150, 250] };
    let fattrees = fattree_ks.iter().map(|&k| {
        let net = bonsai_topo::fattree(k, bonsai_topo::FattreePolicy::ShortestPath);
        (format!("Fattree{k}"), net)
    });
    let rings = ring_ns
        .iter()
        .map(|&n| (format!("Ring{n}"), bonsai_topo::ring(n)));
    let meshes = mesh_ns
        .iter()
        .map(|&n| (format!("FullMesh{n}"), bonsai_topo::full_mesh(n)));
    fattrees
        .chain(rings)
        .chain(meshes)
        .map(move |(label, net)| (label, compress(&net, options)))
}

/// The rows of Table 1(b): structural simulacra of the paper's
/// proprietary data-center and WAN networks (scaled down under `quick`).
pub fn table1_real(
    quick: bool,
    options: CompressOptions,
) -> impl Iterator<Item = (String, CompressionReport)> {
    use bonsai_topo::{datacenter, wan, DatacenterParams, WanParams};
    let dc_params = if quick {
        DatacenterParams {
            clusters: 4,
            tors_per_cluster: 6,
            prefixes_per_tor: 3,
            ..Default::default()
        }
    } else {
        DatacenterParams::default()
    };
    let wan_params = if quick {
        WanParams {
            pops: 6,
            access_per_pop: 10,
            prefixes_per_agg: 2,
            ..Default::default()
        }
    } else {
        WanParams::default()
    };
    // The paper's data-center run uses the unused-tag-stripping h.
    let dc_options = CompressOptions {
        strip_unused_communities: true,
        ..options
    };
    [
        ("Data center", datacenter(dc_params), dc_options),
        ("WAN", wan(wan_params), options),
    ]
    .into_iter()
    .map(|(label, net, options)| (label.to_string(), compress(&net, options)))
}

/// Serializes one compression run for the `BENCH_compress.json` perf
/// snapshot: per-stage times, shared-engine arena/cache statistics and
/// compression ratios.
pub fn report_json(label: &str, report: &CompressionReport) -> String {
    let e = &report.engine;
    let mut row = String::new();
    write_object(&mut row, Layout::Compact, |o| {
        o.str("label", label)
            .uint("nodes", report.concrete_nodes)
            .uint("links", report.concrete_links)
            .uint("ecs", report.num_ecs())
            .float("abs_nodes_mean", report.mean_abstract_nodes(), 6)
            .float("abs_nodes_std", report.std_abstract_nodes(), 6)
            .float("abs_links_mean", report.mean_abstract_links(), 6)
            .float("abs_links_std", report.std_abstract_links(), 6)
            .float("node_ratio", report.node_ratio(), 6)
            .float("link_ratio", report.link_ratio(), 6);
        o.object("times", Layout::Compact, |o| {
            o.float("total_s", report.total_time.as_secs_f64(), 6)
                .float("ec_compute_s", report.ec_compute_time.as_secs_f64(), 6)
                .float("engine_build_s", report.engine_build_time.as_secs_f64(), 6)
                .float("bdd_s", report.bdd_time().as_secs_f64(), 6)
                .float("per_ec_s", report.compress_time_per_ec().as_secs_f64(), 6);
        });
        o.object("engine", Layout::Compact, |o| {
            o.uint("arena_nodes", e.arena_nodes)
                .uint("arena_peak", e.arena_peak)
                .uint("apply_lookups", e.apply_lookups)
                .uint("apply_hits", e.apply_hits)
                .float("apply_hit_rate", e.apply_hit_rate(), 6)
                .uint("unique_lookups", e.unique_lookups)
                .uint("unique_hits", e.unique_hits)
                .uint("stage_lookups", e.stage_lookups)
                .uint("stage_hits", e.stage_hits)
                .float("stage_hit_rate", e.stage_hit_rate(), 6)
                .uint("sig_lookups", e.sig_lookups)
                .uint("sig_hits", e.sig_hits)
                .float("sig_hit_rate", e.sig_hit_rate(), 6)
                .uint("table_lookups", e.table_lookups)
                .uint("table_hits", e.table_hits)
                .float("table_hit_rate", e.table_hit_rate(), 6);
        });
    });
    row
}

/// The commit the snapshot was generated from: `GITHUB_SHA` when CI
/// provides it, otherwise `git rev-parse HEAD`, otherwise `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The toolchain the snapshot binary was built with (`rustc --version`),
/// or `"unknown"` outside a rust environment.
pub fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Envelope kind of the compression perf snapshot (`table1 --json`).
pub const COMPRESS_SNAPSHOT_KIND: &str = "bench/compress";
/// Payload version of the compression perf snapshot.
pub const COMPRESS_SNAPSHOT_VERSION: u32 = 1;
/// Envelope kind of the delta-reverification perf snapshot (the `delta`
/// binary). Each row carries `times.full_s` (fresh compress + sweep on
/// the edited config) vs `times.delta_s` (warm delta apply + subset
/// re-sweep) plus the exact reuse counters (`ecs_total`,
/// `ecs_rederived`, `fingerprints_moved`).
pub const DELTA_SNAPSHOT_KIND: &str = "bench/delta";
/// Payload version of the delta-reverification snapshot.
pub const DELTA_SNAPSHOT_VERSION: u32 = 1;
/// Envelope kind of the failure-study perf snapshot (the `failures`
/// binary).
pub const FAILURES_SNAPSHOT_KIND: &str = "bench/failures";
/// Payload version of the failure-study snapshot. Lineage: v2 added the
/// sweep-engine stages (`warm_s`, `sweep_s` in `times`, plus the per-row
/// `sweep` statistics object); v3 the network-level sweep (`netsweep_s`
/// plus the `cross_ec` object); v4 — the first enveloped version — the
/// resident-session query latencies (`query_cold_us`, `query_warm_us`);
/// v5 the streamed fan-out columns (`chunk_size`, `scenarios_streamed`,
/// `peak_resident_scenarios` in the `streamed` object — the
/// bounded-memory proof) and the sharded-sweep merge stage (`merge_s`).
pub const FAILURES_SNAPSHOT_VERSION: u32 = 5;

/// Assembles a bench snapshot: `rows` — each already rendered through
/// the shared writer — one per line in a [`bonsai_core::snapshot`]
/// envelope of `kind` / `version`, stamped with provenance metadata
/// (`git_sha`, `toolchain`) so uploaded artifacts stay traceable.
pub fn snapshot_json(kind: &str, version: u32, rows: &[String]) -> String {
    write_envelope(
        kind,
        version,
        &git_sha(),
        &toolchain(),
        Layout::Lines(4),
        |payload| {
            payload.rendered("rows", Layout::Lines(6), rows);
        },
    )
}

/// Outcome of one Figure 12 measurement.
pub struct Fig12Point {
    /// Concrete node count.
    pub nodes: usize,
    /// Concrete verification outcome and wall time.
    pub concrete: (String, Duration),
    /// Compressed verification outcome (compression + abstract query) and
    /// total wall time.
    pub compressed: (String, Duration),
}

fn outcome_label<T>(o: &SearchOutcome<T>) -> String {
    match o {
        SearchOutcome::Completed(_) => "ok".into(),
        SearchOutcome::Timeout => "TIMEOUT".into(),
        SearchOutcome::OutOfMemory => "OOM".into(),
        SearchOutcome::Diverged(_) => "diverged".into(),
    }
}

/// Runs the Figure 12 experiment on one network: all-pairs reachability
/// with the exhaustive-search engine, concrete vs compressed.
pub fn fig12_point(net: &bonsai_config::NetworkConfig, budget: SearchBudget) -> Fig12Point {
    // Concrete run.
    let t0 = Instant::now();
    let concrete = bonsai_verify::search_engine::all_pairs_reachability(
        net,
        budget,
        &bonsai_verify::query::QueryCtx::failure_free(),
    );
    let concrete_time = t0.elapsed();

    // Compressed run: compression time counts toward the total (the paper
    // includes partitioning, BDD and abstraction time in the abstract
    // series).
    let t1 = Instant::now();
    let report = compress(net, Default::default());
    let abstract_outcome = abstract_all_pairs(net, &report, budget);
    let compressed_time = t1.elapsed();

    // Sanity: when both complete, the mapped-back counts must agree —
    // that is CP-equivalence paying off.
    if let (SearchOutcome::Completed(c), SearchOutcome::Completed(a)) =
        (&concrete, &abstract_outcome)
    {
        assert_eq!(c, a, "abstract all-pairs disagrees with concrete all-pairs");
    }

    Fig12Point {
        nodes: net.devices.len(),
        concrete: (outcome_label(&concrete), concrete_time),
        compressed: (outcome_label(&abstract_outcome), compressed_time),
    }
}

/// All-pairs reachability answered on the *compressed* networks of `net`,
/// mapped back to concrete `(node, class)` pair counts via the abstraction.
pub fn abstract_all_pairs(
    net: &bonsai_config::NetworkConfig,
    report: &CompressionReport,
    budget: SearchBudget,
) -> SearchOutcome<usize> {
    let deadline = Instant::now() + budget.wall;
    let topo = bonsai_config::BuiltTopology::build(net).expect("network has a consistent topology");
    let mut total = 0usize;
    for ec in &report.per_ec {
        if Instant::now() >= deadline {
            return SearchOutcome::Timeout;
        }
        let abs = ec.abstract_network(net, &topo);
        let abs_ecs = bonsai_core::ecs::compute_ecs(&abs.network, &abs.topo);
        let n = abs.topo.graph.node_count();
        let mut reach_all = vec![true; n];
        for abs_ec in &abs_ecs {
            let origins: Vec<NodeId> = abs_ec.origins.iter().map(|(o, _)| *o).collect();
            let outcome = for_each_solution(
                &abs.network,
                &abs.topo,
                abs_ec,
                budget,
                deadline,
                &bonsai_verify::query::QueryCtx::failure_free(),
                &mut |sol| {
                    let analysis = SolutionAnalysis::new(&abs.topo.graph, sol, &origins);
                    for u in abs.topo.graph.nodes() {
                        reach_all[u.index()] &= analysis.can_reach(u);
                    }
                },
            );
            match outcome {
                SearchOutcome::Completed(_) => {}
                SearchOutcome::Timeout => return SearchOutcome::Timeout,
                SearchOutcome::OutOfMemory => return SearchOutcome::OutOfMemory,
                SearchOutcome::Diverged(e) => return SearchOutcome::Diverged(e),
            }
        }
        // Map back: a concrete node reaches iff every copy of its block
        // reaches (copy assignment is solution-dependent, so "in all
        // solutions" quantifies over copies too). Origin blocks are
        // excluded like the concrete count excludes origins.
        let abs_origin_blocks: std::collections::BTreeSet<_> = (abs.ec.origins.iter())
            .map(|(o, _)| abs.copy_of_node[o.index()].0)
            .collect();
        for block in ec.abstraction.partition.blocks() {
            if abs_origin_blocks.contains(&block) {
                // Count non-origin members of origin blocks as reachable
                // (they sit with the origin and always deliver); the
                // concrete count skips only true origins.
                let member_count = ec.abstraction.partition.members(block).len();
                let origin_count = ec
                    .ec
                    .origins
                    .iter()
                    .filter(|(o, _)| ec.abstraction.partition.members(block).contains(&o.0))
                    .count();
                total += member_count - origin_count;
                continue;
            }
            let copies: Vec<NodeId> = abs.candidates_of(
                &ec.abstraction,
                NodeId(ec.abstraction.partition.members(block)[0]),
            );
            if copies.iter().all(|c| reach_all[c.index()]) {
                total += ec.abstraction.partition.members(block).len();
            }
        }
    }
    SearchOutcome::Completed(total)
}

/// Formats a duration like the paper's second columns.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_core::snapshot::{Envelope, Json};

    #[test]
    fn parses_own_writer_output() {
        // The actual writer output must be readable by the gate.
        let row = report_json(
            "X\"y\\z",
            &compress(&bonsai_srp::papernets::figure1_rip(), Default::default()),
        );
        let doc = snapshot_json(COMPRESS_SNAPSHOT_KIND, COMPRESS_SNAPSHOT_VERSION, &[row]);
        let env = Envelope::parse(&doc).unwrap();
        assert_eq!(env.kind, "bench/compress");
        let rows = env.payload.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("X\"y\\z"));
    }
}
