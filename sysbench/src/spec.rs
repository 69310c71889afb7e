//! The benchmark's fixed vocabulary: workloads, metrics, units, bounds.
//! `BENCHMARK.json` at the repository root states the same tables for the
//! driver (`sysbench --describe` renders it); a unit test keeps the two in
//! step.

/// Which direction is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the base value by which the metric may
    /// get worse. Per-layer metrics explain a result, they do not decide
    /// one: `None`.
    pub bound: Option<f64>,
    /// What the number is, for the printed tables and the README.
    pub what: &'static str,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// The operation `op_calm_ms` times.
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "compress_policy",
        op: "one `bonsai compress dcpolicy.cfg --out <dir>`, spawn to exit (197 routers, 1296 classes, its default nproc workers)",
        why: "the paper's headline operation on the only input where the BDD arena and all three engine cache tiers work: mechanism workload for config, classes, engine, BDD and Algorithm 1 changes",
    },
    WorkloadSpec {
        name: "sweep_symmetric",
        op: "one `bonsai failures ft8.cfg --failures 2 --threads 1 --aggregate`, spawn to exit (1 052 672 items, under 50 derivations)",
        why: "hit path of the failure sweep: unrank, orbit signature and canonical-signature probe per item with 97% sharing; derivation and solver cost are noise, the BDD is bypassed",
    },
    WorkloadSpec {
        name: "sweep_derive",
        op: "one `bonsai failures ft6pb.cfg --failures 1 --threads 1 --json <file>`, spawn to exit (1944 items, 702 derivations, 181 KB document)",
        why: "miss path of the same sweep: PreferBottom shares nothing, so SRP solves and refinement derivation dominate, with outcome collection and the document encode; a hit-path gain must not move it",
    },
    WorkloadSpec {
        name: "serve_cycle",
        op: "one config-push cycle on one connection to `bonsai serve ft8.cfg --failures 2 --threads 1`: `reload` to the other of ft8.cfg / ft8_edit.cfg, then the 30 720 standing requests replayed",
        why: "writes beside reads as a rolling update does them: diff, engine delta, subset re-sweep, memo remap and session swap, then line-JSON round trips, memo hits and the 3% re-solves the reload caused",
    },
];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        what,
    }
}

/// The metrics a user of the system sees. Every workload reports all of
/// them; what the operation is is per workload (see [`WorkloadSpec::op`]).
pub const END_TO_END: [MetricSpec; 3] = [
    end_to_end(
        "setup_s",
        "s",
        0.25,
        "once per run: inputs generated and written, then batch: one cache-filling run of the command; serve_cycle: daemon spawn to first ping answered (cold parse + compress + sweep build)",
    ),
    end_to_end(
        "op_calm_ms",
        "ms",
        0.25,
        "25th percentile of the run's timed operations (first one untimed, at least 10 timed), timed from outside the program",
    ),
    end_to_end(
        "peak_rss_mb",
        "MB",
        0.05,
        "VmHWM of the program under test in MiB; batch: polled every 10 ms, median over the timed runs; daemon: read before shutdown",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric: `layer.metric`, with the public call it wraps
/// or the statistic it reads. A layer is a crate or module of the
/// repository; a layer off a workload's path reports 0 there.
#[rustfmt::skip]
pub const PER_LAYER: [MetricSpec; 57] = [
    layer("config.parse_s", "s", Lower, "parse_network + BuiltTopology::build on the generated text"),
    layer("config.print_s", "s", Lower, "print_network of every abstract network"),
    layer("core.ecs.compute_s", "s", Lower, "compute_ecs"),
    layer("core.ecs.classes", "count", Lower, "destination classes"),
    layer("core.engine.build_s", "s", Lower, "build_engine"),
    layer("core.engine.sig_table_s", "s", Lower, "sum of build_sig_table over classes, serial"),
    layer("core.engine.stage_hit_rate", "ratio", Higher, "EngineStats stage tier"),
    layer("core.engine.sig_hit_rate", "ratio", Higher, "EngineStats signature tier"),
    layer("core.engine.table_hit_rate", "ratio", Higher, "EngineStats whole-table tier"),
    layer("bdd.arena_nodes", "count", Lower, "EngineStats.arena_nodes"),
    layer("bdd.apply_lookups", "count", Lower, "EngineStats.apply_lookups"),
    layer("bdd.apply_hit_rate", "ratio", Higher, "EngineStats apply cache"),
    layer("bdd.unique_lookups", "count", Lower, "EngineStats.unique_lookups"),
    layer("core.compress.refine_s", "s", Lower, "sum of find_abstraction + build_abstract_network over classes, serial"),
    layer("core.compress.abs_nodes_mean", "nodes", Lower, "mean abstract nodes per class"),
    layer("core.compress.recompress_delta_s", "s", Lower, "recompress_delta on the one-clause edit"),
    layer("core.compress.classes_rederived", "count", Lower, "classes the edit re-derived"),
    layer("core.scenarios.unrank_ns_per_item", "ns", Lower, "ScenarioStream::iter_range over the whole plane"),
    layer("core.scenarios.signature_ns_per_item", "ns", Lower, "LinkOrbits::signature_of, 100k seeded scenarios"),
    layer("core.scenarios.canon_sig_ns_per_item", "ns", Lower, "canonical_signature_of, same scenarios"),
    layer("core.scenarios.quotient_canon_s", "s", Lower, "quotient_canon summed over classes"),
    layer("core.fanout.speedup_x", "x", Higher, "sweep_network at 1 thread / at nproc threads"),
    layer("core.delta.diff_s", "s", Lower, "diff_configs"),
    layer("core.delta.fingerprints_moved", "count", Lower, "DeltaReport.fingerprints_moved"),
    layer("srp.solve_cold_us", "us", Lower, "solve_masked, 256 seeded scenarios, median"),
    layer("srp.solve_warm_us", "us", Lower, "solve_warm_masked from the failure-free fixpoint, median"),
    layer("srp.updates_per_solve", "count", Lower, "solve_with_order_masked_stats mean label updates"),
    layer("verify.sweep.derive_us", "us", Lower, "derive_refinement per distinct signature of class 0, median"),
    layer("verify.sweep.derivations", "count", Lower, "NetworkSweepReport.derivations"),
    layer("verify.netsweep.sweep_s", "s", Lower, "sweep_network with the workload's options"),
    layer("verify.netsweep.items", "count", Lower, "(scenario, class) pairs swept"),
    layer("verify.netsweep.ns_per_item", "ns", Lower, "sweep_s / items"),
    layer("verify.netsweep.sharing_ratio", "ratio", Higher, "NetworkSweepReport::sharing_ratio"),
    layer("verify.netsweep.refined_nodes_mean", "nodes", Lower, "mean refined abstract nodes per item"),
    layer("verify.netsweep.subset_sweep_s", "s", Lower, "sweep_network_subset of the re-derived classes"),
    layer("verify.session.build_s", "s", Lower, "Session::builder().build()"),
    layer("verify.session.query_cold_us", "us", Lower, "Session::query in process, first pass, median"),
    layer("verify.session.query_warm_us", "us", Lower, "Session::query in process, second pass, median"),
    layer("verify.session.verdict_hit_rate", "ratio", Higher, "verdict memo hits / queries after both passes"),
    layer("verify.session.solver_updates", "count", Lower, "SessionStats.solver_updates after the cold pass"),
    layer("verify.session.memo_bytes", "bytes", Lower, "SessionStats.memo_bytes after the cold pass"),
    layer("verify.session.reload_s", "s", Lower, "Session::reload onto the edit, memos warm"),
    layer("verify.session.verdicts_kept_share", "ratio", Higher, "verdicts kept / (kept + dropped) by the reload"),
    layer("verify.session.restore_ms_per_answer", "ms", Lower, "extra SessionBuilder::restore time per memoized answer in the snapshot (256 queries)"),
    layer("verify.session.lifted_mismatch_share", "ratio", Lower, "two-failure reach answers differing from the concrete simulation (known defect)"),
    layer("daemon.reload_p50_ms", "ms", Lower, "wire, reload half of a cycle, median"),
    layer("daemon.replay_p50_us", "us", Lower, "wire, one request of a cycle's replay, median"),
    layer("daemon.replay_p99_us", "us", Lower, "wire, one request of a cycle's replay"),
    layer("daemon.cold_p50_us", "us", Lower, "wire, fresh daemon, first pass of the list, median"),
    layer("daemon.wire_overhead_us", "us", Lower, "daemon.replay_p50_us - verify.session.query_warm_us"),
    layer("daemon.errors", "count", Lower, "daemon_errors_total scraped with the metrics op"),
    layer("daemon.shed", "count", Lower, "daemon_query_shed scraped with the metrics op"),
    layer("cli.startup_ms", "ms", Lower, "bonsai ecs on a 4-router network, spawn to exit, median of 20"),
    layer("cli.wall_s", "s", Lower, "the workload's command, spawn to exit, in this traced run"),
    layer("cli.unattributed_s", "s", Lower, "cli.wall_s - traced stage spans: file I/O, rendering, start and exit"),
    layer("cli.encode_s", "s", Lower, "sweep_derive: wall with --json - wall with --aggregate"),
    layer("obs.trace_overhead_share", "ratio", Lower, "(wall with the program's --trace <file> - wall without) / wall without"),
];

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 22;

/// The driver's command: build and run this package.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "sysbench/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, rendered from the tables above, so the
/// file the driver reads cannot drift from what the harness measures.
pub fn benchmark_json() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let list = |metrics: &[MetricSpec]| metrics.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"sysbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER),
    )
}

/// The workload and metric tables in Markdown, for the README.
pub fn describe_markdown() -> String {
    let mut out = String::from(
        "| workload | operation timed by `op_calm_ms` | why it is here |\n|---|---|---|\n",
    );
    for w in &WORKLOADS {
        out += &format!("| `{}` | {} | {} |\n", w.name, w.op, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n";
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | what |\n|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    out
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_relative_to_the_base_and_signed() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 50.0) + 0.50).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 0.0, 0.0).is_nan());
    }

    /// `BENCHMARK.json` is what the driver reads; it must be exactly what
    /// `sysbench --describe` prints.
    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `sysbench --describe`"
        );
        assert!(bonsai::core::snapshot::Json::parse(&on_disk).is_ok());
    }

    /// The limits the driver enforces before a single run.
    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains(['\n', '"']),
                "{}: {} chars",
                w.name,
                w.why.chars().count()
            );
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        // The driver makes 4 + 22 x workloads runs, each `run_seconds`
        // plus at most 6 s of set-up and checks, and two builds of at most
        // 150 s; all of it within 85% of 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) + 2 * 150 <= 3420 * 85 / 100);
    }
}
