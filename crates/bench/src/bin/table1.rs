//! Regenerates **Table 1**: compression results for synthetic and "real"
//! networks, now including the shared-engine arena/cache columns.
//!
//! ```text
//! table1                   # Table 1(a): fattree / ring / full mesh sweeps
//! table1 --quick           # smaller sweep sizes (CI-friendly)
//! table1 --real            # Table 1(b): data-center and WAN simulacra
//! table1 --roles           # the §8 role-count study (112 → 26 → 8)
//! table1 --json [PATH]     # also write a BENCH_compress.json perf
//!                          # snapshot (per-stage times, arena stats,
//!                          # compression ratios); default path
//!                          # BENCH_compress.json
//! ```
//!
//! With `--json` the classes are compressed by one worker: the snapshot's
//! engine counters are held equal to `BENCH_baseline.json` by
//! `tests/bench_baselines.rs`, and which class finds a signature cached
//! depends on the order the workers claim them.

use bonsai_bench::flags::{Arity, Flags};
use bonsai_bench::{
    report_json, snapshot_json, table1_real, table1_synthetic, Table1Row, COMPRESS_SNAPSHOT_KIND,
    COMPRESS_SNAPSHOT_VERSION,
};
use bonsai_core::compress::{CompressOptions, CompressionReport};
use bonsai_core::roles::{count_roles, RoleOptions};
use bonsai_topo::{datacenter, wan, DatacenterParams, WanParams};

fn main() {
    let flags = Flags::from_env(&[
        ("--quick", Arity::Switch),
        ("--real", Arity::Switch),
        ("--roles", Arity::Switch),
        ("--json", Arity::Optional),
    ]);
    let quick = flags.switch("--quick");
    let json_path = flags
        .optional("--json")
        .map(|path| path.unwrap_or("BENCH_compress.json"));

    if flags.switch("--roles") {
        if json_path.is_some() {
            eprintln!("warning: --json is ignored with --roles (the role study produces no compression snapshot)");
        }
        run_roles(quick);
        return;
    }
    let options = CompressOptions {
        threads: if json_path.is_some() { 1 } else { 0 },
        ..Default::default()
    };
    let rows: Box<dyn Iterator<Item = (String, CompressionReport)>> = if flags.switch("--real") {
        println!("(b) Real networks (structural simulacra of the paper's proprietary networks)");
        Box::new(table1_real(quick, options))
    } else {
        println!("(a) Synthetic networks");
        Box::new(table1_synthetic(quick, options))
    };
    println!("{}", Table1Row::header());
    let mut snapshot: Vec<String> = Vec::new();
    for (label, report) in rows {
        println!("{}", Table1Row::from_report(&label, &report).render());
        snapshot.push(report_json(&label, &report));
    }
    if let Some(path) = json_path {
        let doc = snapshot_json(COMPRESS_SNAPSHOT_KIND, COMPRESS_SNAPSHOT_VERSION, &snapshot);
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} ({} rows)", snapshot.len());
    }
}

fn run_roles(quick: bool) {
    let dc_params = if quick {
        DatacenterParams {
            clusters: 4,
            tors_per_cluster: 6,
            ..Default::default()
        }
    } else {
        DatacenterParams::default()
    };
    let dc = datacenter(dc_params);
    let full = count_roles(&dc, RoleOptions::default());
    let stripped = count_roles(
        &dc,
        RoleOptions {
            strip_unused_communities: true,
            ..Default::default()
        },
    );
    let no_static = count_roles(
        &dc,
        RoleOptions {
            strip_unused_communities: true,
            ignore_static_routes: true,
        },
    );
    println!("Data center roles (paper: 112 -> 26 -> 8):");
    println!("  full signatures:          {full}");
    println!("  unused tags stripped:     {stripped}");
    println!("  ... and static ignored:   {no_static}");

    let w = wan(if quick {
        WanParams {
            pops: 6,
            ..Default::default()
        }
    } else {
        WanParams::default()
    });
    let wan_roles = count_roles(&w, RoleOptions::default());
    println!("WAN roles (paper: 137): {wan_roles}");
}
