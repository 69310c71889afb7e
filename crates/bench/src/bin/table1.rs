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
//! engine counters are what `bench_gate` judges, and which class finds a
//! signature cached depends on the order the workers claim them.

use bonsai_bench::{
    report_json, snapshot_json, Table1Row, COMPRESS_SNAPSHOT_KIND, COMPRESS_SNAPSHOT_VERSION,
};
use bonsai_core::compress::{compress, CompressOptions, CompressionReport};
use bonsai_core::roles::{count_roles, RoleOptions};
use bonsai_topo::{
    datacenter, fattree, full_mesh, ring, wan, DatacenterParams, FattreePolicy, WanParams,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let real = args.iter().any(|a| a == "--real");
    let roles = args.iter().any(|a| a == "--roles");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_compress.json".to_string())
    });

    if roles {
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
    let mut snapshot: Vec<String> = Vec::new();
    if real {
        run_real(quick, options, &mut snapshot);
    } else {
        run_synthetic(quick, options, &mut snapshot);
    }
    if let Some(path) = json_path {
        let doc = snapshot_json(COMPRESS_SNAPSHOT_KIND, COMPRESS_SNAPSHOT_VERSION, &snapshot);
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} ({} rows)", snapshot.len());
    }
}

fn run_one(label: &str, report: &CompressionReport, snapshot: &mut Vec<String>) {
    println!("{}", Table1Row::from_report(label, report).render());
    snapshot.push(report_json(label, report));
}

fn run_synthetic(quick: bool, options: CompressOptions, snapshot: &mut Vec<String>) {
    println!("(a) Synthetic networks");
    println!("{}", Table1Row::header());
    let fattree_ks: &[usize] = if quick { &[4, 8] } else { &[12, 20, 30] };
    for &k in fattree_ks {
        let net = fattree(k, FattreePolicy::ShortestPath);
        let report = compress(&net, options);
        run_one(&format!("Fattree{k}"), &report, snapshot);
    }
    let ring_ns: &[usize] = if quick { &[20, 50] } else { &[100, 500, 1000] };
    for &n in ring_ns {
        let report = compress(&ring(n), options);
        run_one(&format!("Ring{n}"), &report, snapshot);
    }
    let mesh_ns: &[usize] = if quick { &[10, 20] } else { &[50, 150, 250] };
    for &n in mesh_ns {
        let report = compress(&full_mesh(n), options);
        run_one(&format!("FullMesh{n}"), &report, snapshot);
    }
}

fn run_real(quick: bool, options: CompressOptions, snapshot: &mut Vec<String>) {
    println!("(b) Real networks (structural simulacra; see DESIGN.md)");
    println!("{}", Table1Row::header());
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
    let dc = datacenter(dc_params);
    // The paper's data-center run uses the unused-tag-stripping h.
    let report = compress(
        &dc,
        CompressOptions {
            strip_unused_communities: true,
            ..options
        },
    );
    run_one("Data center", &report, snapshot);

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
    let w = wan(wan_params);
    let report = compress(&w, options);
    run_one("WAN", &report, snapshot);
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
