//! The delta-reverification study: on fattree-8, edit one route-map and
//! compare the **fresh full pipeline** on the edited config against the
//! **warm delta pipeline** that absorbs the edit into the unedited run's
//! engine and re-sweeps only the classes the edit touched.
//!
//! ```text
//! delta [--failures k] [--threads n] [--json [path]] [--check]
//! ```
//!
//! The edit pins local-preference for `edge0_0`'s own /24 on its import
//! route-map — a destination-specific, policy-content change. Exactly
//! one destination class's signature table moves; the other 31 classes
//! are proven equal and keep their abstractions, so `delta_s` pays one
//! class's re-sweep while `full_s` pays 32 compressions plus the whole
//! (class × scenario) plane.
//!
//! `--check` turns the run into the CI acceptance gate, in **counts**:
//! the run must re-derive at most 2 classes, and the delta re-sweep must
//! derive each of their refinements at most once per worker. The
//! delta/full wall-clock ratio is printed, not judged: every sweep
//! speed-up shrinks only its denominator (1.4 % when PR 10 recorded it,
//! 6.7 % at PR 17 with the delta path no slower). `--json` writes the
//! `bench/delta` snapshot (`BENCH_delta.json`) that `bench_gate` compares
//! against the committed `BENCH_delta_baseline.json`.

use bonsai_bench::{secs, snapshot_json, DELTA_SNAPSHOT_KIND, DELTA_SNAPSHOT_VERSION};
use bonsai_config::{
    Action, MatchCond, NetworkConfig, PrefixList, PrefixListEntry, RouteMapClause, SetAction,
};
use bonsai_core::compress::{compress, recompress_delta, CompressOptions};
use bonsai_core::snapshot::{write_object, Layout};
use bonsai_topo::{fattree, FattreePolicy};
use bonsai_verify::netsweep::{sweep_network, sweep_network_subset, NetworkSweepOptions};
use bonsai_verify::sweep::SweepOptions;
use std::process::ExitCode;
use std::time::Instant;

/// The studied edit: on `edge0_0`, a new first clause of the import
/// route-map that pins local-preference for the device's **own** /24.
/// Destination-specific (only the 10.0.0.0/24 class's signatures move)
/// and orbit-preserving (the origin is already unique in that class's
/// orbit structure), so the touched class stays as cheap to re-sweep as
/// it was to sweep.
fn edited(net: &NetworkConfig) -> NetworkConfig {
    let mut new_net = net.clone();
    let dev = new_net
        .devices
        .iter_mut()
        .find(|d| d.name == "edge0_0")
        .expect("fattree-8 has edge0_0");
    dev.prefix_lists.push(PrefixList {
        name: "ONE".into(),
        entries: vec![PrefixListEntry {
            seq: 5,
            action: Action::Permit,
            prefix: "10.0.0.0/24".parse().unwrap(),
            ge: None,
            le: None,
        }],
    });
    dev.route_maps[0].clauses.insert(
        0,
        RouteMapClause {
            seq: 5,
            action: Action::Permit,
            matches: vec![MatchCond::PrefixList("ONE".into())],
            sets: vec![SetAction::LocalPref(150)],
        },
    );
    new_net
}

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (k, threads) = match (
        usize_flag(&args, "--failures", 2),
        usize_flag(&args, "--threads", 0),
    ) {
        (Ok(k), Ok(t)) => (k, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let check = args.iter().any(|a| a == "--check");
    let json_path: Option<Option<String>> = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned());

    let old_net = fattree(8, FattreePolicy::ShortestPath);
    let new_net = edited(&old_net);
    let options = CompressOptions::default();
    let sweep_options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads,
            ..Default::default()
        },
        share_across_ecs: true,
        ..Default::default()
    };
    let new_topo = bonsai_config::BuiltTopology::build(&new_net).expect("fattree builds");

    // Fresh full pipeline on the edited config: what a non-incremental
    // deployment pays for every push.
    let full_start = Instant::now();
    let full_report = compress(&new_net, options);
    let full_sweep = match sweep_network(&new_net, &new_topo, &full_report, &sweep_options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("full sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let full_s = full_start.elapsed().as_secs_f64();

    // Warm delta pipeline: the unedited run's engine is the resident
    // state (built outside the timer — it exists before the push), the
    // timer covers absorbing the edit and re-sweeping what moved.
    let old_report = compress(&old_net, options);
    let delta_start = Instant::now();
    let dr = recompress_delta(&old_report, &old_net, &new_net, options);
    let subset = match sweep_network_subset(
        &new_net,
        &new_topo,
        &dr.report,
        &sweep_options,
        &dr.rederived,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("delta re-sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let delta_s = delta_start.elapsed().as_secs_f64();

    println!(
        "{:<10} {:>2} {:>9} {:>10} {:>13} {:>10} {:>8}",
        "Topology", "k", "full(s)", "delta(s)", "rederived/ECs", "fp moved", "ratio"
    );
    println!(
        "{:<10} {:>2} {:>9} {:>10} {:>10}/{:<2} {:>10} {:>7.1}%",
        "Fattree8",
        k,
        secs(std::time::Duration::from_secs_f64(full_s)),
        secs(std::time::Duration::from_secs_f64(delta_s)),
        dr.rederived.len(),
        dr.ecs_total(),
        dr.fingerprints_moved,
        100.0 * delta_s / full_s,
    );
    println!(
        "full sweep: {} derivations; delta re-sweep: {} derivations across {} classes",
        full_sweep.derivations,
        subset.derivations,
        subset.per_ec.len(),
    );

    let mut row = String::new();
    write_object(&mut row, Layout::Compact, |o| {
        o.str("label", "Fattree8").uint("k", k);
        o.object("times", Layout::Compact, |o| {
            o.float("full_s", full_s, 6).float("delta_s", delta_s, 6);
        });
        o.uint("ecs_total", dr.ecs_total())
            .uint("ecs_rederived", dr.rederived.len())
            .uint("fingerprints_moved", dr.fingerprints_moved);
    });
    let snapshot = || snapshot_json(DELTA_SNAPSHOT_KIND, DELTA_SNAPSHOT_VERSION, &[row]);
    match &json_path {
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, snapshot()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        Some(None) => print!("{}", snapshot()),
        None => {}
    }

    if check {
        if dr.rederived.len() > 2 {
            eprintln!(
                "delta check FAILED: {} classes re-derived (acceptance bound: ≤ 2)",
                dr.rederived.len()
            );
            return ExitCode::FAILURE;
        }
        let refinements: usize = subset
            .per_ec
            .iter()
            .map(|ec| ec.report.refinements.len())
            .sum();
        if subset.derivations > refinements * subset.threads.max(1) {
            eprintln!(
                "delta check FAILED: {} derivations for {refinements} refinements on {} workers",
                subset.derivations, subset.threads,
            );
            return ExitCode::FAILURE;
        }
        println!(
            "delta check passed: {}/{} classes re-derived, {} derivations for {refinements} \
             refinements; delta at {:.1}% of full (not judged)",
            dr.rederived.len(),
            dr.ecs_total(),
            subset.derivations,
            100.0 * delta_s / full_s,
        );
    }
    ExitCode::SUCCESS
}
