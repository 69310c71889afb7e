//! The delta-reverification study behind the `delta` binary: on
//! fattree-8, edit one route-map and compare the **fresh full pipeline**
//! on the edited config against the **warm delta pipeline** that absorbs
//! the edit into the unedited run's engine and re-sweeps only the classes
//! the edit touched.
//!
//! The edit pins local-preference for `edge0_0`'s own /24 on its import
//! route-map — a destination-specific, policy-content change. Exactly
//! one destination class's signature table moves; the other 31 classes
//! are proven equal and keep their abstractions, so `delta_s` pays one
//! class's re-sweep while `full_s` pays 32 compressions plus the whole
//! (class × scenario) plane.

use bonsai_config::{
    Action, MatchCond, NetworkConfig, PrefixList, PrefixListEntry, RouteMapClause, SetAction,
};
use bonsai_core::compress::{compress, recompress_delta, CompressOptions};
use bonsai_core::snapshot::{write_object, Layout};
use bonsai_topo::{fattree, FattreePolicy};
use bonsai_verify::netsweep::{sweep_network, sweep_network_subset, NetworkSweepOptions};
use bonsai_verify::sweep::SweepOptions;
use std::time::{Duration, Instant};

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

/// One run of the study: the counts the snapshot row carries and the
/// ones `tests/bench_baselines.rs` bounds, plus the two wall-clock sides.
pub struct DeltaRun {
    /// The failure bound swept on both sides.
    pub k: usize,
    /// Fresh compress + full sweep on the edited config.
    pub full: Duration,
    /// Warm delta apply + subset re-sweep.
    pub delta: Duration,
    /// Destination classes of the edited network.
    pub ecs_total: usize,
    /// Classes the delta re-derived (and re-swept).
    pub ecs_rederived: usize,
    /// Classes whose fingerprint moved.
    pub fingerprints_moved: usize,
    /// Refinement derivations of the full sweep.
    pub full_derivations: usize,
    /// Refinement derivations of the delta re-sweep.
    pub delta_derivations: usize,
    /// Refinements the delta re-sweep holds, over its classes.
    pub delta_refinements: usize,
    /// Workers the delta re-sweep ran on.
    pub delta_workers: usize,
}

impl DeltaRun {
    /// The run as the one row of the `bench/delta` snapshot.
    pub fn json(&self) -> String {
        let mut row = String::new();
        write_object(&mut row, Layout::Compact, |o| {
            o.str("label", "Fattree8").uint("k", self.k);
            o.object("times", Layout::Compact, |o| {
                o.float("full_s", self.full.as_secs_f64(), 6).float(
                    "delta_s",
                    self.delta.as_secs_f64(),
                    6,
                );
            });
            o.uint("ecs_total", self.ecs_total)
                .uint("ecs_rederived", self.ecs_rederived)
                .uint("fingerprints_moved", self.fingerprints_moved);
        });
        row
    }
}

/// Runs both pipelines on fattree-8 under `≤ k` link failures with
/// `threads` sweep workers (0 = one per core).
pub fn run(k: usize, threads: usize) -> Result<DeltaRun, String> {
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
    let full_sweep = sweep_network(&new_net, &new_topo, &full_report, &sweep_options)
        .map_err(|e| format!("full sweep failed: {e}"))?;
    let full = full_start.elapsed();

    // Warm delta pipeline: the unedited run's engine is the resident
    // state (built outside the timer — it exists before the push), the
    // timer covers absorbing the edit and re-sweeping what moved.
    let old_report = compress(&old_net, options);
    let delta_start = Instant::now();
    let dr = recompress_delta(&old_report, &old_net, &new_net, options);
    let subset = sweep_network_subset(
        &new_net,
        &new_topo,
        &dr.report,
        &sweep_options,
        &dr.rederived,
    )
    .map_err(|e| format!("delta re-sweep failed: {e}"))?;
    let delta = delta_start.elapsed();

    Ok(DeltaRun {
        k,
        full,
        delta,
        ecs_total: dr.ecs_total(),
        ecs_rederived: dr.rederived.len(),
        fingerprints_moved: dr.fingerprints_moved,
        full_derivations: full_sweep.derivations,
        delta_derivations: subset.derivations,
        delta_refinements: subset
            .per_ec
            .iter()
            .map(|ec| ec.report.refinements.len())
            .sum(),
        delta_workers: subset.threads.max(1),
    })
}
