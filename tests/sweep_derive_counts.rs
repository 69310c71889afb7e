//! The failure sweep's miss path as a count row: the shape `sysbench`'s
//! `sweep_derive` workload times — fattree-6 PreferBottom, `k = 1`, one
//! thread, outcomes collected (`bonsai failures ft6pb.cfg --failures 1
//! --threads 1 --json`) — run in process, with every count it produces
//! held equal: derivations, items, each class's refined-node sum, a digest
//! of the `cli/failures` payload, and the SRP solver's solve and
//! label-update totals. PreferBottom shares nothing across classes, so
//! every one of the 702 refinements is derived and the solver does all of
//! the work the row pins. `sweep.check.transported` rides along: a sample
//! the canonical solution does not match would show there, and
//! `compress.abstract.rendered` stays 0: the sweep renders no
//! configuration. The digest is the one `bonsai failures` writes
//! (the envelope header, which names the build, left out).
//!
//! The counters are process-wide, so this file holds one test: no
//! other test of its binary solves concurrently.

use bonsai::cli::FailuresDoc;
use bonsai::prelude::*;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SOLVER_COUNTERS: [&str; 6] = [
    "srp.solves.cold",
    "srp.solves.seeded",
    "srp.solves.warm",
    "srp.label_updates",
    "sweep.check.transported",
    "compress.abstract.rendered",
];

#[test]
fn fattree6_prefer_bottom_k1_counts() {
    // Through the configuration text, as the command reads it.
    let text = print_network(&fattree(6, FattreePolicy::PreferBottom));
    let net = parse_network(&text).expect("the printed fattree parses");
    let topo = BuiltTopology::build(&net).expect("topology builds");
    let report = compress(&net, CompressOptions::default());
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 1,
            threads: 1,
            ..Default::default()
        },
        share_across_ecs: true,
        collect_outcomes: true,
        ..Default::default()
    };
    let before: Vec<u64> = SOLVER_COUNTERS.map(bonsai::obs::value).to_vec();
    let sweep = sweep_network(&net, &topo, &report, &options).expect("the sweep completes");
    let solver: Vec<(&str, u64)> = SOLVER_COUNTERS
        .iter()
        .zip(before)
        .map(|(&name, was)| (name, bonsai::obs::value(name) - was))
        .collect();

    let document = FailuresDoc::from_sweep(&topo, &sweep, false, true, Vec::new()).render();
    let payload = document
        .split_once("\"payload\":")
        .expect("an enveloped document")
        .1;
    let refined_nodes_sums: Vec<usize> = sweep
        .per_ec
        .iter()
        .map(|ec| ec.report.stats.refined_nodes_sum)
        .collect();

    assert_eq!(
        (
            sweep.derivations,
            sweep.scenarios_swept(),
            refined_nodes_sums,
            fnv1a(payload.as_bytes()),
            solver,
        ),
        (
            702,
            1944,
            vec![3129; 18],
            2_974_335_009_581_984_694,
            // Per derivation: the second concrete sample and the canonical
            // solve cold, the first concrete sample warm; plus each class's
            // concrete failure-free fixpoint. The canonical solution
            // matches both samples of every derivation, so no sample is
            // transported (and a transport validates, it does not solve).
            vec![
                ("srp.solves.cold", 1422),
                ("srp.solves.seeded", 0),
                ("srp.solves.warm", 702),
                ("srp.label_updates", 67_986),
                ("sweep.check.transported", 0),
                // Derivations check layouts on their lifted instances:
                // no configuration is written.
                ("compress.abstract.rendered", 0),
            ],
        )
    );
}
