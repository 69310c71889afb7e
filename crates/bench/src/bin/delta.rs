//! The delta-reverification study (`bonsai_bench::delta`): a one-route-map
//! edit on fattree-8, fresh full pipeline vs warm delta pipeline.
//!
//! ```text
//! delta [--failures k] [--threads n] [--json [path]]
//! ```
//!
//! The delta/full wall-clock ratio is printed, not judged: every sweep
//! speed-up shrinks only its denominator (1.4 % when PR 10 recorded it,
//! 6.7 % at PR 17 with the delta path no slower). `--json` writes the
//! `bench/delta` snapshot; its counts, and the bounds on what the delta
//! side may re-derive, are held by `tests/bench_baselines.rs`.

use bonsai_bench::flags::{Arity, Flags};
use bonsai_bench::{delta, secs, snapshot_json, DELTA_SNAPSHOT_KIND, DELTA_SNAPSHOT_VERSION};
use std::process::ExitCode;

fn main() -> ExitCode {
    let flags = Flags::from_env(&[
        ("--failures", Arity::Number),
        ("--threads", Arity::Number),
        ("--json", Arity::Optional),
    ]);
    let k = flags.number("--failures").unwrap_or(2);
    let run = match delta::run(k, flags.number("--threads").unwrap_or(0)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<10} {:>2} {:>9} {:>10} {:>13} {:>10} {:>8}",
        "Topology", "k", "full(s)", "delta(s)", "rederived/ECs", "fp moved", "ratio"
    );
    println!(
        "{:<10} {:>2} {:>9} {:>10} {:>10}/{:<2} {:>10} {:>7.1}%",
        "Fattree8",
        k,
        secs(run.full),
        secs(run.delta),
        run.ecs_rederived,
        run.ecs_total,
        run.fingerprints_moved,
        100.0 * run.delta.as_secs_f64() / run.full.as_secs_f64(),
    );
    println!(
        "full sweep: {} derivations; delta re-sweep: {} derivations across {} classes",
        run.full_derivations, run.delta_derivations, run.ecs_rederived,
    );

    let snapshot = || snapshot_json(DELTA_SNAPSHOT_KIND, DELTA_SNAPSHOT_VERSION, &[run.json()]);
    match flags.optional("--json") {
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
    ExitCode::SUCCESS
}
