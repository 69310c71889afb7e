//! The CI bench gate.
//!
//! ```text
//! bench_gate BASELINE.json CANDIDATE.json
//! ```
//!
//! Loads two enveloped snapshots of the same kind (`bench/compress` from
//! `table1 --json`, `bench/failures` from `failures --json`, `bench/delta`
//! from `delta --json`) and exits nonzero when a count of a baseline row —
//! any number that is not a duration — differs in the candidate's row, or
//! when a row or field is missing. Durations are printed and not judged.
//! See `bonsai_bench::gate` for the exact rule.

use bonsai_bench::gate::{compare_snapshots, render};
use bonsai_core::snapshot::Envelope;
use std::process::ExitCode;

fn load(path: &str) -> Result<Envelope, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Envelope::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<bool, String> {
        let [baseline, candidate] = args.as_slice() else {
            return Err("usage: bench_gate BASELINE.json CANDIDATE.json".to_string());
        };
        let result = compare_snapshots(&load(baseline)?, &load(candidate)?);
        print!("{}", render(&result));
        Ok(result.passed())
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench gate FAILED");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}
