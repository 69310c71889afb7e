//! `sysbench`: the one benchmark of the whole system.
//!
//! ```text
//! sysbench --workload W --seed N --seconds S --trace 0|1   one workload; the last
//!                                                          stdout line is the result
//! sysbench [--seed N] [--seconds S]                        every workload end to end,
//!                                                          then traced; tables and two
//!                                                          result documents
//! sysbench --study                                         what the driver does: ten
//!                                                          seeds a workload, two sets
//! sysbench --compare a.json b.json                         two result documents
//! sysbench --describe                                      BENCHMARK.json on stdout,
//!                                                          the README tables on stderr
//! ```
//!
//! Run from the repository root. End-to-end numbers (`--trace 0`) come
//! from outside the program: the harness spawns the release `bonsai`
//! binary and times it. Per-layer numbers (`--trace 1`) come from a
//! separate traced run in which the harness calls each crate's public
//! functions stage by stage on the same generated inputs.

mod checks;
mod daemon;
mod gen;
mod measure;
mod report;
mod spec;
mod study;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Where a full run leaves its two result documents (the working
/// directory, which is the checkout).
const RESULT_FILE: &str = "sysbench_result.json";
const LAYERS_FILE: &str = "sysbench_layers.json";

/// Removes the scratch directory on every exit path.
struct Scratch(PathBuf);

impl Scratch {
    /// `.sysbench_tmp/<pid>-<label>` under the current directory: inside
    /// the checkout, and — being relative — short enough for a Unix
    /// socket path wherever the checkout lives.
    fn create(label: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".sysbench_tmp").join(format!("{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run has left it.
        let _ = std::fs::remove_dir(".sysbench_tmp");
    }
}

/// Builds the program under test from source and returns its path.
fn build_bonsai() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").exists() || !Path::new("src/bin/bonsai.rs").exists() {
        return Err("run from the repository root (no Cargo.toml / src/bin/bonsai.rs here)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "bonsai"])
        .stdin(Stdio::null())
        // The result line owns stdout; cargo's own output goes to stderr.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin bonsai` failed with {status}"
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("bonsai");
    if !bin.is_file() {
        return Err(format!(
            "{} is missing; build it with `cargo build --release`",
            bin.display()
        ));
    }
    Ok(bin)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    study: bool,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        study: false,
        compare: None,
        describe: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value(&mut i, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--study" => args.study = true,
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                args.compare = Some((a, b));
            }
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

/// Runs one workload, end to end or traced, in its own scratch directory.
fn run_workload(
    name: &str,
    bin: &Path,
    args: &Args,
    trace: bool,
) -> Result<report::WorkloadResult, String> {
    let scratch = Scratch::create(name)?;
    let env = workloads::Env {
        bin,
        dir: &scratch.0,
        seed: args.seed,
        seconds: args.seconds,
    };
    if trace {
        let traced = trace::run(name, &env)?;
        trace::print_span_table(name, &traced.spans);
        Ok(report::WorkloadResult::from_trace(name, traced))
    } else {
        Ok(report::WorkloadResult::from_outcome(
            name,
            workloads::run(name, &env)?,
        ))
    }
}

/// Every workload in turn. A workload that aborts is recorded as failed
/// and the suite goes on.
fn run_suite(bin: &Path, args: &Args, trace: bool, out: &str) -> Result<bool, String> {
    let mut doc = report::Document::new(args.seed, args.seconds, trace);
    for w in &spec::WORKLOADS {
        eprintln!("== {}{} ==", w.name, if trace { " (traced)" } else { "" });
        let result = run_workload(w.name, bin, args, trace)
            .unwrap_or_else(|e| report::WorkloadResult::aborted(w.name, e));
        result.print();
        doc.workloads.push(result);
    }
    std::fs::write(out, doc.render()).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(doc.all_correct())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if args.describe {
        print!("{}", spec::benchmark_json());
        eprint!("{}", spec::describe_markdown());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let read = |p: &str| -> Result<report::Document, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
            report::Document::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        return Ok(report::compare(&read(a)?, &read(b)?));
    }
    if args.study {
        return study::run();
    }

    let bin = build_bonsai()?;
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            return Err(format!(
                "unknown workload `{name}` (one of: {})",
                spec::WORKLOADS.map(|w| w.name).join(", ")
            ));
        }
        let result = run_workload(name, &bin, &args, args.trace)?;
        result.print();
        // The driver reads the last line of stdout.
        println!("{}", result.driver_line());
        return Ok(true);
    }
    let end_to_end = run_suite(&bin, &args, false, RESULT_FILE)?;
    let traced = run_suite(&bin, &args, true, LAYERS_FILE)?;
    Ok(end_to_end && traced)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::from(2)
        }
    }
}
