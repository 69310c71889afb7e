//! `--study`: what the driver does before it accepts the benchmark — ten
//! seeds per workload, two sets, through the exact `BENCHMARK.json`
//! command — printed per (workload, metric) as both medians, both
//! quartile spreads and the bound.

use crate::measure::median;
use bonsai::core::snapshot::Json;
use std::process::{Command, Stdio};

/// Runs of one workload in one set.
const SEEDS_PER_SET: u64 = 10;

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default,
/// "exclusive" method: position `i (len + 1) / 4`, clamped, linearly
/// interpolated), which is what the driver computes.
pub fn python_quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Distance between the first and the third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = python_quartiles(values);
    (q3 - q1) / median(values)
}

struct Metric {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

/// The parts of `BENCHMARK.json` a study needs.
struct Benchmark {
    command: Vec<String>,
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

fn read_benchmark() -> Result<Benchmark, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json without \"{key}\""))
    };
    let text_of = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without \"{key}\""))
    };
    Ok(Benchmark {
        command: list("command")?
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect(),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json without \"run_seconds\"")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("end-to-end metric without \"bound\"")?,
                    higher_is_better: text_of(m, "better")? == "higher",
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One driver run; returns the metric values in `end_to_end` order.
fn driver_run(bench: &Benchmark, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let (program, rest) = bench.command.split_first().ok_or("empty command")?;
    let output = Command::new(program)
        .args(rest)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exited with {}",
            output.status
        ));
    }
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}: {line}"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: not correct: {line}"));
    }
    bench
        .end_to_end
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|all| all.get(&m.name))
                .and_then(|one| one.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no {} in {line}", m.name))
        })
        .collect()
}

/// Two sets of ten seeds per workload; true when every spread (`setup_s`
/// excepted, as in the driver) is within its bound in both sets and no
/// second median is worse than the first by more than the bound.
pub fn run() -> Result<bool, String> {
    let bench = read_benchmark()?;
    // values[set][workload][metric] = the ten runs' values.
    let mut values = vec![vec![vec![Vec::new(); bench.end_to_end.len()]; bench.workloads.len()]; 2];
    for (set, of_set) in values.iter_mut().enumerate() {
        for (workload, of_workload) in bench.workloads.iter().zip(of_set.iter_mut()) {
            for seed in 1..=SEEDS_PER_SET {
                let seed = set as u64 * SEEDS_PER_SET + seed;
                eprintln!("set {} {workload} seed {seed}", set + 1);
                for (m, v) in driver_run(&bench, workload, seed)?.into_iter().enumerate() {
                    of_workload[m].push(v);
                }
            }
        }
    }
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "2_vs_1", "bound"
    );
    let mut accepted = true;
    for (w, workload) in bench.workloads.iter().enumerate() {
        for (m, metric) in bench.end_to_end.iter().enumerate() {
            let (first, second) = (&values[0][w][m], &values[1][w][m]);
            let (median_1, median_2) = (median(first), median(second));
            let (spread_1, spread_2) = (quartile_spread(first), quartile_spread(second));
            let moved = (median_2 - median_1) / median_1;
            let worse = if metric.higher_is_better {
                -moved
            } else {
                moved
            };
            let spread = spread_1.max(spread_2);
            let verdict = if worse > metric.bound {
                "REFUSED: second median worse than the bound"
            } else if metric.name != "setup_s" && spread > metric.bound {
                "REFUSED: spread beyond the bound"
            } else if metric.name != "setup_s" && spread > metric.bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            accepted &= !verdict.starts_with("REFUSED");
            println!(
                "{workload:<16} {:<12} {median_1:>12.4} {median_2:>12.4} {spread_1:>8.4} \
                 {spread_2:>8.4} {moved:>+8.4} {:>6}  {verdict}",
                metric.name, metric.bound
            );
        }
    }
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values checked against `statistics.quantiles(values, n=4)`.
    #[test]
    fn quartiles_are_pythons() {
        let ten: Vec<f64> = [9.0, 1.0, 4.0, 2.0, 8.0, 3.0, 10.0, 6.0, 5.0, 7.0].to_vec();
        assert_eq!(python_quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartile_spread(&ten), 1.0);
        assert_eq!(python_quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(
            python_quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            [15.0, 40.0, 120.0]
        );
        // Two values: every cut point is clamped onto the one interval.
        assert_eq!(python_quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
