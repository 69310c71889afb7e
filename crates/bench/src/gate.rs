//! The CI perf-regression gate: compare two snapshots of the same
//! envelope kind stage by stage and fail on wall-clock regressions.
//!
//! CI has always *uploaded* the perf snapshots; this module is what reads
//! them back. Committed baselines (`BENCH_baseline.json` for the
//! compression study, `BENCH_failures_baseline.json` for the failure
//! study) record the blessed per-stage times; the gate compares a freshly
//! generated snapshot against its baseline, row by row (matched on
//! `label`, failure rows additionally on `k`) and stage by stage, and
//! reports a regression when
//!
//! ```text
//! candidate > threshold * max(baseline, floor)
//! ```
//!
//! Snapshots arrive as [`bonsai_core::snapshot::Envelope`]s; the stage
//! list follows the envelope kind ([`stages_for_kind`]): compression
//! snapshots gate the pipeline stages, failure snapshots gate the cold /
//! warm / audit / refined-abstract / sweep-engine / network-sweep columns
//! — which is what locks in the warm-start and per-scenario-sweep
//! speedups. Pre-envelope snapshots (and enveloped ones of an older
//! payload version) fail with an explicit regenerate message rather than
//! a silent pass.
//!
//! The `floor` (default 25 ms) keeps micro-stages out of the verdict:
//! sub-millisecond stages jitter by integer factors on shared CI runners
//! without any code change, while a genuine pipeline regression shows up
//! in stages that take real time. Both knobs are command-line flags of
//! the `bench_gate` binary, so a noisy runner can be accommodated without
//! touching code. Missing rows and missing stages are hard failures —
//! silently dropping a benchmark must not read as "no regression".

use bonsai_core::snapshot::{Envelope, Json};

/// The per-stage wall-clock fields of a compression snapshot row's
/// `times` object.
pub const STAGES: [&str; 5] = [
    "total_s",
    "ec_compute_s",
    "engine_build_s",
    "bdd_s",
    "per_ec_s",
];

/// The per-stage wall-clock fields of a failure-study snapshot row's
/// `times` object (cold concrete sweep, warm-started sweep, PR 3 audit,
/// refined-abstract sweep, per-scenario sweep engine, network-level
/// sweep, sharded-report merge). The resident-session query latencies
/// (`query_cold_us`, `query_warm_us`) ride in the rows but are **not**
/// gated — they are microsecond-scale and would drown in runner jitter;
/// same for the `streamed` counters, which are exact integers gated by
/// the acceptance tests instead.
pub const FAILURE_STAGES: [&str; 7] = [
    "concrete_s",
    "warm_s",
    "audit_s",
    "abstract_s",
    "sweep_s",
    "netsweep_s",
    "merge_s",
];

/// The per-stage wall-clock fields of a delta-reverification snapshot
/// row's `times` object (fresh full pipeline vs warm delta pipeline on
/// the same edited config). The reuse counters (`ecs_rederived`,
/// `fingerprints_moved`) ride in the rows ungated — they are exact
/// integers asserted by the `delta --check` acceptance run.
pub const DELTA_STAGES: [&str; 2] = ["full_s", "delta_s"];

/// The stage list the gate compares for an envelope kind + payload
/// version, or `None` for snapshots it does not know how to gate.
pub fn stages_for_kind(kind: &str, version: u32) -> Option<&'static [&'static str]> {
    match (kind, version) {
        (crate::COMPRESS_SNAPSHOT_KIND, crate::COMPRESS_SNAPSHOT_VERSION) => Some(&STAGES),
        (crate::FAILURES_SNAPSHOT_KIND, crate::FAILURES_SNAPSHOT_VERSION) => Some(&FAILURE_STAGES),
        (crate::DELTA_SNAPSHOT_KIND, crate::DELTA_SNAPSHOT_VERSION) => Some(&DELTA_STAGES),
        _ => None,
    }
}

/// One stage comparison.
#[derive(Clone, Debug)]
pub struct StageComparison {
    /// Row label (topology).
    pub label: String,
    /// Stage name (a member of [`STAGES`]).
    pub stage: String,
    /// Baseline seconds.
    pub baseline_s: f64,
    /// Candidate seconds.
    pub candidate_s: f64,
    /// `candidate / max(baseline, floor)`.
    pub ratio: f64,
    /// True when the stage regressed past the threshold.
    pub regressed: bool,
}

/// Outcome of a snapshot comparison.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Every stage comparison performed, in row order.
    pub comparisons: Vec<StageComparison>,
    /// Structural problems (missing rows/stages, kind/version mismatch).
    pub errors: Vec<String>,
}

impl GateResult {
    /// The comparisons that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &StageComparison> {
        self.comparisons.iter().filter(|c| c.regressed)
    }

    /// True when the candidate passes: no regressions, no structural
    /// problems.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.regressions().next().is_none()
    }
}

/// Row key: the label, extended with the failure bound `k` when present
/// (failure-study rows repeat a topology across bounds).
fn row_key(row: &Json) -> Option<String> {
    let label = row.get("label").and_then(Json::as_str)?;
    match row.get("k").and_then(Json::as_f64) {
        Some(k) => Some(format!("{label} k={k}")),
        None => Some(label.to_string()),
    }
}

fn rows_by_label<'j>(
    env: &'j Envelope,
    which: &str,
    errors: &mut Vec<String>,
) -> Vec<(String, &'j Json)> {
    let mut out = Vec::new();
    match env.payload.get("rows").and_then(Json::as_arr) {
        None => errors.push(format!("{which}: no rows array in the payload")),
        Some(rows) => {
            for row in rows {
                match row_key(row) {
                    Some(key) => out.push((key, row)),
                    None => errors.push(format!("{which}: row without a label")),
                }
            }
        }
    }
    out
}

/// Compares a candidate snapshot against a baseline of the same envelope
/// kind and payload version.
///
/// The stage list is derived from the baseline's kind
/// ([`stages_for_kind`]); the candidate must carry the identical kind and
/// version. Every baseline row must exist in the candidate and every
/// stage must be present in both (missing data is a structural error).
/// Candidate-only rows are compared against nothing — new benchmarks may
/// land before their baseline is re-blessed.
pub fn compare_snapshots(
    baseline: &Envelope,
    candidate: &Envelope,
    threshold: f64,
    floor_s: f64,
) -> GateResult {
    let mut result = GateResult::default();
    let Some(stages) = stages_for_kind(&baseline.kind, baseline.version) else {
        result.errors.push(format!(
            "baseline: don't know how to gate snapshot kind \"{}\" v{} — regenerate it \
             with the current writers",
            baseline.kind, baseline.version
        ));
        return result;
    };
    if (candidate.kind.as_str(), candidate.version) != (baseline.kind.as_str(), baseline.version) {
        result.errors.push(format!(
            "candidate snapshot \"{}\" v{} does not match baseline \"{}\" v{}",
            candidate.kind, candidate.version, baseline.kind, baseline.version
        ));
        return result;
    }
    let base_rows = rows_by_label(baseline, "baseline", &mut result.errors);
    let cand_rows = rows_by_label(candidate, "candidate", &mut result.errors);

    for (label, base_row) in &base_rows {
        let Some((_, cand_row)) = cand_rows.iter().find(|(l, _)| l == label) else {
            result
                .errors
                .push(format!("candidate is missing baseline row '{label}'"));
            continue;
        };
        for &stage in stages {
            let get = |row: &Json| -> Option<f64> {
                row.get("times")
                    .and_then(|t| t.get(stage))
                    .and_then(Json::as_f64)
            };
            let (base, cand) = match (get(base_row), get(cand_row)) {
                (Some(b), Some(c)) => (b, c),
                _ => {
                    result.errors.push(format!(
                        "row '{label}': stage '{stage}' missing on one side"
                    ));
                    continue;
                }
            };
            let effective_base = base.max(floor_s);
            let ratio = cand / effective_base;
            result.comparisons.push(StageComparison {
                label: label.to_string(),
                stage: stage.to_string(),
                baseline_s: base,
                candidate_s: cand,
                ratio,
                regressed: ratio > threshold,
            });
        }
    }
    result
}

/// Renders the comparison as the table `bench_gate` prints.
pub fn render(result: &GateResult, threshold: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<16} {:>12} {:>12} {:>8}  verdict\n",
        "row", "stage", "baseline(s)", "candidate(s)", "ratio"
    ));
    for c in &result.comparisons {
        out.push_str(&format!(
            "{:<14} {:<16} {:>12.4} {:>12.4} {:>8.2}  {}\n",
            c.label,
            c.stage,
            c.baseline_s,
            c.candidate_s,
            c.ratio,
            if c.regressed {
                "REGRESSED"
            } else if c.ratio > 1.0 {
                "ok (slower)"
            } else {
                "ok"
            }
        ));
    }
    for e in &result.errors {
        out.push_str(&format!("error: {e}\n"));
    }
    let regressions = result.regressions().count();
    out.push_str(&format!(
        "{} comparisons, {} regression(s) at threshold {:.2}x, {} structural error(s)\n",
        result.comparisons.len(),
        regressions,
        threshold,
        result.errors.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_snapshot_json, failures_snapshot_json};

    fn snap(rows: &[(&str, f64)]) -> Envelope {
        let body: Vec<String> = rows
            .iter()
            .map(|(label, t)| {
                format!(
                    "{{\"label\":\"{label}\",\"times\":{{\"total_s\":{t},\"ec_compute_s\":{t},\
                     \"engine_build_s\":{t},\"bdd_s\":{t},\"per_ec_s\":{t}}}}}"
                )
            })
            .collect();
        Envelope::parse(&compress_snapshot_json(&body)).unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snap(&[("Fattree4", 0.1), ("Ring20", 0.05)]);
        let r = compare_snapshots(&a, &a, 1.5, 0.025);
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.comparisons.len(), 2 * STAGES.len());
    }

    #[test]
    fn regression_past_threshold_fails() {
        let base = snap(&[("Fattree4", 0.1)]);
        let cand = snap(&[("Fattree4", 0.16)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.regressions().count() >= 1);
        // 1.6x over every stage.
        assert!(r.regressions().all(|c| c.ratio > 1.5));
    }

    #[test]
    fn floor_absorbs_micro_stage_jitter() {
        // 1 ms → 3 ms is a 3x blowup but far below the 25 ms floor.
        let base = snap(&[("Ring20", 0.001)]);
        let cand = snap(&[("Ring20", 0.003)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(r.passed(), "{}", render(&r, 1.5));
        // Without the floor the same pair fails.
        let r2 = compare_snapshots(&base, &cand, 1.5, 0.0);
        assert!(!r2.passed());
    }

    #[test]
    fn missing_row_is_a_structural_error() {
        let base = snap(&[("Fattree4", 0.1), ("Ring20", 0.05)]);
        let cand = snap(&[("Fattree4", 0.1)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("Ring20")));
    }

    #[test]
    fn candidate_only_rows_are_ignored() {
        let base = snap(&[("Fattree4", 0.1)]);
        let cand = snap(&[("Fattree4", 0.1), ("Brandnew", 9.9)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(r.passed(), "{}", render(&r, 1.5));
    }

    #[test]
    fn unknown_kind_is_flagged() {
        let base = snap(&[("Fattree4", 0.1)]);
        let other = Envelope::parse(&bonsai_core::snapshot::write_envelope(
            "bench/other",
            1,
            "sha",
            "tc",
            "{\"rows\": []}",
        ))
        .unwrap();
        let r = compare_snapshots(&other, &base, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("don't know how to gate")));
    }

    fn failures_snap(rows: &[(&str, usize, f64)]) -> Envelope {
        let body: Vec<String> = rows
            .iter()
            .map(|(label, k, t)| {
                format!(
                    "{{\"label\":\"{label}\",\"k\":{k},\"times\":{{\"concrete_s\":{t},\
                     \"warm_s\":{t},\"audit_s\":{t},\"abstract_s\":{t},\"sweep_s\":{t},\
                     \"netsweep_s\":{t},\"merge_s\":{t}}},\
                     \"streamed\":{{\"chunk_size\":1024,\"scenarios_streamed\":8,\
                     \"peak_resident_scenarios\":2}},\
                     \"query_cold_us\":{t},\"query_warm_us\":{t}}}"
                )
            })
            .collect();
        Envelope::parse(&failures_snapshot_json(&body)).unwrap()
    }

    #[test]
    fn failure_snapshots_gate_on_their_own_stages() {
        let base = failures_snap(&[("Fattree4", 1, 0.1), ("Fattree4", 2, 0.2)]);
        let same = compare_snapshots(&base, &base, 1.5, 0.025);
        assert!(same.passed(), "{same:?}");
        // Rows are matched on (label, k): regressing only k=2 is caught.
        assert_eq!(same.comparisons.len(), 2 * FAILURE_STAGES.len());
        let cand = failures_snap(&[("Fattree4", 1, 0.1), ("Fattree4", 2, 0.4)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.regressions().all(|c| c.label.contains("k=2")));
        // The failure stages include the sweep and merge columns.
        assert!(r.comparisons.iter().any(|c| c.stage == "sweep_s"));
        assert!(r.comparisons.iter().any(|c| c.stage == "netsweep_s"));
        assert!(r.comparisons.iter().any(|c| c.stage == "merge_s"));
    }

    fn delta_snap(rows: &[(&str, usize, f64, f64)]) -> Envelope {
        let body: Vec<String> = rows
            .iter()
            .map(|(label, k, full, delta)| {
                format!(
                    "{{\"label\":\"{label}\",\"k\":{k},\
                     \"times\":{{\"full_s\":{full},\"delta_s\":{delta}}},\
                     \"ecs_total\":32,\"ecs_rederived\":1,\"fingerprints_moved\":1}}"
                )
            })
            .collect();
        Envelope::parse(&crate::delta_snapshot_json(&body)).unwrap()
    }

    #[test]
    fn delta_snapshots_gate_full_and_delta_stages() {
        let base = delta_snap(&[("Fattree8", 2, 3.0, 0.1)]);
        let same = compare_snapshots(&base, &base, 1.5, 0.025);
        assert!(same.passed(), "{same:?}");
        assert_eq!(same.comparisons.len(), DELTA_STAGES.len());
        // A delta-path slowdown regresses the gate even when the full
        // pipeline is unchanged — the incremental speedup is the product.
        let cand = delta_snap(&[("Fattree8", 2, 3.0, 0.5)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.regressions().all(|c| c.stage == "delta_s"));
        // The reuse counters ride along ungated.
        assert!(r.comparisons.iter().all(|c| !c.stage.contains("ecs")));
    }

    #[test]
    fn query_latency_columns_ride_along_ungated() {
        let base = failures_snap(&[("Fattree4", 1, 0.1)]);
        let r = compare_snapshots(&base, &base, 1.5, 0.025);
        assert!(r.passed());
        assert!(r.comparisons.iter().all(|c| !c.stage.contains("query")));
    }

    #[test]
    fn version_mismatch_is_flagged_not_silently_passed() {
        let base = failures_snap(&[("Fattree4", 1, 0.1)]);
        let old = Envelope::parse(&bonsai_core::snapshot::write_envelope(
            crate::FAILURES_SNAPSHOT_KIND,
            3,
            "sha",
            "tc",
            "{\"rows\": []}",
        ))
        .unwrap();
        let r = compare_snapshots(&base, &old, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("does not match")));
        // And an old baseline cannot gate at all.
        let r2 = compare_snapshots(&old, &base, 1.5, 0.025);
        assert!(!r2.passed());
        assert!(r2.errors.iter().any(|e| e.contains("regenerate")));
    }

    #[test]
    fn mismatched_snapshot_kinds_are_flagged() {
        let compress = snap(&[("Fattree4", 0.1)]);
        let failures = failures_snap(&[("Fattree4", 1, 0.1)]);
        let r = compare_snapshots(&compress, &failures, 1.5, 0.025);
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("does not match")));
    }

    #[test]
    fn render_mentions_regressions() {
        let base = snap(&[("Fattree4", 0.1)]);
        let cand = snap(&[("Fattree4", 0.2)]);
        let r = compare_snapshots(&base, &cand, 1.5, 0.025);
        let table = render(&r, 1.5);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("Fattree4"));
    }
}
