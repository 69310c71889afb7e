//! The bench gate: compare two snapshots of the same envelope kind row by
//! row and name every **count** that moved.
//!
//! The committed baselines (`BENCH_baseline.json`,
//! `BENCH_failures_baseline.json`, `BENCH_delta_baseline.json`) record
//! what `table1 --quick --json`, `failures --quick --json` and
//! `delta --json` wrote when they were blessed, and `tests/bench_baselines.rs`
//! at the repository root compares a fresh in-process run of the same rows
//! against them on every `cargo test`. Everything those rows carry besides
//! wall-clock time is exact and repeats from run to run — sizes, scenario
//! counts, engine lookups and hits, derivations, transfers, hit rates
//! computed from them — so the gate requires every
//! such number of a baseline row to be **equal** in the candidate's row
//! (rows matched on `label`, failure rows additionally on `k`). A moved
//! count is a behaviour change: either a regression, or an intended one
//! that re-blesses the baseline in the same commit.
//!
//! Durations — everything under a row's `times` object and every field
//! named `*_s` / `*_us` — must be present and are otherwise skipped: the
//! rows run for milliseconds, below what a shared runner resolves
//! (wall-clock is judged by `sysbench`, which runs long enough to tell).
//!
//! Missing rows, missing fields and a kind or version mismatch are hard
//! failures — silently dropping a benchmark must not read as "nothing
//! moved". Candidate-only rows are ignored: a new benchmark may land
//! before its baseline is re-blessed.

use bonsai_core::snapshot::{Envelope, Json};

/// One count of a baseline row, set against the candidate's.
#[derive(Clone, Debug)]
pub struct FieldComparison {
    /// Row key: the label, plus ` k=<k>` for rows that carry a bound.
    pub row: String,
    /// Dotted path of the field inside the row (`engine.sig_hits`).
    pub field: String,
    /// The baseline's value.
    pub baseline: f64,
    /// The candidate's value.
    pub candidate: f64,
}

impl FieldComparison {
    /// True when the count differs from its baseline.
    pub fn moved(&self) -> bool {
        self.baseline != self.candidate
    }
}

/// Outcome of a snapshot comparison.
#[derive(Clone, Debug, Default)]
pub struct GateResult {
    /// Every count of every baseline row, in row and field order.
    pub comparisons: Vec<FieldComparison>,
    /// Structural problems (missing rows or fields, kind or version
    /// mismatch).
    pub errors: Vec<String>,
}

impl GateResult {
    /// The counts that differ from their baseline.
    pub fn moved(&self) -> impl Iterator<Item = &FieldComparison> {
        self.comparisons.iter().filter(|c| c.moved())
    }

    /// True when the candidate passes: nothing moved, no structural
    /// problems.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.moved().next().is_none()
    }
}

/// Row key: the label, extended with the failure bound `k` when present
/// (failure-study rows repeat a topology across bounds).
fn row_key(row: &Json) -> Option<String> {
    let label = row.str("label").ok()?;
    match row.usize("k") {
        Ok(k) => Some(format!("{label} k={k}")),
        Err(_) => Some(label.to_string()),
    }
}

fn rows_by_label<'j>(
    env: &'j Envelope,
    which: &str,
    errors: &mut Vec<String>,
) -> Vec<(String, &'j Json)> {
    let mut out = Vec::new();
    match env.payload.arr("rows") {
        Err(_) => errors.push(format!("{which}: no rows array in the payload")),
        Ok(rows) => {
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

/// Sets every number under `baseline` (one row, or an object nested in
/// it at `path`) against the same field of `candidate`. `timed` is true
/// inside a `times` object.
fn compare_fields(
    row: &str,
    path: &str,
    baseline: &Json,
    candidate: Option<&Json>,
    timed: bool,
    result: &mut GateResult,
) {
    let Json::Obj(fields) = baseline else {
        return;
    };
    for (key, value) in fields {
        let field = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        let other = candidate.and_then(|c| c.get(key));
        match value {
            Json::Obj(_) => {
                let timed = timed || key == "times";
                compare_fields(row, &field, value, other, timed, result);
            }
            Json::Num(baseline) => match other {
                Some(Json::Num(_)) if timed || key.ends_with("_s") || key.ends_with("_us") => {}
                Some(Json::Num(candidate)) => result.comparisons.push(FieldComparison {
                    row: row.to_string(),
                    field,
                    baseline: *baseline,
                    candidate: *candidate,
                }),
                _ => result.errors.push(format!(
                    "row '{row}': field '{field}' is missing from the candidate"
                )),
            },
            _ => {}
        }
    }
}

/// Compares a candidate snapshot against a baseline of the same envelope
/// kind and payload version: every baseline row must exist in the
/// candidate and every number it carries must be present there (missing
/// data is a structural error); the numbers that are not durations must
/// be equal.
pub fn compare_snapshots(baseline: &Envelope, candidate: &Envelope) -> GateResult {
    let mut result = GateResult::default();
    if (candidate.kind.as_str(), candidate.version) != (baseline.kind.as_str(), baseline.version) {
        result.errors.push(format!(
            "candidate snapshot \"{}\" v{} does not match baseline \"{}\" v{} — regenerate \
             the baseline with the current writers",
            candidate.kind, candidate.version, baseline.kind, baseline.version
        ));
        return result;
    }
    let base_rows = rows_by_label(baseline, "baseline", &mut result.errors);
    let cand_rows = rows_by_label(candidate, "candidate", &mut result.errors);
    for (label, base_row) in &base_rows {
        match cand_rows.iter().find(|(l, _)| l == label) {
            Some((_, cand_row)) => {
                compare_fields(label, "", base_row, Some(cand_row), false, &mut result)
            }
            None => result
                .errors
                .push(format!("candidate is missing baseline row '{label}'")),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{COMPRESS_SNAPSHOT_KIND, FAILURES_SNAPSHOT_KIND, FAILURES_SNAPSHOT_VERSION};
    use bonsai_core::snapshot::{write_envelope, Layout};

    fn snap(kind: &str, version: u32, rows: &[String]) -> Envelope {
        let doc = write_envelope(kind, version, "sha", "tc", Layout::Lines(4), |p| {
            p.rendered("rows", Layout::Lines(6), rows);
        });
        Envelope::parse(&doc).unwrap()
    }

    /// A compression snapshot: per row a label, one duration and the
    /// `engine.sig_hits` count.
    fn compress_snap(rows: &[(&str, f64, usize)]) -> Envelope {
        let rows: Vec<String> = rows
            .iter()
            .map(|(label, t, hits)| {
                format!(
                    "{{\"label\":\"{label}\",\"nodes\":20,\"node_ratio\":3.333333,\
                     \"times\":{{\"total_s\":{t},\"bdd_s\":{t}}},\
                     \"engine\":{{\"sig_lookups\":64,\"sig_hits\":{hits},\"sig_hit_rate\":0.5}}}}"
                )
            })
            .collect();
        snap(COMPRESS_SNAPSHOT_KIND, 1, &rows)
    }

    /// A failure-study snapshot: rows keyed by (label, k), a duration
    /// object, a top-level `*_us` duration and the derivation count.
    fn failures_snap(version: u32, rows: &[(&str, usize, f64, usize)]) -> Envelope {
        let rows: Vec<String> = rows
            .iter()
            .map(|(label, k, t, derivations)| {
                format!(
                    "{{\"label\":\"{label}\",\"k\":{k},\"times\":{{\"netsweep_s\":{t}}},\
                     \"cross_ec\":{{\"derivations\":{derivations},\"sharing_ratio\":0.875}},\
                     \"query_cold_us\":{t},\"query_warm_us\":{t}}}"
                )
            })
            .collect();
        snap(FAILURES_SNAPSHOT_KIND, version, &rows)
    }

    #[test]
    fn equal_snapshots_pass_and_every_number_is_compared() {
        let a = compress_snap(&[("Fattree4", 0.1, 32), ("Ring20", 0.05, 0)]);
        let r = compare_snapshots(&a, &a);
        assert!(r.passed(), "{r:?}");
        // Per row: nodes, node_ratio and three engine fields; the two
        // durations are skipped.
        assert_eq!(r.comparisons.len(), 2 * 5);
    }

    #[test]
    fn one_moved_count_fails_and_is_named() {
        let base = compress_snap(&[("Fattree4", 0.1, 32), ("Ring20", 0.05, 0)]);
        let cand = compress_snap(&[("Fattree4", 0.1, 32), ("Ring20", 0.05, 7)]);
        let r = compare_snapshots(&base, &cand);
        assert!(!r.passed());
        let moved: Vec<_> = r
            .moved()
            .map(|c| (c.row.as_str(), c.field.as_str()))
            .collect();
        assert_eq!(moved, [("Ring20", "engine.sig_hits")]);
        let moved: Vec<_> = r.moved().map(|c| (c.baseline, c.candidate)).collect();
        assert_eq!(moved, [(0.0, 7.0)]);
    }

    #[test]
    fn durations_alone_never_fail() {
        // 50x slower under `times`: skipped.
        let base = compress_snap(&[("Fattree4", 0.1, 32)]);
        let cand = compress_snap(&[("Fattree4", 5.0, 32)]);
        let r = compare_snapshots(&base, &cand);
        assert!(r.passed(), "{r:?}");
        // So are the `*_us` columns that sit beside the counts.
        let base = failures_snap(5, &[("Fattree4", 1, 0.1, 5)]);
        let cand = failures_snap(5, &[("Fattree4", 1, 0.9, 5)]);
        let r = compare_snapshots(&base, &cand);
        assert!(r.passed(), "{r:?}");
        let fields: Vec<_> = r.comparisons.iter().map(|c| c.field.as_str()).collect();
        assert_eq!(
            fields,
            ["k", "cross_ec.derivations", "cross_ec.sharing_ratio"]
        );
    }

    #[test]
    fn rows_are_matched_on_label_and_k() {
        let base = failures_snap(5, &[("Fattree4", 1, 0.1, 5), ("Fattree4", 2, 0.2, 42)]);
        let cand = failures_snap(5, &[("Fattree4", 2, 0.2, 43), ("Fattree4", 1, 0.1, 5)]);
        let r = compare_snapshots(&base, &cand);
        let moved: Vec<_> = r
            .moved()
            .map(|c| (c.row.as_str(), c.field.as_str()))
            .collect();
        assert_eq!(moved, [("Fattree4 k=2", "cross_ec.derivations")]);
    }

    #[test]
    fn missing_row_is_a_structural_error() {
        let base = compress_snap(&[("Fattree4", 0.1, 32), ("Ring20", 0.05, 0)]);
        let cand = compress_snap(&[("Fattree4", 0.1, 32)]);
        let r = compare_snapshots(&base, &cand);
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("Ring20")));
    }

    #[test]
    fn missing_field_is_a_structural_error() {
        let base = compress_snap(&[("Fattree4", 0.1, 32)]);
        let rows = [
            "{\"label\":\"Fattree4\",\"nodes\":20,\"node_ratio\":3.333333,\
                     \"times\":{\"total_s\":0.1},\"engine\":{\"sig_lookups\":64,\"sig_hits\":32}}"
                .to_string(),
        ];
        let r = compare_snapshots(&base, &snap(COMPRESS_SNAPSHOT_KIND, 1, &rows));
        assert!(!r.passed());
        // A missing duration is as structural as a missing count.
        for field in ["times.bdd_s", "engine.sig_hit_rate"] {
            assert!(
                r.errors.iter().any(|e| e.contains(field)),
                "{field}: {:?}",
                r.errors
            );
        }
        assert_eq!(r.errors.len(), 2);
    }

    #[test]
    fn candidate_only_rows_and_fields_are_ignored() {
        let base = compress_snap(&[("Fattree4", 0.1, 32)]);
        let cand = compress_snap(&[("Fattree4", 0.1, 32), ("Brandnew", 9.9, 1)]);
        let r = compare_snapshots(&base, &cand);
        assert!(r.passed(), "{r:?}");
    }

    #[test]
    fn kind_and_version_mismatches_are_flagged_not_silently_passed() {
        let compress = compress_snap(&[("Fattree4", 0.1, 32)]);
        let failures = failures_snap(FAILURES_SNAPSHOT_VERSION, &[("Fattree4", 1, 0.1, 5)]);
        let old = failures_snap(3, &[("Fattree4", 1, 0.1, 5)]);
        for (base, cand) in [(&compress, &failures), (&failures, &old), (&old, &failures)] {
            let r = compare_snapshots(base, cand);
            assert!(!r.passed());
            assert!(r.comparisons.is_empty());
            assert!(r.errors.iter().any(|e| e.contains("does not match")));
            assert!(r.errors.iter().any(|e| e.contains("regenerate")));
        }
    }
}
