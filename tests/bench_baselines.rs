//! The bench gate, as a test: the three `--quick` row sets the committed
//! `BENCH_baseline.json`, `BENCH_failures_baseline.json` and
//! `BENCH_delta_baseline.json` record are produced again in process — the
//! same library functions the `table1`, `failures` and `delta` bins print
//! — and every count a baseline row carries (sizes, scenario counts,
//! engine lookups and hits, derivations, transfers, the ratios computed
//! from them: 286 fields) must be **equal** in the fresh row. Durations
//! are skipped.
//!
//! A count that moves on purpose re-blesses its baseline in the same
//! commit, with the bin that wrote it:
//!
//! ```text
//! cargo run --release -p bonsai_bench --bin table1   -- --quick --json BENCH_baseline.json
//! cargo run --release -p bonsai_bench --bin failures -- --quick --json BENCH_failures_baseline.json
//! cargo run --release -p bonsai_bench --bin delta    -- --json BENCH_delta_baseline.json
//! ```

use bonsai::core::compress::CompressOptions;
use bonsai::core::snapshot::{Envelope, Json};
use bonsai_bench::gate::compare_snapshots;
use bonsai_bench::{
    delta, failures, report_json, snapshot_json, table1_synthetic, COMPRESS_SNAPSHOT_KIND,
    COMPRESS_SNAPSHOT_VERSION, DELTA_SNAPSHOT_KIND, DELTA_SNAPSHOT_VERSION, FAILURES_SNAPSHOT_KIND,
    FAILURES_SNAPSHOT_VERSION,
};

/// Wraps `rows` as the bin would write them, reads the document back,
/// and requires every one of the `counts` counts the committed `baseline`
/// file carries to be equal in it. Returns the fresh snapshot for the
/// checks particular to a kind.
fn held_to_baseline(
    baseline: &str,
    kind: &str,
    version: u32,
    rows: &[String],
    counts: usize,
) -> Envelope {
    let path = format!("{}/{baseline}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let baseline = Envelope::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
    let candidate = Envelope::parse(&snapshot_json(kind, version, rows))
        .expect("the snapshot writer's output parses");
    assert_eq!(
        (candidate.kind.as_str(), candidate.version),
        (kind, version)
    );
    assert!(
        candidate.toolchain.starts_with("rustc "),
        "snapshot is not traceable to a toolchain: {:?}",
        candidate.toolchain
    );
    let result = compare_snapshots(&baseline, &candidate);
    assert!(
        result.passed(),
        "{path}: counts moved (re-bless the baseline if intended)\n{:#?}\n{:#?}",
        result.moved().collect::<Vec<_>>(),
        result.errors
    );
    assert_eq!(result.comparisons.len(), counts, "{path}: counts compared");
    candidate
}

fn count(row: &Json, path: &[&str]) -> usize {
    let leaf = path.iter().try_fold(row, |at, key| at.get(key));
    leaf.and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("row has no count at {path:?}"))
}

#[test]
fn compression_counts_equal_the_committed_baseline() {
    // One worker, as `table1 --json` compresses: which class finds a
    // signature cached depends on the order the workers claim them.
    let options = CompressOptions {
        threads: 1,
        ..Default::default()
    };
    let rows: Vec<String> = table1_synthetic(true, options)
        .map(|(label, report)| report_json(&label, &report))
        .collect();
    held_to_baseline(
        "BENCH_baseline.json",
        COMPRESS_SNAPSHOT_KIND,
        COMPRESS_SNAPSHOT_VERSION,
        &rows,
        150,
    );
}

#[test]
fn failure_study_counts_equal_the_committed_baseline() {
    let rows: Vec<String> = failures::rows(true, 2).map(|row| row.json()).collect();
    let snapshot = held_to_baseline(
        "BENCH_failures_baseline.json",
        FAILURES_SNAPSHOT_KIND,
        FAILURES_SNAPSHOT_VERSION,
        &rows,
        132,
    );
    let rows = snapshot.payload.get("rows").and_then(Json::as_arr);
    let rows = rows.expect("a snapshot has rows");
    for row in rows {
        // The bounded-memory proof: aggregate mode never holds more than
        // a chunk of scenarios, however large the plane.
        let peak = count(row, &["streamed", "peak_resident_scenarios"]);
        assert!(0 < peak && peak <= count(row, &["streamed", "chunk_size"]));
        assert!(count(row, &["streamed", "scenarios_streamed"]) > 0);
    }
    // The §9 caveat is real on these inputs: somewhere a scenario's
    // refinement outgrows the failure-free abstraction.
    assert!(rows.iter().any(|row| {
        let base = row.get("sweep").and_then(|s| s.get("base_abs_nodes_mean"));
        let base = base.and_then(Json::as_f64).expect("a base size");
        count(row, &["sweep", "max_refined_nodes"]) as f64 > base
    }));
}

#[test]
fn a_one_route_map_edit_stays_surgical() {
    let run = delta::run(2, 0).expect("both pipelines complete");
    held_to_baseline(
        "BENCH_delta_baseline.json",
        DELTA_SNAPSHOT_KIND,
        DELTA_SNAPSHOT_VERSION,
        &[run.json()],
        4,
    );
    // At most 2 of the 32 classes re-derived, and the re-sweep derives
    // each of their refinements at most once per worker.
    assert!(run.ecs_rederived <= 2, "{} re-derived", run.ecs_rederived);
    assert!(
        run.delta_derivations <= run.delta_refinements * run.delta_workers,
        "{} derivations for {} refinements on {} workers",
        run.delta_derivations,
        run.delta_refinements,
        run.delta_workers
    );
}
