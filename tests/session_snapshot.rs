//! The `bonsai/session` v1 snapshot is a wire contract: a daemon restarts
//! from text an older build wrote, so the format stays readable **and**
//! writable bit for bit.
//!
//! `tests/data/gadget_session_k1.snapshot.json` is the snapshot the commit
//! before the codec moved to `session/codec.rs` (PR 16's tree) wrote for
//! the Figure 2 gadget at `k = 1` after one `reach` and one `path` query.
//! This build must write the same bytes, restore that text answer-warm,
//! and reject damaged variants of it with the messages operators know.

use bonsai::prelude::*;
use bonsai::srp::papernets::figure2_gadget;
use bonsai::verify::session::{PathAnswer, ReachAnswer};

const GOLDEN: &str = include_str!("data/gadget_session_k1.snapshot.json");

fn gadget() -> SessionBuilder {
    Session::builder(figure2_gadget()).options(SessionOptions {
        max_failures: 1,
        threads: 1,
        ..Default::default()
    })
}

fn reach(session: &Session) -> Vec<ReachAnswer> {
    session
        .reach("a", "d", &[("b1".into(), "d".into())])
        .expect("known devices")
}

fn path(session: &Session) -> Vec<PathAnswer> {
    session
        .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
        .expect("known devices")
}

#[test]
fn the_gadget_snapshot_is_written_byte_for_byte() {
    let session = gadget().build().expect("gadget session builds");
    reach(&session);
    path(&session);
    assert_eq!(session.snapshot_json(), GOLDEN);
}

#[test]
fn the_committed_snapshot_restores_answer_warm() {
    let cold = gadget().build().expect("gadget session builds");
    let warm = gadget().restore(GOLDEN).expect("v1 text restores");
    let stats = warm.stats();
    assert_eq!(stats.sweep.restored, 2, "both refinements replayed");
    assert_eq!(stats.sweep.derivations, 0);
    assert_eq!(stats.sweep.restored_answers, 2, "one verdict, one path");
    assert_eq!(warm.state_digest(), cold.state_digest());
    assert_eq!(reach(&warm), reach(&cold));
    assert_eq!(path(&warm), path(&cold));
    let after = warm.stats();
    assert_eq!(after.solver_updates, 0, "both answers came from the memos");
    assert_eq!(after.verdict_cache_hits, 2);
    assert_eq!(warm.snapshot_json(), GOLDEN, "and it round-trips");
}

/// `GOLDEN` with `from` replaced by `to`, restored onto the gadget: the
/// rejection message.
fn rejection(from: &str, to: &str) -> String {
    assert!(GOLDEN.contains(from), "the golden text has no `{from}`");
    match gadget().restore(&GOLDEN.replacen(from, to, 1)) {
        Err(SessionError::Snapshot(message)) => message,
        Err(other) => panic!("`{from}` → `{to}`: wrong error {other:?}"),
        Ok(_) => panic!("`{from}` → `{to}` was accepted"),
    }
}

#[test]
fn damaged_snapshots_are_rejected_with_the_known_messages() {
    for (from, to, message) in [
        // A refinement, a verdict and a path naming a device the network
        // does not have.
        (
            r#"[["d", "b1"]], "split""#,
            r#"[["d", "zz"]], "split""#,
            "snapshot names unknown device zz",
        ),
        (
            r#"[["d", "b1"]], "bits""#,
            r#"[["zz", "b1"]], "bits""#,
            "snapshot names unknown device zz",
        ),
        (
            r#""src": "a""#,
            r#""src": "zz""#,
            "snapshot names unknown device zz",
        ),
        (
            r#""waypoints": ["b1""#,
            r#""waypoints": ["zz""#,
            "snapshot names unknown device zz",
        ),
        (
            r#""split": ["b1"]"#,
            r#""split": ["zz"]"#,
            "snapshot split names unknown node zz",
        ),
        // Two devices the network has, with no link between them.
        (
            r#"[["a", "b1"]], "split""#,
            r#"[["a", "d"]], "split""#,
            "snapshot names a link this network lacks: a -- d",
        ),
        (
            r#"[["d", "b1"]], "bits""#,
            r#"[["b2", "b1"]], "bits""#,
            "snapshot names a link this network lacks: b2 -- b1",
        ),
        // One bit per device, no more, no fewer, nothing else.
        (
            r#""bits": "11111""#,
            r#""bits": "1111""#,
            "verdict bits for 10.0.0.0/24 are not 5 of '0'/'1'",
        ),
        (
            r#""bits": "11111""#,
            r#""bits": "11x11""#,
            "verdict bits for 10.0.0.0/24 are not 5 of '0'/'1'",
        ),
        // Shapes.
        (
            r#"[["a", "b1"]], "split""#,
            r#"[["a"]], "split""#,
            "malformed refinement links",
        ),
        (
            r#""links": [], "waypoints""#,
            r#""links": 7, "waypoints""#,
            "malformed snapshot links",
        ),
        (
            r#""bits": "11111""#,
            r#""bit": "11111""#,
            "verdict entry has no bits",
        ),
        (r#""src": "a", "#, "", "path entry has no src"),
        (
            r#""prefix": "10.0.0.0/24", "#,
            "",
            "path answer has no prefix",
        ),
        (r#""k": 1, "#, "", "payload has no k"),
        (r#""ecs": ["#, r#""classes": ["#, "payload has no ecs"),
        (
            r#""rep": "10.0.0.0/24", "refinements""#,
            r#""rep": "10.9.9.0/24", "refinements""#,
            "snapshot has no class for prefix 10.0.0.0/24",
        ),
        // Well-formed JSON, a member of the wrong type: each of these
        // restored before the typed member reads, the item skipped or the
        // member defaulted.
        (
            r#""split": ["b1"]"#,
            r#""split": ["b1", 3]"#,
            r#""split" must be an array of strings"#,
        ),
        (
            r#""split": ["b1"]"#,
            r#""split": "b1""#,
            r#""split" must be an array of strings"#,
        ),
        (
            r#""localized_refuted": false"#,
            r#""localized_refuted": "yes""#,
            r#""localized_refuted" must be true or false"#,
        ),
        (
            r#""deviating_rounds": 0"#,
            r#""deviating_rounds": -1"#,
            r#""deviating_rounds" must be a non-negative integer"#,
        ),
        (
            r#""provenance": "derived""#,
            r#""provenance": "bogus""#,
            r#"unknown refinement provenance "bogus""#,
        ),
        (
            r#""lengths": [2]"#,
            r#""lengths": [2, "x", -1]"#,
            r#""lengths" must be an array of non-negative integers"#,
        ),
        (
            r#""waypoints": ["b1", "b2", "b3"]"#,
            r#""waypoints": ["b1", 7]"#,
            r#""waypoints" must be an array of strings"#,
        ),
        (
            r#"{"rep": "10.0.0.0/24", "entries""#,
            r#"{"entries""#,
            "missing string field `rep`",
        ),
        (
            r#""verdicts": [{"#,
            r#""verdicts": "none", "was": [{"#,
            r#""verdicts" must be an array"#,
        ),
        (
            r#""paths": [{"#,
            r#""paths": "none", "was": [{"#,
            r#""paths" must be an array"#,
        ),
        (
            r#""prune_symmetric": false"#,
            r#""prune_symmetric": "yes""#,
            r#""prune_symmetric" must be true or false"#,
        ),
    ] {
        assert_eq!(rejection(from, to), message, "`{from}` → `{to}`");
    }
    // Another document family, another version of this one, a
    // pre-envelope dialect: refused before anything is read.
    let kind = rejection(r#""kind": "bonsai/session""#, r#""kind": "bench/failures""#);
    assert!(kind.contains("kind mismatch"), "{kind}");
    let version = rejection(r#""version": 1"#, r#""version": 2"#);
    assert!(
        version.contains("version mismatch") && version.contains("regenerate"),
        "{version}"
    );
    let legacy = rejection("bonsai/envelope-v1", "bonsai-cli/failures-v1");
    assert!(legacy.contains("legacy snapshot schema"), "{legacy}");
    let truncated = gadget().restore(&GOLDEN[..GOLDEN.len() / 2]);
    assert!(matches!(truncated, Err(SessionError::Snapshot(m)) if m.contains("JSON error")));
}

#[test]
fn a_snapshot_of_another_network_is_refused_by_fingerprint() {
    let onto_fattree = Session::builder(fattree(4, FattreePolicy::ShortestPath)).restore(GOLDEN);
    match onto_fattree {
        Err(SessionError::Snapshot(message)) => assert!(
            message.starts_with(
                "network fingerprint mismatch: snapshot was taken of d7381d3ba5ffada5, \
                 this network is "
            ) && message.ends_with("rebuild instead of restoring"),
            "{message}"
        ),
        other => panic!("wrong outcome: {:?}", other.map(|_| "restored")),
    }
}

/// Sections written before the answer tier existed are absent, not
/// empty: such a snapshot restores refinement-warm — as it does without
/// the optional `prune_symmetric`, and with a member a later version adds.
#[test]
fn a_snapshot_without_the_answer_tier_restores_refinement_warm() {
    let cut = GOLDEN.find(r#", "verdicts""#).expect("golden has the tier");
    let bare = format!("{}}}\n}}\n", &GOLDEN[..cut]);
    let prune = r#""prune_symmetric": false, "#;
    assert!(bare.contains(prune), "golden has the option");
    let bare = bare.replacen(prune, r#""from_the_future": {"x": [null]}, "#, 1);
    let warm = gadget().restore(&bare).expect("pre-tier text restores");
    let stats = warm.stats();
    assert_eq!((stats.sweep.restored, stats.sweep.restored_answers), (2, 0));
    assert_eq!(stats.verdict_memo + stats.path_memo, 0);
}
