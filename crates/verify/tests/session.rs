//! The resident session through its public surface: queries and their
//! memos, snapshots, reloads. (Lived in `src/session.rs` until PR 17.)

use bonsai_config::NetworkConfig;
use bonsai_topo::{fattree, FattreePolicy};
use bonsai_verify::session::{QueryRequest, Session, SessionError, SessionOptions};

/// `k = 1` on the given thread count.
fn k1(threads: usize) -> SessionOptions {
    SessionOptions {
        max_failures: 1,
        threads,
        ..Default::default()
    }
}

fn gadget_session() -> Session {
    Session::builder(bonsai_srp::papernets::figure2_gadget())
        .options(k1(2))
        .build()
        .expect("session builds")
}

#[test]
fn reach_agrees_with_sweep_and_memoizes() {
    let s = gadget_session();
    let a = s.reach("a", "d", &[]).unwrap();
    assert_eq!(a.len(), 1);
    assert!(a[0].delivered);
    let before = s.stats();
    let again = s.reach("a", "d", &[]).unwrap();
    assert_eq!(a, again);
    let after = s.stats();
    assert_eq!(after.solver_updates, before.solver_updates, "memoized");
    assert!(after.verdict_cache_hits > before.verdict_cache_hits);
}

#[test]
fn repeated_batch_is_solve_free() {
    let s = gadget_session();
    let requests = vec![
        QueryRequest::Sweep {
            src: "a".into(),
            dst: "d".into(),
        },
        QueryRequest::AllPairs { links: vec![] },
    ];
    let first = s.batch(&requests);
    let mid = s.stats();
    let second = s.batch(&requests);
    let end = s.stats();
    assert_eq!(first, second, "batch answers are deterministic");
    assert_eq!(end.solver_updates, mid.solver_updates, "zero solver work");
    assert_eq!(end.abstract_solves, mid.abstract_solves);
    assert_eq!(end.concrete_solves, mid.concrete_solves);
}

#[test]
fn snapshot_restores_warm_and_identical() {
    let s = gadget_session();
    let cold = s.sweep_reach("a", "d").unwrap();
    let snap = s.snapshot_json();
    let warm_session = Session::builder(bonsai_srp::papernets::figure2_gadget())
        .options(k1(2))
        .restore(&snap)
        .expect("snapshot restores");
    assert!(warm_session.stats().sweep.restored > 0);
    assert_eq!(warm_session.stats().sweep.derivations, 0);
    let warm = warm_session.sweep_reach("a", "d").unwrap();
    assert_eq!(cold, warm, "restored session answers byte-identically");
}

#[test]
fn path_answers_lengths_and_waypoints_and_memoizes() {
    let s = gadget_session();
    let a = s
        .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
        .unwrap();
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].lengths.as_deref(), Some(&[2][..]), "a→bX→d");
    assert_eq!(a[0].waypointed, Some(true), "every path crosses a b");
    let no_points = s.path("a", "d", &[], &[]).unwrap();
    assert_eq!(no_points[0].waypointed, None, "no waypoints asked");
    // Waypointing through a node the paths avoid is refuted.
    let wrong = s
        .path("a", "d", &[("a".into(), "b1".into())], &["b1".into()])
        .unwrap();
    assert_eq!(wrong[0].waypointed, Some(false));
    let before = s.stats();
    let again = s
        .path("a", "d", &[], &["b2".into(), "b1".into(), "b3".into()])
        .unwrap();
    let after = s.stats();
    assert_eq!(a, again, "waypoint order does not matter");
    assert_eq!(after.solver_updates, before.solver_updates, "memoized");
    assert!(after.verdict_cache_hits > before.verdict_cache_hits);
}

#[test]
fn snapshot_restores_answer_warm() {
    let s = gadget_session();
    let reach = s.reach("a", "d", &[("b1".into(), "d".into())]).unwrap();
    let paths = s
        .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
        .unwrap();
    let snap = s.snapshot_json();
    let warm = Session::builder(bonsai_srp::papernets::figure2_gadget())
        .options(k1(2))
        .restore(&snap)
        .expect("snapshot restores");
    assert!(
        warm.stats().sweep.restored_answers > 0,
        "answer tier loaded"
    );
    let before = warm.stats();
    let reach2 = warm.reach("a", "d", &[("b1".into(), "d".into())]).unwrap();
    let paths2 = warm
        .path("a", "d", &[], &["b1".into(), "b2".into(), "b3".into()])
        .unwrap();
    let after = warm.stats();
    assert_eq!(reach, reach2);
    assert_eq!(paths, paths2);
    assert_eq!(after.solver_updates, before.solver_updates, "zero solves");
    assert_eq!(after.abstract_solves, before.abstract_solves);
    assert_eq!(after.concrete_solves, before.concrete_solves);
    assert!(after.verdict_cache_hits > before.verdict_cache_hits);
    // A warm snapshot round-trips byte-identically.
    assert_eq!(snap, warm.snapshot_json(), "snapshot is deterministic");
}

#[test]
fn snapshot_of_other_network_is_rejected() {
    let s = gadget_session();
    let snap = s.snapshot_json();
    let err = Session::builder(fattree(4, FattreePolicy::ShortestPath))
        .restore(&snap)
        .err()
        .expect("restore onto another network must fail");
    match err {
        SessionError::Snapshot(msg) => assert!(msg.contains("fingerprint mismatch"), "{msg}"),
        other => panic!("wrong error: {other:?}"),
    }
}

/// `"k": 2.5` used to restore as `k = 2` (a float→int cast truncates).
#[test]
fn snapshot_with_a_fractional_k_is_rejected() {
    let s = gadget_session();
    let snap = s.snapshot_json();
    assert!(snap.contains("\"k\": 1,"), "{snap}");
    let err = Session::builder(bonsai_srp::papernets::figure2_gadget())
        .restore(&snap.replacen("\"k\": 1,", "\"k\": 2.5,", 1))
        .err()
        .expect("a fractional k must not restore");
    match err {
        SessionError::Snapshot(msg) => assert!(msg.contains("payload has no k"), "{msg}"),
        other => panic!("wrong error: {other:?}"),
    }
}

/// Two devices, two destination classes: a route-map clause on `a`
/// matches only 10.0.1.0/24, so editing its set action re-derives
/// exactly that class (mirrors the core delta tests).
fn delta_base_net() -> NetworkConfig {
    bonsai_config::parse_network(
        "
device a
interface i
ip prefix-list P10 seq 5 permit 10.0.1.0/24
route-map M permit 10
 match ip address prefix-list P10
 set local-preference 200
route-map M permit 20
router bgp 1
 neighbor i remote-as external
 neighbor i route-map M in
end
device b
interface i
router bgp 2
 network 10.0.1.0/24
 network 10.0.2.0/24
 neighbor i remote-as external
end
link a i b i
",
    )
    .unwrap()
}

#[test]
fn reload_rederives_only_touched_classes() {
    let old_net = delta_base_net();
    let s = Session::builder(old_net.clone())
        .options(k1(2))
        .build()
        .expect("session builds");
    // Warm the verdict memo across both classes.
    let before = s.reach("a", "b", &[]).unwrap();
    assert_eq!(before.len(), 2);

    let mut new_net = old_net.clone();
    new_net.devices[0].route_maps[0].clauses[0].sets =
        vec![bonsai_config::SetAction::LocalPref(300)];
    let (reloaded, outcome) = s.reload(new_net.clone()).expect("reload succeeds");
    assert!(!outcome.full_rebuild);
    assert_eq!(outcome.classes, 2);
    assert_eq!(outcome.reused, 1);
    assert_eq!(outcome.rederived, 1);
    assert_eq!(outcome.changed_devices, vec!["a".to_string()]);
    assert!(outcome.invalidation.tables_evicted > 0);
    // The kept class's memoized verdict survived; the touched one's
    // was dropped.
    assert_eq!(outcome.verdicts_kept, 1);
    assert_eq!(outcome.verdicts_dropped, 1);

    // Answers agree with a cold build of the new network.
    let fresh = Session::builder(new_net)
        .options(k1(2))
        .build()
        .expect("fresh session builds");
    assert_eq!(
        reloaded.reach("a", "b", &[]).unwrap(),
        fresh.reach("a", "b", &[]).unwrap()
    );
    assert_eq!(
        reloaded.state_digest(),
        fresh.state_digest(),
        "warm reload state is byte-identical to a cold build"
    );
}

#[test]
fn reload_of_structural_edit_rebuilds_cold() {
    let old_net = delta_base_net();
    let s = Session::builder(old_net.clone())
        .options(k1(1))
        .build()
        .expect("session builds");
    s.reach("a", "b", &[]).unwrap();
    let mut new_net = old_net.clone();
    new_net.devices[1].bgp.as_mut().unwrap().default_local_pref = 150;
    let (reloaded, outcome) = s.reload(new_net.clone()).expect("reload succeeds");
    assert!(outcome.full_rebuild);
    assert!(outcome.structural.is_some());
    assert_eq!(outcome.verdicts_kept, 0);
    assert!(outcome.verdicts_dropped > 0);
    let fresh = Session::builder(new_net)
        .options(k1(1))
        .build()
        .expect("fresh session builds");
    assert_eq!(reloaded.state_digest(), fresh.state_digest());
}

#[test]
fn reload_onto_identical_config_keeps_everything() {
    let net = delta_base_net();
    let s = Session::builder(net.clone())
        .options(k1(1))
        .build()
        .expect("session builds");
    s.reach("a", "b", &[]).unwrap();
    let (reloaded, outcome) = s.reload(net).expect("reload succeeds");
    assert!(!outcome.full_rebuild);
    assert_eq!(outcome.rederived, 0);
    assert_eq!(outcome.reused, 2);
    assert_eq!(outcome.verdicts_dropped, 0);
    assert_eq!(outcome.verdicts_kept, 2);
    assert_eq!(reloaded.state_digest(), s.state_digest());
    // Served from the carried memo: zero additional solver work.
    let before = reloaded.stats();
    reloaded.reach("a", "b", &[]).unwrap();
    let after = reloaded.stats();
    assert_eq!(after.solver_updates, before.solver_updates);
    assert!(after.verdict_cache_hits > before.verdict_cache_hits);
}

#[test]
fn memo_cap_evicts_stalest_entries() {
    let cap = 160;
    let s = Session::builder(bonsai_srp::papernets::figure2_gadget())
        .options(SessionOptions {
            memo_cap_bytes: cap,
            ..k1(1)
        })
        .build()
        .expect("session builds");
    let links = [
        ("a", "b1"),
        ("a", "b2"),
        ("a", "b3"),
        ("b1", "d"),
        ("b2", "d"),
        ("b3", "d"),
    ];
    let first = s.reach("a", "d", &[]).unwrap();
    for (u, v) in links {
        s.reach("a", "d", &[(u.into(), v.into())]).unwrap();
    }
    let stats = s.stats();
    assert!(stats.memo_evictions > 0, "cap forced evictions");
    assert!(
        stats.verdict_memo < 1 + links.len(),
        "memo stayed bounded: {} entries",
        stats.verdict_memo
    );
    // Evicted answers recompute identically.
    assert_eq!(s.reach("a", "d", &[]).unwrap(), first);
}

#[test]
fn unknown_names_error_cleanly() {
    let s = gadget_session();
    assert!(matches!(
        s.reach("nope", "d", &[]),
        Err(SessionError::UnknownNode(_))
    ));
    assert!(matches!(
        s.reach("a", "d", &[("a".into(), "d".into())]),
        Err(SessionError::UnknownLink(_, _))
    ));
}
