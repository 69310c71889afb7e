//! Acceptance test for delta re-verification: a [`Session::reload`] onto a
//! randomly edited configuration must land in **byte-identical** state to
//! a fresh cold build of that configuration.
//!
//! The edits are drawn from a seeded generator over the incremental edit
//! classes [`diff_configs`](bonsai::core::delta::diff_configs) recognizes —
//! route-map content (eviction class), prefix-list content and new
//! originations (key-visible class) — applied to a random device of three
//! topology families (the Figure 1 diamond, fattree-4, a 10-router full
//! mesh), chained so later reloads start from already-reloaded state, and
//! repeated at `threads = 1` and `threads = 2` to catch any
//! parallelism-dependent divergence. Equality is judged on
//! [`Session::state_digest`], the canonical dump of the whole abstraction
//! state: EC table, per-class abstractions, refinement sets and verdicts
//! — and on the **answers**: a reload carries the query planes of
//! untouched classes over from the old session instead of rebuilding
//! them, so at every step the reloaded session must answer `all_pairs`
//! and `sweep_reach` exactly like the cold build over every `≤ k`
//! scenario, and a `restore` of its own snapshot onto the edited network
//! must reproduce the digest and those answers without a solve.

use bonsai::config::{
    Action, NetworkConfig, PrefixList, PrefixListEntry, RouteMap, RouteMapClause, SetAction,
};
use bonsai::prelude::*;
use bonsai::srp::papernets::figure1_rip;

/// A tiny deterministic generator (Lehmer/Park–Miller style) so the test
/// needs no RNG dependency and every run replays the same edit sequence.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// Applies one random single-device content edit and describes it. The
/// `salt` keeps generated names and prefixes unique across chained edits
/// so every step is a real change.
fn random_edit(net: &mut NetworkConfig, rng: &mut Lcg, salt: u8) -> String {
    let di = rng.below(net.devices.len() as u64);
    let dev = &mut net.devices[di];
    let name = dev.name.clone();
    match rng.below(4) {
        // Route-map content: a new leading clause that pins local
        // preference for everything an existing map permits. On devices
        // without maps (the Figure 1 diamond) the map is created unbound —
        // semantically inert, but still a policy-class delta the engine
        // must absorb.
        0 => {
            let pref = 110 + rng.below(90) as u32;
            if dev.route_maps.is_empty() {
                dev.route_maps.push(RouteMap {
                    name: format!("RM{salt}"),
                    clauses: vec![],
                });
            }
            let map = &mut dev.route_maps[0];
            map.clauses.insert(
                0,
                RouteMapClause {
                    seq: 1,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetAction::LocalPref(pref)],
                },
            );
            format!(
                "{name}: route-map {} gains local-pref {pref} clause",
                map.name
            )
        }
        // Route-map content again, but a metric overwrite on the last
        // clause of an existing map (or a fresh unbound map).
        1 => {
            let metric = rng.below(1000) as u32;
            if dev.route_maps.is_empty() {
                dev.route_maps.push(RouteMap {
                    name: format!("RM{salt}"),
                    clauses: vec![RouteMapClause {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![],
                        sets: vec![],
                    }],
                });
            }
            let map = &mut dev.route_maps[0];
            map.clauses
                .last_mut()
                .expect("map has a clause")
                .sets
                .push(SetAction::Metric(metric));
            format!("{name}: route-map {} sets metric {metric}", map.name)
        }
        // Prefix-list content: a fresh list entry (key-visible; on the
        // synthetic nets the DC list is referenced by FILTER, so this
        // genuinely reshapes the filter's resolution).
        2 => {
            if dev.prefix_lists.is_empty() {
                dev.prefix_lists.push(PrefixList {
                    name: format!("PL{salt}"),
                    entries: vec![],
                });
            }
            let list = &mut dev.prefix_lists[0];
            let seq = 100 + salt as u32;
            list.entries.push(PrefixListEntry {
                seq,
                action: Action::Deny,
                prefix: format!("10.250.{salt}.0/24").parse().unwrap(),
                ge: None,
                le: None,
            });
            format!(
                "{name}: prefix-list {} denies 10.250.{salt}.0/24",
                list.name
            )
        }
        // New origination: a brand-new destination class appears, which
        // the reload must sweep from scratch while keeping the others.
        _ => match dev.bgp.as_mut() {
            Some(bgp) => {
                bgp.networks
                    .push(format!("10.240.{salt}.0/24").parse().unwrap());
                format!("{name}: originates 10.240.{salt}.0/24")
            }
            None => {
                dev.prefix_lists.push(PrefixList {
                    name: format!("PLX{salt}"),
                    entries: vec![PrefixListEntry {
                        seq: 5,
                        action: Action::Permit,
                        prefix: format!("10.230.{salt}.0/24").parse().unwrap(),
                        ge: None,
                        le: None,
                    }],
                });
                format!("{name}: gains prefix-list PLX{salt}")
            }
        },
    }
}

fn builder(net: NetworkConfig, k: usize, threads: usize) -> SessionBuilder {
    Session::builder(net).options(SessionOptions {
        max_failures: k,
        threads,
        ..Default::default()
    })
}

fn build(net: NetworkConfig, k: usize, threads: usize) -> Session {
    builder(net, k, threads).build().expect("session builds")
}

/// Everything a session can be asked that the abstraction decides:
/// `all_pairs` over the failure-free state and every `≤ k` scenario, and,
/// per origin device, `sweep_reach` from every source.
fn answers(session: &Session, net: &NetworkConfig, k: usize) -> Vec<String> {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let name = |n| topo.graph.name(n).to_string();
    let mut out = vec![format!("{:?}", session.all_pairs(&[]).expect("all_pairs"))];
    for scenario in ScenarioStream::new(&topo.graph, k).iter() {
        let failed: Vec<(String, String)> = scenario
            .links
            .iter()
            .map(|&(u, v)| (name(u), name(v)))
            .collect();
        out.push(format!(
            "{failed:?} {:?}",
            session
                .all_pairs(&failed)
                .expect("all_pairs under failures")
        ));
    }
    for dst in net
        .devices
        .iter()
        .filter(|d| !d.originated_prefixes().is_empty())
    {
        for src in &net.devices {
            out.push(format!(
                "{}>{} {:?}",
                src.name,
                dst.name,
                session.sweep_reach(&src.name, &dst.name).expect("sweep")
            ));
        }
    }
    out
}

/// One step's checks: `reloaded` (warm, planes of untouched classes
/// shared with its predecessor) against a cold build of the same
/// configuration, then against a restore of its own snapshot.
fn check_step(tag: &str, reloaded: &Session, next: &NetworkConfig, k: usize, threads: usize) {
    let fresh = build(next.clone(), k, threads);
    assert_eq!(
        reloaded.state_digest(),
        fresh.state_digest(),
        "{tag}: reloaded state diverges from fresh build"
    );
    let expected = answers(&fresh, next, k);
    assert_eq!(
        answers(reloaded, next, k),
        expected,
        "{tag}: reloaded session answers differently from the fresh build"
    );

    // The reloaded session's snapshot (refinements + every answer just
    // memoized) restores onto the edited network: same state, same
    // answers, and the replay never reaches the solver.
    let restored = builder(next.clone(), k, threads)
        .restore(&reloaded.snapshot_json())
        .unwrap_or_else(|e| panic!("{tag}: snapshot of the reloaded session: {e}"));
    assert_eq!(
        restored.state_digest(),
        fresh.state_digest(),
        "{tag}: restored state diverges from fresh build"
    );
    assert_eq!(
        answers(&restored, next, k),
        expected,
        "{tag}: restored session answers differently"
    );
    assert_eq!(
        restored.stats().solver_updates,
        0,
        "{tag}: the restored session solved while replaying memoized answers"
    );
}

/// Chains `edits` random edits over `net`, reloading a warm session at
/// each step and comparing its state digest against a cold build of the
/// same configuration.
fn check_family(label: &str, net: NetworkConfig, threads: usize, edits: u8, seed: u64) {
    let mut rng = Lcg(seed);
    let mut current = net;
    let mut session = build(current.clone(), 1, threads);
    for step in 0..edits {
        let mut next = current.clone();
        let what = random_edit(&mut next, &mut rng, step);
        let (reloaded, outcome) = session
            .reload(next.clone())
            .unwrap_or_else(|e| panic!("{label}/t{threads} step {step} ({what}): reload: {e}"));
        assert!(
            outcome.structural.is_none(),
            "{label}/t{threads} step {step} ({what}): unexpectedly structural: {:?}",
            outcome.structural
        );
        assert_eq!(
            outcome.rederived + outcome.reused,
            outcome.classes,
            "{label}/t{threads} step {step} ({what}): class accounting"
        );
        assert!(
            !outcome.changed_devices.is_empty(),
            "{label}/t{threads} step {step} ({what}): edit was a no-op"
        );
        let tag = format!("{label}/t{threads} step {step} ({what})");
        check_step(&tag, &reloaded, &next, 1, threads);
        session = reloaded;
        current = next;
    }
}

#[test]
fn diamond_reloads_match_fresh_builds() {
    for threads in [1, 2] {
        check_family("diamond", figure1_rip(), threads, 3, 0xB0_05A1);
    }
}

#[test]
fn fattree4_reloads_match_fresh_builds() {
    for threads in [1, 2] {
        check_family(
            "fattree4",
            fattree(4, FattreePolicy::ShortestPath),
            threads,
            3,
            0xDE17A,
        );
    }
}

#[test]
fn mesh10_reloads_match_fresh_builds() {
    for threads in [1, 2] {
        check_family("mesh10", full_mesh(10), threads, 3, 0x5EED);
    }
}

/// Two simultaneous failures: the planes a reload carries over hold
/// pair-scenario refinements too. Self-consistency only — reloaded ≡
/// fresh ≡ restored; whether `k = 2` answers match the concrete network
/// is ROADMAP item 1's oracle, not this test's.
#[test]
fn fattree4_two_failure_reload_matches_fresh_build() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let session = build(net.clone(), 2, 1);
    // A new origination: one brand-new class to sweep, every old class
    // untouched.
    let mut next = net;
    let bgp = next.devices[0].bgp.as_mut().expect("fattree speaks BGP");
    bgp.networks.push("10.240.0.0/24".parse().unwrap());
    let (reloaded, outcome) = session.reload(next.clone()).expect("reload");
    assert!(!outcome.full_rebuild, "unexpectedly structural");
    assert_eq!(outcome.rederived, 1);
    assert_eq!(outcome.reused, outcome.classes - 1);
    assert!(
        outcome.refinements_replayed > 0,
        "kept planes carry refinements"
    );
    check_step("fattree4/k2 (new origination)", &reloaded, &next, 2, 1);
}
