//! The independent answer oracle (ROADMAP item 1): every answer a
//! [`Session`] serves under failures — per-node `reach` verdicts,
//! `all_pairs` counts, `sweep` counts — against a deliberately dumb
//! reference: one concrete masked cold solve per (scenario, class) on the
//! full network, no abstraction, no cache, no memo.
//!
//! **Every** scenario is audited, not just the representatives the sweep
//! verified, and every way a session comes to be: built cold, restored
//! from its own snapshot, and arrived at by an incremental `reload`. A
//! scenario is answered on its own refinement
//! ([`bonsai::verify::sweep::scenario_verdict`]), so the one pinned column
//! of wrong answers reads 0 on every row — at the commit before, which
//! lifted a non-representative's links onto its representative's
//! refinement, fattree-4 read 192 wrong (class, scenario) pairs / 736
//! wrong per-node verdicts at `k = 2`.

// The sixteen seeded networks, so the pinned counts name them.
#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::prelude::*;
use bonsai_net::Graph;
use random_nets::{seeded_networks, Lcg};

/// Which states of a network are audited, and through a session of which
/// failure bound.
#[derive(Clone, Copy)]
enum Coverage {
    /// The failure-free state and every `≤ k` scenario, through a session
    /// swept to `k`: `reach`, `all_pairs` and `sweep`.
    Full(usize),
    /// This many seeded (class, two-link scenario) pairs through a session
    /// swept to 2: `reach` only — what keeps a large plane in seconds.
    SampledPairs(usize),
}

/// One audited state: the scenario and, per class, the concrete
/// simulation's per-node verdict (`None`: this pair is not audited).
type Expected = Vec<(FailureScenario, Vec<Option<Vec<bool>>>)>;

/// The reference side: concrete masked cold solves, nothing else.
fn expected(net: &NetworkConfig, coverage: Coverage) -> Expected {
    let engine = SimEngine::new(net);
    let graph = &engine.topo.graph;
    let concrete = |scenario: &FailureScenario, class: usize| {
        let mask = scenario.mask(graph);
        let verdict = engine.reachability(&engine.ecs[class], &QueryCtx::masked(Some(&mask)));
        Some(verdict.expect("the concrete network converges"))
    };
    let classes = engine.ecs.len();
    match coverage {
        Coverage::Full(k) => std::iter::once(FailureScenario::new(vec![]))
            .chain(ScenarioStream::new(graph, k).iter())
            .map(|s| {
                let verdicts = (0..classes).map(|class| concrete(&s, class)).collect();
                (s, verdicts)
            })
            .collect(),
        Coverage::SampledPairs(pairs) => {
            let stream = ScenarioStream::new(graph, 2);
            let singles = ScenarioStream::new(graph, 1).len();
            let mut rng = Lcg(0x5a3e);
            (0..pairs)
                .map(|_| {
                    let class = rng.below(classes);
                    let scenario = stream.get(singles + rng.below(stream.len() - singles));
                    assert_eq!(scenario.len(), 2);
                    let mut verdicts = vec![None; classes];
                    verdicts[class] = concrete(&scenario, class);
                    (scenario, verdicts)
                })
                .collect()
        }
    }
}

fn named(graph: &Graph, scenario: &FailureScenario) -> Vec<(String, String)> {
    let name = |n| graph.name(n).to_string();
    scenario
        .links
        .iter()
        .map(|&(u, v)| (name(u), name(v)))
        .collect()
}

/// Answers of `session` that differ from `expected`: per-node `reach`
/// verdicts, `all_pairs` replies and per-source `sweep` counts, each
/// described.
fn wrong_answers(
    session: &Session,
    net: &NetworkConfig,
    expected: &Expected,
    full: bool,
) -> Vec<String> {
    let engine = SimEngine::new(net);
    let graph = &engine.topo.graph;
    let names: Vec<&str> = graph.nodes().map(|n| graph.name(n)).collect();
    let class_of =
        |ec: &bonsai::core::ecs::DestEc| (names[ec.origins[0].0.index()], ec.rep.to_string());
    let is_origin = |class: usize, node: usize| {
        let origins = &engine.ecs[class].origins;
        origins.iter().any(|(n, _)| n.index() == node)
    };
    let mut wrong = Vec::new();
    // Per (class, source): in how many audited states the source delivers.
    let mut delivering = vec![vec![0usize; names.len()]; engine.ecs.len()];
    for (scenario, verdicts) in expected {
        let links = named(graph, scenario);
        let what = scenario.describe(graph);
        let (mut delivered, mut unreachable) = (0usize, 0usize);
        for (class, verdict) in verdicts.iter().enumerate() {
            let Some(verdict) = verdict else { continue };
            let (dst, prefix) = class_of(&engine.ecs[class]);
            for (node, (src, &delivers)) in names.iter().zip(verdict).enumerate() {
                let answers = session.reach(src, dst, &links).expect("reach answers");
                let answer = answers.iter().find(|a| a.prefix == prefix);
                if answer.expect("one answer per class of dst").delivered != delivers {
                    wrong.push(format!(
                        "reach {src} -> {prefix} under {what}: not {delivers}"
                    ));
                }
                delivering[class][node] += usize::from(delivers);
                if !is_origin(class, node) {
                    delivered += usize::from(delivers);
                    unreachable += usize::from(!delivers);
                }
            }
        }
        if verdicts.iter().all(Option::is_some) {
            let answer = session.all_pairs(&links).expect("all_pairs answers");
            if (answer.delivered, answer.unreachable) != (delivered, unreachable) {
                wrong.push(format!(
                    "all_pairs under {what}: {answer:?}, not {delivered} / {unreachable}"
                ));
            }
        }
    }
    // `sweep` covers the session's whole plane, so only a full audit has
    // the counts to hold it to.
    for (class, ec) in engine.ecs.iter().enumerate().filter(|_| full) {
        let (dst, prefix) = class_of(ec);
        for (src, &count) in names.iter().zip(&delivering[class]) {
            let answers = session.sweep_reach(src, dst).expect("sweep answers");
            let answer = answers.iter().find(|a| a.prefix == prefix);
            let answer = answer.expect("one answer per class of dst");
            if (answer.delivered, answer.scenarios) != (count, expected.len()) {
                wrong.push(format!("sweep {src} -> {prefix}: {answer:?}, not {count}"));
            }
        }
    }
    wrong
}

/// `net` with the first originated prefix replaced by another one: the
/// configuration a `reload` onto `net` comes from, so that the reloaded
/// session serves exactly `net` — the replaced prefix's class swept by the
/// reload, every other class carried over.
fn before_reload(net: &NetworkConfig) -> NetworkConfig {
    let mut before = net.clone();
    let mut originating = before.devices.iter_mut().filter_map(|d| d.bgp.as_mut());
    let bgp = originating
        .find(|bgp| !bgp.networks.is_empty())
        .expect("some device originates");
    bgp.networks[0] = "10.240.0.0/24".parse().expect("a prefix");
    before
}

/// Wrong answers and unswept networks of one network: the cold session,
/// the session restored from its snapshot, and the session a reload
/// arrives at, all against the same reference.
fn audit(
    net: &NetworkConfig,
    coverage: Coverage,
    threads: usize,
    reference: &Expected,
) -> (Vec<String>, usize) {
    let (k, full) = match coverage {
        Coverage::Full(k) => (k, true),
        Coverage::SampledPairs(_) => (2, false),
    };
    let options = SessionOptions {
        max_failures: k,
        threads,
        ..Default::default()
    };
    let build = |net: &NetworkConfig| Session::builder(net.clone()).options(options).build();
    let cold = match build(net) {
        Ok(session) => session,
        // Networks the sweep refuses to certify: nothing is served, so
        // nothing is wrong — but nothing is checked either, so the count
        // is pinned too.
        Err(refused) => {
            assert!(
                refused.to_string().contains("irrefinable mismatch"),
                "{refused}"
            );
            return (Vec::new(), 1);
        }
    };
    // Taken before any query: every refinement restores as a replayed
    // partition and every answer is computed from one.
    let restored = Session::builder(net.clone())
        .options(options)
        .restore(&cold.snapshot_json())
        .expect("a session's own snapshot restores");
    // The resident session has answered (so carried-over classes arrive
    // with memoized verdicts) before the edit lands.
    let resident = build(&before_reload(net)).expect("the network before the edit sweeps");
    let topo = BuiltTopology::build(net).expect("topology builds");
    for (scenario, _) in reference.iter().take(8) {
        let graph = &topo.graph;
        resident
            .all_pairs(&named(graph, scenario))
            .expect("all_pairs answers");
    }
    let (reloaded, outcome) = resident.reload(net.clone()).expect("reload");
    assert!(
        !outcome.full_rebuild && outcome.rederived >= 1,
        "{outcome:?}"
    );

    let mut wrong = Vec::new();
    for (how, session) in [
        ("cold", &cold),
        ("restored", &restored),
        ("reloaded", &reloaded),
    ] {
        let found = wrong_answers(session, net, reference, full);
        wrong.extend(found.into_iter().map(|w| format!("{how}: {w}")));
    }
    (wrong, 0)
}

/// `(family, wrong answers, unswept networks)`. The second column is the
/// point of the file; the third counts networks whose sweep fails closed
/// (`irrefinable mismatch`) — nothing is served for them, so nothing is
/// checked either. [`the_once_refused_network_sweeps_on_the_transported_witness`]
/// pins the seeded network that was refused while a check searched
/// abstract activation orders.
const PINNED: [(&str, usize, usize); 5] = [
    ("fattree4 k<=2", 0, 0),
    ("fattree6 k<=1", 0, 0),
    ("fattree6 k=2 x64", 0, 0),
    ("mesh10 k<=2", 0, 0),
    ("random x16 k<=2", 0, 0),
];

#[test]
fn session_answers_agree_with_the_concrete_simulation() {
    let fattree4 = fattree(4, FattreePolicy::ShortestPath);
    let fattree6 = fattree(6, FattreePolicy::ShortestPath);
    let mesh10 = full_mesh(10);
    let random = seeded_networks();
    let families: [(Vec<&NetworkConfig>, Coverage); 5] = [
        (vec![&fattree4], Coverage::Full(2)),
        (vec![&fattree6], Coverage::Full(1)),
        (vec![&fattree6], Coverage::SampledPairs(64)),
        (vec![&mesh10], Coverage::Full(2)),
        (random.iter().collect(), Coverage::Full(2)),
    ];
    // One row per (family, thread count), compared as a table so a
    // failure shows every number that moved; the first wrong answers are
    // printed beside it.
    let mut found = Vec::new();
    let mut pinned = Vec::new();
    let mut examples = Vec::new();
    for ((nets, coverage), (label, wrong, unswept)) in families.iter().zip(PINNED) {
        let references: Vec<Expected> = nets.iter().map(|net| expected(net, *coverage)).collect();
        for threads in [1, 2] {
            let (mut family_wrong, mut family_unswept) = (0, 0);
            for (net, reference) in nets.iter().zip(&references) {
                let (wrong, unswept) = audit(net, *coverage, threads, reference);
                family_wrong += wrong.len();
                family_unswept += unswept;
                examples.extend(wrong.into_iter().take(4).map(|w| format!("{label}: {w}")));
            }
            found.push((label, threads, family_wrong, family_unswept));
            pinned.push((label, threads, wrong, unswept));
        }
    }
    assert_eq!(found, pinned, "{examples:#?}");
}

/// ROADMAP item 1's reproducer, as the daemon is asked it: fattree-4 swept
/// to `k = 2`, `edge2_0 → edge1_0` with `core0—agg2_0` and `agg2_1—edge2_0`
/// down. `edge2_0` keeps `agg2_0` and `agg2_0` keeps `core1`, so the
/// network delivers; the lifted answer said it does not.
#[test]
fn the_two_failure_reproducer_delivers() {
    let session = Session::builder(fattree(4, FattreePolicy::ShortestPath))
        .options(SessionOptions {
            max_failures: 2,
            threads: 1,
            ..Default::default()
        })
        .build()
        .expect("fattree-4 sweeps");
    let failed = [
        ("core0".to_string(), "agg2_0".to_string()),
        ("agg2_1".to_string(), "edge2_0".to_string()),
    ];
    let answers = session
        .reach("edge2_0", "edge1_0", &failed)
        .expect("reach answers");
    assert!(
        !answers.is_empty() && answers.iter().all(|a| a.delivered),
        "{answers:?}"
    );
    let stats = session.stats();
    assert_eq!(
        (
            stats.by_representative,
            stats.by_own_refinement,
            stats.by_concrete
        ),
        (0, 1, 0),
        "a non-representative of an unescalated signature is answered on its own refinement"
    );

    // `bonsai failures --query` walks every swept scenario through the
    // same function: its count is the concrete simulation's (511 of 528 at
    // the commit before).
    let net = fattree(4, FattreePolicy::ShortestPath);
    let engine = SimEngine::new(&net);
    let graph = &engine.topo.graph;
    let src = graph.node_by_name("edge2_0").expect("a device");
    let ec = engine
        .ecs
        .iter()
        .find(|ec| ec.rep.to_string() == "10.1.0.0/24");
    let stream = ScenarioStream::new(graph, 2);
    let delivering = stream.iter().filter(|scenario| {
        let ctx = QueryCtx::masked(Some(&scenario.mask(graph)));
        let verdict = engine.reachability(ec.expect("edge1_0's class"), &ctx);
        verdict.expect("the concrete network converges")[src.index()]
    });
    let line = "failures gen:fattree4 --failures 2 --threads 1 --query edge2_0:edge1_0";
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bonsai"))
        .args(line.split(' '))
        .output()
        .expect("bonsai runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let expected = format!(
        "query edge2_0 -> edge1_0: 10.1.0.0/24 delivered in {}/528 scenarios",
        delivering.count()
    );
    assert!(
        stdout.lines().any(|l| l == expected),
        "{expected}\n{stdout}"
    );
}

/// The network the sweep once refused, and the witness it now builds.
/// Seeded network 0, class 10.0.1.0/24 (originated by `r1`), under
/// `{r2—r3}`: BGP has **three** stable solutions there (every one of the 8!
/// concrete activation orders lands in one of them), because `r6` raises
/// tagged routes to local preference 200 and `r4` tags everything it
/// imports. The sweep samples two concrete solutions — the warm repair of
/// the failure-free fixpoint and the cold solve in rotated order 1 — and
/// the second is the one in which `r0` takes the tagged detour (local
/// preference 200, six hops) instead of its direct route.
///
/// The base abstraction merges only `r5` and `r7`; `r0`, `r2` and `r3` are
/// singletons, so the endpoint split is empty and the base is the only
/// candidate. Its canonical abstract solution keeps `r0` on the direct
/// route. A search over abstract activation orders found the detour in 217
/// of the 5040 orders but in none of the nine it tried, and with nothing
/// left to split the whole network was refused.
///
/// The paper's proof does not search: it builds the abstract solution from
/// the concrete one. Each abstract node takes its concrete member's label,
/// every path entry mapped to its node's abstract node. That labelling is
/// stable, and each concrete node behaves as its abstract node does — the
/// witness the search missed. The sweep's check builds it too, so the class
/// sweeps on the base abstraction.
#[test]
fn the_once_refused_network_sweeps_on_the_transported_witness() {
    use bonsai::srp::instance::{MultiProtocol, RibAttr};
    use bonsai::srp::solver::{solve, solve_warm_masked, solve_with_order_masked, SolverOptions};
    use bonsai::srp::{Solution, Srp};
    use bonsai::verify::netsweep::sweep_network_subset;
    use bonsai::verify::sweep::lift_failure_mask;
    use bonsai_net::NodeId;
    use std::collections::BTreeSet;

    let route = |s: &Solution<RibAttr>, n: NodeId| match s.label(n) {
        Some(RibAttr::Bgp(a)) => (a.lp, a.path.len()),
        other => panic!("{n:?} holds {other:?}, not a BGP route"),
    };
    let options = SolverOptions::default();

    let net = &seeded_networks()[0];
    let topo = BuiltTopology::build(net).expect("topology builds");
    let graph = &topo.graph;
    let report = compress(net, CompressOptions::default());
    let class = report
        .per_ec
        .iter()
        .position(|c| c.ec.rep.to_string() == "10.0.1.0/24")
        .expect("r1's class");
    let comp = &report.per_ec[class];
    let router = |name| graph.node_by_name(name).expect("a router");
    let (r0, r2, r3) = (router("r0"), router("r2"), router("r3"));
    let scenario = FailureScenario::new(vec![(r2, r3)]);

    // The class sweeps, and its refinement for the failure is the base:
    // the check transported a sample the canonical solution did not match
    // (the counter is process-wide: other tests can only add to it).
    let sweep = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: 1,
            threads: 1,
            ..Default::default()
        },
        share_across_ecs: false,
        ..Default::default()
    };
    let transported = bonsai::obs::value("sweep.check.transported");
    let swept = sweep_network_subset(net, &topo, &report, &sweep, &[class]).expect("it sweeps");
    assert!(bonsai::obs::value("sweep.check.transported") > transported);
    let refinements = &swept.per_ec[0].report.refinements;
    let held = refinements.values().find(|r| r.representative == scenario);
    let held = held.expect("{r2—r3} is its signature's representative");
    assert!(held.split.is_empty(), "{:?}", held.split);
    let base = &comp.abstraction;
    let singleton = |n: NodeId| base.partition.members(base.role_of(n)).len() == 1;
    assert!([r0, r2, r3].into_iter().all(singleton));
    assert_eq!(base.abstract_node_count(), graph.node_count() - 1);
    assert!(base.copies.iter().all(|&c| c == 1), "{:?}", base.copies);

    // The two concrete samples are different stable solutions.
    let ec = comp.ec.to_ec_dest();
    let srp = Srp::with_origins(
        graph,
        vec![router("r1")],
        MultiProtocol::build(net, &topo, &ec),
    );
    let mask = scenario.mask(graph);
    let failure_free = solve(&srp).expect("converges");
    let warm = solve_warm_masked(&srp, &failure_free, options, &mask).expect("converges");
    let order: Vec<NodeId> = (1..graph.node_count() as u32)
        .chain([0])
        .map(NodeId)
        .collect();
    let second = solve_with_order_masked(&srp, &order, options, Some(&mask)).expect("converges");
    assert_eq!((route(&warm, r0), route(&second, r0)), ((100, 1), (200, 6)));

    // The second sample, transported: one copy per block, so each abstract
    // node takes its block's first member's label, and a path names the
    // abstract nodes of its concrete nodes.
    let abs = &comp.abstract_network;
    let abstract_of = |u: NodeId| abs.node_of(base.role_of(u), 0);
    let labels = (abs.copy_of_node.iter())
        .map(|&(block, _)| {
            let member = NodeId(base.partition.members(block)[0]);
            let mut label = second.labels[member.index()].clone();
            if let Some(RibAttr::Bgp(a)) = &mut label {
                a.path.iter_mut().for_each(|p| *p = abstract_of(*p));
            }
            label
        })
        .collect();
    let abs_mask = lift_failure_mask(&scenario, base, abs);
    let abs_origins = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let abs_srp = Srp::with_origins(&abs.graph, abs_origins, abs.instance(net, &topo));
    let witness = abs_srp
        .solution_from_labels_masked(labels, Some(&abs_mask))
        .expect("the transported labelling is stable");
    assert_eq!(route(&witness, abstract_of(r0)), (200, 6));

    // It matches: every concrete node holds its abstract node's label up
    // to path identity and forwards into the same blocks.
    let observed = |s: &Solution<RibAttr>, n: NodeId| match s.label(n) {
        Some(RibAttr::Bgp(a)) => (a.lp, a.comms.clone(), a.path.len(), a.med),
        other => panic!("{n:?} holds {other:?}, not a BGP route"),
    };
    let abs_graph = &abs.graph;
    for u in graph.nodes() {
        let a = abstract_of(u);
        let concrete: BTreeSet<u32> = (second.fwd(u).iter())
            .map(|&e| base.role_of(graph.target(e)).0)
            .collect();
        let abstracted: BTreeSet<u32> = (witness.fwd(a).iter())
            .map(|&e| abs.copy_of_node[abs_graph.target(e).index()].0 .0)
            .collect();
        let name = graph.name(u);
        assert_eq!(observed(&second, u), observed(&witness, a), "{name}");
        assert_eq!(concrete, abstracted, "{name}'s forwarding");
    }
}
