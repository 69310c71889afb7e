//! A refinement is its split: its partition is its class handle's
//! `split_partition` of the split, and the abstract network and the
//! canonical solution behind [`ScenarioRefinement::materialized`] are
//! built by the first reader, not when the refinement is derived,
//! transferred or replayed from a snapshot. This file pins that laziness
//! to the eager behaviour it replaced:
//!
//! * every refinement of fattree-4, mesh-10 and the gadget at `k ≤ 2`, of
//!   `gen:datacenter`'s classes `0..18` at `k = 1` and of the 15 sweepable
//!   seeded networks — derived, transferred exactly, transferred
//!   symmetrically (eagerly or through a class witness) and replayed from
//!   a snapshot — is a fresh `split_partition` of its split over its
//!   handle, block ids included, with that node count;
//! * for every refinement of the gadget, fattree-4, fattree-6, mesh-10 and
//!   48 random policy-carrying networks at `k ∈ {1, 2}` and 1 and 2
//!   threads, `materialized()` equals what used to be stored at transfer
//!   time — `refine_ec_with_split(.., base, split)`'s network (the base
//!   abstract network itself when the split is empty) and the natural-order
//!   masked solve of it;
//! * a derived refinement arrives filled, a transferred one empty;
//! * racing first readers get one value;
//! * a session answers identically whichever scenario touches a
//!   refinement first, and identically cold, restored and reloaded.

#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::core::abstraction::AbstractNetwork;
use bonsai::core::algorithm::Abstraction;
use bonsai::core::compress::{refine_ec_with_split, CompressionReport, EcCompression};
use bonsai::core::signatures::build_sig_table;
use bonsai::prelude::*;
use bonsai::srp::instance::{MultiProtocol, RibAttr};
use bonsai::srp::solver::solve_masked;
use bonsai::srp::{Solution, Srp};
use bonsai::verify::failures::lift_failure_mask;
use bonsai::verify::netsweep::sweep_network_subset;
use bonsai::verify::sweep::{Materialized, RefinementProvenance, ScenarioRefinement};
use bonsai_config::print_network;
use bonsai_net::{Graph, NodeId};
use proptest::prelude::*;
use std::sync::Barrier;

fn swept(
    net: &NetworkConfig,
    k: usize,
    threads: usize,
) -> (BuiltTopology, CompressionReport, NetworkSweepReport) {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let report = compress(net, CompressOptions::default());
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads,
            ..Default::default()
        },
        collect_outcomes: false,
        ..Default::default()
    };
    let sweep = sweep_network(net, &topo, &report, &options).expect("sweep completes");
    (topo, report, sweep)
}

/// The canonical solve as the parent commit ran it on every refinement:
/// natural order, the representative's mask lifted onto the network.
fn canonical_solution(
    abstraction: &Abstraction,
    abs: &AbstractNetwork,
    representative: &FailureScenario,
) -> Option<Solution<RibAttr>> {
    let mask = lift_failure_mask(representative, abstraction, abs);
    let origins: Vec<NodeId> = abs.ec.origins.iter().map(|(n, _)| *n).collect();
    let proto = MultiProtocol::build(&abs.network, &abs.topo, &abs.ec);
    let srp = Srp::with_origins(&abs.topo.graph, origins, proto);
    solve_masked(&srp, Some(&mask)).ok()
}

fn assert_same_network(lazy: &AbstractNetwork, eager: &AbstractNetwork, what: &str) {
    assert_eq!(
        print_network(&lazy.network),
        print_network(&eager.network),
        "{what}: abstract configuration"
    );
    assert_eq!(
        format!("{:?}", lazy.topo),
        format!("{:?}", eager.topo),
        "{what}: abstract topology"
    );
    assert_eq!(lazy.ec, eager.ec, "{what}: transported class");
    assert_eq!(lazy.node_of_copy, eager.node_of_copy, "{what}");
    assert_eq!(lazy.copy_of_node, eager.copy_of_node, "{what}");
}

/// How many refinements a check saw, by the cases the issue names.
#[derive(Default)]
struct Seen {
    refinements: usize,
    transferred: usize,
    empty_splits: usize,
}

/// Every refinement of one sweep against the eager pair, with the fill
/// state on arrival.
fn check_sweep(label: &str, net: &NetworkConfig, k: usize, threads: usize) -> Seen {
    let (topo, report, sweep) = swept(net, k, threads);
    let mut seen = Seen::default();
    for (comp, class) in report.per_ec.iter().zip(&sweep.per_ec) {
        let ec = comp.ec.to_ec_dest();
        let sigs = build_sig_table(&report.policies, net, &topo, &ec);
        for r in class.report.refinements.values() {
            let what = format!(
                "{label} k={k} threads={threads} class {} under {}",
                comp.ec.rep,
                r.representative.describe(&topo.graph)
            );
            let derived = r.provenance == RefinementProvenance::Derived;
            assert_eq!(r.is_materialized(), derived, "{what}: cell on return");

            let refined;
            let (abstraction, network) = if r.split.is_empty() {
                seen.empty_splits += 1;
                (&comp.abstraction, comp.abstract_network(net, &topo))
            } else {
                let (partition, layout) =
                    refine_ec_with_split(&topo.graph, &ec, &sigs, &comp.abstraction, &r.split);
                refined = (partition, layout.render(net, &topo));
                (&refined.0, &refined.1)
            };
            assert_eq!(
                r.abstraction().partition.as_sets(),
                abstraction.partition.as_sets(),
                "{what}"
            );
            assert_eq!(r.abstraction().copies, abstraction.copies, "{what}");

            let lazy = r.materialized(net, &topo);
            assert!(r.is_materialized());
            assert_same_network(lazy.abstract_network(net, &topo), network, &what);
            let solution = canonical_solution(abstraction, network, &r.representative);
            assert_eq!(
                lazy.abstract_solution().map(|s| &s.labels),
                solution.as_ref().map(|s| &s.labels),
                "{what}: canonical solution"
            );
            seen.refinements += 1;
            seen.transferred += usize::from(!derived);
        }
    }
    seen
}

/// `a — b — c`, `a` originating: every base block is a singleton, so no
/// scenario splits anything and every refinement is the base abstraction.
const CHAIN: &str = "
device a
interface r
router bgp 1
 network 10.0.0.0/24
 neighbor r remote-as external
end
device b
interface l
interface r
router bgp 2
 neighbor l remote-as external
 neighbor r remote-as external
end
device c
interface l
router bgp 3
 neighbor l remote-as external
end
link a r b l
link b r c l
";

#[test]
fn materialized_is_what_a_transfer_used_to_store() {
    let lazily_built = bonsai::obs::value("sweep.refinements.materialized");
    let mut total = Seen::default();
    for (label, net) in [
        ("chain", parse_network(CHAIN).expect("chain parses")),
        ("gadget", bonsai::srp::papernets::figure2_gadget()),
        ("fattree4", fattree(4, FattreePolicy::ShortestPath)),
        ("fattree6", fattree(6, FattreePolicy::ShortestPath)),
        ("mesh10", full_mesh(10)),
    ] {
        for k in [1, 2] {
            for threads in [1, 2] {
                let seen = check_sweep(label, &net, k, threads);
                assert!(seen.refinements > 0, "{label} k={k}");
                total.refinements += seen.refinements;
                total.transferred += seen.transferred;
                total.empty_splits += seen.empty_splits;
            }
        }
    }
    // Both arms of both distinctions were exercised …
    assert!(total.transferred > 0 && total.transferred < total.refinements);
    assert!(total.empty_splits > 0 && total.empty_splits < total.refinements);
    // … and every lazy build was counted (other tests of this binary may
    // add their own meanwhile).
    let counted = bonsai::obs::value("sweep.refinements.materialized") - lazily_built;
    assert!(counted >= total.transferred as u64, "{counted}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn materialized_is_what_a_transfer_used_to_store_on_random_networks(
        spec in random_nets::arb_spec()
    ) {
        let net = random_nets::build(&spec);
        for k in [1, 2] {
            for threads in [1, 2] {
                check_sweep(&format!("{spec:?}"), &net, k, threads);
            }
        }
    }
}

/// Refinements checked by [`every_refinement_is_its_split_over_its_handle`],
/// by the five ways a refinement comes to be.
#[derive(Debug, Default)]
struct Kinds {
    derived: usize,
    exact: usize,
    eager_symmetric: usize,
    witnessed: usize,
    replayed: usize,
}

/// `r` is its split: its handle is class `comp`'s, a fresh
/// `split_partition` of `r.split` over that handle is `r`'s partition —
/// sets, block ids, copies — and `r.refined_nodes()` (read first, before
/// anything else reads the partition) is that partition's node count.
fn assert_is_its_split(what: &str, graph: &Graph, comp: &EcCompression, r: &ScenarioRefinement) {
    let nodes = r.refined_nodes();
    let class = r.class();
    assert_eq!(class.ec, comp.ec.to_ec_dest(), "{what}: the handle's class");
    let ids = |a: &Abstraction| graph.nodes().map(|n| a.role_of(n)).collect::<Vec<_>>();
    assert_eq!(ids(&class.base), ids(&comp.abstraction), "{what}: base");
    let fresh = class.split_partition(&r.split);
    let held = r.abstraction();
    assert_eq!(
        held.partition.as_sets(),
        fresh.partition.as_sets(),
        "{what}"
    );
    assert_eq!(ids(held), ids(&fresh), "{what}: block ids");
    assert_eq!(held.copies, fresh.copies, "{what}: copies");
    assert_eq!(nodes, fresh.abstract_node_count(), "{what}: node count");
}

/// Every refinement of one sweep of `subset` (every class when `None`),
/// counted by kind.
fn check_split_sweep(
    label: &str,
    net: &NetworkConfig,
    k: usize,
    subset: Option<&[usize]>,
) -> Kinds {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let report = compress(net, CompressOptions::default());
    let every: Vec<usize> = (0..report.per_ec.len()).collect();
    let subset = subset.unwrap_or(&every);
    let options = NetworkSweepOptions {
        sweep: SweepOptions {
            max_failures: k,
            threads: 1,
            ..Default::default()
        },
        collect_outcomes: false,
        ..Default::default()
    };
    let sweep = sweep_network_subset(net, &topo, &report, &options, subset)
        .unwrap_or_else(|e| panic!("{label} k={k}: {e}"));
    let mut kinds = Kinds::default();
    for (&ci, class) in subset.iter().zip(&sweep.per_ec) {
        for r in class.report.refinements.values() {
            let what = format!("{label} k={k} class {ci} {:?}", r.representative);
            assert_is_its_split(&what, &topo.graph, &report.per_ec[ci], r);
            match r.provenance {
                RefinementProvenance::Derived => kinds.derived += 1,
                RefinementProvenance::TransferredExact => kinds.exact += 1,
                RefinementProvenance::TransferredSymmetric if r.is_witnessed() => {
                    kinds.witnessed += 1
                }
                RefinementProvenance::TransferredSymmetric => kinds.eager_symmetric += 1,
            }
        }
    }
    kinds
}

/// Every refinement of a session restored from a `k`-failure snapshot of
/// `net`: each one replayed from its recorded split.
fn check_replayed(label: &str, net: &NetworkConfig, k: usize) -> usize {
    let options = SessionOptions {
        max_failures: k,
        threads: 1,
        ..Default::default()
    };
    let session = Session::builder(net.clone()).options(options);
    let snapshot = session.build().expect("session builds").snapshot_json();
    let restored = Session::builder(net.clone())
        .options(options)
        .restore(&snapshot)
        .expect("snapshot restores");
    let topo = BuiltTopology::build(net).expect("topology builds");
    let report = compress(net, CompressOptions::default());
    let mut replayed = 0;
    for (ci, r) in restored.refinements() {
        let what = format!("{label} k={k} restored class {ci} {:?}", r.representative);
        assert_is_its_split(&what, &topo.graph, &report.per_ec[ci], r);
        replayed += 1;
    }
    replayed
}

#[test]
fn every_refinement_is_its_split_over_its_handle() {
    let mut total = Kinds::default();
    let mut add = |kinds: Kinds| {
        total.derived += kinds.derived;
        total.exact += kinds.exact;
        total.eager_symmetric += kinds.eager_symmetric;
        total.witnessed += kinds.witnessed;
    };
    let small = [
        ("gadget", bonsai::srp::papernets::figure2_gadget()),
        ("fattree4", fattree(4, FattreePolicy::ShortestPath)),
        ("mesh10", full_mesh(10)),
    ];
    for (label, net) in &small {
        for k in [1, 2] {
            add(check_split_sweep(label, net, k, None));
        }
    }
    let datacenter = bonsai::topo::datacenter(Default::default());
    let first_group: Vec<usize> = (0..18).collect();
    add(check_split_sweep(
        "datacenter",
        &datacenter,
        1,
        Some(&first_group),
    ));
    for (i, net) in random_nets::seeded_networks().iter().enumerate() {
        add(check_split_sweep(&format!("seeded {i}"), net, 2, None));
    }
    for (label, net) in &small {
        total.replayed += check_replayed(label, net, 2);
    }
    // All five kinds were checked.
    let Kinds {
        derived,
        exact,
        eager_symmetric,
        witnessed,
        replayed,
    } = total;
    assert!(
        [derived, exact, eager_symmetric, witnessed, replayed]
            .iter()
            .all(|&n| n > 0),
        "{total:?}"
    );
}

/// Eight threads released together onto the first read of one transferred
/// refinement: one of them builds, all of them see that one value.
#[test]
fn racing_first_readers_get_one_value() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    let (topo, _, sweep) = swept(&net, 2, 1);
    let mut raced = 0usize;
    for class in &sweep.per_ec {
        let transferred = class.report.refinements.values();
        for r in transferred.filter(|r| !r.is_materialized()).take(4) {
            let barrier = Barrier::new(8);
            let seen: Vec<usize> = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            r.materialized(&net, &topo) as *const Materialized as usize
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .map(|reader| reader.join().expect("reader finishes"))
                    .collect()
            });
            let resident = r.materialized(&net, &topo);
            assert!(seen
                .iter()
                .all(|&p| std::ptr::eq(p as *const Materialized, resident)));
            raced += 1;
        }
    }
    assert!(
        raced >= 8,
        "fattree-4 k=2 transfers refinements in every class"
    );
}

fn session_of(net: &NetworkConfig, threads: usize) -> Session {
    Session::builder(net.clone())
        .options(SessionOptions {
            max_failures: 2,
            threads,
            ..Default::default()
        })
        .build()
        .expect("session builds")
}

fn named(graph: &bonsai_net::Graph, scenario: &FailureScenario) -> Vec<(String, String)> {
    let name = |n: NodeId| graph.name(n).to_string();
    let pair = |&(u, v): &(NodeId, NodeId)| (name(u), name(v));
    scenario.links.iter().map(pair).collect()
}

/// Every `≤ 2` scenario's `all_pairs` and one `reach`, plus a `path` on
/// every 16th, rendered — in stream order or in reverse, so that a
/// refinement's first touch is its representative in one order and (for
/// most) a lifted scenario in the other.
fn answers(session: &Session, net: &NetworkConfig, reversed: bool) -> Vec<String> {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let stream = ScenarioStream::new(&topo.graph, 2);
    let mut order: Vec<usize> = (0..stream.len()).collect();
    if reversed {
        order.reverse();
    }
    let (src, dst) = ("edge0_0".to_string(), "edge1_1".to_string());
    let mut rendered = vec![String::new(); stream.len()];
    for rank in order {
        let links = named(&topo.graph, &stream.get(rank));
        let mut line = format!(
            "{:?} {:?}",
            session.all_pairs(&links).expect("all_pairs answers"),
            session.reach(&src, &dst, &links).expect("reach answers"),
        );
        if rank % 16 == 0 {
            let path = session.path(&src, &dst, &links, &[]);
            line.push_str(&format!(" {:?}", path.expect("path answers")));
        }
        rendered[rank] = line;
    }
    rendered
}

/// What the solver was asked to do, which must not depend on who touched
/// a refinement first: the deferred canonical solve is the refinement's,
/// not the query's.
fn solver_work(session: &Session) -> (usize, usize, usize, usize) {
    let s = session.stats();
    (
        s.abstract_solves,
        s.concrete_solves,
        s.solver_updates,
        s.cached_answers,
    )
}

#[test]
fn a_session_answers_the_same_whoever_touches_a_refinement_first() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    for threads in [1, 2] {
        let forward = session_of(&net, threads);
        let backward = session_of(&net, threads);
        let expected = answers(&forward, &net, false);
        assert_eq!(answers(&backward, &net, true), expected);
        assert_eq!(solver_work(&backward), solver_work(&forward));
        assert_eq!(backward.state_digest(), forward.state_digest());

        // Restored from a snapshot taken before any query: every
        // refinement is a replayed partition, every answer a first touch.
        let cold_snapshot = session_of(&net, threads).snapshot_json();
        let restore = |text: &str| {
            Session::builder(net.clone())
                .options(SessionOptions {
                    threads,
                    ..Default::default()
                })
                .restore(text)
                .expect("snapshot restores")
        };
        let restored = restore(&cold_snapshot);
        assert_eq!(restored.state_digest(), forward.state_digest());
        assert_eq!(answers(&restored, &net, true), expected);
        assert_eq!(solver_work(&restored), solver_work(&forward));
        // … and from the answer-warm one: replays, no solver work at all.
        let warm = restore(&forward.snapshot_json());
        assert_eq!(answers(&warm, &net, false), expected);
        assert_eq!(solver_work(&warm), (0, 0, 0, 0));

        // A one-class reload: a new origination adds a class, the eight
        // others are carried over with whatever they had materialized.
        let mut edited = net.clone();
        let bgp = edited.devices[0].bgp.as_mut().expect("fattree speaks BGP");
        bgp.networks
            .push("10.240.0.0/24".parse().expect("a prefix"));
        let cold = session_of(&edited, threads);
        let expected = answers(&cold, &edited, false);
        for resident in [session_of(&net, threads), forward] {
            let (reloaded, outcome) = resident.reload(edited.clone()).expect("reload");
            assert_eq!((outcome.rederived, outcome.reused), (1, 8));
            assert_eq!(reloaded.state_digest(), cold.state_digest());
            assert_eq!(answers(&reloaded, &edited, true), expected);
        }
    }
}
