//! An independent reference for the SRP kernel.
//!
//! `srp::protocols::bgp` specializes every route map once per class
//! instance — a map that reaches its deciding clause through prefix-list
//! clauses only is one constant `PolicyResult` — and `MultiProtocol` lends
//! the neighbour's BGP attribute to the transfer instead of cloning it;
//! `srp::solver` computes one choice set per validated node. This file keeps
//! the straightforward versions as a test-only oracle — the neighbour's
//! attribute cloned and both route maps found by name and interpreted on
//! every offer; the stability check and the forwarding relation computed
//! in two passes — and checks that the kernel's results are *equal*:
//!
//! * `transfer` and `transfer_with(.., false)` on every directed edge, for
//!   ⊥, the origin labels, every label of the natural-order solution and 64
//!   seeded community subsets of the network's community universe;
//! * cold solves in eight activation orders, a seeded solve and a warm
//!   solve under every `k ≤ 1` scenario: the same `Solution` (labels and
//!   forwarding), the same label updates, the same divergence.
//!
//! The warm solve reports its updates through the `srp.label_updates`
//! counter only, which is process-wide: every test here holds [`SOLVER`].

// The sixteen seeded networks, whose community matches make interpreted
// route maps.
#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::config::eval::{eval_optional_route_map, PolicyInput};
use bonsai::config::{parse_network, BuiltTopology, Community, NetworkConfig, SetAction};
use bonsai::core::ecs::compute_ecs;
use bonsai::core::scenarios::ScenarioStream;
use bonsai::net::prefix::Prefix;
use bonsai::net::{EdgeId, FailureMask, NodeId};
use bonsai::srp::instance::{EcDest, MultiProtocol, RibAttr};
use bonsai::srp::protocols::bgp::{BgpAttr, BgpEdge, BgpProtocol};
use bonsai::srp::protocols::ospf::{OspfAttr, OspfProtocol};
use bonsai::srp::solver::{
    solve_seeded_masked, solve_warm_masked, solve_with_order_masked_stats, SolveError,
    SolverOptions,
};
use bonsai::srp::{papernets, Protocol, Solution, Srp};
use bonsai::topo::{datacenter, fattree, FattreePolicy};
use random_nets::{seeded_networks, Lcg};
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;

/// Held for the whole of every test: the warm comparison reads a
/// process-wide counter around one solve.
static SOLVER: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// The oracle's transfer: clone the advertised attribute, interpret both maps
// ---------------------------------------------------------------------------

struct Interpreting<'a> {
    /// Origins and the comparison relation, which the kernel change leaves
    /// alone; the static facts of an edge.
    fast: MultiProtocol<'a>,
    network: &'a NetworkConfig,
    dest: Prefix,
    endpoints: Vec<(NodeId, NodeId)>,
    sessions: Vec<Option<BgpEdge>>,
    ospf: OspfProtocol,
}

impl<'a> Interpreting<'a> {
    fn build(network: &'a NetworkConfig, topo: &BuiltTopology, ec: &EcDest) -> Self {
        Interpreting {
            fast: MultiProtocol::build(network, topo, ec),
            network,
            dest: ec.prefix,
            endpoints: topo
                .graph
                .edges()
                .map(|e| topo.graph.endpoints(e))
                .collect(),
            sessions: topo
                .graph
                .edges()
                .map(|e| BgpProtocol::edge_facts(network, topo, e))
                .collect(),
            ospf: OspfProtocol::from_network(network, topo),
        }
    }

    fn bgp_transfer(&self, e: EdgeId, a: &BgpAttr, check_loop: bool) -> Option<BgpAttr> {
        let session = self.sessions[e.index()].as_ref()?;
        let (u, v) = self.endpoints[e.index()];
        let du = &self.network.devices[u.index()];
        let dv = &self.network.devices[v.index()];
        if a.from_ibgp && session.ibgp {
            return None;
        }
        let export = eval_optional_route_map(
            dv,
            session.export_map.as_deref(),
            &PolicyInput {
                dest: self.dest,
                communities: a.comms.clone(),
            },
        );
        if !export.permit {
            return None;
        }
        let mut comms = a.comms.clone();
        export.apply_communities(&mut comms);
        let mut path = Vec::with_capacity(a.path.len() + 1 + export.prepend as usize);
        for _ in 0..=export.prepend {
            path.push(v);
        }
        path.extend_from_slice(&a.path);
        if check_loop && path.contains(&u) {
            return None;
        }
        let import = eval_optional_route_map(
            du,
            session.import_map.as_deref(),
            &PolicyInput {
                dest: self.dest,
                communities: comms.clone(),
            },
        );
        if !import.permit {
            return None;
        }
        import.apply_communities(&mut comms);
        let default_lp = du.bgp.as_ref().map(|b| b.default_local_pref).unwrap_or(100);
        let lp = import
            .local_pref
            .unwrap_or(if session.ibgp { a.lp } else { default_lp });
        let med = import
            .metric
            .or(export.metric)
            .unwrap_or(if session.ibgp { a.med } else { 0 });
        Some(BgpAttr {
            lp,
            comms,
            path,
            med,
            from_ibgp: session.ibgp,
        })
    }

    fn bgp_advertisable(&self, v: NodeId, label: &RibAttr) -> Option<BgpAttr> {
        let bgp = self.network.devices[v.index()].bgp.as_ref()?;
        match label {
            RibAttr::Bgp(a) => Some(a.clone()),
            RibAttr::Static if bgp.redistribute_static => {
                Some(BgpAttr::origin(bgp.default_local_pref))
            }
            RibAttr::Ospf(_) if bgp.redistribute_ospf => {
                Some(BgpAttr::origin(bgp.default_local_pref))
            }
            _ => None,
        }
    }

    fn ospf_advertisable(&self, v: NodeId, label: &RibAttr) -> Option<OspfAttr> {
        let ospf = self.network.devices[v.index()].ospf.as_ref()?;
        match label {
            RibAttr::Ospf(a) => Some(*a),
            RibAttr::Static if ospf.redistribute_static => Some(OspfAttr {
                cost: 0,
                inter_area: false,
            }),
            _ => None,
        }
    }

    fn transfer_with(&self, e: EdgeId, a: Option<&RibAttr>, check_loops: bool) -> Option<RibAttr> {
        let mut best: Option<RibAttr> = None;
        let mut consider = |cand: RibAttr| {
            if best
                .as_ref()
                .is_none_or(|b| self.compare(&cand, b) == Some(Ordering::Less))
            {
                best = Some(cand);
            }
        };
        if self.fast.static_on_edge(e) {
            consider(RibAttr::Static);
        }
        if let Some(label) = a {
            let v = self.endpoints[e.index()].1;
            if let Some(adv) = self.bgp_advertisable(v, label) {
                if let Some(b) = self.bgp_transfer(e, &adv, check_loops) {
                    consider(RibAttr::Bgp(b));
                }
            }
            if let Some(adv) = self.ospf_advertisable(v, label) {
                if let Some(o) = self.ospf.transfer(e, Some(&adv)) {
                    consider(RibAttr::Ospf(o));
                }
            }
        }
        best
    }
}

impl Protocol for Interpreting<'_> {
    type Attr = RibAttr;

    fn origin(&self, origin: NodeId) -> RibAttr {
        self.fast.origin(origin)
    }

    fn compare(&self, a: &RibAttr, b: &RibAttr) -> Option<Ordering> {
        self.fast.compare(a, b)
    }

    fn transfer(&self, e: EdgeId, a: Option<&RibAttr>) -> Option<RibAttr> {
        self.transfer_with(e, a, true)
    }
}

// ---------------------------------------------------------------------------
// The oracle's solver: a fresh choice set per activation, two-pass validation
// ---------------------------------------------------------------------------

type Solved = Result<(Solution<RibAttr>, usize), SolveError>;

fn disabled(mask: Option<&FailureMask>, e: EdgeId) -> bool {
    mask.is_some_and(|m| m.is_disabled(e))
}

fn choices(
    srp: &Srp<'_, Interpreting<'_>>,
    labels: &[Option<RibAttr>],
    u: NodeId,
    mask: Option<&FailureMask>,
) -> Vec<(EdgeId, RibAttr)> {
    let mut out = Vec::new();
    for e in srp.graph.out(u).filter(|&e| !disabled(mask, e)) {
        let v = srp.graph.target(e);
        if let Some(a) = srp.protocol.transfer(e, labels[v.index()].as_ref()) {
            out.push((e, a));
        }
    }
    out
}

fn pick_minimal(srp: &Srp<'_, Interpreting<'_>>, choices: &[(EdgeId, RibAttr)]) -> usize {
    let mut best = 0;
    for i in 1..choices.len() {
        if srp.protocol.compare(&choices[i].1, &choices[best].1) == Some(Ordering::Less) {
            best = i;
        }
    }
    best
}

fn equally_good(srp: &Srp<'_, Interpreting<'_>>, a: &RibAttr, b: &RibAttr) -> bool {
    srp.protocol.compare(a, b) != Some(Ordering::Less)
        && srp.protocol.compare(b, a) != Some(Ordering::Less)
}

fn propagate(
    srp: &Srp<'_, Interpreting<'_>>,
    labels: &mut [Option<RibAttr>],
    seeds: &[NodeId],
    mask: Option<&FailureMask>,
    touched: &mut [bool],
) -> Result<usize, SolveError> {
    let n = srp.graph.node_count();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut queued = vec![false; n];
    for &u in seeds {
        if !queued[u.index()] {
            queue.push_back(u);
            queued[u.index()] = true;
            touched[u.index()] = true;
        }
    }
    let budget = SolverOptions::default()
        .update_factor
        .saturating_mul(n + srp.graph.edge_count())
        .max(1024);
    let mut updates = 0usize;
    while let Some(u) = queue.pop_front() {
        queued[u.index()] = false;
        let choices = choices(srp, labels, u, mask);
        let new_label = if choices.is_empty() {
            None
        } else {
            let best = pick_minimal(srp, &choices);
            let keep = labels[u.index()].as_ref().and_then(|cur| {
                choices
                    .iter()
                    .find(|(_, a)| a == cur && equally_good(srp, a, &choices[best].1))
                    .map(|(_, a)| a.clone())
            });
            Some(keep.unwrap_or_else(|| choices[best].1.clone()))
        };
        if new_label != labels[u.index()] {
            labels[u.index()] = new_label;
            updates += 1;
            if updates > budget {
                return Err(SolveError::Diverged { updates });
            }
            for w in srp.graph.predecessors(u) {
                if !srp.is_origin(w) {
                    touched[w.index()] = true;
                    if !queued[w.index()] {
                        queued[w.index()] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
    }
    Ok(updates)
}

fn check_node(
    srp: &Srp<'_, Interpreting<'_>>,
    labels: &[Option<RibAttr>],
    u: NodeId,
    mask: Option<&FailureMask>,
) -> Result<(), String> {
    let lu = &labels[u.index()];
    if srp.is_origin(u) {
        return match lu {
            Some(a) if *a == srp.protocol.origin(u) => Ok(()),
            _ => Err(format!("origin {u:?} not labeled with a_d")),
        };
    }
    let choices = choices(srp, labels, u, mask);
    match lu {
        None if !choices.is_empty() => {
            Err(format!("{u:?} labeled ⊥ but has {} choices", choices.len()))
        }
        None => Ok(()),
        Some(a) => {
            if !choices.iter().any(|(_, c)| c == a) {
                return Err(format!("{u:?} label {a:?} is not among its choices"));
            }
            for (e, c) in &choices {
                if srp.protocol.compare(c, a) == Some(Ordering::Less) {
                    return Err(format!(
                        "{u:?} prefers {c:?} (via {e:?}) over its label {a:?}"
                    ));
                }
            }
            Ok(())
        }
    }
}

fn node_fwd(
    srp: &Srp<'_, Interpreting<'_>>,
    labels: &[Option<RibAttr>],
    u: NodeId,
    mask: Option<&FailureMask>,
) -> Vec<EdgeId> {
    match &labels[u.index()] {
        Some(lu) if !srp.is_origin(u) => choices(srp, labels, u, mask)
            .into_iter()
            .filter(|(_, a)| equally_good(srp, a, lu))
            .map(|(e, _)| e)
            .collect(),
        _ => Vec::new(),
    }
}

/// The stability check over every node, then the forwarding pass.
fn validated(
    srp: &Srp<'_, Interpreting<'_>>,
    labels: Vec<Option<RibAttr>>,
    mask: Option<&FailureMask>,
    updates: usize,
) -> Solved {
    for u in srp.graph.nodes() {
        check_node(srp, &labels, u, mask).map_err(SolveError::Internal)?;
    }
    let fwd = srp
        .graph
        .nodes()
        .map(|u| node_fwd(srp, &labels, u, mask))
        .collect();
    Ok((Solution { labels, fwd }, updates))
}

fn pinned(
    srp: &Srp<'_, Interpreting<'_>>,
    mut labels: Vec<Option<RibAttr>>,
) -> Vec<Option<RibAttr>> {
    for &o in &srp.origins {
        labels[o.index()] = Some(srp.protocol.origin(o));
    }
    labels
}

fn cold(srp: &Srp<'_, Interpreting<'_>>, order: &[NodeId], mask: Option<&FailureMask>) -> Solved {
    let mut labels = pinned(srp, vec![None; srp.graph.node_count()]);
    let seeds: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&u| !srp.is_origin(u))
        .collect();
    let mut touched = vec![false; labels.len()];
    let updates = propagate(srp, &mut labels, &seeds, mask, &mut touched)?;
    validated(srp, labels, mask, updates)
}

fn seeded(
    srp: &Srp<'_, Interpreting<'_>>,
    initial: Vec<Option<RibAttr>>,
    mask: Option<&FailureMask>,
) -> Solved {
    let mut labels = pinned(srp, initial);
    let seeds: Vec<NodeId> = srp.graph.nodes().filter(|&u| !srp.is_origin(u)).collect();
    let mut touched = vec![false; labels.len()];
    let updates = propagate(srp, &mut labels, &seeds, mask, &mut touched)?;
    validated(srp, labels, mask, updates)
}

fn warm(srp: &Srp<'_, Interpreting<'_>>, base: &Solution<RibAttr>, mask: &FailureMask) -> Solved {
    let n = srp.graph.node_count();
    let mut labels = base.labels.clone();
    let mut safe = vec![false; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &o in &srp.origins {
        if !safe[o.index()] {
            safe[o.index()] = true;
            queue.push_back(o);
        }
    }
    let mut fwd_preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for u in srp.graph.nodes() {
        for &e in base.fwd(u).iter().filter(|&&e| !mask.is_disabled(e)) {
            fwd_preds[srp.graph.target(e).index()].push(u);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &u in &fwd_preds[v.index()] {
            if !safe[u.index()] {
                safe[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    let mut seed_set = vec![false; n];
    for u in srp.graph.nodes() {
        if !safe[u.index()] && !srp.is_origin(u) && labels[u.index()].is_some() {
            labels[u.index()] = None;
            seed_set[u.index()] = true;
            for w in srp.graph.predecessors(u) {
                seed_set[w.index()] = true;
            }
        }
    }
    for e in mask.iter_disabled() {
        if e.index() < srp.graph.edge_count() {
            seed_set[srp.graph.source(e).index()] = true;
        }
    }
    let seeds: Vec<NodeId> = srp
        .graph
        .nodes()
        .filter(|&u| seed_set[u.index()] && !srp.is_origin(u))
        .collect();
    let mut touched = seed_set;
    let updates = propagate(srp, &mut labels, &seeds, Some(mask), &mut touched)?;
    let mut fwd = base.fwd.clone();
    for u in srp.graph.nodes().filter(|u| touched[u.index()]) {
        check_node(srp, &labels, u, Some(mask)).map_err(SolveError::Internal)?;
        fwd[u.index()] = node_fwd(srp, &labels, u, Some(mask));
    }
    Ok((Solution { labels, fwd }, updates))
}

/// The node list rotated left by `rot`, reversed on every second wrap.
fn rotated_order(n: usize, rot: usize) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    order.rotate_left(rot % n.max(1));
    if rot / n.max(1) % 2 == 1 {
        order.reverse();
    }
    order
}

// ---------------------------------------------------------------------------
// The comparisons
// ---------------------------------------------------------------------------

/// Every community a configuration names: in community lists and in set
/// actions.
fn community_universe(net: &NetworkConfig) -> Vec<Community> {
    let mut all = BTreeSet::new();
    for d in &net.devices {
        for list in &d.community_lists {
            all.extend(list.communities.iter().copied());
        }
        for clause in d.route_maps.iter().flat_map(|m| &m.clauses) {
            for set in &clause.sets {
                if let SetAction::AddCommunity(c) | SetAction::DeleteCommunity(c) = set {
                    all.insert(*c);
                }
            }
        }
    }
    all.into_iter().collect()
}

/// The labels the transfer check offers across every edge: the origins',
/// the natural-order solution's, and 64 BGP labels of that pool carrying a
/// seeded subset of the community universe.
fn offered_labels(
    net: &NetworkConfig,
    srp: &Srp<'_, MultiProtocol<'_>>,
    solution: Option<&Solution<RibAttr>>,
    rng: &mut Lcg,
) -> Vec<RibAttr> {
    let mut labels: Vec<RibAttr> = srp
        .origins
        .iter()
        .map(|&o| srp.protocol.origin(o))
        .collect();
    labels.extend(
        solution
            .iter()
            .flat_map(|s| s.labels.iter().flatten().cloned()),
    );
    let bgp: Vec<BgpAttr> = labels
        .iter()
        .filter_map(|l| match l {
            RibAttr::Bgp(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    let universe = community_universe(net);
    for _ in 0..64 {
        let Some(template) = (!bgp.is_empty()).then(|| &bgp[rng.below(bgp.len())]) else {
            break;
        };
        let mut attr = template.clone();
        attr.comms = universe
            .iter()
            .copied()
            .filter(|_| rng.below(2) == 1)
            .collect();
        labels.push(RibAttr::Bgp(attr));
    }
    labels
}

/// What to compare on one network: every `classes`-th class, and on each
/// the transfers and the solves under every `scenarios`-th `k ≤ 1`
/// scenario (the failure-free state always).
#[derive(Clone, Copy)]
struct Coverage {
    classes: usize,
    scenarios: usize,
}

const ALL: Coverage = Coverage {
    classes: 1,
    scenarios: 1,
};

/// Compares the kernel with the oracle on the classes of `net` that
/// `coverage` names; returns how many solve comparisons ran.
fn check_network(net: &NetworkConfig, coverage: Coverage) -> usize {
    let topo = BuiltTopology::build(net).expect("topology builds");
    let graph = &topo.graph;
    let mut rng = Lcg(0x0ff3);
    let mut compared = 0;
    for ec in compute_ecs(net, &topo).iter().step_by(coverage.classes) {
        let ec = ec.to_ec_dest();
        let origins: Vec<NodeId> = ec.origins.iter().map(|(n, _)| *n).collect();
        let fast = Srp::with_origins(
            graph,
            origins.clone(),
            MultiProtocol::build(net, &topo, &ec),
        );
        let oracle = Srp::with_origins(graph, origins, Interpreting::build(net, &topo, &ec));
        let natural = rotated_order(graph.node_count(), 0);
        let base = cold(&oracle, &natural, None).ok().map(|(s, _)| s);

        for label in std::iter::once(None).chain(
            offered_labels(net, &fast, base.as_ref(), &mut rng)
                .iter()
                .map(Some),
        ) {
            for e in graph.edges() {
                for check_loops in [true, false] {
                    assert_eq!(
                        fast.protocol.transfer_with(e, label, check_loops),
                        oracle.protocol.transfer_with(e, label, check_loops),
                        "{}: transfer over {e:?} of {label:?}, loop check {check_loops}",
                        ec.prefix
                    );
                }
            }
        }

        let singles = ScenarioStream::new(graph, 1);
        let scenarios = std::iter::once(FailureMask::for_graph(graph)).chain(
            singles
                .iter()
                .step_by(coverage.scenarios)
                .map(|s| s.mask(graph)),
        );
        for mask in scenarios {
            let what = format!("{} under {mask:?}", ec.prefix);
            for rot in 0..8 {
                let order = rotated_order(graph.node_count(), rot);
                let got = solve_with_order_masked_stats(
                    &fast,
                    &order,
                    SolverOptions::default(),
                    Some(&mask),
                )
                .map(|(s, stats)| (s, stats.updates));
                assert_eq!(
                    got,
                    cold(&oracle, &order, Some(&mask)),
                    "cold {rot}: {what}"
                );
            }
            if let Some(base) = &base {
                let got = solve_seeded_masked(
                    &fast,
                    base.labels.clone(),
                    SolverOptions::default(),
                    Some(&mask),
                )
                .map(|(s, stats)| (s, stats.updates));
                let expected = seeded(&oracle, base.labels.clone(), Some(&mask));
                assert_eq!(got, expected, "seeded: {what}");

                let before = bonsai::obs::value("srp.label_updates");
                let got =
                    solve_warm_masked(&fast, base, SolverOptions::default(), &mask).map(|s| {
                        let updates = bonsai::obs::value("srp.label_updates") - before;
                        (s, updates as usize)
                    });
                assert_eq!(got, warm(&oracle, base, &mask), "warm: {what}");
            }
            compared += 1;
        }
    }
    compared
}

#[test]
fn the_seeded_policy_networks() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    for net in seeded_networks() {
        assert!(check_network(&net, ALL) > 0);
    }
}

#[test]
fn the_paper_gadgets() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    for net in [papernets::figure2_gadget(), papernets::figure5_bgp()] {
        assert!(check_network(&net, ALL) > 0);
    }
}

/// The `sweep_derive` network: two of its 18 classes (one policy
/// fingerprint for all 18), every scenario.
#[test]
fn fattree6_prefer_bottom() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    let coverage = Coverage {
        classes: 9,
        scenarios: 1,
    };
    let net = fattree(6, FattreePolicy::PreferBottom);
    assert_eq!(check_network(&net, coverage), 2 * (1 + 108));
}

/// `gen:datacenter` (197 routers, 1296 classes): every map matches prefix
/// lists only, so every plan is constant. One class, every 128th scenario
/// — a debug build pays ≈ 1 s per scenario here; [`the_datacenter_in_full`]
/// is the whole `k ≤ 1` plane of three classes.
#[test]
fn the_datacenter() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    let coverage = Coverage {
        classes: 1296,
        scenarios: 128,
    };
    assert_eq!(
        check_network(&datacenter(Default::default()), coverage),
        1 + 7
    );
}

/// Every `k ≤ 1` scenario of three datacenter classes: ≈ 45 s in a release
/// build (`cargo test --release --test srp_reference -- --ignored`).
#[test]
#[ignore]
fn the_datacenter_in_full() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    let coverage = Coverage {
        classes: 433,
        scenarios: 1,
    };
    assert_eq!(
        check_network(&datacenter(Default::default()), coverage),
        3 * 773
    );
}

/// One hand-written map per boundary of the specialization, on a network
/// originating two prefixes — `ONE` matches 10.0.0.0/24 only — so that a
/// map is constant for one class and interpreted for the other:
///
/// * `a`'s import `COMM_FIRST`: a community clause before a prefix-list
///   clause (interpreted for both classes);
/// * `b`'s import `PREFIX_FIRST`: a prefix-list clause that adds a
///   community before a community clause (constant for 10.0.0.0/24,
///   interpreted for 10.1.0.0/24);
/// * `c`'s import from `a`, `GONE`: a dangling map (constant deny);
/// * `c`'s export `NO_LIST`: a clause on a dangling prefix list, then one
///   that deletes a community (constant, with the deletion);
/// * `d`'s export to `a`, `TAG`: an unconditional community add.
fn boundary_maps() -> NetworkConfig {
    parse_network(
        "
device d
interface to_a
interface to_b
route-map TAG permit 10
 set community 7:7 additive
router bgp 1
 network 10.0.0.0/24
 network 10.1.0.0/24
 neighbor to_a remote-as external
 neighbor to_a route-map TAG out
 neighbor to_b remote-as external
end
device a
interface to_d
interface to_b
interface to_c
ip community-list TAGGED permit 7:7
ip prefix-list ONE seq 5 permit 10.0.0.0/24
route-map COMM_FIRST permit 10
 match community TAGGED
 set local-preference 200
route-map COMM_FIRST permit 20
 match ip address prefix-list ONE
router bgp 2
 neighbor to_d remote-as external
 neighbor to_d route-map COMM_FIRST in
 neighbor to_b remote-as external
 neighbor to_c remote-as external
end
device b
interface to_d
interface to_a
interface to_c
ip community-list TAGGED permit 7:7
ip prefix-list ONE seq 5 permit 10.0.0.0/24
route-map PREFIX_FIRST permit 10
 match ip address prefix-list ONE
 set community 8:8 additive
 set local-preference 150
route-map PREFIX_FIRST permit 20
 match community TAGGED
 set local-preference 300
route-map PREFIX_FIRST deny 30
router bgp 3
 neighbor to_d remote-as external
 neighbor to_a remote-as external
 neighbor to_a route-map PREFIX_FIRST in
 neighbor to_c remote-as external
end
device c
interface to_a
interface to_b
route-map NO_LIST permit 10
 match ip address prefix-list MISSING
 set local-preference 50
route-map NO_LIST permit 20
 set community-delete 7:7
router bgp 4
 neighbor to_a remote-as external
 neighbor to_a route-map GONE in
 neighbor to_b remote-as external
 neighbor to_b route-map NO_LIST out
end
link d to_a a to_d
link d to_b b to_d
link a to_b b to_a
link a to_c c to_a
link b to_c c to_b
",
    )
    .expect("the boundary network parses")
}

#[test]
fn the_boundary_maps() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    let net = boundary_maps();
    let c = &net.devices[3];
    assert!(c.route_map("GONE").is_none() && c.prefix_list("MISSING").is_none());
    assert_eq!(check_network(&net, ALL), 2 * (1 + 5));
}

/// The offers `MultiProtocol` makes up rather than lends: OSPF
/// redistributed into BGP at `y`, a static route redistributed into BGP at
/// `w`, beside the lent BGP attribute between them.
#[test]
fn the_redistribution_paths() {
    let _solver = SOLVER.lock().unwrap_or_else(|p| p.into_inner());
    let net = parse_network(
        "
device x
interface i
 ip ospf area 0
router ospf
 network 10.0.0.0/24
end
device y
interface i
 ip ospf area 0
interface j
router ospf
router bgp 2
 neighbor j remote-as external
 redistribute ospf
end
device z
interface j
interface k
router bgp 3
 neighbor j remote-as external
 neighbor k remote-as external
end
device w
interface k
interface s
router bgp 4
 neighbor k remote-as external
 redistribute static
ip route 10.0.0.0/24 s
end
device v
interface s
end
link x i y i
link y j z j
link z k w k
link w s v s
",
    )
    .expect("the redistribution network parses");
    assert_eq!(check_network(&net, ALL), 1 + 4);
}
