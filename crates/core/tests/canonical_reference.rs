//! An independent reference for the canonical-representative search.
//!
//! `SignatureInterner::canonical_scenario` walks only the subsets of a
//! signature's member links whose per-orbit counts can still come out
//! right, and compares its leaves through the interner's raw-key memo.
//! This file keeps the search it replaced — every subset of the right size
//! in lexicographic link-index order, filtered by per-orbit counts and then
//! by the full `LinkOrbits::signature_of` — as a test-only oracle, and
//! checks that both return the same scenario for every signature of every
//! class swept here. Each class's walks share one memo, as a tallied
//! class's do.

#[path = "../../../tests/common/random_nets.rs"]
mod random_nets;

use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::compress::{compress, CompressOptions};
use bonsai_core::scenarios::{
    link_orbits, FailureScenario, LinkOrbits, OrbitSignature, ScenarioStream, SignatureInterner,
};
use bonsai_core::signatures::build_sig_table;
use bonsai_topo::{fattree, full_mesh, FattreePolicy};
use std::collections::BTreeMap;

/// The exhaustive search: the first `size`-subset of `0..n`, in
/// lexicographic order, that `visit` accepts (left in `chosen`).
fn search_combinations(
    n: usize,
    size: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if chosen.len() == size {
        return visit(chosen);
    }
    let remaining = size - chosen.len();
    for i in start..=n.saturating_sub(remaining) {
        chosen.push(i);
        if search_combinations(n, size, i + 1, chosen, visit) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// The oracle: the enumeration-first scenario with signature `sig`.
fn oracle_canonical_scenario(orbits: &LinkOrbits, sig: &OrbitSignature) -> FailureScenario {
    let mut member_links: Vec<usize> = sig
        .counts
        .iter()
        .flat_map(|&(orbit, _)| orbits.orbits[orbit as usize].iter().copied())
        .collect();
    member_links.sort_unstable();
    let total = sig.total_failures();
    let scenario_of = |c: &[usize]| {
        FailureScenario::new(c.iter().map(|&i| orbits.links[member_links[i]]).collect())
    };
    let mut chosen = Vec::new();
    let found = search_combinations(member_links.len(), total, 0, &mut chosen, &mut |c| {
        let candidate = scenario_of(c);
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for &link in &candidate.links {
            *counts.entry(orbits.orbit_of(link).unwrap()).or_insert(0) += 1;
        }
        counts.into_iter().eq(sig.counts.iter().copied())
            && orbits.signature_of(&candidate).as_ref() == Some(sig)
    });
    assert!(found, "no scenario realizes {sig:?}");
    scenario_of(&chosen)
}

/// Checks the walk against the oracle on every `≤ k` signature of the
/// first `classes` classes of `net`; returns the signatures checked.
fn check(label: &str, net: &NetworkConfig, k: usize, classes: usize) -> usize {
    let topo = BuiltTopology::build(net).unwrap();
    let report = compress(net, CompressOptions::default());
    let mut checked = 0;
    for comp in report.per_ec.iter().take(classes) {
        let ec = comp.ec.to_ec_dest();
        let sigs = build_sig_table(&report.policies, net, &topo, &ec);
        let orbits = link_orbits(&topo.graph, &comp.abstraction, &sigs);
        // Every signature of the class, in first-sight order.
        let mut items = SignatureInterner::new(&orbits);
        let mut signatures: Vec<OrbitSignature> = Vec::new();
        let stream = ScenarioStream::new(&topo.graph, k);
        let mut item = stream.iter();
        while item.advance() {
            let id = items.id_of(item.indices());
            if id.index() == signatures.len() {
                signatures.push(items.signature(id).clone());
            }
        }
        let mut memo = SignatureInterner::new(&orbits);
        for sig in &signatures {
            assert_eq!(
                memo.canonical_scenario(sig),
                oracle_canonical_scenario(&orbits, sig),
                "{label} class {}: {sig:?}",
                comp.ec.rep
            );
        }
        checked += signatures.len();
    }
    checked
}

#[test]
fn the_walk_finds_the_exhaustive_searchs_representative_on_fattrees() {
    let ft4 = fattree(4, FattreePolicy::ShortestPath);
    for k in 1..=3 {
        assert!(check("fattree-4", &ft4, k, usize::MAX) > 0);
    }
    // Every class of a fattree sees the same signatures; four classes give
    // four memo histories.
    let ft6 = fattree(6, FattreePolicy::ShortestPath);
    for k in 1..=3 {
        assert!(check("fattree-6", &ft6, k, 4) > 0);
    }
    let ft8 = fattree(8, FattreePolicy::ShortestPath);
    assert_eq!(check("fattree-8", &ft8, 1, 4), 4 * 5);
    assert_eq!(check("fattree-8", &ft8, 2, 4), 4 * 44);
}

#[test]
fn the_walk_finds_the_exhaustive_searchs_representative_on_mesh_and_seeded_networks() {
    assert!(check("mesh-10", &full_mesh(10), 3, usize::MAX) > 0);
    for (i, net) in random_nets::seeded_networks().iter().enumerate() {
        assert!(check(&format!("seeded #{i}"), net, 3, usize::MAX) > 0);
    }
}
