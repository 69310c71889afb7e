//! The failure plane's hit path trusts `SignatureInterner` instead of
//! canonicalizing every item: these tests hold it to its reference,
//! `LinkOrbits::signature_of`, on every stream item of the fixed
//! topologies (the random ones live in `tests/random_networks.rs`), and
//! pin the one case a raw key must *not* be trusted for.

mod common;

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::core::scenarios::{FailureScenario, SignatureInterner};
use bonsai_config::{BuiltTopology, NetworkConfig};
use common::{assert_interner_matches_signature_of, class_orbits};

fn check_every_class(net: &NetworkConfig, k: usize) {
    let topo = BuiltTopology::build(net).unwrap();
    let report = compress(net, CompressOptions::default());
    for orbits in class_orbits(net, &topo, &report) {
        let interner = assert_interner_matches_signature_of(&topo.graph, &orbits, k);
        // Everything here canonicalizes, so every signature was reached
        // through (at least) one memoized raw key.
        assert!(interner.raw_keys() >= interner.len());
    }
}

#[test]
fn interner_ids_are_exactly_signature_of_on_the_fixed_topologies() {
    check_every_class(&bonsai::srp::papernets::figure2_gadget(), 3);
    check_every_class(
        &bonsai::topo::fattree(4, bonsai::topo::FattreePolicy::ShortestPath),
        2,
    );
    check_every_class(&bonsai::topo::full_mesh(10), 2);
}

/// Four disjoint links among mesh-10's nine same-block nodes have eight
/// interchangeable endpoints: 8! orderings trip the pattern's permutation
/// budget, and the fallback signature embeds raw node ids — which the raw
/// key (blocks, orbits, distances) does not determine. Such signatures are
/// interned by full signature only.
#[test]
fn over_budget_patterns_are_never_trusted_to_a_raw_key() {
    let net = bonsai::topo::full_mesh(10);
    let topo = BuiltTopology::build(&net).unwrap();
    let report = compress(&net, CompressOptions::default());
    let orbits = &class_orbits(&net, &topo, &report)[0];

    // Link indices whose endpoints both lie in the nine-member block, and
    // a greedy pick of four pairwise disjoint ones.
    let base = &report.per_ec[0].abstraction;
    let in_big_block = |n| base.partition.members(base.role_of(n)).len() == 9;
    let same_block: Vec<usize> = (0..orbits.links.len())
        .filter(|&i| in_big_block(orbits.links[i].0) && in_big_block(orbits.links[i].1))
        .collect();
    let disjoint_from = |skip: usize| -> Vec<usize> {
        let mut used = std::collections::BTreeSet::new();
        let mut picked = Vec::new();
        for &i in &same_block[skip..] {
            let (u, v) = orbits.links[i];
            if picked.len() < 4 && !used.contains(&u) && !used.contains(&v) {
                used.extend([u, v]);
                picked.push(i);
            }
        }
        assert_eq!(
            picked.len(),
            4,
            "mesh-10 has four disjoint same-block links"
        );
        picked
    };
    let (first, second) = (disjoint_from(0), disjoint_from(1));
    assert_ne!(first, second);

    let mut interner = SignatureInterner::new(orbits);
    let scenario_of = |indices: &[usize]| {
        FailureScenario::new(indices.iter().map(|&i| orbits.links[i]).collect())
    };
    let id_first = interner.id_of(&first);
    let expected = orbits.signature_of(&scenario_of(&first)).unwrap();
    assert!(!expected.pattern.canonical, "8! exceeds the budget");
    assert_eq!(*interner.signature(id_first), expected);
    // Same blocks, orbits and distances — the same raw key — but other
    // node pairs: a different signature, a different id, nothing memoized.
    let id_second = interner.id_of(&second);
    assert_ne!(id_first, id_second);
    assert_eq!(
        *interner.signature(id_second),
        orbits.signature_of(&scenario_of(&second)).unwrap()
    );
    assert_eq!(
        interner.id_of(&first),
        id_first,
        "interned by full signature"
    );
    assert_eq!((interner.len(), interner.raw_keys()), (2, 0));
}
