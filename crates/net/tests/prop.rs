//! Property-based tests for the bonsai-net substrate.

use bonsai_net::prefix::{Ipv4Addr, Prefix};
use bonsai_net::{Graph, GraphBuilder, Partition, PrefixTrie};
use proptest::prelude::*;

/// A graph over `n` nodes with the directed edges `pairs` name (modulo
/// `n`, self loops and repeats skipped) — one- and two-directional links
/// both arise.
fn random_graph(n: usize, pairs: Vec<(u32, u32)>) -> Graph {
    let mut gb = GraphBuilder::new();
    let nodes = gb.add_nodes("r", n);
    for (a, b) in pairs {
        let u = nodes[(a % n as u32) as usize];
        let v = nodes[(b % n as u32) as usize];
        if u != v && !gb.has_edge(u, v) {
            gb.add_edge(u, v);
        }
    }
    gb.build()
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(Ipv4Addr(addr), len))
}

proptest! {
    /// Prefix parsing round-trips through Display.
    #[test]
    fn prefix_display_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// first()..=last() is exactly the set of contained addresses, sampled.
    #[test]
    fn prefix_range_agrees_with_contains(p in arb_prefix(), probe in any::<u32>()) {
        let a = Ipv4Addr(probe);
        let in_range = p.first().0 <= probe && probe <= p.last().0;
        prop_assert_eq!(p.contains_addr(a), in_range);
    }

    /// Containment is a partial order consistent with range inclusion.
    #[test]
    fn prefix_containment_is_range_inclusion(a in arb_prefix(), b in arb_prefix()) {
        let by_range = a.first().0 <= b.first().0 && b.last().0 <= a.last().0;
        prop_assert_eq!(a.contains(b), by_range);
        if a.contains(b) && b.contains(a) {
            prop_assert_eq!(a, b);
        }
    }

    /// Children of a prefix tile it exactly.
    #[test]
    fn prefix_children_tile(p in arb_prefix()) {
        if let Some((lo, hi)) = p.children() {
            prop_assert_eq!(lo.first(), p.first());
            prop_assert_eq!(hi.last(), p.last());
            prop_assert_eq!(lo.last().0.wrapping_add(1), hi.first().0);
            prop_assert!(p.contains(lo) && p.contains(hi));
            prop_assert!(!lo.overlaps(hi));
        } else {
            prop_assert_eq!(p.len(), 32);
        }
    }

    /// Trie atoms form a partition: disjoint, complete, and the covering
    /// sets agree with plain containment checks.
    #[test]
    fn trie_atoms_partition(prefixes in prop::collection::vec(arb_prefix(), 0..12)) {
        let mut trie = PrefixTrie::new();
        for &p in &prefixes {
            trie.insert(p, ());
        }
        let atoms = trie.atoms();
        let mut total: u64 = 0;
        for atom in &atoms {
            total += (atom.prefix.last().0 as u64 - atom.prefix.first().0 as u64) + 1;
            for (i, &p) in prefixes.iter().enumerate() {
                prop_assert_eq!(atom.covering.contains(&i), p.contains(atom.prefix));
            }
        }
        prop_assert_eq!(total, 1u64 << 32);
    }

    /// longest_match returns the most specific covering prefix.
    #[test]
    fn trie_longest_match(prefixes in prop::collection::vec(arb_prefix(), 1..12), probe in any::<u32>()) {
        let mut trie = PrefixTrie::new();
        for &p in &prefixes {
            trie.insert(p, ());
        }
        let addr = Ipv4Addr(probe);
        let expect = prefixes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains_addr(addr))
            .max_by_key(|(i, p)| (p.len(), *i))
            .map(|(i, _)| i);
        let got = trie.longest_match(addr);
        match (expect, got) {
            (None, None) => {}
            (Some(e), Some(g)) => {
                let (pe, _) = trie.entry(e);
                let (pg, _) = trie.entry(g);
                prop_assert_eq!(pe.len(), pg.len());
                prop_assert!(pg.contains_addr(addr));
            }
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    /// Splitting preserves the partition invariants: every element in
    /// exactly one block, blocks sorted, same_block consistent.
    #[test]
    fn partition_split_invariants(
        n in 1usize..40,
        subsets in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 0..8),
    ) {
        let mut p = Partition::coarsest(n);
        for subset in subsets {
            let subset: Vec<u32> = subset.into_iter().map(|x| x % n as u32).collect();
            p.split(&subset);
        }
        let mut seen = vec![false; n];
        for b in p.blocks() {
            let m = p.members(b);
            prop_assert!(!m.is_empty());
            prop_assert!(m.windows(2).all(|w| w[0] < w[1]));
            for &x in m {
                prop_assert!(!seen[x as usize]);
                seen[x as usize] = true;
                prop_assert_eq!(p.block_of(x), b);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Refining by key separates exactly the distinct keys.
    #[test]
    fn partition_refine_by_key(n in 2usize..40, modulus in 1u32..6) {
        let mut p = Partition::coarsest(n);
        let b = p.block_of(0);
        p.refine_block_by_key(b, |x| x % modulus);
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                prop_assert_eq!(p.same_block(x, y), x % modulus == y % modulus);
            }
        }
    }

    /// A graph built from random links reports consistent adjacency.
    #[test]
    fn graph_adjacency_consistent(n in 2usize..20, pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60)) {
        let g = random_graph(n, pairs);
        let out_sum: usize = g.nodes().map(|u| g.out(u).len()).sum();
        let in_sum: usize = g.nodes().map(|u| g.inn(u).len()).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            prop_assert!(g.has_edge(u, v));
            prop_assert_eq!(g.find_edge(u, v), Some(e));
        }
    }

    /// One orientation rule: `links()` is the de-duplicated
    /// `canonical_link` of every directed edge (listed at its canonical
    /// edge's position), and the rule does not care which way round a link
    /// is named.
    #[test]
    fn canonical_link_agrees_with_links(n in 2usize..20, pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60)) {
        let g = random_graph(n, pairs);
        let mut from_edges = std::collections::BTreeSet::new();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            let link = g.canonical_link(u, v);
            prop_assert!(link == Some((u, v)) || link == Some((v, u)));
            prop_assert_eq!(link, g.canonical_link(v, u));
            from_edges.insert(link.unwrap());
        }
        let links = g.links();
        prop_assert_eq!(links.len(), from_edges.len(), "links() lists no link twice");
        prop_assert_eq!(from_edges, links.into_iter().collect());
        for u in g.nodes() {
            for v in g.nodes() {
                if !g.has_edge(u, v) && !g.has_edge(v, u) {
                    prop_assert_eq!(g.canonical_link(u, v), None);
                }
            }
        }
    }
}
