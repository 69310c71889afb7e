//! Name-based failure-scenario helpers.
//!
//! The scenario engine in `bonsai-core` speaks [`NodeId`]s and
//! [`EdgeId`](bonsai_net::EdgeId)s; tests, examples and operators speak
//! device names. These helpers translate: build a [`FailureMask`] from
//! `("device_a", "device_b")` pairs, or list a built topology's links by
//! name to pick scenarios from.

use bonsai_config::BuiltTopology;
use bonsai_net::{FailureMask, NodeId};

/// The undirected links of a built topology as name pairs, in canonical
/// order (the same order as [`bonsai_net::Graph::links`]).
pub fn named_links(topo: &BuiltTopology) -> Vec<(String, String)> {
    topo.graph
        .links()
        .into_iter()
        .map(|(u, v)| {
            (
                topo.graph.name(u).to_string(),
                topo.graph.name(v).to_string(),
            )
        })
        .collect()
}

/// Resolves a device-name pair to the canonical node pair of the link
/// between them ([`bonsai_net::Graph::canonical_link`]), or `None` if
/// either name is unknown or the devices are not adjacent.
pub fn link_by_names(topo: &BuiltTopology, a: &str, b: &str) -> Option<(NodeId, NodeId)> {
    let u = topo.graph.node_by_name(a)?;
    let v = topo.graph.node_by_name(b)?;
    topo.graph.canonical_link(u, v)
}

/// Builds a failure mask disabling the named links (both directions each).
///
/// # Panics
///
/// Panics if a pair names an unknown device or a non-adjacent pair —
/// failing to fail the link you asked for must not silently audit a
/// different scenario.
pub fn fail_links_by_name(topo: &BuiltTopology, pairs: &[(&str, &str)]) -> FailureMask {
    let mut mask = FailureMask::for_graph(&topo.graph);
    for &(a, b) in pairs {
        let (u, v) = link_by_names(topo, a, b)
            .unwrap_or_else(|| panic!("no link {a} — {b} in the topology"));
        mask.disable_link(&topo.graph, u, v);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fattree, FattreePolicy};

    #[test]
    fn named_links_roundtrip() {
        let net = fattree(4, FattreePolicy::ShortestPath);
        let topo = BuiltTopology::build(&net).unwrap();
        let links = named_links(&topo);
        assert_eq!(links.len(), topo.graph.link_count());
        for ((a, b), &link) in links.iter().zip(&topo.graph.links()) {
            // Either way round resolves to the pair `links()` lists.
            assert_eq!(link_by_names(&topo, a, b), Some(link));
            assert_eq!(link_by_names(&topo, b, a), Some(link));
        }
    }

    #[test]
    fn mask_from_names_disables_both_directions() {
        let net = fattree(4, FattreePolicy::ShortestPath);
        let topo = BuiltTopology::build(&net).unwrap();
        let (a, b) = named_links(&topo)[0].clone();
        let mask = fail_links_by_name(&topo, &[(&a, &b)]);
        assert_eq!(mask.disabled_count(), 2);
    }

    #[test]
    fn unknown_pair_is_none() {
        let net = fattree(4, FattreePolicy::ShortestPath);
        let topo = BuiltTopology::build(&net).unwrap();
        assert!(link_by_names(&topo, "nope", "nada").is_none());
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn failing_a_missing_link_panics() {
        let net = fattree(4, FattreePolicy::ShortestPath);
        let topo = BuiltTopology::build(&net).unwrap();
        fail_links_by_name(&topo, &[("nope", "nada")]);
    }
}
