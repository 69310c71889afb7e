//! [`Session::state_digest`]: the canonical rendering the equivalence
//! tests compare sessions by, and [`Session::refinements`], the held
//! refinements themselves.

use super::Session;
use crate::sweep::ScenarioRefinement;
use bonsai_core::abstraction::PolicySections;
use bonsai_net::NodeId;
use std::collections::HashMap;

impl Session {
    /// Every refinement the session holds, with the index of its class in
    /// the compression report — swept, carried over by a reload, or
    /// replayed from a snapshot (its partition built on first read).
    pub fn refinements(&self) -> impl Iterator<Item = (usize, &ScenarioRefinement)> {
        let planes = self.planes.iter().enumerate();
        planes.flat_map(|(i, plane)| plane.refinements.values().map(move |r| (i, r)))
    }

    /// A canonical, provenance-free rendering of the session's verified
    /// state: destination classes, abstractions, abstract configs,
    /// refinements, and the engine's sharing structure (policy
    /// fingerprints densely renumbered by first use, so equal sharing
    /// renders equally regardless of the engine's allocation history).
    ///
    /// Two sessions over the same network with the same options render
    /// **byte-identically** whether built cold, restored from a snapshot,
    /// or warm-reloaded through any chain of deltas, at any thread count
    /// — the delta-equivalence tests pin exactly this. Memoized answers,
    /// timings, and refinement provenance are excluded (they legitimately
    /// differ between a cold build and a warm reload).
    pub fn state_digest(&self) -> String {
        let graph = &self.topo.graph;
        let mut out = String::new();
        out.push_str("bonsai-session-state v1\n");
        out.push_str(&format!("k {}\n", self.summary.k));
        out.push_str(&format!(
            "prune_symmetric {}\n",
            self.options.prune_symmetric
        ));
        out.push_str(&format!("network {}\n", self.fingerprint));
        out.push_str(&format!("classes {}\n", self.planes.len()));
        let mut canon_fp: HashMap<u32, usize> = HashMap::new();
        let sections = PolicySections::new(&self.network);
        let mut config = String::new();
        for (i, plane) in self.planes.iter().enumerate() {
            let comp = &self.report.per_ec[i];
            let ec_dest = comp.ec.to_ec_dest();
            let fp = self
                .report
                .policies
                .ec_fingerprint(&self.network, &self.topo, &ec_dest);
            let next = canon_fp.len();
            let dense = *canon_fp.entry(fp.raw()).or_insert(next);
            out.push_str(&format!("class {} rep {} fp {}\n", i, comp.ec.rep, dense));
            let ranges: Vec<String> = comp.ec.ranges.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("  ranges {}\n", ranges.join(" ")));
            let origins: Vec<String> = comp
                .ec
                .origins
                .iter()
                .map(|&(n, p)| format!("{}:{:?}", graph.name(n), p))
                .collect();
            out.push_str(&format!("  origins {}\n", origins.join(" ")));
            let mut blocks: Vec<(Vec<&str>, u32)> = comp
                .abstraction
                .partition
                .blocks()
                .map(|b| {
                    let mut names: Vec<&str> = comp
                        .abstraction
                        .partition
                        .members(b)
                        .iter()
                        .map(|&x| graph.name(NodeId(x)))
                        .collect();
                    names.sort_unstable();
                    (names, comp.abstraction.copies[b.index()])
                })
                .collect();
            blocks.sort();
            for (names, copies) in &blocks {
                out.push_str(&format!(
                    "  block {{{}}} copies {}\n",
                    names.join(","),
                    copies
                ));
            }
            out.push_str("  abstract-config\n");
            config.clear();
            (comp.abstract_network).print_into(&mut config, &self.network, &self.topo, &sections);
            for line in config.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str(&format!("  refinements {}\n", plane.refinements.len()));
            for r in plane.refinements.values() {
                let links: Vec<String> = r
                    .representative
                    .links
                    .iter()
                    .map(|&(u, v)| format!("{}--{}", graph.name(u), graph.name(v)))
                    .collect();
                let split: Vec<&str> = r.split.iter().map(|&n| graph.name(n)).collect();
                out.push_str(&format!(
                    "  refine links [{}] split [{}] localized_refuted {} \
                     deviating_rounds {} global_fallback {}\n",
                    links.join(" "),
                    split.join(" "),
                    r.localized_refuted,
                    r.deviating_rounds,
                    r.global_fallback,
                ));
            }
        }
        out
    }
}
