//! The per-class query plane — what `Session::assemble` hoists once for
//! a class that is not carried over whole — where it takes the plane's
//! refinements from, and the one replay of a recorded refinement.

use super::codec::RefinementRecord;
use super::{in_snapshot, resolve_scenario, Refinements, SessionError};
use crate::sweep::{canonical_abstract_solution, ClassBase, Known, ScenarioRefinement};
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::compress::{CompressionReport, EcCompression};
use bonsai_core::scenarios::{
    link_orbits_with_distances, FailureScenario, LinkOrbits, NodeDistances,
};
use bonsai_net::Graph;
use bonsai_srp::instance::RibAttr;
use bonsai_srp::Solution;
use std::sync::Arc;

/// Per-class query state. Immutable once built, so a reload shares an
/// untouched class's plane with the session it came from.
pub(super) struct QueryPlane {
    /// The class handle: what every refinement of the class — a recorded
    /// one replayed, a queried scenario's own — is built against.
    pub(super) class: Arc<ClassBase>,
    /// The class's link-orbit index (scenario → signature).
    pub(super) orbits: LinkOrbits,
    /// The sweep's verified refinements, by signature.
    pub(super) refinements: Refinements,
    /// Canonical failure-free solution of the base abstract network.
    pub(super) base_solution: Option<Solution<RibAttr>>,
}

/// Where `Session::assemble` takes one class's [`QueryPlane`] from.
pub(super) enum PlaneSource {
    /// A sweep of this network verified these refinements.
    Swept(Refinements),
    /// The resident session's plane, for a class whose signature table a
    /// delta proved equal: same graph, same abstraction and an equal
    /// table give the same orbits, the same refinement partitions and the
    /// same canonical solutions — the argument `recompress_delta` keeps
    /// the abstraction by.
    Kept(Arc<QueryPlane>),
    /// A snapshot recorded these refinements; their splits are held, their
    /// partitions built on first read.
    Recorded(Vec<RefinementRecord<String>>),
}

impl QueryPlane {
    /// Hoists one class of `report` over the session's `graph` (`topo`'s):
    /// its handle, link orbits and the base abstract network's canonical
    /// solution; no refinements yet.
    pub(super) fn hoist(
        network: &NetworkConfig,
        topo: &BuiltTopology,
        graph: &Arc<Graph>,
        report: &CompressionReport,
        comp: &EcCompression,
        distances: &Arc<NodeDistances>,
    ) -> QueryPlane {
        let (ec, base) = (comp.ec.to_ec_dest(), &comp.abstraction);
        let class = ClassBase::hoist(&report.policies, network, topo, graph, ec, base);
        let sigs = &class.sigs;
        let orbits = link_orbits_with_distances(&topo.graph, base, sigs, Arc::clone(distances));
        let failure_free = FailureScenario::new(vec![]);
        let base_solution =
            canonical_abstract_solution(network, topo, base, &class.layout, &failure_free)
                .map(|(solution, _)| solution);
        QueryPlane {
            class,
            orbits,
            refinements: Refinements::new(),
            base_solution,
        }
    }

    /// Rebuilds a recorded refinement from its split over the class's
    /// handle and holds it — no verification, no Algorithm 1: the
    /// partition, the abstract network and its canonical solution wait for
    /// the first query that reads them.
    pub(super) fn replay(&mut self, record: RefinementRecord<String>) -> Result<(), SessionError> {
        let graph = &self.class.graph;
        let representative = resolve_scenario(graph, &record.links).map_err(in_snapshot)?;
        let signature = self
            .orbits
            .signature_of(&representative)
            .ok_or_else(|| SessionError::Snapshot("snapshot scenario outside this graph".into()))?;
        let mut split = Vec::with_capacity(record.split.len());
        for name in &record.split {
            split.push(graph.node_by_name(name).ok_or_else(|| {
                SessionError::Snapshot(format!("snapshot split names unknown node {name}"))
            })?);
        }
        let refinement = ScenarioRefinement::new(
            Arc::clone(&self.class),
            signature.clone(),
            representative,
            split,
            Known::Split,
            record.localized_refuted,
            record.deviating_rounds,
            record.global_fallback,
            record.provenance,
        );
        self.refinements.insert(signature, refinement);
        Ok(())
    }
}
