//! The per-class query plane — what `Session::assemble` hoists once for
//! a class that is not carried over whole — where it takes the plane's
//! refinements from, and the one replay of a recorded refinement.

use super::codec::RefinementRecord;
use super::{in_snapshot, resolve_scenario, Refinements, SessionError};
use crate::sweep::{canonical_abstract_solution, split_partition, ClassBase, ScenarioRefinement};
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_core::algorithm::Abstraction;
use bonsai_core::compress::{CompressionReport, EcCompression};
use bonsai_core::scenarios::{
    link_orbits_with_distances, FailureScenario, LinkOrbits, NodeDistances,
};
use bonsai_core::signatures::{build_sig_table, SigTable};
use bonsai_net::Graph;
use bonsai_srp::instance::{EcDest, RibAttr};
use bonsai_srp::Solution;
use std::sync::Arc;

/// Per-class query state. Immutable once built, so a reload shares an
/// untouched class's plane with the session it came from.
pub(super) struct QueryPlane {
    /// The class, as the SRP instance names it.
    ec_dest: EcDest,
    /// The class's signature table: with `ec_dest` and the base
    /// abstraction, what every refinement of the class — a recorded one
    /// replayed, a queried scenario's own — is built against.
    sigs: Arc<SigTable>,
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
    /// A snapshot recorded these refinements; their splits are replayed.
    Recorded(Vec<RefinementRecord<String>>),
}

impl QueryPlane {
    /// Hoists one class of `report`: signature table, link orbits and the
    /// base abstract network's canonical solution; no refinements yet.
    pub(super) fn hoist(
        network: &NetworkConfig,
        topo: &BuiltTopology,
        report: &CompressionReport,
        comp: &EcCompression,
        distances: &Arc<NodeDistances>,
    ) -> QueryPlane {
        let ec_dest = comp.ec.to_ec_dest();
        let sigs = build_sig_table(&report.policies, network, topo, &ec_dest);
        let base = &comp.abstraction;
        let orbits = link_orbits_with_distances(&topo.graph, base, &sigs, Arc::clone(distances));
        let failure_free = FailureScenario::new(vec![]);
        let base_solution =
            canonical_abstract_solution(base, &comp.abstract_network, &failure_free)
                .map(|(solution, _)| solution);
        QueryPlane {
            ec_dest,
            sigs,
            orbits,
            refinements: Refinements::new(),
            base_solution,
        }
    }

    /// The class over its base abstraction `base` (the compression
    /// report's, which the session holds beside the plane).
    pub(super) fn class_base<'a>(&'a self, base: &'a Abstraction) -> ClassBase<'a> {
        ClassBase {
            ec: &self.ec_dest,
            sigs: &self.sigs,
            abstraction: base,
        }
    }

    /// Rebuilds a recorded refinement: the split goes back through
    /// Algorithm 1 against the class's base — no verification, and the
    /// abstract network and its canonical solution wait for the first
    /// query that touches the refinement.
    pub(super) fn replay(
        &self,
        graph: &Graph,
        base: &Abstraction,
        record: RefinementRecord<String>,
    ) -> Result<ScenarioRefinement, SessionError> {
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
        let abstraction = split_partition(graph, &self.ec_dest, &self.sigs, base, &split);
        Ok(ScenarioRefinement::new(
            signature,
            representative,
            split,
            abstraction,
            record.localized_refuted,
            record.deviating_rounds,
            record.global_fallback,
            record.provenance,
        ))
    }
}
