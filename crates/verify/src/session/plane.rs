//! The per-class query plane, where `Session::assemble` takes it from,
//! and the per-class hoist a plane that is not carried over is built
//! against — including the one replay of a recorded refinement.

use super::codec::RefinementRecord;
use super::{in_snapshot, resolve_scenario, Refinements, SessionError};
use crate::sweep::{canonical_abstract_solution, ScenarioRefinement};
use bonsai_config::BuiltTopology;
use bonsai_core::algorithm::refine_with_split;
use bonsai_core::compress::EcCompression;
use bonsai_core::scenarios::{FailureScenario, LinkOrbits};
use bonsai_core::signatures::SigTable;
use bonsai_srp::instance::{EcDest, RibAttr};
use bonsai_srp::Solution;
use std::sync::Arc;

/// Per-class query state. Immutable once built, so a reload shares an
/// untouched class's plane with the session it came from.
pub(super) struct QueryPlane {
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

/// What every refinement of one class is resolved against, hoisted once
/// per class that is not carried over whole: the signature table and the
/// link orbits of the class's base abstraction.
pub(super) struct ClassHoist<'a> {
    pub(super) topo: &'a BuiltTopology,
    pub(super) comp: &'a EcCompression,
    pub(super) ec_dest: EcDest,
    pub(super) sigs: Arc<SigTable>,
    pub(super) orbits: LinkOrbits,
}

impl ClassHoist<'_> {
    /// Rebuilds a recorded refinement: the split goes back through
    /// Algorithm 1 against the class's base — no verification, and the
    /// abstract network and its canonical solution wait for the first
    /// query that touches the refinement.
    pub(super) fn replay(
        &self,
        record: RefinementRecord<String>,
    ) -> Result<ScenarioRefinement, SessionError> {
        let graph = &self.topo.graph;
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
        let base = &self.comp.abstraction;
        let abstraction = if split.is_empty() {
            base.clone()
        } else {
            refine_with_split(graph, &self.ec_dest, &self.sigs, base, &split)
        };
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

    pub(super) fn into_plane(self, refinements: Refinements) -> Arc<QueryPlane> {
        let base_solution = canonical_abstract_solution(
            &self.comp.abstraction,
            &self.comp.abstract_network,
            &FailureScenario::new(vec![]),
        );
        Arc::new(QueryPlane {
            orbits: self.orbits,
            refinements,
            base_solution,
        })
    }
}
