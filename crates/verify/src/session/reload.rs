//! [`Session::reload`]: the warm path from a resident session to the
//! session of an edited configuration.

use super::{
    build_error, build_topo, lock, network_fingerprint, sweep_options, Memos, PlaneSource, Session,
    SessionError, SweepSummary,
};
use crate::netsweep::sweep_with_distances;
use bonsai_config::NetworkConfig;
use bonsai_core::compress::recompress_delta;
use bonsai_core::engine::DeltaInvalidation;
use bonsai_core::scenarios::NodeDistances;
use bonsai_net::NodeId;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What one [`Session::reload`] did: how much of the resident state
/// survived the delta, and what had to be redone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Destination classes the new session serves.
    pub classes: usize,
    /// Classes whose abstraction was re-derived and re-swept.
    pub rederived: usize,
    /// Classes that kept their abstraction and their query plane (table
    /// proven semantically equal across the delta).
    pub reused: usize,
    /// Classes whose engine fingerprint changed across the delta.
    pub fingerprints_moved: usize,
    /// Refinements carried over with kept classes (nothing re-derived or
    /// re-solved; the name is the wire field's).
    pub refinements_replayed: usize,
    /// Verdict-memo entries remapped onto the new session.
    pub verdicts_kept: usize,
    /// Verdict-memo entries invalidated by the delta.
    pub verdicts_dropped: usize,
    /// Path-memo entries carried over.
    pub paths_kept: usize,
    /// Path-memo entries invalidated by the delta.
    pub paths_dropped: usize,
    /// True when the delta was structural and the session was rebuilt
    /// cold (all memos dropped).
    pub full_rebuild: bool,
    /// Why the rebuild was structural (`None` on the incremental path).
    pub structural: Option<String>,
    /// Devices whose configuration changed, by name.
    pub changed_devices: Vec<String>,
    /// What the engine evicted (zeroed on a full rebuild).
    pub invalidation: DeltaInvalidation,
}

impl Session {
    /// Warm-reloads the session onto an edited configuration — the
    /// incremental counterpart of a cold [`Session::builder`] build.
    ///
    /// The difference between the resident network and `new_network` is
    /// classified and absorbed by
    /// [`recompress_delta`]:
    /// only destination classes whose signature table actually changed
    /// are re-swept (through [`crate::netsweep::sweep_network_subset`], sharing
    /// refinements among themselves exactly as a full sweep would), while
    /// every untouched class keeps its abstraction and **carries its
    /// query plane over as it is** — orbit index, refinements and their
    /// canonical solutions are shared with the resident session, nothing
    /// is re-derived or re-solved (an equal signature table over the same
    /// graph and abstraction determines all three). Memoized answers
    /// survive for untouched classes: verdicts are
    /// remapped to the class's new index, and path answers are kept
    /// unless any class they mention (or the destination's origin set)
    /// was re-derived. A structural delta (device set, links, BGP session
    /// shape, …) is the same path with nothing kept: every class is
    /// compressed on a fresh engine and re-swept, all memos dropped.
    ///
    /// The resident session is left untouched — the caller (the daemon's
    /// `reload` op) swaps the returned session in atomically. The
    /// returned [`ReloadOutcome`] is the audit trail of what moved;
    /// [`Session::state_digest`] of the result is byte-identical to a
    /// fresh build's.
    pub fn reload(
        &self,
        new_network: NetworkConfig,
    ) -> Result<(Session, ReloadOutcome), SessionError> {
        // First, and fallibly: a configuration that parses but names an
        // interface or device it does not define is an error for the
        // client, not a panic inside the compression below.
        let topo = build_topo(&new_network)?;
        let dr = recompress_delta(
            &self.report,
            &self.network,
            &new_network,
            self.options.compress,
        );
        let k = self.summary.k;
        let report = dr.report;
        let mut outcome = ReloadOutcome {
            classes: report.per_ec.len(),
            rederived: dr.rederived.len(),
            reused: dr.reused,
            fingerprints_moved: dr.fingerprints_moved,
            full_rebuild: dr.full_rebuild,
            structural: dr.delta.structural,
            changed_devices: dr.delta.changed_devices,
            invalidation: dr.invalidation,
            ..Default::default()
        };
        // `kept_from[new index] = old index` for every class the delta
        // proved untouched: it keeps that class's plane. A structural
        // delta keeps none — `report` is then a fresh compression on a
        // fresh engine, so every class is swept and (device ids may have
        // moved) every memoized answer dropped.
        let kept_from = dr.kept_from;

        // One subset sweep over every re-derived class: the subset shares
        // refinements among itself exactly as the cold build's full sweep
        // would have.
        let options = sweep_options(&self.options, k);
        let distances = Arc::new(NodeDistances::of_graph(&topo.graph));
        let sweep = sweep_with_distances(
            &new_network,
            &topo,
            &report,
            &options,
            &dr.rederived,
            &distances,
        )
        .map_err(build_error)?;
        let mut summary = SweepSummary::of_sweep(&sweep);
        let mut swept = sweep.per_ec.into_iter();
        let planes = kept_from
            .iter()
            .map(|kept| match kept {
                Some(old) => PlaneSource::Kept(Arc::clone(&self.planes[*old])),
                None => {
                    let class = swept.next().expect("one sweep per re-derived class");
                    PlaneSource::Swept(class.report.refinements)
                }
            })
            .collect();

        // Answer migration. Verdicts are keyed by class index: remap kept
        // classes, drop the rest. A path entry survives only if every
        // class it mentions was kept and its destination's origin set
        // gained no re-derived class (those would add answer rows the
        // memo cannot know about).
        let mut memos = Memos::new(self.options.memo_cap_bytes);
        let new_index: HashMap<usize, usize> = kept_from
            .iter()
            .enumerate()
            .filter_map(|(new, old)| old.map(|old| (old, new)))
            .collect();
        for ((old_i, scenario), verdict) in lock(&self.verdicts).iter() {
            match new_index.get(old_i) {
                Some(&i) => {
                    memos
                        .verdicts
                        .insert((i, scenario.clone()), verdict.clone());
                    outcome.verdicts_kept += 1;
                }
                None => outcome.verdicts_dropped += 1,
            }
        }
        let mut kept_reps: BTreeSet<String> = BTreeSet::new();
        let mut dirty_dsts: BTreeSet<NodeId> = BTreeSet::new();
        for (comp, kept) in report.per_ec.iter().zip(&kept_from) {
            if kept.is_some() {
                kept_reps.insert(comp.ec.rep.to_string());
            } else {
                dirty_dsts.extend(comp.ec.origins.iter().map(|&(n, _)| n));
            }
        }
        for (key, answers) in lock(&self.paths).iter() {
            if !dr.full_rebuild
                && !dirty_dsts.contains(&key.1)
                && answers.iter().all(|a| kept_reps.contains(&a.prefix))
            {
                memos.paths.insert(key.clone(), answers.clone());
                outcome.paths_kept += 1;
            } else {
                outcome.paths_dropped += 1;
            }
        }

        summary.restored_answers = outcome.verdicts_kept + outcome.paths_kept;
        let fingerprint = network_fingerprint(&new_network);
        let session = Session::assemble(
            new_network,
            (topo, distances),
            fingerprint,
            report,
            self.options,
            planes,
            memos,
            summary,
        )?;
        outcome.refinements_replayed = session.summary.restored;
        Ok((session, outcome))
    }
}
