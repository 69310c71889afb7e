//! Helpers shared by integration tests (not a test target itself).

use bonsai::core::compress::CompressionReport;
use bonsai::core::scenarios::{
    link_orbits, LinkOrbits, OrbitSignature, ScenarioStream, SigId, SignatureInterner,
};
use bonsai::core::signatures::build_sig_table;
use bonsai_config::{BuiltTopology, NetworkConfig};
use bonsai_net::Graph;
use std::collections::BTreeMap;

/// The link orbits of every destination class of a compression run, as
/// the failure plane hoists them.
pub fn class_orbits(
    net: &NetworkConfig,
    topo: &BuiltTopology,
    report: &CompressionReport,
) -> Vec<LinkOrbits> {
    report
        .per_ec
        .iter()
        .map(|comp| {
            let sigs = build_sig_table(&report.policies, net, topo, &comp.ec.to_ec_dest());
            link_orbits(&topo.graph, &comp.abstraction, &sigs)
        })
        .collect()
}

/// Walks every item of the `≤ k` stream by link indices and checks the
/// interner against its reference: the id resolves to exactly
/// `signature_of` of the item, and two items share an id iff their
/// signatures are equal. Returns the interner for further probing.
pub fn assert_interner_matches_signature_of<'a>(
    graph: &Graph,
    orbits: &'a LinkOrbits,
    k: usize,
) -> SignatureInterner<'a> {
    let stream = ScenarioStream::new(graph, k);
    let mut interner = SignatureInterner::new(orbits);
    let mut id_of: BTreeMap<OrbitSignature, SigId> = BTreeMap::new();
    let mut item = stream.iter();
    while item.advance() {
        let scenario = item.scenario();
        let expected = orbits
            .signature_of(&scenario)
            .expect("stream and orbits share the graph");
        let id = interner.id_of(item.indices());
        // Ids resolve to their signature, so one id ⇒ equal signatures…
        assert_eq!(
            *interner.signature(id),
            expected,
            "{}",
            scenario.describe(graph)
        );
        // …and equal signatures ⇒ one id.
        assert_eq!(
            *id_of.entry(expected).or_insert(id),
            id,
            "{}",
            scenario.describe(graph)
        );
    }
    assert_eq!(interner.len(), id_of.len());
    interner
}
