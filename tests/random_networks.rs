//! The flagship soundness property test: compression of *random* networks
//! is CP-equivalent.
//!
//! Networks are generated with random connected topologies and random
//! per-device policies drawn from a pool (community tagging, local
//! preference bumps, filters) — deliberately un-symmetric, so compression
//! often achieves little; what matters is that whatever abstraction comes
//! out is *correct*: stable solutions correspond, under several activation
//! orders on both sides.

mod common;
#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai_config::BuiltTopology;
use proptest::prelude::*;
use random_nets::{arb_spec, build};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_compress_soundly(spec in arb_spec()) {
        let net = build(&spec);
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions { threads: 1, ..Default::default() });
        for ec in &report.per_ec {
            // Solutions must exist and match across the abstraction.
            let result = check_cp_equivalence(
                &net,
                &topo,
                &ec.ec.to_ec_dest(),
                &ec.abstraction,
                &ec.abstract_network,
                6,
                24,
                Some(&report.policies),
            );
            prop_assert!(
                result.is_ok(),
                "CP-equivalence failed for class {} of {:?}: {}",
                ec.ec.rep,
                spec,
                result.unwrap_err()
            );
            // The abstraction never grows the network.
            prop_assert!(
                ec.abstraction.abstract_node_count() <= topo.graph.node_count()
            );
        }
    }

    /// On asymmetric networks orbits are small and signatures many: the
    /// raw-key interner of the failure plane must still agree with
    /// `signature_of` on every `≤ 2`-failure item of every class.
    #[test]
    fn interner_ids_are_exactly_signature_of_on_random_networks(spec in arb_spec()) {
        let net = build(&spec);
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions { threads: 1, ..Default::default() });
        for orbits in common::class_orbits(&net, &topo, &report) {
            common::assert_interner_matches_signature_of(&topo.graph, &orbits, 2);
        }
    }
}
