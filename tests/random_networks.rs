//! The flagship soundness property test: compression of *random* networks
//! is CP-equivalent.
//!
//! Networks are generated with random connected topologies and random
//! per-device policies drawn from a pool (community tagging, local
//! preference bumps, filters) — deliberately un-symmetric, so compression
//! often achieves little; what matters is that whatever abstraction comes
//! out is *correct*: each concrete stable solution, under several
//! activation orders, transports onto a stable abstract solution with the
//! same behaviors.

mod common;
#[path = "common/random_nets.rs"]
mod random_nets;

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai::verify::netsweep::{sweep_network, NetworkSweepOptions};
use bonsai::verify::sweep::SweepOptions;
use bonsai_config::BuiltTopology;
use proptest::prelude::*;
use random_nets::{arb_spec, build, seeded_spec, Lcg};

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
                ec.abstract_network(&net, &topo),
                6,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No network of the seeded generator is refused: beyond the sixteen
    /// networks the answer oracle pins, 64 further seeds sweep every class
    /// at `k <= 2`. A check validates each concrete sample's transported
    /// labelling instead of searching abstract activation orders, so on
    /// the discrete partition it always verifies and no derivation runs
    /// out of splits.
    #[test]
    fn no_seeded_network_is_refused(seed in any::<u64>()) {
        let net = build(&seeded_spec(&mut Lcg(seed)));
        let topo = BuiltTopology::build(&net).unwrap();
        let report = compress(&net, CompressOptions { threads: 1, ..Default::default() });
        let options = NetworkSweepOptions {
            sweep: SweepOptions {
                max_failures: 2,
                threads: 1,
                ..Default::default()
            },
            collect_outcomes: false,
            ..Default::default()
        };
        let swept = sweep_network(&net, &topo, &report, &options);
        prop_assert!(swept.is_ok(), "seed {seed:#x}: {}", swept.unwrap_err());
    }
}
