//! CP-equivalence across the generated network families: the central
//! soundness claim (Theorems 4.2/4.5), checked executably.
//!
//! For each network we compress every destination class (or a sample on
//! the larger ones), solve the concrete SRP under several activation
//! orders, and require each solution to transport onto a stable abstract
//! solution — label-equivalence modulo `h` plus block-level
//! fwd-equivalence.

use bonsai::core::compress::{compress, CompressOptions};
use bonsai::topo::{
    datacenter, fattree, full_mesh, ring, wan, DatacenterParams, FattreePolicy, WanParams,
};
use bonsai::verify::equivalence::check_cp_equivalence;
use bonsai_config::{BuiltTopology, NetworkConfig};

fn check(net: &NetworkConfig, options: CompressOptions, sample: usize) {
    let topo = BuiltTopology::build(net).unwrap();
    let report = compress(net, options);
    assert!(report.num_ecs() > 0);
    let step = (report.per_ec.len() / sample.max(1)).max(1);
    for ec in report.per_ec.iter().step_by(step) {
        check_cp_equivalence(
            net,
            &topo,
            &ec.ec.to_ec_dest(),
            &ec.abstraction,
            ec.abstract_network(net, &topo),
            4,
            Some(&report.policies),
        )
        .unwrap_or_else(|e| panic!("CP-equivalence failed for class {}: {e}", ec.ec.rep));
    }
}

#[test]
fn fattree_shortest_path() {
    check(
        &fattree(4, FattreePolicy::ShortestPath),
        CompressOptions::default(),
        8,
    );
}

#[test]
fn fattree_prefer_bottom_policy() {
    // The Figure 11 policy variant: aggregation routers have two possible
    // local preferences, so abstract nodes get split into copies — the
    // hardest case for the equivalence checker.
    check(
        &fattree(4, FattreePolicy::PreferBottom),
        CompressOptions::default(),
        4,
    );
}

#[test]
fn ring_paths_preserved() {
    check(&ring(12), CompressOptions::default(), 4);
}

#[test]
fn full_mesh_one_hop() {
    check(&full_mesh(8), CompressOptions::default(), 4);
}

#[test]
fn datacenter_with_tag_stripping() {
    let net = datacenter(DatacenterParams {
        clusters: 3,
        tors_per_cluster: 4,
        prefixes_per_tor: 2,
        ..Default::default()
    });
    check(
        &net,
        CompressOptions {
            strip_unused_communities: true,
            ..Default::default()
        },
        4,
    );
}

#[test]
fn wan_multi_protocol() {
    let net = wan(WanParams {
        pops: 3,
        access_per_pop: 5,
        prefixes_per_agg: 2,
        ..Default::default()
    });
    check(&net, CompressOptions::default(), 4);
}
