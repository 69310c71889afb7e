//! Cross-EC sharing is sound: compressing with one `CompiledPolicies`
//! shared across every destination class must yield exactly the
//! abstractions that per-class engine rebuilds produce.
//!
//! This is the load-bearing guarantee of the shared-engine refactor: the
//! caches are keyed by everything the compilation depends on (device,
//! map, prefix-list outcomes, symbolic inputs), so a cache hit can never
//! smuggle one class's specialization into another class — and the shared
//! arena's canonicity means signature equality is still semantic equality
//! no matter which class compiled a `Ref` first.

use bonsai_config::BuiltTopology;
use bonsai_core::compress::{compress, CompressOptions};
use bonsai_core::ecs::compute_ecs;
use bonsai_core::engine::CompiledPolicies;
use bonsai_core::signatures::build_sig_table;
use bonsai_core::{build_abstract_network, find_abstraction};
use bonsai_topo::{fattree, FattreePolicy};

/// Compresses `net` twice — once through the production shared-engine
/// driver, once rebuilding a fresh engine per EC — and asserts identical
/// abstractions, copies and materialized abstract networks.
fn assert_shared_matches_rebuilt(net: &bonsai_config::NetworkConfig, strip: bool) {
    let options = CompressOptions {
        strip_unused_communities: strip,
        threads: 1,
    };
    let shared = compress(net, options);

    let topo = BuiltTopology::build(net).unwrap();
    let ecs = compute_ecs(net, &topo);
    assert_eq!(shared.num_ecs(), ecs.len());

    for (result, ec) in shared.per_ec.iter().zip(ecs.iter()) {
        // Rebuild from scratch: a fresh arena per class, as the
        // pre-refactor pipeline did.
        let fresh = CompiledPolicies::from_network(net, strip);
        let ec_dest = ec.to_ec_dest();
        let sigs = build_sig_table(&fresh, net, &topo, &ec_dest);
        let abstraction = find_abstraction(&topo.graph, &ec_dest, &sigs);
        let abstract_network = build_abstract_network(net, &topo, &ec_dest, &abstraction);

        // Same partition into roles...
        let blocks_of = |a: &bonsai_core::Abstraction| -> Vec<Vec<u32>> {
            let mut bs: Vec<Vec<u32>> = a
                .partition
                .blocks()
                .map(|b| a.partition.members(b).to_vec())
                .collect();
            bs.sort();
            bs
        };
        assert_eq!(
            blocks_of(&result.abstraction),
            blocks_of(&abstraction),
            "partition mismatch for EC {}",
            ec.rep
        );
        // ...same BGP copy counts...
        assert_eq!(
            result.abstraction.abstract_node_count(),
            abstraction.abstract_node_count(),
            "copy-count mismatch for EC {}",
            ec.rep
        );
        // ...and the same materialized configurations, byte for byte.
        assert_eq!(
            result.abstract_network.render(net, &topo).network,
            abstract_network.network,
            "abstract network mismatch for EC {}",
            ec.rep
        );
        assert_eq!(result.abstract_network.ec, abstract_network.ec);
    }
}

#[test]
fn figure2_gadget_shared_equals_rebuilt() {
    let net = bonsai_srp::papernets::figure2_gadget();
    assert_shared_matches_rebuilt(&net, false);
}

#[test]
fn fattree_shared_equals_rebuilt() {
    let net = fattree(4, FattreePolicy::ShortestPath);
    assert_shared_matches_rebuilt(&net, false);
}

/// A multi-EC network whose route maps *match communities*, so compiled
/// signatures are non-constant BDD functions — the sharing guarantee must
/// hold for real `Ref`s, not just the constants the prefix-list-only
/// topologies produce.
fn community_policy_net() -> bonsai_config::NetworkConfig {
    bonsai_config::parse_network(
        "
device edge
interface i
ip community-list prio permit 7:1
ip community-list drop permit 9:9
route-map IN permit 10
 match community prio
 set local-preference 300
 set community 7:2 additive
route-map IN deny 20
 match community drop
route-map IN permit 30
router bgp 1
 network 10.0.1.0/24
 network 10.0.2.0/24
 network 10.0.3.0/24
 neighbor i remote-as external
 neighbor i route-map IN in
end
device core
interface i
route-map OUT permit 10
 set community 7:1 additive
router bgp 2
 network 10.1.0.0/24
 neighbor i remote-as external
 neighbor i route-map OUT out
end
link edge i core i
",
    )
    .unwrap()
}

#[test]
fn community_policies_shared_equals_rebuilt() {
    let net = community_policy_net();
    assert_shared_matches_rebuilt(&net, false);
    let report = compress(
        &net,
        CompressOptions {
            threads: 1,
            ..Default::default()
        },
    );
    assert!(report.num_ecs() > 1);
    // The community matches force real (non-constant) functions into the
    // shared arena, and later classes reuse them.
    assert!(
        report.engine.arena_nodes > 1,
        "community matching must allocate arena nodes: {:?}",
        report.engine
    );
    assert!(report.engine.reuse_observed());
}

#[test]
fn fattree_policy_shared_equals_rebuilt() {
    // PreferBottom's maps resolve through prefix lists, exercising the
    // destination-dependent (table-key) side of the cache tiers.
    let net = fattree(4, FattreePolicy::PreferBottom);
    assert_shared_matches_rebuilt(&net, false);
    let report = compress(
        &net,
        CompressOptions {
            threads: 1,
            ..Default::default()
        },
    );
    assert!(report.num_ecs() > 1);
    assert!(
        report.engine.table_hits > 0,
        "multi-EC fattree must reuse whole tables: {:?}",
        report.engine
    );
    assert!(report.engine.reuse_observed());
    // Stage compilations happened for the first class of each residue.
    assert!(report.engine.stage_lookups > 0);
}

#[test]
fn stripped_communities_shared_equals_rebuilt() {
    let net = fattree(4, FattreePolicy::PreferBottom);
    assert_shared_matches_rebuilt(&net, true);
}
