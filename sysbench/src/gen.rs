//! Seeded input generation: the configuration files the program under
//! test reads and the request lines its daemon is sent. The program sees
//! only these generated inputs, never the seed — and the seed never
//! changes how much work they hold: sizes, list lengths and mixes are
//! constants, the seed picks which requests and in what order.

use bonsai::config::{
    Action, Community, CommunityList, DeviceConfig, MatchCond, NetworkConfig, PrefixList,
    PrefixListEntry, RouteMap, RouteMapClause, SetAction,
};
use bonsai::topo::{datacenter, DatacenterParams};

/// SplitMix64: small, seedable, and identical on every platform, so a
/// seed names one request list for good.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct values from `0..n`, ascending.
    pub fn sample(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < count.min(n) {
            picked.insert(self.below(n));
        }
        picked.into_iter().collect()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn cluster_tag(cluster: usize, tier: u16) -> Community {
    Community::new(65000, 100 * tier + cluster as u16)
}

fn clause(
    seq: u32,
    action: Action,
    matches: Vec<MatchCond>,
    sets: Vec<SetAction>,
) -> RouteMapClause {
    RouteMapClause {
        seq,
        action,
        matches,
        sets,
    }
}

/// The policy-rich data center of `compress_policy`: `bonsai_topo`'s
/// Table 1(b) Clos (197 routers, 12 clusters, 1296 originated /24s, seeded
/// static-route and ACL noise) with its attached-but-never-matched cluster
/// tags turned into tags that are **set and matched**, and with spine
/// policy that depends on the destination's cluster:
///
/// * spines import through one clause per cluster (`prefix-list` of that
///   cluster's /16 ∧ `community-list` of that cluster's aggregation tag),
///   so a class resolves the spine maps by its cluster — 12 policy
///   fingerprints instead of 1, and the signature tier both hits and
///   misses;
/// * aggregation routers deny routes that already carry their own
///   cluster's aggregation tag (no valley back into the cluster) and
///   prefer routes tagged by a remote cluster, so the BDD arena composes
///   tag functions across hops instead of holding one node.
pub fn dc_policy(seed: u64) -> NetworkConfig {
    let params = DatacenterParams {
        seed,
        ..Default::default()
    };
    let mut net = datacenter(params);
    let clusters = params.clusters;
    let agg_tags: Vec<Community> = (0..clusters).map(|c| cluster_tag(c, 1)).collect();
    let tor_tags: Vec<Community> = (0..clusters).map(|c| cluster_tag(c, 2)).collect();
    let spine_tag = Community::new(65000, 900);
    let aggregate = || MatchCond::PrefixList("AGGREGATE".into());

    for dev in &mut net.devices {
        let name = dev.name.clone();
        if name.starts_with("spine") {
            let mut clauses = Vec::new();
            for c in 0..clusters {
                dev.prefix_lists.push(PrefixList {
                    name: format!("CLUSTER{c}"),
                    entries: vec![PrefixListEntry {
                        seq: 5,
                        action: Action::Permit,
                        prefix: format!("10.{}.0.0/16", 1 + c)
                            .parse()
                            .expect("valid prefix"),
                        ge: None,
                        le: Some(32),
                    }],
                });
                dev.community_lists.push(CommunityList {
                    name: format!("FROM_AGG{c}"),
                    communities: vec![agg_tags[c]],
                });
                dev.community_lists.push(CommunityList {
                    name: format!("FROM_TOR{c}"),
                    communities: vec![tor_tags[c]],
                });
                // The cluster's own prefixes arriving straight up from
                // the cluster: preferred and marked as spine-crossed.
                clauses.push(clause(
                    10 + 20 * c as u32,
                    Action::Permit,
                    vec![
                        MatchCond::PrefixList(format!("CLUSTER{c}")),
                        MatchCond::Community(format!("FROM_AGG{c}")),
                    ],
                    vec![
                        SetAction::LocalPref(120),
                        SetAction::AddCommunity(spine_tag),
                    ],
                ));
                // The cluster's prefixes arriving without its aggregation
                // tag took a detour; accept them at a lower preference.
                clauses.push(clause(
                    20 + 20 * c as u32,
                    Action::Permit,
                    vec![
                        MatchCond::PrefixList(format!("CLUSTER{c}")),
                        MatchCond::Community(format!("FROM_TOR{c}")),
                    ],
                    vec![SetAction::LocalPref(90), SetAction::AddCommunity(spine_tag)],
                ));
            }
            clauses.push(clause(
                1000,
                Action::Permit,
                vec![aggregate()],
                vec![SetAction::AddCommunity(spine_tag)],
            ));
            replace_import(dev, clauses);
        } else if let Some(c) = cluster_of(&name, "_agg") {
            dev.community_lists.push(CommunityList {
                name: "OWN".into(),
                communities: vec![agg_tags[c]],
            });
            dev.community_lists.push(CommunityList {
                name: "REMOTE".into(),
                communities: (0..clusters)
                    .filter(|&d| d != c)
                    .map(|d| agg_tags[d])
                    .collect(),
            });
            dev.community_lists.push(CommunityList {
                name: "SPINE".into(),
                communities: vec![spine_tag],
            });
            replace_import(
                dev,
                vec![
                    clause(
                        5,
                        Action::Deny,
                        vec![MatchCond::Community("OWN".into())],
                        vec![],
                    ),
                    clause(
                        8,
                        Action::Permit,
                        vec![
                            MatchCond::Community("REMOTE".into()),
                            MatchCond::Community("SPINE".into()),
                        ],
                        vec![
                            SetAction::LocalPref(150),
                            SetAction::AddCommunity(agg_tags[c]),
                        ],
                    ),
                    clause(
                        10,
                        Action::Permit,
                        vec![aggregate()],
                        vec![SetAction::AddCommunity(agg_tags[c])],
                    ),
                ],
            );
        } else if let Some(c) = cluster_of(&name, "_tor") {
            dev.community_lists.push(CommunityList {
                name: "OWN".into(),
                communities: vec![tor_tags[c]],
            });
            replace_import(
                dev,
                vec![
                    clause(
                        5,
                        Action::Deny,
                        vec![MatchCond::Community("OWN".into())],
                        vec![],
                    ),
                    clause(
                        10,
                        Action::Permit,
                        vec![aggregate()],
                        vec![SetAction::AddCommunity(tor_tags[c])],
                    ),
                ],
            );
        }
    }
    net
}

/// `c3_agg1` with infix `_agg` → `Some(3)`.
fn cluster_of(name: &str, infix: &str) -> Option<usize> {
    let (head, _) = name.split_once(infix)?;
    head.strip_prefix('c')?.parse().ok()
}

fn replace_import(dev: &mut DeviceConfig, clauses: Vec<RouteMapClause>) {
    dev.route_maps.retain(|m| m.name != "IMPORT");
    dev.route_maps.push(RouteMap {
        name: "IMPORT".into(),
        clauses,
    });
}

/// The `serve_cycle` edit (the same one `bench delta` studies): on
/// `edge0_0`, a new first import clause pinning local preference for the
/// device's own /24. Policy-content only, so exactly one of the 32
/// classes moves.
pub fn edit_edge0_0(net: &NetworkConfig) -> NetworkConfig {
    let mut edited = net.clone();
    let dev = edited
        .devices
        .iter_mut()
        .find(|d| d.name == "edge0_0")
        .expect("a fattree has edge0_0");
    dev.prefix_lists.push(PrefixList {
        name: "ONE".into(),
        entries: vec![PrefixListEntry {
            seq: 5,
            action: Action::Permit,
            prefix: "10.0.0.0/24".parse().expect("valid prefix"),
            ge: None,
            le: None,
        }],
    });
    dev.route_maps[0].clauses.insert(
        0,
        clause(
            5,
            Action::Permit,
            vec![MatchCond::PrefixList("ONE".into())],
            vec![SetAction::LocalPref(150)],
        ),
    );
    edited
}

/// One daemon request: the wire line and, for the sampled correctness
/// check and the in-process traced pass, what it asks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request line, newline included (sent with one write).
    pub line: String,
    /// `reach` (true) or `path` (false).
    pub is_reach: bool,
    pub src: String,
    pub dst: String,
    pub links: Vec<(String, String)>,
    /// `path` only: the waypoints asked about (none or one).
    pub waypoints: Vec<String>,
}

/// The request list's mix repeats with this period on fattree-8: every
/// combination of kind (17 `reach` : 3 `path` of 20), failed-link count
/// (0, 1, 2), destination (one of 32) and, for `path`, waypoint or not
/// appears equally often in a list whose length is a multiple of it.
pub const MIX_PERIOD: usize = 20 * 3 * 32 * 2;

/// The seeded standing request list of `serve_cycle`: 85 % `reach`, 15 %
/// `path` (half of those with one waypoint), 0, 1 or 2 failed links a
/// third each, every originating device the destination equally often.
/// Those shares are exact for every seed when `count` is a multiple of
/// [`MIX_PERIOD`] and `origins` has 32 entries; the seed picks sources,
/// links and waypoints, and shuffles the order.
pub fn request_list(
    seed: u64,
    devices: &[String],
    origins: &[String],
    links: &[(String, String)],
    count: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473); // "requests"
    let mut list: Vec<Request> = (0..count)
        .map(|i| {
            // Mixed radix, so the four choices are independent.
            let is_reach = i % 20 < 17;
            let src = devices[rng.below(devices.len())].clone();
            let dst = origins[i / 60 % origins.len()].clone();
            let failed: Vec<(String, String)> = rng
                .sample(links.len(), i / 20 % 3)
                .into_iter()
                .map(|l| links[l].clone())
                .collect();
            let links_json = failed
                .iter()
                .map(|(a, b)| format!("[\"{a}\", \"{b}\"]"))
                .collect::<Vec<_>>()
                .join(", ");
            let mut waypoints = Vec::new();
            let line = if is_reach {
                format!(
                    "{{\"op\": \"reach\", \"src\": \"{src}\", \"dst\": \"{dst}\", \"links\": [{links_json}]}}\n"
                )
            } else {
                if i / (60 * origins.len()) % 2 == 0 {
                    waypoints.push(devices[rng.below(devices.len())].clone());
                }
                let waypoints_json = waypoints
                    .iter()
                    .map(|w| format!("\"{w}\""))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"op\": \"path\", \"src\": \"{src}\", \"dst\": \"{dst}\", \"links\": [{links_json}], \"waypoints\": [{waypoints_json}]}}\n"
                )
            };
            Request {
                line,
                is_reach,
                src,
                dst,
                links: failed,
                waypoints,
            }
        })
        .collect();
    rng.shuffle(&mut list);
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai::config::{parse_network, print_network, BuiltTopology};
    use bonsai::core::compress::{compress, CompressOptions};

    #[test]
    fn policy_datacenter_gives_the_bdd_and_every_engine_tier_work() {
        let net = dc_policy(7);
        let text = print_network(&net);
        let reparsed = parse_network(&text).expect("generated text parses");
        assert_eq!(
            print_network(&reparsed),
            text,
            "parse → print is a fixed point"
        );
        assert_eq!(reparsed, net);
        assert_eq!(dc_policy(7), net, "same seed, same network");
        assert_ne!(dc_policy(8), net, "the seed reaches the device noise");

        let report = compress(&reparsed, CompressOptions::default());
        let e = report.engine;
        assert_eq!(report.num_ecs(), 1296);
        assert!(e.arena_nodes >= 2000, "arena holds {} nodes", e.arena_nodes);
        assert!(
            e.apply_lookups >= 40_000,
            "{} apply lookups",
            e.apply_lookups
        );
        assert!(
            e.sig_hits > 0 && e.sig_hits < e.sig_lookups,
            "sig tier {e:?}"
        );
        assert!(e.stage_hits > 0 && e.table_hits > 0, "{e:?}");
        let topo = BuiltTopology::build(&reparsed).unwrap();
        let fingerprints: std::collections::BTreeSet<_> = report
            .per_ec
            .iter()
            .map(|c| {
                report
                    .policies
                    .ec_fingerprint(&reparsed, &topo, &c.ec.to_ec_dest())
            })
            .collect();
        assert!(
            fingerprints.len() >= 12,
            "{} fingerprints",
            fingerprints.len()
        );
    }

    /// The seed reaches the static-route and ACL noise only: the BGP
    /// abstraction — what `compress_policy` pins — is the same for all.
    #[test]
    fn abstract_sizes_do_not_depend_on_the_seed() {
        let sizes = |seed: u64| -> Vec<usize> {
            compress(&dc_policy(seed), CompressOptions::default())
                .per_ec
                .iter()
                .map(|c| c.abstraction.abstract_node_count())
                .collect()
        };
        let first = sizes(1);
        assert_eq!(first.len(), 1296);
        assert_eq!(first.iter().sum::<usize>(), 53 * 1296);
        for seed in 2..=10 {
            assert_eq!(sizes(seed), first, "seed {seed}");
        }
    }

    fn toy_inputs() -> (Vec<String>, Vec<String>, Vec<(String, String)>) {
        let names: Vec<String> = (0..40).map(|i| format!("r{i}")).collect();
        let links = (0..39)
            .map(|i| (format!("r{i}"), format!("r{}", i + 1)))
            .collect();
        (names.clone(), names[..32].to_vec(), links)
    }

    #[test]
    fn request_list_is_a_function_of_the_seed() {
        let (names, origins, links) = toy_inputs();
        let a = request_list(11, &names, &origins, &links, MIX_PERIOD);
        assert_eq!(a, request_list(11, &names, &origins, &links, MIX_PERIOD));
        assert_ne!(a, request_list(12, &names, &origins, &links, MIX_PERIOD));
        assert!(a.iter().all(|r| r.line.ends_with('\n')));
        assert!(a.iter().any(|r| r.line.contains("\"waypoints\": [\"r")));
    }

    /// Length and mix are constants: what differs between seeds is which
    /// requests, never how many of which kind.
    #[test]
    fn request_mix_is_the_same_for_every_seed() {
        let (names, origins, links) = toy_inputs();
        let mix = |seed: u64| {
            let list = request_list(seed, &names, &origins, &links, 2 * MIX_PERIOD);
            let count = |f: &dyn Fn(&Request) -> bool| list.iter().filter(|r| f(r)).count();
            (
                list.len(),
                count(&|r| r.is_reach),
                count(&|r| !r.is_reach && r.waypoints.len() == 1),
                [0, 1, 2].map(|n| count(&|r| r.links.len() == n)),
                count(&|r| r.dst == "r0"),
                count(&|r| r.dst == "r0" && r.is_reach && r.links.len() == 2),
            )
        };
        let first = mix(1);
        assert_eq!(first, (7680, 6528, 576, [2560, 2560, 2560], 240, 68));
        for seed in 2..=6 {
            assert_eq!(mix(seed), first, "seed {seed}");
        }
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let s = rng.sample(5, 3);
            assert_eq!(s.len(), 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]) && s[2] < 5);
        }
        assert_eq!(rng.sample(2, 5), vec![0, 1]);
        assert!(rng.sample(9, 0).is_empty());
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(5).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
