//! Policy semantics: route maps, prefix lists and ACLs.
//!
//! These functions are **the** definition of what a policy means. The SRP
//! simulator specializes each route map per destination class through
//! them — a map decided by prefix-list clauses alone is evaluated once, by
//! [`eval_route_map`], and one that reads communities is run per route
//! offer by [`eval_optional_route_map`] — and the BDD compiler in
//! `bonsai-core` enumerates the same code over symbolic inputs, unchanged.
//! Keeping a single implementation is what justifies the paper's claim
//! that BDD equality implies transfer-function equality.

use crate::ir::{Acl, Action, Community, DeviceConfig, MatchCond, PrefixList, RouteMap, SetAction};
use bonsai_net::prefix::Prefix;
use std::collections::BTreeSet;

/// The route attributes a policy can observe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyInput {
    /// Destination prefix of the advertisement.
    pub dest: Prefix,
    /// Communities currently attached.
    pub communities: BTreeSet<Community>,
}

/// The effect of running a route map on an advertisement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyResult {
    /// False if the route was denied (dropped).
    pub permit: bool,
    /// New local preference, if the map set one.
    pub local_pref: Option<u32>,
    /// New metric (MED), if the map set one.
    pub metric: Option<u32>,
    /// Communities attached by the map.
    pub added: BTreeSet<Community>,
    /// Communities stripped by the map.
    pub deleted: BTreeSet<Community>,
    /// Extra times the local AS is prepended on export.
    pub prepend: u8,
}

impl PolicyResult {
    /// A result that permits the route unchanged.
    pub fn permit_unchanged() -> Self {
        PolicyResult {
            permit: true,
            local_pref: None,
            metric: None,
            added: BTreeSet::new(),
            deleted: BTreeSet::new(),
            prepend: 0,
        }
    }

    /// A result that drops the route.
    pub fn deny() -> Self {
        PolicyResult {
            permit: false,
            ..PolicyResult::permit_unchanged()
        }
    }

    /// Applies the community edits to a community set.
    pub fn apply_communities(&self, communities: &mut BTreeSet<Community>) {
        for c in &self.deleted {
            communities.remove(c);
        }
        for c in &self.added {
            communities.insert(*c);
        }
    }
}

/// Evaluates a prefix list against a destination prefix.
///
/// Entries are scanned in order; the first entry whose range covers the
/// destination *and* whose `ge`/`le` bounds admit the destination's length
/// decides. No match means deny (IOS semantics).
pub fn prefix_list_permits(list: &PrefixList, dest: Prefix) -> bool {
    for e in &list.entries {
        // IOS length rule: without ge/le only the exact length matches;
        // `ge` opens the lower bound, `le` the upper (ge alone implies 32).
        let lo = e.ge.unwrap_or(e.prefix.len());
        let hi =
            e.le.unwrap_or(if e.ge.is_some() { 32 } else { e.prefix.len() });
        if e.prefix.contains(dest) && dest.len() >= lo && dest.len() <= hi {
            return e.action == Action::Permit;
        }
    }
    false
}

/// Evaluates an ACL against a destination address range.
///
/// The whole range must match one entry for a decision; first match wins,
/// default deny. (Bonsai's equivalence classes guarantee the queried range
/// never straddles an ACL entry boundary.)
pub fn acl_permits(acl: &Acl, dest: Prefix) -> bool {
    for e in &acl.entries {
        if e.prefix.contains(dest) {
            return e.action == Action::Permit;
        }
    }
    false
}

/// True if the route's communities satisfy the named community list
/// (at least one listed community present).
pub fn community_list_matches(
    device: &DeviceConfig,
    list: &str,
    communities: &BTreeSet<Community>,
) -> bool {
    match device.community_list(list) {
        Some(cl) => cl.communities.iter().any(|c| communities.contains(c)),
        None => false, // dangling reference never matches
    }
}

/// True if a single match condition holds for the input.
pub fn match_holds(device: &DeviceConfig, cond: &MatchCond, input: &PolicyInput) -> bool {
    match cond {
        MatchCond::Community(list) => community_list_matches(device, list, &input.communities),
        MatchCond::PrefixList(list) => match device.prefix_list(list) {
            Some(pl) => prefix_list_permits(pl, input.dest),
            None => false,
        },
    }
}

/// Runs a route map over an advertisement.
///
/// IOS semantics: clauses in sequence order; the first clause whose match
/// conditions all hold decides — deny drops the route, permit applies the
/// clause's set actions and accepts. If no clause matches, the route is
/// dropped (implicit deny).
pub fn eval_route_map(device: &DeviceConfig, map: &RouteMap, input: &PolicyInput) -> PolicyResult {
    for clause in &map.clauses {
        if clause.matches.iter().all(|m| match_holds(device, m, input)) {
            if clause.action == Action::Deny {
                return PolicyResult::deny();
            }
            let mut result = PolicyResult::permit_unchanged();
            for set in &clause.sets {
                match set {
                    SetAction::LocalPref(lp) => result.local_pref = Some(*lp),
                    SetAction::AddCommunity(c) => {
                        result.deleted.remove(c);
                        result.added.insert(*c);
                    }
                    SetAction::DeleteCommunity(c) => {
                        result.added.remove(c);
                        result.deleted.insert(*c);
                    }
                    SetAction::Prepend(n) => result.prepend = result.prepend.saturating_add(*n),
                    SetAction::Metric(m) => result.metric = Some(*m),
                }
            }
            return result;
        }
    }
    PolicyResult::deny()
}

/// Runs an optional route map: absent maps permit everything unchanged.
pub fn eval_optional_route_map(
    device: &DeviceConfig,
    map: Option<&str>,
    input: &PolicyInput,
) -> PolicyResult {
    match map {
        None => PolicyResult::permit_unchanged(),
        Some(name) => match device.route_map(name) {
            Some(m) => eval_route_map(device, m, input),
            // Dangling route-map reference: IOS treats it as deny-all.
            None => PolicyResult::deny(),
        },
    }
}

/// The set of local-preference values a device may assign to routes for a
/// given destination: the default plus every `set local-preference` in any
/// route map that could apply (paper §4.3, `prefs(v)`).
///
/// This is a static over-approximation read straight off the configuration,
/// exactly as the paper prescribes.
pub fn possible_local_prefs(device: &DeviceConfig, default_lp: u32) -> BTreeSet<u32> {
    let mut prefs = BTreeSet::new();
    prefs.insert(default_lp);
    for map in &device.route_maps {
        for clause in &map.clauses {
            if clause.action == Action::Permit {
                for set in &clause.sets {
                    if let SetAction::LocalPref(lp) = set {
                        prefs.insert(*lp);
                    }
                }
            }
        }
    }
    prefs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn device_with_lists() -> DeviceConfig {
        let mut d = DeviceConfig::new("r1");
        d.prefix_lists.push(PrefixList {
            name: "TEN".into(),
            entries: vec![
                PrefixListEntry {
                    seq: 5,
                    action: Action::Deny,
                    prefix: p("10.9.0.0/16"),
                    ge: None,
                    le: Some(32),
                },
                PrefixListEntry {
                    seq: 10,
                    action: Action::Permit,
                    prefix: p("10.0.0.0/8"),
                    ge: None,
                    le: Some(32),
                },
            ],
        });
        d.community_lists.push(CommunityList {
            name: "DEPT".into(),
            communities: vec![Community::new(65001, 1), Community::new(65001, 2)],
        });
        d
    }

    #[test]
    fn prefix_list_order_and_default_deny() {
        let d = device_with_lists();
        let pl = d.prefix_list("TEN").unwrap();
        assert!(!prefix_list_permits(pl, p("10.9.1.0/24"))); // denied by seq 5
        assert!(prefix_list_permits(pl, p("10.1.0.0/16"))); // permitted by seq 10
        assert!(!prefix_list_permits(pl, p("11.0.0.0/8"))); // implicit deny
    }

    #[test]
    fn prefix_list_exact_length_without_bounds() {
        let pl = PrefixList {
            name: "X".into(),
            entries: vec![PrefixListEntry {
                seq: 5,
                action: Action::Permit,
                prefix: p("10.0.0.0/8"),
                ge: None,
                le: None,
            }],
        };
        // Without ge/le only the exact prefix matches (IOS semantics).
        assert!(prefix_list_permits(&pl, p("10.0.0.0/8")));
        assert!(!prefix_list_permits(&pl, p("10.1.0.0/16")));
    }

    #[test]
    fn prefix_list_ge_bound() {
        let pl = PrefixList {
            name: "X".into(),
            entries: vec![PrefixListEntry {
                seq: 5,
                action: Action::Permit,
                prefix: p("10.0.0.0/8"),
                ge: Some(24),
                le: None,
            }],
        };
        assert!(prefix_list_permits(&pl, p("10.1.2.0/24")));
        assert!(!prefix_list_permits(&pl, p("10.1.0.0/16")));
    }

    #[test]
    fn acl_first_match_wins() {
        let acl = Acl {
            name: "A".into(),
            entries: vec![
                AclEntry {
                    action: Action::Deny,
                    prefix: p("10.9.0.0/16"),
                },
                AclEntry {
                    action: Action::Permit,
                    prefix: Prefix::DEFAULT,
                },
            ],
        };
        assert!(!acl_permits(&acl, p("10.9.3.0/24")));
        assert!(acl_permits(&acl, p("10.1.0.0/16")));
        let empty = Acl {
            name: "E".into(),
            entries: vec![],
        };
        assert!(!acl_permits(&empty, p("10.0.0.0/8")));
    }

    #[test]
    fn route_map_first_match_and_implicit_deny() {
        let mut d = device_with_lists();
        d.route_maps.push(RouteMap {
            name: "M".into(),
            clauses: vec![
                RouteMapClause {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![MatchCond::Community("DEPT".into())],
                    sets: vec![
                        SetAction::AddCommunity(Community::new(65001, 3)),
                        SetAction::LocalPref(350),
                    ],
                },
                RouteMapClause {
                    seq: 20,
                    action: Action::Deny,
                    matches: vec![MatchCond::PrefixList("TEN".into())],
                    sets: vec![],
                },
            ],
        });
        let m = d.route_map("M").unwrap();

        // Community present: clause 10 applies (Figure 10 of the paper).
        let mut comms = BTreeSet::new();
        comms.insert(Community::new(65001, 1));
        let r = eval_route_map(
            &d,
            m,
            &PolicyInput {
                dest: p("10.1.0.0/16"),
                communities: comms,
            },
        );
        assert!(r.permit);
        assert_eq!(r.local_pref, Some(350));
        assert!(r.added.contains(&Community::new(65001, 3)));

        // No community, dest in TEN: clause 20 denies.
        let r = eval_route_map(
            &d,
            m,
            &PolicyInput {
                dest: p("10.1.0.0/16"),
                communities: BTreeSet::new(),
            },
        );
        assert!(!r.permit);

        // Nothing matches: implicit deny.
        let r = eval_route_map(
            &d,
            m,
            &PolicyInput {
                dest: p("11.0.0.0/8"),
                communities: BTreeSet::new(),
            },
        );
        assert!(!r.permit);
    }

    #[test]
    fn add_then_delete_community_cancels() {
        let d = DeviceConfig::new("r1");
        let map = RouteMap {
            name: "M".into(),
            clauses: vec![RouteMapClause {
                seq: 10,
                action: Action::Permit,
                matches: vec![],
                sets: vec![
                    SetAction::AddCommunity(Community::new(1, 1)),
                    SetAction::DeleteCommunity(Community::new(1, 1)),
                ],
            }],
        };
        let r = eval_route_map(
            &d,
            &map,
            &PolicyInput {
                dest: p("10.0.0.0/8"),
                communities: BTreeSet::new(),
            },
        );
        assert!(r.permit);
        assert!(!r.added.contains(&Community::new(1, 1)));
        assert!(r.deleted.contains(&Community::new(1, 1)));
        let mut cs = BTreeSet::new();
        cs.insert(Community::new(1, 1));
        r.apply_communities(&mut cs);
        assert!(cs.is_empty());
    }

    #[test]
    fn optional_route_map_semantics() {
        let d = device_with_lists();
        let input = PolicyInput {
            dest: p("10.1.0.0/16"),
            communities: BTreeSet::new(),
        };
        assert!(eval_optional_route_map(&d, None, &input).permit);
        // Dangling reference denies.
        assert!(!eval_optional_route_map(&d, Some("NOPE"), &input).permit);
    }

    #[test]
    fn possible_local_prefs_reads_configuration() {
        let mut d = DeviceConfig::new("r1");
        d.route_maps.push(RouteMap {
            name: "M".into(),
            clauses: vec![
                RouteMapClause {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetAction::LocalPref(200)],
                },
                RouteMapClause {
                    seq: 20,
                    action: Action::Deny,
                    matches: vec![],
                    // Denied clause cannot assign a preference.
                    sets: vec![SetAction::LocalPref(999)],
                },
                RouteMapClause {
                    seq: 30,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetAction::LocalPref(300)],
                },
            ],
        });
        let prefs = possible_local_prefs(&d, 100);
        assert_eq!(prefs.into_iter().collect::<Vec<_>>(), vec![100, 200, 300]);
    }
}
