//! Config deltas: classifying the difference between two parsed
//! configurations by what it invalidates in a shared
//! [`CompiledPolicies`](crate::engine::CompiledPolicies) engine.
//!
//! The engine's cache tiers are *exact-keyed*: stage keys carry the full
//! prefix-list resolution, signature keys the device indices and session
//! shape, table keys the whole destination-dependent residue. That makes
//! most edits **key-visible** — a prefix-list, ACL, static-route or
//! ACL-binding change produces different keys, so stale entries are simply
//! never probed again and nothing needs evicting. The exceptions are
//! route-map and community-list *content*: the keys name the map but not
//! its clauses, so an edited map can alias a stale entry under an unchanged
//! key. Those devices form the **eviction class** ([`ConfigDelta::policy_devices`])
//! that [`CompiledPolicies::apply_delta`](crate::engine::CompiledPolicies::apply_delta)
//! flushes precisely.
//!
//! Everything the engine treats as *destination-independent* — the device
//! set and order, links, interface addressing/OSPF, BGP session shape,
//! redistribution switches, and the community universe the BDD variables
//! model — is frozen at engine construction (the engine's edge statics
//! and `PolicyCtx`). A change to any of it is
//! **structural** ([`ConfigDelta::structural`]): the delta cannot be
//! absorbed in place and callers fall back to a fresh full compression.

use bonsai_config::{Community, DeviceConfig, MatchCond, NetworkConfig, SetAction};
use std::collections::BTreeSet;

/// The classified difference between two parsed configurations of the
/// same network, from the perspective of a shared compiled-policy engine.
#[derive(Clone, Debug, Default)]
pub struct ConfigDelta {
    /// Devices (by index, ascending) whose route-map or community-list
    /// *content* changed — the eviction class: engine cache keys name
    /// these objects but not their bodies, so same-key entries go stale.
    pub policy_devices: Vec<u32>,
    /// Devices (by index, ascending) whose prefix lists, ACLs, static
    /// routes, ACL bindings, or originated networks changed — key-visible
    /// edits: they shift cache keys and the EC partition, but every stale
    /// entry becomes unreachable by construction, so nothing is evicted.
    pub filter_devices: Vec<u32>,
    /// Hostnames of all changed devices, in index order.
    pub changed_devices: Vec<String>,
    /// Why the delta cannot be applied incrementally, if it cannot: the
    /// edit touches state the engine froze at construction.
    pub structural: Option<String>,
}

impl ConfigDelta {
    /// True when the two configurations are identical.
    pub fn is_empty(&self) -> bool {
        self.structural.is_none()
            && self.policy_devices.is_empty()
            && self.filter_devices.is_empty()
    }

    /// True when the delta can be absorbed by an existing engine (no
    /// structural change).
    pub fn is_incremental(&self) -> bool {
        self.structural.is_none()
    }
}

/// The community universe the engine's `PolicyCtx` models: matched
/// communities, or matched ∪ written without the stripping abstraction.
/// Mirrors the scan in `PolicyCtx::from_network` — the two must agree,
/// or a delta could silently invalidate the BDD variable model.
fn community_universe(network: &NetworkConfig, strip_unused: bool) -> BTreeSet<Community> {
    let mut matched: BTreeSet<Community> = BTreeSet::new();
    let mut written: BTreeSet<Community> = BTreeSet::new();
    for d in &network.devices {
        for map in &d.route_maps {
            for clause in &map.clauses {
                for m in &clause.matches {
                    if let MatchCond::Community(list) = m {
                        if let Some(cl) = d.community_list(list) {
                            matched.extend(cl.communities.iter().copied());
                        }
                    }
                }
                for s in &clause.sets {
                    match s {
                        SetAction::AddCommunity(c) | SetAction::DeleteCommunity(c) => {
                            written.insert(*c);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    if strip_unused {
        matched
    } else {
        matched.union(&written).copied().collect()
    }
}

/// Interface comparison with the ACL bindings masked out: bindings are
/// key-visible (packed into every table key's edge outcomes), everything
/// else an interface carries — addressing, OSPF cost/area — is frozen in
/// the engine's edge statics.
fn interfaces_equal_modulo_acls(a: &DeviceConfig, b: &DeviceConfig) -> bool {
    a.interfaces.len() == b.interfaces.len()
        && a.interfaces.iter().zip(&b.interfaces).all(|(x, y)| {
            x.name == y.name
                && x.prefix == y.prefix
                && x.ospf_cost == y.ospf_cost
                && x.ospf_area == y.ospf_area
        })
}

fn acl_bindings_changed(a: &DeviceConfig, b: &DeviceConfig) -> bool {
    a.interfaces.len() != b.interfaces.len()
        || a.interfaces
            .iter()
            .zip(&b.interfaces)
            .any(|(x, y)| x.acl_in != y.acl_in || x.acl_out != y.acl_out)
}

/// BGP comparison with the originated `networks` masked out: network
/// statements only seed the EC partition (key-visible through EC
/// matching); the session shape, ASN, defaults and redistribution
/// switches are frozen in the engine's edge statics.
fn bgp_equal_modulo_networks(a: &DeviceConfig, b: &DeviceConfig) -> bool {
    match (&a.bgp, &b.bgp) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.asn == y.asn
                && x.neighbors == y.neighbors
                && x.default_local_pref == y.default_local_pref
                && x.redistribute_static == y.redistribute_static
                && x.redistribute_ospf == y.redistribute_ospf
        }
        _ => false,
    }
}

/// OSPF comparison with the originated `networks` masked out, mirroring
/// [`bgp_equal_modulo_networks`]: `redistribute_static` feeds the frozen
/// edge statics, network statements only the EC partition.
fn ospf_equal_modulo_networks(a: &DeviceConfig, b: &DeviceConfig) -> bool {
    match (&a.ospf, &b.ospf) {
        (None, None) => true,
        (Some(x), Some(y)) => x.redistribute_static == y.redistribute_static,
        _ => false,
    }
}

/// Diffs two parsed configurations of the same network and classifies
/// every change by what it invalidates in a shared engine built with
/// `strip_unused` (which decides the modeled community universe, exactly
/// as compression's `strip_unused_communities` option does).
///
/// The classification is sound by construction: an edit is only placed in
/// the key-visible class when every engine cache key it can influence
/// changes with it, and only outside the structural class when the
/// engine's frozen state (edge statics, community variables, device
/// indexing) provably cannot observe it.
pub fn diff_configs(old: &NetworkConfig, new: &NetworkConfig, strip_unused: bool) -> ConfigDelta {
    let structural = |reason: String| ConfigDelta {
        structural: Some(reason),
        ..ConfigDelta::default()
    };

    if old.devices.len() != new.devices.len() {
        return structural(format!(
            "device count changed: {} -> {}",
            old.devices.len(),
            new.devices.len()
        ));
    }
    for (o, n) in old.devices.iter().zip(&new.devices) {
        if o.name != n.name {
            return structural(format!(
                "device set or order changed: `{}` -> `{}`",
                o.name, n.name
            ));
        }
    }
    if old.links != new.links {
        return structural("physical links changed".to_string());
    }
    if community_universe(old, strip_unused) != community_universe(new, strip_unused) {
        return structural("modeled community universe changed".to_string());
    }

    let mut policy_devices = Vec::new();
    let mut filter_devices = Vec::new();
    let mut changed_devices = Vec::new();
    for (i, (o, n)) in old.devices.iter().zip(&new.devices).enumerate() {
        if o == n {
            continue;
        }
        if !interfaces_equal_modulo_acls(o, n) {
            return structural(format!(
                "device `{}`: interface configuration changed",
                o.name
            ));
        }
        if !bgp_equal_modulo_networks(o, n) {
            return structural(format!("device `{}`: BGP session shape changed", o.name));
        }
        if !ospf_equal_modulo_networks(o, n) {
            return structural(format!("device `{}`: OSPF configuration changed", o.name));
        }
        let policy = o.route_maps != n.route_maps || o.community_lists != n.community_lists;
        let filter = o.prefix_lists != n.prefix_lists
            || o.acls != n.acls
            || o.static_routes != n.static_routes
            || acl_bindings_changed(o, n)
            || o.bgp.as_ref().map(|b| &b.networks) != n.bgp.as_ref().map(|b| &b.networks)
            || o.ospf.as_ref().map(|s| &s.networks) != n.ospf.as_ref().map(|s| &s.networks);
        if policy {
            policy_devices.push(i as u32);
        }
        if filter {
            filter_devices.push(i as u32);
        }
        if policy || filter {
            changed_devices.push(o.name.clone());
        }
    }
    ConfigDelta {
        policy_devices,
        filter_devices,
        changed_devices,
        structural: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::parse_network;

    fn base() -> NetworkConfig {
        parse_network(
            "
device a
interface i
ip prefix-list DC seq 5 permit 10.0.0.0/8 le 32
route-map FILTER permit 10
 match ip address prefix-list DC
router bgp 1
 network 10.0.1.0/24
 neighbor i remote-as external
 neighbor i route-map FILTER in
end
device b
interface i
router bgp 2
 network 10.0.2.0/24
 neighbor i remote-as external
end
link a i b i
",
        )
        .unwrap()
    }

    #[test]
    fn identical_configs_diff_empty() {
        let net = base();
        let d = diff_configs(&net, &net.clone(), false);
        assert!(d.is_empty(), "{d:?}");
        assert!(d.is_incremental());
    }

    #[test]
    fn route_map_edit_is_policy_class() {
        let old = base();
        let mut new = old.clone();
        new.devices[0].route_maps[0].clauses[0]
            .sets
            .push(SetAction::LocalPref(200));
        let d = diff_configs(&old, &new, false);
        assert!(d.is_incremental(), "{d:?}");
        assert_eq!(d.policy_devices, vec![0]);
        assert!(d.filter_devices.is_empty());
        assert_eq!(d.changed_devices, vec!["a".to_string()]);
    }

    #[test]
    fn prefix_list_edit_is_filter_class() {
        let old = base();
        let mut new = old.clone();
        new.devices[0].prefix_lists[0].entries[0].le = Some(24);
        let d = diff_configs(&old, &new, false);
        assert!(d.is_incremental(), "{d:?}");
        assert!(d.policy_devices.is_empty());
        assert_eq!(d.filter_devices, vec![0]);
    }

    #[test]
    fn origination_edit_is_filter_class() {
        let old = base();
        let mut new = old.clone();
        new.devices[1]
            .bgp
            .as_mut()
            .unwrap()
            .networks
            .push("10.0.3.0/24".parse().unwrap());
        let d = diff_configs(&old, &new, false);
        assert!(d.is_incremental(), "{d:?}");
        assert_eq!(d.filter_devices, vec![1]);
    }

    #[test]
    fn session_shape_edit_is_structural() {
        let old = base();
        let mut new = old.clone();
        new.devices[1].bgp.as_mut().unwrap().default_local_pref = 150;
        let d = diff_configs(&old, &new, false);
        assert!(d.structural.is_some(), "{d:?}");

        let mut new = old.clone();
        new.devices[0].bgp.as_mut().unwrap().neighbors[0].import_policy = None;
        assert!(diff_configs(&old, &new, false).structural.is_some());
    }

    #[test]
    fn link_and_device_set_edits_are_structural() {
        let old = base();
        let mut new = old.clone();
        new.links.clear();
        assert!(diff_configs(&old, &new, false).structural.is_some());

        let mut new = old.clone();
        new.devices.pop();
        assert!(diff_configs(&old, &new, false).structural.is_some());
    }

    #[test]
    fn community_universe_growth_is_structural() {
        let old = base();
        let mut new = old.clone();
        // A written-only community enters the unstripped universe...
        new.devices[0].route_maps[0].clauses[0]
            .sets
            .push(SetAction::AddCommunity(Community::new(7, 1)));
        assert!(diff_configs(&old, &new, false).structural.is_some());
        // ...but under stripping it is invisible (never matched), so the
        // same edit is an ordinary policy-content change.
        let d = diff_configs(&old, &new, true);
        assert!(d.is_incremental(), "{d:?}");
        assert_eq!(d.policy_devices, vec![0]);
    }

    #[test]
    fn acl_binding_edit_is_filter_class() {
        let old = base();
        let mut new = old.clone();
        new.devices[1].interfaces[0].acl_in = Some("NOPE".to_string());
        let d = diff_configs(&old, &new, false);
        assert!(d.is_incremental(), "{d:?}");
        assert_eq!(d.filter_devices, vec![1]);
    }
}
