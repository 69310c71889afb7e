//! Printer for the textual dialect: the inverse of [`crate::parse`].
//!
//! Bonsai's output is *a smaller network in the same configuration format*
//! as its input, so that downstream analyzers can run unchanged; this
//! module is how abstract networks are materialized back into text.
//!
//! Everything renders straight into a `fmt::Write` sink, with no
//! per-device or per-line temporaries.
//!
//! Each statement has one writer here (device framing, interface, policy
//! objects, BGP, OSPF, static route, link), and the configuration printer
//! is those writers over a [`NetworkConfig`]. A printer that formats an
//! abstract network straight from its layout, without building the
//! configuration, calls the same writers, so the two cannot disagree on a
//! byte.

use crate::ir::*;
use bonsai_net::prefix::Prefix;
use std::fmt::{self, Display, Write};

fn action(a: Action) -> &'static str {
    match a {
        Action::Permit => "permit",
        Action::Deny => "deny",
    }
}

/// A prefix as the dialect spells it: the default route prints as `any`.
struct Pfx(Prefix);

impl fmt::Display for Pfx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_default() {
            f.write_str("any")
        } else {
            self.0.fmt(f)
        }
    }
}

/// The lines that open device `name` in a network file.
pub fn write_device_open(w: &mut impl Write, name: impl Display) -> fmt::Result {
    writeln!(w, "device {name}")?;
    write_hostname(w, name)
}

/// The lines that close a device in a network file.
pub fn write_device_close(w: &mut impl Write) -> fmt::Result {
    w.write_str("end\n!\n")
}

fn write_hostname(w: &mut impl Write, name: impl Display) -> fmt::Result {
    writeln!(w, "hostname {name}")
}

/// `interface <name>` with address `prefix` and the other settings of
/// `iface` (its ACL bindings and OSPF cost and area).
pub fn write_interface(
    w: &mut impl Write,
    name: impl Display,
    prefix: Option<Prefix>,
    iface: &Interface,
) -> fmt::Result {
    writeln!(w, "interface {name}")?;
    if let Some(p) = prefix {
        writeln!(w, " ip address {}", Pfx(p))?;
    }
    if let Some(acl) = &iface.acl_in {
        writeln!(w, " ip access-group {acl} in")?;
    }
    if let Some(acl) = &iface.acl_out {
        writeln!(w, " ip access-group {acl} out")?;
    }
    if let Some(cost) = iface.ospf_cost {
        writeln!(w, " ip ospf cost {cost}")?;
    }
    if let Some(area) = iface.ospf_area {
        writeln!(w, " ip ospf area {area}")?;
    }
    Ok(())
}

/// A device's named policy objects: its prefix lists, community lists,
/// ACLs and route maps, in that order.
pub fn write_policies(w: &mut impl Write, d: &DeviceConfig) -> fmt::Result {
    for pl in &d.prefix_lists {
        for e in &pl.entries {
            write!(
                w,
                "ip prefix-list {} seq {} {} {}",
                pl.name,
                e.seq,
                action(e.action),
                Pfx(e.prefix)
            )?;
            if let Some(g) = e.ge {
                write!(w, " ge {g}")?;
            }
            if let Some(l) = e.le {
                write!(w, " le {l}")?;
            }
            writeln!(w)?;
        }
    }

    for cl in &d.community_lists {
        for c in &cl.communities {
            writeln!(w, "ip community-list {} permit {c}", cl.name)?;
        }
    }

    for acl in &d.acls {
        for e in &acl.entries {
            writeln!(
                w,
                "ip access-list {} {} {}",
                acl.name,
                action(e.action),
                Pfx(e.prefix)
            )?;
        }
    }

    for map in &d.route_maps {
        for clause in &map.clauses {
            writeln!(
                w,
                "route-map {} {} {}",
                map.name,
                action(clause.action),
                clause.seq
            )?;
            for m in &clause.matches {
                match m {
                    MatchCond::Community(n) => writeln!(w, " match community {n}")?,
                    MatchCond::PrefixList(n) => writeln!(w, " match ip address prefix-list {n}")?,
                }
            }
            for s in &clause.sets {
                match s {
                    SetAction::LocalPref(lp) => writeln!(w, " set local-preference {lp}")?,
                    SetAction::AddCommunity(c) => writeln!(w, " set community {c} additive")?,
                    SetAction::DeleteCommunity(c) => writeln!(w, " set community-delete {c}")?,
                    SetAction::Prepend(n) => writeln!(w, " set as-path prepend {n}")?,
                    SetAction::Metric(m) => writeln!(w, " set metric {m}")?,
                }
            }
        }
    }
    Ok(())
}

/// The BGP process `bgp` with the given `network` statements and
/// sessions — `(interface, session)` pairs, each printed under the
/// interface named beside it.
pub fn write_bgp<'a, N: Display>(
    w: &mut impl Write,
    bgp: &BgpConfig,
    networks: impl IntoIterator<Item = Prefix>,
    sessions: impl IntoIterator<Item = (N, &'a BgpNeighbor)>,
) -> fmt::Result {
    writeln!(w, "router bgp {}", bgp.asn)?;
    if bgp.default_local_pref != 100 {
        writeln!(
            w,
            " bgp default local-preference {}",
            bgp.default_local_pref
        )?;
    }
    write_process_networks(w, networks)?;
    for (iface, nb) in sessions {
        writeln!(
            w,
            " neighbor {iface} remote-as {}",
            if nb.ibgp { "internal" } else { "external" }
        )?;
        if let Some(m) = &nb.import_policy {
            writeln!(w, " neighbor {iface} route-map {m} in")?;
        }
        if let Some(m) = &nb.export_policy {
            writeln!(w, " neighbor {iface} route-map {m} out")?;
        }
    }
    if bgp.redistribute_static {
        write_redistribute(w, "static")?;
    }
    if bgp.redistribute_ospf {
        write_redistribute(w, "ospf")?;
    }
    Ok(())
}

/// The OSPF process `ospf` with the given `network` statements.
pub fn write_ospf(
    w: &mut impl Write,
    ospf: &OspfConfig,
    networks: impl IntoIterator<Item = Prefix>,
) -> fmt::Result {
    writeln!(w, "router ospf")?;
    write_process_networks(w, networks)?;
    if ospf.redistribute_static {
        write_redistribute(w, "static")?;
    }
    Ok(())
}

fn write_process_networks(
    w: &mut impl Write,
    networks: impl IntoIterator<Item = Prefix>,
) -> fmt::Result {
    networks
        .into_iter()
        .try_for_each(|n| writeln!(w, " network {}", Pfx(n)))
}

fn write_redistribute(w: &mut impl Write, source: &str) -> fmt::Result {
    writeln!(w, " redistribute {source}")
}

/// A static route for `prefix` out of interface `iface`.
pub fn write_static_route(w: &mut impl Write, prefix: Prefix, iface: impl Display) -> fmt::Result {
    writeln!(w, "ip route {} {iface}", Pfx(prefix))
}

/// A link between interface `a.1` of device `a.0` and interface `b.1` of
/// device `b.0`.
pub fn write_link(
    w: &mut impl Write,
    a: (impl Display, impl Display),
    b: (impl Display, impl Display),
) -> fmt::Result {
    writeln!(w, "link {} {} {} {}", a.0, a.1, b.0, b.1)
}

/// Everything of a device after its name.
fn write_device_body(w: &mut impl Write, d: &DeviceConfig) -> fmt::Result {
    for iface in &d.interfaces {
        write_interface(w, &iface.name, iface.prefix, iface)?;
    }
    write_policies(w, d)?;
    if let Some(bgp) = &d.bgp {
        let sessions = bgp.neighbors.iter().map(|nb| (&nb.iface, nb));
        write_bgp(w, bgp, bgp.networks.iter().copied(), sessions)?;
    }
    if let Some(ospf) = &d.ospf {
        write_ospf(w, ospf, ospf.networks.iter().copied())?;
    }
    d.static_routes
        .iter()
        .try_for_each(|sr| write_static_route(w, sr.prefix, &sr.iface))
}

fn write_device(w: &mut impl Write, d: &DeviceConfig) -> fmt::Result {
    write_hostname(w, &d.name)?;
    write_device_body(w, d)
}

fn write_network(w: &mut impl Write, n: &NetworkConfig) -> fmt::Result {
    for d in &n.devices {
        write_device_open(w, &d.name)?;
        write_device_body(w, d)?;
        write_device_close(w)?;
    }
    n.links
        .iter()
        .try_for_each(|l| write_link(w, (&l.a.device, &l.a.iface), (&l.b.device, &l.b.iface)))
}

/// Renders one device configuration in the textual dialect.
pub fn print_device(d: &DeviceConfig) -> String {
    let mut out = String::new();
    write_device(&mut out, d).expect("writing to a String cannot fail");
    out
}

/// Renders a whole network (devices + links) in the textual dialect.
pub fn print_network(n: &NetworkConfig) -> String {
    let mut out = String::new();
    write_network(&mut out, n).expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_device, parse_network};

    #[test]
    fn roundtrip_rich_device() {
        let mut d = DeviceConfig::new("edge1");
        let mut e0 = Interface::named("eth0");
        e0.prefix = Some("10.0.1.0/24".parse().unwrap());
        e0.acl_in = Some("BLOCK".into());
        e0.ospf_cost = Some(7);
        e0.ospf_area = Some(1);
        d.interfaces.push(e0);
        d.interfaces.push(Interface::named("eth1"));
        d.prefix_lists.push(PrefixList {
            name: "P".into(),
            entries: vec![PrefixListEntry {
                seq: 5,
                action: Action::Permit,
                prefix: "10.0.0.0/8".parse().unwrap(),
                ge: Some(16),
                le: Some(24),
            }],
        });
        d.community_lists.push(CommunityList {
            name: "DEPT".into(),
            communities: vec![Community::new(65001, 1)],
        });
        d.acls.push(Acl {
            name: "BLOCK".into(),
            entries: vec![
                AclEntry {
                    action: Action::Deny,
                    prefix: "10.9.0.0/16".parse().unwrap(),
                },
                AclEntry {
                    action: Action::Permit,
                    prefix: bonsai_net::prefix::Prefix::DEFAULT,
                },
            ],
        });
        d.route_maps.push(RouteMap {
            name: "M".into(),
            clauses: vec![RouteMapClause {
                seq: 10,
                action: Action::Permit,
                matches: vec![
                    MatchCond::Community("DEPT".into()),
                    MatchCond::PrefixList("P".into()),
                ],
                sets: vec![
                    SetAction::LocalPref(350),
                    SetAction::AddCommunity(Community::new(65001, 3)),
                    SetAction::DeleteCommunity(Community::new(65001, 9)),
                    SetAction::Prepend(2),
                    SetAction::Metric(77),
                ],
            }],
        });
        let mut bgp = BgpConfig::new(65001);
        bgp.default_local_pref = 150;
        bgp.networks.push("10.0.1.0/24".parse().unwrap());
        bgp.neighbors.push(BgpNeighbor {
            iface: "eth0".into(),
            import_policy: Some("M".into()),
            export_policy: None,
            ibgp: false,
        });
        bgp.redistribute_static = true;
        d.bgp = Some(bgp);
        d.ospf = Some(OspfConfig {
            networks: vec!["10.0.1.0/24".parse().unwrap()],
            redistribute_static: true,
        });
        d.static_routes.push(StaticRoute {
            prefix: "10.9.0.0/16".parse().unwrap(),
            iface: "eth1".into(),
        });

        let text = print_device(&d);
        let parsed = parse_device(&text).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn roundtrip_network() {
        let mut n = NetworkConfig::default();
        for name in ["r1", "r2"] {
            let mut d = DeviceConfig::new(name);
            d.interfaces.push(Interface::named("eth0"));
            n.devices.push(d);
        }
        n.links.push(Link::new(("r1", "eth0"), ("r2", "eth0")));
        let text = print_network(&n);
        let parsed = parse_network(&text).unwrap();
        assert_eq!(parsed, n);
    }

    #[test]
    fn default_local_pref_is_not_printed() {
        let mut d = DeviceConfig::new("r");
        d.bgp = Some(BgpConfig::new(1));
        let text = print_device(&d);
        assert!(!text.contains("default local-preference"));
        assert_eq!(parse_device(&text).unwrap(), d);
    }
}
