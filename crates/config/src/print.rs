//! Printer for the textual dialect: the inverse of [`crate::parse`].
//!
//! Bonsai's output is *a smaller network in the same configuration format*
//! as its input, so that downstream analyzers can run unchanged; this
//! module is how abstract networks are materialized back into text.
//!
//! Everything renders straight into the caller's `fmt::Write` sink — one
//! buffer per network, no per-device or per-line temporaries — so a
//! caller that prints many networks ([`print_network_into`]) reuses one
//! allocation for all of them.

use crate::ir::*;
use std::fmt::{self, Write};

fn action(a: Action) -> &'static str {
    match a {
        Action::Permit => "permit",
        Action::Deny => "deny",
    }
}

/// A prefix as the dialect spells it: the default route prints as `any`.
struct Pfx(bonsai_net::prefix::Prefix);

impl fmt::Display for Pfx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_default() {
            f.write_str("any")
        } else {
            self.0.fmt(f)
        }
    }
}

fn write_device(w: &mut impl Write, d: &DeviceConfig) -> fmt::Result {
    writeln!(w, "hostname {}", d.name)?;

    for iface in &d.interfaces {
        writeln!(w, "interface {}", iface.name)?;
        if let Some(p) = iface.prefix {
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
    }

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

    if let Some(bgp) = &d.bgp {
        writeln!(w, "router bgp {}", bgp.asn)?;
        if bgp.default_local_pref != 100 {
            writeln!(
                w,
                " bgp default local-preference {}",
                bgp.default_local_pref
            )?;
        }
        for n in &bgp.networks {
            writeln!(w, " network {}", Pfx(*n))?;
        }
        for nb in &bgp.neighbors {
            writeln!(
                w,
                " neighbor {} remote-as {}",
                nb.iface,
                if nb.ibgp { "internal" } else { "external" }
            )?;
            if let Some(m) = &nb.import_policy {
                writeln!(w, " neighbor {} route-map {m} in", nb.iface)?;
            }
            if let Some(m) = &nb.export_policy {
                writeln!(w, " neighbor {} route-map {m} out", nb.iface)?;
            }
        }
        if bgp.redistribute_static {
            writeln!(w, " redistribute static")?;
        }
        if bgp.redistribute_ospf {
            writeln!(w, " redistribute ospf")?;
        }
    }

    if let Some(ospf) = &d.ospf {
        writeln!(w, "router ospf")?;
        for n in &ospf.networks {
            writeln!(w, " network {}", Pfx(*n))?;
        }
        if ospf.redistribute_static {
            writeln!(w, " redistribute static")?;
        }
    }

    for sr in &d.static_routes {
        writeln!(w, "ip route {} {}", Pfx(sr.prefix), sr.iface)?;
    }

    Ok(())
}

fn write_network(w: &mut impl Write, n: &NetworkConfig) -> fmt::Result {
    for d in &n.devices {
        writeln!(w, "device {}", d.name)?;
        write_device(w, d)?;
        w.write_str("end\n!\n")?;
    }
    for l in &n.links {
        writeln!(
            w,
            "link {} {} {} {}",
            l.a.device, l.a.iface, l.b.device, l.b.iface
        )?;
    }
    Ok(())
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
    print_network_into(&mut out, n);
    out
}

/// Appends a whole network to `out` — [`print_network`] into a buffer the
/// caller keeps (clear it between networks to reuse its allocation).
pub fn print_network_into(out: &mut String, n: &NetworkConfig) {
    write_network(out, n).expect("writing to a String cannot fail");
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
