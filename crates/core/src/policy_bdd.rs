//! Compiling interface policies to canonical BDD signatures (paper §5.1,
//! Figure 10).
//!
//! For one destination equivalence class, the transfer function along an
//! edge is a function of the incoming advertisement's *communities* only —
//! the destination prefix is fixed, so every prefix-list and ACL match
//! collapses to a constant ("Specialize(bdds, G.d)"). We therefore encode
//! each edge's policy as a set of BDDs over one boolean variable per
//! community:
//!
//! * a **drop** predicate — inputs for which the route is discarded,
//! * per community, an **output function** — whether the community is
//!   attached after the edge,
//! * **case partitions** for local preference, MED and AS-path prepending —
//!   disjoint input conditions mapped to the resulting value.
//!
//! Because the BDD arena hash-conses, two policies are semantically
//! equivalent iff their signatures contain identical [`Ref`]s, making the
//! equality test inside abstraction refinement O(size of signature) with
//! O(1) per component — the paper's central engineering trick.
//!
//! **Lifecycle.** [`PolicyCtx`] is the single-threaded *compilation
//! kernel*: a community-variable model plus an owned arena. Production
//! compression does **not** build one per EC any more — a
//! [`CompiledPolicies`](crate::engine::CompiledPolicies) engine wraps one
//! `PolicyCtx` behind a lock and shares it (with cross-EC stage and
//! signature caches) across every class of a run. Construct a `PolicyCtx`
//! directly only for single-shot compilation: unit tests, the
//! differential interpreter tests, and one-off tooling.
//!
//! The compilation walks the exact same IOS first-match semantics as the
//! interpreter in [`bonsai_config::eval`]; the two are kept in lockstep by
//! differential property tests (`tests/policy_vs_interpreter.rs`).

use bonsai_bdd::{Bdd, Ref};
use bonsai_config::eval::prefix_list_permits;
use bonsai_config::{Action, Community, DeviceConfig, MatchCond, NetworkConfig, SetAction};
use bonsai_net::prefix::Prefix;
use std::collections::{BTreeSet, HashMap};

/// The community-variable compilation kernel: variable `i` of the arena
/// encodes presence of `communities[i]` on the incoming advertisement.
/// One instance backs a whole compression run (inside
/// [`CompiledPolicies`](crate::engine::CompiledPolicies)); standalone
/// instances are for tests and single-shot compilation.
pub struct PolicyCtx {
    /// The shared BDD arena.
    pub bdd: Bdd,
    /// Communities modeled as variables, ascending.
    pub communities: Vec<Community>,
    index: HashMap<Community, u32>,
}

impl PolicyCtx {
    /// Scans a network and allocates one variable per *relevant* community.
    ///
    /// A community is **matched** if some community list referenced by a
    /// route-map `match` contains it, and **written** if some `set
    /// community` adds or deletes it. With `strip_unused` (the attribute
    /// abstraction `h` used for the paper's data-center network, §8), only
    /// matched communities become variables: tags that are attached but
    /// never tested cannot influence any transfer function, so ignoring
    /// them merges otherwise-identical roles.
    pub fn from_network(network: &NetworkConfig, strip_unused: bool) -> Self {
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
        let communities: Vec<Community> = if strip_unused {
            matched.into_iter().collect()
        } else {
            matched.union(&written).copied().collect()
        };
        let index = communities
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i as u32))
            .collect();
        PolicyCtx {
            bdd: Bdd::new(),
            communities,
            index,
        }
    }

    /// The variable index of a community, if modeled.
    pub fn var_of(&self, c: Community) -> Option<u32> {
        self.index.get(&c).copied()
    }

    /// Identity input functions: community `i` is variable `i`.
    pub fn identity_inputs(&mut self) -> Vec<Ref> {
        (0..self.communities.len() as u32)
            .map(|i| self.bdd.var(i))
            .collect()
    }
}

/// The compiled effect of one route-map stage (an import or an export) on
/// symbolic inputs.
#[derive(Clone, Debug)]
pub struct StageOutput {
    /// Inputs for which the stage drops the route.
    pub drop: Ref,
    /// Per modeled community: its value after the stage (as a function of
    /// the *base* input variables).
    pub comm: Vec<Ref>,
    /// Disjoint conditions under which the stage explicitly sets the local
    /// preference to a value.
    pub lp: Vec<(u32, Ref)>,
    /// Disjoint conditions under which the stage sets the MED.
    pub med: Vec<(u32, Ref)>,
    /// Disjoint conditions for nonzero AS-path prepend counts.
    pub prepend: Vec<(u8, Ref)>,
}

impl StageOutput {
    /// The stage of an absent route map: permit everything unchanged.
    pub fn passthrough(inputs: &[Ref]) -> Self {
        StageOutput {
            drop: Ref::FALSE,
            comm: inputs.to_vec(),
            lp: Vec::new(),
            med: Vec::new(),
            prepend: Vec::new(),
        }
    }

    /// The stage of a dangling route-map reference: deny all (IOS).
    pub fn deny_all(inputs: &[Ref]) -> Self {
        StageOutput {
            drop: Ref::TRUE,
            comm: inputs.to_vec(),
            lp: Vec::new(),
            med: Vec::new(),
            prepend: Vec::new(),
        }
    }
}

/// Compiles one (optional, possibly dangling) route map of `device` for
/// destination `dest`, with community inputs given as functions of the base
/// variables (identity for a first stage; a previous stage's `comm` for
/// composition).
pub fn compile_stage(
    ctx: &mut PolicyCtx,
    device: &DeviceConfig,
    map: Option<&str>,
    dest: Prefix,
    inputs: &[Ref],
) -> StageOutput {
    let map = match map {
        None => return StageOutput::passthrough(inputs),
        Some(name) => match device.route_map(name) {
            Some(m) => m,
            None => return StageOutput::deny_all(inputs),
        },
    };

    // First-match chain: reach[i] = match[i] ∧ ¬match[0..i].
    let mut unmatched = Ref::TRUE;
    let mut drop = Ref::FALSE;
    let mut comm_out = inputs.to_vec();
    // Accumulated "which permit clause applied" conditions with their edits.
    let mut lp_groups: HashMap<u32, Ref> = HashMap::new();
    let mut med_groups: HashMap<u32, Ref> = HashMap::new();
    let mut prepend_groups: HashMap<u8, Ref> = HashMap::new();
    // comm rewrite: out_c = OR_i (reach_i ∧ clause_value_i(c)) ∨ (unmatched ∧ input_c)
    // built incrementally as ite chains.
    let mut comm_cases: Vec<Ref> = vec![Ref::FALSE; inputs.len()];

    for clause in &map.clauses {
        // Conjunction of the clause's match conditions.
        let mut m = Ref::TRUE;
        for cond in &clause.matches {
            let c = match cond {
                MatchCond::Community(list) => match device.community_list(list) {
                    Some(cl) => {
                        let lits: Vec<Ref> = cl
                            .communities
                            .iter()
                            .filter_map(|c| ctx.var_of(*c))
                            .map(|i| inputs[i as usize])
                            .collect();
                        ctx.bdd.or_all(lits)
                    }
                    None => Ref::FALSE, // dangling list never matches
                },
                MatchCond::PrefixList(list) => {
                    let permits = device
                        .prefix_list(list)
                        .map(|pl| prefix_list_permits(pl, dest))
                        .unwrap_or(false);
                    ctx.bdd.constant(permits)
                }
            };
            m = ctx.bdd.and(m, c);
        }
        let reach = ctx.bdd.and(unmatched, m);
        let not_m = ctx.bdd.not(m);
        unmatched = ctx.bdd.and(unmatched, not_m);
        if reach == Ref::FALSE {
            continue;
        }

        match clause.action {
            Action::Deny => {
                drop = ctx.bdd.or(drop, reach);
            }
            Action::Permit => {
                // Replay the clause's set actions like the interpreter:
                // later sets override earlier ones; add/delete cancel.
                let mut added: BTreeSet<Community> = BTreeSet::new();
                let mut deleted: BTreeSet<Community> = BTreeSet::new();
                let mut lp: Option<u32> = None;
                let mut med: Option<u32> = None;
                let mut prepend: u8 = 0;
                for s in &clause.sets {
                    match s {
                        SetAction::LocalPref(v) => lp = Some(*v),
                        SetAction::Metric(v) => med = Some(*v),
                        SetAction::Prepend(n) => prepend = prepend.saturating_add(*n),
                        SetAction::AddCommunity(c) => {
                            deleted.remove(c);
                            added.insert(*c);
                        }
                        SetAction::DeleteCommunity(c) => {
                            added.remove(c);
                            deleted.insert(*c);
                        }
                    }
                }
                for (i, c) in ctx.communities.clone().iter().enumerate() {
                    let value = if added.contains(c) {
                        Ref::TRUE
                    } else if deleted.contains(c) {
                        Ref::FALSE
                    } else {
                        inputs[i]
                    };
                    let piece = ctx.bdd.and(reach, value);
                    comm_cases[i] = ctx.bdd.or(comm_cases[i], piece);
                }
                if let Some(v) = lp {
                    let entry = lp_groups.entry(v).or_insert(Ref::FALSE);
                    *entry = ctx.bdd.or(*entry, reach);
                }
                if let Some(v) = med {
                    let entry = med_groups.entry(v).or_insert(Ref::FALSE);
                    *entry = ctx.bdd.or(*entry, reach);
                }
                if prepend > 0 {
                    let entry = prepend_groups.entry(prepend).or_insert(Ref::FALSE);
                    *entry = ctx.bdd.or(*entry, reach);
                }
            }
        }
    }

    // No clause matched: implicit deny.
    drop = ctx.bdd.or(drop, unmatched);

    // Final community functions: a permit clause's rewrite where one
    // applied; the (dropped) remainder is irrelevant but we keep the input
    // value there so drop-masking happens uniformly in the signature.
    for i in 0..comm_out.len() {
        let keep_input = ctx.bdd.and(drop, inputs[i]);
        comm_out[i] = ctx.bdd.or(comm_cases[i], keep_input);
    }

    let sorted = |groups: HashMap<u32, Ref>| -> Vec<(u32, Ref)> {
        let mut v: Vec<(u32, Ref)> = groups
            .into_iter()
            .filter(|(_, r)| *r != Ref::FALSE)
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    };
    let lp = sorted(lp_groups);
    let med = sorted(med_groups);
    let mut prepend: Vec<(u8, Ref)> = prepend_groups
        .into_iter()
        .filter(|(_, r)| *r != Ref::FALSE)
        .collect();
    prepend.sort_by_key(|(k, _)| *k);

    StageOutput {
        drop,
        comm: comm_out,
        lp,
        med,
        prepend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_config::parse_device;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ctx_for(device: &DeviceConfig, strip: bool) -> PolicyCtx {
        let mut net = NetworkConfig::default();
        net.devices.push(device.clone());
        PolicyCtx::from_network(&net, strip)
    }

    /// Figure 10: match community → set community + local-preference.
    #[test]
    fn figure_10_bdd() {
        let d = parse_device(
            "
hostname r
ip community-list dept permit 65001:1
ip community-list dept permit 65001:2
route-map M permit 10
 match community dept
 set community 65001:3 additive
 set local-preference 350
",
        )
        .unwrap();
        let mut ctx = ctx_for(&d, false);
        assert_eq!(ctx.communities.len(), 3); // 65001:1, 65001:2, 65001:3
        let inputs = ctx.identity_inputs();
        let out = compile_stage(&mut ctx, &d, Some("M"), p("10.0.0.0/24"), &inputs);

        let c1 = ctx.var_of(Community::new(65001, 1)).unwrap() as usize;
        let c2 = ctx.var_of(Community::new(65001, 2)).unwrap() as usize;
        let c3 = ctx.var_of(Community::new(65001, 3)).unwrap() as usize;

        // Dropped iff neither 65001:1 nor 65001:2 present.
        let mut a = vec![false; 3];
        assert!(ctx.bdd.eval(out.drop, &a));
        a[c1] = true;
        assert!(!ctx.bdd.eval(out.drop, &a));
        // When it matches, 65001:3 is attached and lp = 350.
        assert!(ctx.bdd.eval(out.comm[c3], &a));
        assert_eq!(out.lp.len(), 1);
        assert_eq!(out.lp[0].0, 350);
        assert!(ctx.bdd.eval(out.lp[0].1, &a));
        a[c1] = false;
        a[c2] = true;
        assert!(ctx.bdd.eval(out.comm[c3], &a));
    }

    #[test]
    fn passthrough_and_dangling() {
        let d = parse_device("hostname r").unwrap();
        let mut ctx = ctx_for(&d, false);
        let inputs = ctx.identity_inputs();
        let none = compile_stage(&mut ctx, &d, None, p("10.0.0.0/24"), &inputs);
        assert_eq!(none.drop, Ref::FALSE);
        let dangling = compile_stage(&mut ctx, &d, Some("MISSING"), p("10.0.0.0/24"), &inputs);
        assert_eq!(dangling.drop, Ref::TRUE);
    }

    #[test]
    fn prefix_list_specializes_to_constant() {
        let d = parse_device(
            "
hostname r
ip prefix-list TEN seq 5 permit 10.0.0.0/8 le 32
route-map M deny 10
 match ip address prefix-list TEN
route-map M permit 20
",
        )
        .unwrap();
        let mut ctx = ctx_for(&d, false);
        let inputs = ctx.identity_inputs();
        // Destination inside 10/8: clause 10 denies everything.
        let out = compile_stage(&mut ctx, &d, Some("M"), p("10.1.0.0/24"), &inputs);
        assert_eq!(out.drop, Ref::TRUE);
        // Destination outside: clause 20 permits everything.
        let out = compile_stage(&mut ctx, &d, Some("M"), p("192.168.0.0/24"), &inputs);
        assert_eq!(out.drop, Ref::FALSE);
    }

    /// Identical policies written differently compile to identical Refs —
    /// the canonicity the refinement loop relies on.
    #[test]
    fn semantically_equal_maps_share_refs() {
        let d = parse_device(
            "
hostname r
ip community-list one permit 7:1
ip community-list also_one permit 7:1
route-map A permit 10
 match community one
 set local-preference 200
route-map B permit 10
 match community also_one
 set local-preference 200
",
        )
        .unwrap();
        let mut ctx = ctx_for(&d, false);
        let inputs = ctx.identity_inputs();
        let a = compile_stage(&mut ctx, &d, Some("A"), p("10.0.0.0/24"), &inputs);
        let b = compile_stage(&mut ctx, &d, Some("B"), p("10.0.0.0/24"), &inputs);
        assert_eq!(a.drop, b.drop);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.lp, b.lp);
    }

    /// strip_unused removes never-matched communities from the model.
    #[test]
    fn strip_unused_communities() {
        let d = parse_device(
            "
hostname r
ip community-list used permit 7:1
route-map M permit 10
 match community used
 set community 9:9 additive
",
        )
        .unwrap();
        let full = ctx_for(&d, false);
        assert_eq!(full.communities.len(), 2);
        let stripped = ctx_for(&d, true);
        assert_eq!(stripped.communities, vec![Community::new(7, 1)]);
    }

    /// Two roles that differ only by an unused tag become equal under h.
    #[test]
    fn unused_tag_difference_vanishes_under_h() {
        let d1 = parse_device(
            "
hostname r1
route-map M permit 10
 set community 9:1 additive
",
        )
        .unwrap();
        let d2 = parse_device(
            "
hostname r2
route-map M permit 10
 set community 9:2 additive
",
        )
        .unwrap();
        let mut net = NetworkConfig::default();
        net.devices.push(d1.clone());
        net.devices.push(d2.clone());
        // Without stripping, the two maps differ.
        let mut ctx = PolicyCtx::from_network(&net, false);
        let inputs = ctx.identity_inputs();
        let a = compile_stage(&mut ctx, &d1, Some("M"), p("10.0.0.0/24"), &inputs);
        let b = compile_stage(&mut ctx, &d2, Some("M"), p("10.0.0.0/24"), &inputs);
        assert_ne!(a.comm, b.comm);
        // With stripping, both are the identity on the (empty) variable set.
        let mut ctx = PolicyCtx::from_network(&net, true);
        assert!(ctx.communities.is_empty());
        let inputs = ctx.identity_inputs();
        let a = compile_stage(&mut ctx, &d1, Some("M"), p("10.0.0.0/24"), &inputs);
        let b = compile_stage(&mut ctx, &d2, Some("M"), p("10.0.0.0/24"), &inputs);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.drop, b.drop);
    }

    #[test]
    fn first_match_shadows_later_clauses() {
        let d = parse_device(
            "
hostname r
ip community-list x permit 5:5
route-map M permit 10
 set local-preference 111
route-map M permit 20
 match community x
 set local-preference 222
",
        )
        .unwrap();
        let mut ctx = ctx_for(&d, false);
        let inputs = ctx.identity_inputs();
        let out = compile_stage(&mut ctx, &d, Some("M"), p("10.0.0.0/24"), &inputs);
        // Clause 10 matches everything, so lp 222 is unreachable.
        assert_eq!(out.lp.len(), 1);
        assert_eq!(out.lp[0].0, 111);
        assert_eq!(out.lp[0].1, Ref::TRUE);
        assert_eq!(out.drop, Ref::FALSE);
    }
}
