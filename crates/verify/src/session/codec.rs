//! The `bonsai/session` v1 snapshot codec: a typed, **name-only**
//! document (devices by display name, classes by representative prefix)
//! between the enveloped JSON text and the session, so neither side of
//! [`Session::snapshot_json`](super::Session::snapshot_json) /
//! [`SessionBuilder::restore`](super::SessionBuilder::restore) touches
//! JSON and this file never touches a graph. The format itself is
//! documented on the [session module](super#snapshot-format); `encode`
//! writes it byte for byte as every v1 writer has.

use super::{PathAnswer, SESSION_SNAPSHOT_KIND, SESSION_SNAPSHOT_VERSION};
use crate::sweep::RefinementProvenance;
use bonsai_core::snapshot::{write_envelope, Envelope, Json, Layout, Object};
use std::sync::Arc;

/// Failed links by endpoint names.
type NamedLinks<S> = Vec<(S, S)>;

/// One snapshot. `S` is `&str` on the way out (names borrowed from the
/// graph) and `String` on the way in.
pub(super) struct SnapshotDoc<S> {
    pub k: usize,
    /// Optional on read (the builder's option stands when absent).
    pub prune_symmetric: Option<bool>,
    pub fingerprint: S,
    /// `(rep, refinements)` per served class, in class order.
    pub classes: Vec<(S, Vec<RefinementRecord<S>>)>,
    /// The verdict memo, `(rep, entries)` per class with entries.
    pub verdicts: Vec<(S, Vec<VerdictRecord<S>>)>,
    /// The path memo.
    pub paths: Vec<PathRecord<S>>,
}

/// One refinement: its representative scenario, the split that verified
/// it, and how the derivation went.
pub(super) struct RefinementRecord<S> {
    pub links: NamedLinks<S>,
    pub split: Vec<S>,
    pub localized_refuted: bool,
    pub deviating_rounds: usize,
    pub global_fallback: bool,
    pub provenance: RefinementProvenance,
}

/// One memoized verdict: `'1'`/`'0'` per concrete node, in node order.
pub(super) struct VerdictRecord<S> {
    pub links: NamedLinks<S>,
    pub bits: String,
}

/// One memoized path query with its answers.
pub(super) struct PathRecord<S> {
    pub src: S,
    pub dst: S,
    pub links: NamedLinks<S>,
    pub waypoints: Vec<S>,
    pub answers: Arc<Vec<PathAnswer>>,
}

/// Renders a verdict as one `'1'`/`'0'` per node, in node order.
pub(super) fn bits_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Parses a [`bits_string`] of exactly `n` bits; `None` on any other
/// length or character.
pub(super) fn parse_bits(s: &str, n: usize) -> Option<Vec<bool>> {
    if s.len() != n {
        return None;
    }
    s.chars()
        .map(|c| match c {
            '1' => Some(true),
            '0' => Some(false),
            _ => None,
        })
        .collect()
}

impl PathAnswer {
    /// The members of one path answer — the `path` op's reply rows and
    /// the snapshot's path memo are the same bytes.
    pub fn write_members(&self, o: &mut Object<'_>) {
        o.str("prefix", &self.prefix)
            .opt("lengths", self.lengths.as_deref(), |o, key, lengths| {
                o.uints(key, lengths.iter().copied())
            })
            .opt("waypointed", self.waypointed, Object::bool);
    }
}

/// `"<section>": [{"rep": …, "<list>": [rows…]}, …]` — the shape of both
/// per-class sections.
fn per_class<S: AsRef<str>, R>(
    payload: &mut Object<'_>,
    section: &str,
    list: &str,
    classes: &[(S, Vec<R>)],
    row: impl Fn(&mut Object<'_>, &R),
) {
    payload.rows(section, Layout::Spaced, classes, |o, (rep, rows)| {
        o.str("rep", rep.as_ref())
            .rows(list, Layout::Spaced, rows, &row);
    });
}

impl<S: AsRef<str>> SnapshotDoc<S> {
    /// The enveloped snapshot text.
    pub(super) fn encode(&self) -> String {
        let payload = |payload: &mut Object<'_>| {
            payload.uint("k", self.k);
            if let Some(prune) = self.prune_symmetric {
                payload.bool("prune_symmetric", prune);
            }
            payload.str("fingerprint", self.fingerprint.as_ref());
            per_class(payload, "ecs", "refinements", &self.classes, |o, r| {
                o.pairs("links", &r.links)
                    .strs("split", &r.split)
                    .bool("localized_refuted", r.localized_refuted)
                    .uint("deviating_rounds", r.deviating_rounds)
                    .bool("global_fallback", r.global_fallback)
                    .str("provenance", r.provenance.as_str());
            });
            per_class(payload, "verdicts", "entries", &self.verdicts, |o, v| {
                o.pairs("links", &v.links).str("bits", &v.bits);
            });
            payload.rows("paths", Layout::Spaced, &self.paths, |o, p| {
                o.str("src", p.src.as_ref())
                    .str("dst", p.dst.as_ref())
                    .pairs("links", &p.links)
                    .strs("waypoints", &p.waypoints)
                    .rows("answers", Layout::Spaced, p.answers.iter(), |o, a| {
                        a.write_members(o)
                    });
            });
        };
        write_envelope(
            SESSION_SNAPSHOT_KIND,
            SESSION_SNAPSHOT_VERSION,
            "unknown",
            "unknown",
            Layout::Spaced,
            payload,
        )
    }
}

/// `"<section>": [{"rep": …, "<list>": [rows…]}, …]`: the section and a
/// class's list may be absent, a class's `rep` may not.
fn read_per_class<R>(
    payload: &Json,
    section: &str,
    list: &str,
    row: impl Fn(&Json) -> Result<R, String>,
) -> Result<Vec<(String, Vec<R>)>, String> {
    let class = |class: &Json| {
        let rows = class.opt_arr(list)?.unwrap_or(&[]).iter();
        let rows = rows.map(&row).collect::<Result<_, _>>()?;
        Ok((class.str("rep")?.to_string(), rows))
    };
    let classes = payload.opt_arr(section)?.unwrap_or(&[]).iter();
    classes.map(class).collect()
}

impl SnapshotDoc<String> {
    /// Parses an enveloped snapshot; rejects other kinds, versions and
    /// pre-envelope dialects, and every member of the wrong type or shape,
    /// each with an explicit message. A member this version does not know
    /// is skipped; an optional one that is absent reads as its default.
    pub(super) fn decode(snapshot_text: &str) -> Result<Self, String> {
        let env = Envelope::parse_expecting(
            snapshot_text,
            SESSION_SNAPSHOT_KIND,
            SESSION_SNAPSHOT_VERSION,
        )?;
        let payload = &env.payload;
        let refinement = |r: &Json| {
            let provenance = r.opt_str("provenance")?;
            let provenance = provenance.unwrap_or(RefinementProvenance::Derived.as_str());
            let unknown = || format!("unknown refinement provenance \"{provenance}\"");
            Ok(RefinementRecord {
                links: r.pairs("links").or(Err("malformed refinement links"))?,
                split: r.opt_strs("split")?.unwrap_or_default(),
                localized_refuted: r.opt_bool("localized_refuted")?.unwrap_or(false),
                deviating_rounds: r.opt_usize("deviating_rounds")?.unwrap_or(0),
                global_fallback: r.opt_bool("global_fallback")?.unwrap_or(false),
                provenance: RefinementProvenance::parse(provenance).ok_or_else(unknown)?,
            })
        };
        let verdict = |v: &Json| {
            let bits = v.str("bits").or(Err("verdict entry has no bits"))?;
            Ok(VerdictRecord {
                links: v.pairs("links").or(Err("malformed snapshot links"))?,
                bits: bits.to_string(),
            })
        };
        let answer = |a: &Json| {
            let prefix = a.str("prefix").or(Err("path answer has no prefix"))?;
            Ok(PathAnswer {
                prefix: prefix.to_string(),
                lengths: a.nullable("lengths", Json::opt_uints)?,
                waypointed: a.nullable("waypointed", Json::opt_bool)?,
            })
        };
        let path = |p: &Json| {
            let answers = p.opt_arr("answers")?.unwrap_or(&[]).iter();
            Ok(PathRecord {
                src: p.str("src").or(Err("path entry has no src"))?.to_string(),
                dst: p.str("dst").or(Err("path entry has no dst"))?.to_string(),
                links: p.pairs("links").or(Err("malformed snapshot links"))?,
                waypoints: p.opt_strs("waypoints")?.unwrap_or_default(),
                answers: Arc::new(answers.map(answer).collect::<Result<_, String>>()?),
            })
        };
        let fingerprint = payload.str("fingerprint");
        payload.arr("ecs").or(Err("payload has no ecs"))?;
        let paths = payload.opt_arr("paths")?.unwrap_or(&[]).iter();
        Ok(SnapshotDoc {
            k: payload.usize("k").or(Err("payload has no k"))?,
            prune_symmetric: payload.opt_bool("prune_symmetric")?,
            fingerprint: fingerprint
                .or(Err("payload has no fingerprint"))?
                .to_string(),
            classes: read_per_class(payload, "ecs", "refinements", refinement)?,
            // The answer tier is optional and additive: absent in
            // snapshots written before it existed.
            verdicts: read_per_class(payload, "verdicts", "entries", verdict)?,
            paths: paths.map(path).collect::<Result<_, String>>()?,
        })
    }
}
