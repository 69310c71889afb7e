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

/// An optional array field: absent reads as empty.
fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

fn text(v: &Json, key: &str, of: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{of} has no {key}"))
}

/// An optional array of names (anything but a string is skipped).
fn names(v: &Json, key: &str) -> Vec<String> {
    items(v, key)
        .iter()
        .filter_map(|n| n.as_str().map(str::to_string))
        .collect()
}

/// `"links": [["a", "b"], …]`, required and strictly shaped.
fn named_links(v: &Json, malformed: &str) -> Result<NamedLinks<String>, String> {
    let pairs = v.get("links").and_then(Json::as_arr);
    pairs
        .and_then(|pairs| {
            pairs
                .iter()
                .map(|pair| match pair.as_arr()? {
                    [a, b] => Some((a.as_str()?.to_string(), b.as_str()?.to_string())),
                    _ => None,
                })
                .collect()
        })
        .ok_or_else(|| malformed.to_string())
}

/// An optional array field, each item decoded by `row`.
fn rows<R>(
    v: &Json,
    key: &str,
    row: impl Fn(&Json) -> Result<R, String>,
) -> Result<Vec<R>, String> {
    items(v, key).iter().map(row).collect()
}

/// `"<section>": [{"rep": …, "<list>": [rows…]}, …]`. A class without a
/// `rep` reads as `""`, which no network serves.
fn read_per_class<R>(
    payload: &Json,
    section: &str,
    list: &str,
    row: impl Fn(&Json) -> Result<R, String>,
) -> Result<Vec<(String, Vec<R>)>, String> {
    rows(payload, section, |class| {
        let rep = class.get("rep").and_then(Json::as_str).unwrap_or("");
        Ok((rep.to_string(), rows(class, list, &row)?))
    })
}

impl SnapshotDoc<String> {
    /// Parses an enveloped snapshot; rejects other kinds, versions and
    /// pre-envelope dialects, and every field of the wrong shape, each
    /// with an explicit message.
    pub(super) fn decode(snapshot_text: &str) -> Result<Self, String> {
        let env = Envelope::parse_expecting(
            snapshot_text,
            SESSION_SNAPSHOT_KIND,
            SESSION_SNAPSHOT_VERSION,
        )?;
        let payload = &env.payload;
        let refinement = |r: &Json| {
            let flag = |key: &str| r.get(key).and_then(Json::as_bool).unwrap_or(false);
            let provenance = r.get("provenance").and_then(Json::as_str);
            Ok(RefinementRecord {
                links: named_links(r, "malformed refinement links")?,
                split: names(r, "split"),
                localized_refuted: flag("localized_refuted"),
                deviating_rounds: r
                    .get("deviating_rounds")
                    .and_then(Json::as_usize)
                    .unwrap_or(0),
                global_fallback: flag("global_fallback"),
                provenance: provenance
                    .and_then(RefinementProvenance::parse)
                    .unwrap_or(RefinementProvenance::Derived),
            })
        };
        let verdict = |v: &Json| {
            Ok(VerdictRecord {
                links: named_links(v, "malformed snapshot links")?,
                bits: text(v, "bits", "verdict entry")?,
            })
        };
        let answer = |a: &Json| {
            Ok(PathAnswer {
                prefix: text(a, "prefix", "path answer")?,
                lengths: a
                    .get("lengths")
                    .and_then(Json::as_arr)
                    .map(|ls| ls.iter().filter_map(Json::as_usize).collect()),
                waypointed: a.get("waypointed").and_then(Json::as_bool),
            })
        };
        let path = |p: &Json| {
            Ok(PathRecord {
                src: text(p, "src", "path entry")?,
                dst: text(p, "dst", "path entry")?,
                links: named_links(p, "malformed snapshot links")?,
                waypoints: names(p, "waypoints"),
                answers: Arc::new(rows(p, "answers", answer)?),
            })
        };
        if payload.get("ecs").and_then(Json::as_arr).is_none() {
            return Err("payload has no ecs".into());
        }
        Ok(SnapshotDoc {
            k: payload
                .get("k")
                .and_then(Json::as_usize)
                .ok_or("payload has no k")?,
            prune_symmetric: payload.get("prune_symmetric").and_then(Json::as_bool),
            fingerprint: text(payload, "fingerprint", "payload")?,
            classes: read_per_class(payload, "ecs", "refinements", refinement)?,
            // The answer tier is optional and additive: absent in
            // snapshots written before it existed.
            verdicts: read_per_class(payload, "verdicts", "entries", verdict)?,
            paths: rows(payload, "paths", path)?,
        })
    }
}
