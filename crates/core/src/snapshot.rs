//! The shared snapshot serializer: the workspace's one JSON reader, its
//! one JSON writer, and the one versioned **envelope** every persisted
//! artifact uses.
//!
//! The workspace is offline (no serde). Everything a machine consumes —
//! wire replies, snapshots, the `cli/*` and `bench/*` documents, trace
//! lines — is *written* through the streaming writer re-exported here
//! ([`write_object`], [`Object`], [`Layout`]; it lives in
//! [`bonsai_obs::json`], below the tracer that also uses it) and *read
//! back* by the daemon, the document mergers and the count gate with the
//! recursive-descent parser below. The reader supports exactly the JSON
//! the writer emits — objects, arrays, strings (with its escapes), finite
//! numbers, booleans and null — nested at most [`MAX_DEPTH`] deep, and
//! rejects anything else with a byte offset. A parsed document's members
//! are read through the typed accessors on [`Json`] (`str`, `usize`, …,
//! `opt_*`), the one place where an absent member is told from a
//! wrong-typed one.
//!
//! # The envelope (`bonsai/envelope-v1`)
//!
//! Historically each producer invented its own top-level schema
//! (`bonsai-bench/compress-v1`, `bonsai-bench/failures-v3`,
//! `bonsai-cli/failures-v1`). Every snapshot now shares one envelope:
//!
//! ```json
//! {
//!   "schema": "bonsai/envelope-v1",
//!   "kind": "bench/failures",
//!   "version": 4,
//!   "git_sha": "…",
//!   "toolchain": "…",
//!   "payload": { … }
//! }
//! ```
//!
//! * `schema` is always the literal [`ENVELOPE_SCHEMA`].
//! * `kind` names the payload family (`"bench/compress"`,
//!   `"bench/failures"`, `"cli/failures"`, `"bonsai/session"` …).
//! * `version` is the payload's own schema version; readers bump it when
//!   the payload shape changes incompatibly.
//! * `payload` is the kind-specific document.
//!
//! [`Envelope::parse`] recognizes the pre-envelope dialects and fails
//! with an explicit "legacy snapshot" message telling the caller to
//! regenerate, rather than a confusing field-missing error.

pub use bonsai_obs::json::{escape_into, write_object, Layout, Object, Uint};
use std::fmt;

/// How deep the reader follows nested arrays and objects. The deepest
/// document the workspace writes nests 7 (envelope → payload → `paths[]`
/// → entry → `answers[]` → answer → `lengths[]`); the bound keeps a line
/// of `[` from recursing the parser off its stack.
pub const MAX_DEPTH: usize = 64;

/// How many bytes of a file a *client* names are read (the daemon's
/// `reload` by `path`). Two orders of magnitude above the largest
/// configuration in the tree; the bound, with a regular-file check, keeps
/// `/dev/zero` from growing the daemon until the OOM killer ends it.
pub const MAX_CONFIG_FILE_BYTES: u64 = 64 << 20;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, which covers every value the
    /// snapshot writers emit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most readers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer: `None` for a negative,
    /// fractional or non-finite number and beyond 2^53, where an `f64`
    /// stops holding every integer. A float→int `as` cast would saturate
    /// and truncate those instead (`-1` → 0, `1.5` → 1).
    pub fn as_usize(&self) -> Option<usize> {
        const EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| (0.0..=EXACT).contains(n) && n.fract() == 0.0)
            .and_then(|n| usize::try_from(n as u64).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// # Typed member reads
///
/// Every document the workspace accepts — request lines, session
/// snapshots, `cli/failures`, the envelope header — reads its members
/// through these, so what *absent* and *wrong type* mean is decided here
/// and nowhere else:
///
/// * an **optional** member (`opt_*`) is `Ok(None)` when absent — the
///   caller's default stands — and a refusal naming the member and what
///   was expected when present with any other type, `null` included;
/// * a **required** member (no prefix) is one refusal, `missing <kind>
///   field` with the member named, whether it is absent or wrong-typed. A
///   caller whose message is pinned elsewhere replaces it
///   (`.or(Err("…"))`); it cannot make the two cases differ.
impl Json {
    /// The one place the three outcomes of a member read are told apart.
    fn member<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key).map(read) {
            None => Ok(None),
            Some(Some(value)) => Ok(Some(value)),
            Some(None) => Err(format!("\"{key}\" must be {expected}")),
        }
    }

    /// The reader's half of [`Object::opt`], which writes a value that is
    /// not there as `null`: such a member reads as absent through `read`,
    /// one of the `opt_*` accessors.
    pub fn nullable<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json, &str) -> Result<Option<T>, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            Some(Json::Null) => Ok(None),
            _ => read(self, key),
        }
    }

    /// An optional string member.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.member(key, "a string", Json::as_str)
    }

    /// An optional exact non-negative integer member ([`Json::as_usize`]).
    pub fn opt_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.member(key, "a non-negative integer", Json::as_usize)
    }

    /// An optional boolean member.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.member(key, "true or false", Json::as_bool)
    }

    /// An optional array member.
    pub fn opt_arr(&self, key: &str) -> Result<Option<&[Json]>, String> {
        self.member(key, "an array", Json::as_arr)
    }

    /// An optional array of strings — what [`Object::strs`] writes.
    pub fn opt_strs(&self, key: &str) -> Result<Option<Vec<String>>, String> {
        self.member(key, "an array of strings", |v| {
            let items = v.as_arr()?.iter();
            items.map(|s| s.as_str().map(str::to_string)).collect()
        })
    }

    /// An optional array of exact non-negative integers — what
    /// [`Object::uints`] writes.
    pub fn opt_uints(&self, key: &str) -> Result<Option<Vec<usize>>, String> {
        self.member(key, "an array of non-negative integers", |v| {
            v.as_arr()?.iter().map(Json::as_usize).collect()
        })
    }

    /// An optional array of `[name, name]` pairs — what [`Object::pairs`]
    /// writes, and in every document that has one a set of links by their
    /// endpoint names. The first item that is not a pair is refused as the
    /// member's shape, the first pair holding anything but two strings as
    /// its endpoints.
    pub fn opt_pairs(&self, key: &str) -> Result<Option<Vec<(String, String)>>, String> {
        let mut endpoints = false;
        let pairs = self.member(key, "an array of [name, name] pairs", |v| {
            let pair = |pair: &Json| match pair.as_arr()? {
                [a, b] => {
                    let names = a.as_str().zip(b.as_str());
                    endpoints = names.is_none();
                    names.map(|(a, b)| (a.to_string(), b.to_string()))
                }
                _ => None,
            };
            v.as_arr()?.iter().map(pair).collect()
        });
        if endpoints {
            return Err("link endpoints must be strings".to_string());
        }
        pairs
    }

    /// A required string member.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        required(self.opt_str(key), "string", key)
    }

    /// A required exact non-negative integer member.
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        required(self.opt_usize(key), "integer", key)
    }

    /// A required boolean member.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        required(self.opt_bool(key), "boolean", key)
    }

    /// A required array member.
    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        required(self.opt_arr(key), "array", key)
    }

    /// A required array of `[name, name]` pairs.
    pub fn pairs(&self, key: &str) -> Result<Vec<(String, String)>, String> {
        required(self.opt_pairs(key), "pair array", key)
    }
}

/// The required reading of a member: absent and wrong-typed are the same
/// refusal.
fn required<T>(member: Result<Option<T>, String>, kind: &str, key: &str) -> Result<T, String> {
    let value = member.ok().flatten();
    value.ok_or_else(|| format!("missing {kind} field `{key}`"))
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// The one top-level schema identifier shared by every snapshot.
pub const ENVELOPE_SCHEMA: &str = "bonsai/envelope-v1";

/// A decoded snapshot envelope: the common header plus the kind-specific
/// payload document.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Payload family, e.g. `"bench/failures"` or `"bonsai/session"`.
    pub kind: String,
    /// Payload schema version within the kind.
    pub version: u32,
    /// Producing commit (`"unknown"` outside a git checkout).
    pub git_sha: String,
    /// Producing `rustc -V` line (`"unknown"` if unavailable).
    pub toolchain: String,
    /// The kind-specific document.
    pub payload: Json,
}

impl Envelope {
    /// Parses and validates an enveloped snapshot.
    ///
    /// Pre-envelope snapshots (top-level `"schema"` of the
    /// `bonsai-bench/...` / `bonsai-cli/...` families) are detected and
    /// rejected with an explicit message asking the caller to regenerate
    /// them with the current writers.
    pub fn parse(text: &str) -> Result<Envelope, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .str("schema")
            .or(Err("snapshot has no top-level \"schema\" field"))?;
        if schema != ENVELOPE_SCHEMA {
            if schema.starts_with("bonsai-bench/") || schema.starts_with("bonsai-cli/") {
                return Err(format!(
                    "legacy snapshot schema \"{schema}\": pre-envelope snapshots are no \
                     longer readable — regenerate it with the current writers \
                     (expected \"{ENVELOPE_SCHEMA}\")"
                ));
            }
            return Err(format!(
                "unknown snapshot schema \"{schema}\" (expected \"{ENVELOPE_SCHEMA}\")"
            ));
        }
        let kind = doc.str("kind").or(Err("envelope has no \"kind\" field"))?;
        let kind = kind.to_string();
        let version = doc.usize("version").ok();
        let version = version.and_then(|v| u32::try_from(v).ok());
        let version = version.ok_or("envelope has no numeric \"version\" field")?;
        let git_sha = doc.opt_str("git_sha")?.unwrap_or("unknown").to_string();
        let toolchain = doc.opt_str("toolchain")?.unwrap_or("unknown").to_string();
        // Taken out of the parsed object, not cloned: the payload is the
        // whole document but for five header fields.
        let payload = match doc {
            Json::Obj(mut fields) => fields
                .iter()
                .rposition(|(k, _)| k == "payload")
                .map(|i| fields.swap_remove(i).1),
            _ => None,
        }
        .ok_or_else(|| "envelope has no \"payload\" field".to_string())?;
        Ok(Envelope {
            kind,
            version,
            git_sha,
            toolchain,
            payload,
        })
    }

    /// Like [`Envelope::parse`], but additionally checks the payload
    /// family and version, with explicit mismatch messages.
    pub fn parse_expecting(text: &str, kind: &str, version: u32) -> Result<Envelope, String> {
        let env = Envelope::parse(text)?;
        if env.kind != kind {
            return Err(format!(
                "snapshot kind mismatch: got \"{}\", expected \"{kind}\"",
                env.kind
            ));
        }
        if env.version != version {
            return Err(format!(
                "snapshot version mismatch for kind \"{kind}\": got v{}, expected v{version} \
                 — regenerate the snapshot with the current writers",
                env.version
            ));
        }
        Ok(env)
    }
}

/// Renders an enveloped document: the header, then the payload object
/// `payload` fills, laid out as `layout`, then a newline.
pub fn write_envelope(
    kind: &str,
    version: u32,
    git_sha: &str,
    toolchain: &str,
    layout: Layout,
    payload: impl FnOnce(&mut Object<'_>),
) -> String {
    let mut out = String::new();
    write_object(&mut out, Layout::Lines(2), |envelope| {
        envelope
            .str("schema", ENVELOPE_SCHEMA)
            .str("kind", kind)
            .uint("version", version)
            .str("git_sha", git_sha)
            .str("toolchain", toolchain)
            .object("payload", layout, payload);
    });
    out.push('\n');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. All three are ASCII, so the run ends on a scalar
            // boundary and is validated on its own — once, not once per
            // character over the rest of the document.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(run) => out.push_str(run),
                Err(e) => {
                    self.pos = start + e.valid_up_to();
                    return Err(self.err("invalid UTF-8"));
                }
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            // The snapshot writer only escapes control
                            // characters (< 0x20); surrogate pairs are out
                            // of scope and rejected.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snapshot_shaped_document() {
        let doc = r#"{
          "schema": "bonsai/envelope-v1",
          "rows": [
            {"label": "Fattree4", "times": {"total_s": 0.012500, "bdd_s": 0.000800}},
            {"label": "Ring20", "times": {"total_s": 0.002000, "bdd_s": 0.000100}}
          ],
          "ok": true, "missing": null, "neg": -1.5e-3
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("bonsai/envelope-v1")
        );
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("label").and_then(Json::as_str),
            Some("Fattree4")
        );
        let t = rows[0].get("times").unwrap();
        assert_eq!(t.get("total_s").and_then(Json::as_f64), Some(0.0125));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), Some(&Json::Null));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-0.0015));
    }

    #[test]
    fn roundtrips_writer_escapes() {
        let doc = "{\"s\": \"a\\\"b\\\\c\\nd\\u0007e\"}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\nd\u{7}e"));
    }

    #[test]
    fn string_runs_end_exactly_at_escapes_quotes_and_control_bytes() {
        let parse = |doc: &str| Json::parse(doc).map(|v| v.as_str().map(str::to_string));
        // Multi-byte scalars on both sides of an escape and of the
        // closing quote.
        assert_eq!(parse("\"é\\né\""), Ok(Some("é\né".into())));
        assert_eq!(parse("\"日本\\\"語\""), Ok(Some("日本\"語".into())));
        assert_eq!(parse("\"\\t€\""), Ok(Some("\t€".into())));
        // `\u` escapes between runs, and back to back.
        assert_eq!(parse("\"a\\u00e9b\""), Ok(Some("aéb".into())));
        assert_eq!(parse("\"\\u0007\\u0041€\""), Ok(Some("\u{7}A€".into())));
        assert_eq!(parse("\"\""), Ok(Some(String::new())));
        // A raw control byte in the middle of a run is rejected at its own
        // offset (the `é` before it is two bytes), a bad escape at the
        // escaped character's.
        let err = parse("\"é\u{1}cd\"").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (3, "raw control character in string")
        );
        let err = parse("\"ab\\qcd\"").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (4, "unknown escape"));
        let err = parse("\"ab\\u00zz\"").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (4, "bad \\u escape"));
        let err = parse("\"abé").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (5, "unterminated string")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "{\"a\" 1}",
            "nulll",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn envelope_roundtrips() {
        let doc = write_envelope(
            "bench/failures",
            4,
            "abc123",
            "rustc 1.0",
            Layout::Spaced,
            |p| {
                p.rendered("rows", Layout::Spaced, [""; 0]);
            },
        );
        assert_eq!(
            doc,
            "{\n  \"schema\": \"bonsai/envelope-v1\",\n  \"kind\": \"bench/failures\",\n  \
             \"version\": 4,\n  \"git_sha\": \"abc123\",\n  \"toolchain\": \"rustc 1.0\",\n  \
             \"payload\": {\"rows\": []}\n}\n"
        );
        let env = Envelope::parse(&doc).unwrap();
        assert_eq!(env.kind, "bench/failures");
        assert_eq!(env.version, 4);
        assert_eq!(env.git_sha, "abc123");
        assert_eq!(env.toolchain, "rustc 1.0");
        assert_eq!(
            env.payload.get("rows").and_then(Json::as_arr),
            Some(&[][..])
        );
        Envelope::parse_expecting(&doc, "bench/failures", 4).unwrap();
        // The payload is moved out of the document; a repeated key keeps
        // the last value, as `Json::get` does.
        let twice = doc.replace("\"payload\":", "\"payload\": 1, \"payload\":");
        assert_eq!(Envelope::parse(&twice).unwrap().payload, env.payload);
        let err = Envelope::parse(&doc.replace("\"payload\"", "\"body\"")).unwrap_err();
        assert!(err.contains("no \"payload\" field"), "{err}");
        // The provenance members are optional, not untyped.
        let anonymous = doc.replace("\"git_sha\": \"abc123\",", "");
        assert_eq!(Envelope::parse(&anonymous).unwrap().git_sha, "unknown");
        let err = Envelope::parse(&doc.replace("\"abc123\"", "7")).unwrap_err();
        assert_eq!(err, "\"git_sha\" must be a string");
    }

    #[test]
    fn legacy_schemas_fail_with_explicit_message() {
        for legacy in [
            "bonsai-bench/compress-v1",
            "bonsai-bench/failures-v3",
            "bonsai-cli/failures-v1",
        ] {
            let doc = format!("{{\"schema\": \"{legacy}\", \"rows\": []}}");
            let err = Envelope::parse(&doc).unwrap_err();
            assert!(
                err.contains("legacy snapshot schema") && err.contains("regenerate"),
                "unexpected error for {legacy}: {err}"
            );
        }
        let err = Envelope::parse("{\"rows\": []}").unwrap_err();
        assert!(err.contains("no top-level"), "{err}");
    }

    #[test]
    fn kind_and_version_mismatches_are_explicit() {
        let doc = write_envelope("bench/compress", 1, "x", "y", Layout::Spaced, |_| {});
        let err = Envelope::parse_expecting(&doc, "bench/failures", 4).unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
        let err = Envelope::parse_expecting(&doc, "bench/compress", 2).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
    }

    #[test]
    fn integers_are_read_exactly_or_not_at_all() {
        let as_usize = |text: &str| Json::parse(text).unwrap().as_usize();
        assert_eq!(as_usize("0"), Some(0));
        assert_eq!(as_usize("42"), Some(42));
        assert_eq!(as_usize("4e2"), Some(400));
        assert_eq!(as_usize("9007199254740992"), Some(1 << 53));
        for bad in ["-1", "1.5", "-0.5", "1e300", "9007199254740994", "\"3\""] {
            assert_eq!(as_usize(bad), None, "{bad}");
        }
        // An `as u32` cast used to read this envelope as version 3.
        let doc = write_envelope("cli/failures", 3, "x", "y", Layout::Spaced, |_| {})
            .replace("\"version\": 3", "\"version\": 3.9");
        assert!(doc.contains("3.9"), "{doc}");
        let err = Envelope::parse_expecting(&doc, "cli/failures", 3).unwrap_err();
        assert!(err.contains("no numeric \"version\""), "{err}");
    }

    #[test]
    fn a_member_is_absent_wrong_typed_or_a_value() {
        let doc = Json::parse(
            r#"{"s": "x", "n": 3, "b": true, "a": [1, "y"], "names": ["u", "v"], "ns": [1, 2],
                "links": [["u", "v"], ["v", "w"]], "nothing": null, "neg": -1}"#,
        )
        .unwrap();
        fn refused<T>(message: &str) -> Result<T, String> {
            Err(message.to_string())
        }
        // A value reads the same through both flavours.
        assert_eq!(doc.opt_str("s"), Ok(Some("x")));
        assert_eq!(doc.str("s"), Ok("x"));
        assert_eq!((doc.opt_usize("n"), doc.usize("n")), (Ok(Some(3)), Ok(3)));
        assert_eq!(
            (doc.opt_bool("b"), doc.bool("b")),
            (Ok(Some(true)), Ok(true))
        );
        assert_eq!(doc.arr("a").map(<[Json]>::len), Ok(2));
        assert_eq!(
            doc.opt_strs("names"),
            Ok(Some(vec!["u".into(), "v".into()]))
        );
        assert_eq!(doc.opt_uints("ns"), Ok(Some(vec![1, 2])));
        let links = vec![("u".into(), "v".into()), ("v".into(), "w".into())];
        assert_eq!(doc.opt_pairs("links"), Ok(Some(links.clone())));
        assert_eq!(doc.pairs("links"), Ok(links));
        // Absent: the optional flavour leaves the default to the caller,
        // the required one refuses.
        assert_eq!(doc.opt_str("zz"), Ok(None));
        assert_eq!(doc.opt_pairs("zz"), Ok(None));
        assert_eq!(doc.str("zz"), refused("missing string field `zz`"));
        assert_eq!(doc.arr("zz"), refused("missing array field `zz`"));
        // Wrong type: the optional flavour names the member and what it
        // expected; the required one cannot tell it from absent.
        assert_eq!(doc.opt_str("n"), refused("\"n\" must be a string"));
        assert_eq!(doc.str("n"), refused("missing string field `n`"));
        assert_eq!(
            doc.opt_usize("neg"),
            refused("\"neg\" must be a non-negative integer")
        );
        assert_eq!(doc.usize("neg"), refused("missing integer field `neg`"));
        assert_eq!(doc.opt_bool("s"), refused("\"s\" must be true or false"));
        assert_eq!(doc.bool("s"), refused("missing boolean field `s`"));
        assert_eq!(doc.opt_arr("s"), refused("\"s\" must be an array"));
        assert_eq!(
            doc.opt_strs("a"),
            refused("\"a\" must be an array of strings")
        );
        assert_eq!(
            doc.opt_uints("a"),
            refused("\"a\" must be an array of non-negative integers")
        );
        assert_eq!(doc.pairs("a"), refused("missing pair array field `a`"));
        // `null` is a value of the wrong type, except where the writer's
        // `opt` put it.
        assert_eq!(
            doc.opt_bool("nothing"),
            refused("\"nothing\" must be true or false")
        );
        assert_eq!(
            doc.str("nothing"),
            refused("missing string field `nothing`")
        );
        assert_eq!(doc.nullable("nothing", Json::opt_bool), Ok(None));
        assert_eq!(doc.nullable("zz", Json::opt_bool), Ok(None));
        assert_eq!(doc.nullable("b", Json::opt_bool), Ok(Some(true)));
        assert_eq!(doc.nullable("ns", Json::opt_uints), Ok(Some(vec![1, 2])));
        assert_eq!(
            doc.nullable("s", Json::opt_bool),
            refused("\"s\" must be true or false")
        );
        // A member of anything but an object is absent.
        assert_eq!(Json::Num(7.0).opt_str("s"), Ok(None));
    }

    #[test]
    fn pairs_are_refused_at_the_first_item_that_is_not_one() {
        let pairs = |links: &str| {
            let doc = Json::parse(&format!("{{\"links\": {links}}}")).unwrap();
            doc.opt_pairs("links").unwrap_err()
        };
        let shape = "\"links\" must be an array of [name, name] pairs";
        let endpoints = "link endpoints must be strings";
        for links in [
            "7",
            "\"u:v\"",
            "{}",
            "null",
            "[\"u\", \"v\"]",
            "[[]]",
            "[[\"u\"]]",
            "[[\"u\", \"v\", \"w\"]]",
            "[[\"u\", 7, \"w\"]]",
            "[[\"u\", \"v\"], [\"w\"]]",
            "[[\"u\"], [\"v\", 7]]",
        ] {
            assert_eq!(pairs(links), shape, "{links}");
        }
        for links in [
            "[[\"u\", 7]]",
            "[[7, \"v\"]]",
            "[[\"u\", null]]",
            "[[\"u\", \"v\"], [[], \"w\"]]",
            "[[\"u\", 7], [\"w\"]]",
        ] {
            assert_eq!(pairs(links), endpoints, "{links}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_byte() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            Json::parse(&nested(open, close, MAX_DEPTH)).expect("the bound itself parses");
            let err = Json::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (MAX_DEPTH * open.len(), "nesting deeper than 64")
            );
        }
        // Siblings do not accumulate: depth counts what is open, not seen.
        let wide = format!("[{}]", vec!["[[1]]"; 1000].join(","));
        Json::parse(&wide).expect("1000 shallow siblings");
        // The line that used to abort the process: no recursion is left to
        // overflow even a 256 KB stack.
        let verdict = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| Json::parse(&"[".repeat(1_000_000)).map_err(|e| e.offset))
            .expect("thread spawns")
            .join()
            .expect("the parser returns instead of overflowing");
        assert_eq!(verdict, Err(MAX_DEPTH));
    }

    /// A tree the writer can render: each variant is one member type.
    #[derive(Clone, Debug)]
    enum Member {
        Uint(u64),
        Bool(bool),
        Str(String),
        Float(f64),
        OptStr(Option<String>),
        Strs(Vec<String>),
        Uints(Vec<u64>),
        Pairs(Vec<(String, String)>),
        Object(Vec<(String, Member)>),
        Rows(Vec<Vec<(String, Member)>>),
    }

    fn write_members(o: &mut Object<'_>, layout: Layout, members: &[(String, Member)]) {
        for (key, member) in members {
            match member {
                Member::Uint(n) => o.uint(key, *n),
                Member::Bool(b) => o.bool(key, *b),
                Member::Str(s) => o.str(key, s),
                Member::Float(f) => o.float(key, *f, 6),
                Member::OptStr(s) => o.opt(key, s.as_deref(), Object::str),
                Member::Strs(items) => o.strs(key, items),
                Member::Uints(items) => o.uints(key, items.iter().copied()),
                Member::Pairs(items) => o.pairs(key, items),
                Member::Object(inner) => o.object(key, layout, |o| write_members(o, layout, inner)),
                Member::Rows(rows) => {
                    o.rows(key, layout, rows, |o, row| write_members(o, layout, row))
                }
            };
        }
    }

    /// What the reader must hand back for `members`.
    fn expected(members: &[(String, Member)]) -> Json {
        let strs = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
        let fields = members.iter().map(|(key, member)| {
            let value = match member {
                Member::Uint(n) => Json::Num(*n as f64),
                Member::Bool(b) => Json::Bool(*b),
                Member::Str(s) => Json::Str(s.clone()),
                Member::Float(f) if f.is_finite() => Json::Num(format!("{f:.6}").parse().unwrap()),
                Member::Float(_) | Member::OptStr(None) => Json::Null,
                Member::OptStr(Some(s)) => Json::Str(s.clone()),
                Member::Strs(items) => strs(items),
                Member::Uints(items) => {
                    Json::Arr(items.iter().map(|n| Json::Num(*n as f64)).collect())
                }
                Member::Pairs(items) => Json::Arr(
                    items
                        .iter()
                        .map(|(a, b)| strs(&[a.clone(), b.clone()]))
                        .collect(),
                ),
                Member::Object(inner) => expected(inner),
                Member::Rows(rows) => Json::Arr(rows.iter().map(|row| expected(row)).collect()),
            };
            (key.clone(), value)
        });
        Json::Obj(fields.collect())
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Everything the escape loop distinguishes, multi-byte scalars
        /// and the characters JSON gives a meaning to.
        const CHARS: [char; 21] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', '日', '🦀', '{', '[', ',', ':',
        ];
        const FLOATS: [f64; 9] = [
            0.0,
            -0.0,
            1.5,
            -2.25e-7,
            1e15,
            2.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];

        fn text() -> impl Strategy<Value = String> {
            prop::collection::vec(0..CHARS.len(), 0..6)
                .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
        }

        fn leaf() -> impl Strategy<Value = Member> {
            prop_oneof![
                (0u64..(1 << 53)).prop_map(Member::Uint),
                any::<bool>().prop_map(Member::Bool),
                text().prop_map(Member::Str),
                (0..FLOATS.len()).prop_map(|i| Member::Float(FLOATS[i])),
                prop::option::of(text()).prop_map(Member::OptStr),
                prop::collection::vec(text(), 0..3).prop_map(Member::Strs),
                prop::collection::vec(0u64..1000, 0..3).prop_map(Member::Uints),
                prop::collection::vec((text(), text()), 0..3).prop_map(Member::Pairs),
            ]
        }

        fn members(
            of: impl Strategy<Value = Member>,
        ) -> impl Strategy<Value = Vec<(String, Member)>> {
            prop::collection::vec((text(), of), 0..4)
        }

        fn tree() -> impl Strategy<Value = Vec<(String, Member)>> {
            members(leaf().prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    members(inner.clone()).prop_map(Member::Object),
                    prop::collection::vec(members(inner), 0..3).prop_map(Member::Rows),
                ]
            }))
        }

        proptest! {
            #[test]
            fn the_reader_reads_back_what_the_writer_renders(tree in tree()) {
                for layout in [Layout::Spaced, Layout::Compact, Layout::Lines(2)] {
                    let mut text = String::new();
                    write_object(&mut text, layout, |o| write_members(o, layout, &tree));
                    let parsed = Json::parse(&text);
                    prop_assert_eq!(parsed.as_ref(), Ok(&expected(&tree)), "{:?}: {}", layout, text);
                }
            }
        }
    }
}
