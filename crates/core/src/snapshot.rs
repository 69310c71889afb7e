//! The shared snapshot serializer: a minimal JSON reader/writer plus the
//! one versioned **envelope** every persisted artifact in the workspace
//! uses.
//!
//! The workspace is offline (no serde); snapshots are *written* with the
//! hand-rolled helpers here and in `bonsai-bench`, and *read back* by the
//! CI perf-regression gate and the daemon with the hand-rolled
//! recursive-descent parser below. It supports exactly the JSON the
//! snapshots use — objects, arrays, strings (with the escapes our writer
//! emits), finite numbers, booleans and null — and rejects anything
//! malformed with a byte offset.
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

use std::fmt;

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
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An ordered single-line JSON object builder: fields render in
/// insertion order, exactly once, with no trailing whitespace — the
/// byte-deterministic shape the daemon's line protocol and the snapshot
/// writers both promise. Build with the typed `field_*` methods and
/// [`JsonObj::finish`]:
///
/// ```
/// use bonsai_core::snapshot::JsonObj;
///
/// let mut obj = JsonObj::new();
/// obj.field_bool("ok", true);
/// obj.field_str("op", "ping");
/// obj.field_u64("queries", 3);
/// assert_eq!(obj.finish(), r#"{"ok": true, "op": "ping", "queries": 3}"#);
/// ```
#[derive(Clone, Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// An empty object (`{}` if finished immediately).
    pub fn new() -> JsonObj {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        self.buf.push_str(&json_escape(name));
        self.buf.push_str("\": ");
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut JsonObj {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut JsonObj {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a string field, escaping the value.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut JsonObj {
        self.key(name);
        self.buf.push('"');
        self.buf.push_str(&json_escape(value));
        self.buf.push('"');
        self
    }

    /// Appends a field whose value is already-rendered JSON (a nested
    /// object, array, or number the caller formatted).
    pub fn field_raw(&mut self, name: &str, value: &str) -> &mut JsonObj {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the rendered line.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
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
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "snapshot has no top-level \"schema\" field".to_string())?;
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
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "envelope has no \"kind\" field".to_string())?
            .to_string();
        let version = doc
            .get("version")
            .and_then(Json::as_usize)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| "envelope has no numeric \"version\" field".to_string())?;
        let git_sha = doc
            .get("git_sha")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let toolchain = doc
            .get("toolchain")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
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

/// Wraps an already-serialized JSON payload in the versioned envelope.
///
/// `payload` must be a complete JSON document (typically an object); it
/// is embedded verbatim.
pub fn write_envelope(
    kind: &str,
    version: u32,
    git_sha: &str,
    toolchain: &str,
    payload: &str,
) -> String {
    format!(
        "{{\n  \"schema\": \"{ENVELOPE_SCHEMA}\",\n  \"kind\": \"{}\",\n  \"version\": {version},\n  \"git_sha\": \"{}\",\n  \"toolchain\": \"{}\",\n  \"payload\": {payload}\n}}\n",
        json_escape(kind),
        json_escape(git_sha),
        json_escape(toolchain),
    )
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
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
        let doc = write_envelope("bench/failures", 4, "abc123", "rustc 1.0", "{\"rows\": []}");
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
        let doc = write_envelope("bench/compress", 1, "x", "y", "{}");
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
        let doc = write_envelope("cli/failures", 3, "x", "y", "{}")
            .replace("\"version\": 3", "\"version\": 3.9");
        assert!(doc.contains("3.9"), "{doc}");
        let err = Envelope::parse_expecting(&doc, "cli/failures", 3).unwrap_err();
        assert!(err.contains("no numeric \"version\""), "{err}");
    }

    #[test]
    fn json_obj_renders_in_insertion_order_and_roundtrips() {
        let mut obj = JsonObj::new();
        obj.field_bool("ok", false)
            .field_str("code", "bad_request")
            .field_str("error", "tab\there \"quoted\"")
            .field_u64("n", 42)
            .field_raw("nested", "{\"a\": 1}");
        let line = obj.finish();
        assert_eq!(
            line,
            "{\"ok\": false, \"code\": \"bad_request\", \
             \"error\": \"tab\\there \\\"quoted\\\"\", \"n\": 42, \"nested\": {\"a\": 1}}"
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("tab\there \"quoted\"")
        );
        assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(42.0));
        assert_eq!(JsonObj::new().finish(), "{}");
    }
}
