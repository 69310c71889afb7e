//! The workspace's one JSON **writer**: wire replies, snapshots, the
//! `cli/*` and `bench/*` documents and the tracer's JSONL all append
//! through it into a caller-owned `String`. It lives in this crate because
//! the tracer writes JSON itself and everything else sits above
//! `bonsai_obs`; `bonsai_core::snapshot` re-exports it beside the one
//! reader.
//!
//! A document is built top-down from [`write_object`]: the closure
//! receives the open [`Object`] and adds members in order, so a value
//! cannot land outside its braces, a separator cannot be forgotten and no
//! string is written without [`escape_into`]. Members are typed for what
//! the documents carry and nothing else; the [`Layout`] argument
//! reproduces the three byte formats the documents have always had.
//!
//! ```
//! use bonsai_obs::json::{write_object, Layout};
//!
//! let mut line = String::new();
//! write_object(&mut line, Layout::Spaced, |o| {
//!     o.bool("ok", true).str("op", "path");
//!     o.rows("answers", Layout::Spaced, [(4usize, None::<bool>)], |o, (hops, via)| {
//!         o.uints("lengths", [hops]).opt("waypointed", via, |o, k, v| o.bool(k, v));
//!     });
//! });
//! assert_eq!(
//!     line,
//!     r#"{"ok": true, "op": "path", "answers": [{"lengths": [4], "waypointed": null}]}"#
//! );
//! ```

use std::fmt::{Display, Write};

/// How an object or array separates its items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"a": 1, "b": 2}` — wire replies, trace lines, the session payload.
    Spaced,
    /// `{"a":1,"b":2}` — document rows.
    Compact,
    /// One item per line, indented by this many spaces, the closer two
    /// spaces shallower — the top level of a document.
    Lines(usize),
}

impl Layout {
    /// Starts the next item: the comma after its predecessor, then the
    /// space or line break of the layout.
    fn item(self, out: &mut String, first: bool) {
        if !first {
            out.push(',');
        }
        match self {
            Layout::Spaced if !first => out.push(' '),
            Layout::Lines(indent) => line_break(out, indent),
            _ => {}
        }
    }

    fn close(self, out: &mut String, empty: bool, closer: char) {
        if let (Layout::Lines(indent), false) = (self, empty) {
            line_break(out, indent.saturating_sub(2));
        }
        out.push(closer);
    }

    /// The layout of a member's scalar array: never one item per line.
    fn inline(self) -> Layout {
        match self {
            Layout::Compact => Layout::Compact,
            _ => Layout::Spaced,
        }
    }
}

fn line_break(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Appends `s` with the JSON string escapes — the one escape loop of the
/// workspace (`core::snapshot::json_escape` is a call into it).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn array<T>(
    out: &mut String,
    layout: Layout,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    let mut empty = true;
    for value in items {
        layout.item(out, empty);
        empty = false;
        item(out, value);
    }
    layout.close(out, empty, ']');
}

/// The unsigned integers the documents carry.
pub trait Uint: Display + Copy {}
impl Uint for u32 {}
impl Uint for u64 {}
impl Uint for usize {}

/// Appends one object to `out`; `members` adds its members in order.
pub fn write_object(out: &mut String, layout: Layout, members: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    let mut object = Object {
        out: &mut *out,
        layout,
        empty: true,
    };
    members(&mut object);
    let empty = object.empty;
    layout.close(out, empty, '}');
}

/// An open JSON object: every method appends one member, key first.
pub struct Object<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        self.layout.item(self.out, self.empty);
        self.empty = false;
        string(self.out, key);
        self.out.push_str(match self.layout {
            Layout::Compact => ":",
            _ => ": ",
        });
        self.out
    }

    /// An unsigned integer.
    pub fn uint(&mut self, key: &str, value: impl Uint) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// `true` / `false`.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        string(self.key(key), value);
        self
    }

    /// A number with exactly `decimals` fraction digits; `null` when it is
    /// not finite (JSON has no NaN or infinity).
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        let out = self.key(key);
        if value.is_finite() {
            let _ = write!(out, "{value:.decimals$}");
        } else {
            out.push_str("null");
        }
        self
    }

    /// `null` for `None`; for `Some(v)`, whatever member `some` writes
    /// under `key` — `o.opt("why", why, Object::str)`.
    pub fn opt<T>(
        &mut self,
        key: &str,
        value: Option<T>,
        some: impl for<'s> FnOnce(&'s mut Self, &str, T) -> &'s mut Self,
    ) -> &mut Self {
        match value {
            Some(value) => some(self, key, value),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// A nested object.
    pub fn object(
        &mut self,
        key: &str,
        layout: Layout,
        members: impl FnOnce(&mut Object<'_>),
    ) -> &mut Self {
        write_object(self.key(key), layout, members);
        self
    }

    /// An array of objects, one per item, array and rows in `layout`
    /// (rows on lines of their own are indented one level deeper).
    pub fn rows<T>(
        &mut self,
        key: &str,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
        mut row: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        let of_rows = match layout {
            Layout::Lines(indent) => Layout::Lines(indent + 2),
            flat => flat,
        };
        array(self.key(key), layout, items, |out, item| {
            write_object(out, of_rows, |o| row(o, item));
        });
        self
    }

    /// An array of strings.
    pub fn strs(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> &mut Self {
        let layout = self.layout.inline();
        array(self.key(key), layout, items, |out, s| {
            string(out, s.as_ref());
        });
        self
    }

    /// An array of unsigned integers.
    pub fn uints(&mut self, key: &str, items: impl IntoIterator<Item = impl Uint>) -> &mut Self {
        let layout = self.layout.inline();
        array(self.key(key), layout, items, |out, n| {
            let _ = write!(out, "{n}");
        });
        self
    }

    /// `[["a", "b"], …]` — a list of links by endpoint names.
    pub fn pairs<'p, A: AsRef<str> + 'p, B: AsRef<str> + 'p>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = &'p (A, B)>,
    ) -> &mut Self {
        let layout = self.layout.inline();
        array(self.key(key), layout, items, |out, (a, b)| {
            array(out, layout, [a.as_ref(), b.as_ref()], |out, s| {
                string(out, s);
            });
        });
        self
    }

    /// An array of values this writer has already rendered (a `batch`
    /// reply's answers, a bench snapshot's rows), embedded verbatim.
    pub fn rendered(
        &mut self,
        key: &str,
        layout: Layout,
        items: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> &mut Self {
        array(self.key(key), layout, items, |out, value| {
            out.push_str(value.as_ref());
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(layout: Layout, members: impl FnOnce(&mut Object<'_>)) -> String {
        let mut out = String::new();
        write_object(&mut out, layout, members);
        out
    }

    fn sample(o: &mut Object<'_>) {
        o.uint("n", 3usize).bool("yes", true).str("s", "x");
        o.strs("names", ["a", "b"]).uints("ints", [1u64, 2]);
        o.pairs("links", &[("a", "b"), ("c", "d")]);
    }

    #[test]
    fn the_three_layouts_reproduce_their_byte_formats() {
        assert_eq!(
            render(Layout::Spaced, sample),
            r#"{"n": 3, "yes": true, "s": "x", "names": ["a", "b"], "ints": [1, 2], "links": [["a", "b"], ["c", "d"]]}"#
        );
        assert_eq!(
            render(Layout::Compact, sample),
            r#"{"n":3,"yes":true,"s":"x","names":["a","b"],"ints":[1,2],"links":[["a","b"],["c","d"]]}"#
        );
        assert_eq!(
            render(Layout::Lines(2), |o| {
                o.uint("n", 3u32).strs("names", ["a", "b"]);
                o.object("inner", Layout::Lines(4), |o| {
                    o.bool("yes", false);
                });
            }),
            "{\n  \"n\": 3,\n  \"names\": [\"a\", \"b\"],\n  \"inner\": {\n    \"yes\": false\n  }\n}"
        );
    }

    #[test]
    fn rows_and_rendered_values_follow_the_array_layout() {
        let row = |o: &mut Object<'_>, n: usize| {
            o.uint("n", n);
        };
        assert_eq!(
            render(Layout::Spaced, |o| {
                o.rows("rows", Layout::Spaced, [1, 2], row);
            }),
            r#"{"rows": [{"n": 1}, {"n": 2}]}"#
        );
        assert_eq!(
            render(Layout::Lines(4), |o| {
                o.rows("rows", Layout::Compact, [1, 2], row);
            }),
            "{\n    \"rows\": [{\"n\":1},{\"n\":2}]\n  }"
        );
        assert_eq!(
            render(Layout::Lines(4), |o| {
                o.rendered("rows", Layout::Lines(6), ["{\"n\":1}", "{\"n\":2}"]);
            }),
            "{\n    \"rows\": [\n      {\"n\":1},\n      {\"n\":2}\n    ]\n  }"
        );
        assert_eq!(
            render(Layout::Spaced, |o| {
                o.rendered("answers", Layout::Spaced, ["{}", "{}"]);
            }),
            r#"{"answers": [{}, {}]}"#
        );
    }

    #[test]
    fn empty_objects_and_arrays_have_no_padding_in_any_layout() {
        for layout in [Layout::Spaced, Layout::Compact, Layout::Lines(2)] {
            assert_eq!(render(layout, |_| {}), "{}");
            let inner = render(layout, |o| {
                o.strs("s", [""; 0]).uints("u", [0usize; 0]);
                o.pairs("p", &[("", ""); 0]);
                o.rows("r", layout, [(); 0], |_, ()| {});
                o.rendered("v", layout, [""; 0]);
                o.object("o", layout, |_| {});
            });
            for member in ["\"s\"", "\"u\"", "\"p\"", "\"r\"", "\"v\""] {
                let at = inner.find(member).expect("member written") + member.len();
                assert!(inner[at..].trim_start_matches([':', ' ']).starts_with("[]"));
            }
            assert!(inner.contains("{}"), "{inner}");
        }
    }

    #[test]
    fn strings_are_escaped_and_multi_byte_scalars_pass_through() {
        let mut out = String::new();
        escape_into(
            &mut out,
            "q\" b\\ n\n t\t r\r nul\u{0} us\u{1f} é 日本 🦀 del\u{7f}",
        );
        assert_eq!(
            out,
            "q\\\" b\\\\ n\\n t\\t r\\r nul\\u0000 us\\u001f é 日本 🦀 del\u{7f}"
        );
        // Keys go through the same loop as values.
        assert_eq!(
            render(Layout::Compact, |o| {
                o.str("k\"\n", "v\u{1}é");
            }),
            "{\"k\\\"\\n\":\"v\\u0001é\"}"
        );
    }

    #[test]
    fn floats_have_fixed_decimals_and_non_finite_is_null() {
        assert_eq!(
            render(Layout::Compact, |o| {
                o.float("six", 2.0 / 3.0, 6).float("three", 1234.56789, 3);
                o.float("zero", 0.0, 6).float("nan", f64::NAN, 6);
                o.float("inf", f64::INFINITY, 3)
                    .float("ninf", f64::NEG_INFINITY, 0);
            }),
            r#"{"six":0.666667,"three":1234.568,"zero":0.000000,"nan":null,"inf":null,"ninf":null}"#
        );
    }

    #[test]
    fn none_is_null_and_some_is_the_member_it_names() {
        assert_eq!(
            render(Layout::Spaced, |o| {
                o.opt("why", None::<&str>, Object::str);
                o.opt("why", Some("because"), Object::str);
                o.opt("flag", Some(true), Object::bool);
                o.opt("lengths", Some([2usize, 3]), |o, k, ls| o.uints(k, ls));
                o.opt("lengths", None::<[usize; 0]>, |o, k, ls| o.uints(k, ls));
            }),
            r#"{"why": null, "why": "because", "flag": true, "lengths": [2, 3], "lengths": null}"#
        );
    }
}
