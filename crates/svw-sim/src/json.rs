//! Minimal JSON emission and flat-object scanning (no external dependencies).
//!
//! The report types only need objects, arrays, strings, and numbers; this module
//! provides exactly that, with correct string escaping and `null` for non-finite
//! floats; cell lines are streamed into one `String` field by field. Reading goes the
//! other way only for *flat* objects (JSONL cell, journal and plan lines):
//! [`parse_flat_object`] scans one in a single pass that borrows from its input.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes `s` into a JSON string literal (including the surrounding quotes).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal: runs that need no escaping are
/// copied whole.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "", // other control characters: `\u00XX`, below
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Formats a float as a JSON number (`null` for NaN/infinity, which JSON cannot
/// represent).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Formats an unsigned integer as an exact JSON number. Use this for 64-bit counters
/// and seeds — routing them through [`number`] (an `f64`) silently rounds values at
/// or above 2^53.
pub fn uint(v: u64) -> String {
    v.to_string()
}

/// Joins already-serialized values into a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Joins `(key, serialized value)` pairs into a JSON object.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut obj = ObjectWriter::with_capacity(64);
    for (key, value) in fields {
        obj.key(key).push_str(&value);
    }
    obj.finish()
}

/// Streams one JSON object into a single `String`, field by field, with the same
/// bytes [`object`] produces from the same fields.
#[derive(Debug)]
pub(crate) struct ObjectWriter {
    out: String,
}

impl ObjectWriter {
    /// Starts an object in a buffer of `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ObjectWriter {
        let mut out = String::with_capacity(capacity);
        out.push('{');
        ObjectWriter { out }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        push_string(&mut self.out, key);
        self.out.push(':');
        &mut self.out
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) {
        push_string(self.key(key), value);
    }

    /// Appends an exact unsigned-integer field (see [`uint`]).
    pub fn uint(&mut self, key: &str, value: u64) {
        let _ = write!(self.key(key), "{value}");
    }

    /// Appends a float field (see [`number`]).
    pub fn number(&mut self, key: &str, value: f64) {
        push_number(self.key(key), value);
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A scalar value scanned out of a flat JSON object, borrowing from the input.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar<'a> {
    /// A JSON string, unescaped (borrowed unless it held escapes).
    Str(Cow<'a, str>),
    /// A JSON number, kept as its raw token so integer consumers can parse it
    /// losslessly (`f64` would round above 2^53).
    Num(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Scalar<'_> {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value parsed as an unsigned integer, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value parsed as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Scans a *flat* JSON object — string/number/bool/null values only, no nesting —
/// passing each `(key, value)` pair to `field` in order. This is exactly the shape
/// the JSONL streams emit, so the resume path can read its own output back without
/// an external JSON dependency. Returns `None` on any malformed input (including
/// nested containers) or when `field` does; pairs already passed to `field` are then
/// to be discarded. Nothing is allocated unless a string holds escapes.
pub fn parse_flat_object<'a>(
    s: &'a str,
    mut field: impl FnMut(Cow<'a, str>, Scalar<'a>) -> Option<()>,
) -> Option<()> {
    let mut p = Scanner {
        s: s.trim(),
        pos: 0,
    };
    p.eat(b'{')?;
    let mut closed = p.ws().eat(b'}').is_some();
    while !closed {
        let key = p.ws().string()?;
        p.ws().eat(b':')?;
        let value = match p.ws().peek()? {
            b'"' => Scalar::Str(p.string()?),
            b't' | b'f' | b'n' => match p.run(|b| b.is_ascii_alphabetic()) {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                "null" => Scalar::Null,
                _ => return None,
            },
            b'-' | b'0'..=b'9' => {
                let raw = p.run(|b| b.is_ascii_digit() || b"-+.eE".contains(&b));
                // Every all-digit token is a valid float; only others need the check.
                let digits = raw.bytes().all(|b| b.is_ascii_digit());
                (digits || raw.parse::<f64>().is_ok()).then_some(Scalar::Num(raw))?
            }
            _ => return None, // nested containers and anything else are rejected
        };
        field(key, value)?;
        closed = p.ws().eat(b'}').is_some();
        if !closed {
            p.eat(b',')?;
        }
    }
    (p.ws().pos == p.s.len()).then_some(())
}

/// Scans `s` like [`parse_flat_object`] and returns the *first* value of each of
/// `keys` (later duplicates and unknown keys are ignored). Each key is tried
/// against `keys` starting after the previous match, so an object written in
/// `keys` order costs one comparison per field.
pub(crate) fn flat_fields<'a, const N: usize>(
    s: &'a str,
    keys: &[&str; N],
) -> Option<[Option<Scalar<'a>>; N]> {
    let mut slots = [const { None }; N];
    let mut next = 0;
    parse_flat_object(s, |key, value| {
        if let Some(i) = (next..N).chain(0..next).find(|&i| keys[i] == key) {
            next = i + 1;
            slots[i].get_or_insert(value);
        }
        Some(())
    })?;
    Some(slots)
}

/// Byte cursor over the trimmed object text.
struct Scanner<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek()? == b).then(|| self.pos += 1)
    }

    /// Skips ASCII whitespace.
    fn ws(&mut self) -> &mut Self {
        self.run(|b| b.is_ascii_whitespace());
        self
    }

    /// The longest run of bytes matching `accept` (possibly empty), which must
    /// end at an ASCII byte or the end of the text.
    fn run(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&accept) {
            self.pos += 1;
        }
        &self.s[start..self.pos]
    }

    /// A string literal, borrowed from the input unless it holds escapes.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let chunk = self.run(|b| b != b'"' && b != b'\\');
            if self.next()? == b'"' {
                return Some(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(out) => Cow::Owned(out + chunk),
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(chunk);
            out.push(match self.next()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.s.get(self.pos..self.pos + 4)?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn fields(s: &str) -> Option<Vec<(Cow<'_, str>, Scalar<'_>)>> {
        let mut out = Vec::new();
        parse_flat_object(s, |k, v| {
            out.push((k, v));
            Some(())
        })?;
        Some(out)
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("é\r\t\u{1f}\u{7f}"), "\"é\\r\\t\\u001f\u{7f}\"");
    }

    #[test]
    fn numbers_handle_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn uints_are_exact_beyond_f64_precision() {
        let v = (1u64 << 53) + 1;
        assert_eq!(uint(v), "9007199254740993");
        assert_ne!(uint(v), number(v as f64));
        assert_eq!(uint(u64::MAX), "18446744073709551615");
    }

    #[test]
    fn containers_compose() {
        let obj = object([
            ("name", string("x")),
            ("values", array([number(1.0), number(2.0)])),
        ]);
        assert_eq!(obj, "{\"name\":\"x\",\"values\":[1,2]}");
        assert_eq!(object([]), "{}");
    }

    #[test]
    fn object_writer_matches_object() {
        let mut w = ObjectWriter::with_capacity(0);
        w.str("s", "a\"b");
        w.uint("u", u64::MAX);
        w.number("f", 0.1);
        w.number("nan", f64::NAN);
        let expected = object([
            ("s", string("a\"b")),
            ("u", uint(u64::MAX)),
            ("f", number(0.1)),
            ("nan", number(f64::NAN)),
        ]);
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn flat_parser_round_trips_emitted_objects() {
        let line = object([
            ("workload", string("perl.d \"x\"\n")),
            ("seed", uint((1u64 << 53) + 1)),
            ("ipc", number(1.75)),
            ("ok", "true".to_string()),
            ("err", "null".to_string()),
            ("plain", string("no escapes")),
        ]);
        let fields = fields(&line).expect("parses");
        assert_eq!(fields[0].0, "workload");
        assert_eq!(fields[0].1.as_str(), Some("perl.d \"x\"\n"));
        assert_eq!(fields[1].1.as_u64(), Some((1u64 << 53) + 1));
        assert_eq!(fields[2].1.as_f64(), Some(1.75));
        assert_eq!(fields[3].1, Scalar::Bool(true));
        assert_eq!(fields[4].1, Scalar::Null);
        assert!(
            matches!(&fields[5].1, Scalar::Str(Cow::Borrowed("no escapes"))),
            "strings without escapes are borrowed"
        );
    }

    #[test]
    fn flat_parser_rejects_malformed_and_nested_input() {
        assert_eq!(fields("{}"), Some(vec![]));
        assert!(fields("").is_none());
        assert!(fields("{\"a\":1").is_none(), "unterminated");
        assert!(fields("{\"a\":[1]}").is_none(), "nested array");
        assert!(fields("{\"a\":{\"b\":1}}").is_none(), "nested object");
        assert!(fields("{\"a\":1}{").is_none(), "trailing junk");
        assert!(fields("{\"a\":bogus}").is_none());
        assert!(fields("{\"a\":1,}").is_none(), "trailing comma");
        assert!(fields("{\"a\":\"\\b\"}").is_none(), "\\b is not accepted");
        assert!(fields("{\"a\":\"\\ud800\"}").is_none(), "lone surrogate");
        assert!(fields("{\"a\":1e}").is_none(), "bad number");
        assert_eq!(
            fields("  {\"a\" : -1.5e3 , \"b\" : \"\" }  ")
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            fields("{\"\\u0061\\/\":\"\\u00e9\"}").unwrap(),
            vec![(Cow::from("a/"), Scalar::Str(Cow::from("é")))]
        );
    }

    #[test]
    fn a_failing_visitor_stops_the_scan() {
        let mut seen = 0;
        let out = parse_flat_object("{\"a\":1,\"b\":2,\"c\":3}", |k, _| {
            seen += 1;
            (k != "b").then_some(())
        });
        assert_eq!((out, seen), (None, 2));
    }

    #[test]
    fn flat_fields_keeps_the_first_duplicate_in_any_order() {
        let keys = ["a", "b", "c"];
        let [a, b, c] =
            flat_fields("{\"c\":3,\"x\":0,\"a\":1,\"c\":4,\"a\":\"s\"}", &keys).unwrap();
        assert_eq!(a, Some(Scalar::Num("1")));
        assert_eq!(b, None);
        assert_eq!(c, Some(Scalar::Num("3")));
        assert!(flat_fields("{\"a\":1", &keys).is_none());
    }
}
