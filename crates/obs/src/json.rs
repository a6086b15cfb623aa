//! The workspace's one JSON writer and string escaper, a minimal JSON
//! parser (no dependencies), and the Chrome-trace schema validator.
//!
//! Every JSON document the workspace writes is built by [`JsonWriter`], so
//! they agree byte for byte on commas, escapes and floats. The parser exists
//! so exports can be checked — by tests and by the `hoploc trace-validate`
//! CLI used in CI — without a serde dependency. It handles the full JSON
//! grammar except `\u` surrogate pairs (kept as-is), which our exporters
//! never emit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::str::Chars;

/// Appends `s` as a JSON string literal, quotes included: what a quote, a
/// backslash or a control character becomes in every document
/// [`JsonWriter`] builds.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// How a document renders its floats. Under either rule a non-finite value,
/// which JSON cannot spell, is written `null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Floats {
    /// A fixed number of decimal places: `0.250000` at six.
    Fixed(usize),
    /// The shortest decimal that reads back as the same `f64`: `0.25`, `3`.
    Shortest,
}

/// A builder over a `String` that places every comma, escapes every key and
/// string under one rule and renders every float under the
/// document's [`Floats`] rule (six decimal places unless
/// [`floats`](Self::floats) says otherwise).
///
/// Values follow keys inside objects and each other inside arrays. Members
/// written at the top level, outside any object, make a fragment
/// (`"a": 1, "b": 2`): the multi-line documents build each line that way
/// and join the lines themselves.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    spaced: bool,
    floats: Floats,
    comma: bool,
}

impl JsonWriter {
    /// Separators `,` and `:` — the serve wire and search records.
    pub fn compact() -> Self {
        JsonWriter {
            out: String::with_capacity(128),
            spaced: false,
            floats: Floats::Fixed(6),
            comma: false,
        }
    }

    /// Separators `, ` and `: ` — run records, the estimator, diagnostics,
    /// load reports and metrics snapshots.
    pub fn spaced() -> Self {
        JsonWriter {
            spaced: true,
            ..Self::compact()
        }
    }

    /// The document's float rule.
    pub fn floats(mut self, floats: Floats) -> Self {
        self.floats = floats;
        self
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push_str(if self.spaced { ", " } else { "," });
        }
    }

    /// Opens an object member (or a top-level one): its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, key);
        self.out.push_str(if self.spaced { ": " } else { ":" });
        self.comma = false;
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object value.
    pub fn obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array value.
    pub fn arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// A scalar value.
    pub fn item(&mut self, value: impl JsonScalar) -> &mut Self {
        self.separate();
        value.write_to(self);
        self.comma = true;
        self
    }

    /// A member with a scalar value: [`key`](Self::key) then
    /// [`item`](Self::item).
    pub fn field(&mut self, key: &str, value: impl JsonScalar) -> &mut Self {
        self.key(key).item(value)
    }

    /// An array of scalars.
    pub fn items<T: JsonScalar>(&mut self, values: impl IntoIterator<Item = T>) -> &mut Self {
        self.arr();
        for v in values {
            self.item(v);
        }
        self.end_arr()
    }

    /// A value that is already JSON, spliced in unchanged: a result, event
    /// or metrics payload, or a nested document with its own float rule.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self.comma = true;
        self
    }

    /// The text written so far; the writer starts over empty.
    pub fn take(&mut self) -> String {
        self.comma = false;
        std::mem::take(&mut self.out)
    }
}

/// A value [`JsonWriter::item`] renders in place: an integer, a float under
/// the document's rule, a boolean, an escaped string, or an `Option` of one
/// (`None` is `null`).
pub trait JsonScalar {
    /// Appends `self` to `w`'s text.
    fn write_to(&self, w: &mut JsonWriter);
}

macro_rules! display_scalars {
    ($($t:ty)*) => {$(
        impl JsonScalar for $t {
            fn write_to(&self, w: &mut JsonWriter) {
                let _ = write!(w.out, "{self}");
            }
        }
    )*};
}

display_scalars!(u16 u32 u64 usize i64 bool);

impl JsonScalar for f64 {
    fn write_to(&self, w: &mut JsonWriter) {
        let _ = match w.floats {
            _ if !self.is_finite() => write!(w.out, "null"),
            Floats::Fixed(places) => write!(w.out, "{self:.places$}"),
            Floats::Shortest => write!(w.out, "{self}"),
        };
    }
}

impl JsonScalar for str {
    fn write_to(&self, w: &mut JsonWriter) {
        escape_into(&mut w.out, self);
    }
}

impl JsonScalar for String {
    fn write_to(&self, w: &mut JsonWriter) {
        escape_into(&mut w.out, self);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_to(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_to(w),
            None => w.out.push_str("null"),
        }
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_to(&self, w: &mut JsonWriter) {
        (**self).write_to(w);
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(a) => a.get(i),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// String content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as a non-negative integer, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }
}

struct Parser<'a> {
    it: std::iter::Peekable<Chars<'a>>,
    pos: usize,
}

/// Parse a JSON document. Returns a descriptive error with a character
/// offset on malformed input.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        it: src.chars().peekable(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.it.peek().is_some() {
        return Err(format!("trailing data at offset {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.it.next();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.it.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(g) if g == c => Ok(()),
            got => Err(format!(
                "expected {c:?} at offset {}, got {got:?}",
                self.pos
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.it.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        for want in lit.chars() {
            self.expect(want)?;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.it.peek() == Some(&'}') {
            self.bump();
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Obj(members)),
                got => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, got {got:?}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.it.peek() == Some(&']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Arr(items)),
                got => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, got {got:?}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape {got:?} at offset {}", self.pos)),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let mut text = String::new();
        if self.it.peek() == Some(&'-') {
            text.push(self.bump().expect("peeked"));
        }
        while matches!(self.it.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            text.push(self.bump().expect("peeked"));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?} at offset {}: {e}", self.pos))
    }
}

/// What a successful Chrome-trace validation observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChromeSummary {
    /// `"X"` (complete/span) events.
    pub span_events: usize,
    /// `"M"` (metadata) events.
    pub meta_events: usize,
    /// Distinct `(pid, tid)` lanes carrying span events.
    pub tracks: usize,
}

/// Validate a Chrome trace-event JSON document: well-formed JSON, a
/// `traceEvents` array, every event an object with a `ph` string, every
/// `"X"` event carrying string `name`/`cat` and non-negative numeric
/// `ts`/`dur`/`pid`/`tid`, and `ts` monotone non-decreasing within each
/// `(pid, tid)` lane.
pub fn validate_chrome_trace(src: &str) -> Result<ChromeSummary, String> {
    let root = parse(src)?;
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut summary = ChromeSummary {
        span_events: 0,
        meta_events: 0,
        tracks: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "M" => summary.meta_events += 1,
            "X" => {
                for key in ["name", "cat"] {
                    ev.get(key)
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| format!("event {i}: missing string {key}"))?;
                }
                let mut nums = [0u64; 4];
                for (slot, key) in ["ts", "dur", "pid", "tid"].iter().enumerate() {
                    nums[slot] = ev
                        .get(key)
                        .and_then(|v| v.as_u64())
                        .ok_or_else(|| format!("event {i}: missing non-negative {key}"))?;
                }
                let [ts, _dur, pid, tid] = nums;
                match last_ts.insert((pid, tid), ts) {
                    None => summary.tracks += 1,
                    Some(prev) if prev > ts => {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} on lane pid={pid} tid={tid}"
                        ));
                    }
                    Some(_) => {}
                }
                summary.span_events += 1;
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_places_every_comma_in_both_styles() {
        let build = |mut w: JsonWriter| {
            w.obj().field("a", 1u64).key("b").arr();
            w.item(true).item(-2i64).end_arr().key("c");
            w.obj().end_obj().key("d").items(Vec::<u64>::new());
            w.key("e").arr().arr().end_arr().obj();
            w.field("f", None::<u64>).end_obj().end_arr();
            w.end_obj().take()
        };
        let compact = r#"{"a":1,"b":[true,-2],"c":{},"d":[],"e":[[],{"f":null}]}"#;
        let spaced = r#"{"a": 1, "b": [true, -2], "c": {}, "d": [], "e": [[], {"f": null}]}"#;
        assert_eq!(build(JsonWriter::compact()), compact);
        assert_eq!(build(JsonWriter::spaced()), spaced);
        assert_eq!(parse(compact), parse(spaced));
        // Members outside any object make a fragment; `take` starts over.
        let mut w = JsonWriter::spaced();
        let fragment = w.field("a", 1u64).field("b", "x").take();
        assert_eq!(fragment, r#""a": 1, "b": "x""#);
        assert_eq!(w.field("c", 2usize).take(), r#""c": 2"#);
    }

    #[test]
    fn the_writer_escapes_keys_and_values_and_splices_raw_json() {
        let awkward = "q\" b\\ \n\r\t\u{1}\u{1f} é";
        let mut w = JsonWriter::compact();
        w.obj().field(awkward, awkward).key("raw");
        let doc = w.raw(r#"{"x": 1}"#).end_obj().take();
        let quoted = r#""q\" b\\ \n\r\t\u0001\u001f é""#;
        assert_eq!(doc, format!(r#"{{{quoted}:{quoted},"raw":{{"x": 1}}}}"#));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get(awkward).and_then(Value::as_str), Some(awkward));
    }

    #[test]
    fn floats_follow_the_document_rule_and_non_finite_is_null() {
        for (rule, quarter) in [
            (Floats::Fixed(6), "0.250000"),
            (Floats::Fixed(3), "0.250"),
            (Floats::Fixed(2), "0.25"),
            (Floats::Shortest, "0.25"),
        ] {
            let mut w = JsonWriter::compact().floats(rule);
            let doc = w.items([0.25, f64::NAN, f64::INFINITY, -f64::INFINITY]);
            assert_eq!(
                doc.take(),
                format!("[{quarter},null,null,null]"),
                "{rule:?}"
            );
        }
        let mut w = JsonWriter::spaced().floats(Floats::Shortest);
        assert_eq!(w.items([3.0, 17.4, -0.5]).take(), "[3, 17.4, -0.5]");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().index(1).unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().index(2).unwrap().as_u64(), None);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "01a", "{} x"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn validator_accepts_monotone_lanes() {
        let src = r#"{"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "c"}},
            {"ph": "X", "name": "a", "cat": "c", "ts": 1, "dur": 2, "pid": 1, "tid": 0, "args": {}},
            {"ph": "X", "name": "b", "cat": "c", "ts": 1, "dur": 0, "pid": 1, "tid": 0, "args": {}},
            {"ph": "X", "name": "c", "cat": "c", "ts": 0, "dur": 9, "pid": 1, "tid": 1, "args": {}}
        ]}"#;
        let s = validate_chrome_trace(src).unwrap();
        assert_eq!(
            s,
            ChromeSummary {
                span_events: 3,
                meta_events: 1,
                tracks: 2
            }
        );
    }

    #[test]
    fn validator_rejects_non_monotone_lane() {
        let src = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "cat": "c", "ts": 5, "dur": 1, "pid": 1, "tid": 0, "args": {}},
            {"ph": "X", "name": "b", "cat": "c", "ts": 4, "dur": 1, "pid": 1, "tid": 0, "args": {}}
        ]}"#;
        let err = validate_chrome_trace(src).unwrap_err();
        assert!(err.contains("ts 4 < 5"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        let src = r#"{"traceEvents": [{"ph": "X", "name": "a", "cat": "c", "ts": 1}]}"#;
        assert!(validate_chrome_trace(src).is_err());
    }
}
