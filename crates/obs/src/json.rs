//! A minimal JSON parser (no dependencies), the Chrome-trace schema
//! validator built on it, and the workspace's one string escaper.
//!
//! The parser exists so exports can be checked — by tests and by the
//! `hoploc trace-validate` CLI used in CI — without adding a serde
//! dependency to the workspace. It handles the full JSON grammar except
//! `\u` surrogate pairs (kept as-is), which our exporters never emit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::str::Chars;

/// `s` as a JSON string literal, quotes included. Every hand-written JSON
/// document in the workspace (run records, estimator records, diagnostics,
/// the serve wire) escapes through here, so they agree byte for byte on
/// what a quote, a backslash or a control character becomes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
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
    fn json_string_escapes_and_parses_back() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let awkward = "q\" b\\ \n\r\t\u{1}\u{1f} é";
        assert_eq!(
            parse(&json_string(awkward)),
            Ok(Value::Str(awkward.to_string()))
        );
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
