//! The workspace's one JSON module: string escaping for the hand-rolled
//! writers, a [`Value`] tree with a pretty renderer for the bench result
//! files, and a small recursive-descent parser used by the regression
//! gate (`crx obs diff`), the exporters' round-trip tests, and
//! `indicators/v1` loading.
//!
//! The parser is deliberately small and strict-enough: it accepts the
//! JSON this workspace writes (objects, arrays, strings with escapes,
//! numbers, booleans, null) and rejects malformed input with a byte
//! offset. Object key order is preserved, so a parse → render →
//! parse round trip is stable.

/// Appends `raw` to `s` with JSON string escaping (quotes, backslash,
/// and control characters). The writers in this crate all funnel
/// through here so every emitted string is valid JSON regardless of
/// its content.
pub fn escape_into(s: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
}

/// A parsed JSON value. Object members keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in textual order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Renders with two-space indentation and a trailing newline.
    /// Object members keep their order, non-finite numbers render as
    /// `null`, and numbers use the shortest form that parses back to
    /// the same `f64`, so integers below 2^53 print without a fraction.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Obj(members) if members.is_empty() => out.push_str("{}"),
            Value::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Value::Obj(members) => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    pad(out, indent + 1);
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so a bound keeps hostile input from overflowing the stack;
/// the workspace's own documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Errors carry the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses one container with `parse_container`, one level deeper.
    fn nested(
        &mut self,
        parse_container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse_container(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The slice is valid UTF-8 because the whole input is.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!(
                                        "bad low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                char::from_u32(
                                    0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo - 0xDC00),
                                )
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("bad \\u escape at byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or("truncated \\u escape")?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit at byte {}", self.pos))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit()
                || b == b'-'
                || b == b'+'
                || b == b'.'
                || b == b'e'
                || b == b'E'
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8".to_string())?;
        token
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_hostile_strings() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
        let v = parse("{\"a\": [1, 2], \"b\": {\"c\": false}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap(),
            &Value::Bool(false)
        );
    }

    #[test]
    fn escape_then_parse_round_trips() {
        for raw in ["plain", "q\"b", "back\\slash", "nl\n tab\t", "\u{1}\u{1f}"] {
            let mut doc = String::from("\"");
            escape_into(&mut doc, raw);
            doc.push('"');
            assert_eq!(parse(&doc).unwrap(), Value::Str(raw.to_string()), "{raw:?}");
        }
    }

    #[test]
    fn render_pretty_prints_nested_structures() {
        let v = Value::Obj(vec![
            ("schema".into(), Value::str("bench/v1")),
            ("n".into(), Value::Num(3.0)),
            ("rate".into(), Value::Num(12.5)),
            ("bad".into(), Value::Num(f64::NAN)),
            ("items".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"schema\": \"bench/v1\",\n  \"n\": 3,\n  \"rate\": 12.5,\n  \
             \"bad\": null,\n  \"items\": [\n    true,\n    null\n  ],\n  \
             \"empty\": []\n}\n"
        );
    }

    #[test]
    fn render_parse_render_round_trips() {
        let v = Value::Obj(vec![
            ("k\"ey".into(), Value::str("a\"b\\c\nd\u{1}é")),
            ("big".into(), Value::Num(9_007_199_254_740_991.0)),
            ("tiny".into(), Value::Num(-1.25e-7)),
            ("nested".into(), Value::Arr(vec![
                Value::Obj(vec![]),
                Value::Obj(vec![("x".into(), Value::Bool(false))]),
                Value::Null,
            ])),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
        // Surrogate pair (U+1F600).
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // Nesting past the limit must be an error, not a stack overflow.
        let deep_arrays = "[".repeat(100_000);
        let deep_objects = "{\"a\":".repeat(100_000);
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
            "1 2", "{\"a\":1,}",
            // A high surrogate needs a low one (U+DC00..U+DFFF) next.
            "\"\\uD800\\u0041\"",
            deep_arrays.as_str(),
            deep_objects.as_str(),
        ] {
            let shown = &bad[..bad.len().min(40)];
            assert!(parse(bad).is_err(), "accepted {shown:?}");
        }
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok());
    }
}
