//! Minimal JSON rendering and parsing for machine-readable experiment
//! output.
//!
//! The workspace is dependency-free, so the harness carries its own tiny
//! JSON value type: enough to render the experiment results as one valid
//! document (objects keep insertion order; strings are escaped per RFC
//! 8259; non-finite floats render as `null`), and enough of a parser
//! ([`Json::parse`]) for the tests that read the committed documents
//! (`BENCH_BASELINE.json`, `BENCH_HOST.json`, `BENCHMARK.json`) back.
//! An experiment's result *is* its section of the document: the in-run
//! gates and the tests read figures back with [`Json::num`].

use orchestra_common::{OrchestraError, Result};
use std::fmt;

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a fraction).
    Int(i64),
    /// An unsigned integer (byte and message counts).
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document.  Accepts exactly one top-level value with
    /// surrounding whitespace; trailing garbage is an error.  Integral
    /// numbers come back as [`Json::Int`]/[`Json::UInt`], everything
    /// else numeric as [`Json::Float`] — the same shapes the renderer
    /// emits, so `parse(doc.render())` round-trips.
    pub fn parse(input: &str) -> std::result::Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_whitespace();
        let value = p.value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number at `path`: object keys and array indices separated by
    /// dots (`"sweeps.0.total_bytes"`).  A missing key, an index out of
    /// range or a value that is not a number is an
    /// [`OrchestraError::Execution`] naming the path, so a gate can never
    /// pass on a figure that was never written.
    pub fn num(&self, path: &str) -> Result<f64> {
        path.split('.')
            .try_fold(self, |json, step| match json {
                Json::Array(items) => step.parse::<usize>().ok().and_then(|i| items.get(i)),
                _ => json.get(step),
            })
            .and_then(Json::as_f64)
            .ok_or_else(|| OrchestraError::Execution(format!("no number at `{path}`")))
    }

    /// The numeric value of an `Int`, `UInt` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value of a `Str`.
    pub fn as_str_val(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an `Array`.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Recursive-descent parser over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> std::result::Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> std::result::Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> std::result::Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> std::result::Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> std::result::Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> std::result::Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> std::result::Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 {
                    Json::UInt(v as u64)
                } else {
                    Json::Int(v)
                });
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(18_000_000_000).render(), "18000000000");
        assert_eq!(Json::Float(2.5).render(), "2.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn containers_keep_order() {
        let doc = Json::object(vec![
            ("b", Json::Int(1)),
            ("a", Json::Array(vec![Json::Int(2), Json::str("x")])),
        ]);
        assert_eq!(doc.render(), "{\"b\":1,\"a\":[2,\"x\"]}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object(vec![
            ("name", Json::str("q\"3\"\n")),
            ("count", Json::UInt(18_000_000_000)),
            ("delta", Json::Int(-3)),
            ("ratio", Json::Float(2.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "points",
                Json::Array(vec![Json::UInt(1), Json::Float(0.125), Json::str("x")]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.render(), text, "render∘parse∘render is stable");
        assert_eq!(parsed.get("count").unwrap().as_f64(), Some(1.8e10));
        assert_eq!(parsed.get("delta").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parsed.get("name").unwrap().as_str_val(), Some("q\"3\"\n"));
        assert_eq!(parsed.get("points").unwrap().items().unwrap().len(), 3);
    }

    #[test]
    fn num_walks_keys_and_indices_and_refuses_what_is_missing() {
        let doc = Json::object(vec![(
            "sweeps",
            Json::Array(vec![Json::object(vec![
                ("bytes", Json::UInt(7)),
                ("label", Json::str("x")),
            ])]),
        )]);
        assert_eq!(doc.num("sweeps.0.bytes").unwrap(), 7.0);
        for missing in [
            "sweeps.1.bytes",
            "sweeps.0.byte",
            "sweeps.0.label",
            "sweeps.x",
            "",
        ] {
            let err = doc.num(missing).unwrap_err();
            assert!(err.message().contains(missing), "{missing:?}: {err}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"a\" : [ 1 , -2.5e1 ] , \"s\" : \"\\u0041\\u00e9\" } ").unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str_val(), Some("Aé"));
        let items = parsed.get("a").unwrap().items().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-25.0));
        // Surrogate pairs combine into one scalar.
        let emoji = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(emoji.as_str_val(), Some("😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "1..2",
            "\"\\q\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
