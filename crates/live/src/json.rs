//! A minimal JSON reader for feed records and checkpoints.
//!
//! The offline build has no serialization crate, and the only other JSON
//! code in the workspace is the *writer* in `airguard_obs::JsonObject` —
//! so the live service brings its own parser. It reads exactly the JSON the
//! workspace emits (single-line objects with string/number/bool/null
//! fields, nested objects and arrays) plus standard escapes, and turns
//! every malformed input into a typed error instead of a panic: a
//! garbage byte on the feed must become a quarantined record, never a
//! crashed shard.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum nesting depth accepted before a value is rejected: feed
/// records are flat, checkpoints nest twice, so anything deep is either
/// corruption or an attack on the parser's stack.
const MAX_DEPTH: u32 = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; `u64` extraction checks integer-ness.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is not preserved; feed schemas never repeat
    /// keys, and a repeated key keeps the last value, as serde_json does.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a feed line must be exactly one record).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut parser = Parser::new(text);
        let value = parser.value(0)?;
        parser.finish()?;
        Ok(value)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer. Rejects fractions,
    /// negatives, and magnitudes beyond 2^53 (where `f64` stops
    /// representing every integer, so "exact" can no longer be
    /// promised).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `n` as an exact non-negative integer, per [`JsonValue::as_u64`].
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    const EXACT_MAX: f64 = 9_007_199_254_740_992.0; // 2^53

    // `n == n.trunc()` is an exact integral test, not a tolerance
    // question: truncation either returns the same representation (no
    // fraction) or a different one.
    #[allow(clippy::float_cmp)]
    let integral = n == n.trunc();
    if n.is_finite() && (0.0..=EXACT_MAX).contains(&n) && integral {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(n as u64)
    } else {
        None
    }
}

/// The start of one value: a scalar read whole, or the opening bracket
/// of a container whose contents the caller reads next.
#[derive(Debug)]
pub(crate) enum Token<'a> {
    Null,
    Bool(bool),
    Num(f64),
    /// Borrowed from the input unless the string had escapes.
    Str(Cow<'a, str>),
    /// `{` consumed; members follow.
    Obj,
    /// `[` consumed; elements follow.
    Arr,
}

/// A cursor over one JSON text. The container grammar lives in
/// [`Parser::object`] and [`Parser::array`] alone: [`JsonValue::parse`]
/// builds a tree through them, and the feed decoder reads a record's
/// fields through them without building one.
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Fails unless only whitespace is left.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes after value at offset {}", self.pos))
        }
    }

    /// Reads the start of a value nested `depth` containers deep.
    pub(crate) fn token(&mut self, depth: u32) -> Result<Token<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Obj)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Arr)
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Token::Num),
            Some(b) => Err(format!(
                "unexpected byte 0x{b:02x} at offset {pos}",
                pos = self.pos
            )),
        }
    }

    /// Builds the value nested `depth` containers deep.
    fn value(&mut self, depth: u32) -> Result<JsonValue, String> {
        Ok(match self.token(depth)? {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Num(n) => JsonValue::Num(n),
            Token::Str(s) => JsonValue::Str(s.into_owned()),
            Token::Obj => {
                let mut map = BTreeMap::new();
                self.object(|parser, key| {
                    let value = parser.value(depth + 1)?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                JsonValue::Obj(map)
            }
            Token::Arr => {
                let mut items = Vec::new();
                self.array(|parser| {
                    items.push(parser.value(depth + 1)?);
                    Ok(())
                })?;
                JsonValue::Arr(items)
            }
        })
    }

    /// Reads the value nested `depth` containers deep, validating a
    /// container's contents without keeping them: a container comes
    /// back as its bare [`Token::Obj`] or [`Token::Arr`].
    pub(crate) fn scalar(&mut self, depth: u32) -> Result<Token<'a>, String> {
        let token = self.token(depth)?;
        self.skip_contents(&token, depth)?;
        Ok(token)
    }

    /// After `token` opened a container `depth` deep, validates and
    /// discards its contents; a scalar token has none.
    pub(crate) fn skip_contents(&mut self, token: &Token<'a>, depth: u32) -> Result<(), String> {
        match token {
            Token::Obj => self.object(|parser, _key| {
                parser.scalar(depth + 1)?;
                Ok(())
            }),
            Token::Arr => self.array(|parser| {
                parser.scalar(depth + 1)?;
                Ok(())
            }),
            _ => Ok(()),
        }
    }

    /// Walks an object's members after its `{`: `member` gets each key
    /// and must read that key's value.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at offset {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected `:` at offset {}", self.pos));
            }
            self.pos += 1;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    /// Walks an array's elements after its `[`: `element` must read
    /// one value per call.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(format!("malformed literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // Every byte scanned is ASCII, so the slice cannot split a
        // character.
        let text = self.text.get(start..self.pos).unwrap_or_default();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(format!("malformed number `{text}` at offset {start}")),
        }
    }

    /// Reads a string at its opening quote. Each run of bytes up to the
    /// next quote, backslash or control byte is copied whole, and a
    /// string without escapes is borrowed from the input: the text is
    /// a `&str`, so a run between ASCII delimiters is already valid
    /// UTF-8 and costs no second validation.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1; // opening quote
        let mut owned: Option<String> = None;
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let Some(len) = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                return Err("unterminated string".into());
            };
            let run = self
                .text
                .get(self.pos..self.pos + len)
                .ok_or("string run splits a character")?;
            self.pos += len + 1;
            match rest[len] {
                b'"' => {
                    return Ok(match owned {
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                        None => Cow::Borrowed(run),
                    })
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                }
                _ => return Err("raw control byte in string".into()),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let bytes = self.text.as_bytes();
        let ch = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = bytes
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| "truncated \\u escape".to_owned())?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
                // Surrogates are rejected rather than paired: the
                // workspace's writer never emits them.
                let ch = char::from_u32(code)
                    .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                self.pos += 4;
                ch
            }
            _ => return Err("bad escape in string".into()),
        };
        self.pos += 1;
        Ok(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::{JsonValue, Parser, Token};
    use std::borrow::Cow;

    #[test]
    fn parses_a_feed_record() {
        let line = r#"{"t_us":1250,"node":0,"cat":"monitor","event":"backoff_assigned","src":3,"assigned_slots":14.5,"observed_slots":2,"xid":77}"#;
        let v = JsonValue::parse(line).expect("valid record");
        assert_eq!(v.get("t_us").and_then(JsonValue::as_u64), Some(1250));
        assert_eq!(v.get("src").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("assigned_slots").and_then(JsonValue::as_f64),
            Some(14.5)
        );
        assert_eq!(v.get("cat").and_then(JsonValue::as_str), Some("monitor"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_obs_writer_output() {
        let mut obj = airguard_obs::JsonObject::new();
        obj.str("label", "a \"quoted\" λ label")
            .u64("seed", u64::from(u32::MAX))
            .f64("score", 0.30000000000000004)
            .bool("on", true)
            .raw("xs", "[1,2,3]");
        let text = obj.finish();
        let v = JsonValue::parse(&text).expect("writer output parses");
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("a \"quoted\" λ label")
        );
        assert_eq!(
            v.get("score").and_then(JsonValue::as_f64),
            Some(0.30000000000000004)
        );
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn u64_extraction_rejects_fractions_negatives_and_giants() {
        assert_eq!(JsonValue::Num(1.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e300).as_u64(), None);
        assert_eq!(JsonValue::Num(0.0).as_u64(), Some(0));
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "tru",
            "1e999",
            "nan",
            "{\"a\":1} trailing",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(JsonValue::parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn long_multibyte_runs_next_to_escapes_are_copied_whole() {
        let run = "λé€😀 plain ".repeat(400);
        let text = format!("\"{run}\\n{run}\\u00e9\\\"{run}\\\\\"");
        let v = JsonValue::parse(&text).expect("valid string");
        let expected = format!("{run}\n{run}é\"{run}\\");
        assert_eq!(v.as_str(), Some(expected.as_str()));
        // An escape-free string is borrowed from the input whole.
        let plain = format!("\"{run}\"");
        let token = Parser::new(&plain).token(0).expect("valid string");
        assert!(matches!(token, Token::Str(Cow::Borrowed(s)) if s == run));
        // Keys take the same path.
        let obj = JsonValue::parse(&format!("{{\"{run}\\t\":1}}")).expect("valid object");
        assert_eq!(obj.get(&format!("{run}\t")), Some(&JsonValue::Num(1.0)));
    }

    #[test]
    fn control_byte_or_unterminated_string_after_a_long_run_is_an_error() {
        let run = "λé€😀 plain ".repeat(400);
        for bad in [
            format!("\"{run}\u{1}\""),
            format!("\"{run}\n\""),
            format!("\"{run}"),
            format!("\"{run}\\n{run}"),
            format!("\"{run}\\"),
            format!("\"{run}\\u00"),
            format!("{{\"{run}\":\"{run}"),
            format!("[\"{run}\u{1f}{run}\"]"),
        ] {
            assert!(JsonValue::parse(&bad).is_err(), "accepted a bad string");
        }
    }

    #[test]
    fn escapes_resolve() {
        let v = JsonValue::parse(r#""a\\b\n\t\u0041""#).expect("escapes");
        assert_eq!(v.as_str(), Some("a\\b\n\tA"));
    }
}
