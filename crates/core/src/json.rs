//! A small, fully fallible JSON document model: the other half of the
//! hand-rolled serializer in [`crate::report`].
//!
//! The `sxd` daemon speaks newline-delimited JSON over TCP, so it needs to
//! *parse* untrusted text, not just emit it. This parser never panics on
//! any input: truncated documents, garbage bytes, hostile nesting depth
//! and trailing junk all come back as a typed [`JsonError`] with a byte
//! position. Serialization is deterministic — object members keep
//! insertion order, and numbers print via [`crate::report::json_f64`]
//! (shortest round-tripping form) — so parse → print → parse is a fixed
//! point and byte-level comparisons of re-serialized documents are
//! meaningful.

use crate::report::{json_escape, json_f64};

/// Nesting depth beyond which the parser refuses to recurse (a hostile
/// `[[[[…` document must not overflow the stack).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects preserve member order (no hashing — the
/// serializer stays deterministic and the workspace stays hermetic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub detail: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.pos, self.detail)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one complete JSON document (trailing whitespace allowed,
    /// trailing junk rejected). Never panics.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { s: text, b: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric member as a non-negative integer counter.
    ///
    /// The upper bound is strict: `u64::MAX as f64` rounds *up* to 2^64,
    /// so accepting `x <= u64::MAX as f64` would admit 2^64 itself, which
    /// no `u64` can hold (`as u64` silently saturates). Every f64 below
    /// 2^64 converts exactly, the largest being 2^64 − 2048.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&json_f64(*x)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    s: &'a str,
    /// `s.as_bytes()`: the scanner works on bytes, strings are sliced
    /// out of `s`.
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: &'static str) -> JsonError {
        JsonError { pos: self.pos, detail }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.pos) {
            None => Err(self.err("unexpected end of document")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &'static str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.b.get(self.pos), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a value"));
        }
        // The byte class above is ASCII-only, so the slice is valid UTF-8.
        let token = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii token");
        match token.parse::<f64>() {
            // `f64::from_str` accepts "inf"/"nan" spellings JSON forbids,
            // but those never reach it: the scanner only collects numeric
            // bytes. A bare '-' or "1e" still parse-fails here.
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.b.get(self.pos) {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("bad \\u escape")),
            };
            self.pos += 1;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let opened = self.eat(b'"');
        debug_assert!(opened);
        let mut run = self.pos; // start of the current plain segment
        self.scan_plain();
        // The common case, a literal with no escapes: one copy, no
        // incremental pushes.
        if self.b.get(self.pos) == Some(&b'"') {
            let out = self.segment(run)?.to_owned();
            self.pos += 1;
            return Ok(out);
        }
        let mut out = String::new();
        loop {
            self.scan_plain();
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.segment(run)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.segment(run)?);
                    self.pos += 1;
                    let esc = match self.b.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low half must follow.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("lone surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                // A low surrogate with no preceding high
                                // half (lone, or an inverted pair) can
                                // never form a scalar value. Reporting it
                                // here keeps the diagnosis precise;
                                // `char::from_u32` below would reject it
                                // anyway, so no surrogate ever leaks
                                // through as U+FFFD or worse.
                                return Err(self.err("lone surrogate"));
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid code point")),
                            }
                            run = self.pos;
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(esc);
                    self.pos += 1;
                    run = self.pos;
                }
                // `scan_plain` stops only at '"', '\\' or a control byte.
                Some(_) => return Err(self.err("control byte in string")),
            }
        }
    }

    /// Advance past plain string bytes: up to the next '"', '\\',
    /// control byte or the end of the input.
    fn scan_plain(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b'"' || c == b'\\' || c < 0x20 {
                return;
            }
            self.pos += 1;
        }
    }

    /// The plain (escape-free) text `run..self.pos` of a string literal,
    /// sliced from the input. Both ends sit next to ASCII delimiters, so
    /// they are char boundaries and the slice never fails in practice.
    fn segment(&self, run: usize) -> Result<&'a str, JsonError> {
        self.s.get(run..self.pos).ok_or(JsonError { pos: run, detail: "invalid UTF-8 in string" })
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let opened = self.eat(b'[');
        debug_assert!(opened);
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let opened = self.eat(b'{');
        debug_assert!(opened);
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected member name"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = r#"{"op":"submit","suite":"RADABS","n":3,"x":-1.5e2,"ok":true,"none":null,"params":["a","b"]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("params").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_rejects_the_two_to_the_64_boundary() {
        // Largest f64 strictly below 2^64: converts exactly, must pass.
        let below = 18_446_744_073_709_549_568.0; // 2^64 - 2048
        assert_eq!(Json::Num(below).as_u64(), Some(18_446_744_073_709_549_568));
        // 2^64 itself is representable as an f64 but not as a u64; the old
        // `<= u64::MAX as f64` bound admitted it and `as u64` saturated.
        let exactly = 18_446_744_073_709_551_616.0; // 2^64
        assert_eq!(Json::Num(exactly).as_u64(), None);
        // The next representable f64 above 2^64 must also be rejected.
        let above = 18_446_744_073_709_555_712.0; // 2^64 + 4096
        assert_eq!(Json::Num(above).as_u64(), None);
        // Sanity at the small end and for non-integers.
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn print_parse_is_a_fixed_point() {
        let doc = r#"{ "a" : [1, 2.5, {"b":"c\nd"}, []] , "e": {} }"#;
        let v = Json::parse(doc).unwrap();
        let printed = v.to_string();
        let reparsed = Json::parse(&printed).unwrap();
        assert_eq!(v, reparsed);
        assert_eq!(printed, reparsed.to_string());
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::parse(r#""tab\t quote\" back\\ solidus\/ unicodeé 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" back\\ solidus/ unicode\u{e9} 😀"));
        let reparsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "tru",
            "nul",
            "-",
            "1e",
            "+",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "1 2",
            "{} []",
            "[1] trailing",
            "\u{1}",
            "nan",
            "Infinity",
            "'single'",
            "[01,,]",
            "{\"dup\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_escapes_pair_or_fail_typed() {
        // A valid pair decodes to the astral code point.
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));

        // Every malformed surrogate shape is a typed JsonError — never a
        // panic, never a silent U+FFFD replacement.
        for (doc, detail) in [
            // Unpaired high surrogate: end of string, non-escape tail,
            // or followed by a non-surrogate escape.
            (r#""\ud800""#, "lone surrogate"),
            (r#""\ud800 tail""#, "lone surrogate"),
            (r#""\ud800\n""#, "lone surrogate"),
            (r#""\ud800A""#, "lone surrogate"),
            // Two high halves in a row.
            (r#""\ud800\ud801""#, "lone surrogate"),
            // Lone low surrogate, both range edges.
            (r#""\udc00""#, "lone surrogate"),
            (r#""\udfff x""#, "lone surrogate"),
            // Inverted pair: low half first.
            (r#""\udc00\ud800""#, "lone surrogate"),
            // Truncated escapes inside the pair.
            (r#""\ud800\u00""#, "bad \\u escape"),
            (r#""\ud800\u""#, "bad \\u escape"),
            (r#""\ud8""#, "bad \\u escape"),
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err.detail, detail, "doc {doc}");
        }

        // The surrogate range boundaries themselves are ordinary escapes.
        assert_eq!(Json::parse(r#""\ud7ff\ue000""#).unwrap().as_str(), Some("\u{d7ff}\u{e000}"));
    }

    #[test]
    fn hostile_nesting_depth_is_rejected() {
        let deep = "[".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.detail, "nesting too deep");
        // Just inside the cap still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_print_shortest_roundtrip_form() {
        let v = Json::parse("[0.1, 1, 1e3, -2.5]").unwrap();
        assert_eq!(v.to_string(), "[0.1,1.0,1000.0,-2.5]");
    }

    /// Fuzz-ish: seeded random byte soup and random truncations of a valid
    /// document must parse to `Ok` or `Err`, never panic or hang.
    #[test]
    fn random_inputs_never_panic() {
        let mut rng = SmallRng::seed_from_u64(0x4a53_4f4e); // "JSON"
        let alphabet: Vec<char> =
            "{}[]\",:0123456789.eE+-truefalsnl\\u \t\n\u{e9}".chars().collect();
        for _ in 0..2000 {
            let len = rng.next_below(80);
            let s: String = (0..len).map(|_| alphabet[rng.next_below(alphabet.len())]).collect();
            let _ = Json::parse(&s);
        }
        let valid = r#"{"op":"submit","suite":"fig5","params":{"m":"sx4-9.2","k":[1,2,3]}}"#;
        for cut in 0..valid.len() {
            if valid.is_char_boundary(cut) {
                let _ = Json::parse(&valid[..cut]);
            }
        }
    }
}
