//! A minimal JSON value type: build, print and parse.
//!
//! The workspace is dependency-free by design, so the machine-readable
//! trace and benchmark outputs use this module instead of `serde`.  The
//! value model keeps object keys in insertion order (stable output across
//! runs) and distinguishes integers from floats so counters and nanosecond
//! timestamps round-trip exactly.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (printed without a decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Builder-style field insertion (objects only).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Inserts or replaces a field (objects only).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Appends an element (arrays only).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) {
        let Json::Arr(items) = self else {
            panic!("Json::push on a non-array");
        };
        items.push(value.into());
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer (floats with zero fraction included).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::Float(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
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

    /// The value as an object's field list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses one JSON document (rejecting trailing garbage).
    ///
    /// The parser is safe on untrusted network input: nesting deeper than
    /// [`MAX_PARSE_DEPTH`] is rejected with an error (instead of
    /// overflowing the stack — `value` recurses per nesting level), and
    /// anything after the top-level value, even whitespace-separated, is
    /// a parse error.
    ///
    /// # Errors
    ///
    /// Returns a byte offset + message on malformed input.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Appends the compact JSON text of `self` to `out`: the one writer
    /// behind [`Display`](fmt::Display) and [`Json::to_pretty`].  Its
    /// string half, [`write_str`], also writes the trace sink's names and
    /// messages.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_float(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.pretty_into(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => other.write_to(out),
        }
    }
}

/// Appends `s` as a JSON string literal.  Runs of bytes that need no
/// escaping are copied with one `push_str`; only `"`, `\` and control
/// characters are escaped, so non-ASCII text passes through as UTF-8.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` is a char boundary.
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a float so that it re-parses as the same float: integral
/// values keep a decimal marker (`3.0`), or an exponent from 1e15 up,
/// where `{}` would print every digit and the text would come back as an
/// integer.  Non-finite values, which JSON cannot express, print as
/// `null`.
fn write_float(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() != 0.0 {
        let _ = write!(out, "{v}");
    } else if v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v:e}");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v.min(i64::MAX as u64) as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting [`Json::parse`] accepts.  Deep enough for
/// every document the workspace produces (traces nest a handful of
/// levels; specs on the service wire nest ~6), shallow enough that the
/// recursive-descent parser cannot be driven into a stack overflow by
/// adversarial input like `[[[[…`.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, capped at [`MAX_PARSE_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting deeper than MAX_PARSE_DEPTH"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            // A high surrogate followed by an escaped low
                            // one is a pair (how `json.dumps` writes text
                            // beyond the BMP); a lone half is U+FFFD.
                            let lo = if (0xd800..0xdc00).contains(&hi)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let save = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    lo @ 0xdc00..=0xdfff => Some(lo),
                                    _ => {
                                        self.pos = save;
                                        None
                                    }
                                }
                            } else {
                                None
                            };
                            let c = match lo {
                                Some(lo) => 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00),
                                None => hi,
                            };
                            out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        // `from_str_radix` alone would take a sign (`\u+123`).
        let v = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            // Integers that overflow i64 fall back to float.
        }
        // A float beyond `f64`'s range would print back as `null`.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Float(v)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = Json::obj()
            .with("name", "cegis.verify")
            .with("t_ns", 123456789u64)
            .with("ok", true)
            .with("ratio", 0.5)
            .with("items", Json::Arr(vec![Json::Int(1), Json::Null]));
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Pretty output parses back to the same value too.
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn floats_reparse_as_the_same_float() {
        for v in [
            0.0,
            -0.0,
            3.0,
            -2.5,
            0.1,
            1e-30,
            999_999_999_999_999.0,
            1e15,
            -4e18,
            1e300,
        ] {
            let text = Json::Float(v).to_string();
            assert_eq!(
                Json::parse(&text),
                Ok(Json::Float(v)),
                "{v} printed as {text}"
            );
        }
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Float(1e15).to_string(), "1e15");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        // Numbers beyond f64's range are refused, not read as infinity.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse(&"9".repeat(400)).is_err());
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Float(18446744073709551616.0))
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // Python's `json.dumps("😀")` writes the UTF-16 pair.
        let v = Json::parse(r#""\ud83d\ude00 caf\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} caf\u{e9}"));
        // Uppercase hex digits are the same pair.
        assert_eq!(
            Json::parse(r#""\uD83D\uDE00""#).unwrap().as_str(),
            Some("😀")
        );
        // Lone halves stay U+FFFD, and whatever follows still decodes.
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00x""#, "\u{fffd}x"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        assert!(Json::parse(r#""\ud83d\uzzzz""#).is_err());
        assert!(Json::parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_after_top_level_value() {
        // Network input is one value per line; anything after the value
        // must fail, not be silently discarded.
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("[1] [2]").is_err());
        assert!(Json::parse("null null").is_err());
        assert!(Json::parse("true,").is_err());
        assert!(Json::parse("{\"a\":1}}").is_err());
        // Trailing whitespace alone stays fine.
        assert!(Json::parse(" {\"a\": 1} \n").is_ok());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Far deeper than MAX_PARSE_DEPTH; without the cap this input
        // overflows the parser's recursion stack.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}0{}", open.repeat(100_000), close.repeat(100_000));
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.msg.contains("MAX_PARSE_DEPTH"), "{err}");
        }
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let depth = MAX_PARSE_DEPTH;
        let ok = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(Json::parse(&too_deep).is_err());
        // Siblings at high depth don't trip the cap (depth is tracked,
        // not a cumulative container count).
        let siblings = format!(
            "[{0}, {0}]",
            format!("{}0{}", "[".repeat(depth - 2), "]".repeat(depth - 2))
        );
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": [1.5, "x"], "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.5));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[1].as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), None);
    }
}
