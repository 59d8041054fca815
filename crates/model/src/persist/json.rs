//! The JSON value every persisted record is built from and parsed into.
//!
//! **Writer.** [`Value::encode`] is canonical: no whitespace, objects in
//! insertion order, strings escaped by [`escape_into`] (`\"`, `\\`,
//! `\n`, `\t`, `\r`, other control characters as `\u00XX`). Encoders
//! build keys in a fixed order, so identical values encode to identical
//! bytes — the trace `cmp` gates and the corpus pins rest on it.
//!
//! **Parser.** [`parse`] is strict and total: any input that is not a
//! single well-formed JSON document is an `Err` carrying the byte
//! offset, never a panic. It runs in linear time: strings are copied a
//! chunk at a time between escapes, and nesting deeper than
//! [`MAX_DEPTH`] is refused rather than allowed to exhaust the stack.
//! Non-negative integers parse as exact `u64` ([`Value::Num`]); any
//! other number (negative, fractional or with an exponent) as `f64`
//! ([`Value::Float`]).

use std::fmt::{self, Write as _};

/// Nesting depth past which [`parse`] refuses its input. The pipeline's
/// own records nest at most a handful of levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    Num(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion (or source) key order.
    Obj(Vec<(String, Value)>),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl Value {
    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Object field lookup (the first field named `key`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required field, converted by `conv`: an `as_*` accessor or any
    /// function returning an `Option` or a `Result` (see [`Decoded`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` (and, for nested decoders, the
    /// path below it) when the field is missing or does not convert.
    pub fn field<'v, R: Decoded>(
        &'v self,
        key: &str,
        conv: impl FnOnce(&'v Value) -> R,
    ) -> Result<R::Out, String> {
        let value = self.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
        conv(value).decoded().map_err(|e| format!("field {key:?}: {e}"))
    }

    /// An optional field: `Ok(None)` when absent or `null`, otherwise
    /// as [`field`](Value::field).
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it does not convert.
    pub fn opt_field<'v, R: Decoded>(
        &'v self,
        key: &str,
        conv: impl FnOnce(&'v Value) -> R,
    ) -> Result<Option<R::Out>, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.field(key, conv).map(Some),
        }
    }

    /// A required array field with every element converted by `conv`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` (and the element index) when it is
    /// missing, not an array, or holds an element that does not convert.
    pub fn list<'v, R: Decoded>(
        &'v self,
        key: &str,
        mut conv: impl FnMut(&'v Value) -> R,
    ) -> Result<Vec<R::Out>, String> {
        self.field(key, Value::as_arr)?
            .iter()
            .enumerate()
            .map(|(i, v)| conv(v).decoded().map_err(|e| format!("field {key:?}[{i}]: {e}")))
            .collect()
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The payload of a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload of a non-negative integer that fits `T`, a narrower
    /// integer type such as `u32`.
    pub fn as_int<T: TryFrom<u64>>(&self) -> Option<T> {
        T::try_from(self.as_u64()?).ok()
    }

    /// The payload of an integer in `i64` range (floats only when
    /// integral and exact, |x| ≤ 9e15).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => i64::try_from(*n).ok(),
            Value::Float(x) if x.fract() == 0.0 && x.abs() <= 9e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Appends the canonical encoding to `out`. Non-finite floats, which
    /// JSON cannot represent, encode as `null`.
    pub fn encode(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode(out);
                }
                out.push('}');
            }
        }
    }

    /// The canonical encoding as a new string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out);
        out
    }
}

/// What a field converter returns: an `Option` (`None` = wrong type) or
/// a `Result` whose message [`Value::field`] prefixes with the field's
/// path.
pub trait Decoded {
    /// The converted value.
    type Out;
    /// The converted value, or why the field does not convert.
    ///
    /// # Errors
    ///
    /// Returns the reason the conversion failed.
    fn decoded(self) -> Result<Self::Out, String>;
}

impl<T> Decoded for Option<T> {
    type Out = T;
    fn decoded(self) -> Result<T, String> {
        self.ok_or_else(|| "wrong type".to_owned())
    }
}

impl<T> Decoded for Result<T, String> {
    type Out = T;
    fn decoded(self) -> Result<T, String> {
        self
    }
}

/// A string displayed as a quoted, escaped JSON string literal — for
/// hand-rolled encoders that build documents with `write!`.
///
/// ```
/// use govdns_model::persist::Quoted;
/// assert_eq!(format!("{{\"id\":{}}}", Quoted("a\"b\n")), r#"{"id":"a\"b\n"}"#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        // Fast path: nothing to escape (UTF-8 continuation bytes are
        // ≥ 0x80, so a byte scan is sound).
        if self.0.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            f.write_str(self.0)?;
        } else {
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\t' => f.write_str("\\t")?,
                    '\r' => f.write_str("\\r")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
        }
        f.write_char('"')
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn escape_into(s: &str, out: &mut String) {
    let _ = write!(out, "{}", Quoted(s));
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.fail("trailing bytes");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return p.fail("expected ':'");
                    }
                    p.pos += 1;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected byte"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Parses the comma-separated items of the array or object whose
    /// opening bracket is at `pos`, through its `close` bracket.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return self.fail("expected ',' or a closing bracket"),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return self.fail("bad literal");
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        // An ASCII run, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Num(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.fail("expected a string");
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let start = self.pos;
            while bytes.get(self.pos).is_some_and(|&b| b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            // The scan stops only at ASCII bytes or the end of input, and
            // starts after one: both ends are char boundaries.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return self.fail("raw control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// Decodes the escape sequence whose backslash is at `pos`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                let Some(c) = code.and_then(char::from_u32) else {
                    return self.fail("bad \\u escape");
                };
                self.pos += 4;
                c
            }
            _ => return self.fail("bad escape"),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_subset_and_re_encodes_it_byte_identically() {
        let doc = r#"{"a":1,"b":"x","c":[true,false,null],"d":{"e":2.5,"g":-3},"f":[]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.field("b", Value::as_str), Ok("x"));
        assert_eq!(v.get("c").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(v.get("d").and_then(|d| d.get("e")), Some(&Value::Float(2.5)));
        assert_eq!(v.get("d").and_then(|d| d.get("g")).and_then(Value::as_i64), Some(-3));
        assert_eq!(v.field("b", Value::as_u64), Err("field \"b\": wrong type".to_owned()));
        let nested = v.field("d", |d| d.field("e", Value::as_u64));
        assert_eq!(nested, Err("field \"d\": field \"e\": wrong type".to_owned()));
        assert_eq!(v.list("c", Value::as_bool), Err("field \"c\"[2]: wrong type".to_owned()));
        assert!(v.field("zz", Value::as_u64).unwrap_err().contains("missing"));
        assert_eq!(v.to_json(), doc);
    }

    #[test]
    fn integers_are_exact_over_the_whole_u64_range() {
        let v = parse("[18446744073709551615,9007199254740993]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(9_007_199_254_740_993), "2^53 + 1 stays exact");
        assert_eq!(items[0].as_i64(), None);
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g/é";
        let mut doc = String::new();
        escape_into(nasty, &mut doc);
        assert_eq!(doc, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g/é\"");
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
        assert_eq!(parse(r#""\/\b\f\u00e9""#).unwrap().as_str(), Some("/\u{8}\u{c}é"));
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{}x",
            "\"abc",
            "\"\\u00",
            "\"\\u00zz\"",
            "\"\\ud800\"",
            "\"\\q\"",
            "\"a\u{1}\"",
            "-",
            "1e999",
            "01x",
            "nul",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "+1",
            ".5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
