//! A small, dependency-free JSON library.
//!
//! The build environment has no access to a crates registry, so the
//! workspace cannot depend on `serde`/`serde_json`. This crate provides the
//! subset the harness actually needs: a [`Json`] value type preserving
//! object-key order, a compact and a pretty writer, a strict parser, a
//! [`json!`] construction macro, and [`ToJson`]/[`FromJson`] traits that
//! member crates implement by hand for their result/config types.

/// A JSON value.
///
/// Numbers are split into `Int` and `Float` so counters serialize without a
/// fractional part; object members keep insertion order (like
/// `serde_json`'s `preserve_order`), which keeps written files diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (anything written without `.` or exponent).
    Int(i64),
    /// A floating-point number. Non-finite values write as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// True for `Json::Obj`.
    pub fn is_object(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    /// The value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i64` (floats only when integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that errors with the missing key's name — the
    /// workhorse of hand-written [`FromJson`] impls.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing member `{key}`"))
    }

    /// `member(key)` then `as_u64`.
    pub fn u64_of(&self, key: &str) -> Result<u64, String> {
        self.member(key)?
            .as_u64()
            .ok_or_else(|| format!("member `{key}` is not a u64"))
    }

    /// `member(key)` then `as_f64`.
    pub fn f64_of(&self, key: &str) -> Result<f64, String> {
        self.member(key)?
            .as_f64()
            .ok_or_else(|| format!("member `{key}` is not a number"))
    }

    /// `member(key)` then `as_str`.
    pub fn str_of(&self, key: &str) -> Result<&str, String> {
        self.member(key)?
            .as_str()
            .ok_or_else(|| format!("member `{key}` is not a string"))
    }

    /// `member(key)` then `as_bool`.
    pub fn bool_of(&self, key: &str) -> Result<bool, String> {
        self.member(key)?
            .as_bool()
            .ok_or_else(|| format!("member `{key}` is not a bool"))
    }

    /// `member(key)` then `as_array`.
    pub fn arr_of(&self, key: &str) -> Result<&Vec<Json>, String> {
        self.member(key)?
            .as_array()
            .ok_or_else(|| format!("member `{key}` is not an array"))
    }

    /// Inserts or replaces an object member. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(m) => {
                if let Some(slot) = m.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    m.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Shared constant for [`std::ops::Index`] on missing members.
    const NULL: Json = Json::Null;

    /// Compact serialization.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest-roundtrip Display is valid JSON, but
                    // force a fractional part so floats re-parse as floats.
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------- From impls

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Member access; yields `Json::Null` for missing keys or non-objects
    /// (the `serde_json` convention, convenient in tests).
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&Json::NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Element access; yields `Json::Null` out of bounds or on non-arrays.
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&Json::NULL),
            _ => &Json::NULL,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Self {
        Json::Float(v as f64)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(i64::try_from(v).expect("integer out of i64 range"))
            }
        }
    )*};
}
from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Self {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Self {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&Vec<T>> for Json {
    fn from(v: &Vec<T>) -> Self {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

// -------------------------------------------------------------------- macro

/// Builds a [`Json`] value.
///
/// Supports the three shapes the harness uses: `json!({ "key": expr, ... })`
/// (keys must be string literals), `json!([expr, ...])`, and `json!(expr)`
/// for any `Into<Json>` expression. Unlike `serde_json::json!`, object and
/// array literals do not nest inside one another directly — wrap inner
/// literals in their own `json!` call.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::Json::Obj(vec![ $( (($k).to_string(), $crate::Json::from($v)) ),* ])
    };
    ([ $($v:expr),* $(,)? ]) => {
        $crate::Json::Arr(vec![ $( $crate::Json::from($v) ),* ])
    };
    ($v:expr) => { $crate::Json::from($v) };
}

// ------------------------------------------------------------------- traits

/// Hand-written serialization to a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Hand-written deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or explains what was malformed.
    fn from_json(v: &Json) -> Result<Self, String>;
}

// ------------------------------------------------------------------- parser

/// Parses a JSON document (strict: one value, optionally surrounded by
/// whitespace).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine surrogate pairs; lone surrogates error.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or("invalid \\u escape")?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 char (input is a &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            s.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number `{s}`"))
        } else {
            // Integers beyond i64 fall back to f64 like serde_json does.
            s.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| s.parse::<f64>().map(Json::Float))
                .map_err(|_| format!("bad number `{s}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_value() {
        let v = json!({
            "name": "probe",
            "count": 42u64,
            "ratio": 0.5f64,
            "flags": vec![true, false],
            "nested": json!({"inner": 1i64}),
            "nothing": json!(null),
        });
        let text = v.pretty();
        let back = parse(&text).expect("parse");
        assert_eq!(v, back);
        let compact = v.dump();
        assert_eq!(parse(&compact).expect("parse compact"), v);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let v = parse("[1, 1.0, -3, 2.5e3]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Float(1.0));
        assert_eq!(a[2], Json::Int(-3));
        assert_eq!(a[3], Json::Float(2500.0));
        // Floats always re-serialize with a fractional marker.
        assert_eq!(Json::Float(1.0).dump(), "1.0");
        assert_eq!(Json::Int(1).dump(), "1");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{1}ε";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&v.dump()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn object_access_helpers() {
        let v = json!({"a": 7u64, "b": "x", "c": vec![1i64, 2]});
        assert_eq!(v.u64_of("a").unwrap(), 7);
        assert_eq!(v.str_of("b").unwrap(), "x");
        assert_eq!(v.arr_of("c").unwrap().len(), 2);
        assert!(v.u64_of("missing").is_err());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = json!({"a": 1i64});
        v.set("a", Json::Int(2));
        v.set("b", Json::Str("new".into()));
        assert_eq!(v.u64_of("a").unwrap(), 2);
        assert_eq!(v.str_of("b").unwrap(), "new");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_floats_write_as_null() {
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({"k": vec![1i64]});
        assert_eq!(v.pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }
}
