//! # apots-serde
//!
//! A small, from-scratch JSON value type with a writer and a
//! recursive-descent parser — the workspace's replacement for
//! `serde`/`serde_json` in the hermetic build.
//!
//! Scope is exactly what the reproduction needs:
//!
//! * [`Json`] — the value enum (`Null`/`Bool`/`Num`/`Str`/`Arr`/`Obj`);
//! * [`Map`] — an insertion-ordered string→value map (so checkpoint
//!   files and experiment dumps serialize reproducibly byte-for-byte);
//! * [`Json::parse`] — strict parser with full string-escape support
//!   (`\uXXXX` incl. surrogate pairs) and precise error positions;
//! * [`Json::to_string`] / [`Json::to_string_pretty`] — writers using
//!   Rust's shortest round-trip float formatting, so
//!   `f32 → JSON → f32` is lossless and save→load→save is
//!   byte-identical;
//! * the [`json!`] macro for literal construction;
//! * [`schema`] — the strict field access every document reader uses
//!   (unknown keys, missing keys, types and ranges refused by name).
//!
//! **Non-values:** JSON has no NaN/Infinity. Writers *panic* on
//! non-finite numbers rather than silently emitting `null` — a
//! checkpoint with a NaN weight is corrupt and must fail loudly.

use std::fmt;

pub mod atomic;
pub mod fsio;
mod parse;
pub mod schema;

pub use parse::Error;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; stored as `f64` (integers up to 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Map),
}

/// Insertion-ordered `String → Json` map.
///
/// Lookup is linear — objects in this workspace have at most a few dozen
/// keys, and preserving order keeps serialized output deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a key.
    pub fn insert(&mut self, key: String, value: Json) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl Json {
    /// Parses a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<Json, Error> {
        parse::parse(text)
    }

    /// Pretty serialization (two-space indent).
    ///
    /// # Panics
    /// Panics on non-finite numbers.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(map) => write_seq(out, indent, depth, map.len(), '{', '}', |out, i| {
                let (k, v) = &map.entries[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field access: `value.get("key")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Compact serialization (`to_string()` comes via the blanket
/// [`ToString`] impl).
///
/// # Panics
/// Panics on non-finite numbers (JSON cannot represent NaN/±Inf).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(
        n.is_finite(),
        "apots-serde: JSON cannot represent non-finite number {n}"
    );
    if n == n.trunc() && n.abs() < 2f64.powi(53) {
        // Integral values print without a fractional part (and -0.0
        // normalizes to 0), keeping integers readable.
        let i = n as i64;
        out.push_str(&i.to_string());
    } else {
        // Rust's shortest round-trip representation.
        out.push_str(&n.to_string());
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

// ---------------------------------------------------------------------
// Conversions

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

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

impl From<Map> for Json {
    fn from(v: Map) -> Self {
        Json::Obj(v)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}

impl_from_num!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Self {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Builds a [`Json`] literal.
///
/// Supports `null`, arrays `[a, b, …]`, objects with string-literal keys
/// `{"k": expr, …}`, and any expression with an `Into<Json>` conversion.
/// Nest objects by calling `json!` again: `json!({"outer": json!({…})})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($key.to_string(), $crate::Json::from($val)); )*
        $crate::Json::Obj(m)
    }};
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Json::Arr(vec![ $( $crate::Json::from($val) ),* ])
    };
    ($other:expr) => { $crate::Json::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_scalars() {
        assert_eq!(json!(null).to_string(), "null");
        assert_eq!(json!(true).to_string(), "true");
        assert_eq!(json!(3.5f32).to_string(), "3.5");
        assert_eq!(json!(42u64).to_string(), "42");
        assert_eq!(json!(-7i32).to_string(), "-7");
        assert_eq!(json!("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn writes_nested_structures() {
        let v = json!({
            "name": "apots",
            "speeds": vec![1.5f32, 2.0],
            "nested": json!({"k": 1i32})
        });
        assert_eq!(
            v.to_string(),
            r#"{"name":"apots","speeds":[1.5,2],"nested":{"k":1}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = json!("tab\tnewline\nquote\"back\\slash\u{1}");
        assert_eq!(
            v.to_string(),
            "\"tab\\tnewline\\nquote\\\"back\\\\slash\\u0001\""
        );
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let v = json!({
            "a": json!([1i32, 2i32, 3i32]),
            "b": json!({"c": -1.25f64, "d": json!(null), "e": false}),
            "s": "weird \"scenario\" \\ name\n"
        });
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""é\n\tA 😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é\n\tA 😀");
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(Json::parse("0").unwrap().as_usize(), Some(0));
        assert!(Json::parse("01").is_err());
        assert!(Json::parse("1.").is_err());
        assert!(Json::parse("+1").is_err());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    /// A repeated key used to keep its last value, so a strict reader
    /// never saw the first; it is refused by name, at any depth.
    #[test]
    fn rejects_a_repeated_key_by_name() {
        let err = Json::parse(r#"{"exact": true, "exact": false}"#).unwrap_err();
        assert_eq!(err.message, "duplicate key \"exact\" in object");
        assert_eq!(err.offset, 16);
        let nested = Json::parse(r#"{"m": [{"a": 1, "b": 2, "a": 1}]}"#).unwrap_err();
        assert_eq!(
            nested.to_string(),
            "duplicate key \"a\" in object at byte 24"
        );
        // The same key in sibling objects is no repeat.
        assert!(Json::parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_nan() {
        let _ = Json::Num(f64::NAN).to_string();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_infinity() {
        let _ = json!(f32::INFINITY).to_string();
    }

    #[test]
    fn f32_roundtrip_is_exact() {
        let mut rng = 0x1234_5678_u64;
        for _ in 0..10_000 {
            // xorshift for a quick varied sample of f32 bit patterns
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let v = f32::from_bits(rng as u32);
            if !v.is_finite() {
                continue;
            }
            let text = Json::from(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(v.to_bits(), back.to_bits(), "{v} → {text} → {back}");
        }
    }

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("z".into(), json!(1i32));
        m.insert("a".into(), json!(2i32));
        m.insert("z".into(), json!(3i32));
        assert_eq!(Json::Obj(m).to_string(), r#"{"z":3,"a":2}"#);
    }
}
