//! Strict field access: every document reader views its objects as
//! [`Obj`]s, which carry the context their errors name (`scenario`,
//! `events[2] (outage)`, a file path), so all readers word errors alike:
//! `{ctx}: unknown key "k" (valid keys: a, b)`, `{ctx}: missing required
//! key "k"`, `{ctx}: k must be a string` and `{ctx}: k = v out of range
//! (valid: lo..=hi)`. An absent key and `null` are the same. Grammars
//! that are not JSON (`APOTS_FAULTS`) use [`unknown_key`] and
//! [`out_of_range`] for the same texts.

use std::fmt::{Debug, Display};
use std::ops::{Bound, RangeBounds};

use crate::{Json, Map};

/// One JSON object and the context its errors name.
#[derive(Debug, Clone)]
pub struct Obj<'a> {
    map: &'a Map,
    ctx: String,
}

/// A present, non-null value of an [`Obj`] (borrowed from the document
/// for `'a`) with the key and context its errors name.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a, 'b> {
    value: &'a Json,
    key: &'b str,
    ctx: &'b str,
}

/// `{ctx}: unknown key "k" (valid keys: a, b)`, from `valid` = `"a b"`.
pub fn unknown_key(ctx: &str, key: &str, valid: &str) -> String {
    let valid: Vec<&str> = valid.split_whitespace().collect();
    format!(
        "{ctx}: unknown key {key:?} (valid keys: {})",
        valid.join(", ")
    )
}

/// `{ctx}: k = v out of range (valid: lo..=hi)`, or `lo <= k < hi` for a
/// half-open range.
pub fn out_of_range<T: Display + Debug>(
    ctx: &str,
    key: &str,
    value: T,
    range: &impl RangeBounds<T>,
) -> String {
    let valid = match (range.start_bound(), range.end_bound()) {
        (Bound::Included(lo), Bound::Included(hi)) => format!("{lo}..={hi}"),
        (Bound::Included(lo), Bound::Excluded(hi)) => format!("{lo} <= {key} < {hi}"),
        (lo, hi) => format!("{key} within {lo:?}, {hi:?}"),
    };
    format!("{ctx}: {key} = {value} out of range (valid: {valid})")
}

impl<'a> Obj<'a> {
    /// Views `value` as an object whose errors name `ctx`.
    pub fn new(value: &'a Json, ctx: impl Into<String>) -> Result<Self, String> {
        let ctx = ctx.into();
        match value.as_object() {
            Some(map) => Ok(Obj { map, ctx }),
            None => Err(format!("{ctx}: must be a JSON object")),
        }
    }

    /// The context errors name.
    pub fn ctx(&self) -> &str {
        &self.ctx
    }

    /// Refuses the first key not in `keys` (separated by spaces), naming
    /// it and the valid set.
    pub fn only(self, keys: &str) -> Result<Self, String> {
        let unknown = |k: &&str| !keys.split_whitespace().any(|valid| valid == *k);
        match self.map.iter().map(|(k, _)| k).find(unknown) {
            Some(key) => Err(unknown_key(&self.ctx, key, keys)),
            None => Ok(self),
        }
    }

    /// The value of `key`, or `None` when it is absent or `null`.
    pub fn opt<'b>(&'b self, key: &'b str) -> Option<Field<'a, 'b>> {
        let value = self.map.get(key).filter(|v| **v != Json::Null)?;
        let ctx = &self.ctx;
        Some(Field { value, key, ctx })
    }

    /// The value of `key`; absent or `null` is an error naming it.
    pub fn req<'b>(&'b self, key: &'b str) -> Result<Field<'a, 'b>, String> {
        self.opt(key)
            .ok_or_else(|| format!("{}: missing required key {key:?}", self.ctx))
    }
}

impl<'a, 'b> Field<'a, 'b> {
    fn must_be<T>(&self, v: Option<T>, what: &str) -> Result<T, String> {
        v.ok_or_else(|| format!("{}: {} must be {what}", self.ctx, self.key))
    }

    fn check_range<T: PartialOrd + Display + Debug>(
        &self,
        v: T,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(out_of_range(self.ctx, self.key, v, &range))
        }
    }

    /// The raw value.
    pub fn value(self) -> &'a Json {
        self.value
    }

    /// A string.
    pub fn str(self) -> Result<&'a str, String> {
        self.must_be(self.value.as_str(), "a string")
    }

    /// A boolean.
    pub fn bool(self) -> Result<bool, String> {
        self.must_be(self.value.as_bool(), "a boolean")
    }

    /// An array.
    pub fn arr(self) -> Result<&'a [Json], String> {
        self.must_be(self.value.as_array(), "an array")
    }

    /// An object, viewed with the context `{ctx} {key}`.
    pub fn obj(self) -> Result<Obj<'a>, String> {
        Obj::new(self.value, format!("{} {}", self.ctx, self.key))
    }

    /// Any number.
    pub fn f64(self) -> Result<f64, String> {
        self.must_be(self.value.as_f64(), "a number")
    }

    /// A number inside `range`.
    pub fn f64_within(self, range: impl RangeBounds<f64>) -> Result<f64, String> {
        self.check_range(self.f64()?, range)
    }

    /// A number that stays finite when narrowed to `f32`: `1e39` would
    /// load as `inf`, which no writer in the workspace can save again.
    pub fn f32(self) -> Result<f32, String> {
        let v = self.f64()?;
        Some(v as f32)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("{}: {} = {v:e} is not finite as f32", self.ctx, self.key))
    }

    /// A non-negative integer JSON represents exactly (at most 2⁵³).
    pub fn usize(self) -> Result<usize, String> {
        self.must_be(self.value.as_usize(), "a non-negative integer")
    }

    /// [`Field::usize`] inside `range`.
    pub fn usize_within(self, range: impl RangeBounds<usize>) -> Result<usize, String> {
        self.check_range(self.usize()?, range)
    }

    /// [`Field::usize`] as a `u64`.
    pub fn u64(self) -> Result<u64, String> {
        Ok(self.usize()? as u64)
    }

    /// A `u64` written as a string of ASCII digits (the full range, which
    /// a JSON number cannot carry).
    pub fn u64_text(self) -> Result<u64, String> {
        let s = self.str()?;
        s.parse()
            .ok()
            .filter(|_| s.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| format!("{}: {} = {s:?} is not a decimal u64", self.ctx, self.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn only_names_the_unknown_key_and_the_valid_set() {
        let d = doc(r#"{"a": 1, "bb": 2}"#);
        assert!(Obj::new(&d, "ctx").unwrap().only("a bb").is_ok());
        assert_eq!(
            Obj::new(&d, "ctx").unwrap().only("a b").unwrap_err(),
            r#"ctx: unknown key "bb" (valid keys: a, b)"#
        );
        assert_eq!(
            Obj::new(&doc("[1]"), "ctx").unwrap_err(),
            "ctx: must be a JSON object"
        );
    }

    #[test]
    fn absent_and_null_are_alike() {
        let d = doc(r#"{"a": null, "b": 0}"#);
        let o = Obj::new(&d, "ctx").unwrap();
        assert!(o.opt("a").is_none() && o.opt("z").is_none());
        assert_eq!(o.opt("b").unwrap().value(), &Json::Num(0.0));
        for key in ["a", "z"] {
            assert_eq!(
                o.req(key).unwrap_err(),
                format!("ctx: missing required key {key:?}")
            );
        }
    }

    #[test]
    fn typed_getters_name_key_and_expected_type() {
        let d = doc(r#"{"s": "x", "n": 1.5, "i": 7, "b": true, "a": [], "o": {"k": 1}}"#);
        let o = Obj::new(&d, "ctx").unwrap();
        assert_eq!(o.req("s").unwrap().str(), Ok("x"));
        assert_eq!(o.req("b").unwrap().bool(), Ok(true));
        assert_eq!(o.req("a").unwrap().arr().map(<[Json]>::len), Ok(0));
        assert_eq!(o.req("n").unwrap().f64(), Ok(1.5));
        assert_eq!(o.req("n").unwrap().f32(), Ok(1.5));
        assert_eq!(o.req("i").unwrap().u64(), Ok(7));
        assert_eq!(o.req("i").unwrap().usize(), Ok(7));
        let inner = o.req("o").unwrap().obj().unwrap();
        assert_eq!(inner.ctx(), "ctx o");
        assert_eq!(inner.req("k").unwrap().usize(), Ok(1));
        assert_eq!(
            o.req("n").unwrap().str().unwrap_err(),
            "ctx: n must be a string"
        );
        let f = o.req("s").unwrap();
        assert_eq!(f.bool().unwrap_err(), "ctx: s must be a boolean");
        assert_eq!(f.arr().unwrap_err(), "ctx: s must be an array");
        assert_eq!(f.obj().unwrap_err(), "ctx s: must be a JSON object");
        assert_eq!(f.f64().unwrap_err(), "ctx: s must be a number");
        assert_eq!(
            o.req("n").unwrap().u64().unwrap_err(),
            "ctx: n must be a non-negative integer"
        );
        assert_eq!(
            o.req("n").unwrap().usize_within(0..=9).unwrap_err(),
            "ctx: n must be a non-negative integer"
        );
    }

    #[test]
    fn ranges_are_named_closed_or_half_open() {
        let d = doc(r#"{"day": 9, "amp": 4.0, "rate": 1.0, "x": 1e39}"#);
        let o = Obj::new(&d, "events[4] (super_peak)").unwrap();
        assert_eq!(
            o.req("day").unwrap().usize_within(0..=2).unwrap_err(),
            "events[4] (super_peak): day = 9 out of range (valid: 0..=2)"
        );
        assert_eq!(
            o.req("amp").unwrap().f64_within(1.0..=3.0).unwrap_err(),
            "events[4] (super_peak): amp = 4 out of range (valid: 1..=3)"
        );
        assert_eq!(
            o.req("rate").unwrap().f64_within(0.0..1.0).unwrap_err(),
            "events[4] (super_peak): rate = 1 out of range (valid: 0 <= rate < 1)"
        );
        assert_eq!(o.req("amp").unwrap().f64_within(1.0..=4.0), Ok(4.0));
        assert_eq!(
            o.req("x").unwrap().f32().unwrap_err(),
            "events[4] (super_peak): x = 1e39 is not finite as f32"
        );
        assert_eq!(
            out_of_range("APOTS_FAULTS", "eio", 1.5, &(0.0..=1.0)),
            "APOTS_FAULTS: eio = 1.5 out of range (valid: 0..=1)"
        );
        assert_eq!(
            out_of_range("c", "k", 7, &(..5)),
            "c: k = 7 out of range (valid: k within Unbounded, Excluded(5))"
        );
    }

    #[test]
    fn u64_text_takes_ascii_digits_only() {
        let d = doc(r#"{"a": "18446744073709551615", "b": "+5", "c": "", "d": "1e3", "e": 5}"#);
        let o = Obj::new(&d, "ctx").unwrap();
        assert_eq!(o.req("a").unwrap().u64_text(), Ok(u64::MAX));
        for key in ["b", "c", "d"] {
            let err = o.req(key).unwrap().u64_text().unwrap_err();
            assert!(err.ends_with("is not a decimal u64"), "{err}");
        }
        assert_eq!(
            o.req("e").unwrap().u64_text().unwrap_err(),
            "ctx: e must be a string"
        );
        // Integers beyond 2^53 are not exact as JSON numbers.
        let big = doc(r#"{"n": 18014398509481984}"#);
        let o = Obj::new(&big, "ctx").unwrap();
        assert!(o.req("n").unwrap().u64().is_err());
    }
}
