//! Offline shim for the `serde` crate.
//!
//! Instead of serde's visitor-based `Serializer`/`Deserializer` pair, this
//! shim routes everything through a self-describing [`Value`] tree:
//! `Serialize::to_value` builds one, `Deserialize::from_value` consumes one.
//! The derive macros in the sibling `serde_derive` shim generate impls of
//! these traits with the same data-model conventions real serde uses for
//! JSON (newtype structs unwrap, unit enum variants serialize as strings,
//! data-carrying variants as single-entry maps, …), so `serde_json`
//! round-trips are format-compatible with the real thing.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// A self-describing serialized value (the shim's data model).
///
/// Strings are `Cow<'static, str>` so the derive macros can emit struct
/// field names and unit-variant tags as borrowed literals — building a
/// value tree for a derived struct then costs no per-key allocations,
/// which is what makes serializing high-frequency records (the anomaly
/// pipeline's recording frames) cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` / unit / `None`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(Cow<'static, str>),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with string keys, in insertion order.
    Map(Vec<(Cow<'static, str>, Value)>),
}

/// A (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// An error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can serialize themselves into a [`Value`].
pub trait Serialize {
    /// Builds the value tree for `self`.
    fn to_value(&self) -> Value;

    /// Streams `self` as compact JSON, appending to `out`.
    ///
    /// The default routes through [`Serialize::to_value`]; the impls the
    /// derive shim generates (and the primitive impls here) instead write
    /// directly, so hot serialization paths (`serde_json::to_string`)
    /// build no intermediate tree and allocate nothing beyond the output
    /// string. Both paths render byte-identically.
    fn write_json(&self, out: &mut String) {
        write_value_json(out, &self.to_value());
    }

    /// True when `self` serializes as JSON `null`. The derive shim omits
    /// such named fields entirely (both paths: tree and streaming) —
    /// [`map_field`] reads missing fields back as `Null`, so `None`
    /// options round-trip while every serialized byte carries data.
    fn json_is_null(&self) -> bool {
        false
    }
}

/// Appends the compact-JSON rendering of a [`Value`] tree to `out`
/// (the [`Serialize::write_json`] fallback; `serde_json` renders pretty
/// output through its own writer).
pub fn write_value_json(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write_u64_json(out, *n),
        Value::I64(n) => write_i64_json(out, *n),
        Value::F64(x) => write_f64_json(out, *x),
        Value::Str(s) => write_str_json(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_json(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str_json(out, k);
                out.push(':');
                write_value_json(out, val);
            }
            out.push('}');
        }
    }
}

/// Appends a decimal `u64` to `out` without going through the `fmt`
/// machinery — integers dominate serialized event records, and this is
/// several times faster than `write!(out, "{n}")`.
pub fn write_u64_json(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // The buffer holds only ASCII digits.
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are utf-8"));
}

/// Appends a decimal `i64` to `out` (see [`write_u64_json`]).
pub fn write_i64_json(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
        write_u64_json(out, n.unsigned_abs());
    } else {
        write_u64_json(out, n as u64);
    }
}

/// Appends a quoted, escaped JSON string to `out`.
pub fn write_str_json(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    // Fast path: nothing needs escaping, the whole slice copies at once.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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
}

/// Appends a JSON number for `x` (non-finite floats render as `null`,
/// and `{:?}` keeps the trailing `.0` on integral floats so the value
/// re-parses as a float).
pub fn write_f64_json(out: &mut String, x: f64) {
    use fmt::Write as _;
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Types that can reconstruct themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

static NULL: Value = Value::Null;

/// Looks up a struct field by name; missing fields read as `Null` so that
/// `Option` fields tolerate omission, like serde's `default` for options.
pub fn map_field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, Error> {
    match v {
        Value::Map(entries) => Ok(entries
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
            .unwrap_or(&NULL)),
        other => Err(Error::msg(format!(
            "expected map with field `{name}`, got {other:?}"
        ))),
    }
}

/// Looks up a tuple element by position.
pub fn seq_field(v: &Value, idx: usize) -> Result<&Value, Error> {
    match v {
        Value::Seq(items) => items
            .get(idx)
            .ok_or_else(|| Error::msg(format!("sequence too short: no element {idx}"))),
        other => Err(Error::msg(format!("expected sequence, got {other:?}"))),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
            fn write_json(&self, out: &mut String) {
                write_u64_json(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => return Err(Error::msg(format!(
                        "expected unsigned integer, got {other:?}"
                    ))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
            fn write_json(&self, out: &mut String) {
                write_i64_json(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for i64")))?,
                    other => return Err(Error::msg(format!(
                        "expected integer, got {other:?}"
                    ))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::F64(*self as f64)
            }
            fn write_json(&self, out: &mut String) {
                write_f64_json(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $t),
                    Value::U64(n) => Ok(*n as $t),
                    Value::I64(n) => Ok(*n as $t),
                    other => Err(Error::msg(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(Cow::Owned(self.clone()))
    }
    fn write_json(&self, out: &mut String) {
        write_str_json(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone().into_owned()),
            other => Err(Error::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(Cow::Owned(self.to_owned()))
    }
    fn write_json(&self, out: &mut String) {
        write_str_json(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
    fn json_is_null(&self) -> bool {
        (**self).json_is_null()
    }
}

/// True when `x` equals its type's [`Default`]. The derive shim calls
/// this for `#[serde(skip_default)]` fields so the comparison's RHS type
/// is pinned to `T` (a bare `==` against `Default::default()` would be
/// ambiguous for types with heterogeneous `PartialEq` impls like `Vec`).
pub fn is_default<T: Default + PartialEq>(x: &T) -> bool {
    *x == T::default()
}

/// Streams a sequence as a compact JSON array.
fn write_seq_json<'a, T: Serialize + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq_json(out, self.iter());
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq_json(out, self.iter());
    }
}

/// A shared slice serializes as the sequence it holds, like a `Vec`.
impl<T: Serialize> Serialize for std::sync::Arc<[T]> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(x) => x.write_json(out),
        }
    }
    fn json_is_null(&self) -> bool {
        self.is_none()
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq_json(out, self.iter());
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut String) {
        write_seq_json(out, self.iter());
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected sequence, got {other:?}"))),
        }
    }
}

// Maps serialize as sequences of `[key, value]` pairs. Real serde_json
// requires stringifiable keys for JSON objects; the pair encoding instead
// supports arbitrary `Serialize` keys (this repo keys maps by `Prefix`,
// `Element`, integers, …) and round-trips losslessly.

fn map_pairs<'m, K: Serialize + 'm, V: Serialize + 'm>(
    entries: impl Iterator<Item = (&'m K, &'m V)>,
) -> Value {
    Value::Seq(
        entries
            .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

fn write_pairs_json<'m, K: Serialize + 'm, V: Serialize + 'm>(
    out: &mut String,
    entries: impl Iterator<Item = (&'m K, &'m V)>,
) {
    out.push('[');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        k.write_json(out);
        out.push(',');
        v.write_json(out);
        out.push(']');
    }
    out.push(']');
}

fn pairs_from_value<K: Deserialize, V: Deserialize, M: FromIterator<(K, V)>>(
    v: &Value,
) -> Result<M, Error> {
    match v {
        Value::Seq(items) => items
            .iter()
            .map(|pair| {
                Ok((
                    K::from_value(seq_field(pair, 0)?)?,
                    V::from_value(seq_field(pair, 1)?)?,
                ))
            })
            .collect(),
        other => Err(Error::msg(format!("expected pair sequence, got {other:?}"))),
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        map_pairs(self.iter())
    }
    fn write_json(&self, out: &mut String) {
        write_pairs_json(out, self.iter());
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        pairs_from_value(v)
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_pairs(self.iter())
    }
    fn write_json(&self, out: &mut String) {
        write_pairs_json(out, self.iter());
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        pairs_from_value(v)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(($($name::from_value(seq_field(v, $idx)?)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) {
        write_value_json(out, self);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
