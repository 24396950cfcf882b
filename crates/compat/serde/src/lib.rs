//! Offline stand-in for `serde` with the API surface this workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal serialization framework under the same crate name. Instead of
//! serde's visitor architecture, types convert to and from a small
//! self-describing [`Value`] tree; `serde_json` (the sibling stand-in)
//! renders that tree as JSON text. The derive macros in `serde_derive`
//! target exactly these traits.
//!
//! Determinism note: every map impl serializes in a *sorted, stable* key
//! order (`BTreeMap` iteration order; `HashMap` entries are sorted by
//! encoded key first), which is what the pipeline's byte-stability
//! guarantee relies on.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Separator used to join compound (tuple) map keys into a flat string key.
pub const KEY_SEP: char = '\u{1f}';

/// A self-describing value tree (the interchange format between the
/// `Serialize`/`Deserialize` traits and the `serde_json` text codec).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative integers.
    I64(i64),
    /// Non-negative integers.
    U64(u64),
    /// Floating point numbers.
    F64(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects; insertion order is preserved by the writer.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks up a field by name in an object's entry list.
pub fn __field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Renders a value as a flat string suitable for use as a JSON object key.
///
/// Strings pass through; numbers and booleans use their display form;
/// compound values (tuple keys) join their parts with [`KEY_SEP`].
pub fn key_string(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::I64(i) => i.to_string(),
        Value::U64(u) => u.to_string(),
        Value::F64(f) => f.to_string(),
        Value::Str(s) => s.clone(),
        Value::Array(parts) => {
            let joined: Vec<String> = parts.iter().map(key_string).collect();
            joined.join(&KEY_SEP.to_string())
        }
        Value::Object(pairs) => {
            let joined: Vec<String> = pairs.iter().map(|(_, v)| key_string(v)).collect();
            joined.join(&KEY_SEP.to_string())
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can convert themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn serialize_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Identity impls for Value itself.
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            Value::Str(s) => s
                .parse()
                .map_err(|_| Error::custom(format!("invalid bool `{s}`"))),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let n: u64 = match v {
                    Value::U64(u) => *u,
                    Value::I64(i) if *i >= 0 => *i as u64,
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    Value::Str(s) => s
                        .parse()
                        .map_err(|_| Error::custom(format!("invalid integer `{s}`")))?,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64);

impl Serialize for usize {
    fn serialize_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl Deserialize for usize {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let n = u64::deserialize_value(v)?;
        usize::try_from(n).map_err(|_| Error::custom("out of range for usize"))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                let n = i64::from(*self);
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match v {
                    Value::I64(i) => *i,
                    Value::U64(u) => i64::try_from(*u)
                        .map_err(|_| Error::custom("integer too large"))?,
                    Value::F64(f) if f.fract() == 0.0 => *f as i64,
                    Value::Str(s) => s
                        .parse()
                        .map_err(|_| Error::custom(format!("invalid integer `{s}`")))?,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

impl Serialize for isize {
    fn serialize_value(&self) -> Value {
        (*self as i64).serialize_value()
    }
}

impl Deserialize for isize {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let n = i64::deserialize_value(v)?;
        isize::try_from(n).map_err(|_| Error::custom("out of range for isize"))
    }
}

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::U64(u) => Ok(*u as f64),
            Value::I64(i) => Ok(*i as f64),
            // serde_json writes non-finite floats as `null`.
            Value::Null => Ok(f64::NAN),
            Value::Str(s) => s
                .parse()
                .map_err(|_| Error::custom(format!("invalid float `{s}`"))),
            _ => Err(Error::custom("expected number")),
        }
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        f64::deserialize_value(v).map(|f| f as f32)
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------------

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

// ---------------------------------------------------------------------------
// References and containers.
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        T::deserialize_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

/// A shared slice is written as a plain array, like the `Vec` it was
/// built from.
impl<T: Serialize> Serialize for Arc<[T]> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::deserialize_value(v).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

impl<T: Serialize + Ord + std::hash::Hash> Serialize for HashSet<T> {
    fn serialize_value(&self) -> Value {
        // Sorted for byte-stable output regardless of hash order.
        let sorted: BTreeSet<&T> = self.iter().collect();
        Value::Array(sorted.iter().map(|x| x.serialize_value()).collect())
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for HashSet<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_string(&k.serialize_value()), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, val)| {
                let key = K::deserialize_value(&Value::Str(k.clone()))?;
                Ok((key, V::deserialize_value(val)?))
            })
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize_value(&self) -> Value {
        // Sorted by encoded key for byte-stable output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_string(&k.serialize_value()), v.serialize_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, val)| {
                let key = K::deserialize_value(&Value::Str(k.clone()))?;
                Ok((key, V::deserialize_value(val)?))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tuples. Serialized as arrays; deserialization additionally accepts a
// KEY_SEP-joined string so tuples can round-trip through map keys.
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($n:expr, $( $t:ident : $idx:tt ),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$( self.$idx.serialize_value() ),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == $n => {
                        Ok(($( $t::deserialize_value(&items[$idx])?, )+))
                    }
                    Value::Str(s) => {
                        let parts: Vec<&str> = s.split(KEY_SEP).collect();
                        if parts.len() != $n {
                            return Err(Error::custom("tuple key arity mismatch"));
                        }
                        Ok(($( $t::deserialize_value(
                            &Value::Str(parts[$idx].to_owned()))?, )+))
                    }
                    _ => Err(Error::custom("expected tuple")),
                }
            }
        }
    };
}

impl_tuple!(1, A: 0);
impl_tuple!(2, A: 0, B: 1);
impl_tuple!(3, A: 0, B: 1, C: 2);
impl_tuple!(4, A: 0, B: 1, C: 2, D: 3);
impl_tuple!(5, A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(6, A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_keys_flatten_and_roundtrip() {
        let mut m: BTreeMap<(String, String), f64> = BTreeMap::new();
        m.insert(("a".into(), "x".into()), 1.0);
        let v = m.serialize_value();
        let back = BTreeMap::<(String, String), f64>::deserialize_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn numeric_keys_roundtrip() {
        let mut m: BTreeMap<u64, bool> = BTreeMap::new();
        m.insert(7, true);
        let v = m.serialize_value();
        let back = BTreeMap::<u64, bool>::deserialize_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_null_roundtrip() {
        let v = Option::<f64>::None.serialize_value();
        assert_eq!(v, Value::Null);
        assert_eq!(Option::<f64>::deserialize_value(&v).unwrap(), None);
    }
}
