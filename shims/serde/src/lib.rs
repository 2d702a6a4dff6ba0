//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so this crate provides the
//! slice of serde the workspace actually relies on: derivable
//! [`Serialize`] / [`Deserialize`] for named-field structs, routed through a
//! JSON-shaped in-memory [`Value`] data model instead of upstream's
//! visitor-based serializer traits. `serde_json` (also vendored) prints and
//! parses that model. Supported today: primitives, `String`, `Option`,
//! `Vec`, slices, tuples up to arity 4, string-keyed maps, nested derives,
//! and `#[serde(flatten)]` on a [`Value`]-typed field.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped dynamic value: the serialization data model.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), so
/// serialized output is deterministic and mirrors field declaration order.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (floating-point; integral values print without `.0`).
    Number(f64),
    /// JSON integer, kept exact at any magnitude. `f64` loses integer
    /// precision above 2^53, which silently breaks monotone-counter
    /// contracts (e.g. serving request ids); integers constructed through
    /// this variant serialize digit-for-digit. The parser still produces
    /// [`Value::Number`] for every numeric literal, so matching on
    /// `Number` keeps working for parsed input.
    Int(i64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow the object entries, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(kvs) => Some(kvs),
            _ => None,
        }
    }

    /// Borrow the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// The numeric value, if this is a number. Exact integers are widened
    /// (lossy above 2^53 — use [`Value::as_i64`] when exactness matters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The exact integer value: an [`Value::Int`] verbatim, or a
    /// [`Value::Number`] that is integral and within `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Number(n)
                if n.trunc() == *n && (i64::MIN as f64..=i64::MAX as f64).contains(n) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The exact non-negative integer value (see [`Value::as_i64`]).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|kvs| kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Build an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible into the [`Value`] data model.
pub trait Serialize {
    /// Convert `self` into a [`Value`] tree.
    fn serialize_value(&self) -> Value;

    /// The [`Value`] tree of `self`, borrowed when `self` already is one
    /// (what printers call, so printing a [`Value`] copies nothing).
    fn serialize_cow(&self) -> Cow<'_, Value> {
        Cow::Owned(self.serialize_value())
    }
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a [`Value`] tree.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;

    /// Rebuild `Self` from an owned [`Value`] tree (what parsers call, so
    /// parsing into a [`Value`] hands the tree over without a copy).
    fn deserialize_owned(v: Value) -> Result<Self, Error> {
        Self::deserialize_value(&v)
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }

    fn serialize_cow(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }

    fn deserialize_owned(v: Value) -> Result<Value, Error> {
        Ok(v)
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<$t, Error> {
                match v {
                    Value::Int(i) => Ok(*i as $t),
                    Value::Number(n) => Ok(*n as $t),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<$t, Error> {
                match v {
                    Value::Number(n) => Ok(*n as $t),
                    Value::Int(i) => Ok(*i as $t),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl_float!(f32, f64);

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<String, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(v) => v.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Option<T>, Error> {
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
    fn deserialize_value(v: &Value) -> Result<Vec<T>, Error> {
        match v {
            Value::Array(vs) => vs.iter().map(T::deserialize_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                const ARITY: usize = [$($idx),+].len();
                match v {
                    Value::Array(vs) if vs.len() == ARITY => {
                        Ok(($($name::deserialize_value(&vs[$idx])?,)+))
                    }
                    _ => Err(Error::custom("expected tuple-shaped array")),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize_value(&self) -> Value {
        // Sort keys so output is deterministic regardless of hasher state.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].serialize_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<HashMap<String, V>, Error> {
        match v {
            Value::Object(kvs) => kvs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
                .collect(),
            _ => Err(Error::custom("expected object for map")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_value(v: &Value) -> Result<BTreeMap<String, V>, Error> {
        match v {
            Value::Object(kvs) => kvs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
                .collect(),
            _ => Err(Error::custom("expected object for map")),
        }
    }
}

/// Derive-support helper: fetch and decode a struct field from an object's
/// entries, treating a missing key as `Null` (so `Option` fields default to
/// `None` and everything else reports a clear error).
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize_value(v)
            .map_err(|e| Error::custom(format!("field `{name}`: {e}"))),
        None => T::deserialize_value(&Value::Null)
            .map_err(|_| Error::custom(format!("missing field `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::deserialize_value(&42u32.serialize_value()), Ok(42));
        assert_eq!(f32::deserialize_value(&1.5f32.serialize_value()), Ok(1.5));
        assert_eq!(bool::deserialize_value(&true.serialize_value()), Ok(true));
        assert_eq!(
            String::deserialize_value(&"hi".to_string().serialize_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn vec_and_tuple_roundtrip() {
        let v = vec![("a".to_string(), 0.5f32), ("b".to_string(), -1.0)];
        let val = v.serialize_value();
        assert_eq!(Vec::<(String, f32)>::deserialize_value(&val), Ok(v));
    }

    #[test]
    fn option_null_behaviour() {
        assert_eq!(Option::<u32>::deserialize_value(&Value::Null), Ok(None));
        assert_eq!(
            Option::<u32>::deserialize_value(&Value::Number(3.0)),
            Ok(Some(3))
        );
        assert_eq!(Option::<u32>::serialize_value(&None), Value::Null);
    }

    #[test]
    fn hashmap_is_sorted_deterministically() {
        let mut m = HashMap::new();
        m.insert("z".to_string(), 1u32);
        m.insert("a".to_string(), 2u32);
        let v = m.serialize_value();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(obj[1].0, "z");
        assert_eq!(HashMap::deserialize_value(&v), Ok(m));
    }

    #[test]
    fn field_helper_reports_missing() {
        let obj = vec![("x".to_string(), Value::Number(1.0))];
        assert_eq!(field::<u32>(&obj, "x"), Ok(1));
        assert!(field::<u32>(&obj, "y").is_err());
        assert_eq!(field::<Option<u32>>(&obj, "y"), Ok(None));
    }
}
