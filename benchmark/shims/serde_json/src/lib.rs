//! Offline **type-check stub** for `serde_json` 1.
//!
//! [`Value`], [`Map`], and the [`json!`] macro are real enough to
//! build and compare in-memory documents; the conversion functions
//! ([`to_string`], [`from_str`], ...) type-check against the stub
//! serde traits but *fail at runtime* — the stub cannot serialize.
//! Only `cargo check` is expected to consume this crate.

use std::fmt;

/// Stub `serde_json::Map` — same API subset as the real ordered map.
pub type Map<K, V> = std::collections::BTreeMap<K, V>;

/// Stub `serde_json::Number`: everything is an f64 underneath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(f64);

impl Number {
    pub fn as_f64(&self) -> Option<f64> {
        Some(self.0)
    }

    pub fn as_u64(&self) -> Option<u64> {
        (self.0 >= 0.0 && self.0.fract() == 0.0).then_some(self.0 as u64)
    }

    pub fn as_i64(&self) -> Option<i64> {
        (self.0.fract() == 0.0).then_some(self.0 as i64)
    }

    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(f))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Stub `serde_json::Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Array(_) | Value::Object(_) => write!(f, "<stub json>"),
        }
    }
}

/// Index-argument trait mirroring `serde_json::value::Index`.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object().and_then(|m| m.get(self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut().and_then(|m| m.get_mut(self))
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array().and_then(|a| a.get(*self))
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut().and_then(|a| a.get_mut(*self))
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }

    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number(v as f64)) }
        }
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool { other == self }
        }
    )*};
}
from_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl serde::Serialize for Value {}
impl<'de> serde::Deserialize<'de> for Value {}

/// Stub `serde_json::Error`.
#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json offline stub: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

const STUB: &str = "conversion functions are unavailable offline";

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error(STUB))
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error(STUB))
}

pub fn to_value<T: serde::Serialize>(_value: T) -> Result<Value> {
    Err(Error(STUB))
}

pub fn from_value<T: serde::de::DeserializeOwned>(_value: Value) -> Result<T> {
    Err(Error(STUB))
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error(STUB))
}

pub fn from_slice<'a, T: serde::Deserialize<'a>>(_v: &'a [u8]) -> Result<T> {
    Err(Error(STUB))
}

///// Conversion point for `json!` expression operands. The real macro
/// routes them through `to_value`, accepting any `T: Serialize`; the
/// stub accepts the same bound but yields `Value::Null` (serialization
/// is a registry-side concern — see offline/README.md).
pub fn stub_to_value<T: ?Sized + serde::Serialize>(_v: &T) -> Value {
    Value::Null
}

/// Autoref-specialization wrapper for `json!` operands: primitives
/// convert to real [`Value`]s (so documents built by the stub compare
/// meaningfully); everything else degrades to `Value::Null`.
pub struct ValueWrap<'a, T: ?Sized>(pub &'a T);

/// Preferred conversion: concrete impls for the primitive operand
/// types `json!` call sites use. Found first by method resolution
/// (receiver `ValueWrap<T>` beats the `&ValueWrap<T>` fallback).
pub trait PrimToValue {
    fn stub_val(&self) -> Value;
}

/// Fallback conversion for arbitrary `Serialize` operands.
pub trait AnyToValue {
    fn stub_val(&self) -> Value;
}

impl<T: ?Sized + serde::Serialize> AnyToValue for &ValueWrap<'_, T> {
    fn stub_val(&self) -> Value {
        Value::Null
    }
}

macro_rules! impl_prim_to_value_num {
    ($($t:ty),*) => {$(
        impl PrimToValue for ValueWrap<'_, $t> {
            fn stub_val(&self) -> Value {
                Number::from_f64(*self.0 as f64).map_or(Value::Null, Value::Number)
            }
        }
    )*};
}
impl_prim_to_value_num!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PrimToValue for ValueWrap<'_, bool> {
    fn stub_val(&self) -> Value {
        Value::Bool(*self.0)
    }
}

impl PrimToValue for ValueWrap<'_, str> {
    fn stub_val(&self) -> Value {
        Value::String(self.0.to_string())
    }
}

impl PrimToValue for ValueWrap<'_, &str> {
    fn stub_val(&self) -> Value {
        Value::String(self.0.to_string())
    }
}

impl PrimToValue for ValueWrap<'_, String> {
    fn stub_val(&self) -> Value {
        Value::String(self.0.clone())
    }
}

impl PrimToValue for ValueWrap<'_, Value> {
    fn stub_val(&self) -> Value {
        self.0.clone()
    }
}

/// Stub `json!`: objects take `"key": expr` pairs (values are full
/// expressions — nested `json!` calls cover nested documents).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {{
        #[allow(unused_imports)]
        use $crate::{AnyToValue as _, PrimToValue as _};
        $crate::Value::Array(vec![ $((&$crate::ValueWrap(&$elem)).stub_val()),* ])
    }};
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        #[allow(unused_imports)]
        use $crate::{AnyToValue as _, PrimToValue as _};
        let mut m = $crate::Map::new();
        $( m.insert(String::from($key), (&$crate::ValueWrap(&$val)).stub_val()); )*
        $crate::Value::Object(m)
    }};
    ($other:expr) => {{
        #[allow(unused_imports)]
        use $crate::{AnyToValue as _, PrimToValue as _};
        (&$crate::ValueWrap(&$other)).stub_val()
    }};
}
