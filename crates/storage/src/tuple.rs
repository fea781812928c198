//! Runtime values and tuples.
//!
//! [`Value`] is the dynamic value type flowing through the engine.
//! It implements a *total* order (floats via `total_cmp`, cross-type
//! comparisons by type tag) and a consistent `Hash`, so tuples can be
//! sorted, merged, and deduplicated by the sort-based operator
//! implementations of the paper's Section 4 without special cases.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::json::{unknown_variant, FromJson, Json, JsonError, ToJson};

/// A dynamically typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// The value's type under its schema-spec name (`int`, `float`,
    /// `bool`, `str`) — [`crate::ColumnType::name`] of the column
    /// types that hold it.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The bool payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Int(x) => x.hash(state),
            // total_cmp-compatible hashing: equal-by-total_cmp floats
            // share a bit pattern.
            Value::Float(x) => x.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            // Debug formatting keeps the decimal point ("1.0", not
            // "1"), so floats stay distinguishable from ints in the
            // textual query language.
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// `{"Int": 1}`, `{"Float": 0.5}`, `{"Bool": true}`, `{"Str": "x"}`.
impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Int(x) => Json::variant("Int", x.to_json()),
            Value::Float(x) => Json::variant("Float", x.to_json()),
            Value::Bool(x) => Json::variant("Bool", x.to_json()),
            Value::Str(x) => Json::variant("Str", x.to_json()),
        }
    }
}

impl FromJson for Value {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_variant()? {
            ("Int", x) => i64::from_json(x).map(Value::Int),
            ("Float", x) => f64::from_json(x).map(Value::Float),
            ("Bool", x) => bool::from_json(x).map(Value::Bool),
            ("Str", x) => String::from_json(x).map(Value::Str),
            (other, _) => Err(unknown_variant("Value", other)),
        }
    }
}

/// A row of values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// A new tuple holding the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// A new tuple holding this tuple's values followed by `other`'s
    /// (join output construction).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts NaN above all finite values.
        assert!(nan > one);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn eq_values_hash_equal() {
        let a = Value::Float(2.5);
        let b = Value::Float(2.5);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_type_order_is_total() {
        let vals = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Bool(false),
            Value::Str(String::new()),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn tuple_project_and_concat() {
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::new(vec![Value::Int(3), Value::Int(1)])
        );
        let u = Tuple::new(vec![Value::Bool(true)]);
        assert_eq!(t.concat(&u).arity(), 4);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), None);
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn display_formats() {
        let t = Tuple::new(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(t.to_string(), "(1, \"a\")");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}
