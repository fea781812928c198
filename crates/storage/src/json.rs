//! The workspace's JSON: one value type, one parser, two writers.
//!
//! Everything the engine writes or reads as JSON — execution reports,
//! trace JSONL, server outcomes, `BENCH_*.json`, `--serve` job files,
//! JSONL relation dumps — goes through [`Json`] and the
//! [`ToJson`] / [`FromJson`] pair. The wire rules are fixed:
//!
//! * integers are exact over all of `u64` and `i64` (seeds and
//!   nanosecond counters exceed 2⁵³); a float always prints with a
//!   `.` or an exponent, in shortest round-trip form, so it re-parses
//!   as a float; a non-finite float prints as `null`, and `null`
//!   reads back into an `f64` as NaN;
//! * object keys keep insertion order — records write their fields in
//!   declaration order, maps in key order;
//! * records ([`json_record!`](crate::json_record)) are objects keyed
//!   by field name, a field marked `default` or `omit_empty` may be
//!   absent on input, and unknown keys are ignored; unit enums are
//!   strings; [`Duration`] is `{"secs", "nanos"}`; `Option` is the
//!   value or `null`;
//! * two writers only: compact ([`to_string`]) and two-space pretty
//!   ([`to_string_pretty`]);
//! * the parser refuses documents nested deeper than [`MAX_DEPTH`], so
//!   hostile input is an error, never a stack overflow.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Non-negative integers are always [`Json::U64`] and negative ones
/// [`Json::I64`] (the parser and every `From` impl normalize), so
/// derived equality is value equality.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number written with a fraction or an exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A malformed document, or a well-formed one of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    fn expected(what: &str, got: &Json) -> Self {
        JsonError(format!("expected {what}, found {}", got.kind()))
    }

    fn within(self, what: impl fmt::Display) -> Self {
        JsonError(format!("{what}: {}", self.0))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

static NULL: Json = Json::Null;

impl Json {
    /// Parses exactly one JSON value (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::U64(_) | Json::I64(_) => "an integer",
            Json::F64(_) => "a float",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// `{"name": payload}`: an enum variant that carries data (a unit
    /// variant is the bare string `"name"`).
    pub fn variant(name: &str, payload: Json) -> Json {
        Json::Obj(vec![(name.to_owned(), payload)])
    }

    /// Reads an enum value as `(variant name, payload)`; the payload
    /// of a unit variant is `null`.
    pub fn as_variant(&self) -> Result<(&str, &Json), JsonError> {
        match self {
            Json::Str(name) => Ok((name, &NULL)),
            Json::Obj(members) if members.len() == 1 => Ok((&members[0].0, &members[0].1)),
            _ => Err(JsonError::expected(
                "a variant name or a one-member object",
                self,
            )),
        }
    }

    fn object(&self) -> Result<&[(String, Json)], JsonError> {
        self.as_object()
            .ok_or_else(|| JsonError::expected("an object", self))
    }

    /// Reads the member `name` of an object as a `T`; an error when
    /// this is not an object, the member is absent, or it is not a `T`.
    pub fn field<T: FromJson>(&self, name: &str) -> Result<T, JsonError> {
        record_field(self.object()?, name, None)
    }

    /// The member `key` of an object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Removes and returns the member `key` of an object.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let Json::Obj(members) = self else {
            return None;
        };
        let at = members.iter().position(|(k, _)| k == key)?;
        Some(members.remove(at).1)
    }

    /// The members of an object, in order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(n) => i64::try_from(*n).ok(),
            Json::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number as an `f64` (integers convert, possibly rounding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Writes the value, compact when `indent` is `None`, else
    /// two-space pretty at that nesting level.
    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::U64(n) => write!(out, "{n}"),
            Json::I64(n) => write!(out, "{n}"),
            // `{:?}` is Rust's shortest round-trip rendering and
            // always carries a `.` or an exponent.
            Json::F64(x) if x.is_finite() => write!(out, "{x:?}"),
            Json::F64(_) => out.write_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, indent| {
                item.write(out, indent)
            }),
            Json::Obj(members) => write_seq(
                out,
                indent,
                ('{', '}'),
                members,
                |out, (key, value), indent| {
                    write_string(out, key)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    value.write(out, indent)
                },
            ),
        }
    }
}

fn write_seq<T, W: fmt::Write>(
    out: &mut W,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&mut W, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    let inner = indent.map(|n| n + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        newline(out, inner)?;
        write_item(out, item, inner)?;
    }
    if !items.is_empty() {
        newline(out, indent)?;
    }
    out.write_char(close)
}

fn newline(out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
    if let Some(level) = indent {
        out.write_char('\n')?;
        for _ in 0..level {
            out.write_str("  ")?;
        }
    }
    Ok(())
}

fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{8}' => out.write_str("\\b")?,
            '\u{c}' => out.write_str("\\f")?,
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Compact rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// `value["key"]`, reading `null` for a missing key or a non-object.
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: impl fmt::Display) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
        }
    }

    fn nested(&mut self, depth: usize) -> Result<usize, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(depth + 1)
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let depth = self.nested(depth)?;
        let mut members = Vec::new();
        if self.eat("}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("object key must be a string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.error(format!("expected ':' after key {key:?}")));
            }
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}' in object"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let depth = self.nested(depth)?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']' in array"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.eat("-");
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut integral = true;
        let mut well_formed = int_digits > 0 && !(leading_zero && int_digits > 1);
        if self.eat(".") {
            integral = false;
            well_formed &= self.digits() > 0;
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            well_formed &= self.digits() > 0;
        }
        let lexeme = &self.text[start..self.pos];
        if !well_formed {
            self.pos = start;
            return Err(self.error(format!("malformed number {lexeme:?}")));
        }
        if integral {
            if !negative {
                if let Ok(n) = lexeme.parse::<u64>() {
                    return Ok(Json::U64(n));
                }
            } else if let Ok(n) = lexeme.parse::<i64>() {
                return Ok(Json::from(n));
            }
        }
        // Fractions, exponents, and integers beyond 64 bits.
        Ok(Json::F64(lexeme.parse().expect("validated float lexeme")))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("malformed \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated string"));
                    };
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("unknown escape in string")),
                    });
                }
                0x00..=0x1f => return Err(self.error("raw control character in string")),
                0x20..=0x7f => out.push(b as char),
                _ => {
                    // The lead byte of a multi-byte scalar: `pos` only
                    // ever advances over whole ASCII bytes or whole
                    // scalars, so this is a char boundary.
                    let c = self.text[self.pos - 1..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
    }

    /// The scalar after `\u`, pairing a high surrogate with the
    /// `\uXXXX` low surrogate that must follow it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if !self.eat("\\u") {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error("unpaired surrogate in \\u escape"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            _ => first,
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate in \\u escape"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;

    /// True when a record field marked `omit_empty` leaves this value
    /// off the wire: `None`, an empty `Vec`, an empty map.
    fn is_empty_field(&self) -> bool {
        false
    }
}

/// Conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Reads `Self` out of `value`.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Compact JSON text of `value`.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Two-space-indented JSON text of `value`.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value
        .to_json()
        .write(&mut out, Some(0))
        .expect("writing to a String cannot fail");
    out
}

/// Parses `text` and reads a `T` out of it.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn is_empty_field(&self) -> bool {
        (**self).is_empty_field()
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::from(self)
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        u64::try_from(n).map_or(Json::I64(n), Json::U64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::F64(x)
        } else {
            Json::Null
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

macro_rules! json_via_from {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::from(self.clone())
            }
        }
    )*};
}
json_via_from!(bool, u8, u16, u32, u64, usize, i64, f64, String);

macro_rules! json_unsigned {
    ($($ty:ty),*) => {$(
        impl From<$ty> for Json {
            fn from(n: $ty) -> Json {
                Json::U64(n as u64)
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                value
                    .as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| JsonError::expected(stringify!($ty), value))
            }
        }
    )*};
}
json_unsigned!(u8, u16, u32, u64, usize);

impl FromJson for i64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_i64()
            .ok_or_else(|| JsonError::expected("i64", value))
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(f64::NAN),
            _ => value
                .as_f64()
                .ok_or_else(|| JsonError::expected("a number", value)),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::expected("a boolean", value))
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::expected("a string", value))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn is_empty_field(&self) -> bool {
        self.is_none()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            _ => T::from_json(value).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn is_empty_field(&self) -> bool {
        self.is_empty()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value
            .as_array()
            .ok_or_else(|| JsonError::expected("an array", value))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.within(format_args!("[{i}]"))))
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("a two-element array", value)),
        }
    }
}

/// Map keys: strings as they are, integers in decimal.
pub trait JsonKey: Ord + Sized {
    /// The key as an object member name.
    fn to_key(&self) -> String;
    /// The key back from a member name.
    fn from_key(key: &str) -> Option<Self>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(key: &str) -> Option<Self> {
        Some(key.to_owned())
    }
}

impl JsonKey for usize {
    fn to_key(&self) -> String {
        self.to_string()
    }

    fn from_key(key: &str) -> Option<Self> {
        key.parse().ok()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }

    fn is_empty_field(&self) -> bool {
        self.is_empty()
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .object()?
            .iter()
            .map(|(k, v)| {
                let key =
                    K::from_key(k).ok_or_else(|| JsonError(format!("invalid map key {k:?}")))?;
                Ok((key, V::from_json(v).map_err(|e| e.within(k))?))
            })
            .collect()
    }
}

/// The members of `value` for reading the record `ty`.
#[doc(hidden)]
pub fn record_members<'a>(value: &'a Json, ty: &str) -> Result<&'a [(String, Json)], JsonError> {
    value.object().map_err(|e| e.within(ty))
}

/// Reads the field `name` of a record; `or_default` says what an
/// absent field means.
#[doc(hidden)]
pub fn record_field<T: FromJson>(
    members: &[(String, Json)],
    name: &str,
    or_default: Option<fn() -> T>,
) -> Result<T, JsonError> {
    match members.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v).map_err(|e| e.within(name)),
        None => or_default
            .map(|default| default())
            .ok_or_else(|| JsonError(format!("missing field `{name}`"))),
    }
}

/// Reads a unit-enum label.
#[doc(hidden)]
pub fn enum_label<'a>(value: &'a Json, ty: &str) -> Result<&'a str, JsonError> {
    value
        .as_str()
        .ok_or_else(|| JsonError::expected("a string", value).within(ty))
}

/// The error for a label or tag no variant of the enum `ty` carries.
pub fn unknown_variant(ty: &str, label: &str) -> JsonError {
    JsonError(format!("unknown {ty} variant {label:?}"))
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with named
/// fields as a JSON object in the listed (= declaration) order. Every
/// field is listed with its mode:
///
/// * `required` — always written; an input without it is an error;
/// * `default` — always written; absent on input means
///   `Default::default()` (documents from older writers still load);
/// * `omit_empty` — as `default`, and left off the wire while it is
///   `None` or an empty collection.
///
/// The list is checked against the struct both ways at compile time
/// (an exhaustive destructuring and a struct literal).
#[macro_export]
macro_rules! json_record {
    ($ty:ident { $($field:ident: $mode:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let $ty { $($field),* } = self;
                let members = [$($crate::json_record!(@member $mode $field)),*];
                $crate::json::Json::Obj(members.into_iter().flatten().collect())
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                let members = $crate::json::record_members(value, stringify!($ty))?;
                Ok($ty {
                    $($field: $crate::json::record_field(
                        members,
                        stringify!($field),
                        $crate::json_record!(@absent $mode),
                    )?),*
                })
            }
        }
    };
    (@member omit_empty $field:ident) => {
        if $crate::json::ToJson::is_empty_field($field) {
            None
        } else {
            $crate::json_record!(@member required $field)
        }
    };
    (@member $mode:ident $field:ident) => {
        Some((
            stringify!($field).to_owned(),
            $crate::json::ToJson::to_json($field),
        ))
    };
    (@absent required) => { None };
    (@absent $mode:ident) => { Some(::std::default::Default::default) };
}

/// Gives an enum of unit variants the listed string labels: a
/// `label()` method, and [`ToJson`] / [`FromJson`] as those labels.
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident = $label:literal),* $(,)? }) => {
        impl $ty {
            /// The variant's label: its JSON form, and its name in
            /// rendered text.
            pub fn label(&self) -> &'static str {
                match self {
                    $($ty::$variant => $label),*
                }
            }
        }

        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::from(self.label())
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                match $crate::json::enum_label(value, stringify!($ty))? {
                    $($label => Ok($ty::$variant),)*
                    other => Err($crate::json::unknown_variant(stringify!($ty), other)),
                }
            }
        }
    };
}

/// An object literal: `json!({"key": value, ...})` with any
/// [`ToJson`] values, members in the written order.
#[macro_export]
macro_rules! json {
    ({ $($key:literal: $value:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_owned(), $crate::json::ToJson::to_json(&$value))),*
        ])
    };
}

impl ToJson for Duration {
    fn to_json(&self) -> Json {
        json!({"secs": self.as_secs(), "nanos": self.subsec_nanos()})
    }
}

impl FromJson for Duration {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let secs: u64 = value.field("secs")?;
        let nanos: u32 = value.field("nanos")?;
        Duration::from_secs(secs)
            .checked_add(Duration::from_nanos(u64::from(nanos)))
            .ok_or_else(|| JsonError("Duration overflows".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn integers_are_exact_over_u64_and_i64() {
        assert_eq!(round_trip("18446744073709551615"), "18446744073709551615");
        assert_eq!(round_trip("-9223372036854775808"), "-9223372036854775808");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN), "-9223372036854775808");
        // One sign convention per value, so equality is value equality.
        assert_eq!(Json::from(5i64), Json::U64(5));
        assert_eq!(Json::parse("-0").unwrap(), Json::U64(0));
        // Beyond 64 bits a number degrades to a float, not an error.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
        assert!(from_str::<u64>("1.0").is_err(), "a float is not an integer");
        assert!(from_str::<u8>("256").is_err());
    }

    #[test]
    fn floats_print_shortest_and_reparse_as_floats() {
        for (x, text) in [
            (0.1, "0.1"),
            (1e300, "1e300"),
            (-0.0, "-0.0"),
            (2.0, "2.0"),
            (1.5e-7, "1.5e-7"),
            (f64::MAX, "1.7976931348623157e308"),
        ] {
            assert_eq!(to_string(&x), text);
            let back = Json::parse(text).unwrap();
            assert!(matches!(back, Json::F64(_)), "{text} re-parsed as {back:?}");
            let y: f64 = from_str(text).unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "{text}");
        }
        // Integers read into f64 fields (hand-written job files).
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
    }

    #[test]
    fn non_finite_floats_become_null_and_read_back_as_nan() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY), Json::Null);
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\n\r\t\u{8}\u{c}\u{1}é😀";
        let text = to_string(&s.to_owned());
        assert_eq!(text, "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0001é😀\"");
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        // Escaped forms of the same characters, incl. a surrogate pair.
        assert_eq!(
            from_str::<String>(r#""\u00e9\ud83d\ude00\/""#).unwrap(),
            "é😀/"
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\x""#,
            "\"raw\u{1}control\"",
            r#""open"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn malformed_documents_are_errors_with_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "tru",
            "nul",
            "[1] x",
            "{\"a\":1,}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.to_string().contains("at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // The hostile case: no closing brackets at all, far past any
        // stack a recursive parser could survive.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn writers_are_compact_and_two_space_pretty() {
        let v = json!({
            "a": 1u64,
            "b": vec![1.5, 2.0],
            "c": Json::Obj(vec![]),
            "d": Vec::<u64>::new(),
            "e": Some("x".to_owned()),
            "f": None::<u64>,
        });
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":[1.5,2.0],"c":{},"d":[],"e":"x","f":null}"#
        );
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    2.0\n  ],\n  \"c\": {},\n  \"d\": [],\n  \"e\": \"x\",\n  \"f\": null\n}"
        );
        assert_eq!(Json::parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn value_accessors_and_indexing() {
        let mut v =
            Json::parse(r#"{"n": 3, "neg": -2, "x": 0.5, "s": "hi", "a": [true]}"#).unwrap();
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["n"].as_f64(), Some(3.0));
        assert_eq!(v["neg"].as_i64(), Some(-2));
        assert_eq!(v["neg"].as_u64(), None);
        assert_eq!(v["x"].as_f64(), Some(0.5));
        assert_eq!(v["s"].as_str(), Some("hi"));
        assert_eq!(v["a"].as_array().unwrap()[0].as_bool(), Some(true));
        assert_eq!(v["missing"]["deeper"], Json::Null);
        assert_eq!(v.remove("n"), Some(Json::U64(3)));
        assert!(v.get("n").is_none());
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Sample {
        id: u64,
        took: Duration,
        note: Option<String>,
        tags: Vec<String>,
        by_stage: BTreeMap<usize, f64>,
        version: u32,
    }
    json_record!(Sample {
        id: required,
        took: required,
        note: omit_empty,
        tags: omit_empty,
        by_stage: omit_empty,
        version: default,
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Fast,
        VerySlow,
    }
    json_unit_enum!(Mode { Fast = "fast", VerySlow = "very_slow" });

    #[test]
    fn records_write_declared_order_and_tolerate_absent_fields() {
        let bare = Sample {
            id: 7,
            took: Duration::new(2, 5),
            ..Sample::default()
        };
        assert_eq!(
            to_string(&bare),
            r#"{"id":7,"took":{"secs":2,"nanos":5},"version":0}"#
        );
        assert_eq!(from_str::<Sample>(&to_string(&bare)).unwrap(), bare);

        let full = Sample {
            note: Some("n".into()),
            tags: vec!["t".into()],
            by_stage: BTreeMap::from([(2, 0.5), (10, 1.0)]),
            version: 3,
            ..bare.clone()
        };
        let text = to_string(&full);
        assert!(
            text.ends_with(r#""note":"n","tags":["t"],"by_stage":{"2":0.5,"10":1.0},"version":3}"#),
            "{text}"
        );
        assert_eq!(from_str::<Sample>(&text).unwrap(), full);

        // An older writer's document: no `version`, an unknown key.
        let old: Sample =
            from_str(r#"{"took":{"secs":2,"nanos":5},"legacy":true,"id":7}"#).unwrap();
        assert_eq!(old, bare);

        let err = from_str::<Sample>(r#"{"id":7}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `took`");
        let err = from_str::<Sample>(r#"{"id":7,"took":{"secs":"x","nanos":0}}"#).unwrap_err();
        assert_eq!(err.to_string(), "took: secs: expected u64, found a string");
        assert!(from_str::<Sample>("[]").is_err());
    }

    #[test]
    fn unit_enums_are_their_labels() {
        assert_eq!(Mode::VerySlow.label(), "very_slow");
        assert_eq!(to_string(&Mode::VerySlow), r#""very_slow""#);
        assert_eq!(from_str::<Mode>(r#""fast""#).unwrap(), Mode::Fast);
        let err = from_str::<Mode>(r#""medium""#).unwrap_err();
        assert_eq!(err.to_string(), r#"unknown Mode variant "medium""#);
        assert!(from_str::<Mode>("1").is_err());
    }

    #[test]
    fn pairs_boxes_and_options_round_trip() {
        let v: Vec<(usize, usize)> = vec![(1, 2), (3, 4)];
        assert_eq!(to_string(&v), "[[1,2],[3,4]]");
        assert_eq!(from_str::<Vec<(usize, usize)>>("[[1,2],[3,4]]").unwrap(), v);
        assert!(from_str::<(usize, usize)>("[1]").is_err());
        assert_eq!(from_str::<Box<u64>>("4").unwrap(), Box::new(4));
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u64>>("4").unwrap(), Some(4));
        let err = from_str::<Vec<u64>>("[1, true]").unwrap_err();
        assert_eq!(err.to_string(), "[1]: expected u64, found a boolean");
    }
}
