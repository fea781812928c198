//! Fixed-width tuple schemas.
//!
//! ERAM stores relations as files of fixed-size blocks holding
//! fixed-width records ("each artificial relation instance has 10,000
//! tuples, with the tuple size of 200 bytes ... 5 tuples in each disk
//! block"). A [`Schema`] describes the column layout of such a record
//! and computes the *blocking factor* — the number of tuples per
//! block — that the paper's cost formulas use to convert output-tuple
//! counts into output-page counts.

use crate::error::StorageError;
use crate::tuple::{Tuple, Value};
use crate::Result;

/// The type of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer (8 bytes on disk).
    Int,
    /// 64-bit float (8 bytes on disk).
    Float,
    /// Boolean (1 byte on disk).
    Bool,
    /// UTF-8 string with a fixed on-disk width (2-byte length prefix
    /// plus `width` bytes of padded payload).
    Str {
        /// Maximum payload length in bytes.
        width: u16,
    },
}

impl ColumnType {
    /// On-disk size of a value of this type, in bytes.
    pub fn encoded_size(self) -> usize {
        match self {
            ColumnType::Int | ColumnType::Float => 8,
            ColumnType::Bool => 1,
            ColumnType::Str { width } => 2 + usize::from(width),
        }
    }

    /// The type's name in the schema-spec syntax (`int`, `float`,
    /// `bool`, `str`); string columns of any width share one name,
    /// as they share one order.
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Bool => "bool",
            ColumnType::Str { .. } => "str",
        }
    }

    /// Borrows the payload of a string field of this width from its
    /// encoded bytes (length prefix first), validating the length
    /// and the UTF-8 exactly as a full record decode does.
    pub fn read_str(field: &[u8], width: u16) -> Result<&str> {
        let raw: [u8; 2] = field[..2].try_into().expect("sized slice");
        let len = usize::from(u16::from_le_bytes(raw));
        if len > usize::from(width) {
            return Err(StorageError::SchemaMismatch(format!(
                "string length {len} exceeds column width {width}"
            )));
        }
        std::str::from_utf8(&field[2..2 + len])
            .map_err(|e| StorageError::SchemaMismatch(e.to_string()))
    }

    /// True if `v` is a value of this type.
    pub fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Str { .. }, Value::Str(_))
        )
    }
}

/// One named column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// A fixed-width record layout: an ordered list of columns plus
/// optional trailing padding to reach a declared record size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Vec<Column>,
    record_size: usize,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs with no padding.
    ///
    /// # Panics
    /// Panics if column names are not unique.
    pub fn new<S: Into<String>>(columns: Vec<(S, ColumnType)>) -> Self {
        let columns: Vec<Column> = columns
            .into_iter()
            .map(|(name, ty)| Column {
                name: name.into(),
                ty,
            })
            .collect();
        for i in 0..columns.len() {
            for j in (i + 1)..columns.len() {
                assert!(
                    columns[i].name != columns[j].name,
                    "duplicate column name {:?}",
                    columns[i].name
                );
            }
        }
        let natural: usize = columns.iter().map(|c| c.ty.encoded_size()).sum();
        Schema {
            columns,
            record_size: natural,
        }
    }

    /// Pads records to `record_size` bytes, reproducing e.g. the
    /// paper's 200-byte tuples regardless of logical column content.
    ///
    /// # Panics
    /// Panics if `record_size` is smaller than the natural encoded
    /// size of the columns.
    pub fn padded_to(mut self, record_size: usize) -> Self {
        let natural: usize = self.columns.iter().map(|c| c.ty.encoded_size()).sum();
        assert!(
            record_size >= natural,
            "record size {record_size} smaller than natural size {natural}"
        );
        self.record_size = record_size;
        self
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns (the relation's degree).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// On-disk record size in bytes (including padding).
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Byte offset of column `index` within an encoded record.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn column_offset(&self, index: usize) -> usize {
        assert!(index < self.arity(), "column #{index} out of range");
        self.columns[..index]
            .iter()
            .map(|c| c.ty.encoded_size())
            .sum()
    }

    /// Index of the column named `name`, if any.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Tuples per block of `block_size` bytes — the paper's
    /// *blockingfactor*.
    ///
    /// # Panics
    /// Panics if a record does not fit in one block.
    pub fn blocking_factor(&self, block_size: usize) -> usize {
        let bf = block_size / self.record_size;
        assert!(
            bf > 0,
            "record of {} bytes does not fit in a {block_size}-byte block",
            self.record_size
        );
        bf
    }

    /// Two schemas are *compatible* (for union/difference/intersect)
    /// when their column types match pairwise; names may differ.
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.ty == b.ty)
    }

    /// Schema of a projection of this schema onto `indices`.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn project(&self, indices: &[usize]) -> Schema {
        let columns: Vec<(String, ColumnType)> = indices
            .iter()
            .map(|&i| (self.columns[i].name.clone(), self.columns[i].ty))
            .collect();
        Schema::new(columns)
    }

    /// Schema of the concatenation of this schema and `other`
    /// (join output). Name clashes are disambiguated with a suffix.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns: Vec<(String, ColumnType)> = self
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        for c in &other.columns {
            // Disambiguate clashes with increasing suffixes so that
            // chained joins (x, x_r, x_r2, …) stay unique.
            let mut name = c.name.clone();
            let mut suffix = 1usize;
            while columns.iter().any(|(n, _)| *n == name) {
                suffix += 1;
                name = if suffix == 2 {
                    format!("{}_r", c.name)
                } else {
                    format!("{}_r{}", c.name, suffix - 1)
                };
            }
            columns.push((name, c.ty));
        }
        Schema::new(columns)
    }

    /// Validates that `t` conforms to this schema.
    pub fn check_tuple(&self, t: &Tuple) -> Result<()> {
        if t.arity() != self.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "tuple arity {} vs schema arity {}",
                t.arity(),
                self.arity()
            )));
        }
        for (col, v) in self.columns.iter().zip(t.values()) {
            if !col.ty.matches(v) {
                return Err(StorageError::SchemaMismatch(format!(
                    "column {:?} expects {:?}, got {:?}",
                    col.name, col.ty, v
                )));
            }
            if let (ColumnType::Str { width }, Value::Str(s)) = (col.ty, v) {
                if s.len() > usize::from(width) {
                    return Err(StorageError::StringTooLong {
                        width: usize::from(width),
                        len: s.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Encodes `t` into its fixed-width record form.
    pub fn encode(&self, t: &Tuple) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.record_size];
        self.encode_into(t, &mut out)?;
        Ok(out)
    }

    /// Encodes `t` directly into a caller-provided record slice of
    /// exactly [`Schema::record_size`] bytes — the allocation-free
    /// form of [`Schema::encode`] used when packing whole blocks
    /// (padding bytes are zeroed, so the output is byte-identical).
    pub fn encode_into(&self, t: &Tuple, out: &mut [u8]) -> Result<()> {
        self.check_tuple(t)?;
        if out.len() != self.record_size {
            return Err(StorageError::SchemaMismatch(format!(
                "record buffer of {} bytes, schema expects {}",
                out.len(),
                self.record_size
            )));
        }
        let mut off = 0usize;
        for (col, v) in self.columns.iter().zip(t.values()) {
            match (col.ty, v) {
                (ColumnType::Int, Value::Int(x)) => {
                    out[off..off + 8].copy_from_slice(&x.to_le_bytes());
                    off += 8;
                }
                (ColumnType::Float, Value::Float(x)) => {
                    out[off..off + 8].copy_from_slice(&x.to_le_bytes());
                    off += 8;
                }
                (ColumnType::Bool, Value::Bool(b)) => {
                    out[off] = u8::from(*b);
                    off += 1;
                }
                (ColumnType::Str { width }, Value::Str(s)) => {
                    let len = u16::try_from(s.len()).expect("checked above");
                    out[off..off + 2].copy_from_slice(&len.to_le_bytes());
                    off += 2;
                    out[off..off + s.len()].copy_from_slice(s.as_bytes());
                    out[off + s.len()..off + usize::from(width)].fill(0);
                    off += usize::from(width);
                }
                _ => unreachable!("check_tuple verified types"),
            }
        }
        out[off..].fill(0);
        Ok(())
    }

    /// Decodes a fixed-width record produced by [`Schema::encode`].
    pub fn decode(&self, bytes: &[u8]) -> Result<Tuple> {
        if bytes.len() < self.record_size {
            return Err(StorageError::SchemaMismatch(format!(
                "record of {} bytes, schema expects {}",
                bytes.len(),
                self.record_size
            )));
        }
        let mut values = Vec::with_capacity(self.arity());
        let mut off = 0usize;
        for col in &self.columns {
            match col.ty {
                ColumnType::Int => {
                    let raw: [u8; 8] = bytes[off..off + 8].try_into().expect("sized slice");
                    values.push(Value::Int(i64::from_le_bytes(raw)));
                    off += 8;
                }
                ColumnType::Float => {
                    let raw: [u8; 8] = bytes[off..off + 8].try_into().expect("sized slice");
                    values.push(Value::Float(f64::from_le_bytes(raw)));
                    off += 8;
                }
                ColumnType::Bool => {
                    values.push(Value::Bool(bytes[off] != 0));
                    off += 1;
                }
                ColumnType::Str { width } => {
                    let s = ColumnType::read_str(&bytes[off..], width)?;
                    values.push(Value::Str(s.to_owned()));
                    off += col.ty.encoded_size();
                }
            }
        }
        Ok(Tuple::new(values))
    }
}

/// Parses a compact schema spec like `id:int,price:float,name:str16`
/// (types: `int`, `float`, `bool`, `strN`), optionally padding
/// records to `pad_to` bytes.
pub fn parse_schema_spec(spec: &str, pad_to: Option<usize>) -> Result<Schema> {
    let mut columns = Vec::new();
    for part in spec.split(',') {
        let (name, ty_text) = part
            .split_once(':')
            .ok_or_else(|| StorageError::io(format!("bad column spec {part:?}")))?;
        let name = name.trim();
        let ty_text = ty_text.trim();
        let ty = match ty_text {
            "int" => ColumnType::Int,
            "float" => ColumnType::Float,
            "bool" => ColumnType::Bool,
            s if s.starts_with("str") => {
                let width: u16 = s[3..]
                    .parse()
                    .map_err(|_| StorageError::io(format!("bad string width in {part:?}")))?;
                ColumnType::Str { width }
            }
            _ => {
                return Err(StorageError::io(format!(
                    "unknown column type {ty_text:?} (use int, float, bool, strN)"
                )))
            }
        };
        if name.is_empty() {
            return Err(StorageError::io(format!("empty column name in {part:?}")));
        }
        columns.push((name.to_owned(), ty));
    }
    if columns.is_empty() {
        return Err(StorageError::io("empty schema spec"));
    }
    let schema = Schema::new(columns);
    Ok(match pad_to {
        Some(n) => schema.padded_to(n),
        None => schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("score", ColumnType::Float),
            ("flag", ColumnType::Bool),
            ("name", ColumnType::Str { width: 12 }),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample_schema();
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::Float(3.25),
            Value::Bool(true),
            Value::Str("hello".into()),
        ]);
        let bytes = s.encode(&t).unwrap();
        assert_eq!(bytes.len(), s.record_size());
        assert_eq!(s.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn padded_schema_reproduces_paper_blocking_factor() {
        let s = Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200);
        assert_eq!(s.record_size(), 200);
        assert_eq!(s.blocking_factor(1024), 5);
    }

    #[test]
    fn padded_round_trip_ignores_padding() {
        let s = Schema::new(vec![("a", ColumnType::Int)]).padded_to(64);
        let t = Tuple::new(vec![Value::Int(7)]);
        let bytes = s.encode(&t).unwrap();
        assert_eq!(bytes.len(), 64);
        assert_eq!(s.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn encode_into_is_byte_identical_to_encode() {
        let s = sample_schema().padded_to(64);
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::Float(3.25),
            Value::Bool(true),
            Value::Str("hello".into()),
        ]);
        let alloc = s.encode(&t).unwrap();
        // A dirty buffer: every non-payload byte must be re-zeroed.
        let mut buf = vec![0xAAu8; s.record_size()];
        s.encode_into(&t, &mut buf).unwrap();
        assert_eq!(buf, alloc);
        // Wrong-size buffers are rejected, not silently truncated.
        let mut short = vec![0u8; s.record_size() - 1];
        assert!(s.encode_into(&t, &mut short).is_err());
    }

    #[test]
    fn encode_rejects_wrong_arity_and_type() {
        let s = sample_schema();
        assert!(s.encode(&Tuple::new(vec![Value::Int(1)])).is_err());
        let t = Tuple::new(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Bool(false),
            Value::Str("x".into()),
        ]);
        assert!(s.encode(&t).is_err());
    }

    #[test]
    fn encode_rejects_overlong_string() {
        let s = Schema::new(vec![("name", ColumnType::Str { width: 4 })]);
        let t = Tuple::new(vec![Value::Str("too long".into())]);
        assert!(matches!(
            s.encode(&t),
            Err(StorageError::StringTooLong { width: 4, len: 8 })
        ));
    }

    #[test]
    fn compatibility_is_by_types_not_names() {
        let a = Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Bool)]);
        let b = Schema::new(vec![("p", ColumnType::Int), ("q", ColumnType::Bool)]);
        let c = Schema::new(vec![("p", ColumnType::Int)]);
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
    }

    #[test]
    fn project_and_concat_build_expected_layouts() {
        let s = sample_schema();
        let p = s.project(&[3, 0]);
        assert_eq!(p.columns()[0].name, "name");
        assert_eq!(p.columns()[1].name, "id");

        let j = s.concat(&s);
        assert_eq!(j.arity(), 8);
        assert_eq!(j.columns()[4].name, "id_r");

        // Chained self-joins must keep disambiguating.
        let jj = j.concat(&s);
        assert_eq!(jj.arity(), 12);
        assert_eq!(jj.columns()[8].name, "id_r2");
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        let _ = Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn blocking_factor_requires_fit() {
        let s = Schema::new(vec![("a", ColumnType::Int)]).padded_to(2048);
        let _ = s.blocking_factor(1024);
    }

    #[test]
    fn column_index_lookup() {
        let s = sample_schema();
        assert_eq!(s.column_index("score"), Some(1));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn schema_spec_round_trip() {
        let s = parse_schema_spec("id:int,price:float,ok:bool,name:str8", None).unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.columns()[3].ty, ColumnType::Str { width: 8 });
        assert_eq!(s.columns()[0].name, "id");

        let padded = parse_schema_spec("a:int", Some(200)).unwrap();
        assert_eq!(padded.record_size(), 200);

        assert!(parse_schema_spec("", None).is_err());
        assert!(parse_schema_spec("a:int,b", None).is_err());
        assert!(parse_schema_spec("a:uuid", None).is_err());
        assert!(parse_schema_spec("a:strx", None).is_err());
        assert!(parse_schema_spec(":int", None).is_err());
    }
}
