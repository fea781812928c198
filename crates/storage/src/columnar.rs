//! Per-column typed layout for one decoded block.
//!
//! The row codec in [`Schema`] decodes a block into a `Vec<Tuple>` —
//! one heap allocation per tuple plus one `Value` tag per field. For
//! the hot selection/key-extraction kernels that is a lot of pointer
//! chasing for work that only ever touches one or two columns. A
//! [`ColumnarBlock`] transposes the same bytes into one typed array
//! per schema column at decode time, so a predicate over column `c`
//! becomes a tight loop over a `Vec<i64>` (or `Vec<f64>`, …) and key
//! extraction reads the key columns without materializing whole rows.
//!
//! The layout is an *alternative decode target*, not an alternative
//! on-disk format: the bytes in the block are identical, and
//! [`ColumnarBlock::to_tuples`] reproduces exactly what
//! [`Schema::decode`] would have produced record by record. That
//! round-trip is the correctness contract — the engine's equivalence
//! suites run the same query under both layouts and require
//! byte-identical reports, so every accessor here must agree with
//! the row path value for value.

use crate::error::StorageError;
use crate::schema::{ColumnType, Schema};
use crate::tuple::{Tuple, Value};
use crate::Result;

/// One column of a [`ColumnarBlock`]: a typed, densely packed array
/// with one entry per record in the block.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings.
    Str(Vec<String>),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`, materialized as a dynamic [`Value`].
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
        }
    }

    fn with_capacity(ty: ColumnType, n: usize) -> ColumnData {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(n)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(n)),
            ColumnType::Bool => ColumnData::Bool(Vec::with_capacity(n)),
            ColumnType::Str { .. } => ColumnData::Str(Vec::with_capacity(n)),
        }
    }
}

/// A block's records transposed into one typed array per column.
///
/// Built either from raw block bytes ([`ColumnarBlock::decode`]) or
/// from already-decoded rows ([`ColumnarBlock::from_tuples`]); both
/// routes produce identical contents for the same records.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBlock {
    columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnarBlock {
    /// Decodes the first `n` fixed-width records of `bytes` (laid out
    /// by [`Schema::encode`]) column by column.
    ///
    /// Each column is filled in one pass over the records at that
    /// column's fixed offset — the transpose happens here, once,
    /// instead of per-access later.
    pub fn decode(schema: &Schema, bytes: &[u8], n: usize) -> Result<Self> {
        let rec = schema.record_size();
        if bytes.len() < n * rec {
            return Err(StorageError::SchemaMismatch(format!(
                "block of {} bytes holds fewer than {n} records of {rec} bytes",
                bytes.len()
            )));
        }
        let mut columns = Vec::with_capacity(schema.arity());
        let mut off = 0usize;
        for col in schema.columns() {
            let mut data = ColumnData::with_capacity(col.ty, n);
            for row in 0..n {
                let field = &bytes[row * rec + off..];
                match &mut data {
                    ColumnData::Int(v) => {
                        let raw: [u8; 8] = field[..8].try_into().expect("sized slice");
                        v.push(i64::from_le_bytes(raw));
                    }
                    ColumnData::Float(v) => {
                        let raw: [u8; 8] = field[..8].try_into().expect("sized slice");
                        v.push(f64::from_le_bytes(raw));
                    }
                    ColumnData::Bool(v) => v.push(field[0] != 0),
                    ColumnData::Str(v) => {
                        let ColumnType::Str { width } = col.ty else {
                            unreachable!("Str data only built for Str columns")
                        };
                        v.push(ColumnType::read_str(field, width)?.to_owned());
                    }
                }
            }
            off += col.ty.encoded_size();
            columns.push(data);
        }
        Ok(ColumnarBlock { columns, len: n })
    }

    /// Transposes already-decoded rows into columns. The rows must
    /// conform to `schema`.
    pub fn from_tuples(schema: &Schema, tuples: &[Tuple]) -> Result<Self> {
        let mut columns: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| ColumnData::with_capacity(c.ty, tuples.len()))
            .collect();
        for t in tuples {
            schema.check_tuple(t)?;
            for (data, v) in columns.iter_mut().zip(t.values()) {
                match (data, v) {
                    (ColumnData::Int(col), Value::Int(x)) => col.push(*x),
                    (ColumnData::Float(col), Value::Float(x)) => col.push(*x),
                    (ColumnData::Bool(col), Value::Bool(b)) => col.push(*b),
                    (ColumnData::Str(col), Value::Str(s)) => col.push(s.clone()),
                    _ => unreachable!("check_tuple verified types"),
                }
            }
        }
        Ok(ColumnarBlock {
            columns,
            len: tuples.len(),
        })
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The typed array for column `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// The value at (`row`, `col`), materialized.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materializes row `row` as a [`Tuple`] — identical to what the
    /// row codec would have decoded for the same record.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Materializes every row, in record order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len).map(|row| self.tuple(row)).collect()
    }

    /// Materializes only the rows where `mask` is true, in record
    /// order. `mask` must have one entry per record.
    ///
    /// # Panics
    /// Panics if `mask.len() != self.len()`.
    pub fn gather(&self, mask: &[bool]) -> Vec<Tuple> {
        assert_eq!(mask.len(), self.len, "selection mask length mismatch");
        let survivors = mask.iter().filter(|&&b| b).count();
        let mut out = Vec::with_capacity(survivors);
        out.extend(
            (0..self.len)
                .filter(|&row| mask[row])
                .map(|row| self.tuple(row)),
        );
        out
    }
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
        .padded_to(64)
    }

    fn sample_tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64 - 3),
                    Value::Float(i as f64 * 0.5),
                    Value::Bool(i % 2 == 0),
                    Value::Str(format!("n{i}")),
                ])
            })
            .collect()
    }

    fn encode_all(schema: &Schema, tuples: &[Tuple]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for t in tuples {
            bytes.extend(schema.encode(t).unwrap());
        }
        bytes
    }

    #[test]
    fn decode_matches_row_codec_exactly() {
        let schema = sample_schema();
        let tuples = sample_tuples(7);
        let bytes = encode_all(&schema, &tuples);
        let cb = ColumnarBlock::decode(&schema, &bytes, 7).unwrap();
        assert_eq!(cb.len(), 7);
        assert_eq!(cb.arity(), 4);
        assert_eq!(cb.to_tuples(), tuples, "columnar decode must round-trip");
        for (row, t) in tuples.iter().enumerate() {
            assert_eq!(&cb.tuple(row), t);
            for col in 0..t.arity() {
                assert_eq!(&cb.value(row, col), t.value(col));
            }
        }
    }

    #[test]
    fn from_tuples_equals_decode() {
        let schema = sample_schema();
        let tuples = sample_tuples(5);
        let bytes = encode_all(&schema, &tuples);
        let from_bytes = ColumnarBlock::decode(&schema, &bytes, 5).unwrap();
        let from_rows = ColumnarBlock::from_tuples(&schema, &tuples).unwrap();
        assert_eq!(from_bytes, from_rows);
    }

    #[test]
    fn typed_columns_are_directly_readable() {
        let schema = sample_schema();
        let tuples = sample_tuples(4);
        let cb = ColumnarBlock::from_tuples(&schema, &tuples).unwrap();
        let ColumnData::Int(ids) = cb.column(0) else {
            panic!("column 0 is Int");
        };
        assert_eq!(ids, &vec![-3, -2, -1, 0]);
        let ColumnData::Bool(flags) = cb.column(2) else {
            panic!("column 2 is Bool");
        };
        assert_eq!(flags, &vec![true, false, true, false]);
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let schema = sample_schema();
        let tuples = sample_tuples(4);
        let cb = ColumnarBlock::from_tuples(&schema, &tuples).unwrap();
        let picked = cb.gather(&[true, false, false, true]);
        assert_eq!(picked, vec![tuples[0].clone(), tuples[3].clone()]);
        assert!(cb.gather(&[false; 4]).is_empty());
    }

    #[test]
    fn partial_tail_block_decodes_only_n_records() {
        let schema = Schema::new(vec![("a", ColumnType::Int)]).padded_to(200);
        let tuples: Vec<Tuple> = (0..3).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let mut bytes = encode_all(&schema, &tuples);
        bytes.resize(1024, 0); // zero padding past the last record
        let cb = ColumnarBlock::decode(&schema, &bytes, 3).unwrap();
        assert_eq!(cb.to_tuples(), tuples);
    }

    #[test]
    fn short_buffer_is_rejected() {
        let schema = sample_schema();
        let bytes = vec![0u8; schema.record_size() * 2 - 1];
        assert!(ColumnarBlock::decode(&schema, &bytes, 2).is_err());
    }

    #[test]
    fn mismatched_rows_are_rejected() {
        let schema = sample_schema();
        let bad = Tuple::new(vec![Value::Int(0)]);
        assert!(ColumnarBlock::from_tuples(&schema, &[bad]).is_err());
    }
}
