//! Pluggable relation ingestion.
//!
//! Loading is a [`TupleSource`] — parse a byte stream into
//! schema-conforming [`Tuple`]s — with three built-in sources:
//!
//! * [`CsvSource`] — the common CSV subset: comma separation,
//!   `"`-quoted fields with `""` escapes, an optional header row.
//!   Deliberately small — a loading convenience for the examples and
//!   the CLI, not a general CSV library;
//! * [`JsonLinesSource`] — one JSON value per line, either an object
//!   keyed by column name or an array in column order, parsed by the
//!   workspace's one JSON reader ([`mod@crate::json`]);
//! * [`ParquetSource`] — a documented *subset* of the Parquet idea:
//!   column-major chunks of PLAIN-encoded values in one row group,
//!   framed by the `PAR1` magic. See [`ParquetSource`] for the exact
//!   byte layout; [`write_parquet_subset`] produces it, so fixtures
//!   round-trip without any external dependency.
//!
//! Whatever the source, the produced tuples are validated against
//! the target [`Schema`] and then fed to the same
//! [`crate::HeapFile`] loader, so the on-disk block image — and
//! therefore every downstream sampling decision — is identical
//! across formats holding the same records.

use std::io::BufRead;

use crate::error::StorageError;
use crate::json::Json;
use crate::schema::{ColumnType, Schema};
use crate::tuple::{Tuple, Value};
use crate::Result;

/// A named ingestion format selectable e.g. from the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFormat {
    /// Comma-separated values; `has_header` skips the first record.
    Csv {
        /// True when the first non-empty line is a header to skip.
        has_header: bool,
    },
    /// One JSON object or array per line.
    JsonLines,
    /// The `PAR1`-framed PLAIN columnar subset.
    Parquet,
}

impl IngestFormat {
    /// Parses a format name: `csv`, `jsonl` (or `json`), `parquet`.
    /// CSV defaults to having a header row, matching the CLI loader.
    pub fn parse(text: &str) -> Result<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "csv" => Ok(IngestFormat::Csv { has_header: true }),
            "jsonl" | "json" => Ok(IngestFormat::JsonLines),
            "parquet" => Ok(IngestFormat::Parquet),
            other => Err(StorageError::io(format!(
                "unknown ingest format {other:?} (expected csv, jsonl, or parquet)"
            ))),
        }
    }

    /// The source implementing this format.
    pub fn source(self) -> Box<dyn TupleSource> {
        match self {
            IngestFormat::Csv { has_header } => Box::new(CsvSource { has_header }),
            IngestFormat::JsonLines => Box::new(JsonLinesSource),
            IngestFormat::Parquet => Box::new(ParquetSource),
        }
    }
}

/// Parses an input stream into tuples conforming to a schema.
///
/// Implementations must validate every produced tuple against the
/// schema (arity, types, string widths) and fail on the first
/// malformed record — partial loads would silently skew every
/// selectivity estimate built on the relation.
pub trait TupleSource {
    /// A short name for error messages and logs.
    fn format_name(&self) -> &'static str;

    /// Reads every record from `reader`.
    fn read(&self, reader: &mut dyn BufRead, schema: &Schema) -> Result<Vec<Tuple>>;
}

/// Reads `reader` with the source for `format` — the one-call form.
pub fn read_tuples(
    format: IngestFormat,
    reader: &mut dyn BufRead,
    schema: &Schema,
) -> Result<Vec<Tuple>> {
    format.source().read(reader, schema)
}

/// Comma-separated records, one per line, parsed per column as the
/// schema says. Every record must have exactly the schema's arity;
/// values are validated against the column types (including fixed
/// string widths). Blank lines are skipped.
#[derive(Debug, Clone, Copy)]
pub struct CsvSource {
    /// True when the first non-empty line is a header to skip.
    pub has_header: bool,
}

impl TupleSource for CsvSource {
    fn format_name(&self) -> &'static str {
        "csv"
    }

    fn read(&self, reader: &mut dyn BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
        let mut tuples = Vec::new();
        let mut skipped_header = !self.has_header;
        for (i, line) in reader.lines().enumerate() {
            let line_no = i + 1;
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if !skipped_header {
                skipped_header = true;
                continue;
            }
            let fields = split_csv_record(&line)?;
            if fields.len() != schema.arity() {
                return Err(StorageError::io(format!(
                    "CSV line {line_no}: {} fields, schema expects {}",
                    fields.len(),
                    schema.arity()
                )));
            }
            let values: Result<Vec<Value>> = fields
                .iter()
                .zip(schema.columns())
                .map(|(f, col)| parse_csv_value(f, col.ty, line_no))
                .collect();
            let tuple = Tuple::new(values?);
            schema.check_tuple(&tuple)?;
            tuples.push(tuple);
        }
        Ok(tuples)
    }
}

/// Splits one CSV record into fields (RFC-4180-style quoting).
fn split_csv_record(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                other => field.push(other),
            }
        } else {
            match c {
                '"' if field.is_empty() => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut field)),
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(StorageError::io("unterminated quoted CSV field"));
    }
    fields.push(field);
    Ok(fields)
}

fn parse_csv_value(text: &str, ty: ColumnType, line_no: usize) -> Result<Value> {
    let err = |what: &str| {
        StorageError::io(format!(
            "CSV line {line_no}: cannot parse {text:?} as {what}"
        ))
    };
    match ty {
        ColumnType::Int => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| err("integer")),
        ColumnType::Float => text
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err("float")),
        ColumnType::Bool => match text.trim().to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" => Ok(Value::Bool(true)),
            "false" | "0" | "no" => Ok(Value::Bool(false)),
            _ => Err(err("boolean")),
        },
        ColumnType::Str { .. } => Ok(Value::Str(text.to_owned())),
    }
}

/// One JSON value per line: `{"col": value, ...}` (any key order,
/// keys matched against schema column names) or `[v1, v2, ...]`
/// (column order). Blank lines are skipped.
#[derive(Debug, Clone, Copy)]
pub struct JsonLinesSource;

impl TupleSource for JsonLinesSource {
    fn format_name(&self) -> &'static str {
        "jsonl"
    }

    fn read(&self, reader: &mut dyn BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
        let mut tuples = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line_no = i + 1;
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let json = Json::parse(&line).map_err(|e| jerr(line_no, e))?;
            let tuple = json_to_tuple(json, schema, line_no)?;
            schema.check_tuple(&tuple)?;
            tuples.push(tuple);
        }
        Ok(tuples)
    }
}

fn jerr(line_no: usize, msg: impl std::fmt::Display) -> StorageError {
    StorageError::io(format!("JSONL line {line_no}: {msg}"))
}

/// `1` loads into an `Int` or a `Float` column, `1.0` only into a
/// `Float` one — the same int/float strictness the CSV parser has.
fn json_scalar_to_value(json: &Json, ty: ColumnType, line_no: usize, what: &str) -> Result<Value> {
    match (ty, json) {
        (_, Json::Null) => Err(jerr(
            line_no,
            format!("{what}: null is not loadable into any column type"),
        )),
        (ColumnType::Int, Json::U64(_) | Json::I64(_)) => json
            .as_i64()
            .map(Value::Int)
            .ok_or_else(|| jerr(line_no, format!("{what}: {json} does not fit an i64"))),
        (ColumnType::Int, Json::F64(x)) => {
            Err(jerr(line_no, format!("{what}: {x:?} is not an integer")))
        }
        (ColumnType::Float, Json::U64(_) | Json::I64(_) | Json::F64(_)) => {
            Ok(Value::Float(json.as_f64().expect("a number")))
        }
        (ColumnType::Bool, Json::Bool(b)) => Ok(Value::Bool(*b)),
        (ColumnType::Str { .. }, Json::Str(s)) => Ok(Value::Str(s.clone())),
        (ty, _) => Err(jerr(line_no, format!("{what}: wrong JSON type for {ty:?}"))),
    }
}

fn json_to_tuple(json: Json, schema: &Schema, line_no: usize) -> Result<Tuple> {
    match json {
        Json::Arr(items) => {
            if items.len() != schema.arity() {
                return Err(jerr(
                    line_no,
                    format!("{} values, schema expects {}", items.len(), schema.arity()),
                ));
            }
            let values: Result<Vec<Value>> = items
                .iter()
                .zip(schema.columns())
                .map(|(item, col)| {
                    json_scalar_to_value(item, col.ty, line_no, &format!("column {:?}", col.name))
                })
                .collect();
            Ok(Tuple::new(values?))
        }
        Json::Obj(fields) => {
            for (key, _) in &fields {
                if schema.column_index(key).is_none() {
                    return Err(jerr(line_no, format!("unknown column {key:?}")));
                }
            }
            let values: Result<Vec<Value>> = schema
                .columns()
                .iter()
                .map(|col| {
                    let mut found = fields.iter().filter(|(key, _)| *key == col.name);
                    let (_, item) = found
                        .next()
                        .ok_or_else(|| jerr(line_no, format!("missing column {:?}", col.name)))?;
                    if found.next().is_some() {
                        return Err(jerr(line_no, format!("duplicate column {:?}", col.name)));
                    }
                    json_scalar_to_value(item, col.ty, line_no, &format!("column {:?}", col.name))
                })
                .collect();
            Ok(Tuple::new(values?))
        }
        _ => Err(jerr(line_no, "record must be a JSON object or array")),
    }
}

/// Magic framing bytes shared with real Parquet files.
const PARQUET_MAGIC: &[u8; 4] = b"PAR1";
/// Version tag of the subset container.
const PARQUET_SUBSET_VERSION: u32 = 1;

/// A minimal, self-describing subset of the Parquet layout:
/// column-major, PLAIN-encoded, one row group, `PAR1`-framed. It is
/// **not** interchangeable with general Parquet files (no Thrift
/// footer metadata, no compression, no pages); it exists so columnar
/// fixtures can be ingested without adding a dependency, while
/// keeping Parquet's two load-bearing ideas — column-major chunks
/// and PLAIN value encodings.
///
/// Byte layout, all integers little-endian:
///
/// ```text
/// "PAR1"                                    magic
/// u32  version (currently 1)
/// u32  n_columns
/// u64  n_rows
/// per column, in schema order:
///   u8  type tag: 0=int64, 1=double, 2=boolean, 3=byte_array
///   column chunk, PLAIN encoding:
///     int64:      n_rows × 8-byte values
///     double:     n_rows × 8-byte values
///     boolean:    ceil(n_rows / 8) bytes, bit-packed LSB-first
///     byte_array: per value, u32 length + UTF-8 bytes
/// "PAR1"                                    trailing magic
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParquetSource;

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Bool => 2,
        ColumnType::Str { .. } => 3,
    }
}

fn perr(msg: impl std::fmt::Display) -> StorageError {
    StorageError::io(format!("parquet subset: {msg}"))
}

struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| perr("truncated file"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

impl TupleSource for ParquetSource {
    fn format_name(&self) -> &'static str {
        "parquet"
    }

    fn read(&self, reader: &mut dyn BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        if bytes.len() < 8
            || &bytes[..4] != PARQUET_MAGIC
            || &bytes[bytes.len() - 4..] != PARQUET_MAGIC
        {
            return Err(perr("missing PAR1 framing"));
        }
        let mut cur = ByteCursor {
            bytes: &bytes[..bytes.len() - 4],
            pos: 4,
        };
        let version = cur.u32()?;
        if version != PARQUET_SUBSET_VERSION {
            return Err(perr(format!("unsupported version {version}")));
        }
        let n_columns = cur.u32()? as usize;
        if n_columns != schema.arity() {
            return Err(perr(format!(
                "{n_columns} columns, schema expects {}",
                schema.arity()
            )));
        }
        let n_rows = usize::try_from(cur.u64()?).map_err(|_| perr("row count overflows"))?;
        // Decode column-major, then transpose into tuples.
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(n_columns);
        for col in schema.columns() {
            let tag = cur.take(1)?[0];
            if tag != type_tag(col.ty) {
                return Err(perr(format!(
                    "column {:?}: type tag {tag} does not match schema type {:?}",
                    col.name, col.ty
                )));
            }
            let mut values = Vec::with_capacity(n_rows);
            match col.ty {
                ColumnType::Int => {
                    for _ in 0..n_rows {
                        let raw: [u8; 8] = cur.take(8)?.try_into().expect("8");
                        values.push(Value::Int(i64::from_le_bytes(raw)));
                    }
                }
                ColumnType::Float => {
                    for _ in 0..n_rows {
                        let raw: [u8; 8] = cur.take(8)?.try_into().expect("8");
                        values.push(Value::Float(f64::from_le_bytes(raw)));
                    }
                }
                ColumnType::Bool => {
                    let packed = cur.take(n_rows.div_ceil(8))?;
                    for row in 0..n_rows {
                        values.push(Value::Bool(packed[row / 8] >> (row % 8) & 1 != 0));
                    }
                }
                ColumnType::Str { .. } => {
                    for _ in 0..n_rows {
                        let raw: [u8; 4] = cur.take(4)?.try_into().expect("4");
                        let len = u32::from_le_bytes(raw) as usize;
                        let s = std::str::from_utf8(cur.take(len)?)
                            .map_err(|e| perr(format!("column {:?}: {e}", col.name)))?;
                        values.push(Value::Str(s.to_owned()));
                    }
                }
            }
            columns.push(values);
        }
        if cur.pos != cur.bytes.len() {
            return Err(perr("trailing bytes before footer magic"));
        }
        let mut tuples = Vec::with_capacity(n_rows);
        for row in 0..n_rows {
            let tuple = Tuple::new(columns.iter().map(|col| col[row].clone()).collect());
            schema.check_tuple(&tuple)?;
            tuples.push(tuple);
        }
        Ok(tuples)
    }
}

/// Writes `tuples` in the [`ParquetSource`] subset layout — the
/// fixture writer paired with the reader, used by tests and by tools
/// converting CSV dumps.
pub fn write_parquet_subset(schema: &Schema, tuples: &[Tuple]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(PARQUET_MAGIC);
    out.extend_from_slice(&PARQUET_SUBSET_VERSION.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(schema.arity())
            .expect("arity fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
    for t in tuples {
        schema.check_tuple(t)?;
    }
    for (i, col) in schema.columns().iter().enumerate() {
        out.push(type_tag(col.ty));
        match col.ty {
            ColumnType::Int => {
                for t in tuples {
                    let x = t.value(i).as_int().expect("checked");
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnType::Float => {
                for t in tuples {
                    let x = t.value(i).as_float().expect("checked");
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnType::Bool => {
                let mut packed = vec![0u8; tuples.len().div_ceil(8)];
                for (row, t) in tuples.iter().enumerate() {
                    if t.value(i).as_bool().expect("checked") {
                        packed[row / 8] |= 1 << (row % 8);
                    }
                }
                out.extend_from_slice(&packed);
            }
            ColumnType::Str { .. } => {
                for t in tuples {
                    let s = t.value(i).as_str().expect("checked");
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    out.extend_from_slice(PARQUET_MAGIC);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("price", ColumnType::Float),
            ("ok", ColumnType::Bool),
            ("name", ColumnType::Str { width: 8 }),
        ])
    }

    fn rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i as i64 - 2),
                    Value::Float(i as f64 * 0.25),
                    Value::Bool(i % 3 == 0),
                    Value::Str(format!("r{i}")),
                ])
            })
            .collect()
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(
            IngestFormat::parse("csv").unwrap(),
            IngestFormat::Csv { has_header: true }
        );
        assert_eq!(
            IngestFormat::parse(" JSONL ").unwrap(),
            IngestFormat::JsonLines
        );
        assert_eq!(
            IngestFormat::parse("parquet").unwrap(),
            IngestFormat::Parquet
        );
        assert!(IngestFormat::parse("orc").is_err());
    }

    fn csv_rows(text: &str, has_header: bool) -> Result<Vec<Tuple>> {
        let format = IngestFormat::Csv { has_header };
        read_tuples(format, &mut Cursor::new(text), &schema())
    }

    #[test]
    fn csv_parses_plain_records() {
        let csv = "id,price,ok,name\n1,2.5,true,ada\n2,3.0,no,bob\n";
        let rows = csv_rows(csv, true).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value(0), &Value::Int(1));
        assert_eq!(rows[0].value(1), &Value::Float(2.5));
        assert_eq!(rows[1].value(2), &Value::Bool(false));
        assert_eq!(rows[1].value(3), &Value::Str("bob".into()));
    }

    #[test]
    fn csv_quoted_fields_with_commas_and_escapes() {
        let csv = r#"7,1.0,yes,"a,b ""q"""
"#;
        let rows = csv_rows(csv, false).unwrap();
        assert_eq!(rows[0].value(3), &Value::Str("a,b \"q\"".into()));
    }

    #[test]
    fn csv_blank_lines_are_skipped() {
        let csv = "\n1,1.0,1,x\n\n2,2.0,0,y\n";
        let rows = csv_rows(csv, false).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let csv = "1,1.0,true,x\nnope,2.0,true,y\n";
        let err = csv_rows(csv, false).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let short = "1,1.0\n";
        let err = csv_rows(short, false).unwrap_err();
        assert!(err.to_string().contains("2 fields"), "{err}");

        let unterminated = "1,1.0,true,\"oops\n";
        assert!(csv_rows(unterminated, false).is_err());
    }

    #[test]
    fn csv_overlong_string_rejected_by_schema() {
        let csv = "1,1.0,true,muchtoolongname\n";
        assert!(csv_rows(csv, false).is_err());
    }

    #[test]
    fn jsonl_objects_and_arrays_load_identically() {
        let objects = concat!(
            "{\"id\": 1, \"price\": 2.5, \"ok\": true, \"name\": \"ada\"}\n",
            "\n",
            "{\"name\": \"bob\", \"ok\": false, \"id\": 2, \"price\": 3.0}\n",
        );
        let arrays = "[1, 2.5, true, \"ada\"]\n[2, 3.0, false, \"bob\"]\n";
        let from_objects = read_tuples(
            IngestFormat::JsonLines,
            &mut Cursor::new(objects),
            &schema(),
        )
        .unwrap();
        let from_arrays =
            read_tuples(IngestFormat::JsonLines, &mut Cursor::new(arrays), &schema()).unwrap();
        assert_eq!(from_objects, from_arrays);
        assert_eq!(from_objects.len(), 2);
        assert_eq!(from_objects[0].value(3), &Value::Str("ada".into()));
        assert_eq!(from_objects[1].value(1), &Value::Float(3.0));
    }

    #[test]
    fn jsonl_handles_escapes_negative_numbers_and_exponents() {
        let s = Schema::new(vec![
            ("f", ColumnType::Float),
            ("s", ColumnType::Str { width: 16 }),
        ]);
        let line = "[-2.5e-1, \"a\\\"b\\\\c\\n\\u0041\"]\n";
        let rows = read_tuples(IngestFormat::JsonLines, &mut Cursor::new(line), &s).unwrap();
        assert_eq!(rows[0].value(0), &Value::Float(-0.25));
        assert_eq!(rows[0].value(1), &Value::Str("a\"b\\c\nA".into()));
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let cases = [
            "{\"id\": 1, \"price\": 2.5, \"ok\": true}\n", // missing column
            "{\"id\": 1, \"price\": 2.5, \"ok\": true, \"name\": \"a\", \"x\": 1}\n", // unknown
            "[1, 2.5, true, \"ada\", 9]\n",                // arity
            "[1.5, 2.5, true, \"ada\"]\n",                 // float into int
            "[1, 2.5, true, null]\n",                      // null
            "[1, 2.5, true, \"ada\"] trailing\n",          // trailing garbage
            "[1, 2.5, true, \"unterminated\n",             // bad string
            "42\n",                                        // not a record
        ];
        for bad in cases {
            let input = format!("[1, 1.0, true, \"ok\"]\n{bad}");
            let err = read_tuples(
                IngestFormat::JsonLines,
                &mut Cursor::new(input.as_str()),
                &schema(),
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("line 2"),
                "error for {bad:?} lacks line number: {err}"
            );
        }
    }

    /// A line of 100 000 `[` used to recurse once per bracket and
    /// overflow the stack — an abort, not even a panic.
    #[test]
    fn jsonl_nesting_bomb_is_a_line_numbered_error() {
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let input = format!("[1, 1.0, true, \"ok\"]\n{bomb}\n");
            let err = read_tuples(
                IngestFormat::JsonLines,
                &mut Cursor::new(input.as_str()),
                &schema(),
            )
            .unwrap_err()
            .to_string();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn parquet_subset_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            let tuples = rows(n);
            let bytes = write_parquet_subset(&schema(), &tuples).unwrap();
            assert_eq!(&bytes[..4], b"PAR1");
            assert_eq!(&bytes[bytes.len() - 4..], b"PAR1");
            let decoded = read_tuples(
                IngestFormat::Parquet,
                &mut Cursor::new(bytes.as_slice()),
                &schema(),
            )
            .unwrap();
            assert_eq!(decoded, tuples, "round trip failed for n={n}");
        }
    }

    #[test]
    fn parquet_subset_rejects_malformed_files() {
        let tuples = rows(5);
        let good = write_parquet_subset(&schema(), &tuples).unwrap();

        let read =
            |bytes: &[u8]| read_tuples(IngestFormat::Parquet, &mut Cursor::new(bytes), &schema());
        assert!(read(b"not a parquet file").is_err());
        // Truncation anywhere in the body.
        assert!(read(&good[..good.len() - 8]).is_err());
        // Wrong framing.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(read(&bad).is_err());
        // Schema mismatch: drop a column from the reader's schema.
        let narrow = Schema::new(vec![("id", ColumnType::Int)]);
        assert!(read_tuples(
            IngestFormat::Parquet,
            &mut Cursor::new(good.as_slice()),
            &narrow
        )
        .is_err());
        // Type mismatch against the recorded tags.
        let swapped = Schema::new(vec![
            ("id", ColumnType::Float),
            ("price", ColumnType::Int),
            ("ok", ColumnType::Bool),
            ("name", ColumnType::Str { width: 8 }),
        ]);
        assert!(read_tuples(
            IngestFormat::Parquet,
            &mut Cursor::new(good.as_slice()),
            &swapped
        )
        .is_err());
    }

    #[test]
    fn all_formats_produce_identical_tuples() {
        let tuples = rows(9);
        let s = schema();
        // CSV rendering of the same records.
        let mut csv = String::from("id,price,ok,name\n");
        for t in &tuples {
            csv.push_str(&format!(
                "{},{},{},{}\n",
                t.value(0).as_int().unwrap(),
                t.value(1).as_float().unwrap(),
                t.value(2).as_bool().unwrap(),
                t.value(3).as_str().unwrap(),
            ));
        }
        let mut jsonl = String::new();
        for t in &tuples {
            jsonl.push_str(&format!(
                "{{\"id\": {}, \"price\": {}, \"ok\": {}, \"name\": \"{}\"}}\n",
                t.value(0).as_int().unwrap(),
                t.value(1).as_float().unwrap(),
                t.value(2).as_bool().unwrap(),
                t.value(3).as_str().unwrap(),
            ));
        }
        let parquet = write_parquet_subset(&s, &tuples).unwrap();

        let from_csv = read_tuples(
            IngestFormat::Csv { has_header: true },
            &mut Cursor::new(csv.as_str()),
            &s,
        )
        .unwrap();
        let from_jsonl = read_tuples(
            IngestFormat::JsonLines,
            &mut Cursor::new(jsonl.as_str()),
            &s,
        )
        .unwrap();
        let from_parquet = read_tuples(
            IngestFormat::Parquet,
            &mut Cursor::new(parquet.as_slice()),
            &s,
        )
        .unwrap();
        assert_eq!(from_csv, tuples);
        assert_eq!(from_jsonl, tuples);
        assert_eq!(from_parquet, tuples);
    }
}
