//! Relation ingestion from CSV and JSON lines.
//!
//! [`read_tuples`] parses a byte stream in one of two
//! [`IngestFormat`]s into schema-conforming [`Tuple`]s:
//!
//! * CSV — the common subset: comma separation, `"`-quoted fields
//!   with `""` escapes, an optional header row. Deliberately small — a
//!   loading convenience for the examples and the CLI, not a general
//!   CSV library;
//! * JSON lines — one JSON value per line, either an object keyed by
//!   column name or an array in column order, parsed by the
//!   workspace's one JSON reader ([`mod@crate::json`]).
//!
//! Every record is validated against the target [`Schema`] (arity,
//! types, string widths) and the first malformed one fails the whole
//! read with its line number — a partial load would silently skew
//! every selectivity estimate built on the relation. The tuples then
//! feed the same [`crate::HeapFile`] loader, so the on-disk block
//! image — and therefore every downstream sampling decision — is
//! identical across formats holding the same records.

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
}

impl IngestFormat {
    /// Parses a format name: `csv` gives `Csv { has_header: true }`,
    /// `jsonl` (or `json`) gives `JsonLines`, case-insensitively.
    pub fn parse(text: &str) -> Result<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "csv" => Ok(IngestFormat::Csv { has_header: true }),
            "jsonl" | "json" => Ok(IngestFormat::JsonLines),
            other => Err(StorageError::io(format!(
                "unknown ingest format {other:?} (expected csv or jsonl)"
            ))),
        }
    }
}

/// Reads every record from `reader` in `format`, each validated
/// against `schema`; fails on the first malformed record.
pub fn read_tuples(
    format: IngestFormat,
    reader: &mut dyn BufRead,
    schema: &Schema,
) -> Result<Vec<Tuple>> {
    match format {
        IngestFormat::Csv { has_header } => read_csv(reader, schema, has_header),
        IngestFormat::JsonLines => read_jsonl(reader, schema),
    }
}

/// Comma-separated records, one per line, parsed per column as the
/// schema says. Every record must have exactly the schema's arity;
/// values are validated against the column types (including fixed
/// string widths). Blank lines are skipped.
fn read_csv(reader: &mut dyn BufRead, schema: &Schema, has_header: bool) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    let mut skipped_header = !has_header;
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
fn read_jsonl(reader: &mut dyn BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use testkit::prelude::*;

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

    /// The pieces hostile input is built from: number syntax, every
    /// character either format gives meaning to, both line endings,
    /// and two invalid UTF-8 sequences.
    const HOSTILE: &[&[u8]] = &[
        b"0",
        b"1",
        b"7",
        b"9",
        b"+",
        b"-",
        b".",
        b"e",
        b"E",
        b"\"",
        b",",
        b"[",
        b"]",
        b"{",
        b"}",
        b":",
        b"\n",
        b"\r",
        b"\\",
        b"\xff",
        b"\xc3\x28",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16_384))]

        #[test]
        fn hostile_bytes_never_panic_either_reader(
            pieces in prop::collection::vec(prop::sample::select(HOSTILE.to_vec()), 0..=64),
        ) {
            let mut bytes = pieces.concat();
            bytes.truncate(64);
            for format in [
                IngestFormat::Csv { has_header: true },
                IngestFormat::Csv { has_header: false },
                IngestFormat::JsonLines,
            ] {
                let read = std::panic::catch_unwind(|| {
                    read_tuples(format, &mut Cursor::new(bytes.as_slice()), &schema()).is_ok()
                });
                prop_assert!(read.is_ok(), "{format:?} panicked on {bytes:?}");
            }
        }
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
        assert_eq!(from_csv, tuples);
        assert_eq!(from_jsonl, tuples);
    }
}
