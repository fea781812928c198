//! Ingestion round-trip: CSV and JSON lines must load the
//! same logical relation into **byte-identical** storage, and queries
//! over it must be byte-identical too — across formats and across
//! block layouts.
//!
//! The pipeline under test: fixture file → [`IngestFormat`] reader →
//! [`Database::load_ingest`] → [`HeapFile`] pages → seeded query.
//! Equality is checked at the strongest level available at each step:
//! raw page bytes for storage, serialized [`ExecutionReport`]s (plus
//! JSONL traces) for execution.

use std::path::PathBuf;
use std::time::Duration;

use eram_core::{BlockLayout, Database, Tracer};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{json, ColumnType, IngestFormat, Schema, Tuple, Value};

/// Four-column schema covering every [`ColumnType`], padded to the
/// paper's 200-byte tuples (5 per block).
fn schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int),
        ("price", ColumnType::Float),
        ("ok", ColumnType::Bool),
        ("name", ColumnType::Str { width: 12 }),
    ])
    .padded_to(200)
}

/// The canonical fixture rows, duplicate-heavy on `ok` and `name`.
fn rows(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Float(i as f64 * 0.25),
                Value::Bool(i % 3 == 0),
                Value::Str(format!("name{}", i % 7)),
            ])
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eram-ingest-{name}-{}", std::process::id()))
}

/// Writes the fixture in both formats and returns
/// `(format, path)` pairs. Caller removes the files. `tag` names the
/// calling test: tests run on parallel threads of one process, so
/// each needs paths of its own.
fn write_fixtures(tag: &str, n: usize) -> Vec<(IngestFormat, PathBuf)> {
    let rows = rows(n);
    let csv_path = tmp(&format!("{tag}.csv"));
    let csv: String = std::iter::once("id,price,ok,name\n".to_string())
        .chain(rows.iter().map(|t| {
            format!(
                "{},{},{},{}\n",
                t.value(0).as_int().unwrap(),
                t.value(1).as_float().unwrap(),
                t.value(2).as_bool().unwrap(),
                t.value(3).as_str().unwrap(),
            )
        }))
        .collect();
    std::fs::write(&csv_path, csv).unwrap();

    let jsonl_path = tmp(&format!("{tag}.jsonl"));
    let jsonl: String = rows
        .iter()
        .map(|t| {
            format!(
                "{{\"id\": {}, \"price\": {}, \"ok\": {}, \"name\": \"{}\"}}\n",
                t.value(0).as_int().unwrap(),
                t.value(1).as_float().unwrap(),
                t.value(2).as_bool().unwrap(),
                t.value(3).as_str().unwrap(),
            )
        })
        .collect();
    std::fs::write(&jsonl_path, jsonl).unwrap();

    vec![
        (IngestFormat::Csv { has_header: true }, csv_path),
        (IngestFormat::JsonLines, jsonl_path),
    ]
}

#[test]
fn all_formats_load_byte_identical_heap_files() {
    let fixtures = write_fixtures("pages", 137); // partial tail block on purpose
    let mut page_images: Vec<(IngestFormat, Vec<Vec<u8>>)> = Vec::new();
    for (format, path) in &fixtures {
        let mut db = Database::sim_default(1);
        let n = db.load_ingest("r", schema(), path, *format).unwrap();
        assert_eq!(n, 137, "{format:?} lost rows");
        let hf = db.catalog().relation("r").unwrap();
        assert_eq!(hf.scan_uncharged().unwrap(), rows(137), "{format:?}");
        // Strongest check: the raw on-device pages, not just the
        // decoded tuples — padding and encoding must agree exactly.
        let pages: Vec<Vec<u8>> = (0..hf.num_blocks())
            .map(|b| {
                db.disk()
                    .read_block_uncharged(hf.file_id(), b)
                    .unwrap()
                    .bytes()
                    .to_vec()
            })
            .collect();
        page_images.push((*format, pages));
    }
    let (_, reference) = &page_images[0];
    for (format, pages) in &page_images[1..] {
        assert_eq!(
            pages, reference,
            "{format:?} produced different page bytes than CSV"
        );
    }
    for (_, path) in fixtures {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn queries_over_any_format_are_identical_across_layouts() {
    let fixtures = write_fixtures("queries", 600);
    let run = |format: IngestFormat, path: &PathBuf, layout: BlockLayout| {
        let mut db = Database::sim_default(5);
        db.load_ingest("r", schema(), path, format).unwrap();
        let tracer = Tracer::recording(db.disk().clock().clone());
        let expr = Expr::relation("r").select(Predicate::col_cmp(0, CmpOp::Lt, 300));
        let out = db
            .count(expr)
            .within(Duration::from_secs(2))
            .block_layout(layout)
            .seed(19)
            .tracer(tracer.clone())
            .run()
            .expect("query over ingested relation must execute");
        (json::to_string(&out.report), tracer.to_jsonl())
    };
    let (ref_format, ref_path) = &fixtures[0];
    let (ref_report, ref_trace) = run(*ref_format, ref_path, BlockLayout::Row);
    for (format, path) in &fixtures {
        for layout in [BlockLayout::Row, BlockLayout::Columnar] {
            let (report, trace) = run(*format, path, layout);
            assert_eq!(report, ref_report, "report diverged: {format:?} {layout:?}");
            assert_eq!(trace, ref_trace, "trace diverged: {format:?} {layout:?}");
        }
    }
    for (_, path) in fixtures {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn malformed_inputs_fail_loudly_not_partially() {
    let bad_jsonl = tmp("bad.jsonl");
    std::fs::write(&bad_jsonl, "[1, 2.0, true, \"ok\"]\n[\"oops\"]\n").unwrap();
    let mut db = Database::sim_default(3);
    let err = db
        .load_ingest("r", schema(), &bad_jsonl, IngestFormat::JsonLines)
        .unwrap_err();
    assert!(
        err.to_string().contains("line 2"),
        "error must name the offending line: {err}"
    );
    assert!(
        db.catalog().relation("r").is_none(),
        "a failed load must not register a partial relation"
    );
    let _ = std::fs::remove_file(bad_jsonl);
}
