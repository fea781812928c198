//! `perf/trajectory.jsonl`, the committed record of host-time
//! comparisons (`scripts/bench_pairs.sh --record`): every line parses
//! with the in-tree JSON reader and carries what a reader of the
//! trajectory needs to place it — both commits, the workload and its
//! protocol, both sides' quartiles, the verdict and the host.

use std::path::Path;

use eram_storage::Json;

fn is_sha(s: &str) -> bool {
    s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[test]
fn every_trajectory_record_parses_and_is_complete() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf/trajectory.jsonl");
    let text = std::fs::read_to_string(&path).expect("perf/trajectory.jsonl is committed");
    let mut records = 0;
    for (i, line) in text.lines().enumerate() {
        let at = format!("perf/trajectory.jsonl line {}", i + 1);
        let r = Json::parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let text_of = |key: &str| {
            r.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{at}: no string {key}"))
        };
        let number = |key: &str| {
            r.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{at}: no number {key}"))
        };
        assert!(is_sha(text_of("parent")), "{at}: parent");
        let change = text_of("change");
        assert!(
            is_sha(change.strip_suffix("-dirty").unwrap_or(change)),
            "{at}: change {change}"
        );
        // The measured tree's content id; records made before the
        // script wrote it have none.
        if let Some(tree) = r.get("tree") {
            assert!(tree.as_str().is_some_and(is_sha), "{at}: tree");
        }
        for key in ["date", "workload", "metric", "unit"] {
            assert!(!text_of(key).is_empty(), "{at}: empty {key}");
        }
        assert!(
            ["higher", "lower"].contains(&text_of("better")),
            "{at}: better"
        );
        for key in ["seed", "pairs", "wins"] {
            assert!(r.get(key).and_then(Json::as_u64).is_some(), "{at}: {key}");
        }
        assert!(number("wins") <= number("pairs"), "{at}: wins");
        assert!(number("seconds") > 0.0, "{at}: seconds");
        for side in ["parent", "change"] {
            let (q1, m, q3) = (
                number(&format!("{side}_q1")),
                number(&format!("{side}_median")),
                number(&format!("{side}_q3")),
            );
            assert!(q1 <= m && m <= q3, "{at}: {side} quartiles {q1} {m} {q3}");
        }
        for key in ["traced", "holds"] {
            assert!(r.get(key).and_then(Json::as_bool).is_some(), "{at}: {key}");
        }
        let host = r.get("host").unwrap_or_else(|| panic!("{at}: no host"));
        assert!(host.get("nproc").and_then(Json::as_u64).is_some(), "{at}");
        for key in ["cpu", "loadavg"] {
            assert!(
                host.get(key).and_then(Json::as_str).is_some(),
                "{at}: host {key}"
            );
        }
        records += 1;
    }
    assert!(records > 0, "perf/trajectory.jsonl holds no record");
}
