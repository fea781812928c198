//! End-to-end tests driving the actual `eram` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_eram")
}

fn write_csv(label: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("eram-bin-{label}-{}.csv", std::process::id()));
    let mut content = String::from("id,price\n");
    for i in 0..100 {
        content.push_str(&format!("{i},{}\n", i * 10));
    }
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn one_shot_query_prints_estimate() {
    let csv = write_csv("oneshot");
    let out = Command::new(bin())
        .args([
            "--load",
            &format!("orders={}:id:int,price:int", csv.display()),
            "--header",
            "--query",
            "select[#1 >= 500](orders)",
            "--quota",
            "120",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Census within a huge quota: exactly 50 rows have price ≥ 500.
    assert!(stdout.contains("estimate 50.00"), "{stdout}");
    assert!(stdout.contains("95% CI"), "{stdout}");
    let _ = std::fs::remove_file(csv);
}

#[test]
fn comparison_across_types_is_refused_with_both_types_named() {
    // `price` is a float column: `#1 >= 500` (an int constant) used
    // to answer "every row" with a zero-width interval, because
    // values of different types order by type tag.
    let csv = write_csv("mistyped");
    let run = |query: &str| {
        Command::new(bin())
            .args([
                "--load",
                &format!("orders={}:id:int,price:float", csv.display()),
                "--header",
                "--query",
                query,
                "--quota",
                "120",
            ])
            .output()
            .unwrap()
    };
    let out = run("select[#0 < 10 and #1 >= 500](orders)");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("comparison operand types differ in `#1 >= 500`: float vs int"),
        "{stderr}"
    );
    // Written as a float the same atom is answered, exactly.
    let out = run("select[#1 >= 500.0](orders)");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("estimate 50.00"), "{stdout}");
    let _ = std::fs::remove_file(csv);
}

#[test]
fn interactive_session_round_trip() {
    let csv = write_csv("shell");
    let mut child = Command::new(bin())
        .args([
            "--load",
            &format!("t={}:id:int,price:int", csv.display()),
            "--header",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"relations\nexact select[#1 >= 500](t)\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t: 100 tuples"), "{stdout}");
    assert!(stdout.contains("exact COUNT = 50"), "{stdout}");
    let _ = std::fs::remove_file(csv);
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let out = Command::new(bin()).args(["--bogus"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn profile_under_serve_is_a_usage_error_naming_both_flags() {
    let out = Command::new(bin())
        .args(["--serve", "jobs.json", "--profile"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--profile") && stderr.contains("--serve"),
        "{stderr}"
    );
}

#[test]
fn missing_csv_is_a_clean_error() {
    let out = Command::new(bin())
        .args(["--load", "x=/definitely/not/here.csv:a:int"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--load x"), "{stderr}");
}
