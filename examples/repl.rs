//! An interactive shell over the textual query language — the
//! closest thing to sitting at the 1989 ERAM prototype.
//!
//! ```sh
//! cargo run --release --example repl
//! ```
//!
//! Three demo relations are preloaded (`orders`, `customers`,
//! `returns`). Commands:
//!
//! ```text
//! count <expr> within <seconds>     time-constrained estimate
//! exact <expr>                      exact COUNT (offline, uncharged)
//! relations                         list loaded relations
//! help | quit
//! ```
//!
//! Example queries:
//!
//! ```text
//! count select[#1 < 2500](orders) within 5
//! count join[#0=#0](orders, customers) within 2.5
//! count (select[#1 < 100](orders) union returns) within 10
//! exact project[#2](orders)
//! ```

use std::io::{BufRead, Write};
use std::time::Duration;

use eram_core::Database;
use eram_relalg::parse_expr;
use eram_storage::{ColumnType, Schema, Tuple, Value};

fn load_demo(db: &mut Database) {
    let schema = |n: &str| {
        Schema::new(vec![
            (format!("{n}_id"), ColumnType::Int),
            ("amount".to_string(), ColumnType::Int),
            ("region".to_string(), ColumnType::Int),
        ])
        .padded_to(200)
    };
    db.load_relation(
        "orders",
        schema("order"),
        (0..10_000).map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Int((i * 7919) % 5_000),
                Value::Int(i % 12),
            ])
        }),
    )
    .unwrap();
    db.load_relation(
        "customers",
        schema("customer"),
        (0..10_000).map(|i| {
            Tuple::new(vec![
                Value::Int(i * 2),
                Value::Int((i * 271) % 5_000),
                Value::Int(i % 12),
            ])
        }),
    )
    .unwrap();
    db.load_relation(
        "returns",
        schema("return"),
        (0..10_000).map(|i| {
            Tuple::new(vec![
                Value::Int(i * 3),
                Value::Int((i * 13) % 5_000),
                Value::Int(i % 12),
            ])
        }),
    )
    .unwrap();
}

fn main() {
    let mut db = Database::sim_default(2026);
    load_demo(&mut db);
    println!("eram interactive shell — simulated SUN 3/60; type `help` for commands");

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("eram> ");
        std::io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        match dispatch(&mut db, input) {
            Ok(true) => break,
            Ok(false) => {}
            Err(msg) => println!("error: {msg}"),
        }
    }
}

/// Returns Ok(true) to quit.
fn dispatch(db: &mut Database, input: &str) -> Result<bool, String> {
    if input == "quit" || input == "exit" {
        return Ok(true);
    }
    if input == "help" {
        println!("  count <expr> within <seconds>   estimate COUNT under a time quota");
        println!("  exact <expr>                    exact COUNT (no quota)");
        println!("  relations                       list loaded relations");
        println!("  quit");
        return Ok(false);
    }
    if input == "relations" {
        for name in db.catalog().names() {
            let r = db.catalog().relation(name).expect("stored");
            println!(
                "  {name}: {} tuples, {} blocks",
                r.num_tuples(),
                r.num_blocks()
            );
        }
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("exact ") {
        let expr = parse_expr(rest.trim()).map_err(|e| e.to_string())?;
        let n = db.exact_count(&expr).map_err(|e| e.to_string())?;
        println!("  exact COUNT = {n}");
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("count ") {
        let (expr_text, quota_text) = rest
            .rsplit_once(" within ")
            .ok_or("usage: count <expr> within <seconds>")?;
        let expr = parse_expr(expr_text.trim()).map_err(|e| e.to_string())?;
        let secs: f64 = quota_text
            .trim()
            .parse()
            .map_err(|_| "quota must be a number of seconds")?;
        // `from_secs_f64` panics on negative, NaN and out-of-range.
        let quota = Duration::try_from_secs_f64(secs)
            .map_err(|_| "quota must be a non-negative number of seconds")?;
        let out = db
            .count(expr)
            .within(quota)
            .run()
            .map_err(|e| e.to_string())?;
        let (lo, hi) = out.estimate.ci(0.95);
        println!(
            "  ≈ {:.0}   (95% CI [{lo:.0}, {hi:.0}])",
            out.estimate.estimate
        );
        println!(
            "  {} stages, {} blocks, {:.1}% of the {secs} s quota used, sampled {:.2}% of the point space",
            out.report.completed_stages(),
            out.report.blocks_evaluated(),
            100.0 * out.report.utilization(),
            100.0 * out.estimate.sampling_fraction(),
        );
        return Ok(false);
    }
    Err(format!("unknown command {input:?}; try `help`"))
}
