//! Side-by-side run of the three time-control strategies of
//! Section 3.3 on one query — the qualitative comparison the paper
//! makes ("the first approach may have a better control of the
//! overall risk ... the second ... much less computation"), made
//! concrete.
//!
//! ```sh
//! cargo run --release --example strategy_shootout
//! ```

use std::sync::Arc;
use std::time::Duration;

use eram_core::{
    Database, EngineConfig, HeuristicStrategy, OneAtATimeInterval, SingleInterval,
    StoppingCriterion, TimeControlStrategy,
};
use eram_relalg::{CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, Schema, Tuple, Value};

fn main() {
    let mut db = Database::sim_default(21);
    let schema =
        Schema::new(vec![("id", ColumnType::Int), ("grade", ColumnType::Int)]).padded_to(200);
    db.load_relation(
        "parts",
        schema,
        (0..10_000).map(|i| Tuple::new(vec![Value::Int(i), Value::Int((i * 613) % 100)])),
    )
    .expect("load parts");

    let defective = Expr::relation("parts").select(Predicate::col_cmp(1, CmpOp::Lt, 25));
    let truth = db.exact_count(&defective).expect("truth");
    println!("true defective count: {truth}   quota: 10 s (soft, to expose overspend)\n");
    println!(
        "{:<26} | {:>6} | {:>9} | {:>12} | {:>6} | {:>8}",
        "strategy", "stages", "blocks", "utilization%", "ovsp", "estimate"
    );
    println!("{}", "-".repeat(82));

    let strategies: Vec<(&str, Arc<dyn TimeControlStrategy>)> = vec![
        (
            "one-at-a-time (d_beta=0)",
            Arc::new(OneAtATimeInterval::new(0.0)),
        ),
        (
            "one-at-a-time (d_beta=24)",
            Arc::new(OneAtATimeInterval::new(24.0)),
        ),
        ("single-interval (d=2)", Arc::new(SingleInterval::new(2.0))),
        (
            "heuristic (half, 1.25x)",
            Arc::new(HeuristicStrategy::new(0.5, 1.25)),
        ),
    ];

    for (name, strategy) in strategies {
        let config = EngineConfig {
            strategy,
            stopping: StoppingCriterion::SoftDeadline,
            ..EngineConfig::default()
        };
        let result = db
            .count(defective.clone())
            .within(Duration::from_secs(10))
            .config(config)
            .seed(0xBEEF)
            .run()
            .expect("count");
        println!(
            "{:<26} | {:>6} | {:>9} | {:>12.1} | {:>6.2?} | {:>8.0}",
            name,
            result.report.completed_stages(),
            result.report.blocks_evaluated(),
            100.0 * result.report.utilization(),
            result.report.overspend(),
            result.estimate.estimate,
        );
    }
    println!(
        "\nRisk-averse settings waste less on aborted work but pay more stage overhead; \
         d_beta=0 bets half the runs on finishing exactly at the wire."
    );
}
