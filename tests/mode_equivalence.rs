//! Property tests: evaluation modes agree where they must.
//!
//! * Full fulfillment drained to a census finds *exactly* the true
//!   count, whatever the stage schedule.
//! * Partial fulfillment covers a subset of full fulfillment's
//!   points, and a single full-relation stage makes them equal.

use std::sync::Arc;

use testkit::prelude::*;

use eram_core::ops::{Fulfillment, PhysTree, StageEnv};
use eram_core::EngineConfig;
use eram_relalg::{eval, Catalog, CmpOp, Expr, Predicate};
use eram_storage::{
    ColumnType, DeviceProfile, Disk, HeapFile, Rng, Schema, SimClock, Tuple, Value,
};

fn setup(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> (Arc<Disk>, Catalog) {
    let disk = Disk::new(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60().without_jitter(),
        3,
    );
    let mut cat = Catalog::new();
    for (name, rows) in [("a", rows_a), ("b", rows_b)] {
        let schema =
            Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]).padded_to(100);
        let hf = HeapFile::load(
            disk.clone(),
            schema,
            rows.iter()
                .map(|&(x, y)| Tuple::new(vec![Value::Int(x), Value::Int(y)])),
        )
        .unwrap();
        cat.register(name, hf);
    }
    (disk, cat)
}

/// Distinct tuples only: the paper models relations as *sets* ("a
/// relation instance I with |r| tuples is modeled as a set"), and the
/// engine trusts that — duplicates would make the physical count a
/// multiset count while the exact evaluator dedups.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(0i64..6, 1..60).prop_map(|ys| {
        ys.into_iter()
            .enumerate()
            .map(|(i, y)| (i as i64, y))
            .collect()
    })
}

fn arb_sji() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..6).prop_map(|k| Expr::relation("a").select(Predicate::col_cmp(1, CmpOp::Lt, k))),
        Just(Expr::relation("a").intersect(Expr::relation("b"))),
        Just(Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)])),
        (0i64..6).prop_map(|k| {
            Expr::relation("a")
                .select(Predicate::col_cmp(1, CmpOp::Ge, k))
                .intersect(Expr::relation("b"))
        }),
    ]
}

fn drain(
    expr: &Expr,
    disk: &Arc<Disk>,
    cat: &Catalog,
    fulfillment: Fulfillment,
    seed: u64,
    fractions: &[f64],
) -> PhysTree {
    let config = EngineConfig {
        fulfillment,
        ..EngineConfig::default()
    };
    let mut tree =
        PhysTree::build(expr, cat, disk, &config, &mut Rng::seed_from_u64(seed)).unwrap();
    let mut i = 0;
    while !tree.exhausted() && i < 64 {
        let f = fractions[i % fractions.len()];
        let mut env = StageEnv::new(disk.clone(), &config, None, f);
        tree.advance(&mut env).unwrap();
        i += 1;
    }
    assert!(tree.exhausted(), "drain did not converge");
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_fulfillment_census_is_exact(
        rows_a in arb_rows(),
        rows_b in arb_rows(),
        expr in arb_sji(),
        seed in 0u64..1000,
        f1 in 0.05f64..0.9,
        f2 in 0.05f64..0.9,
    ) {
        let (disk, cat) = setup(&rows_a, &rows_b);
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64;
        let tree = drain(
            &expr,
            &disk,
            &cat,
            Fulfillment::Full,
            seed,
            &[f1, f2],
        );
        prop_assert_eq!(tree.ones_found(), truth, "{}", expr);
        prop_assert_eq!(tree.points_covered(), tree.total_points());
    }

    #[test]
    fn partial_is_a_subset_and_single_stage_is_census(
        rows_a in arb_rows(),
        rows_b in arb_rows(),
        seed in 0u64..1000,
    ) {
        let expr = Expr::relation("a").intersect(Expr::relation("b"));
        let (disk, cat) = setup(&rows_a, &rows_b);
        let truth = eval::exact_count(&expr, &cat).unwrap() as f64;

        // Multi-stage partial covers no more than multi-stage full.
        let full = drain(
            &expr, &disk, &cat,
            Fulfillment::Full,
            seed, &[0.4],
        );
        let partial = drain(
            &expr, &disk, &cat,
            Fulfillment::Partial,
            seed, &[0.4],
        );
        prop_assert!(partial.points_covered() <= full.points_covered());
        prop_assert!(partial.ones_found() <= full.ones_found() + 1e-9);

        // One full-relation stage: partial == census too.
        let partial_one = drain(
            &expr, &disk, &cat,
            Fulfillment::Partial,
            seed, &[1.0],
        );
        prop_assert_eq!(partial_one.ones_found(), truth);
    }
}
