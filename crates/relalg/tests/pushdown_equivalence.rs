//! Property test: selection pushdown preserves the output relation
//! exactly (not just its count) on random data and expressions.

use std::sync::Arc;

use testkit::prelude::*;

use eram_relalg::{eval, push_selections, Catalog, CmpOp, Expr, Predicate};
use eram_storage::{ColumnType, DeviceProfile, Disk, HeapFile, Schema, SimClock, Tuple, Value};

fn catalog(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> Catalog {
    let disk = Disk::new(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60().without_jitter(),
        0,
    );
    let mut cat = Catalog::new();
    for (name, rows) in [("a", rows_a), ("b", rows_b)] {
        let schema = Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]);
        let hf = HeapFile::load(
            disk.clone(),
            schema,
            rows.iter()
                .map(|&(x, y)| Tuple::new(vec![Value::Int(x), Value::Int(y)])),
        )
        .unwrap();
        cat.register(name, hf);
    }
    cat
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(0i64..5, 0..20)
        .prop_map(|ys| {
            ys.into_iter()
                .enumerate()
                .map(|(i, y)| (i as i64 % 7, y))
                .collect::<Vec<_>>()
        })
        .prop_map(|mut v: Vec<(i64, i64)>| {
            v.sort_unstable();
            v.dedup();
            v
        })
}

fn arb_pred(arity: usize) -> impl Strategy<Value = Predicate> {
    let atom = prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0..arity, -1i64..6).prop_map(|(c, k)| Predicate::col_cmp(c, CmpOp::Lt, k)),
        (0..arity, -1i64..6).prop_map(|(c, k)| Predicate::col_cmp(c, CmpOp::Eq, k)),
        (0..arity, 0..arity).prop_map(|(l, r)| Predicate::col_col(l, CmpOp::Le, r)),
    ];
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Predicate::not),
        ]
    })
}

fn arb_shape() -> impl Strategy<Value = (Expr, usize)> {
    // (expression, output arity) pairs to hang selections on.
    prop_oneof![
        Just((Expr::relation("a"), 2)),
        Just((Expr::relation("a").union(Expr::relation("b")), 2)),
        Just((Expr::relation("a").difference(Expr::relation("b")), 2)),
        Just((Expr::relation("a").intersect(Expr::relation("b")), 2)),
        Just((
            Expr::relation("a").join(Expr::relation("b"), vec![(0, 0)]),
            4
        )),
        Just((
            Expr::relation("a")
                .join(Expr::relation("b"), vec![(1, 1)])
                .join(Expr::relation("a"), vec![(0, 0)]),
            6
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn pushdown_preserves_output_relation(
        rows_a in arb_rows(),
        rows_b in arb_rows(),
        (shape, arity) in arb_shape(),
        seed_pred in prop::collection::vec(0u8..1, 1..2), // keep strategy signature simple
    ) {
        let _ = seed_pred;
        let cat = catalog(&rows_a, &rows_b);
        proptest!(|(pred in arb_pred(arity))| {
            let expr = shape.clone().select(pred);
            let pushed = push_selections(expr.clone(), &|_| Some(2));
            let before = eval::eval(&expr, &cat).unwrap();
            let after = eval::eval(&pushed, &cat).unwrap();
            prop_assert_eq!(&before, &after, "expr {} vs pushed {}", expr, pushed);
        });
    }

    #[test]
    fn double_selection_and_nesting(
        rows_a in arb_rows(),
        rows_b in arb_rows(),
    ) {
        let cat = catalog(&rows_a, &rows_b);
        proptest!(|(p in arb_pred(2), q in arb_pred(2))| {
            // σ_p(σ_q(a ∪ b)) fully pushed.
            let expr = Expr::relation("a")
                .union(Expr::relation("b"))
                .select(q)
                .select(p);
            let pushed = push_selections(expr.clone(), &|_| Some(2));
            prop_assert!(!format!("{pushed}").contains("select[true]"), "{pushed}");
            let before = eval::eval(&expr, &cat).unwrap();
            let after = eval::eval(&pushed, &cat).unwrap();
            prop_assert_eq!(before, after);
        });
    }
}
