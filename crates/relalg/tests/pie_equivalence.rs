//! Property test: the inclusion–exclusion rewrite preserves COUNT.
//!
//! For random relation instances and random expressions mixing
//! select/union/difference/intersect (with joins and projections
//! checked in targeted cases), the signed sum of exact term counts
//! must equal the exact count of the original expression.

use std::sync::Arc;

use testkit::prelude::*;

use eram_relalg::{eval, Catalog, CmpOp, Expr, PieRewrite, Predicate};
use eram_storage::{ColumnType, DeviceProfile, Disk, HeapFile, Schema, SimClock, Tuple, Value};

fn tup(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Value::Int(a), Value::Int(b)])
}

/// Loads three arity-2 relations from row lists.
fn catalog(rows: [&[(i64, i64)]; 3]) -> Catalog {
    let disk = Disk::new(
        Arc::new(SimClock::new()),
        DeviceProfile::sun_3_60().without_jitter(),
        0,
    );
    let mut c = Catalog::new();
    for (name, data) in ["a", "b", "c"].iter().zip(rows) {
        let schema = Schema::new(vec![("x", ColumnType::Int), ("y", ColumnType::Int)]);
        let hf =
            HeapFile::load(disk.clone(), schema, data.iter().map(|&(a, b)| tup(a, b))).unwrap();
        c.register(*name, hf);
    }
    c
}

/// Signed sum of exact counts of the rewrite terms.
fn pie_count(expr: &Expr, cat: &Catalog) -> i64 {
    let rewrite = PieRewrite::rewrite(expr).unwrap();
    rewrite
        .terms
        .iter()
        .map(|t| {
            assert!(
                !t.expr.contains_union_or_difference(),
                "term must be union/difference-free: {}",
                t.expr
            );
            t.coefficient * eval::exact_count(&t.expr, cat).unwrap() as i64
        })
        .sum()
}

/// Random arity-preserving expressions over relations a/b/c.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::relation("a")),
        Just(Expr::relation("b")),
        Just(Expr::relation("c")),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.difference(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.intersect(r)),
            (inner.clone(), 0usize..2, -2i64..6)
                .prop_map(|(e, col, k)| e.select(Predicate::col_cmp(col, CmpOp::Le, k))),
            (inner, 0usize..2, -2i64..6).prop_map(|(e, col, k)| e.select(Predicate::col_cmp(
                col,
                CmpOp::Eq,
                k
            ))),
        ]
    })
}

/// Random small relation contents over a tight value domain, so that
/// unions/differences/intersections genuinely overlap.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..5, 0i64..5), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pie_rewrite_preserves_exact_count(
        ra in arb_rows(),
        rb in arb_rows(),
        rc in arb_rows(),
        expr in arb_expr(),
    ) {
        let cat = catalog([&ra, &rb, &rc]);
        let exact = eval::exact_count(&expr, &cat).unwrap() as i64;
        prop_assert_eq!(pie_count(&expr, &cat), exact);
    }

    #[test]
    fn rewrite_of_join_over_set_ops_preserves_count(
        ra in arb_rows(),
        rb in arb_rows(),
        rc in arb_rows(),
    ) {
        // (a ∪ b) ⋈ c and (a − b) ⋈ c on the first column.
        let cat = catalog([&ra, &rb, &rc]);
        for expr in [
            Expr::relation("a")
                .union(Expr::relation("b"))
                .join(Expr::relation("c"), vec![(0, 0)]),
            Expr::relation("a")
                .difference(Expr::relation("b"))
                .join(Expr::relation("c"), vec![(0, 0)]),
        ] {
            let exact = eval::exact_count(&expr, &cat).unwrap() as i64;
            prop_assert_eq!(pie_count(&expr, &cat), exact);
        }
    }

    #[test]
    fn rewrite_of_projection_over_union_preserves_count(
        ra in arb_rows(),
        rb in arb_rows(),
    ) {
        let cat = catalog([&ra, &rb, &[]]);
        let expr = Expr::relation("a").union(Expr::relation("b")).project(vec![1]);
        let exact = eval::exact_count(&expr, &cat).unwrap() as i64;
        prop_assert_eq!(pie_count(&expr, &cat), exact);
    }
}
