//! Property tests: every expression the AST can represent prints to
//! text that parses back to the identical AST, and goes through JSON
//! and back unchanged.

use testkit::prelude::*;

use eram_relalg::{parse_expr, CmpOp, Expr, Predicate};
use eram_storage::json::{self, FromJson, ToJson};
use eram_storage::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        // Finite floats only: the language has no NaN/inf literals.
        (-100i64..100, 1u32..1000).prop_map(|(m, d)| Value::Float(m as f64 + 1.0 / f64::from(d))),
        any::<bool>().prop_map(Value::Bool),
        "[a-z ]{0,8}".prop_map(Value::Str),
    ]
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let atom = prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0usize..4, arb_cmp(), arb_value()).prop_map(|(c, op, v)| Predicate::col_cmp(c, op, v)),
        (0usize..4, arb_cmp(), 0usize..4).prop_map(|(l, op, r)| Predicate::col_col(l, op, r)),
    ];
    atom.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Predicate::not),
        ]
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    // Relation names must avoid the language's reserved words.
    let leaf = "[a-z][a-z0-9_]{0,6}"
        .prop_filter("not a keyword", |n| {
            !matches!(
                n.as_str(),
                "select"
                    | "project"
                    | "join"
                    | "union"
                    | "minus"
                    | "intersect"
                    | "and"
                    | "or"
                    | "not"
                    | "true"
                    | "false"
            )
        })
        .prop_map(Expr::relation);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), arb_predicate()).prop_map(|(e, p)| e.select(p)),
            (inner.clone(), prop::collection::vec(0usize..4, 1..3))
                .prop_map(|(e, cols)| e.project(cols)),
            (
                inner.clone(),
                inner.clone(),
                prop::collection::vec((0usize..4, 0usize..4), 1..3)
            )
                .prop_map(|(l, r, on)| l.join(r, on)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.union(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.difference(r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.intersect(r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_identity(expr in arb_expr()) {
        let text = expr.to_string();
        let back = parse_expr(&text);
        prop_assert_eq!(back.as_ref(), Ok(&expr), "text was: {}", text);
    }

    #[test]
    fn json_round_trip_is_identity(expr in arb_expr(), pred in arb_predicate()) {
        prop_assert_eq!(Expr::from_json(&expr.to_json()), Ok(expr));
        let text = json::to_string(&pred);
        prop_assert_eq!(json::from_str::<Predicate>(&text), Ok(pred), "{}", text);
    }
}

/// Every `Expr`, `Predicate`, `Operand` and `Value` variant at once,
/// plus the wire shape itself: variants are externally tagged, unit
/// variants bare strings.
#[test]
fn every_variant_round_trips_through_json() {
    let pred = Predicate::col_cmp(0, CmpOp::Le, 1.5)
        .and(Predicate::col_col(1, CmpOp::Ne, 2).not())
        .or(Predicate::col_cmp(2, CmpOp::Eq, "x").and(Predicate::col_cmp(3, CmpOp::Gt, true)))
        .or(Predicate::True.and(Predicate::False));
    let expr = Expr::relation("a")
        .select(pred)
        .project(vec![0, 2])
        .join(Expr::relation("b"), vec![(0, 1), (1, 0)])
        .union(Expr::relation("c").difference(Expr::relation("d")))
        .intersect(Expr::relation("e"));
    let text = json::to_string(&expr);
    assert_eq!(json::from_str::<Expr>(&text), Ok(expr));

    let small = Expr::relation("t").select(Predicate::col_cmp(1, CmpOp::Lt, 50));
    assert_eq!(
        json::to_string(&small),
        r#"{"Select":{"input":{"Relation":"t"},"predicate":{"Compare":{"left":{"Column":1},"op":"Lt","right":{"Const":{"Int":50}}}}}}"#
    );
    assert!(json::from_str::<Expr>(r#"{"Rename":{"input":{"Relation":"t"}}}"#).is_err());
    assert!(json::from_str::<Predicate>(r#"{"Compare":{"left":{"Column":1}}}"#).is_err());
}
