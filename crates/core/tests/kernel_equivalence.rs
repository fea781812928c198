//! Property suite pinning the keyed merge kernels to the naive
//! reference algorithm.
//!
//! [`merge_reference`] is the engine's original
//! extract-per-comparison merge, kept verbatim as an oracle. The
//! overhauled hot path — [`sort_run`] + [`merge_keyed`] over
//! precomputed [`KeyColumn`]s — must agree with it **tuple for
//! tuple** on arbitrary runs: join and intersect, single- and
//! multi-column keys, duplicate-heavy groups, and empty runs.

use testkit::prelude::*;

use eram_core::{merge_keyed, merge_reference, sort_run, KeySpec, MergeKind};
use eram_storage::{Tuple, Value};

const COLS: usize = 3;

fn tuple(vals: Vec<i64>) -> Tuple {
    Tuple::new(vals.into_iter().map(Value::Int).collect())
}

/// Runs drawn from a tiny value domain so equal-key groups (and fully
/// equal tuples) are common — the regime where the group-end scans do
/// the most work.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(prop::collection::vec(-3i64..4, COLS), 0..max_len)
        .prop_map(|rows| rows.into_iter().map(tuple).collect())
}

/// A non-empty subset of the column indices, in arbitrary order
/// (multi-column keys included).
fn arb_key_cols() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..COLS, 1..=COLS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_join_matches_reference(
        mut lt in arb_run(64),
        mut rt in arb_run(64),
        lcols in arb_key_cols(),
        rcols in arb_key_cols(),
    ) {
        // Join key arity must match across sides.
        let arity = lcols.len().min(rcols.len());
        let lspec = KeySpec::Columns(lcols[..arity].to_vec());
        let rspec = KeySpec::Columns(rcols[..arity].to_vec());
        let lk = sort_run(&mut lt, &lspec);
        let rk = sort_run(&mut rt, &rspec);
        let keyed = merge_keyed(MergeKind::Join, &lt, &lk, &rt, &rk);
        let reference = merge_reference(MergeKind::Join, &lspec, &rspec, &lt, &rt);
        prop_assert_eq!(keyed, reference);
    }

    #[test]
    fn keyed_intersect_matches_reference(
        mut lt in arb_run(64),
        mut rt in arb_run(64),
    ) {
        let lk = sort_run(&mut lt, &KeySpec::Whole);
        let rk = sort_run(&mut rt, &KeySpec::Whole);
        let keyed = merge_keyed(MergeKind::Intersect, &lt, &lk, &rt, &rk);
        let reference =
            merge_reference(MergeKind::Intersect, &KeySpec::Whole, &KeySpec::Whole, &lt, &rt);
        prop_assert_eq!(keyed, reference);
    }

    #[test]
    fn sort_run_matches_sort_by_key(
        tuples in arb_run(64),
        cols in arb_key_cols(),
    ) {
        let spec = KeySpec::Columns(cols);
        let mut reference = tuples.clone();
        reference.sort_by_key(|t| spec.extract(t));

        let mut sorted = tuples;
        let keys = sort_run(&mut sorted, &spec);
        prop_assert_eq!(&sorted, &reference, "stable key order must be preserved");
        for (i, t) in sorted.iter().enumerate() {
            let expected = spec.extract(t);
            prop_assert_eq!(
                keys.key_at(&sorted, i),
                expected.values(),
                "key column misaligned at {}", i
            );
        }
    }

    #[test]
    fn whole_key_sort_matches_sort_by_key(tuples in arb_run(64)) {
        let mut reference = tuples.clone();
        reference.sort_by_key(|t| t.values().to_vec());
        let mut sorted = tuples;
        sort_run(&mut sorted, &KeySpec::Whole);
        prop_assert_eq!(sorted, reference);
    }
}

#[test]
fn empty_runs_are_a_fixed_point() {
    let spec = KeySpec::Columns(vec![0]);
    let mut empty: Vec<Tuple> = Vec::new();
    let ek = sort_run(&mut empty, &spec);
    let mut run = vec![tuple(vec![1, 2, 3])];
    let rk = sort_run(&mut run, &spec);
    for kind in [MergeKind::Join, MergeKind::Intersect] {
        assert!(merge_keyed(kind, &empty, &ek, &run, &rk).is_empty());
        assert!(merge_keyed(kind, &run, &rk, &empty, &ek).is_empty());
        assert!(merge_keyed(kind, &empty, &ek, &empty, &ek).is_empty());
    }
}
