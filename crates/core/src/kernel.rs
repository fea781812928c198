//! Allocation-free merge/sort kernels for the binary-operator hot
//! path.
//!
//! Under full fulfillment every stage merges its new sorted runs
//! against *all* prior runs of the other side (Figure 4.5's pair
//! grid), so the per-tuple cost of key extraction and group scanning
//! dominates the engine's wall-clock time — exactly the `run_merge`
//! phase the flight recorder attributes. The kernels here apply a
//! Schwartzian transform: join/intersect keys are extracted **once
//! per tuple** when a run is sorted ([`sort_run`]) and stored
//! alongside the run as a [`KeyColumn`]; [`merge_keyed`] then
//! compares precomputed keys by index, so neither the merge head nor
//! the group-end scans ever allocate a key.
//!
//! `merge_reference` (test-only) keeps the original
//! extract-per-comparison algorithm as the property-test oracle: both
//! merges must agree tuple for tuple on any pair of key-sorted runs.
//!
//! Everything here is pure CPU — no clock, no tracer, no deadline —
//! which is what lets the executor fan pair merges across worker
//! threads without moving a single simulated tick.

use std::sync::Arc;

use eram_storage::{ColumnarBlock, Tuple, Value};

/// How merge keys are derived from a run's tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySpec {
    /// The key is a projection of the given columns (one side of a
    /// join's `on` pairs).
    Columns(Vec<usize>),
    /// The whole tuple is its own key (intersection, distinct sort).
    Whole,
}

impl KeySpec {
    /// Extracts one tuple's key. Allocates — used when building key
    /// columns and by the test oracle, never in the keyed inner
    /// loops.
    pub fn extract(&self, t: &Tuple) -> Tuple {
        match self {
            KeySpec::Columns(cols) => t.project(cols),
            KeySpec::Whole => t.clone(),
        }
    }

    /// Builds the key column for tuples that are already in key
    /// order. Used for sub-two-tuple runs and for degraded reads,
    /// where a run's surviving subsequence no longer aligns with the
    /// column computed at ingest.
    pub fn column_for(&self, tuples: &[Tuple]) -> KeyColumn {
        match self {
            KeySpec::Whole => KeyColumn::Whole,
            KeySpec::Columns(cols) => {
                KeyColumn::Extracted(tuples.iter().map(|t| t.project(cols)).collect())
            }
        }
    }

    /// Builds the key column for a columnar block's records (in
    /// record order) by reading the key columns' typed arrays
    /// directly — no intermediate row tuples are materialized, only
    /// the key tuples themselves.
    ///
    /// Must agree with `column_for(&block.to_tuples())` key for key;
    /// the kernel equivalence suite compares the two.
    pub fn column_for_columnar(&self, block: &ColumnarBlock) -> KeyColumn {
        match self {
            KeySpec::Whole => KeyColumn::Whole,
            KeySpec::Columns(_) => KeyColumn::Extracted(
                self.extract_columnar(block)
                    .expect("a Columns spec extracts keys")
                    .into(),
            ),
        }
    }

    /// [`KeySpec::column_for_columnar`]'s owned form: the key tuples
    /// in record order, ready for [`sort_run_with_keys`] without a
    /// per-key clone out of a shared column. `None` for
    /// [`KeySpec::Whole`], which has no extracted keys.
    pub fn extract_columnar(&self, block: &ColumnarBlock) -> Option<Vec<Tuple>> {
        match self {
            KeySpec::Whole => None,
            KeySpec::Columns(cols) => {
                let key_cols: Vec<_> = cols.iter().map(|&c| block.column(c)).collect();
                Some(
                    (0..block.len())
                        .map(|row| Tuple::new(key_cols.iter().map(|c| c.value(row)).collect()))
                        .collect(),
                )
            }
        }
    }
}

/// A run's precomputed merge keys, aligned index-for-index with its
/// tuples. Cloning is cheap (at most an `Arc` bump), so every staged
/// pair merge shares one column per run.
#[derive(Debug, Clone)]
pub enum KeyColumn {
    /// The tuples are their own keys: compare in place, zero extra
    /// memory (intersection runs).
    Whole,
    /// One extracted key per tuple (join runs).
    Extracted(Arc<[Tuple]>),
}

impl KeyColumn {
    /// The key of tuple `i`, as a borrowed value slice.
    #[inline]
    pub fn key_at<'a>(&'a self, tuples: &'a [Tuple], i: usize) -> &'a [Value] {
        match self {
            KeyColumn::Whole => tuples[i].values(),
            KeyColumn::Extracted(keys) => keys[i].values(),
        }
    }
}

/// Which binary operator a merge implements. Only emit semantics:
/// the keys are already materialized in the [`KeyColumn`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Equal-key groups emit the concatenated cross product.
    Join,
    /// Equal-key groups emit the left tuple once per pair (inputs
    /// are sets, so groups are singletons).
    Intersect,
}

/// Sorts a run in place by its merge key and returns the key column,
/// extracting each key exactly once (Schwartzian transform).
///
/// The sort is stable in the original order of equal-key tuples —
/// exactly the order `sort_by_key` with an extracting closure
/// produces, without re-extracting the key at every comparison.
pub fn sort_run(tuples: &mut Vec<Tuple>, spec: &KeySpec) -> KeyColumn {
    match spec {
        KeySpec::Whole => {
            // The whole tuple is the key: equal keys are identical
            // tuples, so a plain stable sort is key order.
            tuples.sort();
            KeyColumn::Whole
        }
        KeySpec::Columns(cols) => {
            let mut pairs: Vec<(Tuple, Tuple)> = std::mem::take(tuples)
                .into_iter()
                .map(|t| (t.project(cols), t))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let mut keys = Vec::with_capacity(pairs.len());
            tuples.reserve(pairs.len());
            for (k, t) in pairs {
                keys.push(k);
                tuples.push(t);
            }
            KeyColumn::Extracted(keys.into())
        }
    }
}

/// [`sort_run`] for callers that already hold the merge keys — e.g.
/// keys extracted straight from a columnar block without ever
/// materializing row tuples. `keys[i]` must equal what the column
/// spec would project from `tuples[i]`; given that, the stable
/// pair-sort below produces exactly the order (and key column)
/// `sort_run` with a [`KeySpec::Columns`] spec would.
pub fn sort_run_with_keys(tuples: &mut Vec<Tuple>, keys: Vec<Tuple>) -> KeyColumn {
    debug_assert_eq!(keys.len(), tuples.len());
    let mut pairs: Vec<(Tuple, Tuple)> = keys.into_iter().zip(std::mem::take(tuples)).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut keys = Vec::with_capacity(pairs.len());
    tuples.reserve(pairs.len());
    for (k, t) in pairs {
        keys.push(k);
        tuples.push(t);
    }
    KeyColumn::Extracted(keys.into())
}

/// End (exclusive) of the equal-key group starting at `i`.
#[inline]
fn group_end(tuples: &[Tuple], keys: &KeyColumn, i: usize) -> usize {
    let k = keys.key_at(tuples, i);
    (i + 1..tuples.len())
        .find(|&x| keys.key_at(tuples, x) != k)
        .unwrap_or(tuples.len())
}

/// Merges two key-sorted runs using their precomputed key columns,
/// returning the matches in left-major group order.
///
/// The inner loop is allocation-free: the merge head and both
/// group-end scans compare borrowed key slices by index, and the
/// output is reserved from each group product before emitting. Pure
/// CPU — touches neither the clock, the tracer, nor the deadline —
/// so pair merges may run on worker threads; the caller charges
/// comparisons and records cost observations serially beforehand.
pub fn merge_keyed(
    kind: MergeKind,
    lt: &[Tuple],
    lk: &KeyColumn,
    rt: &[Tuple],
    rk: &KeyColumn,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        match lk.key_at(lt, i).cmp(rk.key_at(rt, j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = group_end(lt, lk, i);
                let j_end = group_end(rt, rk, j);
                emit(kind, &lt[i..i_end], &rt[j..j_end], &mut out);
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

/// Output tuples for one equal-key group pair, pre-sized from the
/// group product.
fn emit(kind: MergeKind, left: &[Tuple], right: &[Tuple], out: &mut Vec<Tuple>) {
    out.reserve(left.len() * right.len());
    match kind {
        MergeKind::Join => {
            for l in left {
                for r in right {
                    out.push(l.concat(r));
                }
            }
        }
        MergeKind::Intersect => {
            for l in left {
                for _ in right {
                    out.push(l.clone());
                }
            }
        }
    }
}

/// The original merge algorithm: extracts (allocates) both keys at
/// every comparison step, including once per probed tuple in the
/// group-end scans — quadratic key extractions on wide equal-key
/// groups. Kept as the property-test oracle for [`merge_keyed`].
#[cfg(test)]
fn merge_reference(
    kind: MergeKind,
    lspec: &KeySpec,
    rspec: &KeySpec,
    lt: &[Tuple],
    rt: &[Tuple],
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        let lkey = lspec.extract(&lt[i]);
        let rkey = rspec.extract(&rt[j]);
        match lkey.cmp(&rkey) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = (i..lt.len())
                    .find(|&x| lspec.extract(&lt[x]) != lkey)
                    .unwrap_or(lt.len());
                let j_end = (j..rt.len())
                    .find(|&x| rspec.extract(&rt[x]) != rkey)
                    .unwrap_or(rt.len());
                match kind {
                    MergeKind::Join => {
                        for l in &lt[i..i_end] {
                            for r in &rt[j..j_end] {
                                out.push(l.concat(r));
                            }
                        }
                    }
                    MergeKind::Intersect => {
                        for l in &lt[i..i_end] {
                            for _ in j..j_end {
                                out.push(l.clone());
                            }
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn sort_run_matches_sort_by_key_and_aligns_keys() {
        let spec = KeySpec::Columns(vec![1, 0]);
        let mut tuples: Vec<Tuple> = (0..40).map(|i| t(&[i % 3, i % 5, i])).collect();
        let mut reference = tuples.clone();
        reference.sort_by_key(|x| spec.extract(x));

        let keys = sort_run(&mut tuples, &spec);
        assert_eq!(tuples, reference, "stable key order preserved");
        for (i, tuple) in tuples.iter().enumerate() {
            assert_eq!(
                keys.key_at(&tuples, i),
                spec.extract(tuple).values(),
                "key column misaligned at {i}"
            );
        }
    }

    #[test]
    fn sort_run_with_keys_matches_sort_run_exactly() {
        let spec = KeySpec::Columns(vec![1, 0]);
        let mut via_spec: Vec<Tuple> = (0..40).map(|i| t(&[i % 3, i % 5, i])).collect();
        let mut via_keys = via_spec.clone();
        let prekeys: Vec<Tuple> = via_keys.iter().map(|x| spec.extract(x)).collect();

        let k_spec = sort_run(&mut via_spec, &spec);
        let k_keys = sort_run_with_keys(&mut via_keys, prekeys);
        assert_eq!(via_keys, via_spec, "tuple order diverged");
        for i in 0..via_spec.len() {
            assert_eq!(
                k_keys.key_at(&via_keys, i),
                k_spec.key_at(&via_spec, i),
                "key column diverged at {i}"
            );
        }
    }

    #[test]
    fn whole_spec_sorts_in_place_with_zero_extra_memory() {
        let mut tuples: Vec<Tuple> = (0..20).rev().map(|i| t(&[i, i % 4])).collect();
        let mut reference = tuples.clone();
        reference.sort_by_key(|x| x.values().to_vec());
        let keys = sort_run(&mut tuples, &KeySpec::Whole);
        assert_eq!(tuples, reference);
        assert!(matches!(keys, KeyColumn::Whole));
        assert_eq!(keys.key_at(&tuples, 3), tuples[3].values());
    }

    #[test]
    fn keyed_join_matches_reference_on_duplicate_heavy_groups() {
        let lspec = KeySpec::Columns(vec![0]);
        let rspec = KeySpec::Columns(vec![0]);
        let mut lt: Vec<Tuple> = (0..30).map(|i| t(&[i % 4, i])).collect();
        let mut rt: Vec<Tuple> = (0..24).map(|i| t(&[i % 4, -i])).collect();
        let lk = sort_run(&mut lt, &lspec);
        let rk = sort_run(&mut rt, &rspec);
        let keyed = merge_keyed(MergeKind::Join, &lt, &lk, &rt, &rk);
        let reference = merge_reference(MergeKind::Join, &lspec, &rspec, &lt, &rt);
        // 30 left tuples over 4 keys → groups of 8, 8, 7, 7; each
        // joins the 6 right tuples of its key.
        assert_eq!(keyed.len(), (8 + 8 + 7 + 7) * 6);
        assert_eq!(keyed, reference);
    }

    #[test]
    fn keyed_intersect_matches_reference() {
        let mut lt: Vec<Tuple> = (0..15).map(|i| t(&[i, 0])).collect();
        let mut rt: Vec<Tuple> = (10..25).map(|i| t(&[i, 0])).collect();
        let lk = sort_run(&mut lt, &KeySpec::Whole);
        let rk = sort_run(&mut rt, &KeySpec::Whole);
        let keyed = merge_keyed(MergeKind::Intersect, &lt, &lk, &rt, &rk);
        let reference = merge_reference(
            MergeKind::Intersect,
            &KeySpec::Whole,
            &KeySpec::Whole,
            &lt,
            &rt,
        );
        assert_eq!(keyed.len(), 5);
        assert_eq!(keyed, reference);
    }

    #[test]
    fn empty_runs_merge_to_empty() {
        let lk = KeyColumn::Whole;
        assert!(merge_keyed(MergeKind::Join, &[], &lk, &[], &KeyColumn::Whole).is_empty());
        let mut rt = vec![t(&[1, 2])];
        let rk = sort_run(&mut rt, &KeySpec::Columns(vec![0]));
        assert!(merge_keyed(MergeKind::Join, &[], &lk, &rt, &rk).is_empty());
    }

    #[test]
    fn column_for_columnar_matches_row_extraction() {
        use eram_storage::{ColumnType, Schema};
        let schema = Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ]);
        let tuples: Vec<Tuple> = (0..20).map(|i| t(&[i % 3, i, i % 7])).collect();
        let block = ColumnarBlock::from_tuples(&schema, &tuples).unwrap();
        for spec in [
            KeySpec::Columns(vec![0]),
            KeySpec::Columns(vec![2, 0]),
            KeySpec::Whole,
        ] {
            let from_cols = spec.column_for_columnar(&block);
            for (i, tuple) in tuples.iter().enumerate() {
                assert_eq!(
                    from_cols.key_at(&tuples, i),
                    spec.extract(tuple).values(),
                    "columnar key misaligned at {i} for {spec:?}"
                );
            }
        }
    }

    #[test]
    fn column_for_rebuilds_keys_for_a_subsequence() {
        let spec = KeySpec::Columns(vec![1]);
        let mut tuples: Vec<Tuple> = (0..12).map(|i| t(&[i, i % 3])).collect();
        let _ = sort_run(&mut tuples, &spec);
        // A degraded read drops a slice of the run; the rebuilt
        // column must align with the surviving subsequence.
        let survived: Vec<Tuple> = tuples
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, x)| x.clone())
            .collect();
        let keys = spec.column_for(&survived);
        for (i, tuple) in survived.iter().enumerate() {
            assert_eq!(keys.key_at(&survived, i), spec.extract(tuple).values());
        }
    }

    /// Property suite pinning the keyed merge kernels to the naive
    /// reference algorithm: [`sort_run`] + [`merge_keyed`] over
    /// precomputed [`KeyColumn`]s must agree with [`merge_reference`]
    /// **tuple for tuple** on arbitrary runs — join and intersect,
    /// single- and multi-column keys, duplicate-heavy groups, and
    /// empty runs.
    mod equivalence {
        use testkit::prelude::*;

        use super::super::*;

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
    }
}
