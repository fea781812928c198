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
//! A join run's keys are one flat column, `width` values per tuple,
//! gathered into one buffer. [`sort_run`] sorts an index permutation
//! by those keys and then moves the tuples and the keys into place,
//! so a run's sort clones no tuple and, for keys without strings,
//! makes no heap object per tuple.
//!
//! `merge_reference` (test-only) keeps the original
//! extract-per-comparison algorithm as the property-test oracle: both
//! merges must agree tuple for tuple on any pair of key-sorted runs.
//!
//! Everything here is pure CPU — no clock, no tracer, no deadline —
//! so a merge moves no simulated tick; the executor charges its
//! comparisons separately.

use std::sync::Arc;

use eram_storage::{Tuple, Value};

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
    /// Extracts one tuple's key as a tuple of its own: the test
    /// oracle's key.
    #[cfg(test)]
    fn extract(&self, t: &Tuple) -> Tuple {
        match self {
            KeySpec::Columns(cols) => t.project(cols),
            KeySpec::Whole => t.clone(),
        }
    }

    /// Builds the key column of `tuples` in their present order.
    /// [`sort_run`] starts from it; on its own it keys sub-two-tuple
    /// runs and degraded reads, where a run's surviving subsequence
    /// no longer aligns with the column computed at ingest.
    pub fn column_for(&self, tuples: &[Tuple]) -> KeyColumn {
        match self {
            KeySpec::Whole => KeyColumn::Whole,
            KeySpec::Columns(cols) => {
                let mut keys = Vec::with_capacity(tuples.len() * cols.len());
                for t in tuples {
                    keys.extend(cols.iter().map(|&c| t.value(c).clone()));
                }
                KeyColumn::Extracted {
                    width: cols.len(),
                    keys: keys.into(),
                }
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
    /// `width` key values per tuple, flat and in tuple order (join
    /// runs): tuple `i`'s key is `keys[i·width .. (i+1)·width]`.
    Extracted {
        /// Key values per tuple (zero for a cross product).
        width: usize,
        /// Every tuple's key, one after another.
        keys: Arc<[Value]>,
    },
}

impl KeyColumn {
    /// The key of tuple `i`, as a borrowed value slice.
    #[inline]
    pub fn key_at<'a>(&'a self, tuples: &'a [Tuple], i: usize) -> &'a [Value] {
        match self {
            KeyColumn::Whole => tuples[i].values(),
            KeyColumn::Extracted { width, keys } => &keys[i * width..(i + 1) * width],
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
/// produces, without re-extracting the key at every comparison. A
/// join run's keys are cloned out of their tuples once, into one
/// flat column; a stable sort of tuple indices by key gives the
/// order, and the tuples and keys are then moved into it, so no
/// tuple is cloned and, unless a key holds a string, no heap object
/// is made per tuple.
pub fn sort_run(tuples: &mut [Tuple], spec: &KeySpec) -> KeyColumn {
    let mut column = spec.column_for(tuples);
    let KeyColumn::Extracted { width, keys } = &mut column else {
        // The whole tuple is the key: equal keys are identical
        // tuples, so a plain stable sort is key order.
        tuples.sort();
        return column;
    };
    let width = *width;
    let keys = Arc::get_mut(keys).expect("a column just built is unshared");
    let mut order: Vec<usize> = (0..tuples.len()).collect();
    if width == 1 {
        // A one-column key, as every equi-join on one attribute has,
        // compares values rather than one-value slices, which takes
        // about 40 % off the sort.
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    } else {
        let key = |i: usize| &keys[i * width..(i + 1) * width];
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
    }
    // Position `i` takes what stood at `order[i]`: follow each cycle
    // of the permutation with swaps, marking a placed position as its
    // own source.
    for start in 0..order.len() {
        let mut at = start;
        while order[at] != start {
            let from = std::mem::replace(&mut order[at], at);
            tuples.swap(at, from);
            for c in 0..width {
                keys.swap(at * width + c, from * width + c);
            }
            at = from;
        }
        order[at] = at;
    }
    column
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
/// CPU — touches neither the clock, the tracer, nor the deadline;
/// the caller charges comparisons and records cost observations
/// beforehand.
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
    /// zero-, single- and multi-column keys over Int, Float and Str
    /// columns, duplicate-heavy groups, and empty runs.
    mod equivalence {
        use testkit::prelude::*;

        use super::super::*;

        /// Columns of a drawn row: Int, Float, Str, Int.
        const COLS: usize = 4;

        /// Floats that `total_cmp` orders apart although they look
        /// alike or compare unordered: both zeros, both NaNs and both
        /// infinities.
        fn floats() -> Vec<f64> {
            vec![
                -0.0,
                0.0,
                1.5,
                -2.5,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]
        }

        /// Strings of varying length, prefixes of one another included.
        fn strs() -> Vec<String> {
            ["", "a", "ab", "abc", "b", "zzzzzzzz"]
                .map(String::from)
                .to_vec()
        }

        fn tuple(vals: Vec<i64>) -> Tuple {
            Tuple::new(vals.into_iter().map(Value::Int).collect())
        }

        /// Runs drawn from a tiny value domain per column so equal-key
        /// groups (and fully equal tuples) are common — the regime
        /// where the group-end scans do the most work.
        fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
            let row = (
                -3i64..4,
                prop::sample::select(floats()),
                prop::sample::select(strs()),
                -1i64..2,
            )
                .prop_map(|(a, f, s, b)| {
                    Tuple::new(vec![
                        Value::Int(a),
                        Value::Float(f),
                        Value::Str(s),
                        Value::Int(b),
                    ])
                });
            prop::collection::vec(row, 0..max_len)
        }

        /// Column indices in arbitrary order, repeats allowed; none at
        /// all is the zero-width key of a cross product.
        fn arb_key_cols() -> impl Strategy<Value = Vec<usize>> {
            prop::collection::vec(0..COLS, 0..=COLS)
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
            fn column_for_agrees_on_any_subsequence(
                tuples in arb_run(64),
                cols in arb_key_cols(),
                keep in prop::collection::vec(any::<bool>(), 64),
            ) {
                let spec = KeySpec::Columns(cols);
                let mut sorted = tuples;
                sort_run(&mut sorted, &spec);
                let survived: Vec<Tuple> = sorted
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(t, k)| k.then_some(t))
                    .collect();
                let keys = spec.column_for(&survived);
                for (i, t) in survived.iter().enumerate() {
                    let expected = spec.extract(t);
                    prop_assert_eq!(keys.key_at(&survived, i), expected.values());
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
