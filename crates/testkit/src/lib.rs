//! Test support for the ERAM workspace (dev-dependency only).
//!
//! * A deterministic **fixed-seed property runner**: a
//!   [`Strategy`](strategy::Strategy) is a pure seed → value function
//!   and [`proptest!`] runs each property body over a fixed list of
//!   seeds. No shrinking and no random exploration — a failing case
//!   names its case number and reruns identically, which is what a
//!   suite whose other half is byte-identity needs. The surface
//!   (`proptest!`, `prop_oneof!`, `prop_assert*`, `prop_map`,
//!   `collection::vec`, `any`, …) is the one the workspace's property
//!   tests are written against.
//! * [`assert_golden`]: compare-or-bless against a committed file.

#![forbid(unsafe_code)]

use std::path::Path;

/// Cases the closure form of [`proptest!`] runs (a declared block
/// states its own count).
pub const CASES: u32 = 32;

/// Compares `actual` with the committed file at `path` (workspace
/// golden files live under `tests/golden/`).
///
/// A missing or differing golden fails the test. Running with
/// `BLESS=1` instead (re)writes the file — do that only for an
/// intended behaviour change, and commit the diff with it.
///
/// # Panics
/// Panics on a mismatch, on a missing golden without `BLESS=1`, and
/// when the file cannot be written.
pub fn assert_golden(path: &Path, actual: &str) {
    check_golden(path, actual, std::env::var_os("BLESS").is_some());
}

fn check_golden(path: &Path, actual: &str, bless: bool) {
    if bless {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create the golden directory");
        }
        std::fs::write(path, actual).expect("write the golden file");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "golden file {} is unreadable ({e}); run with BLESS=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(old, new)| old != new);
    let detail = match first_diff {
        Some(i) => format!(
            "line {}:\n  golden: {}\n  actual: {}",
            i + 1,
            expected.lines().nth(i).unwrap_or_default(),
            actual.lines().nth(i).unwrap_or_default()
        ),
        None => format!(
            "{} golden vs {} actual lines",
            expected.lines().count(),
            actual.lines().count()
        ),
    };
    panic!(
        "{} drifted from this run's output at {detail}\n\
         (rerun with BLESS=1 and commit the diff if the change is intended)",
        path.display()
    );
}

/// SplitMix64 step: derives the next seed from `state`.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of argument number `arg` (1-based) of case `case`.
#[doc(hidden)]
pub fn arg_seed(case: u64, arg: u32) -> u64 {
    let mut seed = 0x5EED_0000u64.wrapping_add(case.wrapping_mul(0x9E37_79B9));
    for _ in 0..arg {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    seed
}

pub mod test_runner {
    //! What a property body returns and how a block is configured.

    /// What `#![proptest_config(..)]` takes.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Seeds each property of the block runs over.
        pub cases: u32,
    }

    impl Config {
        /// `cases` seeds per property.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    /// A failed `prop_assert!`.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

pub mod strategy {
    //! Value generators and their combinators.

    use std::rc::Rc;

    use super::splitmix;

    /// A deterministic generator: one value per seed.
    pub trait Strategy {
        /// What it generates.
        type Value;

        /// The value for `seed`.
        fn example(&self, seed: u64) -> Self::Value;

        /// Type-erases the strategy (so alternatives can share a `Vec`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |seed| self.example(seed)))
        }

        /// Applies `f` to every generated value.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keeps only values `f` accepts, re-drawing from derived seeds.
        fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, f }
        }

        /// Builds recursive values: `self` is the leaf and `recurse`
        /// wraps a strategy for subtrees into one for a tree; the
        /// nesting depth is `seed % (depth + 1)`.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
        {
            let base = self.boxed();
            BoxedStrategy(Rc::new(move |seed| {
                let levels = seed % (u64::from(depth) + 1);
                let mut strat = base.clone();
                for _ in 0..levels {
                    strat = recurse(strat.clone()).boxed();
                }
                strat.example(splitmix(seed))
            }))
        }
    }

    /// A clonable, type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(u64) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn example(&self, seed: u64) -> T {
            (self.0)(seed)
        }
    }

    /// Always the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn example(&self, _seed: u64) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn example(&self, seed: u64) -> O {
            (self.f)(self.inner.example(seed))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn example(&self, seed: u64) -> S::Value {
            let mut s = seed;
            for _ in 0..10_000 {
                let candidate = self.inner.example(s);
                if (self.f)(&candidate) {
                    return candidate;
                }
                s = splitmix(s);
            }
            panic!("prop_filter rejected 10 000 candidates in a row");
        }
    }

    /// N-way alternation behind `prop_oneof!`.
    pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn example(&self, seed: u64) -> T {
            let pick = (seed % self.0.len() as u64) as usize;
            self.0[pick].example(splitmix(seed))
        }
    }

    /// A string pattern stands for "a short lowercase word": one to
    /// six letters `a`–`z`, which lies inside every character-class
    /// pattern the workspace's tests use (`[a-z_]{1,12}` and the
    /// like). The pattern text itself is not interpreted.
    impl Strategy for &'static str {
        type Value = String;

        fn example(&self, seed: u64) -> String {
            let mut s = splitmix(seed);
            let len = 1 + (s % 6) as usize;
            let mut out = String::with_capacity(len);
            for _ in 0..len {
                s = splitmix(s);
                out.push((b'a' + (s % 26) as u8) as char);
            }
            out
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn example(&self, seed: u64) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    let span = (hi - lo).max(1) as u128;
                    (lo + (seed as u128 % span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn example(&self, seed: u64) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    let span = (hi - lo + 1).max(1) as u128;
                    (lo + (seed as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The unit-interval fraction the float strategies scale.
    fn unit_f64(seed: u64) -> f64 {
        (seed >> 11) as f64 / (1u64 << 53) as f64
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn example(&self, seed: u64) -> f64 {
            self.start + (self.end - self.start) * unit_f64(seed)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn example(&self, seed: u64) -> f64 {
            self.start() + (self.end() - self.start()) * unit_f64(seed)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn example(&self, seed: u64) -> Self::Value {
                    let mut s = seed;
                    ($({
                        s = splitmix(s ^ $idx);
                        self.$idx.example(s)
                    },)+)
                }
            }
        };
    }
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

pub mod arbitrary {
    //! `any::<T>()`.

    use super::splitmix;
    use super::strategy::Strategy;

    /// Types `any` can generate.
    pub trait Arbitrary: Sized {
        /// The value for `seed`.
        fn arbitrary(seed: u64) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(seed: u64) -> Self { seed as $t }
            }
        )*};
    }
    arb_int!(u32, u64, i64);

    impl Arbitrary for bool {
        fn arbitrary(seed: u64) -> Self {
            seed & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(seed: u64) -> Self {
            (seed >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// See [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn example(&self, seed: u64) -> T {
            T::arbitrary(splitmix(seed))
        }
    }

    /// Any value of `T` (floats: the unit interval).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collections of generated values.

    use super::splitmix;
    use super::strategy::Strategy;

    /// A half-open length range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn example(&self, seed: u64) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo).max(1) as u64;
            let len = self.size.lo + (seed % span) as usize;
            let mut s = seed;
            (0..len)
                .map(|_| {
                    s = splitmix(s);
                    self.element.example(s)
                })
                .collect()
        }
    }

    /// A `Vec` of `element`s whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Picking from fixed sets.

    use super::strategy::Strategy;

    /// See [`select`].
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn example(&self, seed: u64) -> T {
            self.0[(seed % self.0.len() as u64) as usize].clone()
        }
    }

    /// One of `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select of empty set");
        Select(values)
    }
}

/// Runs `$body` over `$cases` seeds with each `$arg` drawn from its
/// strategy; shared by both forms of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __run_cases {
    ($cases:expr; $($arg:pat in $strat:expr),* ; $body:block) => {
        for __case in 0..u64::from($cases) {
            let __result = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                let mut __arg = 0u32;
                $(
                    __arg += 1;
                    let $arg = $crate::strategy::Strategy::example(
                        &($strat),
                        $crate::arg_seed(__case, __arg),
                    );
                )*
                let _ = __arg;
                $body
                Ok(())
            })();
            if let Err(e) = __result {
                panic!("property failed at case {__case}: {e}");
            }
        }
    };
}

/// Declares property tests. A block opens with
/// `#![proptest_config(ProptestConfig::with_cases(N))]`; each
/// `fn name(arg in strategy, …) { … }` after it becomes a plain test
/// running the body over seeds `0..N`. The closure form
/// `proptest!(|(arg in strategy)| { … })` runs [`CASES`] seeds inline
/// inside an existing test.
#[macro_export]
macro_rules! proptest {
    ($(move)? |( $($arg:pat in $strat:expr),* $(,)? )| $body:block) => {{
        $crate::__run_cases!($crate::CASES; $($arg in $strat),* ; $body);
    }};
    (#![proptest_config($cfg:expr)] $($fns:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($fns)*);
    };
    (@fns ($cfg:expr)) => {};
    (
        @fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__run_cases!($cfg.cases; $($arg in $strat),* ; $body);
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// One of several strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    //! `use testkit::prelude::*;` — everything a property test names.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    pub mod prop {
        //! `prop::collection::vec`, `prop::sample::select`.
        pub use crate::{collection, sample};
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{arg_seed, check_golden, collection};

    #[test]
    fn strategies_are_pure_functions_of_the_seed() {
        let s = collection::vec((0u64..100, "[a-z]{1,6}", any::<bool>()), 1..5);
        assert_eq!(s.example(7), s.example(7));
        let words: Vec<String> = (0..50).map(|i| "[a-z]+".example(i)).collect();
        assert!(words
            .iter()
            .all(|w| (1..=6).contains(&w.len()) && w.bytes().all(|b| b.is_ascii_lowercase())));
        assert!((0..200).all(|i| (10i64..=12).contains(&(10i64..=12).example(i))));
        assert!((0..200).all(|i| (0.5..2.0).contains(&(0.5..2.0).example(arg_seed(i, 1)))));
        let picks: std::collections::BTreeSet<u8> = (0..20)
            .map(|i| prop_oneof![Just(1u8), Just(2u8), Just(3u8)].example(i))
            .collect();
        assert_eq!(picks.len(), 3);
    }

    static DECLARED_RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn declared_properties_run_the_configured_cases(
            a in 0u32..10,
            (b, c) in (any::<u64>(), Just(5u8)),
        ) {
            prop_assert!(a < 10);
            prop_assert_eq!(c, 5, "c was {c}, b was {b}");
            DECLARED_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        #[test]
        fn a_block_may_declare_several(x in 0.0..1.0f64) {
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn the_configured_case_count_is_honoured() {
        declared_properties_run_the_configured_cases();
        // 64 from the call above, plus however far the same property
        // has got as a test of its own on another thread.
        let runs = DECLARED_RUNS.load(std::sync::atomic::Ordering::Relaxed);
        assert!((64..=128).contains(&runs), "{runs}");
    }

    #[test]
    #[should_panic(expected = "property failed at case 0: assertion failed: x > 100")]
    fn a_failing_case_panics_with_its_case_number() {
        proptest!(|(x in 0u32..10)| {
            prop_assert!(x > 100);
        });
    }

    #[test]
    fn golden_mismatch_and_missing_file_fail() {
        let dir = std::env::temp_dir().join(format!("eram-testkit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "expected\n").unwrap();
        check_golden(&path, "expected\n", false);
        let differs = std::panic::catch_unwind(|| check_golden(&path, "actual\n", false));
        assert!(differs.is_err());
        let missing = dir.join("absent.txt");
        let absent = std::panic::catch_unwind(|| check_golden(&missing, "x", false));
        assert!(absent.is_err());
        assert!(!missing.exists(), "a missing golden is never self-blessed");
        check_golden(&missing, "x", true);
        check_golden(&missing, "x", false);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
