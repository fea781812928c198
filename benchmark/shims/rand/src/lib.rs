//! Offline **type-check stub** for `rand` 0.8.
//!
//! This crate exists so `cargo check` can run in containers where the
//! crates registry is unreachable (see `offline/README.md`). It
//! mirrors the subset of the `rand` 0.8 API surface this workspace
//! uses, with working-but-unofficial implementations (an xorshift
//! generator instead of ChaCha). It must NEVER be used to produce
//! blessed artifacts: its streams differ from real `rand`.

/// Marker matching `rand::Error` closely enough for signatures.
#[derive(Debug)]
pub struct Error;

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let bytes = seed.as_mut();
        let mut x = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for chunk in bytes.chunks_mut(8) {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            for (b, s) in chunk.iter_mut().zip(x.to_le_bytes()) {
                *b = s;
            }
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        Self::from_seed(seed)
    }
}

/// Uniform-range support: the sliver of `rand::distributions` the
/// `gen_range` method needs.
pub mod distributions {
    pub mod uniform {
        use std::ops::{Range, RangeInclusive};

        /// A half-open or inclusive range argument to `gen_range`.
        pub trait SampleRange<T> {
            fn stub_bounds(self) -> (T, T, bool);
        }

        pub trait SampleUniform: Sized + Copy + PartialOrd {
            fn stub_lerp(lo: Self, hi: Self, inclusive: bool, r: u64) -> Self;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn stub_bounds(self) -> (T, T, bool) {
                (self.start, self.end, false)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn stub_bounds(self) -> (T, T, bool) {
                let (s, e) = self.into_inner();
                (s, e, true)
            }
        }

        macro_rules! impl_int_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn stub_lerp(lo: Self, hi: Self, inclusive: bool, r: u64) -> Self {
                        let lo128 = lo as i128;
                        let hi128 = hi as i128;
                        let span = (hi128 - lo128 + if inclusive { 1 } else { 0 }).max(1) as u128;
                        (lo128 + (r as u128 % span) as i128) as $t
                    }
                }
            )*};
        }
        impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        macro_rules! impl_float_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn stub_lerp(lo: Self, hi: Self, _inclusive: bool, r: u64) -> Self {
                        let f = (r >> 11) as $t / (1u64 << 53) as $t;
                        lo + (hi - lo) * f
                    }
                }
            )*};
        }
        impl_float_uniform!(f32, f64);
    }

    /// `Standard` distribution marker for `gen::<T>()`.
    pub struct Standard;

    pub trait Distribution<T> {
        fn sample<R: crate::Rng + ?Sized>(&self, rng: &mut R) -> T;
    }
}

/// Types drawable by `Rng::gen` (the `Standard` distribution).
pub trait StandardDraw: Sized {
    fn stub_draw(r: u64) -> Self;
}

impl StandardDraw for f64 {
    fn stub_draw(r: u64) -> Self {
        (r >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl StandardDraw for f32 {
    fn stub_draw(r: u64) -> Self {
        (r >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl StandardDraw for bool {
    fn stub_draw(r: u64) -> Self {
        r & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardDraw for $t {
            fn stub_draw(r: u64) -> Self { r as $t }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait Rng: RngCore {
    fn gen<T: StandardDraw>(&mut self) -> T {
        T::stub_draw(self.next_u64())
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        let (lo, hi, inclusive) = range.stub_bounds();
        T::stub_lerp(lo, hi, inclusive, self.next_u64())
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Stand-in for `rand::rngs::StdRng` (xorshift128+, NOT ChaCha —
    /// streams differ from the real crate).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s0: u64,
        s1: u64,
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.s0;
            let y = self.s1;
            self.s0 = y;
            x ^= x << 23;
            self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
            self.s1.wrapping_add(y)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                for (b, s) in chunk.iter_mut().zip(v) {
                    *b = s;
                }
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 2];
            for i in 0..2 {
                let mut v = [0u8; 8];
                v.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                s[i] = u64::from_le_bytes(v);
            }
            StdRng {
                s0: s[0] | 1,
                s1: s[1] | 2,
            }
        }
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}
