//! Offline **type-check stub** for `serde` 1.
//!
//! The traits carry only default methods, so the stub derive macros
//! (`offline/stubs/serde_derive`) expand to *empty* trait impls — no
//! field parsing needed. Nothing here can actually serialize; it
//! exists purely so `cargo check` works offline. Code that checks
//! against this stub and sticks to derived impls + `serde_json`'s
//! function surface will also check against real serde.

/// Type-check stand-in for `serde::Serialize`.
pub trait Serialize {
    /// Stub hook; real serde's `serialize` is generic over `S`.
    fn stub_describe(&self) -> &'static str {
        "serde offline stub"
    }
}

/// Type-check stand-in for `serde::Deserialize<'de>`.
pub trait Deserialize<'de>: Sized {
    /// Stub hook; always `None` (the stub cannot build values).
    fn stub_absent() -> Option<Self> {
        None
    }
}

/// Type-check stand-in for `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

pub mod de {
    pub use super::{Deserialize, DeserializeOwned};
}

pub mod ser {
    pub use super::Serialize;
}

macro_rules! impl_both {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {}
        impl<'de> Deserialize<'de> for $t {}
    )*};
}

impl_both!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    String,
    std::time::Duration,
    std::time::SystemTime,
    std::path::PathBuf,
);

impl Serialize for str {}
impl Serialize for std::path::Path {}

impl<T: Serialize> Serialize for Option<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {}

impl<T: Serialize> Serialize for Vec<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {}

impl<T: Serialize> Serialize for [T] {}
impl<T: Serialize, const N: usize> Serialize for [T; N] {}
impl<'de, T: Deserialize<'de> + Default + Copy, const N: usize> Deserialize<'de> for [T; N] {}

impl<T: Serialize + ?Sized> Serialize for &T {}
impl<T: Serialize + ?Sized> Serialize for Box<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {}
impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {}
impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de>
    for std::collections::BTreeMap<K, V>
{
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {}
impl<'de, K, V, S> Deserialize<'de> for std::collections::HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + std::hash::Hash,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {}
impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for std::collections::BTreeSet<T> {}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::collections::VecDeque<T> {}

macro_rules! impl_tuple {
    ($($name:ident),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {}
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {}
    };
}

impl_tuple!(A);
impl_tuple!(A, B);
impl_tuple!(A, B, C);
impl_tuple!(A, B, C, D);
impl_tuple!(A, B, C, D, E);
impl_tuple!(A, B, C, D, E, F);

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
