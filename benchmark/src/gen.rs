//! Seeded input generation. The engine never sees this generator,
//! only the rows it produces, and every truth the checks compare
//! against follows from how the rows are constructed — never from
//! running the engine.

/// splitmix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The seed of item `i` of stream `stream` under benchmark seed
/// `seed`: relations, per-query seeds and fault plans each take their
/// own stream, so changing one workload's count moves no other's
/// inputs.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut g = SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    g.0 = g.0.wrapping_add(i.wrapping_mul(0xA076_1D64_78BD_642F));
    g.next_u64()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// One tuple of the benchmark schema `(id, sel, jk, g, v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub id: i64,
    /// `π(id)`: `sel < c` selects exactly `c` tuples, at random
    /// positions.
    pub sel: i64,
    /// Join key: every key in `0..k` occurs exactly `n / k` times.
    pub jk: i64,
    /// `id mod 64`.
    pub g: i64,
    pub v: f64,
}

/// Where a relation's join keys sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// `jk = π'(id) mod k`: equal keys at random positions.
    Scattered,
    /// `jk = id mod k`: a block holds a run of consecutive keys.
    Clustered,
}

/// `n` rows with `k` distinct join keys (`k` divides `n`).
pub fn relation(n: usize, k: usize, keys: Keys, seed: u64) -> Vec<Row> {
    assert!(k > 0 && n.is_multiple_of(k), "k must divide n");
    let mut rng = SplitMix64::new(seed);
    let sel = permutation(n, &mut rng);
    let jk = permutation(n, &mut rng);
    (0..n)
        .map(|i| Row {
            id: i as i64,
            sel: i64::from(sel[i]),
            jk: match keys {
                Keys::Scattered => (jk[i] as usize % k) as i64,
                Keys::Clustered => (i % k) as i64,
            },
            g: (i % 64) as i64,
            v: f64::from(sel[i]) * 0.5,
        })
        .collect()
}

/// `COUNT(r1 ⋈_jk r2)` for two relations built by [`relation`] with
/// the same `n` and `k`.
pub fn join_truth(n: usize, k: usize) -> f64 {
    let per_key = (n / k) as f64;
    k as f64 * per_key * per_key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_hits_every_index_once() {
        let mut p = permutation(1000, &mut SplitMix64::new(7));
        assert_ne!(p, (0..1000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn selection_truth_is_the_threshold() {
        let n = 2000;
        let r = relation(n, 100, Keys::Scattered, 1989);
        for c in [0, 1, n / 2, n] {
            let hits = r.iter().filter(|t| t.sel < c as i64).count();
            assert_eq!(hits, c);
        }
    }

    #[test]
    fn join_truth_matches_brute_force() {
        let (n, k) = (600, 50);
        for keys in [Keys::Scattered, Keys::Clustered] {
            let r1 = relation(n, k, keys, derive(7, 1, 0));
            let r2 = relation(n, k, keys, derive(7, 2, 0));
            let mut matches = 0usize;
            for a in &r1 {
                matches += r2.iter().filter(|b| b.jk == a.jk).count();
            }
            assert_eq!(matches as f64, join_truth(n, k));
        }
    }

    #[test]
    fn same_seed_same_rows_and_streams_differ() {
        assert_eq!(
            relation(500, 10, Keys::Scattered, 3),
            relation(500, 10, Keys::Scattered, 3)
        );
        assert_ne!(derive(1, 1, 0), derive(1, 2, 0));
        assert_ne!(derive(1, 1, 0), derive(1, 1, 1));
        assert_ne!(derive(1, 1, 0), derive(2, 1, 0));
    }
}
