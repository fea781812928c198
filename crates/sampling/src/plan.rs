//! Staged block sampling — the cluster sampling plan's draw mechanism.
//!
//! "In the cluster sampling plan, a disk block is taken as a sample
//! unit (i.e., all the tuples in a disk block are taken as a whole)
//! from each operand relation." The stage loop draws a *new* set of
//! blocks at every stage ("NEW-SAMPLE-SET := New-Sample-Select(fᵢ)"),
//! never re-drawing a block sampled at an earlier stage.
//!
//! [`BlockSampler`] implements staged sampling without replacement as
//! a random permutation built front to back only as far as the draws
//! reach: fixing the next `d` positions of a Fisher–Yates shuffle is
//! distributionally identical to drawing `d` more blocks uniformly
//! from the not-yet-sampled remainder, and it costs `d` generator
//! calls per stage, with no rejection. While the draws stay within
//! 1/128 of the relation the unfixed rest of the permutation is
//! implicit (only the positions a swap displaced are stored), so a
//! query that reads a few dozen blocks pays for a few dozen, not for
//! the whole relation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use eram_storage::Rng;

/// Draws disk blocks of one relation, without replacement, across
/// stages.
///
/// Each draw fixes the positions it hands out, front to back: position
/// `k` swaps with a uniform pick from `k..=n−1`, one generator call
/// per position. Positions below the `shuffled` high-water mark are
/// never re-fixed, so blocks returned by [`BlockSampler::unconsume`]
/// are handed out again without a generator call. The sampler owns
/// its generator, so when a draw runs cannot change what it produces.
///
/// The permutation starts sparse: only the fixed prefix is stored,
/// beside a map of the unfixed positions a swap displaced (every other
/// position still holds its own index), so a stage that takes `d`
/// blocks costs `d` generator calls and at most `2d` map operations,
/// however large the relation. The first draw that reaches past
/// `n/128` writes the rest of the identity permutation, applies the
/// map and drops it; from then on a position costs one swap in place.
/// Both representations give the same blocks in the same order. A
/// plan compiled only to be costed (admission control prices every
/// offered job this way) allocates nothing.
#[derive(Debug, Clone)]
pub struct BlockSampler {
    num_blocks: u64,
    rng: Rng,
    /// `perm[..shuffled]` is the fixed prefix of the permutation; once
    /// dense, `perm` holds all `num_blocks` positions.
    perm: Vec<u64>,
    /// While sparse, each unfixed position (`≥ shuffled`) whose value
    /// is not its own index, mapped to that value; `None` once dense.
    moved: Option<HashMap<u64, u64, BuildHasherDefault<FoldHasher>>>,
    shuffled: usize,
    cursor: usize,
}

/// A multiply-fold hasher for `u64` keys: the full product with an
/// odd constant, high half folded onto low. The keys are permutation
/// positions the sampler's own generator picks, never outside input,
/// so nothing here needs SipHash's resistance to chosen keys.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(x ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl BlockSampler {
    /// Creates a sampler over blocks `0..num_blocks` whose permutation
    /// `rng` will draw.
    pub fn new(num_blocks: u64, rng: Rng) -> Self {
        BlockSampler {
            num_blocks,
            rng,
            perm: Vec::new(),
            moved: Some(HashMap::default()),
            shuffled: 0,
            cursor: 0,
        }
    }

    /// Total blocks in the relation.
    pub fn population(&self) -> u64 {
        self.num_blocks
    }

    /// Blocks drawn so far (all stages combined).
    pub fn drawn(&self) -> u64 {
        self.cursor as u64
    }

    /// Blocks not yet drawn.
    pub fn remaining(&self) -> u64 {
        self.num_blocks - self.cursor as u64
    }

    /// Draws up to `d` new blocks (fewer if the relation is nearly
    /// exhausted), returning their indices.
    pub fn draw(&mut self, d: u64) -> &[u64] {
        let n = usize::try_from(self.num_blocks).expect("a relation's blocks fit in memory");
        let take = usize::try_from(d)
            .unwrap_or(usize::MAX)
            .min(n - self.cursor);
        let end = self.cursor + take;
        // Past the knee a swap in place is cheaper than the map's two
        // operations by more than the fill costs (DESIGN.md §6, "The
        // generator").
        if end > n / 128 {
            if let Some(moved) = self.moved.take() {
                self.perm.extend(self.shuffled as u64..n as u64);
                for (p, v) in moved {
                    self.perm[p as usize] = v;
                }
            }
        }
        // `k < end <= n`, so `n - 1` cannot underflow inside the loops.
        if let Some(moved) = &mut self.moved {
            moved.reserve(end.saturating_sub(self.shuffled));
            for k in self.shuffled..end {
                let j = self.rng.gen_range(k as u64..=(n - 1) as u64);
                let k = k as u64;
                let at_k = moved.remove(&k).unwrap_or(k);
                let v = if j == k {
                    at_k
                } else {
                    moved.insert(j, at_k).unwrap_or(j)
                };
                self.perm.push(v);
            }
        } else {
            for k in self.shuffled..end {
                let j = self.rng.gen_range(k as u64..=(n - 1) as u64) as usize;
                self.perm.swap(k, j);
            }
        }
        self.shuffled = self.shuffled.max(end);
        let slice = &self.perm[self.cursor..end];
        self.cursor = end;
        slice
    }

    /// Returns the `n` most recently drawn blocks to the population
    /// (clamped to the number actually drawn).
    ///
    /// Used when a stage aborts mid-draw: indices handed out by
    /// [`BlockSampler::draw`] whose blocks were never read must come
    /// back, or those clusters become permanently unsampleable and
    /// the estimator's renormalization silently loses their points.
    /// Rewinding the permutation cursor is exact: the un-consumed
    /// blocks sit below the `shuffled` mark, in the fixed prefix of
    /// either representation, so the next draw hands them out first,
    /// in the same order and with no generator call, preserving the
    /// without-replacement guarantee and the draw distribution.
    pub fn unconsume(&mut self, n: u64) {
        let back = usize::try_from(n).unwrap_or(usize::MAX).min(self.cursor);
        self.cursor -= back;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::Rng;
    use std::collections::HashSet;

    /// The dense sampler, the reference the sparse one must reproduce:
    /// the first draw writes the whole identity permutation and every
    /// position is fixed by a swap in place.
    #[derive(Debug, Clone)]
    struct DenseSampler {
        num_blocks: u64,
        rng: Rng,
        perm: Vec<u64>,
        shuffled: usize,
        cursor: usize,
    }

    impl DenseSampler {
        fn new(num_blocks: u64, rng: Rng) -> Self {
            DenseSampler {
                num_blocks,
                rng,
                perm: Vec::new(),
                shuffled: 0,
                cursor: 0,
            }
        }

        fn drawn(&self) -> u64 {
            self.cursor as u64
        }

        fn remaining(&self) -> u64 {
            self.num_blocks - self.cursor as u64
        }

        fn draw(&mut self, d: u64) -> &[u64] {
            if self.perm.is_empty() {
                self.perm = (0..self.num_blocks).collect();
            }
            let n = self.perm.len();
            let take = usize::try_from(d)
                .unwrap_or(usize::MAX)
                .min(n - self.cursor);
            let end = self.cursor + take;
            // `k < end <= n`, so `n - 1` cannot underflow inside the loop.
            for k in self.shuffled..end {
                let j = self.rng.gen_range(k as u64..=(n - 1) as u64) as usize;
                self.perm.swap(k, j);
            }
            self.shuffled = self.shuffled.max(end);
            let slice = &self.perm[self.cursor..end];
            self.cursor = end;
            slice
        }

        fn unconsume(&mut self, n: u64) {
            let back = usize::try_from(n).unwrap_or(usize::MAX).min(self.cursor);
            self.cursor -= back;
        }
    }

    /// One step of a draw script.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Draw(u64),
        Unconsume(u64),
    }

    /// Runs `steps` on a sparse and a dense sampler of the same seed
    /// and asserts, after every step, the same blocks, the same counts
    /// and the same next generator output.
    fn assert_same_stream(n: u64, seed: u64, steps: &[Step]) {
        let mut sparse = BlockSampler::new(n, Rng::seed_from_u64(seed));
        let mut dense = DenseSampler::new(n, Rng::seed_from_u64(seed));
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Draw(d) => assert_eq!(
                    sparse.draw(d),
                    dense.draw(d),
                    "n={n} seed={seed} step {i}: {step:?}"
                ),
                Step::Unconsume(u) => {
                    sparse.unconsume(u);
                    dense.unconsume(u);
                }
            }
            assert_eq!(
                (sparse.drawn(), sparse.remaining()),
                (dense.drawn(), dense.remaining()),
                "n={n} seed={seed} step {i}: {step:?}"
            );
            assert_eq!(
                sparse.rng.clone().next_u64(),
                dense.rng.clone().next_u64(),
                "n={n} seed={seed} step {i}: {step:?}"
            );
        }
    }

    #[test]
    fn the_sparse_sampler_draws_the_dense_samplers_stream() {
        for n in [0u64, 1, 2, 5, 127, 128, 129, 1_000, 40_000] {
            let knee = n / 128;
            // Scripted: stay sparse, cross the densify point in the
            // middle of a draw, rewind across it, redraw through it,
            // then run the relation dry and over-rewind.
            let scripted = [
                Step::Draw(0),
                Step::Draw(knee / 2),
                Step::Draw(knee - knee / 2),
                Step::Unconsume(knee / 3),
                Step::Draw(knee / 3),
                Step::Draw(knee + 3),
                Step::Unconsume(knee + 6),
                Step::Draw(2 * knee + 5),
                Step::Draw(n),
                Step::Draw(1),
                Step::Unconsume(n + 1),
                Step::Draw(n / 2 + 1),
            ];
            for seed in 0..4 {
                assert_same_stream(n, seed, &scripted);
            }
            // Random scripts: draw sizes around the densify point and
            // rewinds of up to what was drawn, plus a few past it.
            let mut pick = Rng::seed_from_u64(n ^ 0xD2A3);
            for seed in 0..40 {
                let steps: Vec<Step> = (0..12)
                    .map(|_| match pick.gen_range(0..=5) {
                        0 => Step::Unconsume(pick.gen_range(0..=knee + 2)),
                        1 => Step::Unconsume(pick.gen_range(0..=n + 1)),
                        2 => Step::Draw(pick.gen_range(0..=n + 1)),
                        _ => Step::Draw(pick.gen_range(0..=knee + 1)),
                    })
                    .collect();
                assert_same_stream(n, 100 + seed, &steps);
            }
        }
    }

    #[test]
    fn a_small_draw_stores_only_the_blocks_it_drew() {
        // A 26-block draw from 40 000 blocks holds a 26-entry prefix and
        // at most 26 displaced positions: no 40 000-entry buffer.
        let mut s = BlockSampler::new(40_000, Rng::seed_from_u64(11));
        assert_eq!(s.draw(26).len(), 26);
        assert_eq!(s.perm.len(), 26);
        assert!(s.perm.capacity() < 40_000, "{}", s.perm.capacity());
        let moved = s.moved.as_ref().expect("a 26-block draw stays sparse");
        assert!(moved.len() <= 26, "{}", moved.len());
        assert!(moved.capacity() < 40_000, "{}", moved.capacity());
    }

    #[test]
    fn a_draw_past_a_128th_of_the_relation_densifies() {
        // 40 000 / 128 = 312: a draw ending at 312 stays sparse, the one
        // that reaches 313 writes the whole permutation and drops the map.
        let mut s = BlockSampler::new(40_000, Rng::seed_from_u64(11));
        s.draw(300);
        s.draw(12);
        assert_eq!(s.perm.len(), 312);
        assert!(s.moved.is_some());
        s.draw(1);
        assert_eq!(s.perm.len(), 40_000);
        assert!(s.moved.is_none());
        // A rewind does not make it sparse again.
        s.unconsume(313);
        s.draw(1);
        assert_eq!(s.perm.len(), 40_000);
        assert!(s.moved.is_none());
    }

    #[test]
    fn staged_draws_never_repeat() {
        let rng = Rng::seed_from_u64(5);
        let mut s = BlockSampler::new(100, rng);
        let mut seen = HashSet::new();
        for d in [10u64, 25, 40, 50] {
            for &b in s.draw(d) {
                assert!(seen.insert(b), "block {b} drawn twice");
                assert!(b < 100);
            }
        }
        assert_eq!(s.drawn(), 100);
        assert_eq!(s.remaining(), 0);
        assert!(s.draw(10).is_empty());
    }

    #[test]
    fn sample_set_accumulates_in_draw_order() {
        // The paper's SAMPLE-SET grows stage by stage: two staged draws
        // hand out exactly what one draw of their total would.
        let mut staged = BlockSampler::new(20, Rng::seed_from_u64(8));
        let mut sample_set = staged.draw(5).to_vec();
        sample_set.extend_from_slice(staged.draw(3));
        let mut once = BlockSampler::new(20, Rng::seed_from_u64(8));
        assert_eq!(once.draw(8), sample_set.as_slice());
    }

    #[test]
    fn first_stage_draw_is_uniform() {
        // Under repeated seeding, each block should be in a 2-of-10
        // first draw with probability 0.2.
        let trials = 20_000;
        let mut counts = [0u64; 10];
        for seed in 0..trials {
            let rng = Rng::seed_from_u64(seed);
            let mut s = BlockSampler::new(10, rng);
            for &b in s.draw(2) {
                counts[b as usize] += 1;
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.2).abs() < 0.02, "block {b}: p={p}");
        }
    }

    #[test]
    fn unconsume_returns_last_drawn_blocks_in_order() {
        let rng = Rng::seed_from_u64(3);
        let mut s = BlockSampler::new(30, rng);
        let first: Vec<u64> = s.draw(10).to_vec();
        assert_eq!(s.drawn(), 10);
        // Give back the last 4: the next draw must hand out exactly
        // those 4 again, in the same permutation order.
        s.unconsume(4);
        assert_eq!(s.drawn(), 6);
        assert_eq!(s.remaining(), 24);
        let redraw: Vec<u64> = s.draw(4).to_vec();
        assert_eq!(redraw, first[6..]);
        // Clamped: cannot rewind past the start.
        s.unconsume(1_000);
        assert_eq!(s.drawn(), 0);
        assert_eq!(s.remaining(), 30);
    }

    #[test]
    fn draw_stream_is_pinned() {
        // Known answer for the front-to-back draw rule (DESIGN.md,
        // "The generator"): committed goldens and `results/` depend on
        // exactly these blocks. Counts answer before the first draw,
        // which allocates nothing, and a rewind with nothing drawn is
        // a no-op.
        let mut s = BlockSampler::new(1_000, Rng::seed_from_u64(77));
        assert_eq!(
            (s.population(), s.remaining(), s.drawn()),
            (1_000, 1_000, 0)
        );
        assert!(s.perm.is_empty(), "no permutation before the first draw");
        s.unconsume(5);
        assert_eq!(s.remaining(), 1_000);
        assert_eq!(s.draw(6), &PINNED_77[..6]);
        assert_eq!(s.draw(4), &PINNED_77[6..]);
    }

    /// Seed 77 over 1 000 blocks, computed from the rule as specified
    /// rather than read back from this implementation.
    const PINNED_77: [u64; 10] = [717, 281, 720, 420, 193, 415, 122, 489, 94, 352];

    #[test]
    fn a_draw_of_d_advances_the_generator_exactly_d_times() {
        // The O(d) contract, structurally: a 26-block draw from a
        // 40 000-block relation makes 26 generator calls, not 40 000.
        for d in [0u64, 1, 26, 1_000] {
            let rng = Rng::seed_from_u64(11);
            let mut s = BlockSampler::new(40_000, rng.clone());
            assert_eq!(s.draw(d).len() as u64, d);
            let mut stepped = rng;
            for _ in 0..d {
                stepped.next_u64();
            }
            for _ in 0..4 {
                assert_eq!(s.rng.next_u64(), stepped.next_u64(), "d={d}");
            }
        }
    }

    #[test]
    fn a_rewound_draw_makes_no_generator_call_and_repeats_its_blocks() {
        let mut s = BlockSampler::new(40_000, Rng::seed_from_u64(12));
        let first = s.draw(30).to_vec();
        let mut after = s.rng.clone();
        s.unconsume(9);
        assert_eq!(s.draw(9), &first[21..]);
        assert_eq!(s.rng.next_u64(), after.next_u64());
        // Past the rewound positions, drawing resumes the stream.
        s.unconsume(9);
        let mut probe = s.clone();
        assert_eq!(probe.draw(10)[..9], first[21..]);
        let mut stepped = after.clone();
        stepped.next_u64();
        assert_eq!(probe.rng.next_u64(), stepped.next_u64());
    }

    #[test]
    fn second_stage_draw_is_uniform_over_the_remainder() {
        // Given a 2-of-10 first draw, each of the 8 blocks left should
        // be in a 2-block second draw with probability 2/8.
        let trials = 20_000;
        let mut left = [0u64; 10];
        let mut taken = [0u64; 10];
        for seed in 0..trials {
            let mut s = BlockSampler::new(10, Rng::seed_from_u64(seed));
            let first = s.draw(2).to_vec();
            for b in (0..10).filter(|b| !first.contains(b)) {
                left[b as usize] += 1;
            }
            for &b in s.draw(2) {
                assert!(!first.contains(&b), "block {b} drawn twice");
                taken[b as usize] += 1;
            }
        }
        for b in 0..10 {
            let p = taken[b] as f64 / left[b] as f64;
            assert!((p - 0.25).abs() < 0.02, "block {b}: p={p}");
        }
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let rng = Rng::seed_from_u64(0);
        let mut s = BlockSampler::new(0, rng);
        assert_eq!(s.population(), 0);
        assert!(s.draw(4).is_empty());
        assert!(s.draw(4).is_empty());
        s.unconsume(1);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn one_block_relation_yields_its_block_once() {
        let mut s = BlockSampler::new(1, Rng::seed_from_u64(0));
        assert_eq!(s.draw(4), &[0]);
        assert!(s.draw(4).is_empty());
        s.unconsume(1);
        assert_eq!(s.draw(1), &[0]);
        assert_eq!(s.remaining(), 0);
    }
}
