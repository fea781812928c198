//! Staged block sampling — the cluster sampling plan's draw mechanism.
//!
//! "In the cluster sampling plan, a disk block is taken as a sample
//! unit (i.e., all the tuples in a disk block are taken as a whole)
//! from each operand relation." The stage loop draws a *new* set of
//! blocks at every stage ("NEW-SAMPLE-SET := New-Sample-Select(fᵢ)"),
//! never re-drawing a block sampled at an earlier stage.
//!
//! [`BlockSampler`] implements staged sampling without replacement as
//! a lazily consumed random permutation: taking the next `d` elements
//! of a uniform permutation is distributionally identical to drawing
//! `d` more blocks uniformly from the not-yet-sampled remainder, and
//! it is O(d) per stage with no rejection.

use eram_storage::Rng;

/// Draws disk blocks of one relation, without replacement, across
/// stages.
///
/// The permutation is drawn at the first [`BlockSampler::draw`], not
/// at construction: a plan compiled only to be costed (admission
/// control prices every offered job this way) never pays the
/// O(relation) shuffle. The sampler owns its generator, so when the
/// shuffle runs cannot change what it produces.
#[derive(Debug, Clone)]
pub struct BlockSampler {
    num_blocks: u64,
    rng: Rng,
    /// Empty until the first draw.
    perm: Vec<u64>,
    cursor: usize,
}

impl BlockSampler {
    /// Creates a sampler over blocks `0..num_blocks` whose permutation
    /// `rng` will draw.
    pub fn new(num_blocks: u64, rng: Rng) -> Self {
        BlockSampler {
            num_blocks,
            rng,
            perm: Vec::new(),
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
        if self.perm.is_empty() {
            self.perm = (0..self.num_blocks).collect();
            self.rng.shuffle(&mut self.perm);
        }
        let take = usize::try_from(d)
            .unwrap_or(usize::MAX)
            .min(self.perm.len() - self.cursor);
        let slice = &self.perm[self.cursor..self.cursor + take];
        self.cursor += take;
        slice
    }

    /// All blocks drawn so far, in draw order (the paper's
    /// `SAMPLE-SET`).
    pub fn sample_set(&self) -> &[u64] {
        &self.perm[..self.cursor]
    }

    /// Returns the `n` most recently drawn blocks to the population
    /// (clamped to the number actually drawn).
    ///
    /// Used when a stage aborts mid-draw: indices handed out by
    /// [`BlockSampler::draw`] whose blocks were never read must come
    /// back, or those clusters become permanently unsampleable and
    /// the estimator's renormalization silently loses their points.
    /// Rewinding the permutation cursor is exact: the un-consumed
    /// blocks are re-drawn first on the next draw, preserving the
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
        let rng = Rng::seed_from_u64(8);
        let mut s = BlockSampler::new(20, rng);
        let first: Vec<u64> = s.draw(5).to_vec();
        let second: Vec<u64> = s.draw(3).to_vec();
        let combined: Vec<u64> = first.iter().chain(second.iter()).copied().collect();
        assert_eq!(s.sample_set(), combined.as_slice());
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
    fn permutation_is_drawn_at_the_first_draw_and_is_the_generators_shuffle() {
        // Counts answer before any permutation exists; the first
        // draw then produces exactly what an eager shuffle with the
        // same generator would have.
        let mut s = BlockSampler::new(1_000, Rng::seed_from_u64(77));
        assert_eq!(
            (s.population(), s.remaining(), s.drawn()),
            (1_000, 1_000, 0)
        );
        assert!(s.sample_set().is_empty());
        s.unconsume(5); // nothing drawn: a no-op, still no permutation
        assert_eq!(s.remaining(), 1_000);
        let mut eager: Vec<u64> = (0..1_000).collect();
        Rng::seed_from_u64(77).shuffle(&mut eager);
        assert_eq!(s.draw(10), &eager[..10]);
        assert_eq!(s.draw(990), &eager[10..]);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let rng = Rng::seed_from_u64(0);
        let mut s = BlockSampler::new(0, rng);
        assert_eq!(s.population(), 0);
        assert!(s.draw(4).is_empty());
    }
}
