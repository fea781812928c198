//! Fixed-size disk blocks.
//!
//! The paper's experimental setup: "each relation instance consists of
//! 2,000 disk blocks (1K bytes in each disk block) with 5 tuples in
//! each disk block. Each disk block is a sampling unit from a
//! relation." A [`Block`] here is exactly that 1 KB page (the size is
//! configurable per [`crate::Disk`], defaulting to [`BLOCK_SIZE`]).

/// Default block size in bytes (the paper's 1 KB).
pub const BLOCK_SIZE: usize = 1024;

/// Identifies one block within one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// File the block belongs to.
    pub file: u64,
    /// Zero-based block index within the file.
    pub index: u64,
}

impl BlockId {
    /// Creates a block id.
    pub fn new(file: u64, index: u64) -> Self {
        BlockId { file, index }
    }
}

/// A fixed-size page of raw bytes.
///
/// Blocks own their storage; the tuple layout inside a block is
/// defined by [`crate::Schema`] (fixed-width records packed from the
/// front, `blocking_factor` records per block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    data: Box<[u8]>,
}

impl Block {
    /// Creates a zero-filled block of `size` bytes.
    pub fn zeroed(size: usize) -> Self {
        Block {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Block capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the block has zero capacity (never the case for blocks
    /// allocated through [`crate::Disk`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the block's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the block's bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// 64-bit word-parallel digest over every byte of the block.
    ///
    /// Recorded on every write and verified on every charged read by
    /// [`crate::Disk`]; a mismatch surfaces as
    /// [`crate::StorageError::Corrupt`]. Four independent lanes each
    /// absorb one little-endian 8-byte word per 32-byte stride with
    /// `lane = rotl((lane ^ word) * K, 29)` (`K` odd), so the
    /// multiplies of one stride overlap instead of forming one
    /// 1 024-step dependency chain; the lanes, then any tail bytes
    /// past the last whole stride, are folded into the result through
    /// the same step. The rotation carries a word's top bits, which a
    /// multiply alone only ever moves upward and out, back under the
    /// next multiply.
    ///
    /// Not cryptographic, but any single flipped bit changes the
    /// digest, which is the failure model we defend against: (1) for
    /// a fixed input `x` the step is a bijection of the 64-bit state
    /// (xor with `x` is, multiplying by an odd `K` mod 2^64 is, and a
    /// rotation is); (2) for a fixed state it is injective in `x`, so
    /// the step that absorbs the flipped word, byte or lane leaves a
    /// different state; (3) every later step sees unchanged input and
    /// by (1) keeps different states different, through the fold to
    /// the value returned.
    pub fn checksum(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        const SEEDS: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x8422_2325_cbf2_9ce4,
            0x2545_f491_4f6c_dd1d,
            0xd6e8_feb8_6659_fd93,
        ];
        let step = |state: u64, x: u64| (state ^ x).wrapping_mul(K).rotate_left(29);
        let mut lanes = SEEDS;
        let mut strides = self.data.chunks_exact(32);
        for stride in &mut strides {
            for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *lane = step(*lane, word);
            }
        }
        let folded = lanes.into_iter().fold(self.data.len() as u64, step);
        strides
            .remainder()
            .iter()
            .fold(folded, |h, &byte| step(h, u64::from(byte)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_has_requested_size() {
        let b = Block::zeroed(BLOCK_SIZE);
        assert_eq!(b.len(), 1024);
        assert!(b.bytes().iter().all(|&x| x == 0));
        assert!(!b.is_empty());
    }

    #[test]
    fn block_bytes_are_writable() {
        let mut b = Block::zeroed(16);
        b.bytes_mut()[3] = 0xAB;
        assert_eq!(b.bytes()[3], 0xAB);
    }

    fn patterned(size: usize) -> Block {
        let mut b = Block::zeroed(size);
        for (i, byte) in b.bytes_mut().iter_mut().enumerate() {
            *byte = (i * 7 + 3) as u8;
        }
        b
    }

    /// The default block, and a size that is whole strides (3 × 32)
    /// plus a 4-byte tail.
    #[test]
    fn checksum_detects_any_single_bit_flip() {
        for size in [BLOCK_SIZE, 100] {
            let b = patterned(size);
            let clean = b.checksum();
            for bit in 0..(size * 8) {
                let mut flipped = b.clone();
                flipped.bytes_mut()[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    flipped.checksum(),
                    clean,
                    "bit {bit} of {size} bytes went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_separates_blocks_differing_in_one_place() {
        let b = patterned(100);
        let mut aligned_word = b.clone();
        for byte in &mut aligned_word.bytes_mut()[40..48] {
            *byte = !*byte;
        }
        let mut unaligned_byte = b.clone();
        unaligned_byte.bytes_mut()[13] = 0;
        let mut tail_byte = b.clone();
        tail_byte.bytes_mut()[99] = 0;
        let digests = [
            b.checksum(),
            aligned_word.checksum(),
            unaligned_byte.checksum(),
            tail_byte.checksum(),
        ];
        for (i, d) in digests.iter().enumerate() {
            assert!(
                !digests[..i].contains(d),
                "digest {i} collides: {digests:x?}"
            );
        }
        // Two flips of the same bit one stride apart land in the same
        // lane; the rotation keeps even a word's top bit from
        // cancelling there.
        let mut top_bits = b.clone();
        top_bits.bytes_mut()[7] ^= 0x80;
        top_bits.bytes_mut()[39] ^= 0x80;
        assert_ne!(top_bits.checksum(), b.checksum());
    }

    /// Digests are never stored outside the process, so the function
    /// is free to change — deliberately. These pin it against
    /// changing by accident.
    #[test]
    fn checksum_known_answers() {
        assert_eq!(Block::zeroed(BLOCK_SIZE).checksum(), 0x2fa0_658d_f7e4_5b1b);
        assert_eq!(patterned(BLOCK_SIZE).checksum(), 0xeb32_b498_d1fc_16ed);
        assert_eq!(patterned(100).checksum(), 0xba03_d619_1dba_d66c);
        assert_eq!(Block::zeroed(0).checksum(), 0x33e5_86d0_66c7_7ecf);
    }

    #[test]
    fn checksum_is_deterministic() {
        let b = patterned(BLOCK_SIZE);
        assert_eq!(b.checksum(), b.checksum());
        assert_eq!(b.clone().checksum(), b.checksum(), "a clone has the bytes");
        let mut c = b.clone();
        c.bytes_mut()[0] ^= 1;
        assert_ne!(b.checksum(), c.checksum());
    }

    #[test]
    fn block_ids_order_by_file_then_index() {
        let a = BlockId::new(1, 5);
        let b = BlockId::new(2, 0);
        let c = BlockId::new(1, 9);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }
}
