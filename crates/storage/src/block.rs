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

    /// 64-bit FNV-1a checksum over the block's bytes.
    ///
    /// Recorded on every write and verified on every charged read by
    /// [`crate::Disk`]; a mismatch surfaces as
    /// [`crate::StorageError::Corrupt`]. FNV-1a is not cryptographic,
    /// but a single flipped bit anywhere in the block always changes
    /// the digest, which is the failure model we defend against.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for &byte in self.data.iter() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
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

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let mut b = Block::zeroed(64);
        for (i, byte) in b.bytes_mut().iter_mut().enumerate() {
            *byte = (i * 7) as u8;
        }
        let clean = b.checksum();
        for bit in 0..(64 * 8) {
            let mut flipped = b.clone();
            flipped.bytes_mut()[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(flipped.checksum(), clean, "bit {bit} went undetected");
        }
    }

    #[test]
    fn checksum_is_deterministic() {
        let b = Block::zeroed(BLOCK_SIZE);
        assert_eq!(b.checksum(), b.checksum());
        let mut c = Block::zeroed(BLOCK_SIZE);
        c.bytes_mut()[0] = 1;
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
