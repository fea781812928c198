//! Block store backends: in-memory and file-backed.
//!
//! [`crate::Disk`] charges the clock and manages the cache; the
//! *backend* owns the bytes, and beside each block the digest
//! recorded when it was written, so one lookup under one lock yields
//! both halves of a verified read. The in-memory backend suits
//! experiments (a paper relation is 2 MB) and hands out shared
//! handles to the blocks it holds; the file-backed backend keeps
//! every relation and temporary in a real file on disk, so data sets
//! larger than RAM work — what the prototype's "all the input
//! relations and all the intermediate relations are always kept on
//! disks" actually meant.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::block::Block;
use crate::error::{IoFault, StorageError};
use crate::Result;

/// What a verified read needs: a block and the digest its writer
/// recorded for it.
pub(crate) type Slot = (Arc<Block>, u64);

/// Owns block storage for a set of files, a [`Slot`] per block.
pub(crate) trait BlockBackend: Send {
    /// Allocates a new empty file and returns its id.
    fn create_file(&mut self) -> u64;
    /// Releases a file, its digests with it.
    fn free_file(&mut self, file: u64);
    /// Blocks currently in `file`, or `None` if unknown.
    fn num_blocks(&self, file: u64) -> Option<u64>;
    /// Appends a block and its digest, returning the block's index.
    fn append(&mut self, file: u64, slot: Slot) -> Result<u64>;
    /// Reads block `index` and the digest recorded for it.
    fn read(&self, file: u64, index: u64) -> Result<Slot>;
    /// Advice that blocks `indices` of `file` are about to be read,
    /// in that order. It may warm whatever a later [`Self::read`]
    /// would wait for and may do nothing (the default); an index or
    /// a file that does not exist is skipped, never reported.
    fn prefetch(&self, _file: u64, _indices: &[u64]) {}
}

/// `index` as a position in a file of `len` blocks, or the
/// out-of-range error naming `file`.
fn position(len: usize, file: u64, index: u64) -> Result<usize> {
    usize::try_from(index)
        .ok()
        .filter(|&i| i < len)
        .ok_or(StorageError::BlockOutOfRange {
            file,
            block: index,
            len: len as u64,
        })
}

/// Hints every 64-byte line of `data` towards the cache without
/// waiting for any of them.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn prefetch_lines(data: &[u8]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for line in data.chunks(64) {
        // SAFETY: the pointer is the start of a non-empty chunk of a
        // live slice, and a prefetch of any address neither faults
        // nor changes architectural state.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
    }
}

/// Touches one byte of every 64-byte line of `data`.
#[cfg(not(target_arch = "x86_64"))]
fn prefetch_lines(data: &[u8]) {
    for line in data.chunks(64) {
        std::hint::black_box(line[0]);
    }
}

/// Blocks held in process memory. Reads share the stored block,
/// which never changes once appended.
pub(crate) struct MemoryBackend {
    /// Indexed by file id: ids count up from 0 and are never reused,
    /// so a freed file leaves `None` behind.
    files: Vec<Option<Vec<Slot>>>,
}

impl MemoryBackend {
    pub(crate) fn new() -> Self {
        MemoryBackend { files: Vec::new() }
    }

    fn slots(&self, file: u64) -> Result<&Vec<Slot>> {
        usize::try_from(file)
            .ok()
            .and_then(|f| self.files.get(f)?.as_ref())
            .ok_or(StorageError::UnknownFile(file))
    }

    /// The entry of an id ever handed out, freed or not.
    fn entry(&mut self, file: u64) -> Option<&mut Option<Vec<Slot>>> {
        self.files.get_mut(usize::try_from(file).ok()?)
    }
}

impl BlockBackend for MemoryBackend {
    fn create_file(&mut self) -> u64 {
        self.files.push(Some(Vec::new()));
        self.files.len() as u64 - 1
    }

    fn free_file(&mut self, file: u64) {
        if let Some(entry) = self.entry(file) {
            *entry = None;
        }
    }

    fn num_blocks(&self, file: u64) -> Option<u64> {
        self.slots(file).ok().map(|b| b.len() as u64)
    }

    fn append(&mut self, file: u64, slot: Slot) -> Result<u64> {
        let slots = self
            .entry(file)
            .and_then(Option::as_mut)
            .ok_or(StorageError::UnknownFile(file))?;
        slots.push(slot);
        Ok(slots.len() as u64 - 1)
    }

    fn read(&self, file: u64, index: u64) -> Result<Slot> {
        let slots = self.slots(file)?;
        Ok(slots[position(slots.len(), file, index)?].clone())
    }

    /// Two passes, so the batch's misses overlap instead of chaining:
    /// the first reaches every block's header through its slot, the
    /// second hints the lines of the bytes each header points at.
    fn prefetch(&self, file: u64, indices: &[u64]) {
        let Ok(slots) = self.slots(file) else {
            return;
        };
        let wanted = || {
            indices
                .iter()
                .filter_map(|&i| slots.get(usize::try_from(i).ok()?))
        };
        std::hint::black_box(wanted().map(|(block, _)| block.len()).sum::<usize>());
        wanted().for_each(|(block, _)| prefetch_lines(block.bytes()));
    }
}

/// Blocks held in one OS file per logical file under a directory;
/// the digests, one per block, stay in memory. A file is created
/// only where none exists, so a second backend on the same directory
/// fails instead of truncating the first one's files; the files
/// still held are removed when the backend drops, since nothing in
/// them can be read without the digests.
pub(crate) struct FileBackend {
    dir: PathBuf,
    block_size: usize,
    /// Each id handed out and not freed: its open file and digests,
    /// or the error that kept it from opening, reported at first use.
    files: HashMap<u64, Result<(File, Vec<u64>)>>,
    next_file: u64,
}

impl FileBackend {
    /// Creates a backend writing `<dir>/eram-<id>.blk` files. The
    /// directory must exist and be writable.
    pub(crate) fn new(dir: &Path, block_size: usize) -> Result<Self> {
        if !dir.is_dir() {
            return Err(StorageError::io(format!(
                "{} is not a directory",
                dir.display()
            )));
        }
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            block_size,
            files: HashMap::new(),
            next_file: 0,
        })
    }

    fn path(&self, file: u64) -> PathBuf {
        self.dir.join(format!("eram-{file}.blk"))
    }

    /// The open file `file` and its digests, or why there is none.
    fn opened(&self, file: u64) -> Result<&(File, Vec<u64>)> {
        let entry = self
            .files
            .get(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        entry.as_ref().map_err(Clone::clone)
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        for (&file, entry) in &self.files {
            if entry.is_ok() {
                let _ = std::fs::remove_file(self.path(file));
            }
        }
    }
}

impl BlockBackend for FileBackend {
    fn create_file(&mut self) -> u64 {
        let id = self.next_file;
        self.next_file += 1;
        let path = self.path(id);
        let opened = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path);
        let entry = opened.map(|f| (f, Vec::new())).map_err(|e| {
            let message = format!("cannot create {}: {e}", path.display());
            StorageError::Io(IoFault::new(e.kind(), message))
        });
        self.files.insert(id, entry);
        id
    }

    fn free_file(&mut self, file: u64) {
        if let Some(Ok(_)) = self.files.remove(&file) {
            let _ = std::fs::remove_file(self.path(file));
        }
    }

    fn num_blocks(&self, file: u64) -> Option<u64> {
        self.opened(file)
            .ok()
            .map(|(_, digests)| digests.len() as u64)
    }

    fn append(&mut self, file: u64, slot: Slot) -> Result<u64> {
        use std::os::unix::fs::FileExt;
        let block_size = self.block_size as u64;
        let entry = self.files.get_mut(&file);
        let (f, digests) = entry
            .ok_or(StorageError::UnknownFile(file))?
            .as_mut()
            .map_err(|e| e.clone())?;
        let index = digests.len() as u64;
        f.write_all_at(slot.0.bytes(), index * block_size)?;
        digests.push(slot.1);
        Ok(index)
    }

    fn read(&self, file: u64, index: u64) -> Result<Slot> {
        use std::os::unix::fs::FileExt;
        let (f, digests) = self.opened(file)?;
        let digest = digests[position(digests.len(), file, index)?];
        let mut block = Block::zeroed(self.block_size);
        f.read_exact_at(block.bytes_mut(), index * self.block_size as u64)?;
        Ok((Arc::new(block), digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8, size: usize) -> Arc<Block> {
        let mut b = Block::zeroed(size);
        b.bytes_mut()[0] = tag;
        b.bytes_mut()[size - 1] = tag;
        Arc::new(b)
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eram-backend-test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn exercise(backend: &mut dyn BlockBackend, size: usize) {
        let f = backend.create_file();
        assert_eq!(backend.num_blocks(f), Some(0));
        for i in 0..5u8 {
            let idx = backend.append(f, (block(i, size), u64::from(i))).unwrap();
            assert_eq!(idx, u64::from(i));
        }
        assert_eq!(backend.num_blocks(f), Some(5));
        for i in 0..5u8 {
            let (b, digest) = backend.read(f, u64::from(i)).unwrap();
            assert_eq!(b.bytes()[0], i);
            assert_eq!(b.bytes()[size - 1], i);
            assert_eq!(digest, u64::from(i), "the digest stored with the block");
        }
        assert!(matches!(
            backend.read(f, 5),
            Err(StorageError::BlockOutOfRange { .. })
        ));
        backend.free_file(f);
        assert!(backend.num_blocks(f).is_none());
        assert!(matches!(
            backend.read(f, 0),
            Err(StorageError::UnknownFile(_))
        ));
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&mut MemoryBackend::new(), 64);
    }

    #[test]
    fn hostile_index_is_an_error_not_a_panic() {
        let mut b = MemoryBackend::new();
        let f = b.create_file();
        b.append(f, (block(1, 16), 0)).unwrap();
        assert!(matches!(
            b.read(f, u64::MAX),
            Err(StorageError::BlockOutOfRange { block, .. }) if block == u64::MAX
        ));
    }

    #[test]
    fn memory_backend_ids_are_positions_and_a_freed_one_stays_unknown() {
        let mut b = MemoryBackend::new();
        let (f, g) = (b.create_file(), b.create_file());
        b.append(g, (block(1, 16), 0)).unwrap();
        b.free_file(f);
        b.free_file(99);
        assert_eq!(b.create_file(), 2, "ids are never reused");
        for unknown in [f, 3, u64::MAX] {
            assert!(b.num_blocks(unknown).is_none());
            assert_eq!(
                b.append(unknown, (block(1, 16), 0)).unwrap_err(),
                StorageError::UnknownFile(unknown)
            );
            assert_eq!(
                b.read(unknown, 0).unwrap_err(),
                StorageError::UnknownFile(unknown)
            );
            b.prefetch(unknown, &[0, 1]);
        }
        b.prefetch(g, &[]);
        b.prefetch(g, &[0, 1, u64::MAX]);
        assert_eq!(b.read(g, 0).unwrap().0.bytes()[0], 1);
    }

    #[test]
    fn file_backend_contract() {
        let dir = temp_dir("contract");
        exercise(&mut FileBackend::new(&dir, 64).unwrap(), 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_removes_files_on_free() {
        let dir = temp_dir("free");
        let mut b = FileBackend::new(&dir, 32).unwrap();
        let f = b.create_file();
        b.append(f, (block(1, 32), 0)).unwrap();
        let path = dir.join(format!("eram-{f}.blk"));
        assert!(path.exists());
        b.free_file(f);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_rejects_missing_dir() {
        let missing = std::env::temp_dir().join("eram-definitely-missing-xyz");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(FileBackend::new(&missing, 32).is_err());
    }
}
