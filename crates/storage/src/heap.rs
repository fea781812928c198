//! Heap files: unordered files of fixed-width tuples.
//!
//! A [`HeapFile`] holds one relation instance or one intermediate
//! (temporary) result as a sequence of blocks, `blocking_factor`
//! tuples per block. It is the object the cluster sampling plan draws
//! from: "disk blocks are randomly chosen from each operand relation".

use std::sync::Arc;

use crate::block::Block;
use crate::columnar::ColumnarBlock;
use crate::disk::{Disk, FileId};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::Result;

/// An unordered file of fixed-width tuples packed into blocks.
#[derive(Clone)]
pub struct HeapFile {
    disk: Arc<Disk>,
    file: FileId,
    schema: Arc<Schema>,
    blocking_factor: usize,
    n_tuples: u64,
    pending: Vec<Tuple>,
    charged_writes: bool,
}

impl HeapFile {
    /// Creates an empty heap file.
    ///
    /// `charged_writes` selects whether appends consume simulated time
    /// (temporary results produced *during* a query) or not (loading
    /// base relations before the quota is armed).
    ///
    /// # Panics
    /// Panics if a record does not fit in one block.
    pub fn create(disk: Arc<Disk>, schema: Schema, charged_writes: bool) -> Self {
        let blocking_factor = schema.blocking_factor(disk.block_size());
        let file = disk.create_file();
        HeapFile {
            disk,
            file,
            schema: Arc::new(schema),
            blocking_factor,
            n_tuples: 0,
            pending: Vec::with_capacity(blocking_factor),
            charged_writes,
        }
    }

    /// Bulk-loads a base relation without charging the clock.
    pub fn load<I: IntoIterator<Item = Tuple>>(
        disk: Arc<Disk>,
        schema: Schema,
        tuples: I,
    ) -> Result<Self> {
        let mut hf = HeapFile::create(disk, schema, false);
        for t in tuples {
            hf.append(t)?;
        }
        hf.flush()?;
        Ok(hf)
    }

    /// Re-points this handle at another view of the same disk (the
    /// file id is preserved — it must resolve on `disk`'s backend).
    /// The executor re-bases a catalog relation onto a per-job lane
    /// view this way, so the job's draws charge its own clock while
    /// reading the shared backend bytes.
    pub fn with_disk(mut self, disk: Arc<Disk>) -> Self {
        self.disk = disk;
        self
    }

    /// The schema of the stored tuples.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The file id on the disk.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Tuples per block.
    pub fn blocking_factor(&self) -> usize {
        self.blocking_factor
    }

    /// Total tuples appended (including any unflushed tail).
    pub fn num_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Number of blocks the file occupies once flushed.
    pub fn num_blocks(&self) -> u64 {
        let bf = self.blocking_factor as u64;
        self.n_tuples.div_ceil(bf)
    }

    /// Number of tuples stored in block `index`.
    pub fn tuples_in_block(&self, index: u64) -> u64 {
        let bf = self.blocking_factor as u64;
        let start = index * bf;
        if start >= self.n_tuples {
            0
        } else {
            (self.n_tuples - start).min(bf)
        }
    }

    /// Appends a tuple, writing out a block whenever one fills.
    pub fn append(&mut self, t: Tuple) -> Result<()> {
        self.schema.check_tuple(&t)?;
        self.pending.push(t);
        self.n_tuples += 1;
        if self.pending.len() == self.blocking_factor {
            self.write_pending()?;
        }
        Ok(())
    }

    /// Appends many tuples.
    pub fn append_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Result<()> {
        for t in tuples {
            self.append(t)?;
        }
        Ok(())
    }

    /// Writes out any partially filled tail block. Must be called
    /// before reading a file that was just written.
    pub fn flush(&mut self) -> Result<()> {
        if !self.pending.is_empty() {
            self.write_pending()?;
        }
        Ok(())
    }

    fn write_pending(&mut self) -> Result<()> {
        let mut block = Block::zeroed(self.disk.block_size());
        let rec = self.schema.record_size();
        for (i, t) in self.pending.iter().enumerate() {
            self.schema
                .encode_into(t, &mut block.bytes_mut()[i * rec..(i + 1) * rec])?;
        }
        if self.charged_writes {
            self.disk.append_block(self.file, block)?;
        } else {
            self.disk.append_block_uncharged(self.file, block)?;
        }
        self.pending.clear();
        Ok(())
    }

    /// Decodes the tuples stored in `block`, which must be block
    /// `index` of this file. Pure CPU work: charges nothing and
    /// touches no shared state.
    pub fn decode_block(&self, index: u64, block: &Block) -> Result<Vec<Tuple>> {
        let records = self.records(index, block);
        let mut out = Vec::with_capacity(records.len());
        for record in records {
            out.push(self.schema.decode(record)?);
        }
        Ok(out)
    }

    /// The encoded records stored in `block`, which must be block
    /// `index` of this file, borrowed in place and in storage order:
    /// one [`Schema::record_size`]-byte slice per tuple, nothing
    /// decoded and nothing copied.
    pub fn records<'a>(
        &self,
        index: u64,
        block: &'a Block,
    ) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
        let n = usize::try_from(self.tuples_in_block(index)).expect("fits usize");
        block
            .bytes()
            .chunks_exact(self.schema.record_size())
            .take(n)
    }

    /// Decodes the tuples stored in `block` into a per-column typed
    /// layout instead of row tuples. Same contract as
    /// [`HeapFile::decode_block`] — pure CPU — and `decode_block_columnar(i, b)?.to_tuples()` is exactly
    /// `decode_block(i, b)?`.
    pub fn decode_block_columnar(&self, index: u64, block: &Block) -> Result<ColumnarBlock> {
        let n = usize::try_from(self.tuples_in_block(index)).expect("fits usize");
        ColumnarBlock::decode(&self.schema, block.bytes(), n)
    }

    /// Fetches raw block `index`, charging one block read (or cache
    /// hit), without decoding. Pair with [`HeapFile::decode_block`] to
    /// split the charged fetch from the pure decode.
    pub fn read_block_raw(&self, index: u64) -> Result<Arc<Block>> {
        if index >= self.num_blocks() {
            return Err(StorageError::BlockOutOfRange {
                file: self.file.0,
                block: index,
                len: self.num_blocks(),
            });
        }
        self.disk.read_block(self.file, index)
    }

    /// Reads and decodes block `index`, charging one block read.
    pub fn read_block(&self, index: u64) -> Result<Vec<Tuple>> {
        let block = self.read_block_raw(index)?;
        self.decode_block(index, &block)
    }

    /// Reads and decodes block `index` without charging the clock.
    pub fn read_block_uncharged(&self, index: u64) -> Result<Vec<Tuple>> {
        if index >= self.num_blocks() {
            return Err(StorageError::BlockOutOfRange {
                file: self.file.0,
                block: index,
                len: self.num_blocks(),
            });
        }
        let block = self.disk.read_block_uncharged(self.file, index)?;
        self.decode_block(index, &block)
    }

    /// All tuples, read without charging the clock (ground truth).
    pub fn scan_uncharged(&self) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(usize::try_from(self.n_tuples).expect("fits"));
        for i in 0..self.num_blocks() {
            out.extend(self.read_block_uncharged(i)?);
        }
        Ok(out)
    }

    /// Releases the file's blocks. The heap file must not be used
    /// afterwards; intended for dropping temporaries between stages.
    pub fn free(self) {
        self.disk.free_file(self.file);
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("file", &self.file)
            .field("n_tuples", &self.n_tuples)
            .field("blocks", &self.num_blocks())
            .field("blocking_factor", &self.blocking_factor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, SimClock};
    use crate::cost::DeviceProfile;
    use crate::schema::ColumnType;
    use crate::tuple::Value;
    use std::time::Duration;

    fn test_disk() -> (Arc<SimClock>, Arc<Disk>) {
        let clock = Arc::new(SimClock::new());
        let disk = Disk::new(
            clock.clone(),
            DeviceProfile::sun_3_60().without_jitter(),
            11,
        );
        (clock, disk)
    }

    fn int_schema() -> Schema {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]).padded_to(200)
    }

    fn int_tuple(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn paper_geometry_5_tuples_per_block() {
        let (_, disk) = test_disk();
        let hf = HeapFile::load(disk, int_schema(), (0..10_000).map(|i| int_tuple(i, -i))).unwrap();
        assert_eq!(hf.blocking_factor(), 5);
        assert_eq!(hf.num_tuples(), 10_000);
        assert_eq!(hf.num_blocks(), 2_000);
        assert_eq!(hf.tuples_in_block(0), 5);
        assert_eq!(hf.tuples_in_block(1_999), 5);
    }

    #[test]
    fn round_trip_through_blocks() {
        let (_, disk) = test_disk();
        let tuples: Vec<Tuple> = (0..13).map(|i| int_tuple(i, i * 10)).collect();
        let hf = HeapFile::load(disk, int_schema(), tuples.clone()).unwrap();
        assert_eq!(hf.num_blocks(), 3);
        assert_eq!(hf.tuples_in_block(2), 3);
        assert_eq!(hf.scan_uncharged().unwrap(), tuples);
        assert_eq!(hf.read_block_uncharged(2).unwrap().len(), 3);
    }

    #[test]
    fn load_does_not_charge_but_reads_do() {
        let (clock, disk) = test_disk();
        let hf =
            HeapFile::load(disk.clone(), int_schema(), (0..25).map(|i| int_tuple(i, 0))).unwrap();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        hf.read_block(0).unwrap();
        assert_eq!(clock.elapsed(), disk.profile().block_read);
    }

    #[test]
    fn charged_temp_writes_advance_clock() {
        let (clock, disk) = test_disk();
        let mut hf = HeapFile::create(disk.clone(), int_schema(), true);
        hf.append_all((0..5).map(|i| int_tuple(i, 0))).unwrap();
        hf.flush().unwrap();
        assert_eq!(clock.elapsed(), disk.profile().block_write);
    }

    #[test]
    fn read_past_end_is_an_error() {
        let (_, disk) = test_disk();
        let hf = HeapFile::load(disk, int_schema(), (0..5).map(|i| int_tuple(i, 0))).unwrap();
        assert!(matches!(
            hf.read_block_uncharged(1),
            Err(StorageError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn append_rejects_schema_violation() {
        let (_, disk) = test_disk();
        let mut hf = HeapFile::create(disk, int_schema(), false);
        let bad = Tuple::new(vec![Value::Bool(true), Value::Int(0)]);
        assert!(hf.append(bad).is_err());
        assert_eq!(hf.num_tuples(), 0);
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let (_, disk) = test_disk();
        let hf = HeapFile::create(disk, int_schema(), false);
        assert_eq!(hf.num_blocks(), 0);
        assert_eq!(hf.tuples_in_block(0), 0);
        assert!(hf.scan_uncharged().unwrap().is_empty());
    }

    #[test]
    fn columnar_decode_equals_row_decode_including_partial_tail() {
        let (_, disk) = test_disk();
        let tuples: Vec<Tuple> = (0..13).map(|i| int_tuple(i, i * 10)).collect();
        let hf = HeapFile::load(disk.clone(), int_schema(), tuples).unwrap();
        for b in 0..hf.num_blocks() {
            let raw = disk.read_block_uncharged(hf.file_id(), b).unwrap();
            let rows = hf.decode_block(b, &raw).unwrap();
            let cols = hf.decode_block_columnar(b, &raw).unwrap();
            assert_eq!(cols.to_tuples(), rows, "layouts disagree at block {b}");
        }
    }

    #[test]
    fn free_releases_blocks() {
        let (_, disk) = test_disk();
        let hf =
            HeapFile::load(disk.clone(), int_schema(), (0..5).map(|i| int_tuple(i, 0))).unwrap();
        let id = hf.file_id();
        hf.free();
        assert!(disk.num_blocks(id).is_err());
    }
}
