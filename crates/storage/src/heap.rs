//! Heap files: unordered files of fixed-width tuples.
//!
//! A [`HeapFile`] holds one relation instance or one intermediate
//! (temporary) result as a sequence of blocks, `blocking_factor`
//! tuples per block. It is the object the cluster sampling plan draws
//! from: "disk blocks are randomly chosen from each operand relation".
//!
//! A write encodes each record into the file's open page the moment it
//! is appended ([`HeapFile::append`] borrows the tuple, so a caller
//! that keeps its tuples copies none), and the page goes to the disk
//! when it fills or at [`HeapFile::flush`]. The page is allocated at
//! the first append after a write, so a handle that is only read never
//! holds one.

use std::borrow::Borrow;
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
    /// The page the next record is encoded into; `None` until the
    /// first append after a write.
    page: Option<Block>,
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
            page: None,
            charged_writes,
        }
    }

    /// Bulk-loads a base relation without charging the clock.
    pub fn load(
        disk: Arc<Disk>,
        schema: Schema,
        tuples: impl IntoIterator<Item = impl Borrow<Tuple>>,
    ) -> Result<Self> {
        let mut hf = HeapFile::create(disk, schema, false);
        hf.append_all(tuples)?;
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
    ///
    /// The record is encoded into the open page at once, so a tuple
    /// that does not match the schema is refused here and leaves the
    /// file as it was: the next tuple takes its slot. So is any tuple
    /// after a [`HeapFile::flush`] that wrote a partial page
    /// ([`StorageError::AppendAfterFlush`]): its slot is in a block
    /// already written.
    pub fn append(&mut self, t: impl Borrow<Tuple>) -> Result<()> {
        let rec = self.schema.record_size();
        let slot = usize::try_from(self.n_tuples % self.blocking_factor as u64).expect("fits");
        if slot != 0 && self.page.is_none() {
            return Err(StorageError::AppendAfterFlush { file: self.file.0 });
        }
        let page = self
            .page
            .get_or_insert_with(|| Block::zeroed(self.disk.block_size()));
        self.schema.encode_into(
            t.borrow(),
            &mut page.bytes_mut()[slot * rec..(slot + 1) * rec],
        )?;
        self.n_tuples += 1;
        if slot + 1 == self.blocking_factor {
            self.write_page()?;
        }
        Ok(())
    }

    /// Appends many tuples, owned or borrowed.
    pub fn append_all(
        &mut self,
        tuples: impl IntoIterator<Item = impl Borrow<Tuple>>,
    ) -> Result<()> {
        for t in tuples {
            self.append(t)?;
        }
        Ok(())
    }

    /// Writes out a partially filled tail page. Must be called before
    /// reading a file that was just written. A flush that writes a
    /// partial page ends the file's writes: a later append is refused
    /// and a second flush writes nothing. When the tuples fill whole
    /// blocks there is no page to write, and appends may go on.
    pub fn flush(&mut self) -> Result<()> {
        if self.n_tuples % self.blocking_factor as u64 != 0 {
            self.write_page()?;
        }
        Ok(())
    }

    /// Appends the open page, if any, to the file.
    fn write_page(&mut self) -> Result<()> {
        if let Some(page) = self.page.take() {
            if self.charged_writes {
                self.disk.append_block(self.file, page)?;
            } else {
                self.disk.append_block_uncharged(self.file, page)?;
            }
        }
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
    fn append_after_a_partial_flush_is_refused() {
        let (_, disk) = test_disk();
        let mut hf = HeapFile::create(disk, int_schema(), false);
        hf.append_all((0..3).map(|i| int_tuple(i, 0))).unwrap();
        hf.flush().unwrap();
        assert_eq!(
            hf.append(int_tuple(3, 0)),
            Err(StorageError::AppendAfterFlush {
                file: hf.file_id().0
            })
        );
        hf.flush().unwrap();
        assert_eq!((hf.num_tuples(), hf.num_blocks()), (3, 1));
        let keys: Vec<Value> = hf
            .scan_uncharged()
            .unwrap()
            .iter()
            .map(|t| t.values()[0].clone())
            .collect();
        assert_eq!(keys, [0, 1, 2].map(Value::Int));
    }

    #[test]
    fn append_after_a_flush_of_whole_blocks_goes_on() {
        let (_, disk) = test_disk();
        let mut hf = HeapFile::create(disk, int_schema(), false);
        hf.append_all((0..5).map(|i| int_tuple(i, 0))).unwrap();
        hf.flush().unwrap();
        hf.append_all((5..7).map(|i| int_tuple(i, 0))).unwrap();
        hf.flush().unwrap();
        let expected: Vec<Tuple> = (0..7).map(|i| int_tuple(i, 0)).collect();
        assert_eq!(hf.scan_uncharged().unwrap(), expected);
    }

    #[test]
    fn append_rejects_schema_violation() {
        let (_, disk) = test_disk();
        let mut hf = HeapFile::create(disk, int_schema(), false);
        let bad = Tuple::new(vec![Value::Bool(true), Value::Int(0)]);
        assert!(hf.append(bad).is_err());
        assert_eq!(hf.num_tuples(), 0);
    }

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("x", ColumnType::Float),
            ("name", ColumnType::Str { width: 6 }),
        ])
        .padded_to(200)
    }

    fn mixed_tuple(i: i64) -> Tuple {
        let name = "abcdef"[..(i % 7) as usize].to_string();
        Tuple::new(vec![
            Value::Int(i),
            Value::Float(i as f64 / 3.0),
            Value::Str(name),
        ])
    }

    /// Every block of `hf`, read back without charging the clock.
    fn blocks_of(disk: &Disk, hf: &HeapFile) -> Vec<Block> {
        (0..hf.num_blocks())
            .map(|b| disk.read_block_uncharged(hf.file_id(), b).unwrap())
            .collect()
    }

    #[test]
    fn borrowed_and_owned_appends_write_identical_blocks() {
        let (_, disk) = test_disk();
        let tuples: Vec<Tuple> = (0..13).map(mixed_tuple).collect();
        let mut borrowed = HeapFile::create(disk.clone(), mixed_schema(), true);
        let mut owned = HeapFile::create(disk.clone(), mixed_schema(), true);
        for t in &tuples {
            borrowed.append(t).unwrap();
            owned.append(t.clone()).unwrap();
        }
        borrowed.flush().unwrap();
        owned.flush().unwrap();
        let (a, b) = (blocks_of(&disk, &borrowed), blocks_of(&disk, &owned));
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
        let schema = mixed_schema();
        let mut expected = vec![0u8; schema.record_size()];
        for (index, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.checksum(), y.checksum());
            let records = borrowed.records(index as u64, x);
            for (i, record) in records.enumerate() {
                schema
                    .encode_into(&tuples[index * 5 + i], &mut expected)
                    .unwrap();
                assert_eq!(record, &expected[..], "record {i} of block {index}");
            }
        }
    }

    #[test]
    fn a_refused_tuple_leaves_the_file_as_it_was() {
        let (_, disk) = test_disk();
        let good: Vec<Tuple> = (0..7).map(mixed_tuple).collect();
        let bad = [
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Str("a".into())]),
            Tuple::new(vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Str("seven!!".into()),
            ]),
        ];
        let clean = HeapFile::load(disk.clone(), mixed_schema(), &good).unwrap();
        let mut hf = HeapFile::create(disk.clone(), mixed_schema(), false);
        for (i, t) in good.iter().enumerate() {
            // Refusals land on an empty page, mid-page and on the
            // last slot of a page.
            if [0, 2, 4].contains(&i) {
                for b in &bad {
                    let (tuples, blocks) = (hf.num_tuples(), hf.num_blocks());
                    assert!(hf.append(b).is_err());
                    assert_eq!((hf.num_tuples(), hf.num_blocks()), (tuples, blocks));
                }
            }
            hf.append(t).unwrap();
        }
        hf.flush().unwrap();
        assert_eq!(blocks_of(&disk, &hf), blocks_of(&disk, &clean));
        assert_eq!(hf.scan_uncharged().unwrap(), good);
    }

    #[test]
    fn flush_writes_a_partial_page_exactly_once() {
        let (_, disk) = test_disk();
        let mut hf = HeapFile::create(disk.clone(), int_schema(), true);
        hf.append_all((0..7).map(|i| int_tuple(i, 0))).unwrap();
        assert_eq!(disk.stats().block_writes, 1, "the full page, at once");
        hf.flush().unwrap();
        assert_eq!(disk.stats().block_writes, 2);
        hf.flush().unwrap();
        assert_eq!(
            disk.stats().block_writes,
            2,
            "a second flush writes nothing"
        );
        assert_eq!(hf.scan_uncharged().unwrap().len(), 7);
        // A file that ends on a full page has nothing left to flush.
        let mut full = HeapFile::create(disk.clone(), int_schema(), true);
        full.append_all((0..5).map(|i| int_tuple(i, 0))).unwrap();
        full.flush().unwrap();
        assert_eq!(disk.stats().block_writes, 3);
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
