//! # eram-storage
//!
//! Block-based storage substrate for the ERAM time-constrained query
//! engine — a Rust reproduction of the prototype DBMS from Hou,
//! Özsoyoğlu & Taneja, *"Processing Aggregate Relational Queries with
//! Hard Time Constraints"*, SIGMOD 1989.
//!
//! The paper's algorithms touch storage exclusively through **disk
//! blocks**: a block is both the unit of I/O cost and the unit of
//! cluster sampling ("a disk block is taken as a sample unit"). This
//! crate provides exactly that interface:
//!
//! * [`Schema`] / [`Value`] / [`Tuple`] — fixed-width tuple layout
//!   (the paper's experiments use 200-byte tuples in 1 KB blocks,
//!   5 tuples per block);
//! * [`Block`] — a fixed-size page of encoded tuples;
//! * [`HeapFile`] — an unordered file of blocks holding one relation
//!   instance or one temporary (intermediate) result;
//! * [`Disk`] — the block store. Every block read/write and every
//!   charged CPU step advances a [`Clock`];
//! * [`Clock`] — *simulated* ([`SimClock`]) or *wall* ([`WallClock`])
//!   time. The simulated clock plus a [`DeviceProfile`] cost model
//!   reproduces the 1989 SUN 3/60 timing regime deterministically, so
//!   the paper's 200-run experiment sweeps run in milliseconds while
//!   preserving every time-control decision;
//! * [`Deadline`] — a time quota measured against a clock, used by the
//!   executor to implement hard time constraints;
//! * [`FaultPlan`] — seeded, deterministic fault injection (transient
//!   read errors, permanent bit rot caught by per-block checksums,
//!   latency spikes) so the hard-deadline contract can be tested under
//!   storage failure.
//!
//! The crate is self-contained (no I/O beyond an optional file-backed
//! block store) and is the bottom layer of the workspace:
//! `storage ← relalg ← sampling ← core ← bench`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod block;
pub mod cache;
pub mod clock;
pub mod columnar;
pub mod cost;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod ingest;
pub mod json;
pub mod rng;
pub mod schema;
pub mod sync;
pub mod tuple;

pub use block::{Block, BlockId, BLOCK_SIZE};
pub use cache::BlockCache;
pub use clock::{Clock, Deadline, SimClock, WallClock};
pub use columnar::{ColumnData, ColumnarBlock};
pub use cost::{DeviceOp, DeviceProfile};
pub use disk::{Disk, DiskStats, FileId};
pub use error::{IoFault, StorageError};
pub use fault::FaultPlan;
pub use heap::HeapFile;
pub use ingest::{read_tuples, IngestFormat};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, SeedSeq};
pub use schema::{parse_schema_spec, ColumnType, Schema};
pub use sync::Mutex;
pub use tuple::{Tuple, Value};

/// Convenient crate-wide result type.
pub type Result<T> = std::result::Result<T, StorageError>;
