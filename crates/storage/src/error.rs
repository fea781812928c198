//! Error type for the storage layer.
//!
//! Storage faults fall into two operationally distinct classes:
//!
//! * **Transient** faults (interrupted reads, timeouts) that a retry
//!   policy may recover from by re-issuing the I/O.
//! * **Permanent** faults (corrupt blocks, out-of-range indices,
//!   missing files) where retrying cannot help and the caller must
//!   degrade — drop the cluster, renormalize the estimator, or abort.
//!
//! [`StorageError::is_transient`] encodes that classification so the
//! executor's retry policy never has to string-match error messages.

use std::fmt;
use std::sync::Arc;

/// Structured I/O failure: the [`std::io::ErrorKind`] is retained so
/// callers can classify the fault, and the original error (when one
/// exists) is reachable through [`std::error::Error::source`].
#[derive(Debug, Clone)]
pub struct IoFault {
    /// Machine-readable failure class.
    pub kind: std::io::ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Original OS-level error, if this fault wraps one.
    source: Option<Arc<std::io::Error>>,
}

impl IoFault {
    /// Creates a fault with an explicit kind and no underlying OS
    /// error (used by fault injection and validation paths).
    pub fn new(kind: std::io::ErrorKind, message: impl Into<String>) -> Self {
        IoFault {
            kind,
            message: message.into(),
            source: None,
        }
    }
}

// Equality ignores the wrapped source: two faults are the same fault
// if they have the same kind and message. This keeps `StorageError`
// comparable in tests even though `std::io::Error` is not `PartialEq`.
impl PartialEq for IoFault {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.message == other.message
    }
}

impl Eq for IoFault {}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.message, self.kind)
    }
}

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A block index was outside the file's allocated range.
    BlockOutOfRange {
        /// File that was accessed.
        file: u64,
        /// Requested block index.
        block: u64,
        /// Number of blocks actually allocated.
        len: u64,
    },
    /// A file id did not name an allocated file.
    UnknownFile(u64),
    /// A block's content failed checksum verification on read.
    Corrupt {
        /// File the corrupt block belongs to.
        file: u64,
        /// Index of the corrupt block within the file.
        block: u64,
    },
    /// A tuple did not match the schema it was encoded/decoded with.
    SchemaMismatch(String),
    /// A tuple is too large for a block under the given schema.
    TupleTooLarge {
        /// Encoded tuple size in bytes.
        tuple_size: usize,
        /// Block capacity in bytes.
        block_size: usize,
    },
    /// A string value exceeded the fixed column width.
    StringTooLong {
        /// Column width in bytes.
        width: usize,
        /// Actual string length in bytes.
        len: usize,
    },
    /// Underlying file-backed store failed.
    Io(IoFault),
}

impl StorageError {
    /// Builds an [`StorageError::Io`] with kind
    /// [`std::io::ErrorKind::Other`] from a plain message.
    pub fn io(message: impl Into<String>) -> Self {
        StorageError::Io(IoFault::new(std::io::ErrorKind::Other, message))
    }

    /// The same error with `file` as the file it names. A backend
    /// reports the physical id it was asked for; the caller of a
    /// [`crate::Disk`] lane view knows the file by another.
    pub(crate) fn naming_file(self, file: u64) -> Self {
        match self {
            StorageError::BlockOutOfRange { block, len, .. } => {
                StorageError::BlockOutOfRange { file, block, len }
            }
            StorageError::UnknownFile(_) => StorageError::UnknownFile(file),
            other => other,
        }
    }

    /// True if retrying the failed operation may succeed.
    ///
    /// Only I/O faults whose kind signals a scheduling or timing
    /// hiccup are transient; corruption, range errors, and schema
    /// errors are permanent by construction.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(fault) => matches!(
                fault.kind,
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BlockOutOfRange { file, block, len } => write!(
                f,
                "block {block} out of range for file {file} ({len} blocks allocated)"
            ),
            StorageError::UnknownFile(id) => write!(f, "unknown file id {id}"),
            StorageError::Corrupt { file, block } => {
                write!(f, "checksum mismatch reading block {block} of file {file}")
            }
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::TupleTooLarge {
                tuple_size,
                block_size,
            } => write!(
                f,
                "tuple of {tuple_size} bytes does not fit in a {block_size}-byte block"
            ),
            StorageError::StringTooLong { width, len } => {
                write!(
                    f,
                    "string of {len} bytes exceeds fixed column width {width}"
                )
            }
            StorageError::Io(fault) => write!(f, "storage I/O error: {fault}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(fault) => fault
                .source
                .as_ref()
                .map(|e| e.as_ref() as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(IoFault {
            kind: e.kind(),
            message: e.to_string(),
            source: Some(Arc::new(e)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_is_informative() {
        let e = StorageError::BlockOutOfRange {
            file: 3,
            block: 9,
            len: 4,
        };
        let s = e.to_string();
        assert!(s.contains("block 9"));
        assert!(s.contains("file 3"));
        assert!(s.contains("4 blocks"));
    }

    #[test]
    fn io_error_converts_and_keeps_kind() {
        let io = std::io::Error::new(std::io::ErrorKind::TimedOut, "boom");
        let e: StorageError = io.into();
        match &e {
            StorageError::Io(fault) => {
                assert_eq!(fault.kind, std::io::ErrorKind::TimedOut);
                assert!(fault.message.contains("boom"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(e.is_transient());
    }

    #[test]
    fn source_reaches_the_original_io_error() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StorageError = io.into();
        let src = e.source().expect("io-backed fault has a source");
        assert!(src.to_string().contains("gone"));
        // Synthetic faults have no source.
        assert!(StorageError::io("synthetic").source().is_none());
    }

    #[test]
    fn transience_classification() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::TimedOut,
            std::io::ErrorKind::WouldBlock,
        ] {
            let e = StorageError::Io(IoFault::new(kind, "flaky"));
            assert!(e.is_transient(), "{kind:?} should be transient");
        }
        assert!(!StorageError::io("other").is_transient());
        assert!(!StorageError::Corrupt { file: 0, block: 0 }.is_transient());
        assert!(!StorageError::UnknownFile(1).is_transient());
        assert!(!StorageError::BlockOutOfRange {
            file: 0,
            block: 1,
            len: 1
        }
        .is_transient());
    }

    #[test]
    fn io_fault_equality_ignores_source() {
        let with_source: StorageError = std::io::Error::other("boom").into();
        let without = StorageError::Io(IoFault::new(std::io::ErrorKind::Other, "boom"));
        assert_eq!(with_source, without);
    }

    #[test]
    fn corrupt_display_names_the_block() {
        let e = StorageError::Corrupt { file: 7, block: 42 };
        let s = e.to_string();
        assert!(s.contains("block 42"));
        assert!(s.contains("file 7"));
    }
}
