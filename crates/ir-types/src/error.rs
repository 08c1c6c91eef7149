//! Error type shared across the workspace.
//!
//! The workspace avoids panicking on recoverable conditions (malformed
//! queries, out-of-range values, storage failures) and instead threads a
//! single [`IrError`] enum through the public APIs, from the page store up
//! to the serving engine and the subscription fleet. The engine's own
//! conditions — an empty dataset, a failed snapshot save or open — are
//! variants here too; a bad serving setting is [`IrError::InvalidConfig`].

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Convenient result alias used throughout the workspace.
pub type IrResult<T> = Result<T, IrError>;

/// Errors produced by the immutable-region stack.
#[derive(Debug)]
pub enum IrError {
    /// A coordinate or weight was outside the `[0, 1]` domain required by the
    /// paper's data model.
    ValueOutOfRange {
        /// Human readable description of the offending entity.
        what: String,
        /// The value that was rejected.
        value: f64,
    },
    /// A query referenced a dimension that does not exist in the dataset.
    UnknownDimension {
        /// The offending dimension index.
        dim: u32,
        /// Number of dimensions in the dataset.
        dimensionality: u32,
    },
    /// A tuple id was not present in the dataset / tuple store.
    UnknownTuple {
        /// The offending tuple index.
        tuple: u32,
    },
    /// The query has no dimension with a strictly positive weight.
    EmptyQuery,
    /// `k` was zero or exceeded the dataset cardinality.
    InvalidK {
        /// Requested result size.
        k: usize,
        /// Dataset cardinality.
        cardinality: usize,
    },
    /// A sparse vector listed the same dimension twice.
    DuplicateDimension {
        /// The duplicated dimension index.
        dim: u32,
    },
    /// Underlying storage failure (page store, file I/O, serialization).
    Storage(String),
    /// Wrapper around `std::io::Error` raised by the disk-backed page store.
    Io(io::Error),
    /// Invalid configuration of an algorithm or generator.
    InvalidConfig(String),
    /// A page access named a page the store has never allocated.
    PageOutOfBounds {
        /// The requested page index.
        page: u32,
        /// Number of pages the store holds.
        num_pages: u32,
    },
    /// A physical page failed its checksum (or a page file failed its header
    /// validation): the stored bytes are not what was written.
    Corruption {
        /// The corrupted page, when the failure is attributable to one
        /// (`None` for file-level damage such as a bad header).
        page: Option<u32>,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A worker thread panicked while executing a job; the panic was caught
    /// at the driver boundary and the remaining jobs were unaffected.
    WorkerPanicked {
        /// Which job panicked (e.g. `"query 3"` or `"dimension 1"`).
        job: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A transient storage fault persisted through every allowed retry.
    RetryExhausted {
        /// How many attempts were made (including the first).
        attempts: u32,
        /// The transient error observed on the final attempt.
        source: Box<IrError>,
    },
    /// An engine was built over a dataset (or snapshot) with no tuples —
    /// no query can be answered.
    EmptyDataset,
    /// Saving a snapshot failed; the directory is named so an operator can
    /// tell a permissions/space problem from a device fault.
    SnapshotSave {
        /// Directory the snapshot was being written into.
        dir: PathBuf,
        /// The underlying storage error.
        source: Box<IrError>,
    },
    /// Opening a snapshot failed — a missing, foreign, corrupt or
    /// version-bumped snapshot file, or a device fault during the trailer
    /// read.
    SnapshotOpen {
        /// Directory the snapshot was being opened from.
        dir: PathBuf,
        /// The underlying storage error.
        source: Box<IrError>,
    },
}

impl IrError {
    /// Whether this error is *transient*: the same operation may well
    /// succeed if simply retried (interrupted syscalls, timeouts,
    /// momentarily unavailable devices). The buffer pool's `RetryPolicy`
    /// (in `ir-storage`) only retries errors for which this returns `true`;
    /// everything else —
    /// corruption, out-of-bounds accesses, permanent device failures — is
    /// surfaced immediately.
    pub fn is_transient(&self) -> bool {
        match self {
            IrError::Io(err) => matches!(
                err.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ValueOutOfRange { what, value } => {
                write!(f, "{what} has value {value} outside the [0, 1] domain")
            }
            IrError::UnknownDimension {
                dim,
                dimensionality,
            } => write!(
                f,
                "dimension {dim} is out of range for a dataset with {dimensionality} dimensions"
            ),
            IrError::UnknownTuple { tuple } => write!(f, "tuple {tuple} does not exist"),
            IrError::EmptyQuery => write!(f, "query has no positive weight"),
            IrError::InvalidK { k, cardinality } => write!(
                f,
                "k = {k} is invalid for a dataset with {cardinality} tuples"
            ),
            IrError::DuplicateDimension { dim } => {
                write!(
                    f,
                    "dimension {dim} appears more than once in a sparse vector"
                )
            }
            IrError::Storage(msg) => write!(f, "storage error: {msg}"),
            IrError::Io(err) => write!(f, "I/O error: {err}"),
            IrError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            IrError::PageOutOfBounds { page, num_pages } => {
                write!(
                    f,
                    "page {page} is out of bounds (store has {num_pages} pages)"
                )
            }
            IrError::Corruption { page, detail } => match page {
                Some(page) => write!(f, "corruption detected on page {page}: {detail}"),
                None => write!(f, "corruption detected: {detail}"),
            },
            IrError::WorkerPanicked { job, message } => {
                write!(f, "worker panicked while running {job}: {message}")
            }
            IrError::RetryExhausted { attempts, source } => write!(
                f,
                "transient storage fault persisted through {attempts} attempts: {source}"
            ),
            IrError::EmptyDataset => write!(f, "engine has no tuples to query"),
            IrError::SnapshotSave { dir, source } => {
                write!(f, "saving snapshot to {}: {source}", dir.display())
            }
            IrError::SnapshotOpen { dir, source } => {
                write!(f, "opening snapshot from {}: {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for IrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IrError::Io(err) => Some(err),
            IrError::RetryExhausted { source, .. }
            | IrError::SnapshotSave { source, .. }
            | IrError::SnapshotOpen { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for IrError {
    fn from(err: io::Error) -> Self {
        IrError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = IrError::UnknownDimension {
            dim: 12,
            dimensionality: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("12"));
        assert!(msg.contains('4'));
    }

    #[test]
    fn io_error_converts_and_chains_source() {
        let err: IrError = io::Error::new(io::ErrorKind::NotFound, "missing page file").into();
        assert!(err.to_string().contains("missing page file"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn transience_is_limited_to_retryable_io_kinds() {
        let transient: IrError = io::Error::new(io::ErrorKind::Interrupted, "try again").into();
        assert!(transient.is_transient());
        let permanent: IrError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(!permanent.is_transient());
        assert!(!IrError::Storage("injected device failure".into()).is_transient());
        assert!(!IrError::Corruption {
            page: Some(3),
            detail: "checksum mismatch".into(),
        }
        .is_transient());
        // An exhausted retry is final even though its source was transient.
        let exhausted = IrError::RetryExhausted {
            attempts: 3,
            source: Box::new(transient),
        };
        assert!(!exhausted.is_transient());
    }

    #[test]
    fn corruption_display_names_the_page_when_known() {
        let with_page = IrError::Corruption {
            page: Some(12),
            detail: "checksum mismatch".to_string(),
        };
        assert!(with_page.to_string().contains("page 12"));
        assert!(with_page.to_string().contains("checksum mismatch"));
        let file_level = IrError::Corruption {
            page: None,
            detail: "bad magic".to_string(),
        };
        assert!(!file_level.to_string().contains("page"));
        assert!(file_level.to_string().contains("bad magic"));
    }

    #[test]
    fn worker_panicked_display_names_the_job() {
        let err = IrError::WorkerPanicked {
            job: "query 3".to_string(),
            message: "boom".to_string(),
        };
        let msg = err.to_string();
        assert!(msg.contains("query 3"));
        assert!(msg.contains("boom"));
    }

    #[test]
    fn retry_exhausted_chains_its_source() {
        let source: IrError = io::Error::new(io::ErrorKind::Interrupted, "flaky read").into();
        let err = IrError::RetryExhausted {
            attempts: 4,
            source: Box::new(source),
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains("flaky read"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn page_out_of_bounds_display_mentions_both_sides() {
        let err = IrError::PageOutOfBounds {
            page: 9,
            num_pages: 4,
        };
        assert!(err.to_string().contains('9'));
        assert!(err.to_string().contains('4'));
    }

    #[test]
    fn value_out_of_range_mentions_value() {
        let err = IrError::ValueOutOfRange {
            what: "coordinate of d3 in dim2".to_string(),
            value: 1.25,
        };
        assert!(err.to_string().contains("1.25"));
    }
}
