//! The engine layer's error type.

use ir_types::IrError;
use std::fmt;
use std::path::PathBuf;

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// The unified error type of the engine layer.
///
/// The recoverable conditions a serving layer must distinguish get their own
/// typed variants (so callers can, e.g., reject a request instead of
/// retrying it); everything else is carried through as [`EngineError::Core`].
#[derive(Debug)]
pub enum EngineError {
    /// The engine was built over a dataset (or snapshot) with no tuples —
    /// no query can be answered.
    EmptyDataset,
    /// A query requested more result tuples than the dataset holds.
    KTooLarge {
        /// Requested result size.
        k: usize,
        /// Number of indexed tuples.
        cardinality: usize,
    },
    /// A query weighted a dimension the index does not know about.
    DimensionNotIndexed {
        /// The offending dimension index.
        dim: u32,
        /// Dimensionality of the indexed dataset.
        dimensionality: u32,
    },
    /// A query had no strictly positive weight (all weights zero or absent).
    ZeroWeightQuery,
    /// [`IrEngineBuilder::build`](super::IrEngineBuilder::build) was called
    /// without a dataset or snapshot.
    NoSource,
    /// [`IrEngine::save_snapshot`](super::IrEngine::save_snapshot) failed;
    /// the directory is named so an operator can tell a permissions/space
    /// problem from a device fault.
    SnapshotSave {
        /// Directory the snapshot was being written into.
        dir: PathBuf,
        /// The underlying storage error.
        source: IrError,
    },
    /// [`IrEngineBuilder::open_snapshot`](super::IrEngineBuilder::open_snapshot)
    /// failed — a missing, foreign, corrupt or version-bumped snapshot file,
    /// or a device fault during the trailer read.
    SnapshotOpen {
        /// Directory the snapshot was being opened from.
        dir: PathBuf,
        /// The underlying storage error.
        source: IrError,
    },
    /// A serving configuration was inconsistent (e.g. a bad fleet setting
    /// or a drift event for an unknown subscription).
    Policy(String),
    /// Any other error from the underlying stack (storage, TA, solvers).
    Core(IrError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyDataset => write!(f, "engine has no tuples to query"),
            EngineError::KTooLarge { k, cardinality } => write!(
                f,
                "k = {k} exceeds the {cardinality} tuples the engine indexes"
            ),
            EngineError::DimensionNotIndexed {
                dim,
                dimensionality,
            } => write!(
                f,
                "query dimension {dim} is not indexed (dataset has {dimensionality} dimensions)"
            ),
            EngineError::ZeroWeightQuery => {
                write!(f, "query has no dimension with a positive weight")
            }
            EngineError::NoSource => {
                write!(f, "engine builder needs a dataset or a snapshot")
            }
            EngineError::SnapshotSave { dir, source } => {
                write!(f, "saving snapshot to {}: {source}", dir.display())
            }
            EngineError::SnapshotOpen { dir, source } => {
                write!(f, "opening snapshot from {}: {source}", dir.display())
            }
            EngineError::Policy(msg) => write!(f, "invalid engine policy: {msg}"),
            EngineError::Core(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(err)
            | EngineError::SnapshotSave { source: err, .. }
            | EngineError::SnapshotOpen { source: err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<IrError> for EngineError {
    fn from(err: IrError) -> Self {
        match err {
            IrError::InvalidK { k, cardinality } => EngineError::KTooLarge { k, cardinality },
            IrError::UnknownDimension {
                dim,
                dimensionality,
            } => EngineError::DimensionNotIndexed {
                dim,
                dimensionality,
            },
            IrError::EmptyQuery => EngineError::ZeroWeightQuery,
            other => EngineError::Core(other),
        }
    }
}
