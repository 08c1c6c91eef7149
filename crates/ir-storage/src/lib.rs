//! # ir-storage
//!
//! Page-based storage substrate for the immutable-region stack.
//!
//! Section 3 of the paper states the physical design: *"we create an inverted
//! list `L_j` for each dimension [...] sorted in decreasing `d_{αj}` order.
//! The inverted lists and the external file of tuples are stored on disk."*
//! Section 7 then reports I/O cost as a primary metric. This crate provides
//! that substrate:
//!
//! * [`page`] / [`pagestore`] — fixed-size pages backed by an in-memory
//!   "disk" ([`MemPageStore`]) or a real file accessed with positioned reads
//!   ([`FilePageStore`]), every frame sealed by [`checksum`],
//! * [`buffer`] — an O(1) exact-LRU buffer pool that every access goes
//!   through, with logical/physical read accounting and a bounded
//!   [`RetryPolicy`] that heals transient device faults invisibly,
//! * [`fault`] — a deterministic fault-injection wrapper
//!   ([`FaultInjectingPageStore`]) driven by a serializable [`FaultPlan`],
//!   used by the chaos suite,
//! * [`stats`] — [`IoStatsSnapshot`], the one counter set of page accesses:
//!   the buffer pool's lifetime totals (the only home of device reads) and
//!   the tally each unit of work (cursor, TA run, evaluator, maintenance
//!   batch) owns, so a report's I/O is the sum of what its units read,
//! * [`inverted`] — the per-dimension inverted lists with resumable
//!   sequential cursors (TA's *sorted access*),
//! * [`tuplestore`] — the external tuple file with random access by tuple id
//!   (TA's *random access*),
//! * [`index`] — [`TopKIndex`], the façade that builds all of the above from
//!   an in-memory [`ir_types::Dataset`] and is what the query algorithms
//!   operate on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod checksum;
pub mod fault;
pub mod index;
pub mod inverted;
pub mod maintain;
pub mod page;
pub mod pagestore;
pub mod snapshot;
pub mod stats;
pub mod tuplestore;

pub use buffer::{BufferPool, RetryPolicy};
pub use checksum::fnv1a64;
pub use fault::{CorruptionSpec, FaultInjectingPageStore, FaultPlan};
pub use index::{
    BackendKind, ColdStartInfo, ColdStartSource, IndexBuilder, StorageBackend, TopKIndex,
};
pub use inverted::{InvertedListCursor, ListDirectoryEntry};
pub use maintain::{AppliedUpdate, MaintenanceStatsSnapshot};
pub use page::{PageId, PAGE_SIZE};
pub use pagestore::{FilePageStore, MemPageStore, PageStore};
pub use snapshot::SnapshotSummary;
pub use stats::IoStatsSnapshot;
pub use tuplestore::TupleDirectoryEntry;
