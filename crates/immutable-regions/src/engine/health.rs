//! Cumulative health accounting of one engine.

use ir_storage::IoStatsSnapshot;
use ir_types::{IrError, IrResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative failure accounting shared by every handle onto one engine
/// (clones, [`IrEngine::with_config`](super::IrEngine::with_config) and
/// the handles the fleet holds). Interior-mutable so `&self` query paths
/// can record outcomes.
#[derive(Debug, Default)]
pub(super) struct EngineHealth {
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    worker_panics: AtomicU64,
    corruption_errors: AtomicU64,
    retries_exhausted: AtomicU64,
}

impl EngineHealth {
    /// Records one finished operation: success, or a failure classified by
    /// the storage-failure classes an operator alerts on.
    pub(super) fn record<T>(&self, result: &IrResult<T>) {
        let err = match result {
            Ok(_) => {
                self.queries_ok.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(err) => err,
        };
        self.queries_failed.fetch_add(1, Ordering::Relaxed);
        let class = match err {
            IrError::WorkerPanicked { .. } => &self.worker_panics,
            IrError::Corruption { .. } => &self.corruption_errors,
            IrError::RetryExhausted { .. } => &self.retries_exhausted,
            _ => return,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters, joined with the pool's retry counts from `io`.
    pub(super) fn snapshot(&self, io: &IoStatsSnapshot) -> EngineHealthSnapshot {
        EngineHealthSnapshot {
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            corruption_errors: self.corruption_errors.load(Ordering::Relaxed),
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            read_retries: io.read_retries,
            write_retries: io.write_retries,
        }
    }
}

/// A point-in-time view of an engine's cumulative health counters
/// ([`IrEngine::health`](super::IrEngine::health)).
///
/// The first five counters track engine *operations* (a batch counts once);
/// the retry counters come from the buffer pool's I/O accounting and count
/// individual retried page transfers. All counters are cumulative since the
/// engine was built, except the retry counters which
/// [`IrEngine::cold_start`](super::IrEngine::cold_start) resets along with
/// the rest of the I/O stats.
///
/// The engine counts only its own operations. What the layers above it do
/// is counted where it happens: fleet traffic and region survival in
/// [`FleetStats`](crate::fleet::FleetStats), applied updates in
/// [`IrEngine::maintenance_stats`](super::IrEngine::maintenance_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineHealthSnapshot {
    /// Operations (queries, batches, computations, update batches) that
    /// succeeded.
    pub queries_ok: u64,
    /// Operations that returned an error of any kind.
    pub queries_failed: u64,
    /// Failed operations whose error was [`IrError::WorkerPanicked`] — a
    /// contained panic, in a worker or caught at the engine boundary.
    pub worker_panics: u64,
    /// Failed operations whose error was [`IrError::Corruption`].
    pub corruption_errors: u64,
    /// Failed operations whose error was [`IrError::RetryExhausted`].
    pub retries_exhausted: u64,
    /// Page reads that needed at least one retry (transient faults healed
    /// invisibly by the pool's [`RetryPolicy`](ir_storage::RetryPolicy)).
    pub read_retries: u64,
    /// Page writes that needed at least one retry.
    pub write_retries: u64,
}
