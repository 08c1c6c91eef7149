//! I/O accounting and the latency model used to report I/O cost.
//!
//! The paper's primary cost metrics (Section 7.1) are the number of evaluated
//! candidates, the I/O time and the CPU time. We account I/O at page
//! granularity in the buffer pool and convert *physical* page reads into a
//! simulated I/O time with a configurable per-page latency, defaulting to a
//! 2012-era magnetic-disk random read. Logical reads (buffer hits) are also
//! reported because they are the machine-independent part of the metric.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of per-worker statistic shards kept by a [`ShardedIoStats`]
/// (a power of two, so consecutive shard hints never collide for up to
/// `IO_STATS_SHARDS` concurrent workers).
pub const IO_STATS_SHARDS: usize = 64;

thread_local! {
    /// Shard chosen for the calling thread: an explicit hint set by a
    /// parallel driver, or lazily derived from the thread id.
    static SHARD_HINT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Pins the calling thread's I/O accounting to shard
/// `hint % IO_STATS_SHARDS` of every [`ShardedIoStats`] it touches.
///
/// Parallel drivers call this once per worker thread with a fresh hint so
/// each worker owns a private shard and its per-worker counters can be
/// read back with [`ShardedIoStats::thread_snapshot`]. Threads that never
/// call it fall back to a shard derived from their thread id.
pub fn set_thread_stats_shard(hint: usize) {
    SHARD_HINT.with(|h| h.set(Some(hint % IO_STATS_SHARDS)));
}

/// The shard index the calling thread records into.
pub fn thread_stats_shard() -> usize {
    SHARD_HINT.with(|h| match h.get() {
        Some(shard) => shard,
        None => {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            let shard = (hasher.finish() as usize) % IO_STATS_SHARDS;
            h.set(Some(shard));
            shard
        }
    })
}

/// Mutable, thread-safe I/O counters owned by a [`crate::BufferPool`] — the
/// one home of the stack's page-access counts (page stores keep none).
#[derive(Debug, Default)]
pub struct IoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    pages_written: AtomicU64,
    read_retries: AtomicU64,
    write_retries: AtomicU64,
}

/// An immutable snapshot of the counters, suitable for diffing before/after a
/// measured operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoStatsSnapshot {
    /// Page requests served (hits + misses).
    pub logical_reads: u64,
    /// Page requests that had to go to the page store.
    pub physical_reads: u64,
    /// Pages written back to the page store.
    pub pages_written: u64,
    /// Page reads that had to be re-issued after a transient storage fault
    /// (see `RetryPolicy` on the buffer pool). Zero on a healthy device.
    pub read_retries: u64,
    /// Page writes re-issued after a transient storage fault.
    pub write_retries: u64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a logical page read (buffer hit or miss).
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a physical page read (buffer miss).
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page write.
    #[inline]
    pub fn record_write(&self) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page read re-issued after a transient fault.
    #[inline]
    pub fn record_read_retry(&self) {
        self.read_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page write re-issued after a transient fault.
    #[inline]
    pub fn record_write_retry(&self) {
        self.write_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of the current counter values.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.write_retries.store(0, Ordering::Relaxed);
    }
}

/// One shard padded out to its own cache line, so concurrent workers
/// recording into adjacent shards do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedIoStats(IoStats);

/// Per-worker I/O counters: one [`IoStats`] shard per worker slot.
///
/// Every record lands in exactly one shard (the calling thread's, see
/// [`thread_stats_shard`]), so the merge of the per-worker snapshots is
/// *lossless*: [`ShardedIoStats::snapshot`] — the counter-wise sum over all
/// shards — accounts for every recorded access. A worker that *owns* its
/// shard (at most [`IO_STATS_SHARDS`] concurrent pinned workers, no
/// colliding hash-derived shards from other threads on the same pool) can
/// additionally diff [`ShardedIoStats::thread_snapshot`] around a unit of
/// work to attribute I/O to itself without hot-path coordination; when
/// shards are shared, the per-worker attribution blurs but the totals stay
/// exact.
#[derive(Debug)]
pub struct ShardedIoStats {
    shards: Box<[PaddedIoStats]>,
}

impl Default for ShardedIoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedIoStats {
    /// Creates zeroed counters with [`IO_STATS_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedIoStats {
            shards: (0..IO_STATS_SHARDS)
                .map(|_| PaddedIoStats::default())
                .collect(),
        }
    }

    #[inline]
    fn shard(&self) -> &IoStats {
        &self.shards[thread_stats_shard() % self.shards.len()].0
    }

    /// Records a logical page read in the calling thread's shard.
    #[inline]
    pub fn record_logical_read(&self) {
        self.shard().record_logical_read();
    }

    /// Records a physical page read in the calling thread's shard.
    #[inline]
    pub fn record_physical_read(&self) {
        self.shard().record_physical_read();
    }

    /// Records a page write in the calling thread's shard.
    #[inline]
    pub fn record_write(&self) {
        self.shard().record_write();
    }

    /// Records a retried page read in the calling thread's shard.
    #[inline]
    pub fn record_read_retry(&self) {
        self.shard().record_read_retry();
    }

    /// Records a retried page write in the calling thread's shard.
    #[inline]
    pub fn record_write_retry(&self) {
        self.shard().record_write_retry();
    }

    /// The merged snapshot: counter-wise sum over every shard.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        self.shards
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, s| {
                acc.plus(&s.0.snapshot())
            })
    }

    /// Snapshot of the calling thread's own shard.
    pub fn thread_snapshot(&self) -> IoStatsSnapshot {
        self.shard().snapshot()
    }

    /// Resets every shard to zero.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.0.reset();
        }
    }
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            read_retries: self.read_retries.saturating_sub(earlier.read_retries),
            write_retries: self.write_retries.saturating_sub(earlier.write_retries),
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            logical_reads: self.logical_reads + other.logical_reads,
            physical_reads: self.physical_reads + other.physical_reads,
            pages_written: self.pages_written + other.pages_written,
            read_retries: self.read_retries + other.read_retries,
            write_retries: self.write_retries + other.write_retries,
        }
    }
}

/// Configuration of the I/O latency model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IoConfig {
    /// Latency charged per *physical* page read.
    pub page_read_latency: Duration,
    /// Latency charged per page write.
    pub page_write_latency: Duration,
}

impl Default for IoConfig {
    fn default() -> Self {
        // ~5 ms per random page read approximates the magnetic disks of the
        // paper's 2012 testbed; writes only occur at index-build time and are
        // not part of any reported query metric.
        IoConfig {
            page_read_latency: Duration::from_micros(5_000),
            page_write_latency: Duration::from_micros(5_000),
        }
    }
}

impl IoConfig {
    /// An I/O model for a memory-resident deployment: zero latency, so the
    /// reported cost is CPU-only (the paper's Section 7.5, conclusion 4).
    pub fn memory_resident() -> Self {
        IoConfig {
            page_read_latency: Duration::ZERO,
            page_write_latency: Duration::ZERO,
        }
    }

    /// Simulated time to serve the physical I/O of a snapshot (saturating
    /// at `u64::MAX` nanoseconds).
    pub fn simulated_io_time(&self, snap: &IoStatsSnapshot) -> Duration {
        let nanos = |latency: Duration, pages: u64| latency.as_nanos().saturating_mul(pages.into());
        let total = nanos(self.page_read_latency, snap.physical_reads)
            .saturating_add(nanos(self.page_write_latency, snap.pages_written));
        Duration::from_nanos(u64::try_from(total).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = IoStats::new();
        stats.record_logical_read();
        stats.record_logical_read();
        stats.record_physical_read();
        stats.record_write();
        stats.record_read_retry();
        stats.record_write_retry();
        let snap = stats.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.pages_written, 1);
        assert_eq!(snap.read_retries, 1);
        assert_eq!(snap.write_retries, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn snapshot_diff_and_sum() {
        let a = IoStatsSnapshot {
            logical_reads: 10,
            physical_reads: 4,
            pages_written: 1,
            read_retries: 1,
            write_retries: 0,
        };
        let b = IoStatsSnapshot {
            logical_reads: 25,
            physical_reads: 9,
            pages_written: 1,
            read_retries: 3,
            write_retries: 1,
        };
        let d = b.since(&a);
        assert_eq!(d.logical_reads, 15);
        assert_eq!(d.physical_reads, 5);
        assert_eq!(d.pages_written, 0);
        assert_eq!(d.read_retries, 2);
        assert_eq!(d.write_retries, 1);
        let s = a.plus(&d);
        assert_eq!(s, b);
        // `since` saturates rather than underflowing.
        assert_eq!(a.since(&b).logical_reads, 0);
    }

    #[test]
    fn sharded_stats_merge_losslessly_across_threads() {
        let stats = std::sync::Arc::new(ShardedIoStats::new());
        let mut handles = Vec::new();
        for worker in 0..4usize {
            let stats = std::sync::Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                super::set_thread_stats_shard(worker);
                let before = stats.thread_snapshot();
                for _ in 0..250 {
                    stats.record_logical_read();
                }
                stats.record_physical_read();
                stats.thread_snapshot().since(&before)
            }));
        }
        let mut merged = IoStatsSnapshot::default();
        for handle in handles {
            merged = merged.plus(&handle.join().unwrap());
        }
        // Every access a worker self-reported is in the global snapshot and
        // vice versa: the merge loses nothing.
        assert_eq!(merged, stats.snapshot());
        assert_eq!(merged.logical_reads, 4 * 250);
        assert_eq!(merged.physical_reads, 4);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn thread_shard_is_stable_and_respects_hints() {
        std::thread::spawn(|| {
            assert_eq!(super::thread_stats_shard(), super::thread_stats_shard());
            super::set_thread_stats_shard(7);
            assert_eq!(super::thread_stats_shard(), 7);
            super::set_thread_stats_shard(7 + IO_STATS_SHARDS);
            assert_eq!(super::thread_stats_shard(), 7, "hints wrap modulo shards");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn latency_model_scales_with_physical_reads() {
        let cfg = IoConfig::default();
        let snap = IoStatsSnapshot {
            logical_reads: 100,
            physical_reads: 10,
            pages_written: 0,
            read_retries: 0,
            write_retries: 0,
        };
        assert_eq!(cfg.simulated_io_time(&snap), Duration::from_millis(50));
        assert_eq!(
            IoConfig::memory_resident().simulated_io_time(&snap),
            Duration::ZERO
        );
    }

    #[test]
    fn latency_model_does_not_wrap_past_u32_reads() {
        let cfg = IoConfig::default();
        let reads = u32::MAX as u64 + 2;
        let snap = IoStatsSnapshot {
            physical_reads: reads,
            ..IoStatsSnapshot::default()
        };
        let per_read = cfg.page_read_latency.as_nanos() as u64;
        assert!(per_read > 0);
        assert_eq!(
            cfg.simulated_io_time(&snap),
            Duration::from_nanos(per_read * reads)
        );
        // An absurd count saturates instead of overflowing.
        let snap = IoStatsSnapshot {
            physical_reads: u64::MAX,
            pages_written: u64::MAX,
            ..IoStatsSnapshot::default()
        };
        assert_eq!(cfg.simulated_io_time(&snap), Duration::from_nanos(u64::MAX));
    }
}
