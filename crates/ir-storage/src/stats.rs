//! I/O accounting and the latency model used to report I/O cost.
//!
//! The paper's primary cost metrics (Section 7.1) are the number of evaluated
//! candidates, the I/O time and the CPU time. We account I/O at page
//! granularity in the buffer pool and convert *physical* page reads into a
//! simulated I/O time with a configurable per-page latency, defaulting to a
//! 2012-era magnetic-disk random read. Logical reads (buffer hits) are also
//! reported because they are the machine-independent part of the metric.
//!
//! Counters travel with the work, not the thread: every unit of work that
//! reads pages (a list cursor, a TA run's random accesses, a candidate
//! evaluator, a maintenance batch) owns a plain [`IoStatsSnapshot`] tally
//! that the pool adds to on each request, and a report's I/O is the sum of
//! its units' tallies. The pool keeps its own lifetime totals under the lock
//! it already takes per request.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A set of page-access counters: the pool's lifetime totals, one unit of
/// work's tally, or the difference or sum of such sets.
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
    use crate::buffer::{BufferPool, RetryPolicy};
    use crate::fault::{FaultInjectingPageStore, FaultPlan};
    use crate::page::{PageId, PAGE_SIZE};
    use crate::pagestore::{MemPageStore, PageStore};
    use std::sync::Arc;

    /// Every counter the pool keeps moves once per event, in the pool's
    /// totals and in the caller's tally alike, and a reset zeroes the
    /// totals without touching the tally.
    #[test]
    fn counters_accumulate_and_reset() {
        let inner = Arc::new(MemPageStore::new());
        inner.allocate(2).unwrap();
        let plan = FaultPlan {
            transient_read_ops: vec![0],
            transient_write_ops: vec![0],
            ..FaultPlan::default()
        };
        let faulty = FaultInjectingPageStore::new(inner, plan);
        faulty.arm();
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_base: Duration::ZERO,
        };
        let pool = BufferPool::with_capacity_and_policy(faulty, 2, retry);
        let mut tally = IoStatsSnapshot::default();
        // Read op 0 fails and op 1 retries the miss; the second read hits.
        pool.read_counted(PageId(0), &mut tally).unwrap();
        pool.read_counted(PageId(0), &mut tally).unwrap();
        // Write op 0 fails and op 1 retries it.
        pool.write_counted(PageId(1), &[0u8; PAGE_SIZE], &mut tally)
            .unwrap();
        let expected = IoStatsSnapshot {
            logical_reads: 2,
            physical_reads: 1,
            pages_written: 1,
            read_retries: 1,
            write_retries: 1,
        };
        assert_eq!(tally, expected);
        assert_eq!(pool.io_snapshot(), expected);
        pool.reset_io_stats();
        assert_eq!(pool.io_snapshot(), IoStatsSnapshot::default());
        assert_eq!(tally, expected, "the caller's tally is its own");
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
