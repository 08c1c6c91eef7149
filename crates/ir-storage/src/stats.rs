//! I/O accounting at page granularity.
//!
//! The paper's primary cost metrics (Section 7.1) are the number of evaluated
//! candidates, the I/O time and the CPU time. We account I/O at page
//! granularity in the buffer pool; the experiment harness converts
//! *physical* page reads into a simulated I/O time at one fixed per-page
//! latency. Logical reads (buffer hits) are also reported because they are
//! the machine-independent part of the metric.
//!
//! Counters travel with the work, not the thread: every unit of work that
//! reads pages (a list cursor, a TA run's random accesses, a candidate
//! evaluator, a maintenance batch) owns a plain [`IoStatsSnapshot`] tally
//! that the pool adds to on each request, and a report's I/O is the sum of
//! its units' tallies. The pool keeps its own lifetime totals under the lock
//! it already takes per request.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPool, RetryPolicy};
    use crate::fault::{FaultInjectingPageStore, FaultPlan};
    use crate::page::{PageId, PAGE_SIZE};
    use crate::pagestore::{MemPageStore, PageStore};
    use std::sync::Arc;
    use std::time::Duration;

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
}
