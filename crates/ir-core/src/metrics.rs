//! Cost counters of a region computation.
//!
//! These are the quantities Section 7 of the paper reports: the number of
//! evaluated candidates (per query dimension and in total), the I/O incurred,
//! the CPU time and the memory footprint of the candidate bookkeeping.

use ir_storage::IoStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters accumulated while computing immutable regions.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ComputationStats {
    /// Candidates evaluated (fed to the kinetic sweeps, which at `φ = 0`
    /// check them against the k-th result tuple by Lemma 1), summed over all
    /// query dimensions.
    pub evaluated_candidates: u64,
    /// Evaluated candidates per query dimension, in query-dimension order.
    pub evaluated_per_dim: Vec<u64>,
    /// Tuples newly discovered by the resumed TA of Phase 3 (all dimensions).
    pub phase3_tuples: u64,
    /// Size of the candidate list `C(q)` produced by the initial TA run.
    pub initial_candidates: usize,
    /// I/O performed while computing the regions (TA excluded).
    pub io: IoStatsSnapshot,
    /// I/O performed by the initial top-k computation (reported separately —
    /// every method pays it identically).
    pub topk_io: IoStatsSnapshot,
    /// Wall-clock time spent computing the regions (TA excluded). With the
    /// in-memory backend this is the paper's "CPU time"; the simulated I/O
    /// latency is *not* included.
    pub cpu_time: Duration,
    /// Estimated memory footprint in bytes of the candidate bookkeeping the
    /// selected algorithm keeps (Section 7.2's memory metric).
    pub memory_footprint_bytes: usize,
}

impl ComputationStats {
    /// Average evaluated candidates per query dimension.
    pub fn evaluated_per_dim_avg(&self) -> f64 {
        if self.evaluated_per_dim.is_empty() {
            0.0
        } else {
            self.evaluated_candidates as f64 / self.evaluated_per_dim.len() as f64
        }
    }

    /// Merges another stats block into this one (used when aggregating over
    /// queries in the experiment harness).
    pub fn merge(&mut self, other: &ComputationStats) {
        self.evaluated_candidates += other.evaluated_candidates;
        if self.evaluated_per_dim.len() < other.evaluated_per_dim.len() {
            self.evaluated_per_dim
                .resize(other.evaluated_per_dim.len(), 0);
        }
        for (slot, v) in self
            .evaluated_per_dim
            .iter_mut()
            .zip(&other.evaluated_per_dim)
        {
            *slot += v;
        }
        self.phase3_tuples += other.phase3_tuples;
        self.initial_candidates += other.initial_candidates;
        self.io = self.io.plus(&other.io);
        self.topk_io = self.topk_io.plus(&other.topk_io);
        self.cpu_time += other.cpu_time;
        self.memory_footprint_bytes = self
            .memory_footprint_bytes
            .max(other.memory_footprint_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_dim_average() {
        let stats = ComputationStats {
            evaluated_candidates: 12,
            evaluated_per_dim: vec![3, 4, 5],
            ..Default::default()
        };
        assert!((stats.evaluated_per_dim_avg() - 4.0).abs() < 1e-12);
        assert_eq!(ComputationStats::default().evaluated_per_dim_avg(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ComputationStats {
            evaluated_candidates: 5,
            evaluated_per_dim: vec![2, 3],
            phase3_tuples: 1,
            initial_candidates: 10,
            cpu_time: Duration::from_millis(5),
            memory_footprint_bytes: 100,
            ..Default::default()
        };
        let b = ComputationStats {
            evaluated_candidates: 7,
            evaluated_per_dim: vec![1, 6],
            phase3_tuples: 2,
            initial_candidates: 4,
            cpu_time: Duration::from_millis(3),
            memory_footprint_bytes: 250,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.evaluated_candidates, 12);
        assert_eq!(a.evaluated_per_dim, vec![3, 9]);
        assert_eq!(a.phase3_tuples, 3);
        assert_eq!(a.initial_candidates, 14);
        assert_eq!(a.cpu_time, Duration::from_millis(8));
        assert_eq!(a.memory_footprint_bytes, 250);
    }
}
