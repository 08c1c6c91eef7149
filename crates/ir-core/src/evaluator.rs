//! Candidate evaluation: the unit of cost the paper measures.
//!
//! "Evaluating" a candidate means feeding its line to the kinetic sweeps of
//! the dimension under consideration, which check it against the result's
//! lower envelope (at `φ = 0`, against the k-th result tuple by Lemma 1).
//! That requires its exact coordinate in the dimension. Per the
//! paper's cost model the exact coordinates of evaluated candidates are
//! fetched from the external tuple file, so every evaluation incurs one
//! random access — this is precisely why the number of evaluated candidates
//! is the primary performance metric, and why pruning/thresholding pay off.
//!
//! Each evaluation is still one random access per `(dimension, tuple)`: the
//! tuple's record is read through the buffer pool and every stored
//! coordinate is checked, but only the one coordinate of the dimension under
//! consideration is decoded out of it
//! ([`TopKIndex::fetch_coords_counted`]), so the access allocates nothing.
//!
//! The evaluator deduplicates per dimension: a candidate pulled from several
//! sorted lists is fetched and counted once. It tallies the page accesses of
//! its fetches ([`CandidateEvaluator::io`]).

use ir_storage::{IoStatsSnapshot, TopKIndex};
use ir_types::{DimId, IrResult, TupleId};
use std::collections::HashMap;

/// Fetches candidate coordinates and counts evaluations.
pub struct CandidateEvaluator<'a> {
    index: &'a TopKIndex,
    /// Coordinates already fetched for the current dimension.
    cache: HashMap<TupleId, f64>,
    evaluated: u64,
    io: IoStatsSnapshot,
}

impl<'a> CandidateEvaluator<'a> {
    /// Creates an evaluator over the given index.
    pub fn new(index: &'a TopKIndex) -> Self {
        CandidateEvaluator {
            index,
            cache: HashMap::new(),
            evaluated: 0,
            io: IoStatsSnapshot::default(),
        }
    }

    /// Starts a new dimension: clears the per-dimension deduplication cache
    /// and the counter (the I/O tally keeps accumulating).
    pub fn start_dimension(&mut self) {
        self.cache.clear();
        self.evaluated = 0;
    }

    /// Evaluates a candidate for the given dimension: reads its tuple
    /// (random access through the buffer pool) and returns its coordinate.
    /// Counted once per `(dimension, tuple)` pair.
    pub fn evaluate(&mut self, id: TupleId, dim: DimId) -> IrResult<f64> {
        if let Some(&coord) = self.cache.get(&id) {
            return Ok(coord);
        }
        let mut coord = 0.0;
        self.index.fetch_coords_counted(
            id,
            std::slice::from_ref(&dim),
            std::slice::from_mut(&mut coord),
            &mut self.io,
        )?;
        self.cache.insert(id, coord);
        self.evaluated += 1;
        Ok(coord)
    }

    /// Number of distinct candidates evaluated for the current dimension.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Page accesses of every fetch since the evaluator was created.
    pub fn io(&self) -> IoStatsSnapshot {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::Dataset;

    #[test]
    fn evaluation_is_deduplicated_per_dimension() {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        let mut ev = CandidateEvaluator::new(&index);
        ev.start_dimension();
        let c1 = ev.evaluate(TupleId(2), DimId(0)).unwrap();
        let c2 = ev.evaluate(TupleId(2), DimId(0)).unwrap();
        assert_eq!(c1, 0.1);
        assert_eq!(c2, 0.1);
        assert_eq!(ev.evaluated(), 1);
        ev.evaluate(TupleId(3), DimId(0)).unwrap();
        assert_eq!(ev.evaluated(), 2);
        // A new dimension resets both cache and counter.
        ev.start_dimension();
        assert_eq!(ev.evaluated(), 0);
        let c = ev.evaluate(TupleId(2), DimId(1)).unwrap();
        assert_eq!(c, 0.8);
        assert_eq!(ev.evaluated(), 1);
    }

    #[test]
    fn evaluation_incurs_io() {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        index.cold_start();
        let mut ev = CandidateEvaluator::new(&index);
        ev.start_dimension();
        ev.evaluate(TupleId(1), DimId(0)).unwrap();
        assert!(index.io_snapshot().logical_reads > 0);
        assert_eq!(ev.io(), index.io_snapshot());
    }
}
