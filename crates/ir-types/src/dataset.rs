//! In-memory dataset: the collection `D` of sparse tuples.
//!
//! The dataset is the logical collection; the physical layout used by the
//! algorithms (inverted lists per dimension + external tuple file) lives in
//! `ir-storage` and is built *from* a [`Dataset`].

use crate::error::{IrError, IrResult};
use crate::ids::{DimId, TupleId};
use crate::tuple::SparseVector;
use serde::{Deserialize, Serialize};

/// A collection of sparse tuples over a fixed dimensionality `m`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    dimensionality: u32,
    tuples: Vec<SparseVector>,
}

/// Incremental builder for [`Dataset`].
#[derive(Debug, Default)]
#[must_use = "a dataset builder does nothing until `build` is called"]
pub struct DatasetBuilder {
    dimensionality: u32,
    tuples: Vec<SparseVector>,
}

/// Summary statistics of a dataset, used by generators, documentation and the
/// experiment harness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// Number of dimensions.
    pub dimensionality: u32,
    /// Total number of non-zero coordinates.
    pub total_nnz: usize,
    /// Average non-zero coordinates per tuple.
    pub avg_nnz_per_tuple: f64,
    /// Number of dimensions that have at least one non-zero coordinate.
    pub populated_dims: usize,
    /// Largest coordinate value present in the dataset.
    pub max_value: f64,
}

impl DatasetBuilder {
    /// Creates a builder for a dataset over `dimensionality` dimensions.
    pub fn new(dimensionality: u32) -> Self {
        DatasetBuilder {
            dimensionality,
            tuples: Vec::new(),
        }
    }

    /// Reserves capacity for `n` tuples.
    pub fn with_capacity(dimensionality: u32, n: usize) -> Self {
        DatasetBuilder {
            dimensionality,
            tuples: Vec::with_capacity(n),
        }
    }

    /// Appends a tuple, validating that its coordinates fit the declared
    /// dimensionality. Returns the id assigned to the tuple.
    pub fn push(&mut self, tuple: SparseVector) -> IrResult<TupleId> {
        if let Some(max_dim) = tuple.max_dim() {
            if max_dim.0 >= self.dimensionality {
                return Err(IrError::UnknownDimension {
                    dim: max_dim.0,
                    dimensionality: self.dimensionality,
                });
            }
        }
        let id = TupleId::from(self.tuples.len());
        self.tuples.push(tuple);
        Ok(id)
    }

    /// Appends a tuple given as raw `(dimension, value)` pairs.
    pub fn push_pairs<I>(&mut self, pairs: I) -> IrResult<TupleId>
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let tuple = SparseVector::from_pairs(pairs)?;
        self.push(tuple)
    }

    /// Finalises the dataset.
    pub fn build(self) -> Dataset {
        Dataset {
            dimensionality: self.dimensionality,
            tuples: self.tuples,
        }
    }
}

impl Dataset {
    /// Builds a dataset directly from tuples (validating dimensionality).
    pub fn from_tuples(dimensionality: u32, tuples: Vec<SparseVector>) -> IrResult<Self> {
        let mut builder = DatasetBuilder::with_capacity(dimensionality, tuples.len());
        for t in tuples {
            builder.push(t)?;
        }
        Ok(builder.build())
    }

    /// Builds the two-dimensional running example of Figure 1 of the paper:
    /// `d1 = <0.8, 0.32>`, `d2 = <0.7, 0.5>`, `d3 = <0.1, 0.8>`,
    /// `d4 = <0.1, 0.6>`.
    ///
    /// Tuple ids are zero-based, so the paper's `d1` is `TupleId(0)` and so
    /// on. This dataset is used extensively by documentation examples and
    /// tests because the paper traces TA, Scan and the immutable regions on
    /// it in full detail (Figures 1, 2 and 5).
    pub fn running_example() -> Self {
        let tuples = vec![
            SparseVector::from_pairs([(0, 0.8), (1, 0.32)]).unwrap(),
            SparseVector::from_pairs([(0, 0.7), (1, 0.5)]).unwrap(),
            SparseVector::from_pairs([(0, 0.1), (1, 0.8)]).unwrap(),
            SparseVector::from_pairs([(0, 0.1), (1, 0.6)]).unwrap(),
        ];
        Dataset::from_tuples(2, tuples).expect("running example is valid")
    }

    /// Number of tuples in the dataset (the paper's `n`).
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.tuples.len()
    }

    /// Number of dimensions (the paper's `m`).
    #[inline]
    pub fn dimensionality(&self) -> u32 {
        self.dimensionality
    }

    /// Returns the tuple with the given id.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> IrResult<&SparseVector> {
        self.tuples
            .get(id.index())
            .ok_or(IrError::UnknownTuple { tuple: id.0 })
    }

    /// The coordinate of `tuple` in dimension `dim` (zero if not stored).
    #[inline]
    pub fn coordinate(&self, tuple: TupleId, dim: DimId) -> f64 {
        self.tuples[tuple.index()].get(dim)
    }

    /// Iterates over `(TupleId, &SparseVector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &SparseVector)> {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (TupleId::from(i), t))
    }

    /// All tuple ids of the dataset.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> {
        (0..self.tuples.len() as u32).map(TupleId)
    }

    /// Mutable access to the tuple table for the update model (the
    /// [`crate::update`] module is the only consumer; it re-validates every
    /// mutation against the declared dimensionality).
    pub(crate) fn tuples_mut(&mut self) -> &mut Vec<SparseVector> {
        &mut self.tuples
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> DatasetStats {
        let total_nnz: usize = self.tuples.iter().map(|t| t.nnz()).sum();
        let mut populated = std::collections::HashSet::new();
        let mut max_value: f64 = 0.0;
        for t in &self.tuples {
            for (d, v) in t.iter() {
                populated.insert(d);
                if v > max_value {
                    max_value = v;
                }
            }
        }
        DatasetStats {
            cardinality: self.tuples.len(),
            dimensionality: self.dimensionality,
            total_nnz,
            avg_nnz_per_tuple: if self.tuples.is_empty() {
                0.0
            } else {
                total_nnz as f64 / self.tuples.len() as f64
            },
            populated_dims: populated.len(),
            max_value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_matches_figure_1() {
        let d = Dataset::running_example();
        assert_eq!(d.cardinality(), 4);
        assert_eq!(d.dimensionality(), 2);
        assert_eq!(d.coordinate(TupleId(0), DimId(0)), 0.8);
        assert_eq!(d.coordinate(TupleId(0), DimId(1)), 0.32);
        assert_eq!(d.coordinate(TupleId(2), DimId(1)), 0.8);
        assert_eq!(d.coordinate(TupleId(3), DimId(0)), 0.1);
    }

    #[test]
    fn builder_rejects_out_of_range_dimension() {
        let mut b = DatasetBuilder::new(2);
        let err = b.push_pairs([(5, 0.3)]).unwrap_err();
        assert!(matches!(err, IrError::UnknownDimension { dim: 5, .. }));
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = DatasetBuilder::new(3);
        let id0 = b.push_pairs([(0, 0.1)]).unwrap();
        let id1 = b.push_pairs([(1, 0.2)]).unwrap();
        assert_eq!(id0, TupleId(0));
        assert_eq!(id1, TupleId(1));
        let d = b.build();
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn unknown_tuple_lookup_errors() {
        let d = Dataset::running_example();
        assert!(d.tuple(TupleId(99)).is_err());
        assert!(d.tuple(TupleId(3)).is_ok());
    }

    #[test]
    fn stats_are_correct_for_running_example() {
        let stats = Dataset::running_example().stats();
        assert_eq!(stats.cardinality, 4);
        assert_eq!(stats.dimensionality, 2);
        assert_eq!(stats.total_nnz, 8);
        assert_eq!(stats.populated_dims, 2);
        assert!((stats.avg_nnz_per_tuple - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_value, 0.8);
    }

    #[test]
    fn iteration_yields_all_tuples_in_order() {
        let d = Dataset::running_example();
        let ids: Vec<_> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(d.tuple_ids().count(), 4);
    }

    #[test]
    fn serde_roundtrip_preserves_dataset() {
        let d = Dataset::running_example();
        let json = serde_json::to_string(&d).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cardinality(), d.cardinality());
        assert_eq!(back.coordinate(TupleId(1), DimId(1)), 0.5);
    }
}
