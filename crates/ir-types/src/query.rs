//! Query vectors for subspace top-k queries.
//!
//! A query is a weight vector `q` in `[0, 1]^m` with `qlen << m` non-zero
//! weights (the *query dimensions*). The score of a tuple is the dot product
//! `S(d, q) = q · d`, and immutable regions are computed per query dimension.

use crate::error::{IrError, IrResult};
use crate::ids::DimId;
use crate::tuple::SparseVector;
use serde::{Deserialize, Serialize};

/// A subspace top-k query: the non-zero weights plus the requested result
/// size `k`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryVector {
    weights: SparseVector,
    k: usize,
}

/// Builder for [`QueryVector`].
#[derive(Debug, Default)]
#[must_use = "a query builder does nothing until `build` is called"]
pub struct QueryBuilder {
    pairs: Vec<(u32, f64)>,
    k: usize,
}

impl QueryBuilder {
    /// Starts a query requesting the top `k` tuples.
    pub fn new(k: usize) -> Self {
        QueryBuilder {
            pairs: Vec::new(),
            k,
        }
    }

    /// Adds (or accumulates) a weight on a dimension.
    pub fn weight(mut self, dim: u32, weight: f64) -> Self {
        self.pairs.push((dim, weight));
        self
    }

    /// Finalises the query, validating the weights.
    pub fn build(self) -> IrResult<QueryVector> {
        QueryVector::new(self.pairs, self.k)
    }
}

impl QueryVector {
    /// Creates a query from `(dimension, weight)` pairs and a result size.
    ///
    /// Weights must lie in `(0, 1]`; zero weights are dropped (a dimension
    /// with zero weight is simply not a query dimension). Returns an error if
    /// no positive weight remains or `k == 0`.
    pub fn new<I>(weights: I, k: usize) -> IrResult<Self>
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        if k == 0 {
            return Err(IrError::InvalidK {
                k,
                cardinality: usize::MAX,
            });
        }
        let weights = SparseVector::from_pairs(weights)?;
        if weights.is_empty() {
            return Err(IrError::EmptyQuery);
        }
        Ok(QueryVector { weights, k })
    }

    /// The query of the paper's running example: `q = <0.8, 0.5>`, `k = 2`.
    pub fn running_example() -> Self {
        QueryVector::new([(0, 0.8), (1, 0.5)], 2).expect("running example query is valid")
    }

    /// The requested result size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Returns a copy of the query with a different `k`.
    pub fn with_k(&self, k: usize) -> IrResult<Self> {
        if k == 0 {
            return Err(IrError::InvalidK {
                k,
                cardinality: usize::MAX,
            });
        }
        Ok(QueryVector {
            weights: self.weights.clone(),
            k,
        })
    }

    /// Number of query dimensions (`qlen` in the paper).
    #[inline]
    pub fn qlen(&self) -> usize {
        self.weights.nnz()
    }

    /// The weight of dimension `dim` (zero if it is not a query dimension).
    #[inline]
    pub fn weight(&self, dim: DimId) -> f64 {
        self.weights.get(dim)
    }

    /// Iterates over the query dimensions and their weights.
    #[inline]
    pub fn dims(&self) -> impl Iterator<Item = (DimId, f64)> + '_ {
        self.weights.iter()
    }

    /// The underlying sparse weight vector.
    #[inline]
    pub fn weights(&self) -> &SparseVector {
        &self.weights
    }

    /// Scores a tuple: `S(d, q) = q · d`.
    #[inline]
    pub fn score(&self, tuple: &SparseVector) -> f64 {
        self.weights.dot(tuple)
    }

    /// Returns a copy of the query with dimension `dim`'s weight shifted by
    /// `delta` (clamped into `[0, 1]`). Used by the iterative φ > 0 baseline
    /// and by refinement examples.
    pub fn with_weight_shift(&self, dim: DimId, delta: f64) -> IrResult<Self> {
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(self.weights.nnz() + 1);
        let mut found = false;
        for (d, w) in self.weights.iter() {
            if d == dim {
                found = true;
                let shifted = (w + delta).clamp(0.0, 1.0);
                if shifted > 0.0 {
                    pairs.push((d.0, shifted));
                }
            } else {
                pairs.push((d.0, w));
            }
        }
        if !found {
            let shifted = delta.clamp(0.0, 1.0);
            if shifted > 0.0 {
                pairs.push((dim.0, shifted));
            }
        }
        QueryVector::new(pairs, self.k)
    }

    /// Validates that every query dimension exists in a dataset with the
    /// given dimensionality.
    pub fn validate_against(&self, dimensionality: u32) -> IrResult<()> {
        for (d, _) in self.weights.iter() {
            if d.0 >= dimensionality {
                return Err(IrError::UnknownDimension {
                    dim: d.0,
                    dimensionality,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::ids::TupleId;

    #[test]
    fn running_example_query_scores_match_figure_2() {
        let q = QueryVector::running_example();
        let d = Dataset::running_example();
        let scores: Vec<f64> = d.iter().map(|(_, t)| q.score(t)).collect();
        assert!((scores[0] - 0.80).abs() < 1e-12); // d1
        assert!((scores[1] - 0.81).abs() < 1e-12); // d2
        assert!((scores[2] - 0.48).abs() < 1e-12); // d3
        assert!((scores[3] - 0.38).abs() < 1e-12); // d4
    }

    #[test]
    fn zero_weights_are_dropped() {
        let q = QueryVector::new([(0, 0.5), (3, 0.0), (7, 0.2)], 5).unwrap();
        assert_eq!(q.qlen(), 2);
        assert_eq!(q.weight(DimId(3)), 0.0);
        let dims: Vec<DimId> = q.dims().map(|(d, _)| d).collect();
        assert_eq!(dims, vec![DimId(0), DimId(7)]);
    }

    #[test]
    fn empty_query_is_rejected() {
        assert!(matches!(
            QueryVector::new([(0, 0.0)], 3).unwrap_err(),
            IrError::EmptyQuery
        ));
        assert!(matches!(
            QueryVector::new([(0, 0.5)], 0).unwrap_err(),
            IrError::InvalidK { .. }
        ));
    }

    #[test]
    fn builder_accumulates_weights() {
        let q = QueryBuilder::new(10)
            .weight(2, 0.3)
            .weight(5, 0.6)
            .build()
            .unwrap();
        assert_eq!(q.k(), 10);
        assert_eq!(q.qlen(), 2);
        assert_eq!(q.weight(DimId(5)), 0.6);
    }

    #[test]
    fn weight_shift_moves_a_single_dimension() {
        let q = QueryVector::running_example();
        let shifted = q.with_weight_shift(DimId(0), 0.1).unwrap();
        assert!((shifted.weight(DimId(0)) - 0.9).abs() < 1e-12);
        assert!((shifted.weight(DimId(1)) - 0.5).abs() < 1e-12);
        // Shift below zero removes the dimension entirely (weight clamped to 0).
        let removed = q.with_weight_shift(DimId(0), -0.9).unwrap();
        assert_eq!(removed.qlen(), 1);
    }

    #[test]
    fn weight_shift_clamps_to_one() {
        let q = QueryVector::running_example();
        let s = q.with_weight_shift(DimId(1), 0.9).unwrap();
        assert!((s.weight(DimId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_against_checks_dimensionality() {
        let q = QueryVector::new([(0, 0.5), (9, 0.5)], 1).unwrap();
        assert!(q.validate_against(10).is_ok());
        assert!(q.validate_against(5).is_err());
    }

    #[test]
    fn with_k_changes_only_k() {
        let q = QueryVector::running_example();
        let q5 = q.with_k(5).unwrap();
        assert_eq!(q5.k(), 5);
        assert_eq!(q5.qlen(), q.qlen());
        assert!(q.with_k(0).is_err());
    }

    #[test]
    fn score_of_tuple_without_query_dims_is_zero() {
        let q = QueryVector::new([(0, 0.4)], 1).unwrap();
        let t = SparseVector::from_pairs([(5, 0.9)]).unwrap();
        assert_eq!(q.score(&t), 0.0);
        let d = Dataset::running_example();
        assert!(q.score(d.tuple(TupleId(0)).unwrap()) > 0.0);
    }
}
