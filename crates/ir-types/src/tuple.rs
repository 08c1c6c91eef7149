//! Sparse vectors: the representation of both data tuples and query vectors.
//!
//! The evaluation datasets of the paper are extremely high-dimensional
//! (181,978 terms for WSJ, 9,693 features for KB) but each tuple has very few
//! non-zero coordinates, so a dense `[f64; m]` representation is out of the
//! question. A [`SparseVector`] stores only the non-zero `(dimension, value)`
//! pairs, sorted by dimension id, which makes dot products a merge-join and
//! point lookups a binary search.

use crate::error::{IrError, IrResult};
use crate::ids::DimId;
use serde::{Deserialize, Serialize};

/// A sparse vector in `[0, 1]^m`: the non-zero coordinates, sorted by
/// dimension id.
///
/// Invariants (enforced by the constructors):
/// * entries are strictly sorted by dimension id (no duplicates),
/// * every stored value is finite and inside `[0, 1]`,
/// * zero values are never stored.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(DimId, f64)>,
}

impl SparseVector {
    /// Creates an empty (all-zero) vector.
    pub fn new() -> Self {
        SparseVector {
            entries: Vec::new(),
        }
    }

    /// Builds a sparse vector from arbitrary `(dimension, value)` pairs.
    ///
    /// The pairs may arrive in any order; zero values are dropped. Returns an
    /// error if a value is outside `[0, 1]`, not finite, or a dimension is
    /// repeated with conflicting values. Pairs that already arrive strictly
    /// dimension-ascending are checked in one pass, without a sort.
    pub fn from_pairs<I>(pairs: I) -> IrResult<Self>
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        Self::from_entries(pairs.into_iter().map(|(d, v)| (DimId(d), v)).collect())
    }

    /// [`SparseVector::from_pairs`] over owned entries, with the same checks
    /// and errors; the vector keeps their allocation, trimmed to fit.
    /// Entries that already arrive strictly dimension-ascending are checked
    /// in one pass, without a sort.
    pub fn from_entries(mut entries: Vec<(DimId, f64)>) -> IrResult<Self> {
        let mut ascending = true;
        let mut zeros = false;
        let mut last: Option<DimId> = None;
        for &(dim, value) in &entries {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(IrError::ValueOutOfRange {
                    what: format!("coordinate in dimension {}", dim.0),
                    value,
                });
            }
            if value == 0.0 {
                zeros = true;
                continue;
            }
            ascending &= last.map_or(true, |l| l < dim);
            last = Some(dim);
        }
        if zeros {
            entries.retain(|&(_, v)| v != 0.0);
        }
        if !ascending {
            entries.sort_by_key(|(d, _)| *d);
            for window in entries.windows(2) {
                if window[0].0 == window[1].0 {
                    return Err(IrError::DuplicateDimension {
                        dim: window[0].0 .0,
                    });
                }
            }
        }
        entries.shrink_to_fit();
        Ok(SparseVector { entries })
    }

    /// Builds a sparse vector from a dense slice; index `i` becomes
    /// dimension `i`.
    pub fn from_dense(values: &[f64]) -> IrResult<Self> {
        Self::from_pairs(values.iter().enumerate().map(|(i, &v)| (i as u32, v)))
    }

    /// Returns the value of the given dimension (zero if not stored).
    #[inline]
    pub fn get(&self, dim: DimId) -> f64 {
        match self.entries.binary_search_by_key(&dim, |(d, _)| *d) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Number of non-zero coordinates.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True if the vector has no non-zero coordinate.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the non-zero `(dimension, value)` pairs in increasing
    /// dimension order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (DimId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The raw sorted entries.
    #[inline]
    pub fn entries(&self) -> &[(DimId, f64)] {
        &self.entries
    }

    /// Largest dimension id present, if any.
    pub fn max_dim(&self) -> Option<DimId> {
        self.entries.last().map(|(d, _)| *d)
    }

    /// Dot product with another sparse vector (merge-join over the two sorted
    /// entry lists).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let a = &self.entries;
        let b = &other.entries;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Returns a copy with the coordinate in `dim` set to `value` — the
    /// canonical single-coordinate write of the update model. A `value` of
    /// `0.0` removes the coordinate (zeros are never stored); any other
    /// value must be finite and inside `[0, 1]`.
    pub fn with_coordinate(&self, dim: DimId, value: f64) -> IrResult<Self> {
        SparseVector::from_pairs(
            self.entries
                .iter()
                .filter(|(d, _)| *d != dim)
                .map(|(d, v)| (d.0, *v))
                .chain(std::iter::once((dim.0, value))),
        )
    }
}

impl FromIterator<(DimId, f64)> for SparseVector {
    /// Collects pairs assumed to be valid; panics on invalid input. Prefer
    /// [`SparseVector::from_pairs`] for untrusted data.
    fn from_iter<T: IntoIterator<Item = (DimId, f64)>>(iter: T) -> Self {
        SparseVector::from_entries(iter.into_iter().collect())
            .expect("invalid sparse vector literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn from_pairs_sorts_and_drops_zeros() {
        let v = sv(&[(5, 0.5), (1, 0.25), (3, 0.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.entries()[0].0, DimId(1));
        assert_eq!(v.entries()[1].0, DimId(5));
        assert_eq!(v.get(DimId(3)), 0.0);
    }

    #[test]
    fn from_entries_checks_like_from_pairs() {
        let entries = |pairs: &[(u32, f64)]| pairs.iter().map(|&(d, v)| (DimId(d), v)).collect();
        for pairs in [
            &[(1, 0.5), (3, 0.0), (4, 0.25)][..],
            &[(4, 0.25), (1, 0.5)],
            &[],
        ] {
            assert_eq!(
                SparseVector::from_entries(entries(pairs)).unwrap(),
                sv(pairs)
            );
        }
        assert!(matches!(
            SparseVector::from_entries(entries(&[(2, 0.1), (2, 0.2)])),
            Err(IrError::DuplicateDimension { dim: 2 })
        ));
        assert!(matches!(
            SparseVector::from_entries(entries(&[(0, 0.5), (1, f64::NAN)])),
            Err(IrError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn duplicate_dimension_is_rejected() {
        let err = SparseVector::from_pairs([(2, 0.1), (2, 0.2)]).unwrap_err();
        assert!(matches!(err, IrError::DuplicateDimension { dim: 2 }));
    }

    #[test]
    fn out_of_range_value_is_rejected() {
        assert!(SparseVector::from_pairs([(0, 1.5)]).is_err());
        assert!(SparseVector::from_pairs([(0, -0.1)]).is_err());
        assert!(SparseVector::from_pairs([(0, f64::NAN)]).is_err());
    }

    #[test]
    fn dot_product_matches_running_example() {
        // d1 = <0.8, 0.32>, q = <0.8, 0.5> => score 0.8.
        let d1 = sv(&[(0, 0.8), (1, 0.32)]);
        let q = sv(&[(0, 0.8), (1, 0.5)]);
        assert!((d1.dot(&q) - 0.8).abs() < 1e-12);
        // d2 = <0.7, 0.5> => 0.81.
        let d2 = sv(&[(0, 0.7), (1, 0.5)]);
        assert!((d2.dot(&q) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn dot_product_with_disjoint_support_is_zero() {
        let a = sv(&[(0, 0.4), (2, 0.3)]);
        let b = sv(&[(1, 0.9), (3, 0.2)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn from_dense_maps_indices() {
        let v = SparseVector::from_dense(&[0.0, 0.5, 0.0, 0.25]).unwrap();
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(DimId(1)), 0.5);
        assert_eq!(v.get(DimId(3)), 0.25);
        assert_eq!(v.max_dim(), Some(DimId(3)));
    }

    proptest! {
        #[test]
        fn dot_is_commutative(
            a in proptest::collection::vec((0u32..64, 0.0f64..=1.0), 0..16),
            b in proptest::collection::vec((0u32..64, 0.0f64..=1.0), 0..16),
        ) {
            // Deduplicate dimensions to satisfy the constructor invariant.
            let dedup = |pairs: Vec<(u32, f64)>| {
                let mut seen = std::collections::BTreeMap::new();
                for (d, v) in pairs { seen.entry(d).or_insert(v); }
                seen.into_iter().collect::<Vec<_>>()
            };
            let va = SparseVector::from_pairs(dedup(a)).unwrap();
            let vb = SparseVector::from_pairs(dedup(b)).unwrap();
            let ab = va.dot(&vb);
            let ba = vb.dot(&va);
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn get_agrees_with_iter(
            pairs in proptest::collection::btree_map(0u32..128, 0.0001f64..=1.0, 0..32)
        ) {
            let v = SparseVector::from_pairs(pairs.iter().map(|(&d, &x)| (d, x))).unwrap();
            for (d, x) in v.iter() {
                prop_assert_eq!(v.get(d), x);
            }
            prop_assert_eq!(v.nnz(), pairs.len());
        }
    }
}
