//! Scores, ranked tuples and top-k result lists.
//!
//! The whole stack relies on one *total* order over `(score, tuple id)`
//! pairs: decreasing score, ties broken by increasing tuple id. Using the
//! same deterministic order everywhere guarantees that TA, the baseline
//! algorithms, CPT and the exhaustive oracle all agree on what "the" top-k
//! result is even in the presence of exact score ties.

use crate::ids::TupleId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A tuple together with its score under a particular query.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankedTuple {
    /// The tuple id.
    pub id: TupleId,
    /// Its score `S(d, q)`.
    pub score: f64,
}

impl RankedTuple {
    /// Convenience constructor.
    pub fn new(id: TupleId, score: f64) -> Self {
        RankedTuple { id, score }
    }
}

/// Total order on `f64` in *descending* direction (NaN sorts last).
///
/// Scores produced by the scoring function are always finite, but using a
/// total order avoids partial-comparison panics when sorting.
#[inline]
pub fn total_cmp_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after every real score
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// The canonical ranking order: decreasing score, ties broken by increasing
/// tuple id. Returns `Ordering::Less` when `a` ranks *before* (better than)
/// `b`.
#[inline]
pub fn score_cmp(a: &RankedTuple, b: &RankedTuple) -> Ordering {
    total_cmp_desc(a.score, b.score).then_with(|| a.id.cmp(&b.id))
}

/// An ordered top-k result list `R(q) = [d_1, ..., d_k]` in decreasing score
/// order (position 0 is the best tuple, position `k-1` is the paper's `d_k`).
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "a top-k result should be inspected, not discarded"]
pub struct TopKResult {
    entries: Vec<RankedTuple>,
}

impl TopKResult {
    /// Creates a result from already ranked entries, re-sorting defensively
    /// with the canonical order.
    pub fn from_entries(mut entries: Vec<RankedTuple>) -> Self {
        entries.sort_by(score_cmp);
        TopKResult { entries }
    }

    /// Creates an empty result.
    pub fn empty() -> Self {
        TopKResult {
            entries: Vec::new(),
        }
    }

    /// Number of tuples in the result.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the result is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ranked entries in decreasing score order.
    #[inline]
    pub fn entries(&self) -> &[RankedTuple] {
        &self.entries
    }

    /// The entry at rank `rank` (0-based: rank 0 is the top tuple).
    #[inline]
    pub fn at(&self, rank: usize) -> Option<&RankedTuple> {
        self.entries.get(rank)
    }

    /// The last (k-th) result tuple — the paper's `d_k`.
    #[inline]
    pub fn last(&self) -> Option<&RankedTuple> {
        self.entries.last()
    }

    /// The ordered list of tuple ids.
    pub fn ids(&self) -> Vec<TupleId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// True if the result contains the given tuple.
    pub fn contains(&self, id: TupleId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }
}

impl FromIterator<RankedTuple> for TopKResult {
    fn from_iter<T: IntoIterator<Item = RankedTuple>>(iter: T) -> Self {
        TopKResult::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(id: u32, score: f64) -> RankedTuple {
        RankedTuple::new(TupleId(id), score)
    }

    #[test]
    fn canonical_order_breaks_ties_by_id() {
        let a = rt(3, 0.5);
        let b = rt(1, 0.5);
        assert_eq!(score_cmp(&a, &b), Ordering::Greater); // lower id ranks first
        assert_eq!(score_cmp(&b, &a), Ordering::Less);
        assert_eq!(score_cmp(&a, &a), Ordering::Equal);
    }

    #[test]
    fn higher_score_ranks_first() {
        let better = rt(9, 0.9);
        let worse = rt(1, 0.2);
        assert_eq!(score_cmp(&better, &worse), Ordering::Less);
    }

    #[test]
    fn from_entries_sorts_canonically() {
        let r = TopKResult::from_entries(vec![rt(2, 0.5), rt(0, 0.9), rt(1, 0.5)]);
        assert_eq!(
            r.ids(),
            vec![TupleId(0), TupleId(1), TupleId(2)],
            "0.9 first, then the two 0.5s by id"
        );
        assert_eq!(r.last().unwrap().id, TupleId(2));
        assert_eq!(r.at(0).unwrap().score, 0.9);
    }

    #[test]
    fn rank_and_contains() {
        let r = TopKResult::from_entries(vec![rt(4, 0.9), rt(7, 0.5)]);
        assert!(r.contains(TupleId(7)));
        assert!(!r.contains(TupleId(1)));
    }

    #[test]
    fn total_cmp_desc_handles_nan_last() {
        let mut v = [0.3, f64::NAN, 0.9];
        v.sort_by(|a, b| total_cmp_desc(*a, *b));
        assert_eq!(v[0], 0.9);
        assert_eq!(v[1], 0.3);
        assert!(v[2].is_nan());
    }

    #[test]
    fn empty_result_behaviour() {
        let r = TopKResult::empty();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.last().is_none());
    }
}
