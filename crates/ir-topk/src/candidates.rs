//! The candidate list `C(q)`.
//!
//! TA encounters more tuples than the `k` it reports; all encountered
//! non-result tuples are kept, in decreasing score order, because they are
//! exactly the tuples that can perturb the result under small weight changes
//! (Phase 2 of Scan/CPT works on this list). Each entry carries the tuple's
//! coordinates in the query dimensions, captured when TA had the full vector
//! in hand, so the sorted lists used by thresholding can be formed without
//! additional I/O.

use ir_types::{score_cmp, RankedTuple, TupleId};
use serde::{Deserialize, Serialize};

/// One candidate tuple: id, score, and its coordinates restricted to the
/// query dimensions (aligned with the query's dimension order).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CandidateEntry {
    /// Tuple id.
    pub id: TupleId,
    /// Score under the current query weights.
    pub score: f64,
    /// Coordinates in the query dimensions, in the same order as
    /// `QueryVector::dims()`.
    pub coords: Vec<f64>,
}

impl CandidateEntry {
    /// The candidate as a `RankedTuple`.
    pub fn ranked(&self) -> RankedTuple {
        RankedTuple::new(self.id, self.score)
    }

    /// Coordinate in the `dim_index`-th query dimension.
    #[inline]
    pub fn coord(&self, dim_index: usize) -> f64 {
        self.coords[dim_index]
    }
}

/// The candidate list `C(q)`, maintained in decreasing score order (ties by
/// increasing tuple id).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CandidateList {
    entries: Vec<CandidateEntry>,
}

impl CandidateList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a candidate, keeping the list sorted by decreasing score.
    pub fn insert(&mut self, entry: CandidateEntry) {
        let ranked = entry.ranked();
        let pos = self
            .entries
            .partition_point(|e| score_cmp(&e.ranked(), &ranked) == std::cmp::Ordering::Less);
        self.entries.insert(pos, entry);
    }

    /// The candidates in decreasing score order.
    pub fn entries(&self) -> &[CandidateEntry] {
        &self.entries
    }

    /// The entry for a given tuple id, if present.
    pub fn get(&self, id: TupleId) -> Option<&CandidateEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// True if the tuple is in the candidate list.
    pub fn contains(&self, id: TupleId) -> bool {
        self.get(id).is_some()
    }

    /// The highest-scoring candidate, if any.
    pub fn top(&self) -> Option<&CandidateEntry> {
        self.entries.first()
    }

    /// Iterates the candidates in decreasing score order.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateEntry> {
        self.entries.iter()
    }
}

impl FromIterator<CandidateEntry> for CandidateList {
    fn from_iter<T: IntoIterator<Item = CandidateEntry>>(iter: T) -> Self {
        let mut list = CandidateList::new();
        for e in iter {
            list.insert(e);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32, score: f64, coords: &[f64]) -> CandidateEntry {
        CandidateEntry {
            id: TupleId(id),
            score,
            coords: coords.to_vec(),
        }
    }

    #[test]
    fn insert_keeps_descending_score_order() {
        let mut list = CandidateList::new();
        list.insert(entry(3, 0.48, &[0.1, 0.8]));
        list.insert(entry(4, 0.38, &[0.1, 0.6]));
        list.insert(entry(7, 0.90, &[0.9, 0.0]));
        let scores: Vec<f64> = list.iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.90, 0.48, 0.38]);
        assert_eq!(list.top().unwrap().id, TupleId(7));
    }

    #[test]
    fn ties_are_broken_by_tuple_id() {
        let mut list = CandidateList::new();
        list.insert(entry(9, 0.5, &[]));
        list.insert(entry(2, 0.5, &[]));
        let ids: Vec<u32> = list.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![2, 9]);
    }

    #[test]
    fn lookup_and_contains() {
        let list: CandidateList = [entry(1, 0.4, &[0.2]), entry(5, 0.6, &[0.3])]
            .into_iter()
            .collect();
        assert!(list.contains(TupleId(5)));
        assert!(!list.contains(TupleId(2)));
        assert_eq!(list.get(TupleId(1)).unwrap().coord(0), 0.2);
        assert_eq!(list.len(), 2);
        assert!(!list.is_empty());
    }
}
