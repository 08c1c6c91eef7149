//! The candidate partitions `C⁰_j`, `C^H_j`, `C^L_j` of Section 5.1.
//!
//! For a query dimension `j` the candidate list splits into
//!
//! * `C⁰_j`  — candidates with a **zero** coordinate in `j` (they are in
//!   `C(q)` because of other query dimensions),
//! * `C^H_j` — candidates whose **only** non-zero query coordinate is `j`,
//! * `C^L_j` — candidates with a non-zero coordinate in `j` *and* in at
//!   least one other query dimension.
//!
//! Lemmas 2 and 3 (and their `φ > 0` generalisation, Lemma 4) show that only
//! a handful of tuples from `C⁰_j` and `C^H_j` can ever influence the
//! immutable regions, which is what the pruning step exploits.

use ir_topk::CandidateEntry;
use serde::{Deserialize, Serialize};

/// Indices (into the candidate slice) of each partition for one dimension.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Members of `C⁰_j`.
    pub zero: Vec<usize>,
    /// Members of `C^H_j`.
    pub high: Vec<usize>,
    /// Members of `C^L_j`.
    pub low: Vec<usize>,
}

/// Sizes of the three partitions (used by the Figure 6 experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSizes {
    /// `|C⁰_j|`.
    pub zero: usize,
    /// `|C^H_j|`.
    pub high: usize,
    /// `|C^L_j|`.
    pub low: usize,
}

impl Partition {
    /// Splits `candidates` with respect to the `dim_index`-th query
    /// dimension.
    pub fn classify(candidates: &[CandidateEntry], dim_index: usize) -> Self {
        let mut partition = Partition::default();
        for (i, cand) in candidates.iter().enumerate() {
            let coord_j = cand.coord(dim_index);
            if coord_j == 0.0 {
                partition.zero.push(i);
            } else {
                let has_other = cand
                    .coords
                    .iter()
                    .enumerate()
                    .any(|(d, &v)| d != dim_index && v > 0.0);
                if has_other {
                    partition.low.push(i);
                } else {
                    partition.high.push(i);
                }
            }
        }
        partition
    }

    /// The partition sizes.
    pub fn sizes(&self) -> PartitionSizes {
        PartitionSizes {
            zero: self.zero.len(),
            high: self.high.len(),
            low: self.low.len(),
        }
    }

    /// The `count` highest-scoring members of `C⁰_j` (Lemma 4, for the `φ`
    /// regions to the left).
    pub fn top_zero_by_score(&self, count: usize) -> Vec<usize> {
        self.zero.iter().copied().take(count).collect()
    }

    /// The `count` members of `C^H_j` with the largest coordinates in `j`
    /// (Lemma 4, for the `φ` regions to the right).
    pub fn top_high_by_coord(
        &self,
        candidates: &[CandidateEntry],
        dim_index: usize,
        count: usize,
    ) -> Vec<usize> {
        let mut by_coord: Vec<usize> = self.high.clone();
        by_coord.sort_by(|&a, &b| {
            candidates[b]
                .coord(dim_index)
                .total_cmp(&candidates[a].coord(dim_index))
                .then_with(|| candidates[a].id.cmp(&candidates[b].id))
        });
        by_coord.truncate(count);
        by_coord
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::TupleId;

    fn cand(id: u32, score: f64, coords: &[f64]) -> CandidateEntry {
        CandidateEntry {
            id: TupleId(id),
            score,
            coords: coords.to_vec(),
        }
    }

    /// Candidates over two query dimensions; slice sorted by decreasing
    /// score as `C(q)` always is.
    fn sample() -> Vec<CandidateEntry> {
        vec![
            cand(0, 0.9, &[0.0, 0.9]),  // zero in dim 0
            cand(1, 0.8, &[0.8, 0.0]),  // high in dim 0
            cand(2, 0.7, &[0.5, 0.2]),  // low in dim 0
            cand(3, 0.6, &[0.0, 0.6]),  // zero in dim 0
            cand(4, 0.5, &[0.95, 0.0]), // high in dim 0
        ]
    }

    #[test]
    fn classify_splits_correctly() {
        let candidates = sample();
        let p = Partition::classify(&candidates, 0);
        assert_eq!(p.zero, vec![0, 3]);
        assert_eq!(p.high, vec![1, 4]);
        assert_eq!(p.low, vec![2]);
        assert_eq!(
            p.sizes(),
            PartitionSizes {
                zero: 2,
                high: 2,
                low: 1
            }
        );
    }

    #[test]
    fn classification_is_per_dimension() {
        let candidates = sample();
        let p1 = Partition::classify(&candidates, 1);
        // In dimension 1: ids 1 and 4 have zero coordinate, id 0 and 3 are
        // "high" (only dim 1 non-zero), id 2 is "low".
        assert_eq!(p1.zero, vec![1, 4]);
        assert_eq!(p1.high, vec![0, 3]);
        assert_eq!(p1.low, vec![2]);
    }

    #[test]
    fn best_zero_is_top_scorer() {
        let candidates = sample();
        let p = Partition::classify(&candidates, 0);
        assert_eq!(p.top_zero_by_score(1), vec![0]);
        assert_eq!(p.top_zero_by_score(5), vec![0, 3]);
    }

    #[test]
    fn best_high_is_largest_coordinate() {
        let candidates = sample();
        let p = Partition::classify(&candidates, 0);
        // Candidate 4 has coordinate 0.95 > candidate 1's 0.8.
        assert_eq!(p.top_high_by_coord(&candidates, 0, 1), vec![4]);
        assert_eq!(p.top_high_by_coord(&candidates, 0, 2), vec![4, 1]);
    }

    #[test]
    fn empty_candidate_list_yields_empty_partition() {
        let p = Partition::classify(&[], 0);
        assert_eq!(p.sizes(), PartitionSizes::default());
        assert!(p.top_zero_by_score(1).is_empty());
        assert!(p.top_high_by_coord(&[], 0, 1).is_empty());
    }
}
