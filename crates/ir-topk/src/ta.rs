//! The random-access Threshold Algorithm with resumable state.

use crate::candidates::{CandidateEntry, CandidateList};
use ir_storage::{InvertedListCursor, IoStatsSnapshot, TopKIndex};
use ir_types::{score_cmp, DimId, IrResult, QueryVector, RankedTuple, TopKResult, TupleId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Which inverted list receives the next sorted access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeStrategy {
    /// Classic round-robin over the query dimensions.
    RoundRobin,
    /// The enhancement of the paper's system model (Section 7.1, after
    /// Persin): probe the list with the largest `q_j · d_{αj}` where `d_α`
    /// is the last tuple pulled from that list.
    #[default]
    WeightedKey,
}

/// TA configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaConfig {
    /// Probing order of the inverted lists.
    pub probe_strategy: ProbeStrategy,
}

/// Access counters of a TA run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaStats {
    /// Entries popped from inverted lists.
    pub sorted_accesses: u64,
    /// Full tuples fetched from the external tuple file.
    pub random_accesses: u64,
}

/// A (possibly still resumable) TA execution: the top-k result, the candidate
/// list, and the frozen scan state needed to continue deeper into the lists.
///
/// A `TaRun` is `Clone`: the clone shares the index's buffer pool but owns
/// independent cursors, candidate list and result, so several worker threads
/// can each resume Phase 3 from the same frozen snapshot without
/// coordination — the basis of the deterministic parallel driver in
/// `ir-core`. A run tallies its own page accesses ([`TaRun::io`]); a clone
/// carries that tally, so what the clone read is its tally minus the
/// snapshot's.
#[derive(Clone)]
pub struct TaRun {
    query: QueryVector,
    dims: Vec<DimId>,
    weights: Vec<f64>,
    cursors: Vec<InvertedListCursor>,
    /// Sorting key of the next unread entry per list (`t_j`), zero when the
    /// list is exhausted.
    next_values: Vec<f64>,
    /// Value of the last entry pulled per list (drives the weighted-key
    /// probing heuristic).
    last_pulled: Vec<f64>,
    rr_next: usize,
    strategy: ProbeStrategy,
    seen: HashSet<TupleId>,
    result: Vec<CandidateEntry>,
    candidates: CandidateList,
    k: usize,
    stats: TaStats,
    /// Page accesses of the random accesses (the cursors tally their own).
    io: IoStatsSnapshot,
}

impl TaRun {
    /// Runs TA to completion for `query` over `index` and returns the
    /// resumable state.
    pub fn execute(index: &TopKIndex, query: &QueryVector, config: &TaConfig) -> IrResult<Self> {
        query.validate_against(index.dimensionality())?;
        let dims: Vec<DimId> = query.dims().map(|(d, _)| d).collect();
        let weights: Vec<f64> = query.dims().map(|(_, w)| w).collect();
        let mut cursors: Vec<InvertedListCursor> = Vec::with_capacity(dims.len());
        let mut next_values = Vec::with_capacity(dims.len());
        let mut last_pulled = Vec::with_capacity(dims.len());
        for &dim in &dims {
            let mut cursor = index.list_cursor(dim)?;
            let head = cursor.threshold_value()?;
            next_values.push(head);
            last_pulled.push(head);
            cursors.push(cursor);
        }
        let mut run = TaRun {
            query: query.clone(),
            dims,
            weights,
            cursors,
            next_values,
            last_pulled,
            rr_next: 0,
            strategy: config.probe_strategy,
            seen: HashSet::new(),
            result: Vec::with_capacity(query.k()),
            candidates: CandidateList::new(),
            k: query.k(),
            stats: TaStats::default(),
            io: IoStatsSnapshot::default(),
        };
        run.run_topk(index)?;
        Ok(run)
    }

    /// Convenience: execute with the default configuration.
    pub fn execute_default(index: &TopKIndex, query: &QueryVector) -> IrResult<Self> {
        Self::execute(index, query, &TaConfig::default())
    }

    fn run_topk(&mut self, index: &TopKIndex) -> IrResult<()> {
        loop {
            if self.result.len() == self.k && self.kth_score() >= self.threshold() {
                return Ok(());
            }
            if self.all_exhausted() {
                return Ok(());
            }
            self.sorted_access_step(index)?;
        }
    }

    /// Performs one sorted access (possibly skipping nothing — a single list
    /// pop), fetching and scoring the tuple if it is new. Returns the newly
    /// scored tuple, if any.
    fn sorted_access_step(&mut self, index: &TopKIndex) -> IrResult<Option<CandidateEntry>> {
        let Some(list_idx) = self.pick_list() else {
            return Ok(None);
        };
        self.rr_next = (list_idx + 1) % self.cursors.len();
        let cursor = &mut self.cursors[list_idx];
        let Some((id, value)) = cursor.next_entry()? else {
            self.next_values[list_idx] = 0.0;
            return Ok(None);
        };
        self.stats.sorted_accesses += 1;
        self.last_pulled[list_idx] = value;
        self.next_values[list_idx] = cursor.threshold_value()?;

        if self.seen.contains(&id) {
            return Ok(None);
        }
        self.seen.insert(id);

        // Random access: fetch the full tuple and compute score + coordinates
        // in the query dimensions.
        let tuple = index.fetch_tuple_counted(id, &mut self.io)?;
        self.stats.random_accesses += 1;
        let coords: Vec<f64> = self.dims.iter().map(|&d| tuple.get(d)).collect();
        let score: f64 = coords.iter().zip(&self.weights).map(|(c, w)| c * w).sum();
        let entry = CandidateEntry { id, score, coords };
        self.place(entry.clone());
        Ok(Some(entry))
    }

    /// Places a scored tuple into the result (possibly displacing the current
    /// k-th member) or into the candidate list.
    fn place(&mut self, entry: CandidateEntry) {
        let ranked = entry.ranked();
        if self.result.len() < self.k {
            let pos = self
                .result
                .partition_point(|r| score_cmp(&r.ranked(), &ranked) == std::cmp::Ordering::Less);
            self.result.insert(pos, entry);
            return;
        }
        let kth = self.result.last().expect("result full").ranked();
        if score_cmp(&ranked, &kth) == std::cmp::Ordering::Less {
            // New tuple outranks the current k-th: displace it into C(q),
            // keeping its query-dimension coordinates.
            let pos = self
                .result
                .partition_point(|r| score_cmp(&r.ranked(), &ranked) == std::cmp::Ordering::Less);
            self.result.insert(pos, entry);
            let displaced = self.result.pop().expect("overfull result");
            self.candidates.insert(displaced);
        } else {
            self.candidates.insert(entry);
        }
    }

    fn pick_list(&self) -> Option<usize> {
        let live = |i: &usize| !self.cursors[*i].exhausted();
        match self.strategy {
            ProbeStrategy::RoundRobin => {
                let n = self.cursors.len();
                (0..n).map(|o| (self.rr_next + o) % n).find(live)
            }
            ProbeStrategy::WeightedKey => (0..self.cursors.len()).filter(live).max_by(|&a, &b| {
                let ka = self.weights[a] * self.last_pulled[a];
                let kb = self.weights[b] * self.last_pulled[b];
                ka.total_cmp(&kb).then_with(|| b.cmp(&a))
            }),
        }
    }

    fn all_exhausted(&self) -> bool {
        self.cursors.iter().all(|c| c.exhausted())
    }

    /// The query this run answers.
    pub fn query(&self) -> &QueryVector {
        &self.query
    }

    /// The query dimensions in weight-vector order.
    pub fn dims(&self) -> &[DimId] {
        &self.dims
    }

    /// The query weights aligned with [`TaRun::dims`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The current top-k result (may hold fewer than `k` entries when fewer
    /// tuples have positive score on the query dimensions).
    pub fn result(&self) -> TopKResult {
        TopKResult::from_entries(self.result.iter().map(CandidateEntry::ranked).collect())
    }

    /// The result members together with their query-dimension coordinates
    /// (best first). Phase 1 of the region algorithms works directly on this.
    pub fn result_entries(&self) -> &[CandidateEntry] {
        &self.result
    }

    /// Score of the current k-th result tuple (`-inf` while the result is
    /// not yet full so that the TA termination test keeps failing).
    pub fn kth_score(&self) -> f64 {
        if self.result.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.result.last().map_or(f64::NEG_INFINITY, |r| r.score)
        }
    }

    /// The k-th result tuple, if the result is non-empty.
    pub fn kth(&self) -> Option<RankedTuple> {
        self.result.last().map(CandidateEntry::ranked)
    }

    /// The sorting keys `t_j` of the next unread entry per query dimension
    /// (zero for exhausted lists), aligned with [`TaRun::dims`].
    pub fn threshold_values(&self) -> &[f64] {
        &self.next_values
    }

    /// The TA threshold `Σ_j q_j · t_j`.
    pub fn threshold(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.next_values)
            .map(|(w, t)| w * t)
            .sum()
    }

    /// The candidate list `C(q)` accumulated so far.
    pub fn candidates(&self) -> &CandidateList {
        &self.candidates
    }

    /// Access counters.
    pub fn stats(&self) -> TaStats {
        self.stats
    }

    /// Every page access of the run so far: its cursors' sorted accesses
    /// plus its random accesses.
    pub fn io(&self) -> IoStatsSnapshot {
        self.cursors
            .iter()
            .fold(self.io, |acc, cursor| acc.plus(&cursor.io()))
    }

    /// True when every query-dimension list has been scanned to the end.
    pub fn exhausted(&self) -> bool {
        self.all_exhausted()
    }

    /// Resumes the scan (Phase 3 of Scan/CPT): performs sorted accesses until
    /// the next previously unseen tuple is found, adds it to the candidate
    /// list and returns it. Returns `None` once every list is exhausted.
    pub fn resume_next_candidate(&mut self, index: &TopKIndex) -> IrResult<Option<CandidateEntry>> {
        while !self.all_exhausted() {
            if let Some(entry) = self.sorted_access_step(index)? {
                // A tuple discovered after TA terminated cannot outrank the
                // current k-th result member at the *current* weights, so it
                // lands in the candidate list (the `place` call inside
                // `sorted_access_step` already put it there unless the result
                // was not yet full).
                return Ok(Some(entry));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::Dataset;

    fn running_example() -> (TopKIndex, QueryVector) {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        (index, QueryVector::running_example())
    }

    #[test]
    fn round_robin_ta_reproduces_figure_2_trace() {
        // Figure 2 of the paper traces round-robin TA: it processes d1 on L1,
        // d3 on L2, d2 on L1 and then stops with R(q) = [d2, d1] and
        // C(q) = [d3].
        let (index, query) = running_example();
        let config = TaConfig {
            probe_strategy: ProbeStrategy::RoundRobin,
        };
        let run = TaRun::execute(&index, &query, &config).unwrap();
        let result = run.result();
        assert_eq!(result.ids(), vec![TupleId(1), TupleId(0)]);
        assert!((result.at(0).unwrap().score - 0.81).abs() < 1e-12);
        assert!((result.at(1).unwrap().score - 0.80).abs() < 1e-12);
        assert!(run.candidates().contains(TupleId(2)));
        assert_eq!(run.candidates().len(), 1);
        assert!(!result.contains(TupleId(3)));
        assert!(run.kth_score() >= run.threshold());
        assert_eq!(run.stats().sorted_accesses, 3);
        assert_eq!(run.stats().random_accesses, 3);
    }

    #[test]
    fn weighted_key_strategy_finds_same_result_with_fewer_accesses() {
        // The weighted-key heuristic of Section 7.1 may probe L1 twice in a
        // row and terminate without ever touching d3; the result is the same.
        let (index, query) = running_example();
        let run = TaRun::execute_default(&index, &query).unwrap();
        assert_eq!(run.result().ids(), vec![TupleId(1), TupleId(0)]);
        assert!(run.stats().sorted_accesses <= 3);
        assert!(run.kth_score() >= run.threshold());
    }

    #[test]
    fn ta_matches_brute_force_on_dense_grid_dataset() {
        // A small deterministic dataset exercised with several k values.
        let mut builder = ir_types::DatasetBuilder::new(4);
        let vals = [0.13, 0.37, 0.59, 0.71, 0.83, 0.29, 0.47, 0.91];
        for i in 0..24u32 {
            let pairs: Vec<(u32, f64)> = (0..4u32)
                .map(|d| (d, vals[((i * 7 + d * 3) % 8) as usize]))
                .collect();
            builder.push_pairs(pairs).unwrap();
        }
        let dataset = builder.build();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        for k in [1usize, 3, 5, 10] {
            let query = QueryVector::new([(0, 0.9), (2, 0.4), (3, 0.1)], k).unwrap();
            let run = TaRun::execute_default(&index, &query).unwrap();
            // Brute force.
            let mut all: Vec<RankedTuple> = dataset
                .iter()
                .map(|(id, t)| RankedTuple::new(id, query.score(t)))
                .collect();
            all.sort_by(score_cmp);
            let expected: Vec<TupleId> = all.iter().take(k).map(|r| r.id).collect();
            assert_eq!(run.result().ids(), expected, "k = {k}");
        }
    }

    #[test]
    fn candidates_are_sorted_and_disjoint_from_result() {
        let (index, query) = running_example();
        let run = TaRun::execute_default(&index, &query).unwrap();
        let result_ids: Vec<TupleId> = run.result().ids();
        let mut last = f64::INFINITY;
        for c in run.candidates().iter() {
            assert!(c.score <= last);
            last = c.score;
            assert!(!result_ids.contains(&c.id));
        }
    }

    #[test]
    fn resume_discovers_remaining_tuples() {
        let (index, query) = running_example();
        let mut run = TaRun::execute_default(&index, &query).unwrap();
        let before = run.candidates().len();
        let mut found = Vec::new();
        while let Some(entry) = run.resume_next_candidate(&index).unwrap() {
            found.push(entry.id);
        }
        assert!(run.exhausted());
        // All four tuples are now either in the result or in C(q).
        let total = run.result().len() + run.candidates().len();
        assert_eq!(total, 4);
        assert!(run.candidates().len() >= before);
        // d4 (id 3) must have been discovered during resumption if it was not
        // seen before.
        assert!(run.candidates().contains(TupleId(3)));
        assert!(!found.is_empty());
    }

    #[test]
    fn stats_count_accesses() {
        let (index, query) = running_example();
        let run = TaRun::execute_default(&index, &query).unwrap();
        let stats = run.stats();
        assert!(stats.sorted_accesses >= 2);
        assert!(stats.random_accesses >= 2);
        assert!(stats.random_accesses <= 4);
        assert!(stats.random_accesses <= stats.sorted_accesses);
        // The run tallied every page request the pool served.
        assert_eq!(run.io(), index.io_snapshot());
    }

    #[test]
    fn k_larger_than_positive_support_returns_fewer_entries() {
        let mut builder = ir_types::DatasetBuilder::new(2);
        builder.push_pairs([(0, 0.5)]).unwrap();
        builder.push_pairs([(1, 0.9)]).unwrap();
        let dataset = builder.build();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        let query = QueryVector::new([(0, 1.0)], 5).unwrap();
        let run = TaRun::execute_default(&index, &query).unwrap();
        assert_eq!(run.result().len(), 1, "only one tuple has dim-0 support");
    }

    #[test]
    fn displaced_result_members_move_to_candidates() {
        // Craft an insertion order where an early result member is displaced:
        // with k = 1 the first fetched tuple is provisional.
        let mut builder = ir_types::DatasetBuilder::new(2);
        builder.push_pairs([(0, 0.9), (1, 0.05)]).unwrap(); // score 0.41
        builder.push_pairs([(0, 0.5), (1, 0.9)]).unwrap(); // score 0.61
        builder.push_pairs([(0, 0.2), (1, 0.95)]).unwrap(); // score 0.485
        let dataset = builder.build();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        let query = QueryVector::new([(0, 0.4), (1, 0.3)], 1).unwrap();
        let run = TaRun::execute_default(&index, &query).unwrap();
        assert_eq!(run.result().ids(), vec![TupleId(1)]);
        // The other encountered tuples are candidates.
        assert!(!run.candidates().is_empty());
        for c in run.candidates().iter() {
            assert_ne!(c.id, TupleId(1));
        }
    }
}
