//! The `φ = 0` solver: Phases 1–3 for a single query dimension.
//!
//! This module contains the shared skeleton of Scan, Prune, Thres and CPT
//! when a single immutable region per dimension is requested:
//!
//! * **Phase 1** (Algorithm 1): tighten the region so the relative order
//!   among the result tuples is preserved (skipped in composition-only
//!   mode).
//! * **Phase 2**: tighten the region so no candidate of `C(q)` overtakes the
//!   k-th result tuple. The algorithms differ only here — which candidates
//!   they consider (pruning) and in which order / with what early
//!   termination (thresholding).
//! * **Phase 3** (Algorithm 2): resume TA and keep tightening until no
//!   unseen tuple can possibly overtake the k-th result tuple anywhere
//!   inside the current region.

use crate::config::{PerturbationMode, RegionConfig};
use crate::evaluator::CandidateEvaluator;
use crate::lemma::ScoreCoord;
use crate::partition::Partition;
use crate::region::{DimRegions, Perturbation, RegionBoundary, WeightRegion};
use crate::threshold::{exhaustive_phase2, threshold_phase2, BoundState, CandView};
use ir_geometry::Interval;
use ir_storage::{IoStatsSnapshot, TopKIndex};
use ir_topk::TaRun;
use ir_types::{IrError, IrResult, TupleId};

/// Per-dimension bookkeeping returned alongside the regions.
#[derive(Clone, Copy, Debug, Default)]
pub struct DimSolveInfo {
    /// Candidates evaluated for this dimension.
    pub evaluated: u64,
    /// Tuples newly discovered by the resumed TA of Phase 3.
    pub phase3_tuples: u64,
    /// Number of candidates Phase 2 worked on (after pruning, if any).
    pub phase2_pool: usize,
    /// Approximate bytes of candidate bookkeeping this dimension required.
    pub footprint_bytes: usize,
    /// Page accesses of this dimension's solve (evaluator fetches plus the
    /// resumed TA of Phase 3), filled in by the dispatcher.
    pub io: IoStatsSnapshot,
}

/// Solves one query dimension for `φ = 0`.
pub fn solve_dim_flat(
    index: &TopKIndex,
    ta: &mut TaRun,
    dim_index: usize,
    config: &RegionConfig,
    evaluator: &mut CandidateEvaluator<'_>,
) -> IrResult<(DimRegions, DimSolveInfo)> {
    let dim = ta.dims()[dim_index];
    let weight = ta.weights()[dim_index];
    let result: Vec<(TupleId, f64, f64)> = ta
        .result_entries()
        .iter()
        .map(|e| (e.id, e.score, e.coord(dim_index)))
        .collect();
    let result_ids: Vec<TupleId> = result.iter().map(|(id, _, _)| *id).collect();

    let mut info = DimSolveInfo::default();
    let mut bounds = BoundState::widest(weight);
    // The perturbation occurring at each bound (provenance).
    let mut lower_perturbation: Option<Perturbation> = None;
    let mut upper_perturbation: Option<Perturbation> = None;

    if result.is_empty() {
        // Degenerate query: nothing can ever change.
        let regions = vec![WeightRegion {
            delta_lo: bounds.lower,
            delta_hi: bounds.upper,
            result: vec![],
        }];
        return Ok((
            DimRegions {
                dim,
                weight,
                immutable: Interval::new(bounds.lower, bounds.upper),
                lower_boundary: None,
                upper_boundary: None,
                regions,
                current_region: 0,
            },
            info,
        ));
    }

    // ------------------------------------------------------------------
    // Phase 1: reorderings inside R(q) (Algorithm 1).
    // ------------------------------------------------------------------
    if config.mode == PerturbationMode::WithReorderings {
        for pair in result.windows(2) {
            let (anchor_id, anchor_score, anchor_coord) = pair[0];
            let (chall_id, chall_score, chall_coord) = pair[1];
            let before = (bounds.lower, bounds.upper);
            bounds.tighten(
                ScoreCoord::new(anchor_score, anchor_coord),
                ScoreCoord::new(chall_score, chall_coord),
                chall_id,
            );
            if bounds.upper < before.1 {
                upper_perturbation = Some(Perturbation::Reorder {
                    moved_up: chall_id,
                    moved_down: anchor_id,
                });
            }
            if bounds.lower > before.0 {
                lower_perturbation = Some(Perturbation::Reorder {
                    moved_up: chall_id,
                    moved_down: anchor_id,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: candidates in C(q).
    // ------------------------------------------------------------------
    // The empty-result case returned early above, so the top-k buffer is
    // provably non-empty here; the guard keeps the lints' no-panic promise.
    let Some(&(dk_id, dk_score, dk_coord)) = result.last() else {
        return Err(IrError::InvalidConfig(
            "top-k result unexpectedly empty after non-empty check".to_string(),
        ));
    };
    let dk = ScoreCoord::new(dk_score, dk_coord);

    let all_candidate_entries = ta.candidates().entries();
    let candidate_views: Vec<CandView> = all_candidate_entries
        .iter()
        .map(|c| CandView {
            id: c.id,
            score: c.score,
            coord: c.coord(dim_index),
        })
        .collect();

    let selected: Vec<CandView> = if config.algorithm.prunes() {
        let partition = Partition::classify(all_candidate_entries, dim_index);
        let mut picks: Vec<usize> = partition.low.clone();
        picks.extend(partition.top_zero_by_score(1));
        picks.extend(partition.top_high_by_coord(all_candidate_entries, dim_index, 1));
        picks.sort_unstable();
        picks.dedup();
        picks.into_iter().map(|i| candidate_views[i]).collect()
    } else {
        candidate_views.clone()
    };
    info.phase2_pool = selected.len();
    info.footprint_bytes = phase2_footprint(
        config,
        all_candidate_entries.len(),
        selected.len(),
        ta.dims().len(),
    );

    {
        let before_eval = evaluator.evaluated();
        let track_upper_before = bounds.upper;
        let track_lower_before = bounds.lower;
        let mut eval_fn = |id: TupleId| evaluator.evaluate(id, dim);
        if config.algorithm.thresholds() {
            threshold_phase2(dk, &selected, &mut bounds, &mut eval_fn)?;
        } else {
            exhaustive_phase2(dk, &selected, &mut bounds, &mut eval_fn)?;
        }
        info.evaluated += evaluator.evaluated() - before_eval;
        if bounds.upper < track_upper_before {
            if let Some(cause) = bounds.upper_cause {
                upper_perturbation = Some(Perturbation::Replace {
                    entering: cause,
                    leaving: dk_id,
                });
            }
        }
        if bounds.lower > track_lower_before {
            if let Some(cause) = bounds.lower_cause {
                lower_perturbation = Some(Perturbation::Replace {
                    entering: cause,
                    leaving: dk_id,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: tuples outside R(q) and C(q) (Algorithm 2).
    // ------------------------------------------------------------------
    {
        let weights = ta.weights().to_vec();
        loop {
            let tvals = ta.threshold_values().to_vec();
            let sum_other: f64 = weights
                .iter()
                .zip(&tvals)
                .enumerate()
                .filter(|(i, _)| *i != dim_index)
                .map(|(_, (w, t))| w * t)
                .sum();
            let tj = tvals[dim_index];
            // If d_k's entry in L_j precedes the scan frontier it was reached
            // via sorted access, so no unseen tuple has a larger j-coordinate
            // and the upper bound is already final (Section 4, Phase 3).
            let upper_needs_scan = dk_coord <= tj;
            let s_low = dk_score + bounds.lower * dk_coord;
            let s_high = dk_score + bounds.upper * dk_coord;
            let lower_active = sum_other + (weight + bounds.lower) * tj > s_low;
            let upper_active =
                upper_needs_scan && sum_other + (weight + bounds.upper) * tj > s_high;
            if !lower_active && !upper_active {
                break;
            }
            let Some(entry) = ta.resume_next_candidate(index)? else {
                break;
            };
            info.phase3_tuples += 1;
            let before_eval = evaluator.evaluated();
            let coord = evaluator.evaluate(entry.id, dim)?;
            info.evaluated += evaluator.evaluated() - before_eval;
            let before = (bounds.lower, bounds.upper);
            bounds.tighten(dk, ScoreCoord::new(entry.score, coord), entry.id);
            if bounds.upper < before.1 {
                upper_perturbation = Some(Perturbation::Replace {
                    entering: entry.id,
                    leaving: dk_id,
                });
            }
            if bounds.lower > before.0 {
                lower_perturbation = Some(Perturbation::Replace {
                    entering: entry.id,
                    leaving: dk_id,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Assemble the per-dimension output.
    // ------------------------------------------------------------------
    let immutable = Interval::new_clamped(bounds.lower, bounds.upper);
    let lower_boundary = lower_perturbation.map(|perturbation| RegionBoundary {
        delta: immutable.lo,
        perturbation,
    });
    let upper_boundary = upper_perturbation.map(|perturbation| RegionBoundary {
        delta: immutable.hi,
        perturbation,
    });
    let regions = vec![WeightRegion {
        delta_lo: immutable.lo,
        delta_hi: immutable.hi,
        result: result_ids,
    }];
    Ok((
        DimRegions {
            dim,
            weight,
            immutable,
            lower_boundary,
            upper_boundary,
            regions,
            current_region: 0,
        },
        info,
    ))
}

/// Memory-footprint model of Section 7.2: Scan keeps a `(score, pointer)`
/// pair per candidate; thresholding additionally keeps the score- and
/// coordinate-sorted lists (one pointer each per member of its pool); pruning
/// shrinks the pool itself.
pub fn phase2_footprint(
    config: &RegionConfig,
    total_candidates: usize,
    pool: usize,
    _qlen: usize,
) -> usize {
    let pair = std::mem::size_of::<f64>() + std::mem::size_of::<u64>();
    let pointer = std::mem::size_of::<u64>();
    let base = if config.algorithm.prunes() {
        // The on-the-fly optimisation keeps only the pruned pool per
        // dimension.
        pool * pair
    } else {
        total_candidates * pair
    };
    let lists = if config.algorithm.thresholds() {
        2 * pool * pointer
    } else {
        0
    };
    base + lists
}
