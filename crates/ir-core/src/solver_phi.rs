//! The `φ > 0` solver: successive regions via the kinetic sweep (Section 6).
//!
//! For each query dimension and each direction (positive / negative
//! deviations) the result tuples become lines in the score-coordinate plane;
//! the first `φ + 1` order changes among them (Phase 1), plus the entries of
//! candidate lines into the result (Phase 2) and of tuples discovered by a
//! resumed TA (Phase 3), define the region boundaries. Pruning restricts
//! which candidates need to be considered (Lemma 4) and thresholding
//! processes them in potential order with a threshold-line termination test
//! against the lower envelope of the result.
//!
//! Each direction keeps one [`IncrementalSweep`], as Section 6 keeps one
//! sweep per direction. A fed candidate is tested against the cached
//! outcome: a line the sweep would never select stays *dormant* and costs no
//! sweep; only a line that could select an event becomes *active* and
//! re-runs the sweep over the result and the active lines. The envelope the
//! termination tests read is rebuilt only when that happens, so a round of
//! the thresholded loop or of Phase 3 that adds only dormant lines costs one
//! test per line and no sweep.

use crate::config::{PerturbationMode, RegionConfig};
use crate::evaluator::CandidateEvaluator;
use crate::partition::Partition;
use crate::region::{DimRegions, Perturbation, RegionBoundary, WeightRegion};
use crate::solver_flat::{phase2_footprint, DimSolveInfo};
use ir_geometry::{
    IncrementalSweep, Interval, Line, LowerEnvelope, SweepEvent, SweepEventKind, SweepOutcome,
};
use ir_storage::TopKIndex;
use ir_topk::TaRun;
use ir_types::{IrResult, TupleId};

/// Which side of the current weight a directional sweep covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Positive deviations `δq_j > 0`.
    Right,
    /// Negative deviations `δq_j < 0` (handled by mirroring `x = -δ`).
    Left,
}

/// A candidate as seen by one directional sweep.
#[derive(Clone, Copy, Debug)]
struct PhiCand {
    id: TupleId,
    score: f64,
    coord: f64,
}

impl PhiCand {
    fn line(&self, direction: Direction) -> Line {
        match direction {
            Direction::Right => Line::new(self.id.0 as u64, self.score, self.coord),
            Direction::Left => Line::new(self.id.0 as u64, self.score, -self.coord),
        }
    }
}

/// State of one directional sweep while candidates are being folded in.
struct DirectionalSweep {
    direction: Direction,
    sweep: IncrementalSweep,
    x_max: f64,
    /// Lower envelope of `sweep`'s outcome, built after sweep number
    /// `envelope_sweeps`.
    envelope: Option<LowerEnvelope>,
    envelope_sweeps: usize,
}

impl DirectionalSweep {
    fn new(
        direction: Direction,
        result: &[(TupleId, f64, f64)],
        weight: f64,
        phi: usize,
        mode: PerturbationMode,
    ) -> Self {
        let result_lines: Vec<Line> = result
            .iter()
            .map(|&(id, score, coord)| PhiCand { id, score, coord }.line(direction))
            .collect();
        let x_max = match direction {
            Direction::Right => 1.0 - weight,
            Direction::Left => weight,
        };
        // In composition-only mode reorderings among result tuples are not
        // perturbations; the same sweep runs but only Enter events count
        // against φ, so the raw-event budget must cover every possible
        // reordering before the (φ+1)-th entry: at most k + φ + 1 distinct
        // lines ever hold a result slot and each pair crosses at most once.
        let head_room = match mode {
            PerturbationMode::WithReorderings => phi + 1,
            PerturbationMode::CompositionOnly => {
                let members = result.len() + phi + 1;
                (phi + 1) + members * members.saturating_sub(1) / 2 + 1
            }
        };
        let mut sweep = IncrementalSweep::new(result_lines, 0.0, x_max, head_room);
        let envelope = envelope_of(sweep.outcome());
        DirectionalSweep {
            direction,
            envelope_sweeps: sweep.sweeps(),
            sweep,
            x_max,
            envelope,
        }
    }

    fn add_candidate(&mut self, cand: PhiCand) {
        self.sweep.push(cand.line(self.direction));
    }

    /// The threshold-line termination test: true if `threshold` stays
    /// strictly below the lower envelope of the k-th result line over the
    /// currently known region range, or there is no envelope to reach. The
    /// fed candidates are folded in first; the envelope is rebuilt only if
    /// that re-ran the sweep.
    fn safe_below(&mut self, threshold: &Line) -> bool {
        self.sweep.outcome();
        if self.sweep.sweeps() != self.envelope_sweeps {
            self.envelope = envelope_of(self.sweep.outcome());
            self.envelope_sweeps = self.sweep.sweeps();
        }
        self.envelope
            .as_ref()
            .map_or(true, |env| env.line_strictly_below(threshold))
    }
}

/// The lower envelope of the lines that were k-th in `outcome`, over
/// `[0, end_x]`.
fn envelope_of(outcome: &SweepOutcome) -> Option<LowerEnvelope> {
    if outcome.end_x <= 0.0 || outcome.envelope.is_empty() {
        return None;
    }
    let lines: Vec<Line> = outcome.envelope.iter().map(|p| p.line).collect();
    Some(LowerEnvelope::build(&lines, 0.0, outcome.end_x))
}

/// The events that are perturbations under the given mode, up to the
/// `(φ+1)`-th, borrowed from the outcome.
fn filter_events(events: &[SweepEvent], mode: PerturbationMode, phi: usize) -> Vec<&SweepEvent> {
    events
        .iter()
        .filter(|ev| match mode {
            PerturbationMode::WithReorderings => true,
            PerturbationMode::CompositionOnly => matches!(ev.kind, SweepEventKind::Enter { .. }),
        })
        .take(phi + 1)
        .collect()
}

fn event_perturbation(kind: &SweepEventKind) -> Perturbation {
    match *kind {
        SweepEventKind::Reorder {
            overtaker,
            overtaken,
        } => Perturbation::Reorder {
            moved_up: TupleId(overtaker as u32),
            moved_down: TupleId(overtaken as u32),
        },
        SweepEventKind::Enter { entering, evicted } => Perturbation::Replace {
            entering: TupleId(entering as u32),
            leaving: TupleId(evicted as u32),
        },
    }
}

fn order_to_ids(order: &[u64]) -> Vec<TupleId> {
    order.iter().map(|&l| TupleId(l as u32)).collect()
}

/// Solves one query dimension for `φ ≥ 1`.
pub fn solve_dim_phi(
    index: &TopKIndex,
    ta: &mut TaRun,
    dim_index: usize,
    config: &RegionConfig,
    evaluator: &mut CandidateEvaluator<'_>,
) -> IrResult<(DimRegions, DimSolveInfo)> {
    let dim = ta.dims()[dim_index];
    let weight = ta.weights()[dim_index];
    let phi = config.phi;
    let result: Vec<(TupleId, f64, f64)> = ta
        .result_entries()
        .iter()
        .map(|e| (e.id, e.score, e.coord(dim_index)))
        .collect();
    let result_ids: Vec<TupleId> = result.iter().map(|(id, _, _)| *id).collect();
    let mut info = DimSolveInfo::default();

    if result.is_empty() {
        let regions = vec![WeightRegion {
            delta_lo: -weight,
            delta_hi: 1.0 - weight,
            result: vec![],
        }];
        return Ok((
            DimRegions {
                dim,
                weight,
                immutable: Interval::new(-weight, 1.0 - weight),
                lower_boundary: None,
                upper_boundary: None,
                regions,
                current_region: 0,
            },
            info,
        ));
    }

    let mut right = DirectionalSweep::new(Direction::Right, &result, weight, phi, config.mode);
    let mut left = DirectionalSweep::new(Direction::Left, &result, weight, phi, config.mode);

    // ------------------------------------------------------------------
    // Phase 2: fold the candidates of C(q) into the sweeps.
    // ------------------------------------------------------------------
    let all_entries = ta.candidates().entries();
    let views: Vec<PhiCand> = all_entries
        .iter()
        .map(|c| PhiCand {
            id: c.id,
            score: c.score,
            coord: c.coord(dim_index),
        })
        .collect();

    // Candidate selection (Lemma 4) per direction.
    let (right_pool, left_pool): (Vec<usize>, Vec<usize>) = if config.algorithm.prunes() {
        let partition = Partition::classify(all_entries, dim_index);
        let mut right_pool = partition.low.clone();
        right_pool.extend(partition.top_high_by_coord(all_entries, dim_index, phi + 1));
        let mut left_pool = partition.low.clone();
        left_pool.extend(partition.top_zero_by_score(phi + 1));
        (right_pool, left_pool)
    } else {
        ((0..views.len()).collect(), (0..views.len()).collect())
    };
    // Per-view flags; the ids of C(q) are unique, so a view stands for its
    // tuple.
    let mut in_pool = vec![false; views.len()];
    for &idx in right_pool.iter().chain(&left_pool) {
        in_pool[idx] = true;
    }
    let pool_size = in_pool.iter().filter(|&&member| member).count();
    info.phase2_pool = pool_size;
    info.footprint_bytes = phase2_footprint(config, all_entries.len(), pool_size, ta.dims().len());

    let mut evaluated = vec![false; views.len()];
    let feed = |idx: usize,
                sweep: &mut DirectionalSweep,
                evaluator: &mut CandidateEvaluator<'_>,
                evaluated: &mut [bool],
                info: &mut DimSolveInfo|
     -> IrResult<()> {
        let cand = views[idx];
        if !evaluated[idx] {
            evaluated[idx] = true;
            let before = evaluator.evaluated();
            evaluator.evaluate(cand.id, dim)?;
            info.evaluated += evaluator.evaluated() - before;
        }
        sweep.add_candidate(cand);
        Ok(())
    };

    if config.algorithm.thresholds() {
        // Thresholded processing per direction: pull candidates by potential,
        // stopping as soon as the threshold line cannot reach the envelope.
        let mut processed = vec![false; views.len()];
        for (pool, direction) in [
            (&right_pool, Direction::Right),
            (&left_pool, Direction::Left),
        ] {
            let sweep = match direction {
                Direction::Right => &mut right,
                Direction::Left => &mut left,
            };
            // SLS: by decreasing score. SLj: by potential coordinate — large
            // coordinates help on the right, small ones on the left.
            let mut sls: Vec<usize> = pool.clone();
            sls.sort_by(|&a, &b| {
                views[b]
                    .score
                    .total_cmp(&views[a].score)
                    .then_with(|| views[a].id.cmp(&views[b].id))
            });
            let mut slj: Vec<usize> = pool.clone();
            match direction {
                Direction::Right => slj.sort_by(|&a, &b| {
                    views[b]
                        .coord
                        .total_cmp(&views[a].coord)
                        .then_with(|| views[a].id.cmp(&views[b].id))
                }),
                Direction::Left => slj.sort_by(|&a, &b| {
                    views[a]
                        .coord
                        .total_cmp(&views[b].coord)
                        .then_with(|| views[a].id.cmp(&views[b].id))
                }),
            }
            processed.fill(false);
            let (mut pos_s, mut pos_j) = (0usize, 0usize);
            loop {
                // Termination test: the threshold line built from the current
                // list positions must stay strictly below the envelope.
                let t_s = sls.get(pos_s).map(|&i| views[i].score);
                let t_j = slj.get(pos_j).map(|&i| views[i].coord);
                let (Some(t_s), Some(t_j)) = (t_s, t_j) else {
                    break; // a list is exhausted: every pool member was seen
                };
                let threshold_line = match direction {
                    Direction::Right => Line::new(u64::MAX, t_s, t_j),
                    Direction::Left => Line::new(u64::MAX, t_s, -t_j),
                };
                if sweep.safe_below(&threshold_line) {
                    break;
                }
                // Round-robin pull: SLS first, then SLj.
                let mut pulled = false;
                for (list, pos) in [(&sls, &mut pos_s), (&slj, &mut pos_j)] {
                    while *pos < list.len() {
                        let idx = list[*pos];
                        *pos += 1;
                        if !processed[idx] {
                            processed[idx] = true;
                            feed(idx, sweep, evaluator, &mut evaluated, &mut info)?;
                            pulled = true;
                            break;
                        }
                    }
                }
                if !pulled {
                    break;
                }
            }
        }
    } else {
        // Scan / Prune: every pool member is evaluated and folded in.
        for &idx in &right_pool {
            feed(idx, &mut right, evaluator, &mut evaluated, &mut info)?;
        }
        for &idx in &left_pool {
            feed(idx, &mut left, evaluator, &mut evaluated, &mut info)?;
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: resume TA until no unseen tuple can reach either envelope.
    // ------------------------------------------------------------------
    loop {
        let tvals = ta.threshold_values();
        let base: f64 = ta.weights().iter().zip(tvals).map(|(w, t)| w * t).sum();
        let tj = tvals[dim_index];
        // Unseen tuples score at most `base` at δ = 0; to the right their
        // score grows at most with slope t_j, to the left it cannot grow at
        // all (coordinates are non-negative).
        let right_safe = right.safe_below(&Line::new(u64::MAX, base, tj));
        let left_safe = left.safe_below(&Line::new(u64::MAX, base, 0.0));
        if (right_safe && left_safe) || ta.exhausted() {
            break;
        }
        let Some(entry) = ta.resume_next_candidate(index)? else {
            break;
        };
        info.phase3_tuples += 1;
        let before = evaluator.evaluated();
        let coord = evaluator.evaluate(entry.id, dim)?;
        info.evaluated += evaluator.evaluated() - before;
        let cand = PhiCand {
            id: entry.id,
            score: entry.score,
            coord,
        };
        right.add_candidate(cand);
        left.add_candidate(cand);
    }

    // ------------------------------------------------------------------
    // Assemble regions from the two directional outcomes. Every candidate
    // fed so far was folded in by the last termination test.
    // ------------------------------------------------------------------
    let right_events = filter_events(&right.sweep.outcome().events, config.mode, phi);
    let left_events = filter_events(&left.sweep.outcome().events, config.mode, phi);

    let build_side =
        |events: &[&SweepEvent], x_max: f64, direction: Direction| -> Vec<WeightRegion> {
            // Region r (1-based) lies between event r and event r+1 (or x_max).
            let mut regions = Vec::new();
            for r in 0..events.len().min(phi) {
                let lo_x = events[r].x;
                let hi_x = events.get(r + 1).map(|e| e.x).unwrap_or(x_max);
                let ids = order_to_ids(&events[r].order_after);
                let (delta_lo, delta_hi) = match direction {
                    Direction::Right => (lo_x, hi_x),
                    Direction::Left => (-hi_x, -lo_x),
                };
                regions.push(WeightRegion {
                    delta_lo,
                    delta_hi,
                    result: ids,
                });
            }
            regions
        };

    let center_hi = right_events.first().map(|e| e.x).unwrap_or(right.x_max);
    let center_lo = -left_events.first().map(|e| e.x).unwrap_or(left.x_max);
    let immutable = Interval::new_clamped(center_lo, center_hi);

    let upper_boundary = right_events.first().map(|e| RegionBoundary {
        delta: e.x,
        perturbation: event_perturbation(&e.kind),
    });
    let lower_boundary = left_events.first().map(|e| RegionBoundary {
        delta: -e.x,
        perturbation: event_perturbation(&e.kind),
    });

    let mut regions: Vec<WeightRegion> = Vec::new();
    let mut left_regions = build_side(&left_events, left.x_max, Direction::Left);
    left_regions.reverse(); // most negative first
    regions.extend(left_regions);
    let current_region = regions.len();
    regions.push(WeightRegion {
        delta_lo: immutable.lo,
        delta_hi: immutable.hi,
        result: result_ids,
    });
    regions.extend(build_side(&right_events, right.x_max, Direction::Right));

    Ok((
        DimRegions {
            dim,
            weight,
            immutable,
            lower_boundary,
            upper_boundary,
            regions,
            current_region,
        },
        info,
    ))
}
