//! The region solver: Phases 1–3 for one query dimension, at every `φ` and
//! in both perturbation modes.
//!
//! For each direction (positive and negative deviations) the result tuples
//! become lines in the score-coordinate plane, and one [`IncrementalSweep`]
//! — Section 6's kinetic sweep — tracks the ordered top-k as the deviation
//! grows. Its first `φ + 1` perturbations bound the regions:
//!
//! * **Phase 1** (Algorithm 1): reorderings among the result lines.
//! * **Phase 2**: candidates of `C(q)` entering the result. The algorithms
//!   differ only here — which candidates they consider (pruning, Lemmas
//!   2–4) and in which order and with what early termination
//!   (thresholding, Algorithm 3).
//! * **Phase 3** (Algorithm 2): resume TA until no unseen tuple can rise
//!   above the k-th result line anywhere inside the regions.
//!
//! At `φ = 0` with reorderings the sweep stops at its first event, which is
//! Lemma 1's bound bit for bit, and every candidate the sweep cannot rule
//! out is folded into that one step without a re-sweep; the solver is then
//! Algorithms 1–3 pair by pair.
//!
//! Thresholding reads `SLS`, the pool in `C(q)`'s own order (by decreasing
//! score), and `SLj` as one heap per side: the right sweep pops the largest
//! coordinates, the left sweep the smallest, and only what is popped is
//! ever ordered. A side is done when the line of a tuple with the score and
//! coordinate at the heads never rises above its envelope
//! ([`ir_geometry::SweepOutcome::never_exceeds`]). A candidate pulled from
//! `SLS` is evaluated only for a side that is still open and only if it is
//! steeper than some k-th line there — at `φ = 0`, only when its coordinate
//! lies on the side of `d_k`'s whose bound is still open. Every evaluated
//! candidate is fed to both sweeps.
//!
//! All termination tests are re-checked together until they hold at once,
//! so a side that a later line reopens — a truncated sweep whose end moves
//! right — is searched again, and a candidate skipped from `SLS` is taken
//! up once it could rise above an envelope.

use crate::config::{PerturbationMode, RegionConfig};
use crate::evaluator::CandidateEvaluator;
use crate::partition::Partition;
use crate::region::{DimRegions, Perturbation, RegionBoundary, WeightRegion};
use ir_geometry::{IncrementalSweep, Interval, Line, SweepEvent, SweepEventKind};
use ir_storage::{IoStatsSnapshot, TopKIndex};
use ir_topk::TaRun;
use ir_types::{DimId, IrResult, TupleId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-dimension bookkeeping returned alongside the regions.
#[derive(Clone, Copy, Debug, Default)]
pub struct DimSolveInfo {
    /// Candidates evaluated for this dimension.
    pub evaluated: u64,
    /// Tuples newly discovered by the resumed TA of Phase 3.
    pub phase3_tuples: u64,
    /// Approximate bytes of candidate bookkeeping this dimension required.
    pub footprint_bytes: usize,
    /// Page accesses of this dimension's solve: evaluator fetches plus the
    /// resumed TA of Phase 3.
    pub io: IoStatsSnapshot,
}

/// Which side of the current weight a sweep covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Positive deviations `δq_j > 0`.
    Right,
    /// Negative deviations `δq_j < 0`, swept as `x = -δ`.
    Left,
}

/// A tuple as the solver sees it in one dimension.
#[derive(Clone, Copy, Debug)]
struct Cand {
    id: TupleId,
    score: f64,
    coord: f64,
}

/// One directional sweep.
struct Side {
    direction: Direction,
    sweep: IncrementalSweep,
    x_max: f64,
}

impl Side {
    fn new(
        direction: Direction,
        result: &[Cand],
        weight: f64,
        phi: usize,
        mode: PerturbationMode,
    ) -> Self {
        let x_max = match direction {
            Direction::Right => 1.0 - weight,
            Direction::Left => weight,
        };
        // In composition-only mode reorderings among result tuples are not
        // perturbations; the same sweep runs but only Enter events count
        // against φ, so the raw-event budget must cover every possible
        // reordering before the (φ+1)-th entry: at most k + φ + 1 distinct
        // lines ever hold a result slot and each pair crosses at most once.
        let max_events = match mode {
            PerturbationMode::WithReorderings => phi + 1,
            PerturbationMode::CompositionOnly => {
                let members = result.len() + phi + 1;
                (phi + 1) + members * members.saturating_sub(1) / 2 + 1
            }
        };
        let lines = result.iter().map(|c| line(direction, c)).collect();
        Side {
            direction,
            sweep: IncrementalSweep::new(lines, 0.0, x_max, max_events),
            x_max,
        }
    }

    /// True if a tuple scoring `score` at `δ = 0` with coordinate `coord`
    /// never rises above this side's k-th result line.
    fn stays_below(&mut self, score: f64, coord: f64) -> bool {
        let id = TupleId(u32::MAX);
        let probe = line(self.direction, &Cand { id, score, coord });
        self.sweep.outcome().never_exceeds(&probe)
    }

    /// True if a tuple of coordinate `coord` is steeper here than some k-th
    /// line of the envelope, the only way a tuple scoring at most `d_k` at
    /// `δ = 0` can rise above it.
    fn steeper(&mut self, coord: f64) -> bool {
        let slope = match self.direction {
            Direction::Right => coord,
            Direction::Left => -coord,
        };
        slope > self.sweep.outcome().min_kth_slope()
    }
}

/// A tuple's line as the sweep of `direction` sees it (mirrored on the
/// left).
fn line(direction: Direction, cand: &Cand) -> Line {
    let slope = match direction {
        Direction::Right => cand.coord,
        Direction::Left => -cand.coord,
    };
    Line::new(cand.id.0 as u64, cand.score, slope)
}

/// Feeds `cand` to both sweeps.
fn feed(sides: &mut [Side; 2], cand: Cand) {
    for side in sides.iter_mut() {
        side.sweep.push(line(side.direction, &cand));
    }
}

/// Evaluates `cand` (the random access the paper counts) and feeds it to
/// both sweeps.
fn evaluate(
    evaluator: &mut CandidateEvaluator<'_>,
    dim: DimId,
    cand: Cand,
    sides: &mut [Side; 2],
) -> IrResult<()> {
    evaluator.evaluate(cand.id, dim)?;
    feed(sides, cand);
    Ok(())
}

/// The thresholded walk over the pool (Algorithm 3): `SLS`, and `SLj` per
/// side.
struct Thresholds {
    /// The pool in `C(q)`'s order: by decreasing score, ties by id.
    sls: Vec<usize>,
    /// Read position in `sls`.
    sls_pos: usize,
    /// `SLj` per side, as a heap of the members the side uses: the right
    /// side pops the largest coordinate first, the left side the smallest,
    /// equal coordinates by increasing id. Only what a side pulls is ever
    /// ordered.
    slj: [BinaryHeap<Reverse<(u64, TupleId, usize)>>; 2],
    /// Per candidate, bit `1 << s` when side `s` may use it (Lemma 4).
    sides: Vec<u8>,
    pulled: Vec<bool>,
    /// Candidates pulled from `SLS` and left unevaluated because no open
    /// side could use them.
    skipped: Vec<usize>,
}

/// `x` as an integer of the same `total_cmp` order.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl Thresholds {
    /// `pool` lists the candidates of `views` some side uses, in the order
    /// of `C(q)`.
    fn new(pool: Vec<usize>, sides: Vec<u8>, views: &[Cand]) -> Self {
        let slj = [0, 1].map(|s: usize| {
            pool.iter()
                .filter(|&&idx| sides[idx] & (1 << s) != 0)
                .map(|&idx| {
                    let coord = ordered_bits(views[idx].coord);
                    // The right side (0) pops the largest coordinate first.
                    let key = if s == 0 { !coord } else { coord };
                    Reverse((key, views[idx].id, idx))
                })
                .collect()
        });
        Thresholds {
            sls: pool,
            sls_pos: 0,
            slj,
            sides,
            pulled: vec![false; views.len()],
            skipped: Vec::new(),
        }
    }

    fn uses(&self, s: usize, idx: usize) -> bool {
        self.sides[idx] & (1 << s) != 0
    }

    /// The first candidate side `s` uses at or after the read position of
    /// `SLS`, pulled or not.
    fn sls_head(&self, s: usize) -> Option<usize> {
        self.sls[self.sls_pos..]
            .iter()
            .copied()
            .find(|&idx| self.uses(s, idx))
    }

    /// The next candidate of `SLS` that no list has pulled yet, marked
    /// pulled.
    fn pull_sls(&mut self) -> Option<usize> {
        while let Some(&idx) = self.sls.get(self.sls_pos) {
            self.sls_pos += 1;
            if !self.pulled[idx] {
                self.pulled[idx] = true;
                return Some(idx);
            }
        }
        None
    }

    /// The next candidate of side `s`'s `SLj` that no list has pulled yet,
    /// marked pulled.
    fn pull_slj(&mut self, s: usize) -> Option<usize> {
        while let Some(Reverse((_, _, idx))) = self.slj[s].pop() {
            if !self.pulled[idx] {
                self.pulled[idx] = true;
                return Some(idx);
            }
        }
        None
    }

    /// True while side `s` can still gain from a candidate no list has
    /// passed: the line of a tuple with the score at the head of `SLS` and
    /// the coordinate at the head of the side's coordinate list — which
    /// bound every such candidate — rises above the envelope.
    fn open(&self, s: usize, side: &mut Side, views: &[Cand]) -> bool {
        let by_coord = self.slj[s].peek().map(|Reverse((_, _, idx))| *idx);
        let (Some(by_score), Some(by_coord)) = (self.sls_head(s), by_coord) else {
            return false;
        };
        !side.stays_below(views[by_score].score, views[by_coord].coord)
    }

    /// One round of Algorithm 3 while a side is open: a pull from `SLS`,
    /// evaluated only for an open side that uses it and is flatter
    /// somewhere than it, then a pull from each open side's coordinate
    /// list, the left first. Returns false, doing nothing, when both sides
    /// are done.
    fn round(
        &mut self,
        sides: &mut [Side; 2],
        views: &[Cand],
        evaluator: &mut CandidateEvaluator<'_>,
        dim: DimId,
    ) -> IrResult<bool> {
        let open = [
            self.open(0, &mut sides[0], views),
            self.open(1, &mut sides[1], views),
        ];
        if !open[0] && !open[1] {
            return Ok(false);
        }
        if let Some(idx) = self.pull_sls() {
            let coord = views[idx].coord;
            let mut needed = false;
            for (s, side) in sides.iter_mut().enumerate() {
                needed = needed || (open[s] && self.uses(s, idx) && side.steeper(coord));
            }
            if needed {
                evaluate(evaluator, dim, views[idx], sides)?;
            } else {
                self.skipped.push(idx);
            }
        }
        for s in [1, 0] {
            if self.open(s, &mut sides[s], views) {
                if let Some(idx) = self.pull_slj(s) {
                    evaluate(evaluator, dim, views[idx], sides)?;
                }
            }
        }
        Ok(true)
    }

    /// Takes out a skipped candidate that rises above the envelope of a
    /// side that uses it, if any: a later line moved that envelope.
    fn wake(&mut self, sides: &mut [Side; 2], views: &[Cand]) -> Option<usize> {
        let at = self.skipped.iter().position(|&idx| {
            let c = views[idx];
            (0..2).any(|s| self.uses(s, idx) && !sides[s].stays_below(c.score, c.coord))
        })?;
        Some(self.skipped.swap_remove(at))
    }
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

/// Solves one query dimension, and records in the returned info the page
/// accesses the solve made through `evaluator` and `ta`.
pub fn solve_dim(
    index: &TopKIndex,
    ta: &mut TaRun,
    dim_index: usize,
    config: &RegionConfig,
    evaluator: &mut CandidateEvaluator<'_>,
) -> IrResult<(DimRegions, DimSolveInfo)> {
    evaluator.start_dimension();
    let io_before = evaluator.io().plus(&ta.io());
    let dim = ta.dims()[dim_index];
    let weight = ta.weights()[dim_index];
    let phi = config.phi;
    let result: Vec<Cand> = ta
        .result_entries()
        .iter()
        .map(|e| Cand {
            id: e.id,
            score: e.score,
            coord: e.coord(dim_index),
        })
        .collect();
    let result_ids: Vec<TupleId> = result.iter().map(|c| c.id).collect();
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

    let mut sides = [
        Side::new(Direction::Right, &result, weight, phi, config.mode),
        Side::new(Direction::Left, &result, weight, phi, config.mode),
    ];

    // ------------------------------------------------------------------
    // Phase 2 pool. Pruning (Lemma 4) keeps C^L_j for both sides, the φ+1
    // best-scoring members of C⁰_j for the left and the φ+1
    // largest-coordinate members of C^H_j for the right.
    // ------------------------------------------------------------------
    let entries = ta.candidates().entries();
    let views: Vec<Cand> = entries
        .iter()
        .map(|c| Cand {
            id: c.id,
            score: c.score,
            coord: c.coord(dim_index),
        })
        .collect();
    const RIGHT: u8 = 1;
    const LEFT: u8 = 2;
    let mut uses = vec![0u8; views.len()];
    if config.algorithm.prunes() {
        let partition = Partition::classify(entries, dim_index);
        for &idx in &partition.low {
            uses[idx] = RIGHT | LEFT;
        }
        for idx in partition.top_zero_by_score(phi + 1) {
            uses[idx] |= LEFT;
        }
        for idx in partition.top_high_by_coord(entries, dim_index, phi + 1) {
            uses[idx] |= RIGHT;
        }
    } else {
        uses.fill(RIGHT | LEFT);
    }
    let pool: Vec<usize> = (0..views.len()).filter(|&idx| uses[idx] != 0).collect();
    info.footprint_bytes = phase2_footprint(config, entries.len(), pool.len());

    let mut thresholds = if config.algorithm.thresholds() {
        Some(Thresholds::new(pool, uses, &views))
    } else {
        for &idx in &pool {
            evaluate(evaluator, dim, views[idx], &mut sides)?;
        }
        None
    };

    // Every termination test must hold at once; a line fed by one phase
    // can reopen another.
    loop {
        if let Some(th) = thresholds.as_mut() {
            if th.round(&mut sides, &views, evaluator, dim)? {
                continue;
            }
        }

        // Phase 3: an unseen tuple scores at most
        // Σ_{i≠j} q_i t_i + (q_j + δ) t_j for every δ ≥ -q_j, the line of a
        // tuple scoring the TA threshold with coordinate t_j.
        if !ta.exhausted() {
            let threshold = ta.threshold();
            let tj = ta.threshold_values()[dim_index];
            let open = sides
                .iter_mut()
                .any(|side| !side.stays_below(threshold, tj));
            if open {
                if let Some(entry) = ta.resume_next_candidate(index)? {
                    info.phase3_tuples += 1;
                    let coord = evaluator.evaluate(entry.id, dim)?;
                    let (id, score) = (entry.id, entry.score);
                    feed(&mut sides, Cand { id, score, coord });
                }
                continue;
            }
        }

        match thresholds
            .as_mut()
            .and_then(|th| th.wake(&mut sides, &views))
        {
            Some(idx) => evaluate(evaluator, dim, views[idx], &mut sides)?,
            None => break,
        }
    }
    info.evaluated = evaluator.evaluated();

    // ------------------------------------------------------------------
    // Assemble regions from the two directional outcomes.
    // ------------------------------------------------------------------
    let [right, left] = &mut sides;
    let (right_x_max, left_x_max) = (right.x_max, left.x_max);
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

    let center_hi = right_events.first().map(|e| e.x).unwrap_or(right_x_max);
    let center_lo = -left_events.first().map(|e| e.x).unwrap_or(left_x_max);
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
    let mut left_regions = build_side(&left_events, left_x_max, Direction::Left);
    left_regions.reverse(); // most negative first
    regions.extend(left_regions);
    let current_region = regions.len();
    regions.push(WeightRegion {
        delta_lo: immutable.lo,
        delta_hi: immutable.hi,
        result: result_ids,
    });
    regions.extend(build_side(&right_events, right_x_max, Direction::Right));

    info.io = evaluator.io().plus(&ta.io()).since(&io_before);
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

/// Memory-footprint model of Section 7.2: Scan keeps a `(score, pointer)`
/// pair per candidate; thresholding additionally keeps the score- and
/// coordinate-sorted lists (one pointer each per member of its pool); pruning
/// shrinks the pool itself.
pub fn phase2_footprint(config: &RegionConfig, total_candidates: usize, pool: usize) -> usize {
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
