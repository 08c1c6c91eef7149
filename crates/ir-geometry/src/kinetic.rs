//! Kinetic sweep over the ordered top-k as one weight deviation grows.
//!
//! Section 6 of the paper computes, for `φ > 0`, the sequence of result
//! perturbations as `δq_j` increases: crossings among result lines are
//! reorderings, and a candidate line crossing the lower envelope of the
//! result enters the result (evicting the then k-th tuple). This module
//! implements that process as a *kinetic sorted list*: the ordered top-k is
//! maintained while `x` (the deviation) sweeps to the right, and every order
//! change is reported as a [`SweepEvent`].
//!
//! The sweep works on abstract [`Line`]s; the caller mirrors lines
//! (`slope → -slope`) to reuse the same machinery for negative deviations.
//!
//! # Selection rule
//!
//! Each step picks the next event at or after the current position `x`:
//!
//! * the best *reorder* is the first adjacent pair of the ordered result, in
//!   rank order, whose crossing is earliest by more than `EVENT_EPS`;
//! * the best *enter* is the outside line with the smallest
//!   `(entry x, label)`, where a line's entry is `x` itself when it is
//!   already clearly above the k-th line (relative `1e-12`), else its
//!   crossing with the k-th line when it is steeper, else never;
//! * the enter wins only when it beats the best reorder by more than
//!   `EVENT_EPS`.
//!
//! The outside lines are never scanned in an order that can decide a tie,
//! so a [`SweepOutcome`] depends only on the ordered result and the *set* of
//! outside lines, not on the order they were added in. That is what lets
//! [`IncrementalSweep`] leave out lines the sweep would never select
//! ([`SweepOutcome::is_inert`]) and still equal [`sweep_topk`] over all of
//! them bit for bit.

use crate::envelope::EnvelopePiece;
use crate::line::{intersection_x, Line};
use serde::{Deserialize, Serialize};

/// What kind of perturbation an event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepEventKind {
    /// Two adjacent result members swapped ranks: `overtaker` moved above
    /// `overtaken`.
    Reorder {
        /// Label of the line that moved up.
        overtaker: u64,
        /// Label of the line that moved down.
        overtaken: u64,
    },
    /// A line from outside the result overtook the k-th member.
    Enter {
        /// Label of the entering line.
        entering: u64,
        /// Label of the evicted (previously k-th) line.
        evicted: u64,
    },
}

/// One perturbation of the ordered top-k.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepEvent {
    /// Deviation at which the perturbation happens.
    pub x: f64,
    /// The kind of perturbation.
    pub kind: SweepEventKind,
    /// The ordered top-k labels immediately after the event.
    pub order_after: Vec<u64>,
}

/// One selection step of a sweep: where it started, the k-th line it
/// tested outside lines against, and where the event it selected lies
/// (`x_max` when it found none). Zero-width steps at a repeated `x` are
/// recorded too, unlike envelope pieces.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepStep {
    /// Sweep position the step started from.
    pub x_start: f64,
    /// The k-th result line during the step.
    pub kth: Line,
    /// Position of the selected event, or `x_max` if there was none.
    pub x_end: f64,
}

/// Result of running a sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// The perturbations found, in increasing `x` order (at most the
    /// requested maximum).
    pub events: Vec<SweepEvent>,
    /// Piecewise description of the k-th (lowest ranked) line between `0` and
    /// [`SweepOutcome::end_x`] — the paper's lower envelope of the result.
    pub envelope: Vec<EnvelopePiece>,
    /// Where the sweep stopped: `x_max`, or the position of the last event if
    /// the maximum event count was reached first.
    pub end_x: f64,
    /// Whether the sweep stopped because it found the maximum number of
    /// events (as opposed to reaching `x_max`).
    pub truncated: bool,
    /// Every selection step the sweep made, in order.
    pub steps: Vec<SweepStep>,
}

impl SweepOutcome {
    /// True if the sweep would never select `line` had it been one of the
    /// outside lines: at every step its entry is absent or strictly after
    /// the step's end. Adding an inert line to the sweep leaves the outcome
    /// bit-identical (see the module docs' selection rule).
    pub fn is_inert(&self, line: &Line) -> bool {
        self.steps
            .iter()
            .all(|step| entry_x(line, &step.kth, step.x_start).map_or(true, |cx| cx > step.x_end))
    }
}

/// The kinetic sorted list.
#[derive(Clone, Debug)]
pub struct KineticSweep {
    x: f64,
    x_max: f64,
    ordered: Vec<Line>,
    outside: Vec<Line>,
    envelope: Vec<EnvelopePiece>,
    envelope_from: f64,
    steps: Vec<SweepStep>,
}

const EVENT_EPS: f64 = 1e-15;

/// Where `cand` overtakes `kth` at or after `x`: `x` itself when it is
/// already clearly above, the crossing when it is steeper, else never.
#[inline]
fn entry_x(cand: &Line, kth: &Line, x: f64) -> Option<f64> {
    let kth_here = kth.eval(x);
    // Tolerance for the "already above" test: right after an Enter event
    // the evicted line is numerically equal to the new k-th line at the
    // event position; without a tolerance, rounding can make it appear
    // infinitesimally above and the two lines would flip-flop forever.
    let above_eps = 1e-12 * kth_here.abs().max(1.0);
    if cand.eval(x) > kth_here + above_eps {
        // Clearly above already (can happen right after another event at
        // the same x): enters immediately.
        Some(x)
    } else if cand.slope > kth.slope {
        intersection_x(cand, kth).map(|cx| cx.max(x))
    } else {
        None
    }
}

impl KineticSweep {
    /// Creates a sweep starting at `x = x_start` with the given ordered
    /// result lines (best first). Panics if `ordered` is empty.
    pub fn new(ordered: Vec<Line>, x_start: f64, x_max: f64) -> Self {
        assert!(!ordered.is_empty(), "kinetic sweep needs at least one line");
        assert!(x_start <= x_max, "invalid sweep range");
        KineticSweep {
            x: x_start,
            x_max,
            ordered,
            outside: Vec::new(),
            envelope: Vec::new(),
            envelope_from: x_start,
            steps: Vec::new(),
        }
    }

    /// Adds a line that is currently outside the result (a candidate). It
    /// will produce an [`SweepEventKind::Enter`] event if and when it
    /// overtakes the k-th result line.
    pub fn add_outside(&mut self, line: Line) {
        self.outside.push(line);
    }

    /// Current sweep position.
    pub fn position(&self) -> f64 {
        self.x
    }

    /// The current ordered result labels (best first).
    pub fn order(&self) -> Vec<u64> {
        self.ordered.iter().map(|l| l.label).collect()
    }

    /// The current k-th (worst ranked) result line.
    pub fn kth_line(&self) -> Line {
        *self.ordered.last().expect("non-empty order")
    }

    fn record_envelope_piece(&mut self, to_x: f64) {
        if to_x > self.envelope_from {
            let piece = EnvelopePiece {
                x_start: self.envelope_from,
                x_end: to_x,
                line: self.kth_line(),
            };
            self.envelope.push(piece);
            self.envelope_from = to_x;
        }
    }

    /// Finds and applies the next perturbation at or after the current
    /// position, returning `None` when no further perturbation occurs before
    /// `x_max`.
    pub fn next_event(&mut self) -> Option<SweepEvent> {
        // Adjacent reorderings inside the result, in rank order.
        let mut reorder: Option<usize> = None;
        let mut reorder_x = f64::INFINITY;
        for i in 0..self.ordered.len().saturating_sub(1) {
            let upper = &self.ordered[i];
            let lower = &self.ordered[i + 1];
            if lower.slope <= upper.slope {
                continue; // lower can never catch up
            }
            if let Some(cx) = intersection_x(upper, lower) {
                let cx = cx.max(self.x);
                if cx <= self.x_max && cx < reorder_x - EVENT_EPS {
                    reorder_x = cx;
                    reorder = Some(i);
                }
            }
        }

        // The outside line with the smallest (entry x, label).
        let kth = self.kth_line();
        let mut enter: Option<(f64, u64, usize)> = None;
        for (idx, cand) in self.outside.iter().enumerate() {
            let Some(cx) = entry_x(cand, &kth, self.x) else {
                continue;
            };
            if cx > self.x_max {
                continue;
            }
            let earlier = enter.map_or(true, |(best_x, best_label, _)| {
                cx < best_x || (cx == best_x && cand.label < best_label)
            });
            if earlier {
                enter = Some((cx, cand.label, idx));
            }
        }

        let (event_x, kind) = match (enter, reorder) {
            (Some((ex, _, idx)), _) if ex < reorder_x - EVENT_EPS => {
                self.begin_step(ex);
                let entering = self.outside.swap_remove(idx);
                let evicted = self.ordered.pop().expect("non-empty order");
                self.ordered.push(entering);
                self.outside.push(evicted);
                let kind = SweepEventKind::Enter {
                    entering: entering.label,
                    evicted: evicted.label,
                };
                (ex, kind)
            }
            (_, Some(i)) => {
                self.begin_step(reorder_x);
                let overtaker = self.ordered[i + 1].label;
                let overtaken = self.ordered[i].label;
                self.ordered.swap(i, i + 1);
                let kind = SweepEventKind::Reorder {
                    overtaker,
                    overtaken,
                };
                (reorder_x, kind)
            }
            (_, None) => {
                self.steps.push(SweepStep {
                    x_start: self.x,
                    kth,
                    x_end: self.x_max,
                });
                return None;
            }
        };
        Some(SweepEvent {
            x: event_x,
            kind,
            order_after: self.order(),
        })
    }

    /// Records the step that ends at the selected event `to_x` and moves the
    /// sweep there, before the event changes the order.
    fn begin_step(&mut self, to_x: f64) {
        self.steps.push(SweepStep {
            x_start: self.x,
            kth: self.kth_line(),
            x_end: to_x,
        });
        self.record_envelope_piece(to_x);
        self.x = to_x;
    }

    /// Runs the sweep until `max_events` perturbations were found or `x_max`
    /// was reached, and returns the outcome (events + envelope trace).
    pub fn run(mut self, max_events: usize) -> SweepOutcome {
        let mut events = Vec::new();
        let mut truncated = false;
        while events.len() < max_events {
            match self.next_event() {
                Some(ev) => events.push(ev),
                None => break,
            }
        }
        if events.len() >= max_events {
            truncated = true;
        }
        let end_x = if truncated {
            events.last().map(|e| e.x).unwrap_or(self.x_max)
        } else {
            self.x_max
        };
        // Complete the envelope trace to end_x.
        self.record_envelope_piece(end_x);
        SweepOutcome {
            events,
            envelope: self.envelope,
            end_x,
            truncated,
            steps: self.steps,
        }
    }
}

/// Convenience wrapper: sweeps `ordered` (best first) against `outside`
/// candidates over `[x_start, x_max]`, reporting at most `max_events`
/// perturbations. This is the from-scratch reference [`IncrementalSweep`]
/// must equal.
pub fn sweep_topk(
    ordered: Vec<Line>,
    outside: Vec<Line>,
    x_start: f64,
    x_max: f64,
    max_events: usize,
) -> SweepOutcome {
    let mut sweep = KineticSweep::new(ordered, x_start, x_max);
    for line in outside {
        sweep.add_outside(line);
    }
    sweep.run(max_events)
}

/// A sweep that candidates are fed into one at a time, re-run only when a
/// fed line could change its outcome.
///
/// Fed lines wait as *pending* until the next [`IncrementalSweep::outcome`]
/// call. There each is tested against the cached outcome: an inert line
/// ([`SweepOutcome::is_inert`]) becomes *dormant* and is left out of the
/// sweep; any other line becomes *active* and invalidates the cache. A miss
/// sweeps the ordered result against the active lines only, then re-tests
/// every dormant line and promotes those the new outcome is no longer
/// blind to, repeating until none wakes. Dormancy is not monotone — a new
/// line can remove events, so a truncated sweep's `end_x` can grow and
/// uncover a dormant line's entry — which is why every miss re-tests them
/// all.
///
/// The cached outcome always equals [`sweep_topk`] over the result and every
/// line fed so far, in any order.
#[derive(Clone, Debug)]
pub struct IncrementalSweep {
    ordered: Vec<Line>,
    x_start: f64,
    x_max: f64,
    max_events: usize,
    pending: Vec<Line>,
    active: Vec<Line>,
    dormant: Vec<Line>,
    outcome: SweepOutcome,
    sweeps: usize,
}

impl IncrementalSweep {
    /// Creates the sweep of `ordered` (best first) over `[x_start, x_max]`
    /// with no outside lines yet, reporting at most `max_events`
    /// perturbations. Panics if `ordered` is empty.
    pub fn new(ordered: Vec<Line>, x_start: f64, x_max: f64, max_events: usize) -> Self {
        let outcome = sweep_topk(ordered.clone(), Vec::new(), x_start, x_max, max_events);
        IncrementalSweep {
            ordered,
            x_start,
            x_max,
            max_events,
            pending: Vec::new(),
            active: Vec::new(),
            dormant: Vec::new(),
            outcome,
            sweeps: 1,
        }
    }

    /// Feeds a candidate line; it is folded in by the next
    /// [`IncrementalSweep::outcome`] call.
    pub fn push(&mut self, line: Line) {
        self.pending.push(line);
    }

    /// The outcome over the result and every line fed so far.
    pub fn outcome(&mut self) -> &SweepOutcome {
        let mut stale = false;
        for line in self.pending.drain(..) {
            if self.outcome.is_inert(&line) {
                self.dormant.push(line);
            } else {
                self.active.push(line);
                stale = true;
            }
        }
        while stale {
            self.outcome = sweep_topk(
                self.ordered.clone(),
                self.active.clone(),
                self.x_start,
                self.x_max,
                self.max_events,
            );
            self.sweeps += 1;
            let (outcome, active) = (&self.outcome, &mut self.active);
            let awake = active.len();
            self.dormant.retain(|line| {
                let inert = outcome.is_inert(line);
                if !inert {
                    active.push(*line);
                }
                inert
            });
            stale = active.len() > awake;
        }
        &self.outcome
    }

    /// How many sweeps have run, the one over the bare result included. It
    /// grows only when the outcome may have changed.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// The fed lines currently left out of the sweep as inert.
    pub fn dormant(&self) -> &[Line] {
        &self.dormant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(label: u64, intercept: f64, slope: f64) -> Line {
        Line::new(label, intercept, slope)
    }

    #[test]
    fn reorder_event_matches_running_example() {
        // Top-2 of the running example on dimension 1: d2 (0.81, slope 0.7)
        // then d1 (0.80, slope 0.8). They swap at δ = 0.1.
        let outcome = sweep_topk(vec![l(2, 0.81, 0.7), l(1, 0.80, 0.8)], vec![], 0.0, 0.2, 10);
        assert_eq!(outcome.events.len(), 1);
        let ev = &outcome.events[0];
        assert!((ev.x - 0.1).abs() < 1e-12);
        assert_eq!(
            ev.kind,
            SweepEventKind::Reorder {
                overtaker: 1,
                overtaken: 2
            }
        );
        assert_eq!(ev.order_after, vec![1, 2]);
        assert!(!outcome.truncated);
        assert_eq!(outcome.end_x, 0.2);
    }

    #[test]
    fn enter_event_evicts_kth() {
        // One result line at 0.5 flat; a candidate starting at 0.2 with slope
        // 1.0 enters at x = 0.3.
        let outcome = sweep_topk(vec![l(0, 0.5, 0.0)], vec![l(9, 0.2, 1.0)], 0.0, 1.0, 10);
        assert_eq!(outcome.events.len(), 1);
        let ev = &outcome.events[0];
        assert!((ev.x - 0.3).abs() < 1e-12);
        assert_eq!(
            ev.kind,
            SweepEventKind::Enter {
                entering: 9,
                evicted: 0
            }
        );
        assert_eq!(ev.order_after, vec![9]);
    }

    #[test]
    fn evicted_line_can_reenter_later() {
        // Result: flat 0.5 (label 0). Candidate 1: slope 2 from 0.2 (enters
        // at 0.15, evicting 0). Candidate 2 never enters. After the eviction
        // the k-th is line 1, which line 0 can never overtake again (slope 0
        // vs 2), so only one event total.
        let outcome = sweep_topk(
            vec![l(0, 0.5, 0.0)],
            vec![l(1, 0.2, 2.0), l(2, 0.0, 0.1)],
            0.0,
            1.0,
            10,
        );
        assert_eq!(outcome.events.len(), 1);
        assert_eq!(outcome.events[0].order_after, vec![1]);
    }

    #[test]
    fn events_are_reported_in_increasing_x() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.1), l(1, 0.8, 0.5), l(2, 0.7, 0.2)],
            vec![l(3, 0.4, 1.5), l(4, 0.3, 0.05)],
            0.0,
            1.0,
            100,
        );
        let xs: Vec<f64> = outcome.events.iter().map(|e| e.x).collect();
        for w in xs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "events out of order: {xs:?}");
        }
        // The final order must rank lines consistently with direct evaluation
        // at end_x (allowing ties).
        let end = outcome.end_x;
        let final_order = outcome.events.last().unwrap().order_after.clone();
        let all = [
            l(0, 0.9, 0.1),
            l(1, 0.8, 0.5),
            l(2, 0.7, 0.2),
            l(3, 0.4, 1.5),
            l(4, 0.3, 0.05),
        ];
        let val = |label: u64| all.iter().find(|x| x.label == label).unwrap().eval(end);
        for w in final_order.windows(2) {
            assert!(val(w[0]) >= val(w[1]) - 1e-9);
        }
    }

    #[test]
    fn max_events_truncates_and_reports_end_x() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.0), l(1, 0.85, 0.1)],
            vec![l(2, 0.5, 2.0), l(3, 0.4, 3.0)],
            0.0,
            1.0,
            1,
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.events.len(), 1);
        assert!((outcome.end_x - outcome.events[0].x).abs() < 1e-12);
    }

    #[test]
    fn envelope_traces_the_kth_line() {
        // Two result lines; the k-th (lowest) changes identity at their
        // crossing.
        let outcome = sweep_topk(vec![l(0, 0.9, 0.0), l(1, 0.6, 0.8)], vec![], 0.0, 1.0, 10);
        // Crossing at x = 0.375: before it the k-th is line 1, after it the
        // k-th is line 0.
        assert_eq!(outcome.events.len(), 1);
        assert!((outcome.events[0].x - 0.375).abs() < 1e-12);
        assert_eq!(outcome.envelope.len(), 2);
        assert_eq!(outcome.envelope[0].line.label, 1);
        assert_eq!(outcome.envelope[1].line.label, 0);
        assert!((outcome.envelope[0].x_end - 0.375).abs() < 1e-12);
        assert!((outcome.envelope[1].x_end - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_events_when_nothing_crosses() {
        let outcome = sweep_topk(
            vec![l(0, 0.9, 0.5), l(1, 0.5, 0.5)],
            vec![l(2, 0.2, 0.5)],
            0.0,
            1.0,
            10,
        );
        assert!(outcome.events.is_empty());
        assert!(!outcome.truncated);
        assert_eq!(outcome.envelope.len(), 1);
        assert_eq!(outcome.envelope[0].line.label, 1);
    }

    #[test]
    fn a_line_that_removes_events_wakes_a_dormant_line() {
        // k = 1 under a flat result line r, at most two events. a enters at
        // 0.2 and b overtakes a at 0.3, where the sweep truncates. d is
        // steep but starts low: it would cross r at 0.3 and a at 0.311, both
        // after their steps end, so it is inert. n enters at 0.0167 with a
        // slope neither a nor b can match: one event, no truncation, and
        // end_x grows from 0.3 to 1 — which uncovers d crossing n at 0.421.
        let r = l(0, 0.5, 0.0);
        let (a, b) = (l(1, 0.3, 1.0), l(2, 0.0, 2.0));
        let (n, d) = (l(3, 0.45, 3.0), l(4, -2.5, 10.0));
        let bits = |o: &SweepOutcome| format!("{o:?}");

        let mut sweep = IncrementalSweep::new(vec![r], 0.0, 1.0, 2);
        sweep.push(a);
        sweep.push(b);
        let before = sweep.outcome().clone();
        assert_eq!((before.events.len(), before.end_x), (2, 0.3));
        assert_eq!(sweep.sweeps(), 2);

        sweep.push(d);
        assert_eq!(bits(sweep.outcome()), bits(&before));
        assert_eq!(sweep.sweeps(), 2, "an inert line must not re-run the sweep");
        assert_eq!(sweep.dormant(), &[d]);

        let without_d = sweep_topk(vec![r], vec![a, b, n], 0.0, 1.0, 2);
        assert_eq!(without_d.events.len(), 1);
        assert!(!without_d.truncated);
        assert_eq!(without_d.end_x, 1.0);
        assert!(!without_d.is_inert(&d));

        sweep.push(n);
        let after = sweep.outcome().clone();
        assert_eq!(sweep.sweeps(), 4, "one sweep for n, one after d woke");
        assert!(sweep.dormant().is_empty());
        assert_eq!(after.events.len(), 2);
        assert!((after.end_x - 2.95 / 7.0).abs() < 1e-12);
        let reference = sweep_topk(vec![r], vec![a, b, n, d], 0.0, 1.0, 2);
        assert_eq!(bits(&after), bits(&reference));
    }
}
