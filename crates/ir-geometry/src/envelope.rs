//! Lower envelopes of line sets.
//!
//! The lower envelope of the `k` result lines is the score of the k-th
//! result tuple as a function of the weight deviation (Section 6, Figure 9).
//! A candidate enters the result exactly where its line crosses the envelope
//! from below. The region solver reads the envelope a kinetic sweep traces
//! ([`crate::SweepOutcome::never_exceeds`]); this module builds one from a
//! set of lines.

use crate::line::{intersection_x, Line};
use serde::{Deserialize, Serialize};

/// One linear piece of a lower envelope.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnvelopePiece {
    /// Piece start (inclusive).
    pub x_start: f64,
    /// Piece end (exclusive except for the last piece).
    pub x_end: f64,
    /// The line that attains the minimum on this piece.
    pub line: Line,
}

/// The lower envelope (pointwise minimum) of a set of lines over `[lo, hi]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LowerEnvelope {
    lo: f64,
    hi: f64,
    pieces: Vec<EnvelopePiece>,
}

impl LowerEnvelope {
    /// Builds the lower envelope of `lines` over `[lo, hi]`.
    ///
    /// Runs a simple left-to-right sweep: starting from the minimal line at
    /// `lo`, repeatedly find the earliest crossing at which some other line
    /// dips below the current one. With `k` lines this is `O(k^2)` in the
    /// worst case (`O(k log k)` is possible but `k` is small — typically 10
    /// to 80 — so simplicity wins).
    ///
    /// Panics if `lines` is empty or `lo > hi`.
    pub fn build(lines: &[Line], lo: f64, hi: f64) -> Self {
        assert!(!lines.is_empty(), "lower envelope of zero lines");
        assert!(lo <= hi, "invalid envelope range [{lo}, {hi}]");

        let min_line_at = |x: f64| -> Line {
            *lines
                .iter()
                .min_by(|a, b| {
                    a.eval(x)
                        .total_cmp(&b.eval(x))
                        .then_with(|| a.label.cmp(&b.label))
                })
                .expect("non-empty lines")
        };

        let mut pieces = Vec::new();
        let mut x = lo;
        let mut current = min_line_at(lo);
        // Guard against pathological floating point cycling.
        let max_pieces = lines.len() * lines.len() + 2;
        while pieces.len() < max_pieces {
            // Earliest x' > x where some line goes strictly below `current`.
            let mut next_x = hi;
            let mut next_line: Option<Line> = None;
            for cand in lines {
                if cand.label == current.label {
                    continue;
                }
                // `cand` can only dip below `current` later if it decreases
                // relative to it, i.e. has a smaller slope.
                if cand.slope >= current.slope {
                    continue;
                }
                if let Some(cx) = intersection_x(&current, cand) {
                    if cx > x && cx < next_x {
                        next_x = cx;
                        next_line = Some(*cand);
                    }
                }
            }
            match next_line {
                Some(line) if next_x < hi => {
                    pieces.push(EnvelopePiece {
                        x_start: x,
                        x_end: next_x,
                        line: current,
                    });
                    x = next_x;
                    current = line;
                }
                _ => {
                    pieces.push(EnvelopePiece {
                        x_start: x,
                        x_end: hi,
                        line: current,
                    });
                    break;
                }
            }
        }
        LowerEnvelope { lo, hi, pieces }
    }

    /// Range start.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Range end.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The envelope pieces from left to right.
    pub fn pieces(&self) -> &[EnvelopePiece] {
        &self.pieces
    }

    /// The piece containing `x` (clamped into the range).
    pub fn piece_at(&self, x: f64) -> &EnvelopePiece {
        let x = x.clamp(self.lo, self.hi);
        self.pieces
            .iter()
            .find(|p| x <= p.x_end)
            .unwrap_or_else(|| self.pieces.last().expect("envelope has pieces"))
    }

    /// Envelope value at `x`.
    pub fn value_at(&self, x: f64) -> f64 {
        self.piece_at(x).line.eval(x)
    }

    /// The label of the line attaining the minimum at `x`.
    pub fn min_label_at(&self, x: f64) -> u64 {
        self.piece_at(x).line.label
    }

    /// First `x` in `[lo, hi]` at which `probe` reaches (or exceeds) the
    /// envelope, i.e. `probe.eval(x) >= envelope(x)`, or `None` if the probe
    /// stays strictly below everywhere: where a candidate would enter the
    /// result.
    pub fn first_reach_from_below(&self, probe: &Line) -> Option<f64> {
        for piece in &self.pieces {
            let start_diff = probe.eval(piece.x_start) - piece.line.eval(piece.x_start);
            if start_diff >= 0.0 {
                return Some(piece.x_start);
            }
            let end_diff = probe.eval(piece.x_end) - piece.line.eval(piece.x_end);
            if end_diff >= 0.0 {
                // Crossing inside this piece.
                let x = intersection_x(probe, &piece.line)
                    .expect("non-parallel because the sign of the difference changed");
                return Some(x.clamp(piece.x_start, piece.x_end));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(label: u64, intercept: f64, slope: f64) -> Line {
        Line::new(label, intercept, slope)
    }

    #[test]
    fn single_line_envelope_is_that_line() {
        let env = LowerEnvelope::build(&[l(0, 0.5, 0.2)], 0.0, 1.0);
        assert_eq!(env.pieces().len(), 1);
        assert_eq!(env.value_at(0.5), 0.6);
        assert_eq!(env.min_label_at(0.9), 0);
    }

    #[test]
    fn envelope_of_two_crossing_lines_has_breakpoint() {
        // a starts lower but grows faster: min is a then b after crossing?
        // a(0)=0.2 slope 1.0, b(0)=0.5 slope 0.0; they cross at x=0.3, after
        // which a is above b, so the envelope is a on [0,0.3], b on [0.3,1].
        let a = l(0, 0.2, 1.0);
        let b = l(1, 0.5, 0.0);
        let env = LowerEnvelope::build(&[a, b], 0.0, 1.0);
        assert_eq!(env.pieces().len(), 2);
        assert_eq!(env.min_label_at(0.0), 0);
        assert_eq!(env.min_label_at(0.9), 1);
        assert!((env.pieces()[0].x_end - 0.3).abs() < 1e-12);
        assert!((env.value_at(0.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn envelope_is_pointwise_minimum() {
        let lines = vec![
            l(0, 0.9, 0.1),
            l(1, 0.5, 0.6),
            l(2, 0.2, 1.2),
            l(3, 0.8, 0.0),
        ];
        let env = LowerEnvelope::build(&lines, 0.0, 2.0);
        for i in 0..=40 {
            let x = i as f64 * 0.05;
            let brute = lines
                .iter()
                .map(|ln| ln.eval(x))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (env.value_at(x) - brute).abs() < 1e-9,
                "mismatch at x={x}: {} vs {}",
                env.value_at(x),
                brute
            );
        }
    }

    #[test]
    fn first_reach_from_below_finds_entry_point() {
        // Envelope of one flat line at 0.5; probe starts at 0.2 with slope 1.
        let env = LowerEnvelope::build(&[l(0, 0.5, 0.0)], 0.0, 1.0);
        let probe = l(9, 0.2, 1.0);
        let x = env.first_reach_from_below(&probe).unwrap();
        assert!((x - 0.3).abs() < 1e-12);

        // A probe that never reaches the envelope.
        let below = l(8, 0.1, 0.0);
        assert_eq!(env.first_reach_from_below(&below), None);

        // A probe already at/above the envelope at the range start.
        let above = l(7, 0.7, 0.0);
        assert_eq!(env.first_reach_from_below(&above), Some(0.0));
    }

    #[test]
    fn envelope_on_negative_range_works() {
        // Used for the left-hand (δ < 0) side after mirroring.
        let a = l(0, 0.8, 0.9);
        let b = l(1, 0.5, 0.1);
        let env = LowerEnvelope::build(&[a, b], -0.8, 0.0);
        // At δ=-0.8: a = 0.08, b = 0.42 -> min is a. At 0: a=0.8, b=0.5 -> b.
        assert_eq!(env.min_label_at(-0.8), 0);
        assert_eq!(env.min_label_at(0.0), 1);
        assert_eq!(env.pieces().len(), 2);
    }
}
