//! # ir-geometry
//!
//! Score-coordinate geometry used by the immutable-region algorithms.
//!
//! When a single query weight `q_j` deviates by `δ`, the score of a tuple
//! `d_α` is the *line* `y(δ) = S(d_α, q) + δ · d_{αj}` in the
//! score-coordinate plane (Figures 4, 8 and 9 of the paper). Everything the
//! algorithms need reduces to questions about such lines:
//!
//! * where do two lines cross ([`mod@line`]),
//! * what is the lower envelope of the current result lines — i.e. the score
//!   of the k-th result tuple as a function of `δ` ([`envelope`]),
//! * where are the first `φ + 1` order changes among a set of lines, and how
//!   does the ordered top-k evolve as `δ` grows when candidate lines may
//!   enter it ([`kinetic`]),
//! * interval bookkeeping for the immutable regions themselves
//!   ([`interval`]).
//!
//! The crate is deliberately independent of the data model: lines carry an
//! opaque `u64` label so that callers can map them back to tuples.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod envelope;
pub mod interval;
pub mod kinetic;
pub mod line;

pub use envelope::{EnvelopePiece, LowerEnvelope};
pub use interval::Interval;
pub use kinetic::{
    sweep_topk, IncrementalSweep, KineticSweep, SweepEvent, SweepEventKind, SweepOutcome, SweepStep,
};
pub use line::{intersection_x, Line};
