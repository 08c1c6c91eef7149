//! # ir-core
//!
//! Immutable-region computation for subspace top-k queries — the primary
//! contribution of *Computing Immutable Regions for Subspace Top-k Queries*
//! (Mouratidis & Pang, VLDB 2013).
//!
//! Given a dataset indexed by [`ir_storage::TopKIndex`], a query vector and a
//! result size `k`, the crate computes, for every query dimension `j`, the
//! *immutable region* `IR_j = (l_j, u_j)`: the widest range of deviations of
//! weight `q_j` (all other weights fixed) for which the top-k result is
//! preserved. For `φ > 0` it computes the `φ` successive regions on each side
//! together with the exact result inside each of them.
//!
//! Four algorithms are provided, selected by [`Algorithm`]:
//!
//! | Algorithm | Phase 2 behaviour | Paper section |
//! |-----------|-------------------|---------------|
//! | [`Algorithm::Scan`]  | evaluates every candidate in `C(q)` | §4 |
//! | [`Algorithm::Prune`] | candidate pruning (Lemmas 2–4) then evaluates the survivors | §5.1 |
//! | [`Algorithm::Thres`] | candidate thresholding over all of `C(q)` | §5.2 |
//! | [`Algorithm::Cpt`]   | pruning followed by thresholding (the paper's CPT) | §5 + §6 |
//!
//! All four share Phase 1 (reorderings inside `R(q)`) and Phase 3 (resumed TA
//! over tuples never seen by TA), and all four produce identical regions —
//! they differ only in how many candidates they must examine, which is
//! exactly what the paper's evaluation measures.
//!
//! The entry point is [`RegionComputation`]; [`oracle::ExhaustiveOracle`]
//! provides an `O(n²)` reference implementation used by the test-suite to
//! validate every algorithm on randomized inputs. The [`parallel`] module
//! adds a deterministic work-stealing driver on top:
//! [`BatchRegionComputation`] runs many queries over one warm buffer pool,
//! one sequential solve per query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod config;
pub mod evaluator;
pub mod invalidate;
pub mod iterative;
pub mod lemma;
pub mod metrics;
pub mod oracle;
pub mod parallel;
pub mod partition;
pub mod region;
pub mod solver_flat;
pub mod solver_phi;
pub mod threshold;

pub use compute::RegionComputation;
pub use config::{Algorithm, PerturbationMode, RegionConfig};
pub use invalidate::{batch_impact, update_impact, UpdateImpact};
pub use metrics::ComputationStats;
pub use oracle::ExhaustiveOracle;
pub use parallel::{BatchOutcome, BatchRegionComputation};
pub use region::{DimRegions, Perturbation, RegionBoundary, RegionReport, WeightRegion};
