//! # immutable-regions
//!
//! A Rust implementation of *Computing Immutable Regions for Subspace Top-k
//! Queries* (Kyriakos Mouratidis & HweeHwa Pang, PVLDB 6(2), VLDB 2013).
//!
//! Given a high-dimensional dataset and a linearly weighted top-k query over
//! a subset of its dimensions, the library computes — alongside the result —
//! the **immutable region** of every query weight: the widest range the
//! weight can move (all others fixed) without changing the result, plus the
//! exact new result just past each boundary, and optionally the `φ`
//! subsequent regions in each direction.
//!
//! This umbrella crate re-exports the whole stack and adds the [`engine`]
//! and [`fleet`] layers on top:
//!
//! | layer | crate / module | contents |
//! |-------|----------------|----------|
//! | data model | [`types`] | sparse tuples, datasets, queries, results |
//! | storage | [`storage`] | paged inverted lists, tuple file, buffer pool, I/O accounting |
//! | geometry | [`geometry`] | score-coordinate lines, lower envelopes, kinetic sweep |
//! | top-k | [`topk`] | the resumable random-access Threshold Algorithm |
//! | regions | [`core`] | Scan / Prune / Thres / CPT, `φ ≥ 0`, oracle, parallel driver |
//! | workloads | [`datagen`] | WSJ-like, KB-like and ST dataset generators |
//! | serving | [`engine`] | [`IrEngine`](engine::IrEngine): owned façade, queries, batches, tuple updates |
//! | fleet | [`fleet`] | [`SubscriptionManager`](fleet::SubscriptionManager): many live subscriptions, batched recomputes, region revalidation under updates; [`Subscription`](fleet::Subscription), a fleet of one |
//!
//! ## Quickstart
//!
//! [`engine::IrEngine`] is the front door: an owned, `Send + Sync + Clone`
//! handle that holds the index and warm buffer pool and serves one-off
//! queries and batches over a worker pool. The [`fleet`] layer on top serves
//! subscriptions that recompute only when drifting weights leave the
//! reported region.
//!
//! ```
//! use immutable_regions::prelude::*;
//!
//! // The two-dimensional running example of the paper (Figure 1).
//! let engine = IrEngine::builder()
//!     .dataset(Dataset::running_example())
//!     .build()?;
//! let query = QueryVector::running_example(); // q = <0.8, 0.5>, k = 2
//! let report = engine.query(&query)?;
//!
//! // Top-2 result is [d2, d1]; the immutable region of the first weight is
//! // (-16/35, +0.1): within it the result cannot change.
//! let dim0 = report.for_dim(DimId(0)).unwrap();
//! assert!((dim0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
//! assert!((dim0.immutable.hi - 0.1).abs() < 1e-9);
//!
//! // The subscribed-query loop: drift inside the region is answered from
//! // the cached report, drift outside triggers one recompute.
//! let mut subscription = Subscription::new(&engine, query.clone())?;
//! let drifted = query.with_weight_shift(DimId(0), 0.05)?;
//! assert!(subscription.is_immutable_under(&drifted));
//! assert!(!subscription.update(&drifted)?); // cache hit, no recompute
//! # Ok::<(), immutable_regions::types::IrError>(())
//! ```
//!
//! The low-level API ([`core::RegionComputation`]) remains available for
//! callers that assemble the index themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fleet;

pub use ir_core as core;
pub use ir_datagen as datagen;
pub use ir_geometry as geometry;
pub use ir_storage as storage;
pub use ir_topk as topk;
pub use ir_types as types;

/// Everything needed for typical use, importable with one `use`.
pub mod prelude {
    pub use crate::engine::{EngineHealthSnapshot, IrEngine, IrEngineBuilder};
    pub use crate::fleet::{
        AnswerKind, FleetAnswer, FleetConfig, FleetMember, FleetStats, Subscription,
        SubscriptionManager,
    };
    pub use ir_core::{
        update_impact, Algorithm, ComputationStats, DimRegions, ExhaustiveOracle, Perturbation,
        RegionBoundary, RegionComputation, RegionConfig, RegionReport, UpdateImpact, WeightRegion,
    };
    pub use ir_datagen::{
        CorrelatedConfig, CorrelatedGenerator, FeatureConfig, FeatureVectorGenerator,
        QueryWorkload, TextCorpusConfig, TextCorpusGenerator, WorkloadConfig,
    };
    pub use ir_datagen::{DriftConfig, DriftEvent, DriftStream};
    pub use ir_datagen::{UpdateConfig, UpdateStream};
    pub use ir_storage::{
        AppliedUpdate, FaultPlan, IndexBuilder, MaintenanceStatsSnapshot, RetryPolicy,
        StorageBackend, TopKIndex,
    };
    pub use ir_topk::{ProbeStrategy, TaConfig, TaRun};
    pub use ir_types::{
        Dataset, DatasetBuilder, DimId, IrError, IrResult, QueryBuilder, QueryVector, SparseVector,
        TopKResult, TupleId, TupleUpdate,
    };
}
