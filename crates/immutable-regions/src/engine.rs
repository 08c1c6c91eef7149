//! [`IrEngine`]: an owned, service-grade façade over the whole stack.
//!
//! The paper's workload is service-shaped: a *subscribed* top-k query whose
//! immutable regions are recomputed as the preference weights drift. The
//! low-level API ([`RegionComputation`]) makes every caller hand-assemble
//! dataset → index → pool → config. The engine replaces that with one owned
//! object that holds the warm state (index + buffer pool behind [`Arc`]) and
//! serves queries; handles are `Send + Sync + Clone`.
//!
//! The engine is the bottom of the serving stack: it never names a layer
//! above it. The subscription fleet ([`crate::fleet`]) and anything built on
//! top keep their own counters and metadata.
//!
//! Two call styles are surfaced:
//!
//! * [`IrEngine::query`] — one query, one [`RegionReport`] (bit-identical to
//!   the low-level sequential path),
//! * [`IrEngine::query_batch`] — many queries fanned out over the engine's
//!   worker pool sharing the warm buffer pool
//!   ([`BatchRegionComputation`] underneath; reports are identical for
//!   every worker count).
//!
//! The paper's subscribed-query loop — one subscription or a fleet of them —
//! is built on top, in [`crate::fleet`].
//!
//! ```
//! use immutable_regions::prelude::*;
//!
//! let engine = IrEngine::builder()
//!     .dataset(Dataset::running_example())
//!     .build()?;
//! let report = engine.query(&QueryVector::running_example())?;
//! let dim0 = report.for_dim(DimId(0)).unwrap();
//! assert!((dim0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
//! # Ok::<(), immutable_regions::engine::EngineError>(())
//! ```

mod builder;
mod error;
mod health;
mod policy;

pub use builder::IrEngineBuilder;
pub use error::{EngineError, EngineResult};
pub use health::EngineHealthSnapshot;
pub use policy::EnginePolicy;

use health::EngineHealth;
use ir_core::{
    BatchOutcome, BatchRegionComputation, RegionComputation, RegionConfig, RegionReport,
};
use ir_storage::{
    AppliedUpdate, BackendKind, ColdStartInfo, MaintenanceStatsSnapshot, SnapshotSummary, TopKIndex,
};
use ir_topk::TaConfig;
use ir_types::{DimId, IrError, QueryVector, SparseVector, TupleId, TupleUpdate};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// An owned immutable-regions engine: the single front door for serving
/// region computations.
///
/// The engine holds the [`TopKIndex`] (inverted lists, tuple file, buffer
/// pool) behind [`Arc`], so clones are cheap handles onto the same warm
/// state and the type is `Send + Sync + Clone` with no lifetimes. See the
/// [module docs](self) for the two call styles.
#[derive(Clone)]
pub struct IrEngine {
    index: Arc<TopKIndex>,
    config: RegionConfig,
    ta_config: TaConfig,
    threads: usize,
    health: Arc<EngineHealth>,
}

impl fmt::Debug for IrEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrEngine")
            .field("cardinality", &self.index.cardinality())
            .field("dimensionality", &self.index.dimensionality())
            .field("config", &self.config)
            .field("threads", &self.threads)
            .field("health", &self.health())
            .finish()
    }
}

impl IrEngine {
    /// Starts building an engine.
    pub fn builder<'d>() -> IrEngineBuilder<'d> {
        IrEngineBuilder::default()
    }

    /// The shared index the engine serves from (for storage-level control:
    /// cache warm-up, I/O accounting, direct cursor access).
    pub fn index(&self) -> &Arc<TopKIndex> {
        &self.index
    }

    /// The default region configuration.
    pub fn config(&self) -> RegionConfig {
        self.config
    }

    /// The worker count used by [`IrEngine::query_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's serializable policy (default config, worker count, the
    /// backend the index was built on and the fault plan its device
    /// executes, if any).
    pub fn policy(&self) -> EnginePolicy {
        EnginePolicy {
            config: self.config,
            threads: self.threads,
            backend: self.index.backend_kind(),
            fault_plan: self.index.fault_plan().cloned(),
        }
    }

    /// Cumulative health counters: operations served and failed (by
    /// failure class) plus the pool's retry counts. Shared by every handle
    /// onto the same engine.
    pub fn health(&self) -> EngineHealthSnapshot {
        self.health.snapshot(&self.index.io_snapshot())
    }

    /// Runs one engine operation with failure containment: panics anywhere
    /// below (a poisoned solver, an injected device panic) are caught at
    /// this boundary and surfaced as typed
    /// [`IrError::WorkerPanicked`] errors, and the outcome — success or any
    /// failure, classified — is recorded in the engine's health counters.
    /// The engine stays fully serviceable afterwards: all shared state is
    /// lock-free or uses non-poisoning locks.
    fn run_guarded<T>(&self, job: &str, op: impl FnOnce() -> EngineResult<T>) -> EngineResult<T> {
        let result = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::Core(IrError::WorkerPanicked {
                job: job.to_string(),
                message: ir_core::parallel::panic_message(payload.as_ref()),
            })),
        };
        self.health.record(&result);
        result
    }

    /// Which page-store backend the engine serves from.
    pub fn backend_kind(&self) -> BackendKind {
        self.index.backend_kind()
    }

    /// A handle onto the same warm state with a different default region
    /// configuration.
    pub fn with_config(&self, config: RegionConfig) -> IrEngine {
        IrEngine {
            config,
            ..self.clone()
        }
    }

    /// A handle onto the same warm state with a different worker count
    /// (clamped to at least 1).
    pub fn with_threads(&self, threads: usize) -> IrEngine {
        IrEngine {
            threads: threads.max(1),
            ..self.clone()
        }
    }

    /// Clears the buffer-pool cache and I/O counters — a fully cold start
    /// (what the experiment harness does between measured queries).
    pub fn cold_start(&self) {
        self.index.cold_start();
    }

    /// How this engine's index came up (built vs snapshot-opened) and what
    /// deterministic work that cost.
    pub fn cold_start_info(&self) -> ColdStartInfo {
        self.index.cold_start_info()
    }

    /// Saves the engine's index as a versioned snapshot under `dir`, for a
    /// later [`IrEngineBuilder::open_snapshot`] to serve without rebuilding.
    ///
    /// Every data page is copied through the engine's buffer pool (so the
    /// copy is checksum-verified and I/O-accounted). A save that fails
    /// half-way leaves a previous snapshot in `dir` intact, and saving into
    /// the directory a disk engine is serving from is safe — see
    /// [`TopKIndex::save_snapshot`].
    pub fn save_snapshot(&self, dir: impl Into<PathBuf>) -> EngineResult<SnapshotSummary> {
        let dir = dir.into();
        self.index
            .save_snapshot(&dir)
            .map_err(|source| EngineError::SnapshotSave { dir, source })
    }

    /// Validates a query against the engine's index without running it,
    /// returning the typed error a malformed request deserves.
    pub fn validate(&self, query: &QueryVector) -> EngineResult<()> {
        query.validate_against(self.index.dimensionality())?;
        if query.k() > self.index.cardinality() {
            return Err(EngineError::KTooLarge {
                k: query.k(),
                cardinality: self.index.cardinality(),
            });
        }
        Ok(())
    }

    /// Prepares a full computation handle for one query: runs the top-k
    /// phase and returns the [`RegionComputation`], for callers that need
    /// the TA internals (result, candidate list) in addition to the report.
    pub fn computation(&self, query: &QueryVector) -> EngineResult<RegionComputation> {
        self.computation_with(query, self.config)
    }

    /// [`IrEngine::computation`] with an explicit region configuration.
    pub fn computation_with(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionComputation> {
        self.run_guarded("computation", || self.computation_untracked(query, config))
    }

    /// The unguarded body of [`IrEngine::computation_with`], for composite
    /// operations that wrap a larger region in one [`IrEngine::run_guarded`]
    /// scope (so each operation is counted exactly once).
    fn computation_untracked(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionComputation> {
        self.validate(query)?;
        Ok(RegionComputation::with_ta_config(
            &self.index,
            query,
            config,
            &self.ta_config,
        )?)
    }

    /// Computes the immutable regions of one query with the engine's
    /// default configuration. The report is bit-identical to the low-level
    /// sequential path ([`RegionComputation::compute`]).
    pub fn query(&self, query: &QueryVector) -> EngineResult<RegionReport> {
        self.query_with(query, self.config)
    }

    /// [`IrEngine::query`] with an explicit region configuration.
    pub fn query_with(
        &self,
        query: &QueryVector,
        config: RegionConfig,
    ) -> EngineResult<RegionReport> {
        self.run_guarded("query", || {
            let mut computation = self.computation_untracked(query, config)?;
            Ok(computation.compute()?)
        })
    }

    /// Convenience: builds the query from `(dimension, weight)` pairs and
    /// computes its regions. Malformed weight sets surface as typed errors
    /// ([`EngineError::ZeroWeightQuery`] when no positive weight remains).
    pub fn query_pairs(
        &self,
        pairs: impl IntoIterator<Item = (u32, f64)>,
        k: usize,
    ) -> EngineResult<RegionReport> {
        let query = QueryVector::new(pairs, k)?;
        self.query(&query)
    }

    /// Runs a batch of queries over the engine's worker pool, sharing the
    /// warm buffer pool. Reports come back in query order and are identical
    /// to running each query sequentially, for every worker count.
    pub fn query_batch(&self, queries: &[QueryVector]) -> EngineResult<Vec<RegionReport>> {
        self.query_batch_detailed(queries)
            .map(|outcome| outcome.reports)
    }

    /// [`IrEngine::query_batch`], also returning the batch wall-clock time.
    /// Each report carries its own I/O, and [`BatchOutcome::total_io`] sums
    /// them to every page access the batch made.
    pub fn query_batch_detailed(&self, queries: &[QueryVector]) -> EngineResult<BatchOutcome> {
        self.run_guarded("query batch", || {
            for query in queries {
                self.validate(query)?;
            }
            let batch = BatchRegionComputation::new(&self.index, self.config)
                .with_threads(self.threads)
                .with_ta_config(self.ta_config);
            Ok(batch.run_detailed(queries)?)
        })
    }

    /// Applies a batch of logical updates to the live index — the dynamic
    /// half of the paper's system model. The index is maintained **in
    /// place** (tombstones, in-place rewrites, appends; affected inverted
    /// lists rewritten once), never rebuilt; the maintained index is
    /// logically identical to one freshly built from the mutated dataset,
    /// so every query issued after this returns is answered exactly as a
    /// full recompute would.
    ///
    /// The whole batch is validated first — a malformed update (unknown
    /// tuple, out-of-range value) rejects the batch with a typed error
    /// before any page is touched. Returns one [`AppliedUpdate`] per input
    /// (the touched tuple plus its vector before and after), which is what
    /// the subscription fleet ([`crate::fleet`]) consumes to decide which
    /// cached regions survived.
    ///
    /// Mutations are single-writer and not linearizable with in-flight
    /// queries: a query racing this call sees either the old or the new
    /// index, never a torn one.
    ///
    /// ```
    /// use immutable_regions::prelude::*;
    /// use immutable_regions::types::TupleUpdate;
    ///
    /// let engine = IrEngine::builder()
    ///     .dataset(Dataset::running_example())
    ///     .build()?;
    /// let query = QueryVector::running_example();
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(1), TupleId(0)]);
    ///
    /// // Insert a tuple that dominates everything: it takes rank 1.
    /// let applied = engine.apply_updates(&[TupleUpdate::Insert {
    ///     vector: SparseVector::from_pairs([(0, 0.99), (1, 0.99)])?,
    /// }])?;
    /// assert_eq!(applied[0].tuple, TupleId(4));
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(4), TupleId(1)]);
    ///
    /// // Deleting it restores the original result exactly.
    /// engine.delete(TupleId(4))?;
    /// assert_eq!(engine.query(&query)?.current_result(), [TupleId(1), TupleId(0)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn apply_updates(&self, updates: &[TupleUpdate]) -> EngineResult<Vec<AppliedUpdate>> {
        self.run_guarded("apply updates", || Ok(self.index.apply_updates(updates)?))
    }

    /// Inserts a new tuple (dense id assignment: the new tuple's id is the
    /// previous cardinality). See [`IrEngine::apply_updates`].
    pub fn insert(&self, vector: SparseVector) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::Insert { vector })
    }

    /// Deletes a tuple. The id stays addressable and reads back as the
    /// empty vector (ids are never reused). See [`IrEngine::apply_updates`].
    pub fn delete(&self, tuple: TupleId) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::Delete { tuple })
    }

    /// Sets one coordinate of one tuple (`0.0` removes the coordinate). See
    /// [`IrEngine::apply_updates`].
    pub fn update_score(
        &self,
        tuple: TupleId,
        dim: DimId,
        value: f64,
    ) -> EngineResult<AppliedUpdate> {
        self.apply_one(TupleUpdate::UpdateScore { tuple, dim, value })
    }

    fn apply_one(&self, update: TupleUpdate) -> EngineResult<AppliedUpdate> {
        let mut applied = self.apply_updates(std::slice::from_ref(&update))?;
        Ok(applied.pop().expect("one update in, one applied out"))
    }

    /// Cumulative index-maintenance counters (updates, batches, list
    /// rewrites, tuple relocations, maintenance I/O — accounted separately
    /// from query I/O).
    pub fn maintenance_stats(&self) -> MaintenanceStatsSnapshot {
        self.index.maintenance_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_storage::{FaultPlan, RetryPolicy};
    use ir_types::Dataset;

    fn engine() -> IrEngine {
        IrEngine::builder()
            .dataset(Dataset::running_example())
            .build()
            .unwrap()
    }

    #[test]
    fn engine_handles_are_send_sync_clone() {
        fn assert_handle<T: Send + Sync + Clone + 'static>() {}
        assert_handle::<IrEngine>();
    }

    #[test]
    fn query_matches_running_example() {
        let report = engine().query(&QueryVector::running_example()).unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
        assert!((d0.immutable.hi - 0.1).abs() < 1e-9);
    }

    #[test]
    fn policy_round_trips_through_json() {
        let policy = EnginePolicy {
            config: RegionConfig::with_phi(ir_core::Algorithm::Prune, 3).composition_only(),
            threads: 4,
            backend: BackendKind::File,
            fault_plan: Some(FaultPlan::transient_reads(7, 3, 100)),
        };
        let json = policy.to_json();
        assert_eq!(EnginePolicy::from_json(&json).unwrap(), policy);
        assert!(matches!(
            EnginePolicy::from_json("not json"),
            Err(EngineError::Policy(_))
        ));
        // The default policy stamps an explicit null — the stable shape the
        // committed bench baselines rely on.
        assert!(
            EnginePolicy::default()
                .to_json()
                .contains("\"fault_plan\":null"),
            "{}",
            EnginePolicy::default().to_json()
        );
    }

    #[test]
    fn health_counts_and_classifies_outcomes() {
        let engine = engine();
        assert_eq!(engine.health(), EngineHealthSnapshot::default());
        let _ = engine.query(&QueryVector::running_example()).unwrap();
        // k too large: a failed operation, but not a storage-failure class.
        let big_k = QueryVector::running_example().with_k(100).unwrap();
        assert!(engine.query(&big_k).is_err());
        let health = engine.health();
        assert_eq!(health.queries_ok, 1);
        assert_eq!(health.queries_failed, 1);
        assert_eq!(health.worker_panics, 0);
        assert_eq!(health.corruption_errors, 0);
        assert_eq!(health.retries_exhausted, 0);
        assert!(!health.is_unblemished());
        // Handles share the same counters.
        assert_eq!(engine.clone().health(), health);
    }

    #[test]
    fn fault_plan_flows_from_policy_to_device_and_back() {
        let plan = FaultPlan::device_outage(2, None);
        let policy = EnginePolicy {
            fault_plan: Some(plan.clone()),
            ..EnginePolicy::default()
        };
        let chaos = IrEngine::builder()
            .dataset(Dataset::running_example())
            .policy(policy)
            .build()
            .unwrap();
        assert_eq!(chaos.policy().fault_plan.as_ref(), Some(&plan));
        assert!(chaos.index().fault_injector().unwrap().is_armed());
        // A fault-free engine stamps null.
        assert_eq!(engine().policy().fault_plan, None);
    }

    #[test]
    fn engine_survives_a_device_outage_and_reports_typed_errors() {
        // Read op 0 fails permanently, everything after succeeds; no
        // retry policy so the error surfaces directly.
        let engine = IrEngine::builder()
            .dataset(Dataset::running_example())
            .fault_plan(FaultPlan::device_outage(0, Some(1)))
            .retry_policy(RetryPolicy::none())
            .pool_capacity(1)
            .build()
            .unwrap();
        let query = QueryVector::running_example();
        let err = engine.query(&query).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::Core(_)), "{err}");
        assert!(err.to_string().contains("injected device failure"), "{err}");
        // The engine answers correctly on the next query.
        let report = engine.query(&query).unwrap();
        let d0 = report.for_dim(DimId(0)).unwrap();
        assert!((d0.immutable.lo + 16.0 / 35.0).abs() < 1e-9);
        let health = engine.health();
        assert_eq!(health.queries_failed, 1);
        assert_eq!(health.queries_ok, 1);
    }

    #[test]
    fn policy_reports_the_built_backend() {
        let dir = tempfile::tempdir().unwrap();
        let disk_engine = IrEngine::builder()
            .dataset(Dataset::running_example())
            .on_disk(dir.path())
            .build()
            .unwrap();
        assert_eq!(disk_engine.backend_kind(), BackendKind::File);
        assert_eq!(disk_engine.policy().backend, BackendKind::File);
        // The default engine serves from memory.
        assert_eq!(engine().policy().backend, BackendKind::Mem);
    }

    #[test]
    fn dataset_ref_borrows_instead_of_cloning() {
        let dataset = Dataset::running_example();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .pool_capacity(8)
            .build()
            .unwrap();
        assert_eq!(engine.index().cardinality(), dataset.cardinality());
        let report = engine.query(&QueryVector::running_example()).unwrap();
        assert!(report.for_dim(DimId(0)).is_some());
    }

    #[test]
    fn builder_rejects_storage_knobs_on_prebuilt_index() {
        let dataset = Dataset::running_example();
        let index = ir_storage::TopKIndex::build_in_memory(&dataset).unwrap();
        let err = IrEngine::builder()
            .index(index)
            .pool_capacity(64)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Policy(_)), "{err}");
    }

    #[test]
    fn snapshot_roundtrip_through_the_facade() {
        use ir_storage::ColdStartSource;

        let built = engine();
        assert_eq!(built.cold_start_info().source, ColdStartSource::Built);

        let dir = tempfile::tempdir().unwrap();
        let summary = built.save_snapshot(dir.path()).unwrap();
        assert!(summary.total_pages > summary.data_pages);

        // Storage knobs compose with the snapshot source (unlike a
        // prebuilt index): pool capacity + backend are the serving stack.
        let reopened = IrEngine::builder()
            .open_snapshot(dir.path())
            .pool_capacity(8)
            .threads(2)
            .build()
            .unwrap();
        let info = reopened.cold_start_info();
        assert_eq!(info.source, ColdStartSource::Snapshot);
        assert!(
            info.bytes < built.cold_start_info().bytes,
            "snapshot open parses less than the build: {info:?}"
        );

        // Served regions are identical to the built engine's (stats carry
        // timing/cache counters that legitimately differ, so compare the
        // region payload).
        let query = QueryVector::running_example();
        let expected = built.query(&query).unwrap();
        assert_eq!(reopened.query(&query).unwrap().dims, expected.dims);
    }

    #[test]
    fn opening_a_missing_snapshot_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let err = IrEngine::builder()
            .open_snapshot(dir.path().join("nope"))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::SnapshotOpen { .. }), "{err}");
        assert!(err.to_string().contains("opening snapshot"), "{err}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "the storage cause is chained"
        );
    }

    #[test]
    fn saving_over_an_unwritable_dir_is_a_typed_error() {
        // A *file* where the snapshot directory should be: create_dir_all
        // fails, and the failure names the directory.
        let dir = tempfile::tempdir().unwrap();
        let blocker = dir.path().join("blocked");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = engine().save_snapshot(&blocker).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::SnapshotSave { .. }), "{err}");
        assert!(err.to_string().contains("saving snapshot"), "{err}");
    }

    #[test]
    fn mutations_flow_through_the_engine_and_count_in_health() {
        let engine = engine();
        let query = QueryVector::running_example();
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(1), TupleId(0)]
        );

        // Insert a dominating tuple; it enters the result at rank 1.
        let applied = engine
            .insert(SparseVector::from_pairs([(0, 0.99), (1, 0.99)]).unwrap())
            .unwrap();
        assert_eq!(applied.tuple, TupleId(4));
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(4), TupleId(1)]
        );

        // Nudge a coordinate, then delete the tuple: result restored.
        engine.update_score(TupleId(4), DimId(1), 0.5).unwrap();
        engine.delete(TupleId(4)).unwrap();
        assert_eq!(
            engine.query(&query).unwrap().current_result(),
            [TupleId(1), TupleId(0)]
        );

        let maintenance = engine.maintenance_stats();
        assert_eq!(maintenance.updates_applied, 3);
        assert!(maintenance.pages_written > 0);
        // A malformed update is a typed failure and applies nothing.
        assert!(engine.delete(TupleId(99)).is_err());
        assert_eq!(engine.maintenance_stats().updates_applied, 3);
        assert_eq!(engine.health().queries_failed, 1);
    }

    #[test]
    fn snapshot_open_with_armed_faults_fails_typed_and_named() {
        let dir = tempfile::tempdir().unwrap();
        engine().save_snapshot(dir.path()).unwrap();
        let err = IrEngine::builder()
            .open_snapshot(dir.path())
            .fault_plan(FaultPlan::device_outage(0, None))
            .retry_policy(RetryPolicy::none())
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::SnapshotOpen { .. }), "{err}");
        assert!(err.to_string().contains("injected device failure"), "{err}");
    }
}
