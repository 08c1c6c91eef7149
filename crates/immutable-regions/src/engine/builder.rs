//! [`IrEngineBuilder`]: assembling an [`IrEngine`] from a data source and
//! storage options.

use super::{EngineError, EnginePolicy, EngineResult, IrEngine};
use ir_core::RegionConfig;
use ir_storage::{FaultPlan, IndexBuilder, IoConfig, RetryPolicy, StorageBackend, TopKIndex};
use ir_topk::TaConfig;
use ir_types::Dataset;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the engine is built from.
enum EngineSource<'d> {
    /// Build a fresh index over this owned dataset.
    Dataset(Dataset),
    /// Build a fresh index over a borrowed dataset (no clone; the borrow
    /// ends at [`IrEngineBuilder::build`] — the engine never keeps it).
    DatasetRef(&'d Dataset),
    /// Adopt a prebuilt index.
    Index(Arc<TopKIndex>),
    /// Open a saved snapshot directory — no build pass at all.
    Snapshot(PathBuf),
}

/// Builder for [`IrEngine`]: pick a data source, a storage backend, a
/// buffer-pool budget, a worker count and a default region policy.
///
/// The lifetime parameter only exists for [`IrEngineBuilder::dataset_ref`]
/// (borrowing a dataset during the build); the built [`IrEngine`] is always
/// `'static`.
#[must_use = "an engine builder does nothing until `build` is called"]
pub struct IrEngineBuilder<'d> {
    source: Option<EngineSource<'d>>,
    backend: StorageBackend,
    pool_capacity: Option<usize>,
    io_config: Option<IoConfig>,
    retry_policy: Option<RetryPolicy>,
    fault_plan: Option<FaultPlan>,
    storage_knobs_set: bool,
    config: RegionConfig,
    ta_config: TaConfig,
    threads: usize,
}

impl Default for IrEngineBuilder<'_> {
    fn default() -> Self {
        IrEngineBuilder {
            source: None,
            backend: StorageBackend::Memory,
            pool_capacity: None,
            io_config: None,
            retry_policy: None,
            fault_plan: None,
            storage_knobs_set: false,
            config: RegionConfig::default(),
            ta_config: TaConfig::default(),
            threads: 1,
        }
    }
}

impl<'d> IrEngineBuilder<'d> {
    /// Serves queries over `dataset`; the index is built by
    /// [`IrEngineBuilder::build`] with the selected storage options.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.source = Some(EngineSource::Dataset(dataset));
        self
    }

    /// Like [`IrEngineBuilder::dataset`], but borrowing: the dataset is only
    /// read while [`IrEngineBuilder::build`] constructs the index, so
    /// callers that keep (or repeatedly reuse) a dataset — e.g. sweeping
    /// storage configurations over one corpus — avoid cloning it.
    pub fn dataset_ref(mut self, dataset: &'d Dataset) -> Self {
        self.source = Some(EngineSource::DatasetRef(dataset));
        self
    }

    /// Adopts a prebuilt index (taking ownership). Storage options must not
    /// be combined with this source — the index already made those choices.
    pub fn index(mut self, index: TopKIndex) -> Self {
        self.source = Some(EngineSource::Index(Arc::new(index)));
        self
    }

    /// Serves queries from a snapshot saved by [`IrEngine::save_snapshot`]
    /// — cold start becomes a validate-header-and-serve operation with no
    /// build pass (see
    /// [`IndexBuilder::open_snapshot`](ir_storage::IndexBuilder::open_snapshot)).
    ///
    /// Storage options *do* compose with this source (unlike a prebuilt
    /// index): [`IrEngineBuilder::backend`] selects how the snapshot file
    /// is served — its kind only, any path on the variant is ignored — and
    /// pool capacity, I/O model, retry policy and fault plan configure the
    /// serving stack. A configured fault plan is armed *before* the trailer
    /// read, so injected faults during the open surface as typed
    /// [`EngineError::SnapshotOpen`] errors.
    pub fn open_snapshot(mut self, dir: impl Into<PathBuf>) -> Self {
        self.source = Some(EngineSource::Snapshot(dir.into()));
        self
    }

    /// Selects the storage backend for the index built from a dataset
    /// (default: memory).
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self.storage_knobs_set = true;
        self
    }

    /// Shorthand for a disk-backed page store under `dir`.
    pub fn on_disk(self, dir: impl Into<PathBuf>) -> Self {
        self.backend(StorageBackend::Disk(dir.into()))
    }

    /// Sets the buffer-pool budget in pages for the index built from a
    /// dataset.
    pub fn pool_capacity(mut self, pages: usize) -> Self {
        self.pool_capacity = Some(pages);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the simulated I/O latency model for the index built from a
    /// dataset.
    pub fn io_config(mut self, io_config: IoConfig) -> Self {
        self.io_config = Some(io_config);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the buffer pool's retry policy for transient storage faults
    /// (default: [`RetryPolicy::default`] — 3 attempts with deterministic
    /// exponential backoff).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self.storage_knobs_set = true;
        self
    }

    /// Wraps the engine's page store in a fault-injecting proxy executing
    /// `plan` (see [`FaultPlan`]). The injector is armed only *after* the
    /// index is built, so faults strike served queries rather than the
    /// build itself.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.storage_knobs_set = true;
        self
    }

    /// Sets the default region configuration queries run with (overridable
    /// per call via [`IrEngine::query_with`]).
    pub fn config(mut self, config: RegionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the TA configuration used for the top-k phase of every query.
    pub fn ta_config(mut self, ta_config: TaConfig) -> Self {
        self.ta_config = ta_config;
        self
    }

    /// Sets the worker count for [`IrEngine::query_batch`] (clamped to at
    /// least 1). Regions and deterministic counters are identical for every
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Applies a whole [`EnginePolicy`]: the default config, the worker
    /// count and (when present) the fault plan. The policy's `backend`
    /// field is *not* applied — it is descriptive metadata (the file
    /// backend needs a path; see [`EnginePolicy::backend`]).
    pub fn policy(self, policy: EnginePolicy) -> Self {
        let builder = self.config(policy.config).threads(policy.threads);
        match policy.fault_plan {
            Some(plan) => builder.fault_plan(plan),
            None => builder,
        }
    }

    /// Loads the engine policy from a JSON file (see
    /// [`EnginePolicy::from_json_file`]).
    pub fn policy_from_json_file(self, path: impl AsRef<Path>) -> EngineResult<Self> {
        Ok(self.policy(EnginePolicy::from_json_file(path)?))
    }

    /// Builds the engine: constructs the index if a dataset was given, then
    /// wraps everything into an owned, shareable handle.
    pub fn build(self) -> EngineResult<IrEngine> {
        let IrEngineBuilder {
            source,
            backend,
            pool_capacity,
            io_config,
            retry_policy,
            fault_plan,
            storage_knobs_set,
            config,
            ta_config,
            threads,
        } = self;
        let index_builder = || {
            let mut builder = IndexBuilder::new()
                .backend(backend.clone())
                .fault_plan(fault_plan.clone());
            if let Some(pages) = pool_capacity {
                builder = builder.pool_capacity(pages);
            }
            if let Some(io_config) = io_config {
                builder = builder.io_config(io_config);
            }
            if let Some(retry) = retry_policy {
                builder = builder.retry_policy(retry);
            }
            builder
        };
        let build_index = |dataset: &Dataset| -> EngineResult<Arc<TopKIndex>> {
            if dataset.cardinality() == 0 {
                return Err(EngineError::EmptyDataset);
            }
            Ok(index_builder().build_shared(dataset)?)
        };
        let index = match source {
            None => return Err(EngineError::NoSource),
            Some(EngineSource::Dataset(dataset)) => build_index(&dataset)?,
            Some(EngineSource::DatasetRef(dataset)) => build_index(dataset)?,
            Some(EngineSource::Snapshot(dir)) => {
                let index = index_builder()
                    .open_snapshot(&dir)
                    .map(Arc::new)
                    .map_err(|source| EngineError::SnapshotOpen { dir, source })?;
                if index.cardinality() == 0 {
                    return Err(EngineError::EmptyDataset);
                }
                index
            }
            Some(EngineSource::Index(index)) => {
                if storage_knobs_set {
                    return Err(EngineError::Policy(
                        "storage options (backend, pool capacity, I/O model) apply to an index \
                         built from a dataset; a prebuilt index already made those choices"
                            .to_string(),
                    ));
                }
                if index.cardinality() == 0 {
                    return Err(EngineError::EmptyDataset);
                }
                index
            }
        };
        Ok(IrEngine {
            index,
            config,
            ta_config,
            threads,
            health: Arc::default(),
        })
    }
}
