//! [`IrEngineBuilder`]: assembling an [`IrEngine`] from a data source and
//! storage options.

use super::IrEngine;
use ir_core::RegionConfig;
use ir_storage::{FaultPlan, IndexBuilder, RetryPolicy, StorageBackend};
use ir_types::{Dataset, IrError, IrResult};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

/// What the engine is built from.
enum EngineSource<'d> {
    /// Build a fresh index over this dataset (owned, or borrowed until
    /// [`IrEngineBuilder::build`] — the engine never keeps it).
    Dataset(Cow<'d, Dataset>),
    /// Open a saved snapshot directory — no build pass at all.
    Snapshot(PathBuf),
}

/// Builder for [`IrEngine`]: pick a data source, the storage options, a
/// worker count and a default region policy.
///
/// Storage is configured in one place: the builder holds an
/// [`IndexBuilder`] and forwards every storage option into it, for a
/// dataset source and a snapshot source alike.
///
/// The lifetime parameter only exists for [`IrEngineBuilder::dataset_ref`]
/// (borrowing a dataset during the build); the built [`IrEngine`] is always
/// `'static`.
#[must_use = "an engine builder does nothing until `build` is called"]
pub struct IrEngineBuilder<'d> {
    source: Option<EngineSource<'d>>,
    storage: IndexBuilder,
    config: RegionConfig,
    threads: usize,
}

impl Default for IrEngineBuilder<'_> {
    fn default() -> Self {
        IrEngineBuilder {
            source: None,
            storage: IndexBuilder::new(),
            config: RegionConfig::default(),
            threads: 1,
        }
    }
}

impl<'d> IrEngineBuilder<'d> {
    /// Serves queries over `dataset`; the index is built by
    /// [`IrEngineBuilder::build`] with the selected storage options.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.source = Some(EngineSource::Dataset(Cow::Owned(dataset)));
        self
    }

    /// Like [`IrEngineBuilder::dataset`], but borrowing: the dataset is only
    /// read while [`IrEngineBuilder::build`] constructs the index, so
    /// callers that keep (or repeatedly reuse) a dataset — e.g. sweeping
    /// storage configurations over one corpus — avoid cloning it.
    pub fn dataset_ref(mut self, dataset: &'d Dataset) -> Self {
        self.source = Some(EngineSource::Dataset(Cow::Borrowed(dataset)));
        self
    }

    /// Serves queries from a snapshot saved by [`IrEngine::save_snapshot`]
    /// — cold start becomes a validate-header-and-serve operation with no
    /// build pass (see [`IndexBuilder::open_snapshot`]).
    ///
    /// Storage options compose with this source: [`IrEngineBuilder::backend`]
    /// selects how the snapshot file is served — its kind only, any path on
    /// the variant is ignored — and pool capacity, retry policy and fault
    /// plan configure the serving stack. A configured fault plan is armed
    /// *before* the trailer read, so injected faults during the open
    /// surface as typed [`IrError::SnapshotOpen`] errors.
    pub fn open_snapshot(mut self, dir: impl Into<PathBuf>) -> Self {
        self.source = Some(EngineSource::Snapshot(dir.into()));
        self
    }

    /// Selects the storage backend (default: memory).
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.storage = self.storage.backend(backend);
        self
    }

    /// Shorthand for a disk-backed page store under `dir`.
    pub fn on_disk(self, dir: impl Into<PathBuf>) -> Self {
        self.backend(StorageBackend::Disk(dir.into()))
    }

    /// Sets the buffer-pool budget in pages.
    pub fn pool_capacity(mut self, pages: usize) -> Self {
        self.storage = self.storage.pool_capacity(pages);
        self
    }

    /// Sets the buffer pool's retry policy for transient storage faults
    /// (default: [`RetryPolicy::default`] — 3 attempts with deterministic
    /// exponential backoff).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.storage = self.storage.retry_policy(policy);
        self
    }

    /// Wraps the engine's page store in a fault-injecting proxy executing
    /// `plan` (see [`FaultPlan`]). For a dataset source the injector is
    /// armed only *after* the index is built, so faults strike served
    /// queries rather than the build itself.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.storage = self.storage.fault_plan(Some(plan));
        self
    }

    /// Sets the default region configuration queries run with (overridable
    /// per call via [`IrEngine::query_with`]).
    pub fn config(mut self, config: RegionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker count for [`IrEngine::query_batch`] (clamped to at
    /// least 1). Regions and deterministic counters are identical for every
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds the engine: constructs the index from the dataset or opens
    /// the snapshot, then wraps everything into an owned, shareable handle.
    pub fn build(self) -> IrResult<IrEngine> {
        let source = self.source.ok_or_else(|| {
            IrError::InvalidConfig("engine builder needs a dataset or a snapshot".to_string())
        })?;
        let index = match source {
            EngineSource::Dataset(dataset) => self.storage.build(&dataset)?,
            EngineSource::Snapshot(dir) => {
                self.storage
                    .open_snapshot(&dir)
                    .map_err(|source| IrError::SnapshotOpen {
                        dir,
                        source: Box::new(source),
                    })?
            }
        };
        if index.cardinality() == 0 {
            return Err(IrError::EmptyDataset);
        }
        Ok(IrEngine {
            index: Arc::new(index),
            config: self.config,
            threads: self.threads,
            health: Arc::default(),
        })
    }
}
