//! Benchmark datasets and workloads (the paper's WSJ, KB and ST).

use immutable_regions::engine::{EngineResult, IrEngine};
use ir_datagen::queries::DimSelection;
use ir_datagen::{
    CorrelatedConfig, CorrelatedGenerator, FeatureConfig, FeatureVectorGenerator, QueryWorkload,
    TextCorpusConfig, TextCorpusGenerator, WorkloadConfig,
};
use ir_storage::{BackendKind, FaultPlan, TopKIndex};
use ir_types::{Dataset, IrResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique staging directory under `root` for one saved snapshot,
/// removed — with everything inside it — when the guard drops.
///
/// Process id plus a process-wide counter keeps concurrent runners (and
/// repeated preparations inside one runner) from saving over each other
/// when they share one `--snapshot-dir`; the drop keeps repeated runner
/// invocations from accreting orphaned `snap-*` directories there. On
/// Unix the removal is safe even while a file engine still serves from
/// the directory: the page store holds its descriptor to the
/// then-unlinked snapshot file.
pub struct StagedSnapshotDir {
    path: PathBuf,
}

impl StagedSnapshotDir {
    /// Reserves a fresh `snap-{pid}-{n}` staging path under `root`.
    pub fn unique(root: &Path) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        StagedSnapshotDir {
            path: root.join(format!("snap-{}-{}", std::process::id(), n)),
        }
    }

    /// The staging path (not created until a snapshot is saved into it).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StagedSnapshotDir {
    fn drop(&mut self) {
        // Best-effort: a staging dir that was never created (error before
        // the save) or raced away is not worth failing a run over.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Dataset scale, selected with the `IR_BENCH_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure; used by `cargo bench` and CI.
    Smoke,
    /// Laptop-scale runs (the scale behind `EXPERIMENTS.md`).
    Default,
    /// The paper's cardinalities (172,891 / 28,452 / 1M tuples).
    Full,
}

impl Scale {
    /// Reads the scale from `IR_BENCH_SCALE` (defaults to `smoke`).
    pub fn from_env() -> Scale {
        match std::env::var("IR_BENCH_SCALE").unwrap_or_default().as_str() {
            "full" => Scale::Full,
            "default" => Scale::Default,
            _ => Scale::Smoke,
        }
    }
}

/// The three evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchDataset {
    /// WSJ-like sparse TF-IDF corpus.
    Wsj,
    /// KB-like image feature vectors.
    Kb,
    /// ST correlated synthetic data.
    St,
}

impl BenchDataset {
    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            BenchDataset::Wsj => "WSJ-like",
            BenchDataset::Kb => "KB-like",
            BenchDataset::St => "ST",
        }
    }

    /// Generates the dataset at the given scale (deterministic).
    pub fn generate(&self, scale: Scale) -> Dataset {
        match self {
            BenchDataset::Wsj => {
                let config = match scale {
                    Scale::Smoke => TextCorpusConfig {
                        num_docs: 3_000,
                        vocabulary: 2_500,
                        mean_distinct_terms: 25.0,
                        zipf_exponent: 1.0,
                    },
                    Scale::Default => TextCorpusConfig::default(),
                    Scale::Full => TextCorpusConfig::full_scale(),
                };
                TextCorpusGenerator::new(config).generate_corpus(0xC0FFEE)
            }
            BenchDataset::Kb => {
                let config = match scale {
                    Scale::Smoke => FeatureConfig {
                        num_images: 2_000,
                        num_features: 512,
                        latent_factors: 16,
                        activation_rate: 0.08,
                    },
                    Scale::Default => FeatureConfig::default(),
                    Scale::Full => FeatureConfig::full_scale(),
                };
                FeatureVectorGenerator::new(config).generate_dataset(0xC0FFEE)
            }
            BenchDataset::St => {
                let config = match scale {
                    Scale::Smoke => CorrelatedConfig {
                        cardinality: 3_000,
                        dimensionality: 20,
                        correlation: 0.5,
                    },
                    Scale::Default => CorrelatedConfig::default(),
                    Scale::Full => CorrelatedConfig::full_scale(),
                };
                CorrelatedGenerator::new(config).generate_dataset(0xC0FFEE)
            }
        }
    }

    /// How query dimensions are selected for this dataset.
    pub fn selection(&self) -> DimSelection {
        match self {
            BenchDataset::Wsj => DimSelection::PopularityBiased,
            _ => DimSelection::Uniform,
        }
    }

    /// The standard workload of `num_queries` queries over `dataset` with
    /// the given `qlen` and `k` (the seeded generation every runner and
    /// bench shares).
    pub fn workload_for(
        &self,
        dataset: &Dataset,
        qlen: usize,
        k: usize,
        num_queries: usize,
    ) -> IrResult<QueryWorkload> {
        QueryWorkload::generate(
            dataset,
            &WorkloadConfig {
                qlen,
                k,
                num_queries,
                min_postings: (2 * k).max(20),
                max_postings: usize::MAX,
                selection: self.selection(),
                equal_weights: false,
            },
            0xBEEF,
        )
    }

    /// Builds the (in-memory) index plus a workload of `num_queries`
    /// queries with the given `qlen` and `k`.
    pub fn prepare(
        &self,
        scale: Scale,
        qlen: usize,
        k: usize,
        num_queries: usize,
    ) -> IrResult<(TopKIndex, QueryWorkload)> {
        let dataset = self.generate(scale);
        let index = TopKIndex::build_in_memory(&dataset)?;
        let workload = self.workload_for(&dataset, qlen, k, num_queries)?;
        Ok((index, workload))
    }

    /// Like [`BenchDataset::prepare`], but wrapping the index into an
    /// [`IrEngine`] with `threads` batch workers on the requested storage
    /// backend — the front door every figure runner serves its workload
    /// through. The file backend builds onto a scratch page directory
    /// (see [`crate::cli::materialize_backend`]).
    pub fn prepare_engine(
        &self,
        scale: Scale,
        qlen: usize,
        k: usize,
        num_queries: usize,
        threads: usize,
        backend: BackendKind,
    ) -> EngineResult<(IrEngine, QueryWorkload)> {
        self.prepare_engine_faulty(scale, qlen, k, num_queries, threads, backend, None, None)
    }

    /// [`BenchDataset::prepare_engine`] driven by parsed runner options —
    /// worker count, storage backend, the optional fault plan from
    /// `--fault-plan` and the optional snapshot staging root from
    /// `--snapshot-dir` (serve the figure from a reopened snapshot instead
    /// of the freshly built index).
    pub fn prepare_engine_for(
        &self,
        scale: Scale,
        qlen: usize,
        k: usize,
        num_queries: usize,
        args: &crate::cli::BenchArgs,
    ) -> EngineResult<(IrEngine, QueryWorkload)> {
        self.prepare_engine_faulty(
            scale,
            qlen,
            k,
            num_queries,
            args.threads,
            args.backend,
            args.fault_plan.clone(),
            args.snapshot_dir.as_deref(),
        )
    }

    /// [`BenchDataset::prepare_engine`] with an optional [`FaultPlan`] and
    /// an optional snapshot staging root.
    ///
    /// With a fault plan the engine's device executes it, armed after the
    /// index build (or after the snapshot trailer read) so the injected
    /// faults strike the measured queries. With a snapshot root the index
    /// is built once in memory, saved into a unique staging directory
    /// under the root, and the serving engine is reopened from that
    /// snapshot on the requested backend — deterministic query output is
    /// identical either way; only the cold-start provenance
    /// ([`IrEngine::cold_start_info`]) differs.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_engine_faulty(
        &self,
        scale: Scale,
        qlen: usize,
        k: usize,
        num_queries: usize,
        threads: usize,
        backend: BackendKind,
        fault_plan: Option<FaultPlan>,
        snapshot_dir: Option<&Path>,
    ) -> EngineResult<(IrEngine, QueryWorkload)> {
        let dataset = self.generate(scale);
        let workload = self.workload_for(&dataset, qlen, k, num_queries)?;
        if let Some(root) = snapshot_dir {
            // Build a pristine in-memory index once, persist it, and let
            // the staged snapshot serve the figure. The builder engine
            // never sees the fault plan: faults are meant to strike the
            // measured (snapshot-served) engine, mirroring how the built
            // path arms them only after construction.
            let staged = StagedSnapshotDir::unique(root);
            let built = IrEngine::builder().dataset_ref(&dataset).build()?;
            built.save_snapshot(staged.path())?;
            drop(built);
            // With a snapshot source only the backend's *kind* matters
            // (the snapshot file is served in place); the staged path on
            // the variant documents where the pages live.
            let storage = match backend {
                BackendKind::Mem => ir_storage::StorageBackend::Memory,
                BackendKind::File => ir_storage::StorageBackend::Disk(staged.path().to_path_buf()),
            };
            let mut builder = IrEngine::builder()
                .open_snapshot(staged.path())
                .backend(storage)
                .threads(threads);
            if let Some(plan) = fault_plan {
                builder = builder.fault_plan(plan);
            }
            let engine = builder.build()?;
            // The engine is up (its descriptor is open), so the
            // staging directory may go — success and error paths alike
            // clean up via the guard's drop.
            drop(staged);
            return Ok((engine, workload));
        }
        let (storage, scratch) = crate::cli::materialize_backend(backend)?;
        let mut builder = IrEngine::builder()
            .dataset_ref(&dataset)
            .backend(storage)
            .threads(threads);
        if let Some(plan) = fault_plan {
            builder = builder.fault_plan(plan);
        }
        let engine = builder.build()?;
        // The scratch guard may drop now: the store holds its descriptor to
        // the (unlinked) page file for the engine's lifetime.
        drop(scratch);
        Ok((engine, workload))
    }

    /// Number of queries to average over at the given scale (the paper uses
    /// 100).
    pub fn queries_per_point(scale: Scale) -> usize {
        match scale {
            Scale::Smoke => 5,
            Scale::Default => 25,
            Scale::Full => 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_prepares_all_datasets() {
        for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
            let (index, workload) = dataset.prepare(Scale::Smoke, 3, 10, 2).unwrap();
            assert!(index.cardinality() >= 2_000, "{}", dataset.name());
            assert_eq!(workload.len(), 2);
        }
    }

    #[test]
    fn scale_from_env_defaults_to_smoke() {
        std::env::remove_var("IR_BENCH_SCALE");
        assert_eq!(Scale::from_env(), Scale::Smoke);
    }

    #[test]
    fn prepare_engine_with_snapshot_dir_serves_identically() {
        use ir_storage::ColdStartSource;

        let root = tempfile::tempdir().unwrap();
        let args = crate::cli::BenchArgs {
            snapshot_dir: Some(root.path().to_path_buf()),
            ..Default::default()
        };
        let (engine, workload) = BenchDataset::St
            .prepare_engine_for(Scale::Smoke, 2, 5, 2, &args)
            .unwrap();
        let info = engine.cold_start_info();
        assert_eq!(info.source, ColdStartSource::Snapshot);

        // Deterministic output identical to the built path.
        let (built, _) = BenchDataset::St
            .prepare_engine(Scale::Smoke, 2, 5, 2, 1, BackendKind::Mem)
            .unwrap();
        assert_eq!(built.cold_start_info().source, ColdStartSource::Built);
        for query in workload.queries() {
            assert_eq!(
                engine.query(query).unwrap().dims,
                built.query(query).unwrap().dims
            );
        }
    }

    #[test]
    fn snapshot_staging_dirs_are_cleaned_up() {
        let root = tempfile::tempdir().unwrap();
        let list = |root: &Path| -> Vec<PathBuf> {
            std::fs::read_dir(root)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect()
        };

        // Success path: the staged `snap-*` dir is gone by the time
        // `prepare_engine_faulty` returns, on every backend, and the
        // engine still serves from its (unlinked) snapshot.
        for backend in BackendKind::ALL {
            let (engine, workload) = BenchDataset::St
                .prepare_engine_faulty(Scale::Smoke, 2, 5, 2, 1, backend, None, Some(root.path()))
                .unwrap();
            assert_eq!(
                list(root.path()),
                Vec::<PathBuf>::new(),
                "{backend:?}: staging dir leaked"
            );
            let _ = engine.query(&workload.queries()[0]).unwrap();
        }

        // Error path: an impossible workload config fails preparation
        // before any staging, and a pre-created collision in the staging
        // root never survives a failed run either.
        let err = BenchDataset::St.prepare_engine_faulty(
            Scale::Smoke,
            50,
            5,
            2,
            1,
            BackendKind::Mem,
            None,
            Some(root.path()),
        );
        assert!(err.is_err());
        assert_eq!(list(root.path()), Vec::<PathBuf>::new());

        // The guard itself removes a populated staging dir on drop.
        let staged = StagedSnapshotDir::unique(root.path());
        std::fs::create_dir_all(staged.path()).unwrap();
        std::fs::write(staged.path().join("snapshot.bin"), b"x").unwrap();
        drop(staged);
        assert_eq!(list(root.path()), Vec::<PathBuf>::new());
    }

    #[test]
    fn prepare_engine_serves_from_any_backend() {
        let mut reports = Vec::new();
        for backend in BackendKind::ALL {
            let (engine, workload) = BenchDataset::St
                .prepare_engine(Scale::Smoke, 2, 5, 2, 1, backend)
                .unwrap();
            assert_eq!(engine.backend_kind(), backend);
            reports.push(engine.query(&workload.queries()[0]).unwrap());
        }
        // Identical output regardless of the backend.
        for other in &reports[1..] {
            assert_eq!(reports[0].dims, other.dims);
        }
    }
}
