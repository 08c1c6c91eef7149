//! What the umbrella crate's integration tests share: the seeded dataset
//! and query generators, the [`Cell`] a law serves from, and the one engine
//! builder, which checks that the engine it hands out is the one the cell
//! asked for. Each test binary uses only part of it.
#![allow(dead_code)]

use immutable_regions::engine::IrEngineBuilder;
use immutable_regions::prelude::*;
use ir_core::PerturbationMode;
use ir_storage::page::PAGE_SIZE;
use ir_storage::snapshot::SNAPSHOT_FILE;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub use ir_storage::BackendKind::{self, File, Mem};
pub use ir_storage::ColdStartSource::{self, Built, Snapshot};

/// The seeded stream every randomized law draws from.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A dataset with mixed sparsity — single-dimension, two-dimension and
/// dense tuples — so that all three candidate partitions occur.
pub fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let style: f64 = rng.gen();
        let pairs: Vec<(u32, f64)> = if style < 0.4 {
            vec![(rng.gen_range(0..dims), rng.gen_range(0.05..1.0))]
        } else if style < 0.7 {
            let a = rng.gen_range(0..dims);
            let mut b = rng.gen_range(0..dims);
            while b == a {
                b = rng.gen_range(0..dims);
            }
            vec![(a, rng.gen_range(0.05..1.0)), (b, rng.gen_range(0.05..1.0))]
        } else {
            (0..dims).map(|d| (d, rng.gen_range(0.01..1.0))).collect()
        };
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// A dataset whose every tuple covers a random non-empty subset of the
/// dimensions.
pub fn subset_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let nnz = rng.gen_range(1..=dims);
        let mut chosen: Vec<u32> = (0..dims).collect();
        for i in (1..chosen.len()).rev() {
            chosen.swap(i, rng.gen_range(0..=i));
        }
        chosen.truncate(nnz as usize);
        let pairs: Vec<(u32, f64)> = chosen
            .into_iter()
            .map(|d| (d, rng.gen_range(0.02..1.0)))
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// `qlen` distinct dimensions below `dims`, in draw order.
pub fn pick_dims(rng: &mut ChaCha8Rng, dims: u32, qlen: usize) -> Vec<u32> {
    let mut chosen = Vec::new();
    while chosen.len() < qlen {
        let d = rng.gen_range(0..dims);
        if !chosen.contains(&d) {
            chosen.push(d);
        }
    }
    chosen
}

pub fn random_query(rng: &mut ChaCha8Rng, dims: u32, qlen: usize, k: usize) -> QueryVector {
    let chosen = pick_dims(rng, dims, qlen);
    QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.2..=1.0))), k).unwrap()
}

/// `queries` random queries of 2–4 dimensions and `k` in 1–5.
pub fn random_batch(rng: &mut ChaCha8Rng, dims: u32, queries: usize) -> Vec<QueryVector> {
    (0..queries)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let k = rng.gen_range(1..6);
            random_query(rng, dims, qlen, k)
        })
        .collect()
}

/// A dataset seeded on its own, each coordinate present with
/// probability 0.8.
pub fn dense_dataset(seed: u64, n: usize, dims: u32) -> Dataset {
    let mut rng = rng(seed);
    let mut builder = DatasetBuilder::new(dims);
    for _ in 0..n {
        let mut pairs = Vec::new();
        for d in 0..dims {
            if rng.gen::<f64>() < 0.8 {
                pairs.push((d, rng.gen_range(0.01..1.0)));
            }
        }
        if pairs.is_empty() {
            pairs.push((rng.gen_range(0..dims), rng.gen_range(0.01..1.0)));
        }
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// `count` queries of 2–4 dimensions over [`dense_dataset`]`(seed, ..)`.
pub fn dense_queries(seed: u64, dims: u32, count: usize, k: usize) -> Vec<QueryVector> {
    let mut rng = rng(seed ^ 0x5EED);
    (0..count)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let chosen = pick_dims(&mut rng, dims, qlen);
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.1..=0.9))), k).unwrap()
        })
        .collect()
}

/// The deterministic 160 × 5 dataset: every value derived from the tuple
/// and dimension index.
pub fn grid_dataset() -> Dataset {
    let mut builder = DatasetBuilder::new(5);
    for i in 0..160u32 {
        let pairs: Vec<(u32, f64)> = (0..5u32)
            .map(|d| (d, (((i * 31 + d * 17) % 97) + 1) as f64 / 98.0))
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// The `i`-th deterministic three-dimensional query over [`grid_dataset`].
pub fn grid_query(i: u32, k: usize) -> QueryVector {
    QueryVector::new(
        [
            (i % 5, 0.2 + 0.1 * (i % 4) as f64),
            ((i + 1) % 5, 0.9 - 0.1 * (i % 3) as f64),
            ((i + 2) % 5, 0.5),
        ],
        k,
    )
    .unwrap()
}

/// A deterministic 2,000 × 24 mixed-sparsity dataset, large enough to span
/// many pages.
pub fn medium_dataset() -> Dataset {
    let dims = 24u32;
    let mut builder = DatasetBuilder::new(dims);
    for i in 0..2_000u32 {
        let nnz = 1 + (i % 7);
        let pairs: Vec<(u32, f64)> = (0..nnz)
            .map(|j| {
                let d = (i * 13 + j * 7) % dims;
                let v = (((i * 31 + j * 17) % 97) + 1) as f64 / 100.0;
                (d, v)
            })
            .collect::<std::collections::BTreeMap<u32, f64>>()
            .into_iter()
            .collect();
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// A random fleet: 2–5 subscriptions, each over 2–3 distinct dimensions
/// of the 5 with weights in `[0.2, 1.0]` and its own `k`.
pub fn arb_fleet() -> impl Strategy<Value = Vec<(u64, QueryVector)>> {
    proptest::collection::vec(
        (
            proptest::collection::btree_map(0u32..5, 0.2f64..=1.0, 2..=3),
            3usize..=6,
        ),
        2..=5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (weights, k))| (i as u64, QueryVector::new(weights, k).unwrap()))
            .collect()
    })
}

/// One way to serve queries: the region configuration, the page store, the
/// worker count and where the index came from.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub algorithm: Algorithm,
    pub phi: usize,
    pub mode: PerturbationMode,
    pub backend: BackendKind,
    pub workers: usize,
    pub source: ColdStartSource,
}

impl Cell {
    /// A cell serving `config` from an index built on `backend`.
    pub fn built(config: RegionConfig, backend: BackendKind, workers: usize) -> Cell {
        Cell {
            algorithm: config.algorithm,
            phi: config.phi,
            mode: config.mode,
            backend,
            workers,
            source: Built,
        }
    }

    pub fn config(&self) -> RegionConfig {
        RegionConfig {
            algorithm: self.algorithm,
            phi: self.phi,
            mode: self.mode,
        }
    }
}

/// Whether `err` is a failure a faulty device produces — an outage, an
/// I/O error, corruption, exhausted retries or a contained panic — rather
/// than a malformed request.
pub fn is_device_fault(err: &IrError) -> bool {
    matches!(
        err,
        IrError::Storage(_)
            | IrError::Io(_)
            | IrError::Corruption { .. }
            | IrError::RetryExhausted { .. }
            | IrError::WorkerPanicked { .. }
    )
}

/// [`engine_with`] without extra builder options.
pub fn engine(cell: &Cell, dataset: &Dataset) -> IrEngine {
    engine_with(cell, dataset, |builder| builder)
}

/// Builds the engine `cell` names over `dataset`, letting `tune` set any
/// further builder options, and asserts that the engine serves from the
/// backend, cold-start source and worker count the cell asked for. A
/// snapshot cell serves a snapshot saved from a mem-built engine; a built
/// file cell must have written its page file.
pub fn engine_with<'d>(
    cell: &Cell,
    dataset: &'d Dataset,
    tune: impl FnOnce(IrEngineBuilder<'d>) -> IrEngineBuilder<'d>,
) -> IrEngine {
    // The stores hold their own descriptors once built, so the directory
    // may go when this returns.
    let dir = tempfile::tempdir().unwrap();
    let (builder, pages) = match cell.source {
        Built => (
            IrEngine::builder().dataset_ref(dataset),
            dir.path().to_path_buf(),
        ),
        Snapshot => {
            let snap = dir.path().join("snap");
            IrEngine::builder()
                .dataset_ref(dataset)
                .build()
                .unwrap()
                .save_snapshot(&snap)
                .unwrap();
            (IrEngine::builder().open_snapshot(&snap), snap)
        }
    };
    let backend = match cell.backend {
        Mem => StorageBackend::Memory,
        File => StorageBackend::Disk(pages.clone()),
    };
    let engine = tune(
        builder
            .backend(backend)
            .config(cell.config())
            .threads(cell.workers),
    )
    .build()
    .unwrap_or_else(|e| panic!("building {cell:?}: {e}"));
    assert_eq!(engine.backend_kind(), cell.backend, "{cell:?}");
    assert_eq!(engine.cold_start_info().source, cell.source, "{cell:?}");
    assert_eq!(engine.threads(), cell.workers, "{cell:?}");
    if (cell.backend, cell.source) == (File, Built) {
        let written = std::fs::metadata(pages.join(SNAPSHOT_FILE)).map_or(0, |m| m.len());
        assert!(
            written >= PAGE_SIZE as u64,
            "{cell:?}: a file engine wrote no page file"
        );
    }
    engine
}
