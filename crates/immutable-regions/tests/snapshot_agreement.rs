//! Snapshot-agreement suite: serving from a persisted snapshot must never
//! leak into query output.
//!
//! For every algorithm, worker count and serving backend, an engine
//! reopened from a saved snapshot must produce *byte-identical* region
//! reports and deterministic counters to the engine the snapshot was saved
//! from: same intervals (bitwise), same evaluated-candidate counts, same
//! logical reads. The snapshot stores the exact pages the builder wrote,
//! so any divergence is a bug in the snapshot writer or reader, not a
//! legitimate difference.
//!
//! Seeded like the other property suites so failures reproduce exactly.

use immutable_regions::engine::{EngineError, IrEngine};
use immutable_regions::prelude::*;
use ir_storage::page::{frame, PAGE_SIZE};
use ir_storage::snapshot::SNAPSHOT_FILE;
use ir_storage::{fnv1a64, BackendKind, ColdStartSource, FaultPlan, StorageBackend};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// A small random dataset with mixed sparsity, same idiom as
/// `backend_agreement`.
fn random_dataset(rng: &mut ChaCha8Rng, n: usize, dims: u32) -> Dataset {
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

fn random_batch(rng: &mut ChaCha8Rng, dims: u32, queries: usize) -> Vec<QueryVector> {
    (0..queries)
        .map(|_| {
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            let k = rng.gen_range(1..6);
            let mut chosen = Vec::new();
            while chosen.len() < qlen {
                let d = rng.gen_range(0..dims);
                if !chosen.contains(&d) {
                    chosen.push(d);
                }
            }
            QueryVector::new(chosen.into_iter().map(|d| (d, rng.gen_range(0.2..=1.0))), k).unwrap()
        })
        .collect()
}

/// Reopens the snapshot in `dir` on the requested backend kind.
fn reopen(dir: &Path, kind: BackendKind, config: RegionConfig, threads: usize) -> IrEngine {
    let backend = match kind {
        BackendKind::Mem => StorageBackend::Memory,
        BackendKind::File => StorageBackend::Disk(dir.to_path_buf()),
    };
    IrEngine::builder()
        .open_snapshot(dir)
        .backend(backend)
        .config(config)
        .threads(threads)
        .build()
        .unwrap_or_else(|e| panic!("reopening snapshot on {kind}: {e}"))
}

/// Core requirement: for every algorithm × worker count × serving backend,
/// batch output from the snapshot-served engine is identical to the
/// built-index oracle — regions, evaluated candidates and logical reads
/// alike.
#[test]
fn snapshot_served_engines_agree_with_built_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AFE_5EED);
    for algorithm in Algorithm::ALL {
        let dims = rng.gen_range(3..7);
        let n = rng.gen_range(40..120);
        let dataset = random_dataset(&mut rng, n, dims);
        let queries = random_batch(&mut rng, dims, 4);
        let config = RegionConfig::flat(algorithm);

        let oracle_engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .config(config)
            .build()
            .unwrap();
        let dir = tempfile::tempdir().unwrap();
        let snap = dir.path().join("snap");
        oracle_engine.save_snapshot(&snap).unwrap();
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|q| {
                oracle_engine.cold_start();
                oracle_engine.query(q).unwrap()
            })
            .collect();

        for backend in BackendKind::ALL {
            for threads in [1usize, 2, 8] {
                let engine = reopen(&snap, backend, config, threads);
                assert_eq!(
                    engine.cold_start_info().source,
                    ColdStartSource::Snapshot,
                    "{algorithm} backend={backend}"
                );
                let reports = engine.query_batch(&queries).unwrap();
                assert_eq!(reports.len(), oracle.len());
                for (qi, (expected, actual)) in oracle.iter().zip(&reports).enumerate() {
                    let context =
                        format!("{algorithm} backend={backend} threads={threads} query={qi}");
                    assert_eq!(
                        expected.dims, actual.dims,
                        "{context}: regions must be byte-identical from a snapshot"
                    );
                    assert_eq!(
                        expected.stats.evaluated_per_dim, actual.stats.evaluated_per_dim,
                        "{context}: evaluated candidates differ"
                    );
                    assert_eq!(
                        expected.stats.io.logical_reads, actual.stats.io.logical_reads,
                        "{context}: logical reads differ"
                    );
                }
            }
        }
    }
}

/// φ-level perturbations go through the tuple store; they must survive the
/// snapshot too.
#[test]
fn snapshot_agreement_holds_with_phi_perturbations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x05AF_E0F1);
    for phi in [1usize, 3] {
        let dims = rng.gen_range(3..6);
        let dataset = random_dataset(&mut rng, 80, dims);
        let queries = random_batch(&mut rng, dims, 3);
        let config = RegionConfig::with_phi(Algorithm::Cpt, phi);

        let oracle_engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .config(config)
            .build()
            .unwrap();
        let dir = tempfile::tempdir().unwrap();
        let snap = dir.path().join("snap");
        oracle_engine.save_snapshot(&snap).unwrap();
        let oracle: Vec<RegionReport> = queries
            .iter()
            .map(|q| {
                oracle_engine.cold_start();
                oracle_engine.query(q).unwrap()
            })
            .collect();

        for backend in BackendKind::ALL {
            let engine = reopen(&snap, backend, config, 2);
            let reports = engine.query_batch(&queries).unwrap();
            for (expected, actual) in oracle.iter().zip(&reports) {
                assert_eq!(
                    expected.dims, actual.dims,
                    "phi={phi} backend={backend}: perturbed regions diverge"
                );
            }
        }
    }
}

/// Injected device faults during a snapshot open surface as typed engine
/// errors naming the snapshot directory — never a panic — on every
/// serving backend.
#[test]
fn armed_faults_during_snapshot_open_never_panic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AFE_FA17);
    let dataset = random_dataset(&mut rng, 60, 4);
    let engine = IrEngine::builder().dataset_ref(&dataset).build().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let snap = dir.path().join("snap");
    engine.save_snapshot(&snap).unwrap();

    for kind in BackendKind::ALL {
        let backend = match kind {
            BackendKind::Mem => StorageBackend::Memory,
            BackendKind::File => StorageBackend::Disk(snap.clone()),
        };
        let err = IrEngine::builder()
            .open_snapshot(&snap)
            .backend(backend)
            .fault_plan(FaultPlan::device_outage(0, None))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::SnapshotOpen { .. }),
            "{kind}: expected a typed snapshot-open error, got {err:?}"
        );
        let message = err.to_string();
        assert!(
            message.contains("injected") && message.contains("snap"),
            "{kind}: `{message}` must name both the fault and the directory"
        );
    }
}

/// A snapshot saved under frame format version 1 — its header says 1 and
/// every frame is sealed with FNV-1a-64 — is refused by the engine as a
/// typed snapshot-open error on every backend.
#[test]
fn a_frame_version_1_snapshot_is_rejected_typed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AFE_0001);
    let dataset = random_dataset(&mut rng, 60, 4);
    let engine = IrEngine::builder().dataset_ref(&dataset).build().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let snap = dir.path().join("snap");
    engine.save_snapshot(&snap).unwrap();

    let file = snap.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    for start in (frame::HEADER_LEN..bytes.len()).step_by(frame::FRAME_LEN) {
        let (payload, trailer) = bytes[start..start + frame::FRAME_LEN].split_at_mut(PAGE_SIZE);
        trailer.copy_from_slice(&fnv1a64(payload).to_le_bytes());
    }
    std::fs::write(&file, &bytes).unwrap();

    for kind in BackendKind::ALL {
        let backend = match kind {
            BackendKind::Mem => StorageBackend::Memory,
            BackendKind::File => StorageBackend::Disk(snap.clone()),
        };
        let err = IrEngine::builder()
            .open_snapshot(&snap)
            .backend(backend)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::SnapshotOpen { .. })
                && err
                    .to_string()
                    .contains("unsupported format version 1 (expected 2)"),
            "{kind}: expected a typed frame-version rejection, got {err:?}"
        );
    }
}
