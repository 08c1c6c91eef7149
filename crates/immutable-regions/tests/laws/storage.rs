//! The storage path under the engine: pool-size and backend effects on the
//! device counters, and snapshot opens that must fail typed.

use crate::support::*;
use immutable_regions::prelude::*;
use ir_storage::fnv1a64;
use ir_storage::page::{frame, PAGE_SIZE};
use ir_storage::snapshot::SNAPSHOT_FILE;

#[test]
fn small_buffer_pool_forces_physical_rereads() {
    let dataset = medium_dataset();
    let query = QueryVector::new([(0, 0.9), (5, 0.6)], 10).unwrap();
    let cell = Cell::built(RegionConfig::flat(Algorithm::Scan), Mem, 1);
    let tight = engine_with(&cell, &dataset, |builder| builder.pool_capacity(2));
    let roomy = engine_with(&cell, &dataset, |builder| builder.pool_capacity(4096));

    for engine in [&tight, &roomy] {
        engine.cold_start();
        let _ = engine.query(&query).unwrap();
    }
    let (tight, roomy) = (tight.index().io_snapshot(), roomy.index().io_snapshot());
    assert!(
        tight.physical_reads > roomy.physical_reads,
        "a 2-page pool ({}) must re-read more than a 4096-page pool ({})",
        tight.physical_reads,
        roomy.physical_reads
    );
    // Logical reads are identical — the access pattern does not depend on
    // the pool size.
    assert_eq!(tight.logical_reads, roomy.logical_reads);
}

/// The device-level counters live in the buffer pool alone, and they tell
/// the same story on every backend: each store sees exactly the pool's
/// miss sequence, so logical reads, physical reads and writes agree
/// counter for counter. Wall-clock is what legitimately differs.
#[test]
fn device_level_counters_tell_the_backend_story() {
    let mut rng = rng(0x10_57A7);
    let dataset = random_dataset(&mut rng, 100, 4);
    let queries = random_batch(&mut rng, 4, 4);

    let mut pool_snapshots = Vec::new();
    for backend in BackendKind::ALL {
        let engine = engine(&Cell::built(RegionConfig::default(), backend, 1), &dataset);
        engine.cold_start();
        for q in &queries {
            let _ = engine.query(q).unwrap();
        }
        let pool = engine.index().io_snapshot();
        assert!(pool.physical_reads > 0, "{backend}: a cold engine misses");
        pool_snapshots.push((backend, pool));
    }
    let (_, first) = pool_snapshots[0];
    for (backend, snap) in &pool_snapshots[1..] {
        assert_eq!(*snap, first, "pool counters diverged on {backend}");
    }
}

/// Saves a snapshot of a small random dataset drawn from `seed` and
/// returns the directory guard and the snapshot path.
fn saved_snapshot(seed: u64) -> (tempfile::TempDir, std::path::PathBuf) {
    let dataset = random_dataset(&mut rng(seed), 60, 4);
    let engine = IrEngine::builder().dataset_ref(&dataset).build().unwrap();
    let dir = tempfile::tempdir().unwrap();
    let snap = dir.path().join("snap");
    engine.save_snapshot(&snap).unwrap();
    (dir, snap)
}

/// Opens the snapshot at `snap` on `kind`, with `plan` armed, expecting
/// the open to fail.
fn failed_open(snap: &std::path::Path, kind: BackendKind, plan: Option<FaultPlan>) -> IrError {
    let backend = match kind {
        Mem => StorageBackend::Memory,
        File => StorageBackend::Disk(snap.to_path_buf()),
    };
    let builder = IrEngine::builder().open_snapshot(snap).backend(backend);
    let builder = match plan {
        Some(plan) => builder.fault_plan(plan),
        None => builder,
    };
    builder.build().map(|_| ()).unwrap_err()
}

/// Injected device faults during a snapshot open surface as typed engine
/// errors naming the snapshot directory — never a panic — on every
/// serving backend.
#[test]
fn armed_faults_during_snapshot_open_never_panic() {
    let (_dir, snap) = saved_snapshot(0x5AFE_FA17);
    for kind in BackendKind::ALL {
        let err = failed_open(&snap, kind, Some(FaultPlan::device_outage(0, None)));
        assert!(
            matches!(err, IrError::SnapshotOpen { .. }),
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
    let (_dir, snap) = saved_snapshot(0x5AFE_0001);
    let file = snap.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    for start in (frame::HEADER_LEN..bytes.len()).step_by(frame::FRAME_LEN) {
        let (payload, trailer) = bytes[start..start + frame::FRAME_LEN].split_at_mut(PAGE_SIZE);
        trailer.copy_from_slice(&fnv1a64(payload).to_le_bytes());
    }
    std::fs::write(&file, &bytes).unwrap();

    for kind in BackendKind::ALL {
        let err = failed_open(&snap, kind, None);
        assert!(
            matches!(err, IrError::SnapshotOpen { .. })
                && err
                    .to_string()
                    .contains("unsupported format version 1 (expected 2)"),
            "{kind}: expected a typed frame-version rejection, got {err:?}"
        );
    }
}
