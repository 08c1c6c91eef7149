//! Cold start — deterministic bring-up cost of a built index vs a
//! reopened snapshot, per storage backend.
//!
//! For every backend the runner brings the ST index up twice —
//! once built from the raw dataset, once reopened from a persisted
//! snapshot — and reports the [`ir_storage::ColdStartInfo`] work metrics:
//! pages touched and bytes decoded. Both are deterministic (never
//! wall-clock), so the emitted `BENCH_coldstart.json` is byte-stable
//! across machines.
//!
//! The runner is self-checking and exits non-zero unless the snapshot
//! wins where the format guarantees it must:
//!
//! * bytes decoded: snapshot < built on *every* backend (the open parses
//!   only the fixed-width trailer, never a posting or tuple), and
//! * pages touched: snapshot < built on the file backend, where the open
//!   reads only the trailer pages and serves data pages in place. The mem backend is exempt — it has no file to serve from, so
//!   the open materializes every page once and the page counts tie at
//!   best.

use immutable_regions::engine::{EngineResult, IrEngine};
use ir_bench::{print_table, BenchArgs, BenchDataset, ExperimentTable, Scale};
use ir_storage::{BackendKind, ColdStartInfo, ColdStartSource, StorageBackend};
use std::path::Path;
use std::time::Instant;

/// Brings the index up from the raw dataset on `kind` and reports the work.
fn built_info(dataset: &ir_types::Dataset, kind: BackendKind) -> EngineResult<ColdStartInfo> {
    let (storage, scratch) = ir_bench::materialize_backend(kind)?;
    let engine = IrEngine::builder()
        .dataset_ref(dataset)
        .backend(storage)
        .build()?;
    drop(scratch);
    Ok(engine.cold_start_info())
}

/// Reopens the saved snapshot on `kind` and reports the work.
fn snapshot_info(staged: &Path, kind: BackendKind) -> EngineResult<ColdStartInfo> {
    let storage = match kind {
        BackendKind::Mem => StorageBackend::Memory,
        BackendKind::File => StorageBackend::Disk(staged.to_path_buf()),
    };
    let engine = IrEngine::builder()
        .open_snapshot(staged)
        .backend(storage)
        .build()?;
    Ok(engine.cold_start_info())
}

/// A table row carrying the cold-start work metrics: pages touched in the
/// `logical_reads` column, bytes decoded (as KiB) in `memory_kbytes`.
fn row(
    source: ColdStartSource,
    backend_index: usize,
    info: ColdStartInfo,
) -> ir_bench::MethodMeasurement {
    ir_bench::MethodMeasurement {
        algorithm: source.to_string(),
        x: backend_index as f64,
        evaluated_per_dim: 0.0,
        io_time_ms: 0.0,
        cpu_time_ms: 0.0,
        memory_kbytes: info.bytes as f64 / 1024.0,
        logical_reads: info.pages as f64,
        physical_reads: 0.0,
    }
}

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let dataset = BenchDataset::St.generate(scale);

    // One snapshot serves every backend: save it from a pristine
    // in-memory build into a scratch (or the user-provided) staging root.
    let scratch = tempfile::tempdir()
        .map_err(|e| ir_types::IrError::Storage(format!("creating snapshot scratch dir: {e}")))?;
    let root = args
        .snapshot_dir
        .clone()
        .unwrap_or_else(|| scratch.path().to_path_buf());
    // The guard removes the staged dir when the runner exits (success or
    // error), so repeated runs never accrete snapshots under the user's
    // `--snapshot-dir`.
    let staged_guard = ir_bench::StagedSnapshotDir::unique(&root);
    let staged = staged_guard.path().to_path_buf();
    let builder_engine = IrEngine::builder().dataset_ref(&dataset).build()?;
    let summary = builder_engine.save_snapshot(&staged)?;
    drop(builder_engine);
    println!(
        "snapshot: {} data + {} trailer pages, {} bytes on disk",
        summary.data_pages, summary.trailer_pages, summary.file_bytes
    );

    let mut table = ExperimentTable::new(
        "Cold start — bring-up work per backend (pages = logical reads column, KiB decoded = memory column)",
        "backend#",
    );
    let mut violations = Vec::new();
    for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
        let built = built_info(&dataset, kind)?;
        let snap = snapshot_info(&staged, kind)?;
        assert_eq!(built.source, ColdStartSource::Built);
        assert_eq!(snap.source, ColdStartSource::Snapshot);
        table.push(row(built.source, i, built));
        table.push(row(snap.source, i, snap));
        table.cold_start = snap;
        println!(
            "{kind}: built {{pages: {}, bytes: {}}} vs snapshot {{pages: {}, bytes: {}}}",
            built.pages, built.bytes, snap.pages, snap.bytes
        );
        if snap.bytes >= built.bytes {
            violations.push(format!(
                "{kind}: snapshot decoded {} bytes, built decoded {} — the open must never parse more",
                snap.bytes, built.bytes
            ));
        }
        if kind != BackendKind::Mem && snap.pages >= built.pages {
            violations.push(format!(
                "{kind}: snapshot touched {} pages, built touched {} — the open must serve data pages in place",
                snap.pages, built.pages
            ));
        }
    }

    print_table(&table);
    args.emit("coldstart", &table)?;
    args.report_wall_clock(started);

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("cold-start violation: {v}");
        }
        std::process::exit(1);
    }
    Ok(())
}
