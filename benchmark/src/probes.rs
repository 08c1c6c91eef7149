//! Per-layer probes: fixed-count loops over one layer's public functions,
//! timed from outside. Iteration counts are constants so every count the
//! probes report repeats exactly; the storage probes run on synthetic page
//! stores (they characterise the layer, not a workload), the index probes on
//! the workload's own index.

use immutable_regions::engine::IrEngine;
use immutable_regions::fleet::{AnswerKind, FleetConfig, SubscriptionManager};
use ir_core::{update_impact, RegionReport};
use ir_datagen::{DriftEvent, UpdateConfig, UpdateStream};
use ir_geometry::{sweep_topk, Line, LowerEnvelope};
use ir_storage::{
    fnv1a64, AppliedUpdate, BackendKind, BufferPool, FilePageStore, MemPageStore, PageId,
    PageStore, StorageBackend, TopKIndex, PAGE_SIZE,
};
use ir_types::{Dataset, QueryVector, SeededLcg, SparseVector, TupleId, TupleUpdate};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type Probe<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Pages in the synthetic stores the page-store and buffer probes read.
const PROBE_PAGES: u32 = 2048;
const STORE_READS: u32 = 50_000;
const POOL_HITS: u32 = 500_000;
const SMALL_POOL_PAGES: usize = 256;

/// Nanoseconds of a fixed FNV-1a pass over 1 MiB, best of five: tells "the
/// host got slower" from "the code got slower".
pub fn calibration_ns() -> f64 {
    let buffer: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(fnv1a64(black_box(&buffer)));
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub struct StorageTimes {
    pub mem_read_ns: f64,
    pub file_read_ns: f64,
    pub hit_ns: f64,
    pub hit_ns_t2: f64,
    pub miss_ns: f64,
}

fn fill(store: &dyn PageStore) -> Probe<()> {
    let mut rng = SeededLcg::mixed(0x9A6E);
    let first = store.allocate(PROBE_PAGES).map_err(err)?;
    let mut page = vec![0u8; PAGE_SIZE];
    for i in 0..PROBE_PAGES {
        for chunk in page.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_state().to_le_bytes());
        }
        store.write_page(PageId(first.0 + i), &page).map_err(err)?;
    }
    Ok(())
}

/// Mean nanoseconds of `reads` calls to `read` on pseudo-random page ids.
fn time_reads<T>(
    reads: u32,
    seed: u64,
    mut read: impl FnMut(PageId) -> ir_types::IrResult<T>,
) -> Probe<f64> {
    let mut rng = SeededLcg::mixed(seed);
    let started = Instant::now();
    for _ in 0..reads {
        let page = PageId(rng.next_below(u64::from(PROBE_PAGES)) as u32);
        black_box(read(page).map_err(err)?);
    }
    Ok(started.elapsed().as_nanos() as f64 / f64::from(reads))
}

/// The page path in isolation: raw store reads (checksum + copy), pool hits
/// from one and from two threads (the pool is one mutex), and reads through
/// a pool an eighth the size of the store (miss + LRU eviction).
pub fn storage(scratch: &Path) -> Probe<StorageTimes> {
    let mem = Arc::new(MemPageStore::new());
    fill(mem.as_ref())?;
    let mem_read_ns = time_reads(STORE_READS, 1, |p| mem.read_page(p))?;

    let file = FilePageStore::create(scratch.join("probe.pages")).map_err(err)?;
    fill(&file)?;
    let file_read_ns = time_reads(STORE_READS, 1, |p| file.read_page(p))?;
    drop(file);

    let warm = BufferPool::with_capacity(mem.clone(), PROBE_PAGES as usize);
    for i in 0..PROBE_PAGES {
        warm.read(PageId(i)).map_err(err)?;
    }
    let hit_ns = time_reads(POOL_HITS, 2, |p| warm.read(p))?;
    let pool = &warm;
    let hit_ns_t2 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| scope.spawn(move || time_reads(POOL_HITS, 3 + t, |p| pool.read(p))))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "pool probe thread panicked".to_string())?
            })
            .try_fold(0.0f64, |slowest, ns| ns.map(|ns| slowest.max(ns)))
    })?;

    let small = BufferPool::with_capacity(mem, SMALL_POOL_PAGES);
    let miss_ns = time_reads(STORE_READS, 5, |p| small.read(p))?;

    Ok(StorageTimes {
        mem_read_ns,
        file_read_ns,
        hit_ns,
        hit_ns_t2,
        miss_ns,
    })
}

/// Entries the cursor probe walks at most (dense lists are long).
const CURSOR_ENTRIES: u64 = 4_000_000;

/// `(open_cursor_ns, cursor_ns_per_entry, entries walked)` over the lists of
/// `queries`, each walked to exhaustion through the warm pool.
pub fn cursors(index: &TopKIndex, queries: &[QueryVector]) -> Probe<(f64, f64, u64)> {
    let (mut opens, mut open_ns, mut entries, mut walk_ns) = (0u64, 0u128, 0u64, 0u128);
    'queries: for query in queries {
        for (dim, _) in query.dims() {
            let started = Instant::now();
            let mut cursor = index.list_cursor(dim).map_err(err)?;
            open_ns += started.elapsed().as_nanos();
            opens += 1;
            let started = Instant::now();
            while let Some(entry) = cursor.next_entry().map_err(err)? {
                black_box(entry);
                entries += 1;
            }
            walk_ns += started.elapsed().as_nanos();
            if entries >= CURSOR_ENTRIES {
                break 'queries;
            }
        }
    }
    Ok((
        open_ns as f64 / opens.max(1) as f64,
        walk_ns as f64 / entries.max(1) as f64,
        entries,
    ))
}

const TUPLE_FETCHES: u32 = 50_000;

/// Mean nanoseconds of a warm `fetch_tuple` on pseudo-random ids.
pub fn tuple_fetch(index: &TopKIndex) -> Probe<f64> {
    let mut rng = SeededLcg::mixed(0x7F17);
    let cardinality = index.cardinality() as u64;
    let started = Instant::now();
    for _ in 0..TUPLE_FETCHES {
        let id = TupleId(rng.next_below(cardinality) as u32);
        black_box(index.fetch_tuple(id).map_err(err)?);
    }
    Ok(started.elapsed().as_nanos() as f64 / f64::from(TUPLE_FETCHES))
}

pub struct SnapshotTimes {
    pub save_s: f64,
    pub open_s: f64,
    pub open_bytes_decoded: f64,
}

/// Saves the engine's index as a snapshot into the empty directory `dir` and
/// boots a second engine from it on the same kind of backend.
pub fn snapshot(engine: &IrEngine, dir: &Path) -> Probe<SnapshotTimes> {
    let started = Instant::now();
    engine.save_snapshot(dir).map_err(err)?;
    let save_s = started.elapsed().as_secs_f64();

    let backend = match engine.backend_kind() {
        BackendKind::File => StorageBackend::Disk(dir.to_path_buf()),
        _ => StorageBackend::Memory,
    };
    let started = Instant::now();
    let opened = IrEngine::builder()
        .open_snapshot(dir)
        .backend(backend)
        .build()
        .map_err(err)?;
    let open_s = started.elapsed().as_secs_f64();
    let open_bytes_decoded = opened.cold_start_info().bytes as f64;
    Ok(SnapshotTimes {
        save_s,
        open_s,
        open_bytes_decoded,
    })
}

/// `(envelope_ns_per_line, sweep_ns_per_event)` on 64 and 1 024 seeded
/// score lines over the deviation range `[0, 1]`.
pub fn geometry() -> (f64, f64) {
    let mut rng = SeededLcg::mixed(0x6E0);
    let mut unit = || rng.next_below(1 << 20) as f64 / (1u64 << 20) as f64;
    let (mut lines_built, mut envelope_ns, mut events, mut sweep_ns) = (0u64, 0u128, 0u64, 0u128);
    for n in [64usize, 1024] {
        let mut lines: Vec<Line> = (0..n)
            .map(|label| Line::new(label as u64, unit(), unit()))
            .collect();
        for _ in 0..16 {
            let started = Instant::now();
            black_box(LowerEnvelope::build(black_box(&lines), 0.0, 1.0));
            envelope_ns += started.elapsed().as_nanos();
            lines_built += n as u64;
        }
        lines.sort_by(|a, b| a.rank_cmp_at(b, 0.0));
        let outside = lines.split_off(10);
        for _ in 0..16 {
            let (ordered, outside) = (lines.clone(), outside.clone());
            let started = Instant::now();
            let outcome = black_box(sweep_topk(ordered, outside, 0.0, 1.0, 256));
            sweep_ns += started.elapsed().as_nanos();
            events += outcome.events.len() as u64;
        }
    }
    (
        envelope_ns as f64 / lines_built as f64,
        sweep_ns as f64 / events.max(1) as f64,
    )
}

const LOCAL_EVENTS: usize = 100_000;

/// Mean nanoseconds of a drift event answered from the cached region: one
/// subscription nudged back and forth by 1e-7 on its first dimension.
pub fn local_check(engine: &IrEngine, query: &QueryVector) -> Probe<f64> {
    let mut manager = SubscriptionManager::new(engine, FleetConfig::default()).map_err(err)?;
    manager.admit(0, query.clone()).map_err(err)?;
    let (dim, _) = query.dims().next().ok_or("empty probe query")?;
    let events: Vec<DriftEvent> = (0..LOCAL_EVENTS)
        .map(|i| DriftEvent {
            sub: 0,
            dim,
            delta: if i % 2 == 0 { 1e-7 } else { -1e-7 },
        })
        .collect();
    let started = Instant::now();
    let answers = manager.ingest(&events).map_err(err)?;
    let elapsed = started.elapsed();
    if answers.iter().any(|a| a.kind != AnswerKind::Local) {
        return Err("local-check probe left its region".to_string());
    }
    Ok(elapsed.as_nanos() as f64 / LOCAL_EVENTS as f64)
}

/// What `apply_updates` would report for `updates` against `dataset`,
/// without touching any engine.
fn describe_updates(dataset: &Dataset, updates: &[TupleUpdate]) -> Probe<Vec<AppliedUpdate>> {
    let mut next_id = dataset.cardinality() as u32;
    updates
        .iter()
        .map(|update| {
            Ok(match update {
                TupleUpdate::Insert { vector } => {
                    next_id += 1;
                    AppliedUpdate {
                        tuple: TupleId(next_id - 1),
                        old_vector: SparseVector::new(),
                        new_vector: vector.clone(),
                    }
                }
                TupleUpdate::Delete { tuple } => AppliedUpdate {
                    tuple: *tuple,
                    old_vector: dataset.tuple(*tuple).map_err(err)?.clone(),
                    new_vector: SparseVector::new(),
                },
                TupleUpdate::UpdateScore { tuple, dim, value } => {
                    let old = dataset.tuple(*tuple).map_err(err)?;
                    AppliedUpdate {
                        tuple: *tuple,
                        old_vector: old.clone(),
                        new_vector: old.with_coordinate(*dim, *value).map_err(err)?,
                    }
                }
            })
        })
        .collect()
}

/// Mean nanoseconds of one `update_impact` screening: every cached report
/// against every update of one seeded batch.
pub fn update_impact_ns(
    engine: &IrEngine,
    dataset: &Dataset,
    cached: &[(QueryVector, RegionReport)],
) -> Probe<f64> {
    let config = UpdateConfig {
        num_updates: 16,
        churn: 0.4,
        zipf_exponent: 1.0,
        remove_fraction: 0.1,
    };
    let stream = UpdateStream::generate(dataset, &config, 0x1A9AC7).map_err(err)?;
    // Later updates of a stream may target tuples an earlier one inserted;
    // keep the ones that describe a tuple of the unmodified dataset.
    let updates: Vec<TupleUpdate> = stream
        .updates()
        .iter()
        .filter(|u| {
            u.target()
                .map_or(true, |t| t.index() < dataset.cardinality())
        })
        .cloned()
        .collect();
    let applied = describe_updates(dataset, &updates)?;
    let mut screenings = 0u64;
    let started = Instant::now();
    for _ in 0..8 {
        for (anchor, report) in cached {
            for update in &applied {
                black_box(
                    update_impact(
                        anchor,
                        report,
                        update.tuple,
                        &update.old_vector,
                        &update.new_vector,
                        |id| engine.index().fetch_tuple(id),
                    )
                    .map_err(err)?,
                );
                screenings += 1;
            }
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / screenings.max(1) as f64)
}

/// Wall time of `queries` as batches of ten on one worker divided by the
/// same on two.
pub fn parallel_speedup(engine: &IrEngine, queries: &[QueryVector]) -> Probe<f64> {
    let time = |threads: usize| -> Probe<f64> {
        let engine = engine.with_threads(threads);
        let started = Instant::now();
        for batch in queries.chunks(10) {
            black_box(engine.query_batch(batch).map_err(err)?);
        }
        Ok(started.elapsed().as_secs_f64())
    };
    let one = time(1)?;
    let two = time(2)?;
    Ok(one / two)
}
