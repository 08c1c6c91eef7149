//! In-place index maintenance: applying [`TupleUpdate`]s to a live
//! [`crate::TopKIndex`] without a rebuild.
//!
//! The paper's system model builds the physical design once, offline. The
//! dynamic layer keeps it live under churn by touching only what an update
//! can affect:
//!
//! * **Tuple store** — deletes tombstone the directory entry (`nnz = 0`;
//!   the bytes become garbage, never read again). Same-length coordinate
//!   rewrites go in place. Growing records and inserts append at the
//!   region's byte tail, inside a capacity run that doubles geometrically:
//!   when the tail outgrows the run, the used pages are copied once into a
//!   fresh contiguous run twice the size (a *relocation*, counted in
//!   [`MaintenanceStatsSnapshot::tuple_relocations`]). The region therefore
//!   stays a single contiguous page run — the invariant the snapshot
//!   superheader records and validates.
//! * **Inverted lists** — each dimension whose postings change is rewritten
//!   wholesale from its current pages: read, patch, re-sort with the exact
//!   build-time comparator (decreasing value, ties by increasing tuple id),
//!   write back. A list that still fits rewrites into its own run; one that
//!   outgrew it moves to the best-fit recycled run (or fresh pages) and its
//!   old run joins the free list. Rewriting the full list keeps the stored
//!   order bit-compatible with a fresh build of the mutated dataset, which
//!   is what makes the incremental-≡-recompute oracle hold with *equality*
//!   rather than approximation.
//! * **Free runs** — page runs vacated by moved lists or relocated tuple
//!   regions are recycled best-fit (smallest adequate run, ties to the
//!   lowest page id, remainder split back). Allocation order is a function
//!   of the update sequence alone, so the physical layout after any update
//!   sequence is deterministic across backends and worker counts.
//!
//! Batches are pre-validated in full against the dataset shape before any
//! page is touched, so a malformed update rejects the whole batch instead
//! of applying a prefix. I/O failures mid-batch can still leave a partially
//! applied batch behind (the error is surfaced; the index remains
//! internally consistent up to the last completed update).

use crate::buffer::BufferPool;
use crate::inverted::{read_list, write_list_at, ListDirectoryEntry, ENTRIES_PER_PAGE};
use crate::page::{PageId, PAGE_SIZE};
use crate::tuplestore::{
    encode_record, read_tuple, write_region_bytes, TupleDirectoryEntry, TupleRegion,
};
use ir_types::update::TupleUpdate;
use ir_types::{DimId, IrResult, SparseVector, TupleId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// What one applied update changed, as the layers above need to see it: the
/// touched tuple plus its vector before and after. The region-invalidation
/// layer decides from exactly this pair whether a subscription's immutable
/// region was punctured.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedUpdate {
    /// The tuple the update touched (for an insert, the freshly assigned
    /// dense id).
    pub tuple: TupleId,
    /// The tuple's vector before the update (empty for an insert).
    pub old_vector: SparseVector,
    /// The tuple's vector after the update (empty for a delete).
    pub new_vector: SparseVector,
}

/// Monotonic maintenance counters owned by a [`crate::TopKIndex`] — the
/// "maintenance I/O accounted separately" half of the update model. Updated
/// once per batch from a thread-local I/O diff, so concurrent queries on
/// other threads never pollute the attribution.
#[derive(Debug, Default)]
pub struct MaintenanceStats {
    updates_applied: AtomicU64,
    batches: AtomicU64,
    lists_rewritten: AtomicU64,
    tuple_relocations: AtomicU64,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    pages_written: AtomicU64,
}

/// Snapshot of [`MaintenanceStats`], suitable for diffing and emission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceStatsSnapshot {
    /// Individual updates applied (a batch of `n` counts `n`).
    pub updates_applied: u64,
    /// Batches applied (a single-update call counts one).
    pub batches: u64,
    /// Inverted-list rewrites performed (one per affected dimension per
    /// batch).
    pub lists_rewritten: u64,
    /// Times the tuple region outgrew its capacity run and was copied into
    /// a doubled one.
    pub tuple_relocations: u64,
    /// Logical page reads attributed to maintenance.
    pub logical_reads: u64,
    /// Physical page reads attributed to maintenance.
    pub physical_reads: u64,
    /// Pages written by maintenance.
    pub pages_written: u64,
}

impl MaintenanceStats {
    /// Folds one applied batch into the counters.
    pub(crate) fn record_batch(
        &self,
        updates: u64,
        outcome: &BatchOutcome,
        io: &crate::stats::IoStatsSnapshot,
    ) {
        self.updates_applied.fetch_add(updates, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lists_rewritten
            .fetch_add(outcome.lists_rewritten, Ordering::Relaxed);
        self.tuple_relocations
            .fetch_add(outcome.tuple_relocations, Ordering::Relaxed);
        self.logical_reads
            .fetch_add(io.logical_reads, Ordering::Relaxed);
        self.physical_reads
            .fetch_add(io.physical_reads, Ordering::Relaxed);
        self.pages_written
            .fetch_add(io.pages_written, Ordering::Relaxed);
    }

    /// Takes a snapshot of the current counters.
    pub fn snapshot(&self) -> MaintenanceStatsSnapshot {
        MaintenanceStatsSnapshot {
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            lists_rewritten: self.lists_rewritten.load(Ordering::Relaxed),
            tuple_relocations: self.tuple_relocations.load(Ordering::Relaxed),
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
        }
    }
}

/// Per-batch tallies the caller folds into [`MaintenanceStats`].
#[derive(Debug, Default)]
pub(crate) struct BatchOutcome {
    pub(crate) lists_rewritten: u64,
    pub(crate) tuple_relocations: u64,
}

/// The mutable half of a [`crate::TopKIndex`]: directories plus the
/// allocation bookkeeping maintenance needs. Lives behind the index's
/// `RwLock`; a tuple fetch holds the read lock for its duration, a list
/// cursor copies only its own 12-byte directory entry out, maintenance holds
/// the write lock for a whole batch.
pub(crate) struct Mutable {
    /// Per-dimension inverted-list directory.
    pub(crate) lists: HashMap<DimId, ListDirectoryEntry>,
    /// The tuple region (single contiguous page run + per-tuple directory).
    pub(crate) tuple_region: TupleRegion,
    /// Number of addressable tuple ids (tombstones included).
    pub(crate) cardinality: usize,
    /// Pages actually allocated to each list's run (≥ its
    /// [`ListDirectoryEntry::num_pages`]; the slack absorbs shrinkage).
    list_caps: HashMap<DimId, u32>,
    /// Pages allocated to the tuple region's run (≥ `tuple_region.num_pages`).
    tuple_capacity_pages: u32,
    /// Next free byte offset inside the tuple region (append cursor).
    tuple_tail_bytes: u64,
    /// Recyclable page runs `(first, len)`, sorted by first page and
    /// coalesced.
    free_runs: Vec<(PageId, u32)>,
}

impl Mutable {
    /// Derives the bookkeeping from freshly built or reopened directories:
    /// no slack, no free runs — maintenance grows them as needed.
    pub(crate) fn derive(
        lists: HashMap<DimId, ListDirectoryEntry>,
        tuple_region: TupleRegion,
        cardinality: usize,
    ) -> Self {
        let list_caps = lists
            .iter()
            .map(|(dim, entry)| (*dim, entry.num_pages().max(1)))
            .collect();
        let tuple_tail_bytes = tuple_region
            .directory
            .iter()
            .map(|e| e.offset + e.byte_len() as u64)
            .max()
            .unwrap_or(0);
        Mutable {
            list_caps,
            tuple_capacity_pages: tuple_region.num_pages,
            tuple_tail_bytes,
            free_runs: Vec::new(),
            lists,
            tuple_region,
            cardinality,
        }
    }
}

/// Applies a batch of updates to the physical index. Returns one
/// [`AppliedUpdate`] per input update, in order, plus the batch tallies.
///
/// The batch is validated in full first (against the shape the dataset will
/// have at each update's turn, so a batch may mutate a tuple it inserted
/// earlier); only then are pages touched.
pub(crate) fn apply_batch(
    pool: &BufferPool,
    dimensionality: u32,
    m: &mut Mutable,
    updates: &[TupleUpdate],
) -> IrResult<(Vec<AppliedUpdate>, BatchOutcome)> {
    let mut simulated_cardinality = m.cardinality;
    for update in updates {
        update.validate(simulated_cardinality, dimensionality)?;
        if matches!(update, TupleUpdate::Insert { .. }) {
            simulated_cardinality += 1;
        }
    }

    let mut outcome = BatchOutcome::default();
    let mut applied = Vec::with_capacity(updates.len());
    // Net posting change per dimension: tuple → Some(new value) | None
    // (gone). Later writes to the same (dim, tuple) overwrite earlier ones,
    // so each affected list is rewritten exactly once per batch.
    let mut deltas: BTreeMap<DimId, BTreeMap<TupleId, Option<f64>>> = BTreeMap::new();

    for update in updates {
        let (tuple, old_vector, new_vector) = apply_tuple_change(pool, m, update, &mut outcome)?;
        merge_posting_deltas(&mut deltas, tuple, &old_vector, &new_vector);
        applied.push(AppliedUpdate {
            tuple,
            old_vector,
            new_vector,
        });
    }

    // Rewrite each affected list once, dimensions ascending so the page
    // allocation order (and thus the physical layout) is deterministic.
    for (dim, changes) in deltas {
        if changes.is_empty() {
            continue;
        }
        let mut entries = match m.lists.get(&dim) {
            Some(entry) => read_list(pool, entry)?,
            None => Vec::new(),
        };
        entries.retain(|(tuple, _)| !changes.contains_key(tuple));
        for (tuple, value) in changes {
            if let Some(value) = value {
                entries.push((tuple, value));
            }
        }
        // The exact build-time order: decreasing value, ties by id.
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rewrite_list(pool, m, dim, &entries)?;
        outcome.lists_rewritten += 1;
    }

    Ok((applied, outcome))
}

/// Applies one update to the tuple store and returns `(tuple, old, new)`.
fn apply_tuple_change(
    pool: &BufferPool,
    m: &mut Mutable,
    update: &TupleUpdate,
    outcome: &mut BatchOutcome,
) -> IrResult<(TupleId, SparseVector, SparseVector)> {
    match update {
        TupleUpdate::Insert { vector } => {
            let id = TupleId::from(m.cardinality);
            let offset = append_record(pool, m, vector, outcome)?;
            m.tuple_region.directory.push(TupleDirectoryEntry {
                offset,
                nnz: vector.nnz() as u32,
            });
            m.cardinality += 1;
            Ok((id, SparseVector::new(), vector.clone()))
        }
        TupleUpdate::Delete { tuple } => {
            let old = read_tuple(pool, &m.tuple_region, *tuple)?;
            m.tuple_region.directory[tuple.index()].nnz = 0;
            Ok((*tuple, old, SparseVector::new()))
        }
        TupleUpdate::UpdateScore { tuple, dim, value } => {
            let old = read_tuple(pool, &m.tuple_region, *tuple)?;
            let new = old.with_coordinate(*dim, *value)?;
            let entry = &mut m.tuple_region.directory[tuple.index()];
            if new.nnz() == 0 {
                entry.nnz = 0;
            } else if new.nnz() == old.nnz() {
                // Same record length: overwrite in place.
                let offset = entry.offset;
                let mut bytes = Vec::new();
                encode_record(&new, &mut bytes);
                write_region_bytes(pool, &m.tuple_region, offset, &bytes)?;
            } else {
                let offset = append_record(pool, m, &new, outcome)?;
                let entry = &mut m.tuple_region.directory[tuple.index()];
                entry.offset = offset;
                entry.nnz = new.nnz() as u32;
            }
            Ok((*tuple, old, new))
        }
    }
}

/// Records, per dimension where old and new disagree, the tuple's new
/// posting value (`None` when the coordinate vanished).
fn merge_posting_deltas(
    deltas: &mut BTreeMap<DimId, BTreeMap<TupleId, Option<f64>>>,
    tuple: TupleId,
    old: &SparseVector,
    new: &SparseVector,
) {
    for (dim, old_value) in old.iter() {
        let new_value = new.get(dim);
        if new_value != old_value {
            deltas
                .entry(dim)
                .or_default()
                .insert(tuple, (new_value != 0.0).then_some(new_value));
        }
    }
    for (dim, new_value) in new.iter() {
        if old.get(dim) == 0.0 {
            deltas
                .entry(dim)
                .or_default()
                .insert(tuple, Some(new_value));
        }
    }
}

/// Appends one record at the region's byte tail, relocating the region into
/// a doubled capacity run first when the tail would outgrow it. Returns the
/// record's region-relative byte offset.
fn append_record(
    pool: &BufferPool,
    m: &mut Mutable,
    vector: &SparseVector,
    outcome: &mut BatchOutcome,
) -> IrResult<u64> {
    let mut bytes = Vec::new();
    encode_record(vector, &mut bytes);
    let start = m.tuple_tail_bytes;
    let end = start + bytes.len() as u64;
    let needed_pages = (end.div_ceil(PAGE_SIZE as u64) as u32).max(1);
    if needed_pages > m.tuple_capacity_pages {
        relocate_tuple_region(pool, m, needed_pages)?;
        outcome.tuple_relocations += 1;
    }
    if !bytes.is_empty() {
        write_region_bytes(pool, &m.tuple_region, start, &bytes)?;
    }
    m.tuple_tail_bytes = end;
    m.tuple_region.num_pages = m.tuple_region.num_pages.max(needed_pages);
    Ok(start)
}

/// Copies the region's used pages into a fresh contiguous run of at least
/// `needed_pages` (geometric doubling), freeing the old run.
fn relocate_tuple_region(pool: &BufferPool, m: &mut Mutable, needed_pages: u32) -> IrResult<()> {
    let new_capacity = needed_pages
        .max(m.tuple_capacity_pages.saturating_mul(2))
        .max(1);
    let new_first = acquire_run(pool, &mut m.free_runs, new_capacity)?;
    for page_idx in 0..m.tuple_region.num_pages {
        let buf = pool.read(PageId(m.tuple_region.first_page.0 + page_idx))?;
        pool.write(PageId(new_first.0 + page_idx), &buf)?;
    }
    release_run(
        &mut m.free_runs,
        m.tuple_region.first_page,
        m.tuple_capacity_pages,
    );
    m.tuple_region.first_page = new_first;
    m.tuple_capacity_pages = new_capacity;
    Ok(())
}

/// Writes `entries` (already in final order) as dimension `dim`'s list:
/// into its own run when it still fits, else into a recycled or fresh run.
/// An emptied list is dropped from the directory — exactly what a fresh
/// build of the mutated dataset would produce.
fn rewrite_list(
    pool: &BufferPool,
    m: &mut Mutable,
    dim: DimId,
    entries: &[(TupleId, f64)],
) -> IrResult<()> {
    if entries.is_empty() {
        if let Some(old) = m.lists.remove(&dim) {
            let cap = m.list_caps.remove(&dim).unwrap_or(old.num_pages().max(1));
            release_run(&mut m.free_runs, old.first_page, cap);
        }
        return Ok(());
    }
    let needed = entries.len().div_ceil(ENTRIES_PER_PAGE).max(1) as u32;
    let (first_page, cap) = match m.lists.get(&dim) {
        Some(old) => {
            let cap = m
                .list_caps
                .get(&dim)
                .copied()
                .unwrap_or(old.num_pages().max(1));
            if cap >= needed {
                (old.first_page, cap)
            } else {
                release_run(&mut m.free_runs, old.first_page, cap);
                (acquire_run(pool, &mut m.free_runs, needed)?, needed)
            }
        }
        None => (acquire_run(pool, &mut m.free_runs, needed)?, needed),
    };
    let directory = write_list_at(pool, dim, entries, first_page)?;
    m.lists.insert(dim, directory);
    m.list_caps.insert(dim, cap);
    Ok(())
}

/// Takes exactly `needed` contiguous pages: best-fit from the free list
/// (smallest adequate run, ties to the lowest page id, remainder split
/// back), falling back to a fresh pool allocation.
fn acquire_run(
    pool: &BufferPool,
    free_runs: &mut Vec<(PageId, u32)>,
    needed: u32,
) -> IrResult<PageId> {
    let best = free_runs
        .iter()
        .enumerate()
        .filter(|(_, (_, len))| *len >= needed)
        .min_by_key(|(_, (first, len))| (*len, first.0))
        .map(|(idx, _)| idx);
    match best {
        Some(idx) => {
            let (first, len) = free_runs.remove(idx);
            if len > needed {
                release_run(free_runs, PageId(first.0 + needed), len - needed);
            }
            Ok(first)
        }
        None => pool.allocate(needed),
    }
}

/// Returns a run to the free list, keeping it sorted by first page and
/// coalescing with adjacent runs.
fn release_run(free_runs: &mut Vec<(PageId, u32)>, first: PageId, len: u32) {
    if len == 0 {
        return;
    }
    let pos = free_runs.partition_point(|(f, _)| f.0 < first.0);
    free_runs.insert(pos, (first, len));
    // Coalesce with the successor, then the predecessor.
    if pos + 1 < free_runs.len()
        && free_runs[pos].0 .0 + free_runs[pos].1 == free_runs[pos + 1].0 .0
    {
        free_runs[pos].1 += free_runs[pos + 1].1;
        free_runs.remove(pos + 1);
    }
    if pos > 0 && free_runs[pos - 1].0 .0 + free_runs[pos - 1].1 == free_runs[pos].0 .0 {
        free_runs[pos - 1].1 += free_runs[pos].1;
        free_runs.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::MemPageStore;
    use std::sync::Arc;

    fn make_pool() -> BufferPool {
        BufferPool::new(Arc::new(MemPageStore::new()))
    }

    #[test]
    fn acquire_prefers_best_fit_and_splits_the_remainder() {
        let pool = make_pool();
        let mut runs = vec![(PageId(10), 5), (PageId(30), 3), (PageId(50), 3)];
        // Best fit for 2 is the 3-page run at the lowest page id (30).
        let got = acquire_run(&pool, &mut runs, 2).unwrap();
        assert_eq!(got, PageId(30));
        assert_eq!(
            runs,
            vec![(PageId(10), 5), (PageId(32), 1), (PageId(50), 3)]
        );
        // Nothing fits 9 → a fresh allocation from the (empty) pool.
        let fresh = acquire_run(&pool, &mut runs, 9).unwrap();
        assert_eq!(fresh, PageId(0));
        assert_eq!(runs.len(), 3, "free list untouched by a fresh allocation");
    }

    #[test]
    fn release_coalesces_adjacent_runs() {
        let mut runs = vec![(PageId(0), 2), (PageId(5), 2)];
        release_run(&mut runs, PageId(2), 3);
        assert_eq!(runs, vec![(PageId(0), 7)]);
        release_run(&mut runs, PageId(10), 1);
        release_run(&mut runs, PageId(8), 1);
        assert_eq!(runs, vec![(PageId(0), 7), (PageId(8), 1), (PageId(10), 1)]);
        release_run(&mut runs, PageId(9), 1);
        assert_eq!(runs, vec![(PageId(0), 7), (PageId(8), 3)]);
        release_run(&mut runs, PageId(100), 0);
        assert_eq!(runs.len(), 2, "zero-length releases are ignored");
    }

    #[test]
    fn posting_deltas_capture_the_symmetric_difference() {
        let old = SparseVector::from_pairs([(0, 0.5), (1, 0.25)]).unwrap();
        let new = SparseVector::from_pairs([(1, 0.75), (2, 0.1)]).unwrap();
        let mut deltas = BTreeMap::new();
        merge_posting_deltas(&mut deltas, TupleId(7), &old, &new);
        assert_eq!(deltas[&DimId(0)][&TupleId(7)], None);
        assert_eq!(deltas[&DimId(1)][&TupleId(7)], Some(0.75));
        assert_eq!(deltas[&DimId(2)][&TupleId(7)], Some(0.1));
        // A later change to the same tuple overwrites the earlier record.
        merge_posting_deltas(&mut deltas, TupleId(7), &new, &old);
        assert_eq!(deltas[&DimId(0)][&TupleId(7)], Some(0.5));
        assert_eq!(deltas[&DimId(1)][&TupleId(7)], Some(0.25));
        assert_eq!(deltas[&DimId(2)][&TupleId(7)], None);
    }
}
