//! [`TopKIndex`]: the physical design the query algorithms operate on.
//!
//! An index bundles, for one dataset,
//!
//! * one inverted list per populated dimension (sorted access),
//! * the external tuple file (random access),
//! * the buffer pool and its I/O counters,
//! * the dataset-level metadata (cardinality, dimensionality).
//!
//! Building the index corresponds to the offline preparation step of the
//! paper's system model (Section 7.1); querying it is what TA, Scan and CPT
//! do online.

use crate::buffer::{BufferPool, RetryPolicy, DEFAULT_POOL_CAPACITY};
use crate::fault::{FaultInjectingPageStore, FaultPlan};
use crate::inverted::{write_list, InvertedListCursor, ListDirectoryEntry, ENTRY_BYTES};
use crate::maintain::{self, AppliedUpdate, MaintenanceStatsSnapshot, Mutable};
use crate::pagestore::{FilePageStore, MemPageStore, PageStore};
use crate::snapshot::{self, SnapshotSummary};
use crate::stats::IoStatsSnapshot;
use crate::tuplestore::{read_tuple, read_tuple_coords, write_tuples, TupleRegion};
use ir_types::{Dataset, DimId, IrError, IrResult, SparseVector, TupleId, TupleUpdate};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which device backs the page store.
#[derive(Clone, Debug, Default)]
pub enum StorageBackend {
    /// Pages in memory (default); I/O is still accounted at page granularity.
    #[default]
    Memory,
    /// Pages in a flat file under the given directory (`index.pages`),
    /// accessed with positioned reads.
    Disk(PathBuf),
}

impl StorageBackend {
    /// The path-free classification of this backend.
    pub fn kind(&self) -> BackendKind {
        match self {
            StorageBackend::Memory => BackendKind::Mem,
            StorageBackend::Disk(_) => BackendKind::File,
        }
    }
}

/// The path-free classification of a [`StorageBackend`]: what
/// [`TopKIndex::backend_kind`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`MemPageStore`] (the default).
    #[default]
    Mem,
    /// [`FilePageStore`] (positioned reads on a flat file).
    File,
}

impl BackendKind {
    /// All kinds, mem first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Mem, BackendKind::File];
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Mem => "mem",
            BackendKind::File => "file",
        })
    }
}

/// How a [`TopKIndex`] came into existence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ColdStartSource {
    /// Built from the raw dataset by [`IndexBuilder::build`] — the
    /// O(dataset) parse-sort-write pass.
    #[default]
    Built,
    /// Opened from a saved snapshot by [`IndexBuilder::open_snapshot`] —
    /// only the trailer was read, no posting or tuple was decoded.
    Snapshot,
}

impl fmt::Display for ColdStartSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ColdStartSource::Built => "built",
            ColdStartSource::Snapshot => "snapshot",
        })
    }
}

/// The deterministic work it took to bring an index up.
///
/// Both metrics are deterministic (never wall-clock): re-running the same
/// build or open yields the same numbers on any machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColdStartInfo {
    /// Where the index came from.
    pub source: ColdStartSource,
    /// Physical pages touched to bring the index up: pages written during a
    /// build; trailer pages read during a snapshot open (plus, for the mem
    /// backend only, the whole-file pages it must materialize in memory).
    pub pages: u64,
    /// Bytes parsed into in-memory structures: every posting and tuple
    /// coordinate serialized by a build; just the superheader and the
    /// 12-byte directory records decoded by a snapshot open.
    pub bytes: u64,
}

/// Builder for [`TopKIndex`]: the one place storage is configured — backend,
/// buffer-pool budget, retry policy and fault plan.
#[derive(Debug)]
#[must_use = "an index builder does nothing until `build` is called"]
pub struct IndexBuilder {
    backend: StorageBackend,
    pool_capacity: usize,
    retry_policy: RetryPolicy,
    fault_plan: Option<FaultPlan>,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder {
            backend: StorageBackend::Memory,
            pool_capacity: DEFAULT_POOL_CAPACITY,
            retry_policy: RetryPolicy::default(),
            fault_plan: None,
        }
    }
}

/// What loading an index onto its pool produced: the directory state, the
/// dimensionality and the cold-start cost.
type Loaded = (Mutable, u32, ColdStartInfo);

impl IndexBuilder {
    /// Starts a builder with the default (memory) backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the storage backend.
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the buffer-pool capacity in pages.
    pub fn pool_capacity(mut self, pages: usize) -> Self {
        self.pool_capacity = pages;
        self
    }

    /// Sets the buffer pool's transient-fault [`RetryPolicy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Wraps the chosen backend in a [`FaultInjectingPageStore`] driven by
    /// `plan` (`None` for a healthy device — the default). The wrapper stays
    /// disarmed through index construction and is armed once the build
    /// completes, so faults strike queries, not the offline build.
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builds the physical index from an in-memory dataset.
    pub fn build(self, dataset: &Dataset) -> IrResult<TopKIndex> {
        let store: Arc<dyn PageStore> = match &self.backend {
            StorageBackend::Memory => Arc::new(MemPageStore::new()),
            StorageBackend::Disk(dir) => {
                std::fs::create_dir_all(dir)?;
                Arc::new(FilePageStore::create(dir.join("index.pages"))?)
            }
        };
        // Faults are a query-time phenomenon: the offline build runs on a
        // disarmed device.
        self.assemble(store, false, |pool| {
            // Collect the per-dimension postings.
            let mut postings: HashMap<DimId, Vec<(TupleId, f64)>> = HashMap::new();
            for (id, tuple) in dataset.iter() {
                for (dim, value) in tuple.iter() {
                    postings.entry(dim).or_default().push((id, value));
                }
            }
            // Sort each list by decreasing value, ties by increasing tuple
            // id, and write it out. Dimensions are processed in increasing
            // id order so the physical layout is deterministic.
            let mut dims: Vec<DimId> = postings.keys().copied().collect();
            dims.sort_unstable();
            let mut lists: HashMap<DimId, ListDirectoryEntry> = HashMap::with_capacity(dims.len());
            for dim in dims {
                let Some(mut entries) = postings.remove(&dim) else {
                    continue; // unreachable: `dims` are exactly the keys
                };
                entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                lists.insert(dim, write_list(pool, dim, &entries)?);
            }
            let tuple_region: TupleRegion = write_tuples(pool, dataset)?;

            // The cold-start cost of *this* path: every page written, every
            // posting/coordinate parsed.
            let cold_start_info = ColdStartInfo {
                source: ColdStartSource::Built,
                pages: pool.io_snapshot().pages_written,
                bytes: lists
                    .values()
                    .map(|l| l.num_entries as u64 * ENTRY_BYTES as u64)
                    .sum::<u64>()
                    + tuple_region
                        .directory
                        .iter()
                        .map(|t| t.byte_len() as u64)
                        .sum::<u64>(),
            };
            let mutable = Mutable::derive(lists, tuple_region, dataset.cardinality());
            Ok((mutable, dataset.dimensionality(), cold_start_info))
        })
    }

    /// Opens a previously saved snapshot (see
    /// [`TopKIndex::save_snapshot`]) instead of building from a dataset.
    ///
    /// The builder's backend selects *how* the snapshot file is served —
    /// only its [`BackendKind`] matters, any path carried by the variant is
    /// ignored because the file to serve is `dir/index.pages`:
    ///
    /// * `Memory` — the page file is materialized into a
    ///   [`MemPageStore`] frame by frame (seals preserved, not re-verified),
    /// * `Disk` — [`FilePageStore::open`] serves it in place with
    ///   positioned reads.
    ///
    /// Cold start reads *only* the trailer: the 64-byte superheader (magic,
    /// version, page size, checksum — each failure a typed
    /// [`IrError::Corruption`]) and the two directory sections. No inverted
    /// list or tuple bytes are deserialized before the first query. Unlike
    /// [`IndexBuilder::build`], a configured [`IndexBuilder::fault_plan`]
    /// is armed *before* the trailer is read: opening a snapshot is an
    /// online operation on a possibly misbehaving device, and injected
    /// faults during the open surface as typed errors.
    pub fn open_snapshot<P: AsRef<Path>>(self, dir: P) -> IrResult<TopKIndex> {
        let path = dir.as_ref().join(snapshot::SNAPSHOT_FILE);
        let backend_kind = self.backend.kind();
        let store: Arc<dyn PageStore> = match backend_kind {
            BackendKind::Mem => Arc::new(MemPageStore::from_page_file(&path)?),
            BackendKind::File => Arc::new(FilePageStore::open(&path)?),
        };
        // The mem backend had to materialize the whole file to serve it
        // from memory; the file backend touches only the trailer.
        let materialized = match backend_kind {
            BackendKind::Mem => store.num_pages() as u64,
            BackendKind::File => 0,
        };
        self.assemble(store, true, |pool| {
            let contents = snapshot::read_contents(pool)?;
            let cold_start_info = ColdStartInfo {
                source: ColdStartSource::Snapshot,
                pages: pool.io_snapshot().physical_reads + materialized,
                bytes: snapshot::SUPERHEADER_LEN as u64
                    + (contents.lists.len() as u64 + contents.tuple_region.directory.len() as u64)
                        * snapshot::RECORD_BYTES as u64,
            };
            let cardinality = contents.tuple_region.directory.len();
            let mutable = Mutable::derive(contents.lists, contents.tuple_region, cardinality);
            Ok((mutable, contents.dimensionality, cold_start_info))
        })
    }

    /// The serving stack [`IndexBuilder::build`] and
    /// [`IndexBuilder::open_snapshot`] share: wraps `store` in the fault
    /// injector (armed before `load` when `arm_before_load`, after it
    /// otherwise), puts the buffer pool on top, lets `load` fill the index,
    /// and hands the index over with a cold cache and clean counters.
    fn assemble(
        self,
        store: Arc<dyn PageStore>,
        arm_before_load: bool,
        load: impl FnOnce(&Arc<BufferPool>) -> IrResult<Loaded>,
    ) -> IrResult<TopKIndex> {
        let injector = self
            .fault_plan
            .map(|plan| FaultInjectingPageStore::new(Arc::clone(&store), plan));
        let device: Arc<dyn PageStore> = match &injector {
            Some(faulty) => Arc::clone(faulty) as Arc<dyn PageStore>,
            None => store,
        };
        let arm = || {
            if let Some(faulty) = &injector {
                faulty.arm();
            }
        };
        if arm_before_load {
            arm();
        }
        let pool = Arc::new(BufferPool::with_capacity_and_policy(
            device,
            self.pool_capacity,
            self.retry_policy,
        ));
        let (mutable, dimensionality, cold_start_info) = load(&pool)?;
        // Loading is not serving: wipe its I/O so query measurements start
        // from a clean slate and a cold cache.
        pool.clear_cache();
        pool.reset_io_stats();
        if !arm_before_load {
            arm();
        }
        Ok(TopKIndex {
            pool,
            mutable: RwLock::new(mutable),
            dimensionality,
            backend_kind: self.backend.kind(),
            fault_injector: injector,
            cold_start_info,
        })
    }

    /// [`IndexBuilder::build`], wrapped in an [`Arc`] so the index can be
    /// shared by owning handles (engines, subscriptions) without lifetimes.
    pub fn build_shared(self, dataset: &Dataset) -> IrResult<Arc<TopKIndex>> {
        self.build(dataset).map(Arc::new)
    }
}

/// The physical top-k index: inverted lists + tuple file + buffer pool.
///
/// The directory state (which pages hold which list, where each tuple
/// record lives) sits behind an `RwLock` so the index can be **maintained
/// in place** under churn: a tuple fetch holds the read lock for its
/// duration (so it never overlaps a batch), a list cursor copies only its
/// own 12-byte directory entry out, and [`TopKIndex::apply_updates`] holds
/// the write lock for a whole batch. Mutations are single-writer and are
/// *not* linearizable with in-flight queries — a query concurrent with a
/// batch may observe either the old or the new directory (never a torn
/// one). Queries issued after `apply_updates` returns see the mutated index.
pub struct TopKIndex {
    pool: Arc<BufferPool>,
    mutable: RwLock<Mutable>,
    dimensionality: u32,
    backend_kind: BackendKind,
    fault_injector: Option<Arc<FaultInjectingPageStore>>,
    cold_start_info: ColdStartInfo,
}

impl TopKIndex {
    /// Builds an index with all defaults (memory backend).
    pub fn build_in_memory(dataset: &Dataset) -> IrResult<Self> {
        IndexBuilder::new().build(dataset)
    }

    /// Number of addressable tuple ids (deleted tuples keep their id as an
    /// empty vector, so this never shrinks).
    pub fn cardinality(&self) -> usize {
        self.mutable.read().cardinality
    }

    /// Dataset dimensionality `m`.
    pub fn dimensionality(&self) -> u32 {
        self.dimensionality
    }

    /// Which page-store backend this index was built on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// The fault injector wrapping the page store, when the index was built
    /// with [`IndexBuilder::fault_plan`] (chaos runs only; `None` in
    /// production).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjectingPageStore>> {
        self.fault_injector.as_ref()
    }

    /// The fault plan this index's device executes, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_injector.as_ref().map(|f| f.plan())
    }

    /// The buffer pool (shared with cursors).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Length of dimension `dim`'s inverted list (zero when no tuple has a
    /// non-zero coordinate there).
    pub fn list_len(&self, dim: DimId) -> usize {
        self.mutable
            .read()
            .lists
            .get(&dim)
            .map_or(0, |d| d.num_entries as usize)
    }

    /// Directory entry of a dimension's list, if it exists.
    pub fn list_directory(&self, dim: DimId) -> Option<ListDirectoryEntry> {
        self.mutable.read().lists.get(&dim).copied()
    }

    /// Opens a sorted-access cursor at the head of dimension `dim`'s list.
    ///
    /// A dimension with no postings yields an empty cursor (never an error):
    /// a query weight on such a dimension is legal, it simply contributes
    /// nothing to any score. The cursor snapshots the list's directory
    /// entry: it keeps scanning the pages the list occupied when the cursor
    /// was opened, even if maintenance later moves the list.
    pub fn list_cursor(&self, dim: DimId) -> IrResult<InvertedListCursor> {
        if dim.0 >= self.dimensionality {
            return Err(IrError::UnknownDimension {
                dim: dim.0,
                dimensionality: self.dimensionality,
            });
        }
        let directory = self.list_directory(dim).unwrap_or(ListDirectoryEntry {
            dim,
            first_page: crate::page::PageId(0),
            num_entries: 0,
        });
        Ok(InvertedListCursor::new(Arc::clone(&self.pool), directory))
    }

    /// [`TopKIndex::fetch_tuple_counted`] for a caller that keeps no tally.
    pub fn fetch_tuple(&self, id: TupleId) -> IrResult<SparseVector> {
        self.fetch_tuple_counted(id, &mut IoStatsSnapshot::default())
    }

    /// Fetches the full sparse vector of a tuple (random access), counting
    /// its page reads in `tally`. A deleted tuple reads back as the empty
    /// vector; a stored record that fails its checks (a value outside
    /// `[0, 1]`, dimensions not strictly ascending) is
    /// [`IrError::Corruption`] naming its page. The directory read lock is
    /// held for this one fetch, so the record is read either entirely before
    /// or entirely after any [`TopKIndex::apply_updates`] batch.
    pub fn fetch_tuple_counted(
        &self,
        id: TupleId,
        tally: &mut IoStatsSnapshot,
    ) -> IrResult<SparseVector> {
        read_tuple(&self.pool, &self.mutable.read().tuple_region, id, tally)
    }

    /// Random access restricted to some dimensions: decodes tuple `id`'s
    /// coordinates in the strictly ascending `dims` into `out` (one slot per
    /// dimension, zero where the tuple stores none), straight from the
    /// pooled pages and without allocating. It reads the same pages as
    /// [`TopKIndex::fetch_tuple_counted`], counts them in `tally`, checks
    /// every stored coordinate the same way, and holds the directory read
    /// lock for the same span.
    pub fn fetch_coords_counted(
        &self,
        id: TupleId,
        dims: &[DimId],
        out: &mut [f64],
        tally: &mut IoStatsSnapshot,
    ) -> IrResult<()> {
        read_tuple_coords(
            &self.pool,
            &self.mutable.read().tuple_region,
            id,
            dims,
            out,
            tally,
        )
    }

    /// Applies a batch of logical updates to the physical index in place —
    /// the storage half of the dynamic update model.
    ///
    /// The whole batch is validated against the dataset shape first, so a
    /// malformed update rejects the batch without touching a page. The
    /// batch then runs under the directory write lock: tuple records are
    /// tombstoned, overwritten in place, or appended, and each inverted
    /// list whose postings changed is rewritten once into its own or a
    /// recycled page run — bit-compatible with a fresh build of the
    /// mutated dataset. Returns one [`AppliedUpdate`] (tuple plus old/new
    /// vector) per input, in order; the layers above use exactly that pair
    /// to decide which immutable regions were punctured.
    ///
    /// Every page the batch reads or writes is counted in the batch's own
    /// tally and added to [`TopKIndex::maintenance_stats`] under the write
    /// lock, so maintenance cost is accounted separately from query cost
    /// even with concurrent readers.
    pub fn apply_updates(&self, updates: &[TupleUpdate]) -> IrResult<Vec<AppliedUpdate>> {
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        maintain::apply_batch(
            &self.pool,
            self.dimensionality,
            &mut self.mutable.write(),
            updates,
        )
    }

    /// Applies one logical update; see [`TopKIndex::apply_updates`].
    pub fn apply_update(&self, update: &TupleUpdate) -> IrResult<AppliedUpdate> {
        let mut applied = self.apply_updates(std::slice::from_ref(update))?;
        applied.pop().ok_or_else(|| {
            IrError::Storage("a one-update batch produced no applied record".to_string())
        })
    }

    /// Cumulative maintenance counters: updates/batches applied, lists
    /// rewritten, tuple-region relocations, and the I/O attributed to
    /// maintenance (kept separate from the query counters).
    pub fn maintenance_stats(&self) -> MaintenanceStatsSnapshot {
        self.mutable.read().stats
    }

    /// The buffer pool's I/O totals since the last reset: every caller's
    /// requests, maintenance included.
    pub fn io_snapshot(&self) -> IoStatsSnapshot {
        self.pool.io_snapshot()
    }

    /// Resets the I/O counters (keeps the cache warm).
    pub fn reset_io_stats(&self) {
        self.pool.reset_io_stats();
    }

    /// Clears the buffer pool cache *and* the counters — a fully cold start.
    pub fn cold_start(&self) {
        self.pool.clear_cache();
        self.pool.reset_io_stats();
    }

    /// The deterministic work it took to bring this index up: built from
    /// the dataset, or opened from a snapshot trailer.
    pub fn cold_start_info(&self) -> ColdStartInfo {
        self.cold_start_info
    }

    /// Saves the index as a versioned snapshot under `dir` (written as
    /// `dir/index.pages`; the directory is created if missing), for a later
    /// [`IndexBuilder::open_snapshot`] to serve without rebuilding.
    ///
    /// Every data page is read through this index's buffer pool, so the
    /// copy is checksum-verified and shows up in the I/O counters (and, in
    /// chaos runs, on the fault injector's operation clock). The bytes go
    /// into a temp sibling that is renamed over `dir/index.pages` only once
    /// complete, so a save that fails half-way returns its typed error and
    /// leaves a previous snapshot in `dir` intact. Saving into the directory
    /// a disk-backed index is serving from is safe for the same reason
    /// (on Unix): the index keeps serving — and applying updates to — the
    /// replaced file through its open descriptor, which no path names any
    /// more, while `dir/index.pages` is the snapshot.
    /// A snapshot saved mid-churn captures the *mutated* state: the copy
    /// runs under the directory read lock, so it is consistent with the
    /// last completed [`TopKIndex::apply_updates`] batch.
    pub fn save_snapshot<P: AsRef<Path>>(&self, dir: P) -> IrResult<SnapshotSummary> {
        let m = self.mutable.read();
        snapshot::write_snapshot(
            &self.pool,
            &m.lists,
            &m.tuple_region,
            self.dimensionality,
            dir.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_running_example() {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        assert_eq!(index.cardinality(), 4);
        assert_eq!(index.dimensionality(), 2);
        assert_eq!(index.list_len(DimId(0)), 4);
        assert_eq!(index.list_len(DimId(1)), 4);

        // L1 must be ordered d1, d2, d3, d4 (by decreasing first coordinate,
        // ties by id) exactly as in Figure 1.
        let mut cursor = index.list_cursor(DimId(0)).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| cursor.next_entry().unwrap())
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);

        // L2 must be ordered d3, d4, d2, d1.
        let mut cursor = index.list_cursor(DimId(1)).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| cursor.next_entry().unwrap())
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(order, vec![2, 3, 1, 0]);

        // Random access returns the full tuples.
        for (id, tuple) in dataset.iter() {
            assert_eq!(&index.fetch_tuple(id).unwrap(), tuple);
        }
    }

    #[test]
    fn unknown_dimension_is_rejected_but_empty_dimension_is_not() {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        assert!(index.list_cursor(DimId(5)).is_err());

        // A dataset with an unpopulated dimension yields an empty cursor.
        let mut builder = ir_types::DatasetBuilder::new(3);
        builder.push_pairs([(0, 0.5)]).unwrap();
        let ds = builder.build();
        let idx = TopKIndex::build_in_memory(&ds).unwrap();
        assert_eq!(idx.list_len(DimId(2)), 0);
        let mut cursor = idx.list_cursor(DimId(2)).unwrap();
        assert!(cursor.next_entry().unwrap().is_none());
    }

    #[test]
    fn io_counters_start_clean_after_build() {
        let dataset = Dataset::running_example();
        let index = TopKIndex::build_in_memory(&dataset).unwrap();
        assert_eq!(index.io_snapshot(), IoStatsSnapshot::default());
        index.fetch_tuple(TupleId(0)).unwrap();
        assert!(index.io_snapshot().logical_reads > 0);
        index.cold_start();
        assert_eq!(index.io_snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn disk_backend_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let dataset = Dataset::running_example();
        let index = IndexBuilder::new()
            .backend(StorageBackend::Disk(dir.path().to_path_buf()))
            .pool_capacity(2)
            .build(&dataset)
            .unwrap();
        for (id, tuple) in dataset.iter() {
            assert_eq!(&index.fetch_tuple(id).unwrap(), tuple);
        }
        assert!(dir.path().join("index.pages").exists());
        assert_eq!(index.backend_kind(), BackendKind::File);
    }

    #[test]
    fn fault_plan_wraps_the_store_and_arms_after_build() {
        let dataset = Dataset::running_example();
        // An open-ended outage from op 0: had the wrapper been armed during
        // the build, construction itself would have failed.
        let plan = FaultPlan::device_outage(0, None);
        let index = IndexBuilder::new()
            .fault_plan(Some(plan.clone()))
            .build(&dataset)
            .unwrap();
        assert_eq!(index.fault_plan(), Some(&plan));
        let injector = index.fault_injector().unwrap();
        assert!(injector.is_armed(), "armed once the build completed");
        // Every post-build read hits the dead device.
        let err = index.fetch_tuple(TupleId(0)).unwrap_err();
        assert!(err.to_string().contains("injected device failure"), "{err}");
        // Without a plan there is no injector at all.
        let healthy = TopKIndex::build_in_memory(&dataset).unwrap();
        assert!(healthy.fault_injector().is_none());
        assert!(healthy.fault_plan().is_none());
    }

    #[test]
    fn snapshot_roundtrip_preserves_index_and_reports_cold_start() {
        // Two dimensions, and enough tuples that the data pages outnumber
        // the trailer pages.
        let mut builder = ir_types::DatasetBuilder::new(2);
        for i in 0..1_000u32 {
            let a = ((i * 37) % 101 + 1) as f64 / 102.0;
            let b = ((i * 53) % 89 + 1) as f64 / 90.0;
            builder.push_pairs([(0, a), (1, b)]).unwrap();
        }
        let dataset = builder.build();
        let built = TopKIndex::build_in_memory(&dataset).unwrap();
        let info = built.cold_start_info();
        assert_eq!(info.source, ColdStartSource::Built);
        assert!(info.pages > 0, "a build writes pages");
        assert!(info.bytes > 0, "a build parses every coordinate");

        let dir = tempfile::tempdir().unwrap();
        let summary = built.save_snapshot(dir.path()).unwrap();
        assert!(summary.data_pages > 0);
        assert!(summary.trailer_pages >= 2, "directories + superheader");
        assert_eq!(
            summary.total_pages,
            summary.data_pages + summary.trailer_pages
        );
        assert_eq!(
            summary.file_bytes,
            std::fs::metadata(dir.path().join("index.pages"))
                .unwrap()
                .len()
        );

        for kind in [BackendKind::Mem, BackendKind::File] {
            let backend = match kind {
                BackendKind::Mem => StorageBackend::Memory,
                // Any path on the variant is ignored by open_snapshot.
                _ => StorageBackend::Disk(PathBuf::from("/nonexistent-ignored")),
            };
            let opened = IndexBuilder::new()
                .backend(backend)
                .open_snapshot(dir.path())
                .unwrap();
            assert_eq!(opened.cardinality(), built.cardinality());
            assert_eq!(opened.dimensionality(), built.dimensionality());
            assert_eq!(opened.backend_kind(), kind);
            for dim in 0..2 {
                assert_eq!(
                    opened.list_directory(DimId(dim)),
                    built.list_directory(DimId(dim))
                );
            }
            // Counters start clean, exactly like a fresh build.
            assert_eq!(opened.io_snapshot(), IoStatsSnapshot::default());
            for (id, tuple) in dataset.iter() {
                assert_eq!(&opened.fetch_tuple(id).unwrap(), tuple);
            }
            let info = opened.cold_start_info();
            assert_eq!(info.source, ColdStartSource::Snapshot);
            assert!(info.pages > 0);
            // The open decodes only superheader + directory records.
            assert_eq!(info.bytes, 64 + 12 * (2 + dataset.cardinality() as u64));
            assert!(
                info.bytes < built.cold_start_info().bytes,
                "snapshot open must parse fewer bytes than the build"
            );
            // The file open reads only the trailer and serves data pages in
            // place; the mem open copies every frame in, so it is exempt.
            if kind == BackendKind::File {
                assert_eq!(info.pages, u64::from(summary.trailer_pages));
                assert!(
                    info.pages < built.cold_start_info().pages,
                    "snapshot open must touch fewer pages than the build"
                );
            }
        }
    }
}
