//! Inverted lists: the per-dimension sorted lists `L_j`.
//!
//! `L_j` contains one `(tuple id, coordinate)` entry for every tuple with a
//! non-zero coordinate in dimension `j`, sorted by decreasing coordinate
//! (ties broken by increasing tuple id so the order is total and identical
//! across runs). Entries are packed into pages; a sequential
//! [`InvertedListCursor`] provides TA's *sorted access*, fetching pages
//! through the buffer pool so every access is accounted for.

use crate::buffer::BufferPool;
use crate::page::{codec, zeroed_page, PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStatsSnapshot;
use ir_types::{DimId, IrError, IrResult, TupleId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Size in bytes of one serialized list entry (`u32` tuple id + `f64` value).
pub const ENTRY_BYTES: usize = 12;

/// Number of entries that fit in one page.
pub const ENTRIES_PER_PAGE: usize = PAGE_SIZE / ENTRY_BYTES;

/// Directory record describing where a dimension's inverted list lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListDirectoryEntry {
    /// The dimension this list indexes.
    pub dim: DimId,
    /// First page of the list (lists are page-aligned).
    pub first_page: PageId,
    /// Number of entries in the list.
    pub num_entries: u32,
}

impl ListDirectoryEntry {
    /// Number of pages the list occupies.
    pub fn num_pages(&self) -> u32 {
        (self.num_entries as usize).div_ceil(ENTRIES_PER_PAGE) as u32
    }
}

/// Writes an inverted list (already sorted by decreasing value) into freshly
/// allocated pages of the pool. Returns its directory entry.
pub fn write_list(
    pool: &BufferPool,
    dim: DimId,
    entries: &[(TupleId, f64)],
) -> IrResult<ListDirectoryEntry> {
    let num_pages = entries.len().div_ceil(ENTRIES_PER_PAGE).max(1) as u32;
    let first_page = pool.allocate(num_pages)?;
    write_list_at(
        pool,
        dim,
        entries,
        first_page,
        &mut IoStatsSnapshot::default(),
    )
}

/// Writes an inverted list (already sorted by decreasing value) into an
/// existing page run starting at `first_page` — the in-place maintenance
/// twin of [`write_list`], used when a list is rewritten into its own (or a
/// recycled) run instead of freshly allocated pages. The caller guarantees
/// the run is long enough ([`ListDirectoryEntry::num_pages`] of the result).
/// The writes are counted in `tally`.
pub fn write_list_at(
    pool: &BufferPool,
    dim: DimId,
    entries: &[(TupleId, f64)],
    first_page: PageId,
    tally: &mut IoStatsSnapshot,
) -> IrResult<ListDirectoryEntry> {
    debug_assert!(
        entries
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)),
        "inverted list entries must be sorted by decreasing value"
    );
    for (page_idx, chunk) in entries.chunks(ENTRIES_PER_PAGE).enumerate() {
        let mut page = zeroed_page();
        for (slot, (tuple, value)) in chunk.iter().enumerate() {
            let off = slot * ENTRY_BYTES;
            codec::put_u32(&mut page, off, tuple.0);
            codec::put_f64(&mut page, off + 4, *value);
        }
        pool.write_counted(PageId(first_page.0 + page_idx as u32), &page, tally)?;
    }
    Ok(ListDirectoryEntry {
        dim,
        first_page,
        num_entries: entries.len() as u32,
    })
}

/// Reads a whole inverted list back into memory, in stored order — the
/// read-modify step of a maintenance rewrite. Touches each list page once
/// through the pool, counted in `tally`.
pub fn read_list(
    pool: &BufferPool,
    directory: &ListDirectoryEntry,
    tally: &mut IoStatsSnapshot,
) -> IrResult<Vec<(TupleId, f64)>> {
    let mut entries = Vec::with_capacity(directory.num_entries as usize);
    for page_idx in 0..directory.num_pages() {
        let page = pool.read_counted(PageId(directory.first_page.0 + page_idx), tally)?;
        let start = page_idx as usize * ENTRIES_PER_PAGE;
        let in_page = (directory.num_entries as usize - start).min(ENTRIES_PER_PAGE);
        for slot in 0..in_page {
            let off = slot * ENTRY_BYTES;
            entries.push((
                TupleId(codec::get_u32(&page, off)),
                codec::get_f64(&page, off + 4),
            ));
        }
    }
    Ok(entries)
}

/// A resumable sequential cursor over one inverted list.
///
/// The cursor is the physical realisation of TA's sorted access: `peek`
/// exposes the sorting key `t_j` of the next entry (used in the threshold)
/// and `next` consumes it. The cursor keeps the page it is on and makes one
/// pool request per page: reading an entry on the held page asks the pool
/// nothing, yet still counts one logical read
/// ([`BufferPool::count_held_read`]), so the cursor's tally
/// ([`InvertedListCursor::io`]) and the pool's totals count one logical read
/// per entry read and one physical read per page miss.
///
/// The held page is a page-granular snapshot: a page rewritten in place
/// after the cursor reached it reads as it was until the cursor moves to
/// the next page, and pages it has not reached yet read as they are when
/// it gets there.
///
/// The cursor keeps its position, so the TA run Phase 3 resumes continues
/// exactly where the top-k computation stopped.
pub struct InvertedListCursor {
    pool: Arc<BufferPool>,
    directory: ListDirectoryEntry,
    position: u32,
    /// The page the cursor is on: its index within the list, and its bytes.
    page: Option<(u32, Arc<PageBuf>)>,
    io: IoStatsSnapshot,
}

impl InvertedListCursor {
    /// Creates a cursor at the head of the list.
    pub fn new(pool: Arc<BufferPool>, directory: ListDirectoryEntry) -> Self {
        InvertedListCursor {
            pool,
            directory,
            position: 0,
            page: None,
            io: IoStatsSnapshot::default(),
        }
    }

    /// The dimension this cursor iterates.
    pub fn dim(&self) -> DimId {
        self.directory.dim
    }

    /// Total number of entries in the list.
    pub fn len(&self) -> usize {
        self.directory.num_entries as usize
    }

    /// True if the list has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.directory.num_entries == 0
    }

    /// Number of entries still to be consumed.
    pub fn remaining(&self) -> u32 {
        self.directory.num_entries - self.position
    }

    /// True when every entry has been consumed.
    pub fn exhausted(&self) -> bool {
        self.position >= self.directory.num_entries
    }

    /// The page accesses this cursor made.
    pub fn io(&self) -> IoStatsSnapshot {
        self.io
    }

    fn read_at(&mut self, index: u32) -> IrResult<(TupleId, f64)> {
        if index >= self.directory.num_entries {
            return Err(IrError::Storage(format!(
                "inverted list read past the end: {} >= {}",
                index, self.directory.num_entries
            )));
        }
        let page_idx = (index as usize / ENTRIES_PER_PAGE) as u32;
        let page = match &self.page {
            Some((held, page)) if *held == page_idx => {
                self.pool.count_held_read(&mut self.io);
                page
            }
            _ => {
                let page = self
                    .pool
                    .read_counted(PageId(self.directory.first_page.0 + page_idx), &mut self.io)?;
                &self.page.insert((page_idx, page)).1
            }
        };
        let off = index as usize % ENTRIES_PER_PAGE * ENTRY_BYTES;
        Ok((
            TupleId(codec::get_u32(page, off)),
            codec::get_f64(page, off + 4),
        ))
    }

    /// Returns the next entry without consuming it.
    pub fn peek(&mut self) -> IrResult<Option<(TupleId, f64)>> {
        if self.exhausted() {
            return Ok(None);
        }
        self.read_at(self.position).map(Some)
    }

    /// The sorting key `t_j` of the next entry; zero once the list is
    /// exhausted (all coordinates are non-negative, so zero is the correct
    /// lower bound for unseen values).
    pub fn threshold_value(&mut self) -> IrResult<f64> {
        Ok(self.peek()?.map_or(0.0, |(_, v)| v))
    }

    /// Consumes and returns the next entry.
    pub fn next_entry(&mut self) -> IrResult<Option<(TupleId, f64)>> {
        if self.exhausted() {
            return Ok(None);
        }
        let entry = self.read_at(self.position)?;
        self.position += 1;
        Ok(Some(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::MemPageStore;

    fn make_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemPageStore::new())))
    }

    fn descending_entries(n: usize) -> Vec<(TupleId, f64)> {
        (0..n)
            .map(|i| (TupleId(i as u32), 1.0 - i as f64 / (n as f64 + 1.0)))
            .collect()
    }

    #[test]
    fn write_then_scan_roundtrips_small_list() {
        let pool = make_pool();
        let entries = vec![
            (TupleId(0), 0.8),
            (TupleId(1), 0.7),
            (TupleId(2), 0.1),
            (TupleId(3), 0.1),
        ];
        let dir = write_list(&pool, DimId(0), &entries).unwrap();
        assert_eq!(dir.num_entries, 4);
        assert_eq!(dir.num_pages(), 1);

        let mut cursor = InvertedListCursor::new(Arc::clone(&pool), dir);
        assert_eq!(cursor.len(), 4);
        let mut seen = Vec::new();
        while let Some(entry) = cursor.next_entry().unwrap() {
            seen.push(entry);
        }
        assert_eq!(seen, entries);
        assert!(cursor.exhausted());
        assert_eq!(cursor.threshold_value().unwrap(), 0.0);
    }

    #[test]
    fn multi_page_list_spans_pages_correctly() {
        let pool = make_pool();
        let entries = descending_entries(ENTRIES_PER_PAGE * 2 + 5);
        let dir = write_list(&pool, DimId(3), &entries).unwrap();
        assert_eq!(dir.num_pages(), 3);
        let mut cursor = InvertedListCursor::new(Arc::clone(&pool), dir);
        let mut count = 0usize;
        let mut last = f64::INFINITY;
        while let Some((_, v)) = cursor.next_entry().unwrap() {
            assert!(v <= last);
            last = v;
            count += 1;
        }
        assert_eq!(count, entries.len());
    }

    #[test]
    fn peek_does_not_consume_and_reports_threshold() {
        let pool = make_pool();
        let entries = vec![(TupleId(5), 0.9), (TupleId(7), 0.4)];
        let dir = write_list(&pool, DimId(1), &entries).unwrap();
        let mut cursor = InvertedListCursor::new(pool, dir);
        assert_eq!(cursor.peek().unwrap(), Some((TupleId(5), 0.9)));
        assert_eq!(cursor.threshold_value().unwrap(), 0.9);
        assert_eq!(cursor.remaining(), 2);
        cursor.next_entry().unwrap();
        assert_eq!(cursor.threshold_value().unwrap(), 0.4);
        assert_eq!(cursor.remaining(), 1);
    }

    #[test]
    fn empty_list_is_allowed() {
        let pool = make_pool();
        let dir = write_list(&pool, DimId(9), &[]).unwrap();
        assert_eq!(dir.num_entries, 0);
        let mut cursor = InvertedListCursor::new(pool, dir);
        assert!(cursor.is_empty());
        assert_eq!(cursor.next_entry().unwrap(), None);
        assert_eq!(cursor.threshold_value().unwrap(), 0.0);
    }

    #[test]
    fn sequential_scan_costs_one_physical_read_per_page() {
        let pool = make_pool();
        let entries = descending_entries(ENTRIES_PER_PAGE * 3);
        let dir = write_list(&pool, DimId(0), &entries).unwrap();
        pool.clear_cache();
        pool.reset_io_stats();
        let mut cursor = InvertedListCursor::new(Arc::clone(&pool), dir);
        while cursor.next_entry().unwrap().is_some() {}
        let snap = pool.io_snapshot();
        assert_eq!(snap.physical_reads, 3);
        assert_eq!(snap.logical_reads, entries.len() as u64);
        assert_eq!(cursor.io(), snap, "the cursor tallied every access");
    }

    /// TA's access pattern (consume an entry, then peek at the next) with a
    /// foreign page read between every two cursor reads, through a
    /// one-page pool: every foreign read evicts the list page, yet the
    /// cursor misses once per list page (not once per entry read), because
    /// it reads from the page it holds. It still counts one logical read
    /// per entry read, and the pool's delta is the sum of the tallies.
    #[test]
    fn a_held_page_costs_one_miss_per_page() {
        let pool = Arc::new(BufferPool::with_capacity(Arc::new(MemPageStore::new()), 1));
        let entries = descending_entries(ENTRIES_PER_PAGE * 3 + 7);
        let dir = write_list(&pool, DimId(0), &entries).unwrap();
        let foreign = pool.allocate(1).unwrap();
        pool.clear_cache();
        let before = pool.io_snapshot();
        let mut cursor = InvertedListCursor::new(Arc::clone(&pool), dir);
        let mut foreign_io = IoStatsSnapshot::default();
        let mut entry_reads = 0u64;
        let mut scanned = Vec::new();
        while let Some(entry) = cursor.next_entry().unwrap() {
            entry_reads += 1;
            scanned.push(entry);
            pool.read_counted(foreign, &mut foreign_io).unwrap();
            if cursor.peek().unwrap().is_some() {
                entry_reads += 1;
            }
            pool.read_counted(foreign, &mut foreign_io).unwrap();
        }
        assert_eq!(scanned, entries);
        assert_eq!(cursor.io().physical_reads, u64::from(dir.num_pages()));
        assert_eq!(cursor.io().logical_reads, entry_reads);
        assert_eq!(
            foreign_io.physical_reads,
            u64::from(dir.num_pages()),
            "only the cursor's move to a new page evicts the foreign page"
        );
        assert_eq!(
            pool.io_snapshot().since(&before),
            cursor.io().plus(&foreign_io)
        );
    }
}
