//! Inverted lists: the per-dimension sorted lists `L_j`.
//!
//! `L_j` contains one `(tuple id, coordinate)` entry for every tuple with a
//! non-zero coordinate in dimension `j`, sorted by decreasing coordinate
//! (ties broken by increasing tuple id so the order is total and identical
//! across runs). Entries are packed into pages; a sequential
//! [`InvertedListCursor`] provides TA's *sorted access*, fetching pages
//! through the buffer pool so every access is accounted for.

use crate::buffer::BufferPool;
use crate::page::{codec, zeroed_page, PageId, PAGE_SIZE};
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
/// and `next` consumes it. Reading an entry touches exactly one page via the
/// buffer pool, counted in the cursor's own tally ([`InvertedListCursor::io`]).
/// The cursor keeps its position, so the TA run Phase 3 resumes continues
/// exactly where the top-k computation stopped.
pub struct InvertedListCursor {
    pool: Arc<BufferPool>,
    directory: ListDirectoryEntry,
    position: u32,
    io: IoStatsSnapshot,
}

impl InvertedListCursor {
    /// Creates a cursor at the head of the list.
    pub fn new(pool: Arc<BufferPool>, directory: ListDirectoryEntry) -> Self {
        InvertedListCursor {
            pool,
            directory,
            position: 0,
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
        let page_idx = index as usize / ENTRIES_PER_PAGE;
        let slot = index as usize % ENTRIES_PER_PAGE;
        let page = self.pool.read_counted(
            PageId(self.directory.first_page.0 + page_idx as u32),
            &mut self.io,
        )?;
        let off = slot * ENTRY_BYTES;
        Ok((
            TupleId(codec::get_u32(&page, off)),
            codec::get_f64(&page, off + 4),
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
}
