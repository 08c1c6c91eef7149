//! The external tuple file: random access to full tuple vectors.
//!
//! TA's *random access* fetches the complete vector of a tuple first seen in
//! one inverted list, in order to compute its full score. The paper stores
//! the vectors in "an external file that contains the entire `d_α` tuple";
//! this module serialises each sparse tuple into a byte-addressed region of
//! pages and reads it back through the buffer pool.

use crate::buffer::BufferPool;
use crate::page::{codec, zeroed_page, PageId, PAGE_SIZE};
use crate::stats::IoStatsSnapshot;
use ir_types::{Dataset, IrError, IrResult, SparseVector, TupleId};
use serde::{Deserialize, Serialize};

/// Bytes used per non-zero coordinate (`u32` dim + `f64` value).
pub const COORD_BYTES: usize = 12;

/// Directory record locating one tuple inside the tuple region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleDirectoryEntry {
    /// Byte offset of the record from the start of the tuple region.
    pub offset: u64,
    /// Number of non-zero coordinates in the record.
    pub nnz: u32,
}

impl TupleDirectoryEntry {
    /// Length of the serialized record in bytes.
    pub fn byte_len(&self) -> usize {
        self.nnz as usize * COORD_BYTES
    }
}

/// The serialized tuple region: contiguous pages plus an in-memory directory.
///
/// Deliberately not `Clone`: the directory holds one entry per tuple, so a
/// copy is O(cardinality), and the read path
/// ([`crate::TopKIndex::fetch_tuple`]) borrows the live region under the
/// index's directory lock instead.
///
/// ```compile_fail
/// fn assert_clone<T: Clone>() {}
/// assert_clone::<ir_storage::tuplestore::TupleRegion>();
/// ```
#[derive(Debug)]
pub struct TupleRegion {
    /// First page of the region.
    pub first_page: PageId,
    /// Number of pages in the region.
    pub num_pages: u32,
    /// Per-tuple directory, indexed by tuple id.
    pub directory: Vec<TupleDirectoryEntry>,
}

/// Serialises every tuple of the dataset into freshly allocated pages.
pub fn write_tuples(pool: &BufferPool, dataset: &Dataset) -> IrResult<TupleRegion> {
    let mut directory = Vec::with_capacity(dataset.cardinality());
    let mut offset = 0u64;
    for (_, tuple) in dataset.iter() {
        directory.push(TupleDirectoryEntry {
            offset,
            nnz: tuple.nnz() as u32,
        });
        offset += (tuple.nnz() * COORD_BYTES) as u64;
    }
    let total_bytes = offset as usize;
    let num_pages = total_bytes.div_ceil(PAGE_SIZE).max(1) as u32;
    let first_page = pool.allocate(num_pages)?;

    // Serialise every record into one contiguous byte stream, then cut the
    // stream into pages. Records may therefore span page boundaries, exactly
    // like a heap file would lay them out.
    let mut bytes = Vec::with_capacity(total_bytes);
    for (_, tuple) in dataset.iter() {
        encode_record(tuple, &mut bytes);
    }
    debug_assert_eq!(bytes.len(), total_bytes);

    for page_idx in 0..num_pages {
        let start = page_idx as usize * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(bytes.len());
        let mut page = zeroed_page();
        if start < bytes.len() {
            page[..end - start].copy_from_slice(&bytes[start..end]);
        }
        pool.write(PageId(first_page.0 + page_idx), &page)?;
    }

    Ok(TupleRegion {
        first_page,
        num_pages,
        directory,
    })
}

/// Appends one tuple's on-disk record to `out`: `u32` dim + `f64` value per
/// non-zero coordinate, dimension-ascending. The only producer of the record
/// layout — [`write_tuples`] and the maintenance append/overwrite path both
/// call it.
pub(crate) fn encode_record(tuple: &SparseVector, out: &mut Vec<u8>) {
    out.reserve(tuple.nnz() * COORD_BYTES);
    let mut coord_buf = [0u8; COORD_BYTES];
    for (dim, value) in tuple.iter() {
        codec::put_u32(&mut coord_buf, 0, dim.0);
        codec::put_f64(&mut coord_buf, 4, value);
        out.extend_from_slice(&coord_buf);
    }
}

/// Fetches the full sparse vector of one tuple out of `region` (TA's random
/// access) — the only tuple reader: queries call it under the index's
/// directory read lock, maintenance under the write lock. The stored
/// coordinates are untrusted bytes, so they go through every range and
/// duplicate check of [`SparseVector::from_pairs`]. The page reads are
/// counted in `tally`.
pub(crate) fn read_tuple(
    pool: &BufferPool,
    region: &TupleRegion,
    id: TupleId,
    tally: &mut IoStatsSnapshot,
) -> IrResult<SparseVector> {
    let entry = region
        .directory
        .get(id.index())
        .ok_or(IrError::UnknownTuple { tuple: id.0 })?;
    let bytes = read_region_bytes(pool, region, entry.offset, entry.byte_len(), tally)?;
    SparseVector::from_pairs(
        bytes
            .chunks_exact(COORD_BYTES)
            .map(|coord| (codec::get_u32(coord, 0), codec::get_f64(coord, 4))),
    )
}

/// Reads `len` bytes starting at region-relative byte `offset`, possibly
/// spanning multiple pages.
fn read_region_bytes(
    pool: &BufferPool,
    region: &TupleRegion,
    offset: u64,
    len: usize,
    tally: &mut IoStatsSnapshot,
) -> IrResult<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    let mut remaining = len;
    let mut pos = offset as usize;
    while remaining > 0 {
        let page_idx = pos / PAGE_SIZE;
        let in_page = pos % PAGE_SIZE;
        if page_idx as u32 >= region.num_pages {
            return Err(IrError::Storage(
                "tuple record extends past the tuple region".to_string(),
            ));
        }
        let page = pool.read_counted(PageId(region.first_page.0 + page_idx as u32), tally)?;
        let take = (PAGE_SIZE - in_page).min(remaining);
        out.extend_from_slice(&page[in_page..in_page + take]);
        pos += take;
        remaining -= take;
    }
    Ok(out)
}

/// Writes `bytes` at region-relative byte `offset` with read-modify-write
/// at page granularity — the maintenance path's in-place overwrite and
/// append primitive. The caller guarantees the touched pages are already
/// allocated (the region's capacity run covers them); `region.num_pages`
/// is *not* consulted, because an append legitimately writes past the
/// current end of the region into its capacity slack. The page reads and
/// writes are counted in `tally`.
pub(crate) fn write_region_bytes(
    pool: &BufferPool,
    region: &TupleRegion,
    offset: u64,
    bytes: &[u8],
    tally: &mut IoStatsSnapshot,
) -> IrResult<()> {
    let mut written = 0usize;
    let mut pos = offset as usize;
    while written < bytes.len() {
        let page_idx = pos / PAGE_SIZE;
        let in_page = pos % PAGE_SIZE;
        let take = (PAGE_SIZE - in_page).min(bytes.len() - written);
        let page_id = PageId(region.first_page.0 + page_idx as u32);
        let mut page = pool.read_counted(page_id, tally)?.as_ref().clone();
        page[in_page..in_page + take].copy_from_slice(&bytes[written..written + take]);
        pool.write_counted(page_id, &page, tally)?;
        pos += take;
        written += take;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::MemPageStore;
    use ir_types::DatasetBuilder;
    use std::sync::Arc;

    fn make_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemPageStore::new())))
    }

    #[test]
    fn roundtrip_running_example() {
        let pool = make_pool();
        let dataset = Dataset::running_example();
        let region = write_tuples(&pool, &dataset).unwrap();
        assert_eq!(region.directory.len(), 4);
        for (id, tuple) in dataset.iter() {
            assert_eq!(
                &read_tuple(&pool, &region, id, &mut IoStatsSnapshot::default()).unwrap(),
                tuple
            );
        }
        let mut tally = IoStatsSnapshot::default();
        assert!(read_tuple(&pool, &region, TupleId(10), &mut tally).is_err());
    }

    #[test]
    fn records_spanning_pages_are_reassembled() {
        // Build tuples whose records are larger than a page (nnz > 341).
        let dims = 2048u32;
        let mut builder = DatasetBuilder::new(dims);
        for t in 0..3u32 {
            let pairs: Vec<(u32, f64)> = (0..600)
                .map(|d| (d, ((t + d) % 97 + 1) as f64 / 100.0))
                .collect();
            builder.push_pairs(pairs).unwrap();
        }
        let dataset = builder.build();
        let pool = make_pool();
        let region = write_tuples(&pool, &dataset).unwrap();
        assert!(region.num_pages >= 2);
        for (id, tuple) in dataset.iter() {
            assert_eq!(
                &read_tuple(&pool, &region, id, &mut IoStatsSnapshot::default()).unwrap(),
                tuple
            );
        }
    }

    #[test]
    fn empty_tuples_are_supported() {
        let mut builder = DatasetBuilder::new(4);
        builder.push_pairs([] as [(u32, f64); 0]).unwrap();
        builder.push_pairs([(1, 0.5)]).unwrap();
        let dataset = builder.build();
        let pool = make_pool();
        let region = write_tuples(&pool, &dataset).unwrap();
        let mut tally = IoStatsSnapshot::default();
        let mut read = |id| read_tuple(&pool, &region, TupleId(id), &mut tally).unwrap();
        assert_eq!(read(0).nnz(), 0);
        assert_eq!(read(1).nnz(), 1);
    }

    #[test]
    fn random_access_is_counted_as_io() {
        let pool = make_pool();
        let dataset = Dataset::running_example();
        let region = write_tuples(&pool, &dataset).unwrap();
        pool.clear_cache();
        pool.reset_io_stats();
        let mut tally = IoStatsSnapshot::default();
        read_tuple(&pool, &region, TupleId(2), &mut tally).unwrap();
        let snap = pool.io_snapshot();
        assert!(snap.logical_reads >= 1);
        assert!(snap.physical_reads >= 1);
        assert_eq!(tally, snap, "the caller's tally saw every access");
    }
}
