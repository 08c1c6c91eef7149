//! The external tuple file: random access to full tuple vectors.
//!
//! TA's *random access* fetches the complete vector of a tuple first seen in
//! one inverted list, in order to compute its full score. The paper stores
//! the vectors in "an external file that contains the entire `d_α` tuple";
//! this module serialises each sparse tuple into a byte-addressed region of
//! pages and reads it back through the buffer pool.
//!
//! There is one record decoder, and it works in place: it walks the
//! record's 12-byte coordinates directly in the pooled page(s), requesting
//! each page the record touches once, in order, and staging only a
//! coordinate split across a page boundary in a 12-byte stack buffer. The
//! stored bytes are untrusted, so every coordinate is checked as
//! [`SparseVector::from_pairs`] checks user input (finite, inside `[0, 1]`,
//! zeros skipped, no dimension twice), and the record must be strictly
//! dimension-ascending, as `encode_record` writes it. A record that fails a
//! check is [`IrError::Corruption`] naming the page that holds the offending
//! coordinate; a directory entry that points past the region is
//! `Corruption` naming no page. `read_tuple_coords`
//! ([`crate::TopKIndex::fetch_coords_counted`]: TA and the candidate
//! evaluator) merges the decoded coordinates against a query's ascending
//! dimensions and allocates nothing; `read_tuple`
//! ([`crate::TopKIndex::fetch_tuple_counted`]: `fetch_tuple`, maintenance)
//! collects them into a [`SparseVector`].

use crate::buffer::BufferPool;
use crate::page::{codec, zeroed_page, PageId, PAGE_SIZE};
use crate::stats::IoStatsSnapshot;
use ir_types::{Dataset, DimId, IrError, IrResult, SparseVector, TupleId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// Fetches the full sparse vector of one tuple out of `region` — the
/// `fetch_tuple` and maintenance reader: queries call it under the index's
/// directory read lock, maintenance under the write lock. The page reads are
/// counted in `tally`.
pub(crate) fn read_tuple(
    pool: &BufferPool,
    region: &TupleRegion,
    id: TupleId,
    tally: &mut IoStatsSnapshot,
) -> IrResult<SparseVector> {
    let extent = record_extent(region, id)?;
    let mut entries = Vec::with_capacity(extent.len() / COORD_BYTES);
    decode_record(pool, region, extent, tally, |dim, value| {
        entries.push((dim, value));
    })?;
    // The decoder checked the entries ascending, so this is one pass, no sort.
    SparseVector::from_entries(entries)
}

/// Decodes tuple `id`'s coordinates in `dims` into `out` (zero where the
/// tuple stores none) — TA's and the candidate evaluator's random access.
/// `dims` must be strictly ascending with one `out` slot each. Reads the
/// same pages as [`read_tuple`] and checks every stored coordinate, not only
/// the requested ones, but allocates nothing. The page reads are counted in
/// `tally`.
pub(crate) fn read_tuple_coords(
    pool: &BufferPool,
    region: &TupleRegion,
    id: TupleId,
    dims: &[DimId],
    out: &mut [f64],
    tally: &mut IoStatsSnapshot,
) -> IrResult<()> {
    if out.len() != dims.len() || dims.windows(2).any(|w| w[0] >= w[1]) {
        return Err(IrError::InvalidConfig(format!(
            "a coordinate fetch needs strictly ascending dimensions and one slot \
             per dimension ({} dimensions, {} slots)",
            dims.len(),
            out.len()
        )));
    }
    out.fill(0.0);
    let extent = record_extent(region, id)?;
    let mut next = 0;
    decode_record(pool, region, extent, tally, |dim, value| {
        while dims.get(next).is_some_and(|&d| d < dim) {
            next += 1;
        }
        if dims.get(next) == Some(&dim) {
            out[next] = value;
        }
    })
}

/// The region-relative byte range of tuple `id`'s record. A range past the
/// region's pages is corruption of the directory, which names no page.
fn record_extent(region: &TupleRegion, id: TupleId) -> IrResult<Range<usize>> {
    let entry = region
        .directory
        .get(id.index())
        .ok_or(IrError::UnknownTuple { tuple: id.0 })?;
    let region_bytes = region.num_pages as usize * PAGE_SIZE;
    let start = usize::try_from(entry.offset).ok();
    match start.and_then(|s| Some(s..s.checked_add(entry.byte_len())?)) {
        Some(extent) if extent.end <= region_bytes => Ok(extent),
        _ => Err(IrError::Corruption {
            page: None,
            detail: format!(
                "tuple {id} record ({} coordinates at byte {}) extends past the \
                 {region_bytes}-byte tuple region",
                entry.nnz, entry.offset
            ),
        }),
    }
}

/// The record decoder: walks the coordinates in `extent` in place in the
/// pooled pages, checks each one, and hands every non-zero `(dim, value)`
/// to `visit` in stored order.
fn decode_record(
    pool: &BufferPool,
    region: &TupleRegion,
    extent: Range<usize>,
    tally: &mut IoStatsSnapshot,
    mut visit: impl FnMut(DimId, f64),
) -> IrResult<()> {
    // The smallest dimension the next coordinate may carry.
    let mut next_dim = 0u64;
    // A coordinate split across a page boundary: its bytes so far, and the
    // page it starts on.
    let mut split = [0u8; COORD_BYTES];
    let mut split_len = 0;
    let mut split_page = region.first_page;
    let mut pos = extent.start;
    while pos < extent.end {
        let page_id = PageId(region.first_page.0 + (pos / PAGE_SIZE) as u32);
        let page = pool.read_counted(page_id, tally)?;
        let in_page = pos % PAGE_SIZE;
        let take = (PAGE_SIZE - in_page).min(extent.end - pos);
        let mut bytes = &page[in_page..in_page + take];
        if split_len > 0 {
            // Records are whole coordinates, so the rest of the split one
            // starts this page.
            let (head, rest) = bytes.split_at(COORD_BYTES - split_len);
            split[split_len..].copy_from_slice(head);
            let (dim, value) = checked_coord(&split, &mut next_dim)
                .ok_or_else(|| coord_corruption(&split, split_page, next_dim))?;
            if value != 0.0 {
                visit(DimId(dim), value);
            }
            bytes = rest;
        }
        let mut coords = bytes.chunks_exact(COORD_BYTES);
        for coord in &mut coords {
            let (dim, value) = checked_coord(coord, &mut next_dim)
                .ok_or_else(|| coord_corruption(coord, page_id, next_dim))?;
            if value != 0.0 {
                visit(DimId(dim), value);
            }
        }
        let tail = coords.remainder();
        split[..tail.len()].copy_from_slice(tail);
        split_len = tail.len();
        split_page = page_id;
        pos += take;
    }
    Ok(())
}

/// One stored coordinate, if it passes its checks: a value inside `[0, 1]`
/// (so finite) and a dimension of at least `next_dim`, which it then
/// advances.
#[inline(always)]
fn checked_coord(coord: &[u8], next_dim: &mut u64) -> Option<(u32, f64)> {
    let dim = codec::get_u32(coord, 0);
    let value = codec::get_f64(coord, 4);
    if u64::from(dim) < *next_dim || !(0.0..=1.0).contains(&value) {
        return None;
    }
    *next_dim = u64::from(dim) + 1;
    Some((dim, value))
}

/// The corruption a coordinate that failed [`checked_coord`] reports.
#[cold]
fn coord_corruption(coord: &[u8], page: PageId, next_dim: u64) -> IrError {
    let dim = codec::get_u32(coord, 0);
    let value = codec::get_f64(coord, 4);
    let detail = if u64::from(dim) + 1 == next_dim {
        format!("tuple record stores dimension {dim} twice")
    } else if u64::from(dim) < next_dim {
        format!("tuple record stores dimension {dim} after {}", next_dim - 1)
    } else {
        format!("tuple record stores {value} in dimension {dim}, outside [0, 1]")
    };
    IrError::Corruption {
        page: Some(page.0),
        detail,
    }
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
    use proptest::prelude::*;
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
        // The coordinate path wants strictly ascending dims, one slot each.
        for (dims, slots) in [(vec![DimId(1), DimId(0)], 2), (vec![DimId(0)], 2)] {
            let err = read_tuple_coords(
                &pool,
                &region,
                TupleId(0),
                &dims,
                &mut vec![0.0; slots],
                &mut tally,
            )
            .unwrap_err();
            assert!(matches!(err, IrError::InvalidConfig(_)), "{err}");
        }
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
        // Coordinate 341 of tuple 0 starts at byte 4092 and straddles the
        // first page boundary.
        let dims: Vec<DimId> = [0, 340, 341, 342, 599, 600, 2047].map(DimId).to_vec();
        for (id, tuple) in dataset.iter() {
            assert_eq!(
                &read_tuple(&pool, &region, id, &mut IoStatsSnapshot::default()).unwrap(),
                tuple
            );
            let mut coords = vec![f64::NAN; dims.len()];
            let mut tally = IoStatsSnapshot::default();
            read_tuple_coords(&pool, &region, id, &dims, &mut coords, &mut tally).unwrap();
            let expected: Vec<f64> = dims.iter().map(|&d| tuple.get(d)).collect();
            assert_eq!(coords, expected);
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

    /// Two 400-coordinate tuples over the even dimensions: tuple 0 covers
    /// bytes [0, 4800), so its coordinate 341 straddles the first page
    /// boundary; tuple 1 covers [4800, 9600), so its coordinate 282
    /// straddles the second.
    fn two_page_spanning_tuples() -> (Arc<BufferPool>, TupleRegion) {
        let mut builder = DatasetBuilder::new(800);
        for t in 0..2u32 {
            builder
                .push_pairs((0..400u32).map(|i| (2 * i, ((t + i) % 97 + 1) as f64 / 100.0)))
                .unwrap();
        }
        let pool = make_pool();
        let region = write_tuples(&pool, &builder.build()).unwrap();
        (pool, region)
    }

    /// Rewrites tuple `id`'s `index`-th coordinate through the pool, so the
    /// frame seal stays valid and the checksum cannot catch the change.
    /// Returns the page the coordinate starts on.
    fn overwrite_coord(
        pool: &BufferPool,
        region: &TupleRegion,
        id: usize,
        index: usize,
        dim: u32,
        value: f64,
    ) -> u32 {
        let offset = region.directory[id].offset + (index * COORD_BYTES) as u64;
        let mut coord = [0u8; COORD_BYTES];
        codec::put_u32(&mut coord, 0, dim);
        codec::put_f64(&mut coord, 4, value);
        write_region_bytes(
            pool,
            region,
            offset,
            &coord,
            &mut IoStatsSnapshot::default(),
        )
        .unwrap();
        region.first_page.0 + (offset as usize / PAGE_SIZE) as u32
    }

    #[test]
    fn sealed_but_wrong_records_are_corruption_on_both_paths() {
        // (what, tuple, coordinate, stored dim, stored value). Coordinate
        // 341 of tuple 0 and 282 of tuple 1 straddle a page boundary.
        let cases = [
            ("value above 1", 0, 10, 20, 1.5),
            ("NaN across a page boundary", 0, 341, 682, f64::NAN),
            ("dimension twice across a page boundary", 1, 282, 562, 0.5),
            ("descending dimensions", 1, 100, 196, 0.5),
        ];
        for (what, id, index, dim, value) in cases {
            let (pool, region) = two_page_spanning_tuples();
            let page = overwrite_coord(&pool, &region, id, index, dim, value);
            let mut tally = IoStatsSnapshot::default();
            let full = read_tuple(&pool, &region, TupleId(id as u32), &mut tally);
            let mut coord = [0.0];
            let one = read_tuple_coords(
                &pool,
                &region,
                TupleId(id as u32),
                &[DimId(0)],
                &mut coord,
                &mut tally,
            );
            for err in [full.unwrap_err(), one.unwrap_err()] {
                assert!(
                    matches!(&err, IrError::Corruption { page: Some(p), .. } if *p == page),
                    "{what}: expected corruption on page {page}, got {err}"
                );
            }
            // The other tuple's record is intact.
            let other = TupleId(1 - id as u32);
            assert_eq!(
                read_tuple(&pool, &region, other, &mut tally).unwrap().nnz(),
                400
            );
        }
    }

    #[test]
    fn a_directory_entry_past_the_region_is_corruption_without_a_page() {
        let (pool, mut region) = two_page_spanning_tuples();
        let region_bytes = (region.num_pages as usize * PAGE_SIZE) as u64;
        for offset in [region_bytes - 12, u64::MAX - 12] {
            region.directory[1].offset = offset;
            let mut tally = IoStatsSnapshot::default();
            let full = read_tuple(&pool, &region, TupleId(1), &mut tally);
            let mut coord = [0.0];
            let one = read_tuple_coords(
                &pool,
                &region,
                TupleId(1),
                &[DimId(0)],
                &mut coord,
                &mut tally,
            );
            for err in [full.unwrap_err(), one.unwrap_err()] {
                assert!(
                    matches!(err, IrError::Corruption { page: None, .. }),
                    "offset {offset}: {err}"
                );
            }
            assert_eq!(tally, IoStatsSnapshot::default(), "no page was read");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The coordinate decoder agrees with the full fetch on every
        /// requested dimension — absent ones and ones past the tuple's
        /// largest included — and reads exactly the same pages. Records
        /// run past 341 coordinates, so they span pages and split
        /// coordinates across page boundaries.
        #[test]
        fn coordinate_decode_equals_the_full_fetch(
            tuples in proptest::collection::vec(
                proptest::collection::btree_map(0u32..1024, 0.0001f64..=1.0, 0..700),
                1..5,
            ),
            dims in proptest::collection::btree_map(0u32..1100, Just(()), 0..12),
        ) {
            let mut builder = DatasetBuilder::new(1024);
            for tuple in &tuples {
                builder.push_pairs(tuple.iter().map(|(&d, &v)| (d, v))).unwrap();
            }
            let dataset = builder.build();
            let pool = make_pool();
            let region = write_tuples(&pool, &dataset).unwrap();
            let dims: Vec<DimId> = dims.keys().map(|&d| DimId(d)).collect();
            for (id, tuple) in dataset.iter() {
                pool.clear_cache();
                let mut full_tally = IoStatsSnapshot::default();
                let full = read_tuple(&pool, &region, id, &mut full_tally).unwrap();
                prop_assert_eq!(&full, tuple);
                pool.clear_cache();
                let mut coords_tally = IoStatsSnapshot::default();
                let mut coords = vec![f64::NAN; dims.len()];
                read_tuple_coords(&pool, &region, id, &dims, &mut coords, &mut coords_tally)
                    .unwrap();
                for (&d, c) in dims.iter().zip(&coords) {
                    prop_assert_eq!(c.to_bits(), full.get(d).to_bits(), "dim {}", d.0);
                }
                prop_assert_eq!(coords_tally, full_tally);
            }
        }
    }
}
