//! Versioned, fixed-layout on-disk index snapshots: cold start without a
//! deserialize pass.
//!
//! [`crate::index::IndexBuilder::build`] is an O(dataset) parse-sort-write
//! pass. A snapshot persists the *physical* result of that pass so a later
//! process opens the index by validating a 64-byte superheader and serving
//! pages straight through the existing [`crate::pagestore::PageStore`] /
//! [`crate::buffer::BufferPool`] path — no posting or tuple is decoded
//! before the first query touches it.
//!
//! # File layout
//!
//! A snapshot is a single `index.pages` file in the ordinary page-frame
//! format of [`crate::page::frame`] (64-byte file header, then one
//! checksummed 4104-byte frame per page), which is exactly why every
//! backend can serve it unmodified: `FilePageStore::open` serves it in
//! place and [`crate::pagestore::MemPageStore::from_page_file`] loads the
//! frames verbatim. Inside that page space:
//!
//! ```text
//! page 0 .. data_pages        the index pages, bit-for-bit as built:
//!                             inverted-list pages and tuple-store pages at
//!                             their original page ids (page-aligned, so no
//!                             pointer in the directories needs rewriting)
//! list-directory section      one 12-byte record per inverted list
//!                             (dim u32 | first_page u32 | num_entries u32),
//!                             dims ascending, 341 records per page
//! tuple-directory section     one 12-byte record per tuple
//!                             (offset u64 | nnz u32), tuple-id order,
//!                             341 records per page
//! last page                   the 64-byte superheader (rest zero)
//! ```
//!
//! The superheader is the *root* of the snapshot:
//!
//! ```text
//! [ 0.. 8)  magic  "IRSNAP\0\0"
//! [ 8..12)  snapshot format version (LE, bumped on any layout change)
//! [12..16)  page size (LE)
//! [16..20)  data_pages
//! [20..24)  list_count          (number of inverted lists)
//! [24..28)  dimensionality
//! [28..36)  tuple_count (u64)
//! [36..40)  list_dir_first      (first page of the list-directory section)
//! [40..44)  tuple_dir_first     (first page of the tuple-directory section)
//! [44..48)  tuple_region_first  (first page of the tuple store)
//! [48..52)  tuple_region_pages
//! [52..56)  reserved, zero
//! [56..64)  FNV-1a-64 of bytes [0..56) (LE), [`crate::checksum::fnv1a64`];
//!           the frame around it carries its own lane checksum
//! ```
//!
//! Every multi-byte field is explicitly little-endian; the format is
//! independent of host endianness. Any mismatch — foreign magic, bumped
//! version, wrong page size, checksum damage, or a section layout that does
//! not tile the file exactly — is rejected as a typed
//! [`IrError::Corruption`] before a single list or tuple record is decoded.
//!
//! # Versioning policy
//!
//! [`SNAPSHOT_VERSION`] names the trailer layout and the data-page formats
//! it points into. Readers accept exactly their own version: snapshots are
//! cheap to regenerate from the dataset, so there is no cross-version
//! migration path — a version bump is a clean "rebuild and re-save" signal,
//! never a silent reinterpretation of bytes. The frames underneath are
//! versioned separately by [`crate::page::frame::FORMAT_VERSION`], which
//! both stores check when they open the file, before the superheader is
//! read: a snapshot saved under another frame format (such as version 1,
//! sealed with FNV-1a-64) is rejected the same way.

use crate::buffer::BufferPool;
use crate::checksum::fnv1a64;
use crate::inverted::ListDirectoryEntry;
use crate::page::{codec, zeroed_page, PageId, PAGE_SIZE};
use crate::pagestore::{FilePageStore, PageStore};
use crate::tuplestore::{TupleDirectoryEntry, TupleRegion};
use ir_types::{DimId, IrError, IrResult};
use std::collections::HashMap;
use std::path::Path;

/// File name of the snapshot inside its directory. Deliberately the same
/// name the disk backend uses for a live store, because a snapshot *is* a
/// valid page file that backend opens in place.
pub const SNAPSHOT_FILE: &str = "index.pages";

/// The sibling a save writes into before renaming it over [`SNAPSHOT_FILE`].
const SNAPSHOT_TMP_FILE: &str = "index.pages.tmp";

/// Magic bytes opening the snapshot superheader.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"IRSNAP\0\0";

/// Version of the snapshot layout (bumped on any change; readers accept
/// exactly their own version — see the module docs for the policy).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Length in bytes of the encoded superheader at the start of the last page.
pub const SUPERHEADER_LEN: usize = 64;

/// Size in bytes of one directory record in either section (list records:
/// `dim u32 | first_page u32 | num_entries u32`; tuple records:
/// `offset u64 | nnz u32`).
pub const RECORD_BYTES: usize = 12;

/// Number of directory records per section page.
pub const RECORDS_PER_PAGE: usize = PAGE_SIZE / RECORD_BYTES;

/// What [`crate::index::TopKIndex::save_snapshot`] reports about the file
/// it wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Index pages copied verbatim (inverted lists + tuple store).
    pub data_pages: u32,
    /// Trailer pages appended (directory sections + superheader page).
    pub trailer_pages: u32,
    /// Total pages in the snapshot file.
    pub total_pages: u32,
    /// Size of the snapshot file in bytes (header + framed pages).
    pub file_bytes: u64,
}

/// The decoded superheader fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SuperHeader {
    data_pages: u32,
    list_count: u32,
    dimensionality: u32,
    tuple_count: u64,
    list_dir_first: u32,
    tuple_dir_first: u32,
    tuple_region_first: u32,
    tuple_region_pages: u32,
}

impl SuperHeader {
    fn encode(&self) -> [u8; SUPERHEADER_LEN] {
        let mut bytes = [0u8; SUPERHEADER_LEN];
        bytes[..8].copy_from_slice(&SNAPSHOT_MAGIC);
        codec::put_u32(&mut bytes, 8, SNAPSHOT_VERSION);
        codec::put_u32(&mut bytes, 12, PAGE_SIZE as u32);
        codec::put_u32(&mut bytes, 16, self.data_pages);
        codec::put_u32(&mut bytes, 20, self.list_count);
        codec::put_u32(&mut bytes, 24, self.dimensionality);
        codec::put_u64(&mut bytes, 28, self.tuple_count);
        codec::put_u32(&mut bytes, 36, self.list_dir_first);
        codec::put_u32(&mut bytes, 40, self.tuple_dir_first);
        codec::put_u32(&mut bytes, 44, self.tuple_region_first);
        codec::put_u32(&mut bytes, 48, self.tuple_region_pages);
        let checksum = fnv1a64(&bytes[..56]);
        bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Decodes and validates the superheader from the last page's payload:
    /// magic, version, page size and the sealed checksum. Layout
    /// consistency against the actual file size is a separate step
    /// ([`SuperHeader::validate_layout`]).
    fn decode(payload: &[u8]) -> IrResult<Self> {
        let corrupt = |detail: String| IrError::Corruption { page: None, detail };
        if payload[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt(format!(
                "bad snapshot magic {:02x?} (expected {:02x?}); not an index snapshot",
                &payload[..8],
                SNAPSHOT_MAGIC
            )));
        }
        let version = codec::get_u32(payload, 8);
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!(
                "unsupported snapshot version {version} (this build reads \
                 {SNAPSHOT_VERSION}); rebuild the index and save a fresh snapshot"
            )));
        }
        let page_size = codec::get_u32(payload, 12);
        if page_size as usize != PAGE_SIZE {
            return Err(corrupt(format!(
                "snapshot page size {page_size} does not match the compiled {PAGE_SIZE}"
            )));
        }
        let stored = codec::get_u64(payload, 56);
        let computed = fnv1a64(&payload[..56]);
        if stored != computed {
            return Err(corrupt(format!(
                "snapshot superheader checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x}"
            )));
        }
        Ok(SuperHeader {
            data_pages: codec::get_u32(payload, 16),
            list_count: codec::get_u32(payload, 20),
            dimensionality: codec::get_u32(payload, 24),
            tuple_count: codec::get_u64(payload, 28),
            list_dir_first: codec::get_u32(payload, 36),
            tuple_dir_first: codec::get_u32(payload, 40),
            tuple_region_first: codec::get_u32(payload, 44),
            tuple_region_pages: codec::get_u32(payload, 48),
        })
    }

    fn list_dir_pages(&self) -> u64 {
        (self.list_count as u64).div_ceil(RECORDS_PER_PAGE as u64)
    }

    fn tuple_dir_pages(&self) -> u64 {
        self.tuple_count.div_ceil(RECORDS_PER_PAGE as u64)
    }

    /// Checks that the sections tile the `num_pages`-page file exactly:
    /// data pages, then the two directory sections, then the one
    /// superheader page, with nothing missing and nothing left over.
    fn validate_layout(&self, num_pages: u32) -> IrResult<()> {
        let corrupt = |detail: String| IrError::Corruption { page: None, detail };
        let expected = self.data_pages as u64 + self.list_dir_pages() + self.tuple_dir_pages() + 1;
        if expected != num_pages as u64 {
            return Err(corrupt(format!(
                "snapshot sections describe {expected} pages but the file holds {num_pages} \
                 (truncated or foreign trailer?)"
            )));
        }
        if self.list_dir_first as u64 != self.data_pages as u64 {
            return Err(corrupt(format!(
                "list directory starts at page {} but the data section ends at {}",
                self.list_dir_first, self.data_pages
            )));
        }
        if self.tuple_dir_first as u64 != self.list_dir_first as u64 + self.list_dir_pages() {
            return Err(corrupt(format!(
                "tuple directory starts at page {} but the list directory ends at {}",
                self.tuple_dir_first,
                self.list_dir_first as u64 + self.list_dir_pages()
            )));
        }
        if self.tuple_region_pages == 0
            || self.tuple_region_first as u64 + self.tuple_region_pages as u64
                > self.data_pages as u64
        {
            return Err(corrupt(format!(
                "tuple region (pages {}..{}) does not fit in the {}-page data section",
                self.tuple_region_first,
                self.tuple_region_first as u64 + self.tuple_region_pages as u64,
                self.data_pages
            )));
        }
        Ok(())
    }
}

/// Everything [`crate::index::IndexBuilder::open_snapshot`] reconstructs by
/// reading only the trailer: the in-memory directories plus the data-page
/// extent. No posting or tuple bytes are touched.
pub(crate) struct SnapshotContents {
    pub(crate) lists: HashMap<DimId, ListDirectoryEntry>,
    pub(crate) tuple_region: TupleRegion,
    pub(crate) dimensionality: u32,
}

/// Number of data pages a built index occupies: one past the last page any
/// directory references. An index opened *from* a snapshot re-saves
/// correctly because the old trailer pages sit past every reference.
pub(crate) fn data_page_extent(
    lists: &HashMap<DimId, ListDirectoryEntry>,
    tuple_region: &TupleRegion,
) -> u32 {
    let mut extent = tuple_region.first_page.0 + tuple_region.num_pages;
    for entry in lists.values() {
        extent = extent.max(entry.first_page.0 + entry.num_pages());
    }
    extent
}

/// Writes a snapshot of the index as `dir/index.pages`, reading every data
/// page through the live `pool` — so the copy is checksum-verified, counted,
/// retried and fault-visible like any other access.
///
/// The bytes go into a sibling temp file that is renamed over
/// `index.pages` only once the superheader page is written, so a save that
/// fails half-way leaves a previous snapshot in `dir` (or the live page file
/// of an index serving from `dir`) untouched; the temp file is removed on
/// error.
pub(crate) fn write_snapshot(
    pool: &BufferPool,
    lists: &HashMap<DimId, ListDirectoryEntry>,
    tuple_region: &TupleRegion,
    dimensionality: u32,
    dir: &Path,
) -> IrResult<SnapshotSummary> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(SNAPSHOT_TMP_FILE);
    let saved =
        write_snapshot_file(pool, lists, tuple_region, dimensionality, &tmp).and_then(|summary| {
            std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
            Ok(summary)
        });
    if saved.is_err() {
        // Best effort: the save's own error is the one worth reporting.
        let _ = std::fs::remove_file(&tmp);
    }
    saved
}

/// Writes the complete snapshot (data pages, directory sections, then the
/// superheader) into a fresh page file at `path`.
fn write_snapshot_file(
    pool: &BufferPool,
    lists: &HashMap<DimId, ListDirectoryEntry>,
    tuple_region: &TupleRegion,
    dimensionality: u32,
    path: &Path,
) -> IrResult<SnapshotSummary> {
    let dest = FilePageStore::create(path)?;

    let data_pages = data_page_extent(lists, tuple_region);
    let header = SuperHeader {
        data_pages,
        list_count: lists.len() as u32,
        dimensionality,
        tuple_count: tuple_region.directory.len() as u64,
        list_dir_first: data_pages,
        tuple_dir_first: (data_pages as u64
            + (lists.len() as u64).div_ceil(RECORDS_PER_PAGE as u64))
            as u32,
        tuple_region_first: tuple_region.first_page.0,
        tuple_region_pages: tuple_region.num_pages,
    };
    let total_pages =
        (header.data_pages as u64 + header.list_dir_pages() + header.tuple_dir_pages() + 1) as u32;
    dest.allocate(total_pages)?;

    // Data pages, bit for bit. Reading through the pool keeps the copy on
    // the accounted (and fault-injectable) path.
    for page in 0..data_pages {
        let buf = pool.read(PageId(page))?;
        dest.write_page(PageId(page), &buf)?;
    }

    // List-directory section, dims ascending so the layout is deterministic.
    let mut dims: Vec<DimId> = lists.keys().copied().collect();
    dims.sort_unstable();
    write_section(&dest, header.list_dir_first, &dims, |bytes, off, dim| {
        let entry = &lists[dim];
        codec::put_u32(bytes, off, entry.dim.0);
        codec::put_u32(bytes, off + 4, entry.first_page.0);
        codec::put_u32(bytes, off + 8, entry.num_entries);
    })?;

    // Tuple-directory section, tuple-id order.
    write_section(
        &dest,
        header.tuple_dir_first,
        &tuple_region.directory,
        |bytes, off, entry| {
            codec::put_u64(bytes, off, entry.offset);
            codec::put_u32(bytes, off + 8, entry.nnz);
        },
    )?;

    // The superheader page goes last: a torn write anywhere above leaves a
    // file whose trailer fails validation instead of a plausible snapshot.
    let mut last = zeroed_page();
    last[..SUPERHEADER_LEN].copy_from_slice(&header.encode());
    dest.write_page(PageId(total_pages - 1), &last)?;
    dest.sync()?;

    let trailer_pages = total_pages - data_pages;
    Ok(SnapshotSummary {
        data_pages,
        trailer_pages,
        total_pages,
        file_bytes: crate::page::frame::offset(PageId(total_pages)),
    })
}

/// Packs `items` into 12-byte records, [`RECORDS_PER_PAGE`] per page,
/// starting at `first_page` of `dest`.
fn write_section<T>(
    dest: &FilePageStore,
    first_page: u32,
    items: &[T],
    put: impl Fn(&mut [u8], usize, &T),
) -> IrResult<()> {
    for (page_idx, chunk) in items.chunks(RECORDS_PER_PAGE).enumerate() {
        let mut bytes = zeroed_page();
        for (slot, item) in chunk.iter().enumerate() {
            put(&mut bytes, slot * RECORD_BYTES, item);
        }
        dest.write_page(PageId(first_page + page_idx as u32), &bytes)?;
    }
    Ok(())
}

/// Reads the snapshot trailer through `pool` (whose store must already be
/// open on the snapshot file) and reconstructs the index directories.
///
/// This is the *entire* cold-start read path: the superheader page, the
/// directory-section pages, and nothing else — data pages stay untouched
/// until the first query asks for them. Every validation failure is a
/// typed [`IrError::Corruption`].
pub(crate) fn read_contents(pool: &BufferPool) -> IrResult<SnapshotContents> {
    let corrupt = |detail: String| IrError::Corruption { page: None, detail };
    let num_pages = pool.store().num_pages();
    if num_pages == 0 {
        return Err(corrupt(
            "snapshot file holds no pages at all (no superheader to read)".to_string(),
        ));
    }
    let last = pool.read(PageId(num_pages - 1))?;
    let header = SuperHeader::decode(&last)?;
    header.validate_layout(num_pages)?;

    // List-directory section → the per-dimension map. Dims must ascend
    // strictly: that both guarantees uniqueness and pins the layout the
    // writer produces.
    let mut lists: HashMap<DimId, ListDirectoryEntry> =
        HashMap::with_capacity(header.list_count as usize);
    let mut previous_dim: Option<u32> = None;
    read_section(
        pool,
        header.list_dir_first,
        header.list_count as u64,
        |bytes, off, idx| {
            let dim = codec::get_u32(bytes, off);
            let first_page = codec::get_u32(bytes, off + 4);
            let num_entries = codec::get_u32(bytes, off + 8);
            if dim >= header.dimensionality {
                return Err(corrupt(format!(
                    "list record {idx} indexes dimension {dim}, past the dimensionality {}",
                    header.dimensionality
                )));
            }
            if previous_dim.is_some_and(|prev| dim <= prev) {
                return Err(corrupt(format!(
                    "list record {idx} (dimension {dim}) is out of order — dims must ascend"
                )));
            }
            previous_dim = Some(dim);
            let entry = ListDirectoryEntry {
                dim: DimId(dim),
                first_page: PageId(first_page),
                num_entries,
            };
            if first_page as u64 + entry.num_pages() as u64 > header.data_pages as u64 {
                return Err(corrupt(format!(
                    "list for dimension {dim} (pages {first_page}..+{}) extends past the \
                     {}-page data section",
                    entry.num_pages(),
                    header.data_pages
                )));
            }
            lists.insert(DimId(dim), entry);
            Ok(())
        },
    )?;

    // Tuple-directory section → the per-tuple directory.
    let region_bytes = header.tuple_region_pages as u64 * PAGE_SIZE as u64;
    let mut directory: Vec<TupleDirectoryEntry> = Vec::with_capacity(header.tuple_count as usize);
    read_section(
        pool,
        header.tuple_dir_first,
        header.tuple_count,
        |bytes, off, idx| {
            let entry = TupleDirectoryEntry {
                offset: codec::get_u64(bytes, off),
                nnz: codec::get_u32(bytes, off + 8),
            };
            if entry.offset + entry.byte_len() as u64 > region_bytes {
                return Err(corrupt(format!(
                    "tuple record {idx} (offset {}, {} bytes) extends past the {}-byte \
                     tuple region",
                    entry.offset,
                    entry.byte_len(),
                    region_bytes
                )));
            }
            directory.push(entry);
            Ok(())
        },
    )?;

    Ok(SnapshotContents {
        lists,
        tuple_region: TupleRegion {
            first_page: PageId(header.tuple_region_first),
            num_pages: header.tuple_region_pages,
            directory,
        },
        dimensionality: header.dimensionality,
    })
}

/// Walks `count` 12-byte records packed from `first_page`, handing each to
/// `visit` with its byte offset and record index.
fn read_section(
    pool: &BufferPool,
    first_page: u32,
    count: u64,
    mut visit: impl FnMut(&[u8], usize, u64) -> IrResult<()>,
) -> IrResult<()> {
    let mut page_buf = None;
    for idx in 0..count {
        let page_idx = (idx / RECORDS_PER_PAGE as u64) as u32;
        let slot = (idx % RECORDS_PER_PAGE as u64) as usize;
        if slot == 0 {
            page_buf = Some(pool.read(PageId(first_page + page_idx))?);
        }
        let Some(bytes) = page_buf.as_deref() else {
            // Unreachable: slot 0 always (re)fills the buffer first.
            return Err(IrError::Storage(
                "section reader lost its page buffer".to_string(),
            ));
        };
        visit(bytes, slot * RECORD_BYTES, idx)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> SuperHeader {
        SuperHeader {
            data_pages: 7,
            list_count: 3,
            dimensionality: 5,
            tuple_count: 11,
            list_dir_first: 7,
            tuple_dir_first: 8,
            tuple_region_first: 4,
            tuple_region_pages: 3,
        }
    }

    #[test]
    fn superheader_roundtrips() {
        let header = sample_header();
        let mut payload = zeroed_page();
        payload[..SUPERHEADER_LEN].copy_from_slice(&header.encode());
        assert_eq!(SuperHeader::decode(&payload).unwrap(), header);
    }

    #[test]
    fn superheader_rejects_damage() {
        let encoded = sample_header().encode();
        let mut payload = zeroed_page();
        payload[..SUPERHEADER_LEN].copy_from_slice(&encoded);

        let mut foreign = payload.clone();
        foreign[0] = b'X';
        let err = SuperHeader::decode(&foreign).unwrap_err();
        assert!(err.to_string().contains("bad snapshot magic"), "{err}");

        // A version bump must be named *as* a version problem, so the
        // checksum is recomputed to keep the seal valid.
        let mut bumped = payload.clone();
        codec::put_u32(&mut bumped, 8, SNAPSHOT_VERSION + 1);
        let reseal = fnv1a64(&bumped[..56]);
        bumped[56..64].copy_from_slice(&reseal.to_le_bytes());
        let err = SuperHeader::decode(&bumped).unwrap_err();
        assert!(err.to_string().contains("snapshot version"), "{err}");

        let mut flipped = payload.clone();
        flipped[20] ^= 0x01; // list_count field: breaks the seal
        let err = SuperHeader::decode(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn layout_validation_requires_exact_tiling() {
        let header = sample_header();
        // 7 data + 1 list-dir + 1 tuple-dir + 1 superheader = 10 pages.
        header.validate_layout(10).unwrap();
        assert!(header.validate_layout(9).is_err());
        assert!(header.validate_layout(11).is_err());

        let mut shifted = header;
        shifted.list_dir_first = 6;
        assert!(shifted.validate_layout(10).is_err());

        let mut overhang = header;
        overhang.tuple_region_pages = 99;
        assert!(overhang.validate_layout(10).is_err());
    }
}
