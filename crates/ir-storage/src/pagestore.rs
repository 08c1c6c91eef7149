//! Page stores: the "disk" abstraction underneath the buffer pool.
//!
//! Two implementations are provided, matching the two settings of the
//! paper:
//!
//! * [`MemPageStore`] — pages live in memory. This is the default backend for
//!   experiments; physical reads are still counted by the buffer pool, so the
//!   simulated I/O cost model of Section 7 applies unchanged, while the
//!   actual runtime reflects the *"alternative setting where the dataset and
//!   inverted lists are cached in main memory"* that the paper mentions in
//!   its CPU discussion.
//! * [`FilePageStore`] — pages live in a real file accessed with positioned
//!   reads (`pread`-style, one syscall per page); used by the disk-resident
//!   configuration, by snapshots served in place and by the storage
//!   round-trip tests.
//!
//! Both stores are *self-validating*: each stored page carries the lane
//! checksum of [`crate::checksum::frame_checksum`] (see
//! [`crate::page::frame`]), and every read verifies the whole frame before
//! returning it. A read returns the page as a shared `Arc<PageBuf>`: the
//! mem store hands out the frame it stores (copy-on-write, verified outside
//! its lock), the file store wraps the buffer it read into. Both ways of
//! opening a page file check its versioned header first, so a file of
//! another frame format version never serves a page. Damage surfaces as a
//! typed [`IrError::Corruption`] naming the page, never as silently wrong
//! bytes. Out-of-range accesses likewise return the same typed
//! [`IrError::PageOutOfBounds`] from every backend.
//!
//! Stores keep no counters of their own. Every store read is a buffer-pool
//! miss, so the pool's `physical_reads` (see [`crate::buffer::BufferPool`])
//! is the one count of device reads, and it is the same on every backend.

use crate::page::{frame, zeroed_page, PageBuf, PageId, PAGE_SIZE};
use ir_types::{IrError, IrResult};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;

/// Abstraction over a flat, page-addressed storage device.
///
/// Concurrency contract: concurrent `read_page` calls are always safe and
/// return consistent pages. A `write_page` racing a `read_page` of the
/// *same page* is not serialized by the file store (its read path is a
/// deliberately lock-free positioned read), so the reader may observe a
/// torn page; the workspace only writes pages during single-threaded index
/// construction, and the shared conformance suite pins the read-only
/// concurrent behaviour every backend must honour.
pub trait PageStore: Send + Sync {
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;

    /// Allocates `count` fresh zeroed pages and returns the id of the first.
    fn allocate(&self, count: u32) -> IrResult<PageId>;

    /// Reads a full page, verifying its checksum on every call. The buffer
    /// is shared and immutable: a later write or injected corruption of the
    /// page never changes the bytes a caller already holds.
    fn read_page(&self, page: PageId) -> IrResult<Arc<PageBuf>>;

    /// Overwrites a full page (and reseals its checksum).
    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()>;

    /// XORs `mask` into the *stored* byte at `offset` inside `page` without
    /// resealing the checksum — simulating bit rot underneath the store.
    ///
    /// The next `read_page` of that page fails with
    /// [`IrError::Corruption`]; applying the same mask again restores the
    /// original byte. This is a fault-injection hook for the chaos suite,
    /// not part of normal operation, so the default implementation refuses.
    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        let _ = (page, offset, mask);
        Err(IrError::Storage(
            "corruption injection is not supported by this page store".to_string(),
        ))
    }
}

/// The typed error every backend returns for an out-of-range page access.
pub(crate) fn out_of_bounds(page: PageId, num_pages: u32) -> IrError {
    IrError::PageOutOfBounds {
        page: page.0,
        num_pages,
    }
}

/// The typed error every backend returns for a wrong-sized `write_page`.
pub(crate) fn check_write_len(data: &[u8]) -> IrResult<()> {
    if data.len() != PAGE_SIZE {
        return Err(IrError::Storage(format!(
            "write_page expects {PAGE_SIZE} bytes, got {}",
            data.len()
        )));
    }
    Ok(())
}

/// Bounds-check for the corruption-injection hook: the offset must land in
/// the page payload.
pub(crate) fn check_corrupt_offset(offset: usize) -> IrResult<()> {
    if offset >= PAGE_SIZE {
        return Err(IrError::Storage(format!(
            "corrupt_stored_byte offset {offset} is past the {PAGE_SIZE}-byte payload"
        )));
    }
    Ok(())
}

/// Reads `buf.len()` bytes at `offset` without moving any file cursor (one
/// positioned-read syscall; the file store's whole read path).
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(windows)]
    {
        let mut done = 0usize;
        while done < buf.len() {
            let n = std::os::windows::fs::FileExt::seek_read(
                file,
                &mut buf[done..],
                offset + done as u64,
            )?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ));
            }
            done += n;
        }
        Ok(())
    }
}

/// Writes all of `data` at `offset` without moving any file cursor.
pub(crate) fn write_all_at(file: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, data, offset)
    }
    #[cfg(windows)]
    {
        let mut done = 0usize;
        while done < data.len() {
            let n = std::os::windows::fs::FileExt::seek_write(
                file,
                &data[done..],
                offset + done as u64,
            )?;
            done += n;
        }
        Ok(())
    }
}

/// One in-memory frame: payload plus the checksum trailer it was sealed
/// with. The trailer is stored (not recomputed on read) so injected
/// corruption is detectable exactly as it would be on disk.
///
/// The payload is shared with every reader (and the buffer pool) that holds
/// it. A write copies into the payload only while no one else holds it and
/// installs a fresh `Arc` otherwise, and corruption injection goes through
/// [`Arc::make_mut`], so bytes already handed out never change.
#[derive(Clone)]
struct MemFrame {
    payload: Arc<PageBuf>,
    seal: [u8; frame::CHECKSUM_LEN],
}

impl MemFrame {
    fn zeroed() -> Self {
        MemFrame {
            payload: Arc::new(zeroed_page()),
            seal: frame::zero_page_seal(),
        }
    }
}

/// In-memory page store.
///
/// A read clones the stored frame's `Arc` and seal under the store lock and
/// verifies the checksum after releasing it, so concurrent misses share one
/// copy of each page and serialize only on a pointer clone.
#[derive(Default)]
pub struct MemPageStore {
    pages: Mutex<Vec<MemFrame>>,
}

impl MemPageStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads an existing page file (the [`crate::page::frame`] format the
    /// file store writes) into memory, preserving every frame's stored seal
    /// verbatim.
    ///
    /// Only the file header and overall frame shape are validated up front —
    /// exactly what [`FilePageStore::open`] checks. Per-page checksums are
    /// *not* recomputed here: a damaged frame is carried into memory as-is
    /// and surfaces as a typed [`IrError::Corruption`] on its first read,
    /// the same lazy semantics the file store has. This is how the mem
    /// backend serves a saved index snapshot.
    pub fn from_page_file<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let bytes = std::fs::read(path)?;
        let num_pages = frame::page_count(bytes.len() as u64)?;
        let mut header = [0u8; frame::HEADER_LEN];
        header.copy_from_slice(&bytes[..frame::HEADER_LEN]);
        frame::validate_header(&header)?;
        let mut pages = Vec::with_capacity(num_pages as usize);
        for i in 0..num_pages as usize {
            let start = frame::HEADER_LEN + i * frame::FRAME_LEN;
            let payload = Arc::new(PageBuf::from(&bytes[start..start + PAGE_SIZE]));
            let mut seal = [0u8; frame::CHECKSUM_LEN];
            seal.copy_from_slice(&bytes[start + PAGE_SIZE..start + frame::FRAME_LEN]);
            pages.push(MemFrame { payload, seal });
        }
        Ok(MemPageStore {
            pages: Mutex::new(pages),
        })
    }
}

impl PageStore for MemPageStore {
    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn allocate(&self, count: u32) -> IrResult<PageId> {
        let mut pages = self.pages.lock();
        let first = pages.len() as u32;
        for _ in 0..count {
            pages.push(MemFrame::zeroed());
        }
        Ok(PageId(first))
    }

    fn read_page(&self, page: PageId) -> IrResult<Arc<PageBuf>> {
        let stored = {
            let pages = self.pages.lock();
            pages
                .get(page.index())
                .ok_or_else(|| out_of_bounds(page, pages.len() as u32))?
                .clone()
        };
        frame::verify(page, &stored.payload, &stored.seal)?;
        Ok(stored.payload)
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        check_write_len(data)?;
        let mut pages = self.pages.lock();
        let num_pages = pages.len() as u32;
        let slot = pages
            .get_mut(page.index())
            .ok_or_else(|| out_of_bounds(page, num_pages))?;
        match Arc::get_mut(&mut slot.payload) {
            Some(payload) => payload.copy_from_slice(data),
            None => slot.payload = Arc::new(data.into()),
        }
        slot.seal = frame::seal(data);
        Ok(())
    }

    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        check_corrupt_offset(offset)?;
        let mut pages = self.pages.lock();
        let num_pages = pages.len() as u32;
        let slot = pages
            .get_mut(page.index())
            .ok_or_else(|| out_of_bounds(page, num_pages))?;
        Arc::make_mut(&mut slot.payload)[offset] ^= mask;
        Ok(())
    }
}

/// File-backed page store over the [`crate::page::frame`] format: a 64-byte
/// versioned header, then page `i`'s frame (payload + checksum trailer) at
/// `frame::offset(i)`.
///
/// Reads and writes are *positioned* (`read_at`/`write_at`): no shared file
/// cursor exists, so concurrent readers never serialize on a lock and every
/// page miss costs exactly one read syscall — frames are contiguous, so the
/// payload and its trailer arrive in a single `pread`.
pub struct FilePageStore {
    file: File,
    num_pages: Mutex<u32>,
}

impl FilePageStore {
    /// Creates (or truncates) a page file at `path`, writing the versioned
    /// header.
    pub fn create<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_all_at(&file, &frame::encode_header(), 0)?;
        Ok(FilePageStore {
            file,
            num_pages: Mutex::new(0),
        })
    }

    /// Opens an existing page file, validating its header and overall shape
    /// before serving a single page. A file that is not a page file (or was
    /// torn mid-write) is reported as a typed [`IrError::Corruption`], not
    /// a bare `UnexpectedEof` on some later read.
    pub fn open<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let num_pages = frame::page_count(len)?;
        let mut header = [0u8; frame::HEADER_LEN];
        read_exact_at(&file, &mut header, 0)?;
        frame::validate_header(&header)?;
        Ok(FilePageStore {
            file,
            num_pages: Mutex::new(num_pages),
        })
    }

    /// Flushes every page written so far to the device (`fsync`), so that
    /// renaming the file afterwards publishes complete contents.
    pub(crate) fn sync(&self) -> IrResult<()> {
        Ok(self.file.sync_all()?)
    }
}

impl PageStore for FilePageStore {
    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn allocate(&self, count: u32) -> IrResult<PageId> {
        let mut num = self.num_pages.lock();
        let first = *num;
        let mut zero_frame = vec![0u8; frame::FRAME_LEN];
        zero_frame[PAGE_SIZE..].copy_from_slice(&frame::zero_page_seal());
        for i in 0..count {
            write_all_at(&self.file, &zero_frame, frame::offset(PageId(first + i)))?;
        }
        *num += count;
        Ok(PageId(first))
    }

    fn read_page(&self, page: PageId) -> IrResult<Arc<PageBuf>> {
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let mut buf = vec![0u8; frame::FRAME_LEN];
        read_exact_at(&self.file, &mut buf, frame::offset(page))?;
        frame::verify(page, &buf[..PAGE_SIZE], &buf[PAGE_SIZE..])?;
        buf.truncate(PAGE_SIZE);
        Ok(Arc::new(buf.into_boxed_slice()))
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        check_write_len(data)?;
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let mut framed = vec![0u8; frame::FRAME_LEN];
        framed[..PAGE_SIZE].copy_from_slice(data);
        framed[PAGE_SIZE..].copy_from_slice(&frame::seal(data));
        write_all_at(&self.file, &framed, frame::offset(page))?;
        Ok(())
    }

    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        check_corrupt_offset(offset)?;
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let pos = frame::offset(page) + offset as u64;
        let mut byte = [0u8; 1];
        read_exact_at(&self.file, &mut byte, pos)?;
        byte[0] ^= mask;
        write_all_at(&self.file, &byte, pos)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_store(store: &dyn PageStore) {
        assert_eq!(store.num_pages(), 0);
        let first = store.allocate(3).unwrap();
        assert_eq!(first, PageId(0));
        assert_eq!(store.num_pages(), 3);

        let mut page = zeroed_page();
        page[0] = 42;
        page[PAGE_SIZE - 1] = 7;
        store.write_page(PageId(1), &page).unwrap();

        let read = store.read_page(PageId(1)).unwrap();
        assert_eq!(read[0], 42);
        assert_eq!(read[PAGE_SIZE - 1], 7);

        let untouched = store.read_page(PageId(2)).unwrap();
        assert!(untouched.iter().all(|&b| b == 0));

        assert!(matches!(
            store.read_page(PageId(9)),
            Err(IrError::PageOutOfBounds {
                page: 9,
                num_pages: 3
            })
        ));
        assert!(matches!(
            store.write_page(PageId(9), &page),
            Err(IrError::PageOutOfBounds {
                page: 9,
                num_pages: 3
            })
        ));
        assert!(store.write_page(PageId(0), &[1, 2, 3]).is_err());

        let next = store.allocate(1).unwrap();
        assert_eq!(next, PageId(3));
    }

    fn exercise_corruption(store: &dyn PageStore) {
        store.allocate(2).unwrap();
        let mut page = zeroed_page();
        page[17] = 0xAB;
        store.write_page(PageId(1), &page).unwrap();

        store.corrupt_stored_byte(PageId(1), 17, 0xFF).unwrap();
        let err = store.read_page(PageId(1)).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: Some(1), .. }),
            "expected a corruption error naming page 1, got: {err}"
        );
        // The untouched page is unaffected.
        store.read_page(PageId(0)).unwrap();
        // XOR is self-inverse: re-applying the mask restores the page.
        store.corrupt_stored_byte(PageId(1), 17, 0xFF).unwrap();
        assert_eq!(store.read_page(PageId(1)).unwrap()[17], 0xAB);
        // Out-of-range injection targets are rejected, not silently applied.
        assert!(store.corrupt_stored_byte(PageId(9), 0, 0xFF).is_err());
        assert!(store
            .corrupt_stored_byte(PageId(0), PAGE_SIZE, 0xFF)
            .is_err());
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise_store(&MemPageStore::new());
    }

    /// A frame a reader holds is its own: neither a later write nor injected
    /// corruption of the stored page reaches it, and the store still
    /// verifies the damaged page on the next read.
    #[test]
    fn mem_frames_are_copy_on_write() {
        let store = MemPageStore::new();
        store.allocate(1).unwrap();
        store.write_page(PageId(0), &[5u8; PAGE_SIZE]).unwrap();
        let held = store.read_page(PageId(0)).unwrap();
        store.write_page(PageId(0), &[6u8; PAGE_SIZE]).unwrap();
        assert!(held.iter().all(|&b| b == 5), "a write reached a held frame");
        let rewritten = store.read_page(PageId(0)).unwrap();
        store.corrupt_stored_byte(PageId(0), 9, 0xFF).unwrap();
        assert!(
            rewritten.iter().all(|&b| b == 6),
            "corruption reached a held frame"
        );
        assert!(held.iter().all(|&b| b == 5));
        let err = store.read_page(PageId(0)).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: Some(0), .. }),
            "{err}"
        );
    }

    /// Two threads reading one page at once get the same verified bytes,
    /// and share the one stored frame rather than a copy each.
    #[test]
    fn concurrent_mem_reads_share_the_stored_frame() {
        let store = MemPageStore::new();
        store.allocate(1).unwrap();
        let page: PageBuf = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        store.write_page(PageId(0), &page).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let reads: Vec<Arc<PageBuf>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.read_page(PageId(0)).unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for read in &reads {
            assert_eq!(**read, page);
        }
        assert!(Arc::ptr_eq(&reads[0], &reads[1]));
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        exercise_store(&FilePageStore::create(&path).unwrap());
    }

    #[test]
    fn mem_store_detects_injected_corruption() {
        exercise_corruption(&MemPageStore::new());
    }

    #[test]
    fn file_store_detects_injected_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        exercise_corruption(&FilePageStore::create(&path).unwrap());
    }

    #[test]
    fn file_store_reopen_preserves_pages() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            store.allocate(2).unwrap();
            let mut page = zeroed_page();
            page[10] = 99;
            store.write_page(PageId(1), &page).unwrap();
        }
        let reopened = FilePageStore::open(&path).unwrap();
        assert_eq!(reopened.num_pages(), 2);
        assert_eq!(reopened.read_page(PageId(1)).unwrap()[10], 99);
    }

    #[test]
    fn create_writes_the_versioned_header() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        FilePageStore::create(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), frame::HEADER_LEN);
        assert_eq!(&bytes[..8], &frame::MAGIC);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("broken.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        let err = FilePageStore::open(&path).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: None, .. }),
            "expected file-level corruption, got: {err}"
        );
    }

    #[test]
    fn open_rejects_a_foreign_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("not_pages.bin");
        // Right shape (header + one frame), wrong magic.
        std::fs::write(&path, vec![0xEEu8; frame::HEADER_LEN + frame::FRAME_LEN]).unwrap();
        let err = FilePageStore::open(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn both_stores_reject_a_version_1_page_file() {
        // What frame format version 1 wrote: its header, then one frame
        // sealed with FNV-1a-64.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("v1.pages");
        let mut bytes = frame::encode_header().to_vec();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut payload = zeroed_page();
        payload[0] = 42;
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crate::checksum::fnv1a64(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let errors = [
            FilePageStore::open(&path).map(|_| ()).unwrap_err(),
            MemPageStore::from_page_file(&path).map(|_| ()).unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(err, IrError::Corruption { page: None, .. })
                    && err
                        .to_string()
                        .contains("unsupported format version 1 (expected 2)"),
                "{err}"
            );
        }
    }
}
