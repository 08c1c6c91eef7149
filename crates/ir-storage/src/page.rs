//! Fixed-size pages, page identifiers, and the self-validating on-disk
//! frame format the file store writes (and the mem store carries in
//! memory, one sealed frame per page), each sealed with the lane checksum
//! of [`crate::checksum::frame_checksum`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of every page in bytes.
///
/// 4 KiB matches the disk/OS page granularity the paper's testbed would have
/// used; inverted-list entries are 12 bytes so roughly 340 entries fit in a
/// page.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page inside a [`crate::pagestore::PageStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u32);

impl PageId {
    /// Page id as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The page that follows this one.
    #[inline]
    pub fn next(self) -> PageId {
        PageId(self.0 + 1)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageId({})", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An owned page buffer.
pub type PageBuf = Box<[u8]>;

/// Allocates a zeroed page buffer.
pub fn zeroed_page() -> PageBuf {
    vec![0u8; PAGE_SIZE].into_boxed_slice()
}

/// The self-validating on-disk layout of the file-backed page store.
///
/// A page file starts with a fixed-length versioned header, followed by one
/// *frame* per page: the 4 KiB payload plus an 8-byte little-endian
/// [`frame_checksum`] trailer computed over the payload. The trailer is
/// verified on every physical read, which is why it is the word-wise lane
/// checksum and not the byte-serial FNV-1a-64.
/// `FilePageStore` reads and writes this exact layout, and
/// `MemPageStore::from_page_file` loads it frame by frame, so a saved file
/// is servable by either backend. Every field is explicitly little-endian;
/// the format is independent of host endianness.
///
/// [`frame_checksum`]: crate::checksum::frame_checksum
pub mod frame {
    use super::{PageId, PAGE_SIZE};
    use crate::checksum::frame_checksum;
    use ir_types::{IrError, IrResult};

    /// Length of the per-frame checksum trailer in bytes.
    pub const CHECKSUM_LEN: usize = 8;

    /// Length of one on-disk frame: payload plus checksum trailer.
    pub const FRAME_LEN: usize = PAGE_SIZE + CHECKSUM_LEN;

    /// Magic bytes opening every page file.
    pub const MAGIC: [u8; 8] = *b"IRPAGES\0";

    /// Version of the frame format (bumped on any layout or checksum
    /// change). Version 1 sealed frames with FNV-1a-64; version 2 seals
    /// them with the lane checksum. Readers accept exactly this version.
    pub const FORMAT_VERSION: u32 = 2;

    /// Length of the file header. Fixed so the frame offsets never move;
    /// the bytes past the three fields are zeroed and reserved.
    pub const HEADER_LEN: usize = 64;

    /// The byte offset of a page's frame inside the file.
    #[inline]
    pub fn offset(page: PageId) -> u64 {
        HEADER_LEN as u64 + page.0 as u64 * FRAME_LEN as u64
    }

    /// Encodes the versioned file header: magic, format version (LE),
    /// page size (LE), zero padding.
    pub fn encode_header() -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header
    }

    /// Validates a header read back from disk, returning a typed
    /// [`IrError::Corruption`] naming exactly what failed.
    pub fn validate_header(header: &[u8; HEADER_LEN]) -> IrResult<()> {
        if header[..8] != MAGIC {
            return Err(IrError::Corruption {
                page: None,
                detail: format!(
                    "bad magic {:02x?} (expected {:02x?}); not a page file",
                    &header[..8],
                    MAGIC
                ),
            });
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != FORMAT_VERSION {
            return Err(IrError::Corruption {
                page: None,
                detail: format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            });
        }
        let page_size = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        if page_size as usize != PAGE_SIZE {
            return Err(IrError::Corruption {
                page: None,
                detail: format!("page size {page_size} does not match the compiled {PAGE_SIZE}"),
            });
        }
        Ok(())
    }

    /// Validates that the bytes after the header hold a whole number of
    /// frames, returning the page count.
    pub fn page_count(file_len: u64) -> IrResult<u32> {
        let body = file_len
            .checked_sub(HEADER_LEN as u64)
            .ok_or_else(|| IrError::Corruption {
                page: None,
                detail: format!(
                    "file has {file_len} bytes, shorter than the {HEADER_LEN}-byte header"
                ),
            })?;
        if body % FRAME_LEN as u64 != 0 {
            return Err(IrError::Corruption {
                page: None,
                detail: format!(
                    "page area has {body} bytes, not a whole number of {FRAME_LEN}-byte frames \
                     (torn trailing write?)"
                ),
            });
        }
        Ok((body / FRAME_LEN as u64) as u32)
    }

    /// The checksum trailer for a payload, as stored on disk (LE).
    #[inline]
    pub fn seal(payload: &[u8]) -> [u8; CHECKSUM_LEN] {
        frame_checksum(payload).to_le_bytes()
    }

    /// Verifies a frame read back from disk: the trailer must equal the
    /// payload's checksum.
    pub fn verify(page: PageId, payload: &[u8], trailer: &[u8]) -> IrResult<()> {
        let computed = frame_checksum(payload);
        let mut stored = [0u8; CHECKSUM_LEN];
        stored.copy_from_slice(trailer);
        let stored = u64::from_le_bytes(stored);
        if computed != stored {
            return Err(IrError::Corruption {
                page: Some(page.0),
                detail: format!(
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            });
        }
        Ok(())
    }

    /// The trailer of an all-zero page — what freshly allocated frames
    /// carry on every backend.
    pub fn zero_page_seal() -> [u8; CHECKSUM_LEN] {
        static SEAL: std::sync::OnceLock<[u8; CHECKSUM_LEN]> = std::sync::OnceLock::new();
        *SEAL.get_or_init(|| seal(&[0u8; PAGE_SIZE]))
    }
}

/// Little helpers to read/write fixed-width integers and floats at byte
/// offsets inside a page. All encodings are little-endian.
pub mod codec {
    /// Writes a `u32` at `offset`.
    #[inline]
    pub fn put_u32(buf: &mut [u8], offset: usize, value: u32) {
        buf[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a `u32` at `offset`.
    #[inline]
    pub fn get_u32(buf: &[u8], offset: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&buf[offset..offset + 4]);
        u32::from_le_bytes(b)
    }

    /// Writes a `u64` at `offset`.
    #[inline]
    pub fn put_u64(buf: &mut [u8], offset: usize, value: u64) {
        buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a `u64` at `offset`.
    #[inline]
    pub fn get_u64(buf: &[u8], offset: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[offset..offset + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes an `f64` at `offset`.
    #[inline]
    pub fn put_f64(buf: &mut [u8], offset: usize, value: f64) {
        buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads an `f64` at `offset`.
    #[inline]
    pub fn get_f64(buf: &[u8], offset: usize) -> f64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[offset..offset + 8]);
        f64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn page_id_next_increments() {
        assert_eq!(PageId(3).next(), PageId(4));
        assert_eq!(PageId(0).index(), 0);
        assert_eq!(PageId(7).to_string(), "p7");
    }

    #[test]
    fn zeroed_page_has_page_size() {
        let p = zeroed_page();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn codec_roundtrips_values() {
        let mut buf = zeroed_page();
        codec::put_u32(&mut buf, 10, 0xDEAD_BEEF);
        codec::put_u64(&mut buf, 50, 0x0123_4567_89AB_CDEF);
        codec::put_f64(&mut buf, 100, -0.125);
        assert_eq!(codec::get_u32(&buf, 10), 0xDEAD_BEEF);
        assert_eq!(codec::get_u64(&buf, 50), 0x0123_4567_89AB_CDEF);
        assert_eq!(codec::get_f64(&buf, 100), -0.125);
    }

    #[test]
    fn codec_is_little_endian() {
        let mut buf = vec![0u8; 8];
        codec::put_u32(&mut buf, 0, 1);
        assert_eq!(buf[0], 1);
        assert_eq!(buf[1], 0);
    }

    #[test]
    fn frame_seal_and_verify_roundtrip() {
        let mut page = zeroed_page();
        codec::put_u32(&mut page, 0, 42);
        let trailer = frame::seal(&page);
        frame::verify(PageId(5), &page, &trailer).expect("untouched frame verifies");
        // Flip one payload bit: verification must name the page.
        page[100] ^= 0x01;
        let err = frame::verify(PageId(5), &page, &trailer).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("page 5"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
    }

    #[test]
    fn frame_header_roundtrips_and_rejects_damage() {
        let header = frame::encode_header();
        frame::validate_header(&header).expect("fresh header validates");

        let mut bad_magic = header;
        bad_magic[0] = b'X';
        assert!(frame::validate_header(&bad_magic)
            .unwrap_err()
            .to_string()
            .contains("bad magic"));

        let mut bad_version = header;
        bad_version[8] = 99;
        assert!(frame::validate_header(&bad_version)
            .unwrap_err()
            .to_string()
            .contains("version"));

        let mut bad_page_size = header;
        bad_page_size[13] ^= 0xFF; // 4096 = 00 10 00 00 LE; flip the 0x10
        assert!(frame::validate_header(&bad_page_size)
            .unwrap_err()
            .to_string()
            .contains("page size"));
    }

    #[test]
    fn frame_page_count_requires_whole_frames() {
        let header = frame::HEADER_LEN as u64;
        let one_frame = frame::FRAME_LEN as u64;
        assert_eq!(frame::page_count(header).unwrap(), 0);
        assert_eq!(frame::page_count(header + 3 * one_frame).unwrap(), 3);
        assert!(frame::page_count(header - 1).is_err());
        assert!(frame::page_count(header + one_frame - 1).is_err());
    }

    #[test]
    fn frame_offsets_leave_room_for_the_header() {
        assert_eq!(frame::offset(PageId(0)), frame::HEADER_LEN as u64);
        assert_eq!(
            frame::offset(PageId(2)),
            frame::HEADER_LEN as u64 + 2 * frame::FRAME_LEN as u64
        );
    }

    #[test]
    fn zero_page_seal_matches_direct_seal() {
        assert_eq!(frame::zero_page_seal(), frame::seal(&zeroed_page()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128).with_seed(0xF4A3_0002))]

        /// Whatever the payload, XOR-ing any nonzero mask into any one
        /// byte fails verification with a corruption naming the page.
        #[test]
        fn any_byte_flip_fails_verification(
            payload in proptest::collection::vec(0u8..=255, PAGE_SIZE),
            offset in 0usize..PAGE_SIZE,
            mask in 1u8..=255,
            page in 0u32..1_000_000,
        ) {
            let trailer = frame::seal(&payload);
            frame::verify(PageId(page), &payload, &trailer).unwrap();
            let mut damaged = payload;
            damaged[offset] ^= mask;
            let err = frame::verify(PageId(page), &damaged, &trailer).unwrap_err();
            prop_assert!(
                matches!(err, ir_types::IrError::Corruption { page: Some(p), .. } if p == page),
                "offset {offset} mask {mask:#04x}: {err}"
            );
        }
    }
}
