//! The checksums of the crate's on-disk artifacts.
//!
//! There are two, because the two artifacts are read at very different
//! rates:
//!
//! * [`frame_checksum`] seals every page frame ([`crate::page::frame`]). A
//!   page miss verifies a whole 4 KiB frame, so this hash is built for
//!   throughput: eight independent lanes over little-endian 64-bit words,
//!   instead of one dependent multiply per byte.
//! * [`fnv1a64`] seals the first 56 bytes of the snapshot superheader
//!   ([`crate::snapshot`]), read once per open, and fingerprints benchmark
//!   inputs. On a few dozen bytes its serial loop costs nothing, and its
//!   published test vectors pin it.
//!
//! Neither is meant to resist an adversary, only to catch bit rot, torn
//! writes and misdirected I/O. Both are hand-rolled: no hashing crate is
//! vendored.

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent hash lanes of [`frame_checksum`]: enough to keep the
/// multiplier busy while each lane waits on its own previous product.
const LANES: usize = 8;

/// Bytes per word of [`frame_checksum`].
const WORD: usize = 8;

/// Rotation after each multiply of [`frame_checksum`]. A multiply alone
/// only carries differences towards the high bits, so two flips of bit 63
/// in different words would cancel; the rotation feeds high bits back
/// into the low ones.
const ROTATION: u32 = 31;

/// FNV-1a 64-bit hash: the snapshot superheader's seal and the benchmark's
/// input fingerprint.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The page-frame checksum: the trailer every frame carries on disk and in
/// the mem store.
///
/// The payload is read as little-endian `u64` words, the last one
/// zero-padded. Lane `i` absorbs words `i`, `i + 8`, `i + 16`, … with
/// `h = rotl((h ^ w) * FNV_PRIME, 31)`; the lanes are then folded in order
/// with the same step, and the payload length goes in last, so inputs that
/// differ only by trailing zero bytes still differ.
///
/// Every step is a bijection of the lane state for a fixed word, and of
/// the word for a fixed state. So a change confined to one 8-byte word,
/// which includes every single-byte flip, always changes the checksum.
/// Damage spread over several words is caught unless it happens to
/// collide, as with any 64-bit hash.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET_BASIS; LANES];
    let mut blocks = payload.chunks_exact(LANES * WORD);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(WORD)) {
            *lane = lane_step(*lane, le_word(word));
        }
    }
    // Fewer than eight words remain: they continue the lane order.
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(WORD)) {
        *lane = lane_step(*lane, le_word(word));
    }
    let folded = lanes.into_iter().fold(FNV_OFFSET_BASIS, lane_step);
    lane_step(folded, payload.len() as u64)
}

#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME).rotate_left(ROTATION)
}

/// Reads up to eight bytes as a little-endian word, zero-padding a short
/// tail: the fixed-width layout read, independent of host endianness.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; WORD];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// A page whose every byte is a function of its offset.
    fn patterned_page() -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn frame_checksum_matches_reference_vectors() {
        // Pinned, and cross-checked against an independent implementation:
        // a change here is a frame-format change, which must bump
        // `frame::FORMAT_VERSION`.
        assert_eq!(frame_checksum(b""), 0xda0b_0594_2717_4577);
        assert_eq!(frame_checksum(&[0u8; PAGE_SIZE]), 0xb0d6_ef69_b7c5_49f3);
        assert_eq!(frame_checksum(&patterned_page()), 0xef9a_13d3_0367_031c);
    }

    #[test]
    fn frame_checksum_mixes_in_the_length() {
        // Zero padding alone cannot tell these apart; the length does.
        assert_ne!(frame_checksum(b"ab"), frame_checksum(b"ab\0"));
        assert_ne!(frame_checksum(&[]), frame_checksum(&[0u8; 8]));
    }

    #[test]
    fn frame_checksum_sees_every_byte_of_a_ragged_payload() {
        // Whole pages are covered by the frame proptest in `page.rs`; a
        // ragged length also runs the partial block and the padded word.
        let payload = &patterned_page()[..PAGE_SIZE - 3];
        let sealed = frame_checksum(payload);
        for offset in 0..payload.len() {
            let mut damaged = payload.to_vec();
            damaged[offset] ^= 0x01;
            assert_ne!(frame_checksum(&damaged), sealed, "offset {offset}");
        }
    }

    #[test]
    fn frame_checksum_catches_paired_top_bit_flips() {
        // Bit 63 of words 0 and 8 (same lane), and of words 0 and 1
        // (different lanes): a rotation-free multiply chain cancels both.
        let page = patterned_page();
        let sealed = frame_checksum(&page);
        for (a, b) in [(0usize, 8usize), (0, 1), (7, 511)] {
            let mut damaged = page.clone();
            damaged[a * WORD + 7] ^= 0x80;
            damaged[b * WORD + 7] ^= 0x80;
            assert_ne!(frame_checksum(&damaged), sealed, "words {a} and {b}");
        }
    }
}
