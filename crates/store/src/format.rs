//! The on-disk artifact file framing.
//!
//! Every cache file is
//!
//! ```text
//! magic "FTCA" | version u32 | kind u8 | payload_len u64 | payload | checksum u64
//! ```
//!
//! with the checksum ([`checksum`], word-wise over four lanes)
//! computed over everything before it. [`decode_file`] verifies the
//! whole file against it before reading any other field, then checks
//! the remaining four framing fields, and returns `None` on any
//! mismatch — truncation, a flipped bit anywhere (header or body), a
//! version bump, or a file of the wrong kind all degrade to a clean
//! cache miss. The store never trusts a cache file further than this
//! frame plus the per-artifact structural checks in the decoders.
//!
//! A file is built in one buffer ([`encode_with`]): the header with a
//! placeholder length, the payload encoded in place after it, the
//! length patched, the checksum appended. The payload is never copied
//! into the frame a second time.

use crate::codec::{Reader, Writer};
use crate::digest::checksum;
use crate::Kind;

/// File magic: "field type clustering artifact".
pub const MAGIC: [u8; 4] = *b"FTCA";

/// Format version. Bumping it invalidates every existing cache file
/// (and, via [`crate::KeyDigest::new`], every existing cache key).
/// Version 2 replaced the byte-serial FNV-1a trailer with [`checksum`].
pub const FORMAT_VERSION: u32 = 2;

/// Bytes before the payload: magic, version, kind and payload length.
pub const HEADER_LEN: usize = 17;

/// Frames the payload `encode` writes as a complete artifact file, in
/// one buffer sized for a payload of `payload_hint` bytes (a hint only:
/// the buffer grows if the payload is longer).
pub fn encode_with(kind: Kind, payload_hint: usize, encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN + payload_hint + 8);
    w.raw(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u8(kind.tag());
    w.u64(0); // payload length, patched once the payload is written
    encode(&mut w);
    let len = w.len() - HEADER_LEN;
    w.patch_u64(HEADER_LEN - 8, len as u64);
    let sum = checksum(w.as_slice());
    w.u64(sum);
    w.into_inner()
}

/// Frames an already-encoded payload as a complete artifact file.
pub fn encode_file(kind: Kind, payload: &[u8]) -> Vec<u8> {
    encode_with(kind, payload.len(), |w| w.raw(payload))
}

/// Unframes an artifact file, returning the payload slice. `None` on
/// any framing violation: bad magic, other version, other kind, length
/// mismatch, trailing bytes, or checksum failure.
pub fn decode_file(kind: Kind, bytes: &[u8]) -> Option<&[u8]> {
    // Checksum first: it covers the header too, so every later check
    // runs on bytes already known to be intact.
    if bytes.len() < 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if checksum(body) != stored {
        return None;
    }
    let mut r = Reader::new(body);
    if r.take(4)? != MAGIC {
        return None;
    }
    if r.u32()? != FORMAT_VERSION {
        return None;
    }
    if r.u8()? != kind.tag() {
        return None;
    }
    let len = r.usize()?;
    let payload = r.take(len)?;
    if !r.is_at_end() {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let file = encode_file(Kind::DISSIM, b"payload");
        assert_eq!(decode_file(Kind::DISSIM, &file), Some(&b"payload"[..]));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let file = encode_file(Kind::CLUSTERING, b"");
        assert_eq!(decode_file(Kind::CLUSTERING, &file), Some(&b""[..]));
    }

    #[test]
    fn wrong_kind_is_a_miss() {
        let file = encode_file(Kind::DISSIM, b"payload");
        assert_eq!(decode_file(Kind::CLUSTERING, &file), None);
    }

    #[test]
    fn every_single_bit_flip_is_a_miss() {
        let file = encode_file(Kind::DISSIM, b"some payload bytes");
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    decode_file(Kind::DISSIM, &bad),
                    None,
                    "flip at byte {byte} bit {bit} must miss"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_a_miss() {
        let file = encode_file(Kind::DISSIM, b"some payload bytes");
        for len in 0..file.len() {
            assert_eq!(decode_file(Kind::DISSIM, &file[..len]), None);
        }
    }

    /// Every single-bit flip and every truncation of `file` misses.
    fn assert_damage_misses(file: &[u8]) {
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.to_vec();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    decode_file(Kind::DISSIM, &bad),
                    None,
                    "{}-byte frame: flip at byte {byte} bit {bit} must miss",
                    file.len()
                );
            }
        }
        for len in 0..file.len() {
            assert_eq!(
                decode_file(Kind::DISSIM, &file[..len]),
                None,
                "{}-byte frame: truncation to {len} bytes must miss",
                file.len()
            );
        }
    }

    #[test]
    fn every_flip_and_truncation_of_a_multi_block_frame_misses() {
        // Past 4 KiB the checksum runs many 32-byte blocks on all four
        // lanes; the truncations walk every length mod 32.
        let payload: Vec<u8> = (0..4133u32).map(|i| (i * 131 + i / 7) as u8).collect();
        let file = encode_file(Kind::DISSIM, &payload);
        assert!(file.len() > 4096);
        assert_eq!(decode_file(Kind::DISSIM, &file), Some(&payload[..]));
        assert_damage_misses(&file);
    }

    #[test]
    fn every_flip_and_truncation_misses_at_every_length_mod_32() {
        // Frames of 25..=56 bytes end their last block at every offset,
        // so the zero-padded tail word sits in every lane position.
        for extra in 0..32u8 {
            let payload: Vec<u8> = (0..extra).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let file = encode_file(Kind::DISSIM, &payload);
            assert_eq!(file.len() % 32, (25 + usize::from(extra)) % 32);
            assert_eq!(decode_file(Kind::DISSIM, &file), Some(&payload[..]));
            assert_damage_misses(&file);
        }
    }

    #[test]
    fn encode_with_frames_in_place() {
        let file = encode_with(Kind::CLUSTERING, 3, |w| w.raw(b"abcdef"));
        assert_eq!(file, encode_file(Kind::CLUSTERING, b"abcdef"));
        assert_eq!(file.len(), HEADER_LEN + 6 + 8);
        assert_eq!(decode_file(Kind::CLUSTERING, &file), Some(&b"abcdef"[..]));
    }

    #[test]
    fn trailing_garbage_is_a_miss() {
        let mut file = encode_file(Kind::DISSIM, b"payload");
        file.push(0);
        assert_eq!(decode_file(Kind::DISSIM, &file), None);
    }
}
