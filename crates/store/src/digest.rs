//! Content-addressed cache keys: a 128-bit FNV-1a digest.
//!
//! The store is keyed by digests over artifact *inputs* — payload
//! bytes, dissimilarity parameters, segmenter configuration, and the
//! format version — so a parameter change invalidates exactly the
//! artifacts it affects, and nothing else. The digest is two
//! independently-seeded FNV-1a 64 lanes run over the same byte stream;
//! 128 bits make accidental collisions negligible for a cache (this is
//! an integrity aid, not a cryptographic boundary — the cache directory
//! is trusted local state).
//!
//! [`KeyDigest::finish`] is non-consuming, so a caller feeding a
//! sequence (say, segment values) can snapshot the key after every
//! prefix — that is what makes *prefix* lookup for incremental matrix
//! extension a single pass.
//!
//! The module also holds the two whole-buffer checksums: [`checksum`],
//! the artifact files' word-wise one, and byte-serial [`fnv64`].

use crate::format::FORMAT_VERSION;
use crate::Kind;

const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane: the FNV offset basis perturbed by the golden-ratio
/// constant, so the lanes decorrelate from the first byte on.
const FNV_OFFSET_B: u64 = FNV_OFFSET_A ^ 0x9e37_79b9_7f4a_7c15;

/// A 128-bit content key. Renders as 32 lowercase hex characters (the
/// on-disk file name stem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u8; 16]);

impl Key {
    /// The key as lowercase hex.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses 32 lowercase/uppercase hex characters; `None` otherwise.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Key(out))
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Incremental 128-bit FNV-1a digest for composing cache keys.
///
/// Seeding with a [`Kind`] and the [`FORMAT_VERSION`] is built into the
/// constructor, so bumping the format version invalidates every key at
/// once and two artifact kinds can never collide on a file name.
#[derive(Debug, Clone)]
pub struct KeyDigest {
    a: u64,
    b: u64,
}

impl KeyDigest {
    /// Starts a digest for one artifact kind (format version baked in).
    pub fn new(kind: Kind) -> Self {
        let mut d = Self {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        };
        d.u64(u64::from(FORMAT_VERSION));
        d.u64(u64::from(kind.tag()));
        d
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a length-framed byte string (framing keeps `["ab","c"]`
    /// distinct from `["a","bc"]`).
    pub fn frame(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }

    /// Feeds a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds an optional `f64` (presence tagged, so `None` and
    /// `Some(0.0)` differ).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }

    /// Feeds a UTF-8 string, length-framed.
    pub fn str(&mut self, s: &str) {
        self.frame(s.as_bytes());
    }

    /// Feeds another key (key composition).
    pub fn key(&mut self, k: &Key) {
        self.bytes(&k.0);
    }

    /// The key for everything fed so far. Non-consuming: callers may
    /// keep feeding and snapshot again (prefix keys).
    pub fn finish(&self) -> Key {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..].copy_from_slice(&self.b.to_le_bytes());
        Key(out)
    }
}

/// Plain FNV-1a 64 over a byte slice, one byte per step. The artifact
/// files checksum with the faster [`checksum`]; `serve`'s wire frames,
/// a format of their own, keep this one.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_A;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Words per block of [`checksum`], one independent lane each.
const CHECK_LANES: usize = 4;
/// Bytes per block of [`checksum`].
const CHECK_BLOCK: usize = 8 * CHECK_LANES;
/// The odd multiplier of every [`checksum`] step (the 64-bit golden
/// ratio): multiplying by an odd constant is a bijection of `u64`.
const CHECK_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: absorbs `word` into `state`. For a fixed word it
/// is a bijection of the state (xor, odd multiply, rotate), and for a
/// fixed state a bijection of the word.
#[inline(always)]
fn check_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(CHECK_MUL).rotate_left(29)
}

/// The whole-file checksum of the artifact format: a word-wise hash
/// over four independent lanes.
///
/// The bytes are read as little-endian `u64` words, 32-byte blocks
/// feeding one word to each lane; the last partial block is zero-padded
/// to whole words and fed to the first lanes. The lanes are then folded
/// in order into a state seeded with the byte length, and the result
/// is the folded state xor-shifted. Four lanes keep four multiply
/// chains in flight, so a checksum costs a fraction of byte-serial
/// [`fnv64`] over a multi-megabyte matrix.
///
/// Every step is a bijection of the state it updates. A single flipped
/// bit changes exactly one word, so it changes the state of that word's
/// lane; every later step of the lane, and every fold step after it,
/// maps distinct states to distinct states, so the result differs. A
/// single-bit flip is therefore always detected, not merely with high
/// probability. Truncations change the length seed and are detected
/// with probability 1 − 2⁻⁶⁴ like any other damage.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; CHECK_LANES] =
        std::array::from_fn(|l| FNV_OFFSET_A.wrapping_add((l as u64).wrapping_mul(FNV_PRIME)));
    let mut blocks = bytes.chunks_exact(CHECK_BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = check_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = check_step(*lane, u64::from_le_bytes(padded));
    }
    let mut h = FNV_OFFSET_B ^ bytes.len() as u64;
    for lane in lanes {
        h = check_step(h, lane);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let mut d = KeyDigest::new(Kind::DISSIM);
        d.bytes(b"hello");
        let k = d.finish();
        assert_eq!(k.hex().len(), 32);
        assert_eq!(Key::from_hex(&k.hex()), Some(k));
        assert_eq!(Key::from_hex("xyz"), None);
        assert_eq!(Key::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn kinds_and_content_separate_keys() {
        let mut a = KeyDigest::new(Kind::DISSIM);
        let mut b = KeyDigest::new(Kind::SEGMENT_STORE);
        a.bytes(b"x");
        b.bytes(b"x");
        assert_ne!(a.finish(), b.finish(), "kind must separate keys");
        let mut c = KeyDigest::new(Kind::DISSIM);
        c.bytes(b"y");
        assert_ne!(a.finish(), c.finish(), "content must separate keys");
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut a = KeyDigest::new(Kind::DISSIM);
        a.frame(b"ab");
        a.frame(b"c");
        let mut b = KeyDigest::new(Kind::DISSIM);
        b.frame(b"a");
        b.frame(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn checksum_separates_lengths_and_lanes() {
        // Zero padding of the last block never hides a length change…
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0; 31]), checksum(&[0; 32]));
        // …and equal words in different lanes or blocks differ.
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        a[0] = 1;
        b[8] = 1;
        assert_ne!(checksum(&a), checksum(&b));
        b[8] = 0;
        b[32] = 1;
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn finish_is_a_snapshot() {
        let mut d = KeyDigest::new(Kind::DISSIM);
        d.frame(b"one");
        let at_one = d.finish();
        d.frame(b"two");
        let at_two = d.finish();
        assert_ne!(at_one, at_two);
        // Re-deriving the prefix digest gives the same snapshot.
        let mut again = KeyDigest::new(Kind::DISSIM);
        again.frame(b"one");
        assert_eq!(again.finish(), at_one);
    }
}
