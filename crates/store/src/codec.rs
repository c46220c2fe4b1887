//! Minimal little-endian binary codec for artifact payloads.
//!
//! The workspace deliberately avoids external serialization crates; the
//! artifact formats are hand-rolled over this pair of cursor types.
//! Every [`Reader`] method returns `Option` and degrades truncated or
//! malformed input to `None` — the store turns any `None` into a cache
//! miss, so a damaged file can never panic or surface an error to the
//! pipeline.

/// Append-only little-endian writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by its IEEE-754 bit pattern — round-trips every
    /// value (including signed zeros and NaN payloads) bit-for-bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends every `f64` of `values` by bit pattern, as repeated
    /// [`f64`](Self::f64) calls would, in one pass over one resize of
    /// the buffer.
    pub fn f64s(&mut self, values: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * values.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(values) {
            out.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Overwrites the 8 bytes at `at` with `v`, little endian: fills in
    /// a length field written as a placeholder before what it counts.
    ///
    /// # Panics
    ///
    /// Panics if `at + 8` exceeds the bytes written so far.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    /// The encoded buffer.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far (checksum input).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Takes the next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Fills `out` with the next `out.len()` `f64`s, as repeated
    /// [`f64`](Self::f64) calls would, in one pass; `None` (consuming
    /// nothing) if fewer remain.
    pub fn f64s_into(&mut self, out: &mut [f64]) -> Option<()> {
        let bytes = self.take(out.len().checked_mul(8)?)?;
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")));
        }
        Some(())
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// A claimed element count, rejected up front when even zero-sized
    /// headers for that many elements could not fit in the remaining
    /// input (`min_element_bytes` is the smallest encoding of one
    /// element). Guards `Vec::with_capacity` against corrupt lengths.
    pub fn count(&mut self, min_element_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        let need = n.checked_mul(min_element_bytes.max(1))?;
        if need > self.data.len() - self.pos {
            return None;
        }
        Some(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the whole input has been consumed — artifact decoders
    /// require this, so trailing garbage reads as a miss.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_bytes() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bytes(b"hello");
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes(), Some(&b"hello"[..]));
        assert!(r.is_at_end());
    }

    #[test]
    fn bulk_f64s_match_one_at_a_time() {
        let values = [
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::MIN_POSITIVE / 3.0,
            1.5,
        ];
        let mut bulk = Writer::new();
        bulk.u8(9);
        bulk.f64s(&values);
        let mut single = Writer::new();
        single.u8(9);
        for &v in &values {
            single.f64(v);
        }
        assert_eq!(bulk.as_slice(), single.as_slice());
        let buf = bulk.into_inner();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(9));
        let mut back = [0.0; 4];
        assert_eq!(r.f64s_into(&mut back), Some(()));
        assert!(r.is_at_end());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        // Too few bytes left: a miss that consumes nothing.
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        r.u8();
        assert_eq!(r.f64s_into(&mut back), None);
        assert_eq!(r.remaining(), 31);
    }

    #[test]
    fn patch_rewrites_a_placeholder() {
        let mut w = Writer::with_capacity(16);
        w.u64(0);
        w.u8(1);
        w.patch_u64(0, 7);
        assert_eq!(w.as_slice(), &[7, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn truncated_reads_are_none() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.into_inner();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), None);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), None, "length 42 with no payload");
    }

    #[test]
    fn count_rejects_absurd_lengths() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(8), None);
    }
}
