//! The length-prefixed binary wire framing of the `ftcd` protocol.
//!
//! Every message on the socket — request or response — travels in one
//! frame with the same layout as the store's artifact files
//! (`store::format`), under its own magic:
//!
//! ```text
//! magic "FTCW" | version u32 | kind u8 | payload_len u64 | payload | fnv64 checksum
//! ```
//!
//! All integers are little-endian; the checksum covers everything
//! before it. Unlike the cache — where any damage is a silent miss —
//! the wire rejects loudly: every violation maps to a distinct
//! [`WireError`] so clients can tell a truncated stream from a version
//! skew from a corrupted frame. The corruption suite in
//! `tests/wire_corruption.rs` pins that every single-bit flip and every
//! truncation of a valid frame is rejected with a structured error,
//! mirroring the store's `store_corruption.rs`.

use store::codec::{Reader, Writer};
use store::fnv64;

/// Frame magic: "field type clustering wire".
pub const MAGIC: [u8; 4] = *b"FTCW";

/// Wire protocol version. A daemon and client must agree exactly;
/// mismatch is [`WireError::BadVersion`], never a guess. Version 2
/// added `cache_extended` to the `Stats` report.
pub const WIRE_VERSION: u32 = 2;

/// Upper bound on a frame's payload. Bounds the allocation a malicious
/// or corrupt length prefix can demand before the checksum is checked.
pub const MAX_FRAME: u64 = 64 << 20;

/// Fixed byte length of the frame header (magic, version, kind,
/// payload length).
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8;

/// A structured wire-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Socket-level read/write failure (message carries the OS error).
    Io(String),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The first four bytes are not `FTCW`.
    BadMagic,
    /// The peer speaks another protocol version.
    BadVersion {
        /// Version the peer sent.
        got: u32,
    },
    /// The payload length exceeds [`MAX_FRAME`].
    TooLarge {
        /// Length the header claimed.
        len: u64,
    },
    /// The stream ended inside a frame.
    Truncated,
    /// The checksum over header and payload does not match.
    BadChecksum,
    /// The frame decoded but its payload does not parse as the message
    /// its kind tag claims.
    Malformed {
        /// Kind tag of the offending frame.
        kind: u8,
    },
    /// A kind tag neither side of the protocol defines.
    UnknownKind {
        /// The unrecognized tag.
        kind: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadMagic => write!(f, "bad frame magic (not an ftcd peer?)"),
            WireError::BadVersion { got } => {
                write!(f, "wire version mismatch (peer {got}, ours {WIRE_VERSION})")
            }
            WireError::TooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME} byte cap")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed { kind } => write!(f, "malformed payload in frame kind {kind}"),
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Frames a payload as a complete wire message.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u32(WIRE_VERSION);
    w.u8(kind);
    w.u64(payload.len() as u64);
    w.raw(payload);
    let checksum = fnv64(w.as_slice());
    w.u64(checksum);
    w.into_inner()
}

/// Decodes one complete frame from a byte buffer, returning
/// `(kind, payload)`. The buffer must hold exactly one frame.
///
/// This is the pure counterpart of [`read_frame`], shared with the
/// property and corruption tests so they can exercise the decoder
/// without a socket.
///
/// # Errors
///
/// Every framing violation maps to its own [`WireError`]; see the
/// variant docs.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(WireError::Truncated);
    }
    let mut r = Reader::new(bytes);
    if r.take(4).ok_or(WireError::Truncated)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u32().ok_or(WireError::Truncated)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let kind = r.u8().ok_or(WireError::Truncated)?;
    let len = r.u64().ok_or(WireError::Truncated)?;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge { len });
    }
    // Checksum before trusting the payload bytes themselves.
    let framed = HEADER_LEN + len as usize;
    if bytes.len() < framed + 8 {
        return Err(WireError::Truncated);
    }
    if bytes.len() > framed + 8 {
        // Trailing garbage: the frame lies about its own extent.
        return Err(WireError::BadChecksum);
    }
    let stored = u64::from_le_bytes(bytes[framed..framed + 8].try_into().unwrap());
    if fnv64(&bytes[..framed]) != stored {
        return Err(WireError::BadChecksum);
    }
    Ok((kind, &bytes[HEADER_LEN..framed]))
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl std::io::Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()
}

/// Reads one frame from a stream, returning `(kind, payload)`.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF before the first header byte;
/// [`WireError::Truncated`] on EOF anywhere inside a frame; the other
/// variants as in [`decode_frame`].
pub fn read_frame(r: &mut impl std::io::Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    let mut hr = Reader::new(&header);
    if hr.take(4).ok_or(WireError::Truncated)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = hr.u32().ok_or(WireError::Truncated)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let kind = hr.u8().ok_or(WireError::Truncated)?;
    let len = hr.u64().ok_or(WireError::Truncated)?;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge { len });
    }
    let mut rest = vec![0u8; len as usize + 8];
    read_exact_or(r, &mut rest, false)?;
    let (payload, tail) = rest.split_at(len as usize);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
    framed.extend_from_slice(&header);
    framed.extend_from_slice(payload);
    if fnv64(&framed) != stored {
        return Err(WireError::BadChecksum);
    }
    Ok((kind, payload.to_vec()))
}

/// `read_exact` that distinguishes clean EOF at a frame boundary
/// (`at_boundary`) from EOF mid-frame.
fn read_exact_or(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_pure() {
        let frame = encode_frame(7, b"hello daemon");
        assert_eq!(decode_frame(&frame), Ok((7, &b"hello daemon"[..])));
    }

    #[test]
    fn frame_roundtrip_stream() {
        let frame = encode_frame(3, b"");
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(read_frame(&mut cursor), Ok((3, Vec::new())));
    }

    #[test]
    fn clean_eof_is_closed_not_truncated() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty), Err(WireError::Closed));
        let mut partial = std::io::Cursor::new(vec![b'F']);
        assert_eq!(read_frame(&mut partial), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(1, b"x");
        // Rewrite the length field to something absurd.
        frame[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::TooLarge { len: u64::MAX })
        );
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(
            read_frame(&mut cursor),
            Err(WireError::TooLarge { len: u64::MAX })
        );
    }

    #[test]
    fn version_skew_is_explicit() {
        let mut frame = encode_frame(1, b"x");
        frame[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { got: 99 }));
    }
}
