//! Classic libpcap file format reader and writer.
//!
//! Implements the venerable `pcap-savefile(5)` format (magic
//! `0xA1B2C3D4`, microsecond timestamps, link type Ethernet). Both byte
//! orders are read; files are written in the host-independent big-endian
//! convention of the magic as stored.

use crate::net::{decode_frame, encode_frame};
use crate::{Message, Trace, TraceError};
use bytes::Bytes;
use std::io::{Read, Write};

const MAGIC: u32 = 0xA1B2_C3D4;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;
const SNAPLEN: u32 = 65535;

/// Writes a trace to a pcap stream.
///
/// Each message is encapsulated per its [`Transport`](crate::Transport)
/// (UDP/TCP over IPv4 over Ethernet, or the private link-layer EtherType).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceError> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&VERSION_MAJOR.to_le_bytes())?;
    w.write_all(&VERSION_MINOR.to_le_bytes())?;
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&SNAPLEN.to_le_bytes())?;
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
    for msg in trace {
        let frame = encode_frame(msg);
        let ts = msg.timestamp_micros();
        w.write_all(&((ts / 1_000_000) as u32).to_le_bytes())?;
        w.write_all(&((ts % 1_000_000) as u32).to_le_bytes())?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&frame)?;
    }
    Ok(())
}

/// Writes a trace into an in-memory pcap image.
///
/// # Errors
///
/// Never fails for in-memory writes in practice; the `Result` mirrors
/// [`write()`](crate::pcap::write).
pub fn write_to_vec(trace: &Trace) -> Result<Vec<u8>, TraceError> {
    let mut buf = Vec::new();
    write(trace, &mut buf)?;
    Ok(buf)
}

/// Writes a trace to a pcap file at `path`.
///
/// # Errors
///
/// Propagates I/O errors (file creation, writing).
pub fn write_to_file(trace: &Trace, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
    let f = std::fs::File::create(path)?;
    write(trace, std::io::BufWriter::new(f))
}

/// Reads a pcap stream into a [`Trace`] named `name`.
///
/// Frames that use unsupported encapsulations are skipped (a capture may
/// contain unrelated traffic); malformed pcap structure is an error.
///
/// # Errors
///
/// Returns [`TraceError::BadMagic`] for unknown file magic and
/// [`TraceError::Truncated`] for incomplete records.
pub fn read<R: Read>(mut r: R, name: &str) -> Result<Trace, TraceError> {
    let mut header = [0u8; 24];
    r.read_exact(&mut header)
        .map_err(|_| TraceError::Truncated {
            context: "pcap global header",
        })?;
    let magic_le = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let magic_be = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    let little_endian = if magic_le == MAGIC {
        true
    } else if magic_be == MAGIC {
        false
    } else {
        return Err(TraceError::BadMagic(magic_le));
    };
    let read_u32 = |b: &[u8]| -> u32 {
        let arr: [u8; 4] = b.try_into().expect("4 bytes");
        if little_endian {
            u32::from_le_bytes(arr)
        } else {
            u32::from_be_bytes(arr)
        }
    };

    let mut messages = Vec::new();
    loop {
        let mut rec = [0u8; 16];
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = u64::from(read_u32(&rec[0..4]));
        let ts_usec = u64::from(read_u32(&rec[4..8]));
        let incl_len = read_u32(&rec[8..12]) as usize;
        // A capture record larger than 64 MiB is corrupt (snaplen is
        // 65535); refuse before allocating.
        if incl_len > 0x400_0000 {
            return Err(TraceError::InvalidHeader {
                context: "pcap record length",
            });
        }
        // Read through `take` so the buffer grows with the bytes actually
        // present, not with what a (possibly lying) header claims: only
        // a snaplen's worth is reserved up front.
        let mut frame = Vec::with_capacity(incl_len.min(0x1_0000));
        (&mut r).take(incl_len as u64).read_to_end(&mut frame)?;
        if frame.len() < incl_len {
            return Err(TraceError::Truncated {
                context: "pcap record body",
            });
        }

        match decode_frame(&frame) {
            Ok(d) => {
                let payload = Bytes::copy_from_slice(
                    &frame[d.payload_offset..d.payload_offset + d.payload_len],
                );
                messages.push(
                    Message::builder(payload)
                        .timestamp_micros(ts_sec * 1_000_000 + ts_usec)
                        .source(d.source)
                        .destination(d.destination)
                        .transport(d.transport)
                        .build(),
                );
            }
            // Tolerate foreign traffic in the capture.
            Err(TraceError::UnsupportedEncapsulation { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Trace::new(name, messages))
}

/// Reads a pcap image from a byte slice; see [`read`].
///
/// # Errors
///
/// Same as [`read`].
pub fn read_from_slice(bytes: &[u8], name: &str) -> Result<Trace, TraceError> {
    read(bytes, name)
}

/// Reads a pcap file from disk; see [`read`].
///
/// # Errors
///
/// Propagates I/O errors in addition to the parse errors of [`read`].
pub fn read_from_file(path: impl AsRef<std::path::Path>, name: &str) -> Result<Trace, TraceError> {
    let f = std::fs::File::open(path)?;
    read(std::io::BufReader::new(f), name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, Transport};

    fn sample_trace() -> Trace {
        let mk = |payload: &'static [u8], ts: u64, transport: Transport| {
            Message::builder(Bytes::from_static(payload))
                .timestamp_micros(ts)
                .source(match transport {
                    Transport::Link => Endpoint::mac([2, 0, 0, 0, 0, 9]),
                    _ => Endpoint::udp([10, 1, 2, 3], 1234),
                })
                .destination(match transport {
                    Transport::Link => Endpoint::mac([2, 0, 0, 0, 0, 8]),
                    _ => Endpoint::udp([10, 9, 8, 7], 53),
                })
                .transport(transport)
                .build()
        };
        Trace::new(
            "mixed",
            vec![
                mk(b"udp payload", 1_111_111, Transport::Udp),
                mk(b"tcp payload bytes", 2_222_222, Transport::Tcp),
                mk(b"link payload", 3_999_999, Transport::Link),
            ],
        )
    }

    #[test]
    fn lying_record_length_is_truncated_without_allocating_it() {
        // A valid global header and one record header claiming a 64 MiB
        // body over only 10 bytes.
        let mut img = write_to_vec(&Trace::new("empty", Vec::new())).unwrap();
        img.extend_from_slice(&[0u8; 8]);
        img.extend_from_slice(&0x400_0000u32.to_le_bytes());
        img.extend_from_slice(&0x400_0000u32.to_le_bytes());
        img.extend_from_slice(&[0xAB; 10]);
        assert!(matches!(
            read_from_slice(&img, "lying"),
            Err(TraceError::Truncated {
                context: "pcap record body"
            })
        ));
    }

    #[test]
    fn roundtrip_preserves_payloads_and_meta() {
        let t = sample_trace();
        let img = write_to_vec(&t).unwrap();
        let back = read_from_slice(&img, "mixed").unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!(a.payload(), b.payload());
            assert_eq!(a.timestamp_micros(), b.timestamp_micros());
            assert_eq!(a.source(), b.source());
            assert_eq!(a.destination(), b.destination());
            assert_eq!(a.transport(), b.transport());
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("fieldclust-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pcap");
        write_to_file(&t, &path).unwrap();
        let back = read_from_file(&path, "mixed").unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let img = vec![0u8; 24];
        assert!(matches!(
            read_from_slice(&img, "x"),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncated_record() {
        let t = sample_trace();
        let mut img = write_to_vec(&t).unwrap();
        img.truncate(img.len() - 3);
        assert!(matches!(
            read_from_slice(&img, "x"),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_capture_reads_empty_trace() {
        let t = Trace::new("none", vec![]);
        let img = write_to_vec(&t).unwrap();
        let back = read_from_slice(&img, "none").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn reads_big_endian_header() {
        // Hand-build a big-endian global header with no records.
        let mut img = Vec::new();
        img.extend_from_slice(&MAGIC.to_be_bytes());
        img.extend_from_slice(&VERSION_MAJOR.to_be_bytes());
        img.extend_from_slice(&VERSION_MINOR.to_be_bytes());
        img.extend_from_slice(&[0u8; 16]);
        let back = read_from_slice(&img, "be").unwrap();
        assert!(back.is_empty());
    }
}
