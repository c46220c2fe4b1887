//! Capture sources for continuous ingestion.
//!
//! Two ways for messages to arrive:
//!
//! - [`FollowFile`] tails a growing capture file (pcap or pcapng) the
//!   way `tail -f` tails a log: each poll re-parses the file and
//!   delivers only the messages past the last watermark. A file caught
//!   mid-write simply parses short or not at all and delivers nothing —
//!   the next poll sees the completed write. Writers who cannot append
//!   atomically should write a new version beside the file and `mv` it
//!   into place.
//! - [`SocketFeed`] accepts loopback TCP connections carrying raw
//!   message payloads as `u32`-LE length-prefixed frames, for feeding
//!   live traffic without touching disk. Each frame becomes one UDP
//!   message with a monotonically increasing synthetic timestamp, so
//!   the resulting trace is deterministic in arrival order.
//!
//! Both implement [`MessageSource`]; `fieldclust follow` picks one from
//! its argument and the batching loop is source-agnostic.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use bytes::Bytes;
use trace::{pcapng, Message};

/// Largest accepted socket frame: a single message payload, not a
/// capture, so 16 MiB is generous and bounds per-connection buffers.
pub const MAX_SOCKET_FRAME: usize = 16 << 20;

/// A pollable, non-blocking supplier of captured messages.
pub trait MessageSource {
    /// Returns messages that arrived since the previous poll (possibly
    /// none). Transient conditions (partial file write, no new socket
    /// data) yield an empty batch, not an error.
    ///
    /// # Errors
    ///
    /// A human-readable message for unrecoverable conditions (file
    /// deleted, listener broken).
    fn poll(&mut self) -> Result<Vec<Message>, String>;

    /// Short human-readable description of the source for log lines.
    fn describe(&self) -> String;
}

/// Follow mode over a growing capture file.
pub struct FollowFile {
    path: PathBuf,
    /// Messages already delivered; the watermark into the re-parse.
    delivered: usize,
    /// Whether the file has parsed successfully at least once.
    parsed_once: bool,
}

impl FollowFile {
    /// Tails `path`. The file may not exist yet; polls report nothing
    /// until it appears and parses.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FollowFile {
            path: path.into(),
            delivered: 0,
            parsed_once: false,
        }
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }
}

impl MessageSource for FollowFile {
    fn poll(&mut self) -> Result<Vec<Message>, String> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            // Not-yet-created (or mid-rename) files are a normal
            // streaming condition; anything after a successful parse
            // disappearing is not.
            Err(_) if !self.parsed_once => return Ok(Vec::new()),
            Err(e) => return Err(format!("reading {}: {e}", self.path.display())),
        };
        let Ok(trace) = pcapng::read_any(&bytes, "capture") else {
            // Torn write: deliver nothing, try again next poll.
            return Ok(Vec::new());
        };
        self.parsed_once = true;
        let messages = trace.into_messages();
        if messages.len() <= self.delivered {
            return Ok(Vec::new());
        }
        let fresh = messages[self.delivered..].to_vec();
        self.delivered = messages.len();
        Ok(fresh)
    }

    fn describe(&self) -> String {
        format!("follow:{}", self.path.display())
    }
}

/// Loopback socket feed of length-framed raw message payloads.
pub struct SocketFeed {
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
    /// Synthetic microsecond timestamp for the next message.
    next_ts: u64,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    closed: bool,
}

impl SocketFeed {
    /// Binds a non-blocking listener on `addr` (e.g. `127.0.0.1:0` for
    /// an ephemeral port — read it back via [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// The bind error, stringified.
    pub fn bind(addr: &str) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("setting non-blocking: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        Ok(SocketFeed {
            listener,
            addr,
            conns: Vec::new(),
            next_ts: 0,
        })
    }

    /// The bound address (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Parses complete frames out of a connection buffer into
    /// messages; leaves any trailing partial frame buffered.
    fn drain_frames(&mut self, idx: usize) -> Result<Vec<Message>, String> {
        let mut out = Vec::new();
        loop {
            let conn = &mut self.conns[idx];
            if conn.buf.len() < 4 {
                return Ok(out);
            }
            let len = u32::from_le_bytes(conn.buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_SOCKET_FRAME {
                return Err(format!("socket frame of {len} bytes exceeds cap"));
            }
            if conn.buf.len() < 4 + len {
                return Ok(out);
            }
            let payload: Vec<u8> = conn.buf[4..4 + len].to_vec();
            conn.buf.drain(..4 + len);
            let ts = self.next_ts;
            self.next_ts += 1;
            out.push(
                Message::builder(Bytes::from(payload))
                    .timestamp_micros(ts)
                    .build(),
            );
        }
    }
}

impl MessageSource for SocketFeed {
    fn poll(&mut self) -> Result<Vec<Message>, String> {
        // Admit any pending connections.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                            closed: false,
                        });
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("accepting connection: {e}")),
            }
        }
        // Pull whatever bytes are ready on each connection.
        let mut scratch = [0u8; 64 * 1024];
        for conn in &mut self.conns {
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.buf.len() + n > MAX_SOCKET_FRAME + 4 {
                            conn.closed = true; // runaway frame; drop the peer
                            break;
                        }
                        conn.buf.extend_from_slice(&scratch[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
        }
        let mut out = Vec::new();
        for i in 0..self.conns.len() {
            out.extend(self.drain_frames(i)?);
        }
        self.conns.retain(|c| !c.closed);
        Ok(out)
    }

    fn describe(&self) -> String {
        format!("listen:{}", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::{corpus, Protocol};
    use std::io::Write;
    use trace::pcap;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ingest-src-{}-{tag}", std::process::id()))
    }

    #[test]
    fn follow_file_delivers_increments() {
        let path = temp_path("grow.pcap");
        let mut src = FollowFile::new(&path);
        assert!(src.poll().unwrap().is_empty()); // absent file: quiet

        let t40 = corpus::build_trace(Protocol::Ntp, 40, 9);
        std::fs::write(&path, pcap::write_to_vec(&t40).unwrap()).unwrap();
        assert_eq!(src.poll().unwrap().len(), 40);
        assert!(src.poll().unwrap().is_empty()); // no growth: quiet

        let t100 = corpus::build_trace(Protocol::Ntp, 100, 9);
        std::fs::write(&path, pcap::write_to_vec(&t100).unwrap()).unwrap();
        let fresh = src.poll().unwrap();
        assert_eq!(fresh.len(), 60);
        assert_eq!(src.delivered(), 100);
        // The generator is sequentially seeded, so the tail messages
        // match the big trace's tail exactly.
        assert_eq!(
            fresh[0].payload().as_slice(),
            t100.messages()[40].payload().as_slice()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn follow_file_tolerates_torn_writes() {
        let path = temp_path("torn.pcap");
        std::fs::write(&path, b"garbage that is not a capture").unwrap();
        let mut src = FollowFile::new(&path);
        assert!(src.poll().unwrap().is_empty());
        let t = corpus::build_trace(Protocol::Ntp, 10, 2);
        std::fs::write(&path, pcap::write_to_vec(&t).unwrap()).unwrap();
        assert_eq!(src.poll().unwrap().len(), 10);
        std::fs::remove_file(&path).ok();
    }

    /// A small capture as a pcap and as a pcapng image, with the
    /// messages a reader recovers from the whole image.
    fn capture_images() -> Vec<(&'static str, Vec<u8>, Vec<Message>)> {
        let trace = corpus::build_trace(Protocol::Dns, 8, 23);
        [
            ("pcap", pcap::write_to_vec(&trace).unwrap()),
            ("pcapng", pcapng::write_to_vec(&trace).unwrap()),
        ]
        .into_iter()
        .map(|(format, image)| {
            let messages = pcapng::read_any(&image, "capture").unwrap().into_messages();
            assert_eq!(messages.len(), trace.len(), "{format}");
            (format, image, messages)
        })
        .collect()
    }

    /// Checks one delivery against the whole capture's messages: only
    /// whole records, in order, none delivered twice.
    fn check_delivery(got: &[Message], delivered: &mut Vec<Message>, all: &[Message], at: &str) {
        for m in got {
            let i = delivered.len();
            assert!(i < all.len(), "{at}: delivered past the capture");
            assert_eq!(m, &all[i], "{at}: message {i} is not the whole record");
            delivered.push(m.clone());
        }
    }

    #[test]
    fn a_write_torn_at_any_offset_delivers_whole_records_once() {
        for (format, image, all) in capture_images() {
            let path = temp_path(&format!("torn-once.{format}"));
            for cut in 0..=image.len() {
                let at = format!("{format} torn at {cut}");
                let mut src = FollowFile::new(&path);
                let mut delivered = Vec::new();
                std::fs::write(&path, &image[..cut]).unwrap();
                check_delivery(&src.poll().unwrap(), &mut delivered, &all, &at);
                std::fs::write(&path, &image).unwrap();
                check_delivery(&src.poll().unwrap(), &mut delivered, &all, &at);
                assert!(src.poll().unwrap().is_empty(), "{at}: nothing new");
                assert_eq!(delivered, all, "{at}");
                assert_eq!(src.delivered(), all.len(), "{at}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_file_growing_byte_by_byte_delivers_whole_records_once() {
        for (format, image, all) in capture_images() {
            let path = temp_path(&format!("torn-growing.{format}"));
            let mut src = FollowFile::new(&path);
            let mut delivered = Vec::new();
            for end in 0..=image.len() {
                std::fs::write(&path, &image[..end]).unwrap();
                let at = format!("{format} grown to {end}");
                check_delivery(&src.poll().unwrap(), &mut delivered, &all, &at);
            }
            assert_eq!(delivered, all, "{format}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn socket_feed_frames_messages() {
        let mut feed = SocketFeed::bind("127.0.0.1:0").unwrap();
        let addr = feed.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        for payload in [&b"hello"[..], &b"world!"[..]] {
            client
                .write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            client.write_all(payload).unwrap();
        }
        client.flush().unwrap();
        // Nonblocking accept/read may need a couple of polls.
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(feed.poll().unwrap());
            if got.len() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload().as_slice(), b"hello");
        assert_eq!(got[1].payload().as_slice(), b"world!");
        assert_eq!(got[0].timestamp_micros(), 0);
        assert_eq!(got[1].timestamp_micros(), 1);

        // A partial frame stays buffered until completed.
        client.write_all(&5u32.to_le_bytes()).unwrap();
        client.write_all(b"ab").unwrap();
        client.flush().unwrap();
        for _ in 0..20 {
            assert!(feed.poll().unwrap().is_empty());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        client.write_all(b"cde").unwrap();
        client.flush().unwrap();
        let mut tail = Vec::new();
        for _ in 0..100 {
            tail.extend(feed.poll().unwrap());
            if !tail.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].payload().as_slice(), b"abcde");
    }
}
