//! TCP stream reassembly and message framing.
//!
//! The paper's SMB trace consists of application messages, but a raw
//! capture delivers TCP *segments*, which may split one SMB message
//! across several packets or coalesce several into one. This module
//! rebuilds application messages: segments are grouped per directed
//! flow, concatenated in capture order, and cut back into messages by a
//! protocol [`Framer`] (for SMB: the NetBIOS session service length
//! header). Non-TCP messages pass through untouched.

use crate::{Message, Trace, Transport};
use bytes::Bytes;
use std::collections::HashMap;

/// Decides where application messages end within a reassembled stream.
pub trait Framer {
    /// Inspects the beginning of `buf` and reports whether a complete
    /// frame is present.
    fn frame_len(&self, buf: &[u8]) -> FrameStatus;
}

/// Result of a framing probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// The buffer does not yet hold a complete header/frame.
    NeedMore,
    /// A complete frame of this many bytes starts at offset 0.
    Complete(usize),
    /// The buffer cannot be a valid frame (resynchronization needed).
    Invalid,
}

/// Framer for the NetBIOS session service (SMB over TCP 445/139):
/// 1 type byte + 24-bit big-endian length.
#[derive(Debug, Clone, Copy, Default)]
pub struct NbssFramer;

impl Framer for NbssFramer {
    fn frame_len(&self, buf: &[u8]) -> FrameStatus {
        if buf.len() < 4 {
            return FrameStatus::NeedMore;
        }
        // Session message (0x00) or keep-alive (0x85).
        if buf[0] != 0x00 && buf[0] != 0x85 {
            return FrameStatus::Invalid;
        }
        let len = usize::from(buf[1]) << 16 | usize::from(buf[2]) << 8 | usize::from(buf[3]);
        let total = 4 + len;
        if buf.len() < total {
            FrameStatus::NeedMore
        } else {
            FrameStatus::Complete(total)
        }
    }
}

/// Framer for protocols whose messages arrive one-per-segment already
/// (no reassembly): every non-empty buffer is one frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityFramer;

impl Framer for IdentityFramer {
    fn frame_len(&self, buf: &[u8]) -> FrameStatus {
        if buf.is_empty() {
            FrameStatus::NeedMore
        } else {
            FrameStatus::Complete(buf.len())
        }
    }
}

/// Statistics of a reassembly run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReassemblyStats {
    /// TCP segments consumed.
    pub segments_in: usize,
    /// Application messages produced from TCP streams.
    pub messages_out: usize,
    /// Bytes discarded during resynchronization after an invalid frame.
    pub resync_bytes: u64,
    /// Bytes left over in unterminated streams at end of capture.
    pub trailing_bytes: u64,
}

/// Reassembles the TCP messages of a trace into application messages.
///
/// Segments are grouped by directed flow (source, destination) and
/// processed in capture order; each completed frame becomes a message
/// stamped with the time of the segment that completed it. After an
/// invalid frame the stream resynchronizes by skipping one byte at a
/// time (counted in [`ReassemblyStats::resync_bytes`]); a framer's
/// `Complete(0)` counts as invalid, so no probe can stall the stream.
/// Non-TCP messages are passed through unchanged; the output is sorted
/// by timestamp.
///
/// Each segment costs time linear in its bytes plus the flow's
/// unconsumed tail: frames and skipped bytes advance a read cursor, and
/// the flow buffer is compacted once per segment.
pub fn reassemble(trace: &Trace, framer: &dyn Framer) -> (Trace, ReassemblyStats) {
    let mut stats = ReassemblyStats::default();
    let mut out: Vec<Message> = Vec::with_capacity(trace.len());
    // Directed flow -> unconsumed stream bytes.
    let mut streams: HashMap<(crate::Endpoint, crate::Endpoint), Vec<u8>> = HashMap::new();

    for msg in trace {
        if msg.transport() != Transport::Tcp {
            out.push(msg.clone());
            continue;
        }
        stats.segments_in += 1;
        let buf = streams
            .entry((msg.source(), msg.destination()))
            .or_default();
        buf.extend_from_slice(msg.payload());
        // Cut every complete frame, then drop what was consumed.
        let mut at = 0;
        while at < buf.len() {
            match framer.frame_len(&buf[at..]) {
                FrameStatus::NeedMore => break,
                FrameStatus::Complete(len) if len > 0 => {
                    out.push(
                        Message::builder(Bytes::copy_from_slice(&buf[at..at + len]))
                            .timestamp_micros(msg.timestamp_micros())
                            .source(msg.source())
                            .destination(msg.destination())
                            .transport(Transport::Tcp)
                            .direction(msg.direction())
                            .build(),
                    );
                    stats.messages_out += 1;
                    at += len;
                }
                FrameStatus::Complete(_) | FrameStatus::Invalid => {
                    at += 1;
                    stats.resync_bytes += 1;
                }
            }
        }
        buf.drain(..at);
    }
    for buf in streams.into_values() {
        stats.trailing_bytes += buf.len() as u64;
    }
    out.sort_by_key(Message::timestamp_micros);
    (Trace::new(trace.name(), out), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endpoint;
    use proptest::prelude::*;

    fn tcp_msg(payload: Vec<u8>, ts: u64, sport: u16) -> Message {
        Message::builder(Bytes::from(payload))
            .timestamp_micros(ts)
            .source(Endpoint::udp([10, 0, 0, 1], sport))
            .destination(Endpoint::udp([10, 0, 0, 2], 445))
            .transport(Transport::Tcp)
            .build()
    }

    fn nbss_frame(body: &[u8]) -> Vec<u8> {
        let mut f = vec![0u8];
        f.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn split_message_is_reassembled() {
        let frame = nbss_frame(b"hello smb world");
        let (a, b) = frame.split_at(7);
        let t = Trace::new(
            "t",
            vec![tcp_msg(a.to_vec(), 1, 1000), tcp_msg(b.to_vec(), 2, 1000)],
        );
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 1);
        assert_eq!(&out.messages()[0].payload()[..], &frame[..]);
        assert_eq!(stats.messages_out, 1);
        assert_eq!(stats.segments_in, 2);
        assert_eq!(stats.trailing_bytes, 0);
    }

    #[test]
    fn coalesced_messages_are_split() {
        let mut blob = nbss_frame(b"first");
        blob.extend_from_slice(&nbss_frame(b"second message"));
        let t = Trace::new("t", vec![tcp_msg(blob, 5, 1000)]);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.messages_out, 2);
        assert_eq!(&out.messages()[0].payload()[4..], b"first");
        assert_eq!(&out.messages()[1].payload()[4..], b"second message");
    }

    #[test]
    fn flows_are_kept_apart() {
        let f1 = nbss_frame(b"flow one");
        let f2 = nbss_frame(b"flow two");
        let t = Trace::new(
            "t",
            vec![
                tcp_msg(f1[..5].to_vec(), 1, 1000),
                tcp_msg(f2[..5].to_vec(), 2, 2000),
                tcp_msg(f1[5..].to_vec(), 3, 1000),
                tcp_msg(f2[5..].to_vec(), 4, 2000),
            ],
        );
        let (out, _) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 2);
        let payloads: Vec<&[u8]> = out.iter().map(|m| &m.payload()[4..]).collect();
        assert!(payloads.contains(&&b"flow one"[..]));
        assert!(payloads.contains(&&b"flow two"[..]));
    }

    #[test]
    fn invalid_prefix_resynchronizes() {
        let mut blob = vec![0xFF, 0xFF, 0xFF]; // garbage before the frame
        blob.extend_from_slice(&nbss_frame(b"recovered"));
        let t = Trace::new("t", vec![tcp_msg(blob, 1, 1000)]);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 1);
        assert_eq!(&out.messages()[0].payload()[4..], b"recovered");
        assert_eq!(stats.resync_bytes, 3);
    }

    #[test]
    fn incomplete_trailing_frame_is_counted() {
        let frame = nbss_frame(b"never finished");
        let t = Trace::new("t", vec![tcp_msg(frame[..6].to_vec(), 1, 1000)]);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert!(out.is_empty());
        assert_eq!(stats.trailing_bytes, 6);
    }

    #[test]
    fn non_tcp_messages_pass_through() {
        let udp = Message::builder(Bytes::from_static(b"udp payload"))
            .timestamp_micros(9)
            .build();
        let t = Trace::new("t", vec![udp.clone()]);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 1);
        assert_eq!(out.messages()[0], udp);
        assert_eq!(stats.segments_in, 0);
    }

    #[test]
    fn smb_corpus_roundtrips_through_segment_splitting() {
        // Split every generated SMB message into 3-byte TCP segments and
        // verify reassembly restores the original messages exactly.
        use protocols_like_smb::*;
        let originals = smb_like_messages();
        let mut segments = Vec::new();
        let mut ts = 0u64;
        for m in &originals {
            for chunk in m.chunks(3) {
                ts += 1;
                segments.push(tcp_msg(chunk.to_vec(), ts, 1000));
            }
        }
        let t = Trace::new("t", segments);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), originals.len());
        for (o, m) in originals.iter().zip(out.iter()) {
            assert_eq!(&m.payload()[..], &o[..]);
        }
        assert_eq!(stats.resync_bytes, 0);
    }

    /// Tiny local stand-in (the real SMB generator lives in the
    /// `protocols` crate, which depends on this crate).
    mod protocols_like_smb {
        use super::nbss_frame;

        pub fn smb_like_messages() -> Vec<Vec<u8>> {
            vec![
                nbss_frame(b"\xffSMBr first body"),
                nbss_frame(b"\xffSMBs second body, somewhat longer"),
                nbss_frame(b"\xffSMBu third"),
            ]
        }
    }

    /// The reassembly loop as it stood before the read cursor: one
    /// `remove(0)` per skipped byte and one front `drain` per frame.
    /// Kept as the oracle for the cursor version's output.
    fn reassemble_by_front_removal(trace: &Trace, framer: &dyn Framer) -> (Trace, ReassemblyStats) {
        let mut stats = ReassemblyStats::default();
        let mut out: Vec<Message> = Vec::new();
        let mut streams: HashMap<(Endpoint, Endpoint), Vec<u8>> = HashMap::new();
        for msg in trace {
            if msg.transport() != Transport::Tcp {
                out.push(msg.clone());
                continue;
            }
            stats.segments_in += 1;
            let buf = streams
                .entry((msg.source(), msg.destination()))
                .or_default();
            buf.extend_from_slice(msg.payload());
            loop {
                match framer.frame_len(buf) {
                    FrameStatus::NeedMore => break,
                    FrameStatus::Complete(len) => {
                        let frame: Vec<u8> = buf.drain(..len).collect();
                        out.push(
                            Message::builder(Bytes::from(frame))
                                .timestamp_micros(msg.timestamp_micros())
                                .source(msg.source())
                                .destination(msg.destination())
                                .transport(Transport::Tcp)
                                .direction(msg.direction())
                                .build(),
                        );
                        stats.messages_out += 1;
                    }
                    FrameStatus::Invalid => {
                        buf.remove(0);
                        stats.resync_bytes += 1;
                    }
                }
            }
        }
        for buf in streams.into_values() {
            stats.trailing_bytes += buf.len() as u64;
        }
        out.sort_by_key(Message::timestamp_micros);
        (Trace::new(trace.name(), out), stats)
    }

    /// One flow's stream: valid NBSS frames (session messages and
    /// keep-alives) interleaved with runs of arbitrary bytes.
    fn hostile_stream() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..24)),
            0..12,
        )
        .prop_map(|pieces| {
            let mut stream = Vec::new();
            for (frame, bytes) in pieces {
                if frame {
                    stream.extend(nbss_frame(&bytes));
                } else {
                    stream.extend(bytes);
                }
            }
            stream
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn hostile_streams_reassemble_like_the_oracle(
            flows in prop::collection::vec(hostile_stream(), 1..4),
            cuts in prop::collection::vec((0usize..4, 1usize..40), 0..48),
            udp_every in 0usize..5,
        ) {
            // Cut the flows into segments round by round: each step
            // takes up to `len` bytes from flow `f`, and the rest of
            // every flow follows at the end.
            let mut rest: Vec<&[u8]> = flows.iter().map(Vec::as_slice).collect();
            let mut segments = Vec::new();
            let mut ts = 0u64;
            let mut push = |flow: usize, bytes: &[u8], segments: &mut Vec<Message>| {
                ts += 1;
                segments.push(tcp_msg(bytes.to_vec(), ts, 1000 + flow as u16));
                if udp_every > 0 && (ts as usize).is_multiple_of(udp_every) {
                    ts += 1;
                    let udp = Message::builder(Bytes::copy_from_slice(bytes))
                        .timestamp_micros(ts)
                        .build();
                    segments.push(udp);
                }
            };
            for (f, len) in cuts {
                let f = f % rest.len();
                let (head, tail) = rest[f].split_at(len.min(rest[f].len()));
                push(f, head, &mut segments);
                rest[f] = tail;
            }
            for (f, tail) in rest.iter().enumerate() {
                push(f, tail, &mut segments);
            }
            let t = Trace::new("hostile", segments);
            let tcp_in: usize = t
                .iter()
                .filter(|m| m.transport() == Transport::Tcp)
                .map(|m| m.payload().len())
                .sum();
            for framer in [&NbssFramer as &dyn Framer, &IdentityFramer] {
                let (got, stats) = reassemble(&t, framer);
                let (want, want_stats) = reassemble_by_front_removal(&t, framer);
                prop_assert_eq!(got.messages(), want.messages());
                prop_assert_eq!(stats, want_stats);
                let tcp_out: usize = got
                    .iter()
                    .filter(|m| m.transport() == Transport::Tcp)
                    .map(|m| m.payload().len())
                    .sum();
                prop_assert!(tcp_out <= tcp_in, "{} bytes out of {}", tcp_out, tcp_in);
                prop_assert_eq!(
                    tcp_out as u64 + stats.resync_bytes + stats.trailing_bytes,
                    tcp_in as u64
                );
            }
        }
    }

    /// Claims an empty frame at every `0x00`, else needs more bytes.
    struct EmptyFrames;

    impl Framer for EmptyFrames {
        fn frame_len(&self, buf: &[u8]) -> FrameStatus {
            match buf.first() {
                Some(0) => FrameStatus::Complete(0),
                Some(_) => FrameStatus::Invalid,
                None => FrameStatus::NeedMore,
            }
        }
    }

    #[test]
    fn empty_frames_resynchronize_instead_of_stalling() {
        let t = Trace::new("t", vec![tcp_msg(vec![0, 7, 0, 0], 1, 1000)]);
        let (out, stats) = reassemble(&t, &EmptyFrames);
        assert!(out.is_empty());
        assert_eq!(stats.resync_bytes, 4);
        assert_eq!(stats.trailing_bytes, 0);
    }

    #[test]
    fn a_large_garbage_segment_resynchronizes_in_one_pass() {
        // 1 MiB without a valid NBSS type byte, then one frame: every
        // garbage byte is skipped once, with no per-byte buffer shift.
        let mut blob = vec![0xFF; 1 << 20];
        blob.extend_from_slice(&nbss_frame(b"after the garbage"));
        let t = Trace::new("t", vec![tcp_msg(blob, 1, 1000)]);
        let (out, stats) = reassemble(&t, &NbssFramer);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.resync_bytes, 1 << 20);
    }

    #[test]
    fn identity_framer_passes_segments() {
        let t = Trace::new("t", vec![tcp_msg(b"abc".to_vec(), 1, 1000)]);
        let (out, _) = reassemble(&t, &IdentityFramer);
        assert_eq!(out.len(), 1);
        assert_eq!(&out.messages()[0].payload()[..], b"abc");
    }
}
