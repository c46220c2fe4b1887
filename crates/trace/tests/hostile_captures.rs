//! Capture parsers never panic: every prefix of a written pcap and
//! pcapng image, and random single-byte mutations of them, parse to a
//! trace or a typed `TraceError`.

use bytes::Bytes;
use proptest::prelude::*;
use trace::{pcap, pcapng, Endpoint, Message, Trace, TraceError, Transport};

fn sample_trace() -> Trace {
    let mk = |payload: &'static [u8], ts: u64, transport: Transport| {
        let (src, dst) = match transport {
            Transport::Link => (
                Endpoint::mac([2, 0, 0, 0, 0, 9]),
                Endpoint::mac([2, 0, 0, 0, 0, 8]),
            ),
            _ => (
                Endpoint::udp([10, 1, 2, 3], 1234),
                Endpoint::udp([10, 9, 8, 7], 53),
            ),
        };
        Message::builder(Bytes::from_static(payload))
            .timestamp_micros(ts)
            .source(src)
            .destination(dst)
            .transport(transport)
            .build()
    };
    Trace::new(
        "hostile",
        vec![
            mk(b"\x12\x34\x01\x00\x00\x01query", 1_000_001, Transport::Udp),
            mk(b"tcp payload bytes", 2_000_002, Transport::Tcp),
            mk(b"link", 3_000_003, Transport::Link),
            mk(b"", 4_000_004, Transport::Udp),
        ],
    )
}

fn images() -> [(&'static str, Vec<u8>); 2] {
    let trace = sample_trace();
    [
        ("pcap", pcap::write_to_vec(&trace).expect("write pcap")),
        (
            "pcapng",
            pcapng::write_to_vec(&trace).expect("write pcapng"),
        ),
    ]
}

/// Parses `bytes` with the reader of `format`, through both entry
/// points; a panic fails the test, and any error is a `TraceError` by
/// type.
fn parse(format: &str, bytes: &[u8]) -> Result<Trace, TraceError> {
    let direct = match format {
        "pcap" => pcap::read_from_slice(bytes, "x"),
        _ => pcapng::read_from_slice(bytes, "x"),
    };
    let _ = pcapng::read_any(bytes, "x");
    direct
}

#[test]
fn intact_images_parse() {
    for (format, img) in images() {
        assert_eq!(parse(format, &img).expect(format).len(), 4, "{format}");
    }
}

#[test]
fn every_prefix_parses_or_errors() {
    for (format, img) in images() {
        for cut in 0..img.len() {
            let _ = parse(format, &img[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_byte_mutations_parse_or_error(
        pcapng_image in any::<bool>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let [(pcap_format, pcap_img), (ng_format, ng_img)] = images();
        let (format, mut img) = if pcapng_image {
            (ng_format, ng_img)
        } else {
            (pcap_format, pcap_img)
        };
        let i = at % img.len();
        img[i] = byte;
        let _ = parse(format, &img);
    }
}
