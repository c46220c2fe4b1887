//! Seeded input generation: synthetic protocol traces from the
//! `protocols` generators, encoded as pcap capture bytes — the form a
//! user hands the program.

use protocols::{corpus, Protocol};
use trace::{Message, Trace};

/// Capture bytes of `n` unique `protocol` messages generated from
/// `seed`.
pub fn capture(protocol: Protocol, n: usize, seed: u64) -> Vec<u8> {
    encode(&corpus::build_trace(protocol, n, seed))
}

/// Encodes a trace as pcap bytes.
pub fn encode(trace: &Trace) -> Vec<u8> {
    trace::pcap::write_to_vec(trace).expect("in-memory pcap encoding cannot fail")
}

/// `n` unique `protocol` messages, generated from `seed` and carried
/// through the pcap encoding, so pushed batches are what a capture
/// reader would deliver.
pub fn captured_messages(protocol: Protocol, n: usize, seed: u64) -> Vec<Message> {
    let bytes = capture(protocol, n, seed);
    trace::pcapng::read_any(&bytes, "capture")
        .expect("generated capture parses")
        .messages()
        .to_vec()
}
