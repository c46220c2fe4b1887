//! Extension experiment: message type identification (NEMETYL-style,
//! the paper's reference \[10\]) over the same corpus, from ground-truth
//! segments and from NEMESYS segments.
//!
//! Not a table in the DSN-W 2022 paper — the paper defers message-type
//! clustering to prior work — but the companion analysis completes the
//! inference stack and exercises the same dissimilarity machinery.
//!
//! Per protocol it also times the message-matrix build alone (the
//! alignment of every message pair over NEMESYS segments, one thread,
//! best of [`ALIGN_REPS`] builds) and upserts it into
//! `BENCH_trajectory.json` as `msgtype_align{proto=..}`; each record's
//! peak RSS is the process high-water mark up to that protocol. Before
//! the protocols it times the same build over 400 NTP messages cut into
//! 4-byte chunks (about 1.7k unique segments, numbered by first
//! occurrence), recorded as `msgtype_align{proto=ntp,seg=fixed}`.
//!
//! Run with: `cargo run --release -p bench --bin msgtype`

use std::time::{Duration, Instant};

use evalkit::{pair_counts, ClusterMetrics};
use fieldclust::msgtype::{identify_message_types, MessageTypeConfig};
use fieldclust::truth::truth_segmentation;
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use protocols::{corpus, Protocol, ProtocolSpec};
use segment::fixed::FixedChunks;
use segment::nemesys::Nemesys;
use segment::{Segmenter, TraceSegmentation};
use serde::Serialize;
use trace::Trace;

/// Message-matrix builds per protocol; the fastest one is recorded.
const ALIGN_REPS: usize = 7;

/// Messages of the fixed-width NTP alignment timing.
const FIXED_NTP_MESSAGES: usize = 400;

#[derive(Serialize)]
struct MsgTypeRow {
    protocol: String,
    messages: usize,
    segmentation: String,
    true_types: usize,
    found_clusters: u32,
    precision: f64,
    recall: f64,
    f_score: f64,
}

/// Best-of-[`ALIGN_REPS`] wall of the message-matrix build alone: the
/// segment matrix it substitutes from is built beforehand, and every
/// timed build starts from a clone of that session.
fn time_alignment(trace: &Trace, seg: &TraceSegmentation) -> Option<Duration> {
    let config = FieldTypeClusterer {
        threads: 1,
        ..FieldTypeClusterer::default()
    };
    let gap = MessageTypeConfig::default().gap_penalty;
    let mut base = AnalysisSession::new(trace, config);
    base.set_segmentation(seg.clone());
    base.segment_matrix().ok()?;
    let mut best = Duration::MAX;
    for _ in 0..ALIGN_REPS {
        let mut session = base.clone();
        let start = Instant::now();
        std::hint::black_box(session.message_matrix(gap).ok()?);
        best = best.min(start.elapsed());
    }
    Some(best)
}

fn main() {
    let mut rows: Vec<MsgTypeRow> = Vec::new();
    let mut align: Vec<(String, usize, Duration)> = Vec::new();
    let ntp = corpus::build_trace(Protocol::Ntp, FIXED_NTP_MESSAGES, 1);
    let fixed_seg = FixedChunks::default()
        .segment_trace(&ntp)
        .expect("fixed chunking never fails");
    let fixed_align = time_alignment(&ntp, &fixed_seg);
    if let Some(wall) = fixed_align {
        bench::append_trajectory("msgtype_align{proto=ntp,seg=fixed}", wall);
    }
    println!("MESSAGE TYPE IDENTIFICATION (extension; cf. NEMETYL [10])");
    println!("proto  msgs  segm     types found   P     R     F1/4");
    for spec in corpus::small_specs() {
        // AU's huge reports make the segment matrix heavy; the small set
        // is ample for message-type identification.
        let trace = spec.build();
        let gt = corpus::ground_truth(spec.protocol, &trace);
        let types: Vec<&'static str> = trace
            .iter()
            .map(|m| {
                spec.protocol
                    .message_type(m.payload())
                    .expect("corpus parses")
            })
            .collect();
        let n_types = types.iter().collect::<std::collections::HashSet<_>>().len();

        let truth_seg = truth_segmentation(&trace, &gt);
        let nem_seg = Nemesys::default()
            .segment_trace(&trace)
            .expect("nemesys never fails");
        if let Some(wall) = time_alignment(&trace, &nem_seg) {
            // Recorded now, so its peak RSS covers this protocol and the
            // ones before it, not the whole run.
            bench::append_trajectory(&format!("msgtype_align{{proto={}}}", spec.protocol), wall);
            align.push((spec.protocol.to_string(), spec.messages, wall));
        }
        for (name, seg) in [("truth", &truth_seg), ("nemesys", &nem_seg)] {
            let result = match identify_message_types(&trace, seg, &MessageTypeConfig::default()) {
                Ok(r) => r,
                Err(e) => {
                    println!(
                        "{:6} {:5} {:8} failed: {e}",
                        spec.protocol, spec.messages, name
                    );
                    continue;
                }
            };
            let clusters: Vec<Vec<&str>> = result
                .clustering
                .clusters()
                .iter()
                .map(|members| members.iter().map(|&m| types[m]).collect())
                .collect();
            let noise: Vec<&str> = result
                .clustering
                .noise()
                .iter()
                .map(|&m| types[m])
                .collect();
            let m = ClusterMetrics::from_counts(&pair_counts(&clusters, &noise));
            println!(
                "{:6} {:5} {:8} {:4} {:6} {:5.2} {:5.2} {:5.2}",
                spec.protocol,
                spec.messages,
                name,
                n_types,
                result.clustering.n_clusters(),
                m.precision,
                m.recall,
                m.f_score
            );
            rows.push(MsgTypeRow {
                protocol: spec.protocol.to_string(),
                messages: spec.messages,
                segmentation: name.to_string(),
                true_types: n_types,
                found_clusters: result.clustering.n_clusters(),
                precision: m.precision,
                recall: m.recall,
                f_score: m.f_score,
            });
        }
    }
    bench::dump_json("target/msgtype.json", &rows);

    println!("\nMESSAGE-MATRIX BUILD (NEMESYS segments, 1 thread, best of {ALIGN_REPS})");
    println!("proto  msgs   build ms");
    for (proto, messages, wall) in &align {
        println!("{proto:6} {messages:5} {:10.3}", wall.as_secs_f64() * 1e3);
    }
    if let Some(wall) = fixed_align {
        println!(
            "ntp    {FIXED_NTP_MESSAGES:5} {:10.3}  (fixed 4-byte segments)",
            wall.as_secs_f64() * 1e3
        );
    }
}
