//! Unique-segment bookkeeping between segmentation and clustering.
//!
//! The clustering operates on *unique* segment values (paper §III-C:
//! "duplicate segment values [are considered] only once since they
//! increase the computational load without adding new information") and
//! excludes one-byte segments, whose coincidental similarity would
//! drown the analysis. This module collects segment instances from a
//! segmentation, groups them by value, and remembers where each value
//! occurred so that results can be mapped back onto messages.

use segment::TraceSegmentation;
use std::collections::HashMap;
use std::ops::Range;
use trace::Trace;

/// One occurrence of a segment value in a message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SegmentInstance {
    /// Index of the message within the trace.
    pub message: usize,
    /// Byte range within that message's payload.
    pub range: Range<usize>,
}

/// A unique segment value and all places it occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueSegment {
    /// The byte value.
    pub value: Vec<u8>,
    /// All occurrences, in trace order.
    pub instances: Vec<SegmentInstance>,
}

impl UniqueSegment {
    /// Number of occurrences (the occurrence count used by the cluster
    /// split heuristic).
    pub fn occurrences(&self) -> usize {
        self.instances.len()
    }
}

/// The deduplicated segments of a trace, split into clusterable segments
/// (length ≥ `min_len`) and excluded short ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStore {
    /// Unique segments that participate in clustering, in first-
    /// occurrence order (clustering item `i` is `segments[i]`).
    pub segments: Vec<UniqueSegment>,
    /// Unique segments excluded for being shorter than `min_len`; the
    /// paper re-incorporates these via separate analyses later.
    pub excluded: Vec<UniqueSegment>,
}

impl SegmentStore {
    /// Collects unique segments from a segmentation of `trace`,
    /// excluding values shorter than `min_len` from clustering.
    ///
    /// # Panics
    ///
    /// Panics if the segmentation does not match the trace (different
    /// message counts — a programming error upstream).
    pub fn collect(trace: &Trace, segmentation: &TraceSegmentation, min_len: usize) -> Self {
        assert_eq!(
            trace.len(),
            segmentation.messages.len(),
            "segmentation must cover the trace"
        );
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut all: Vec<UniqueSegment> = Vec::new();
        for (mi, (msg, segs)) in trace.iter().zip(&segmentation.messages).enumerate() {
            for r in segs.ranges() {
                let value = msg.payload()[r.clone()].to_vec();
                let entry = index.entry(value.clone()).or_insert_with(|| {
                    all.push(UniqueSegment {
                        value,
                        instances: Vec::new(),
                    });
                    all.len() - 1
                });
                all[*entry].instances.push(SegmentInstance {
                    message: mi,
                    range: r.clone(),
                });
            }
        }
        let (segments, excluded) = all.into_iter().partition(|s| s.value.len() >= min_len);
        Self { segments, excluded }
    }

    /// The clusterable segments' values, parallel to `segments`.
    pub fn values(&self) -> Vec<&[u8]> {
        self.segments.iter().map(|s| &s.value[..]).collect()
    }

    /// The values of every unique segment, clusterable ones first:
    /// `segments ++ excluded`. Message typing numbers segments in this
    /// order, so clustering item `i` is segment `i` there too, and a
    /// matrix over these values holds the matrix over
    /// [`values`](Self::values) as its leading block.
    pub fn all_values(&self) -> Vec<&[u8]> {
        self.segments
            .iter()
            .chain(&self.excluded)
            .map(|s| &s.value[..])
            .collect()
    }

    /// Occurrence counts of the clusterable segments, parallel to
    /// `segments`.
    pub fn occurrence_counts(&self) -> Vec<usize> {
        self.segments
            .iter()
            .map(UniqueSegment::occurrences)
            .collect()
    }

    /// Total bytes covered by the clusterable segments' instances.
    pub fn clusterable_instance_bytes(&self) -> u64 {
        self.segments
            .iter()
            .flat_map(|s| s.instances.iter())
            .map(|i| i.range.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use segment::MessageSegments;
    use trace::Message;

    fn setup() -> (Trace, TraceSegmentation) {
        let msgs = vec![
            Message::builder(Bytes::from_static(b"\x01\x02AB\x01\x02")).build(),
            Message::builder(Bytes::from_static(b"\x01\x02CD\x09")).build(),
        ];
        let trace = Trace::new("t", msgs);
        let seg = TraceSegmentation {
            messages: vec![
                MessageSegments::from_cuts(6, &[2, 4]), // 0102 | AB | 0102
                MessageSegments::from_cuts(5, &[2, 4]), // 0102 | CD | 09
            ],
        };
        (trace, seg)
    }

    #[test]
    fn deduplicates_values() {
        let (trace, seg) = setup();
        let store = SegmentStore::collect(&trace, &seg, 2);
        // Unique clusterable values: 0102 (x3), AB, CD.
        assert_eq!(store.segments.len(), 3);
        let v0102 = store
            .segments
            .iter()
            .find(|s| s.value == b"\x01\x02")
            .unwrap();
        assert_eq!(v0102.occurrences(), 3);
    }

    #[test]
    fn excludes_short_segments() {
        let (trace, seg) = setup();
        let store = SegmentStore::collect(&trace, &seg, 2);
        assert_eq!(store.excluded.len(), 1);
        assert_eq!(store.excluded[0].value, b"\x09");
    }

    #[test]
    fn instances_point_back_into_messages() {
        let (trace, seg) = setup();
        let store = SegmentStore::collect(&trace, &seg, 2);
        for s in &store.segments {
            for inst in &s.instances {
                let payload = trace.messages()[inst.message].payload();
                assert_eq!(&payload[inst.range.clone()], &s.value[..]);
            }
        }
    }

    #[test]
    fn occurrence_counts_parallel_segments() {
        let (trace, seg) = setup();
        let store = SegmentStore::collect(&trace, &seg, 2);
        let counts = store.occurrence_counts();
        assert_eq!(counts.len(), store.segments.len());
        assert_eq!(counts.iter().sum::<usize>(), 5); // 3 + 1 + 1 instances
    }

    #[test]
    fn instance_bytes() {
        let (trace, seg) = setup();
        let store = SegmentStore::collect(&trace, &seg, 2);
        // 0102 x3 = 6 bytes, AB = 2, CD = 2 -> 10.
        assert_eq!(store.clusterable_instance_bytes(), 10);
    }

    #[test]
    #[should_panic(expected = "segmentation must cover")]
    fn mismatched_segmentation_panics() {
        let (trace, _) = setup();
        let seg = TraceSegmentation { messages: vec![] };
        SegmentStore::collect(&trace, &seg, 2);
    }
}
