//! Ground-truth adapters: dissector fields as a segmentation, and type
//! labels for arbitrary segments.
//!
//! The paper validates the clustering against "perfect segmentation from
//! Wireshark dissectors" (§IV-B); our [`protocols`] dissectors play that
//! role. For heuristic segments, whose boundaries rarely match true
//! fields exactly, a segment inherits the true type it overlaps the most
//! (weighted across all its instances).

use std::collections::BTreeMap;

use crate::segments::SegmentStore;
use protocols::{FieldKind, TrueField};
use segment::{MessageSegments, TraceSegmentation};
use trace::Trace;

/// Converts per-message ground-truth fields into a segmentation.
///
/// # Panics
///
/// Panics if `ground_truth` does not cover the trace or a message's
/// fields do not tile its payload — corpus traces always do.
pub fn truth_segmentation(trace: &Trace, ground_truth: &[Vec<TrueField>]) -> TraceSegmentation {
    assert_eq!(
        trace.len(),
        ground_truth.len(),
        "ground truth must cover the trace"
    );
    let messages = trace
        .iter()
        .zip(ground_truth)
        .map(|(msg, fields)| {
            let ranges = fields.iter().map(TrueField::range).collect();
            MessageSegments::from_ranges(msg.payload().len(), ranges)
        })
        .collect();
    TraceSegmentation { messages }
}

/// The dominant true [`FieldKind`] for one byte range of one message:
/// the kind whose fields overlap the range with the most bytes, ties
/// going to the kind declared first in [`FieldKind`].
///
/// Returns `None` when the range overlaps no field (cannot happen for
/// tiling ground truth).
pub fn dominant_kind(fields: &[TrueField], range: &std::ops::Range<usize>) -> Option<FieldKind> {
    let mut acc: BTreeMap<FieldKind, usize> = BTreeMap::new();
    for f in fields {
        let overlap_start = f.offset.max(range.start);
        let overlap_end = (f.offset + f.len).min(range.end);
        if overlap_end > overlap_start {
            *acc.entry(f.kind).or_insert(0) += overlap_end - overlap_start;
        }
    }
    majority(acc)
}

/// Labels every clusterable unique segment of a store with its dominant
/// true kind, majority-voted over all instances (byte-weighted), ties
/// going to the kind declared first in [`FieldKind`] — so the labels,
/// and every score computed from them, are the same on every run.
///
/// # Panics
///
/// Panics if an instance references a message without ground truth.
pub fn label_store(store: &SegmentStore, ground_truth: &[Vec<TrueField>]) -> Vec<FieldKind> {
    store
        .segments
        .iter()
        .map(|seg| {
            let mut votes: BTreeMap<FieldKind, usize> = BTreeMap::new();
            for inst in &seg.instances {
                let fields = &ground_truth[inst.message];
                if let Some(kind) = dominant_kind(fields, &inst.range) {
                    *votes.entry(kind).or_insert(0) += inst.range.len();
                }
            }
            majority(votes).expect("every instance overlaps ground-truth fields")
        })
        .collect()
}

/// The kind with the most votes; among equals, the smallest kind in
/// `FieldKind`'s order (the first one the ascending map yields).
fn majority(votes: BTreeMap<FieldKind, usize>) -> Option<FieldKind> {
    let mut best: Option<(FieldKind, usize)> = None;
    for (kind, v) in votes {
        if best.is_none_or(|(_, b)| v > b) {
            best = Some((kind, v));
        }
    }
    best.map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::{corpus, Protocol};

    #[test]
    fn truth_segmentation_matches_fields() {
        let t = corpus::build_trace(Protocol::Ntp, 20, 1);
        let gt = corpus::ground_truth(Protocol::Ntp, &t);
        let seg = truth_segmentation(&t, &gt);
        for (fields, segs) in gt.iter().zip(&seg.messages) {
            assert_eq!(fields.len(), segs.len());
            for (f, r) in fields.iter().zip(segs.ranges()) {
                assert_eq!(f.range(), *r);
            }
        }
    }

    #[test]
    fn dominant_kind_picks_majority_overlap() {
        let fields = vec![
            TrueField {
                offset: 0,
                len: 4,
                kind: FieldKind::Timestamp,
                name: "ts",
            },
            TrueField {
                offset: 4,
                len: 2,
                kind: FieldKind::UInt,
                name: "u",
            },
        ];
        // Range covering 3 timestamp bytes and 1 uint byte.
        assert_eq!(dominant_kind(&fields, &(1..5)), Some(FieldKind::Timestamp));
        // Range inside the uint.
        assert_eq!(dominant_kind(&fields, &(4..6)), Some(FieldKind::UInt));
        // Range beyond all fields.
        assert_eq!(dominant_kind(&fields, &(6..8)), None);
    }

    #[test]
    fn exact_segments_get_exact_labels() {
        let t = corpus::build_trace(Protocol::Ntp, 30, 2);
        let gt = corpus::ground_truth(Protocol::Ntp, &t);
        let seg = truth_segmentation(&t, &gt);
        let store = SegmentStore::collect(&t, &seg, 2);
        let labels = label_store(&store, &gt);
        assert_eq!(labels.len(), store.segments.len());
        // NTP ground truth contains timestamps; they must be labelled so.
        let has_ts = labels.contains(&FieldKind::Timestamp);
        assert!(has_ts);
    }

    #[test]
    fn vote_ties_break_on_field_kind_order() {
        let field = |offset, len, kind| TrueField {
            offset,
            len,
            kind,
            name: "f",
        };
        // Two bytes of timestamp, two of uint: a tie, which goes to the
        // kind declared first (UInt before Timestamp).
        let fields = vec![
            field(0, 2, FieldKind::Timestamp),
            field(2, 2, FieldKind::UInt),
        ];
        for _ in 0..16 {
            assert_eq!(dominant_kind(&fields, &(0..4)), Some(FieldKind::UInt));
        }
        // One unique segment whose two instances vote 4 bytes each for
        // different kinds.
        let gt = vec![
            vec![field(0, 4, FieldKind::Timestamp)],
            vec![field(0, 4, FieldKind::Id)],
        ];
        let store = SegmentStore {
            segments: vec![crate::segments::UniqueSegment {
                value: vec![1, 2, 3, 4],
                instances: vec![
                    crate::segments::SegmentInstance {
                        message: 0,
                        range: 0..4,
                    },
                    crate::segments::SegmentInstance {
                        message: 1,
                        range: 0..4,
                    },
                ],
            }],
            excluded: Vec::new(),
        };
        for _ in 0..16 {
            assert_eq!(label_store(&store, &gt), vec![FieldKind::Id]);
        }
    }

    #[test]
    #[should_panic(expected = "ground truth must cover")]
    fn mismatched_ground_truth_panics() {
        let t = corpus::build_trace(Protocol::Ntp, 5, 3);
        truth_segmentation(&t, &[]);
    }
}
