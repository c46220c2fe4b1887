//! The [`Persist`] trait and codecs for the pipeline's core artifacts,
//! and the [`Encode`] trait of what the store writes.
//!
//! Each artifact kind owns a one-byte tag (part of the file frame and of
//! every cache key) and a short file-name prefix. Decoders are strictly
//! validating: they re-check every structural invariant the in-memory
//! type relies on (cut ordering, condensed length, tree shape)
//! through the checked constructors, because a file that passes the
//! frame checksum can still have been written by a buggy or future
//! encoder. Any violation is `None` — a cache miss, never a panic.

use crate::codec::{Reader, Writer};
use cluster::{Clustering, Label, SelectedParams};
use dissim::strata::DEFAULT_PIVOTS;
use dissim::vptree::VpNode;
use dissim::{
    CondensedMatrix, DissimArtifact, MatrixTile, MatrixView, StrataIndex, Stratum, VpForest, VpTree,
};
use segment::{MessageSegments, TraceSegmentation};

/// An artifact kind: a stable one-byte tag plus a file-name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kind {
    tag: u8,
    name: &'static str,
}

impl Kind {
    /// A [`TraceSegmentation`] (per-message cut offsets).
    pub const SEGMENTATION: Kind = Kind {
        tag: 1,
        name: "seg",
    };
    /// A deduplicated segment store (unique values + instances).
    pub const SEGMENT_STORE: Kind = Kind {
        tag: 2,
        name: "segstore",
    };
    /// A [`DissimArtifact`] (its condensed matrix).
    pub const DISSIM: Kind = Kind {
        tag: 3,
        name: "dissim",
    };
    /// Auto-configured DBSCAN parameters ([`SelectedParams`]).
    pub const SELECTION: Kind = Kind {
        tag: 4,
        name: "select",
    };
    /// A bare [`Clustering`] (label per item).
    pub const CLUSTERING: Kind = Kind {
        tag: 5,
        name: "cluster",
    };
    /// The full clustering stage (selection + ε source + labels).
    pub const CLUSTER_STAGE: Kind = Kind {
        tag: 6,
        name: "stage",
    };
    /// The refined clustering (post merge/split).
    pub const REFINED: Kind = Kind {
        tag: 7,
        name: "refined",
    };
    /// A prefix manifest: `(item count, artifact key)` entries for one
    /// `(kind, parameters)` family, enabling incremental extension.
    pub const MANIFEST: Kind = Kind {
        tag: 8,
        name: "manifest",
    };
    /// One row-block tile of a tiled dissimilarity matrix
    /// ([`MatrixTile`]).
    pub const TILE: Kind = Kind {
        tag: 9,
        name: "tile",
    };
    /// One chunk tree of a vantage-point forest ([`VpTree`]). Trees now
    /// persist only inside a [`StrataIndex`] payload; nothing is stored
    /// under this kind any more, and tag 10 stays reserved so entries
    /// written when trees were stored on their own read as misses.
    pub const VPTREE: Kind = Kind {
        tag: 10,
        name: "vptree",
    };
    /// A length-stratified neighbor index ([`StrataIndex`]): per-length
    /// strata with local vantage-point forests and LAESA pivot rows.
    pub const STRATA: Kind = Kind {
        tag: 11,
        name: "strata",
    };
    /// An inferred protocol state machine (`statemachine::StateMachine`),
    /// keyed on the message-type clustering inputs so trace growth
    /// invalidates correctly.
    pub const FSM: Kind = Kind {
        tag: 12,
        name: "fsm",
    };

    /// The one-byte tag written into file frames and fed into keys.
    pub fn tag(self) -> u8 {
        self.tag
    }

    /// The file-name prefix (`<name>-<key hex>.bin`).
    pub fn name(self) -> &'static str {
        self.name
    }
}

/// A type that can be stored in and recovered from the artifact store.
///
/// `decode` must be total over arbitrary byte payloads: it returns
/// `None` for anything it did not write itself. It need not consume the
/// whole reader — the store checks [`Reader::is_at_end`] afterwards, so
/// trailing bytes also read as a miss.
pub trait Persist: Sized {
    /// The artifact kind this type serializes as.
    const KIND: Kind;

    /// Appends the encoded payload.
    fn encode(&self, w: &mut Writer);

    /// The encoded payload's length in bytes, or a lower bound: the
    /// store sizes a file's one buffer by it, so a large artifact is
    /// framed without regrowing (and transiently doubling) the buffer.
    fn payload_hint(&self) -> usize {
        0
    }

    /// Decodes a payload previously produced by [`encode`](Self::encode).
    fn decode(r: &mut Reader) -> Option<Self>;
}

/// What [`ArtifactStore::put`](crate::ArtifactStore::put) writes: an
/// encoding that decodes as a [`Persist`] artifact of kind
/// [`STORED_AS`](Self::STORED_AS). Every `Persist` artifact is one; a
/// borrowed [`MatrixView`] writes the [`DissimArtifact`] of its block,
/// so the leading block of a larger matrix is stored without being
/// copied out first.
pub trait Encode {
    /// The kind the payload decodes as.
    const STORED_AS: Kind;

    /// Appends the encoded payload.
    fn encode_payload(&self, w: &mut Writer);

    /// See [`Persist::payload_hint`].
    fn encoded_len_hint(&self) -> usize;
}

impl<T: Persist> Encode for T {
    const STORED_AS: Kind = T::KIND;

    fn encode_payload(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn encoded_len_hint(&self) -> usize {
        self.payload_hint()
    }
}

/// The [`DissimArtifact`] of the block's own matrix, written from the
/// block in place.
impl Encode for MatrixView<'_> {
    const STORED_AS: Kind = Kind::DISSIM;

    fn encode_payload(&self, w: &mut Writer) {
        encode_dissim(*self, w);
    }

    fn encoded_len_hint(&self) -> usize {
        matrix_payload_len(self.len()) + 1
    }
}

/// Encodes `value` as a bare payload (no file frame).
pub fn encode_payload<T: Persist>(value: &T) -> Vec<u8> {
    let mut w = Writer::with_capacity(value.payload_hint());
    value.encode(&mut w);
    w.into_inner()
}

/// Decodes a bare payload, requiring full consumption.
pub fn decode_payload<T: Persist>(payload: &[u8]) -> Option<T> {
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    if !r.is_at_end() {
        return None;
    }
    Some(value)
}

impl Persist for TraceSegmentation {
    const KIND: Kind = Kind::SEGMENTATION;

    fn encode(&self, w: &mut Writer) {
        w.usize(self.messages.len());
        for msg in &self.messages {
            // A message is reproduced from its payload length plus its
            // interior cut offsets; an empty message has length 0.
            let len = msg.ranges().last().map_or(0, |r| r.end);
            w.usize(len);
            let cuts = msg.cuts();
            w.usize(cuts.len());
            for c in cuts {
                w.usize(c);
            }
        }
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let n = r.count(16)?;
        let mut messages = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.usize()?;
            let n_cuts = r.count(8)?;
            let mut cuts = Vec::with_capacity(n_cuts);
            let mut prev = 0usize;
            for _ in 0..n_cuts {
                let c = r.usize()?;
                // `MessageSegments::from_cuts` panics on bad cuts; the
                // decoder must pre-validate so corruption stays a miss.
                if c <= prev || c >= len {
                    return None;
                }
                cuts.push(c);
                prev = c;
            }
            messages.push(MessageSegments::from_cuts(len, &cuts));
        }
        Some(TraceSegmentation { messages })
    }
}

/// The matrix payload: the item count, then the condensed values row
/// by row. A block of a larger matrix writes its own rows' heads, so it
/// encodes exactly as the matrix over its items.
fn encode_matrix(view: MatrixView<'_>, w: &mut Writer) {
    w.usize(view.len());
    for i in 0..view.len() {
        w.f64s(view.row_parts(i).1);
    }
}

/// The length of [`encode_matrix`]'s payload over `n` items.
fn matrix_payload_len(n: usize) -> usize {
    8 + 8 * (n * n.saturating_sub(1) / 2)
}

/// The [`DissimArtifact`] layout: the matrix payload and a zero byte.
fn encode_dissim(view: MatrixView<'_>, w: &mut Writer) {
    encode_matrix(view, w);
    w.u8(0);
}

impl Persist for CondensedMatrix {
    const KIND: Kind = Kind::DISSIM;

    fn encode(&self, w: &mut Writer) {
        encode_matrix(self.view(), w);
    }

    fn payload_hint(&self) -> usize {
        matrix_payload_len(self.len())
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let n = r.usize()?;
        let m = n.checked_mul(n.saturating_sub(1))? / 2;
        if m.checked_mul(8)? > r.remaining() {
            return None;
        }
        CondensedMatrix::try_filled(n, |cells| r.f64s_into(cells))
    }
}

/// The matrix followed by a zero byte. Files written before the
/// presorted neighbor index was retired carry a `1` there, followed by
/// the index; they decode as a miss, so the session rebuilds the
/// artifact and overwrites them under the same key.
impl Persist for DissimArtifact {
    const KIND: Kind = Kind::DISSIM;

    fn encode(&self, w: &mut Writer) {
        encode_dissim(self.matrix().view(), w);
    }

    fn payload_hint(&self) -> usize {
        matrix_payload_len(self.len()) + 1
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let matrix = CondensedMatrix::decode(r)?;
        (r.u8()? == 0).then(|| DissimArtifact::from_matrix(matrix))
    }
}

impl Persist for MatrixTile {
    const KIND: Kind = Kind::TILE;

    fn encode(&self, w: &mut Writer) {
        let rows = self.rows();
        w.usize(rows.start);
        w.usize(rows.end);
        w.u64(self.checksum());
        // The entry count is implied by the row span.
        w.f64s(self.data());
    }

    fn payload_hint(&self) -> usize {
        24 + 8 * self.data().len()
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let start = r.usize()?;
        let end = r.usize()?;
        if start > end {
            return None;
        }
        let checksum = r.u64()?;
        // Entry count for rows [start, end): (end(end−1) − start(start−1))/2,
        // with overflow from hostile spans read as a miss.
        let m = end
            .checked_mul(end.saturating_sub(1))?
            .checked_sub(start.wrapping_mul(start.saturating_sub(1)))?
            / 2;
        if m.checked_mul(8)? > r.remaining() {
            return None;
        }
        let mut data = vec![0.0; m];
        r.f64s_into(&mut data)?;
        // `from_parts` re-verifies the length and the tile checksum, so
        // an entry-level bit flip that slipped past the file frame still
        // decodes as a miss.
        MatrixTile::from_parts(start..end, data, checksum)
    }
}

impl Persist for VpTree {
    const KIND: Kind = Kind::VPTREE;

    fn encode(&self, w: &mut Writer) {
        let span = self.span();
        w.usize(span.start);
        w.usize(span.end);
        w.u32(self.root());
        w.u64(self.checksum());
        // The node count is implied by the span.
        for node in self.nodes() {
            w.u32(node.item);
            w.f64(node.threshold);
            w.u32(node.inside);
            w.u32(node.outside);
        }
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let start = r.usize()?;
        let end = r.usize()?;
        if start > end {
            return None;
        }
        let root = r.u32()?;
        let checksum = r.u64()?;
        let m = end.checked_sub(start)?;
        if m.checked_mul(20)? > r.remaining() {
            return None;
        }
        let mut nodes = Vec::with_capacity(m);
        for _ in 0..m {
            let item = r.u32()?;
            let threshold = r.f64()?;
            let inside = r.u32()?;
            let outside = r.u32()?;
            nodes.push(VpNode {
                item,
                threshold,
                inside,
                outside,
            });
        }
        // `from_parts` re-validates the whole structure (node count,
        // single-visit reachability, in-span items, NaN-free thresholds)
        // and the checksum, so hostile or bit-flipped payloads decode as
        // a miss.
        VpTree::from_parts(start..end, root, nodes, checksum)
    }
}

impl Persist for StrataIndex {
    const KIND: Kind = Kind::STRATA;

    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        w.usize(self.chunk());
        w.u64(self.checksum());
        w.usize(self.strata().len());
        for s in self.strata() {
            w.usize(s.value_len());
            w.usize(s.items().len());
            for &g in s.items() {
                w.u32(g);
            }
            // The tree count is implied by the member count and chunk.
            for tree in s.forest().trees() {
                tree.encode(w);
            }
            // The pivot-row count is implied by the member count.
            w.f64s(s.pivot_rows());
        }
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let n = r.usize()?;
        let chunk = r.usize()?;
        if chunk == 0 {
            return None;
        }
        let checksum = r.u64()?;
        let n_strata = r.count(16)?;
        let mut strata = Vec::with_capacity(n_strata);
        for _ in 0..n_strata {
            let len = r.usize()?;
            let size = r.count(4)?;
            let mut items = Vec::with_capacity(size);
            for _ in 0..size {
                items.push(r.u32()?);
            }
            let n_trees = VpForest::chunk_count(size, chunk);
            let mut trees = Vec::with_capacity(n_trees);
            for _ in 0..n_trees {
                trees.push(VpTree::decode(r)?);
            }
            let forest = VpForest::from_trees(size, chunk, trees)?;
            let m = DEFAULT_PIVOTS.min(size);
            let n_rows = m.checked_mul(size)?;
            if n_rows.checked_mul(8)? > r.remaining() {
                return None;
            }
            let mut pivot_rows = vec![0.0; n_rows];
            r.f64s_into(&mut pivot_rows)?;
            // `from_parts` re-validates the stratum shape (forest item
            // count, ascending members, pivot-row shape, NaN-freedom).
            strata.push(Stratum::from_parts(len, items, forest, pivot_rows)?);
        }
        // The index-level `from_parts` re-validates the partition of
        // `0..n` and the whole-index checksum, so hostile or bit-flipped
        // payloads decode as a miss.
        StrataIndex::from_parts(n, chunk, strata, checksum)
    }
}

impl Persist for SelectedParams {
    const KIND: Kind = Kind::SELECTION;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.epsilon);
        w.usize(self.min_samples);
        w.usize(self.k);
        w.usize(self.ecdf_values.len());
        for &v in &self.ecdf_values {
            w.f64(v);
        }
        w.usize(self.smoothed_curve.len());
        for &(x, y) in &self.smoothed_curve {
            w.f64(x);
            w.f64(y);
        }
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let epsilon = r.f64()?;
        let min_samples = r.usize()?;
        let k = r.usize()?;
        let n_ecdf = r.count(8)?;
        let mut ecdf_values = Vec::with_capacity(n_ecdf);
        for _ in 0..n_ecdf {
            ecdf_values.push(r.f64()?);
        }
        let n_curve = r.count(16)?;
        let mut smoothed_curve = Vec::with_capacity(n_curve);
        for _ in 0..n_curve {
            let x = r.f64()?;
            let y = r.f64()?;
            smoothed_curve.push((x, y));
        }
        Some(SelectedParams {
            epsilon,
            min_samples,
            k,
            ecdf_values,
            smoothed_curve,
        })
    }
}

impl Persist for Clustering {
    const KIND: Kind = Kind::CLUSTERING;

    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        // Noise is 0, cluster `c` is `c + 1` — one u64 per item.
        for label in self.labels() {
            match label {
                Label::Noise => w.u64(0),
                Label::Cluster(c) => w.u64(u64::from(*c) + 1),
            }
        }
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let n = r.count(8)?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let v = r.u64()?;
            labels.push(match v {
                0 => Label::Noise,
                c => Label::Cluster(u32::try_from(c - 1).ok()?),
            });
        }
        // `from_labels` renumbers by first appearance; stored
        // clusterings are already in that compact form, so this is a
        // bit-exact round-trip (pinned by the store tests).
        Some(Clustering::from_labels(labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let payload = encode_payload(value);
        decode_payload::<T>(&payload).expect("roundtrip decode")
    }

    #[test]
    fn segmentation_roundtrip() {
        let seg = TraceSegmentation {
            messages: vec![
                MessageSegments::from_cuts(10, &[2, 5, 9]),
                MessageSegments::from_cuts(4, &[]),
                MessageSegments::from_cuts(0, &[]),
            ],
        };
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn segmentation_bad_cuts_is_a_miss_not_a_panic() {
        // len=4 with a cut at 9: structurally invalid, would panic in
        // `from_cuts` if the decoder did not pre-validate.
        let mut w = Writer::new();
        w.usize(1);
        w.usize(4);
        w.usize(1);
        w.usize(9);
        assert!(decode_payload::<TraceSegmentation>(&w.into_inner()).is_none());
    }

    #[test]
    fn matrix_roundtrip_is_bitwise() {
        let m = CondensedMatrix::build(5, |i, j| (i * 7 + j) as f64 / 3.0);
        let back = roundtrip(&m);
        assert_eq!(back.len(), m.len());
        let bits = |m: &CondensedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn matrix_codec_roundtrips_special_values_bit_for_bit() {
        // Signed zeros, NaNs with payloads, subnormals and infinities, at
        // sizes from empty to past the point where matrix cells leave the
        // heap (`dissim::cells::MAP_MIN_BYTES`).
        let special = [
            -0.0,
            0.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff4_dead_beef_0042),
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 1024.0,
            f64::INFINITY,
            0.3125,
        ];
        for n in [0usize, 1, 2, 1_500] {
            let m = n * n.saturating_sub(1) / 2;
            let values: Vec<f64> = (0..m)
                .map(|i| {
                    if i % 3 == 0 {
                        special[(i / 3) % special.len()]
                    } else {
                        f64::from_bits((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    }
                })
                .collect();
            let matrix = CondensedMatrix::from_condensed(n, values).expect("triangle length");
            let payload = encode_payload(&matrix);
            assert_eq!(payload.len(), matrix.payload_hint());
            let back = decode_payload::<CondensedMatrix>(&payload).expect("roundtrip decode");
            assert_eq!(back.len(), n);
            let bits =
                |m: &CondensedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&back) == bits(&matrix), "n = {n}: bits differ");
            let mut w = Writer::new();
            w.usize(n);
            for &v in matrix.values() {
                w.f64(v);
            }
            assert!(
                w.as_slice() == &payload[..],
                "n = {n}: bulk encoding differs"
            );
        }
    }

    #[test]
    fn matrix_length_mismatch_is_a_miss() {
        let mut w = Writer::new();
        w.usize(5); // claims 10 entries
        for i in 0..9 {
            w.f64(i as f64);
        }
        assert!(decode_payload::<CondensedMatrix>(&w.into_inner()).is_none());
    }

    #[test]
    fn dissim_artifact_roundtrip_with_and_without_neighbors() {
        let pts = [3.0f64, 1.0, 4.0, 1.5];
        let a = DissimArtifact::from_matrix(CondensedMatrix::build(pts.len(), |i, j| {
            (pts[i] - pts[j]).abs()
        }));
        let payload = encode_payload(&a);
        assert_eq!(decode_payload::<DissimArtifact>(&payload), Some(a.clone()));
        // The retired layout with an attached neighbor index (tag 1 and
        // one `(dissimilarity, neighbor)` list per item) is a miss.
        let mut w = Writer::new();
        a.matrix().encode(&mut w);
        w.u8(1);
        w.usize(pts.len());
        for i in 0..pts.len() {
            for j in (0..pts.len()).filter(|&j| j != i) {
                w.f64(a.matrix().get(i, j));
                w.u32(j as u32);
            }
        }
        assert!(decode_payload::<DissimArtifact>(&w.into_inner()).is_none());
    }

    #[test]
    fn prefix_view_encodes_as_the_artifact_of_its_block() {
        let full = CondensedMatrix::build(9, |i, j| (i * 7 + j * 3) as f64 / 11.0);
        for n in [0, 1, 2, 5, 9] {
            let view = full.prefix(n);
            let own = DissimArtifact::from_matrix(view.to_matrix());
            let mut w = Writer::new();
            view.encode_payload(&mut w);
            let payload = w.into_inner();
            assert_eq!(payload, encode_payload(&own), "n = {n}");
            assert_eq!(payload.len(), view.encoded_len_hint(), "n = {n}");
            assert_eq!(decode_payload::<DissimArtifact>(&payload), Some(own));
        }
    }

    #[test]
    fn matrix_tile_roundtrip_is_bitwise() {
        let params = dissim::DissimParams::default();
        let segs: Vec<Vec<u8>> = (0..17u8)
            .map(|i| vec![i, i ^ 3, i.wrapping_mul(7)])
            .collect();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let tiled = dissim::TiledMatrix::build_segments(&vals, &params, 5, 1);
        for tile in tiled.tiles() {
            let back = roundtrip(tile);
            assert_eq!(back.rows(), tile.rows());
            assert_eq!(back.checksum(), tile.checksum());
            let bits = |t: &MatrixTile| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(tile));
        }
    }

    #[test]
    fn matrix_tile_corruption_is_a_miss() {
        let params = dissim::DissimParams::default();
        let segs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i, i + 1]).collect();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let tiled = dissim::TiledMatrix::build_segments(&vals, &params, 4, 1);
        let tile = &tiled.tiles()[1];
        let good = encode_payload(tile);
        assert!(decode_payload::<MatrixTile>(&good).is_some());
        // Flip one bit in an entry: the per-tile checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(decode_payload::<MatrixTile>(&bad).is_none());
        // Truncation.
        assert!(decode_payload::<MatrixTile>(&good[..good.len() - 8]).is_none());
        // Hostile row span claiming more data than present.
        let mut w = Writer::new();
        w.usize(0);
        w.usize(usize::MAX / 2);
        w.u64(0);
        assert!(decode_payload::<MatrixTile>(&w.into_inner()).is_none());
    }

    #[test]
    fn vptree_roundtrip_is_exact() {
        let params = dissim::DissimParams::default();
        let segs: Vec<Vec<u8>> = (0..13u8)
            .map(|i| vec![i.wrapping_mul(11), i ^ 5, i])
            .collect();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let forest = dissim::VpForest::build(&vals, &params, 5);
        assert!(forest.trees().len() > 1, "want multiple chunk trees");
        for tree in forest.trees() {
            assert_eq!(&roundtrip(tree), tree);
        }
    }

    #[test]
    fn vptree_corruption_is_a_miss() {
        let params = dissim::DissimParams::default();
        let segs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i, i.wrapping_mul(3)]).collect();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let forest = dissim::VpForest::build(&vals, &params, 9);
        let tree = &forest.trees()[0];
        let good = encode_payload(tree);
        assert!(decode_payload::<VpTree>(&good).is_some());
        // Flip one bit in the last node's child index: the checksum
        // catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x04;
        assert!(decode_payload::<VpTree>(&bad).is_none());
        // Truncation.
        assert!(decode_payload::<VpTree>(&good[..good.len() - 4]).is_none());
        // Hostile span claiming more nodes than present.
        let mut w = Writer::new();
        w.usize(0);
        w.usize(usize::MAX / 32);
        w.u32(0);
        w.u64(0);
        assert!(decode_payload::<VpTree>(&w.into_inner()).is_none());
    }

    fn mixed_values() -> Vec<Vec<u8>> {
        (0..40usize)
            .map(|i| {
                let len = [1usize, 2, 3, 4, 4, 7, 8, 12][i % 8];
                (0..len)
                    .map(|k| ((i * 31 + k * 17 + i * k) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn strata_index_roundtrip_is_exact() {
        let params = dissim::DissimParams::default();
        let segs = mixed_values();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&vals, &params, 4);
        assert!(index.strata().len() > 1, "want multiple strata");
        let back = roundtrip(&index);
        assert_eq!(back.checksum(), index.checksum());
        assert!(back.matches(&vals));
    }

    #[test]
    fn strata_index_corruption_is_a_miss() {
        let params = dissim::DissimParams::default();
        let segs = mixed_values();
        let vals: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&vals, &params, 4);
        let good = encode_payload(&index);
        assert!(decode_payload::<StrataIndex>(&good).is_some());
        // Flip one bit in a pivot-row entry: the index checksum
        // catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        assert!(decode_payload::<StrataIndex>(&bad).is_none());
        // Truncation.
        assert!(decode_payload::<StrataIndex>(&good[..good.len() - 8]).is_none());
        // Hostile stratum count claiming more data than present.
        let mut w = Writer::new();
        w.usize(4);
        w.usize(4);
        w.u64(0);
        w.usize(usize::MAX / 64);
        assert!(decode_payload::<StrataIndex>(&w.into_inner()).is_none());
    }

    #[test]
    fn selected_params_roundtrip() {
        let p = SelectedParams {
            epsilon: 0.1875,
            min_samples: 4,
            k: 2,
            ecdf_values: vec![0.0, 0.1, 0.5, -0.0],
            smoothed_curve: vec![(0.0, 0.0), (0.5, 0.75)],
        };
        let back = roundtrip(&p);
        assert_eq!(back.epsilon.to_bits(), p.epsilon.to_bits());
        assert_eq!(back.min_samples, p.min_samples);
        assert_eq!(back.k, p.k);
        assert_eq!(back.ecdf_values, p.ecdf_values);
        assert_eq!(back.smoothed_curve, p.smoothed_curve);
    }

    #[test]
    fn clustering_roundtrip_preserves_labels_exactly() {
        let c = Clustering::from_labels(vec![
            Label::Noise,
            Label::Cluster(7),
            Label::Cluster(7),
            Label::Cluster(2),
            Label::Noise,
            Label::Cluster(2),
        ]);
        let back = roundtrip(&c);
        assert_eq!(back.labels(), c.labels());
        assert_eq!(back.n_clusters(), c.n_clusters());
    }
}
