//! Artifact-store integration: cache keys and persistence codecs for
//! the session's stage artifacts.
//!
//! The [`store`](::store) crate moves opaque `Persist` payloads in and
//! out of checksummed files; *this* module decides what those payloads
//! are and which inputs their keys must cover. The keying rule
//! (DESIGN.md §"Artifact store"): a key digests **every input that can
//! change the artifact's bits, and nothing else** — so thread counts
//! never appear in a key (they cannot change bits; every parallel build
//! is pinned bit-identical to serial), while every dissimilarity,
//! auto-configuration and refinement parameter does.
//!
//! Key schema, per stage:
//!
//! | artifact | key inputs |
//! |---|---|
//! | segmentation | trace content, segmenter fingerprint |
//! | segment store | trace content + cuts, `min_segment_len` |
//! | dissimilarity | chained unique-value digest, dissim params |
//! | message matrix | chained per-message segment-value digest, dissim params, gap penalty |
//! | selection / clustering / refined | trace content + cuts, full config |
//!
//! The dissimilarity key is special: it is a **chained** digest over the
//! unique segment values in first-occurrence order, snapshotted per
//! prefix length. Because deduplication preserves first-occurrence
//! order, the unique values of a *grown* trace start with the unique
//! values of the original trace — so the session can recognize a cached
//! matrix for a prefix of its segment set (via the per-family manifest)
//! and extend it incrementally instead of rebuilding from scratch.
//!
//! The message-matrix key is chained the same way, one message at a
//! time: each message is fed as its sequence of segment values,
//! snapshotted per message count. A pair's alignment cost depends only
//! on the two value sequences and the parameters, so a cached matrix
//! over the first messages of a grown trace is the top-left block of
//! the grown matrix, and only pairs with an appended message align.
//! [`cached_prefix`] is the one manifest walk all three prefix
//! families (segment matrix, strata index, message matrix) search.

use crate::pipeline::{EpsilonSource, FieldTypeClusterer};
use crate::segments::{SegmentInstance, SegmentStore, UniqueSegment};
use cluster::autoconf::{AutoConfig, SelectedParams};
use cluster::dbscan::Clustering;
use cluster::refine::RefineParams;
use dissim::{DissimParams, TiledMatrix};
use segment::TraceSegmentation;
use store::{ArtifactStore, Key, KeyDigest, Kind, Persist, Reader, Writer};
use trace::Trace;

// ----- key derivation -----

/// Key for a cached segmentation of `trace` by the segmenter with the
/// given configuration fingerprint.
pub(crate) fn segmentation_key(trace: &Trace, fingerprint: &str) -> Key {
    let mut d = KeyDigest::new(Kind::SEGMENTATION);
    digest_trace(&mut d, trace);
    d.str(fingerprint);
    d.finish()
}

/// Digest of the full session input: trace content plus segmentation
/// cuts. Every downstream stage artifact is a pure function of this
/// digest and configuration parameters.
pub(crate) fn input_key(trace: &Trace, seg: &TraceSegmentation) -> Key {
    let mut d = KeyDigest::new(Kind::SEGMENTATION);
    digest_trace(&mut d, trace);
    d.usize(seg.messages.len());
    for msg in &seg.messages {
        let cuts = msg.cuts();
        d.usize(cuts.len());
        for c in cuts {
            d.usize(c);
        }
    }
    d.finish()
}

/// Key for the deduplicated segment store.
pub(crate) fn segment_store_key(input: &Key, min_segment_len: usize) -> Key {
    let mut d = KeyDigest::new(Kind::SEGMENT_STORE);
    d.key(input);
    d.usize(min_segment_len);
    d.finish()
}

/// Keys of the dissimilarity artifact over each prefix `values[..u]`,
/// one per requested `u` (ascending), all from a single pass: the
/// digest is chained over the values, snapshotted at every requested
/// prefix length.
pub(crate) fn dissim_keys_at(values: &[&[u8]], params: &DissimParams, at: &[usize]) -> Vec<Key> {
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "prefixes must ascend");
    debug_assert!(at.last().is_none_or(|&u| u <= values.len()));
    let mut d = KeyDigest::new(Kind::DISSIM);
    digest_dissim_params(&mut d, params);
    let mut keys = Vec::with_capacity(at.len());
    let mut fed = 0usize;
    for &u in at {
        for v in &values[fed..u] {
            d.frame(v);
        }
        fed = u;
        let mut snap = d.clone();
        snap.usize(u);
        keys.push(snap.finish());
    }
    keys
}

/// Key of the dissimilarity artifact over all of `values`.
pub(crate) fn dissim_key(values: &[&[u8]], params: &DissimParams) -> Key {
    dissim_keys_at(values, params, &[values.len()])
        .pop()
        .expect("one prefix requested")
}

/// Keys of every tile of the tiled dissimilarity build, in tile order,
/// from a single chained pass. A tile covering rows `s..e` is a pure
/// function of `values[..e]` and the parameters — independent of the
/// total segment count — so its key digests exactly that prefix plus
/// the row bounds. Complete tiles of a *grown* trace therefore keep
/// their keys, and a warm run faults them straight back in while only
/// the appended (and formerly partial) tiles recompute.
pub(crate) fn tile_keys(values: &[&[u8]], params: &DissimParams, tile_rows: usize) -> Vec<Key> {
    let n = values.len();
    let count = TiledMatrix::tile_count(n, tile_rows);
    let mut d = KeyDigest::new(Kind::TILE);
    digest_dissim_params(&mut d, params);
    let mut keys = Vec::with_capacity(count);
    let mut fed = 0usize;
    for t in 0..count {
        let span = TiledMatrix::tile_span(n, tile_rows, t);
        for v in &values[fed..span.end] {
            d.frame(v);
        }
        fed = span.end;
        let mut snap = d.clone();
        snap.usize(span.start);
        snap.usize(span.end);
        keys.push(snap.finish());
    }
    keys
}

/// Keys of the whole length-stratified index over each prefix
/// `values[..u]`, one per requested `u` (ascending), from a single
/// chained pass — the strata analog of [`dissim_keys_at`]. Unlike the
/// per-tile keys, the index is persisted as one
/// artifact (its strata partition the whole prefix, so no part is a
/// pure function of a shorter prefix); growth reuse happens inside
/// `StrataIndex::extend_from` after the longest matching prefix is
/// faulted in through the family manifest.
pub(crate) fn strata_keys_at(
    values: &[&[u8]],
    params: &DissimParams,
    chunk: usize,
    at: &[usize],
) -> Vec<Key> {
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "prefixes must ascend");
    debug_assert!(at.last().is_none_or(|&u| u <= values.len()));
    let mut d = KeyDigest::new(Kind::STRATA);
    digest_dissim_params(&mut d, params);
    d.usize(chunk);
    let mut keys = Vec::with_capacity(at.len());
    let mut fed = 0usize;
    for &u in at {
        for v in &values[fed..u] {
            d.frame(v);
        }
        fed = u;
        let mut snap = d.clone();
        snap.usize(u);
        keys.push(snap.finish());
    }
    keys
}

/// Key of the length-stratified index over all of `values`.
pub(crate) fn strata_key(values: &[&[u8]], params: &DissimParams, chunk: usize) -> Key {
    strata_keys_at(values, params, chunk, &[values.len()])
        .pop()
        .expect("one prefix requested")
}

/// Manifest family for stratified indexes: like [`tile_family_key`]
/// but tagged for strata, so the artifact families never mix.
pub(crate) fn strata_family_key(values: &[&[u8]], params: &DissimParams) -> Key {
    let mut d = KeyDigest::new(Kind::MANIFEST);
    d.u64(u64::from(Kind::STRATA.tag()));
    digest_dissim_params(&mut d, params);
    for v in values.iter().take(4) {
        d.frame(v);
    }
    d.finish()
}

/// Manifest family for tile artifacts: like
/// [`dissim_family_key`] but tagged for tiles, so tile manifests and
/// monolithic-matrix manifests never mix.
pub(crate) fn tile_family_key(values: &[&[u8]], params: &DissimParams) -> Key {
    let mut d = KeyDigest::new(Kind::MANIFEST);
    d.u64(u64::from(Kind::TILE.tag()));
    digest_dissim_params(&mut d, params);
    for v in values.iter().take(4) {
        d.frame(v);
    }
    d.finish()
}

/// Manifest family for dissimilarity artifacts: one parameter set plus
/// a stream identity (the first few unique values), so the manifest
/// stays small and scoped to traces that could actually share a prefix.
pub(crate) fn dissim_family_key(values: &[&[u8]], params: &DissimParams) -> Key {
    let mut d = KeyDigest::new(Kind::MANIFEST);
    d.u64(u64::from(Kind::DISSIM.tag()));
    digest_dissim_params(&mut d, params);
    for v in values.iter().take(4) {
        d.frame(v);
    }
    d.finish()
}

/// Key for a configuration-dependent stage artifact (selection, cluster
/// stage, refined clustering) over the session input.
pub(crate) fn stage_key(kind: Kind, input: &Key, config: &FieldTypeClusterer) -> Key {
    let mut d = KeyDigest::new(kind);
    d.key(input);
    digest_config(&mut d, config);
    d.finish()
}

/// Key for the inferred protocol state machine. Digests everything the
/// machine is a pure function of: the session input (payloads + cuts),
/// the message-clustering parameters (dissim, gap penalty, autoconf)
/// that produce the msgtype labels, the merge thresholds, and — because
/// `input_key` covers payloads and cuts but *not* endpoints or
/// timestamps — the flow partition itself (per-flow message index
/// lists), so re-pairing the same payloads into different flows moves
/// the key.
pub(crate) fn fsm_key(
    input: &Key,
    trace: &Trace,
    params: &DissimParams,
    config: &crate::fsm::StateMachineConfig,
) -> Key {
    let mut d = KeyDigest::new(Kind::FSM);
    d.key(input);
    digest_dissim_params(&mut d, params);
    d.f64(config.msgtype.gap_penalty);
    digest_autoconf(&mut d, &config.msgtype.autoconf);
    d.f64(config.fsm.alpha);
    d.u64(config.fsm.min_evidence);
    let flows = trace.flows();
    d.usize(flows.len());
    for flow in &flows {
        d.usize(flow.len());
        for &i in flow {
            d.usize(i);
        }
    }
    d.finish()
}

/// Keys of the message-alignment matrix over each prefix of the
/// messages, one per requested message count `at` (ascending), from a
/// single chained pass — the message analog of [`dissim_keys_at`]. Each
/// message is fed as its segment-value sequence: `sequences` holds the
/// segment ids of every message, `values` the value of every id. An
/// alignment cost is a pure function of the two messages' value
/// sequences, the dissimilarity parameters and the gap penalty, so the
/// matrix over the first `u` messages is keyed by exactly those.
pub(crate) fn message_keys_at(
    sequences: &[Vec<usize>],
    values: &[&[u8]],
    params: &DissimParams,
    gap_penalty: f64,
    at: &[usize],
) -> Vec<Key> {
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "prefixes must ascend");
    debug_assert!(at.last().is_none_or(|&u| u <= sequences.len()));
    let mut d = KeyDigest::new(Kind::DISSIM);
    digest_message_params(&mut d, params, gap_penalty);
    let mut keys = Vec::with_capacity(at.len());
    let mut fed = 0usize;
    for &u in at {
        for seq in &sequences[fed..u] {
            digest_message(&mut d, seq, values);
        }
        fed = u;
        let mut snap = d.clone();
        snap.usize(u);
        keys.push(snap.finish());
    }
    keys
}

/// Key of the message-alignment matrix over all of the messages.
pub(crate) fn message_key(
    sequences: &[Vec<usize>],
    values: &[&[u8]],
    params: &DissimParams,
    gap_penalty: f64,
) -> Key {
    message_keys_at(sequences, values, params, gap_penalty, &[sequences.len()])
        .pop()
        .expect("one prefix requested")
}

/// Manifest family for message-alignment matrices: the parameters plus
/// a stream identity (the first few messages' value sequences), like
/// [`dissim_family_key`] for segment matrices.
pub(crate) fn message_family_key(
    sequences: &[Vec<usize>],
    values: &[&[u8]],
    params: &DissimParams,
    gap_penalty: f64,
) -> Key {
    let mut d = KeyDigest::new(Kind::MANIFEST);
    d.u64(u64::from(Kind::DISSIM.tag()));
    digest_message_params(&mut d, params, gap_penalty);
    for seq in sequences.iter().take(4) {
        digest_message(&mut d, seq, values);
    }
    d.finish()
}

/// The largest cached prefix of a growing item sequence: the newest
/// manifest entry of `family` whose item count `u` lies in `min_u..n`,
/// whose recorded key is the caller's own key for its first `u` items
/// (`keys_at` computes those keys for ascending counts in one pass),
/// and whose artifact loads and passes `accept(u, &artifact)`. Several
/// streams may share a family; recomputing the expected key is what
/// tells this stream's entries apart. Probes do not count as store
/// hits or misses.
pub(crate) fn cached_prefix<T: Persist>(
    store: &ArtifactStore,
    family: &Key,
    min_u: usize,
    n: usize,
    keys_at: impl FnOnce(&[usize]) -> Vec<Key>,
    accept: impl Fn(usize, &T) -> bool,
) -> Option<T> {
    let entries = store.manifest_entries(family);
    let mut candidates: Vec<usize> = entries
        .iter()
        .map(|&(u, _)| u)
        .filter(|&u| u >= min_u && u < n)
        .collect();
    candidates.dedup(); // entries are sorted by u
    let expected = keys_at(&candidates);
    candidates
        .iter()
        .zip(&expected)
        .rev()
        .filter(|&(&u, key)| entries.contains(&(u, *key)))
        .find_map(|(&u, key)| {
            let artifact = store.get_quiet::<T>(key)?;
            accept(u, &artifact).then_some(artifact)
        })
}

fn digest_trace(d: &mut KeyDigest, trace: &Trace) {
    d.usize(trace.len());
    for msg in trace.iter() {
        d.frame(msg.payload());
    }
}

fn digest_dissim_params(d: &mut KeyDigest, p: &DissimParams) {
    d.f64(p.length_penalty);
}

fn digest_message_params(d: &mut KeyDigest, p: &DissimParams, gap_penalty: f64) {
    d.str("message-alignment");
    digest_dissim_params(d, p);
    d.f64(gap_penalty);
}

/// One message as its framed segment-value sequence.
fn digest_message(d: &mut KeyDigest, sequence: &[usize], values: &[&[u8]]) {
    d.usize(sequence.len());
    for &id in sequence {
        d.frame(values[id]);
    }
}

fn digest_autoconf(d: &mut KeyDigest, a: &AutoConfig) {
    d.f64(a.sensitivity);
    d.usize(a.smoothing_knots);
    d.usize(a.grid_points);
    d.opt_f64(a.max_dissimilarity);
}

fn digest_refine(d: &mut KeyDigest, r: &RefineParams) {
    d.f64(r.eps_rho_threshold);
    d.f64(r.neighbor_density_threshold);
    d.f64(r.split_percent_rank);
    d.usize(r.max_merge_rounds);
}

fn digest_config(d: &mut KeyDigest, c: &FieldTypeClusterer) {
    // `threads`, `tile_rows`, `max_memory` and `neighbor_backend` are
    // deliberately absent: every parallel build, tile geometry and
    // neighbor backend is pinned bit-identical, so none of them can
    // change artifact bits.
    digest_dissim_params(d, &c.dissim);
    digest_autoconf(d, &c.autoconf);
    digest_refine(d, &c.refine);
    d.usize(c.min_segment_len);
    d.f64(c.large_cluster_fraction);
}

// ----- persistence codecs for fieldclust-local artifacts -----

impl Persist for SegmentStore {
    const KIND: Kind = Kind::SEGMENT_STORE;

    fn encode(&self, w: &mut Writer) {
        encode_unique_segments(w, &self.segments);
        encode_unique_segments(w, &self.excluded);
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let segments = decode_unique_segments(r)?;
        let excluded = decode_unique_segments(r)?;
        Some(SegmentStore { segments, excluded })
    }
}

fn encode_unique_segments(w: &mut Writer, segments: &[UniqueSegment]) {
    w.usize(segments.len());
    for s in segments {
        w.bytes(&s.value);
        w.usize(s.instances.len());
        for inst in &s.instances {
            w.usize(inst.message);
            w.usize(inst.range.start);
            w.usize(inst.range.end);
        }
    }
}

fn decode_unique_segments(r: &mut Reader) -> Option<Vec<UniqueSegment>> {
    let n = r.count(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let value = r.bytes()?.to_vec();
        let n_inst = r.count(24)?;
        let mut instances = Vec::with_capacity(n_inst);
        for _ in 0..n_inst {
            let message = r.usize()?;
            let start = r.usize()?;
            let end = r.usize()?;
            if end < start || end - start != value.len() {
                return None;
            }
            instances.push(SegmentInstance {
                message,
                range: start..end,
            });
        }
        out.push(UniqueSegment { value, instances });
    }
    Some(out)
}

fn encode_epsilon_source(w: &mut Writer, s: EpsilonSource) {
    w.u8(match s {
        EpsilonSource::Knee => 0,
        EpsilonSource::TrimmedKnee => 1,
        EpsilonSource::MeanFallback => 2,
    });
}

fn decode_epsilon_source(r: &mut Reader) -> Option<EpsilonSource> {
    match r.u8()? {
        0 => Some(EpsilonSource::Knee),
        1 => Some(EpsilonSource::TrimmedKnee),
        2 => Some(EpsilonSource::MeanFallback),
        _ => None,
    }
}

/// The auto-configuration stage artifact: selected parameters plus
/// where ε came from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectionArtifact {
    pub params: SelectedParams,
    pub source: EpsilonSource,
}

impl Persist for SelectionArtifact {
    const KIND: Kind = Kind::SELECTION;

    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        encode_epsilon_source(w, self.source);
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let params = SelectedParams::decode(r)?;
        let source = decode_epsilon_source(r)?;
        Some(Self { params, source })
    }
}

/// The clustering stage artifact: the labels together with the
/// (possibly §III-E re-configured) parameters that produced them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterStageArtifact {
    pub params: SelectedParams,
    pub source: EpsilonSource,
    pub clustering: Clustering,
}

impl Persist for ClusterStageArtifact {
    const KIND: Kind = Kind::CLUSTER_STAGE;

    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        encode_epsilon_source(w, self.source);
        self.clustering.encode(w);
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        let params = SelectedParams::decode(r)?;
        let source = decode_epsilon_source(r)?;
        let clustering = Clustering::decode(r)?;
        Some(Self {
            params,
            source,
            clustering,
        })
    }
}

/// The refined clustering (post merge/split).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RefinedArtifact(pub Clustering);

impl Persist for RefinedArtifact {
    const KIND: Kind = Kind::REFINED;

    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut Reader) -> Option<Self> {
        Some(Self(Clustering::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::dbscan::Label;
    use store::{decode_payload, encode_payload};

    #[test]
    fn segment_store_roundtrip() {
        let s = SegmentStore {
            segments: vec![UniqueSegment {
                value: b"\x01\x02".to_vec(),
                instances: vec![
                    SegmentInstance {
                        message: 0,
                        range: 0..2,
                    },
                    SegmentInstance {
                        message: 3,
                        range: 4..6,
                    },
                ],
            }],
            excluded: vec![UniqueSegment {
                value: b"\x09".to_vec(),
                instances: vec![SegmentInstance {
                    message: 1,
                    range: 4..5,
                }],
            }],
        };
        let back: SegmentStore = decode_payload(&encode_payload(&s)).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn segment_store_range_value_mismatch_is_a_miss() {
        // An instance range whose width disagrees with the value length
        // is structurally impossible; the decoder must reject it.
        let mut w = Writer::new();
        w.usize(1); // one segment
        w.bytes(b"\x01\x02");
        w.usize(1); // one instance
        w.usize(0); // message
        w.usize(0); // start
        w.usize(5); // end: width 5 != value len 2
        w.usize(0); // no excluded
        assert!(decode_payload::<SegmentStore>(&w.into_inner()).is_none());
    }

    #[test]
    fn selection_and_stage_artifacts_roundtrip() {
        let params = SelectedParams {
            epsilon: 0.25,
            min_samples: 5,
            k: 2,
            ecdf_values: vec![0.1, 0.2],
            smoothed_curve: vec![(0.0, 0.0), (1.0, 1.0)],
        };
        let sel = SelectionArtifact {
            params: params.clone(),
            source: EpsilonSource::TrimmedKnee,
        };
        let back: SelectionArtifact = decode_payload(&encode_payload(&sel)).expect("sel");
        assert_eq!(back, sel);

        let stage = ClusterStageArtifact {
            params,
            source: EpsilonSource::MeanFallback,
            clustering: Clustering::from_labels(vec![Label::Cluster(0), Label::Noise]),
        };
        let back: ClusterStageArtifact = decode_payload(&encode_payload(&stage)).expect("stage");
        assert_eq!(back, stage);

        let refined = RefinedArtifact(stage.clustering.clone());
        let back: RefinedArtifact = decode_payload(&encode_payload(&refined)).expect("refined");
        assert_eq!(back, refined);
    }

    #[test]
    fn bad_epsilon_source_tag_is_a_miss() {
        let mut w = Writer::new();
        let params = SelectedParams {
            epsilon: 0.1,
            min_samples: 2,
            k: 1,
            ecdf_values: vec![],
            smoothed_curve: vec![],
        };
        params.encode(&mut w);
        w.u8(9); // no such EpsilonSource
        assert!(decode_payload::<SelectionArtifact>(&w.into_inner()).is_none());
    }

    #[test]
    fn dissim_prefix_keys_chain() {
        let values: Vec<&[u8]> = vec![b"aa", b"bb", b"cc", b"dd", b"ee"];
        let params = DissimParams::default();
        let keys = dissim_keys_at(&values, &params, &[2, 4, 5]);
        // Snapshot keys equal the from-scratch key of each prefix.
        assert_eq!(keys[0], dissim_key(&values[..2], &params));
        assert_eq!(keys[1], dissim_key(&values[..4], &params));
        assert_eq!(keys[2], dissim_key(&values, &params));
        // And a different value stream diverges.
        let other: Vec<&[u8]> = vec![b"aa", b"xx"];
        assert_ne!(keys[0], dissim_key(&other, &params));
    }

    #[test]
    fn message_prefix_keys_chain_over_value_sequences() {
        let values: Vec<&[u8]> = vec![b"aa", b"b", b"cc", b"dd"];
        let sequences = vec![vec![0, 1], vec![], vec![2, 1, 3], vec![3], vec![0]];
        let params = DissimParams::default();
        let keys = message_keys_at(&sequences, &values, &params, 0.8, &[1, 3, 5]);
        // Snapshot keys equal the from-scratch key of each prefix.
        assert_eq!(keys[0], message_key(&sequences[..1], &values, &params, 0.8));
        assert_eq!(keys[1], message_key(&sequences[..3], &values, &params, 0.8));
        assert_eq!(keys[2], message_key(&sequences, &values, &params, 0.8));
        // Keys follow the values, not the ids: the same value sequences
        // under other segment ids share keys.
        let renumbered: Vec<&[u8]> = vec![b"dd", b"cc", b"b", b"aa"];
        let sequences_b = vec![vec![3, 2], vec![], vec![1, 2, 0], vec![0], vec![3]];
        assert_eq!(
            message_key(&sequences_b, &renumbered, &params, 0.8),
            keys[2]
        );
        // Moving a segment boundary, the gap penalty or the parameters
        // moves the key.
        let merged = vec![vec![0, 1], vec![], vec![2, 1, 3], vec![3, 0], vec![]];
        assert_ne!(message_key(&merged, &values, &params, 0.8), keys[2]);
        assert_ne!(message_key(&sequences, &values, &params, 0.5), keys[2]);
        let other = DissimParams {
            length_penalty: params.length_penalty + 0.25,
        };
        assert_ne!(message_key(&sequences, &values, &other, 0.8), keys[2]);
        // And message families never mix with segment-matrix families.
        assert_ne!(
            message_family_key(&sequences, &values, &params, 0.8),
            dissim_family_key(&values, &params)
        );
    }

    #[test]
    fn tile_keys_are_prefix_stable() {
        let values: Vec<&[u8]> = vec![b"aa", b"bb", b"cc", b"dd", b"ee", b"ff", b"gg"];
        let params = DissimParams::default();
        let keys = tile_keys(&values, &params, 3); // spans 0..3, 3..6, 6..7
        assert_eq!(keys.len(), 3);
        // Complete tiles keep their keys when the segment set grows.
        let grown_keys = tile_keys(&values[..5], &params, 3); // spans 0..3, 3..5
        assert_eq!(keys[0], grown_keys[0]);
        // A formerly partial tile (span changed 3..5 → 3..6) does not.
        assert_ne!(keys[1], grown_keys[1]);
        // Different geometry, parameters, or values move every key.
        assert_ne!(tile_keys(&values, &params, 4)[0], keys[0]);
        let other = DissimParams {
            length_penalty: params.length_penalty + 0.25,
        };
        assert_ne!(tile_keys(&values, &other, 3)[0], keys[0]);
        // And the tile family is distinct from the monolithic family.
        assert_ne!(
            tile_family_key(&values, &params),
            dissim_family_key(&values, &params)
        );
    }

    #[test]
    fn strata_prefix_keys_chain() {
        let values: Vec<&[u8]> = vec![b"a", b"bb", b"cc", b"ddd", b"ee", b"f", b"ggg"];
        let params = DissimParams::default();
        let keys = strata_keys_at(&values, &params, 3, &[2, 5, 7]);
        // Snapshot keys equal the from-scratch key of each prefix.
        assert_eq!(keys[0], strata_key(&values[..2], &params, 3));
        assert_eq!(keys[1], strata_key(&values[..5], &params, 3));
        assert_eq!(keys[2], strata_key(&values, &params, 3));
        // Different geometry, parameters, or values move the key.
        assert_ne!(strata_key(&values, &params, 4), keys[2]);
        let other = DissimParams {
            length_penalty: params.length_penalty + 0.25,
        };
        assert_ne!(strata_key(&values, &other, 3), keys[2]);
        let shuffled: Vec<&[u8]> = vec![b"a", b"bb", b"cc", b"ddd", b"ee", b"f", b"xxx"];
        assert_ne!(strata_key(&shuffled, &params, 3), keys[2]);
        // Strata keys and families never collide with the tile ones.
        assert_ne!(keys[0], tile_keys(&values, &params, 3)[0]);
        assert_ne!(
            strata_family_key(&values, &params),
            tile_family_key(&values, &params)
        );
    }

    #[test]
    fn config_changes_move_stage_keys() {
        let input = Key([7; 16]);
        let base = FieldTypeClusterer::default();
        let k0 = stage_key(Kind::SELECTION, &input, &base);
        // Thread count must NOT move the key (bits are pinned across
        // thread counts)...
        let mut threaded = base.clone();
        threaded.threads = base.threads + 3;
        assert_eq!(k0, stage_key(Kind::SELECTION, &input, &threaded));
        // ...nor tile geometry or a memory budget — the tiled build is
        // pinned bit-identical to the monolithic one.
        let mut tiled = base.clone();
        tiled.tile_rows = Some(64);
        tiled.max_memory = Some(1 << 20);
        assert_eq!(k0, stage_key(Kind::SELECTION, &input, &tiled));
        // ...nor the neighbor backend — every backend is pinned
        // bit-identical to the matrix oracle.
        let mut stratified = base.clone();
        stratified.neighbor_backend = crate::pipeline::NeighborBackend::Stratified;
        assert_eq!(k0, stage_key(Kind::SELECTION, &input, &stratified));
        // ...while every bit-affecting parameter must.
        let mut other = base.clone();
        other.autoconf.sensitivity += 0.5;
        assert_ne!(k0, stage_key(Kind::SELECTION, &input, &other));
        let mut other = base.clone();
        other.refine.max_merge_rounds += 1;
        assert_ne!(k0, stage_key(Kind::SELECTION, &input, &other));
        let mut other = base;
        other.dissim.length_penalty = 0.25;
        assert_ne!(k0, stage_key(Kind::SELECTION, &input, &other));
    }
}
