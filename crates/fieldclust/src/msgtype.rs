//! Message type identification via continuous segment similarity.
//!
//! The paper deliberately does *not* cluster whole messages — prior work
//! covers that, in particular the authors' own NEMETYL (Kleber et al.,
//! INFOCOM 2020, the paper's reference \[10\], which also introduced the
//! Canberra dissimilarity reused here). This module implements that
//! companion analysis on top of the same machinery: messages are
//! sequences of segments; two messages are compared by aligning their
//! segment sequences with dynamic programming, using the precomputed
//! segment dissimilarity matrix as substitution cost; the resulting
//! message dissimilarity matrix is clustered with the same
//! auto-configured DBSCAN. Together with the field type clustering this
//! completes the inference stack: message types × field types.

use crate::segments::SegmentStore;
use crate::session::AnalysisSession;
use crate::FieldTypeClusterer;
use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use cluster::dbscan::{dbscan, Clustering};
use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};
use segment::TraceSegmentation;
use std::sync::atomic::{AtomicBool, Ordering};
use trace::Trace;

/// Configuration of the message type identifier. Segment dissimilarity
/// parameters and thread counts come from the owning session's
/// [`FieldTypeClusterer`] config.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageTypeConfig {
    /// ε auto-configuration for the message-level DBSCAN.
    pub autoconf: AutoConfig,
    /// Alignment gap penalty (cost of leaving a segment unmatched),
    /// in dissimilarity units.
    pub gap_penalty: f64,
}

impl Default for MessageTypeConfig {
    fn default() -> Self {
        Self {
            autoconf: AutoConfig::default(),
            gap_penalty: 0.8,
        }
    }
}

/// The result: one cluster id (or noise) per message of the trace.
#[derive(Debug, Clone)]
pub struct MessageTypes {
    /// Clustering over the trace's messages.
    pub clustering: Clustering,
    /// The auto-configured ε for the message matrix.
    pub epsilon: f64,
    /// `min_samples` used.
    pub min_samples: usize,
}

/// Error from [`identify_message_types`].
#[derive(Debug, Clone, PartialEq)]
pub enum MessageTypeError {
    /// Fewer than four messages.
    TooFewMessages {
        /// Messages available.
        n: usize,
    },
    /// The owning [`AnalysisSession`] has no segmentation installed yet.
    MissingSegmentation,
    /// The session's [`CancelToken`](crate::CancelToken) tripped
    /// between stages or between outer rows of the alignment build.
    Cancelled,
}

impl std::fmt::Display for MessageTypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageTypeError::TooFewMessages { n } => {
                write!(f, "too few messages for type identification ({n} < 4)")
            }
            MessageTypeError::MissingSegmentation => {
                write!(f, "no segmentation installed (run the segment stage first)")
            }
            MessageTypeError::Cancelled => {
                write!(f, "analysis cancelled (token tripped or deadline passed)")
            }
        }
    }
}

impl std::error::Error for MessageTypeError {}

/// Clusters the trace's messages into message types.
///
/// This is a convenience wrapper over [`AnalysisSession::message_types`]
/// with a default session config; use a session directly to share the
/// segment dissimilarity matrix with the field type analysis.
///
/// # Errors
///
/// Returns [`MessageTypeError::TooFewMessages`] for traces with fewer
/// than four messages.
pub fn identify_message_types(
    trace: &Trace,
    segmentation: &TraceSegmentation,
    config: &MessageTypeConfig,
) -> Result<MessageTypes, MessageTypeError> {
    let mut session = AnalysisSession::new(trace, FieldTypeClusterer::default());
    session.set_segmentation(segmentation.clone());
    session.message_types(config)
}

/// Each message as a sequence of unique-segment ids, numbered over the
/// store's `segments ++ excluded` ([`SegmentStore::all_values`]): every
/// segment counts, however short. Instances are recorded per segment,
/// so sort them back into per-message offset order.
pub(crate) fn segment_sequences(n: usize, store: &SegmentStore) -> Vec<Vec<usize>> {
    let mut with_offsets: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (id, seg) in store.segments.iter().chain(&store.excluded).enumerate() {
        for inst in &seg.instances {
            with_offsets[inst.message].push((inst.range.start, id));
        }
    }
    with_offsets
        .into_iter()
        .map(|mut v| {
            v.sort_unstable();
            v.into_iter().map(|(_, id)| id).collect()
        })
        .collect()
}

/// Clusters messages by their dissimilarity `matrix` with the
/// auto-configured, unweighted DBSCAN of the field analysis:
/// `min_samples = round(ln n)`, ε from Algorithm 1 over the matrix's
/// k-NN table, or half the mean dissimilarity when no knee exists.
pub(crate) fn cluster_messages(
    matrix: &CondensedMatrix,
    autoconf: &AutoConfig,
    threads: usize,
) -> MessageTypes {
    let n = matrix.len();
    let min_samples = ((n as f64).ln().round() as usize).max(2);
    let provider = MatrixProvider::new(matrix);
    let table = provider.knn_table(required_k_max(n), threads);
    let epsilon = match auto_configure(&table, autoconf) {
        Ok(p) => p.epsilon,
        Err(_) => matrix.mean().unwrap_or(0.5) / 2.0,
    };
    let regions = provider.region_table(epsilon, threads);
    let clustering = dbscan(&regions, epsilon, min_samples, &vec![1; n]);
    MessageTypes {
        clustering,
        epsilon,
        min_samples,
    }
}

/// Message pairs advanced in lockstep per DP sweep of
/// [`alignment_matrix`]. Each lane's add→min chain is latency-bound;
/// four independent chains keep the FP pipelines busy, while wider
/// sweeps waste more cells on lanes shorter than the longest.
const LANES: usize = 4;

/// Bytes of full substitution rows one alignment build gathers up front
/// for its recurring segments ([`RowCache`]): 256 KiB, about 20 rows at
/// u ≈ 1.7k unique segments. The most widely held segments account for
/// most of the repeated walks; a larger cache measured no faster on
/// fixed-width NTP and added its size to the report's peak memory.
const ROW_CACHE_BYTES: usize = 256 << 10;

/// The message dissimilarity matrix: the normalized global alignment
/// cost of every message pair's segment-id sequences. Substitution
/// costs come from `seg_matrix`, gaps cost `gap`, and each total is
/// normalized by the longer sequence length so results live in
/// `[0, ~1]`; an empty sequence costs 0 against another empty one and
/// 1 against any other.
///
/// `prefix` holds the costs among the first `prefix.len()` messages,
/// from an earlier build over messages with the same segment-value
/// sequences: they are the leading cells of the grown lower triangle,
/// copied as one slice, and only the appended rows `b ≥ prefix.len()`
/// are aligned. A cold build is the extension of the empty prefix. A
/// pair's cost is a pure function of its two segment-value sequences,
/// `seg_matrix`'s parameters and `gap`, so the result is bit-identical
/// to a cold build over the same messages whenever the prefix was built
/// from matching inputs.
///
/// The appended message `b` of a row is the outer message: the
/// substitution rows of its segments are gathered once into a
/// contiguous `len(b) × u` buffer (the rows of recurring segments from
/// a [`RowCache`] built once per call), and every earlier message `a < b`,
/// in ascending length order, is aligned against it [`LANES`] pairs per
/// DP sweep over two rolling rows. Every cell performs the same f64
/// operations as the textbook pairwise DP of `(a, b)` transposed —
/// `sub`, the two gap moves, then the minimum of the three ([`dp_min`],
/// exact for DP cells) — and the minimum of the same three sums does
/// not depend on their order, while `D(i, j) = D(j, i)` makes the
/// substitution costs the same; a lane's cells never read past its own
/// length. So the result is bit-identical to the pairwise DP for any
/// lane grouping and thread count, given substitution costs that are
/// non-negative numbers and a positive gap.
///
/// `stop` is polled before every appended row; once it returns `true`
/// the build abandons its partial matrix and returns
/// [`MessageTypeError::Cancelled`].
///
/// # Panics
///
/// Panics if a sequence holds a segment id outside `seg_matrix`, or if
/// `prefix` covers more messages than `sequences`.
pub(crate) fn alignment_matrix(
    sequences: &[Vec<usize>],
    prefix: &CondensedMatrix,
    seg_matrix: &CondensedMatrix,
    gap: f64,
    threads: usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<CondensedMatrix, MessageTypeError> {
    let n = sequences.len();
    let n_old = prefix.len();
    assert!(
        n_old <= n,
        "a prefix cannot cover more messages than the trace"
    );
    let (mut by_length, empty): (Vec<usize>, Vec<usize>) =
        (0..n).partition(|&b| !sequences[b].is_empty());
    by_length.sort_by_key(|&b| (sequences[b].len(), b));
    // Row 0 of the lower triangle holds no pairs.
    let first = n_old.max(1).min(n);
    let aligner = Aligner {
        sequences,
        by_length: &by_length,
        empty: &empty,
        seg_matrix,
        recurring: RowCache::new(&sequences[first..], seg_matrix),
        gap,
    };
    // A flag only; the result is read after the workers are joined.
    let stopped = AtomicBool::new(false);
    // Each chunk of consecutive appended rows fills one contiguous block
    // of the condensed triangle; blocks are placed by their first row.
    let rows = parkit::map_blocks(
        threads,
        n - first,
        1,
        Scratch::default,
        |scratch, chunk, block| {
            block.reserve(chunk.clone().map(|r| first + r).sum());
            for r in chunk {
                if stopped.load(Ordering::Relaxed) || stop() {
                    stopped.store(true, Ordering::Relaxed);
                    return;
                }
                let b = first + r;
                let start = block.len();
                block.resize(start + b, 0.0);
                aligner.row(b, scratch, &mut block[start..]);
            }
        },
    );
    if stopped.into_inner() {
        return Err(MessageTypeError::Cancelled);
    }
    let data = if n_old == 0 {
        rows
    } else {
        let mut data = Vec::with_capacity(prefix.values().len() + rows.len());
        data.extend_from_slice(prefix.values());
        data.extend_from_slice(&rows);
        data
    };
    Ok(CondensedMatrix::from_condensed(n, data).expect("blocks cover every appended row"))
}

/// Per-worker buffers of [`alignment_matrix`], reused across rows.
#[derive(Default)]
struct Scratch {
    /// The outer message's gathered substitution rows, `len(b) × u`.
    gathered: Vec<f64>,
    /// The earlier non-empty messages of the current row, by ascending
    /// length.
    inner: Vec<usize>,
    lanes: Lanes,
}

/// Per-worker DP buffers, reused across sweeps.
#[derive(Default)]
struct Lanes {
    /// Lane-interleaved segment ids of the current sweep.
    ids: Vec<[usize; LANES]>,
    /// The two rolling DP rows, one cell per lane.
    prev: Vec<[f64; LANES]>,
    cur: Vec<[f64; LANES]>,
}

/// The read-only inputs of [`alignment_matrix`].
struct Aligner<'a> {
    sequences: &'a [Vec<usize>],
    /// Non-empty messages by ascending (length, index).
    by_length: &'a [usize],
    /// Empty messages, ascending.
    empty: &'a [usize],
    seg_matrix: &'a CondensedMatrix,
    recurring: RowCache,
    gap: f64,
}

/// Full substitution rows of the segments that recur most across the
/// messages an alignment build aligns, gathered once for the build.
///
/// In the lower-triangle layout the row of segment `s` is stored for
/// the columns before `s`; the columns after it are one entry per later
/// row. Segments that recur across messages have small ids (ids follow
/// first occurrence), so their rows are mostly such columns, and they
/// would be walked again for every message holding them. The cache
/// walks them once, all in one pass over the matrix
/// ([`MatrixView::gather_rows`](dissim::MatrixView::gather_rows)), and
/// every later use is a slice copy. The values are copied, never
/// computed, so the cache cannot change a result.
struct RowCache {
    /// Slot of each segment id in `rows`, `u32::MAX` when not cached.
    slot: Vec<u32>,
    rows: Vec<f64>,
}

impl RowCache {
    /// Caches the segments held by at least two of `outer`'s messages,
    /// most held first, up to [`ROW_CACHE_BYTES`].
    fn new(outer: &[Vec<usize>], seg_matrix: &CondensedMatrix) -> Self {
        let u = seg_matrix.len();
        let mut holders = vec![0u32; u];
        let mut seen = vec![usize::MAX; u];
        for (m, seq) in outer.iter().enumerate() {
            for &s in seq {
                if seen[s] != m {
                    seen[s] = m;
                    holders[s] += 1;
                }
            }
        }
        let mut ids: Vec<usize> = (0..u).filter(|&s| holders[s] >= 2).collect();
        ids.sort_unstable_by_key(|&s| (std::cmp::Reverse(holders[s]), s));
        ids.truncate(ROW_CACHE_BYTES / (8 * u.max(1)));
        let mut slot = vec![u32::MAX; u];
        for (k, &s) in ids.iter().enumerate() {
            slot[s] = k as u32;
        }
        let mut rows = Vec::new();
        seg_matrix.view().gather_rows(&ids, &mut rows);
        Self { slot, rows }
    }

    /// The full row of segment `s`, if cached.
    fn row(&self, s: usize) -> Option<&[f64]> {
        let u = self.slot.len();
        match self.slot[s] {
            u32::MAX => None,
            k => Some(&self.rows[k as usize * u..][..u]),
        }
    }
}

impl Aligner<'_> {
    /// Fills lower-triangle row `b`: `out[a]` is the alignment cost of
    /// messages `a` and `b` for every `a < b` (`out.len() == b`).
    fn row(&self, b: usize, scratch: &mut Scratch, out: &mut [f64]) {
        let seq_b = &self.sequences[b];
        if seq_b.is_empty() {
            for (slot, seq_a) in out.iter_mut().zip(self.sequences) {
                *slot = if seq_a.is_empty() { 0.0 } else { 1.0 };
            }
            return;
        }
        for &a in &self.empty[..self.empty.partition_point(|&a| a < b)] {
            out[a] = 1.0;
        }
        let Scratch {
            gathered,
            inner,
            lanes,
        } = scratch;
        inner.clear();
        inner.extend(self.by_length.iter().copied().filter(|&a| a < b));
        if inner.is_empty() {
            return;
        }
        gathered.clear();
        for &s in seq_b {
            if let Some(row) = self.recurring.row(s) {
                gathered.extend_from_slice(row);
                continue;
            }
            let (head, column) = self.seg_matrix.row_parts(s);
            gathered.extend_from_slice(head);
            gathered.push(0.0);
            gathered.extend(column);
        }
        self.align_inner(b, inner, gathered, lanes, out);
    }

    /// Aligns message `b` against every message of `inner` (non-empty,
    /// ascending length), [`LANES`] at a time; row `i` of `gathered`
    /// holds the substitution costs of `b`'s `i`-th segment.
    fn align_inner(
        &self,
        b: usize,
        inner: &[usize],
        gathered: &[f64],
        lanes: &mut Lanes,
        out: &mut [f64],
    ) {
        let lb = self.sequences[b].len();
        for chunk in inner.chunks(LANES) {
            // Lanes past a partial chunk repeat its last pair, and a lane
            // shorter than the chunk's longest repeats its last id: cells
            // beyond a lane's own length never feed its result.
            let lane = |l: usize| &self.sequences[chunk[l.min(chunk.len() - 1)]];
            let lens: [usize; LANES] = std::array::from_fn(|l| lane(l).len());
            lanes.ids.clear();
            lanes.ids.extend((0..lens[LANES - 1]).map(|j| {
                std::array::from_fn(|l| {
                    let seq = lane(l);
                    seq[j.min(seq.len() - 1)]
                })
            }));
            let totals = self.sweep(gathered, lanes);
            for (l, &a) in chunk.iter().enumerate() {
                out[a] = totals[lens[l]][l] / lb.max(lens[l]) as f64;
            }
        }
    }

    /// One DP sweep of the outer message, one DP row per gathered
    /// substitution row, against the [`LANES`] inner sequences in
    /// `lanes.ids`; returns the last DP row, whose column `j` holds each
    /// lane's cost against its first `j` segments.
    fn sweep<'l>(&self, gathered: &[f64], lanes: &'l mut Lanes) -> &'l [[f64; LANES]] {
        let Lanes { ids, prev, cur } = lanes;
        let (gap, lb) = (self.gap, ids.len());
        let u = self.seg_matrix.len();
        prev.clear();
        prev.push([0.0; LANES]);
        prev.extend((1..=lb).map(|j| [j as f64 * gap; LANES]));
        cur.clear();
        cur.resize(lb + 1, [0.0; LANES]);
        for (i, subst) in gathered.chunks_exact(u).enumerate() {
            let mut left = [(i + 1) as f64 * gap; LANES];
            cur[0] = left;
            for ((out, above), id) in cur[1..].iter_mut().zip(prev.windows(2)).zip(ids.iter()) {
                let (diag, up) = (above[0], above[1]);
                let cell: [f64; LANES] = std::array::from_fn(|l| {
                    let sub = diag[l] + subst[id[l]];
                    let del = up[l] + gap;
                    let ins = left[l] + gap;
                    dp_min(dp_min(sub, del), ins)
                });
                *out = cell;
                left = cell;
            }
            std::mem::swap(prev, cur);
        }
        prev
    }
}

/// `a.min(b)` as one compare-select, for DP cells. Cells are sums of
/// non-negative substitution costs and a positive gap, so they are
/// never NaN or −0, and for such operands this equals `f64::min` bit
/// for bit; it skips the NaN fix-up `f64::min` compiles to, which would
/// lengthen every cell's add→min dependency chain.
#[inline]
fn dp_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Normalized global alignment cost of two segment-id sequences — the
/// pairwise textbook DP that [`alignment_matrix`] must reproduce bit
/// for bit.
#[cfg(test)]
pub(crate) fn align_cost(a: &[usize], b: &[usize], seg_matrix: &CondensedMatrix, gap: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let (rows, cols) = (a.len() + 1, b.len() + 1);
    let mut dp = vec![0.0f64; rows * cols];
    for i in 1..rows {
        dp[i * cols] = i as f64 * gap;
    }
    for (j, cell) in dp.iter_mut().enumerate().take(cols).skip(1) {
        *cell = j as f64 * gap;
    }
    for i in 1..rows {
        for j in 1..cols {
            let sub = dp[(i - 1) * cols + (j - 1)] + seg_matrix.get(a[i - 1], b[j - 1]);
            let del = dp[(i - 1) * cols + j] + gap;
            let ins = dp[i * cols + (j - 1)] + gap;
            dp[i * cols + j] = sub.min(del).min(ins);
        }
    }
    dp[rows * cols - 1] / a.len().max(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::truth_segmentation;
    use evalkit::{pair_counts, ClusterMetrics};
    use protocols::{corpus, Protocol, ProtocolSpec};

    fn run(protocol: Protocol, n: usize) -> (Vec<&'static str>, MessageTypes) {
        let trace = corpus::build_trace(protocol, n, 3);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let types: Vec<&'static str> = trace
            .iter()
            .map(|m| {
                protocol
                    .message_type(m.payload())
                    .expect("corpus messages parse")
            })
            .collect();
        let result = identify_message_types(&trace, &seg, &MessageTypeConfig::default())
            .expect("enough messages");
        (types, result)
    }

    fn metrics(types: &[&'static str], result: &MessageTypes) -> ClusterMetrics {
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
        ClusterMetrics::from_counts(&pair_counts(&clusters, &noise))
    }

    #[test]
    fn dns_queries_and_responses_separate() {
        let (types, result) = run(Protocol::Dns, 60);
        let m = metrics(&types, &result);
        assert!(
            m.precision > 0.8,
            "precision = {} ({:?} clusters)",
            m.precision,
            result.clustering.n_clusters()
        );
        assert!(result.clustering.n_clusters() >= 2);
    }

    #[test]
    fn ntp_modes_separate() {
        let (types, result) = run(Protocol::Ntp, 60);
        let m = metrics(&types, &result);
        assert!(m.precision > 0.8, "precision = {}", m.precision);
    }

    #[test]
    fn alignment_cost_properties() {
        let seg_matrix = CondensedMatrix::build(3, |i, j| if i == j { 0.0 } else { 0.5 });
        // Identical sequences cost nothing.
        assert_eq!(align_cost(&[0, 1, 2], &[0, 1, 2], &seg_matrix, 0.8), 0.0);
        // Symmetry.
        let ab = align_cost(&[0, 1], &[1, 2, 0], &seg_matrix, 0.8);
        let ba = align_cost(&[1, 2, 0], &[0, 1], &seg_matrix, 0.8);
        assert_eq!(ab, ba);
        // Empty vs non-empty is maximal.
        assert_eq!(align_cost(&[], &[0], &seg_matrix, 0.8), 1.0);
        assert_eq!(align_cost(&[], &[], &seg_matrix, 0.8), 0.0);
    }

    #[test]
    fn alignment_build_stops_between_rows() {
        use std::sync::atomic::AtomicUsize;
        let seg_matrix = CondensedMatrix::build(3, |i, j| (i + j) as f64 / 4.0);
        let sequences: Vec<Vec<usize>> = (0..9).map(|m| vec![m % 3, (m + 1) % 3]).collect();
        let polls = AtomicUsize::new(0);
        let after_three_rows = || polls.fetch_add(1, Ordering::Relaxed) >= 3;
        let empty = CondensedMatrix::build(0, |_, _| 0.0);
        let stopped = alignment_matrix(&sequences, &empty, &seg_matrix, 0.8, 1, &after_three_rows);
        assert_eq!(stopped, Err(MessageTypeError::Cancelled));
        assert_eq!(
            polls.load(Ordering::Relaxed),
            4,
            "polled once per started row"
        );
        let full = alignment_matrix(&sequences, &empty, &seg_matrix, 0.8, 1, &|| false).unwrap();
        assert_eq!(full.len(), 9);
        // An extension polls once per appended row: the rows of the
        // copied prefix are not visited.
        let prefix =
            alignment_matrix(&sequences[..6], &empty, &seg_matrix, 0.8, 1, &|| false).unwrap();
        polls.store(0, Ordering::Relaxed);
        let grown = alignment_matrix(&sequences, &prefix, &seg_matrix, 0.8, 1, &|| {
            polls.fetch_add(1, Ordering::Relaxed);
            false
        });
        assert_eq!(grown, Ok(full));
        assert_eq!(
            polls.load(Ordering::Relaxed),
            3,
            "one poll per appended row"
        );
        polls.store(0, Ordering::Relaxed);
        let after_two_rows = || polls.fetch_add(1, Ordering::Relaxed) >= 2;
        let stopped = alignment_matrix(&sequences, &prefix, &seg_matrix, 0.8, 1, &after_two_rows);
        assert_eq!(stopped, Err(MessageTypeError::Cancelled));
        assert_eq!(polls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn too_few_messages_is_an_error() {
        let trace = corpus::build_trace(Protocol::Ntp, 3, 1);
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let seg = truth_segmentation(&trace, &gt);
        assert!(matches!(
            identify_message_types(&trace, &seg, &MessageTypeConfig::default()),
            Err(MessageTypeError::TooFewMessages { n: 3 })
        ));
    }

    #[test]
    fn every_message_is_labelled() {
        let (_, result) = run(Protocol::Smb, 40);
        assert_eq!(result.clustering.len(), 40);
        assert!(result.epsilon > 0.0);
    }

    mod oracle {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The lane-batched builder reproduces the pairwise DP bit for
            /// bit: empty sequences, uniform and mixed lengths, inner
            /// message counts that are not multiples of the lane count,
            /// fewer than four messages, and at 1 and 4 threads. Coarse
            /// costs (multiples of ¼, gap ½) make exact ties between
            /// `sub`, `del` and `ins` common.
            #[test]
            fn alignment_matrix_matches_pairwise_align_cost(
                u in 1usize..10,
                costs in prop::collection::vec(0.0f64..1.0, 45),
                raw in prop::collection::vec(prop::collection::vec(0usize..10, 0..6), 0..14),
                uniform in any::<bool>(),
                gap in 0.05f64..1.5,
                coarse in any::<bool>(),
            ) {
                let (costs, gap) = if coarse {
                    (costs.iter().map(|c| (c * 4.0).floor() / 4.0).collect(), 0.5)
                } else {
                    (costs, gap)
                };
                let seg_matrix =
                    CondensedMatrix::from_condensed(u, costs[..u * (u - 1) / 2].to_vec())
                        .expect("triangle length");
                let mut sequences: Vec<Vec<usize>> = raw
                    .into_iter()
                    .map(|seq| seq.into_iter().map(|id| id % u).collect())
                    .collect();
                if uniform {
                    let len = sequences.first().map_or(0, Vec::len);
                    for seq in &mut sequences {
                        seq.resize(len, 0);
                    }
                }
                let n = sequences.len();
                let empty = CondensedMatrix::build(0, |_, _| 0.0);
                for threads in [1, 4] {
                    let m = alignment_matrix(&sequences, &empty, &seg_matrix, gap, threads, &|| false)
                        .expect("never stopped");
                    prop_assert_eq!(m.len(), n);
                    for a in 0..n {
                        for b in a + 1..n {
                            let want = align_cost(&sequences[a], &sequences[b], &seg_matrix, gap);
                            prop_assert_eq!(
                                m.get(a, b).to_bits(),
                                want.to_bits(),
                                "pair ({}, {}) at {} threads",
                                a,
                                b,
                                threads
                            );
                        }
                    }
                }
            }

            /// Extending the matrix of every prefix `n_old ∈ [0, n]` of
            /// the messages gives the cold build over all of them, bit
            /// for bit, at 1, 2 and 4 threads — with empty messages,
            /// prefixes that end on one, and prefixes built at another
            /// thread count.
            #[test]
            fn extending_every_prefix_matches_the_cold_build(
                u in 1usize..10,
                costs in prop::collection::vec(0.0f64..1.0, 45),
                raw in prop::collection::vec(prop::collection::vec(0usize..10, 0..6), 0..14),
                gap in 0.05f64..1.5,
            ) {
                let seg_matrix =
                    CondensedMatrix::from_condensed(u, costs[..u * (u - 1) / 2].to_vec())
                        .expect("triangle length");
                let sequences: Vec<Vec<usize>> = raw
                    .into_iter()
                    .map(|seq| seq.into_iter().map(|id| id % u).collect())
                    .collect();
                let n = sequences.len();
                let bits = |m: &CondensedMatrix| {
                    m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let empty = CondensedMatrix::build(0, |_, _| 0.0);
                let never = || false;
                let cold = alignment_matrix(&sequences, &empty, &seg_matrix, gap, 1, &never)
                    .expect("never stopped");
                for n_old in 0..=n {
                    let prefix = alignment_matrix(
                        &sequences[..n_old], &empty, &seg_matrix, gap, 1 + n_old % 2, &never,
                    )
                    .expect("never stopped");
                    for threads in [1, 2, 4] {
                        let grown = alignment_matrix(
                            &sequences, &prefix, &seg_matrix, gap, threads, &never,
                        )
                        .expect("never stopped");
                        prop_assert_eq!(grown.len(), n);
                        prop_assert!(
                            bits(&grown) == bits(&cold),
                            "prefix {} at {} threads", n_old, threads
                        );
                    }
                }
            }
        }
    }
}
