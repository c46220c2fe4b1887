//! The fast Canberra kernel layer: byte-pair lookup table, early-abandon
//! sliding windows, and the length-bucketed condensed-matrix build.
//!
//! Everything in this module is a **bit-identical** drop-in for the
//! scalar reference code in [`crate::canberra`]. Bit-identity is a hard
//! requirement, not a nicety: the pipeline's ε auto-configuration finds
//! a knee in the ECDF of k-NN dissimilarities and DBSCAN compares raw
//! matrix entries against that ε, so a 1-ULP perturbation of a single
//! matrix entry can move a segment across the ε threshold and cascade
//! into a structurally different clustering. The session-equivalence
//! tests pin ε bit-for-bit against the naive build; the kernels below
//! therefore only apply transformations that provably preserve every bit
//! of the result:
//!
//! 1. **Byte-pair LUT** ([`CanberraLut`]): the per-byte term
//!    `|x − y| / (x + y)` only depends on the byte pair, so all 256×256
//!    values are precomputed once (512 KiB, L2-resident) with *exactly*
//!    the scalar expression. A lookup returns the same `f64` the scalar
//!    code would compute, and the left-to-right summation order is
//!    unchanged, so the window sum is bit-identical.
//! 2. **Early abandonment** ([`dissimilarity_kernel`]): the windowed
//!    minimum is tracked in the *sum* domain. Rounded division by the
//!    positive constant `len` is monotonic and the minimum is attained
//!    by one of the windows, so `(min_w sum_w) / len` equals
//!    `min_w (sum_w / len)` bit-for-bit — the per-window division
//!    vanishes. A window's accumulation then aborts once its running
//!    partial sum reaches the best complete sum so far: per-byte terms
//!    are non-negative and rounded addition of a non-negative value
//!    never decreases an f64, so the abandoned window's full sum could
//!    never have lowered the minimum. Both arguments hold for *any*
//!    evaluation order of the windows, because the minimum of complete
//!    sums is order-independent.
//! 3. **Length-bucketed build** ([`CondensedMatrix::build_segments`]):
//!    segment indices are sorted into equal-length buckets so
//!    equal-length pairs take the branch-free direct-Canberra path and
//!    every mixed-length (S, L) bucket pair shares one windowed kernel
//!    with its constants hoisted and every segment's LUT row offsets
//!    precomputed once per build. The hot loops run **four independent accumulation
//!    lanes** (four windows of one pair, or four columns of one
//!    equal-length bucket) to hide the f64 add latency of the otherwise
//!    serial accumulation chain — each lane is still a strict
//!    left-to-right sum over its own window, so every completed sum is
//!    the exact scalar value, and per point 2 the window order doesn't
//!    matter. Rows are handed out to scoped threads in contiguous
//!    blocks; each row owns a contiguous condensed range, so writes
//!    stay cache-local and never alias.

use std::sync::OnceLock;

use crate::canberra::DissimParams;
#[cfg(test)]
use crate::canberra::{canberra_distance, dissimilarity};
use crate::cells::Cells;
use crate::matrix::{condensed_index, CondensedMatrix};

/// Lazily initialized 256 × 256 table of per-byte Canberra terms
/// `|x − y| / (x + y)` with `0/0 := 0`.
///
/// Each entry is computed by the exact scalar expression used in
/// [`crate::canberra_distance`], so a lookup is bit-identical to evaluating the
/// term — it merely replaces two int→f64 conversions, a subtraction,
/// an `abs`, and a division with a single L2-resident load.
pub struct CanberraLut {
    terms: Box<[f64; 65536]>,
}

impl CanberraLut {
    fn new() -> Self {
        let mut terms = vec![0.0f64; 65536].into_boxed_slice();
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                // Exactly the scalar per-byte term of `canberra_distance`.
                let num = (f64::from(x) - f64::from(y)).abs();
                let den = f64::from(x) + f64::from(y);
                terms[(usize::from(x) << 8) | usize::from(y)] =
                    if den == 0.0 { 0.0 } else { num / den };
            }
        }
        let terms: Box<[f64; 65536]> = terms.try_into().expect("65536 terms");
        Self { terms }
    }

    /// The process-wide table, built on first use.
    pub fn global() -> &'static CanberraLut {
        static LUT: OnceLock<CanberraLut> = OnceLock::new();
        LUT.get_or_init(CanberraLut::new)
    }

    /// The Canberra term of byte pair `(x, y)`.
    #[inline(always)]
    pub fn term(&self, x: u8, y: u8) -> f64 {
        self.terms[(usize::from(x) << 8) | usize::from(y)]
    }

    /// The Canberra term addressed by a precomputed row key
    /// (`usize::from(x) << 8`) and the column byte `y`.
    #[inline(always)]
    fn term_key(&self, key: usize, y: u8) -> f64 {
        self.terms[key | usize::from(y)]
    }
}

/// Precomputed LUT row offsets (`byte << 8`) for every segment of a
/// build, hoisting the shift out of the hot loops: keys are built once
/// per segment and then shared read-only across all pairings (and all
/// threads), instead of being recomputed per pair.
struct KeyTable {
    data: Vec<usize>,
    ranges: Vec<(usize, usize)>,
}

impl KeyTable {
    fn new(segments: &[&[u8]]) -> Self {
        let total = segments.iter().map(|s| s.len()).sum();
        let mut data = Vec::with_capacity(total);
        let mut ranges = Vec::with_capacity(segments.len());
        for seg in segments {
            let start = data.len();
            data.extend(seg.iter().map(|&b| usize::from(b) << 8));
            ranges.push((start, data.len()));
        }
        Self { data, ranges }
    }

    /// The key slice of segment `i`; same length as the segment.
    #[inline]
    fn get(&self, i: usize) -> &[usize] {
        let (start, end) = self.ranges[i];
        &self.data[start..end]
    }
}

impl std::fmt::Debug for CanberraLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CanberraLut").finish_non_exhaustive()
    }
}

/// [`crate::canberra_distance`] computed through the LUT; bit-identical.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn canberra_distance_lut(a: &[u8], b: &[u8], lut: &CanberraLut) -> f64 {
    assert_eq!(a.len(), b.len(), "canberra distance needs equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(&x, &y)| lut.term(x, y)).sum();
    sum / a.len() as f64
}

/// Minimum windowed Canberra distance of `short` slid over `long`,
/// computing every window in full (LUT only, no early abandonment).
///
/// Works in the *sum* domain: `min_w (sum_w / len) == (min_w sum_w) /
/// len` bit-for-bit, because rounded division by a positive constant is
/// monotonic and the minimum is attained by one of the windows — so the
/// per-window division of the scalar code can be hoisted out of the
/// loop without changing a single bit.
fn windowed_min_full(short: &[u8], long: &[u8], lut: &CanberraLut) -> f64 {
    debug_assert!(!short.is_empty() && short.len() < long.len());
    let mut best_sum = f64::INFINITY;
    for offset in 0..=(long.len() - short.len()) {
        let window = &long[offset..offset + short.len()];
        let sum: f64 = short
            .iter()
            .zip(window)
            .map(|(&x, &y)| lut.term(x, y))
            .sum();
        if sum < best_sum {
            best_sum = sum;
            if best_sum == 0.0 {
                break;
            }
        }
    }
    best_sum / short.len() as f64
}

/// Minimum windowed Canberra distance of `short` slid over `long`,
/// abandoning each window's left-to-right accumulation as soon as the
/// running partial sum reaches the best complete sum so far: remaining
/// terms are non-negative and rounded addition of a non-negative value
/// never decreases the sum, so the window cannot undercut the minimum.
fn windowed_min_abandon(short: &[u8], long: &[u8], lut: &CanberraLut) -> f64 {
    debug_assert!(!short.is_empty() && short.len() < long.len());
    let mut best_sum = f64::INFINITY;
    'windows: for offset in 0..=(long.len() - short.len()) {
        let window = &long[offset..offset + short.len()];
        // Accumulate four terms between abandonment checks: the check is
        // conservative at any frequency, and testing once per chunk
        // keeps the compare off the accumulation chain.
        let mut sum = 0.0f64;
        for (sc, wc) in short.chunks_exact(4).zip(window.chunks_exact(4)) {
            sum += lut.term(sc[0], wc[0]);
            sum += lut.term(sc[1], wc[1]);
            sum += lut.term(sc[2], wc[2]);
            sum += lut.term(sc[3], wc[3]);
            if sum >= best_sum {
                continue 'windows;
            }
        }
        let rest = short.len() & !3;
        for (&x, &y) in short[rest..].iter().zip(&window[rest..]) {
            sum += lut.term(x, y);
        }
        if sum < best_sum {
            best_sum = sum;
            if best_sum == 0.0 {
                break;
            }
        }
    }
    best_sum / short.len() as f64
}

/// Combines a windowed minimum with the non-overlap penalty, exactly as
/// [`crate::dissimilarity`] does.
#[inline]
fn mixed_length(short_len: usize, long_len: usize, best: f64, penalty: f64) -> f64 {
    let overlap = short_len as f64;
    let excess = (long_len - short_len) as f64;
    (overlap * best + excess * penalty) / long_len as f64
}

/// [`crate::dissimilarity`] computed through the LUT with every window
/// evaluated in full — the intermediate rung of the kernel ladder,
/// benchmarked to isolate the LUT's contribution from early
/// abandonment's. Bit-identical to the scalar reference.
pub fn dissimilarity_lut(a: &[u8], b: &[u8], params: &DissimParams, lut: &CanberraLut) -> f64 {
    let penalty = params.effective_penalty();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.is_empty() {
        return 0.0;
    }
    if short.is_empty() {
        return 1.0;
    }
    if short.len() == long.len() {
        return canberra_distance_lut(short, long, lut);
    }
    let best = windowed_min_full(short, long, lut);
    mixed_length(short.len(), long.len(), best, penalty)
}

/// [`crate::dissimilarity`] computed through the LUT with early-abandon
/// sliding windows — the full pairwise kernel. Bit-identical to the
/// scalar reference.
pub fn dissimilarity_kernel(a: &[u8], b: &[u8], params: &DissimParams, lut: &CanberraLut) -> f64 {
    let penalty = params.effective_penalty();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.is_empty() {
        return 0.0;
    }
    if short.is_empty() {
        return 1.0;
    }
    if short.len() == long.len() {
        return canberra_distance_lut(short, long, lut);
    }
    let best = windowed_min_abandon(short, long, lut);
    mixed_length(short.len(), long.len(), best, penalty)
}

/// Mean pairwise dissimilarity of `segments`, streamed pair by pair in
/// condensed row-major order without materializing the matrix; `None`
/// for fewer than two segments.
///
/// Bit-identical to [`CondensedMatrix::mean`] of the built matrix: the
/// entries are the same kernel values and the accumulation visits them
/// in exactly the condensed layout order `data.iter().sum()` uses.
pub fn pairwise_mean(segments: &[&[u8]], params: &DissimParams) -> Option<f64> {
    let n = segments.len();
    if n < 2 {
        return None;
    }
    let lut = CanberraLut::global();
    let mut sum = 0.0f64;
    for i in 0..n - 1 {
        for j in i + 1..n {
            sum += dissimilarity_kernel(segments[i], segments[j], params, lut);
        }
    }
    Some(sum / (n * (n - 1) / 2) as f64)
}

/// Segment indices sharing one length, ascending.
struct Bucket {
    len: usize,
    idxs: Vec<usize>,
}

/// Sorts `indices` into equal-length buckets (ascending length,
/// ascending index within a bucket).
fn make_buckets(segments: &[&[u8]], indices: impl Iterator<Item = usize>) -> Vec<Bucket> {
    let mut order: Vec<usize> = indices.collect();
    order.sort_unstable_by_key(|&i| (segments[i].len(), i));
    let mut buckets: Vec<Bucket> = Vec::new();
    for &i in &order {
        match buckets.last_mut() {
            Some(b) if b.len == segments[i].len() => b.idxs.push(i),
            _ => buckets.push(Bucket {
                len: segments[i].len(),
                idxs: vec![i],
            }),
        }
    }
    buckets
}

/// Canberra sums of one row segment (as LUT row keys) against four
/// equal-length columns at once. Each column's sum is its own strict
/// left-to-right accumulation; the four independent chains hide the f64
/// add latency that serializes the single-column loop.
#[inline]
fn equal_len_sums4(
    keys: &[usize],
    c0: &[u8],
    c1: &[u8],
    c2: &[u8],
    c3: &[u8],
    lut: &CanberraLut,
) -> [f64; 4] {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for ((((&key, &b0), &b1), &b2), &b3) in keys.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
        a0 += lut.term_key(key, b0);
        a1 += lut.term_key(key, b1);
        a2 += lut.term_key(key, b2);
        a3 += lut.term_key(key, b3);
    }
    [a0, a1, a2, a3]
}

/// Minimum window *sum* of the short segment (given as LUT row keys)
/// slid over `long`, accumulating four adjacent windows concurrently.
///
/// Each window's sum is still a strict left-to-right accumulation, so
/// every completed sum is the exact scalar value, and the minimum over
/// complete sums is order-independent — the result is bit-identical to
/// the sequential sweep. Groups of four run check-free to keep the four
/// add chains independent; abandonment happens at group granularity
/// (a whole group is skipped only implicitly, by the min update), and
/// the leftover windows (fewer than four) are summed in full.
fn windowed_min_sum4(keys: &[usize], long: &[u8], lut: &CanberraLut) -> f64 {
    let s = keys.len();
    debug_assert!(s >= 1 && s < long.len());
    let nw = long.len() - s + 1;
    let mut best_sum = f64::INFINITY;
    let mut o = 0usize;
    while o + 4 <= nw {
        // Four shifted views of `long`: lane t sums window o + t.
        let [a0, a1, a2, a3] = equal_len_sums4(
            keys,
            &long[o..o + s],
            &long[o + 1..o + 1 + s],
            &long[o + 2..o + 2 + s],
            &long[o + 3..o + 3 + s],
            lut,
        );
        best_sum = best_sum.min(a0).min(a1).min(a2).min(a3);
        if best_sum == 0.0 {
            return 0.0;
        }
        o += 4;
    }
    while o < nw {
        let window = &long[o..o + s];
        let sum: f64 = keys
            .iter()
            .zip(window)
            .map(|(&key, &y)| lut.term_key(key, y))
            .sum();
        if sum < best_sum {
            best_sum = sum;
            if best_sum == 0.0 {
                return 0.0;
            }
        }
        o += 1;
    }
    best_sum
}

/// Minimum window *sum* of a short segment slid over a long one given
/// as LUT row keys — the transpose of [`windowed_min_sum4`], for the
/// case where the *long* side's keys are the precomputed ones. Window
/// `o` accumulates `term_key(long_keys[o + k], short[k])` left to right
/// in ascending `k`; the per-byte LUT term is symmetric bit-for-bit
/// (`|x − y| = |y − x|` exactly), so each completed sum equals the
/// scalar sweep's `Σ term(short[k], long[o + k])` bit by bit, and the
/// minimum over complete sums is order-independent. Four adjacent
/// windows accumulate concurrently, exactly as in
/// [`windowed_min_sum4`].
fn windowed_min_sum_long_keys(long_keys: &[usize], short: &[u8], lut: &CanberraLut) -> f64 {
    let s = short.len();
    debug_assert!(s >= 1 && s < long_keys.len());
    let nw = long_keys.len() - s + 1;
    let mut best_sum = f64::INFINITY;
    let mut o = 0usize;
    while o + 4 <= nw {
        // Four shifted key views of the long side: lane t sums window o + t.
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let k0 = &long_keys[o..o + s];
        let k1 = &long_keys[o + 1..o + 1 + s];
        let k2 = &long_keys[o + 2..o + 2 + s];
        let k3 = &long_keys[o + 3..o + 3 + s];
        for ((((&y, &key0), &key1), &key2), &key3) in short.iter().zip(k0).zip(k1).zip(k2).zip(k3) {
            a0 += lut.term_key(key0, y);
            a1 += lut.term_key(key1, y);
            a2 += lut.term_key(key2, y);
            a3 += lut.term_key(key3, y);
        }
        best_sum = best_sum.min(a0).min(a1).min(a2).min(a3);
        if best_sum == 0.0 {
            return 0.0;
        }
        o += 4;
    }
    while o < nw {
        let sum: f64 = long_keys[o..o + s]
            .iter()
            .zip(short)
            .map(|(&key, &y)| lut.term_key(key, y))
            .sum();
        if sum < best_sum {
            best_sum = sum;
            if best_sum == 0.0 {
                return 0.0;
            }
        }
        o += 1;
    }
    best_sum
}

/// A per-query kernel configuration: the query segment's LUT row keys
/// and the hoisted penalty, computed **once per query** so a scan over
/// thousands of candidates stops redoing the per-pair setup
/// (`effective_penalty`, the `byte << 8` key shifts) that
/// [`dissimilarity_kernel`] performs on every call.
///
/// [`dist`](Self::dist) is bit-identical to
/// `dissimilarity_kernel(query, other, ..)`: equal-length pairs take
/// the same strict left-to-right LUT accumulation, a shorter query
/// takes the same sum-domain windowed minimum ([`windowed_min_sum4`],
/// pinned against the scalar sweep by the matrix-build tests), and a
/// longer query takes the key-transposed sweep
/// [`windowed_min_sum_long_keys`], equal bit for bit by LUT-term
/// symmetry. Pinned against the plain kernel by
/// `query_dist_matches_kernel_bitwise`.
#[derive(Debug)]
pub struct QueryDist<'a> {
    query: &'a [u8],
    keys: Vec<usize>,
    penalty: f64,
    lut: &'static CanberraLut,
}

impl<'a> QueryDist<'a> {
    /// Hoists the per-query kernel setup for `query`.
    pub fn new(query: &'a [u8], params: &DissimParams) -> Self {
        Self {
            query,
            keys: query.iter().map(|&b| usize::from(b) << 8).collect(),
            penalty: params.effective_penalty(),
            lut: CanberraLut::global(),
        }
    }

    /// Re-targets the configuration at a new query, reusing the key
    /// buffer — for batch loops that answer many queries with one
    /// scratch allocation.
    pub fn set_query(&mut self, query: &'a [u8]) {
        self.query = query;
        self.keys.clear();
        self.keys.extend(query.iter().map(|&b| usize::from(b) << 8));
    }

    /// The query segment this configuration is targeted at.
    pub fn query(&self) -> &'a [u8] {
        self.query
    }

    /// The dissimilarity of the query to `other`; bit-identical to
    /// [`dissimilarity_kernel`] of the pair.
    #[inline]
    pub fn dist(&self, other: &[u8]) -> f64 {
        let lq = self.query.len();
        let lo = other.len();
        if lq.max(lo) == 0 {
            return 0.0;
        }
        if lq.min(lo) == 0 {
            return 1.0;
        }
        if lq == lo {
            let sum: f64 = self
                .keys
                .iter()
                .zip(other)
                .map(|(&key, &y)| self.lut.term_key(key, y))
                .sum();
            return sum / lq as f64;
        }
        if lq < lo {
            let best = windowed_min_sum4(&self.keys, other, self.lut) / lq as f64;
            mixed_length(lq, lo, best, self.penalty)
        } else {
            let best = windowed_min_sum_long_keys(&self.keys, other, self.lut) / lo as f64;
            mixed_length(lo, lq, best, self.penalty)
        }
    }
}

/// Fills row `i` of the condensed matrix (`row[c] = D(segments[i],
/// segments[i + 1 + c])`), walking the length buckets so every bucket's
/// column run shares one kernel configuration.
fn fill_row(
    i: usize,
    segments: &[&[u8]],
    row: &mut [f64],
    buckets: &[Bucket],
    penalty: f64,
    lut: &CanberraLut,
    key_table: &KeyTable,
) {
    let si = segments[i];
    let li = si.len();
    let keys = key_table.get(i);
    for bucket in buckets {
        // Only columns j > i belong to this row.
        let from = bucket.idxs.partition_point(|&j| j <= i);
        let cols = &bucket.idxs[from..];
        if cols.is_empty() {
            continue;
        }
        if bucket.len == li {
            if li == 0 {
                // Both empty: identical.
                for &j in cols {
                    row[j - i - 1] = 0.0;
                }
            } else {
                // Equal lengths: direct Canberra, four columns per pass.
                let lenf = li as f64;
                let mut quads = cols.chunks_exact(4);
                for q in quads.by_ref() {
                    let sums = equal_len_sums4(
                        keys,
                        segments[q[0]],
                        segments[q[1]],
                        segments[q[2]],
                        segments[q[3]],
                        lut,
                    );
                    for (t, &j) in q.iter().enumerate() {
                        row[j - i - 1] = sums[t] / lenf;
                    }
                }
                for &j in quads.remainder() {
                    row[j - i - 1] = canberra_distance_lut(si, segments[j], lut);
                }
            }
        } else if bucket.len.min(li) == 0 {
            // Empty vs non-empty: maximally dissimilar.
            for &j in cols {
                row[j - i - 1] = 1.0;
            }
        } else if li < bucket.len {
            // Row is the short side: its keys slide over each column.
            let (s, l) = (li, bucket.len);
            let lenf = s as f64;
            for &j in cols {
                let best = windowed_min_sum4(keys, segments[j], lut) / lenf;
                row[j - i - 1] = mixed_length(s, l, best, penalty);
            }
        } else {
            // Row is the long side: each column's keys slide over it.
            let (s, l) = (bucket.len, li);
            let lenf = s as f64;
            for &j in cols {
                let best = windowed_min_sum4(key_table.get(j), si, lut) / lenf;
                row[j - i - 1] = mixed_length(s, l, best, penalty);
            }
        }
    }
}

/// A reusable bucketed-kernel configuration for computing arbitrary
/// subsets of the pairwise matrix: buckets over all indices, the shared
/// key table, and the hoisted kernel constants. Built once per tiled
/// build and shared read-only across tiles and worker threads; also the
/// row-sampling probe of the large-u benchmark ladders.
pub struct PairContext<'a> {
    segments: &'a [&'a [u8]],
    buckets: Vec<Bucket>,
    key_table: KeyTable,
    penalty: f64,
    lut: &'static CanberraLut,
}

impl<'a> PairContext<'a> {
    /// Builds the shared configuration for `segments` once: length
    /// buckets, per-segment LUT row keys, and the hoisted penalty.
    pub fn new(segments: &'a [&'a [u8]], params: &DissimParams) -> Self {
        Self {
            segments,
            buckets: make_buckets(segments, 0..segments.len()),
            key_table: KeyTable::new(segments),
            penalty: params.effective_penalty(),
            lut: CanberraLut::global(),
        }
    }

    /// Fills lower-triangle row `j` (`out[i] = D(segments[i],
    /// segments[j])` for every `i < j`; `out.len()` must be `j`).
    ///
    /// Bit-identical to the entries [`fill_row`] produces for the same
    /// pairs: the per-byte LUT term is symmetric bit-for-bit
    /// (`|x − y| = |y − x|` exactly and f64 addition is commutative, so
    /// `term(x, y) == term(y, x)`), position order — and with it every
    /// partial sum — is unchanged, equal-length pairs take the same
    /// direct-Canberra path, and mixed-length pairs pick the short/long
    /// roles by length exactly as `fill_row` does, so the same
    /// `windowed_min_sum4` call is issued for the same pair. Quad-lane
    /// grouping differs, but each lane is an independent exact sum, so
    /// grouping never affects a pair's value (see the module docs).
    pub fn fill_lower_row(&self, j: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), j);
        let sj = self.segments[j];
        let lj = sj.len();
        let keys_j = self.key_table.get(j);
        let lut = self.lut;
        for bucket in &self.buckets {
            // Only rows i < j belong to this lower-triangle row.
            let to = bucket.idxs.partition_point(|&i| i < j);
            let rows = &bucket.idxs[..to];
            if rows.is_empty() {
                continue;
            }
            if bucket.len == lj {
                if lj == 0 {
                    // Both empty: identical.
                    for &i in rows {
                        out[i] = 0.0;
                    }
                } else {
                    // Equal lengths: direct Canberra, four rows per pass.
                    let lenf = lj as f64;
                    let mut quads = rows.chunks_exact(4);
                    for q in quads.by_ref() {
                        let sums = equal_len_sums4(
                            keys_j,
                            self.segments[q[0]],
                            self.segments[q[1]],
                            self.segments[q[2]],
                            self.segments[q[3]],
                            lut,
                        );
                        for (t, &i) in q.iter().enumerate() {
                            out[i] = sums[t] / lenf;
                        }
                    }
                    for &i in quads.remainder() {
                        out[i] = canberra_distance_lut(sj, self.segments[i], lut);
                    }
                }
            } else if bucket.len.min(lj) == 0 {
                // Empty vs non-empty: maximally dissimilar.
                for &i in rows {
                    out[i] = 1.0;
                }
            } else if lj < bucket.len {
                // Column segment is the short side: its keys slide over
                // each bucket row.
                let (s, l) = (lj, bucket.len);
                let lenf = s as f64;
                for &i in rows {
                    let best = windowed_min_sum4(keys_j, self.segments[i], lut) / lenf;
                    out[i] = mixed_length(s, l, best, self.penalty);
                }
            } else {
                // Column segment is the long side: each bucket row's keys
                // slide over it.
                let (s, l) = (bucket.len, lj);
                let lenf = s as f64;
                for &i in rows {
                    let best = windowed_min_sum4(self.key_table.get(i), sj, lut) / lenf;
                    out[i] = mixed_length(s, l, best, self.penalty);
                }
            }
        }
    }
}

/// Extends an already-built condensed matrix over the first `old_n`
/// segments to cover all of `segments`: old entries are copied verbatim
/// and only the pairs touching at least one new segment (index ≥
/// `old_n`) are computed, through the length-bucketed kernels. With
/// `old_n = 0` every pair is new: that is the cold build.
///
/// Bit-identical to the closure-based build over
/// [`crate::dissimilarity`]: every kernel entry equals the scalar value
/// of its pair regardless of bucketing or scheduling (see the module
/// docs), so a spliced matrix and a cold one agree entry by entry.
pub(crate) fn extend_bucketed(
    old_data: &[f64],
    old_n: usize,
    segments: &[&[u8]],
    params: &DissimParams,
    threads: usize,
) -> CondensedMatrix {
    let n = segments.len();
    assert!(old_n <= n, "extension must not shrink the segment set");
    debug_assert_eq!(old_data.len(), old_n * old_n.saturating_sub(1) / 2);
    if old_n == n {
        return CondensedMatrix::from_raw(n, Cells::copy_of(old_data));
    }
    // Buckets over the NEW indices only: every pair (i, j) with
    // j >= old_n is new, and for rows i >= old_n every column j > i is
    // >= old_n too, so new-index buckets cover exactly the missing
    // entries of every row.
    let buckets = make_buckets(segments, old_n..n);
    let mut data = Cells::zeroed(n * (n - 1) / 2);
    // Splice the old rows: row i of the old matrix is the contiguous
    // condensed range for pairs (i, i+1..old_n), which lands at the
    // start of new row i.
    for i in 0..old_n.saturating_sub(1) {
        let old_start = condensed_index(old_n, i, i + 1);
        let new_start = condensed_index(n, i, i + 1);
        data[new_start..new_start + (old_n - i - 1)]
            .copy_from_slice(&old_data[old_start..old_start + (old_n - i - 1)]);
    }
    fill_rows(&mut data, segments, &buckets, params, threads);
    CondensedMatrix::from_raw(n, data)
}

/// Fills every row's entries against the columns in `buckets`, rows
/// handed out in contiguous blocks over the `parkit` scheduler (inline
/// at one thread).
fn fill_rows(
    data: &mut [f64],
    segments: &[&[u8]],
    buckets: &[Bucket],
    params: &DissimParams,
    threads: usize,
) {
    let n = segments.len();
    let penalty = params.effective_penalty();
    let lut = CanberraLut::global();
    let key_table = KeyTable::new(segments);
    let data_ptr = SendPtr(data.as_mut_ptr());
    // The last row has no pairs (j > i required), so n - 1 rows.
    parkit::for_each_chunk(threads, n.saturating_sub(1), 1, |rows| {
        let data_ptr = &data_ptr;
        for i in rows {
            let row_start = condensed_index(n, i, i + 1);
            // SAFETY: row i owns the condensed range [row_start,
            // row_start + n - i - 1) of `data` exclusively, and the
            // scheduler hands out each row exactly once, so the slices
            // never alias.
            let row =
                unsafe { std::slice::from_raw_parts_mut(data_ptr.0.add(row_start), n - i - 1) };
            fill_row(i, segments, row, buckets, penalty, lut, &key_table);
        }
    });
}

/// A raw pointer wrapper asserting cross-thread transferability for the
/// disjoint-row-write pattern in [`fill_rows`].
struct SendPtr(*mut f64);
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;

    const P: DissimParams = DissimParams {
        length_penalty: 0.59,
    };

    #[test]
    fn lut_terms_match_scalar() {
        let lut = CanberraLut::global();
        for x in [0u8, 1, 2, 127, 128, 254, 255] {
            for y in [0u8, 1, 3, 100, 200, 255] {
                let num = (f64::from(x) - f64::from(y)).abs();
                let den = f64::from(x) + f64::from(y);
                let want = if den == 0.0 { 0.0 } else { num / den };
                assert_eq!(lut.term(x, y).to_bits(), want.to_bits(), "({x}, {y})");
            }
        }
    }

    #[test]
    fn lut_distance_matches_scalar() {
        let lut = CanberraLut::global();
        let a = [0u8, 1, 255, 17, 0, 200];
        let b = [0u8, 255, 255, 16, 3, 10];
        assert_eq!(
            canberra_distance_lut(&a, &b, lut).to_bits(),
            canberra_distance(&a, &b).to_bits()
        );
        assert_eq!(canberra_distance_lut(&[], &[], lut), 0.0);
    }

    #[test]
    fn kernel_variants_match_scalar_dissimilarity() {
        let lut = CanberraLut::global();
        let cases: [(&[u8], &[u8]); 7] = [
            (b"", b""),
            (b"", b"abc"),
            (b"abc", b""),
            (b"\x01\x02\x03", b"\x01\x02\x03"),
            (b"\x10\x20\x30", b"\xff\x10\x20\x30\xff"),
            (b"\xff\x00\x7f\x80", b"\x01\x02"),
            (b"\x00", b"\x00\x00\x00\x00\x00\x00\x00"),
        ];
        for (a, b) in cases {
            let want = dissimilarity(a, b, &P).to_bits();
            assert_eq!(
                dissimilarity_lut(a, b, &P, lut).to_bits(),
                want,
                "{a:?} {b:?}"
            );
            assert_eq!(
                dissimilarity_kernel(a, b, &P, lut).to_bits(),
                want,
                "{a:?} {b:?}"
            );
        }
    }

    #[test]
    fn early_abandon_survives_adversarial_windows() {
        // A long run whose best window comes last, so every earlier
        // window must be either completed or provably abandoned.
        let lut = CanberraLut::global();
        let short = [10u8, 20, 30, 40];
        let mut long = vec![255u8; 40];
        long.extend_from_slice(&[10, 20, 30, 41]);
        let want = dissimilarity(&short, &long, &P).to_bits();
        assert_eq!(dissimilarity_kernel(&short, &long, &P, lut).to_bits(), want);
    }

    #[test]
    fn bucketed_build_matches_naive_build() {
        let segs: Vec<&[u8]> = vec![
            b"",
            b"\x01",
            b"\x02",
            b"\x01\x02",
            b"\x03\x02",
            b"\x01\x02\x03\x04",
            b"\xff\xfe\xfd",
            b"\x10\x20\x30\x40\x50\x60\x70\x80",
            b"\x00\x00",
        ];
        let naive = CondensedMatrix::build(segs.len(), |i, j| dissimilarity(segs[i], segs[j], &P));
        for threads in [1, 2, 5] {
            let fast = CondensedMatrix::build_segments(&segs, &P, threads);
            assert_eq!(fast, naive, "threads = {threads}");
        }
    }

    #[test]
    fn bucketed_build_handles_tiny_inputs() {
        assert!(CondensedMatrix::build_segments(&[], &P, 4).is_empty());
        let one = CondensedMatrix::build_segments(&[b"ab".as_slice()], &P, 4);
        assert_eq!(one.len(), 1);
        assert!(one.values().is_empty());
    }

    /// Deterministic mixed-length corpus for the extension tests: many
    /// distinct lengths, repeated values, empties.
    fn corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let len = [0usize, 1, 2, 3, 4, 4, 7, 8, 12][i % 9];
                (0..len)
                    .map(|k| ((i * 31 + k * 17 + i * k) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn extension_is_bit_identical_to_cold_build() {
        let segs = corpus(37);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let cold = CondensedMatrix::build_segments(&values, &P, 3);
        for old_n in [0usize, 1, 2, 5, 18, 36, 37] {
            let old = CondensedMatrix::build_segments(&values[..old_n], &P, 2);
            for threads in [1, 3, 8] {
                let ext = extend_bucketed(old.values(), old_n, &values, &P, threads);
                assert_eq!(ext.len(), cold.len());
                for (k, (a, b)) in ext.values().iter().zip(cold.values()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "old_n = {old_n}, threads = {threads}, entry {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_row_context_matches_bucketed_build() {
        let segs = corpus(41);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let full = CondensedMatrix::build_segments(&values, &P, 2);
        let ctx = PairContext::new(&values, &P);
        let mut out = vec![0.0f64; values.len()];
        for j in 0..values.len() {
            let row = &mut out[..j];
            ctx.fill_lower_row(j, row);
            for (i, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), full.get(i, j).to_bits(), "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn query_dist_matches_kernel_bitwise() {
        // Every (query, candidate) pair over a mixed-length corpus —
        // equal-length, query-shorter and query-longer paths all hit —
        // plus empty segments for the trivial cases.
        let lut = CanberraLut::global();
        let segs = corpus(40);
        let mut qd = QueryDist::new(&segs[0], &P);
        for q in &segs {
            qd.set_query(q);
            for c in &segs {
                let want = dissimilarity_kernel(q, c, &P, lut);
                assert_eq!(qd.dist(c).to_bits(), want.to_bits(), "{q:?} {c:?}");
            }
        }
    }

    #[test]
    fn pairwise_mean_matches_matrix_mean() {
        let segs = corpus(23);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let matrix = CondensedMatrix::build_segments(&values, &P, 2);
        assert_eq!(
            pairwise_mean(&values, &P).unwrap().to_bits(),
            matrix.mean().unwrap().to_bits()
        );
        assert_eq!(pairwise_mean(&values[..1], &P), None);
        assert_eq!(pairwise_mean(&[], &P), None);
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn extension_rejects_shrinking() {
        let segs = corpus(6);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let full = CondensedMatrix::build_segments(&values, &P, 1);
        extend_bucketed(full.values(), full.len(), &values[..3], &P, 1);
    }
}
