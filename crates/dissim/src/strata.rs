//! Length-stratified neighbor search for mixed-length corpora.
//!
//! The penalized Canberra dissimilarity is a true metric only between
//! equal-length segments; on a mixed-length corpus the triangle
//! inequality fails, so a single vantage-point forest over all segments
//! could not prune soundly. This module prunes without giving up
//! exactness by exploiting the structure of the mixed-length formula
//! itself:
//!
//! 1. **Stratification.** Values are partitioned by exact segment
//!    length. Within a stratum every pair is equal-length, so the
//!    dissimilarity restricted to the stratum is the plain normalized
//!    Canberra distance — a metric — and the existing deterministic
//!    [`VpForest`] applies unchanged (built over the stratum-local
//!    index space).
//!
//! 2. **Penalty lower bound.** For `|s| < |t|` the paper's formula is
//!    `D(s,t) = (|s|·min_o c̄(s, t[o..]) + (|t|−|s|)·p) / |t|`, and the
//!    windowed Canberra term is non-negative, so
//!    `D(s,t) ≥ (|t|−|s|)·p / |t|` — a bound that depends only on the
//!    two *lengths*. [`length_lower_bound`] computes it with exactly
//!    the kernel's own sub-expression ordering (`fl(fl(excess·p)/l)`),
//!    which makes the bound sound *bitwise*: the kernel's numerator is
//!    `fl(fl(overlap·best) + fl(excess·p)) ≥ fl(excess·p)` (adding a
//!    non-negative term and rounding to nearest never moves below the
//!    representable addend) and rounded division by the positive `|t|`
//!    is monotone. One bound per (query length, stratum length) pair
//!    lets whole strata be skipped when the bound already exceeds the
//!    range radius or the current k-th-best distance.
//!
//! 3. **LAESA pivots.** Inside a foreign stratum the query is *not* a
//!    member and the mixed-length triangle inequality is unavailable,
//!    but a one-sided bound survives: for pivots `p` and candidates
//!    `x` of common length `L`, `D(q,x) ≥ D(q,p) − d(p,x)` where `d`
//!    is the in-stratum metric. (Proof: each window of the longer side
//!    satisfies the equal-length triangle inequality against the
//!    matching window of `p`, a window mean is at most `L/min(|q|,L)`
//!    times the full-string mean, and the penalty terms coincide.)
//!    Each stratum precomputes `d(p, ·)` rows for its first
//!    [`DEFAULT_PIVOTS`] items, so after `m` exact query–pivot
//!    evaluations every remaining candidate can be screened with a
//!    subtraction before the kernel is touched. The reverse difference
//!    `d(p,x) − D(q,p)` is *not* a valid lower bound across lengths
//!    and is never used.
//!
//! Pruning only ever decides which candidates are *visited*; every
//! emitted distance comes from the exact kernel, every bound is padded
//! by [`PRUNE_SLACK`], and results are emitted in `(dissimilarity,
//! index)` order — so answers are bit-identical to an exact linear scan
//! (pinned against the matrix oracle by the tests here and the
//! session-equivalence suite).
//!
//! The index persists through `crates/store` under `Kind::STRATA` with
//! the same chained-prefix-digest keys the tiles use, and
//! [`StrataIndex::extend_from`] reuses complete chunk trees and pivot
//! rows verbatim on growth — appended values only ever append to a
//! stratum, so the per-stratum local index spaces are append-stable.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::canberra::DissimParams;
use crate::kernel::{dissimilarity_kernel, CanberraLut, QueryDist};
use crate::knn::{table_by_rows, KnnTable};
use crate::provider::{NeighborProvider, BATCH_MIN_CHUNK};
use crate::region::RegionTable;
use crate::vptree::{Cand, Fnv64, VpForest, NO_NODE, PRUNE_SLACK};

/// Pivots per stratum for the LAESA screen: enough to give several
/// independent chances at a pruning bound, few enough that the
/// per-stratum query overhead (`m` exact evaluations) stays trivial.
pub const DEFAULT_PIVOTS: usize = 8;

/// A stratum must be comfortably larger than its pivot count before
/// the LAESA screen pays for the `m` query–pivot evaluations; smaller
/// strata are scanned directly (still guarded by the length bound).
const MIN_LAESA_GAIN: usize = 2;

/// The penalty-derived lower bound on the dissimilarity of any two
/// segments with lengths `la` and `lb`, from the `DissimParams` length
/// penalty alone.
///
/// Bitwise sound against [`crate::dissimilarity`] and the kernel
/// ladder: computed as `fl(fl((l−s)·p) / l)`, exactly the penalty
/// sub-expression of the kernel's `mixed_length` combine, whose full
/// numerator only adds a non-negative term (see the module docs for
/// the rounding argument). Equal lengths bound to 0; one empty side
/// bounds to exactly 1 (the kernel's hard-coded answer).
pub fn length_lower_bound(la: usize, lb: usize, params: &DissimParams) -> f64 {
    let (s, l) = if la <= lb { (la, lb) } else { (lb, la) };
    if s == l {
        return 0.0;
    }
    if s == 0 {
        return 1.0;
    }
    ((l - s) as f64 * params.effective_penalty()) / l as f64
}

/// Shared query-work counters: exact kernel evaluations performed,
/// candidates skipped by a pruning bound, and whole strata skipped by
/// the length bound. Per-query tallies are accumulated locally and
/// flushed once per query, so the totals are deterministic for a given
/// query set regardless of thread count or scheduling.
#[derive(Debug, Default)]
pub struct QueryCounters {
    kernel_evals: AtomicU64,
    pruned_candidates: AtomicU64,
    strata_skipped: AtomicU64,
}

impl QueryCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact kernel evaluations performed by queries so far.
    pub fn kernel_evals(&self) -> u64 {
        self.kernel_evals.load(AtomicOrdering::Relaxed)
    }

    /// Candidates excluded by a pruning bound without a kernel call.
    pub fn pruned_candidates(&self) -> u64 {
        self.pruned_candidates.load(AtomicOrdering::Relaxed)
    }

    /// Whole strata skipped by the length lower bound.
    pub fn strata_skipped(&self) -> u64 {
        self.strata_skipped.load(AtomicOrdering::Relaxed)
    }

    /// Adds `n` kernel evaluations done outside a query — a pairwise
    /// pass over the values, such as the ε mean fallback.
    pub fn add_kernel_evals(&self, n: u64) {
        self.kernel_evals.fetch_add(n, AtomicOrdering::Relaxed);
    }

    /// `(kernel_evals, pruned_candidates, strata_skipped)` at once.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.kernel_evals(),
            self.pruned_candidates(),
            self.strata_skipped(),
        )
    }

    fn flush(&self, local: &LocalCounters) {
        self.kernel_evals
            .fetch_add(local.evals, AtomicOrdering::Relaxed);
        self.pruned_candidates
            .fetch_add(local.pruned, AtomicOrdering::Relaxed);
        self.strata_skipped
            .fetch_add(local.skipped, AtomicOrdering::Relaxed);
    }
}

/// Per-query tallies, flushed to the shared [`QueryCounters`] once at
/// query end.
#[derive(Debug, Default)]
struct LocalCounters {
    evals: u64,
    pruned: u64,
    skipped: u64,
}

/// One length class of the corpus: the global indices of its members
/// (ascending), a [`VpForest`] over the stratum-local index space, and
/// the LAESA pivot rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratum {
    len: usize,
    items: Vec<u32>,
    forest: VpForest,
    /// `m × size` row-major: `pivot_rows[p * size + x]` is the
    /// in-stratum metric distance of local pivot `p` (local index `p`)
    /// to local item `x`, with `m = min(DEFAULT_PIVOTS, size)`.
    pivot_rows: Vec<f64>,
}

impl Stratum {
    fn build(
        values: &[&[u8]],
        params: &DissimParams,
        chunk: usize,
        len: usize,
        items: Vec<u32>,
    ) -> Self {
        let local: Vec<&[u8]> = items.iter().map(|&g| values[g as usize]).collect();
        let forest = VpForest::build(&local, params, chunk);
        let m = DEFAULT_PIVOTS.min(local.len());
        let lut = CanberraLut::global();
        let mut pivot_rows = Vec::with_capacity(m * local.len());
        for p in 0..m {
            for &x in &local {
                pivot_rows.push(dissimilarity_kernel(local[p], x, params, lut));
            }
        }
        Self {
            len,
            items,
            forest,
            pivot_rows,
        }
    }

    /// Reassembles a stratum from persisted parts; `None` unless the
    /// shapes agree (forest over exactly the member count, pivot rows
    /// `min(DEFAULT_PIVOTS, size) × size` and NaN-free, members
    /// strictly ascending).
    pub fn from_parts(
        len: usize,
        items: Vec<u32>,
        forest: VpForest,
        pivot_rows: Vec<f64>,
    ) -> Option<Self> {
        if forest.len() != items.len() {
            return None;
        }
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let m = DEFAULT_PIVOTS.min(items.len());
        if pivot_rows.len() != m * items.len() || pivot_rows.iter().any(|d| d.is_nan()) {
            return None;
        }
        Some(Self {
            len,
            items,
            forest,
            pivot_rows,
        })
    }

    /// The segment length shared by every member.
    pub fn value_len(&self) -> usize {
        self.len
    }

    /// Global indices of the members, ascending.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// The stratum-local vantage-point forest.
    pub fn forest(&self) -> &VpForest {
        &self.forest
    }

    /// The LAESA pivot rows, `m × size` row-major.
    pub fn pivot_rows(&self) -> &[f64] {
        &self.pivot_rows
    }

    fn size(&self) -> usize {
        self.items.len()
    }

    fn pivot_count(&self) -> usize {
        DEFAULT_PIVOTS.min(self.items.len())
    }
}

/// The length-stratified index over one corpus: strata in ascending
/// length order, each with its local forest and pivot rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StrataIndex {
    n: usize,
    chunk: usize,
    strata: Vec<Stratum>,
    checksum: u64,
}

impl StrataIndex {
    /// Builds the index for `values` with `chunk` items per local
    /// chunk tree. Fully deterministic: the strata are the distinct
    /// lengths in ascending order, members keep ascending global
    /// order, and the forests and pivot rows are the deterministic
    /// kernel values.
    ///
    /// # Panics
    ///
    /// Panics if the item count exceeds `u32::MAX`.
    pub fn build(values: &[&[u8]], params: &DissimParams, chunk: usize) -> Self {
        assert!(values.len() <= u32::MAX as usize, "too many items for u32");
        let chunk = chunk.max(1);
        let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (i, v) in values.iter().enumerate() {
            groups.entry(v.len()).or_default().push(i as u32);
        }
        let strata = groups
            .into_iter()
            .map(|(len, items)| Stratum::build(values, params, chunk, len, items))
            .collect();
        let mut index = Self {
            n: values.len(),
            chunk,
            strata,
            checksum: 0,
        };
        index.checksum = index.compute_checksum();
        index
    }

    /// Rebuilds the index for a grown corpus, reusing `prev` wherever
    /// the growth contract holds: appended values only append members
    /// to a stratum, so a previous stratum whose member list is a
    /// prefix of the new one contributes its complete chunk trees and
    /// its pivot rows verbatim (extended by the new columns). The
    /// result is bit-identical to a cold [`build`](Self::build) of the
    /// full corpus.
    pub fn extend_from(prev: &Self, values: &[&[u8]], params: &DissimParams) -> Self {
        assert!(values.len() <= u32::MAX as usize, "too many items for u32");
        assert!(values.len() >= prev.n, "a strata index must not shrink");
        let chunk = prev.chunk;
        let lut = CanberraLut::global();
        let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (i, v) in values.iter().enumerate() {
            groups.entry(v.len()).or_default().push(i as u32);
        }
        let strata = groups
            .into_iter()
            .map(|(len, items)| {
                let warm = prev.strata.iter().find(|s| {
                    s.len == len
                        && s.items.len() <= items.len()
                        && s.items[..] == items[..s.items.len()]
                });
                let Some(old) = warm else {
                    return Stratum::build(values, params, chunk, len, items);
                };
                let local: Vec<&[u8]> = items.iter().map(|&g| values[g as usize]).collect();
                let forest = VpForest::build_with(&local, params, chunk, |t, span| {
                    old.forest
                        .trees()
                        .get(t)
                        .filter(|tree| tree.span() == *span)
                        .cloned()
                });
                let size = local.len();
                let old_size = old.size();
                let m = DEFAULT_PIVOTS.min(size);
                let old_m = old.pivot_count();
                let mut pivot_rows = Vec::with_capacity(m * size);
                for p in 0..m {
                    if p < old_m {
                        pivot_rows
                            .extend_from_slice(&old.pivot_rows[p * old_size..(p + 1) * old_size]);
                        for &x in &local[old_size..] {
                            pivot_rows.push(dissimilarity_kernel(local[p], x, params, lut));
                        }
                    } else {
                        for &x in &local {
                            pivot_rows.push(dissimilarity_kernel(local[p], x, params, lut));
                        }
                    }
                }
                Stratum {
                    len,
                    items,
                    forest,
                    pivot_rows,
                }
            })
            .collect();
        let mut index = Self {
            n: values.len(),
            chunk,
            strata,
            checksum: 0,
        };
        index.checksum = index.compute_checksum();
        index
    }

    /// Reassembles an index from persisted parts: `None` unless the
    /// strata have strictly ascending lengths and member lists that
    /// partition `0..n` exactly, every forest uses the stated chunk
    /// geometry, and the checksum verifies. A damaged store entry must
    /// degrade to a cache miss, never a wrong search.
    pub fn from_parts(n: usize, chunk: usize, strata: Vec<Stratum>, checksum: u64) -> Option<Self> {
        let chunk = chunk.max(1);
        let mut seen = vec![false; n];
        let mut covered = 0usize;
        for (si, s) in strata.iter().enumerate() {
            if si > 0 && strata[si - 1].len >= s.len {
                return None;
            }
            if s.items.is_empty() || s.forest.chunk() != chunk {
                return None;
            }
            for &g in &s.items {
                let g = g as usize;
                if g >= n || seen[g] {
                    return None;
                }
                seen[g] = true;
                covered += 1;
            }
        }
        if covered != n {
            return None;
        }
        let index = Self {
            n,
            chunk,
            strata,
            checksum,
        };
        (index.compute_checksum() == checksum).then_some(index)
    }

    /// Whether the index describes exactly this corpus (same item
    /// count, every member in the stratum of its value's length).
    pub fn matches(&self, values: &[&[u8]]) -> bool {
        self.n == values.len()
            && self
                .strata
                .iter()
                .all(|s| s.items.iter().all(|&g| values[g as usize].len() == s.len))
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Items per local chunk tree.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The strata, ascending by segment length.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// FNV-64 checksum over geometry, members, tree checksums and
    /// pivot-row bits.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn compute_checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat(&(self.n as u64).to_le_bytes());
        h.eat(&(self.chunk as u64).to_le_bytes());
        for s in &self.strata {
            h.eat(&(s.len as u64).to_le_bytes());
            h.eat(&(s.items.len() as u64).to_le_bytes());
            for &g in &s.items {
                h.eat(&g.to_le_bytes());
            }
            for tree in s.forest.trees() {
                h.eat(&tree.checksum().to_le_bytes());
            }
            for &d in &s.pivot_rows {
                h.eat(&d.to_le_bytes());
            }
        }
        h.0
    }
}

/// Reusable per-worker query scratch: the hoisted query kernel
/// configuration, tree-walk stack, query–pivot distances, k-NN heap,
/// and the stratum visit order.
struct Scratch<'a> {
    qd: QueryDist<'a>,
    stack: Vec<u32>,
    dqp: Vec<f64>,
    heap: BinaryHeap<Cand>,
    order: Vec<(f64, usize)>,
}

impl<'a> Scratch<'a> {
    fn new(params: &DissimParams) -> Self {
        Self {
            qd: QueryDist::new(&[], params),
            stack: Vec::new(),
            dqp: Vec::new(),
            heap: BinaryHeap::new(),
            order: Vec::new(),
        }
    }
}

/// The [`NeighborProvider`] over a [`StrataIndex`]: length-bound
/// stratum skipping, VP-forest pruning inside the query's own stratum,
/// LAESA pivot screening inside foreign strata — and bit-identical
/// answers to the exact linear scan, because pruning only ever decides
/// what is visited.
#[derive(Debug, Clone)]
pub struct StratifiedProvider<'a> {
    values: &'a [&'a [u8]],
    params: DissimParams,
    index: &'a StrataIndex,
    lut: &'static CanberraLut,
    counters: Option<Arc<QueryCounters>>,
}

impl<'a> StratifiedProvider<'a> {
    /// Pairs segment `values` with their stratified index.
    ///
    /// # Panics
    ///
    /// Panics if the index covers a different item count.
    pub fn new(values: &'a [&'a [u8]], params: &DissimParams, index: &'a StrataIndex) -> Self {
        assert_eq!(
            values.len(),
            index.len(),
            "strata index and values must cover the same items"
        );
        Self {
            values,
            params: *params,
            index,
            lut: CanberraLut::global(),
            counters: None,
        }
    }

    /// Attaches shared query-work counters; every query flushes its
    /// deterministic per-query tallies into them.
    pub fn with_counters(mut self, counters: Arc<QueryCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    fn scratch(&self) -> Scratch<'a> {
        Scratch::new(&self.params)
    }

    fn flush(&self, local: &LocalCounters) {
        if let Some(c) = &self.counters {
            c.flush(local);
        }
    }

    /// Whether the LAESA screen is worth its `m` query–pivot
    /// evaluations for a stratum of this size. Depends only on the
    /// stratum, so per-query counter tallies stay deterministic.
    fn use_pivots(s: &Stratum) -> bool {
        let m = s.pivot_count();
        m > 0 && s.size() > MIN_LAESA_GAIN * m
    }

    /// ε-range over the query's own stratum via the local VP forest;
    /// the query is a member, lengths are uniform, full metric pruning
    /// applies. Inclusion is decided on the exact kernel value; the
    /// triangle bounds (padded by [`PRUNE_SLACK`]) only skip subtrees.
    /// Tree items are stratum-local indices, translated to global ones.
    fn range_own(
        &self,
        s: &Stratum,
        i: usize,
        eps: f64,
        emit: &mut impl FnMut(f64, u32),
        scratch: &mut Scratch<'a>,
        local: &mut LocalCounters,
    ) {
        let q_local = s
            .items
            .binary_search(&(i as u32))
            .expect("query item belongs to its length stratum") as u32;
        let before = local.evals;
        for tree in s.forest.trees() {
            scratch.stack.clear();
            scratch.stack.push(tree.root());
            while let Some(ni) = scratch.stack.pop() {
                if ni == NO_NODE {
                    continue;
                }
                let node = &tree.nodes()[ni as usize];
                let gv = s.items[node.item as usize];
                let d = scratch.qd.dist(self.values[gv as usize]);
                local.evals += 1;
                if d <= eps && node.item != q_local {
                    emit(d, gv);
                }
                if node.inside == NO_NODE && node.outside == NO_NODE {
                    continue;
                }
                if d - eps <= node.threshold + PRUNE_SLACK {
                    scratch.stack.push(node.inside);
                }
                if d + eps >= node.threshold - PRUNE_SLACK {
                    scratch.stack.push(node.outside);
                }
            }
        }
        local.pruned += s.size() as u64 - (local.evals - before);
    }

    /// ε-range over a foreign stratum: every candidate screened first
    /// by the stratum's length bound, then (in large strata) by the
    /// one-sided LAESA bound off the precomputed pivot rows.
    fn range_cross(
        &self,
        s: &Stratum,
        lb: f64,
        eps: f64,
        emit: &mut impl FnMut(f64, u32),
        scratch: &mut Scratch<'a>,
        local: &mut LocalCounters,
    ) {
        let before = local.evals;
        if Self::use_pivots(s) {
            let m = s.pivot_count();
            let size = s.size();
            scratch.dqp.clear();
            for p in 0..m {
                let gp = s.items[p];
                let d = scratch.qd.dist(self.values[gp as usize]);
                local.evals += 1;
                if d <= eps {
                    emit(d, gp);
                }
                scratch.dqp.push(d);
            }
            for x in m..size {
                let mut bound = lb;
                for (p, &dqp) in scratch.dqp.iter().enumerate() {
                    let b = dqp - s.pivot_rows[p * size + x];
                    if b > bound {
                        bound = b;
                    }
                }
                if bound - eps > PRUNE_SLACK {
                    continue;
                }
                let gx = s.items[x];
                let d = scratch.qd.dist(self.values[gx as usize]);
                local.evals += 1;
                if d <= eps {
                    emit(d, gx);
                }
            }
        } else {
            for &gx in &s.items {
                let d = scratch.qd.dist(self.values[gx as usize]);
                local.evals += 1;
                if d <= eps {
                    emit(d, gx);
                }
            }
        }
        local.pruned += s.size() as u64 - (local.evals - before);
    }

    /// The ε-range query of item `i` over its own stratum and, with
    /// `longer` set, every other stratum; without it, only the strata
    /// shorter than the item. Each found pair goes to `emit`, and the
    /// query's tally is flushed once at its end.
    fn range_into(
        &self,
        i: usize,
        eps: f64,
        longer: bool,
        emit: &mut impl FnMut(f64, u32),
        scratch: &mut Scratch<'a>,
    ) {
        let q = self.values[i];
        scratch.qd.set_query(q);
        let mut local = LocalCounters::default();
        for s in &self.index.strata {
            if s.len > q.len() && !longer {
                // Strata are ascending: the rest are all longer.
                break;
            }
            let lb = length_lower_bound(q.len(), s.len, &self.params);
            if lb - eps > PRUNE_SLACK {
                local.skipped += 1;
                local.pruned += s.size() as u64;
                continue;
            }
            if s.len == q.len() {
                self.range_own(s, i, eps, emit, scratch, &mut local);
            } else {
                self.range_cross(s, lb, eps, emit, scratch, &mut local);
            }
        }
        self.flush(&local);
    }

    /// One full ε-range query, writing the `(dissimilarity, index)`-
    /// sorted result into `out`.
    fn range_query(
        &self,
        i: usize,
        eps: f64,
        out: &mut Vec<(f64, u32)>,
        scratch: &mut Scratch<'a>,
    ) {
        out.clear();
        self.range_into(i, eps, true, &mut |d, j| out.push((d, j)), scratch);
        // Emit in (dissimilarity, index) order, independent of the
        // stratum and tree layout.
        out.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("dissimilarities are not NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
    }

    /// Folds the query's own stratum into the bounded k-NN max-heap
    /// via the local VP forest, pruning with the current k-th-best
    /// bound.
    fn knn_own(
        &self,
        s: &Stratum,
        i: usize,
        k: usize,
        scratch: &mut Scratch<'a>,
        local: &mut LocalCounters,
    ) {
        let q_local = s
            .items
            .binary_search(&(i as u32))
            .expect("query item belongs to its length stratum") as u32;
        let before = local.evals;
        for tree in s.forest.trees() {
            scratch.stack.clear();
            scratch.stack.push(tree.root());
            while let Some(ni) = scratch.stack.pop() {
                if ni == NO_NODE {
                    continue;
                }
                let node = &tree.nodes()[ni as usize];
                let gv = s.items[node.item as usize];
                let d = scratch.qd.dist(self.values[gv as usize]);
                local.evals += 1;
                if node.item != q_local {
                    if scratch.heap.len() < k {
                        scratch.heap.push(Cand(d));
                    } else if d < scratch.heap.peek().expect("heap is non-empty").0 {
                        scratch.heap.push(Cand(d));
                        scratch.heap.pop();
                    }
                }
                if node.inside == NO_NODE && node.outside == NO_NODE {
                    continue;
                }
                let tau = if scratch.heap.len() == k {
                    scratch.heap.peek().expect("heap is non-empty").0
                } else {
                    f64::INFINITY
                };
                if d - tau <= node.threshold + PRUNE_SLACK {
                    scratch.stack.push(node.inside);
                }
                if d + tau >= node.threshold - PRUNE_SLACK {
                    scratch.stack.push(node.outside);
                }
            }
        }
        local.pruned += s.size() as u64 - (local.evals - before);
    }

    /// Folds a foreign stratum into the k-NN heap with the length and
    /// LAESA bounds screening candidates against the current
    /// k-th-best distance.
    fn knn_cross(
        &self,
        s: &Stratum,
        lb: f64,
        k: usize,
        scratch: &mut Scratch<'a>,
        local: &mut LocalCounters,
    ) {
        let before = local.evals;
        let Scratch { qd, dqp, heap, .. } = scratch;
        let push = |heap: &mut BinaryHeap<Cand>, d: f64| {
            if heap.len() < k {
                heap.push(Cand(d));
            } else if d < heap.peek().expect("heap is non-empty").0 {
                heap.push(Cand(d));
                heap.pop();
            }
        };
        if Self::use_pivots(s) {
            let m = s.pivot_count();
            let size = s.size();
            dqp.clear();
            for p in 0..m {
                let gp = s.items[p];
                let d = qd.dist(self.values[gp as usize]);
                local.evals += 1;
                push(heap, d);
                dqp.push(d);
            }
            for x in m..size {
                let tau = if heap.len() == k {
                    heap.peek().expect("heap is non-empty").0
                } else {
                    f64::INFINITY
                };
                let mut bound = lb;
                for (p, &dp) in dqp.iter().enumerate() {
                    let b = dp - s.pivot_rows[p * size + x];
                    if b > bound {
                        bound = b;
                    }
                }
                if bound - tau > PRUNE_SLACK {
                    continue;
                }
                let d = qd.dist(self.values[s.items[x] as usize]);
                local.evals += 1;
                push(heap, d);
            }
        } else {
            for &gx in &s.items {
                let d = qd.dist(self.values[gx as usize]);
                local.evals += 1;
                push(heap, d);
            }
        }
        local.pruned += s.size() as u64 - (local.evals - before);
    }

    /// One full k-NN query with caller-provided scratch; `k` must
    /// already be clamped to `[1, n − 1]` with `n >= 2`. Strata are
    /// visited in ascending length-bound order so the k-th-best
    /// distance tightens early and the tail of the order can be cut
    /// off wholesale.
    fn knn_query(&self, i: usize, k: usize, scratch: &mut Scratch<'a>) -> f64 {
        let q = self.values[i];
        scratch.qd.set_query(q);
        scratch.heap.clear();
        let mut local = LocalCounters::default();
        let mut order = std::mem::take(&mut scratch.order);
        order.clear();
        for (si, s) in self.index.strata.iter().enumerate() {
            let lb = length_lower_bound(q.len(), s.len, &self.params);
            order.push((lb, si));
        }
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("length bounds are not NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
        let mut cut = order.len();
        for (oi, &(lb, si)) in order.iter().enumerate() {
            let s = &self.index.strata[si];
            if scratch.heap.len() == k {
                let tau = scratch.heap.peek().expect("heap is non-empty").0;
                // Bounds are ascending from here on: nothing past this
                // point can beat the current k-th best.
                if lb - tau > PRUNE_SLACK {
                    cut = oi;
                    break;
                }
            }
            if s.len == q.len() {
                self.knn_own(s, i, k, scratch, &mut local);
            } else {
                self.knn_cross(s, lb, k, scratch, &mut local);
            }
        }
        for &(_, si) in &order[cut..] {
            local.skipped += 1;
            local.pruned += self.index.strata[si].size() as u64;
        }
        scratch.order = order;
        self.flush(&local);
        scratch.heap.peek().expect("k >= 1 and n >= 2").0
    }
}

impl NeighborProvider for StratifiedProvider<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        let mut scratch = self.scratch();
        self.range_query(i, eps, out, &mut scratch);
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let k = k.clamp(1, n - 1);
        let mut scratch = self.scratch();
        self.knn_query(i, k, &mut scratch)
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        dissimilarity_kernel(self.values[i], self.values[j], &self.params, self.lut)
    }

    /// One hoisted [`QueryDist`] per row instead of a kernel setup per
    /// pair. Each row flushes one tally of its kernel evaluations
    /// (every entry but `j == i`) into the attached counters, so
    /// row-wise consumers (refinement) are counted, and the totals do
    /// not depend on how rows are spread over threads.
    fn pairs_from(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        out.clear();
        let qd = QueryDist::new(self.values[i], &self.params);
        let mut local = LocalCounters::default();
        out.extend(js.iter().map(|&j| {
            if j == i {
                0.0
            } else {
                local.evals += 1;
                qd.dist(self.values[j])
            }
        }));
        self.flush(&local);
    }

    /// Native batch override: one [`Scratch`] per worker chunk, zero
    /// per-query allocations on the hot path. Bit-identical to
    /// per-point calls (one result slot per query, scratch cleared per
    /// query, counter tallies flushed per query).
    fn neighbors_within_batch(
        &self,
        queries: &[usize],
        eps: f64,
        threads: usize,
    ) -> Vec<Vec<(f64, u32)>>
    where
        Self: Sync,
    {
        parkit::map_indexed(
            threads,
            queries.len(),
            BATCH_MIN_CHUNK,
            || self.scratch(),
            |scratch, qi| {
                let mut out = Vec::new();
                self.range_query(queries[qi], eps, &mut out, scratch);
                out
            },
        )
    }

    /// Cross-stratum pairs evaluated once, from the longer end: each
    /// item queries its own stratum through the local forest and every
    /// *shorter* stratum through the length and LAESA bounds, and the
    /// cross pairs it finds are mirrored into the shorter items' rows by
    /// a counting-sort transpose. The kernel is bitwise symmetric, so a
    /// mirrored entry equals what the shorter item's own query would
    /// have computed. Strata left to the longer end count as neither
    /// pruned nor skipped; each query still flushes its own tally, so
    /// the counters do not depend on `threads`.
    fn region_table(&self, eps: f64, threads: usize) -> RegionTable
    where
        Self: Sync,
    {
        let mut table = RegionTable::from_rows(
            self.len(),
            eps,
            threads,
            || self.scratch(),
            |i, scratch, sink| {
                self.range_into(i, eps, false, &mut |d, j| sink.push(d, j), scratch);
            },
        );
        table.mirror_from_one_side(|i, j| self.values[j].len() < self.values[i].len());
        table
    }

    /// One `k_max`-deep k-NN query per item, its bounded max-heap
    /// drained into the item's ascending row. Each query flushes its
    /// own counter tally, so the counters do not depend on `threads`.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        table_by_rows(
            self.len(),
            k_max,
            threads,
            || self.scratch(),
            |i, scratch, row| {
                self.knn_query(i, row.len(), scratch);
                for slot in row.iter_mut().rev() {
                    *slot = scratch.heap.pop().expect("heap holds k entries").0;
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CondensedMatrix;
    use crate::provider::{sorted_bits, MatrixProvider};

    const P: DissimParams = DissimParams {
        length_penalty: 0.59,
    };

    /// Mixed-length corpus: the kernel tests' length cycle (empty
    /// segments, duplicate lengths, a long tail).
    fn mixed_corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let len = [0usize, 1, 2, 3, 4, 4, 7, 8, 12][i % 9];
                (0..len)
                    .map(|k| ((i * 31 + k * 17 + i * k) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    /// Uniform-length corpus: a single stratum, so every query runs
    /// the own-stratum VP walk.
    fn uniform_corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let base = (i % 5) * 40;
                (0..8)
                    .map(|k| ((base + k * 3 + (i * 7) % 4) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn assert_matches_oracle(segs: &[Vec<u8>]) {
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let n = values.len();
        let index = StrataIndex::build(&values, &P, 16);
        let provider = StratifiedProvider::new(&values, &P, &index);
        let matrix = CondensedMatrix::build_segments(&values, &P, 1);
        let oracle = MatrixProvider::new(&matrix);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for eps in [0.0, 0.05, 0.2, 0.45, 0.8, 2.0] {
            let table = provider.region_table(eps, 2);
            for i in 0..n {
                provider.neighbors_within(i, eps, &mut got);
                oracle.neighbors_within(i, eps, &mut want);
                let got_bits: Vec<(u64, u32)> =
                    got.iter().map(|&(d, j)| (d.to_bits(), j)).collect();
                // Strata emit (dissimilarity, index) order.
                assert_eq!(got_bits, sorted_bits(&want), "range i={i} eps={eps}");
                let row: Vec<(f64, u32)> = table.row(i).collect();
                assert_eq!(sorted_bits(&row), got_bits, "table row i={i} eps={eps}");
            }
        }
        for k in [1usize, 2, 5, n.saturating_sub(1).max(1), n + 3] {
            for i in 0..n {
                assert_eq!(
                    provider.knn(i, k).to_bits(),
                    oracle.knn(i, k).to_bits(),
                    "knn i={i} k={k}"
                );
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    provider.pair(i, j).to_bits(),
                    oracle.pair(i, j).to_bits(),
                    "pair {i} {j}"
                );
            }
        }
    }

    #[test]
    fn mixed_corpus_matches_oracle() {
        assert_matches_oracle(&mixed_corpus(60));
    }

    #[test]
    fn uniform_corpus_matches_oracle() {
        assert_matches_oracle(&uniform_corpus(40));
    }

    #[test]
    fn duplicate_heavy_corpus_matches_oracle() {
        let mut segs = mixed_corpus(30);
        for _ in 0..10 {
            segs.push(vec![0u8; 4]);
            segs.push(vec![7u8; 12]);
        }
        assert_matches_oracle(&segs);
    }

    #[test]
    fn length_bound_never_exceeds_kernel() {
        let lut = CanberraLut::global();
        let segs = mixed_corpus(45);
        for penalty in [0.0, 0.11, 0.59, 1.0, 2.5] {
            let params = DissimParams {
                length_penalty: penalty,
            };
            for a in &segs {
                for b in &segs {
                    let lb = length_lower_bound(a.len(), b.len(), &params);
                    let d = dissimilarity_kernel(a, b, &params, lut);
                    assert!(
                        lb <= d,
                        "lb {lb} > d {d} for lens {} {} penalty {penalty}",
                        a.len(),
                        b.len()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_queries_match_scalar_bitwise() {
        let segs = mixed_corpus(50);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&values, &P, 16);
        let provider = StratifiedProvider::new(&values, &P, &index);
        let queries: Vec<usize> = (0..values.len()).rev().collect();
        let mut scalar_out = Vec::new();
        for threads in [1usize, 4] {
            let batched = provider.neighbors_within_batch(&queries, 0.3, threads);
            for (qi, &q) in queries.iter().enumerate() {
                provider.neighbors_within(q, 0.3, &mut scalar_out);
                let got: Vec<(u64, u32)> =
                    batched[qi].iter().map(|&(d, j)| (d.to_bits(), j)).collect();
                let want: Vec<(u64, u32)> =
                    scalar_out.iter().map(|&(d, j)| (d.to_bits(), j)).collect();
                assert_eq!(got, want, "range q={q} threads={threads}");
            }
            let table = provider.knn_table(3, threads);
            for q in 0..values.len() {
                for k in 1..=3 {
                    assert_eq!(
                        table.kth(q, k).to_bits(),
                        provider.knn(q, k).to_bits(),
                        "knn q={q} k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_move_and_are_thread_deterministic() {
        let segs = mixed_corpus(80);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&values, &P, 16);
        let queries: Vec<usize> = (0..values.len()).collect();
        let mut snapshots = Vec::new();
        for threads in [1usize, 4] {
            let counters = Arc::new(QueryCounters::new());
            let provider =
                StratifiedProvider::new(&values, &P, &index).with_counters(Arc::clone(&counters));
            provider.neighbors_within_batch(&queries, 0.1, threads);
            provider.knn_table(3, threads);
            let before_table = counters.snapshot();
            provider.region_table(0.3, threads);
            snapshots.push((counters.snapshot(), before_table));
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "counters must not depend on threads"
        );
        let (after, before) = snapshots[0];
        let table_evals = after.0 - before.0;
        // One-sided cross strata: the table evaluates fewer pairs than
        // the n full queries at the same radius.
        let counters = Arc::new(QueryCounters::new());
        StratifiedProvider::new(&values, &P, &index)
            .with_counters(Arc::clone(&counters))
            .neighbors_within_batch(&queries, 0.3, 1);
        assert!(
            table_evals < counters.kernel_evals(),
            "table {table_evals} vs full queries {}",
            counters.kernel_evals()
        );
        let (evals, pruned, skipped) = snapshots[0].1;
        assert!(evals > 0, "queries must evaluate the kernel");
        assert!(pruned > 0, "a tight radius must prune candidates");
        assert!(skipped > 0, "a tight radius must skip whole strata");
    }

    #[test]
    fn growth_extension_is_bit_identical_to_cold_build() {
        let segs = mixed_corpus(90);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let prev = StrataIndex::build(&values[..40], &P, 16);
        let grown = StrataIndex::extend_from(&prev, &values, &P);
        let cold = StrataIndex::build(&values, &P, 16);
        assert_eq!(grown, cold);
        assert_eq!(grown.checksum(), cold.checksum());
    }

    #[test]
    fn from_parts_rejects_damage() {
        let segs = mixed_corpus(40);
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&values, &P, 16);
        let parts = |idx: &StrataIndex| -> (usize, usize, Vec<Stratum>, u64) {
            (
                idx.len(),
                idx.chunk(),
                idx.strata().to_vec(),
                idx.checksum(),
            )
        };
        let (n, chunk, strata, checksum) = parts(&index);
        assert!(StrataIndex::from_parts(n, chunk, strata.clone(), checksum).is_some());
        // Wrong checksum.
        assert!(StrataIndex::from_parts(n, chunk, strata.clone(), checksum ^ 1).is_none());
        // A member moved out of range.
        let mut bad = strata.clone();
        bad[0].items[0] = n as u32;
        assert!(StrataIndex::from_parts(n, chunk, bad, checksum).is_none());
        // A duplicated member.
        let mut bad = strata.clone();
        let stolen = bad[1].items[0];
        bad[0].items[0] = stolen;
        assert!(StrataIndex::from_parts(n, chunk, bad, checksum).is_none());
        // A missing stratum.
        let mut bad = strata.clone();
        bad.pop();
        assert!(StrataIndex::from_parts(n, chunk, bad, checksum).is_none());
        // Pivot-row shape violation is rejected at the stratum level.
        let s = &strata[0];
        assert!(Stratum::from_parts(
            s.value_len(),
            s.items().to_vec(),
            s.forest().clone(),
            s.pivot_rows()[..s.pivot_rows().len() - 1].to_vec(),
        )
        .is_none());
        assert!(index.matches(&values));
    }

    #[test]
    fn tiny_and_empty_corpora() {
        let values: Vec<&[u8]> = Vec::new();
        let index = StrataIndex::build(&values, &P, 16);
        assert!(index.is_empty());
        let provider = StratifiedProvider::new(&values, &P, &index);
        assert_eq!(provider.knn_dissimilarities(3), Vec::<f64>::new());

        let one = [vec![1u8, 2, 3]];
        let values: Vec<&[u8]> = one.iter().map(|s| &s[..]).collect();
        let index = StrataIndex::build(&values, &P, 16);
        let provider = StratifiedProvider::new(&values, &P, &index);
        assert_eq!(provider.knn(0, 1), f64::INFINITY);
        let mut out = Vec::new();
        provider.neighbors_within(0, 1.0, &mut out);
        assert!(out.is_empty());
    }
}
