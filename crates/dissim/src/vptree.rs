//! Vantage-point forest over segments: triangle-inequality-pruned
//! ε-range and k-NN queries without materializing the O(u²) condensed
//! triangle.
//!
//! # Metricity and the exact fallback
//!
//! Pruning a metric tree is only sound when the dissimilarity satisfies
//! the triangle inequality. The plain Canberra distance does (Lance &
//! Williams, 1966), and dividing by a constant preserves it — so when
//! **every segment has the same length** the pipeline's dissimilarity
//! reduces to `canberra_sum / len` and is a true metric. The
//! mixed-length sliding-window variant with its `length_penalty` is
//! **not**: two maximally dissimilar equal-length segments can both sit
//! within `penalty / 2`-reach of a common shorter segment (see the
//! counterexample pinned in `dissim/tests/metric_property.rs`), which
//! breaks the triangle whenever `penalty < D(a, b)`. [`VpProvider`]
//! therefore checks eligibility up front ([`metric_eligible`]): uniform
//! lengths run the pruned tree search, anything else degrades to an
//! exact linear scan per query — still O(u) memory, never a wrong
//! neighbor.
//!
//! # Bit-identity
//!
//! Candidate distances are always computed exactly through
//! [`dissimilarity_kernel`] (pinned bit-identical to the scalar
//! reference), and inclusion is decided on the exact value — pruning
//! only decides which *subtrees* are visited. Pruning bounds carry a
//! conservative [`PRUNE_SLACK`] pad so floating-point roundoff in the
//! triangle argument can never drop a true neighbor. Results are sorted
//! by `(dissimilarity, index)`, so the emission order is a pure function
//! of the answer set and never of the tree layout.
//!
//! # Chunked forest and persistence
//!
//! Mirroring the tiled matrix, the forest is **chunked**: tree `t`
//! covers items `t·C .. min((t+1)·C, n)` and is built only from the
//! items of its chunk, so a tree's content is a pure function of that
//! item range. Growing the trace reuses every complete chunk's tree
//! verbatim (same chained cache key) and rebuilds only the clamped
//! boundary chunk — the same warm-start + growth-append contract the
//! tiles have, persisted through `crates/store` under `Kind::VPTREE`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::canberra::DissimParams;
use crate::kernel::{dissimilarity_kernel, dissimilarity_swar, CanberraLut, QueryDist};
use crate::knn::{table_by_rows, KnnTable};
use crate::provider::{NeighborProvider, SendSlotPtr, BATCH_MIN_CHUNK};

/// Sentinel child index: no subtree.
pub const NO_NODE: u32 = u32::MAX;

/// Default items per chunk tree.
pub const DEFAULT_CHUNK: usize = 1024;

/// Conservative pad on every pruning bound: a subtree is only skipped
/// when the triangle argument rules it out by more than this margin, so
/// accumulated f64 roundoff (≲ len · 2⁻⁵³ per distance, orders of
/// magnitude below 1e-9 for any realistic segment) can never hide a
/// true neighbor.
pub const PRUNE_SLACK: f64 = 1e-9;

/// FNV-1a 64 over a little-endian byte stream — the same checksum
/// primitive the tiles and the artifact store use.
pub(crate) struct Fnv64(pub(crate) u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100_0000_01b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// One node of a vantage-point tree: the vantage item, the median
/// distance splitting its remaining items, and the two subtrees.
#[derive(Debug, Clone, PartialEq)]
pub struct VpNode {
    /// Global item index of the vantage point.
    pub item: u32,
    /// Median vantage distance: the inside subtree holds items with
    /// `d(vantage, x) <= threshold`, the outside subtree items with
    /// `d(vantage, x) >= threshold` (ties at the median may land on
    /// either side of the rank split).
    pub threshold: f64,
    /// Node index of the inside subtree, or [`NO_NODE`].
    pub inside: u32,
    /// Node index of the outside subtree, or [`NO_NODE`].
    pub outside: u32,
}

/// A deterministic vantage-point tree over one contiguous item chunk.
///
/// Construction is fully deterministic — the vantage is always the
/// lowest-index item of its sublist and the rank-median split breaks
/// distance ties by index — so the same item prefix always produces the
/// same tree (and the same persisted bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct VpTree {
    span: Range<usize>,
    root: u32,
    nodes: Vec<VpNode>,
    checksum: u64,
}

impl VpTree {
    /// Builds the tree for the items `span` of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `span` exceeds `values` or the item count exceeds
    /// `u32::MAX`.
    pub fn build(values: &[&[u8]], span: Range<usize>, params: &DissimParams) -> Self {
        assert!(span.start <= span.end && span.end <= values.len());
        assert!(values.len() <= NO_NODE as usize, "too many items for u32");
        let lut = CanberraLut::global();
        let mut nodes = Vec::with_capacity(span.len());
        let items: Vec<u32> = (span.start..span.end).map(|i| i as u32).collect();
        let root = build_rec(values, params, lut, items, &mut nodes);
        let mut tree = Self {
            span,
            root,
            nodes,
            checksum: 0,
        };
        tree.checksum = tree.compute_checksum();
        tree
    }

    /// Reassembles a tree from persisted parts: `None` unless the node
    /// count matches the span, every node is reachable exactly once
    /// from the root with in-span items and NaN-free thresholds, and
    /// the checksum verifies. A damaged store entry must degrade to a
    /// cache miss, never a wrong (or looping) search.
    pub fn from_parts(
        span: Range<usize>,
        root: u32,
        nodes: Vec<VpNode>,
        checksum: u64,
    ) -> Option<Self> {
        if span.start > span.end || nodes.len() != span.len() {
            return None;
        }
        if span.is_empty() {
            if root != NO_NODE {
                return None;
            }
        } else {
            let mut seen = vec![false; nodes.len()];
            let mut items = vec![false; span.len()];
            let mut stack = vec![root];
            let mut visited = 0usize;
            while let Some(ni) = stack.pop() {
                if ni == NO_NODE {
                    continue;
                }
                let ni = ni as usize;
                if ni >= nodes.len() || seen[ni] {
                    return None;
                }
                seen[ni] = true;
                visited += 1;
                let node = &nodes[ni];
                let item = node.item as usize;
                if !span.contains(&item) || node.threshold.is_nan() {
                    return None;
                }
                let off = item - span.start;
                if items[off] {
                    return None;
                }
                items[off] = true;
                stack.push(node.inside);
                stack.push(node.outside);
            }
            if visited != nodes.len() {
                return None;
            }
        }
        let tree = Self {
            span,
            root,
            nodes,
            checksum,
        };
        (tree.compute_checksum() == checksum).then_some(tree)
    }

    /// The item range this tree covers.
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// Root node index, [`NO_NODE`] for an empty span.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The nodes, in construction (preorder, inside-first) order.
    pub fn nodes(&self) -> &[VpNode] {
        &self.nodes
    }

    /// FNV-64 checksum over span, root, and node bits.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum and compares it to the stored one.
    pub fn verify(&self) -> bool {
        self.compute_checksum() == self.checksum
    }

    fn compute_checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.eat(&(self.span.start as u64).to_le_bytes());
        h.eat(&(self.span.end as u64).to_le_bytes());
        h.eat(&self.root.to_le_bytes());
        for node in &self.nodes {
            h.eat(&node.item.to_le_bytes());
            h.eat(&node.threshold.to_le_bytes());
            h.eat(&node.inside.to_le_bytes());
            h.eat(&node.outside.to_le_bytes());
        }
        h.0
    }
}

/// Recursive deterministic construction: vantage = lowest index,
/// rank-median split with `(distance, index)` tie-breaks, children
/// built inside-first.
fn build_rec(
    values: &[&[u8]],
    params: &DissimParams,
    lut: &CanberraLut,
    mut items: Vec<u32>,
    nodes: &mut Vec<VpNode>,
) -> u32 {
    if items.is_empty() {
        return NO_NODE;
    }
    let vantage = items.remove(0);
    let slot = nodes.len();
    nodes.push(VpNode {
        item: vantage,
        threshold: 0.0,
        inside: NO_NODE,
        outside: NO_NODE,
    });
    if items.is_empty() {
        return slot as u32;
    }
    let mut dists: Vec<(f64, u32)> = items
        .iter()
        .map(|&j| {
            (
                dissimilarity_kernel(values[vantage as usize], values[j as usize], params, lut),
                j,
            )
        })
        .collect();
    dists.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("dissimilarities are not NaN")
            .then_with(|| a.1.cmp(&b.1))
    });
    // Rank-median split keeps the tree balanced regardless of duplicate
    // distances, so depth stays O(log chunk).
    let mid = (dists.len() - 1) / 2;
    let threshold = dists[mid].0;
    let inside_items: Vec<u32> = dists[..=mid].iter().map(|&(_, j)| j).collect();
    let outside_items: Vec<u32> = dists[mid + 1..].iter().map(|&(_, j)| j).collect();
    let inside = build_rec(values, params, lut, inside_items, nodes);
    let outside = build_rec(values, params, lut, outside_items, nodes);
    nodes[slot].threshold = threshold;
    nodes[slot].inside = inside;
    nodes[slot].outside = outside;
    slot as u32
}

/// A sequence of chunk trees covering `0..n`, mirroring the tiled
/// matrix's geometry and warm-start contract.
#[derive(Debug, Clone, PartialEq)]
pub struct VpForest {
    n: usize,
    chunk: usize,
    trees: Vec<VpTree>,
}

impl VpForest {
    /// Number of chunk trees covering `n` items at `chunk` items each.
    pub fn chunk_count(n: usize, chunk: usize) -> usize {
        n.div_ceil(chunk.max(1))
    }

    /// Item span of chunk `t`.
    pub fn chunk_span(n: usize, chunk: usize, t: usize) -> Range<usize> {
        let chunk = chunk.max(1);
        (t * chunk).min(n)..((t + 1) * chunk).min(n)
    }

    /// Builds all chunk trees in memory (no store interaction).
    pub fn build(values: &[&[u8]], params: &DissimParams, chunk: usize) -> Self {
        Self::build_with(values, params, chunk, |_, _| None, |_, _, _| {})
    }

    /// Builds the forest, probing `fault_in` before building each chunk
    /// tree and reporting every finished tree to `persist`.
    ///
    /// `fault_in(t, span)` may return a previously persisted tree; it
    /// is used only if its span matches and its checksum verifies, so a
    /// stale or damaged store degrades to a rebuild. `persist(t, tree,
    /// built)` sees every tree in order with `built` telling a fresh
    /// build apart from a cache hit.
    pub fn build_with(
        values: &[&[u8]],
        params: &DissimParams,
        chunk: usize,
        mut fault_in: impl FnMut(usize, &Range<usize>) -> Option<VpTree>,
        mut persist: impl FnMut(usize, &VpTree, bool),
    ) -> Self {
        let n = values.len();
        let chunk = chunk.max(1);
        let mut trees = Vec::with_capacity(Self::chunk_count(n, chunk));
        for t in 0..Self::chunk_count(n, chunk) {
            let span = Self::chunk_span(n, chunk, t);
            let (tree, built) = match fault_in(t, &span) {
                Some(tree) if tree.span() == span && tree.verify() => (tree, false),
                _ => (VpTree::build(values, span, params), true),
            };
            persist(t, &tree, built);
            trees.push(tree);
        }
        Self { n, chunk, trees }
    }

    /// Reassembles a forest from previously persisted trees: `None`
    /// unless the trees exactly cover `n` items in order at the given
    /// geometry.
    pub fn from_trees(n: usize, chunk: usize, trees: Vec<VpTree>) -> Option<Self> {
        let chunk = chunk.max(1);
        if trees.len() != Self::chunk_count(n, chunk) {
            return None;
        }
        for (t, tree) in trees.iter().enumerate() {
            if tree.span() != Self::chunk_span(n, chunk, t) {
                return None;
            }
        }
        Some(Self { n, chunk, trees })
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the forest covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Items per chunk.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The chunk trees, in item order.
    pub fn trees(&self) -> &[VpTree] {
        &self.trees
    }
}

/// Whether the pruned (metric) search mode is sound for `values`: true
/// exactly when every segment has the same length, making the
/// dissimilarity `canberra_sum / len` — a true metric. Vacuously true
/// for fewer than two segments.
pub fn metric_eligible(values: &[&[u8]]) -> bool {
    match values.first() {
        None => true,
        Some(first) => values.iter().all(|v| v.len() == first.len()),
    }
}

/// A non-NaN f64 with a total order, for the bounded k-NN max-heap.
#[derive(PartialEq)]
pub(crate) struct Cand(pub(crate) f64);

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("dissimilarities are not NaN")
    }
}

/// The [`NeighborProvider`] over a [`VpForest`]: pruned metric search
/// when [`metric_eligible`] holds, exact linear-scan fallback otherwise.
/// Either way, O(u) memory per query and bit-identical answers to the
/// matrix oracle.
#[derive(Debug, Clone, Copy)]
pub struct VpProvider<'a> {
    values: &'a [&'a [u8]],
    params: DissimParams,
    forest: &'a VpForest,
    lut: &'static CanberraLut,
    prunable: bool,
    swar: bool,
}

impl<'a> VpProvider<'a> {
    /// Pairs segment `values` with their forest.
    ///
    /// # Panics
    ///
    /// Panics if the forest covers a different item count.
    pub fn new(values: &'a [&'a [u8]], params: &DissimParams, forest: &'a VpForest) -> Self {
        assert_eq!(
            values.len(),
            forest.len(),
            "forest and values must cover the same items"
        );
        Self {
            values,
            params: *params,
            forest,
            lut: CanberraLut::global(),
            prunable: metric_eligible(values),
            swar: false,
        }
    }

    /// Toggles the opt-in SWAR kernel fast path for distance
    /// evaluations (bit-identical to the default kernel; see
    /// [`dissimilarity_swar`]).
    pub fn with_swar(mut self, swar: bool) -> Self {
        self.swar = swar;
        self
    }

    /// Whether queries run the pruned metric search (uniform segment
    /// lengths) rather than the exact linear-scan fallback.
    pub fn prunable(&self) -> bool {
        self.prunable
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        if self.swar {
            dissimilarity_swar(self.values[i], self.values[j], &self.params, self.lut)
        } else {
            dissimilarity_kernel(self.values[i], self.values[j], &self.params, self.lut)
        }
    }

    /// Collects all in-range items of one tree via triangle pruning.
    /// `stack` is caller-provided traversal scratch (cleared here) so
    /// batched queries can reuse one allocation across thousands of
    /// tree walks.
    fn range_tree(
        &self,
        tree: &VpTree,
        q: usize,
        eps: f64,
        out: &mut Vec<(f64, u32)>,
        stack: &mut Vec<u32>,
    ) {
        stack.clear();
        stack.push(tree.root());
        while let Some(ni) = stack.pop() {
            if ni == NO_NODE {
                continue;
            }
            let node = &tree.nodes()[ni as usize];
            let d = self.dist(q, node.item as usize);
            if d <= eps && node.item as usize != q {
                out.push((d, node.item));
            }
            if node.inside == NO_NODE && node.outside == NO_NODE {
                continue;
            }
            // Inside items x have d(v, x) <= threshold; a hit needs
            // d(v, x) >= d - eps by the triangle inequality.
            if d - eps <= node.threshold + PRUNE_SLACK {
                stack.push(node.inside);
            }
            // Outside items have d(v, x) >= threshold and a hit needs
            // d(v, x) <= d + eps.
            if d + eps >= node.threshold - PRUNE_SLACK {
                stack.push(node.outside);
            }
        }
    }

    /// Folds one tree into the bounded k-NN max-heap, pruning with the
    /// current k-th-best bound. `stack` is caller-provided traversal
    /// scratch, cleared here.
    fn knn_tree(
        &self,
        tree: &VpTree,
        q: usize,
        k: usize,
        heap: &mut BinaryHeap<Cand>,
        stack: &mut Vec<u32>,
    ) {
        stack.clear();
        stack.push(tree.root());
        while let Some(ni) = stack.pop() {
            if ni == NO_NODE {
                continue;
            }
            let node = &tree.nodes()[ni as usize];
            let d = self.dist(q, node.item as usize);
            if node.item as usize != q {
                if heap.len() < k {
                    heap.push(Cand(d));
                } else if d < heap.peek().expect("heap is non-empty").0 {
                    heap.push(Cand(d));
                    heap.pop();
                }
            }
            if node.inside == NO_NODE && node.outside == NO_NODE {
                continue;
            }
            // The bound only shrinks as better candidates arrive, so
            // reading it after the candidate update is conservative.
            let tau = if heap.len() == k {
                heap.peek().expect("heap is non-empty").0
            } else {
                f64::INFINITY
            };
            if d - tau <= node.threshold + PRUNE_SLACK {
                stack.push(node.inside);
            }
            if d + tau >= node.threshold - PRUNE_SLACK {
                stack.push(node.outside);
            }
        }
    }

    /// One full ε-range query — all chunk trees when prunable, the
    /// exact linear fallback otherwise — writing the sorted result into
    /// `out` and borrowing the traversal `stack`.
    fn range_query(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>, stack: &mut Vec<u32>) {
        out.clear();
        if self.prunable {
            for tree in self.forest.trees() {
                self.range_tree(tree, i, eps, out, stack);
            }
        } else {
            // Hoist the per-query kernel setup (penalty, LUT row keys)
            // out of the candidate loop; `QueryDist::dist` is
            // bit-identical to the per-pair kernel call.
            let qd = QueryDist::new(self.values[i], &self.params, self.swar);
            for (j, v) in self.values.iter().enumerate() {
                if j == i {
                    continue;
                }
                let d = qd.dist(v);
                if d <= eps {
                    out.push((d, j as u32));
                }
            }
        }
        // Emit in (dissimilarity, index) order, independent of the
        // tree layout.
        out.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("dissimilarities are not NaN")
                .then_with(|| a.1.cmp(&b.1))
        });
    }

    /// One full k-NN query with caller-provided scratch; `k` must
    /// already be clamped to `[1, n − 1]` with `n >= 2`.
    fn knn_query(
        &self,
        i: usize,
        k: usize,
        heap: &mut BinaryHeap<Cand>,
        stack: &mut Vec<u32>,
    ) -> f64 {
        if self.prunable {
            heap.clear();
            for tree in self.forest.trees() {
                self.knn_tree(tree, i, k, heap, stack);
            }
            heap.peek().expect("k >= 1 and n >= 2").0
        } else {
            let mut dists = self.scan(i);
            let (_, kth, _) = dists.select_nth_unstable_by(k - 1, |a, b| {
                a.partial_cmp(b).expect("dissimilarities are not NaN")
            });
            *kth
        }
    }

    /// The linear fallback's exact scan: item `i`'s dissimilarity to
    /// every other item, in index order.
    fn scan(&self, i: usize) -> Vec<f64> {
        // Hoist the per-query kernel setup (penalty, LUT row keys) out
        // of the candidate loop; `QueryDist::dist` is bit-identical to
        // the per-pair kernel call.
        let qd = QueryDist::new(self.values[i], &self.params, self.swar);
        self.values
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, v)| qd.dist(v))
            .collect()
    }
}

impl NeighborProvider for VpProvider<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        let mut stack = Vec::new();
        self.range_query(i, eps, out, &mut stack);
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let k = k.clamp(1, n - 1);
        let mut heap = BinaryHeap::with_capacity(k + 1);
        let mut stack = Vec::new();
        self.knn_query(i, k, &mut heap, &mut stack)
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.dist(i, j)
    }

    /// Native batch override: queries fan out over the `parkit` pool
    /// with one traversal stack per worker chunk, so a batched range
    /// sweep performs zero per-query allocations on the hot path.
    /// Bit-identical to per-point calls (disjoint result slots, and the
    /// scratch is cleared per query).
    fn neighbors_within_batch(
        &self,
        queries: &[usize],
        eps: f64,
        threads: usize,
    ) -> Vec<Vec<(f64, u32)>>
    where
        Self: Sync,
    {
        let mut results: Vec<Vec<(f64, u32)>> = vec![Vec::new(); queries.len()];
        if threads <= 1 || queries.len() < 2 {
            let mut stack = Vec::new();
            for (slot, &q) in results.iter_mut().zip(queries) {
                self.range_query(q, eps, slot, &mut stack);
            }
            return results;
        }
        let slots = SendSlotPtr(results.as_mut_ptr());
        parkit::for_each_chunk(threads, queries.len(), BATCH_MIN_CHUNK, |chunk| {
            let slots = &slots;
            let mut stack = Vec::new();
            for qi in chunk {
                // SAFETY: slot `qi` belongs to query `qi` alone and the
                // scheduler hands out each query exactly once.
                let out = unsafe { &mut *slots.0.add(qi) };
                self.range_query(queries[qi], eps, out, &mut stack);
            }
        });
        results
    }

    /// Native batch override: per-worker reusable candidate heap and
    /// traversal stack.
    fn knn_batch(&self, queries: &[usize], k: usize, threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        let n = self.values.len();
        if n < 2 {
            return vec![f64::INFINITY; queries.len()];
        }
        let k = k.clamp(1, n - 1);
        let mut results = vec![0.0f64; queries.len()];
        if threads <= 1 || queries.len() < 2 {
            let mut heap = BinaryHeap::with_capacity(k + 1);
            let mut stack = Vec::new();
            for (slot, &q) in results.iter_mut().zip(queries) {
                *slot = self.knn_query(q, k, &mut heap, &mut stack);
            }
            return results;
        }
        let slots = SendSlotPtr(results.as_mut_ptr());
        parkit::for_each_chunk(threads, queries.len(), BATCH_MIN_CHUNK, |chunk| {
            let slots = &slots;
            let mut heap = BinaryHeap::with_capacity(k + 1);
            let mut stack = Vec::new();
            for qi in chunk {
                // SAFETY: disjoint slots, each handed out exactly once.
                unsafe {
                    *slots.0.add(qi) = self.knn_query(queries[qi], k, &mut heap, &mut stack);
                }
            }
        });
        results
    }

    fn knn_dissimilarities_parallel(&self, k: usize, threads: usize) -> Vec<f64>
    where
        Self: Sync,
    {
        let queries: Vec<usize> = (0..self.len()).collect();
        self.knn_batch(&queries, k, threads)
    }

    /// One `k_max`-deep k-NN query per item: the pruned search drains
    /// its bounded max-heap into the item's ascending row; the linear
    /// fallback selects and sorts the `k_max` smallest of its scan.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync,
    {
        table_by_rows(
            self.len(),
            k_max,
            threads,
            || (BinaryHeap::with_capacity(k_max + 1), Vec::new()),
            |i, (heap, stack), row| {
                let depth = row.len();
                if self.prunable {
                    self.knn_query(i, depth, heap, stack);
                    for slot in row.iter_mut().rev() {
                        *slot = heap.pop().expect("heap holds k entries").0;
                    }
                } else {
                    let mut dists = self.scan(i);
                    let by_value =
                        |a: &f64, b: &f64| a.partial_cmp(b).expect("dissimilarities are not NaN");
                    dists.select_nth_unstable_by(depth - 1, by_value);
                    dists.truncate(depth);
                    dists.sort_unstable_by(by_value);
                    row.copy_from_slice(&dists);
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

    /// Uniform-length corpus (metric-eligible): clustered 8-byte
    /// segments with noise.
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

    /// Mixed-length corpus (fallback mode).
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

    fn vals(segs: &[Vec<u8>]) -> Vec<&[u8]> {
        segs.iter().map(|s| &s[..]).collect()
    }

    fn assert_matches_oracle(values: &[&[u8]], provider: &VpProvider<'_>, label: &str) {
        let m = CondensedMatrix::build_segments(values, &P, 1);
        let ip = MatrixProvider::new(&m);
        let n = values.len();
        let mut got = Vec::new();
        let mut want = Vec::new();
        let epss = [0.0, 0.05, 0.2, 0.45, 0.8, 2.0];
        for i in 0..n {
            for &eps in &epss {
                provider.neighbors_within(i, eps, &mut got);
                ip.neighbors_within(i, eps, &mut want);
                // The forest emits (dissimilarity, index) order.
                assert_eq!(
                    got.iter()
                        .map(|&(d, j)| (d.to_bits(), j))
                        .collect::<Vec<_>>(),
                    sorted_bits(&want),
                    "{label}: item {i}, eps {eps}"
                );
            }
            for k in [1usize, 2, 5, n.saturating_sub(1).max(1), n + 3] {
                assert_eq!(
                    provider.knn(i, k).to_bits(),
                    ip.knn(i, k).to_bits(),
                    "{label}: item {i}, k {k}"
                );
            }
            for j in 0..n {
                assert_eq!(
                    provider.pair(i, j).to_bits(),
                    ip.pair(i, j).to_bits(),
                    "{label}: pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn pruned_search_matches_oracle_bitwise() {
        let segs = uniform_corpus(120);
        let values = vals(&segs);
        assert!(metric_eligible(&values));
        for chunk in [7usize, 32, 120, 500] {
            let forest = VpForest::build(&values, &P, chunk);
            let provider = VpProvider::new(&values, &P, &forest);
            assert!(provider.prunable());
            assert_matches_oracle(&values, &provider, &format!("chunk {chunk}"));
        }
    }

    #[test]
    fn fallback_mode_matches_oracle_bitwise() {
        let segs = mixed_corpus(60);
        let values = vals(&segs);
        assert!(!metric_eligible(&values));
        let forest = VpForest::build(&values, &P, 16);
        let provider = VpProvider::new(&values, &P, &forest);
        assert!(!provider.prunable());
        assert_matches_oracle(&values, &provider, "fallback");
    }

    #[test]
    fn swar_path_matches_oracle_bitwise() {
        let segs = uniform_corpus(80);
        let values = vals(&segs);
        let forest = VpForest::build(&values, &P, 25);
        let provider = VpProvider::new(&values, &P, &forest).with_swar(true);
        assert_matches_oracle(&values, &provider, "swar");
    }

    #[test]
    fn duplicate_heavy_corpus_matches_oracle() {
        // Many identical segments: zero-distance ties everywhere.
        let segs: Vec<Vec<u8>> = (0..40).map(|i| vec![(i % 3) as u8 * 100; 6]).collect();
        let values = vals(&segs);
        let forest = VpForest::build(&values, &P, 8);
        let provider = VpProvider::new(&values, &P, &forest);
        assert!(provider.prunable());
        assert_matches_oracle(&values, &provider, "duplicates");
    }

    #[test]
    fn batch_queries_match_scalar_bitwise() {
        for (label, segs) in [("uniform", uniform_corpus(90)), ("mixed", mixed_corpus(45))] {
            let values = vals(&segs);
            let forest = VpForest::build(&values, &P, 16);
            for swar in [false, true] {
                let p = VpProvider::new(&values, &P, &forest).with_swar(swar);
                let queries: Vec<usize> = (0..values.len()).rev().chain([0, 7, 7]).collect();
                for threads in [1usize, 4] {
                    let tag = format!("{label}, swar {swar}, threads {threads}");
                    for eps in [0.0, 0.2, 0.8] {
                        let regions = p.neighbors_within_batch(&queries, eps, threads);
                        let mut want = Vec::new();
                        for (&q, got) in queries.iter().zip(&regions) {
                            p.neighbors_within(q, eps, &mut want);
                            assert_eq!(got.len(), want.len(), "{tag}, query {q}, eps {eps}");
                            for (a, b) in got.iter().zip(&want) {
                                assert_eq!(a.0.to_bits(), b.0.to_bits(), "{tag}, query {q}");
                                assert_eq!(a.1, b.1, "{tag}, query {q}");
                            }
                        }
                    }
                    for k in [1usize, 4, values.len() - 1] {
                        let got = p.knn_batch(&queries, k, threads);
                        for (&q, d) in queries.iter().zip(&got) {
                            assert_eq!(
                                d.to_bits(),
                                p.knn(q, k).to_bits(),
                                "{tag}, query {q}, k {k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forest_geometry_is_exhaustive_and_disjoint() {
        for n in [0usize, 1, 2, 7, 20, 100] {
            for chunk in [1usize, 3, 7, 25] {
                let count = VpForest::chunk_count(n, chunk);
                let mut next = 0;
                for t in 0..count {
                    let span = VpForest::chunk_span(n, chunk, t);
                    assert_eq!(span.start, next, "n = {n}, chunk = {chunk}");
                    assert!(!span.is_empty());
                    next = span.end;
                }
                assert_eq!(next, n, "n = {n}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn growth_reuses_complete_chunk_trees() {
        let segs = uniform_corpus(41);
        let values = vals(&segs);
        let chunk = 6;
        let old_n = 27; // boundary inside chunk 4 (items 24..27 clamped)
        let old = VpForest::build(&values[..old_n], &P, chunk);

        let mut built = Vec::new();
        let grown = VpForest::build_with(
            &values,
            &P,
            chunk,
            |t, span| {
                old.trees()
                    .get(t)
                    .filter(|tree| tree.span() == *span)
                    .cloned()
            },
            |t, _tree, was_built| {
                if was_built {
                    built.push(t);
                }
            },
        );
        assert_eq!(built, vec![4, 5, 6]);
        let cold = VpForest::build(&values, &P, chunk);
        assert_eq!(grown, cold, "chunk append must be bit-identical");
    }

    #[test]
    fn damaged_fault_in_degrades_to_rebuild() {
        let segs = uniform_corpus(19);
        let values = vals(&segs);
        let good = VpForest::build(&values, &P, 5);
        let mut rebuilt = 0;
        let warm = VpForest::build_with(
            &values,
            &P,
            5,
            |t, _span| {
                let tree = &good.trees()[t];
                let mut nodes = tree.nodes().to_vec();
                if t == 1 {
                    nodes[0].threshold += 1.0; // corrupt; checksum now stale
                }
                Some(VpTree {
                    span: tree.span(),
                    root: tree.root(),
                    nodes,
                    checksum: tree.checksum(),
                })
            },
            |_, _, built| {
                if built {
                    rebuilt += 1;
                }
            },
        );
        assert_eq!(rebuilt, 1, "only the damaged tree is rebuilt");
        assert_eq!(warm, good);
    }

    #[test]
    fn from_parts_validates_structure_and_checksum() {
        let segs = uniform_corpus(12);
        let values = vals(&segs);
        let forest = VpForest::build(&values, &P, 5);
        let tree = &forest.trees()[1];
        let ok = VpTree::from_parts(
            tree.span(),
            tree.root(),
            tree.nodes().to_vec(),
            tree.checksum(),
        );
        assert_eq!(ok.as_ref(), Some(tree));
        // Wrong node count.
        assert!(
            VpTree::from_parts(tree.span(), tree.root(), Vec::new(), tree.checksum()).is_none()
        );
        // Wrong checksum.
        assert!(VpTree::from_parts(
            tree.span(),
            tree.root(),
            tree.nodes().to_vec(),
            tree.checksum() ^ 1
        )
        .is_none());
        // Out-of-bounds child pointer.
        let mut bad = tree.nodes().to_vec();
        bad[0].inside = 99;
        assert!(VpTree::from_parts(tree.span(), tree.root(), bad, tree.checksum()).is_none());
        // Cyclic child pointer must be rejected, not looped on.
        let mut cyc = tree.nodes().to_vec();
        cyc[0].inside = tree.root();
        assert!(VpTree::from_parts(tree.span(), tree.root(), cyc, tree.checksum()).is_none());
    }

    #[test]
    fn from_trees_validates_coverage() {
        let segs = uniform_corpus(10);
        let values = vals(&segs);
        let forest = VpForest::build(&values, &P, 4);
        let trees = forest.trees().to_vec();
        assert!(VpForest::from_trees(10, 4, trees.clone()).is_some());
        assert!(VpForest::from_trees(10, 3, trees.clone()).is_none());
        assert!(VpForest::from_trees(11, 4, trees.clone()).is_none());
        let mut missing = trees;
        missing.pop();
        assert!(VpForest::from_trees(10, 4, missing).is_none());
    }

    #[test]
    fn tiny_inputs() {
        let empty = VpForest::build(&[], &P, 4);
        assert!(empty.is_empty());
        assert!(empty.trees().is_empty());
        let one_seg: Vec<&[u8]> = vec![b"abcd"];
        let one = VpForest::build(&one_seg, &P, 4);
        assert_eq!(one.len(), 1);
        let provider = VpProvider::new(&one_seg, &P, &one);
        assert_eq!(provider.knn(0, 1), f64::INFINITY);
        let mut out = vec![(0.0, 0u32)];
        provider.neighbors_within(0, 10.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn metric_eligibility() {
        let a: Vec<&[u8]> = vec![b"abcd", b"efgh", b"ijkl"];
        assert!(metric_eligible(&a));
        let b: Vec<&[u8]> = vec![b"abcd", b"efg"];
        assert!(!metric_eligible(&b));
        assert!(metric_eligible(&[]));
        assert!(metric_eligible(&[b"".as_slice(), b""]));
    }
}
