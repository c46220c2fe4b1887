//! Vantage-point forest over segments: the metric tree the
//! length-stratified index ([`crate::strata`]) builds inside every
//! stratum.
//!
//! # Metricity
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
//! breaks the triangle whenever `penalty < D(a, b)`. A forest is
//! therefore only ever built over one length class: the strata index
//! partitions the corpus by exact length and searches each stratum's
//! forest with full metric pruning.
//!
//! # Bit-identity
//!
//! Construction distances are computed exactly through
//! [`dissimilarity_kernel`] (pinned bit-identical to the scalar
//! reference). Searches decide inclusion on the exact value — pruning
//! only decides which *subtrees* are visited — and pad every pruning
//! bound with a conservative [`PRUNE_SLACK`] so floating-point roundoff
//! in the triangle argument can never drop a true neighbor.
//!
//! # Chunked forest and persistence
//!
//! The forest is **chunked**: tree `t` covers items
//! `t·C .. min((t+1)·C, n)` and is built only from the items of its
//! chunk, so a tree's content is a pure function of that item range.
//! Growing a stratum reuses every complete chunk's tree verbatim
//! ([`VpForest::build_with`]) and rebuilds only the clamped boundary
//! chunk; the trees persist through `crates/store` inside the
//! `Kind::STRATA` payload.

use std::cmp::Ordering;
use std::ops::Range;

use crate::canberra::DissimParams;
use crate::kernel::{dissimilarity_kernel, CanberraLut};

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
        Self::build_with(values, params, chunk, |_, _| None)
    }

    /// Builds the forest, probing `fault_in` before building each chunk
    /// tree.
    ///
    /// `fault_in(t, span)` may return a previously built tree; it is
    /// used only if its span matches and its checksum verifies, so a
    /// stale or damaged tree degrades to a rebuild.
    pub fn build_with(
        values: &[&[u8]],
        params: &DissimParams,
        chunk: usize,
        mut fault_in: impl FnMut(usize, &Range<usize>) -> Option<VpTree>,
    ) -> Self {
        let n = values.len();
        let chunk = chunk.max(1);
        let mut trees = Vec::with_capacity(Self::chunk_count(n, chunk));
        for t in 0..Self::chunk_count(n, chunk) {
            let span = Self::chunk_span(n, chunk, t);
            let tree = match fault_in(t, &span) {
                Some(tree) if tree.span() == span && tree.verify() => tree,
                _ => VpTree::build(values, span, params),
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CondensedMatrix;
    use crate::provider::{sorted_bits, MatrixProvider, NeighborProvider};
    use crate::strata::{StrataIndex, StratifiedProvider};

    const P: DissimParams = DissimParams {
        length_penalty: 0.59,
    };

    /// Uniform-length corpus: clustered 8-byte segments with noise, so
    /// the whole corpus is one length stratum and every query runs the
    /// pruned forest walk.
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

    fn vals(segs: &[Vec<u8>]) -> Vec<&[u8]> {
        segs.iter().map(|s| &s[..]).collect()
    }

    /// Searches a single-stratum index (one forest at `chunk` items per
    /// tree) and pins every answer against the matrix oracle.
    fn assert_forest_search_matches_oracle(values: &[&[u8]], chunk: usize, label: &str) {
        let index = StrataIndex::build(values, &P, chunk);
        assert_eq!(index.strata().len(), 1, "{label}: one length, one stratum");
        let provider = StratifiedProvider::new(values, &P, &index);
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
                // The forest search emits (dissimilarity, index) order.
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
        }
    }

    #[test]
    fn pruned_search_matches_oracle_bitwise() {
        let segs = uniform_corpus(120);
        let values = vals(&segs);
        for chunk in [7usize, 32, 120, 500] {
            assert_forest_search_matches_oracle(&values, chunk, &format!("chunk {chunk}"));
        }
    }

    #[test]
    fn duplicate_heavy_corpus_matches_oracle() {
        // Many identical segments: zero-distance ties everywhere.
        let segs: Vec<Vec<u8>> = (0..40).map(|i| vec![(i % 3) as u8 * 100; 6]).collect();
        assert_forest_search_matches_oracle(&vals(&segs), 8, "duplicates");
    }

    #[test]
    fn batch_queries_match_scalar_bitwise() {
        let segs = uniform_corpus(90);
        let values = vals(&segs);
        let index = StrataIndex::build(&values, &P, 16);
        let p = StratifiedProvider::new(&values, &P, &index);
        let queries: Vec<usize> = (0..values.len()).rev().chain([0, 7, 7]).collect();
        let mut want = Vec::new();
        for threads in [1usize, 4] {
            for eps in [0.0, 0.2, 0.8] {
                let regions = p.neighbors_within_batch(&queries, eps, threads);
                for (&q, got) in queries.iter().zip(&regions) {
                    p.neighbors_within(q, eps, &mut want);
                    assert_eq!(
                        sorted_bits(got),
                        sorted_bits(&want),
                        "threads {threads}, query {q}, eps {eps}"
                    );
                    assert_eq!(got.len(), want.len());
                }
            }
            // The k-NN table's rows are the forest's k-NN answers.
            let k_max = 4;
            let table = p.knn_table(k_max, threads);
            for q in 0..values.len() {
                for k in 1..=k_max {
                    assert_eq!(
                        table.kth(q, k).to_bits(),
                        p.knn(q, k).to_bits(),
                        "threads {threads}, query {q}, k {k}"
                    );
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
        let grown = VpForest::build_with(&values, &P, chunk, |t, span| {
            let reused = old
                .trees()
                .get(t)
                .filter(|tree| tree.span() == *span)
                .cloned();
            if reused.is_none() {
                built.push(t);
            }
            reused
        });
        assert_eq!(built, vec![4, 5, 6]);
        let cold = VpForest::build(&values, &P, chunk);
        assert_eq!(grown, cold, "chunk append must be bit-identical");
    }

    #[test]
    fn damaged_fault_in_degrades_to_rebuild() {
        let segs = uniform_corpus(19);
        let values = vals(&segs);
        let good = VpForest::build(&values, &P, 5);
        let mut damaged = 0;
        let warm = VpForest::build_with(&values, &P, 5, |t, _span| {
            let tree = &good.trees()[t];
            let mut nodes = tree.nodes().to_vec();
            if t == 1 {
                nodes[0].threshold += 1.0; // corrupt; checksum now stale
            }
            let offered = VpTree {
                span: tree.span(),
                root: tree.root(),
                nodes,
                checksum: tree.checksum(),
            };
            if !offered.verify() {
                damaged += 1;
            }
            Some(offered)
        });
        assert_eq!(damaged, 1, "the fixture damages exactly one tree");
        // The damaged tree's threshold differs, so equality shows it was
        // rebuilt rather than used.
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
        assert_eq!(one.trees().len(), 1);
        assert_eq!(one.trees()[0].nodes().len(), 1);
        assert!(one.trees()[0].verify());
    }
}
