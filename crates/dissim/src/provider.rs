//! Backend-agnostic neighbor queries: the [`NeighborProvider`] trait.
//!
//! Every density-based consumer of the dissimilarity matrix asks the
//! same three questions — "which items lie within ε of item `i`?"
//! (DBSCAN region queries, OPTICS expansion, refinement link
//! densities), "how far is item `i`'s k-th nearest neighbor?"
//! (auto-configuration ECDFs, core distances) and "how far apart are
//! items `i` and `j`?" (mutual reachability, cluster statistics). The
//! trait decouples those questions from *how* the answers are produced,
//! so the clustering stack can run against a full condensed matrix or
//! the length-stratified, triangle-inequality-pruned index
//! ([`crate::strata`]) without materializing the O(u²) triangle.
//!
//! **Bit-identity contract.** Whatever the backend, the *dissimilarity
//! values* a provider reports must be bit-identical to the scalar
//! reference [`crate::dissimilarity`] of the pair: ε auto-configuration
//! and DBSCAN compare raw values against thresholds, so a 1-ULP
//! perturbation can cascade into a structurally different clustering
//! (see `crate::kernel`). Region *emission order* may differ between
//! backends (documented per implementation): the matrix emits in index
//! order, the stratified index in ascending `(dissimilarity, index)`. Every
//! consumer is order-insensitive — DBSCAN labels, OPTICS minima and
//! refinement medians depend only on the region's set of pairs.
//!
//! **Batched queries.** The per-point methods answer one query at a
//! time on the calling thread;
//! [`neighbors_within_batch`](NeighborProvider::neighbors_within_batch)
//! answers a whole query slice at once, fanning the points out over the
//! `parkit` work-stealing pool. Each query fills its own result slot
//! ([`parkit::map_indexed`]), so batch answers are bit-identical to the
//! scalar calls in query order no matter how the scheduler interleaves
//! workers — the batch API is a throughput knob, never a result knob.
//! The default implementation runs the backend's native per-point
//! kernel (a matrix row sweep) in parallel; the stratified index
//! overrides it to reuse per-worker query scratch.
//!
//! **Region tables.** DBSCAN, its §III-E trimmed rerun and OPTICS read
//! every item's region, so they read one
//! [`region_table`](NeighborProvider::region_table) per clustering run
//! instead of querying item by item: the table is built at one radius
//! and answers any smaller radius by filtering. The default fills each
//! row from a [`neighbors_within`](NeighborProvider::neighbors_within)
//! scan. Both backends override it to read each pair from one end only
//! and mirror it into the other row: the matrix filters each item's
//! stored lower row, which is contiguous, so no column below the
//! diagonal is walked; the stratified index evaluates each
//! cross-stratum pair once. The batch query above stays for sampled
//! query sets.
//!
//! **k-NN tables.** Algorithm 1 reads every item's k-th nearest
//! dissimilarity for each `k` up to `round(ln n)`, and §III-E's trimmed
//! rerun reads them again. [`NeighborProvider::knn_table`] answers all
//! of that at once: the matrix sweeps its triangle row by row, each
//! candidate rejected against its item's current k-th value
//! ([`KnnAccumulator::push_lower_row`](crate::KnnAccumulator::push_lower_row)),
//! and the stratified index runs one `k_max`-deep k-NN query per item.
//! A `k_max`-deep search is exact, so its j-th smallest value is the
//! j-th nearest dissimilarity for every `j <= k_max`; only values are
//! kept, so ties cannot matter.

use std::cmp::Ordering;

use crate::knn::KnnTable;
use crate::matrix::{tri, MatrixView};
use crate::region::RegionTable;

/// Minimum queries per stolen work chunk in the batch fan-out: small
/// enough that modest batches still spread across workers, large enough
/// that the scheduler's per-chunk overhead stays invisible next to even
/// the cheapest query kernel.
pub(crate) const BATCH_MIN_CHUNK: usize = 8;

/// Answers ε-range, k-NN and pair queries over one item set.
///
/// Queries take `&self` so parallel consumers can fan items out across
/// threads against a shared provider (`P: Sync`).
pub trait NeighborProvider {
    /// Number of items covered.
    fn len(&self) -> usize;

    /// Whether the provider covers zero items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends every neighbor of item `i` with dissimilarity at most
    /// `eps` to `out` as `(dissimilarity, neighbor)` pairs, the item
    /// itself excluded. `out` is cleared first. Emission order is
    /// deterministic per backend and carries no meaning.
    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>);

    /// The dissimilarity of item `i` to its `k`-th nearest neighbor.
    ///
    /// `k` is clamped to `[1, len − 1]`; an item with no neighbors
    /// (a provider over fewer than two items) reports `f64::INFINITY`.
    fn knn(&self, i: usize, k: usize) -> f64;

    /// The dissimilarity between items `i` and `j` (0 on the diagonal).
    fn pair(&self, i: usize, j: usize) -> f64;

    /// The dissimilarities of item `i` to each entry of `js`, in order,
    /// into `out` (cleared first): `out[t]` is bit-identical to
    /// [`pair`](Self::pair)`(i, js[t])`, 0 where `js[t] == i`. One call
    /// per row lets a backend hoist its per-query kernel setup out of
    /// the row.
    fn pairs_from(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(js.iter().map(|&j| self.pair(i, j)));
    }

    /// The dissimilarity of each item to its `k`-th nearest neighbor —
    /// the vector Algorithm 1 builds its ECDFs over.
    fn knn_dissimilarities(&self, k: usize) -> Vec<f64> {
        (0..self.len()).map(|i| self.knn(i, k)).collect()
    }

    /// Answers one ε-range query per entry of `queries` at once,
    /// fanning the points out over `threads` workers on the `parkit`
    /// pool. Slot `qi` of the result holds exactly what
    /// [`neighbors_within`](Self::neighbors_within)`(queries[qi], eps,
    /// ..)` would have produced — same values, same emission order —
    /// regardless of thread count or work-stealing schedule.
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
            || (),
            |_, qi| {
                let mut out = Vec::new();
                self.neighbors_within(queries[qi], eps, &mut out);
                out
            },
        )
    }

    /// Every item's ε-region at radius `eps`, built on `threads`
    /// workers: row `i` holds exactly the pairs
    /// [`neighbors_within`](Self::neighbors_within)`(i, eps, ..)` emits,
    /// with bit-identical values, in an order that carries no meaning.
    /// The rows do not depend on `threads`.
    ///
    /// The default fills each row from one `neighbors_within` scan
    /// ([`RegionTable::from_scans`]).
    fn region_table(&self, eps: f64, threads: usize) -> RegionTable
    where
        Self: Sync,
    {
        RegionTable::from_scans(self, eps, threads)
    }

    /// Each item's `k_max` nearest-neighbor dissimilarities, ascending,
    /// as one [`KnnTable`] built on `threads` workers: everything
    /// Algorithm 1 and its §III-E trimmed rerun read, from one pass.
    /// `kth(i, k)` equals [`knn`](Self::knn)`(i, k)` bitwise for every
    /// `k <= min(k_max, len − 1)`; larger `k` read `f64::INFINITY`. The
    /// table does not depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable
    where
        Self: Sync;
}

/// The row-scan provider over a bare
/// [`CondensedMatrix`](crate::CondensedMatrix), or over the
/// [prefix](crate::CondensedMatrix::prefix) of one: the oracle every
/// other backend is pinned against, and the matrix backend's query
/// path.
///
/// Region queries walk one condensed row and emit in *index* order, and
/// so do the rows of its [`region_table`](NeighborProvider::region_table);
/// k-NN queries select the order statistic off a row scan, exactly as
/// [`CondensedMatrix::knn_dissimilarities`](crate::CondensedMatrix::knn_dissimilarities)
/// does. Hot k-NN sweeps should read a
/// [`knn_table`](NeighborProvider::knn_table) instead.
#[derive(Debug, Clone, Copy)]
pub struct MatrixProvider<'a> {
    matrix: MatrixView<'a>,
}

impl<'a> MatrixProvider<'a> {
    /// Wraps a condensed matrix, or a prefix view of one: a provider
    /// over a prefix answers exactly what one over the prefix's own
    /// matrix answers.
    pub fn new(matrix: impl Into<MatrixView<'a>>) -> Self {
        Self {
            matrix: matrix.into(),
        }
    }
}

impl NeighborProvider for MatrixProvider<'_> {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        out.clear();
        let (head, column) = self.matrix.row_parts(i);
        for (j, &d) in head.iter().enumerate() {
            if d <= eps {
                out.push((d, j as u32));
            }
        }
        for (off, d) in column.enumerate() {
            if d <= eps {
                out.push((d, (i + 1 + off) as u32));
            }
        }
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        let n = self.matrix.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let k = k.clamp(1, n - 1);
        let mut row = self.matrix.row(i);
        let (_, kth, _) = row.select_nth_unstable_by(k - 1, |a, b| {
            a.partial_cmp(b).expect("dissimilarities are not NaN")
        });
        *kth
    }

    fn pair(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    /// Reads `D(i, j)` for `j < i` from row `i`'s stored slice, and
    /// `D(j, i)` for `j > i` at its cell of row `j`: the cells
    /// [`pair`](NeighborProvider::pair) reads, without its per-call
    /// index checks.
    fn pairs_from(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        assert!(i < self.matrix.len(), "index out of bounds");
        let (head, cells) = (self.matrix.lower_row(i), self.matrix.values());
        out.clear();
        out.extend(js.iter().map(|&j| match j.cmp(&i) {
            Ordering::Less => head[j],
            Ordering::Equal => 0.0,
            Ordering::Greater => cells[tri(j) + i],
        }));
    }

    /// Each row's query entries are its stored lower row filtered to
    /// `d <= eps`, read contiguously on `threads` workers; each entry is
    /// then mirrored into the row of its earlier item
    /// ([`RegionTable::mirror_from_one_side`]), rows visited in index
    /// order. So row `i` lists its neighbors in index order, the
    /// sequence [`neighbors_within`](NeighborProvider::neighbors_within)
    /// emits, without walking the column below the diagonal.
    fn region_table(&self, eps: f64, threads: usize) -> RegionTable {
        let matrix = self.matrix;
        let mut table = RegionTable::from_rows(
            matrix.len(),
            eps,
            threads,
            || (),
            |i, _, sink| {
                for (j, &d) in matrix.lower_row(i).iter().enumerate() {
                    if d <= eps {
                        sink.push(d, j as u32);
                    }
                }
            },
        );
        table.mirror_from_one_side(|i, j| j < i);
        table
    }

    /// One serial sweep of the condensed triangle
    /// ([`MatrixView::knn_table`]); `threads` is unused.
    fn knn_table(&self, k_max: usize, _threads: usize) -> KnnTable {
        self.matrix.knn_table(k_max)
    }
}

/// A region as `(dissimilarity bits, neighbor)` pairs sorted ascending
/// by `(dissimilarity, neighbor)`: the order-free form tests compare
/// backends' regions in.
#[cfg(test)]
pub(crate) fn sorted_bits(region: &[(f64, u32)]) -> Vec<(u64, u32)> {
    let mut v = region.to_vec();
    v.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("dissimilarities are not NaN")
            .then_with(|| a.1.cmp(&b.1))
    });
    v.into_iter().map(|(d, j)| (d.to_bits(), j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CondensedMatrix;

    fn toy(n: usize) -> CondensedMatrix {
        CondensedMatrix::build(n, |i, j| ((i * 13 + j * 7) % 23) as f64 / 10.0)
    }

    #[test]
    fn matrix_provider_matches_brute_force() {
        let m = toy(15);
        let mp = MatrixProvider::new(&m);
        assert_eq!(mp.len(), 15);
        let mut got = Vec::new();
        for i in 0..15 {
            for eps in [0.0, 0.35, 1.1, 2.3] {
                mp.neighbors_within(i, eps, &mut got);
                let want: Vec<(f64, u32)> = (0..15)
                    .filter(|&j| j != i && m.get(i, j) <= eps)
                    .map(|j| (m.get(i, j), j as u32))
                    .collect();
                // Row scans emit in index order.
                assert_eq!(got, want, "item {i}, eps {eps}");
            }
            let mut row = m.row(i);
            row.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for k in [1usize, 3, 14, 20, usize::MAX] {
                let want = row[k.clamp(1, 14) - 1];
                assert_eq!(mp.knn(i, k).to_bits(), want.to_bits(), "item {i}, k {k}");
            }
            for j in 0..15 {
                assert_eq!(mp.pair(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn batch_queries_match_scalar_bitwise() {
        let m = toy(23);
        let mp = MatrixProvider::new(&m);
        let queries: Vec<usize> = (0..23).rev().chain([0, 11, 11]).collect();
        for threads in [1usize, 4] {
            for eps in [0.0, 0.35, 1.1] {
                let batches = mp.neighbors_within_batch(&queries, eps, threads);
                assert_eq!(batches.len(), queries.len());
                let mut want = Vec::new();
                for (&q, got) in queries.iter().zip(&batches) {
                    mp.neighbors_within(q, eps, &mut want);
                    assert_eq!(got, &want, "query {q}, eps {eps}, threads {threads}");
                }
            }
        }
        // Empty batches stay empty.
        assert!(mp.neighbors_within_batch(&[], 1.0, 4).is_empty());
    }

    #[test]
    fn prefix_provider_answers_like_the_prefix_matrix() {
        let full = toy(20);
        let own = CondensedMatrix::build(12, |i, j| full.get(i, j));
        let (view, oracle) = (
            MatrixProvider::new(full.prefix(12)),
            MatrixProvider::new(&own),
        );
        assert_eq!(view.len(), 12);
        for eps in [0.0, 0.35, 1.1] {
            let (a, b) = (view.region_table(eps, 2), oracle.region_table(eps, 2));
            assert_eq!(a.len(), b.len());
            for i in 0..12 {
                let rows: Vec<_> = a.row(i).collect();
                assert_eq!(rows, b.row(i).collect::<Vec<_>>(), "row {i}, eps {eps}");
            }
        }
        assert_eq!(view.knn_table(4, 1), oracle.knn_table(4, 1));
        let js: Vec<usize> = (0..12).rev().collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..12 {
            view.pairs_from(i, &js, &mut a);
            oracle.pairs_from(i, &js, &mut b);
            assert_eq!(a, b, "row {i}");
            assert_eq!(view.knn(i, 3).to_bits(), oracle.knn(i, 3).to_bits());
        }
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// A matrix of `n` items whose cells are multiples of ⅛: ties
        /// among a row's values, and with a radius drawn from them, are
        /// common.
        fn coarse(n: usize, cells: &[u8]) -> CondensedMatrix {
            let values = (0..tri(n)).map(|c| f64::from(cells[c % cells.len()] % 9) / 8.0);
            CondensedMatrix::from_condensed(n, values.collect()).expect("triangle length")
        }

        proptest! {
            /// The stored-row region table holds, row for row, the pairs
            /// of a `neighbors_within` scan, compared as sorted (bits,
            /// id) sets — over full matrices and prefix views, at 1 and
            /// 4 threads, with radii exactly at cell values.
            #[test]
            fn region_table_rows_match_scans(
                n in 0usize..40,
                cells in prop::collection::vec(any::<u8>(), 1..64),
                cut in 0usize..40,
                pick in any::<u8>(),
            ) {
                let m = coarse(n, &cells);
                let eps = f64::from(pick % 10) / 8.0;
                for view in [m.view(), m.prefix(cut.min(n))] {
                    let provider = MatrixProvider::new(view);
                    for threads in [1, 4] {
                        let table = provider.region_table(eps, threads);
                        prop_assert_eq!(table.len(), view.len());
                        let mut scan = Vec::new();
                        let mut total = 0;
                        for i in 0..view.len() {
                            provider.neighbors_within(i, eps, &mut scan);
                            total += scan.len();
                            let row: Vec<_> = table.row(i).collect();
                            prop_assert_eq!(
                                sorted_bits(&row), sorted_bits(&scan),
                                "row {} of {}, eps {}, threads {}", i, view.len(), eps, threads
                            );
                        }
                        prop_assert_eq!(table.entries(), total);
                    }
                }
            }

            /// The thresholded sweep equals the per-row order statistic
            /// for every `k <= k_max`, and reads ∞ past the pair count:
            /// duplicate values, `k_max >= n`, full matrices and prefix
            /// views.
            #[test]
            fn knn_table_matches_knn_dissimilarities(
                n in 1usize..30,
                cells in prop::collection::vec(any::<u8>(), 1..64),
                cut in 1usize..30,
                k_max in 1usize..12,
            ) {
                let m = coarse(n, &cells);
                for view in [m.view(), m.prefix(cut.min(n))] {
                    let table = MatrixProvider::new(view).knn_table(k_max, 1);
                    prop_assert_eq!(table.len(), view.len());
                    for k in 1..=k_max {
                        if k < view.len() {
                            let want = view.knn_dissimilarities(k);
                            let got = table.knn_dissimilarities(k);
                            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                            prop_assert_eq!(bits(&got), bits(&want), "k {} of n {}", k, view.len());
                        } else {
                            prop_assert!(table.knn_dissimilarities(k).iter().all(|d| d.is_infinite()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_providers_report_infinite_knn() {
        let m = toy(1);
        let mp = MatrixProvider::new(&m);
        assert_eq!(mp.knn(0, 1), f64::INFINITY);
        let mut out = vec![(0.0, 0u32)];
        mp.neighbors_within(0, 10.0, &mut out);
        assert!(out.is_empty());
    }
}
