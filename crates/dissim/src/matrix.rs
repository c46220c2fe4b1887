//! Condensed pairwise dissimilarity matrices.
//!
//! The pipeline stores all pairwise segment dissimilarities in a matrix
//! `D` (paper §III-C). For `n` segments only the strict lower triangle
//! is kept (`n·(n−1)/2` entries), row-major: row `i` holds `D(i, 0..i)`
//! at offset `i(i−1)/2`. Row `i` depends on items `0..=i` only, so the
//! matrix over the first `m` items is the first `m(m−1)/2` cells of any
//! larger one, and growing the item set appends rows. The build is
//! parallelized over the `parkit` work-stealing scheduler since it is
//! the pipeline's dominant cost (O(n²) sliding-window Canberra
//! evaluations).

use crate::cells::Cells;
use crate::knn::{KnnAccumulator, KnnTable};

/// `0 + 1 + … + (x − 1)`: the cells of lower-triangle rows `0..x`, and
/// the offset of row `x`.
pub(crate) fn tri(x: usize) -> usize {
    x * x.saturating_sub(1) / 2
}

/// A symmetric zero-diagonal dissimilarity matrix in condensed form.
///
/// # Examples
///
/// ```
/// use dissim::CondensedMatrix;
///
/// let items = ["aa", "ab", "zz"];
/// let m = CondensedMatrix::build(items.len(), |i, j| {
///     if items[i] == items[j] { 0.0 } else { 1.0 }
/// });
/// assert_eq!(m.get(0, 1), 1.0);
/// assert_eq!(m.get(1, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Cells,
}

impl CondensedMatrix {
    /// Builds the matrix by evaluating `f(i, j)` for every pair `i < j`
    /// on the current thread, row by row of the lower triangle.
    pub fn build(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(tri(n));
        for j in 0..n {
            for i in 0..j {
                data.push(f(i, j));
            }
        }
        Self {
            n,
            data: data.into(),
        }
    }

    /// Builds the pairwise Canberra dissimilarity matrix directly from
    /// the segment byte slices via the kernel layer ([`crate::kernel`]):
    /// byte-pair LUT, early-abandon sliding windows, and length-bucketed
    /// pair scheduling over lower-triangle rows.
    ///
    /// Bit-identical to
    /// `CondensedMatrix::build(segments.len(),
    /// |i, j| dissimilarity(segments[i], segments[j], params))`
    /// but several times faster — the structure-aware entry point sees
    /// the segment lengths instead of an opaque closure.
    ///
    /// The same kernel layer computes what
    /// [`extend_segments`](Self::extend_segments) adds: a cold build is
    /// the extension of an empty prefix.
    pub fn build_segments(
        segments: &[&[u8]],
        params: &crate::canberra::DissimParams,
        threads: usize,
    ) -> Self {
        crate::kernel::extend_bucketed(&[], 0, segments, params, threads)
    }

    /// Wraps an already-filled condensed buffer (`data.len()` must be
    /// `n·(n−1)/2`).
    pub(crate) fn from_raw(n: usize, data: Cells) -> Self {
        debug_assert_eq!(data.len(), tri(n));
        Self { n, data }
    }

    /// Adopts an already-filled condensed buffer (lower triangle,
    /// row-major) as is, on the heap: `None` unless `data.len()` is
    /// exactly `n·(n−1)/2`, so a mismatched buffer is refused instead of
    /// corrupting every later index computation.
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Option<Self> {
        (data.len() == tri(n)).then(|| Self {
            n,
            data: data.into(),
        })
    }

    /// Lets `fill` write the `n·(n−1)/2` condensed entries (lower
    /// triangle, row-major) straight into the matrix's own buffer;
    /// `None` if `fill` returns `None`. The artifact store decodes
    /// matrices this way, in one pass, so a decoded matrix is placed
    /// like a built one.
    pub fn try_filled(n: usize, fill: impl FnOnce(&mut [f64]) -> Option<()>) -> Option<Self> {
        let mut data = Cells::zeroed(tri(n));
        fill(&mut data)?;
        Some(Self { n, data })
    }

    /// Extends this matrix (built over the first `self.len()` of
    /// `segments`) to cover all of `segments`: the existing cells are
    /// copied over as one slice and only the appended rows are
    /// computed, through the same kernel layer as
    /// [`build_segments`](Self::build_segments).
    ///
    /// Bit-identical to a cold
    /// `CondensedMatrix::build_segments(segments, params, threads)` —
    /// the incremental warm-start path of the artifact store must never
    /// perturb a single matrix entry.
    ///
    /// # Panics
    ///
    /// Panics if `segments` has fewer entries than this matrix covers —
    /// extension can only grow the item set.
    pub fn extend_segments(
        &self,
        segments: &[&[u8]],
        params: &crate::canberra::DissimParams,
        threads: usize,
    ) -> Self {
        crate::kernel::extend_bucketed(&self.data, self.n, segments, params, threads)
    }

    /// Number of items (rows/columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The whole matrix as a [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        self.prefix(self.n)
    }

    /// The matrix over the first `n` items, read in place: the first
    /// `n·(n−1)/2` cells. A matrix [extended](Self::extend_segments)
    /// from the matrix of its first `n` items holds that matrix as
    /// exactly these cells.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`len`](Self::len).
    pub fn prefix(&self, n: usize) -> MatrixView<'_> {
        assert!(
            n <= self.n,
            "a prefix cannot cover more items than the matrix"
        );
        MatrixView {
            data: &self.data[..tri(n)],
            n,
        }
    }

    /// The dissimilarity between items `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.view().get(i, j)
    }

    /// All dissimilarities from item `i` to every other item, in index
    /// order (excluding `i` itself).
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.view().row(i)
    }

    /// Writes row `i` (all dissimilarities to other items, in index
    /// order, excluding `i` itself) into `buf`, clearing it first.
    ///
    /// Callers looping over rows should reuse one scratch buffer instead
    /// of allocating a fresh `Vec` per item via [`Self::row`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (and the matrix is non-empty).
    pub fn row_into(&self, i: usize, buf: &mut Vec<f64>) {
        self.view().row_into(i, buf);
    }

    /// Row `i` split at the diagonal, both halves in index order: the
    /// stored row `D(i, j)` for `j < i`, contiguous, and the column
    /// below the diagonal, `D(j, i)` for `j > i`.
    ///
    /// Walks the two condensed-triangle ranges directly: the head is a
    /// slice, the column a walk whose step from `j` to `j + 1` is `j` —
    /// no per-element index arithmetic or bounds-checked [`Self::get`]
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_parts(&self, i: usize) -> (&[f64], impl Iterator<Item = f64> + '_) {
        self.view().row_parts(i)
    }

    /// The dissimilarity of each item to its `k`-th nearest neighbor
    /// (`k >= 1`).
    ///
    /// This is the input of the ε auto-configuration: the paper builds
    /// the ECDF over exactly these values (§III-D).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or `k >= n`.
    pub fn knn_dissimilarities(&self, k: usize) -> Vec<f64> {
        self.view().knn_dissimilarities(k)
    }

    /// Each item's `k_max` nearest-neighbor dissimilarities, from one
    /// linear sweep of the condensed triangle: every pair updates both
    /// endpoints of a [`KnnAccumulator`]. `kth(i, k)` equals
    /// [`knn_dissimilarities`](Self::knn_dissimilarities)`(k)[i]`
    /// bitwise for every `k <= min(k_max, n − 1)`; larger `k` read
    /// `f64::INFINITY`.
    ///
    /// This is what ε auto-configuration reads: O(n · k_max) memory and
    /// no per-row sort.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    pub fn knn_table(&self, k_max: usize) -> KnnTable {
        self.view().knn_table(k_max)
    }

    /// All condensed values: the lower triangle, row-major.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mean of all pairwise dissimilarities; `None` for fewer than two
    /// items.
    pub fn mean(&self) -> Option<f64> {
        self.view().mean()
    }

    /// Maximum pairwise dissimilarity; `None` for fewer than two items.
    pub fn max(&self) -> Option<f64> {
        self.view().max()
    }
}

/// The matrix over the first `len()` items of a [`CondensedMatrix`],
/// read in place ([`CondensedMatrix::prefix`]): the leading cells of
/// the underlying buffer, which are exactly the block's own matrix, so
/// every reader here answers bit for bit what the same reader of the
/// block's own matrix answers, and visits pairs in the same order.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    n: usize,
}

impl<'a> From<&'a CondensedMatrix> for MatrixView<'a> {
    fn from(matrix: &'a CondensedMatrix) -> Self {
        matrix.view()
    }
}

impl<'a> MatrixView<'a> {
    /// Number of items (rows/columns) of the block.
    pub fn len(self) -> usize {
        self.n
    }

    /// Whether the block covers zero items.
    pub fn is_empty(self) -> bool {
        self.n == 0
    }

    /// The block's condensed values: the lower triangle, row-major.
    pub fn values(self) -> &'a [f64] {
        self.data
    }

    /// See [`CondensedMatrix::get`].
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is outside the block.
    pub fn get(self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        self.data[condensed_index(i.max(j), i.min(j))]
    }

    /// See [`CondensedMatrix::row`].
    pub fn row(self, i: usize) -> Vec<f64> {
        let mut buf = Vec::new();
        self.row_into(i, &mut buf);
        buf
    }

    /// See [`CondensedMatrix::row_into`].
    pub fn row_into(self, i: usize, buf: &mut Vec<f64>) {
        buf.clear();
        if self.n == 0 {
            return;
        }
        let (head, column) = self.row_parts(i);
        buf.reserve(self.n - 1);
        buf.extend_from_slice(head);
        buf.extend(column);
    }

    /// See [`CondensedMatrix::row_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the block.
    pub fn row_parts(self, i: usize) -> (&'a [f64], impl Iterator<Item = f64> + 'a) {
        assert!(i < self.n, "index out of bounds");
        (self.lower_row(i), self.column_below(i))
    }

    /// Writes the full rows of `items` back to back into `out`, clearing
    /// it first: `out[k·len() + j] = D(items[k], j)`, 0 on the diagonal.
    ///
    /// The stored part of each row is one slice copy. The parts below
    /// the diagonal are read in one pass over the later rows, each row
    /// read at every item's column at once: items with nearby indices
    /// share the row's cache lines, where walking each column on its own
    /// would touch one line per row per item.
    ///
    /// # Panics
    ///
    /// Panics if an item is outside the block.
    pub fn gather_rows(self, items: &[usize], out: &mut Vec<f64>) {
        let n = self.n;
        out.clear();
        out.resize(items.len() * n, 0.0);
        for (row, &s) in out.chunks_exact_mut(n.max(1)).zip(items) {
            row[..s].copy_from_slice(self.lower_row(s));
        }
        let mut by_item: Vec<usize> = (0..items.len()).collect();
        by_item.sort_unstable_by_key(|&k| items[k]);
        let mut active = 0;
        for j in 1..n {
            while active < by_item.len() && items[by_item[active]] < j {
                active += 1;
            }
            let row = self.lower_row(j);
            for &k in &by_item[..active] {
                out[k * n + j] = row[items[k]];
            }
        }
    }

    /// Lower-triangle row `i`: `D(i, j)` for every `j < i`, contiguous.
    fn lower_row(self, i: usize) -> &'a [f64] {
        &self.data[tri(i)..tri(i + 1)]
    }

    /// `D(j, i)` for `j = i + 1 .. len()`: entry `i` of every later row,
    /// whose offset steps by `j` from row `j` to row `j + 1`.
    fn column_below(self, i: usize) -> impl Iterator<Item = f64> + 'a {
        let data = self.data;
        let mut idx = tri(i + 1) + i;
        (i + 1..self.n).map(move |j| {
            let d = data[idx];
            idx += j;
            d
        })
    }

    /// See [`CondensedMatrix::knn_dissimilarities`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or `k >= len()`.
    pub fn knn_dissimilarities(self, k: usize) -> Vec<f64> {
        assert!(k >= 1, "k must be at least 1");
        assert!(k < self.n, "k must be smaller than the item count");
        let mut row = Vec::new();
        (0..self.n)
            .map(|i| {
                self.row_into(i, &mut row);
                let (_, kth, _) = row.select_nth_unstable_by(k - 1, |a, b| {
                    a.partial_cmp(b).expect("dissimilarities are not NaN")
                });
                *kth
            })
            .collect()
    }

    /// See [`CondensedMatrix::knn_table`]. The k smallest values of a
    /// multiset do not depend on the order they arrive in, so the sweep
    /// reads the cells in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    pub fn knn_table(self, k_max: usize) -> KnnTable {
        let mut acc = KnnAccumulator::new(self.n, k_max);
        for i in 0..self.n {
            for (j, &d) in self.lower_row(i).iter().enumerate() {
                acc.push(j, d);
                acc.push(i, d);
            }
        }
        acc.finish()
    }

    /// See [`CondensedMatrix::mean`]. The sum runs over the pairs
    /// `(i, j)`, `i < j`, ordered by `i` and then `j` — the order
    /// [`crate::pairwise_mean`] streams them in — so both agree bit for
    /// bit.
    pub fn mean(self) -> Option<f64> {
        let pairs = tri(self.n);
        (pairs > 0)
            .then(|| (0..self.n).flat_map(|i| self.column_below(i)).sum::<f64>() / pairs as f64)
    }

    /// See [`CondensedMatrix::max`].
    pub fn max(self) -> Option<f64> {
        self.data.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
    }

    /// The block as a matrix of its own.
    pub fn to_matrix(self) -> CondensedMatrix {
        CondensedMatrix {
            n: self.n,
            data: Cells::copy_of(self.data),
        }
    }
}

/// Index of pair `(i, j)` with `j < i` in the condensed lower triangle.
fn condensed_index(i: usize, j: usize) -> usize {
    debug_assert!(j < i);
    tri(i) + j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> CondensedMatrix {
        // d(i, j) = |i - j| as a simple metric.
        CondensedMatrix::build(n, |i, j| (i as f64 - j as f64).abs())
    }

    #[test]
    fn condensed_indexing_is_bijective() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..i {
                assert!(seen.insert(condensed_index(i, j)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert_eq!(*seen.iter().max().unwrap(), n * (n - 1) / 2 - 1);
    }

    #[test]
    fn get_is_symmetric_with_zero_diagonal() {
        let m = toy(5);
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert_eq!(m.get(1, 4), 3.0);
    }

    #[test]
    fn try_filled_reads_every_entry_in_order() {
        // 1 500 items: a buffer past the mapping threshold.
        for n in [0, 1, 5, 1500] {
            let m = toy(n);
            let read = CondensedMatrix::try_filled(n, |cells| {
                cells.copy_from_slice(m.values());
                Some(())
            })
            .unwrap();
            assert_eq!(read, m);
            assert_eq!(read.clone(), m);
        }
        assert!(CondensedMatrix::try_filled(5, |_| None).is_none());
    }

    const P: crate::DissimParams = crate::DissimParams {
        length_penalty: 0.59,
    };

    #[test]
    fn parallel_matches_serial() {
        let segs: Vec<Vec<u8>> = (0..40usize)
            .map(|i| {
                (0..1 + i % 7)
                    .map(|k| ((i * 31 + k * 17) % 256) as u8)
                    .collect()
            })
            .collect();
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let serial =
            CondensedMatrix::build(40, |i, j| crate::dissimilarity(values[i], values[j], &P));
        for threads in [1, 2, 3, 8] {
            let par = CondensedMatrix::build_segments(&values, &P, threads);
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_handles_tiny_inputs() {
        let m = CondensedMatrix::build_segments(&[b"ab".as_slice()], &P, 4);
        assert_eq!(m.len(), 1);
        assert!(m.values().is_empty());
        let empty = CondensedMatrix::build_segments(&[], &P, 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn knn_returns_kth_smallest() {
        let m = toy(6);
        // For item 0, distances are 1,2,3,4,5 -> 2nd NN = 2.
        let knn2 = m.knn_dissimilarities(2);
        assert_eq!(knn2[0], 2.0);
        // For item 3 (middle), distances are 3,2,1,1,2 -> sorted 1,1,2,2,3.
        assert_eq!(knn2[3], 1.0);
        let knn1 = m.knn_dissimilarities(1);
        assert!(knn1.iter().all(|&d| d == 1.0));
    }

    #[test]
    #[should_panic(expected = "k must be smaller")]
    fn knn_rejects_excessive_k() {
        toy(3).knn_dissimilarities(3);
    }

    #[test]
    fn row_excludes_self() {
        let m = toy(4);
        assert_eq!(m.row(2), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn row_into_matches_per_element_reference() {
        // The pre-optimization implementation, element by element.
        fn reference_row(m: &CondensedMatrix, i: usize) -> Vec<f64> {
            (0..m.len())
                .filter(|&j| j != i)
                .map(|j| m.get(i, j))
                .collect()
        }
        for n in [1usize, 2, 3, 7, 12] {
            let m = CondensedMatrix::build(n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
            let mut buf = vec![99.0]; // must be cleared
            for i in 0..n {
                m.row_into(i, &mut buf);
                assert_eq!(buf, reference_row(&m, i), "n = {n}, i = {i}");
            }
        }
        // Empty matrix: any index yields an empty row without panicking,
        // as the per-element loop never touched the data.
        let empty = CondensedMatrix::build(0, |_, _| 0.0);
        let mut buf = vec![1.0];
        empty.row_into(0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn gather_rows_reads_full_rows() {
        let m = CondensedMatrix::build(9, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
        let mut out = vec![5.0];
        for items in [vec![], vec![0], vec![8], vec![3, 0, 8, 3, 5, 1]] {
            m.view().gather_rows(&items, &mut out);
            let want: Vec<f64> = items
                .iter()
                .flat_map(|&s| (0..9).map(move |j| (s, j)))
                .map(|(s, j)| m.get(s, j))
                .collect();
            assert_eq!(out, want, "items {items:?}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn row_into_rejects_out_of_bounds_index() {
        let mut buf = Vec::new();
        toy(3).row_into(3, &mut buf);
    }

    #[test]
    fn prefix_view_reads_the_leading_block_bit_for_bit() {
        let segs: Vec<Vec<u8>> = (0..30usize)
            .map(|i| {
                (0..1 + i % 5)
                    .map(|k| ((i * 37 + k * 11) % 256) as u8)
                    .collect()
            })
            .collect();
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let full = CondensedMatrix::build_segments(&values, &P, 2);
        for n in [0, 1, 2, 7, 29, 30] {
            let own = CondensedMatrix::build_segments(&values[..n], &P, 1);
            let view = full.prefix(n);
            assert_eq!(view.len(), n);
            assert_eq!(view.to_matrix(), own, "n = {n}");
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            assert_eq!(bits(view.mean()), bits(own.mean()), "n = {n}");
            assert_eq!(bits(view.max()), bits(own.max()), "n = {n}");
            for i in 0..n {
                assert_eq!(view.row(i), own.row(i), "n = {n}, row {i}");
            }
            if n > 1 {
                assert_eq!(view.knn_table(3), own.knn_table(3), "n = {n}");
                assert_eq!(view.knn_dissimilarities(1), own.knn_dissimilarities(1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "a prefix cannot cover more items")]
    fn prefix_view_cannot_outgrow_its_matrix() {
        toy(3).prefix(4);
    }

    #[test]
    fn mean_and_max() {
        let m = toy(3); // pairs: 1, 2, 1
        assert!((m.mean().unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.max().unwrap(), 2.0);
        let empty = toy(1);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.max(), None);
    }
}
