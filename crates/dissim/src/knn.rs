//! Per-item k-nearest-neighbor tables: the input of ε
//! auto-configuration, kept in O(n · k_max) memory.
//!
//! Algorithm 1 (paper §III-D) asks each item's k-th-nearest
//! dissimilarity only for `k = 2 ..= round(ln n)`, a handful of order
//! statistics per item. A [`KnnAccumulator`] keeps the `k_max` smallest
//! dissimilarities seen per item, so one sweep over every pair —
//! [`CondensedMatrix::knn_table`](crate::CondensedMatrix::knn_table) over
//! the condensed triangle, or
//! [`TiledMatrix::knn_table`](crate::TiledMatrix::knn_table) over
//! per-tile partials — yields a [`KnnTable`] bit-identical to
//! [`CondensedMatrix::knn_dissimilarities`](crate::CondensedMatrix::knn_dissimilarities)
//! for every `k <= k_max`, without sorting full rows. The stratified
//! index builds the same table from one `k_max`-deep k-NN query per
//! item ([`NeighborProvider::knn_table`](crate::NeighborProvider::knn_table)).

/// Accumulates, per item, the `k_max` smallest dissimilarities seen so
/// far. Feeding it every pair once (each pair updates both endpoints)
/// yields each item's k-nearest-neighbor dissimilarities.
#[derive(Debug, Clone)]
pub struct KnnAccumulator {
    n: usize,
    k_max: usize,
    /// Flattened `n × k_max`; row `i` keeps the smallest values seen,
    /// ascending, padded with `f64::INFINITY`.
    lists: Vec<f64>,
    /// The last entry of each row: the k-th smallest value once
    /// `k_max` values were seen, ∞ before. A candidate not below it is
    /// rejected by one read of this dense array.
    worst: Vec<f64>,
}

impl KnnAccumulator {
    /// An empty accumulator for `n` items keeping `k_max` neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `k_max` is 0.
    pub fn new(n: usize, k_max: usize) -> Self {
        assert!(k_max >= 1, "k_max must be at least 1");
        Self {
            n,
            k_max,
            lists: vec![f64::INFINITY; n * k_max],
            worst: vec![f64::INFINITY; n],
        }
    }

    /// Records dissimilarity `d` as a neighbor candidate of `item`.
    #[inline]
    pub fn push(&mut self, item: usize, d: f64) {
        if d < self.worst[item] {
            self.insert(item, d);
        }
    }

    /// Records every pair of lower-triangle row `i` (`row[j] = D(i, j)`
    /// for `j < i`) as a candidate of both its endpoints, exactly as
    /// `push(j, d)` then `push(i, d)` per pair would. Item `i`'s own
    /// threshold is kept in a local across the row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is longer than `i`.
    #[inline]
    pub fn push_lower_row(&mut self, i: usize, row: &[f64]) {
        assert!(row.len() <= i, "a lower row holds only earlier items");
        let mut own = self.worst[i];
        for (j, &d) in row.iter().enumerate() {
            if d < self.worst[j] {
                self.insert(j, d);
            }
            if d < own {
                own = self.insert(i, d);
            }
        }
    }

    /// Inserts `d`, below `item`'s threshold, into its sorted list;
    /// returns the new threshold.
    #[inline]
    fn insert(&mut self, item: usize, d: f64) -> f64 {
        let k = self.k_max;
        let row = &mut self.lists[item * k..item * k + k];
        let pos = row.partition_point(|&x| x <= d);
        row.copy_within(pos..k - 1, pos + 1);
        row[pos] = d;
        self.worst[item] = row[k - 1];
        row[k - 1]
    }

    /// Merges another accumulator covering the same items: each item's
    /// list becomes the `k_max` smallest of the union. Partition- and
    /// order-independent, which is what lets per-worker partials merge
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators' shapes differ.
    pub fn merge(&mut self, other: &KnnAccumulator) {
        assert!(
            self.n == other.n && self.k_max == other.k_max,
            "accumulator shapes differ"
        );
        // The padding of `other`'s lists is ∞, which no threshold admits.
        for (item, o) in other.lists.chunks_exact(self.k_max).enumerate() {
            for &d in o {
                self.push(item, d);
            }
        }
    }

    /// Freezes the accumulator into a read-only table.
    pub fn finish(self) -> KnnTable {
        KnnTable {
            n: self.n,
            k_max: self.k_max,
            lists: self.lists,
        }
    }
}

/// Per-item k-nearest-neighbor dissimilarities, ascending; the frozen
/// form of [`KnnAccumulator`]. Entries beyond an item's pair count are
/// `f64::INFINITY` (only possible when `k_max > n − 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnTable {
    n: usize,
    k_max: usize,
    lists: Vec<f64>,
}

impl KnnTable {
    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Largest supported `k`.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// The dissimilarity of `item` to its `k`-th nearest neighbor
    /// (`1 <= k <= k_max`) — the same value as
    /// [`CondensedMatrix::knn_dissimilarities`](crate::CondensedMatrix::knn_dissimilarities)`[item]`
    /// for that `k`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of bounds, `k` is 0, or `k > k_max`.
    pub fn kth(&self, item: usize, k: usize) -> f64 {
        assert!(item < self.n, "index out of bounds");
        assert!(k >= 1 && k <= self.k_max, "k out of range");
        self.lists[item * self.k_max + k - 1]
    }

    /// The dissimilarity of each item to its `k`-th nearest neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or `k > k_max`.
    pub fn knn_dissimilarities(&self, k: usize) -> Vec<f64> {
        (0..self.n).map(|i| self.kth(i, k)).collect()
    }
}

/// Builds a table from one independent row per item, fanned out over
/// `threads` workers: `fill(item, scratch, row)` writes the item's
/// `depth = min(k_max, n − 1)` nearest dissimilarities ascending into
/// `row` (exactly `depth` long). Each worker chunk fills its rows as
/// one [`parkit::map_blocks`] block, placed by its first item, so the
/// table does not depend on the schedule. Entries past `depth` stay
/// `f64::INFINITY`, as in [`KnnAccumulator`].
///
/// # Panics
///
/// Panics if `k_max` is 0.
pub(crate) fn table_by_rows<S, F>(
    n: usize,
    k_max: usize,
    threads: usize,
    scratch: impl Fn() -> S,
    fill: F,
) -> KnnTable
where
    S: Send,
    F: Fn(usize, &mut S, &mut [f64]) + Sync,
{
    assert!(k_max >= 1, "k_max must be at least 1");
    let depth = k_max.min(n.saturating_sub(1));
    if depth == 0 {
        let lists = vec![f64::INFINITY; n * k_max];
        return KnnTable { n, k_max, lists };
    }
    let lists = parkit::map_blocks(
        threads,
        n,
        crate::provider::BATCH_MIN_CHUNK,
        scratch,
        |s, items, block| {
            block.resize(items.len() * k_max, f64::INFINITY);
            for (item, row) in items.zip(block.chunks_exact_mut(k_max)) {
                fill(item, s, &mut row[..depth]);
            }
        },
    );
    KnnTable { n, k_max, lists }
}
