#![warn(missing_docs)]
//! Density-based clustering with automatic parameter selection and
//! refinement, as used for field data type clustering (paper §III-D/E/F).
//!
//! * [`dbscan`](mod@crate::dbscan) — DBSCAN over any neighbor provider
//!   (a condensed matrix's row scans, or a pruned forest),
//! * [`autoconf`] — the ε auto-configuration of Algorithm 1: pick the
//!   k-NN ECDF with the sharpest knee, smooth it with a spline, detect
//!   the rightmost knee with Kneedle, set `min_samples = round(ln n)`,
//! * [`refine`] — merging of over-classified clusters (Conditions 1–2)
//!   and splitting of clusters with polarized value occurrences.
//!
//! # Examples
//!
//! ```
//! use dissim::CondensedMatrix;
//! use cluster::dbscan::{dbscan, Label};
//!
//! // Two tight groups and one outlier.
//! let points = [0.0_f64, 0.1, 0.2, 5.0, 5.1, 5.2, 50.0];
//! let m = CondensedMatrix::build(points.len(), |i, j| (points[i] - points[j]).abs());
//! let c = dbscan(&m, 0.5, 2);
//! assert_eq!(c.n_clusters(), 2);
//! assert_eq!(c.labels()[6], Label::Noise);
//! ```

pub mod autoconf;
pub mod dbscan;
pub mod hdbscan;
pub mod optics;
pub mod refine;

pub use autoconf::{
    auto_configure, auto_configure_with_knn, required_k_max, AutoConfError, AutoConfig,
    SelectedParams,
};
pub use dbscan::{
    dbscan, dbscan_weighted, dbscan_weighted_parallel_with_provider, dbscan_weighted_with_provider,
    Clustering, Label,
};
pub use hdbscan::{hdbscan, hdbscan_parallel_with_provider, hdbscan_with_provider, HdbscanParams};
pub use optics::{optics, optics_parallel_with_provider, optics_with_provider, OpticsOrdering};
pub use refine::{merge_clusters, merge_clusters_with_provider, split_clusters, RefineParams};

/// Test-only neighbor providers.
#[cfg(test)]
pub(crate) mod testkit {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use dissim::{KnnTable, MatrixProvider, NeighborProvider};

    /// A matrix provider that emits every ε-region farthest first —
    /// the reverse of the forests' order and a permutation of the row
    /// scan's — to pin that no consumer depends on emission order.
    pub struct FarthestFirst<'a>(pub MatrixProvider<'a>);

    impl NeighborProvider for FarthestFirst<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
            self.0.neighbors_within(i, eps, out);
            out.sort_by(|a, b| b.partial_cmp(a).expect("dissimilarities are not NaN"));
        }

        fn knn(&self, i: usize, k: usize) -> f64 {
            self.0.knn(i, k)
        }

        fn pair(&self, i: usize, j: usize) -> f64 {
            self.0.pair(i, j)
        }

        fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable {
            self.0.knn_table(k_max, threads)
        }
    }

    /// A matrix provider that tallies ε-region queries: one per
    /// [`neighbors_within`](NeighborProvider::neighbors_within) call
    /// and one per entry of every batch.
    pub struct CountingRegions<'a> {
        inner: MatrixProvider<'a>,
        queries: AtomicUsize,
    }

    impl<'a> CountingRegions<'a> {
        pub fn new(inner: MatrixProvider<'a>) -> Self {
            Self {
                inner,
                queries: AtomicUsize::new(0),
            }
        }

        /// Region queries answered so far.
        pub fn region_queries(&self) -> usize {
            self.queries.load(Ordering::Relaxed)
        }
    }

    impl NeighborProvider for CountingRegions<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
            self.queries.fetch_add(1, Ordering::Relaxed);
            self.inner.neighbors_within(i, eps, out);
        }

        fn neighbors_within_batch(
            &self,
            queries: &[usize],
            eps: f64,
            threads: usize,
        ) -> Vec<Vec<(f64, u32)>> {
            self.queries.fetch_add(queries.len(), Ordering::Relaxed);
            self.inner.neighbors_within_batch(queries, eps, threads)
        }

        fn knn(&self, i: usize, k: usize) -> f64 {
            self.inner.knn(i, k)
        }

        fn pair(&self, i: usize, j: usize) -> f64 {
            self.inner.pair(i, j)
        }

        fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable {
            self.inner.knn_table(k_max, threads)
        }
    }
}
