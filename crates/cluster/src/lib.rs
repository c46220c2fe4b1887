#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Density-based clustering with automatic parameter selection and
//! refinement, as used for field data type clustering (paper §III-D/E/F).
//!
//! * [`dbscan`](mod@crate::dbscan) — DBSCAN over an ε-region table built
//!   by any neighbor provider (a condensed matrix's row scans, or the
//!   stratified index),
//! * [`autoconf`] — the ε auto-configuration of Algorithm 1: pick the
//!   k-NN ECDF with the sharpest knee, smooth it with a spline, detect
//!   the rightmost knee with Kneedle, set `min_samples = round(ln n)`,
//! * [`refine`] — merging of over-classified clusters (Conditions 1–2)
//!   and splitting of clusters with polarized value occurrences.
//!
//! Every algorithm has one entry point, generic over the
//! [`NeighborProvider`](dissim::NeighborProvider) that answers its
//! neighbor queries and parameterised by a thread count — DBSCAN reads
//! the provider's [`RegionTable`](dissim::RegionTable), so one table
//! serves a run and its trimmed rerun; results never depend on the
//! thread count.
//!
//! # Examples
//!
//! ```
//! use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};
//! use cluster::dbscan::{dbscan, Label};
//!
//! // Two tight groups and one outlier, unit weights, one thread.
//! let points = [0.0_f64, 0.1, 0.2, 5.0, 5.1, 5.2, 50.0];
//! let m = CondensedMatrix::build(points.len(), |i, j| (points[i] - points[j]).abs());
//! let regions = MatrixProvider::new(&m).region_table(0.5, 1);
//! let c = dbscan(&regions, 0.5, 2, &[1; 7]);
//! assert_eq!(c.n_clusters(), 2);
//! assert_eq!(c.labels()[6], Label::Noise);
//! ```

pub mod autoconf;
pub mod dbscan;
mod exact;
pub mod hdbscan;
pub mod optics;
pub mod refine;

pub use autoconf::{auto_configure, required_k_max, AutoConfError, AutoConfig, SelectedParams};
pub use dbscan::{dbscan, Clustering, Label};
pub use hdbscan::{hdbscan, HdbscanParams};
pub use optics::{optics, OpticsOrdering};
pub use refine::{merge_clusters, split_clusters, RefineParams};

/// Test-only fixtures and neighbor providers.
#[cfg(test)]
pub(crate) mod testkit {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use dissim::{CondensedMatrix, KnnTable, MatrixProvider, NeighborProvider, RegionTable};

    use crate::dbscan::Clustering;

    /// The matrix of absolute differences between points on a line.
    pub fn line_matrix(points: &[f64]) -> CondensedMatrix {
        CondensedMatrix::build(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    /// Unit-weight DBSCAN over a matrix's region table, built on one
    /// thread.
    pub fn dbscan_unit(m: &CondensedMatrix, eps: f64, min_samples: usize) -> Clustering {
        let regions = MatrixProvider::new(m).region_table(eps, 1);
        crate::dbscan::dbscan(&regions, eps, min_samples, &vec![1; m.len()])
    }

    /// A matrix provider that emits every ε-region farthest first —
    /// the reverse of the stratified index's order and a permutation of the row
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

    /// A matrix provider that tallies region-table builds and the
    /// ε-region queries behind them: one per
    /// [`neighbors_within`](NeighborProvider::neighbors_within) call,
    /// which is what the default table build issues per item.
    pub struct CountingRegions<'a> {
        inner: MatrixProvider<'a>,
        queries: AtomicUsize,
        tables: AtomicUsize,
    }

    impl<'a> CountingRegions<'a> {
        pub fn new(inner: MatrixProvider<'a>) -> Self {
            Self {
                inner,
                queries: AtomicUsize::new(0),
                tables: AtomicUsize::new(0),
            }
        }

        /// Region queries answered so far.
        pub fn region_queries(&self) -> usize {
            self.queries.load(Ordering::Relaxed)
        }

        /// Region tables built so far.
        pub fn table_builds(&self) -> usize {
            self.tables.load(Ordering::Relaxed)
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

        fn region_table(&self, eps: f64, threads: usize) -> RegionTable {
            self.tables.fetch_add(1, Ordering::Relaxed);
            RegionTable::from_scans(self, eps, threads)
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
