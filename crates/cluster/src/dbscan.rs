//! DBSCAN (Ester et al., KDD 1996) over a precomputed ε-region table.
//!
//! DBSCAN suits the field-type clustering problem because it needs no
//! target cluster count, makes no shape assumptions, and treats sparse
//! segments as noise (paper §III-E). This implementation follows the
//! classic region-growing formulation with scikit-learn's convention that
//! `min_samples` counts the point itself.
//!
//! Its regions come from one
//! [`NeighborProvider::region_table`](dissim::NeighborProvider::region_table)
//! per clustering run, built by any backend on parallel workers. A table
//! built at ε also answers every smaller radius by filtering its rows,
//! which is how §III-E's trimmed rerun at ε′ < ε runs without a single
//! kernel call: an item that is not core at ε is not core at ε′ either,
//! and every ε′-region is its ε-region cut at ε′.

use dissim::RegionTable;

/// Growing label of an item no cluster has reached yet.
const UNVISITED: u32 = u32::MAX;
/// Growing label of an item that is not core and not yet claimed.
const NOISE: u32 = u32::MAX - 1;

/// Cluster assignment of one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Member of the cluster with the given id (ids are dense, from 0).
    Cluster(u32),
    /// Not density-reachable from any core point.
    Noise,
}

/// The result of a clustering run: one [`Label`] per item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    labels: Vec<Label>,
    n_clusters: u32,
}

impl Clustering {
    /// Builds a clustering from explicit labels.
    ///
    /// Cluster ids need not be dense; they are compacted.
    pub fn from_labels(labels: Vec<Label>) -> Self {
        let mut c = Self {
            labels,
            n_clusters: 0,
        };
        c.compact();
        c
    }

    /// Per-item labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the clustering covers zero items.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters (noise excluded).
    pub fn n_clusters(&self) -> u32 {
        self.n_clusters
    }

    /// Item indices per cluster, indexed by cluster id.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_clusters as usize];
        for (i, l) in self.labels.iter().enumerate() {
            if let Label::Cluster(c) = l {
                out[*c as usize].push(i);
            }
        }
        out
    }

    /// Indices labelled as noise.
    pub fn noise(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == Label::Noise)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renumbers cluster ids densely (0..n_clusters) preserving first-
    /// appearance order and recomputes the cluster count.
    fn compact(&mut self) {
        let mut map = std::collections::HashMap::new();
        let mut next = 0u32;
        for l in &mut self.labels {
            if let Label::Cluster(c) = l {
                let id = *map.entry(*c).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                *l = Label::Cluster(id);
            }
        }
        self.n_clusters = next;
    }
}

/// Runs weighted DBSCAN with radius `eps` and density threshold
/// `min_samples` (which counts the point itself) over a precomputed
/// [`RegionTable`] built at any radius `>= eps`.
///
/// Item `i` stands for `weights[i]` identical samples at the same
/// position. This makes clustering deduplicated segments equivalent to
/// clustering the full segment multiset (the paper de-duplicates
/// segment values for the dissimilarity matrix but sizes `min_samples`
/// by the trace's segment count): an item is a core point when the
/// weights within its ε-neighborhood — its own included — reach
/// `min_samples`, so frequent values (padding, magic numbers, flag
/// constants) are cores by themselves. Unit weights give classic
/// DBSCAN.
///
/// The ε-region of item `i` is row `i` of the table filtered to
/// `d <= eps`, so one table answers the first run and §III-E's trimmed
/// rerun at a smaller ε′ alike, with no further neighbor query. The
/// core test is the weight sum over that filtered row; the region
/// growing then runs serially, reading core items' rows straight into
/// one reused queue and visiting seeds in index order, so cluster ids
/// are stable and the clustering does not depend on how (or on how many
/// threads) the table was built, nor on the order rows list their
/// entries in.
///
/// # Panics
///
/// Panics if `weights` is shorter than the table's item count, or if
/// `eps` exceeds the table's radius.
pub fn dbscan(
    regions: &RegionTable,
    eps: f64,
    min_samples: usize,
    weights: &[usize],
) -> Clustering {
    let n = regions.len();
    assert!(weights.len() >= n, "need a weight per item");
    assert!(
        eps <= regions.radius(),
        "eps {eps} exceeds the region table's radius {}",
        regions.radius()
    );
    let core: Vec<bool> = (0..n)
        .map(|i| {
            let w = weights[i]
                + regions
                    .within(i, eps)
                    .map(|(_, j)| weights[j as usize])
                    .sum::<usize>();
            w >= min_samples
        })
        .collect();
    let mut labels = vec![UNVISITED; n];
    let mut cluster_id = 0u32;
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for i in 0..n {
        if labels[i] != UNVISITED {
            continue;
        }
        if !core[i] {
            labels[i] = NOISE;
            continue;
        }
        // Start a new cluster and grow it breadth-first. Skipping the
        // rows of non-core items changes no decision: their neighbors
        // are never enqueued either way.
        labels[i] = cluster_id;
        queue.clear();
        queue.extend(regions.within(i, eps).map(|(_, j)| j));
        while let Some(q) = queue.pop_front() {
            let q = q as usize;
            if labels[q] == NOISE {
                labels[q] = cluster_id; // border point adopted by the cluster
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cluster_id;
            if core[q] {
                queue.extend(regions.within(q, eps).map(|(_, j)| j));
            }
        }
        cluster_id += 1;
    }
    Clustering::from_labels(into_labels(labels))
}

/// Growing labels as [`Label`]s.
fn into_labels(labels: Vec<u32>) -> Vec<Label> {
    labels
        .into_iter()
        .map(|l| {
            if l == NOISE {
                Label::Noise
            } else {
                Label::Cluster(l)
            }
        })
        .collect()
}

/// The serial reference DBSCAN the tests pin [`dbscan`] against: ε-
/// regions queried lazily on the calling thread, one per visited item,
/// and the density test evaluated during the growing.
#[cfg(test)]
fn dbscan_serial<P: dissim::NeighborProvider + ?Sized>(
    provider: &P,
    eps: f64,
    min_samples: usize,
    weights: &[usize],
) -> Clustering {
    let n = provider.len();
    assert!(weights.len() >= n, "need a weight per item");
    let mut nb: Vec<(f64, u32)> = Vec::new();
    dbscan_impl(n, min_samples, weights, |i, out| {
        provider.neighbors_within(i, eps, &mut nb);
        out.extend(nb.iter().map(|&(_, j)| j as usize));
    })
}

/// The region-growing core of the serial reference. `region`
/// appends the ε-neighbors of an item to the provided scratch buffer
/// (self excluded); the reported clustering does not depend on the
/// order it emits them in: clusters grow one at a time from seeds taken
/// in index order, each to completion before the next seed, so the
/// cluster that claims a border point is the first whose density-
/// connected set reaches it, whatever order the regions list it in.
#[cfg(test)]
fn dbscan_impl(
    n: usize,
    min_samples: usize,
    weights: &[usize],
    mut region: impl FnMut(usize, &mut Vec<usize>),
) -> Clustering {
    let mut labels = vec![UNVISITED; n];
    let mut cluster_id = 0u32;
    let mut nb: Vec<usize> = Vec::new();

    let neighborhood_weight = |i: usize, nb: &[usize]| -> usize {
        weights[i] + nb.iter().map(|&j| weights[j]).sum::<usize>()
    };

    for i in 0..n {
        if labels[i] != UNVISITED {
            continue;
        }
        nb.clear();
        region(i, &mut nb);
        if neighborhood_weight(i, &nb) < min_samples {
            labels[i] = NOISE;
            continue;
        }
        // Start a new cluster and grow it breadth-first.
        labels[i] = cluster_id;
        let mut queue: std::collections::VecDeque<usize> = nb.iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            if labels[q] == NOISE {
                labels[q] = cluster_id; // border point adopted by the cluster
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cluster_id;
            nb.clear();
            region(q, &mut nb);
            if neighborhood_weight(q, &nb) >= min_samples {
                queue.extend(nb.iter().copied());
            }
        }
        cluster_id += 1;
    }

    Clustering::from_labels(into_labels(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dbscan_unit as dbscan, line_matrix};
    use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};

    /// Weighted DBSCAN over a matrix's region table, built on one thread.
    fn dbscan_weighted(m: &CondensedMatrix, eps: f64, ms: usize, w: &[usize]) -> Clustering {
        super::dbscan(&MatrixProvider::new(m).region_table(eps, 1), eps, ms, w)
    }

    /// The serial reference over a matrix.
    fn serial(m: &CondensedMatrix, eps: f64, ms: usize, w: &[usize]) -> Clustering {
        dbscan_serial(&MatrixProvider::new(m), eps, ms, w)
    }

    #[test]
    fn two_blobs_and_noise() {
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 100.0];
        let c = dbscan(&line_matrix(&pts), 0.5, 3);
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.labels()[0], c.labels()[2]);
        assert_eq!(c.labels()[3], c.labels()[5]);
        assert_ne!(c.labels()[0], c.labels()[3]);
        assert_eq!(c.labels()[6], Label::Noise);
        assert_eq!(c.noise(), vec![6]);
    }

    #[test]
    fn chain_is_density_connected() {
        // Points spaced 1 apart form one cluster with eps = 1.
        let pts: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let c = dbscan(&line_matrix(&pts), 1.0, 3);
        assert_eq!(c.n_clusters(), 1);
        assert!(c.noise().is_empty());
    }

    #[test]
    fn everything_noise_when_sparse() {
        let pts = [0.0, 10.0, 20.0, 30.0];
        let c = dbscan(&line_matrix(&pts), 1.0, 2);
        assert_eq!(c.n_clusters(), 0);
        assert_eq!(c.noise().len(), 4);
    }

    #[test]
    fn min_samples_one_clusters_everything() {
        let pts = [0.0, 10.0, 20.0];
        let c = dbscan(&line_matrix(&pts), 1.0, 1);
        assert_eq!(c.n_clusters(), 3);
        assert!(c.noise().is_empty());
    }

    #[test]
    fn border_points_join_first_claiming_cluster() {
        // Point 2 is within eps of both blobs' cores but is not core
        // itself (eps = 1.0): it must end in exactly one cluster.
        let pts = [0.0, 0.5, 1.5, 2.5, 3.0];
        let c = dbscan(&line_matrix(&pts), 1.0, 3);
        assert!(matches!(c.labels()[2], Label::Cluster(_)));
    }

    #[test]
    fn empty_input() {
        let m = CondensedMatrix::build(0, |_, _| 0.0);
        let c = dbscan(&m, 1.0, 2);
        assert!(c.is_empty());
        assert_eq!(c.n_clusters(), 0);
    }

    #[test]
    fn clusters_listing_matches_labels() {
        let pts = [0.0, 0.1, 5.0, 5.1, 9.9];
        let c = dbscan(&line_matrix(&pts), 0.5, 2);
        let clusters = c.clusters();
        assert_eq!(clusters.len(), c.n_clusters() as usize);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total + c.noise().len(), pts.len());
    }

    #[test]
    fn weighted_high_occurrence_singleton_is_core() {
        // One isolated value with weight 100 and two sparse outliers:
        // unweighted DBSCAN calls everything noise, weighted makes the
        // heavy value its own cluster.
        let pts = [0.0, 50.0, 90.0];
        let m = line_matrix(&pts);
        let unweighted = dbscan(&m, 1.0, 5);
        assert_eq!(unweighted.n_clusters(), 0);
        let weighted = dbscan_weighted(&m, 1.0, 5, &[100, 1, 1]);
        assert_eq!(weighted.n_clusters(), 1);
        assert_eq!(weighted.labels()[0], Label::Cluster(0));
        assert_eq!(weighted.labels()[1], Label::Noise);
    }

    #[test]
    fn weighted_matches_unweighted_for_unit_weights() {
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 100.0];
        let m = line_matrix(&pts);
        let w = vec![1usize; pts.len()];
        assert_eq!(dbscan(&m, 0.5, 3), dbscan_weighted(&m, 0.5, 3, &w));
    }

    #[test]
    fn weighted_neighbor_pulls_sparse_points_in() {
        // A heavy core at 0.0 makes its light neighbor at 0.5 clustered.
        let pts = [0.0, 0.5, 9.0];
        let m = line_matrix(&pts);
        let c = dbscan_weighted(&m, 1.0, 10, &[20, 1, 1]);
        assert_eq!(c.labels()[0], c.labels()[1]);
        assert_eq!(c.labels()[2], Label::Noise);
    }

    #[test]
    #[should_panic(expected = "weight per item")]
    fn weighted_rejects_short_weights() {
        let m = line_matrix(&[0.0, 1.0]);
        dbscan_weighted(&m, 0.5, 2, &[1]);
    }

    #[test]
    fn emission_order_does_not_change_labels() {
        let pts = [0.0, 0.1, 0.2, 1.5, 10.0, 10.1, 10.2, 55.0, 55.3];
        let m = line_matrix(&pts);
        let farthest_first = crate::testkit::FarthestFirst(MatrixProvider::new(&m));
        let w = [7, 1, 1, 1, 3, 1, 1, 2, 1];
        for (eps, ms) in [(0.5, 2), (0.5, 3), (0.35, 5), (2.0, 2), (100.0, 3)] {
            assert_eq!(
                serial(&m, eps, ms, &w),
                dbscan_serial(&farthest_first, eps, ms, &w),
                "eps={eps} ms={ms}"
            );
            for threads in [1, 4] {
                assert_eq!(
                    serial(&m, eps, ms, &w),
                    super::dbscan(&farthest_first.region_table(eps, threads), eps, ms, &w),
                    "threads={threads} eps={eps} ms={ms}"
                );
            }
        }
    }

    #[test]
    fn parallel_core_predicate_matches_serial() {
        let pts = [0.0, 0.1, 0.2, 1.5, 10.0, 10.1, 10.2, 55.0, 55.3];
        let m = line_matrix(&pts);
        let provider = MatrixProvider::new(&m);
        let unit = [1; 9];
        let w = [7, 1, 1, 1, 3, 1, 1, 2, 1];
        for threads in [1, 2, 4] {
            for (eps, ms) in [(0.5, 2), (0.5, 3), (0.35, 5), (2.0, 2), (100.0, 3)] {
                let table = provider.region_table(eps, threads);
                assert_eq!(
                    serial(&m, eps, ms, &unit),
                    super::dbscan(&table, eps, ms, &unit),
                    "threads={threads} eps={eps} ms={ms}"
                );
                assert_eq!(
                    serial(&m, eps, ms, &w),
                    super::dbscan(&table, eps, ms, &w),
                    "weighted threads={threads} eps={eps} ms={ms}"
                );
            }
        }
    }

    #[test]
    fn parallel_dbscan_queries_each_region_once() {
        let pts = [0.0, 0.1, 0.2, 1.5, 10.0, 10.1, 10.2, 55.0, 55.3];
        let m = line_matrix(&pts);
        let w = [7, 1, 1, 1, 3, 1, 1, 2, 1];
        for threads in [1, 4] {
            for (eps, ms) in [(0.5, 2), (0.5, 3), (0.35, 5), (2.0, 2), (100.0, 3)] {
                let counting = crate::testkit::CountingRegions::new(MatrixProvider::new(&m));
                let table = counting.region_table(eps, threads);
                let c = super::dbscan(&table, eps, ms, &w);
                assert_eq!(c, serial(&m, eps, ms, &w));
                // A rerun at a smaller radius filters the same table.
                let rerun = super::dbscan(&table, eps / 3.0, ms, &w);
                assert_eq!(rerun, serial(&m, eps / 3.0, ms, &w));
                assert_eq!(
                    counting.table_builds(),
                    1,
                    "threads={threads} eps={eps} ms={ms}"
                );
                assert_eq!(
                    counting.region_queries(),
                    pts.len(),
                    "one region per item, threads={threads} eps={eps} ms={ms}"
                );
            }
        }
    }

    #[test]
    fn smaller_radius_filters_a_wider_table() {
        let pts = [0.0, 0.1, 0.2, 0.45, 1.5, 10.0, 10.1, 10.2, 10.6, 55.0, 55.3];
        let m = line_matrix(&pts);
        let provider = MatrixProvider::new(&m);
        let w = [7, 1, 1, 1, 1, 3, 1, 1, 1, 2, 1];
        for threads in [1, 2, 4] {
            let table = provider.region_table(2.0, threads);
            for eps in [0.0, 0.1, 0.25, 0.35, 0.5, 1.05, 2.0] {
                for ms in [1, 2, 3, 5, 9] {
                    assert_eq!(
                        super::dbscan(&table, eps, ms, &w),
                        serial(&m, eps, ms, &w),
                        "threads={threads} eps={eps} ms={ms}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the region table's radius")]
    fn rejects_eps_beyond_the_table_radius() {
        let m = line_matrix(&[0.0, 1.0, 2.0]);
        let table = MatrixProvider::new(&m).region_table(0.5, 1);
        super::dbscan(&table, 0.6, 2, &[1; 3]);
    }

    #[test]
    fn from_labels_compacts_ids() {
        let c = Clustering::from_labels(vec![
            Label::Cluster(7),
            Label::Noise,
            Label::Cluster(3),
            Label::Cluster(7),
        ]);
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.labels()[0], Label::Cluster(0));
        assert_eq!(c.labels()[2], Label::Cluster(1));
    }
}
