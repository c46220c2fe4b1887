//! OPTICS (Ankerst et al., SIGMOD 1999) over any neighbor provider.
//!
//! The paper's §III-F notes that over-classification "is not only a
//! limitation of DBSCAN and we noticed that similar alternatives, e.g.,
//! HDBSCAN and OPTICS, suffer from the same effect". This module
//! implements OPTICS so that claim can be checked experimentally (see
//! the `ablation` bench binary): the reachability ordering is computed
//! once, and an ε-cut extracts DBSCAN-equivalent clusters at any radius.
//! Its regions come from one
//! [`NeighborProvider::region_table`] at the generating distance, the
//! same table DBSCAN reads.

use crate::dbscan::{Clustering, Label};
use dissim::NeighborProvider;

/// The OPTICS ordering: reachability and core distances per visit rank.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticsOrdering {
    /// Item indices in visit order.
    pub order: Vec<usize>,
    /// Reachability distance of each visited item (`INFINITY` for the
    /// first item of each connected component).
    pub reachability: Vec<f64>,
    /// Core distance of each visited item (`INFINITY` for non-core).
    pub core_distance: Vec<f64>,
}

/// Runs OPTICS with generating distance `max_eps` and density threshold
/// `min_samples` (counting the point itself), ε-regions answered by any
/// [`NeighborProvider`] backend on `threads` workers.
///
/// OPTICS reads each item's region exactly once — when the item is
/// processed — and always at the fixed generating distance `max_eps`,
/// so every region comes from one [`NeighborProvider::region_table`]
/// built on `threads` workers before the serial, deterministic
/// expansion reads its rows. Seeds are
/// taken in index order and ties in the priority queue resolve to the
/// smaller index. Reachability updates take per-neighbor minima and the
/// core distance is an order statistic, so neither depends on the
/// thread count or on neighbor emission order.
pub fn optics<P: NeighborProvider + Sync>(
    provider: &P,
    max_eps: f64,
    min_samples: usize,
    threads: usize,
) -> OpticsOrdering {
    let regions = provider.region_table(max_eps, threads);
    optics_impl(regions.len(), min_samples, |i, out| {
        out.extend(regions.row(i).map(|(d, j)| (j as usize, d)));
    })
}

/// The serial reference OPTICS the tests pin [`optics`] against: each
/// region queried lazily on the calling thread when its item is
/// processed.
#[cfg(test)]
fn optics_serial<P: NeighborProvider + ?Sized>(
    provider: &P,
    max_eps: f64,
    min_samples: usize,
) -> OpticsOrdering {
    let mut scratch: Vec<(f64, u32)> = Vec::new();
    optics_impl(provider.len(), min_samples, |i, out| {
        provider.neighbors_within(i, max_eps, &mut scratch);
        out.extend(scratch.iter().map(|&(d, j)| (j as usize, d)));
    })
}

/// The expansion core of [`optics`] and its serial reference. `region`
/// appends the `(neighbor, dissimilarity)` pairs of an
/// item's ε-neighborhood to the scratch buffer (self excluded); the
/// ordering it emits them in does not affect the result.
fn optics_impl(
    n: usize,
    min_samples: usize,
    mut region: impl FnMut(usize, &mut Vec<(usize, f64)>),
) -> OpticsOrdering {
    let mut processed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut reach_out = Vec::with_capacity(n);
    let mut core_out = Vec::with_capacity(n);
    let mut nb: Vec<(usize, f64)> = Vec::new();
    let mut ds: Vec<f64> = Vec::new();

    let core_distance = |nb: &[(usize, f64)], ds: &mut Vec<f64>| -> f64 {
        if nb.len() + 1 < min_samples {
            return f64::INFINITY;
        }
        if min_samples <= 1 {
            return 0.0;
        }
        ds.clear();
        ds.extend(nb.iter().map(|&(_, d)| d));
        ds.sort_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"));
        ds[min_samples - 2] // the (min_samples-1)-th neighbor distance
    };

    for seed in 0..n {
        if processed[seed] {
            continue;
        }
        // Expand one connected component starting at `seed`.
        processed[seed] = true;
        nb.clear();
        region(seed, &mut nb);
        let seed_core = core_distance(&nb, &mut ds);
        order.push(seed);
        reach_out.push(f64::INFINITY);
        core_out.push(seed_core);

        // Priority "queue" of tentative reachabilities.
        let mut reach = vec![f64::INFINITY; n];
        if seed_core.is_finite() {
            for &(j, d) in &nb {
                reach[j] = d.max(seed_core);
            }
        }
        loop {
            // Smallest tentative reachability among unprocessed items.
            let mut best: Option<(usize, f64)> = None;
            for (j, &r) in reach.iter().enumerate() {
                if !processed[j] && r.is_finite() && best.is_none_or(|(_, br)| r < br) {
                    best = Some((j, r));
                }
            }
            let Some((current, r)) = best else { break };
            processed[current] = true;
            nb.clear();
            region(current, &mut nb);
            let core = core_distance(&nb, &mut ds);
            order.push(current);
            reach_out.push(r);
            core_out.push(core);
            if core.is_finite() {
                for &(j, d) in &nb {
                    if !processed[j] {
                        let new_reach = d.max(core);
                        if new_reach < reach[j] {
                            reach[j] = new_reach;
                        }
                    }
                }
            }
        }
    }
    OpticsOrdering {
        order,
        reachability: reach_out,
        core_distance: core_out,
    }
}

impl OpticsOrdering {
    /// Extracts DBSCAN-equivalent clusters by cutting the reachability
    /// plot at `eps`: a new cluster starts wherever reachability exceeds
    /// `eps` and the item is core at `eps`; items that are neither are
    /// noise.
    pub fn extract_dbscan(&self, eps: f64) -> Clustering {
        let n = self.order.len();
        let mut labels = vec![Label::Noise; n];
        let mut cluster: Option<u32> = None;
        let mut next_id = 0u32;
        for (rank, &item) in self.order.iter().enumerate() {
            if self.reachability[rank] > eps {
                if self.core_distance[rank] <= eps {
                    cluster = Some(next_id);
                    next_id += 1;
                    labels[item] = Label::Cluster(cluster.expect("just set"));
                } else {
                    cluster = None;
                }
            } else if let Some(c) = cluster {
                labels[item] = Label::Cluster(c);
            }
        }
        Clustering::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dbscan_unit as dbscan, line_matrix};
    use dissim::{CondensedMatrix, MatrixProvider};

    /// OPTICS over a matrix on one thread.
    fn optics_matrix(m: &CondensedMatrix, max_eps: f64, min_samples: usize) -> OpticsOrdering {
        optics(&MatrixProvider::new(m), max_eps, min_samples, 1)
    }

    #[test]
    fn ordering_covers_all_items_once() {
        let pts = [0.0, 0.1, 0.2, 5.0, 5.1, 9.0];
        let o = optics_matrix(&line_matrix(&pts), 10.0, 2);
        let mut sorted = o.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..pts.len()).collect::<Vec<_>>());
        assert_eq!(o.reachability.len(), pts.len());
        assert_eq!(o.core_distance.len(), pts.len());
    }

    #[test]
    fn reachability_valley_matches_blobs() {
        // Two tight blobs: within-blob reachability small, the jump to
        // the second blob large.
        let pts = [0.0, 0.05, 0.1, 10.0, 10.05, 10.1];
        let o = optics_matrix(&line_matrix(&pts), 100.0, 2);
        let max_within = o
            .reachability
            .iter()
            .filter(|r| r.is_finite() && **r < 1.0)
            .count();
        assert_eq!(max_within, 4, "four small steps inside blobs");
        assert_eq!(
            o.reachability
                .iter()
                .filter(|r| **r > 1.0 && r.is_finite())
                .count(),
            1,
            "one big jump between blobs"
        );
    }

    #[test]
    fn eps_cut_matches_dbscan_clusters() {
        // OPTICS ε-cut and DBSCAN must agree on cluster membership for
        // the same parameters (cluster ids may differ; compare partitions).
        let pts = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 20.0];
        let m = line_matrix(&pts);
        for (eps, min_samples) in [(0.5, 2), (0.5, 3), (6.0, 2)] {
            let d = dbscan(&m, eps, min_samples);
            let o = optics_matrix(&m, 100.0, min_samples).extract_dbscan(eps);
            assert_eq!(d.n_clusters(), o.n_clusters(), "eps={eps} ms={min_samples}");
            assert_eq!(d.noise(), o.noise(), "eps={eps} ms={min_samples}");
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    let same_d = d.labels()[i] == d.labels()[j];
                    let same_o = o.labels()[i] == o.labels()[j];
                    assert_eq!(same_d, same_o, "pair ({i},{j}) eps={eps}");
                }
            }
        }
    }

    #[test]
    fn emission_order_does_not_change_ordering() {
        let pts = [0.0, 0.1, 0.2, 1.4, 5.0, 5.1, 5.2, 20.0, 20.4];
        let m = line_matrix(&pts);
        let farthest_first = crate::testkit::FarthestFirst(MatrixProvider::new(&m));
        for (max_eps, ms) in [(0.5, 2), (2.0, 3), (100.0, 2), (100.0, 4)] {
            let want = optics_serial(&MatrixProvider::new(&m), max_eps, ms);
            assert_eq!(
                want,
                optics_serial(&farthest_first, max_eps, ms),
                "max_eps={max_eps} ms={ms}"
            );
            assert_eq!(
                want,
                optics(&farthest_first, max_eps, ms, 4),
                "batched, max_eps={max_eps} ms={ms}"
            );
        }
    }

    #[test]
    fn parallel_optics_matches_serial() {
        let pts = [0.0, 0.1, 0.2, 1.4, 5.0, 5.1, 5.2, 20.0, 20.4];
        let m = line_matrix(&pts);
        let provider = MatrixProvider::new(&m);
        for threads in [1usize, 4] {
            for (max_eps, ms) in [(0.5, 2), (2.0, 3), (100.0, 2), (100.0, 4)] {
                assert_eq!(
                    optics_serial(&provider, max_eps, ms),
                    optics(&provider, max_eps, ms, threads),
                    "threads={threads} max_eps={max_eps} ms={ms}"
                );
            }
        }
    }

    #[test]
    fn sparse_points_are_noise_after_cut() {
        let pts = [0.0, 0.1, 0.2, 50.0];
        let o = optics_matrix(&line_matrix(&pts), 100.0, 3).extract_dbscan(0.5);
        assert_eq!(o.labels()[3], Label::Noise);
        assert_eq!(o.n_clusters(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let o = optics_matrix(&line_matrix(&[]), 1.0, 2);
        assert!(o.order.is_empty());
        let o1 = optics_matrix(&line_matrix(&[3.0]), 1.0, 1);
        assert_eq!(o1.order, vec![0]);
        assert_eq!(o1.extract_dbscan(1.0).n_clusters(), 1);
    }
}
