//! Property-based invariants for the alternative density clusterers
//! (OPTICS, HDBSCAN) the paper discusses in §III-F.

use cluster::dbscan::{Clustering, Label};
use cluster::hdbscan::HdbscanParams;
use cluster::optics::OpticsOrdering;
use dissim::{CondensedMatrix, MatrixProvider};
use proptest::prelude::*;

/// OPTICS over a matrix, two threads.
fn optics(m: &CondensedMatrix, max_eps: f64, min_samples: usize) -> OpticsOrdering {
    cluster::optics(&MatrixProvider::new(m), max_eps, min_samples, 2)
}

/// HDBSCAN* over a matrix, two threads.
fn hdbscan(m: &CondensedMatrix, params: &HdbscanParams) -> Clustering {
    cluster::hdbscan(&MatrixProvider::new(m), params, 2)
}

fn points() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0f64..100.0, 2..50)
}

fn matrix_of(pts: &[f64]) -> CondensedMatrix {
    CondensedMatrix::build(pts.len(), |i, j| (pts[i] - pts[j]).abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optics_ordering_is_a_permutation(pts in points(), min_samples in 2usize..6) {
        let o = optics(&matrix_of(&pts), f64::INFINITY, min_samples);
        let mut seen = vec![false; pts.len()];
        for &i in &o.order {
            prop_assert!(!seen[i], "item {} visited twice", i);
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Core distances are at most max_eps and reachabilities respect
        // the core distance lower bound where finite.
        for rank in 0..o.order.len() {
            if o.reachability[rank].is_finite() && o.core_distance[rank].is_finite() {
                // reachability >= the *predecessor's* core distance, which
                // we cannot reconstruct here; at least check non-negative.
                prop_assert!(o.reachability[rank] >= 0.0);
            }
        }
    }

    #[test]
    fn optics_cut_partitions_everything(
        pts in points(),
        eps in 0.5f64..20.0,
        min_samples in 2usize..6,
    ) {
        let c = optics(&matrix_of(&pts), f64::INFINITY, min_samples).extract_dbscan(eps);
        prop_assert_eq!(c.len(), pts.len());
        let in_clusters: usize = c.clusters().iter().map(Vec::len).sum();
        prop_assert_eq!(in_clusters + c.noise().len(), pts.len());
    }

    #[test]
    fn hdbscan_partitions_everything(
        pts in points(),
        min_cluster_size in 2usize..6,
    ) {
        let c = hdbscan(
            &matrix_of(&pts),
            &HdbscanParams { min_samples: 3, min_cluster_size },
        );
        prop_assert_eq!(c.len(), pts.len());
        let in_clusters: usize = c.clusters().iter().map(Vec::len).sum();
        prop_assert_eq!(in_clusters + c.noise().len(), pts.len());
        // No cluster smaller than min_cluster_size.
        for members in c.clusters() {
            prop_assert!(
                members.len() >= min_cluster_size,
                "cluster of {} < min_cluster_size {}",
                members.len(),
                min_cluster_size
            );
        }
    }

    #[test]
    fn hdbscan_is_deterministic(pts in points()) {
        let m = matrix_of(&pts);
        let p = HdbscanParams { min_samples: 3, min_cluster_size: 3 };
        prop_assert_eq!(hdbscan(&m, &p), hdbscan(&m, &p));
    }

    #[test]
    fn identical_points_form_one_cluster(n in 4usize..30) {
        let pts = vec![7.0; n];
        let m = matrix_of(&pts);
        let c = hdbscan(&m, &HdbscanParams { min_samples: 2, min_cluster_size: 2 });
        prop_assert_eq!(c.n_clusters(), 1);
        prop_assert!(c.labels().iter().all(|l| *l == Label::Cluster(0)));
    }
}
