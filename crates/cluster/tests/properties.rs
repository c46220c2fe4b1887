//! Property-based invariants for DBSCAN and refinement.

use cluster::dbscan::{Clustering, Label};
use cluster::refine::{split_clusters, RefineParams};
use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};
use proptest::prelude::*;

/// Unit-weight DBSCAN over a matrix's region table, built on two
/// threads.
fn dbscan(m: &CondensedMatrix, eps: f64, min_samples: usize) -> Clustering {
    let regions = MatrixProvider::new(m).region_table(eps, 2);
    cluster::dbscan(&regions, eps, min_samples, &vec![1; m.len()])
}

/// Merge refinement over a matrix, two threads.
fn merge_clusters(c: &Clustering, m: &CondensedMatrix, params: &RefineParams) -> Clustering {
    cluster::merge_clusters(c, &MatrixProvider::new(m), params, 2)
}

fn points() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0f64..100.0, 2..60)
}

fn matrix_of(pts: &[f64]) -> CondensedMatrix {
    CondensedMatrix::build(pts.len(), |i, j| (pts[i] - pts[j]).abs())
}

proptest! {
    #[test]
    fn every_item_is_labelled(pts in points(), eps in 0.1f64..20.0, min_samples in 1usize..8) {
        let m = matrix_of(&pts);
        let c = dbscan(&m, eps, min_samples);
        prop_assert_eq!(c.len(), pts.len());
        let in_clusters: usize = c.clusters().iter().map(Vec::len).sum();
        prop_assert_eq!(in_clusters + c.noise().len(), pts.len());
    }

    #[test]
    fn cluster_ids_are_dense(pts in points(), eps in 0.1f64..20.0, min_samples in 1usize..8) {
        let m = matrix_of(&pts);
        let c = dbscan(&m, eps, min_samples);
        let mut seen = std::collections::HashSet::new();
        for l in c.labels() {
            if let Label::Cluster(id) = l {
                prop_assert!(*id < c.n_clusters());
                seen.insert(*id);
            }
        }
        prop_assert_eq!(seen.len() as u32, c.n_clusters());
    }

    #[test]
    fn core_points_never_noise(pts in points(), eps in 0.5f64..10.0, min_samples in 2usize..6) {
        let m = matrix_of(&pts);
        let c = dbscan(&m, eps, min_samples);
        for i in 0..pts.len() {
            let neighbors = (0..pts.len())
                .filter(|&j| j != i && m.get(i, j) <= eps)
                .count();
            if neighbors + 1 >= min_samples {
                prop_assert!(
                    matches!(c.labels()[i], Label::Cluster(_)),
                    "core point {} labelled noise", i
                );
            }
        }
    }

    #[test]
    fn dbscan_is_deterministic(pts in points(), eps in 0.1f64..10.0, min_samples in 1usize..6) {
        let m = matrix_of(&pts);
        prop_assert_eq!(dbscan(&m, eps, min_samples), dbscan(&m, eps, min_samples));
    }

    #[test]
    fn merging_never_increases_cluster_count(pts in points(), eps in 0.1f64..10.0) {
        let m = matrix_of(&pts);
        let c = dbscan(&m, eps, 3);
        let merged = merge_clusters(&c, &m, &RefineParams::default());
        prop_assert!(merged.n_clusters() <= c.n_clusters());
        // Noise set is untouched by merging.
        prop_assert_eq!(merged.noise(), c.noise());
    }

    #[test]
    fn splitting_never_loses_items(
        pts in points(),
        occs in prop::collection::vec(1usize..1000, 60),
    ) {
        let m = matrix_of(&pts);
        let c = dbscan(&m, 5.0, 2);
        let occ = &occs[..pts.len().min(occs.len())];
        prop_assume!(occ.len() >= c.len());
        let split = split_clusters(&c, occ, &RefineParams::default());
        prop_assert_eq!(split.len(), c.len());
        let in_clusters: usize = split.clusters().iter().map(Vec::len).sum();
        prop_assert_eq!(in_clusters + split.noise().len(), c.len());
        prop_assert!(split.n_clusters() >= c.n_clusters());
    }
}

#[test]
fn merge_is_idempotent_once_stable() {
    let pts: Vec<f64> = (0..30)
        .map(|i| (i / 10) as f64 * 40.0 + (i % 10) as f64 * 0.2)
        .collect();
    let m = matrix_of(&pts);
    let c = dbscan(&m, 0.5, 3);
    let once = merge_clusters(&c, &m, &RefineParams::default());
    let twice = merge_clusters(&once, &m, &RefineParams::default());
    assert_eq!(once, twice);
}

#[test]
fn empty_clustering_roundtrips() {
    let c = Clustering::from_labels(vec![]);
    let m = CondensedMatrix::build(0, |_, _| 0.0);
    assert!(merge_clusters(&c, &m, &RefineParams::default()).is_empty());
    assert!(split_clusters(&c, &[], &RefineParams::default()).is_empty());
}
