//! Criterion: DBSCAN and refinement over precomputed matrices, plus the
//! matrix backend's neighbor-stage costs (k-NN table sweep, row-scan
//! DBSCAN) at session sizes.

use cluster::autoconf::required_k_max;
use cluster::dbscan::dbscan;
use cluster::refine::{merge_clusters, split_clusters, RefineParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn blobs(n: usize) -> CondensedMatrix {
    let mut rng = StdRng::seed_from_u64(7);
    let pts: Vec<f64> = (0..n)
        .map(|i| (i % 8) as f64 * 5.0 + rng.gen_range(-0.2..0.2))
        .collect();
    CondensedMatrix::build(n, |i, j| (pts[i] - pts[j]).abs())
}

/// Unit-weight DBSCAN over the matrix's row scans on one thread.
fn dbscan_rows(m: &CondensedMatrix, eps: f64, min_samples: usize) -> cluster::Clustering {
    let regions = MatrixProvider::new(m).region_table(eps, 1);
    dbscan(&regions, eps, min_samples, &vec![1; m.len()])
}

fn bench_dbscan(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbscan");
    for n in [100usize, 400, 1000] {
        let m = blobs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| dbscan_rows(m, 0.5, 5))
        });
    }
    group.finish();
}

/// What the matrix backend pays after the matrix build: one linear
/// sweep of the condensed triangle into the k-NN table autoconf reads,
/// and a DBSCAN pass whose ε-regions are row scans.
fn bench_matrix_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_queries");
    for n in [1000usize, 2000, 3000] {
        let m = blobs(n);
        group.bench_with_input(BenchmarkId::new("knn_table", n), &m, |b, m| {
            b.iter(|| m.knn_table(required_k_max(n)))
        });
        group.bench_with_input(BenchmarkId::new("dbscan_row_scan", n), &m, |b, m| {
            b.iter(|| dbscan_rows(m, 0.5, 5))
        });
    }
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");
    for n in [100usize, 400] {
        let m = blobs(n);
        let clustering = dbscan_rows(&m, 0.5, 5);
        let occurrences: Vec<usize> = (0..n).map(|i| 1 + i % 7).collect();
        group.bench_with_input(BenchmarkId::new("merge", n), &m, |b, m| {
            b.iter(|| {
                merge_clusters(
                    &clustering,
                    &MatrixProvider::new(m),
                    &RefineParams::default(),
                    1,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("split", n), &clustering, |b, cl| {
            b.iter(|| split_clusters(cl, &occurrences, &RefineParams::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dbscan, bench_matrix_queries, bench_refine);
criterion_main!(benches);
