//! Criterion: alternative clustering backends (DBSCAN vs OPTICS vs
//! HDBSCAN) and the MDS embedding, over identical inputs.

use cluster::dbscan::dbscan;
use cluster::hdbscan::{hdbscan, HdbscanParams};
use cluster::optics::optics;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::{CondensedMatrix, MatrixProvider, NeighborProvider};
use mathkit::mds::classical_mds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn blobs(n: usize) -> CondensedMatrix {
    let mut rng = StdRng::seed_from_u64(11);
    let pts: Vec<f64> = (0..n)
        .map(|i| (i % 6) as f64 * 8.0 + rng.gen_range(-0.3..0.3))
        .collect();
    CondensedMatrix::build(n, |i, j| (pts[i] - pts[j]).abs())
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_backends");
    group.sample_size(10);
    for n in [100usize, 300] {
        let m = blobs(n);
        group.bench_with_input(BenchmarkId::new("dbscan", n), &m, |b, m| {
            b.iter(|| {
                let regions = MatrixProvider::new(m).region_table(0.5, 1);
                dbscan(&regions, 0.5, 5, &vec![1; m.len()])
            })
        });
        group.bench_with_input(BenchmarkId::new("optics_cut", n), &m, |b, m| {
            b.iter(|| optics(&MatrixProvider::new(m), f64::INFINITY, 5, 1).extract_dbscan(0.5))
        });
        group.bench_with_input(BenchmarkId::new("hdbscan", n), &m, |b, m| {
            b.iter(|| hdbscan(&MatrixProvider::new(m), &HdbscanParams::default(), 1))
        });
    }
    group.finish();
}

fn bench_mds(c: &mut Criterion) {
    let mut group = c.benchmark_group("mds");
    group.sample_size(10);
    for n in [50usize, 150] {
        let m = blobs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| classical_mds(m.len(), 2, |i, j| m.get(i, j)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_mds);
criterion_main!(benches);
