//! Criterion: the tiled dissimilarity build and the clustering-stage
//! ladder — serial matrix scans vs the tiled build's merged k-NN table
//! — on the same mixed-length segment corpora as `canberra_kernel` at
//! u = 500 / 1000 / 2000 unique segments.
//!
//! The `cluster_stages` pair measures everything downstream of the
//! dissimilarity artifact (ε auto-configuration, weighted DBSCAN,
//! merge + split refinement): `serial_scan` sweeps the matrix's k-NN
//! table and runs every stage on one thread, `tiled_knn` reads ε off
//! the per-tile k-NN partials and runs DBSCAN and refinement on all
//! threads, as the tiled session does. Both are pinned
//! bit-identical (cluster unit tests + fieldclust session-equivalence
//! tests), so the ladder isolates pure wall-clock. Medians from before
//! the presorted neighbor index was retired are recorded in
//! `BENCH_tiled.json` (as `tiled_indexed`).
//!
//! A second, sampled group (`tiled_matrix_sampled`) extends the ladder
//! to u = 5000 / 10 000 / 50 000 without ever paying the full O(u²)
//! build: each iteration computes one 64-row strip of lower-triangle
//! rows starting at u/2 through the shared [`PairContext`] — exactly
//! the kernel work of one mid-matrix tile, whose cost scales with
//! `strip_rows × u/2` (linear in u), so the rungs stay time-boxed.

use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use cluster::dbscan::dbscan;
use cluster::refine::{merge_clusters, split_clusters, RefineParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::{
    CondensedMatrix, DissimParams, KnnTable, MatrixProvider, NeighborProvider, TiledMatrix,
};
use rand::{Rng, SeedableRng, StdRng};

/// Same corpus shape as the `canberra_kernel` bench (see there).
fn mixed_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut segments = Vec::with_capacity(u);
    for _ in 0..u {
        let seg: Vec<u8> = match rng.gen_range(0usize..10) {
            0 | 1 => vec![rng.gen_range(0u8..8), rng.gen()],
            2 | 3 => vec![0x00, 0x01, rng.gen(), rng.gen()],
            4..=6 => {
                let mut ts = vec![0xD2, 0x3D, 0x19, rng.gen_range(0u8..4)];
                ts.extend((0..4).map(|_| rng.gen::<u8>()));
                ts
            }
            7 => (0..16).map(|_| rng.gen::<u8>()).collect(),
            _ => {
                let len = rng.gen_range(3usize..32);
                (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
            }
        };
        segments.push(seg);
    }
    segments
}

/// Occurrence weights mimicking a deduplicated trace: a few hot values,
/// a long tail of singletons.
fn occurrence_weights(u: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..u)
        .map(|_| {
            if rng.gen_range(0usize..10) == 0 {
                rng.gen_range(2usize..40)
            } else {
                1
            }
        })
        .collect()
}

struct Stage {
    matrix: CondensedMatrix,
    knn: KnnTable,
    weights: Vec<usize>,
    min_samples: usize,
}

fn prepare(u: usize, threads: usize) -> Stage {
    let segments = mixed_segments(u, 7);
    let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
    let params = DissimParams::default();
    let tiled = TiledMatrix::build_segments(&values, &params, 256, threads);
    let knn = tiled.knn_table(required_k_max(u), threads);
    let matrix = tiled.assemble();
    let weights = occurrence_weights(u, 11);
    let total: usize = weights.iter().sum();
    let min_samples = ((total as f64).ln().round() as usize).max(2);
    Stage {
        matrix,
        knn,
        weights,
        min_samples,
    }
}

/// The serial baseline: ε from one sweep of the matrix's triangle,
/// every clustering stage on one thread.
fn cluster_stages_scan(s: &Stage) -> u32 {
    cluster_stages(s, &s.matrix.knn_table(required_k_max(s.matrix.len())), 1)
}

/// The tiled session's path: ε from the merged per-tile k-NN table,
/// DBSCAN and refinement from parallel matrix row scans.
fn cluster_stages_knn(s: &Stage, threads: usize) -> u32 {
    cluster_stages(s, &s.knn, threads)
}

/// ε auto-configuration from `knn`, then weighted DBSCAN and refinement
/// over matrix row scans on `threads` workers.
fn cluster_stages(s: &Stage, knn: &KnnTable, threads: usize) -> u32 {
    let selected = auto_configure(knn, &AutoConfig::default()).expect("knee");
    let provider = MatrixProvider::new(&s.matrix);
    let regions = provider.region_table(selected.epsilon, threads);
    let clustering = dbscan(&regions, selected.epsilon, s.min_samples, &s.weights);
    let refined = split_clusters(
        &merge_clusters(&clustering, &provider, &RefineParams::default(), threads),
        &s.weights,
        &RefineParams::default(),
    );
    refined.n_clusters()
}

fn bench_tiled_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled_matrix");
    group.sample_size(10);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let params = DissimParams::default();
    for u in [500usize, 1000, 2000] {
        let segments = mixed_segments(u, 7);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();

        group.bench_with_input(
            BenchmarkId::new("build_monolithic", u),
            &values,
            |b, values| b.iter(|| CondensedMatrix::build_segments(values, &params, threads)),
        );
        group.bench_with_input(BenchmarkId::new("build_tiled", u), &values, |b, values| {
            b.iter(|| TiledMatrix::build_segments(values, &params, 256, threads))
        });

        let stage = prepare(u, threads);
        // Sanity: both chains must agree before we time them.
        assert_eq!(
            cluster_stages_scan(&stage),
            cluster_stages_knn(&stage, threads)
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_stages_serial_scan", u),
            &stage,
            |b, s| b.iter(|| cluster_stages_scan(s)),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_stages_tiled_knn", u),
            &stage,
            |b, s| b.iter(|| cluster_stages_knn(s, threads)),
        );
    }
    group.finish();
}

/// Rows per sampled mid-matrix strip.
const STRIP_ROWS: usize = 64;

fn bench_tiled_sampled(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled_matrix_sampled");
    group.sample_size(10);
    let params = DissimParams::default();
    for u in [5_000usize, 10_000, 50_000] {
        let segments = mixed_segments(u, 7);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        let ctx = dissim::kernel::PairContext::new(&values, &params);
        let start = u / 2;
        let mut buf = vec![0.0f64; start + STRIP_ROWS];
        group.bench_with_input(BenchmarkId::new("tile_strip_mid", u), &values, |b, _| {
            b.iter(|| {
                let mut checksum = 0.0f64;
                for j in start..start + STRIP_ROWS {
                    ctx.fill_lower_row(j, &mut buf[..j]);
                    checksum += buf[..j].iter().sum::<f64>();
                }
                checksum
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tiled_matrix, bench_tiled_sampled);
criterion_main!(benches);
