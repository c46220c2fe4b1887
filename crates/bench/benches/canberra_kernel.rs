//! Criterion: the Canberra kernel ladder — naive scalar closure build,
//! byte-pair LUT, LUT + early-abandon sliding windows, and the full
//! length-bucketed `build_segments` — on realistic mixed-length segment
//! corpora at u = 500 / 1000 / 2000 unique segments.
//!
//! A second, sampled group extends the ladder to u = 5000 / 10 000 /
//! 50 000: instead of the full O(u²) triangle each iteration evaluates
//! a fixed budget of random pairs drawn from the large corpus, keeping
//! every rung time-boxed while still exercising the large-u length mix
//! and cache behavior.
//!
//! Every rung is bit-identical to the one below it (pinned by the
//! property tests in `dissim`); this bench isolates what each
//! transformation buys. The three closure rungs run on one thread;
//! `build_segments` runs on every available core. Medians are recorded
//! in `BENCH_canberra_kernel.json` (taken when the closure rungs ran on
//! every core as well).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::kernel::{dissimilarity_kernel, dissimilarity_lut};
use dissim::{dissimilarity, CanberraLut, CondensedMatrix, DissimParams};
use rand::{Rng, SeedableRng, StdRng};

/// A segment corpus mimicking a segmented binary-protocol trace: short
/// ids and flags, 4-byte counters sharing high bytes, 8-byte timestamps
/// sharing a 4-byte epoch prefix, 16-byte addresses/digests, and
/// variable-length printable names (DNS labels, hostnames) — many
/// distinct lengths, so mixed-length sliding-window pairs dominate.
fn mixed_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut segments = Vec::with_capacity(u);
    for _ in 0..u {
        let seg: Vec<u8> = match rng.gen_range(0usize..10) {
            // 2-byte message ids.
            0 | 1 => vec![rng.gen_range(0u8..8), rng.gen()],
            // 4-byte counters with shared high bytes.
            2 | 3 => vec![0x00, 0x01, rng.gen(), rng.gen()],
            // 8-byte timestamps sharing an epoch prefix.
            4..=6 => {
                let mut ts = vec![0xD2, 0x3D, 0x19, rng.gen_range(0u8..4)];
                ts.extend((0..4).map(|_| rng.gen::<u8>()));
                ts
            }
            // 16-byte addresses / digests.
            7 => (0..16).map(|_| rng.gen::<u8>()).collect(),
            // Variable-length printable names.
            _ => {
                let len = rng.gen_range(3usize..32);
                (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect()
            }
        };
        segments.push(seg);
    }
    segments
}

fn bench_kernel_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("canberra_kernel");
    group.sample_size(10);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let params = DissimParams::default();
    for u in [500usize, 1000, 2000] {
        let segments = mixed_segments(u, 7);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();

        group.bench_with_input(BenchmarkId::new("naive", u), &values, |b, values| {
            b.iter(|| {
                CondensedMatrix::build(values.len(), |i, j| {
                    dissimilarity(values[i], values[j], &params)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("lut", u), &values, |b, values| {
            let lut = CanberraLut::global();
            b.iter(|| {
                CondensedMatrix::build(values.len(), |i, j| {
                    dissimilarity_lut(values[i], values[j], &params, lut)
                })
            })
        });
        group.bench_with_input(
            BenchmarkId::new("lut_early_abandon", u),
            &values,
            |b, values| {
                let lut = CanberraLut::global();
                b.iter(|| {
                    CondensedMatrix::build(values.len(), |i, j| {
                        dissimilarity_kernel(values[i], values[j], &params, lut)
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("build_segments", u),
            &values,
            |b, values| b.iter(|| CondensedMatrix::build_segments(values, &params, threads)),
        );
    }
    group.finish();
}

/// Pair evaluations per iteration of the sampled large-u rungs.
const PAIR_BUDGET: usize = 500_000;

fn bench_kernel_sampled(c: &mut Criterion) {
    let mut group = c.benchmark_group("canberra_kernel_sampled");
    group.sample_size(10);
    let params = DissimParams::default();
    for u in [5_000usize, 10_000, 50_000] {
        let segments = mixed_segments(u, 7);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        // A fixed, deterministic off-diagonal pair sample: the same
        // PAIR_BUDGET evaluations for every kernel variant.
        let mut rng = StdRng::seed_from_u64(13);
        let pairs: Vec<(u32, u32)> = (0..PAIR_BUDGET)
            .map(|_| {
                let i = rng.gen_range(0..u as u32);
                let j = rng.gen_range(0..u as u32 - 1);
                (i, if j >= i { j + 1 } else { j })
            })
            .collect();
        let eval = |f: &dyn Fn(&[u8], &[u8]) -> f64| -> f64 {
            pairs
                .iter()
                .map(|&(i, j)| f(values[i as usize], values[j as usize]))
                .sum()
        };

        group.bench_with_input(BenchmarkId::new("naive", u), &values, |b, _| {
            b.iter(|| eval(&|a, v| dissimilarity(a, v, &params)))
        });
        let lut = CanberraLut::global();
        group.bench_with_input(BenchmarkId::new("lut", u), &values, |b, _| {
            b.iter(|| eval(&|a, v| dissimilarity_lut(a, v, &params, lut)))
        });
        group.bench_with_input(BenchmarkId::new("lut_early_abandon", u), &values, |b, _| {
            b.iter(|| eval(&|a, v| dissimilarity_kernel(a, v, &params, lut)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_ladder, bench_kernel_sampled);
criterion_main!(benches);
