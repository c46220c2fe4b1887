//! Criterion: pairwise Canberra dissimilarity matrix construction — the
//! pipeline's dominant cost — across trace sizes and thread counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::{dissimilarity, CondensedMatrix, DissimArtifact, DissimParams};
use fieldclust::truth::truth_segmentation;
use fieldclust::SegmentStore;
use protocols::{corpus, Protocol};

fn segments_for(n_messages: usize) -> Vec<Vec<u8>> {
    let trace = corpus::build_trace(Protocol::Ntp, n_messages, 1);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let seg = truth_segmentation(&trace, &gt);
    let store = SegmentStore::collect(&trace, &seg, 2);
    store.segments.into_iter().map(|s| s.value).collect()
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissim_matrix");
    group.sample_size(10);
    for n_messages in [25usize, 50, 100] {
        let values = segments_for(n_messages);
        let params = DissimParams::default();
        group.bench_with_input(
            BenchmarkId::new("serial", values.len()),
            &values,
            |b, values| {
                b.iter(|| {
                    CondensedMatrix::build(values.len(), |i, j| {
                        dissimilarity(&values[i], &values[j], &params)
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("kernel", values.len()),
            &values,
            |b, values| {
                // The structure-aware kernel build the session uses
                // (bit-identical to the closure build above).
                let refs: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
                b.iter(|| DissimArtifact::compute_segments(&refs, &params, 4))
            },
        );
    }
    group.finish();
}

fn bench_pairwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissim_pair");
    let params = DissimParams::default();
    let a8 = [0xD2u8, 0x3D, 0x19, 0x03, 0xB3, 0xFC, 0xDA, 0xB1];
    let b8 = [0xD2u8, 0x3D, 0x19, 0x7A, 0x01, 0x58, 0x10, 0x62];
    group.bench_function("equal_len_8", |b| {
        b.iter(|| {
            dissimilarity(
                std::hint::black_box(&a8),
                std::hint::black_box(&b8),
                &params,
            )
        })
    });
    let long: Vec<u8> = (0..64).collect();
    group.bench_function("mixed_len_8_vs_64", |b| {
        b.iter(|| {
            dissimilarity(
                std::hint::black_box(&a8),
                std::hint::black_box(&long),
                &params,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matrix, bench_pairwise);
criterion_main!(benches);
