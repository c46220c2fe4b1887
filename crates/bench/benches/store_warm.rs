//! Criterion: the artifact-store ladder — cold matrix build, warm
//! artifact load, incremental extension, and cold vs warm
//! `AnalysisSession::finish` — at u = 500 / 1000 / 2000 unique
//! segments.
//!
//! `cold_matrix` is what every cache-less run pays for the
//! dissimilarity stage; `warm_artifact` replaces it with one store
//! read; `extend` replaces it with the incremental kernel over a
//! cached prefix (here u − 200 of u segments). `session_cold` vs
//! `session_warm` measures the full `analyze` pipeline with and
//! without a populated `--cache-dir` — the warm path never touches the
//! matrix, it restores the clustering from the small stage artifacts.
//! All paths are bit-identical to the cold build (pinned by
//! fieldclust's session-equivalence tests). Medians are recorded in
//! `BENCH_store.json`.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::{CondensedMatrix, DissimArtifact, DissimParams};
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use rand::{Rng, SeedableRng, StdRng};
use segment::{MessageSegments, TraceSegmentation};
use std::path::PathBuf;
use store::{ArtifactStore, Key, KeyDigest, Kind};
use trace::{Message, Trace};

/// Exactly `u` distinct segments (each at least two bytes, so all are
/// clusterable) drawn from the same mixed-length corpus shapes as the
/// `canberra_kernel` bench.
fn unique_segments(u: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut segments = Vec::with_capacity(u);
    while segments.len() < u {
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
        if seen.insert(seg.clone()) {
            segments.push(seg);
        }
    }
    segments
}

/// A trace with one message per segment, pre-segmented whole-message —
/// so the session's unique-segment count is exactly `segments.len()`.
fn segment_trace(segments: &[Vec<u8>]) -> (Trace, TraceSegmentation) {
    let messages: Vec<Message> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Message::builder(Bytes::from(s.clone()))
                .timestamp_micros(i as u64)
                .build()
        })
        .collect();
    let seg = TraceSegmentation {
        messages: segments
            .iter()
            .map(|s| MessageSegments::from_cuts(s.len(), &[]))
            .collect(),
    };
    (Trace::new("store-bench", messages), seg)
}

fn bench_key(u: usize) -> Key {
    let mut d = KeyDigest::new(Kind::DISSIM);
    d.str("store-warm-bench");
    d.usize(u);
    d.finish()
}

fn bench_root() -> PathBuf {
    std::env::temp_dir().join(format!("fieldclust-store-bench-{}", std::process::id()))
}

fn bench_store_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_warm");
    group.sample_size(10);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let params = DissimParams::default();
    let root = bench_root();

    for u in [500usize, 1000, 2000] {
        let segments = unique_segments(u, 7);
        let values: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();

        // What every cache-less run pays for the dissimilarity stage.
        group.bench_with_input(BenchmarkId::new("cold_matrix", u), &values, |b, values| {
            b.iter(|| CondensedMatrix::build_segments(values, &params, threads))
        });

        // Warm: one store read of the persisted matrix.
        let store = ArtifactStore::open(root.join(format!("warm-{u}"))).expect("open store");
        let key = bench_key(u);
        let artifact = DissimArtifact::compute_segments(&values, &params, threads);
        assert!(store.put(&key, &artifact));
        group.bench_with_input(BenchmarkId::new("warm_artifact", u), &key, |b, key| {
            b.iter(|| store.get::<DissimArtifact>(key).expect("cache hit"))
        });

        // Incremental: splice a cached prefix (u - 200 segments) and
        // compute only the pairs touching the 200 appended segments.
        let prefix = CondensedMatrix::build_segments(&values[..u - 200], &params, threads);
        group.bench_with_input(BenchmarkId::new("extend", u), &values, |b, values| {
            b.iter(|| prefix.extend_segments(values, &params, threads))
        });

        // Full pipeline: AnalysisSession::finish without a store vs
        // warm-starting from a populated one.
        let (trace, seg) = segment_trace(&segments);
        group.bench_with_input(BenchmarkId::new("session_cold", u), &trace, |b, trace| {
            b.iter(|| {
                let mut session = AnalysisSession::new(trace, FieldTypeClusterer::default());
                session.set_segmentation(seg.clone());
                session.finish().expect("pipeline")
            })
        });

        let session_store =
            ArtifactStore::open(root.join(format!("session-{u}"))).expect("open store");
        // Populate the cache with one cold run, then measure warm runs.
        {
            let mut session = AnalysisSession::new(&trace, FieldTypeClusterer::default());
            session.set_store(session_store.clone());
            session.set_segmentation(seg.clone());
            session.finish().expect("pipeline");
        }
        group.bench_with_input(BenchmarkId::new("session_warm", u), &trace, |b, trace| {
            b.iter(|| {
                let mut session = AnalysisSession::new(trace, FieldTypeClusterer::default());
                session.set_store(session_store.clone());
                session.set_segmentation(seg.clone());
                session.finish().expect("pipeline")
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, bench_store_ladder);
criterion_main!(benches);
