//! Criterion: the ε auto-configuration (Algorithm 1) — k-NN queries,
//! spline smoothing and Kneedle.

use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dissim::CondensedMatrix;
use fieldclust::truth::truth_segmentation;
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use protocols::{corpus, Protocol};

fn matrix_for(n_messages: usize) -> CondensedMatrix {
    let trace = corpus::build_trace(Protocol::Ntp, n_messages, 5);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let mut session = AnalysisSession::from_owned(trace, FieldTypeClusterer::default());
    session.set_segmentation(truth_segmentation(session.trace(), &gt));
    session.matrix().expect("enough segments").to_matrix()
}

fn bench_autoconf(c: &mut Criterion) {
    let mut group = c.benchmark_group("autoconf");
    group.sample_size(10);
    for n_messages in [25usize, 50, 100] {
        let m = matrix_for(n_messages);
        group.bench_with_input(BenchmarkId::from_parameter(m.len()), &m, |b, m| {
            b.iter(|| {
                let table = m.knn_table(required_k_max(m.len()));
                auto_configure(&table, &AutoConfig::default()).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_autoconf);
criterion_main!(benches);
