//! Diagnostic: inspect the ε auto-configuration and an ε sweep for one
//! protocol/size. Development tool behind the Table I/II calibration.
//!
//! Usage: `cargo run --release -p bench --bin diag -- <protocol> <messages>`

use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use cluster::dbscan::dbscan;
use dissim::{MatrixProvider, NeighborProvider};
use evalkit::{pair_counts, ClusterMetrics};
use fieldclust::truth::{label_store, truth_segmentation};
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use protocols::{corpus, Protocol};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let protocol = Protocol::from_name(args.get(1).map(|s| s.as_str()).unwrap_or("ntp"))
        .expect("unknown protocol");
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let trace = corpus::build_trace(protocol, n, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(protocol, &trace);
    let mut session = AnalysisSession::new(&trace, FieldTypeClusterer::default());
    let store = bench::attach_cache_from_args(&mut session, &args);
    session.set_segmentation(truth_segmentation(&trace, &gt));
    let labels = label_store(session.store().expect("enough segments"), &gt);
    let matrix = session.matrix().expect("enough segments");
    let unique = matrix.len();
    println!("{} n={} unique_segments={}", protocol, n, unique);

    // k-NN quantiles for each candidate k.
    let min_samples = ((unique as f64).ln().round() as usize).max(2);
    for k in 2..=min_samples.min(unique - 1) {
        let mut knn = matrix.knn_dissimilarities(k);
        knn.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |f: f64| knn[((knn.len() - 1) as f64 * f) as usize];
        println!(
            "k={k:2}  q10={:.3} q50={:.3} q80={:.3} q90={:.3} q95={:.3} q99={:.3} max={:.3}",
            q(0.1),
            q(0.5),
            q(0.8),
            q(0.9),
            q(0.95),
            q(0.99),
            q(1.0)
        );
    }

    let table = matrix.knn_table(required_k_max(unique));
    let selected = auto_configure(&table, &AutoConfig::default()).expect("autoconf");
    let provider = MatrixProvider::new(matrix);
    let unit = vec![1; unique];
    println!(
        "autoconf: k={} eps={:.3} min_samples={}",
        selected.k, selected.epsilon, selected.min_samples
    );

    // ε sweep: what would each ε give?
    println!("\neps     clusters noise  largest   P     R");
    let max_d = matrix.max().unwrap_or(1.0);
    for step in 1..=20 {
        let eps = max_d * step as f64 / 20.0;
        let c = dbscan(&provider.region_table(eps, 1), eps, min_samples, &unit);
        let clusters = c.clusters();
        let largest = clusters.iter().map(Vec::len).max().unwrap_or(0);
        let label_clusters: Vec<Vec<_>> = clusters
            .iter()
            .map(|m| m.iter().map(|&i| labels[i]).collect())
            .collect();
        let noise_labels: Vec<_> = c.noise().iter().map(|&i| labels[i]).collect();
        let m = ClusterMetrics::from_counts(&pair_counts(&label_clusters, &noise_labels));
        println!(
            "{eps:6.3} {:8} {:5} {:8} {:5.2} {:5.2}",
            c.n_clusters(),
            c.noise().len(),
            largest,
            m.precision,
            m.recall
        );
    }
    bench::report_cache(store.as_ref());
}
