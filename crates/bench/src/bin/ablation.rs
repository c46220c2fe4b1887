//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. cluster refinement (merge + split) on/off,
//! 2. occurrence-weighted vs unweighted DBSCAN,
//! 3. the mixed-length Canberra penalty constant,
//! 4. the spline smoothing strength of the ε auto-configuration,
//! 5. DBSCAN vs an OPTICS ε-cut vs HDBSCAN as the clustering backend,
//! 6. content-aware segmentation vs naive fixed-width chunking.
//!
//! Run with: `cargo run --release -p bench --bin ablation`

use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use cluster::dbscan::{dbscan, Clustering, Label};
use cluster::hdbscan::{hdbscan, HdbscanParams};
use cluster::optics::optics;
use cluster::refine::{merge_clusters, split_clusters, RefineParams};
use dissim::{CondensedMatrix, DissimParams, MatrixProvider, NeighborProvider};
use evalkit::{pair_counts, ClusterMetrics};
use fieldclust::truth::{label_store, truth_segmentation};
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use protocols::{corpus, FieldKind, Protocol};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    protocol: String,
    variant: String,
    precision: f64,
    recall: f64,
    f_score: f64,
    clusters: u32,
    noise: usize,
}

struct Prepared {
    protocol: Protocol,
    labels: Vec<FieldKind>,
    weights: Vec<usize>,
    matrix: CondensedMatrix,
    min_samples: usize,
}

fn prepare(protocol: Protocol, n: usize, penalty: f64) -> Prepared {
    let trace = corpus::build_trace(protocol, n, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(protocol, &trace);
    let config = FieldTypeClusterer {
        dissim: DissimParams {
            length_penalty: penalty,
        },
        ..FieldTypeClusterer::default()
    };
    let mut session = AnalysisSession::from_owned(trace, config);
    session.set_segmentation(truth_segmentation(session.trace(), &gt));
    let labels = label_store(session.store().expect("enough segments"), &gt);
    let weights = session
        .store()
        .expect("enough segments")
        .occurrence_counts();
    let matrix = session.matrix().expect("enough segments").to_matrix();
    let total: usize = weights.iter().sum();
    let min_samples = ((total as f64).ln().round() as usize).max(2);
    Prepared {
        protocol,
        labels,
        weights,
        matrix,
        min_samples,
    }
}

fn score(p: &Prepared, clustering: &Clustering, variant: &str) -> AblationRow {
    let clusters: Vec<Vec<FieldKind>> = clustering
        .clusters()
        .iter()
        .map(|m| m.iter().map(|&i| p.labels[i]).collect())
        .collect();
    let noise: Vec<FieldKind> = clustering
        .labels()
        .iter()
        .enumerate()
        .filter(|(_, l)| **l == Label::Noise)
        .map(|(i, _)| p.labels[i])
        .collect();
    let m = ClusterMetrics::from_counts(&pair_counts(&clusters, &noise));
    AblationRow {
        protocol: p.protocol.to_string(),
        variant: variant.to_string(),
        precision: m.precision,
        recall: m.recall,
        f_score: m.f_score,
        clusters: clustering.n_clusters(),
        noise: noise.len(),
    }
}

fn print_row(r: &AblationRow) {
    println!(
        "{:6} {:34} P={:5.2} R={:5.2} F={:5.2} ({:3} clusters, {:4} noise)",
        r.protocol, r.variant, r.precision, r.recall, r.f_score, r.clusters, r.noise
    );
}

fn main() {
    let bench_start = std::time::Instant::now();
    let mut rows: Vec<AblationRow> = Vec::new();
    let cases = [
        (Protocol::Ntp, 1000),
        (Protocol::Dns, 1000),
        (Protocol::Smb, 100),
    ];

    println!(
        "ABLATION 1/2/5 — refinement, weighting, clustering backend (DBSCAN / OPTICS / HDBSCAN)"
    );
    for &(protocol, n) in &cases {
        let p = prepare(protocol, n, DissimParams::default().length_penalty);
        let provider = MatrixProvider::new(&p.matrix);
        let table = p.matrix.knn_table(required_k_max(p.matrix.len()));
        let eps = auto_configure(&table, &AutoConfig::default())
            .map(|s| s.epsilon)
            .unwrap_or_else(|_| p.matrix.mean().unwrap_or(0.5) / 2.0);

        // Full pipeline configuration (weighted + refinement).
        let regions = provider.region_table(eps, 1);
        let weighted = dbscan(&regions, eps, p.min_samples, &p.weights);
        let refined = split_clusters(
            &merge_clusters(&weighted, &provider, &RefineParams::default(), 1),
            &p.weights,
            &RefineParams::default(),
        );
        rows.push(score(&p, &refined, "full (weighted + refinement)"));
        print_row(rows.last().unwrap());

        rows.push(score(&p, &weighted, "no refinement"));
        print_row(rows.last().unwrap());

        let unit = vec![1; p.matrix.len()];
        let unweighted = dbscan(&regions, eps, p.min_samples.min(p.matrix.len()), &unit);
        rows.push(score(&p, &unweighted, "unweighted DBSCAN"));
        print_row(rows.last().unwrap());

        let optics_cut = optics(&provider, 1.0, p.min_samples, 1).extract_dbscan(eps);
        rows.push(score(&p, &optics_cut, "OPTICS eps-cut (unweighted)"));
        print_row(rows.last().unwrap());

        let h = hdbscan(
            &provider,
            &HdbscanParams {
                min_samples: p.min_samples.min(8),
                min_cluster_size: 5,
            },
            1,
        );
        rows.push(score(&p, &h, "HDBSCAN (EOM, unweighted)"));
        print_row(rows.last().unwrap());
    }

    println!("\nABLATION 3 — mixed-length Canberra penalty");
    for &(protocol, n) in &[(Protocol::Dns, 1000), (Protocol::Smb, 100)] {
        for penalty in [0.0, 0.3, 0.59, 0.8, 1.0] {
            let p = prepare(protocol, n, penalty);
            let clusterer = FieldTypeClusterer {
                dissim: DissimParams {
                    length_penalty: penalty,
                },
                ..FieldTypeClusterer::default()
            };
            let trace = corpus::build_trace(protocol, n, corpus::DEFAULT_SEED);
            let gt = corpus::ground_truth(protocol, &trace);
            let seg = truth_segmentation(&trace, &gt);
            let result = clusterer.cluster_trace(&trace, &seg).expect("pipeline");
            rows.push(score(
                &p,
                &result.clustering,
                &format!("penalty = {penalty}"),
            ));
            print_row(rows.last().unwrap());
        }
    }

    println!("\nABLATION 4 — spline smoothing strength (interior knots)");
    for knots in [4usize, 8, 12, 24, 48] {
        let protocol = Protocol::Ntp;
        let p = prepare(protocol, 1000, DissimParams::default().length_penalty);
        let config = AutoConfig {
            smoothing_knots: knots,
            ..AutoConfig::default()
        };
        let table = p.matrix.knn_table(required_k_max(p.matrix.len()));
        match auto_configure(&table, &config) {
            Ok(s) => {
                let provider = MatrixProvider::new(&p.matrix);
                let regions = provider.region_table(s.epsilon, 1);
                let c = dbscan(&regions, s.epsilon, p.min_samples, &p.weights);
                let mut row = score(&p, &c, &format!("knots = {knots} (eps = {:.3})", s.epsilon));
                row.variant = format!("knots = {knots} (eps = {:.3})", s.epsilon);
                print_row(&row);
                rows.push(row);
            }
            Err(e) => println!("ntp    knots = {knots}: auto-configuration failed ({e})"),
        }
    }

    println!("\nABLATION 6 — content-aware segmentation vs fixed-width chunks");
    {
        use fieldclust::evaluate;
        use segment::fixed::FixedChunks;
        use segment::nemesys::Nemesys;
        use segment::Segmenter;
        let protocol = Protocol::Ntp;
        let trace = corpus::build_trace(protocol, 200, corpus::DEFAULT_SEED);
        let gt = corpus::ground_truth(protocol, &trace);
        let clusterer = FieldTypeClusterer::default();
        let mut variants: Vec<(String, segment::TraceSegmentation)> = vec![(
            "nemesys".to_string(),
            Nemesys::default()
                .segment_trace(&trace)
                .expect("nemesys never fails"),
        )];
        for width in [2usize, 4, 8] {
            variants.push((
                format!("fixed-{width}"),
                FixedChunks { width }
                    .segment_trace(&trace)
                    .expect("fixed never fails"),
            ));
        }
        for (name, seg) in variants {
            match clusterer.cluster_trace(&trace, &seg) {
                Ok(result) => {
                    let eval = evaluate(&result, &trace, &gt);
                    let row = AblationRow {
                        protocol: protocol.to_string(),
                        variant: format!("segmenter = {name}"),
                        precision: eval.metrics.precision,
                        recall: eval.metrics.recall,
                        f_score: eval.metrics.f_score,
                        clusters: eval.n_clusters,
                        noise: eval.n_noise,
                    };
                    print_row(&row);
                    rows.push(row);
                }
                Err(e) => println!("{protocol}  segmenter = {name}: pipeline failed ({e})"),
            }
        }
    }

    bench::dump_json("target/ablation.json", &rows);
    bench::append_trajectory("ablation", bench_start.elapsed());
}
