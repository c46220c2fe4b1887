//! Regenerates **Fig. 2**: the ECDF Ê₂ of 2-NN dissimilarities for the
//! NTP-1000 trace, its spline smoothing, and the knee Kneedle detects —
//! the dissimilarity used as DBSCAN's ε.
//!
//! Prints the curve as aligned columns (dissimilarity, raw ECDF,
//! smoothed ECDF) plus the detected knee, and dumps the series to JSON
//! for plotting. Run with: `cargo run --release -p bench --bin fig2`

use bench::dump_json;
use cluster::autoconf::{auto_configure, required_k_max, AutoConfig};
use fieldclust::truth::truth_segmentation;
use fieldclust::{AnalysisSession, FieldTypeClusterer};
use protocols::{corpus, Protocol};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Data {
    k: usize,
    epsilon: f64,
    min_samples: usize,
    ecdf: Vec<(f64, f64)>,
    smoothed: Vec<(f64, f64)>,
}

fn main() {
    let bench_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().collect();
    // The paper's Fig. 2 uses segments from 1000 NTP messages.
    let trace = corpus::build_trace(Protocol::Ntp, 1000, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let mut session = AnalysisSession::new(&trace, FieldTypeClusterer::default());
    let store = bench::attach_cache_from_args(&mut session, &args);
    session.set_segmentation(truth_segmentation(&trace, &gt));
    let matrix = session.matrix().expect("enough segments");
    eprintln!("built {0}x{0} dissimilarity matrix", matrix.len());

    let table = matrix.knn_table(required_k_max(matrix.len()));
    let selected = auto_configure(&table, &AutoConfig::default()).expect("auto-configuration");
    let n = selected.ecdf_values.len() as f64;
    let ecdf: Vec<(f64, f64)> = selected
        .ecdf_values
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, (i + 1) as f64 / n))
        .collect();

    println!("FIG 2 — k-NN dissimilarity ECDF and its knee (NTP, 1000 messages)");
    println!(
        "selected k = {}, min_samples = {}",
        selected.k, selected.min_samples
    );
    println!(
        "knee at dissimilarity = {:.3}  -> used as eps",
        selected.epsilon
    );
    println!();
    println!("dissim  ECDF(smoothed)");
    // Print a readable down-sampled curve with an ASCII bar.
    let curve = &selected.smoothed_curve;
    let step = (curve.len() / 30).max(1);
    for (x, y) in curve.iter().step_by(step) {
        let bar = "#".repeat((y * 50.0).round() as usize);
        let marker = if (x - selected.epsilon).abs()
            < (curve[step.min(curve.len() - 1)].0 - curve[0].0).abs()
        {
            " <- knee"
        } else {
            ""
        };
        println!("{x:6.3}  {y:5.3} {bar}{marker}");
    }

    // Render the figure itself: raw ECDF (dots), smoothed spline (line),
    // detected knee (vertical marker) — the paper's Fig. 2.
    let figure = bench::plot::Plot {
        title: "Fig. 2 — k-NN dissimilarity ECDF and its knee (NTP, 1000 messages)".to_string(),
        x_label: "Canberra dissimilarity".to_string(),
        y_label: "cumulative fraction of segments".to_string(),
        series: vec![
            bench::plot::Series {
                label: format!("ECDF of {}-NN dissimilarities", selected.k),
                points: ecdf.clone(),
                color: "steelblue".to_string(),
                scatter: true,
            },
            bench::plot::Series {
                label: "smoothed (cubic B-spline)".to_string(),
                points: selected.smoothed_curve.clone(),
                color: "darkorange".to_string(),
                scatter: false,
            },
        ],
        v_lines: vec![(
            selected.epsilon,
            format!("knee = {:.3} -> eps", selected.epsilon),
        )],
    };
    if std::fs::write("target/fig2.svg", figure.to_svg()).is_ok() {
        eprintln!("(figure written to target/fig2.svg)");
    }

    dump_json(
        "target/fig2.json",
        &Fig2Data {
            k: selected.k,
            epsilon: selected.epsilon,
            min_samples: selected.min_samples,
            ecdf,
            smoothed: selected.smoothed_curve.clone(),
        },
    );
    bench::report_cache(store.as_ref());
    bench::append_trajectory("fig2", bench_start.elapsed());
}
