//! The staged [`AnalysisSession`] must be byte-identical to the
//! monolithic pre-refactor pipeline.
//!
//! `reference_cluster_trace` below is a line-for-line transcription of
//! the original `FieldTypeClusterer::cluster_trace` body: serial matrix
//! build, matrix-sweep auto-configuration, lazy matrix-scan weighted
//! DBSCAN ([`reference_dbscan`], written out here so the session's
//! batched region growing is checked against an independent
//! implementation), per-round nested-scan merge refinement
//! ([`reference_merge`], likewise independent of the incremental
//! rounds the session runs). The staged session
//! replaces every one
//! of those query paths with the shared `DissimArtifact`'s neighbor
//! index; these tests pin down that the substitution is exact — same
//! clustering, same ε (bit-for-bit), same `min_samples`, same coverage —
//! on DNS and NTP fixtures under both ground-truth and heuristic
//! segmentations.

use cluster::autoconf::{
    auto_configure, required_k_max, AutoConfError, AutoConfig, SelectedParams,
};
use cluster::dbscan::{dbscan, Clustering, Label};
use cluster::refine::{split_clusters, RefineParams};
use dissim::{dissimilarity, CondensedMatrix};
use fieldclust::truth::truth_segmentation;
use fieldclust::{AnalysisSession, FieldTypeClusterer, SegmentStore};
use mathkit::stats::median;
use protocols::{corpus, Protocol};
use segment::nemesys::Nemesys;
use segment::{Segmenter, TraceSegmentation};
use trace::Trace;

/// Serial weighted DBSCAN over the matrix, as the pipeline ran it
/// before region queries were batched: seeds are taken in index order,
/// each ε-region (`d <= eps`, self excluded) is scanned from the matrix
/// when its item is visited, and an item is core when the weights of
/// its region, its own included, reach `min_samples`.
fn reference_dbscan(
    matrix: &CondensedMatrix,
    eps: f64,
    min_samples: usize,
    weights: &[usize],
) -> Clustering {
    const UNVISITED: u32 = u32::MAX;
    const NOISE: u32 = u32::MAX - 1;
    let n = matrix.len();
    let region = |i: usize| -> Vec<usize> {
        (0..n)
            .filter(|&j| j != i && matrix.get(i, j) <= eps)
            .collect()
    };
    let is_core = |i: usize, nb: &[usize]| {
        weights[i] + nb.iter().map(|&j| weights[j]).sum::<usize>() >= min_samples
    };
    let mut labels = vec![UNVISITED; n];
    let mut cluster_id = 0u32;
    for i in 0..n {
        if labels[i] != UNVISITED {
            continue;
        }
        let nb = region(i);
        if !is_core(i, &nb) {
            labels[i] = NOISE;
            continue;
        }
        labels[i] = cluster_id;
        let mut queue: std::collections::VecDeque<usize> = nb.into();
        while let Some(q) = queue.pop_front() {
            if labels[q] == NOISE {
                labels[q] = cluster_id;
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cluster_id;
            let nb = region(q);
            if is_core(q, &nb) {
                queue.extend(nb);
            }
        }
        cluster_id += 1;
    }
    Clustering::from_labels(
        labels
            .into_iter()
            .map(|l| {
                if l == NOISE {
                    Label::Noise
                } else {
                    Label::Cluster(l)
                }
            })
            .collect(),
    )
}

/// Merge refinement (paper §III-F) as the pipeline first ran it: every
/// round compacts the labels, computes each cluster's statistics and
/// each pair's link segments by nested scans of the matrix, decides
/// every pair, then joins the pairs that merge. Link ties go to the
/// first pair in (lower-id member, higher-id member) scan order; the
/// link densities are medians over a member scan.
fn reference_merge(
    clustering: &Clustering,
    matrix: &CondensedMatrix,
    params: &RefineParams,
) -> Clustering {
    let mut labels = clustering.labels().to_vec();
    for _ in 0..params.max_merge_rounds {
        let current = Clustering::from_labels(labels);
        labels = current.labels().to_vec();
        let clusters = current.clusters();
        // (mean, max, minmed) of every cluster of two or more members.
        let stats: Vec<Option<(f64, f64, f64)>> = clusters
            .iter()
            .map(|c| {
                if c.len() < 2 {
                    return None;
                }
                let (mut sum, mut count, mut max) = (0.0, 0usize, 0.0f64);
                let mut nearest = vec![f64::INFINITY; c.len()];
                for ai in 0..c.len() {
                    for bi in ai + 1..c.len() {
                        let d = matrix.get(c[ai], c[bi]);
                        sum += d;
                        count += 1;
                        max = max.max(d);
                        nearest[ai] = nearest[ai].min(d);
                        nearest[bi] = nearest[bi].min(d);
                    }
                }
                Some((sum / count as f64, max, median(&nearest)?))
            })
            .collect();
        let density = |link: usize, members: &[usize], eps: f64| {
            let within: Vec<f64> = members
                .iter()
                .filter(|&&m| m != link)
                .map(|&m| matrix.get(link, m))
                .filter(|&d| d <= eps)
                .collect();
            median(&within).unwrap_or(0.0)
        };
        let mut root: Vec<usize> = (0..clusters.len()).collect();
        let find = |root: &[usize], mut x: usize| {
            while root[x] != x {
                x = root[x];
            }
            x
        };
        let mut any = false;
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let (Some((mean_i, max_i, mm_i)), Some((mean_j, max_j, mm_j))) =
                    (stats[i], stats[j])
                else {
                    continue;
                };
                let (ci, cj) = (&clusters[i], &clusters[j]);
                let (mut link_i, mut link_j, mut d_link) = (ci[0], cj[0], f64::INFINITY);
                for &a in ci {
                    for &b in cj {
                        if matrix.get(a, b) < d_link {
                            (link_i, link_j, d_link) = (a, b, matrix.get(a, b));
                        }
                    }
                }
                let mut merge = false;
                if d_link < mean_i.max(mean_j) {
                    let eps = if ci.len() <= cj.len() { max_i } else { max_j } / 2.0;
                    let rho_i = density(link_i, ci, eps);
                    let rho_j = density(link_j, cj, eps);
                    merge = (rho_i - rho_j).abs() < params.eps_rho_threshold;
                }
                if !merge && mean_i > 0.0 && mean_j > 0.0 {
                    let closeness = (mm_i / mean_i + mm_j / mean_j) / 2.0;
                    merge = d_link < closeness
                        && (mm_i - mm_j).abs() < params.neighbor_density_threshold;
                }
                if merge {
                    let (ri, rj) = (find(&root, i), find(&root, j));
                    root[ri.max(rj)] = ri.min(rj);
                    any = true;
                }
            }
        }
        if !any {
            break;
        }
        for l in &mut labels {
            if let Label::Cluster(c) = l {
                *l = Label::Cluster(find(&root, *c as usize) as u32);
            }
        }
    }
    Clustering::from_labels(labels)
}

/// The pre-refactor pipeline, inlined: every stage queries the matrix
/// directly, on one thread. Returns (clustering, params, weights).
fn reference_cluster_trace(
    config: &FieldTypeClusterer,
    trace: &Trace,
    segmentation: &TraceSegmentation,
) -> (SegmentStore, Clustering, SelectedParams, CondensedMatrix) {
    let store = SegmentStore::collect(trace, segmentation, config.min_segment_len);
    let n = store.segments.len();
    assert!(n >= 4, "fixture must yield enough segments");

    let values: Vec<&[u8]> = store.segments.iter().map(|s| &s.value[..]).collect();
    let matrix = CondensedMatrix::build(n, |i, j| {
        dissimilarity(values[i], values[j], &config.dissim)
    });

    let weights = store.occurrence_counts();
    let total_instances: usize = weights.iter().sum();
    let min_samples = ((total_instances as f64).ln().round() as usize).max(2);

    let knn = matrix.knn_table(required_k_max(n));
    let mut selected = match auto_configure(&knn, &config.autoconf) {
        Ok(p) => p,
        Err(AutoConfError::TooFewSegments { .. }) => unreachable!("n >= 4"),
        Err(_) => SelectedParams {
            epsilon: matrix.mean().unwrap_or(0.0) / 2.0,
            min_samples,
            k: 2,
            ecdf_values: Vec::new(),
            smoothed_curve: Vec::new(),
        },
    };
    selected.min_samples = min_samples;
    let mut clustering = reference_dbscan(&matrix, selected.epsilon, min_samples, &weights);

    // §III-E dominating-cluster fallback.
    let clusters = clustering.clusters();
    let cluster_weight = |c: &[usize]| -> usize { c.iter().map(|&i| weights[i]).sum() };
    let non_noise: usize = clusters.iter().map(|c| cluster_weight(c)).sum();
    let dominating = non_noise > 0
        && clusters
            .iter()
            .any(|c| cluster_weight(c) as f64 > config.large_cluster_fraction * non_noise as f64);
    if dominating {
        let trimmed = AutoConfig {
            max_dissimilarity: Some(selected.epsilon),
            ..config.autoconf
        };
        if let Ok(p) = auto_configure(&knn, &trimmed) {
            if p.epsilon < selected.epsilon {
                clustering = reference_dbscan(&matrix, p.epsilon, min_samples, &weights);
                selected = SelectedParams { min_samples, ..p };
            }
        }
    }

    let merged = reference_merge(&clustering, &matrix, &config.refine);
    let final_clustering = split_clusters(&merged, &weights, &config.refine);
    (store, final_clustering, selected, matrix)
}

fn assert_staged_matches_reference(
    trace: &Trace,
    segmentation: TraceSegmentation,
    config: FieldTypeClusterer,
    label: &str,
) {
    // The reference never consults the tile settings: it is always the
    // serial in-memory matrix-scan pipeline. A tiled/parallel config
    // must reproduce it bit for bit.
    let (ref_store, ref_clustering, ref_params, ref_matrix) =
        reference_cluster_trace(&config, trace, &segmentation);

    let mut session = AnalysisSession::new(trace, config);
    session.set_segmentation(segmentation);
    let staged = session.finish().expect("staged pipeline");
    // Every backend builds one k-NN table per session — tiled builds
    // merge it from tile partials, the others query it — and it equals
    // the reference matrix's sweep.
    assert_eq!(
        session.knn_table(),
        Some(&ref_matrix.knn_table(required_k_max(ref_matrix.len()))),
        "{label}: k-NN table differs from the matrix sweep"
    );

    // The kernel-layer matrix build (LUT + early-abandon windows +
    // length buckets) must be bit-identical to the naive serial build —
    // every condensed entry, not just the derived ε.
    let staged_matrix = session.matrix().expect("cached matrix").to_matrix();
    assert_eq!(
        staged_matrix.len(),
        ref_matrix.len(),
        "{label}: matrix size"
    );
    for (k, (a, b)) in staged_matrix
        .values()
        .iter()
        .zip(ref_matrix.values())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: matrix entry {k} differs ({a} vs {b})"
        );
    }

    assert_eq!(staged.store, ref_store, "{label}: segment stores differ");
    assert_eq!(
        staged.clustering, ref_clustering,
        "{label}: clusterings differ"
    );
    assert_eq!(
        staged.params.epsilon.to_bits(),
        ref_params.epsilon.to_bits(),
        "{label}: eps differs ({} vs {})",
        staged.params.epsilon,
        ref_params.epsilon
    );
    assert_eq!(
        staged.params.min_samples, ref_params.min_samples,
        "{label}: min_samples differs"
    );
    assert_eq!(staged.params.k, ref_params.k, "{label}: selected k differs");

    // Coverage is a pure function of store + clustering, so equality
    // above implies it — assert anyway to pin the reported number.
    let staged_cov = staged.coverage(trace);
    let reference = fieldclust::PseudoTypeClustering {
        store: ref_store,
        clustering: ref_clustering,
        params: ref_params,
        epsilon_source: staged.epsilon_source,
    };
    let ref_cov = reference.coverage(trace);
    assert_eq!(
        staged_cov.covered_bytes, ref_cov.covered_bytes,
        "{label}: coverage differs"
    );
    assert_eq!(
        staged_cov.total_bytes, ref_cov.total_bytes,
        "{label}: total bytes differ"
    );
}

#[test]
fn dns_ground_truth_segmentation_is_equivalent() {
    let trace = corpus::build_trace(Protocol::Dns, 120, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(Protocol::Dns, &trace);
    assert_staged_matches_reference(
        &trace,
        truth_segmentation(&trace, &gt),
        FieldTypeClusterer::default(),
        "dns/truth",
    );
}

#[test]
fn ntp_ground_truth_segmentation_is_equivalent() {
    let trace = corpus::build_trace(Protocol::Ntp, 150, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    assert_staged_matches_reference(
        &trace,
        truth_segmentation(&trace, &gt),
        FieldTypeClusterer::default(),
        "ntp/truth",
    );
}

#[test]
fn dns_heuristic_segmentation_is_equivalent() {
    let trace = corpus::build_trace(Protocol::Dns, 80, 11);
    let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
    assert_staged_matches_reference(&trace, seg, FieldTypeClusterer::default(), "dns/nemesys");
}

#[test]
fn ntp_heuristic_segmentation_is_equivalent() {
    let trace = corpus::build_trace(Protocol::Ntp, 80, 12);
    let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
    assert_staged_matches_reference(&trace, seg, FieldTypeClusterer::default(), "ntp/nemesys");
}

// ----- tiled + parallel equivalence -----
//
// The tiled out-of-core build, the merged per-tile k-NN table feeding ε
// auto-configuration, and the parallel DBSCAN/refinement entries must
// all reproduce the serial in-memory reference bit for bit, for any
// tile geometry and thread count. Tile height and thread count are
// performance knobs, never semantic ones.

#[test]
fn tiled_parallel_session_is_bit_identical_to_reference() {
    let trace = corpus::build_trace(Protocol::Dns, 120, corpus::DEFAULT_SEED);
    let gt = corpus::ground_truth(Protocol::Dns, &trace);
    let seg = truth_segmentation(&trace, &gt);
    for tile_rows in [7usize, 64] {
        for threads in [1usize, 4] {
            let config = FieldTypeClusterer {
                tile_rows: Some(tile_rows),
                threads,
                ..FieldTypeClusterer::default()
            };
            assert_staged_matches_reference(
                &trace,
                seg.clone(),
                config,
                &format!("dns/tiled-r{tile_rows}-t{threads}"),
            );
        }
    }
}

#[test]
fn max_memory_budget_is_bit_identical_to_reference() {
    // A byte budget that forces short tiles takes the same tiled path
    // as an explicit --tile-rows and must be just as exact.
    let trace = corpus::build_trace(Protocol::Ntp, 100, 13);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let config = FieldTypeClusterer {
        max_memory: Some(16 << 10),
        threads: 3,
        ..FieldTypeClusterer::default()
    };
    assert_staged_matches_reference(
        &trace,
        truth_segmentation(&trace, &gt),
        config,
        "ntp/max-memory",
    );
}

// ----- artifact-store equivalence: cold vs warm vs incremental -----
//
// The store's three paths — cold compute, warm full-hit, incremental
// prefix extension — must be indistinguishable in every produced bit:
// matrix entries, ε, min_samples, clustering labels.

fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fieldclust-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn truth_session(trace: &Trace) -> AnalysisSession<'_> {
    truth_session_with(trace, FieldTypeClusterer::default())
}

fn truth_session_with(trace: &Trace, config: FieldTypeClusterer) -> AnalysisSession<'_> {
    let gt = corpus::ground_truth(Protocol::Dns, trace);
    let mut s = AnalysisSession::new(trace, config);
    s.set_segmentation(truth_segmentation(trace, &gt));
    s
}

fn assert_sessions_bit_identical(a: &mut AnalysisSession, b: &mut AnalysisSession, label: &str) {
    let result_a = a.finish().expect("pipeline a");
    let result_b = b.finish().expect("pipeline b");
    assert_eq!(
        result_a.params.epsilon.to_bits(),
        result_b.params.epsilon.to_bits(),
        "{label}: eps differs"
    );
    assert_eq!(result_a.params.min_samples, result_b.params.min_samples);
    assert_eq!(result_a.params.k, result_b.params.k);
    assert_eq!(result_a.clustering, result_b.clustering, "{label}: labels");
    assert_eq!(result_a.epsilon_source, result_b.epsilon_source);
    assert_eq!(result_a.store, result_b.store, "{label}: segment stores");
    let ma = a.matrix().expect("matrix a").to_matrix();
    let mb = b.matrix().expect("matrix b").to_matrix();
    assert_eq!(ma.len(), mb.len(), "{label}: matrix size");
    for (k, (x, y)) in ma.values().iter().zip(mb.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: matrix entry {k} differs ({x} vs {y})"
        );
    }
}

#[test]
fn warm_session_is_bit_identical_to_cold() {
    let dir = cache_dir("warm");
    let trace = corpus::build_trace(Protocol::Dns, 100, 21);

    // Cold run populates the cache.
    let mut cold = truth_session(&trace).with_store(&dir).expect("open store");
    let cold_result = cold.finish().expect("cold pipeline");
    let cold_stats = cold.cache_stats().expect("stats");
    assert_eq!(cold_stats.hits, 0, "first run must not hit");
    assert!(cold_stats.writes > 0, "first run must populate the cache");

    // Warm run: every stage is a hit, nothing is written, and no
    // matrix is even loaded until explicitly asked for.
    let mut warm = truth_session(&trace).with_store(&dir).expect("open store");
    let warm_result = warm.finish().expect("warm pipeline");
    let stats = warm.cache_stats().expect("stats");
    assert_eq!(stats.misses, 0, "fully warm run must not miss: {stats}");
    assert_eq!(stats.writes, 0, "fully warm run must not write: {stats}");
    assert!(
        stats.hits >= 3,
        "store, stage, refined must all hit: {stats}"
    );
    assert_eq!(warm_result.clustering, cold_result.clustering);

    // Bit-level equality of everything, including the (cache-loaded)
    // matrix, against a cache-less session.
    let mut warm2 = truth_session(&trace).with_store(&dir).expect("open store");
    let mut no_cache = truth_session(&trace);
    assert_sessions_bit_identical(&mut warm2, &mut no_cache, "warm-vs-cold");
}

#[test]
fn incremental_extension_is_bit_identical_to_cold() {
    let dir = cache_dir("incr");
    let full = corpus::build_trace(Protocol::Dns, 120, 22);
    // The grown trace extends the prefix trace message-for-message, so
    // the deduplicated value list of `full` starts with that of
    // `prefix` (first-occurrence order) — the precondition for a
    // manifest prefix match.
    let prefix = Trace::new("prefix", full.messages()[..80].to_vec());

    // Analyze the prefix, populating the cache (including the matrix
    // and its manifest entry).
    let mut small = truth_session(&prefix).with_store(&dir).expect("open store");
    small.finish().expect("prefix pipeline");
    let small_n = small.matrix().expect("prefix matrix").len();

    // Analyze the grown trace against the same cache: the matrix must
    // be grown incrementally, not rebuilt.
    let mut grown = truth_session(&full).with_store(&dir).expect("open store");
    let grown_result = grown.finish().expect("grown pipeline");
    let stats = grown.cache_stats().expect("stats");
    assert_eq!(
        stats.extended, 1,
        "the matrix must come from a prefix extension: {stats}"
    );
    let grown_n = grown.matrix().expect("grown matrix").len();
    assert!(
        grown_n > small_n,
        "fixture must add unique segments ({grown_n} vs {small_n})"
    );

    // Every artifact of the incremental run must match a cold cache-less
    // run bit for bit.
    let mut grown2 = truth_session(&full).with_store(&dir).expect("open store");
    let mut no_cache = truth_session(&full);
    assert_sessions_bit_identical(&mut grown2, &mut no_cache, "incremental-vs-cold");
    let cold_result = no_cache.finish().expect("cold pipeline");
    assert_eq!(grown_result.clustering, cold_result.clustering);
    assert_eq!(
        grown_result.params.epsilon.to_bits(),
        cold_result.params.epsilon.to_bits()
    );
}

#[test]
fn corrupt_cache_degrades_to_cold_compute() {
    let dir = cache_dir("corrupt");
    let trace = corpus::build_trace(Protocol::Ntp, 90, 23);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let seg = truth_segmentation(&trace, &gt);

    let mut first = AnalysisSession::new(&trace, FieldTypeClusterer::default());
    first.set_segmentation(seg.clone());
    let mut first = first.with_store(&dir).expect("open store");
    let reference = first.finish().expect("first pipeline");

    // Damage every cache file: flip one byte in the middle of each.
    for entry in std::fs::read_dir(&dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        let mut bytes = std::fs::read(&path).expect("read cache file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("write damaged file");
    }

    let mut second = AnalysisSession::new(&trace, FieldTypeClusterer::default());
    second.set_segmentation(seg);
    let mut second = second.with_store(&dir).expect("open store");
    let recomputed = second.finish().expect("damaged cache must not fail");
    let stats = second.cache_stats().expect("stats");
    assert_eq!(stats.hits, 0, "every damaged file must miss: {stats}");
    assert!(stats.misses > 0);
    assert_eq!(recomputed.clustering, reference.clustering);
    assert_eq!(
        recomputed.params.epsilon.to_bits(),
        reference.params.epsilon.to_bits()
    );
}

// ----- tiled store: tiles are the unit of caching -----
//
// In tiled mode the monolithic matrix artifact is never persisted;
// fixed-height row-block tiles are. Warm runs fault every tile back in,
// growth re-uses every complete tile of the prefix, and a damaged tile
// is recomputed and re-persisted — all bit-identical to cold compute.

#[test]
fn tiled_warm_run_is_bit_identical_to_cold() {
    let dir = cache_dir("tiled-warm");
    let trace = corpus::build_trace(Protocol::Dns, 100, 24);
    let config = FieldTypeClusterer {
        tile_rows: Some(16),
        ..FieldTypeClusterer::default()
    };

    // Cold tiled run persists tiles + stage artifacts.
    let mut cold = truth_session_with(&trace, config.clone())
        .with_store(&dir)
        .expect("open store");
    let cold_result = cold.finish().expect("cold pipeline");
    cold.matrix().expect("cold matrix");
    let cold_stats = cold.cache_stats().expect("stats");
    assert_eq!(cold_stats.hits, 0, "first tiled run must not hit");
    assert!(cold_stats.writes > 0, "first tiled run must persist tiles");

    // Warm run: stage artifacts hit; asking for the matrix faults every
    // tile in from the store — no misses, no writes anywhere.
    let mut warm = truth_session_with(&trace, config.clone())
        .with_store(&dir)
        .expect("open store");
    let warm_result = warm.finish().expect("warm pipeline");
    warm.matrix().expect("warm matrix from tile faults");
    assert!(warm.knn_table().is_some(), "tiled warm run keeps its table");
    let stats = warm.cache_stats().expect("stats");
    assert_eq!(
        stats.misses, 0,
        "fully warm tiled run must not miss: {stats}"
    );
    assert_eq!(
        stats.writes, 0,
        "fully warm tiled run must not write: {stats}"
    );
    assert_eq!(warm_result.clustering, cold_result.clustering);

    // And the whole warm tiled session is bit-identical to a cache-less
    // monolithic session: tile geometry and caching are invisible.
    let mut warm2 = truth_session_with(&trace, config)
        .with_store(&dir)
        .expect("open store");
    let mut monolithic = truth_session(&trace);
    assert_sessions_bit_identical(&mut warm2, &mut monolithic, "tiled-warm-vs-monolithic");
}

#[test]
fn tiled_growth_reuses_complete_tiles() {
    let dir = cache_dir("tiled-grow");
    let full = corpus::build_trace(Protocol::Dns, 120, 26);
    let prefix = Trace::new("prefix", full.messages()[..80].to_vec());
    let config = FieldTypeClusterer {
        tile_rows: Some(8),
        ..FieldTypeClusterer::default()
    };

    // Tile keys digest only values[..span.end], so every complete tile
    // of the prefix keeps its key when the trace grows: growth is a
    // pure tile-append.
    let mut small = truth_session_with(&prefix, config.clone())
        .with_store(&dir)
        .expect("open store");
    small.matrix().expect("prefix matrix");

    let mut grown = truth_session_with(&full, config)
        .with_store(&dir)
        .expect("open store");
    grown.matrix().expect("grown matrix");
    let stats = grown.cache_stats().expect("stats");
    assert!(
        stats.hits > 0,
        "complete prefix tiles must fault in on growth: {stats}"
    );
    assert!(
        stats.writes > 0,
        "appended tiles must be persisted: {stats}"
    );

    // The grown tiled matrix equals a cold monolithic build bit for bit.
    let mut monolithic = truth_session(&full);
    let ref_matrix = monolithic.matrix().expect("cold matrix").to_matrix();
    let grown_matrix = grown.matrix().expect("grown matrix").to_matrix();
    assert_eq!(grown_matrix.len(), ref_matrix.len());
    for (k, (x, y)) in grown_matrix
        .values()
        .iter()
        .zip(ref_matrix.values())
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "grown matrix entry {k} differs ({x} vs {y})"
        );
    }
}

// ----- neighbor-backend equivalence: matrix vs tiled vs stratified -----
//
// The three neighbor backends answer the same ε-region and k-NN
// queries through different structures — row scans of the monolithic
// matrix, tiled matrix + merged k-NN table, length-stratified
// vantage-point forests over the raw values. Every derived artifact (ε bits,
// min_samples, k, labels, refined clusters) must be identical across
// them; the backend, like the tile geometry, is a performance knob
// only.

#[test]
fn all_neighbor_backends_are_bit_identical() {
    use fieldclust::NeighborBackend;
    for (protocol, n, seed) in [
        (Protocol::Dns, 120, corpus::DEFAULT_SEED),
        (Protocol::Ntp, 150, corpus::DEFAULT_SEED),
        (Protocol::Dns, 80, 31),
    ] {
        let trace = corpus::build_trace(protocol, n, seed);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let label = format!("{protocol:?}/n{n}/s{seed}");

        let run = |config: FieldTypeClusterer| {
            let mut s = AnalysisSession::new(&trace, config);
            s.set_segmentation(seg.clone());
            (s.finish().expect("pipeline"), s)
        };
        let (reference, reference_session) = run(FieldTypeClusterer {
            neighbor_backend: NeighborBackend::Matrix,
            ..FieldTypeClusterer::default()
        });
        assert!(
            reference_session.knn_table().is_some(),
            "{label}: matrix oracle builds its table"
        );
        // Anchor the matrix session itself to the inlined serial
        // pipeline, so every backend below is compared against an
        // independent DBSCAN, not against the session's own growing.
        let (_, serial_clustering, serial_params, _) =
            reference_cluster_trace(&FieldTypeClusterer::default(), &trace, &seg);
        assert_eq!(
            reference.clustering, serial_clustering,
            "{label}: matrix session differs from the serial pipeline"
        );
        assert_eq!(
            reference.params.epsilon.to_bits(),
            serial_params.epsilon.to_bits(),
            "{label}: matrix session eps differs from the serial pipeline"
        );
        let backends = [
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Tiled,
                tile_rows: Some(16),
                ..FieldTypeClusterer::default()
            },
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Stratified,
                ..FieldTypeClusterer::default()
            },
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Stratified,
                threads: 1,
                ..FieldTypeClusterer::default()
            },
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Stratified,
                threads: 4,
                ..FieldTypeClusterer::default()
            },
        ];
        for config in backends {
            let tag = format!("{label}/{}/t{}", config.neighbor_backend, config.threads);
            let stratified = config.neighbor_backend == NeighborBackend::Stratified;
            let (result, session) = run(config);
            // Every backend selects ε from one k-NN table, equal to the
            // matrix oracle's.
            assert_eq!(
                session.knn_table(),
                reference_session.knn_table(),
                "{tag}: k-NN table differs from the matrix oracle's"
            );
            if stratified {
                assert!(
                    session.strata_index().is_some(),
                    "{tag}: stratified backend must build its index"
                );
                let (evals, _, _) = session.neighbor_counters();
                assert!(evals > 0, "{tag}: stratified queries must count evals");
            }
            assert_eq!(
                result.params.epsilon.to_bits(),
                reference.params.epsilon.to_bits(),
                "{tag}: eps differs ({} vs {})",
                result.params.epsilon,
                reference.params.epsilon
            );
            assert_eq!(
                result.params.min_samples, reference.params.min_samples,
                "{tag}"
            );
            assert_eq!(result.params.k, reference.params.k, "{tag}");
            assert_eq!(result.epsilon_source, reference.epsilon_source, "{tag}");
            assert_eq!(result.store, reference.store, "{tag}: segment stores");
            assert_eq!(result.clustering, reference.clustering, "{tag}: labels");
        }
    }
}

#[test]
fn matrix_and_stratified_refine_identically_on_fixed_width_ntp() {
    use fieldclust::NeighborBackend;
    use segment::fixed::FixedChunks;
    // 4-byte chunks of NTP's 48-byte payloads: uniform lengths, so the
    // matrix backend answers from row scans and its k-NN table while
    // the stratified backend searches a single stratum's forest.
    let trace = corpus::build_trace(Protocol::Ntp, 120, corpus::DEFAULT_SEED);
    let seg = FixedChunks { width: 4 }
        .segment_trace(&trace)
        .expect("fixed chunks");
    let run = |backend: NeighborBackend, threads: usize, dir: &std::path::Path| {
        let config = FieldTypeClusterer {
            neighbor_backend: backend,
            threads,
            ..FieldTypeClusterer::default()
        };
        let mut s = AnalysisSession::new(&trace, config)
            .with_store(dir)
            .expect("open store");
        s.set_segmentation(seg.clone());
        assert_eq!(s.resolved_neighbor_backend().expect("store"), backend);
        let result = s.finish().expect("pipeline");
        (result, s.cache_stats().expect("stats"))
    };
    let (reference, _) = run(NeighborBackend::Stratified, 1, &cache_dir("fixed-ref"));
    for backend in [NeighborBackend::Matrix, NeighborBackend::Stratified] {
        for threads in [1, 4] {
            let dir = cache_dir(&format!("fixed-{backend}-t{threads}"));
            let (cold, cold_stats) = run(backend, threads, &dir);
            let (warm, warm_stats) = run(backend, threads, &dir);
            assert_eq!(cold_stats.hits, 0, "{backend}/t{threads}: cold run");
            assert_eq!(warm_stats.misses, 0, "{backend}/t{threads}: warm run");
            for (tag, result) in [("cold", cold), ("warm", warm)] {
                let label = format!("{backend}/t{threads}/{tag}");
                assert_eq!(
                    result.params.epsilon.to_bits(),
                    reference.params.epsilon.to_bits(),
                    "{label}: eps"
                );
                assert_eq!(result.epsilon_source, reference.epsilon_source, "{label}");
                assert_eq!(result.clustering, reference.clustering, "{label}: labels");
            }
        }
    }
}

#[test]
fn legacy_indexed_dissim_file_is_rebuilt_and_overwritten() {
    use fieldclust::NeighborBackend;
    use store::{decode_file, encode_file, Kind, Writer};
    let dir = cache_dir("legacy-index");
    let trace = corpus::build_trace(Protocol::Dns, 60, 23);
    let config = FieldTypeClusterer {
        neighbor_backend: NeighborBackend::Matrix,
        ..FieldTypeClusterer::default()
    };
    let matrix_of = |dir: &std::path::Path| {
        let mut s = truth_session_with(&trace, config.clone())
            .with_store(dir)
            .expect("open store");
        let m = s.matrix().expect("matrix").to_matrix();
        (m, s.cache_stats().expect("stats"))
    };
    let (cold, _) = matrix_of(&dir);

    // Rewrite the persisted artifact in the retired layout: the matrix,
    // tag byte 1, then a presorted neighbor index.
    let path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("dissim-")
        })
        .expect("persisted dissimilarity artifact");
    let current = std::fs::read(&path).expect("read artifact");
    let payload = decode_file(Kind::DISSIM, &current).expect("valid frame");
    assert_eq!(payload.last(), Some(&0), "current layout ends in tag 0");
    let n = cold.len();
    let mut w = Writer::new();
    w.usize(n);
    for i in 0..n {
        let mut row: Vec<(f64, u32)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (cold.get(i, j), j as u32))
            .collect();
        row.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (d, j) in row {
            w.f64(d);
            w.u32(j);
        }
    }
    let mut legacy = payload[..payload.len() - 1].to_vec();
    legacy.push(1);
    legacy.extend_from_slice(&w.into_inner());
    std::fs::write(&path, encode_file(Kind::DISSIM, &legacy)).expect("write legacy file");

    // The legacy file is a clean miss: the matrix is rebuilt, bit for
    // bit, and written back over it.
    let (rebuilt, stats) = matrix_of(&dir);
    assert_eq!(rebuilt, cold);
    assert!(stats.misses > 0 && stats.writes > 0, "{stats}");
    assert_eq!(std::fs::read(&path).expect("reread"), current);
    let (warm, stats) = matrix_of(&dir);
    assert_eq!(warm, cold);
    assert_eq!((stats.misses, stats.writes), (0, 0), "{stats}");
}

#[test]
fn neighbor_counters_do_not_depend_on_threads() {
    use fieldclust::NeighborBackend;
    let trace = corpus::build_trace(Protocol::Smb, 100, 1);
    let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
    let run = |threads: usize| {
        let mut s = AnalysisSession::new(
            &trace,
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Stratified,
                threads,
                ..FieldTypeClusterer::default()
            },
        );
        s.set_segmentation(seg.clone());
        s.cluster().expect("cluster");
        let before_refine = s.neighbor_counters();
        s.refine().expect("refine");
        let after_refine = s.neighbor_counters();
        assert!(
            after_refine.0 > before_refine.0,
            "threads {threads}: refinement must count its pair evaluations"
        );
        let result = s.finish().expect("pipeline");
        (result.clustering, s.neighbor_counters())
    };
    let (labels, counters) = run(1);
    assert!(counters.0 > 0, "stratified queries must count evals");
    for threads in [2, 4] {
        let (l, c) = run(threads);
        assert_eq!(l, labels, "threads {threads}: labels");
        assert_eq!(c, counters, "threads {threads}: (evals, pruned, skipped)");
    }
}

#[test]
fn mean_fallback_counts_its_pairwise_pass() {
    use fieldclust::{EpsilonSource, NeighborBackend};
    let trace = corpus::build_trace(Protocol::Smb, 60, 1);
    let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
    let run = |autoconf: AutoConfig| {
        let mut s = AnalysisSession::new(
            &trace,
            FieldTypeClusterer {
                neighbor_backend: NeighborBackend::Stratified,
                autoconf,
                ..FieldTypeClusterer::default()
            },
        );
        s.set_segmentation(seg.clone());
        s.autoconf().expect("autoconf");
        let n = s.store().expect("store").segments.len() as u64;
        (s.epsilon_source(), s.neighbor_counters().0, n)
    };
    let (source, knee_evals, n) = run(AutoConfig::default());
    assert_eq!(source, Some(EpsilonSource::Knee));
    // A cutoff of 0 starves every k-NN ECDF, so ε falls back to half
    // the mean of all n(n−1)/2 pairs, computed without a matrix.
    let (source, fallback_evals, _) = run(AutoConfig {
        max_dissimilarity: Some(0.0),
        ..AutoConfig::default()
    });
    assert_eq!(source, Some(EpsilonSource::MeanFallback));
    assert_eq!(fallback_evals - knee_evals, n * (n - 1) / 2);
}

#[test]
fn trimmed_rerun_reselects_without_neighbor_queries() {
    use dissim::{NeighborProvider, QueryCounters, StratifiedProvider};
    use fieldclust::{EpsilonSource, NeighborBackend};
    use std::sync::Arc;
    let trace = corpus::build_trace(Protocol::Smb, 100, 1);
    let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
    for threads in [1, 4] {
        let config = FieldTypeClusterer {
            neighbor_backend: NeighborBackend::Stratified,
            threads,
            ..FieldTypeClusterer::default()
        };
        let mut s = AnalysisSession::new(&trace, config.clone());
        s.set_segmentation(seg.clone());
        let first = s.autoconf().expect("autoconf").clone();
        let after_autoconf = s.neighbor_counters();
        s.cluster().expect("cluster");
        assert_eq!(
            s.epsilon_source(),
            Some(EpsilonSource::TrimmedKnee),
            "the fixture must fire the §III-E rerun"
        );
        let rerun = s.autoconf().expect("re-selected").clone();
        let after_cluster = s.neighbor_counters();

        // Replay the stage's one region-table build at the first ε on
        // fresh counters. The stage moved the session's counters by
        // exactly that much, so neither the re-selection nor the rerun
        // at ε′ issued a neighbor query.
        let store = s.store().expect("store").clone();
        let values: Vec<&[u8]> = store.segments.iter().map(|x| &x.value[..]).collect();
        let weights = store.occurrence_counts();
        let counters = Arc::new(QueryCounters::new());
        let index = s.strata_index().expect("stratified index");
        let provider = StratifiedProvider::new(&values, &config.dissim, index)
            .with_counters(Arc::clone(&counters));
        let regions = provider.region_table(first.epsilon, threads);
        let (evals, pruned, skipped) = counters.snapshot();
        assert!(evals > 0, "the table build must evaluate the kernel");
        assert_eq!(
            (
                after_cluster.0 - after_autoconf.0,
                after_cluster.1 - after_autoconf.1,
                after_cluster.2 - after_autoconf.2,
            ),
            (evals, pruned, skipped),
            "threads {threads}: cluster stage beyond one region table at the first ε"
        );
        // The rerun from that table reproduces the stage's labels and
        // adds zero to the counters.
        assert!(rerun.epsilon < first.epsilon);
        let rerun_labels = dbscan(&regions, rerun.epsilon, first.min_samples, &weights);
        assert_eq!(counters.snapshot(), (evals, pruned, skipped));
        assert_eq!(
            &rerun_labels,
            s.cluster().expect("cluster"),
            "threads {threads}: rerun labels"
        );
    }
}

#[test]
fn stratified_warm_and_grown_runs_reuse_the_index() {
    use fieldclust::NeighborBackend;
    let dir = cache_dir("strata-warm");
    let full = corpus::build_trace(Protocol::Dns, 120, 29);
    let prefix = Trace::new("prefix", full.messages()[..80].to_vec());
    let config = FieldTypeClusterer {
        neighbor_backend: NeighborBackend::Stratified,
        ..FieldTypeClusterer::default()
    };

    // Cold stratified run persists the index + stage artifacts — and
    // no condensed matrix (no O(u²) structure is ever built).
    let mut cold = truth_session_with(&prefix, config.clone())
        .with_store(&dir)
        .expect("open store");
    let cold_result = cold.finish().expect("cold pipeline");
    assert!(cold.strata_index().is_some());
    let cold_stats = cold.cache_stats().expect("stats");
    assert_eq!(cold_stats.hits, 0, "first stratified run must not hit");
    assert!(cold_stats.writes > 0, "first stratified run must persist");
    let names = || -> Vec<String> {
        std::fs::read_dir(&dir)
            .expect("read cache dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
            .collect()
    };
    assert!(
        names().iter().any(|n| n.starts_with("strata-")),
        "the stratified index must be persisted on disk"
    );
    assert!(
        !names().iter().any(|n| n.starts_with("dissim-")),
        "the stratified path must not persist a condensed matrix"
    );

    // Fully warm rerun: stage artifacts hit; explicitly rebuilding the
    // neighbors stage faults the index in — no misses, no writes.
    let mut warm = truth_session_with(&prefix, config.clone())
        .with_store(&dir)
        .expect("open store");
    let warm_result = warm.finish().expect("warm pipeline");
    warm.ensure_neighbors().expect("fault the index in");
    assert!(warm.strata_index().is_some());
    let stats = warm.cache_stats().expect("stats");
    assert_eq!(
        stats.misses, 0,
        "fully warm stratified run must not miss: {stats}"
    );
    assert_eq!(
        stats.writes, 0,
        "fully warm stratified run must not write: {stats}"
    );
    assert_eq!(warm_result.clustering, cold_result.clustering);
    assert_eq!(
        warm_result.params.epsilon.to_bits(),
        cold_result.params.epsilon.to_bits()
    );

    // Growing the trace extends the cached prefix index instead of
    // rebuilding it — and the grown session equals a cache-less cold
    // one bit for bit.
    let mut grown = truth_session_with(&full, config.clone())
        .with_store(&dir)
        .expect("open store");
    let grown_result = grown.finish().expect("grown pipeline");
    let stats = grown.cache_stats().expect("stats");
    assert_eq!(
        stats.extended, 1,
        "the index must come from a prefix extension: {stats}"
    );
    let mut no_cache = truth_session_with(&full, config);
    let cold_full = no_cache.finish().expect("cold full pipeline");
    assert_eq!(grown_result.clustering, cold_full.clustering);
    assert_eq!(
        grown_result.params.epsilon.to_bits(),
        cold_full.params.epsilon.to_bits()
    );
    // Counter totals are thread-count independent for the same query
    // sequence.
    assert_eq!(
        grown.neighbor_counters(),
        no_cache.neighbor_counters(),
        "grown-vs-cold counter totals"
    );
}

// ----- mmap read-path equivalence: mapped vs heap warm reads -----
//
// The store's zero-copy mmap read path is an I/O strategy, never a
// semantic knob: a warm session served from memory-mapped artifacts
// must produce the same report bytes — and the same ε bits and labels —
// as one served from heap reads of the same files.

#[test]
fn mmap_and_heap_warm_sessions_produce_identical_reports() {
    use fieldclust::report::standard_report;
    let dir = cache_dir("mmap-eq");
    let trace = corpus::build_trace(Protocol::Dns, 100, 28);

    // Cold run populates the cache — through the full report path, so
    // the message-type artifacts are warm too and the two compared
    // runs read everything from the store.
    let mut cold = truth_session(&trace).with_store(&dir).expect("open store");
    standard_report(&trace, &mut cold).expect("cold report");

    let run_warm = |mmap_on: bool| {
        store::mmap::set_enabled(mmap_on);
        let mut warm = truth_session(&trace).with_store(&dir).expect("open store");
        let report = standard_report(&trace, &mut warm).expect("warm report");
        let result = warm.finish().expect("warm pipeline");
        let stats = warm.cache_stats().expect("stats");
        store::mmap::set_enabled(true);
        (report, result, stats)
    };
    let (report_mmap, result_mmap, stats_mmap) = run_warm(true);
    let (report_heap, result_heap, stats_heap) = run_warm(false);

    assert_eq!(
        report_mmap.as_bytes(),
        report_heap.as_bytes(),
        "warm report bytes must not depend on the read path"
    );
    assert_eq!(result_mmap.clustering, result_heap.clustering);
    assert_eq!(
        result_mmap.params.epsilon.to_bits(),
        result_heap.params.epsilon.to_bits()
    );
    assert_eq!(stats_mmap.hits, stats_heap.hits, "same artifacts served");
    assert_eq!(stats_mmap.misses, 0, "fully warm mapped run must not miss");
    assert_eq!(stats_heap.misses, 0, "fully warm heap run must not miss");
    assert_eq!(stats_heap.mmap_reads, 0, "disabled path must never map");

    // And both warm runs equal a cache-less cold session bit for bit.
    let mut warm2 = truth_session(&trace).with_store(&dir).expect("open store");
    let mut no_cache = truth_session(&trace);
    assert_sessions_bit_identical(&mut warm2, &mut no_cache, "mmap-warm-vs-cold");
}

#[test]
fn damaged_tile_degrades_to_recompute() {
    let dir = cache_dir("tiled-corrupt");
    let trace = corpus::build_trace(Protocol::Ntp, 90, 25);
    let gt = corpus::ground_truth(Protocol::Ntp, &trace);
    let seg = truth_segmentation(&trace, &gt);
    let config = FieldTypeClusterer {
        tile_rows: Some(8),
        ..FieldTypeClusterer::default()
    };

    let mut first = AnalysisSession::new(&trace, config.clone());
    first.set_segmentation(seg.clone());
    let mut first = first.with_store(&dir).expect("open store");
    let reference = first.finish().expect("first pipeline");
    let ref_matrix = first.matrix().expect("first matrix").to_matrix();

    // Flip a byte in the middle of every persisted tile; stage
    // artifacts stay intact, so only the tile path is exercised.
    let mut damaged = 0usize;
    for entry in std::fs::read_dir(&dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.starts_with("tile-") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read tile");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("write damaged tile");
        damaged += 1;
    }
    assert!(damaged > 0, "fixture must persist tiles");

    let mut second = AnalysisSession::new(&trace, config);
    second.set_segmentation(seg);
    let mut second = second.with_store(&dir).expect("open store");
    let recomputed = second.finish().expect("damaged tiles must not fail");
    let matrix = second.matrix().expect("recomputed matrix").to_matrix();
    assert_eq!(matrix.len(), ref_matrix.len());
    for (k, (x, y)) in matrix.values().iter().zip(ref_matrix.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "recomputed matrix entry {k} differs ({x} vs {y})"
        );
    }
    assert_eq!(recomputed.clustering, reference.clustering);
    assert_eq!(
        recomputed.params.epsilon.to_bits(),
        reference.params.epsilon.to_bits()
    );
    let stats = second.cache_stats().expect("stats");
    assert!(stats.misses > 0, "damaged tiles must miss: {stats}");
    assert!(
        stats.writes > 0,
        "recomputed tiles must be re-persisted: {stats}"
    );
}

// A report plans message typing, whose segment matrix holds the field
// matrix as its leading block, so under `auto` the field stages read
// that block even on mixed-length segments. The rendered report must not
// tell which backend served the field stages, nor whether a store did.

#[test]
fn auto_reports_read_the_segment_matrix_and_match_every_backend() {
    use fieldclust::report::standard_report;
    use fieldclust::{ArtifactStore, NeighborBackend};
    let backends = [
        (NeighborBackend::Stratified, None),
        (NeighborBackend::Matrix, None),
        (NeighborBackend::Tiled, Some(16)),
    ];
    for (protocol, n) in [
        (Protocol::Dns, 60),
        (Protocol::Smb, 30),
        (Protocol::Awdl, 30),
        (Protocol::Ntp, 60),
    ] {
        let trace = corpus::build_trace(protocol, n, corpus::DEFAULT_SEED);
        let seg = Nemesys::default().segment_trace(&trace).expect("nemesys");
        for threads in [1, 2] {
            for with_store in [false, true] {
                let label = format!("{protocol:?} t={threads} store={with_store}");
                let report = |backend: NeighborBackend, tile_rows: Option<usize>| {
                    let config = FieldTypeClusterer {
                        neighbor_backend: backend,
                        tile_rows,
                        threads,
                        ..FieldTypeClusterer::default()
                    };
                    let mut s = AnalysisSession::new(&trace, config);
                    s.set_segmentation(seg.clone());
                    let dir = cache_dir(&format!("report-{protocol:?}-t{threads}-{backend}"));
                    if with_store {
                        s.set_store(ArtifactStore::open(&dir).expect("open store"));
                    }
                    let md = standard_report(&trace, &mut s).expect("report");
                    let resolved = s.resolved_neighbor_backend().expect("store");
                    let _ = std::fs::remove_dir_all(&dir);
                    (md, resolved, s.neighbor_counters())
                };
                let (auto, resolved, counters) = report(NeighborBackend::Auto, None);
                assert_eq!(resolved, NeighborBackend::Matrix, "{label}: auto resolves");
                assert_eq!(counters, (0, 0, 0), "{label}: no stratified query");
                for (backend, tile_rows) in backends {
                    let (md, _, _) = report(backend, tile_rows);
                    assert_eq!(md, auto, "{label}: {backend} report");
                }
            }
        }
    }
}
