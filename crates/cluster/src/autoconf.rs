//! Automatic DBSCAN parameter selection (paper §III-D, Algorithm 1).
//!
//! For each `k` from 2 to `round(ln n)` the algorithm builds the ECDF of
//! every segment's k-NN dissimilarity, smooths it with a least-squares
//! cubic B-spline, and measures the sharpness of its steepest step. The
//! `k` with the sharpest step wins; Kneedle then locates the rightmost
//! knee of that smoothed ECDF and its dissimilarity becomes DBSCAN's ε.
//! `min_samples` is `round(ln n)`, which the paper found sufficient to
//! avoid scattering large traces into many small clusters.

use dissim::KnnTable;
use mathkit::kneedle::{detect_knees, KneedleParams};
use mathkit::SmoothingSpline;

/// Tunables of the auto-configuration. The defaults mirror the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoConfig {
    /// Kneedle sensitivity `S`.
    pub sensitivity: f64,
    /// Spline smoothing: number of interior knots of the least-squares
    /// cubic B-spline (our mapping of the original's SciPy `s`
    /// parameter; fewer knots → smoother, see DESIGN.md §4.5).
    pub smoothing_knots: usize,
    /// Number of grid points the smoothed ECDF is sampled on for knee
    /// detection.
    pub grid_points: usize,
    /// Only consider dissimilarities strictly below this cutoff, for the
    /// multi-knee fallback of §III-E (`Ê'_k = Ê_k({d < d_κ})`).
    pub max_dissimilarity: Option<f64>,
}

impl Default for AutoConfig {
    fn default() -> Self {
        Self {
            sensitivity: 1.0,
            smoothing_knots: 12,
            grid_points: 200,
            max_dissimilarity: None,
        }
    }
}

/// The selected DBSCAN parameters plus diagnostics for plotting (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedParams {
    /// DBSCAN radius: the dissimilarity at the detected knee.
    pub epsilon: f64,
    /// DBSCAN density threshold: `round(ln n)`, at least 2.
    pub min_samples: usize,
    /// The `k` whose ECDF had the sharpest knee.
    pub k: usize,
    /// Sorted k-NN dissimilarities of the winning `k` (the raw ECDF
    /// support; y values are `(i+1)/n`).
    pub ecdf_values: Vec<f64>,
    /// The smoothed ECDF sampled on a uniform dissimilarity grid:
    /// `(dissimilarity, cumulative fraction)` pairs.
    pub smoothed_curve: Vec<(f64, f64)>,
}

/// Error from [`auto_configure`].
#[derive(Debug, Clone, PartialEq)]
pub enum AutoConfError {
    /// Fewer than four unique segments — too few for k-NN statistics.
    TooFewSegments {
        /// How many segments were provided.
        n: usize,
    },
    /// All pairwise dissimilarities are (nearly) identical, so no knee
    /// exists.
    DegenerateDistribution,
    /// The `max_dissimilarity` trim left fewer than four ECDF points for
    /// every candidate `k`, so the spline knee search cannot run. This
    /// is a property of the trim cutoff, not of the data — callers
    /// retrying §III-E's trimmed rerun should fall back to the untrimmed
    /// selection instead of treating the trace as degenerate.
    TooFewEcdfPoints {
        /// Points remaining after the trim for the best-populated `k`.
        points: usize,
    },
    /// No knee was detected in any k-NN ECDF.
    NoKnee,
}

impl std::fmt::Display for AutoConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoConfError::TooFewSegments { n } => {
                write!(f, "too few segments for auto-configuration ({n} < 4)")
            }
            AutoConfError::DegenerateDistribution => {
                write!(f, "dissimilarity distribution is degenerate")
            }
            AutoConfError::TooFewEcdfPoints { points } => {
                write!(
                    f,
                    "max-dissimilarity trim left too few ECDF points ({points} < 4) for every k"
                )
            }
            AutoConfError::NoKnee => write!(f, "no knee detected in any k-NN ECDF"),
        }
    }
}

impl std::error::Error for AutoConfError {}

/// The largest `k` Algorithm 1 will query for `n` items — what a
/// [`KnnTable`] must be built with (at least) for [`auto_configure`].
pub fn required_k_max(n: usize) -> usize {
    let min_samples = ((n as f64).ln().round() as usize).max(2);
    min_samples.min(n.saturating_sub(1)).max(1)
}

/// Runs Algorithm 1: selects ε and `min_samples` with the k-NN
/// dissimilarities read off a precomputed [`KnnTable`] — from any
/// backend's
/// [`NeighborProvider::knn_table`](dissim::NeighborProvider::knn_table)
/// or merged per-tile partials — in place of a k-NN sweep per
/// candidate `k`.
///
/// Every backend's table holds the same k-th order statistics a matrix
/// scan produces, so each selects exactly the parameters a matrix scan
/// would.
///
/// # Panics
///
/// Panics if the table was built with `k_max <`
/// [`required_k_max`]`(table.len())`.
///
/// # Errors
///
/// See [`AutoConfError`].
pub fn auto_configure(
    table: &KnnTable,
    config: &AutoConfig,
) -> Result<SelectedParams, AutoConfError> {
    let n = table.len();
    assert!(
        n < 4 || table.k_max() >= required_k_max(n),
        "knn table too shallow for auto-configuration"
    );
    auto_configure_impl(n, |k| table.knn_dissimilarities(k), config)
}

/// Shared core of Algorithm 1. `knn` returns each item's k-th nearest
/// neighbor dissimilarity (in any item order — the values are sorted
/// before use).
fn auto_configure_impl(
    n: usize,
    knn: impl Fn(usize) -> Vec<f64>,
    config: &AutoConfig,
) -> Result<SelectedParams, AutoConfError> {
    if n < 4 {
        return Err(AutoConfError::TooFewSegments { n });
    }
    let min_samples = ((n as f64).ln().round() as usize).max(2);
    let k_max = min_samples.min(n - 1);

    let mut best: Option<(f64, usize, Vec<f64>, SmoothingSpline)> = None;
    // Track how the max-dissimilarity trim starved candidate ks, so a
    // cutoff that leaves nothing to fit is reported as such instead of
    // masquerading as a degenerate distribution.
    let mut trim_starved = 0usize;
    let mut trim_best_points = 0usize;
    for k in 2..=k_max {
        let mut knn = knn(k);
        if let Some(cutoff) = config.max_dissimilarity {
            knn.retain(|&d| d < cutoff);
            if knn.len() < 4 {
                trim_starved += 1;
                trim_best_points = trim_best_points.max(knn.len());
                continue;
            }
        }
        knn.sort_by(|a, b| a.partial_cmp(b).expect("dissimilarities are not NaN"));
        let span = knn.last().unwrap() - knn.first().unwrap();
        if span <= f64::EPSILON {
            continue;
        }
        // Smooth the quantile view (fraction → dissimilarity): x is the
        // strictly increasing cumulative fraction, so the spline fit is
        // well-posed even with tied dissimilarities.
        let m = knn.len();
        let fracs: Vec<f64> = (1..=m).map(|i| i as f64 / m as f64).collect();
        let Ok(spline) = SmoothingSpline::fit(&fracs, &knn, config.smoothing_knots) else {
            continue;
        };
        // Sharpness: the largest increase in distance between adjacent
        // grid points of the smoothed curve (max δB_k).
        let grid = config.grid_points.max(8);
        let samples: Vec<f64> = (0..grid)
            .map(|i| spline.eval(fracs[0] + (1.0 - fracs[0]) * i as f64 / (grid - 1) as f64))
            .collect();
        let sharpness = samples
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::NEG_INFINITY, f64::max);
        let replace = match &best {
            None => true,
            Some((s, _, _, _)) => sharpness > *s,
        };
        if replace {
            best = Some((sharpness, k, knn, spline));
        }
    }
    let (_, k, knn, spline) = match best {
        Some(found) => found,
        None if trim_starved == k_max - 1 => {
            // Every candidate k (there are k_max - 1 of them) was starved
            // by the trim: the cutoff is the problem, not the data.
            return Err(AutoConfError::TooFewEcdfPoints {
                points: trim_best_points,
            });
        }
        None => return Err(AutoConfError::DegenerateDistribution),
    };

    // Sample the smoothed ECDF: x = smoothed dissimilarity (monotonized),
    // y = cumulative fraction.
    let m = knn.len();
    let grid = config.grid_points.max(8);
    let f0 = 1.0 / m as f64;
    let mut xs = Vec::with_capacity(grid);
    let mut ys = Vec::with_capacity(grid);
    let mut running_max = f64::NEG_INFINITY;
    for i in 0..grid {
        let frac = f0 + (1.0 - f0) * i as f64 / (grid - 1) as f64;
        let d = spline.eval(frac);
        running_max = running_max.max(d);
        xs.push(running_max);
        ys.push(frac);
    }
    let params = KneedleParams {
        sensitivity: config.sensitivity,
    };
    let knees = detect_knees(&xs, &ys, &params);
    let knee = knees.last().copied().ok_or(AutoConfError::NoKnee)?;

    Ok(SelectedParams {
        epsilon: knee.x,
        min_samples,
        k,
        ecdf_values: knn,
        smoothed_curve: xs.into_iter().zip(ys).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dissim::{CondensedMatrix, MatrixProvider};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 1 over a matrix's k-NN table.
    fn from_matrix(
        m: &CondensedMatrix,
        config: &AutoConfig,
    ) -> Result<SelectedParams, AutoConfError> {
        auto_configure(&m.knn_table(required_k_max(m.len())), config)
    }

    /// Synthetic data: `clusters` groups of points on a line with
    /// intra-cluster jitter `jitter` and inter-cluster spacing `gap`.
    fn blobs(clusters: usize, per: usize, jitter: f64, gap: f64, seed: u64) -> CondensedMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for c in 0..clusters {
            for _ in 0..per {
                pts.push(c as f64 * gap + rng.gen_range(-jitter..jitter));
            }
        }
        CondensedMatrix::build(pts.len(), |i, j| (pts[i] - pts[j]).abs())
    }

    #[test]
    fn epsilon_separates_well_spaced_blobs() {
        let m = blobs(5, 20, 0.05, 10.0, 1);
        let p = from_matrix(&m, &AutoConfig::default()).unwrap();
        // ε must be positive and smaller than the inter-blob gap (10) —
        // k-NN distances are all intra-cluster here, so the knee sits at
        // the intra-cluster scale.
        assert!(p.epsilon > 0.0 && p.epsilon < 10.0, "eps = {}", p.epsilon);
        assert_eq!(p.min_samples, ((100f64).ln().round()) as usize);
        assert!(p.k >= 2 && p.k <= p.min_samples);
        // Clustering with those parameters may over-classify (the knee
        // sits at the intra-cluster scale); merge refinement must then
        // recover exactly the 5 blobs — the paper's full §III-D..F loop.
        let c = crate::testkit::dbscan_unit(&m, p.epsilon, p.min_samples);
        assert!(c.n_clusters() >= 5, "got {} clusters", c.n_clusters());
        let merged = crate::refine::merge_clusters(
            &c,
            &MatrixProvider::new(&m),
            &crate::refine::RefineParams::default(),
            1,
        );
        assert_eq!(merged.n_clusters(), 5);
    }

    #[test]
    fn provider_tables_select_like_the_matrix_scan() {
        use dissim::{DissimParams, NeighborProvider, StrataIndex, StratifiedProvider};
        // Mixed-length segments, so the stratified provider crosses
        // strata; the matrix oracle scans every row for every k.
        let segs: Vec<Vec<u8>> = (0..60usize)
            .map(|i| {
                let len = [1usize, 2, 2, 4, 4, 8][i % 6];
                (0..len).map(|b| ((i / 6) * 9 + b * 3) as u8).collect()
            })
            .collect();
        let values: Vec<&[u8]> = segs.iter().map(|s| &s[..]).collect();
        let params = DissimParams::default();
        let m = CondensedMatrix::build(values.len(), |i, j| {
            dissim::dissimilarity(values[i], values[j], &params)
        });
        let index = StrataIndex::build(&values, &params, 16);
        let provider = StratifiedProvider::new(&values, &params, &index);
        let k_max = required_k_max(m.len());
        for config in [
            AutoConfig::default(),
            AutoConfig {
                max_dissimilarity: Some(0.3),
                ..AutoConfig::default()
            },
        ] {
            let scan = auto_configure_impl(m.len(), |k| m.knn_dissimilarities(k), &config);
            for threads in [1usize, 4] {
                let table = provider.knn_table(k_max, threads);
                assert_eq!(scan, auto_configure(&table, &config), "threads = {threads}");
            }
        }
    }

    #[test]
    fn rejects_tiny_inputs() {
        let m = CondensedMatrix::build(3, |_, _| 1.0);
        assert!(matches!(
            from_matrix(&m, &AutoConfig::default()),
            Err(AutoConfError::TooFewSegments { n: 3 })
        ));
    }

    #[test]
    fn knn_table_autoconf_matches_matrix_scan() {
        let m = blobs(4, 18, 0.08, 7.0, 5);
        let table = m.knn_table(required_k_max(m.len()));
        for config in [
            AutoConfig::default(),
            AutoConfig {
                max_dissimilarity: Some(1.0),
                ..AutoConfig::default()
            },
        ] {
            // The row-scan oracle: one order-statistic selection per
            // item and candidate k.
            let scan = auto_configure_impl(m.len(), |k| m.knn_dissimilarities(k), &config);
            assert_eq!(scan, from_matrix(&m, &config));
            assert_eq!(scan, auto_configure(&table, &config));
        }
    }

    #[test]
    fn trim_starving_every_k_reports_structured_error() {
        let m = blobs(5, 20, 0.05, 10.0, 1);
        // A cutoff below every dissimilarity starves the ECDF of every
        // candidate k: the error must name the trim, not the data.
        let starved = from_matrix(
            &m,
            &AutoConfig {
                max_dissimilarity: Some(0.0),
                ..AutoConfig::default()
            },
        );
        assert_eq!(starved, Err(AutoConfError::TooFewEcdfPoints { points: 0 }));
    }

    #[test]
    fn rejects_degenerate_distribution() {
        // All points identical -> all distances zero -> no knee.
        let m = CondensedMatrix::build(30, |_, _| 0.0);
        assert!(matches!(
            from_matrix(&m, &AutoConfig::default()),
            Err(AutoConfError::DegenerateDistribution)
        ));
    }

    #[test]
    fn trimmed_rerun_moves_epsilon_left() {
        let m = blobs(4, 25, 0.05, 5.0, 2);
        let first = from_matrix(&m, &AutoConfig::default()).unwrap();
        let trimmed = from_matrix(
            &m,
            &AutoConfig {
                max_dissimilarity: Some(first.epsilon),
                ..AutoConfig::default()
            },
        );
        if let Ok(second) = trimmed {
            assert!(
                second.epsilon <= first.epsilon,
                "{} > {}",
                second.epsilon,
                first.epsilon
            );
        }
    }

    #[test]
    fn diagnostics_are_consistent() {
        let m = blobs(3, 30, 0.1, 8.0, 3);
        let p = from_matrix(&m, &AutoConfig::default()).unwrap();
        assert_eq!(p.ecdf_values.len(), 90);
        assert!(p.ecdf_values.windows(2).all(|w| w[0] <= w[1]));
        assert!(!p.smoothed_curve.is_empty());
        // Smoothed x values are monotone.
        assert!(p.smoothed_curve.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn min_samples_follows_ln_n() {
        let m = blobs(2, 10, 0.05, 10.0, 4); // n = 20 -> ln 20 ≈ 3
        let p = from_matrix(&m, &AutoConfig::default()).unwrap();
        assert_eq!(p.min_samples, 3);
    }
}
