//! The end-to-end field data type clustering pipeline (paper §III).

use crate::segments::SegmentStore;
use crate::session::AnalysisSession;
use cluster::autoconf::{AutoConfig, SelectedParams};
use cluster::dbscan::{Clustering, Label};
use cluster::refine::RefineParams;
use dissim::DissimParams;
use evalkit::Coverage;
use segment::TraceSegmentation;
use std::str::FromStr;
use trace::Trace;

/// Tile height used when the tiled backend is requested explicitly but
/// neither [`tile_rows`](FieldTypeClusterer::tile_rows) nor
/// [`max_memory`](FieldTypeClusterer::max_memory) pins a geometry.
pub const DEFAULT_TILE_ROWS: usize = 256;

/// How ε-region and k-NN queries are answered during clustering.
///
/// Every backend is pinned bit-identical on the final report, so the
/// choice trades memory and wall time only; it never enters cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborBackend {
    /// Pick per trace: the tiled matrix when a tile geometry is
    /// configured ([`tile_rows`](FieldTypeClusterer::tile_rows) or
    /// [`max_memory`](FieldTypeClusterer::max_memory)), the
    /// length-stratified index when segment lengths are mixed, the
    /// monolithic matrix otherwise.
    #[default]
    Auto,
    /// The monolithic in-memory condensed matrix (O(u²) memory):
    /// ε-regions are row scans, k-NN reads come from a
    /// `round(ln u)`-deep table swept off the matrix once.
    Matrix,
    /// The row-block tiled matrix build (bounded peak memory during the
    /// build; the assembled matrix is still O(u²)).
    Tiled,
    /// Length-stratified search answering queries directly from
    /// segment values — no condensed matrix is ever materialized
    /// (O(u) memory): per-length vantage-point forests plus
    /// penalty-aware lower bounds and LAESA pivots across strata. On a
    /// uniform-length corpus the index is a single vp-forest stratum.
    Stratified,
}

impl NeighborBackend {
    /// All selectable backends, for usage strings and error messages.
    pub const NAMES: &'static [&'static str] = &["auto", "matrix", "tiled", "stratified"];
}

impl FromStr for NeighborBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "matrix" => Ok(Self::Matrix),
            "tiled" => Ok(Self::Tiled),
            "stratified" => Ok(Self::Stratified),
            other => Err(format!(
                "unknown neighbor backend '{other}' (expected one of: {})",
                Self::NAMES.join(", ")
            )),
        }
    }
}

impl std::fmt::Display for NeighborBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Auto => "auto",
            Self::Matrix => "matrix",
            Self::Tiled => "tiled",
            Self::Stratified => "stratified",
        })
    }
}

/// How the DBSCAN ε was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpsilonSource {
    /// Knee of the k-NN ECDF (Algorithm 1).
    Knee,
    /// Knee of the ECDF trimmed below the first knee (§III-E multi-knee
    /// fallback, triggered by a dominating cluster).
    TrimmedKnee,
    /// Auto-configuration found no knee; half the mean dissimilarity was
    /// used instead (robustness fallback, not part of the paper).
    MeanFallback,
}

/// The complete pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldTypeClusterer {
    /// Canberra dissimilarity parameters.
    pub dissim: DissimParams,
    /// ε auto-configuration parameters.
    pub autoconf: AutoConfig,
    /// Refinement thresholds.
    pub refine: RefineParams,
    /// Minimum segment length admitted to clustering (the paper excludes
    /// one-byte segments).
    pub min_segment_len: usize,
    /// Threads used for the pairwise dissimilarity matrix.
    pub threads: usize,
    /// A single cluster holding more than this fraction of non-noise
    /// segments triggers the trimmed-ECDF fallback.
    pub large_cluster_fraction: f64,
    /// Row-block height of the tiled dissimilarity build. `Some(r)`
    /// switches the session to the tiled path (tile-granular caching,
    /// per-tile k-NN partials); `None` defers to [`max_memory`]
    /// (`Self::max_memory`), and the monolithic in-memory build when
    /// that is unset too. Tile geometry never changes results (pinned
    /// bit-identical) and never enters cache keys.
    pub tile_rows: Option<usize>,
    /// Approximate peak-memory budget in bytes for the dissimilarity
    /// build. Translated into a tile height of `max(1, bytes / (8·n))`
    /// rows when [`tile_rows`](Self::tile_rows) is unset.
    pub max_memory: Option<u64>,
    /// How neighbor queries are answered during clustering. Never
    /// changes results (pinned bit-identical) and never enters cache
    /// keys.
    pub neighbor_backend: NeighborBackend,
}

impl Default for FieldTypeClusterer {
    fn default() -> Self {
        Self {
            dissim: DissimParams::default(),
            autoconf: AutoConfig::default(),
            refine: RefineParams::default(),
            min_segment_len: 2,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            large_cluster_fraction: 0.6,
            tile_rows: None,
            max_memory: None,
            neighbor_backend: NeighborBackend::default(),
        }
    }
}

/// The pipeline result: pseudo data types over unique segments.
#[derive(Debug, Clone)]
pub struct PseudoTypeClustering {
    /// The unique segments that were clustered (item `i` of the
    /// clustering is `store.segments[i]`).
    pub store: SegmentStore,
    /// Final cluster labels after refinement.
    pub clustering: Clustering,
    /// The auto-configured DBSCAN parameters that produced the result.
    pub params: SelectedParams,
    /// Where ε came from.
    pub epsilon_source: EpsilonSource,
}

impl PseudoTypeClustering {
    /// Byte coverage over the trace: bytes of all instances of segments
    /// that ended up in a cluster (noise and excluded short segments do
    /// not count as inferred).
    pub fn coverage(&self, trace: &Trace) -> Coverage {
        let mut covered = 0u64;
        for (seg, label) in self.store.segments.iter().zip(self.clustering.labels()) {
            if matches!(label, Label::Cluster(_)) {
                covered += seg
                    .instances
                    .iter()
                    .map(|i| i.range.len() as u64)
                    .sum::<u64>();
            }
        }
        Coverage {
            covered_bytes: covered,
            total_bytes: trace.total_payload_bytes() as u64,
        }
    }

    /// The values grouped per cluster, for inspection and reporting.
    pub fn cluster_values(&self) -> Vec<Vec<&[u8]>> {
        self.clustering
            .clusters()
            .into_iter()
            .map(|members| {
                members
                    .into_iter()
                    .map(|i| &self.store.segments[i].value[..])
                    .collect()
            })
            .collect()
    }
}

/// Error from [`FieldTypeClusterer::cluster_trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Too few clusterable unique segments to analyze.
    TooFewSegments {
        /// How many unique segments of sufficient length were found.
        n: usize,
    },
    /// A staged [`AnalysisSession`] was asked for a post-segmentation
    /// artifact before a segmentation was installed.
    MissingSegmentation,
    /// The session's [`CancelToken`](crate::CancelToken) tripped
    /// (explicit cancel or deadline) between stages. Artifacts computed
    /// before the trip stay cached; re-driving the session resumes from
    /// them.
    Cancelled,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::TooFewSegments { n } => {
                write!(f, "too few unique segments for clustering ({n} < 4)")
            }
            PipelineError::MissingSegmentation => {
                write!(f, "no segmentation installed (run the segment stage first)")
            }
            PipelineError::Cancelled => {
                write!(f, "analysis cancelled (token tripped or deadline passed)")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl FieldTypeClusterer {
    /// Runs the pipeline on a preprocessed trace and its segmentation.
    ///
    /// This is a convenience wrapper that drives a staged
    /// [`AnalysisSession`] through all remaining stages; use a session
    /// directly to inspect or reuse intermediate artifacts (the
    /// dissimilarity matrix, the k-NN table, the pre-refinement
    /// clustering, …).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::TooFewSegments`] when fewer than four
    /// unique segments of sufficient length exist.
    pub fn cluster_trace(
        &self,
        trace: &Trace,
        segmentation: &TraceSegmentation,
    ) -> Result<PseudoTypeClustering, PipelineError> {
        let mut session = AnalysisSession::new(trace, self.clone());
        session.set_segmentation(segmentation.clone());
        session.finish()
    }

    /// The tile height of the tiled dissimilarity build over `n`
    /// unique segments, or `None` for the monolithic in-memory build.
    /// An explicit [`tile_rows`](Self::tile_rows) wins; otherwise a
    /// [`max_memory`](Self::max_memory) budget buys `bytes / (8·n)`
    /// rows (a bottom-of-triangle tile holds at most `rows·n` f64
    /// entries), clamped to at least one row per tile.
    pub fn effective_tile_rows(&self, n: usize) -> Option<usize> {
        if let Some(rows) = self.tile_rows {
            return Some(rows.max(1));
        }
        let budget = self.max_memory?;
        let per_row = 8 * n.max(1) as u64;
        Some(((budget / per_row) as usize).max(1))
    }

    /// Resolves [`neighbor_backend`](Self::neighbor_backend) for a trace
    /// of `n` unique segments: `Auto` becomes `Tiled` when a tile
    /// geometry is configured and `Matrix` otherwise; explicit choices
    /// pass through. Never returns [`NeighborBackend::Auto`].
    ///
    /// This length-agnostic form resolves `Auto` as if segment lengths
    /// were uniform; callers that know whether the corpus is
    /// mixed-length should use
    /// [`resolved_backend_mixed`](Self::resolved_backend_mixed).
    pub fn resolved_backend(&self, n: usize) -> NeighborBackend {
        self.resolved_backend_mixed(n, false)
    }

    /// Resolves [`neighbor_backend`](Self::neighbor_backend) with the
    /// corpus's length profile in hand: `Auto` becomes `Tiled` when a
    /// tile geometry is configured, else `Stratified` when `mixed` (the
    /// segments vary in length, which the stratified index prunes
    /// across), else `Matrix`. Explicit choices pass through.
    /// Never returns [`NeighborBackend::Auto`].
    pub fn resolved_backend_mixed(&self, n: usize, mixed: bool) -> NeighborBackend {
        match self.neighbor_backend {
            NeighborBackend::Auto => {
                if self.effective_tile_rows(n).is_some() {
                    NeighborBackend::Tiled
                } else if mixed {
                    NeighborBackend::Stratified
                } else {
                    NeighborBackend::Matrix
                }
            }
            explicit => explicit,
        }
    }

    /// The tile height of the dissimilarity build under the resolved
    /// backend: `Some(rows)` exactly when the resolved backend is
    /// [`NeighborBackend::Tiled`], falling back to
    /// [`DEFAULT_TILE_ROWS`] when the backend was forced without a
    /// configured geometry. `None` for the matrix and stratified
    /// backends.
    pub(crate) fn tiled_rows(&self, n: usize) -> Option<usize> {
        match self.resolved_backend(n) {
            NeighborBackend::Tiled => {
                Some(self.effective_tile_rows(n).unwrap_or(DEFAULT_TILE_ROWS))
            }
            _ => None,
        }
    }

    /// Checks for a cluster holding more than `large_cluster_fraction`
    /// of the non-noise segments — occurrence-weighted, consistent with
    /// the multiset view.
    pub(crate) fn has_dominating_cluster(
        &self,
        clustering: &Clustering,
        weights: &[usize],
    ) -> bool {
        let clusters = clustering.clusters();
        let cluster_weight = |c: &[usize]| -> usize { c.iter().map(|&i| weights[i]).sum() };
        let non_noise: usize = clusters.iter().map(|c| cluster_weight(c)).sum();
        if non_noise == 0 {
            return false;
        }
        clusters
            .iter()
            .any(|c| cluster_weight(c) as f64 > self.large_cluster_fraction * non_noise as f64)
    }

    /// Fallback parameters when no knee exists: half the mean pairwise
    /// dissimilarity, `min_samples = round(ln n)`. The caller supplies
    /// the mean from whatever backend it has on hand —
    /// `CondensedMatrix::mean` and `kernel::pairwise_mean` are pinned
    /// bit-identical.
    pub(crate) fn mean_fallback(&self, mean: Option<f64>, n: usize) -> SelectedParams {
        let epsilon = mean.unwrap_or(0.0) / 2.0;
        SelectedParams {
            epsilon,
            min_samples: ((n as f64).ln().round() as usize).max(2),
            k: 2,
            ecdf_values: Vec::new(),
            smoothed_curve: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::truth_segmentation;
    use protocols::{corpus, Protocol};
    use segment::nemesys::Nemesys;
    use segment::Segmenter;

    fn run(protocol: Protocol, n: usize, seed: u64) -> (Trace, PseudoTypeClustering) {
        let trace = corpus::build_trace(protocol, n, seed);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let result = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        (trace, result)
    }

    #[test]
    fn ntp_pipeline_produces_clusters() {
        let (trace, result) = run(Protocol::Ntp, 60, 1);
        assert!(
            result.clustering.n_clusters() >= 2,
            "n = {}",
            result.clustering.n_clusters()
        );
        let cov = result.coverage(&trace);
        assert!(cov.ratio() > 0.3, "coverage = {}", cov.ratio());
        assert!(result.params.epsilon > 0.0);
    }

    #[test]
    fn heuristic_segmentation_also_works() {
        let trace = corpus::build_trace(Protocol::Dns, 60, 2);
        let seg = Nemesys::default().segment_trace(&trace).unwrap();
        let result = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        assert!(result.clustering.n_clusters() >= 1);
    }

    #[test]
    fn too_few_segments_is_an_error() {
        let trace = corpus::build_trace(Protocol::Ntp, 60, 3);
        // Absurd minimum length excludes everything.
        let clusterer = FieldTypeClusterer {
            min_segment_len: 1000,
            ..FieldTypeClusterer::default()
        };
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let seg = truth_segmentation(&trace, &gt);
        assert!(matches!(
            clusterer.cluster_trace(&trace, &seg),
            Err(PipelineError::TooFewSegments { .. })
        ));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let (_, a) = run(Protocol::Dns, 40, 4);
        let (_, b) = run(Protocol::Dns, 40, 4);
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.params.epsilon, b.params.epsilon);
    }

    #[test]
    fn cluster_values_expose_member_bytes() {
        let (_, result) = run(Protocol::Ntp, 50, 5);
        let values = result.cluster_values();
        assert_eq!(values.len(), result.clustering.n_clusters() as usize);
        for members in &values {
            assert!(!members.is_empty());
        }
    }

    #[test]
    fn max_memory_derives_tile_rows() {
        let mut c = FieldTypeClusterer::default();
        assert_eq!(c.effective_tile_rows(100), None);
        c.max_memory = Some(8 * 100 * 16);
        assert_eq!(c.effective_tile_rows(100), Some(16));
        c.max_memory = Some(1); // below one row: clamp, never zero
        assert_eq!(c.effective_tile_rows(100), Some(1));
        c.tile_rows = Some(0); // explicit setting wins, clamped
        assert_eq!(c.effective_tile_rows(100), Some(1));
        c.tile_rows = Some(64);
        assert_eq!(c.effective_tile_rows(100), Some(64));
    }

    #[test]
    fn neighbor_backend_parses_and_displays() {
        for name in NeighborBackend::NAMES {
            let parsed: NeighborBackend = name.parse().unwrap();
            assert_eq!(parsed.to_string(), *name);
        }
        assert!("vp-tree".parse::<NeighborBackend>().is_err());
        // The vantage-point backend is gone; its name no longer parses.
        assert!("vptree".parse::<NeighborBackend>().is_err());
        assert_eq!(NeighborBackend::default(), NeighborBackend::Auto);
    }

    #[test]
    fn auto_backend_follows_tile_geometry() {
        let mut c = FieldTypeClusterer::default();
        assert_eq!(c.resolved_backend(100), NeighborBackend::Matrix);
        assert_eq!(c.tiled_rows(100), None);
        c.tile_rows = Some(16);
        assert_eq!(c.resolved_backend(100), NeighborBackend::Tiled);
        assert_eq!(c.tiled_rows(100), Some(16));
        // Explicit choices win over geometry.
        c.neighbor_backend = NeighborBackend::Stratified;
        assert_eq!(c.resolved_backend(100), NeighborBackend::Stratified);
        assert_eq!(c.tiled_rows(100), None);
        c.neighbor_backend = NeighborBackend::Matrix;
        assert_eq!(c.resolved_backend(100), NeighborBackend::Matrix);
        // Forced tiled without a geometry gets the default tile height.
        c.neighbor_backend = NeighborBackend::Tiled;
        c.tile_rows = None;
        assert_eq!(c.tiled_rows(100), Some(DEFAULT_TILE_ROWS));
    }

    #[test]
    fn auto_backend_follows_length_profile() {
        let mut c = FieldTypeClusterer::default();
        // Uniform lengths keep the monolithic matrix default.
        assert_eq!(
            c.resolved_backend_mixed(100, false),
            NeighborBackend::Matrix
        );
        // Mixed lengths pick the stratified index.
        assert_eq!(
            c.resolved_backend_mixed(100, true),
            NeighborBackend::Stratified
        );
        // A configured tile geometry still wins over the length profile.
        c.tile_rows = Some(16);
        assert_eq!(c.resolved_backend_mixed(100, true), NeighborBackend::Tiled);
        // Explicit choices pass through regardless of lengths.
        c.tile_rows = None;
        c.neighbor_backend = NeighborBackend::Stratified;
        assert_eq!(
            c.resolved_backend_mixed(100, false),
            NeighborBackend::Stratified
        );
        assert_eq!(c.tiled_rows(100), None);
        c.neighbor_backend = NeighborBackend::Matrix;
        assert_eq!(c.resolved_backend_mixed(100, true), NeighborBackend::Matrix);
    }

    #[test]
    fn coverage_excludes_noise_and_short_segments() {
        let (trace, result) = run(Protocol::Ntp, 50, 6);
        let cov = result.coverage(&trace);
        assert!(cov.covered_bytes <= cov.total_bytes);
        // NTP has four 1-byte header fields per message that can never be
        // covered.
        assert!(cov.ratio() < 1.0);
    }
}
