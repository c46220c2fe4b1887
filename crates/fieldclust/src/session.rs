//! The staged analysis session: one trace, one set of cached artifacts.
//!
//! [`FieldTypeClusterer::cluster_trace`] runs the whole §III pipeline in
//! one shot, which is right for batch evaluation but wasteful for
//! everything else: diagnostics want the dissimilarity matrix *and* the
//! clustering, reports want field types *and* message types, and every
//! one of those consumers used to rebuild the O(n²) matrix from scratch.
//!
//! [`AnalysisSession`] decomposes the pipeline into explicit stages —
//!
//! ```text
//! preprocess → segment → dedup → matrix → neighbors → autoconf → cluster → refine
//! ```
//!
//! — each of which computes its artifact at most once and caches it for
//! every later stage and every external consumer. The dissimilarity
//! stage produces a shared [`DissimArtifact`] (the condensed matrix);
//! the neighbors stage ([`AnalysisSession::ensure_neighbors`]) builds
//! what the resolved [`NeighborBackend`] answers queries from. The
//! matrix-backed backends need only a [`KnnTable`] of depth
//! [`required_k_max`] — Algorithm 1 reads each segment's k-th-nearest
//! dissimilarity for a handful of `k` — built in one linear sweep of
//! the condensed triangle, while ε-regions are plain matrix row scans
//! ([`MatrixProvider`]). The stratified backend answers both query
//! kinds from per-length vantage-point forests over the segment values
//! ([`StratifiedProvider`]), skipping the matrix stage (and its O(u²)
//! memory) entirely; its autoconf stage builds the same table from one
//! `required_k_max`-deep k-NN query per segment. Every backend selects
//! ε, and reruns the §III-E trimmed selection, from that one table per
//! session. The autoconf, cluster, and refine stages consume neighbors
//! only through the session's one [`NeighborProvider`], so every
//! backend is pinned bit-identical. With a tile height configured
//! ([`FieldTypeClusterer::tile_rows`] or
//! [`FieldTypeClusterer::max_memory`]) the matrix stage instead
//! computes, persists, and faults in fixed-height row tiles and merges
//! per-tile k-NN partials into the same table — bit-identical to the
//! monolithic build either way.
//!
//! Message type identification ([`AnalysisSession::message_types`])
//! rides on the same session: one segment store and one segment matrix
//! serve both analyses. Message typing aligns over every unique segment,
//! numbered `segments ++ excluded` of the store, so the field matrix
//! (the clusterable `segments` only) is the leading block of its
//! segment matrix. When message typing is known to follow — a report
//! plans it — the matrix stage builds the segment matrix right away,
//! the `auto` backend resolves to the matrix, and the field stages read
//! its leading block through a [prefix view](CondensedMatrix::prefix);
//! otherwise message typing extends the field matrix by the excluded
//! rows, or builds the segment matrix when the field side built none.
//!
//! Stages are driven on demand: asking for a late artifact (say
//! [`refine`](AnalysisSession::refine)) runs every missing earlier
//! stage. Replacing the segmentation invalidates all downstream
//! artifacts. Every stage run is measured into one record
//! ([`AnalysisSession::take_stage_record`]). A session kept to serve
//! later requests [`park`](AnalysisSession::park)s: it keeps the
//! refined clustering and the message types and drops the matrices,
//! tables and indexes that built them.
//!
//! # Examples
//!
//! ```
//! use fieldclust::{AnalysisSession, FieldTypeClusterer, truth};
//! use protocols::{corpus, Protocol};
//!
//! let trace = corpus::build_trace(Protocol::Ntp, 60, 7);
//! let gt = corpus::ground_truth(Protocol::Ntp, &trace);
//!
//! let mut session = AnalysisSession::new(&trace, FieldTypeClusterer::default());
//! session.set_segmentation(truth::truth_segmentation(&trace, &gt));
//!
//! // Stages run once, on demand, and are cached:
//! let n_unique = session.store()?.segments.len();
//! assert_eq!(session.matrix()?.len(), n_unique);
//! let eps = session.autoconf()?.epsilon;
//!
//! let result = session.finish()?;
//! assert_eq!(result.params.epsilon, eps);
//! # Ok::<(), fieldclust::PipelineError>(())
//! ```

use std::borrow::Cow;
use std::convert::Infallible;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{self, ClusterStageArtifact, RefinedArtifact, SelectionArtifact};
use crate::cancel::CancelToken;
use crate::fsm::{self, StateMachineConfig};
use crate::msgtype::{self, MessageTypeConfig, MessageTypeError, MessageTypes};
use crate::pipeline::{
    EpsilonSource, FieldTypeClusterer, NeighborBackend, PipelineError, PseudoTypeClustering,
};
use crate::segments::SegmentStore;
use crate::stages::{Stage, StageRecord, StageTotals};
use cluster::autoconf::{
    auto_configure, required_k_max, AutoConfError, AutoConfig, SelectedParams,
};
use cluster::dbscan::{dbscan, Clustering};
use cluster::refine::{merge_clusters, split_clusters};
use dissim::kernel::pairwise_mean;
use dissim::{
    CondensedMatrix, DissimArtifact, KnnTable, MatrixProvider, MatrixTile, MatrixView,
    NeighborProvider, QueryCounters, RegionTable, StrataIndex, StratifiedProvider, TiledMatrix,
};
use segment::{SegmentError, Segmenter, TraceSegmentation};
use store::{ArtifactStore, Key, Kind, StoreStats};
use trace::{Preprocessor, Trace};

/// A staged run of the analysis pipeline over one trace.
///
/// See the [module docs](self) for the stage graph and an example.
#[derive(Debug, Clone)]
pub struct AnalysisSession<'t> {
    config: FieldTypeClusterer,
    trace: Cow<'t, Trace>,
    // Stage artifacts, in dependency order. `None` = not yet computed.
    segmentation: Option<TraceSegmentation>,
    store: Option<SegmentStore>,
    // The segment matrix: over the store's `segments`, or over
    // `segments ++ excluded` once message typing reads it. The field
    // stages read its leading `segments.len()` block.
    dissim: Option<DissimArtifact>,
    // Each segment's `required_k_max` nearest dissimilarities, serving
    // the autoconf ECDFs and the §III-E trimmed rerun on every backend:
    // merged from per-tile partials at the tiled build's barrier, swept
    // off the monolithic matrix by the neighbors stage, or queried once
    // per segment through the stratified provider by the autoconf stage.
    knn: Option<KnnTable>,
    // The length-stratified neighbor index; present only when the
    // stratified backend is resolved. Replaces the matrix entirely:
    // per-length VP forests plus LAESA pivot tables, O(u) memory.
    strata: Option<StrataIndex>,
    // Cumulative neighbor-query counters (kernel evaluations, pruned
    // candidates, skipped strata), shared with every stratified
    // provider the session builds. Clones of the session share the
    // same counters.
    neighbor_counters: Arc<QueryCounters>,
    selection: Option<(SelectedParams, EpsilonSource)>,
    clustering: Option<Clustering>,
    refined: Option<Clustering>,
    // Whether message typing follows (a report planned it) or has
    // started on the current segmentation: `auto` then resolves to the
    // matrix backend, and `park` keeps the segment matrix until the
    // message types are memoized.
    msgtype_follows: bool,
    msg_dissim: Option<(f64, DissimArtifact)>,
    // The message types and the configuration they were computed
    // under, memoized on success only; while held, `park` drops the
    // message matrix.
    msg_types: Option<(MessageTypeConfig, MessageTypes)>,
    // Optional on-disk artifact cache; `None` keeps every stage purely
    // in-memory. The memoized input key covers trace + segmentation.
    cache: Option<ArtifactStore>,
    input_key: Option<Key>,
    // Cooperative cancellation, polled between stages; `None` never
    // cancels. See [`Self::set_cancel_token`].
    cancel: Option<CancelToken>,
    // What the stages did, and what the stages nested in the open one
    // did (see `staged`).
    stages: StageRecord,
    nested: StageTotals,
}

impl<'t> AnalysisSession<'t> {
    /// Starts a session over an already-preprocessed trace.
    pub fn new(trace: &'t Trace, config: FieldTypeClusterer) -> Self {
        Self::from_cow(Cow::Borrowed(trace), config)
    }

    /// Stage 1: preprocesses a raw trace (filter, de-duplicate,
    /// truncate) and starts a session over the result.
    pub fn preprocess(
        raw: &Trace,
        pre: &Preprocessor,
        config: FieldTypeClusterer,
    ) -> AnalysisSession<'static> {
        AnalysisSession::from_owned(pre.apply(raw), config)
    }

    /// Starts a session that owns its trace.
    pub fn from_owned(trace: Trace, config: FieldTypeClusterer) -> AnalysisSession<'static> {
        AnalysisSession::from_cow(Cow::Owned(trace), config)
    }

    fn from_cow(trace: Cow<'t, Trace>, config: FieldTypeClusterer) -> Self {
        Self {
            config,
            trace,
            segmentation: None,
            store: None,
            dissim: None,
            knn: None,
            strata: None,
            neighbor_counters: Arc::new(QueryCounters::new()),
            selection: None,
            clustering: None,
            refined: None,
            msgtype_follows: false,
            msg_dissim: None,
            msg_types: None,
            cache: None,
            input_key: None,
            cancel: None,
            stages: StageRecord::default(),
            nested: StageTotals::default(),
        }
    }

    /// Attaches an on-disk artifact store rooted at `dir` (builder
    /// form). Every stage then probes the store before computing and
    /// writes its artifact back after; cached artifacts are
    /// bit-identical to computed ones, and a damaged cache degrades to
    /// cold compute — it never changes results or fails the analysis.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the cache directory cannot be
    /// created.
    pub fn with_store(mut self, dir: impl AsRef<Path>) -> std::io::Result<Self> {
        self.cache = Some(ArtifactStore::open(dir.as_ref())?);
        Ok(self)
    }

    /// Attaches an already-opened artifact store (e.g. one shared with
    /// other sessions; clones share hit/miss statistics).
    pub fn set_store(&mut self, store: ArtifactStore) {
        self.cache = Some(store);
    }

    /// The attached artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.cache.as_ref()
    }

    /// Cache hit/miss/write statistics, if a store is attached.
    pub fn cache_stats(&self) -> Option<StoreStats> {
        self.cache.as_ref().map(ArtifactStore::stats)
    }

    /// Attaches a cooperative [`CancelToken`], polled at every stage
    /// boundary (`ensure_*` entry): once the token trips — explicitly
    /// or by deadline — the next stage transition returns
    /// [`PipelineError::Cancelled`] instead of computing. A stage
    /// already in flight runs to completion (stages are never preempted
    /// mid-kernel) — except the message-alignment build, which also
    /// polls between outer rows and abandons its partial matrix. Artifacts
    /// computed before the trip stay cached, so re-driving the session
    /// after a cancellation resumes from them.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// `Err(PipelineError::Cancelled)` once the attached token trips.
    fn check_cancelled(&self) -> Result<(), PipelineError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(PipelineError::Cancelled),
            _ => Ok(()),
        }
    }

    /// [`check_cancelled`](Self::check_cancelled) for the message-type
    /// stage surface.
    fn check_cancelled_msg(&self) -> Result<(), MessageTypeError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(MessageTypeError::Cancelled),
            _ => Ok(()),
        }
    }

    /// The trace under analysis.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &FieldTypeClusterer {
        &self.config
    }

    /// Stage 2: segments the trace with `segmenter`, replacing any
    /// previous segmentation (and invalidating downstream artifacts).
    ///
    /// # Errors
    ///
    /// Propagates the segmenter's [`SegmentError`].
    pub fn segment_with(
        &mut self,
        segmenter: &dyn Segmenter,
    ) -> Result<&TraceSegmentation, SegmentError> {
        self.staged(Stage::Segment, |s| {
            let seg = match s.cache.clone() {
                Some(store) => {
                    let key = cache::segmentation_key(&s.trace, &segmenter.cache_fingerprint());
                    match store.get::<TraceSegmentation>(&key) {
                        // Defensive shape check on top of the content
                        // key: a cached segmentation must cover exactly
                        // this trace.
                        Some(seg) if seg.messages.len() == s.trace.len() => seg,
                        _ => {
                            let seg = segmenter.segment_trace(&s.trace)?;
                            store.put(&key, &seg);
                            seg
                        }
                    }
                }
                None => segmenter.segment_trace(&s.trace)?,
            };
            s.set_segmentation(seg);
            Ok(())
        })?;
        Ok(self.segmentation.as_ref().expect("just set"))
    }

    /// Stage 2 (alternative): installs a segmentation computed outside
    /// the session, e.g. ground truth. Invalidates downstream artifacts.
    pub fn set_segmentation(&mut self, segmentation: TraceSegmentation) {
        self.segmentation = Some(segmentation);
        self.input_key = None;
        self.store = None;
        self.dissim = None;
        self.knn = None;
        self.strata = None;
        self.selection = None;
        self.clustering = None;
        self.refined = None;
        self.msgtype_follows = false;
        self.msg_dissim = None;
        self.msg_types = None;
    }

    /// The current segmentation, if stage 2 has run.
    pub fn segmentation(&self) -> Option<&TraceSegmentation> {
        self.segmentation.as_ref()
    }

    /// Stage 3 (dedup): the unique segments admitted to clustering
    /// (length ≥ `min_segment_len`, duplicates collapsed with their
    /// occurrence counts).
    ///
    /// # Errors
    ///
    /// [`PipelineError::MissingSegmentation`] before stage 2,
    /// [`PipelineError::TooFewSegments`] when fewer than four unique
    /// segments remain.
    pub fn store(&mut self) -> Result<&SegmentStore, PipelineError> {
        self.ensure_store()?;
        Ok(self.store.as_ref().expect("ensured"))
    }

    /// Stage 4 (matrix): the pairwise Canberra dissimilarity matrix over
    /// the unique segments of [`store`](Self::store) — the leading block
    /// of the session's [segment matrix](Self::segment_matrix), read in
    /// place.
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn matrix(&mut self) -> Result<MatrixView<'_>, PipelineError> {
        self.ensure_dissim()?;
        Ok(self.field_matrix())
    }

    /// Stage 4b (neighbors): builds what the resolved backend answers
    /// neighbor queries from — the condensed matrix plus its k-NN table
    /// (matrix/tiled backends), or the length-stratified index (the
    /// stratified backend, which materializes no matrix at all; its
    /// k-NN table is queried from the index by the autoconf stage, so a
    /// refine-only run never pays for it). Later stages answer their
    /// ε-region and k-NN queries through it; all backends are pinned
    /// bit-identical.
    ///
    /// Runs implicitly before autoconf; calling it explicitly lets a
    /// driver cancel between the neighbor build and clustering.
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn ensure_neighbors(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        self.ensure_store()?;
        if self.session_backend() == NeighborBackend::Stratified {
            // The per-length forests and pivot tables: no matrix or
            // other O(u²) structure is touched.
            if self.strata.is_none() {
                self.staged::<_, PipelineError>(Stage::Neighbors, |s| {
                    s.strata = Some(s.build_strata_cached());
                    Ok(())
                })?;
            }
            return Ok(());
        }
        self.ensure_dissim()?;
        if self.knn.is_none() {
            self.staged::<_, PipelineError>(Stage::Neighbors, |s| {
                s.ensure_knn();
                Ok(())
            })?;
        }
        Ok(())
    }

    /// The neighbor backend this session resolves for its current
    /// segment store: [`FieldTypeClusterer::resolved_backend_mixed`]
    /// over the store's actual size and length profile (mixed-length
    /// corpora steer `auto` to the stratified backend) — unless message
    /// typing follows: its segment matrix holds the field matrix, so
    /// `auto` reads that rather than build an index besides it. Only
    /// called with the store ensured.
    fn session_backend(&self) -> NeighborBackend {
        let store = self.store.as_ref().expect("ensured");
        let mut lens = store.segments.iter().map(|s| s.value.len());
        let mixed = !self.msgtype_follows
            && match lens.next() {
                None => false,
                Some(first) => lens.any(|len| len != first),
            };
        self.config
            .resolved_backend_mixed(store.segments.len(), mixed)
    }

    /// The neighbor backend the session resolves for its deduplicated
    /// segment store, ensuring the store first. Unlike
    /// [`FieldTypeClusterer::resolved_backend`] this sees the corpus's
    /// actual length profile and whether message typing follows, so
    /// `auto` resolution is exact.
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn resolved_neighbor_backend(&mut self) -> Result<NeighborBackend, PipelineError> {
        self.ensure_store()?;
        Ok(self.session_backend())
    }

    /// The length-stratified neighbor index, if the stratified backend
    /// has built one ([`ensure_neighbors`](Self::ensure_neighbors)
    /// under [`NeighborBackend::Stratified`]).
    pub fn strata_index(&self) -> Option<&StrataIndex> {
        self.strata.as_ref()
    }

    /// Cumulative neighbor-query counters as `(kernel_evals,
    /// pruned_candidates, strata_skipped)`. Only the stratified backend
    /// moves them; every other backend leaves them at zero. The totals
    /// depend only on the capture, segmentation and parameters, never
    /// on [`FieldTypeClusterer::threads`]: every stage issues the same
    /// queries at every thread count (the k-NN table is one query per
    /// segment, the clustering stage's region table one region query per
    /// segment, threads only fan them out, and refinement decides its
    /// candidate pairs of a round before it merges), and each query's
    /// tally is a pure function of the query.
    ///
    /// A region-table query visits its own stratum and the shorter ones
    /// only; the pairs it shares with longer strata are found by the
    /// longer items' queries and mirrored. Strata left to the other end
    /// that way count as neither pruned nor skipped: `pruned` and
    /// `strata_skipped` count only candidates a bound excluded.
    ///
    /// `kernel_evals` also counts refinement's pair rows (the
    /// statistics and the round-1 link scan, one tally per
    /// [`pairs_from`](dissim::NeighborProvider::pairs_from) row) and
    /// the n(n−1)/2 pairs of the ε mean fallback when it fires. Single
    /// [`pair`](dissim::NeighborProvider::pair) calls (HDBSCAN's mutual
    /// reachability) stay uncounted.
    pub fn neighbor_counters(&self) -> (u64, u64, u64) {
        self.neighbor_counters.snapshot()
    }

    /// Returns the [stage record](crate::stages) of what the session ran
    /// since it started or since the last call, and clears it. A stage
    /// adds when it produces its artifact (computed, extended, or read
    /// from the store), not when the session already holds it or it
    /// fails. The per-stage `kernel_evals` sum to those of
    /// [`neighbor_counters`](Self::neighbor_counters) and, like them,
    /// do not depend on the thread count.
    pub fn take_stage_record(&mut self) -> StageRecord {
        std::mem::take(&mut self.stages)
    }

    /// Each segment's `required_k_max` nearest dissimilarities, once a
    /// stage has built them: the neighbors stage (or a tiled
    /// dissimilarity build) on the matrix-backed backends, the autoconf
    /// stage on the stratified backend. Every backend builds it once per
    /// session; it serves the autoconf stage's k-dist ECDFs and the
    /// §III-E trimmed rerun, and its values are bit-identical to the
    /// matrix scan whatever the backend or thread count.
    pub fn knn_table(&self) -> Option<&KnnTable> {
        self.knn.as_ref()
    }

    /// Stage 5 (autoconf): the DBSCAN parameters selected by Algorithm 1
    /// (with the mean-based robustness fallback), `min_samples` sized by
    /// the occurrence-weighted segment count.
    ///
    /// After [`cluster`](Self::cluster), the returned parameters reflect
    /// a §III-E trimmed-ECDF re-configuration if one was triggered.
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn autoconf(&mut self) -> Result<&SelectedParams, PipelineError> {
        self.ensure_selection()?;
        Ok(&self.selection.as_ref().expect("ensured").0)
    }

    /// Where the current ε came from, if stage 5 has run.
    pub fn epsilon_source(&self) -> Option<EpsilonSource> {
        self.selection.as_ref().map(|(_, s)| *s)
    }

    /// Stage 6 (cluster): occurrence-weighted DBSCAN at the
    /// auto-configured parameters, re-running on a trimmed ECDF when one
    /// cluster dominates (§III-E).
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn cluster(&mut self) -> Result<&Clustering, PipelineError> {
        self.ensure_clustering()?;
        Ok(self.clustering.as_ref().expect("ensured"))
    }

    /// Stage 7 (refine): the final clustering after merging
    /// over-classified clusters and splitting polarized ones (§III-F).
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn refine(&mut self) -> Result<&Clustering, PipelineError> {
        self.ensure_refined()?;
        Ok(self.refined.as_ref().expect("ensured"))
    }

    /// Runs all remaining stages and assembles the pipeline result.
    /// The session stays usable; its artifacts remain cached.
    ///
    /// # Errors
    ///
    /// See [`store`](Self::store).
    pub fn finish(&mut self) -> Result<PseudoTypeClustering, PipelineError> {
        self.ensure_refined()?;
        let (params, source) = self.selection.clone().expect("ensured");
        Ok(PseudoTypeClustering {
            store: self.store.clone().expect("ensured"),
            clustering: self.refined.clone().expect("ensured"),
            params,
            epsilon_source: source,
        })
    }

    // ----- message types (NEMETYL-style companion analysis) -----

    /// The segment matrix message alignment substitutes from: the
    /// dissimilarity matrix over *all* unique segments, those shorter
    /// than `min_segment_len` included, numbered `segments ++ excluded` of
    /// [`store`](Self::store). Its leading block is the field
    /// [`matrix`](Self::matrix): the session keeps this one matrix for
    /// both analyses.
    ///
    /// The monolithic matrix stage always builds this matrix, so the
    /// field stages read its leading block. A tiled build covers the
    /// field segments only and is extended by the excluded rows in
    /// memory; when the field stages built no matrix (the stratified
    /// backend), this builds it whole. With a store attached only the
    /// field block is persisted.
    ///
    /// # Errors
    ///
    /// [`MessageTypeError::TooFewMessages`] /
    /// [`MessageTypeError::MissingSegmentation`].
    pub fn segment_matrix(&mut self) -> Result<&CondensedMatrix, MessageTypeError> {
        self.ensure_segment_matrix()?;
        Ok(self.dissim.as_ref().expect("ensured").matrix())
    }

    /// Tells the session that message typing follows its field stages
    /// on the current segmentation: the `auto` backend then resolves to
    /// the matrix backend, so the field stages read the leading block of
    /// the segment matrix rather than build an index besides it.
    pub(crate) fn expect_message_types(&mut self) {
        self.msgtype_follows = true;
    }

    /// The message dissimilarity matrix: normalized alignment cost of
    /// the segment-id sequences of every message pair, substitution
    /// costs taken from [`segment_matrix`](Self::segment_matrix).
    /// Cached per gap penalty. The alignment build polls the session's
    /// [`CancelToken`] between outer message rows: a tripped token
    /// abandons it with [`MessageTypeError::Cancelled`] and caches
    /// nothing.
    ///
    /// # Errors
    ///
    /// See [`segment_matrix`](Self::segment_matrix).
    pub fn message_matrix(
        &mut self,
        gap_penalty: f64,
    ) -> Result<&CondensedMatrix, MessageTypeError> {
        let token = self.cancel.clone();
        self.message_matrix_until(gap_penalty, &|| {
            token.as_ref().is_some_and(CancelToken::is_cancelled)
        })
    }

    /// [`message_matrix`](Self::message_matrix) with the alignment
    /// build polling `stop` between outer rows instead of the session's
    /// token; a stopped build caches nothing.
    ///
    /// With a store attached the matrix is keyed by the messages'
    /// segment-value sequences (`cache::message_key`). A hit skips even
    /// the segment matrix. On a miss, the largest cached
    /// matrix over a prefix of the messages (found through the
    /// per-family manifest) is extended: only pairs with a message
    /// past the prefix are aligned.
    fn message_matrix_until(
        &mut self,
        gap_penalty: f64,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Result<&CondensedMatrix, MessageTypeError> {
        if self
            .msg_dissim
            .as_ref()
            .is_none_or(|(g, _)| *g != gap_penalty)
        {
            let n = self.trace.len();
            self.ensure_message_store()?;
            let store = self.store.as_ref().expect("collected");
            let sequences = msgtype::segment_sequences(n, store);
            let cache = self.cache.clone();
            // The cached matrix, or the key and family to store the
            // computed one under plus the largest cached prefix.
            let mut probe = None;
            if let Some(cache) = &cache {
                let values = store.all_values();
                let params = &self.config.dissim;
                let key = cache::message_key(&sequences, &values, params, gap_penalty);
                if let Some(a) = cache.get::<DissimArtifact>(&key).filter(|a| a.len() == n) {
                    self.msg_dissim = Some((gap_penalty, a));
                    return Ok(self.msg_dissim.as_ref().expect("just fetched").1.matrix());
                }
                let family = cache::message_family_key(&sequences, &values, params, gap_penalty);
                let prefix = cache::cached_prefix(
                    cache,
                    &family,
                    1,
                    n,
                    |at| cache::message_keys_at(&sequences, &values, params, gap_penalty, at),
                    |u, a: &DissimArtifact| a.len() == u,
                );
                probe = Some((key, family, prefix));
            }
            self.ensure_segment_matrix()?;
            let empty = CondensedMatrix::build(0, |_, _| 0.0);
            let prefix = probe
                .as_ref()
                .and_then(|(_, _, p)| p.as_ref())
                .map_or(&empty, DissimArtifact::matrix);
            let artifact = DissimArtifact::from_matrix(msgtype::alignment_matrix(
                &sequences,
                prefix,
                self.dissim.as_ref().expect("ensured").matrix(),
                gap_penalty,
                self.config.threads,
                stop,
            )?);
            if let (Some(cache), Some((key, family, prefix))) = (&cache, &probe) {
                if prefix.is_some() {
                    cache.record_extension();
                }
                cache.put(key, &artifact);
                cache.manifest_add(family, n, key);
            }
            self.msg_dissim = Some((gap_penalty, artifact));
        }
        Ok(self.msg_dissim.as_ref().expect("just built").1.matrix())
    }

    /// Clusters the trace's messages into message types with the same
    /// auto-configured DBSCAN, reusing the session's segment
    /// dissimilarities.
    ///
    /// The types are memoized with their configuration: a repeat call
    /// returns them without reading a matrix (and adds nothing to the
    /// stage record). A failed or cancelled run memoizes nothing, so
    /// its matrices stay for the retry.
    ///
    /// # Errors
    ///
    /// See [`segment_matrix`](Self::segment_matrix).
    pub fn message_types(
        &mut self,
        config: &MessageTypeConfig,
    ) -> Result<MessageTypes, MessageTypeError> {
        if let Some((_, types)) = self.msg_types.as_ref().filter(|(c, _)| c == config) {
            return Ok(types.clone());
        }
        let threads = self.config.threads;
        let types = self.staged(Stage::Msgtype, |s| {
            let matrix = s.message_matrix(config.gap_penalty)?;
            Ok(msgtype::cluster_messages(matrix, &config.autoconf, threads))
        })?;
        self.msg_types = Some((config.clone(), types.clone()));
        Ok(types)
    }

    /// Drops every artifact whose consumers are all memoized, keeping
    /// the outputs: what a session that is put aside to serve later
    /// requests holds on to.
    ///
    /// - Once message types are held, the message matrix goes:
    ///   [`message_types`](Self::message_types) answers from its memo.
    /// - Once the refined clustering is held, the k-NN table and the
    ///   stratified index go, and so does the segment matrix unless
    ///   message typing follows and has not finished:
    ///   [`finish`](Self::finish) reads only the segment store, the
    ///   selection and the refined clustering.
    ///
    /// A run that failed or was cancelled memoized nothing, so its
    /// inputs stay for the retry. Parking never changes a result: a
    /// dropped artifact a later call does need is rebuilt (or read from
    /// the store) exactly as before.
    pub fn park(&mut self) {
        if self.msg_types.is_some() {
            self.msg_dissim = None;
        }
        if self.refined.is_some() {
            self.knn = None;
            self.strata = None;
            if !self.msgtype_follows || self.msg_types.is_some() {
                self.dissim = None;
            }
        }
    }

    /// Infers the protocol state machine over msgtype-labelled flows:
    /// messages are clustered into message types
    /// ([`message_types`](Self::message_types)), grouped into flows
    /// ([`Trace::flows`]), and the per-flow label sequences are merged
    /// into a deterministic automaton ([`statemachine::infer`]).
    ///
    /// With a store attached the machine is probed *before* the
    /// message-type clustering runs (its key covers the clustering
    /// inputs and the flow partition), so a warm run serves the
    /// artifact without rebuilding anything — `misses=0 writes=0`.
    ///
    /// # Errors
    ///
    /// See [`segment_matrix`](Self::segment_matrix).
    pub fn state_machine(
        &mut self,
        config: &StateMachineConfig,
    ) -> Result<statemachine::StateMachine, MessageTypeError> {
        self.check_cancelled_msg()?;
        self.staged(Stage::Fsm, |s| {
            let n = s.trace.len();
            // Gated on the same preconditions the compute path errors
            // on, so a hit can never mask a
            // MissingSegmentation/TooFewMessages error (mirrors
            // message_matrix).
            let fsm_key = (s.cache.is_some() && s.segmentation.is_some() && n >= 4).then(|| {
                let input = s.session_input_key();
                cache::fsm_key(&input, &s.trace, &s.config.dissim, config)
            });
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &fsm_key) {
                if let Some(machine) = cache.get::<statemachine::StateMachine>(key) {
                    // Shape check on top of the content key: the
                    // machine must cover exactly this trace's flows.
                    if machine.flows == s.trace.flows().len() as u64 {
                        return Ok(machine);
                    }
                }
            }
            let types = s.message_types(&config.msgtype)?;
            let (labels, symbols) = fsm::symbol_labels(&types.clustering);
            let sequences = statemachine::flow_sequences(&s.trace, &labels);
            let machine = statemachine::infer(&sequences, symbols, &config.fsm);
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &fsm_key) {
                cache.put(key, &machine);
            }
            Ok(machine)
        })
    }

    // ----- stage internals -----

    /// Runs `f` as one run of `stage`: on success its self time is
    /// added to the record; either way the whole run counts as nested
    /// time of the enclosing stage.
    pub(crate) fn staged<T, E>(
        &mut self,
        stage: Stage,
        f: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let start = Instant::now();
        let before = self.neighbor_counters.snapshot();
        let outer = std::mem::take(&mut self.nested);
        let out = f(self);
        let after = self.neighbor_counters.snapshot();
        let inclusive = StageTotals {
            wall_ns: start.elapsed().as_nanos() as u64,
            kernel_evals: after.0 - before.0,
            pruned: after.1 - before.1,
            strata_skipped: after.2 - before.2,
        };
        if out.is_ok() {
            let own = inclusive.zip(self.nested, u64::saturating_sub);
            self.stages.add(stage, own);
        }
        self.nested = outer.zip(inclusive, u64::saturating_add);
        out
    }

    /// The memoized content key over trace + segmentation that every
    /// configuration-dependent stage key builds on. Only called with a
    /// segmentation present.
    fn session_input_key(&mut self) -> Key {
        if let Some(k) = self.input_key {
            return k;
        }
        let seg = self.segmentation.as_ref().expect("segmentation present");
        let k = cache::input_key(&self.trace, seg);
        self.input_key = Some(k);
        k
    }

    /// Collects (or fetches from the cache) the deduplicated segment
    /// store. Only called with a segmentation present.
    fn collect_store_cached(&mut self) -> SegmentStore {
        let min_len = self.config.min_segment_len;
        let Some(cache) = self.cache.clone() else {
            let seg = self.segmentation.as_ref().expect("segmentation present");
            return SegmentStore::collect(&self.trace, seg, min_len);
        };
        let input = self.session_input_key();
        let key = cache::segment_store_key(&input, min_len);
        if let Some(store) = cache.get::<SegmentStore>(&key) {
            return store;
        }
        let seg = self.segmentation.as_ref().expect("segmentation present");
        let store = SegmentStore::collect(&self.trace, seg, min_len);
        cache.put(&key, &store);
        store
    }

    /// The monolithic build over `values`, whose first `n_field` are the
    /// field store's segments and the rest, if any, its excluded ones:
    /// one condensed matrix computed in memory — or, with a store
    /// attached, the field block fetched, or extended from the largest
    /// cached prefix of the field values (found through the per-family
    /// manifest, computing only the entries that touch appended
    /// segments), and then extended by the excluded rows. All paths are
    /// bit-identical. Only the field block is persisted, written from
    /// the matrix in place, under the field key and family, so a grown
    /// trace extends it; the excluded rows are never persisted, nor
    /// probed for under a key of their own.
    fn build_dissim_monolithic(&self, values: &[&[u8]], n_field: usize) -> DissimArtifact {
        let params = &self.config.dissim;
        let threads = self.config.threads;
        let Some(cache) = self.cache.as_ref() else {
            return DissimArtifact::compute_segments(values, params, threads);
        };
        let field = &values[..n_field];
        let key = cache::dissim_key(field, params);
        if let Some(artifact) = cache.get::<DissimArtifact>(&key) {
            if values.len() == n_field {
                return artifact;
            }
            let extended = artifact.matrix().extend_segments(values, params, threads);
            return DissimArtifact::from_matrix(extended);
        }
        let family = cache::dissim_family_key(field, params);
        let prefix = cache::cached_prefix(
            cache,
            &family,
            2,
            n_field,
            |at| cache::dissim_keys_at(field, params, at),
            |u, a: &DissimArtifact| a.len() == u,
        );
        let matrix = match prefix {
            // The incremental warm-start: splice the cached matrix over
            // `values[..u]` and compute only the new rows.
            Some(prev) => {
                cache.record_extension();
                prev.matrix().extend_segments(values, params, threads)
            }
            None => CondensedMatrix::build_segments(values, params, threads),
        };
        cache.put(&key, &matrix.prefix(n_field));
        cache.manifest_add(&family, n_field, &key);
        DissimArtifact::from_matrix(matrix)
    }

    /// The tiled build: fixed-height row tiles computed, checksummed,
    /// and (with a cache attached) persisted individually, with cached
    /// tiles faulted back in on warm runs — a damaged tile degrades to
    /// recompute. Growing the segment set is a pure tile-append:
    /// complete tiles keep their keys (`cache::tile_keys`), so only the
    /// appended and formerly partial tiles compute. The per-tile k-NN
    /// partials are merged into a [`KnnTable`] before the tiles are
    /// assembled into the session's condensed matrix; in tiled mode the
    /// monolithic artifact is *not* persisted — tiles are the unit of
    /// caching. Bit-identical to the monolithic path, pinned by
    /// tests/session_equivalence.rs.
    fn build_dissim_tiled(&self, values: &[&[u8]], tile_rows: usize) -> (DissimArtifact, KnnTable) {
        let params = &self.config.dissim;
        let threads = self.config.threads;
        let n = values.len();
        let tiled = match self.cache.as_ref() {
            None => TiledMatrix::build_segments(values, params, tile_rows, threads),
            Some(cache) => {
                let keys = cache::tile_keys(values, params, tile_rows);
                let family = cache::tile_family_key(values, params);
                TiledMatrix::build_with(
                    values,
                    params,
                    tile_rows,
                    threads,
                    |t, _rows| cache.get::<MatrixTile>(&keys[t]),
                    |t, tile, computed| {
                        if computed {
                            cache.put(&keys[t], tile);
                            cache.manifest_add(&family, tile.rows().end, &keys[t]);
                        }
                    },
                )
            }
        };
        let knn = tiled.knn_table(required_k_max(n), threads);
        (DissimArtifact::from_matrix(tiled.assemble()), knn)
    }

    /// Builds (or fetches, or incrementally extends from a cached
    /// prefix) the length-stratified neighbor index over the segment
    /// store's values.
    /// The index is persisted whole under a chained-prefix key
    /// (`cache::strata_key`) — strata partition the entire prefix, so
    /// no stratum is a pure function of a shorter one; growth instead
    /// finds the largest cached prefix through the per-family manifest
    /// and extends it ([`StrataIndex::extend_from`] reuses complete
    /// chunk trees and pivot rows, bit-identical to a cold build). A
    /// damaged artifact degrades to recompute.
    fn build_strata_cached(&self) -> StrataIndex {
        let values = self.store.as_ref().expect("ensured").values();
        let values = &values[..];
        let params = &self.config.dissim;
        let chunk = dissim::vptree::DEFAULT_CHUNK;
        let Some(cache) = self.cache.as_ref() else {
            return StrataIndex::build(values, params, chunk);
        };
        let n = values.len();
        let key = cache::strata_key(values, params, chunk);
        if let Some(index) = cache.get::<StrataIndex>(&key) {
            if index.matches(values) {
                return index;
            }
        }
        let family = cache::strata_family_key(values, params);
        let prefix = cache::cached_prefix(
            cache,
            &family,
            1,
            n,
            |at| cache::strata_keys_at(values, params, chunk, at),
            |u, prev: &StrataIndex| prev.chunk() == chunk && prev.matches(&values[..u]),
        );
        let index = match prefix {
            Some(prev) => {
                cache.record_extension();
                StrataIndex::extend_from(&prev, values, params)
            }
            None => StrataIndex::build(values, params, chunk),
        };
        cache.put(&key, &index);
        cache.manifest_add(&family, n, &key);
        index
    }

    /// The session's one k-NN table, built at most once per session
    /// through the session's provider (unless a tiled build already
    /// merged the table): one sweep of the condensed matrix, or one
    /// `required_k_max`-deep query per segment through the stratified
    /// index. The table is O(u · ln u) and cheap to rebuild, so it is
    /// not persisted. Only called with the neighbors stage ensured.
    fn ensure_knn(&mut self) {
        if self.knn.is_some() {
            return;
        }
        let k_max = required_k_max(self.store.as_ref().expect("ensured").segments.len());
        let table = self.with_provider(|p| p.knn_table(k_max, self.config.threads));
        self.knn = Some(table);
    }

    /// Runs `f` against the session's one neighbor provider for the
    /// resolved backend: the stratified index (sharing the session's
    /// query counters) or row scans of the condensed matrix (the matrix
    /// and tiled backends). The stratified provider borrows a segment
    /// value list built here, hence the closure. Only called with the
    /// neighbors stage ensured.
    fn with_provider<R>(&self, f: impl FnOnce(&SessionProvider<'_>) -> R) -> R {
        if self.session_backend() == NeighborBackend::Stratified {
            let values = self.store.as_ref().expect("ensured").values();
            let index = self.strata.as_ref().expect("ensured");
            let provider = StratifiedProvider::new(&values, &self.config.dissim, index)
                .with_counters(Arc::clone(&self.neighbor_counters));
            return f(&SessionProvider::Stratified(provider));
        }
        f(&SessionProvider::Matrix(MatrixProvider::new(
            self.field_matrix(),
        )))
    }

    /// The field matrix: the leading `segments.len()` block of the
    /// segment matrix. Only called with the matrix built.
    fn field_matrix(&self) -> MatrixView<'_> {
        let n = self.store.as_ref().expect("ensured").segments.len();
        self.dissim.as_ref().expect("ensured").matrix().prefix(n)
    }

    /// The stage key for a configuration-dependent artifact, if a cache
    /// is attached. Only called with a segmentation present.
    fn stage_key(&mut self, kind: Kind) -> Option<Key> {
        self.cache.is_some().then(|| {
            let input = self.session_input_key();
            cache::stage_key(kind, &input, &self.config)
        })
    }

    /// Stage 3 (dedup) plus the field side's size check: clustering
    /// needs at least four unique segments.
    fn ensure_store(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        if self.segmentation.is_none() {
            return Err(PipelineError::MissingSegmentation);
        }
        self.collect_store();
        let n = self.store.as_ref().expect("collected").segments.len();
        if n < 4 {
            return Err(PipelineError::TooFewSegments { n });
        }
        Ok(())
    }

    /// Stage 3 (dedup), without a size check: message typing reads
    /// the excluded segments too. Only called with a segmentation
    /// present.
    fn collect_store(&mut self) {
        if self.store.is_none() {
            let Ok(()) = self.staged(Stage::Dedup, |s| {
                s.store = Some(s.collect_store_cached());
                Ok::<_, Infallible>(())
            });
        }
    }

    fn ensure_dissim(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        if self.dissim.is_some() {
            return Ok(());
        }
        self.ensure_store()?;
        self.build_dissim();
        Ok(())
    }

    /// Stage 4 (matrix) over the collected store: the monolithic build
    /// is the segment matrix over `segments ++ excluded`, whose leading
    /// block is the field matrix; the tiled build is the field matrix
    /// alone, since its tiles and k-NN partials cover field rows only.
    fn build_dissim(&mut self) {
        let Ok(()) = self.staged(Stage::Matrix, |s| {
            // Structure-aware kernel build (LUT + early-abandon windows +
            // length buckets); bit-identical to the naive closure build,
            // pinned by tests/session_equivalence.rs — as are the cache's
            // warm and incremental paths, and the tiled build.
            let store = s.store.as_ref().expect("collected");
            let n = store.segments.len();
            let (artifact, knn) = match s.config.tiled_rows(n) {
                Some(tile_rows) => {
                    let (artifact, knn) = s.build_dissim_tiled(&store.values(), tile_rows);
                    (artifact, Some(knn))
                }
                None => (s.build_dissim_monolithic(&store.all_values(), n), None),
            };
            s.dissim = Some(artifact);
            // A table any backend already built is the same table.
            if s.knn.is_none() {
                s.knn = knn;
            }
            Ok::<_, Infallible>(())
        });
    }

    fn ensure_selection(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        if self.selection.is_some() {
            return Ok(());
        }
        self.ensure_store()?;
        self.staged(Stage::Autoconf, |s| {
            let sel_key = s.stage_key(Kind::SELECTION);
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &sel_key) {
                if let Some(sel) = cache.get::<SelectionArtifact>(key) {
                    s.selection = Some((sel.params, sel.source));
                    return Ok(());
                }
            }
            s.ensure_neighbors()?;
            s.ensure_knn();
            // The matrix covers *unique* values; clustering must behave
            // as if every duplicate segment were present, so occurrence
            // counts act as DBSCAN sample weights and min_samples is
            // sized by the trace's segment count (paper: "setting it to
            // ln n", with n the number of segments).
            let store = s.store.as_ref().expect("ensured");
            let weights = store.occurrence_counts();
            let total_instances: usize = weights.iter().sum();
            let min_samples = ((total_instances as f64).ln().round() as usize).max(2);
            let n = weights.len();
            // Every backend selects ε from the session's one k-NN table.
            // The fallback mean comes from the matrix where one exists,
            // else from a pairwise kernel pass — pinned bit-identical.
            let table = s.knn.as_ref().expect("ensured");
            let selection = auto_configure(table, &s.config.autoconf);
            let fallback_mean = selection
                .is_err()
                .then(|| {
                    if s.dissim.is_some() {
                        return s.field_matrix().mean();
                    }
                    let pairs = n * n.saturating_sub(1) / 2;
                    s.neighbor_counters.add_kernel_evals(pairs as u64);
                    pairwise_mean(&store.values(), &s.config.dissim)
                })
                .flatten();
            let (mut selected, source) = match selection {
                Ok(p) => (p, EpsilonSource::Knee),
                Err(AutoConfError::TooFewSegments { n }) => {
                    return Err(PipelineError::TooFewSegments { n })
                }
                Err(_) => (
                    s.config.mean_fallback(fallback_mean, n),
                    EpsilonSource::MeanFallback,
                ),
            };
            selected.min_samples = min_samples;
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &sel_key) {
                cache.put(
                    key,
                    &SelectionArtifact {
                        params: selected.clone(),
                        source,
                    },
                );
            }
            s.selection = Some((selected, source));
            Ok(())
        })
    }

    fn ensure_clustering(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        if self.clustering.is_some() {
            return Ok(());
        }
        self.ensure_store()?;
        self.staged(Stage::Cluster, |s| {
            let stage_key = s.stage_key(Kind::CLUSTER_STAGE);
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &stage_key) {
                let n = s.store.as_ref().expect("ensured").segments.len();
                if let Some(stage) = cache.get::<ClusterStageArtifact>(key) {
                    // Shape check on top of the content key: the labels
                    // must cover exactly this segment set.
                    if stage.clustering.len() == n {
                        s.selection = Some((stage.params, stage.source));
                        s.clustering = Some(stage.clustering);
                        return Ok(());
                    }
                }
            }
            s.ensure_selection()?;
            s.ensure_neighbors()?;
            // Selection normally built the table; a cached selection did
            // not, and the trimmed rerun may read it.
            s.ensure_knn();
            let weights = s.store.as_ref().expect("ensured").occurrence_counts();
            let (selected, _) = s.selection.clone().expect("ensured");
            let knn = s.knn.as_ref().expect("ensured");
            let (clustering, reselected) =
                s.with_provider(|p| cluster_and_reselect(&s.config, p, knn, &selected, &weights));
            if let Some(sel) = reselected {
                s.selection = Some(sel);
            }
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &stage_key) {
                let (params, source) = s.selection.as_ref().expect("ensured");
                cache.put(
                    key,
                    &ClusterStageArtifact {
                        params: params.clone(),
                        source: *source,
                        clustering: clustering.clone(),
                    },
                );
            }
            s.clustering = Some(clustering);
            Ok(())
        })
    }

    fn ensure_refined(&mut self) -> Result<(), PipelineError> {
        self.check_cancelled()?;
        if self.refined.is_some() {
            return Ok(());
        }
        self.ensure_clustering()?;
        self.staged(Stage::Refine, |s| {
            let refined_key = s.stage_key(Kind::REFINED);
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &refined_key) {
                let n = s.clustering.as_ref().expect("ensured").len();
                if let Some(RefinedArtifact(refined)) = cache.get::<RefinedArtifact>(key) {
                    if refined.len() == n {
                        s.refined = Some(refined);
                        return Ok(());
                    }
                }
            }
            // The clustering stage may have been a cache hit that loaded
            // no neighbor structure; refinement itself needs one.
            s.ensure_neighbors()?;
            let weights = s.store.as_ref().expect("ensured").occurrence_counts();
            let clustering = s.clustering.as_ref().expect("ensured");
            let merged = s.with_provider(|p| {
                merge_clusters(clustering, p, &s.config.refine, s.config.threads)
            });
            let refined = split_clusters(&merged, &weights, &s.config.refine);
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), &refined_key) {
                cache.put(key, &RefinedArtifact(refined.clone()));
            }
            s.refined = Some(refined);
            Ok(())
        })
    }

    /// The store message typing reads: all of it, however few of its
    /// segments are long enough to cluster.
    fn ensure_message_store(&mut self) -> Result<(), MessageTypeError> {
        self.check_cancelled_msg()?;
        let n = self.trace.len();
        if n < 4 {
            return Err(MessageTypeError::TooFewMessages { n });
        }
        if self.segmentation.is_none() {
            return Err(MessageTypeError::MissingSegmentation);
        }
        self.collect_store();
        Ok(())
    }

    /// The segment matrix over `segments ++ excluded`: the matrix
    /// stage's, extended in memory by the excluded rows when a tiled
    /// build made it the field matrix alone.
    fn ensure_segment_matrix(&mut self) -> Result<(), MessageTypeError> {
        self.ensure_message_store()?;
        self.msgtype_follows = true;
        if self.dissim.is_none() {
            self.build_dissim();
        }
        let store = self.store.as_ref().expect("collected");
        let matrix = self.dissim.as_ref().expect("built").matrix();
        if matrix.len() < store.segments.len() + store.excluded.len() {
            let values = store.all_values();
            let extended =
                matrix.extend_segments(&values, &self.config.dissim, self.config.threads);
            self.dissim = Some(DissimArtifact::from_matrix(extended));
        }
        Ok(())
    }
}

/// The one neighbor provider a session answers every clustering query
/// through. Dispatch is a `match` per call, not a `dyn` call:
/// refinement reads millions of pairs per run, one
/// [`pairs_from`](NeighborProvider::pairs_from) row at a time.
enum SessionProvider<'a> {
    /// Row scans of the condensed matrix (matrix and tiled backends).
    Matrix(MatrixProvider<'a>),
    /// The length-stratified index (stratified backend).
    Stratified(StratifiedProvider<'a>),
}

impl NeighborProvider for SessionProvider<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Matrix(p) => p.len(),
            Self::Stratified(p) => p.len(),
        }
    }

    fn neighbors_within(&self, i: usize, eps: f64, out: &mut Vec<(f64, u32)>) {
        match self {
            Self::Matrix(p) => p.neighbors_within(i, eps, out),
            Self::Stratified(p) => p.neighbors_within(i, eps, out),
        }
    }

    fn knn(&self, i: usize, k: usize) -> f64 {
        match self {
            Self::Matrix(p) => p.knn(i, k),
            Self::Stratified(p) => p.knn(i, k),
        }
    }

    #[inline]
    fn pair(&self, i: usize, j: usize) -> f64 {
        match self {
            Self::Matrix(p) => p.pair(i, j),
            Self::Stratified(p) => p.pair(i, j),
        }
    }

    fn pairs_from(&self, i: usize, js: &[usize], out: &mut Vec<f64>) {
        match self {
            Self::Matrix(p) => p.pairs_from(i, js, out),
            Self::Stratified(p) => p.pairs_from(i, js, out),
        }
    }

    fn neighbors_within_batch(
        &self,
        queries: &[usize],
        eps: f64,
        threads: usize,
    ) -> Vec<Vec<(f64, u32)>> {
        match self {
            Self::Matrix(p) => p.neighbors_within_batch(queries, eps, threads),
            Self::Stratified(p) => p.neighbors_within_batch(queries, eps, threads),
        }
    }

    fn region_table(&self, eps: f64, threads: usize) -> RegionTable {
        match self {
            Self::Matrix(p) => p.region_table(eps, threads),
            Self::Stratified(p) => p.region_table(eps, threads),
        }
    }

    fn knn_table(&self, k_max: usize, threads: usize) -> KnnTable {
        match self {
            Self::Matrix(p) => p.knn_table(k_max, threads),
            Self::Stratified(p) => p.knn_table(k_max, threads),
        }
    }
}

/// Occurrence-weighted DBSCAN at the selected parameters, plus the
/// §III-E dominating-cluster re-configuration on the trimmed ECDF —
/// over any neighbor backend. Returns the labels and, when the trimmed
/// rerun fired, the re-selected parameters. One region table at the
/// selected ε serves both runs: the trimmed ε′ is smaller, so its
/// regions are the table's rows filtered to ε′, and the trimmed
/// selection reads the session's `knn` table, so the rerun issues no
/// neighbor query at all. All backends are pinned bit-identical.
fn cluster_and_reselect<P: NeighborProvider + Sync>(
    config: &FieldTypeClusterer,
    provider: &P,
    knn: &KnnTable,
    selected: &SelectedParams,
    weights: &[usize],
) -> (Clustering, Option<(SelectedParams, EpsilonSource)>) {
    let min_samples = selected.min_samples;
    let threads = config.threads;
    let regions = provider.region_table(selected.epsilon, threads);
    let mut clustering = dbscan(&regions, selected.epsilon, min_samples, weights);
    let mut reselected = None;
    // §III-E: a single dominating cluster signals a too-large ε from a
    // multi-knee ECDF; re-configure on the trimmed distribution.
    if config.has_dominating_cluster(&clustering, weights) {
        let trimmed_config = AutoConfig {
            max_dissimilarity: Some(selected.epsilon),
            ..config.autoconf
        };
        if let Ok(p) = auto_configure(knn, &trimmed_config) {
            if p.epsilon < selected.epsilon {
                clustering = dbscan(&regions, p.epsilon, min_samples, weights);
                reselected = Some((
                    SelectedParams { min_samples, ..p },
                    EpsilonSource::TrimmedKnee,
                ));
            }
        }
    }
    (clustering, reselected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::truth_segmentation;
    use protocols::{corpus, Protocol};

    fn session_for(protocol: Protocol, n: usize, seed: u64) -> (Trace, AnalysisSession<'static>) {
        let trace = corpus::build_trace(protocol, n, seed);
        let gt = corpus::ground_truth(protocol, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let mut s = AnalysisSession::from_owned(trace.clone(), FieldTypeClusterer::default());
        s.set_segmentation(seg);
        (trace, s)
    }

    #[test]
    fn stages_run_on_demand_and_cache() {
        let (trace, _) = session_for(Protocol::Ntp, 50, 1);
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let config = FieldTypeClusterer {
            neighbor_backend: NeighborBackend::Matrix,
            ..FieldTypeClusterer::default()
        };
        let mut s = AnalysisSession::new(&trace, config);
        s.set_segmentation(truth_segmentation(&trace, &gt));
        assert!(s.segmentation().is_some());
        let n = s.store().unwrap().segments.len();
        let first = s.segment_matrix().unwrap() as *const CondensedMatrix;
        assert_eq!(s.matrix().unwrap().len(), n);
        // Same allocation: the artifact was cached, not rebuilt.
        assert_eq!(first, s.segment_matrix().unwrap() as *const CondensedMatrix);
        s.ensure_neighbors().unwrap();
        assert_eq!(s.knn_table().unwrap().len(), n);
        let eps = s.autoconf().unwrap().epsilon;
        assert!(eps > 0.0);
        let result = s.finish().unwrap();
        assert_eq!(result.params.epsilon, s.autoconf().unwrap().epsilon);
        assert_eq!(&result.clustering, s.refine().unwrap());
    }

    #[test]
    fn finish_matches_cluster_trace() {
        let trace = corpus::build_trace(Protocol::Dns, 50, 2);
        let gt = corpus::ground_truth(Protocol::Dns, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let wrapper = FieldTypeClusterer::default()
            .cluster_trace(&trace, &seg)
            .unwrap();
        let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        s.set_segmentation(seg);
        let staged = s.finish().unwrap();
        assert_eq!(wrapper.clustering, staged.clustering);
        assert_eq!(wrapper.params.epsilon, staged.params.epsilon);
        assert_eq!(wrapper.epsilon_source, staged.epsilon_source);
    }

    #[test]
    fn missing_segmentation_is_an_error() {
        let trace = corpus::build_trace(Protocol::Ntp, 20, 3);
        let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        assert!(matches!(s.store(), Err(PipelineError::MissingSegmentation)));
        assert!(matches!(
            s.finish(),
            Err(PipelineError::MissingSegmentation)
        ));
        assert!(matches!(
            s.message_types(&MessageTypeConfig::default()),
            Err(MessageTypeError::MissingSegmentation)
        ));
    }

    #[test]
    fn segment_stage_uses_a_segmenter() {
        use segment::nemesys::Nemesys;
        let trace = corpus::build_trace(Protocol::Dns, 40, 4);
        let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        let total = s
            .segment_with(&Nemesys::default())
            .unwrap()
            .total_segments();
        assert!(total > 0);
        assert!(s.finish().unwrap().clustering.n_clusters() >= 1);
    }

    #[test]
    fn set_segmentation_invalidates_downstream() {
        use segment::fixed::FixedChunks;
        let (trace, mut s) = session_for(Protocol::Ntp, 40, 5);
        let eps_truth = s.autoconf().unwrap().epsilon;
        let n_truth = s.store().unwrap().segments.len();
        s.set_segmentation(FixedChunks { width: 4 }.segment_trace(&trace).unwrap());
        let n_fixed = s.store().unwrap().segments.len();
        assert!(n_fixed != n_truth || s.autoconf().unwrap().epsilon != eps_truth);
    }

    #[test]
    fn preprocess_stage_feeds_the_session() {
        let raw = corpus::build_trace(Protocol::Ntp, 30, 6);
        let mut s = AnalysisSession::preprocess(
            &raw,
            &Preprocessor::new().deduplicate(true),
            FieldTypeClusterer::default(),
        );
        assert!(s.trace().len() <= raw.len());
        let gt = corpus::ground_truth(Protocol::Ntp, s.trace());
        let seg = truth_segmentation(s.trace(), &gt);
        s.set_segmentation(seg);
        assert!(s.finish().unwrap().clustering.n_clusters() >= 1);
    }

    #[test]
    fn tripped_token_cancels_every_stage() {
        let (_, mut s) = session_for(Protocol::Ntp, 40, 8);
        let token = CancelToken::new();
        s.set_cancel_token(token.clone());
        token.cancel();
        assert!(matches!(s.store(), Err(PipelineError::Cancelled)));
        assert!(matches!(s.finish(), Err(PipelineError::Cancelled)));
        assert!(matches!(
            s.message_types(&MessageTypeConfig::default()),
            Err(MessageTypeError::Cancelled)
        ));
    }

    #[test]
    fn cached_artifacts_survive_a_cancel_and_resume() {
        let (_, mut s) = session_for(Protocol::Dns, 40, 9);
        // Drive through the matrix, then cancel: the cached artifacts stay.
        let n = s.matrix().unwrap().len();
        let token = CancelToken::new();
        s.set_cancel_token(token.clone());
        token.cancel();
        assert!(matches!(s.autoconf(), Err(PipelineError::Cancelled)));
        // A fresh token resumes from the cached matrix.
        s.set_cancel_token(CancelToken::new());
        assert_eq!(s.matrix().unwrap().len(), n);
        assert!(s.finish().unwrap().clustering.n_clusters() >= 1);
    }

    #[test]
    fn expired_deadline_cancels() {
        use std::time::Instant;
        let (_, mut s) = session_for(Protocol::Ntp, 40, 10);
        s.set_cancel_token(CancelToken::with_deadline(Instant::now()));
        assert!(matches!(s.finish(), Err(PipelineError::Cancelled)));
    }

    #[test]
    fn state_machine_infers_and_memoizes_through_the_store() {
        use crate::fsm::StateMachineConfig;
        let dir =
            std::env::temp_dir().join(format!("fieldclust-fsm-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StateMachineConfig::default();

        let (trace, mut cold) = session_for(Protocol::Ntp, 40, 12);
        cold.set_store(ArtifactStore::open(&dir).expect("open store"));
        let m1 = cold.state_machine(&config).unwrap();
        assert!(m1.n_states >= 1);
        assert_eq!(m1.flows as usize, trace.flows().len());

        // A fresh session over the same trace serves the machine from
        // the store without rebuilding anything: zero misses, zero
        // writes — and bit-identical exports.
        let gt = corpus::ground_truth(Protocol::Ntp, &trace);
        let seg = truth_segmentation(&trace, &gt);
        let mut warm = AnalysisSession::from_owned(trace, FieldTypeClusterer::default());
        warm.set_segmentation(seg);
        warm.set_store(ArtifactStore::open(&dir).expect("open store"));
        let m2 = warm.state_machine(&config).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(m1.to_dot(), m2.to_dot());
        assert_eq!(m1.to_json(), m2.to_json());
        let stats = warm.cache_stats().expect("store attached");
        assert_eq!(stats.misses, 0, "warm run must rebuild nothing: {stats}");
        assert_eq!(stats.writes, 0, "warm run must write nothing: {stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn message_matrix_is_cached_per_gap_penalty() {
        let (_, mut s) = session_for(Protocol::Dns, 40, 7);
        let m8 = s.message_matrix(0.8).unwrap().clone();
        assert_eq!(&m8, s.message_matrix(0.8).unwrap());
        // A different penalty rebuilds with different alignment costs.
        assert_ne!(&m8, s.message_matrix(0.5).unwrap());
        let types = s.message_types(&MessageTypeConfig::default()).unwrap();
        assert_eq!(types.clustering.len(), s.trace().len());
    }

    #[test]
    fn fixed_width_segment_matrix_is_the_field_matrix() {
        use crate::report::standard_report;
        use segment::fixed::FixedChunks;
        let trace = corpus::build_trace(Protocol::Ntp, 60, 13);
        let seg = FixedChunks { width: 4 }.segment_trace(&trace).unwrap();
        let session = || {
            let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
            s.set_segmentation(seg.clone());
            s
        };
        let bits = |m: &CondensedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // No 4-byte chunk is short, so nothing is excluded and the
        // field matrix is the whole segment matrix, in either build
        // order.
        let mut field_first = session();
        let field = field_first.matrix().unwrap().to_matrix();
        assert_eq!(bits(&field), bits(field_first.segment_matrix().unwrap()));
        let mut segments_first = session();
        let whole = bits(segments_first.segment_matrix().unwrap());
        assert_eq!(whole, bits(&segments_first.matrix().unwrap().to_matrix()));
        assert_eq!(whole, bits(&field));
        assert_eq!(
            standard_report(&trace, &mut field_first).unwrap(),
            standard_report(&trace, &mut segments_first).unwrap()
        );
    }

    #[test]
    fn short_segments_keep_their_own_segment_matrix() {
        use segment::nemesys::Nemesys;
        let trace = corpus::build_trace(Protocol::Dns, 60, 14);
        let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        s.segment_with(&Nemesys::default()).unwrap();
        let field = s.matrix().unwrap().len();
        assert!(s.segment_matrix().unwrap().len() > field);
    }

    /// The segment matrix over `segments ++ excluded` and its prefix
    /// view, against cold builds over the session's own store, and the
    /// message types against the way they were typed when message
    /// typing kept a store of its own: every segment admitted, in
    /// first-occurrence order, under a cold matrix of its own.
    mod one_matrix {
        use super::*;
        use crate::msgtype::{alignment_matrix, cluster_messages, segment_sequences};
        use crate::report::standard_report;
        use proptest::prelude::*;
        use segment::nemesys::Nemesys;

        fn bits(m: &CondensedMatrix) -> Vec<u64> {
            m.values().iter().map(|v| v.to_bits()).collect()
        }

        /// The message matrix and types over a separate store of every
        /// segment with its own cold segment matrix.
        fn separate_store_types(
            trace: &Trace,
            seg: &TraceSegmentation,
            config: &FieldTypeClusterer,
        ) -> (CondensedMatrix, MessageTypes) {
            let store = SegmentStore::collect(trace, seg, 1);
            assert!(store.excluded.is_empty());
            let seg_matrix = CondensedMatrix::build_segments(&store.values(), &config.dissim, 1);
            let sequences = segment_sequences(trace.len(), &store);
            let msg = MessageTypeConfig::default();
            let empty = CondensedMatrix::build(0, |_, _| 0.0);
            let matrix =
                alignment_matrix(&sequences, &empty, &seg_matrix, msg.gap_penalty, 1, &|| {
                    false
                })
                .expect("never stopped");
            let types = cluster_messages(&matrix, &msg.autoconf, 1);
            (matrix, types)
        }

        /// Checks `s`'s one matrix and message types; `label` names the
        /// arm.
        fn check(
            s: &mut AnalysisSession<'_>,
            expected: &(CondensedMatrix, MessageTypes),
            label: &str,
        ) -> Result<(), TestCaseError> {
            let config = s.config().clone();
            let store = s.store.clone().expect("collected");
            let cold = CondensedMatrix::build_segments(&store.all_values(), &config.dissim, 1);
            let field = CondensedMatrix::build_segments(&store.values(), &config.dissim, 1);
            prop_assert!(
                bits(s.segment_matrix().unwrap()) == bits(&cold),
                "{}: segment matrix",
                label
            );
            let prefix = s.matrix().unwrap().to_matrix();
            prop_assert!(bits(&prefix) == bits(&field), "{}: prefix view", label);
            let types = s.message_types(&MessageTypeConfig::default()).unwrap();
            if let Some((_, m)) = &s.msg_dissim {
                prop_assert!(bits(m.matrix()) == bits(&expected.0), "{}: messages", label);
            }
            prop_assert_eq!(&types.clustering, &expected.1.clustering, "{}", label);
            prop_assert_eq!(types.epsilon.to_bits(), expected.1.epsilon.to_bits());
            prop_assert_eq!(types.min_samples, expected.1.min_samples);
            Ok(())
        }

        /// Whether `store` holds exactly the field matrix of `s` under
        /// its field key: the one part of the segment matrix persisted.
        fn persists_the_field_block(s: &AnalysisSession<'_>, store: &ArtifactStore) -> bool {
            let params = &s.config().dissim;
            let values = s.store.as_ref().expect("collected").values();
            let field = CondensedMatrix::build_segments(&values, params, 1);
            store
                .get_quiet::<DissimArtifact>(&cache::dissim_key(&values, params))
                .is_some_and(|a| bits(a.matrix()) == bits(&field))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]
            /// Arms: no store (the monolithic matrix built over
            /// `segments ++ excluded` up front, and a tiled field matrix
            /// extended by message typing), a cold store, a warm store,
            /// and a grown trace extending the previous round's cached
            /// field block.
            #[test]
            fn segment_matrix_is_one_matrix_over_segments_then_excluded(
                protocol in 0usize..6,
                n in 16usize..36,
                seed in 0u64..1000,
                min_len in 1usize..5,
                threads in 1usize..3,
            ) {
                let protocol = [
                    Protocol::Dns,
                    Protocol::Smb,
                    Protocol::Awdl,
                    Protocol::Ntp,
                    Protocol::Dhcp,
                    Protocol::Nbns,
                ][protocol];
                let trace = corpus::build_trace(protocol, n, seed);
                let seg = Nemesys::default().segment_trace(&trace).unwrap();
                let config = FieldTypeClusterer {
                    min_segment_len: min_len,
                    threads,
                    ..FieldTypeClusterer::default()
                };
                let fields = SegmentStore::collect(&trace, &seg, min_len).segments.len();
                prop_assume!(fields >= 4);
                let expected = separate_store_types(&trace, &seg, &config);
                let session = |trace| {
                    let mut s = AnalysisSession::new(trace, config.clone());
                    s.set_segmentation(seg.clone());
                    s
                };
                let tag = format!("{protocol:?} n={n} seed={seed} min_len={min_len} t={threads}");

                let mut report = session(&trace);
                standard_report(&trace, &mut report).unwrap();
                check(&mut report, &expected, &format!("{tag}, report"))?;
                let mut tiled = AnalysisSession::new(&trace, FieldTypeClusterer {
                    neighbor_backend: NeighborBackend::Tiled,
                    tile_rows: Some(7),
                    ..config.clone()
                });
                tiled.set_segmentation(seg.clone());
                tiled.matrix().unwrap();
                // Its tiles cover the field rows only, until message
                // typing extends the matrix by the excluded ones.
                prop_assert_eq!(tiled.dissim.as_ref().map(DissimArtifact::len), Some(fields));
                check(&mut tiled, &expected, &format!("{tag}, tiled"))?;

                let dir = std::env::temp_dir().join(format!(
                    "fieldclust-one-matrix-{}-{tag}",
                    std::process::id()
                ).replace([' ', '='], "_"));
                let _ = std::fs::remove_dir_all(&dir);
                let store = ArtifactStore::open(&dir).expect("open store");
                let mut cold = session(&trace);
                cold.set_store(store.clone());
                standard_report(&trace, &mut cold).unwrap();
                prop_assert!(persists_the_field_block(&cold, &store), "{}: cold put", tag);
                check(&mut cold, &expected, &format!("{tag}, cold store"))?;
                let mut warm = session(&trace);
                warm.set_store(store.clone());
                let before = store.stats();
                standard_report(&trace, &mut warm).unwrap();
                prop_assert_eq!(store.stats().misses, before.misses, "{}: warm misses", tag);
                prop_assert_eq!(store.stats().writes, before.writes, "{}: warm writes", tag);
                check(&mut warm, &expected, &format!("{tag}, warm store"))?;
                let _ = std::fs::remove_dir_all(&dir);

                // The previous round: the first two thirds of the
                // messages, under the same segmentation.
                let k = n * 2 / 3;
                let head = Trace::new(trace.name(), trace.messages()[..k].to_vec());
                let store = ArtifactStore::open(&dir).expect("open store");
                let mut previous = AnalysisSession::new(&head, config.clone());
                previous.set_segmentation(TraceSegmentation {
                    messages: seg.messages[..k].to_vec(),
                });
                previous.set_store(store.clone());
                if standard_report(&head, &mut previous).is_ok() {
                    let head_fields = previous.store().unwrap().segments.len();
                    let mut grown = session(&trace);
                    grown.set_store(store.clone());
                    let before = store.stats().extended;
                    standard_report(&trace, &mut grown).unwrap();
                    // The message matrix always grows from the previous
                    // round's; the segment matrix does when the field
                    // block gained segments.
                    let grew = 1 + u64::from(head_fields < fields);
                    prop_assert_eq!(store.stats().extended - before, grew, "{}: extended", tag);
                    prop_assert!(persists_the_field_block(&grown, &store), "{}: grown put", tag);
                    check(&mut grown, &expected, &format!("{tag}, grown"))?;
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn message_matrix_is_thread_invariant_on_nemesys_dns() {
        use segment::nemesys::Nemesys;
        let trace = corpus::build_trace(Protocol::Dns, 80, 15);
        let seg = Nemesys::default().segment_trace(&trace).unwrap();
        let bits = |threads: usize| {
            let config = FieldTypeClusterer {
                threads,
                ..FieldTypeClusterer::default()
            };
            let mut s = AnalysisSession::new(&trace, config);
            s.set_segmentation(seg.clone());
            let m = s.message_matrix(0.8).unwrap();
            m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(1), bits(4));
    }

    #[test]
    fn stopped_alignment_caches_nothing_and_resumes_identically() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir =
            std::env::temp_dir().join(format!("fieldclust-msg-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, mut s) = session_for(Protocol::Dns, 40, 16);
        s.set_store(ArtifactStore::open(&dir).expect("open store"));
        s.segment_matrix().unwrap();
        let writes = s.cache_stats().expect("store attached").writes;
        let polls = AtomicUsize::new(0);
        let after_five_rows = || polls.fetch_add(1, Ordering::Relaxed) >= 5;
        assert!(matches!(
            s.message_matrix_until(0.8, &after_five_rows),
            Err(MessageTypeError::Cancelled)
        ));
        assert!(s.msg_dissim.is_none(), "no partial matrix in memory");
        assert_eq!(s.cache_stats().unwrap().writes, writes, "none on disk");
        // Re-driving the session builds the whole matrix, identical to a
        // session that was never stopped.
        let resumed = s.message_matrix(0.8).unwrap().clone();
        let (_, mut fresh) = session_for(Protocol::Dns, 40, 16);
        assert_eq!(&resumed, fresh.message_matrix(0.8).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether the session holds any artifact `park` must drop once
    /// the report's outputs are memoized.
    fn holds_a_parked_artifact(s: &AnalysisSession<'_>) -> bool {
        s.dissim.is_some() || s.knn.is_some() || s.strata.is_some() || s.msg_dissim.is_some()
    }

    #[test]
    fn parked_session_keeps_its_outputs_and_drops_their_inputs() {
        use crate::report::standard_report;
        use segment::fixed::FixedChunks;
        use segment::nemesys::Nemesys;
        let dns = corpus::build_trace(Protocol::Dns, 60, 19);
        let ntp = corpus::build_trace(Protocol::Ntp, 60, 20);
        let captures = [
            (&dns, Nemesys::default().segment_trace(&dns).unwrap()),
            // Uniform 4-byte chunks: no segment is excluded, so the
            // segment matrix is the field matrix.
            (&ntp, FixedChunks { width: 4 }.segment_trace(&ntp).unwrap()),
        ];
        let config = StateMachineConfig::default();
        for (ci, (trace, seg)) in captures.iter().enumerate() {
            for backend in [NeighborBackend::Matrix, NeighborBackend::Stratified] {
                for with_store in [false, true] {
                    let label = format!("capture {ci}, {backend:?}, store {with_store}");
                    let dir = std::env::temp_dir().join(format!(
                        "fieldclust-park-{}-{ci}-{backend:?}-{with_store}",
                        std::process::id()
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    let clusterer = FieldTypeClusterer {
                        neighbor_backend: backend,
                        ..FieldTypeClusterer::default()
                    };
                    let mut s = AnalysisSession::new(trace, clusterer);
                    s.set_segmentation(seg.clone());
                    if with_store {
                        s.set_store(ArtifactStore::open(&dir).expect("open store"));
                    }
                    let report = standard_report(trace, &mut s).unwrap();
                    let machine = s.state_machine(&config).unwrap();
                    let result = format!("{:?}", s.finish().unwrap());
                    assert!(holds_a_parked_artifact(&s), "{label}");

                    s.park();
                    assert!(!holds_a_parked_artifact(&s), "{label}: still held");
                    let counters = s.neighbor_counters();
                    let stats = s.cache_stats();
                    assert_eq!(standard_report(trace, &mut s).unwrap(), report, "{label}");
                    let again = s.state_machine(&config).unwrap();
                    assert_eq!(again, machine, "{label}");
                    assert_eq!(again.to_dot(), machine.to_dot(), "{label}");
                    assert_eq!(again.to_json(), machine.to_json(), "{label}");
                    assert_eq!(format!("{:?}", s.finish().unwrap()), result, "{label}");
                    assert_eq!(s.neighbor_counters(), counters, "{label}: no query ran");
                    assert!(!holds_a_parked_artifact(&s), "{label}: nothing rebuilt");
                    if let (Some(before), Some(after)) = (stats, s.cache_stats()) {
                        assert_eq!(after.misses, before.misses, "{label}: no store miss");
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }

    #[test]
    fn parking_a_cancelled_message_typing_keeps_its_inputs() {
        use segment::fixed::FixedChunks;
        use segment::nemesys::Nemesys;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dns = corpus::build_trace(Protocol::Dns, 50, 21);
        let ntp = corpus::build_trace(Protocol::Ntp, 50, 21);
        let captures = [
            (&dns, Nemesys::default().segment_trace(&dns).unwrap()),
            // No segment is excluded here: the segment matrix is the
            // field matrix.
            (&ntp, FixedChunks { width: 4 }.segment_trace(&ntp).unwrap()),
        ];
        for (trace, seg) in captures {
            let mut s = AnalysisSession::new(trace, FieldTypeClusterer::default());
            s.set_segmentation(seg.clone());
            s.finish().unwrap();
            s.segment_matrix().unwrap();
            let polls = AtomicUsize::new(0);
            let mid_alignment = || polls.fetch_add(1, Ordering::Relaxed) >= 5;
            assert!(matches!(
                s.message_matrix_until(0.8, &mid_alignment),
                Err(MessageTypeError::Cancelled)
            ));
            s.park();
            assert!(s.store.is_some(), "the segment store is kept");
            assert!(s.dissim.is_some(), "the segment matrix is kept");
            assert!(s.knn.is_none() && s.strata.is_none(), "the field side goes");
            // The retry types the messages like a session never cancelled.
            let config = MessageTypeConfig::default();
            let retried = s.message_types(&config).unwrap();
            let mut fresh = AnalysisSession::new(trace, FieldTypeClusterer::default());
            fresh.set_segmentation(seg);
            let expected = fresh.message_types(&config).unwrap();
            assert_eq!(retried.clustering, expected.clustering);
            assert_eq!(retried.epsilon.to_bits(), expected.epsilon.to_bits());
        }
    }

    #[test]
    fn a_new_segmentation_forgets_that_message_typing_followed() {
        use crate::report::standard_report;
        use segment::nemesys::Nemesys;
        let trace = corpus::build_trace(Protocol::Dns, 60, 23);
        let seg = Nemesys::default().segment_trace(&trace).unwrap();
        let mut s = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        s.set_segmentation(seg.clone());
        standard_report(&trace, &mut s).unwrap();
        assert_eq!(
            s.resolved_neighbor_backend().unwrap(),
            NeighborBackend::Matrix,
            "a report reads the segment matrix"
        );

        // Clustering alone on the re-segmented trace: mixed-length
        // NEMESYS segments steer `auto` to the stratified index again.
        s.set_segmentation(seg);
        assert_eq!(
            s.resolved_neighbor_backend().unwrap(),
            NeighborBackend::Stratified
        );
        s.finish().unwrap();
        assert!(s.dissim.is_none(), "the stratified stages build no matrix");
        // A matrix asked for explicitly goes at park: no message typing
        // is pending on this segmentation.
        s.matrix().unwrap();
        s.park();
        assert!(s.dissim.is_none(), "park drops the segment matrix");
    }

    #[test]
    fn message_types_are_memoized_with_their_config() {
        let (_, mut s) = session_for(Protocol::Dns, 40, 22);
        let config = MessageTypeConfig::default();
        let first = s.message_types(&config).unwrap();
        s.take_stage_record();
        // A memo hit reads no matrix: drop them all and ask again.
        s.dissim = None;
        s.msg_dissim = None;
        let again = s.message_types(&config).unwrap();
        assert_eq!(again.clustering, first.clustering);
        assert!(s.msg_dissim.is_none(), "served from the memo");
        assert!(
            s.take_stage_record().iter().next().is_none(),
            "a memo hit adds nothing"
        );
        // Another configuration computes its own types.
        let other = MessageTypeConfig {
            gap_penalty: 0.5,
            ..config
        };
        s.message_types(&other).unwrap();
        assert!(s.msg_dissim.is_some());
    }

    /// A NEMESYS-segmented DNS trace of `n` messages and the session of
    /// its first `k` messages under the same segmentation.
    fn grown_pair(n: usize, k: usize, seed: u64) -> (Trace, TraceSegmentation, Trace) {
        use segment::nemesys::Nemesys;
        let trace = corpus::build_trace(Protocol::Dns, n, seed);
        let seg = Nemesys::default().segment_trace(&trace).unwrap();
        let prefix = Trace::new(trace.name(), trace.messages()[..k].to_vec());
        (trace, seg, prefix)
    }

    #[test]
    fn grown_trace_extends_its_message_matrix_bit_for_bit() {
        let dir =
            std::env::temp_dir().join(format!("fieldclust-msg-extend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (trace, seg, prefix) = grown_pair(60, 42, 17);
        let store = ArtifactStore::open(&dir).expect("open store");
        let mut old = AnalysisSession::new(&prefix, FieldTypeClusterer::default());
        old.set_segmentation(TraceSegmentation {
            messages: seg.messages[..42].to_vec(),
        });
        old.set_store(store.clone());
        old.message_matrix(0.8).unwrap();

        let mut grown = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        grown.set_segmentation(seg.clone());
        grown.set_store(store.clone());
        grown.segment_matrix().unwrap();
        let before = store.stats().extended;
        let extended = grown.message_matrix(0.8).unwrap().clone();
        assert_eq!(
            store.stats().extended,
            before + 1,
            "the message matrix grows from the 42-message prefix"
        );
        let mut cold = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        cold.set_segmentation(seg);
        let bits = |m: &CondensedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(&extended) == bits(cold.message_matrix(0.8).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stopped_extension_caches_nothing_and_resumes_identically() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!(
            "fieldclust-msg-extend-cancel-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (trace, seg, prefix) = grown_pair(50, 30, 18);
        let store = ArtifactStore::open(&dir).expect("open store");
        let mut old = AnalysisSession::new(&prefix, FieldTypeClusterer::default());
        old.set_segmentation(TraceSegmentation {
            messages: seg.messages[..30].to_vec(),
        });
        old.set_store(store.clone());
        old.message_matrix(0.8).unwrap();

        let mut grown = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        grown.set_segmentation(seg.clone());
        grown.set_store(store.clone());
        grown.segment_matrix().unwrap();
        let at_stop = store.stats();
        let polls = AtomicUsize::new(0);
        let mid_extension = || polls.fetch_add(1, Ordering::Relaxed) >= 35;
        assert!(matches!(
            grown.message_matrix_until(0.8, &mid_extension),
            Err(MessageTypeError::Cancelled)
        ));
        assert!(grown.msg_dissim.is_none(), "no partial matrix in memory");
        let stats = store.stats();
        assert_eq!(stats.writes, at_stop.writes, "nothing on disk");
        assert_eq!(stats.extended, at_stop.extended, "no extension recorded");
        // Re-driving extends from the same prefix to the cold matrix.
        let resumed = grown.message_matrix(0.8).unwrap().clone();
        assert_eq!(store.stats().extended, at_stop.extended + 1);
        let mut cold = AnalysisSession::new(&trace, FieldTypeClusterer::default());
        cold.set_segmentation(seg);
        assert_eq!(&resumed, cold.message_matrix(0.8).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
