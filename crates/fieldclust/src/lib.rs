#![warn(missing_docs)]
//! Field data type clustering for reverse engineering of unknown binary
//! protocols — a from-scratch implementation of Kleber, Kargl, Stute &
//! Hollick, *"Network Message Field Type Clustering for Reverse
//! Engineering of Unknown Binary Protocols"*, IEEE DSN-W 2022.
//!
//! Given a trace of messages of one (unknown) protocol and a
//! segmentation — heuristic or ground truth — the pipeline groups
//! message segments into **pseudo data types**: clusters of segments
//! that, by the similarity of their byte values, plausibly carry the
//! same field data type. No per-type heuristics are involved, so the
//! method also covers data representations nobody anticipated.
//!
//! The pipeline (paper §III, [`FieldTypeClusterer`]):
//!
//! 1. **Preprocess** the trace ([`trace::Preprocessor`]): filter,
//!    de-duplicate, truncate.
//! 2. **Segment** messages ([`segment`]): NEMESYS, Netzob-style, CSP, or
//!    the ground-truth adapter in [`truth`].
//! 3. **Dissimilarity**: pairwise Canberra dissimilarity between unique
//!    segments of at least two bytes ([`dissim`]).
//! 4. **Auto-configure** DBSCAN from the k-NN dissimilarity ECDF's knee
//!    ([`cluster::autoconf`]).
//! 5. **Cluster** with DBSCAN; re-configure on a trimmed ECDF when one
//!    cluster swallows more than 60 % of the segments.
//! 6. **Refine**: merge over-classified clusters, split clusters with
//!    polarized value occurrences.
//!
//! The stages are driven by the staged [`AnalysisSession`], which caches
//! each stage's artifact (segmentation, deduplicated [`SegmentStore`],
//! shared dissimilarity matrix + k-NN table, selected parameters,
//! clustering) so that downstream consumers — including
//! [`msgtype`] message typing — reuse instead of recompute.
//! [`FieldTypeClusterer::cluster_trace`] is the one-call wrapper.
//!
//! # Examples
//!
//! End-to-end on a synthetic NTP trace with ground-truth segmentation:
//!
//! ```
//! use fieldclust::{FieldTypeClusterer, truth};
//! use protocols::{corpus, Protocol};
//!
//! let trace = corpus::build_trace(Protocol::Ntp, 60, 7);
//! let gt = corpus::ground_truth(Protocol::Ntp, &trace);
//! let segmentation = truth::truth_segmentation(&trace, &gt);
//!
//! let result = FieldTypeClusterer::default().cluster_trace(&trace, &segmentation)?;
//! assert!(result.clustering.n_clusters() > 0);
//! # Ok::<(), fieldclust::PipelineError>(())
//! ```

pub(crate) mod cache;
pub mod cancel;
pub mod compare;
pub mod eval;
pub mod fsm;
pub mod fuzzgen;
pub mod msgtype;
pub mod pipeline;
pub mod report;
pub mod segments;
pub mod semantics;
pub mod session;
pub mod stages;
pub mod truth;

pub use cancel::CancelToken;
pub use compare::{compare_clusterings, ClusteringDiff};
pub use eval::{evaluate, label_segments, Evaluation};
pub use fsm::{symbol_labels, StateMachineConfig};
pub use msgtype::{identify_message_types, MessageTypeConfig, MessageTypes};
pub use pipeline::{
    EpsilonSource, FieldTypeClusterer, NeighborBackend, PipelineError, PseudoTypeClustering,
};
pub use segments::{SegmentInstance, SegmentStore, UniqueSegment};
pub use semantics::{interpret, ClusterSemantics, SemanticHypothesis, SemanticsConfig};
pub use session::AnalysisSession;
pub use stages::{Stage, StageRecord, StageTotals};
pub use store::{ArtifactStore, StoreStats};
