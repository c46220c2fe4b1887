//! The streaming analysis session: bounded batches of messages in,
//! drift records out.
//!
//! A [`StreamSession`] accumulates messages pushed from any
//! [`MessageSource`](crate::source::MessageSource) (or the wire), and
//! on every [`flush`](StreamSession::flush) re-clusters the *entire*
//! admitted set through a fresh staged `AnalysisSession` over the
//! shared [`ArtifactStore`]. That mirrors the daemon's append
//! semantics exactly: preprocessing (global de-duplication) must see
//! the full concatenation, and warmth comes from the store's
//! chained-prefix-digest keys — the matrix grows by tile-append or
//! prefix extension and the stratified index by
//! `StrataIndex::extend_from`, never a cold rebuild. With sampling
//! off, the final batch's session state is therefore byte-identical to
//! a one-shot analysis of the merged capture, which is what makes
//! `fieldclust follow` equivalent to `fieldclust analyze` (pinned by
//! `tests/stream_equivalence.rs` and the check.sh streaming smoke).
//!
//! With sampling on, the admitted set is the deterministic stratified
//! reservoir of everything seen (see [`crate::sample`]), so memory
//! stays bounded no matter how long the stream runs.

use std::time::Instant;

use fieldclust::report::standard_report;
use fieldclust::session::AnalysisSession;
use fieldclust::{ArtifactStore, FieldTypeClusterer, StageRecord};
use trace::{Message, Trace};

use crate::drift::{ClusterSnapshot, DriftRecord, DriftTracker};
use crate::prep::{build_segmenter, preprocess, PrepareOpts};
use crate::sample::{SampleConfig, StratifiedReservoir};

/// Configuration of a streaming session.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Preprocessing applied to every batch's concatenated trace.
    pub prepare: PrepareOpts,
    /// Segmenter spec (`nemesys`|`netzob`|`csp`|`fixed`).
    pub segmenter: String,
    /// The pipeline configuration every batch re-clusters under.
    pub clusterer: FieldTypeClusterer,
    /// Sampling policy; `max == 0` admits everything.
    pub sample: SampleConfig,
    /// Infer a protocol state machine per batch and report its drift
    /// (states/transitions born and died) alongside ARI/AMI. Costs one
    /// msgtype + FSM inference per flush, so it is opt-in.
    pub fsm: bool,
}

/// A continuous analysis over an unbounded message stream.
pub struct StreamSession {
    config: StreamConfig,
    store: Option<ArtifactStore>,
    /// Admitted messages in arrival order (sampling off).
    kept: Vec<Message>,
    /// Bounded-memory sample of everything seen (sampling on).
    reservoir: StratifiedReservoir,
    /// Messages pushed since the last flush.
    pending: usize,
    tracker: DriftTracker,
    fsm_tracker: statemachine::FsmTracker,
    records: Vec<DriftRecord>,
    /// The last batch's warm session, kept (parked) for the final
    /// report.
    last: Option<AnalysisSession<'static>>,
    /// The last batch's session stage record.
    last_stages: StageRecord,
}

impl StreamSession {
    /// Creates an idle session. `store` is the shared artifact store
    /// that carries warmth between batches; without one every batch is
    /// a cold run (correct, just slower).
    pub fn new(config: StreamConfig, store: Option<ArtifactStore>) -> Self {
        let reservoir = StratifiedReservoir::new(config.sample);
        StreamSession {
            config,
            store,
            kept: Vec::new(),
            reservoir,
            pending: 0,
            tracker: DriftTracker::new(),
            fsm_tracker: statemachine::FsmTracker::new(),
            records: Vec::new(),
            last: None,
            last_stages: StageRecord::default(),
        }
    }

    /// Whether a sampling cap is in force.
    pub fn is_sampling(&self) -> bool {
        self.config.sample.max > 0
    }

    /// Messages pushed since the last flush.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Messages observed over the life of the stream.
    pub fn seen(&self) -> u64 {
        if self.is_sampling() {
            self.reservoir.seen()
        } else {
            self.kept.len() as u64
        }
    }

    /// Drift records of every flushed batch, oldest first.
    pub fn records(&self) -> &[DriftRecord] {
        &self.records
    }

    /// Number of batches analyzed so far.
    pub fn batches(&self) -> u64 {
        self.records.len() as u64
    }

    /// The last flushed batch's stage record (walls and counters).
    pub fn last_stages(&self) -> &StageRecord {
        &self.last_stages
    }

    /// Cumulative artifact-store statistics, when a store is attached.
    pub fn cache_stats(&self) -> Option<store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Accepts newly arrived messages into the pending batch.
    pub fn push(&mut self, messages: Vec<Message>) {
        self.pending += messages.len();
        if self.is_sampling() {
            for m in messages {
                self.reservoir.offer(m);
            }
        } else {
            self.kept.extend(messages);
        }
    }

    /// Re-clusters the admitted set and appends a drift record.
    /// Returns `None` without analyzing when nothing new arrived since
    /// the previous flush, or when nothing has arrived at all.
    ///
    /// # Errors
    ///
    /// A human-readable message when preprocessing or any pipeline
    /// stage fails; the session stays usable (the next flush retries
    /// over the then-current admitted set).
    pub fn flush(&mut self) -> Result<Option<DriftRecord>, String> {
        if self.pending == 0 {
            return Ok(None);
        }
        let admitted = if self.is_sampling() {
            self.reservoir.sampled()
        } else {
            self.kept.clone()
        };
        if admitted.is_empty() {
            return Ok(None);
        }
        let batch_start = Instant::now();
        let n_admitted = admitted.len() as u64;
        // Preprocessing runs before the session exists, so it is the one
        // stage timed here; the session records every other one.
        let raw = Trace::new("capture", admitted);
        let prepared = preprocess(&raw, &self.config.prepare)?;
        let preprocess_us = batch_start.elapsed().as_micros() as u64;

        let mut session = AnalysisSession::from_owned(prepared, self.config.clusterer.clone());
        if let Some(store) = &self.store {
            session.set_store(store.clone());
        }
        let segmenter = build_segmenter(&self.config.segmenter)?;
        session
            .segment_with(segmenter.as_ref())
            .map_err(|e| format!("segmentation failed: {e}"))?;
        let result = session.finish().map_err(|e| e.to_string())?;

        // Optional state-machine drift: the machine rides on the
        // msgtype labels of the batch just clustered, so it is inferred
        // here (warm — segmentation and clustering are staged) and
        // compared by access-string signature against the previous
        // batch's machine.
        let fsm = if self.config.fsm {
            let machine = session
                .state_machine(&fieldclust::StateMachineConfig::default())
                .map_err(|e| format!("state machine inference failed: {e}"))?;
            Some(self.fsm_tracker.observe(&machine))
        } else {
            None
        };
        let stages = session.take_stage_record();
        let mut walls = vec![("preprocess".to_string(), preprocess_us)];
        walls.extend(
            stages
                .iter()
                .map(|(stage, t)| (stage.name().to_string(), t.wall_ns / 1_000)),
        );

        let delta = self.tracker.observe(ClusterSnapshot::from_result(&result));
        let stats = session.cache_stats();
        let record = DriftRecord {
            batch: self.records.len() as u64,
            messages: n_admitted,
            seen: self.seen(),
            unique_segments: result.store.segments.len() as u64,
            clusters: u64::from(result.clustering.n_clusters()),
            noise: result.clustering.noise().len() as u64,
            delta,
            stage_walls_us: walls,
            wall_us: batch_start.elapsed().as_micros() as u64,
            store_hits: stats.as_ref().map_or(0, |s| s.hits),
            store_misses: stats.as_ref().map_or(0, |s| s.misses),
            fsm,
        };
        // Keep the clustering (and any message types), not the matrices
        // and indexes that built them.
        session.park();
        self.last = Some(session);
        self.last_stages = stages;
        self.records.push(record.clone());
        self.pending = 0;
        Ok(Some(record))
    }

    /// Renders the canonical report from the last flushed batch — the
    /// same `standard_report` path the offline CLI and the daemon use,
    /// so with sampling off it is byte-identical to a one-shot
    /// `analyze` of the merged capture.
    ///
    /// # Errors
    ///
    /// When no batch has been flushed yet, or the report stage fails.
    pub fn final_report(&mut self) -> Result<String, String> {
        let session = self
            .last
            .as_mut()
            .ok_or_else(|| "no batch analyzed yet".to_string())?;
        // Clone the trace out so the report borrows don't fight the
        // session's `&mut` receiver methods.
        let trace = session.trace().clone();
        standard_report(&trace, session).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::{corpus, Protocol};

    fn config(sample: SampleConfig) -> StreamConfig {
        StreamConfig {
            prepare: PrepareOpts::default(),
            segmenter: "nemesys".to_string(),
            clusterer: FieldTypeClusterer::default(),
            sample,
            fsm: false,
        }
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let mut s = StreamSession::new(config(SampleConfig::default()), None);
        assert!(s.flush().unwrap().is_none());
        assert_eq!(s.batches(), 0);
    }

    #[test]
    fn batches_accumulate_and_record_drift() {
        let trace = corpus::build_trace(Protocol::Ntp, 60, 5);
        let msgs = trace.messages().to_vec();
        let mut s = StreamSession::new(config(SampleConfig::default()), None);
        s.push(msgs[..30].to_vec());
        let r0 = s.flush().unwrap().expect("first batch");
        assert_eq!(r0.batch, 0);
        assert_eq!(r0.messages, 30);
        assert_eq!(r0.delta.ari, 1.0);
        assert!(r0.delta.births >= 1);
        assert!(r0.stage_walls_us.iter().any(|(n, _)| n == "segment"));
        assert!(r0.stage_walls_us.iter().any(|(n, _)| n == "cluster"));
        assert!(r0.fsm.is_none(), "FSM drift is opt-in");

        // No new messages: flush declines to re-analyze.
        assert!(s.flush().unwrap().is_none());

        s.push(msgs[30..].to_vec());
        let r1 = s.flush().unwrap().expect("second batch");
        assert_eq!(r1.batch, 1);
        assert_eq!(r1.messages, 60);
        assert_eq!(r1.seen, 60);
        assert_eq!(s.batches(), 2);
        assert!(s.final_report().unwrap().contains("Field type analysis"));
    }

    #[test]
    fn fsm_opt_in_reports_state_machine_drift() {
        let trace = corpus::build_trace(Protocol::Ntp, 60, 5);
        let msgs = trace.messages().to_vec();
        let mut cfg = config(SampleConfig::default());
        cfg.fsm = true;
        let mut s = StreamSession::new(cfg, None);
        s.push(msgs[..30].to_vec());
        let r0 = s.flush().unwrap().expect("first batch");
        let d0 = r0.fsm.expect("fsm delta present when opted in");
        assert!(d0.states >= 1);
        assert_eq!(d0.states_born, d0.states, "first machine: all born");
        assert_eq!(d0.states_died, 0);
        assert!(r0.stage_walls_us.iter().any(|(n, _)| n == "fsm"));
        assert!(r0.to_json_line().contains("\"fsm\":{"));

        s.push(msgs[30..].to_vec());
        let r1 = s.flush().unwrap().expect("second batch");
        let d1 = r1.fsm.expect("fsm delta on every opted-in batch");
        assert!(d1.states >= 1);
    }

    #[test]
    fn sampling_bounds_the_admitted_set() {
        let trace = corpus::build_trace(Protocol::Ntp, 120, 6);
        let mut s = StreamSession::new(config(SampleConfig { max: 40, seed: 13 }), None);
        s.push(trace.messages().to_vec());
        let r = s.flush().unwrap().expect("batch");
        assert!(r.messages <= 40);
        assert_eq!(r.seen, 120);
        assert!(s.is_sampling());
    }
}
