//! The `ftcd` request/response vocabulary and its payload codec.
//!
//! One request frame in, one response frame out, on a persistent
//! connection. Payloads are encoded with the store's little-endian
//! codec (`store::codec`), so the daemon's wire format and its cache
//! files share one set of primitives. Request kind tags live below
//! `0x80`, response tags at `0x80` and above; [`JobState`] is nested
//! inside [`Response::JobStatus`] under its own sub-tag.
//!
//! Anything that does not decode exactly — unknown tag, short payload,
//! trailing bytes, non-UTF-8 string — is a structured
//! [`WireError::Malformed`] / [`WireError::UnknownKind`], never a
//! panic and never a guess.

use crate::wire::WireError;
use store::codec::{Reader, Writer};

/// A client-to-daemon request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Upload a capture; the daemon parses and preprocesses it exactly
    /// like the offline CLI (sniffed pcap/pcapng, optional NBSS
    /// reassembly, de-duplication, optional port filter and truncation)
    /// so later reports are byte-identical to offline runs.
    SubmitTrace {
        /// Display label for stats and logs (the trace itself is named
        /// `capture`, matching the offline CLI's loader).
        label: String,
        /// Raw pcap or pcapng bytes.
        pcap: Vec<u8>,
        /// Keep only messages with this source or destination port.
        port: Option<u16>,
        /// Truncate to this many messages after preprocessing.
        max: Option<u64>,
        /// Reassemble TCP streams with NBSS framing before
        /// preprocessing.
        reassemble: bool,
    },
    /// Append another capture's messages to an existing trace; the
    /// preprocessor re-runs over the concatenation, and analyses
    /// warm-start from cached prefix artifacts (tile-append growth).
    AppendMessages {
        /// Trace to grow.
        trace_id: u64,
        /// Raw pcap or pcapng bytes to append.
        pcap: Vec<u8>,
    },
    /// Enqueue a full analysis of a submitted trace.
    Analyze {
        /// Trace to analyze.
        trace_id: u64,
        /// Segmenter spec (`nemesys` | `netzob` | `csp` | `fixed`).
        segmenter: String,
        /// Cooperative deadline in milliseconds from acceptance;
        /// `0` means none.
        deadline_ms: u64,
    },
    /// Fetch a job's state (and its report once done).
    QueryReport {
        /// Job to query.
        job_id: u64,
    },
    /// Cancel a queued or running job. Queued jobs free their admission
    /// slot immediately; running jobs stop at the next stage boundary.
    CancelJob {
        /// Job to cancel.
        job_id: u64,
    },
    /// Fetch the daemon's counters.
    Stats,
    /// Stop accepting work, drain in-flight jobs, exit.
    Shutdown,
    /// Chunked streaming ingestion. Capture bytes arrive in chunks so a
    /// long-running stream is never bounded by one `MAX_FRAME` buffer;
    /// a chunk with `commit` set closes the batch: the daemon parses
    /// the buffered capture, creates the stream's trace (first batch)
    /// or appends to it (warm growth), and admits a drift-tracked
    /// analysis under `segmenter` through normal admission control.
    StreamTrace {
        /// Stream to continue, or 0 to open a new stream.
        stream_id: u64,
        /// Display label (used when the first batch creates the trace).
        label: String,
        /// Capture bytes to buffer (may be empty on a bare commit).
        chunk: Vec<u8>,
        /// Close the batch and enqueue its analysis.
        commit: bool,
        /// Segmenter spec for the committed batch's analysis.
        segmenter: String,
    },
    /// Fetch the per-batch drift history of a streamed trace.
    DriftReport {
        /// Trace whose drift history to return.
        trace_id: u64,
    },
    /// Infer the protocol state machine of a submitted trace: cluster
    /// its messages into pseudo message types, group them into flows,
    /// and merge the per-flow label sequences into a deterministic
    /// automaton. Served from the warm session / artifact store when
    /// the machine was inferred before — warm runs rebuild nothing.
    InferStateMachine {
        /// Trace whose state machine to infer.
        trace_id: u64,
        /// Segmenter spec (`nemesys` | `netzob` | `csp` | `fixed`).
        segmenter: String,
        /// Cooperative deadline in milliseconds from acceptance;
        /// `0` means none.
        deadline_ms: u64,
    },
}

/// Where a job currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker; `position` jobs are queued ahead of it.
    Queued {
        /// Queued jobs ahead of this one.
        position: u64,
    },
    /// A worker is driving its stages.
    Running,
    /// Finished; the full Markdown report.
    Done {
        /// UTF-8 Markdown report bytes.
        report: Vec<u8>,
    },
    /// The analysis failed.
    Failed {
        /// Human-readable failure.
        message: String,
    },
    /// Cancelled by request or deadline.
    Cancelled,
}

/// A daemon-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submitted or grown trace, after preprocessing.
    TraceAccepted {
        /// Handle for later requests.
        trace_id: u64,
        /// Messages surviving preprocessing.
        messages: u64,
    },
    /// The analysis was admitted to the queue.
    JobAccepted {
        /// Handle for `QueryReport` / `CancelJob`.
        job_id: u64,
    },
    /// Admission control refused the job; try again after the hint.
    Rejected {
        /// Suggested client-side backoff.
        retry_after_ms: u64,
        /// Why (queue full, shutting down, …).
        reason: String,
    },
    /// A job's current state.
    JobStatus {
        /// The queried job.
        job_id: u64,
        /// Its state.
        state: JobState,
    },
    /// The daemon's counters.
    StatsReport(ServerStats),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShuttingDown {
        /// In-flight jobs being drained.
        drained: u64,
    },
    /// The request could not be served (unknown id, parse failure, …).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// A `StreamTrace` chunk (or commit) was applied.
    StreamAccepted {
        /// The stream's handle (fresh on open).
        stream_id: u64,
        /// The stream's trace, 0 until the first commit creates it.
        trace_id: u64,
        /// Capture bytes currently buffered, after this chunk.
        buffered: u64,
        /// Batches committed so far on this stream.
        batches: u64,
        /// Job admitted by this commit, 0 when none was.
        job_id: u64,
    },
    /// Per-batch drift records of a streamed trace, oldest first.
    DriftHistory {
        /// The queried trace.
        trace_id: u64,
        /// One record per committed batch.
        records: Vec<ingest::DriftRecord>,
    },
    /// The inferred protocol state machine of a trace, carrying the
    /// daemon's canonical renderings so every frontend emits
    /// byte-identical exports.
    StateMachine {
        /// The queried trace.
        trace_id: u64,
        /// States of the machine.
        states: u64,
        /// Transitions of the machine.
        transitions: u64,
        /// Flows the machine was inferred from.
        flows: u64,
        /// Deterministic Graphviz DOT rendering (UTF-8).
        dot: Vec<u8>,
        /// Deterministic JSON rendering (UTF-8).
        json: Vec<u8>,
    },
}

/// A snapshot of the daemon's counters, served by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Analyses admitted to the queue.
    pub jobs_accepted: u64,
    /// Analyses refused by admission control.
    pub jobs_rejected: u64,
    /// Analyses cancelled (by request or deadline).
    pub jobs_cancelled: u64,
    /// Analyses finished with a report.
    pub jobs_completed: u64,
    /// Analyses that failed.
    pub jobs_failed: u64,
    /// Jobs currently queued or running.
    pub queue_depth: u64,
    /// Traces held by the session manager.
    pub traces: u64,
    /// Warm `AnalysisSession`s parked for reuse.
    pub warm_sessions: u64,
    /// Artifact-store hits (0 without `--cache-dir`).
    pub cache_hits: u64,
    /// Artifact-store misses.
    pub cache_misses: u64,
    /// Artifact-store writes.
    pub cache_writes: u64,
    /// Matrices the artifact store grew from a cached prefix instead of
    /// building cold (segment and message matrices, strata indexes).
    pub cache_extended: u64,
    /// Artifact-store reads served zero-copy through a memory mapping
    /// (0 without `--cache-dir`, with `--no-mmap`, or on platforms
    /// without the mmap read path).
    pub cache_mmap_reads: u64,
    /// Peak resident set size of the daemon process, in bytes.
    pub peak_rss_bytes: u64,
    /// Configured warm-session capacity (`ftcd --sessions`).
    pub session_capacity: u64,
    /// Warm sessions evicted to stay under capacity.
    pub session_evictions: u64,
    /// Streamed batches committed across all streams.
    pub stream_batches: u64,
    /// Exact dissimilarity-kernel evaluations performed by stratified
    /// neighbor queries (0 on the matrix and tiled backends).
    pub kernel_evals: u64,
    /// Candidates skipped by the stratified backend's lower bounds
    /// without a kernel evaluation.
    pub pruned_candidates: u64,
    /// Whole length-strata skipped by the penalty-aware lower bound.
    pub strata_skipped: u64,
    /// Cumulative wall time per pipeline stage, nanoseconds.
    pub stage_wall_ns: Vec<(String, u64)>,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: accepted={} rejected={} cancelled={} completed={} failed={} queued={}",
            self.jobs_accepted,
            self.jobs_rejected,
            self.jobs_cancelled,
            self.jobs_completed,
            self.jobs_failed,
            self.queue_depth,
        )?;
        writeln!(
            f,
            "sessions: traces={} warm={} capacity={} evictions={} cache: hits={} misses={} writes={} extended={} mmap_reads={}",
            self.traces,
            self.warm_sessions,
            self.session_capacity,
            self.session_evictions,
            self.cache_hits,
            self.cache_misses,
            self.cache_writes,
            self.cache_extended,
            self.cache_mmap_reads,
        )?;
        writeln!(f, "stream_batches={}", self.stream_batches)?;
        writeln!(
            f,
            "neighbors: kernel_evals={} pruned={} strata_skipped={}",
            self.kernel_evals, self.pruned_candidates, self.strata_skipped,
        )?;
        writeln!(f, "peak_rss_bytes={}", self.peak_rss_bytes)?;
        for (stage, ns) in &self.stage_wall_ns {
            writeln!(f, "stage {stage}: {:.3}s", *ns as f64 / 1e9)?;
        }
        Ok(())
    }
}

fn string(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn read_string(r: &mut Reader<'_>) -> Option<String> {
    String::from_utf8(r.bytes()?.to_vec()).ok()
}

fn opt_u16(w: &mut Writer, v: Option<u16>) {
    match v {
        Some(p) => {
            w.u8(1);
            w.u32(u32::from(p));
        }
        None => w.u8(0),
    }
}

fn read_opt_u16(r: &mut Reader<'_>) -> Option<Option<u16>> {
    match r.u8()? {
        0 => Some(None),
        1 => u16::try_from(r.u32()?).ok().map(Some),
        _ => None,
    }
}

fn opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(n) => {
            w.u8(1);
            w.u64(n);
        }
        None => w.u8(0),
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Option<Option<u64>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(r.u64()?)),
        _ => None,
    }
}

impl Request {
    /// The frame kind tag of this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::SubmitTrace { .. } => 0x01,
            Request::AppendMessages { .. } => 0x02,
            Request::Analyze { .. } => 0x03,
            Request::QueryReport { .. } => 0x04,
            Request::CancelJob { .. } => 0x05,
            Request::Stats => 0x06,
            Request::Shutdown => 0x07,
            Request::StreamTrace { .. } => 0x08,
            Request::DriftReport { .. } => 0x09,
            Request::InferStateMachine { .. } => 0x0a,
        }
    }

    /// Encodes the request payload (pair it with [`Self::kind`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::SubmitTrace {
                label,
                pcap,
                port,
                max,
                reassemble,
            } => {
                string(&mut w, label);
                w.bytes(pcap);
                opt_u16(&mut w, *port);
                opt_u64(&mut w, *max);
                w.u8(u8::from(*reassemble));
            }
            Request::AppendMessages { trace_id, pcap } => {
                w.u64(*trace_id);
                w.bytes(pcap);
            }
            Request::Analyze {
                trace_id,
                segmenter,
                deadline_ms,
            } => {
                w.u64(*trace_id);
                string(&mut w, segmenter);
                w.u64(*deadline_ms);
            }
            Request::QueryReport { job_id } | Request::CancelJob { job_id } => {
                w.u64(*job_id);
            }
            Request::Stats | Request::Shutdown => {}
            Request::StreamTrace {
                stream_id,
                label,
                chunk,
                commit,
                segmenter,
            } => {
                w.u64(*stream_id);
                string(&mut w, label);
                w.bytes(chunk);
                w.u8(u8::from(*commit));
                string(&mut w, segmenter);
            }
            Request::DriftReport { trace_id } => w.u64(*trace_id),
            Request::InferStateMachine {
                trace_id,
                segmenter,
                deadline_ms,
            } => {
                w.u64(*trace_id);
                string(&mut w, segmenter);
                w.u64(*deadline_ms);
            }
        }
        w.into_inner()
    }

    /// Decodes a request from a frame's kind tag and payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for tags outside the request range,
    /// [`WireError::Malformed`] when the payload does not parse exactly.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let malformed = WireError::Malformed { kind };
        let mut r = Reader::new(payload);
        let request = match kind {
            0x01 => Request::SubmitTrace {
                label: read_string(&mut r).ok_or(malformed.clone())?,
                pcap: r.bytes().ok_or(malformed.clone())?.to_vec(),
                port: read_opt_u16(&mut r).ok_or(malformed.clone())?,
                max: read_opt_u64(&mut r).ok_or(malformed.clone())?,
                reassemble: match r.u8().ok_or(malformed.clone())? {
                    0 => false,
                    1 => true,
                    _ => return Err(malformed),
                },
            },
            0x02 => Request::AppendMessages {
                trace_id: r.u64().ok_or(malformed.clone())?,
                pcap: r.bytes().ok_or(malformed.clone())?.to_vec(),
            },
            0x03 => Request::Analyze {
                trace_id: r.u64().ok_or(malformed.clone())?,
                segmenter: read_string(&mut r).ok_or(malformed.clone())?,
                deadline_ms: r.u64().ok_or(malformed.clone())?,
            },
            0x04 => Request::QueryReport {
                job_id: r.u64().ok_or(malformed.clone())?,
            },
            0x05 => Request::CancelJob {
                job_id: r.u64().ok_or(malformed.clone())?,
            },
            0x06 => Request::Stats,
            0x07 => Request::Shutdown,
            0x08 => Request::StreamTrace {
                stream_id: r.u64().ok_or(malformed.clone())?,
                label: read_string(&mut r).ok_or(malformed.clone())?,
                chunk: r.bytes().ok_or(malformed.clone())?.to_vec(),
                commit: match r.u8().ok_or(malformed.clone())? {
                    0 => false,
                    1 => true,
                    _ => return Err(malformed),
                },
                segmenter: read_string(&mut r).ok_or(malformed.clone())?,
            },
            0x09 => Request::DriftReport {
                trace_id: r.u64().ok_or(malformed.clone())?,
            },
            0x0a => Request::InferStateMachine {
                trace_id: r.u64().ok_or(malformed.clone())?,
                segmenter: read_string(&mut r).ok_or(malformed.clone())?,
                deadline_ms: r.u64().ok_or(malformed.clone())?,
            },
            other => return Err(WireError::UnknownKind { kind: other }),
        };
        if !r.is_at_end() {
            return Err(malformed);
        }
        Ok(request)
    }
}

impl JobState {
    fn encode(&self, w: &mut Writer) {
        match self {
            JobState::Queued { position } => {
                w.u8(0);
                w.u64(*position);
            }
            JobState::Running => w.u8(1),
            JobState::Done { report } => {
                w.u8(2);
                w.bytes(report);
            }
            JobState::Failed { message } => {
                w.u8(3);
                string(w, message);
            }
            JobState::Cancelled => w.u8(4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => JobState::Queued { position: r.u64()? },
            1 => JobState::Running,
            2 => JobState::Done {
                report: r.bytes()?.to_vec(),
            },
            3 => JobState::Failed {
                message: read_string(r)?,
            },
            4 => JobState::Cancelled,
            _ => return None,
        })
    }
}

impl Response {
    /// The frame kind tag of this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::TraceAccepted { .. } => 0x81,
            Response::JobAccepted { .. } => 0x82,
            Response::Rejected { .. } => 0x83,
            Response::JobStatus { .. } => 0x84,
            Response::StatsReport(_) => 0x85,
            Response::ShuttingDown { .. } => 0x86,
            Response::Error { .. } => 0x87,
            Response::StreamAccepted { .. } => 0x88,
            Response::DriftHistory { .. } => 0x89,
            Response::StateMachine { .. } => 0x8a,
        }
    }

    /// Encodes the response payload (pair it with [`Self::kind`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::TraceAccepted { trace_id, messages } => {
                w.u64(*trace_id);
                w.u64(*messages);
            }
            Response::JobAccepted { job_id } => w.u64(*job_id),
            Response::Rejected {
                retry_after_ms,
                reason,
            } => {
                w.u64(*retry_after_ms);
                string(&mut w, reason);
            }
            Response::JobStatus { job_id, state } => {
                w.u64(*job_id);
                state.encode(&mut w);
            }
            Response::StatsReport(stats) => {
                w.u64(stats.jobs_accepted);
                w.u64(stats.jobs_rejected);
                w.u64(stats.jobs_cancelled);
                w.u64(stats.jobs_completed);
                w.u64(stats.jobs_failed);
                w.u64(stats.queue_depth);
                w.u64(stats.traces);
                w.u64(stats.warm_sessions);
                w.u64(stats.cache_hits);
                w.u64(stats.cache_misses);
                w.u64(stats.cache_writes);
                w.u64(stats.cache_extended);
                w.u64(stats.cache_mmap_reads);
                w.u64(stats.peak_rss_bytes);
                w.u64(stats.session_capacity);
                w.u64(stats.session_evictions);
                w.u64(stats.stream_batches);
                w.u64(stats.kernel_evals);
                w.u64(stats.pruned_candidates);
                w.u64(stats.strata_skipped);
                w.usize(stats.stage_wall_ns.len());
                for (stage, ns) in &stats.stage_wall_ns {
                    string(&mut w, stage);
                    w.u64(*ns);
                }
            }
            Response::ShuttingDown { drained } => w.u64(*drained),
            Response::Error { message } => string(&mut w, message),
            Response::StreamAccepted {
                stream_id,
                trace_id,
                buffered,
                batches,
                job_id,
            } => {
                w.u64(*stream_id);
                w.u64(*trace_id);
                w.u64(*buffered);
                w.u64(*batches);
                w.u64(*job_id);
            }
            Response::DriftHistory { trace_id, records } => {
                w.u64(*trace_id);
                w.usize(records.len());
                for rec in records {
                    rec.encode(&mut w);
                }
            }
            Response::StateMachine {
                trace_id,
                states,
                transitions,
                flows,
                dot,
                json,
            } => {
                w.u64(*trace_id);
                w.u64(*states);
                w.u64(*transitions);
                w.u64(*flows);
                w.bytes(dot);
                w.bytes(json);
            }
        }
        w.into_inner()
    }

    /// Decodes a response from a frame's kind tag and payload.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for tags outside the response range,
    /// [`WireError::Malformed`] when the payload does not parse exactly.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let malformed = WireError::Malformed { kind };
        let mut r = Reader::new(payload);
        let response = match kind {
            0x81 => Response::TraceAccepted {
                trace_id: r.u64().ok_or(malformed.clone())?,
                messages: r.u64().ok_or(malformed.clone())?,
            },
            0x82 => Response::JobAccepted {
                job_id: r.u64().ok_or(malformed.clone())?,
            },
            0x83 => Response::Rejected {
                retry_after_ms: r.u64().ok_or(malformed.clone())?,
                reason: read_string(&mut r).ok_or(malformed.clone())?,
            },
            0x84 => Response::JobStatus {
                job_id: r.u64().ok_or(malformed.clone())?,
                state: JobState::decode(&mut r).ok_or(malformed.clone())?,
            },
            0x85 => {
                let mut next = || r.u64();
                let jobs_accepted = next().ok_or(malformed.clone())?;
                let jobs_rejected = next().ok_or(malformed.clone())?;
                let jobs_cancelled = next().ok_or(malformed.clone())?;
                let jobs_completed = next().ok_or(malformed.clone())?;
                let jobs_failed = next().ok_or(malformed.clone())?;
                let queue_depth = next().ok_or(malformed.clone())?;
                let traces = next().ok_or(malformed.clone())?;
                let warm_sessions = next().ok_or(malformed.clone())?;
                let cache_hits = next().ok_or(malformed.clone())?;
                let cache_misses = next().ok_or(malformed.clone())?;
                let cache_writes = next().ok_or(malformed.clone())?;
                let cache_extended = next().ok_or(malformed.clone())?;
                let cache_mmap_reads = next().ok_or(malformed.clone())?;
                let peak_rss_bytes = next().ok_or(malformed.clone())?;
                let session_capacity = next().ok_or(malformed.clone())?;
                let session_evictions = next().ok_or(malformed.clone())?;
                let stream_batches = next().ok_or(malformed.clone())?;
                let kernel_evals = next().ok_or(malformed.clone())?;
                let pruned_candidates = next().ok_or(malformed.clone())?;
                let strata_skipped = next().ok_or(malformed.clone())?;
                let n = r.count(9).ok_or(malformed.clone())?;
                let mut stage_wall_ns = Vec::with_capacity(n);
                for _ in 0..n {
                    let stage = read_string(&mut r).ok_or(malformed.clone())?;
                    let ns = r.u64().ok_or(malformed.clone())?;
                    stage_wall_ns.push((stage, ns));
                }
                Response::StatsReport(ServerStats {
                    jobs_accepted,
                    jobs_rejected,
                    jobs_cancelled,
                    jobs_completed,
                    jobs_failed,
                    queue_depth,
                    traces,
                    warm_sessions,
                    cache_hits,
                    cache_misses,
                    cache_writes,
                    cache_extended,
                    cache_mmap_reads,
                    peak_rss_bytes,
                    session_capacity,
                    session_evictions,
                    stream_batches,
                    kernel_evals,
                    pruned_candidates,
                    strata_skipped,
                    stage_wall_ns,
                })
            }
            0x86 => Response::ShuttingDown {
                drained: r.u64().ok_or(malformed.clone())?,
            },
            0x87 => Response::Error {
                message: read_string(&mut r).ok_or(malformed.clone())?,
            },
            0x88 => Response::StreamAccepted {
                stream_id: r.u64().ok_or(malformed.clone())?,
                trace_id: r.u64().ok_or(malformed.clone())?,
                buffered: r.u64().ok_or(malformed.clone())?,
                batches: r.u64().ok_or(malformed.clone())?,
                job_id: r.u64().ok_or(malformed.clone())?,
            },
            0x89 => {
                let trace_id = r.u64().ok_or(malformed.clone())?;
                let n = r.count(100).ok_or(malformed.clone())?;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(ingest::DriftRecord::decode(&mut r).ok_or(malformed.clone())?);
                }
                Response::DriftHistory { trace_id, records }
            }
            0x8a => Response::StateMachine {
                trace_id: r.u64().ok_or(malformed.clone())?,
                states: r.u64().ok_or(malformed.clone())?,
                transitions: r.u64().ok_or(malformed.clone())?,
                flows: r.u64().ok_or(malformed.clone())?,
                dot: r.bytes().ok_or(malformed.clone())?.to_vec(),
                json: r.bytes().ok_or(malformed.clone())?.to_vec(),
            },
            other => return Err(WireError::UnknownKind { kind: other }),
        };
        if !r.is_at_end() {
            return Err(malformed);
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(req.kind(), &req.encode()).expect("request roundtrip");
        assert_eq!(decoded, req);
    }

    fn roundtrip_response(resp: Response) {
        let decoded = Response::decode(resp.kind(), &resp.encode()).expect("response roundtrip");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::SubmitTrace {
            label: "ntp run".into(),
            pcap: vec![1, 2, 3],
            port: Some(123),
            max: None,
            reassemble: true,
        });
        roundtrip_request(Request::AppendMessages {
            trace_id: 7,
            pcap: vec![],
        });
        roundtrip_request(Request::Analyze {
            trace_id: 7,
            segmenter: "nemesys".into(),
            deadline_ms: 0,
        });
        roundtrip_request(Request::QueryReport { job_id: 9 });
        roundtrip_request(Request::CancelJob { job_id: 9 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::StreamTrace {
            stream_id: 0,
            label: "live feed".into(),
            chunk: vec![9, 9, 9],
            commit: true,
            segmenter: "nemesys".into(),
        });
        roundtrip_request(Request::DriftReport { trace_id: 3 });
        roundtrip_request(Request::InferStateMachine {
            trace_id: 3,
            segmenter: "nemesys".into(),
            deadline_ms: 1500,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::TraceAccepted {
            trace_id: 1,
            messages: 50,
        });
        roundtrip_response(Response::JobAccepted { job_id: 2 });
        roundtrip_response(Response::Rejected {
            retry_after_ms: 250,
            reason: "queue full".into(),
        });
        for state in [
            JobState::Queued { position: 3 },
            JobState::Running,
            JobState::Done {
                report: b"# report".to_vec(),
            },
            JobState::Failed {
                message: "too few segments".into(),
            },
            JobState::Cancelled,
        ] {
            roundtrip_response(Response::JobStatus { job_id: 4, state });
        }
        roundtrip_response(Response::StatsReport(ServerStats {
            jobs_accepted: 5,
            stage_wall_ns: vec![("matrix".into(), 1_000_000), ("cluster".into(), 5)],
            ..ServerStats::default()
        }));
        roundtrip_response(Response::ShuttingDown { drained: 2 });
        roundtrip_response(Response::Error {
            message: "unknown trace 9".into(),
        });
        roundtrip_response(Response::StreamAccepted {
            stream_id: 1,
            trace_id: 2,
            buffered: 4096,
            batches: 3,
            job_id: 0,
        });
        roundtrip_response(Response::DriftHistory {
            trace_id: 2,
            records: vec![ingest::DriftRecord {
                batch: 1,
                messages: 80,
                seen: 80,
                unique_segments: 44,
                clusters: 7,
                noise: 2,
                delta: ingest::DriftDelta {
                    ari: 0.5,
                    ami: 0.25,
                    births: 1,
                    deaths: 0,
                    splits: 1,
                    merges: 0,
                },
                stage_walls_us: vec![("segment".into(), 10)],
                wall_us: 99,
                store_hits: 5,
                store_misses: 1,
                fsm: Some(ingest::FsmDelta {
                    states: 4,
                    transitions: 6,
                    states_born: 1,
                    states_died: 0,
                    transitions_born: 2,
                    transitions_died: 1,
                }),
            }],
        });
        roundtrip_response(Response::StatsReport(ServerStats {
            session_capacity: 4,
            session_evictions: 2,
            stream_batches: 6,
            kernel_evals: 1000,
            pruned_candidates: 420,
            strata_skipped: 7,
            ..ServerStats::default()
        }));
        roundtrip_response(Response::StateMachine {
            trace_id: 3,
            states: 7,
            transitions: 9,
            flows: 30,
            dot: b"digraph fsm {}".to_vec(),
            json: b"{\"states\":7}".to_vec(),
        });
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Request::QueryReport { job_id: 1 }.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(0x04, &payload),
            Err(WireError::Malformed { kind: 0x04 })
        );
    }

    #[test]
    fn unknown_tags_are_structured_errors() {
        assert_eq!(
            Request::decode(0x44, &[]),
            Err(WireError::UnknownKind { kind: 0x44 })
        );
        assert_eq!(
            Response::decode(0x02, &[]),
            Err(WireError::UnknownKind { kind: 0x02 })
        );
    }
}
