//! The `ftcd` daemon: listener, connection handlers, session manager,
//! admission control, and graceful shutdown.
//!
//! # Architecture
//!
//! One accept loop (its own thread) spawns a handler thread per
//! connection; handlers decode one request frame at a time and answer
//! with one response frame. Analyses never run on handler threads —
//! admission control either enqueues the job on a fixed
//! [`parkit::Pool`] of analysis workers or answers
//! [`Response::Rejected`] with a retry hint, so a full daemon degrades
//! to fast, explicit rejections instead of unbounded queues or hung
//! sockets.
//!
//! # Session manager
//!
//! Traces are preprocessed once at submit time (the same code path as
//! the offline CLI, see [`crate::prepare`]). Each `(trace, segmenter)`
//! pair owns at most one warm [`AnalysisSession`], parked in the
//! manager between jobs: a worker checks the session out, drives the
//! remaining stages, and checks it back in, so repeated analyses of the
//! same trace rerun no clustering or message-typing stage. Check-in
//! parks the session ([`AnalysisSession::park`]): it keeps the refined
//! clustering and the message types and drops the matrices, k-NN table
//! and index that built them, so a parked session holds O(u) state, not
//! O(u²). Every trace carries a generation counter bumped by
//! [`Request::AppendMessages`]; sessions record the generation they
//! were built against, and a session whose trace grew while it ran is
//! dropped at check-in instead of re-parked — no analysis ever reuses
//! state from before an append. With `--cache-dir` the sessions share
//! one [`ArtifactStore`], adding
//! cross-restart warm starts and incremental matrix growth after
//! appends. The two do not conflict: in-memory session state is never
//! reused after an append, but the store's content-keyed prefixes are.
//! A grown trace's session finds the segment matrix, the strata index
//! and the message matrix stored for its first messages (their keys
//! digest exactly the segment values of that prefix) and computes only
//! the entries that involve appended messages.
//!
//! # Cancellation and deadlines
//!
//! Every job carries a [`CancelToken`]; cancelling a queued job frees
//! its admission slot immediately, cancelling a running job trips the
//! token and the session stops at the next stage boundary (artifacts
//! computed so far stay cached — a later job resumes from them).
//!
//! # Shutdown
//!
//! [`Request::Shutdown`] stops admissions, lets the workers drain every
//! queued and running job, then unblocks the accept loop;
//! [`ServerHandle::wait`] returns and the binary exits 0. Connections
//! stay serviced during the drain so clients can still poll reports.

use crate::prepare::{build_segmenter, peak_rss_bytes, preprocess, PrepareOpts};
use crate::proto::{JobState, Request, Response, ServerStats};
use crate::wire::{read_frame, write_frame, WireError};
use fieldclust::report::standard_report;
use fieldclust::session::AnalysisSession;
use fieldclust::{
    ArtifactStore, CancelToken, FieldTypeClusterer, NeighborBackend, PipelineError, StageRecord,
    StateMachineConfig,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Trace;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address. Loopback by default; port 0 binds an ephemeral
    /// port (read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Analysis worker threads (jobs running concurrently).
    pub workers: usize,
    /// Admission capacity: maximum jobs queued *or* running. The
    /// capacity-plus-first client gets [`Response::Rejected`] with a
    /// retry hint.
    pub queue_capacity: usize,
    /// Threads for each analysis' parallel stages (`0` = auto). Never
    /// affects results, only wall time.
    pub threads: usize,
    /// Persist stage artifacts under this directory and warm-start
    /// from them.
    pub cache_dir: Option<String>,
    /// Finished job records (and their reports) kept for
    /// [`Request::QueryReport`]. Beyond this the oldest terminal
    /// records are evicted, so reports expire — poll them out before
    /// submitting this many further jobs. Bounds daemon memory.
    pub job_history: usize,
    /// Test hook: stall each job this long after it has checked out
    /// its session but before it runs its stages, making queue and
    /// session states observable deterministically.
    pub worker_delay_ms: u64,
    /// Neighbor backend for every analysis session (matrix, tiled,
    /// stratified, or auto). Never affects results, only memory and
    /// wall time.
    pub neighbor_backend: NeighborBackend,
    /// Warm sessions parked at once, across all traces (floor 1).
    /// Beyond this the least recently used session is dropped. With a
    /// `cache_dir` its artifacts survive in the shared store, so the
    /// next request for that trace is a warm start; without one (the
    /// default) that request recomputes every stage.
    pub sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            threads: 0,
            cache_dir: None,
            job_history: 256,
            worker_delay_ms: 0,
            neighbor_backend: NeighborBackend::default(),
            sessions: 16,
        }
    }
}

/// What a job is doing, daemon-side.
enum JobPhase {
    Queued,
    Running,
    Done(String),
    Failed(String),
    Cancelled,
}

struct JobRecord {
    phase: JobPhase,
    token: CancelToken,
    /// Guards the admission slot against double release (a cancelled
    /// queued job frees its slot immediately; the worker must not free
    /// it again when it later skips the job).
    slot_released: bool,
}

struct TraceEntry {
    /// Raw messages as parsed (and possibly reassembled), before
    /// preprocessing — appends extend this and re-run the preprocessor
    /// over the concatenation, exactly like analyzing a merged capture
    /// offline.
    raw: Trace,
    opts: PrepareOpts,
    prepared: Trace,
    /// Bumped by every append. A session (parked *or* checked out by a
    /// running job) built against an older generation is stale: its
    /// in-memory artifacts describe the pre-append trace, so it must
    /// never serve a post-append analysis.
    generation: u64,
    /// Previous-clustering snapshot for drift-tracked (streamed) jobs.
    drift: ingest::DriftTracker,
    /// One record per completed drift-tracked analysis, oldest first.
    drift_history: Vec<ingest::DriftRecord>,
}

/// A parked warm session plus a recency stamp for eviction.
struct WarmSession {
    session: AnalysisSession<'static>,
    /// The trace generation the session was built against.
    generation: u64,
    last_used: u64,
}

/// An open chunked-ingestion stream (`Request::StreamTrace`).
struct StreamEntry {
    /// The trace the stream feeds; 0 until the first commit creates it.
    trace_id: u64,
    /// Display label for the trace created by the first commit.
    label: String,
    /// Capture bytes buffered since the last commit.
    buffer: Vec<u8>,
    /// Batches committed on this stream.
    batches: u64,
}

/// Everything behind the manager lock.
struct Core {
    traces: HashMap<u64, TraceEntry>,
    sessions: HashMap<(u64, String), WarmSession>,
    jobs: HashMap<u64, JobRecord>,
    streams: HashMap<u64, StreamEntry>,
    next_trace_id: u64,
    next_job_id: u64,
    next_stream_id: u64,
    use_counter: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    job_wall_ns: AtomicU64,
    job_count: AtomicU64,
    session_evictions: AtomicU64,
    stream_batches: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    /// The resolved listen address (port 0 already bound).
    addr: SocketAddr,
    core: Mutex<Core>,
    counters: Counters,
    /// Every job's session stage record, summed; `Stats` reads it.
    stages: Mutex<StageRecord>,
    /// Jobs queued or running — the admission-controlled resource.
    outstanding: AtomicUsize,
    accepting: AtomicBool,
    shutdown_requested: AtomicBool,
    store: Option<ArtifactStore>,
    pool: parkit::Pool,
}

/// A running daemon. Dropping the handle without [`wait`](Self::wait)
/// leaves the daemon serving (threads are detached from the handle).
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Starts a daemon with `config`.
///
/// # Errors
///
/// The bind error if the listen address is unavailable, or the store
/// error if the cache directory cannot be created.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = match &config.cache_dir {
        Some(dir) => Some(ArtifactStore::open(dir)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        pool: parkit::Pool::new(config.workers.max(1)),
        config,
        addr,
        core: Mutex::new(Core {
            traces: HashMap::new(),
            sessions: HashMap::new(),
            jobs: HashMap::new(),
            streams: HashMap::new(),
            next_trace_id: 1,
            next_job_id: 1,
            next_stream_id: 1,
            use_counter: 0,
        }),
        counters: Counters::default(),
        stages: Mutex::new(StageRecord::default()),
        outstanding: AtomicUsize::new(0),
        accepting: AtomicBool::new(true),
        shutdown_requested: AtomicBool::new(false),
        store,
    });
    let accept_thread = std::thread::spawn(move || accept_loop(&listener, &shared));
    Ok(ServerHandle {
        addr,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a [`Request::Shutdown`] has been served and every
    /// in-flight job has drained.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown_requested.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(stream, &conn_shared));
    }
    // Drain: admissions are already closed; wait for the outstanding
    // jobs to finish. Handlers keep answering (reports stay pollable).
    while shared.outstanding.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let request = match read_frame(&mut reader) {
            Ok((kind, payload)) => match Request::decode(kind, &payload) {
                Ok(req) => req,
                Err(e) => {
                    // Structured decline; the framing itself was sound,
                    // so the connection can continue.
                    let resp = Response::Error {
                        message: e.to_string(),
                    };
                    if write_frame(&mut writer, resp.kind(), &resp.encode()).is_err() {
                        return;
                    }
                    continue;
                }
            },
            Err(WireError::Closed) => return,
            Err(_) => {
                // Framing-level damage: the stream position is no
                // longer trustworthy, drop the connection.
                let _ = writer.flush();
                return;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = serve_request(request, shared);
        let written = write_frame(&mut writer, response.kind(), &response.encode());
        if is_shutdown {
            // Only unblock the accept loop (and thus process exit)
            // after the ack frame is in the socket buffer — otherwise
            // the process can die before the client sees the reply.
            trigger_shutdown(shared);
        }
        if written.is_err() {
            return;
        }
    }
}

fn serve_request(request: Request, shared: &Arc<Shared>) -> Response {
    match request {
        Request::SubmitTrace {
            label,
            pcap,
            port,
            max,
            reassemble,
        } => submit_trace(shared, label, &pcap, port, max, reassemble),
        Request::AppendMessages { trace_id, pcap } => append_messages(shared, trace_id, &pcap),
        Request::Analyze {
            trace_id,
            segmenter,
            deadline_ms,
        } => admit_job(shared, trace_id, segmenter, deadline_ms, false),
        Request::QueryReport { job_id } => query_report(shared, job_id),
        Request::CancelJob { job_id } => cancel_job(shared, job_id),
        Request::Stats => Response::StatsReport(stats(shared)),
        Request::Shutdown => shutdown(shared),
        Request::StreamTrace {
            stream_id,
            label,
            chunk,
            commit,
            segmenter,
        } => stream_trace(shared, stream_id, label, &chunk, commit, &segmenter),
        Request::DriftReport { trace_id } => drift_report(shared, trace_id),
        Request::InferStateMachine {
            trace_id,
            segmenter,
            deadline_ms,
        } => infer_statemachine(shared, trace_id, &segmenter, deadline_ms),
    }
}

fn submit_trace(
    shared: &Arc<Shared>,
    label: String,
    pcap: &[u8],
    port: Option<u16>,
    max: Option<u64>,
    reassemble: bool,
) -> Response {
    if !shared.accepting.load(Ordering::Acquire) {
        return Response::Rejected {
            retry_after_ms: 0,
            reason: "shutting down".to_string(),
        };
    }
    let opts = PrepareOpts {
        port,
        max: max.map(|n| n as usize),
        reassemble,
    };
    // Keep the raw (post-reassembly, pre-preprocessing) messages so
    // appends can re-run the preprocessor over the concatenation.
    let raw = match trace::pcapng::read_any(pcap, "capture") {
        Ok(t) => t,
        Err(e) => {
            return Response::Error {
                message: format!("parsing capture: {e}"),
            }
        }
    };
    let raw = if reassemble {
        trace::reassembly::reassemble(&raw, &trace::reassembly::NbssFramer).0
    } else {
        raw
    };
    // Preprocess the already-parsed messages directly: same result as
    // `prepare_trace` on the original bytes (it is its second half),
    // without parsing and reassembling the capture a second time.
    let prepared = match preprocess(&raw, &opts) {
        Ok(t) => t,
        Err(message) => return Response::Error { message },
    };
    let messages = prepared.len() as u64;
    let mut core = shared.core.lock().expect("core lock");
    let trace_id = core.next_trace_id;
    core.next_trace_id += 1;
    eprintln!("ftcd: trace {trace_id} ({label}): {messages} messages");
    core.traces.insert(
        trace_id,
        TraceEntry {
            raw,
            opts,
            prepared,
            generation: 0,
            drift: ingest::DriftTracker::new(),
            drift_history: Vec::new(),
        },
    );
    Response::TraceAccepted { trace_id, messages }
}

fn append_messages(shared: &Arc<Shared>, trace_id: u64, pcap: &[u8]) -> Response {
    if !shared.accepting.load(Ordering::Acquire) {
        return Response::Rejected {
            retry_after_ms: 0,
            reason: "shutting down".to_string(),
        };
    }
    let addition = match trace::pcapng::read_any(pcap, "capture") {
        Ok(t) => t,
        Err(e) => {
            return Response::Error {
                message: format!("parsing capture: {e}"),
            }
        }
    };
    // Reassemble outside the core lock, which every other request
    // needs; a trace's options never change, so the flag read here
    // still holds below.
    let reassemble = match shared.core.lock().expect("core lock").traces.get(&trace_id) {
        Some(entry) => entry.opts.reassemble,
        None => {
            return Response::Error {
                message: format!("unknown trace {trace_id}"),
            }
        }
    };
    let addition = if reassemble {
        trace::reassembly::reassemble(&addition, &trace::reassembly::NbssFramer).0
    } else {
        addition
    };
    let mut core = shared.core.lock().expect("core lock");
    let Some(entry) = core.traces.get_mut(&trace_id) else {
        return Response::Error {
            message: format!("unknown trace {trace_id}"),
        };
    };
    let mut messages: Vec<trace::Message> = entry.raw.messages().to_vec();
    messages.extend(addition.messages().iter().cloned());
    let merged = Trace::new(entry.raw.name(), messages);
    // Same guard as submit: an append that filters the trace to
    // nothing is refused *before* the entry mutates, so later jobs
    // never see an unanalyzable trace.
    let prepared = match preprocess(&merged, &entry.opts) {
        Ok(t) => t,
        Err(message) => return Response::Error { message },
    };
    entry.raw = merged;
    entry.prepared = prepared;
    entry.generation += 1;
    let messages = entry.prepared.len() as u64;
    // The grown trace invalidates every session built before it:
    // parked ones are dropped here, checked-out ones (a job running
    // right now) are dropped at check-in by the generation bump above.
    // The next analysis warm-starts from the shared store's prefix
    // artifacts instead (incremental matrix growth).
    core.sessions.retain(|(t, _), _| *t != trace_id);
    Response::TraceAccepted { trace_id, messages }
}

/// Chunked streaming ingestion: buffer capture bytes per stream; on
/// commit, create the stream's trace (first batch) or append to it
/// (later batches — the warm-growth path `AppendMessages` uses), then
/// admit a drift-tracked analysis through normal admission control.
/// Chunking keeps any single frame under `MAX_FRAME` while the stream
/// itself is unbounded.
fn stream_trace(
    shared: &Arc<Shared>,
    stream_id: u64,
    label: String,
    chunk: &[u8],
    commit: bool,
    segmenter: &str,
) -> Response {
    if !shared.accepting.load(Ordering::Acquire) {
        return Response::Rejected {
            retry_after_ms: 0,
            reason: "shutting down".to_string(),
        };
    }
    // Buffer the chunk (creating the stream when asked to).
    let (sid, batch_bytes, trace_id) = {
        let mut core = shared.core.lock().expect("core lock");
        let sid = if stream_id == 0 {
            let sid = core.next_stream_id;
            core.next_stream_id += 1;
            core.streams.insert(
                sid,
                StreamEntry {
                    trace_id: 0,
                    label,
                    buffer: Vec::new(),
                    batches: 0,
                },
            );
            sid
        } else {
            stream_id
        };
        let Some(entry) = core.streams.get_mut(&sid) else {
            return Response::Error {
                message: format!("unknown stream {stream_id}"),
            };
        };
        entry.buffer.extend_from_slice(chunk);
        if !commit {
            return Response::StreamAccepted {
                stream_id: sid,
                trace_id: entry.trace_id,
                buffered: entry.buffer.len() as u64,
                batches: entry.batches,
                job_id: 0,
            };
        }
        // Commit: hand the buffered capture to the submit/append path
        // outside this lock. The buffer is only cleared on success, so
        // a failed commit (parse error, filtered-to-empty) loses
        // nothing — the client can send more bytes and commit again.
        (sid, entry.buffer.clone(), entry.trace_id)
    };
    if batch_bytes.is_empty() {
        return Response::Error {
            message: "commit with no buffered capture bytes".to_string(),
        };
    }
    let accepted = if trace_id == 0 {
        let label = {
            let core = shared.core.lock().expect("core lock");
            core.streams.get(&sid).map(|e| e.label.clone())
        };
        let Some(label) = label else {
            return Response::Error {
                message: format!("unknown stream {sid}"),
            };
        };
        submit_trace(shared, label, &batch_bytes, None, None, false)
    } else {
        append_messages(shared, trace_id, &batch_bytes)
    };
    let Response::TraceAccepted { trace_id, .. } = accepted else {
        return accepted; // Error or Rejected from the submit/append path
    };
    let batches = {
        let mut core = shared.core.lock().expect("core lock");
        let Some(entry) = core.streams.get_mut(&sid) else {
            return Response::Error {
                message: format!("unknown stream {sid}"),
            };
        };
        entry.trace_id = trace_id;
        entry.buffer.clear();
        entry.batches += 1;
        entry.batches
    };
    shared
        .counters
        .stream_batches
        .fetch_add(1, Ordering::Relaxed);
    // Queue the batch's re-cluster. An admission rejection still leaves
    // the batch committed — the messages are in the trace — so it is
    // surfaced as job_id 0 and a later `Analyze` (or the next commit)
    // picks the data up.
    let job_id = match admit_job(shared, trace_id, segmenter.to_string(), 0, true) {
        Response::JobAccepted { job_id } => job_id,
        Response::Rejected { .. } => 0,
        other => return other,
    };
    Response::StreamAccepted {
        stream_id: sid,
        trace_id,
        buffered: 0,
        batches,
        job_id,
    }
}

/// Serves a streamed trace's per-batch drift history.
fn drift_report(shared: &Arc<Shared>, trace_id: u64) -> Response {
    let core = shared.core.lock().expect("core lock");
    let Some(entry) = core.traces.get(&trace_id) else {
        return Response::Error {
            message: format!("unknown trace {trace_id}"),
        };
    };
    Response::DriftHistory {
        trace_id,
        records: entry.drift_history.clone(),
    }
}

/// Infers (or serves) a trace's protocol state machine.
///
/// Unlike `Analyze` this answers in-line on the handler thread: the
/// response *is* the artifact, and the expensive path — message-type
/// clustering — runs at most once per trace because the session parks
/// warm between requests and the machine persists in the shared store
/// under a key covering the clustering inputs and the flow partition.
/// A warm repeat therefore rebuilds nothing; the first inference on a
/// large cold trace is bounded by `deadline_ms` (0 = none), which trips
/// the session's cancel token between stages.
fn infer_statemachine(
    shared: &Arc<Shared>,
    trace_id: u64,
    segmenter: &str,
    deadline_ms: u64,
) -> Response {
    if let Err(message) = build_segmenter(segmenter) {
        return Response::Error { message };
    }
    let session_key = (trace_id, segmenter.to_string());
    let mut core = shared.core.lock().expect("core lock");
    let checked_out = check_out_session(shared, &mut core, &session_key);
    drop(core);
    let Some((mut session, generation)) = checked_out else {
        return Response::Error {
            message: format!("unknown trace {trace_id}"),
        };
    };
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Instant::now() + Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    session.set_cancel_token(token);
    let result = ensure_segmented(&mut session, segmenter).and_then(|()| {
        session
            .state_machine(&StateMachineConfig::default())
            .map_err(|e| e.to_string())
    });
    let stages = session.take_stage_record();
    shared.stages.lock().expect("stages lock").merge(&stages);
    // Check the session back in (unless the trace grew while we ran,
    // same staleness rule as `run_job`); even a failed inference keeps
    // its completed stage artifacts warm for the retry.
    check_in_session(shared, session_key, session, generation);
    match result {
        Ok(machine) => Response::StateMachine {
            trace_id,
            states: u64::from(machine.n_states),
            transitions: machine.n_transitions() as u64,
            flows: machine.flows,
            dot: machine.to_dot().into_bytes(),
            json: machine.to_json().into_bytes(),
        },
        Err(message) => Response::Error { message },
    }
}

/// Admission control: reserve a slot or reject with a backoff hint
/// derived from observed job wall times and the current depth.
/// `drift` marks streamed jobs whose completed clusterings feed the
/// trace's drift history.
fn admit_job(
    shared: &Arc<Shared>,
    trace_id: u64,
    segmenter: String,
    deadline_ms: u64,
    drift: bool,
) -> Response {
    if !shared.accepting.load(Ordering::Acquire) {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::Rejected {
            retry_after_ms: 0,
            reason: "shutting down".to_string(),
        };
    }
    if let Err(message) = build_segmenter(&segmenter) {
        return Response::Error { message };
    }
    {
        let core = shared.core.lock().expect("core lock");
        if !core.traces.contains_key(&trace_id) {
            return Response::Error {
                message: format!("unknown trace {trace_id}"),
            };
        }
    }
    let capacity = shared.config.queue_capacity.max(1);
    // Reserve the slot atomically: never exceeds capacity.
    let reserved = shared
        .outstanding
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            (cur < capacity).then_some(cur + 1)
        });
    if reserved.is_err() {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::Rejected {
            retry_after_ms: retry_hint(shared),
            reason: format!("admission queue full ({capacity} jobs outstanding)"),
        };
    }
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Instant::now() + Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    let job_id = {
        let mut core = shared.core.lock().expect("core lock");
        let job_id = core.next_job_id;
        core.next_job_id += 1;
        core.jobs.insert(
            job_id,
            JobRecord {
                phase: JobPhase::Queued,
                token: token.clone(),
                slot_released: false,
            },
        );
        job_id
    };
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    let job_shared = Arc::clone(shared);
    let submitted = shared
        .pool
        .execute(move || run_job(&job_shared, job_id, trace_id, &segmenter, &token, drift));
    if !submitted {
        // Pool already shutting down (race with shutdown): undo.
        finish_job(shared, job_id, JobPhase::Cancelled);
        shared.counters.accepted.fetch_sub(1, Ordering::Relaxed);
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::Rejected {
            retry_after_ms: 0,
            reason: "shutting down".to_string(),
        };
    }
    Response::JobAccepted { job_id }
}

/// Backoff hint: the mean observed job wall time scaled by the current
/// depth over the worker count, floored at 100 ms.
fn retry_hint(shared: &Arc<Shared>) -> u64 {
    let count = shared.counters.job_count.load(Ordering::Relaxed);
    let avg_ms = shared
        .counters
        .job_wall_ns
        .load(Ordering::Relaxed)
        .checked_div(count)
        .map_or(500, |per_job_ns| per_job_ns / 1_000_000);
    let depth = shared.outstanding.load(Ordering::Acquire) as u64;
    let workers = shared.config.workers.max(1) as u64;
    (avg_ms * depth.max(1)).div_ceil(workers).max(100)
}

/// Terminal transition: record the phase, free the admission slot
/// exactly once, bump the outcome counter, expire the oldest terminal
/// records beyond the configured history.
fn finish_job(shared: &Arc<Shared>, job_id: u64, phase: JobPhase) {
    let counter = match &phase {
        JobPhase::Done(_) => &shared.counters.completed,
        JobPhase::Failed(_) => &shared.counters.failed,
        JobPhase::Cancelled => &shared.counters.cancelled,
        JobPhase::Queued | JobPhase::Running => unreachable!("not a terminal phase"),
    };
    let mut core = shared.core.lock().expect("core lock");
    let Some(job) = core.jobs.get_mut(&job_id) else {
        return;
    };
    let release = !job.slot_released;
    job.slot_released = true;
    // Counters and the slot release happen before the terminal phase
    // becomes visible (phase reads take this lock): a client that
    // polls its job to `Done` and immediately asks for `Stats` must
    // see the completion counted and the queue slot freed.
    if release {
        shared.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
    counter.fetch_add(1, Ordering::Relaxed);
    job.phase = phase;
    prune_job_history(&mut core, shared.config.job_history);
}

/// Keeps at most `history` terminal job records (queued and running
/// jobs are never touched), evicting oldest-first so the table — and
/// the reports it retains — cannot grow without bound over a daemon's
/// lifetime. [`query_report`] answers "unknown job" for expired ids.
fn prune_job_history(core: &mut Core, history: usize) {
    // Floor of one: the record being finished right now must survive
    // long enough to be queried.
    let history = history.max(1);
    let mut terminal: Vec<u64> = core
        .jobs
        .iter()
        .filter(|(_, j)| {
            matches!(
                j.phase,
                JobPhase::Done(_) | JobPhase::Failed(_) | JobPhase::Cancelled
            )
        })
        .map(|(id, _)| *id)
        .collect();
    if terminal.len() <= history {
        return;
    }
    terminal.sort_unstable();
    for id in &terminal[..terminal.len() - history] {
        core.jobs.remove(id);
    }
}

/// The analysis worker body: check out (or create) the warm session,
/// render the canonical report, record the session's stages, check the
/// session back in.
fn run_job(
    shared: &Arc<Shared>,
    job_id: u64,
    trace_id: u64,
    segmenter: &str,
    token: &CancelToken,
    drift: bool,
) {
    let started = Instant::now();
    let session_key = (trace_id, segmenter.to_string());
    // One critical section: Queued → Running (unless the job was
    // cancelled while queued — its slot is already free then) and the
    // session checkout, so a job observed `Running` has definitely
    // captured its trace snapshot and generation.
    let (mut session, generation) = {
        let mut core = shared.core.lock().expect("core lock");
        match core.jobs.get_mut(&job_id) {
            Some(job) if matches!(job.phase, JobPhase::Queued) => {
                if job.token.is_cancelled() {
                    drop(core);
                    finish_job(shared, job_id, JobPhase::Cancelled);
                    return;
                }
                job.phase = JobPhase::Running;
            }
            _ => return,
        }
        match check_out_session(shared, &mut core, &session_key) {
            Some(checked_out) => checked_out,
            None => {
                drop(core);
                finish_job(
                    shared,
                    job_id,
                    JobPhase::Failed(format!("unknown trace {trace_id}")),
                );
                return;
            }
        }
    };
    if shared.config.worker_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.config.worker_delay_ms));
    }
    session.set_cancel_token(token.clone());
    let phase = analyze(&mut session, segmenter);
    let stages = session.take_stage_record();
    shared.stages.lock().expect("stages lock").merge(&stages);
    // A streamed batch that produced a report also feeds the trace's
    // drift history: snapshot the clustering (cached — `finish` after
    // the report re-reads staged artifacts) and compare it to the
    // previous batch's.
    if drift && matches!(phase, JobPhase::Done(_)) {
        if let Ok(result) = session.finish() {
            let snapshot = ingest::ClusterSnapshot::from_result(&result);
            let store_stats = shared.store.as_ref().map(|s| s.stats());
            let mut core = shared.core.lock().expect("core lock");
            if let Some(entry) = core.traces.get_mut(&trace_id) {
                let delta = entry.drift.observe(snapshot);
                entry.drift_history.push(ingest::DriftRecord {
                    batch: entry.drift_history.len() as u64,
                    messages: entry.prepared.len() as u64,
                    seen: entry.raw.len() as u64,
                    unique_segments: result.store.segments.len() as u64,
                    clusters: u64::from(result.clustering.n_clusters()),
                    noise: result.clustering.noise().len() as u64,
                    delta,
                    stage_walls_us: stages
                        .iter()
                        .map(|(stage, t)| (stage.name().to_string(), t.wall_ns / 1_000))
                        .collect(),
                    wall_us: started.elapsed().as_micros() as u64,
                    store_hits: store_stats.as_ref().map_or(0, |s| s.hits),
                    store_misses: store_stats.as_ref().map_or(0, |s| s.misses),
                    // FSM drift is the streaming frontend's concern
                    // (`StreamSession` with `fsm: true`); daemon drift
                    // history tracks the clustering partition only.
                    fsm: None,
                });
            }
        }
    }
    // Check the session back in whatever happened: cached artifacts
    // make the retry (or the next job) cheap. Unless the trace grew
    // while we ran — a re-parked pre-append session would silently
    // serve reports missing the appended messages, so it is dropped
    // (its artifacts survive in the shared store).
    check_in_session(shared, session_key, session, generation);
    finish_job(shared, job_id, phase);
    shared
        .counters
        .job_wall_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    shared.counters.job_count.fetch_add(1, Ordering::Relaxed);
}

/// Parks a session for reuse, unless the trace's generation moved while
/// it was checked out (a stale session must never serve a post-append
/// request), then evicts the least recently used session beyond the
/// configured capacity. The session drops its memoized outputs' inputs
/// first, outside the core lock.
fn check_in_session(
    shared: &Arc<Shared>,
    session_key: (u64, String),
    mut session: AnalysisSession<'static>,
    generation: u64,
) {
    session.park();
    let mut core = shared.core.lock().expect("core lock");
    let current = core.traces.get(&session_key.0).map(|e| e.generation);
    if current != Some(generation) {
        return;
    }
    core.use_counter += 1;
    let stamp = core.use_counter;
    core.sessions.insert(
        session_key,
        WarmSession {
            session,
            generation,
            last_used: stamp,
        },
    );
    if core.sessions.len() > shared.config.sessions.max(1) {
        if let Some(oldest) = core
            .sessions
            .iter()
            .min_by_key(|(_, w)| w.last_used)
            .map(|(k, _)| k.clone())
        {
            core.sessions.remove(&oldest);
            shared
                .counters
                .session_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Checks out the session of `session_key` (trace, segmenter): the
/// parked warm one when it was built against the trace's current
/// generation, else a fresh one warm-started on the shared store.
/// Returns it with that generation, or `None` for an unknown trace.
fn check_out_session(
    shared: &Shared,
    core: &mut Core,
    session_key: &(u64, String),
) -> Option<(AnalysisSession<'static>, u64)> {
    let checked_out = core.sessions.remove(session_key);
    let entry = core.traces.get(&session_key.0)?;
    let generation = entry.generation;
    // A parked session predating the trace's generation is stale
    // (append_messages drops those, so this is belt-and-braces).
    let session = match checked_out {
        Some(warm) if warm.generation == generation => warm.session,
        _ => {
            let mut config = FieldTypeClusterer::default();
            if shared.config.threads > 0 {
                config.threads = shared.config.threads;
            }
            config.neighbor_backend = shared.config.neighbor_backend;
            let mut s = AnalysisSession::from_owned(entry.prepared.clone(), config);
            if let Some(store) = &shared.store {
                s.set_store(store.clone());
            }
            s
        }
    };
    Some((session, generation))
}

/// Segments the session's trace with `segmenter` unless it already is.
fn ensure_segmented(session: &mut AnalysisSession<'static>, segmenter: &str) -> Result<(), String> {
    if session.segmentation().is_none() {
        let seg = build_segmenter(segmenter)?;
        session
            .segment_with(seg.as_ref())
            .map_err(|e| format!("segmentation failed: {e}"))?;
    }
    Ok(())
}

/// Segments the trace if needed, then renders the shared canonical
/// report, which runs every missing stage and reuses every cached one.
/// Returns the job's terminal phase.
fn analyze(session: &mut AnalysisSession<'static>, segmenter: &str) -> JobPhase {
    if let Err(message) = ensure_segmented(session, segmenter) {
        return JobPhase::Failed(message);
    }
    // The trace is cloned out so the report borrows don't fight the
    // session's `&mut` receiver methods.
    let trace = session.trace().clone();
    match standard_report(&trace, session) {
        Ok(report) => JobPhase::Done(report),
        Err(PipelineError::Cancelled) => JobPhase::Cancelled,
        Err(e) => JobPhase::Failed(e.to_string()),
    }
}

fn query_report(shared: &Arc<Shared>, job_id: u64) -> Response {
    let core = shared.core.lock().expect("core lock");
    let Some(job) = core.jobs.get(&job_id) else {
        return Response::Error {
            message: format!("unknown job {job_id}"),
        };
    };
    let state = match &job.phase {
        JobPhase::Queued => JobState::Queued {
            position: core
                .jobs
                .iter()
                .filter(|(id, j)| **id < job_id && matches!(j.phase, JobPhase::Queued))
                .count() as u64,
        },
        JobPhase::Running => JobState::Running,
        JobPhase::Done(report) => JobState::Done {
            report: report.clone().into_bytes(),
        },
        JobPhase::Failed(message) => JobState::Failed {
            message: message.clone(),
        },
        JobPhase::Cancelled => JobState::Cancelled,
    };
    Response::JobStatus { job_id, state }
}

fn cancel_job(shared: &Arc<Shared>, job_id: u64) -> Response {
    let freed_queued = {
        let mut core = shared.core.lock().expect("core lock");
        let Some(job) = core.jobs.get_mut(&job_id) else {
            return Response::Error {
                message: format!("unknown job {job_id}"),
            };
        };
        job.token.cancel();
        match job.phase {
            JobPhase::Queued => {
                // Free the slot now — the worker will observe the
                // tripped token and skip; admission can refill
                // immediately.
                job.phase = JobPhase::Cancelled;
                let release = !job.slot_released;
                job.slot_released = true;
                // This terminal transition bypasses finish_job (the
                // worker skips the job without one), so the history
                // cap is enforced here as well.
                prune_job_history(&mut core, shared.config.job_history);
                release
            }
            // Running jobs release their slot when the worker observes
            // the token at the next stage boundary.
            _ => false,
        }
    };
    if freed_queued {
        shared.outstanding.fetch_sub(1, Ordering::AcqRel);
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    query_report(shared, job_id)
}

fn stats(shared: &Arc<Shared>) -> ServerStats {
    let (traces, warm_sessions) = {
        let core = shared.core.lock().expect("core lock");
        (core.traces.len() as u64, core.sessions.len() as u64)
    };
    let cache = shared
        .store
        .as_ref()
        .map(|store| store.stats())
        .unwrap_or_default();
    let stages = *shared.stages.lock().expect("stages lock");
    let totals = stages.total();
    ServerStats {
        jobs_accepted: shared.counters.accepted.load(Ordering::Relaxed),
        jobs_rejected: shared.counters.rejected.load(Ordering::Relaxed),
        jobs_cancelled: shared.counters.cancelled.load(Ordering::Relaxed),
        jobs_completed: shared.counters.completed.load(Ordering::Relaxed),
        jobs_failed: shared.counters.failed.load(Ordering::Relaxed),
        queue_depth: shared.outstanding.load(Ordering::Acquire) as u64,
        traces,
        warm_sessions,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_writes: cache.writes,
        cache_extended: cache.extended,
        cache_mmap_reads: cache.mmap_reads,
        peak_rss_bytes: peak_rss_bytes(),
        session_capacity: shared.config.sessions.max(1) as u64,
        session_evictions: shared.counters.session_evictions.load(Ordering::Relaxed),
        stream_batches: shared.counters.stream_batches.load(Ordering::Relaxed),
        kernel_evals: totals.kernel_evals,
        pruned_candidates: totals.pruned,
        strata_skipped: totals.strata_skipped,
        stage_wall_ns: stages
            .iter()
            .map(|(stage, t)| (stage.name().to_string(), t.wall_ns))
            .collect(),
    }
}

fn shutdown(shared: &Arc<Shared>) -> Response {
    shared.accepting.store(false, Ordering::Release);
    let drained = shared.outstanding.load(Ordering::Acquire) as u64;
    Response::ShuttingDown { drained }
}

/// Second half of shutdown, run after the ack frame has been written:
/// flag the accept loop and unblock it with a self-connection; it
/// stops accepting and waits for the drain.
fn trigger_shutdown(shared: &Arc<Shared>) {
    shared.shutdown_requested.store(true, Ordering::Release);
    let _ = TcpStream::connect(shared.addr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::{corpus, Protocol};

    /// A store-less daemon's shared state holding one trace (id 1).
    fn shared_with(config: ServerConfig, trace: Trace) -> Shared {
        let mut traces = HashMap::new();
        traces.insert(
            1,
            TraceEntry {
                raw: trace.clone(),
                opts: PrepareOpts::default(),
                prepared: trace,
                generation: 0,
                drift: ingest::DriftTracker::new(),
                drift_history: Vec::new(),
            },
        );
        Shared {
            pool: parkit::Pool::new(1),
            config,
            addr: "127.0.0.1:0".parse().unwrap(),
            core: Mutex::new(Core {
                traces,
                sessions: HashMap::new(),
                jobs: HashMap::new(),
                streams: HashMap::new(),
                next_trace_id: 2,
                next_job_id: 1,
                next_stream_id: 1,
                use_counter: 0,
            }),
            counters: Counters::default(),
            stages: Mutex::new(StageRecord::default()),
            outstanding: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            shutdown_requested: AtomicBool::new(false),
            store: None,
        }
    }

    /// A job's checked-out session records exactly what an in-process
    /// session running the canonical report records: the same stages in
    /// the same order with the same counters (walls aside), on the
    /// stratified (NEMESYS) and the matrix (fixed-width) backend, at
    /// every thread count.
    #[test]
    fn job_stages_match_an_in_process_report() {
        let trace = corpus::build_trace(Protocol::Ntp, 60, 17);
        let arms = [
            ("nemesys", NeighborBackend::Auto),
            ("fixed", NeighborBackend::Auto),
            // Explicit stratified queries move the counters compared.
            ("nemesys", NeighborBackend::Stratified),
        ];
        for (segmenter, backend) in arms {
            let mut reference = None;
            for threads in [1, 2, 4] {
                let config = ServerConfig {
                    threads,
                    neighbor_backend: backend,
                    ..ServerConfig::default()
                };
                let shared = shared_with(config, trace.clone());
                let key = (1, segmenter.to_string());
                let checked_out =
                    check_out_session(&shared, &mut shared.core.lock().unwrap(), &key);
                let (mut job, _) = checked_out.expect("trace 1 exists");
                assert!(matches!(analyze(&mut job, segmenter), JobPhase::Done(_)));
                let job_stages = counters(&job.take_stage_record());

                let mut local = AnalysisSession::new(
                    &trace,
                    FieldTypeClusterer {
                        threads,
                        neighbor_backend: backend,
                        ..FieldTypeClusterer::default()
                    },
                );
                let seg = build_segmenter(segmenter).unwrap();
                local.segment_with(seg.as_ref()).unwrap();
                standard_report(&trace, &mut local).unwrap();
                assert_eq!(job_stages, counters(&local.take_stage_record()));
                if backend == NeighborBackend::Stratified {
                    let evals: u64 = job_stages.iter().map(|s| s.1).sum();
                    assert!(evals > 0, "{segmenter}: stratified queries are counted");
                }
                let reference = reference.get_or_insert_with(|| job_stages.clone());
                assert_eq!(
                    &job_stages, reference,
                    "{segmenter} {backend:?}: threads {threads}"
                );
            }
        }
    }

    fn counters(record: &StageRecord) -> Vec<(&'static str, u64, u64, u64)> {
        record
            .iter()
            .map(|(s, t)| (s.name(), t.kernel_evals, t.pruned, t.strata_skipped))
            .collect()
    }
}
