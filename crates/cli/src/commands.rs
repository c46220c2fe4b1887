//! The CLI subcommands.

use crate::error::CliError;
use crate::opts::{hex_preview, CommonOpts};
use fieldclust::fuzzgen::ValueModel;
use fieldclust::report::standard_report;
use fieldclust::semantics::{interpret, SemanticsConfig};
use fieldclust::{AnalysisSession, ArtifactStore, FieldTypeClusterer};
use protocols::{Protocol, ProtocolSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{prepare_trace, Client, ClientError, JobState, PrepareOpts};
use std::time::Duration;
use trace::{pcap, Trace};

fn load_trace(opts: &CommonOpts) -> Result<Trace, CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing <capture.pcap> argument"))?;
    load_trace_from(path, opts)
}

/// The preprocessing options the common flags select — the exact
/// struct the daemon uses, so offline and daemon runs prepare captures
/// identically.
fn prepare_opts(opts: &CommonOpts) -> PrepareOpts {
    PrepareOpts {
        port: opts.port,
        max: opts.max,
        reassemble: opts.reassemble,
    }
}

fn load_trace_from(path: &str, opts: &CommonOpts) -> Result<Trace, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
    // The single shared loading path (sniffing, reassembly,
    // preprocessing) — see `serve::prepare`.
    let (trace, stats) = prepare_trace(&bytes, &prepare_opts(opts))
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    if let Some(stats) = stats {
        eprintln!(
            "reassembled {} TCP segments into {} messages ({} resync, {} trailing bytes)",
            stats.segments_in, stats.messages_out, stats.resync_bytes, stats.trailing_bytes
        );
    }
    Ok(trace)
}

/// Opens the `--cache-dir` artifact store if one was requested.
fn open_store(opts: &CommonOpts) -> Result<Option<ArtifactStore>, CliError> {
    match &opts.cache_dir {
        Some(dir) => ArtifactStore::open(dir)
            .map(Some)
            .map_err(|e| CliError::runtime(format!("opening cache dir {dir}: {e}"))),
        None => Ok(None),
    }
}

/// The pipeline configuration selected by the common flags:
/// `--tile-rows` / `--max-memory` switch the dissimilarity stage to the
/// tiled build, and `--neighbor-backend` selects how neighbor queries are
/// answered (results are pinned bit-identical either way).
fn build_clusterer(opts: &CommonOpts) -> FieldTypeClusterer {
    let mut config = FieldTypeClusterer {
        tile_rows: opts.tile_rows,
        max_memory: opts.max_memory,
        neighbor_backend: opts.neighbor_backend,
        ..FieldTypeClusterer::default()
    };
    // `--threads` only tunes wall time; every parallel stage is pinned
    // bit-identical to its serial counterpart.
    if opts.threads > 0 {
        config.threads = opts.threads;
    }
    config
}

/// Prints the greppable cache statistics line to stderr.
fn emit_cache_stats(store: Option<&ArtifactStore>) {
    if let Some(s) = store {
        eprintln!("cache: {}", s.stats());
    }
}

/// Prints `analyze`'s greppable diagnostics to stderr: the
/// neighbor-query counters (only the stratified backend moves them;
/// other backends stay silent), the cache statistics, then one line per
/// slot of the session's stage record.
fn emit_analyze_diagnostics(session: &mut AnalysisSession<'_>, store: Option<&ArtifactStore>) {
    let (kernel_evals, pruned, strata_skipped) = session.neighbor_counters();
    if kernel_evals > 0 || pruned > 0 || strata_skipped > 0 {
        eprintln!(
            "neighbors: kernel_evals={kernel_evals} pruned={pruned} strata_skipped={strata_skipped}"
        );
    }
    emit_cache_stats(store);
    for (stage, t) in session.take_stage_record().iter() {
        eprintln!(
            "stage {}: wall={:.6}s kernel_evals={} pruned={} strata_skipped={}",
            stage.name(),
            t.wall_ns as f64 / 1e9,
            t.kernel_evals,
            t.pruned,
            t.strata_skipped
        );
    }
}

/// `fieldclust analyze <pcap>`: cluster, interpret, report.
pub fn analyze(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let trace = load_trace(&opts)?;
    let segmenter = opts.build_segmenter()?;
    let store = open_store(&opts)?;
    // One session: field types, message types, and diagnostics all share
    // the same cached artifacts (segmentation, stores, matrices) — and,
    // with `--cache-dir`, warm-start from artifacts persisted by
    // earlier runs.
    let mut session = AnalysisSession::new(&trace, build_clusterer(&opts));
    if let Some(s) = &store {
        session.set_store(s.clone());
    }
    session
        .segment_with(segmenter.as_ref())
        .map_err(|e| CliError::runtime(format!("segmentation failed: {e}")))?;

    if let Some(path) = &opts.report {
        // The canonical rendering path shared with the daemon — daemon
        // reports are byte-identical to this file.
        let md = standard_report(&trace, &mut session)
            .map_err(|e| CliError::runtime(format!("clustering failed: {e}")))?;
        std::fs::write(path, md).map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        println!("report written to {path}");
        emit_analyze_diagnostics(&mut session, store.as_ref());
        return Ok(());
    }

    let result = session
        .finish()
        .map_err(|e| CliError::runtime(format!("clustering failed: {e}")))?;
    let semantics = interpret(&result, &trace, &SemanticsConfig::default());
    let coverage = result.coverage(&trace);

    if opts.json {
        #[derive(serde::Serialize)]
        struct JsonCluster {
            id: usize,
            distinct_values: usize,
            occurrences: usize,
            hypothesis: String,
            confidence: f64,
            evidence: String,
            sample_values: Vec<String>,
        }
        #[derive(serde::Serialize)]
        struct JsonReport {
            messages: usize,
            unique_segments: usize,
            noise_segments: usize,
            epsilon: f64,
            coverage: f64,
            clusters: Vec<JsonCluster>,
        }
        let clusters = result
            .clustering
            .clusters()
            .iter()
            .zip(&semantics)
            .enumerate()
            .map(|(id, (members, sem))| JsonCluster {
                id,
                distinct_values: members.len(),
                occurrences: members
                    .iter()
                    .map(|&m| result.store.segments[m].occurrences())
                    .sum(),
                hypothesis: sem.hypothesis.to_string(),
                confidence: sem.confidence,
                evidence: sem.evidence.clone(),
                sample_values: members
                    .iter()
                    .take(3)
                    .map(|&m| hex_preview(&result.store.segments[m].value, 16))
                    .collect(),
            })
            .collect();
        let report = JsonReport {
            messages: trace.len(),
            unique_segments: result.store.segments.len(),
            noise_segments: result.clustering.noise().len(),
            epsilon: result.params.epsilon,
            coverage: coverage.ratio(),
            clusters,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| CliError::runtime(e.to_string()))?
        );
        emit_analyze_diagnostics(&mut session, store.as_ref());
        return Ok(());
    }

    println!(
        "{} messages, {} unique segments, eps = {:.3} ({:?}), coverage {:.0}%",
        trace.len(),
        result.store.segments.len(),
        result.params.epsilon,
        result.epsilon_source,
        coverage.ratio() * 100.0
    );
    println!(
        "{} pseudo data types ({} noise segments):\n",
        result.clustering.n_clusters(),
        result.clustering.noise().len()
    );
    for ((id, members), sem) in result
        .clustering
        .clusters()
        .iter()
        .enumerate()
        .zip(&semantics)
    {
        let occurrences: usize = members
            .iter()
            .map(|&m| result.store.segments[m].occurrences())
            .sum();
        println!(
            "  type {id:2}: {:10} ({:4.0}% conf) — {:4} values / {:5} occurrences — {}",
            sem.hypothesis.to_string(),
            sem.confidence * 100.0,
            members.len(),
            occurrences,
            sem.evidence
        );
        if id < opts.limit {
            let samples: Vec<String> = members
                .iter()
                .take(3)
                .map(|&m| hex_preview(&result.store.segments[m].value, 12))
                .collect();
            println!("           e.g. [{}]", samples.join(", "));
        }
    }
    emit_analyze_diagnostics(&mut session, store.as_ref());
    Ok(())
}

/// `fieldclust msgtype <pcap>`: cluster messages into message types.
pub fn msgtype(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let trace = load_trace(&opts)?;
    let segmenter = opts.build_segmenter()?;
    let store = open_store(&opts)?;
    // Run through the session so the segmentation and the message
    // matrix hit the artifact store when `--cache-dir` is given.
    let mut session = AnalysisSession::new(&trace, build_clusterer(&opts));
    if let Some(s) = &store {
        session.set_store(s.clone());
    }
    session
        .segment_with(segmenter.as_ref())
        .map_err(|e| CliError::runtime(format!("segmentation failed: {e}")))?;
    let result = session
        .message_types(&fieldclust::msgtype::MessageTypeConfig::default())
        .map_err(|e| CliError::runtime(format!("message type identification failed: {e}")))?;
    println!(
        "{} messages -> {} message types ({} noise), eps = {:.3}",
        trace.len(),
        result.clustering.n_clusters(),
        result.clustering.noise().len(),
        result.epsilon
    );
    for (id, members) in result.clustering.clusters().iter().enumerate() {
        let sample = &trace.messages()[members[0]];
        println!(
            "  type {id:2}: {:4} messages, e.g. [{}] ({} bytes)",
            members.len(),
            hex_preview(sample.payload(), 12),
            sample.payload().len()
        );
    }
    emit_cache_stats(store.as_ref());
    Ok(())
}

/// `fieldclust statemachine <pcap>`: infer the protocol state machine
/// over message-type-labelled flows.
pub fn statemachine(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let trace = load_trace(&opts)?;
    let segmenter = opts.build_segmenter()?;
    let store = open_store(&opts)?;
    // Through the session: the machine — and every clustering artifact
    // under it — hits the store with `--cache-dir`, so a warm run
    // serves the persisted machine without re-clustering anything.
    let mut session = AnalysisSession::new(&trace, build_clusterer(&opts));
    if let Some(s) = &store {
        session.set_store(s.clone());
    }
    session
        .segment_with(segmenter.as_ref())
        .map_err(|e| CliError::runtime(format!("segmentation failed: {e}")))?;
    let machine = session
        .state_machine(&fieldclust::StateMachineConfig::default())
        .map_err(|e| CliError::runtime(format!("state machine inference failed: {e}")))?;

    if let Some(path) = &opts.dot {
        std::fs::write(path, machine.to_dot())
            .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        println!("state machine written to {path}");
        emit_cache_stats(store.as_ref());
        return Ok(());
    }
    if opts.json {
        // The machine's own canonical rendering — byte-identical to the
        // daemon's `InferStateMachine` response for the same capture.
        println!("{}", machine.to_json());
        emit_cache_stats(store.as_ref());
        return Ok(());
    }

    println!(
        "{} messages in {} flows -> {} states, {} transitions ({} symbols)",
        trace.len(),
        machine.flows,
        machine.n_states,
        machine.n_transitions(),
        machine.symbols.len()
    );
    for state in (0..machine.n_states).take(opts.limit) {
        let term = machine.terminations[state as usize];
        let edges: Vec<String> = machine
            .emissions(state)
            .iter()
            .map(|&(symbol, to, count)| {
                format!("{} -> s{to} ({count})", machine.symbol_name(symbol))
            })
            .collect();
        println!(
            "  s{state}: {:5} visits, {term:4} ends | {}",
            machine.visits[state as usize],
            if edges.is_empty() {
                "(no outgoing)".to_string()
            } else {
                edges.join(", ")
            }
        );
    }
    emit_cache_stats(store.as_ref());
    Ok(())
}

/// `fieldclust segment <pcap>`: print inferred boundaries per message.
pub fn segment(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let trace = load_trace(&opts)?;
    let segmenter = opts.build_segmenter()?;
    let segmentation = segmenter
        .segment_trace(&trace)
        .map_err(|e| CliError::runtime(format!("segmentation failed: {e}")))?;
    println!(
        "{} messages, {} segments ({} segmenter)",
        trace.len(),
        segmentation.total_segments(),
        segmenter.name()
    );
    for (i, (msg, segs)) in trace
        .iter()
        .zip(&segmentation.messages)
        .enumerate()
        .take(opts.limit)
    {
        let rendered: Vec<String> = segs
            .ranges()
            .iter()
            .map(|r| hex_preview(&msg.payload()[r.clone()], 8))
            .collect();
        println!("msg {i:4}: {}", rendered.join(" | "));
    }
    Ok(())
}

/// `fieldclust fuzz <pcap>`: sample fuzzing candidates per cluster.
pub fn fuzz(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let trace = load_trace(&opts)?;
    let segmenter = opts.build_segmenter()?;
    let segmentation = segmenter
        .segment_trace(&trace)
        .map_err(|e| CliError::runtime(format!("segmentation failed: {e}")))?;
    let result = build_clusterer(&opts)
        .cluster_trace(&trace, &segmentation)
        .map_err(|e| CliError::runtime(format!("clustering failed: {e}")))?;
    let models = ValueModel::per_cluster(&result);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    println!(
        "fuzzing candidates per pseudo data type (seed {}):",
        opts.seed
    );
    for (id, model) in models.iter().enumerate().take(opts.limit) {
        let candidates: Vec<String> = (0..opts.count)
            .map(|_| hex_preview(&model.sample(&mut rng), 16))
            .collect();
        println!(
            "  type {id:2} (trained on {:5} values): {}",
            model.training_weight(),
            candidates.join(", ")
        );
    }
    Ok(())
}

/// `fieldclust compare <a.pcap> <b.pcap>`: protocol drift between two
/// captures.
pub fn compare(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    if opts.positional.len() != 2 {
        return Err(CliError::usage(
            "usage: fieldclust compare <a.pcap> <b.pcap>",
        ));
    }
    let segmenter = opts.build_segmenter()?;
    // Both captures share one artifact store, so re-comparing after one
    // capture changed recomputes only that capture's artifacts.
    let store = open_store(&opts)?;
    let mut results = Vec::new();
    for path in &opts.positional {
        let trace = load_trace_from(path, &opts)?;
        let mut session = AnalysisSession::new(&trace, build_clusterer(&opts));
        if let Some(s) = &store {
            session.set_store(s.clone());
        }
        session
            .segment_with(segmenter.as_ref())
            .map_err(|e| CliError::runtime(format!("{path}: segmentation failed: {e}")))?;
        let result = session
            .finish()
            .map_err(|e| CliError::runtime(format!("{path}: clustering failed: {e}")))?;
        results.push(result);
    }
    let diff = fieldclust::compare_clusterings(
        &results[0],
        &results[1],
        fieldclust::compare::DEFAULT_MATCH_THRESHOLD,
    );
    println!(
        "{} vs {}: {} matched types, {} only in A, {} only in B",
        opts.positional[0],
        opts.positional[1],
        diff.matches.len(),
        diff.only_left.len(),
        diff.only_right.len()
    );
    println!(
        "value retention A->B: {:.0}%",
        diff.left_value_retention * 100.0
    );
    for m in diff.matches.iter().take(opts.limit) {
        println!(
            "  A:{:<3} <-> B:{:<3}  jaccard {:.2} ({} shared values)",
            m.left, m.right, m.jaccard, m.shared_values
        );
    }
    if !diff.only_left.is_empty() {
        println!("  vanished types (A only): {:?}", diff.only_left);
    }
    if !diff.only_right.is_empty() {
        println!("  new types (B only): {:?}", diff.only_right);
    }
    emit_cache_stats(store.as_ref());
    Ok(())
}

/// `fieldclust stats <pcap>`: first-look summary of a capture — or,
/// with `--addr`, the counters of a running `ftcd` daemon.
pub fn stats(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    if let Some(addr) = &opts.addr {
        let stats = connect(addr)?.stats().map_err(daemon_error)?;
        print!("{stats}");
        return Ok(());
    }
    let trace = load_trace(&opts)?;
    let s = trace::stats::trace_stats(&trace, 48);
    println!(
        "{} messages, {} bytes, {} flows, uniqueness {:.2}",
        s.messages, s.total_bytes, s.flows, s.uniqueness
    );
    println!(
        "payload lengths: min {} / median {} / max {} ({} distinct)",
        s.len_min,
        s.len_median,
        s.len_max,
        s.length_histogram.len()
    );
    println!("mean payload entropy: {:.2} bits/byte", s.mean_entropy);
    for (t, c) in &s.transports {
        println!("  transport {t:?}: {c} messages");
    }
    println!(
        "per-offset entropy (first {} bytes; low = fixed header):",
        s.offset_profile.len()
    );
    let bar = |e: f64| "#".repeat((e * 4.0).round() as usize);
    for (off, e) in s.offset_profile.iter().enumerate() {
        println!("  byte {off:3}: {e:4.2} {}", bar(*e));
    }
    Ok(())
}

/// `fieldclust generate <protocol> <n> <out.pcap>`: write a synthetic
/// trace.
pub fn generate(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let [protocol, n, out] = &opts.positional[..] else {
        return Err(CliError::usage(
            "usage: fieldclust generate <protocol> <messages> <out.pcap>",
        ));
    };
    let protocol = Protocol::from_name(protocol).ok_or_else(|| {
        CliError::usage(format!(
            "unknown protocol `{protocol}` (see `fieldclust protocols`)"
        ))
    })?;
    let n: usize = n
        .parse()
        .map_err(|_| CliError::usage("<messages> must be a number"))?;
    let trace = protocol.generate(n, opts.seed);
    pcap::write_to_file(&trace, out)
        .map_err(|e| CliError::runtime(format!("writing {out}: {e}")))?;
    println!(
        "wrote {} {} messages ({} bytes of payload) to {out}",
        trace.len(),
        protocol,
        trace.total_payload_bytes()
    );
    Ok(())
}

/// The `--addr` a daemon subcommand requires.
fn required_addr(opts: &CommonOpts) -> Result<&str, CliError> {
    opts.addr
        .as_deref()
        .ok_or_else(|| CliError::usage("--addr <host:port> of a running ftcd is required"))
}

fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr).map_err(|e| CliError::runtime(format!("connecting to {addr}: {e}")))
}

/// Daemon-side declines keep their structure: a rejection carries the
/// retry hint, everything else is a plain runtime failure.
fn daemon_error(e: ClientError) -> CliError {
    CliError::runtime(e.to_string())
}

/// Delivers a finished job's report: to `--report F` when given, else
/// to stdout.
fn deliver_report(report: Vec<u8>, opts: &CommonOpts) -> Result<(), CliError> {
    let text = String::from_utf8(report)
        .map_err(|_| CliError::runtime("daemon sent a non-UTF-8 report"))?;
    match &opts.report {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
            println!("report written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `fieldclust submit <pcap> --addr A`: upload a capture to a running
/// `ftcd`, analyze it there, wait, and deliver the report — which is
/// byte-identical to `fieldclust analyze <pcap> --report`.
pub fn submit(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let addr = required_addr(&opts)?;
    let path = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing <capture.pcap> argument"))?;
    let bytes =
        std::fs::read(path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
    let mut client = connect(addr)?;
    let (trace_id, messages) = client
        .submit_trace(
            path,
            bytes,
            opts.port,
            opts.max.map(|n| n as u64),
            opts.reassemble,
        )
        .map_err(daemon_error)?;
    eprintln!("trace {trace_id}: {messages} messages after preprocessing");
    let job_id = client
        .analyze(trace_id, &opts.segmenter, 0)
        .map_err(daemon_error)?;
    eprintln!("job {job_id}: accepted");
    match client
        .wait_for(job_id, Duration::from_millis(100))
        .map_err(daemon_error)?
    {
        JobState::Done { report } => deliver_report(report, &opts),
        JobState::Failed { message } => Err(CliError::runtime(format!("job failed: {message}"))),
        JobState::Cancelled => Err(CliError::runtime("job was cancelled")),
        other => Err(CliError::runtime(format!("unexpected job state {other:?}"))),
    }
}

/// `fieldclust query <job-id> --addr A`: fetch a job's state (and its
/// report once done).
pub fn query(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let addr = required_addr(&opts)?;
    let job_id: u64 = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing <job-id> argument"))?
        .parse()
        .map_err(|_| CliError::usage("<job-id> must be a number"))?;
    match connect(addr)?.query(job_id).map_err(daemon_error)? {
        JobState::Queued { position } => {
            println!("job {job_id}: queued ({position} ahead)");
            Ok(())
        }
        JobState::Running => {
            println!("job {job_id}: running");
            Ok(())
        }
        JobState::Done { report } => deliver_report(report, &opts),
        JobState::Failed { message } => Err(CliError::runtime(format!("job failed: {message}"))),
        JobState::Cancelled => {
            println!("job {job_id}: cancelled");
            Ok(())
        }
    }
}

/// `fieldclust shutdown --addr A`: drain and stop a running daemon.
pub fn shutdown(args: &[String]) -> Result<(), CliError> {
    let opts = CommonOpts::parse(args)?;
    let addr = required_addr(&opts)?;
    let drained = connect(addr)?.shutdown().map_err(daemon_error)?;
    println!("daemon at {addr} shutting down ({drained} jobs draining)");
    Ok(())
}

/// Appends one drift record as a JSON line to `--drift-log F`, or to
/// stdout when no sink was given (stdout stays pure JSONL; everything
/// human-facing goes to stderr).
fn emit_drift(
    record: &ingest::DriftRecord,
    sink: &mut Option<std::fs::File>,
) -> Result<(), CliError> {
    use std::io::Write;
    let line = record.to_json_line();
    match sink {
        Some(file) => writeln!(file, "{line}")
            .map_err(|e| CliError::runtime(format!("writing drift log: {e}"))),
        None => {
            println!("{line}");
            Ok(())
        }
    }
}

/// `fieldclust follow <capture.pcap | --listen A>`: continuous
/// streaming ingestion — tail a growing capture file (or accept framed
/// raw messages on a loopback socket), re-cluster in bounded batches
/// through a warm session, and emit one drift record per batch. With
/// `--sample 0` (the default) the final `--report` is byte-identical
/// to a one-shot `analyze --report` of the full capture.
pub fn follow(args: &[String]) -> Result<(), CliError> {
    use ingest::{FollowFile, MessageSource, SampleConfig, SocketFeed, StreamConfig};
    use std::time::Instant;

    let opts = CommonOpts::parse(args)?;
    let mut source: Box<dyn MessageSource> = match &opts.listen {
        Some(addr) => {
            let feed = SocketFeed::bind(addr).map_err(CliError::runtime)?;
            eprintln!("listening on {}", feed.local_addr());
            Box::new(feed)
        }
        None => {
            let path = opts.positional.first().ok_or_else(|| {
                CliError::usage("missing <capture.pcap> argument (or --listen A)")
            })?;
            Box::new(FollowFile::new(path))
        }
    };
    // Warmth between batches needs an artifact store; without
    // `--cache-dir` a throwaway one keeps re-clustering incremental
    // (results never depend on it — cold batches are just slower).
    let (store, scratch_dir) = match open_store(&opts)? {
        Some(s) => (Some(s), None),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "fieldclust-follow-{}-{}",
                std::process::id(),
                opts.seed
            ));
            match ArtifactStore::open(&dir) {
                Ok(s) => (Some(s), Some(dir)),
                Err(_) => (None, None),
            }
        }
    };
    let mut session = ingest::StreamSession::new(
        StreamConfig {
            prepare: prepare_opts(&opts),
            segmenter: opts.segmenter.clone(),
            clusterer: build_clusterer(&opts),
            sample: SampleConfig {
                max: opts.sample,
                seed: opts.seed,
            },
            fsm: opts.fsm,
        },
        store.clone(),
    );
    let mut drift_log = match &opts.drift_log {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| CliError::runtime(format!("opening {path}: {e}")))?,
        ),
        None => None,
    };
    eprintln!(
        "following {} (batch: {} msgs / {} ms, sample cap {})",
        source.describe(),
        opts.batch_msgs,
        opts.batch_interval_ms,
        opts.sample
    );

    let mut last_flush = Instant::now();
    let mut last_arrival = Instant::now();
    loop {
        let fresh = source.poll().map_err(CliError::runtime)?;
        if !fresh.is_empty() {
            last_arrival = Instant::now();
            session.push(fresh);
        }
        let interval = Duration::from_millis(opts.batch_interval_ms);
        let due = session.pending() >= opts.batch_msgs
            || (session.pending() > 0 && last_flush.elapsed() >= interval);
        if due {
            if let Some(record) = session.flush().map_err(CliError::runtime)? {
                emit_drift(&record, &mut drift_log)?;
            }
            last_flush = Instant::now();
        }
        if opts.batches > 0 && session.batches() >= opts.batches {
            break;
        }
        if opts.idle_exit_ms > 0
            && last_arrival.elapsed() >= Duration::from_millis(opts.idle_exit_ms)
        {
            // Flush whatever is pending so the last messages are
            // analyzed before exit.
            if let Some(record) = session.flush().map_err(CliError::runtime)? {
                emit_drift(&record, &mut drift_log)?;
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    if let Some(path) = &opts.report {
        let md = session.final_report().map_err(CliError::runtime)?;
        std::fs::write(path, md).map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
        eprintln!("report written to {path}");
    }
    eprintln!(
        "follow: {} batches, {} messages seen",
        session.batches(),
        session.seen()
    );
    emit_cache_stats(store.as_ref());
    if let Some(dir) = scratch_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// `fieldclust protocols`: list the built-in generators.
pub fn protocols(_args: &[String]) -> Result<(), CliError> {
    println!("built-in protocol generators:");
    for p in Protocol::ALL {
        let sample = p.generate(2, 1);
        println!(
            "  {:5} — e.g. {} byte messages",
            p.name(),
            sample.messages()[0].payload().len()
        );
    }
    Ok(())
}
