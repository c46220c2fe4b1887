//! End-to-end daemon tests over real loopback sockets: byte-identical
//! reports for concurrent clients against the offline pipeline,
//! admission control under load, cancellation freeing its queue slot,
//! and a draining shutdown.

use fieldclust::report::standard_report;
use fieldclust::{AnalysisSession, FieldTypeClusterer, NeighborBackend, StateMachineConfig};
use protocols::{corpus, Protocol};
use serve::daemon::{start, ServerConfig};
use serve::{build_segmenter, prepare_trace, Client, ClientError, JobState, PrepareOpts};
use std::time::Duration;
use trace::pcap;

fn capture_bytes(protocol: Protocol, n: usize, seed: u64) -> Vec<u8> {
    pcap::write_to_vec(&corpus::build_trace(protocol, n, seed)).expect("write capture")
}

/// The offline reference: what `fieldclust analyze --report` renders for
/// these capture bytes, via the exact shared code path (prepare →
/// segment → stages → canonical report).
fn offline_report(pcap: &[u8], segmenter: &str) -> String {
    let (trace, _) = prepare_trace(pcap, &PrepareOpts::default()).expect("prepare offline");
    let mut session = AnalysisSession::from_owned(trace, FieldTypeClusterer::default());
    let seg = build_segmenter(segmenter).expect("segmenter");
    session
        .segment_with(seg.as_ref())
        .expect("offline segmentation");
    let trace = session.trace().clone();
    standard_report(&trace, &mut session).expect("offline report")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcd-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_clients_get_byte_identical_reports() {
    let cache = temp_dir("identical");
    let handle = start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();

    let cases = [
        (Protocol::Ntp, 16usize, 11u64),
        (Protocol::Dns, 16, 22),
        (Protocol::Dhcp, 12, 33),
        (Protocol::Nbns, 16, 44),
    ];
    std::thread::scope(|scope| {
        for (protocol, n, seed) in cases {
            let addr = addr.clone();
            scope.spawn(move || {
                let bytes = capture_bytes(protocol, n, seed);
                let expected = offline_report(&bytes, "nemesys");
                let mut client = Client::connect(&addr).expect("connect");
                let (trace_id, messages) = client
                    .submit_trace(&format!("{protocol:?}"), bytes.clone(), None, None, false)
                    .expect("submit");
                assert!(messages > 0);
                let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
                let state = client
                    .wait_for(job, Duration::from_millis(20))
                    .expect("wait");
                let JobState::Done { report } = state else {
                    panic!("{protocol:?}: expected Done, got {state:?}");
                };
                assert_eq!(
                    String::from_utf8(report).expect("utf8 report"),
                    expected,
                    "{protocol:?}: daemon report must be byte-identical to offline"
                );
                // A second analysis of the same trace reuses the warm
                // session and must render the same bytes again.
                let job = client.analyze(trace_id, "nemesys", 0).expect("re-analyze");
                let JobState::Done { report } = client
                    .wait_for(job, Duration::from_millis(20))
                    .expect("wait again")
                else {
                    panic!("{protocol:?}: re-analysis must finish");
                };
                assert_eq!(String::from_utf8(report).unwrap(), expected);
            });
        }
    });

    let mut client = Client::connect(&addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_accepted, 8, "4 clients × 2 analyses each");
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.jobs_completed, 8);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.queue_depth, 0, "all slots released");
    assert_eq!(stats.traces, 4);
    assert!(stats.warm_sessions >= 1, "sessions parked for reuse");
    assert!(stats.cache_writes > 0, "artifacts persisted to --cache-dir");
    assert!(stats.peak_rss_bytes > 0);
    let stages: Vec<&str> = stats
        .stage_wall_ns
        .iter()
        .map(|(s, _)| s.as_str())
        .collect();
    // A report job plans message typing, whose segment matrix holds
    // the field matrix: `auto` resolves the matrix backend even on
    // mixed-length NEMESYS segments, so the matrix stage builds that one
    // matrix and no stratified query runs.
    for stage in [
        "segment",
        "matrix",
        "neighbors",
        "autoconf",
        "cluster",
        "report",
    ] {
        assert!(stages.contains(&stage), "stage {stage} must be timed");
    }
    assert_eq!(
        (stats.kernel_evals, stats.pruned_candidates),
        (0, 0),
        "matrix-backed report jobs run no stratified query"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&cache);
}

/// The neighbor-query counters an in-process stratified report over
/// the capture adds up to: `(kernel_evals, pruned, strata_skipped)`.
fn offline_stratified_counters(pcap: &[u8], segmenter: &str) -> (u64, u64, u64) {
    let (trace, _) = prepare_trace(pcap, &PrepareOpts::default()).expect("prepare offline");
    let config = FieldTypeClusterer {
        neighbor_backend: NeighborBackend::Stratified,
        ..FieldTypeClusterer::default()
    };
    let mut session = AnalysisSession::from_owned(trace, config);
    let seg = build_segmenter(segmenter).expect("segmenter");
    session
        .segment_with(seg.as_ref())
        .expect("offline segmentation");
    let trace = session.trace().clone();
    standard_report(&trace, &mut session).expect("offline report");
    session.neighbor_counters()
}

#[test]
fn stratified_daemon_sums_the_neighbor_queries_of_concurrent_jobs() {
    let handle = start(ServerConfig {
        workers: 2,
        neighbor_backend: NeighborBackend::Stratified,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let cases = [(Protocol::Ntp, 16usize, 11u64), (Protocol::Dns, 16, 22)];
    let expected_totals = std::thread::scope(|scope| {
        let jobs: Vec<_> = cases
            .into_iter()
            .map(|(protocol, n, seed)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let bytes = capture_bytes(protocol, n, seed);
                    let mut client = Client::connect(&addr).expect("connect");
                    let (trace_id, _) = client
                        .submit_trace(&format!("{protocol:?}"), bytes.clone(), None, None, false)
                        .expect("submit");
                    let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
                    let JobState::Done { report } = client
                        .wait_for(job, Duration::from_millis(20))
                        .expect("wait")
                    else {
                        panic!("{protocol:?}: expected Done");
                    };
                    // Backends never change a report.
                    assert_eq!(
                        String::from_utf8(report).expect("utf8 report"),
                        offline_report(&bytes, "nemesys"),
                        "{protocol:?}"
                    );
                    offline_stratified_counters(&bytes, "nemesys")
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("client thread"))
            .fold((0, 0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2))
    });

    let mut client = Client::connect(&addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_completed, 2);
    assert!(
        stats.kernel_evals > 0,
        "stratified queries must count kernel evaluations"
    );
    assert!(
        stats.pruned_candidates > 0,
        "stratified queries must prune candidates"
    );
    assert_eq!(
        (
            stats.kernel_evals,
            stats.pruned_candidates,
            stats.strata_skipped
        ),
        expected_totals,
        "the daemon's totals are the sum of its jobs' counters"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        worker_delay_ms: 600,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 12, 7);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");

    // Slot 1 of 1: accepted. The worker stalls on worker_delay_ms, so
    // the slot is deterministically still held for the second request.
    let first = client.analyze(trace_id, "nemesys", 0).expect("first job");
    match client.analyze(trace_id, "nemesys", 0) {
        Err(ClientError::Rejected {
            retry_after_ms,
            reason,
        }) => {
            assert!(retry_after_ms >= 100, "retry hint has a floor");
            assert!(reason.contains("queue full"), "reason: {reason}");
        }
        other => panic!("capacity-plus-first client must be rejected, got {other:?}"),
    }

    // Once the first job drains, the slot is free again.
    let state = client
        .wait_for(first, Duration::from_millis(25))
        .expect("wait");
    assert!(matches!(state, JobState::Done { .. }), "got {state:?}");
    let second = client.analyze(trace_id, "nemesys", 0).expect("after drain");
    client
        .wait_for(second, Duration::from_millis(25))
        .expect("second drains");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_accepted, 2);
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.queue_depth, 0);

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn cancelling_a_queued_job_frees_its_slot() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        worker_delay_ms: 600,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Dns, 12, 5);
    let (trace_id, _) = client
        .submit_trace("dns", bytes, None, None, false)
        .expect("submit");

    // Job 1 occupies the single worker (stalled); job 2 fills the queue.
    let running = client.analyze(trace_id, "nemesys", 0).expect("job 1");
    let queued = client.analyze(trace_id, "nemesys", 0).expect("job 2");
    assert!(matches!(
        client.analyze(trace_id, "nemesys", 0),
        Err(ClientError::Rejected { .. })
    ));

    // Cancelling the queued job frees its slot immediately…
    let state = client.cancel(queued).expect("cancel");
    assert_eq!(state, JobState::Cancelled);
    // …so a new job is admitted without waiting for the worker.
    let refill = client.analyze(trace_id, "nemesys", 0).expect("refill");

    for job in [running, refill] {
        let state = client
            .wait_for(job, Duration::from_millis(25))
            .expect("wait");
        assert!(matches!(state, JobState::Done { .. }), "got {state:?}");
    }
    assert_eq!(client.query(queued).expect("query"), JobState::Cancelled);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_accepted, 3);
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.queue_depth, 0);

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        worker_delay_ms: 400,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 12, 9);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");
    let job = client.analyze(trace_id, "nemesys", 0).expect("job");

    // Shutdown arrives on a second connection while the job stalls.
    let mut second = Client::connect(&addr).expect("second connection");
    let drained = second.shutdown().expect("shutdown");
    assert_eq!(drained, 1, "one in-flight job to drain");

    // New work is refused during the drain…
    assert!(matches!(
        second.analyze(trace_id, "nemesys", 0),
        Err(ClientError::Rejected { .. })
    ));
    // …but the first connection still polls its report to completion.
    let state = client
        .wait_for(job, Duration::from_millis(25))
        .expect("wait");
    assert!(matches!(state, JobState::Done { .. }), "got {state:?}");

    // And the daemon exits once drained.
    handle.wait();
}

/// The offline reference for a trace grown by an append: both captures
/// parsed, messages concatenated, then the shared preprocessing and
/// analysis path — exactly what the daemon's `AppendMessages` models.
fn offline_merged_report(a: &[u8], b: &[u8], segmenter: &str) -> String {
    let ta = trace::pcapng::read_any(a, "capture").expect("parse a");
    let tb = trace::pcapng::read_any(b, "capture").expect("parse b");
    let mut messages = ta.messages().to_vec();
    messages.extend(tb.messages().iter().cloned());
    let merged = trace::Trace::new(ta.name(), messages);
    let prepared = serve::preprocess(&merged, &PrepareOpts::default()).expect("preprocess merged");
    let mut session = AnalysisSession::from_owned(prepared, FieldTypeClusterer::default());
    let seg = build_segmenter(segmenter).expect("segmenter");
    session
        .segment_with(seg.as_ref())
        .expect("merged segmentation");
    let trace = session.trace().clone();
    standard_report(&trace, &mut session).expect("merged report")
}

#[test]
fn append_during_running_analyze_never_serves_stale_sessions() {
    // The regression this pins: a job checks its session out, an append
    // grows the trace while the job runs, and the job re-parks the
    // pre-append session at check-in — later analyses would then
    // silently reuse it and return reports missing the appended
    // messages.
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        worker_delay_ms: 400,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let first = capture_bytes(Protocol::Ntp, 12, 61);
    let second = capture_bytes(Protocol::Ntp, 12, 62);
    let (trace_id, before) = client
        .submit_trace("ntp", first.clone(), None, None, false)
        .expect("submit");

    // `Running` is set in the same critical section as the session
    // checkout, so once we observe it the job has definitely captured
    // its pre-append snapshot; the worker then stalls 400 ms, giving
    // the append a deterministic window while the job is in flight.
    let running = client.analyze(trace_id, "nemesys", 0).expect("job 1");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match client.query(running).expect("poll") {
            JobState::Running => break,
            JobState::Queued { .. } if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("expected job 1 to reach Running, got {other:?}"),
        }
    }
    let after = client
        .append_messages(trace_id, second.clone())
        .expect("append while job 1 runs");
    assert!(after > before, "append must grow the prepared trace");

    // Job 1 was admitted before the append: it reports on its snapshot.
    let JobState::Done { report } = client
        .wait_for(running, Duration::from_millis(20))
        .expect("wait job 1")
    else {
        panic!("job 1 must finish");
    };
    assert_eq!(
        String::from_utf8(report).expect("utf8"),
        offline_report(&first, "nemesys"),
        "in-flight job reports on its pre-append snapshot"
    );

    // Job 2 runs after the append: its report must cover the appended
    // messages — byte-identical to an offline run on the merged trace,
    // not a replay of job 1's stale session.
    let grown = client.analyze(trace_id, "nemesys", 0).expect("job 2");
    let JobState::Done { report } = client
        .wait_for(grown, Duration::from_millis(20))
        .expect("wait job 2")
    else {
        panic!("job 2 must finish");
    };
    assert_eq!(
        String::from_utf8(report).expect("utf8"),
        offline_merged_report(&first, &second, "nemesys"),
        "post-append analysis must include the appended messages"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn append_rounds_extend_stored_matrices_and_match_a_fresh_store() {
    // A store-attached daemon grows its matrices after an append from
    // the prefixes its first analysis stored — the message matrix among
    // them — and the grown report must equal a report of the grown trace
    // computed in process on a fresh, empty store.
    let cache = temp_dir("append-extend");
    let handle = start(ServerConfig {
        workers: 1,
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let whole = corpus::build_trace(Protocol::Dns, 80, 71);
    let part = |lo: usize, hi: usize| {
        let t = trace::Trace::new("capture", whole.messages()[lo..hi].to_vec());
        pcap::write_to_vec(&t).expect("write capture")
    };
    let (first, second) = (part(0, 60), part(60, 80));
    let (trace_id, _) = client
        .submit_trace("dns", first.clone(), None, None, false)
        .expect("submit");
    let analyze = |client: &mut Client| {
        let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
        match client
            .wait_for(job, Duration::from_millis(20))
            .expect("wait")
        {
            JobState::Done { report } => String::from_utf8(report).expect("utf8"),
            other => panic!("expected Done, got {other:?}"),
        }
    };
    analyze(&mut client);
    let before = client.stats().expect("stats").cache_extended;
    client
        .append_messages(trace_id, second.clone())
        .expect("append");
    let grown = analyze(&mut client);
    let after = client.stats().expect("stats").cache_extended;
    assert!(
        after > before,
        "the grown analysis extends cached prefixes ({before} -> {after})"
    );

    let fresh = temp_dir("append-extend-fresh");
    let ta = trace::pcapng::read_any(&first, "capture").expect("parse first");
    let tb = trace::pcapng::read_any(&second, "capture").expect("parse second");
    let mut messages = ta.messages().to_vec();
    messages.extend(tb.messages().iter().cloned());
    let merged = trace::Trace::new(ta.name(), messages);
    let prepared = serve::preprocess(&merged, &PrepareOpts::default()).expect("preprocess");
    let mut session = AnalysisSession::from_owned(prepared, FieldTypeClusterer::default())
        .with_store(&fresh)
        .expect("open fresh store");
    let seg = build_segmenter("nemesys").expect("segmenter");
    session.segment_with(seg.as_ref()).expect("segmentation");
    let trace = session.trace().clone();
    let expected = standard_report(&trace, &mut session).expect("fresh-store report");
    assert_eq!(
        session.cache_stats().expect("store attached").extended,
        0,
        "a fresh store has no prefix to extend"
    );
    assert_eq!(grown, expected);

    client.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn append_errors_leave_the_trace_unchanged() {
    let handle = start(ServerConfig::default()).expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Dns, 12, 17);
    let (trace_id, before) = client
        .submit_trace("dns", bytes.clone(), None, None, false)
        .expect("submit");

    // A capture that does not parse is refused without mutating the
    // entry…
    assert!(matches!(
        client.append_messages(trace_id, b"not a capture".to_vec()),
        Err(ClientError::Daemon(_))
    ));
    // …and an append of the same capture dedups to a no-op, proving
    // the entry still holds exactly the original messages.
    let after = client
        .append_messages(trace_id, bytes.clone())
        .expect("duplicate append");
    assert_eq!(after, before, "duplicate messages dedup to a no-op");
    let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
    let JobState::Done { report } = client
        .wait_for(job, Duration::from_millis(20))
        .expect("wait")
    else {
        panic!("job must finish");
    };
    assert_eq!(
        String::from_utf8(report).expect("utf8"),
        offline_report(&bytes, "nemesys"),
        "trace unchanged after refused and no-op appends"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn terminal_job_records_expire_beyond_the_history_cap() {
    let handle = start(ServerConfig {
        job_history: 2,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 12, 23);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");

    let mut jobs = Vec::new();
    for _ in 0..3 {
        let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
        let state = client
            .wait_for(job, Duration::from_millis(20))
            .expect("wait");
        assert!(matches!(state, JobState::Done { .. }), "got {state:?}");
        jobs.push(job);
    }
    // Only the newest two terminal records survive; the oldest report
    // has expired and queries for it answer "unknown job".
    assert!(matches!(
        client.query(jobs[0]),
        Err(ClientError::Daemon(ref m)) if m.contains("unknown job")
    ));
    for &job in &jobs[1..] {
        assert!(matches!(
            client.query(job).expect("query"),
            JobState::Done { .. }
        ));
    }

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The offline reference for a trace built from several capture
/// batches: all captures parsed, messages concatenated in arrival
/// order, then the shared preprocessing and analysis path — what a
/// fully committed stream must converge to.
fn offline_batched_report(batches: &[Vec<u8>], segmenter: &str) -> String {
    let mut messages = Vec::new();
    let mut name = String::new();
    for bytes in batches {
        let t = trace::pcapng::read_any(bytes, "capture").expect("parse batch");
        name = t.name().to_string();
        messages.extend(t.messages().iter().cloned());
    }
    let merged = trace::Trace::new(&name, messages);
    let prepared = serve::preprocess(&merged, &PrepareOpts::default()).expect("preprocess merged");
    let mut session = AnalysisSession::from_owned(prepared, FieldTypeClusterer::default());
    let seg = build_segmenter(segmenter).expect("segmenter");
    session
        .segment_with(seg.as_ref())
        .expect("batched segmentation");
    let trace = session.trace().clone();
    standard_report(&trace, &mut session).expect("batched report")
}

#[test]
fn streamed_batches_converge_to_the_one_shot_report() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let batches: Vec<Vec<u8>> = [(16usize, 71u64), (12, 72), (16, 73)]
        .iter()
        .map(|&(n, seed)| capture_bytes(Protocol::Ntp, n, seed))
        .collect();

    // Batch 1 goes up in deliberately tiny chunks: two buffering
    // requests, then a commit — the wire path a capture bigger than
    // one frame would take.
    let mid = batches[0].len() / 3;
    let (a, rest) = batches[0].split_at(mid);
    let (b, c) = rest.split_at(mid);
    let opened = client
        .stream(0, "ntp-stream", a.to_vec(), false, "nemesys")
        .expect("open stream");
    assert!(opened.stream_id > 0, "open assigns a stream handle");
    assert_eq!(opened.trace_id, 0, "no trace before the first commit");
    assert_eq!(opened.buffered, a.len() as u64);
    let more = client
        .stream(opened.stream_id, "ntp-stream", b.to_vec(), false, "nemesys")
        .expect("buffer more");
    assert_eq!(more.buffered, (a.len() + b.len()) as u64);
    let committed = client
        .stream(opened.stream_id, "ntp-stream", c.to_vec(), true, "nemesys")
        .expect("commit batch 1");
    assert!(committed.trace_id > 0, "first commit creates the trace");
    assert_eq!(committed.batches, 1);
    assert_eq!(committed.buffered, 0, "commit drains the buffer");
    assert!(committed.job_id > 0, "commit admits an analysis");
    let trace_id = committed.trace_id;
    client
        .wait_for(committed.job_id, Duration::from_millis(20))
        .expect("batch 1 job");

    // Batches 2 and 3 use the chunking helper end-to-end.
    for (i, bytes) in batches[1..].iter().enumerate() {
        let progress = client
            .stream_capture(opened.stream_id, "ntp-stream", bytes, "nemesys")
            .expect("stream batch");
        assert_eq!(progress.trace_id, trace_id, "stream stays on its trace");
        assert_eq!(progress.batches, 2 + i as u64);
        assert!(progress.job_id > 0);
        client
            .wait_for(progress.job_id, Duration::from_millis(20))
            .expect("batch job");
    }

    // The drift history has one record per committed batch, in order,
    // and the first batch reports every cluster as a birth.
    let records = client.drift_report(trace_id).expect("drift history");
    assert_eq!(records.len(), 3, "one drift record per batch");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.batch as usize, i);
        assert!(r.clusters > 0, "batch {i} found clusters");
        assert!(r.wall_us > 0);
    }
    assert_eq!(
        u64::from(records[0].delta.births),
        records[0].clusters,
        "first batch: every cluster is a birth"
    );
    let monotone = records.windows(2).all(|w| w[1].messages >= w[0].messages);
    assert!(monotone, "admitted messages grow batch over batch");

    // The fully streamed trace renders byte-identically to one offline
    // analysis of all batches concatenated.
    let job = client
        .analyze(trace_id, "nemesys", 0)
        .expect("final analyze");
    let JobState::Done { report } = client
        .wait_for(job, Duration::from_millis(20))
        .expect("final wait")
    else {
        panic!("final analysis must finish");
    };
    assert_eq!(
        String::from_utf8(report).expect("utf8"),
        offline_batched_report(&batches, "nemesys"),
        "streamed trace must converge to the one-shot report"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.stream_batches, 3);
    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn session_capacity_evicts_warm_sessions_but_keeps_results_exact() {
    let handle = start(ServerConfig {
        sessions: 1,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let ntp = capture_bytes(Protocol::Ntp, 12, 81);
    let dns = capture_bytes(Protocol::Dns, 12, 82);
    let (ntp_id, _) = client
        .submit_trace("ntp", ntp.clone(), None, None, false)
        .expect("submit ntp");
    let (dns_id, _) = client
        .submit_trace("dns", dns.clone(), None, None, false)
        .expect("submit dns");

    // Analyzing both traces alternately forces the single-slot warm
    // cache to evict on every switch.
    for (trace_id, bytes) in [(ntp_id, &ntp), (dns_id, &dns), (ntp_id, &ntp)] {
        let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
        let JobState::Done { report } = client
            .wait_for(job, Duration::from_millis(20))
            .expect("wait")
        else {
            panic!("job must finish");
        };
        assert_eq!(
            String::from_utf8(report).expect("utf8"),
            offline_report(bytes, "nemesys"),
            "eviction must never change results, only warmth"
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.session_capacity, 1);
    assert!(
        stats.session_evictions >= 2,
        "each trace switch evicts the other session, got {}",
        stats.session_evictions
    );
    assert!(
        stats.warm_sessions <= 1,
        "never more warm sessions than capacity"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The offline reference for `InferStateMachine`: the exact shared code
/// path (prepare → segment → message types → flow sequences → merge),
/// rendered with the machine's own canonical exports.
fn offline_statemachine(pcap: &[u8], segmenter: &str) -> (String, String) {
    let (trace, _) = prepare_trace(pcap, &PrepareOpts::default()).expect("prepare offline");
    let mut session = AnalysisSession::from_owned(trace, FieldTypeClusterer::default());
    let seg = build_segmenter(segmenter).expect("segmenter");
    session
        .segment_with(seg.as_ref())
        .expect("offline segmentation");
    let machine = session
        .state_machine(&StateMachineConfig::default())
        .expect("offline machine");
    (machine.to_dot(), machine.to_json())
}

#[test]
fn state_machine_requests_match_offline_and_warm_runs_rebuild_nothing() {
    let cache = temp_dir("fsm");
    let handle = start(ServerConfig {
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 16, 91);
    let (expected_dot, expected_json) = offline_statemachine(&bytes, "nemesys");
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");

    // Cold: the daemon clusters, infers, persists — and its renderings
    // are byte-identical to the offline pipeline's.
    let cold = client
        .infer_statemachine(trace_id, "nemesys", 0)
        .expect("cold inference");
    assert_eq!(cold.trace_id, trace_id);
    assert!(cold.states >= 1, "a machine always has its initial state");
    assert!(cold.flows >= 1, "ntp corpus has at least one flow");
    assert_eq!(String::from_utf8(cold.dot.clone()).unwrap(), expected_dot);
    assert_eq!(String::from_utf8(cold.json.clone()).unwrap(), expected_json);
    let stats_after_cold = client.stats().expect("stats after cold");
    assert!(
        stats_after_cold.cache_writes > 0,
        "cold inference persists artifacts"
    );

    // Warm: the parked session + store serve the machine without a
    // single store miss or write — nothing is rebuilt.
    let warm = client
        .infer_statemachine(trace_id, "nemesys", 0)
        .expect("warm inference");
    assert_eq!(warm.dot, cold.dot, "warm run is byte-identical");
    assert_eq!(warm.json, cold.json);
    let stats_after_warm = client.stats().expect("stats after warm");
    assert_eq!(
        stats_after_warm.cache_misses, stats_after_cold.cache_misses,
        "warm inference misses nothing"
    );
    assert_eq!(
        stats_after_warm.cache_writes, stats_after_cold.cache_writes,
        "warm inference writes nothing"
    );

    // Unknown traces and unknown segmenters decline with structured
    // errors, not hangs or panics.
    assert!(matches!(
        client.infer_statemachine(9999, "nemesys", 0),
        Err(ClientError::Daemon(ref m)) if m.contains("unknown trace")
    ));
    assert!(matches!(
        client.infer_statemachine(trace_id, "no-such-segmenter", 0),
        Err(ClientError::Daemon(ref m)) if m.contains("unknown segmenter")
    ));

    client.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn state_machine_deadline_cancels_between_stages_and_retry_resumes() {
    let handle = start(ServerConfig::default()).expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // Big enough that segmentation alone outlives a 1 ms deadline, so
    // the cancel check between the segment and clustering stages
    // observes the tripped token deterministically.
    let bytes = capture_bytes(Protocol::Ntp, 150, 92);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");
    match client.infer_statemachine(trace_id, "nemesys", 1) {
        Err(ClientError::Daemon(m)) => {
            assert!(m.contains("cancelled"), "expected a cancel, got: {m}")
        }
        other => panic!("1 ms deadline must cancel the cold inference, got {other:?}"),
    }
    // The cancelled session was checked back in with its completed
    // stages warm; an undeadlined retry resumes and succeeds.
    let retry = client
        .infer_statemachine(trace_id, "nemesys", 0)
        .expect("retry without deadline");
    assert!(retry.states >= 1);
    assert!(!retry.dot.is_empty() && !retry.json.is_empty());
    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn deadline_cancels_a_job_cooperatively() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        worker_delay_ms: 50,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 16, 3);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");
    // A 1 ms deadline expires during the worker stall; the first stage
    // boundary observes it and the job lands in Cancelled.
    let job = client.analyze(trace_id, "nemesys", 1).expect("job");
    let state = client
        .wait_for(job, Duration::from_millis(20))
        .expect("wait");
    assert_eq!(state, JobState::Cancelled);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.queue_depth, 0, "deadline cancel frees the slot");
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// A warm re-query stays warm: on a store-attached daemon, Analyze,
/// then InferStateMachine, then Analyze again on the same trace. The
/// parked session serves both later requests, so no field-clustering
/// stage runs again: their `Stats` walls and the kernel-evaluation
/// total do not move, and the second report is byte-identical.
#[test]
fn warm_requery_reruns_no_clustering_stage() {
    let cache = temp_dir("requery");
    let handle = start(ServerConfig {
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 40, 71);
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");
    let analyze = |client: &mut Client| {
        let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
        match client
            .wait_for(job, Duration::from_millis(10))
            .expect("wait")
        {
            JobState::Done { report } => report,
            other => panic!("expected Done, got {other:?}"),
        }
    };
    let clustering_walls = |stats: &serve::ServerStats| -> Vec<(String, u64)> {
        let stages = ["matrix", "neighbors", "autoconf", "cluster", "refine"];
        stats
            .stage_wall_ns
            .iter()
            .filter(|(s, _)| stages.contains(&s.as_str()))
            .cloned()
            .collect()
    };

    let first = analyze(&mut client);
    let before = client.stats().expect("stats after the first analysis");
    let walls = clustering_walls(&before);
    for stage in ["neighbors", "autoconf", "cluster", "refine"] {
        assert!(
            walls.iter().any(|(s, _)| s == stage),
            "{stage} ran in the first analysis"
        );
    }
    let machine = client
        .infer_statemachine(trace_id, "nemesys", 0)
        .expect("state machine");
    assert!(machine.states >= 1);
    let second = analyze(&mut client);
    let after = client.stats().expect("stats after the second analysis");

    assert_eq!(second, first, "the warm report is byte-identical");
    assert_eq!(clustering_walls(&after), walls, "no clustering stage reran");
    assert_eq!(after.kernel_evals, before.kernel_evals);
    for stage in ["msgtype", "fsm", "report"] {
        assert!(
            after.stage_wall_ns.iter().any(|(s, _)| s == stage),
            "{stage} is timed"
        );
    }

    client.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&cache);
}

/// The store-less twin of `warm_requery_reruns_no_clustering_stage`: on
/// a daemon without a `cache_dir` no store can stand in for an artifact
/// the parked session dropped, so a later request that needed one would
/// rebuild it and move the walls or the kernel-evaluation total. The
/// parked session's memoized message types also serve the state
/// machine, so not even message typing reruns.
#[test]
fn warm_requery_without_a_store_reruns_no_clustering_stage() {
    let handle = start(ServerConfig::default()).expect("start daemon");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let bytes = capture_bytes(Protocol::Ntp, 40, 71);
    let expected = offline_report(&bytes, "nemesys");
    let (trace_id, _) = client
        .submit_trace("ntp", bytes, None, None, false)
        .expect("submit");
    let analyze = |client: &mut Client| {
        let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
        match client
            .wait_for(job, Duration::from_millis(10))
            .expect("wait")
        {
            JobState::Done { report } => report,
            other => panic!("expected Done, got {other:?}"),
        }
    };
    let walls = |stats: &serve::ServerStats| -> Vec<(String, u64)> {
        let stages = [
            "segment",
            "dedup",
            "matrix",
            "neighbors",
            "autoconf",
            "cluster",
            "refine",
            "msgtype",
        ];
        stats
            .stage_wall_ns
            .iter()
            .filter(|(s, _)| stages.contains(&s.as_str()))
            .cloned()
            .collect()
    };

    let first = analyze(&mut client);
    assert_eq!(String::from_utf8(first.clone()).expect("utf8"), expected);
    let before = client.stats().expect("stats after the first analysis");
    let ran = walls(&before);
    for stage in ["neighbors", "autoconf", "cluster", "refine", "msgtype"] {
        assert!(
            ran.iter().any(|(s, _)| s == stage),
            "{stage} ran in the first analysis"
        );
    }
    let machine = client
        .infer_statemachine(trace_id, "nemesys", 0)
        .expect("state machine");
    assert!(machine.states >= 1);
    let second = analyze(&mut client);
    let after = client.stats().expect("stats after the second analysis");

    assert_eq!(second, first, "the warm report is byte-identical");
    assert_eq!(walls(&after), ran, "no clustering or msgtype stage reran");
    assert_eq!(after.kernel_evals, before.kernel_evals);
    assert_eq!(after.session_evictions, 0);
    for stage in ["fsm", "report"] {
        assert!(
            after.stage_wall_ns.iter().any(|(s, _)| s == stage),
            "{stage} is timed"
        );
    }

    client.shutdown().expect("shutdown");
    handle.wait();
}
