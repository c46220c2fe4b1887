//! One stage record, read the same way by every front end: a cold
//! `ftcd` job and a one-batch `StreamSession` flush report the stages
//! an in-process session runs, in the same order and with the same
//! neighbor-query counters. Only the walls may differ, and no counter
//! depends on the thread count.

use fieldclust::report::standard_report;
use fieldclust::{AnalysisSession, FieldTypeClusterer, NeighborBackend, StageRecord};
use ingest::{SampleConfig, StreamConfig, StreamSession};
use protocols::{corpus, Protocol};
use serve::daemon::{start, ServerConfig};
use serve::{build_segmenter, prepare_trace, Client, JobState, PrepareOpts};
use std::time::Duration;
use trace::pcap;

/// Stage names and (kernel_evals, pruned, strata_skipped), walls
/// dropped.
type Counters = Vec<(&'static str, u64, u64, u64)>;

fn counters(record: &StageRecord) -> Counters {
    record
        .iter()
        .map(|(s, t)| (s.name(), t.kernel_evals, t.pruned, t.strata_skipped))
        .collect()
}

fn clusterer(threads: usize, neighbor_backend: NeighborBackend) -> FieldTypeClusterer {
    FieldTypeClusterer {
        threads,
        neighbor_backend,
        ..FieldTypeClusterer::default()
    }
}

/// An in-process session over the prepared capture, segmented; its
/// record after `drive`, and the session's cumulative kernel_evals.
fn in_process(
    bytes: &[u8],
    segmenter: &str,
    threads: usize,
    backend: NeighborBackend,
    drive: impl FnOnce(&mut AnalysisSession<'static>),
) -> (Counters, u64) {
    let (trace, _) = prepare_trace(bytes, &PrepareOpts::default()).expect("prepare");
    let mut session = AnalysisSession::from_owned(trace, clusterer(threads, backend));
    let seg = build_segmenter(segmenter).expect("segmenter");
    session.segment_with(seg.as_ref()).expect("segment");
    drive(&mut session);
    let record = session.take_stage_record();
    let (evals, pruned, skipped) = session.neighbor_counters();
    let total = record.total();
    assert_eq!(
        (total.kernel_evals, total.pruned, total.strata_skipped),
        (evals, pruned, skipped),
        "the stages account for every neighbor query"
    );
    (counters(&record), evals)
}

/// A cold job on a store-less daemon running `backend`: its stage
/// names in order (from the `Stats` walls) and the `Stats` counter
/// totals.
fn daemon_job(
    bytes: &[u8],
    segmenter: &str,
    threads: usize,
    backend: NeighborBackend,
) -> (Vec<String>, (u64, u64, u64)) {
    let handle = start(ServerConfig {
        threads,
        neighbor_backend: backend,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let (trace_id, _) = client
        .submit_trace("pin", bytes.to_vec(), None, None, false)
        .expect("submit");
    let job = client.analyze(trace_id, segmenter, 0).expect("analyze");
    let state = client
        .wait_for(job, Duration::from_millis(10))
        .expect("wait");
    assert!(matches!(state, JobState::Done { .. }), "{state:?}");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    handle.wait();
    let names = stats.stage_wall_ns.into_iter().map(|(s, _)| s).collect();
    let totals = (
        stats.kernel_evals,
        stats.pruned_candidates,
        stats.strata_skipped,
    );
    (names, totals)
}

/// One flush of every message: the drift record's stage names
/// (`preprocess` excluded) must agree with the session's record.
fn stream_batch(bytes: &[u8], segmenter: &str, threads: usize) -> Counters {
    let raw = pcap::read_from_slice(bytes, "capture").expect("read capture");
    let mut stream = StreamSession::new(
        StreamConfig {
            prepare: PrepareOpts::default(),
            segmenter: segmenter.to_string(),
            clusterer: clusterer(threads, NeighborBackend::Auto),
            sample: SampleConfig::default(),
            fsm: false,
        },
        None,
    );
    stream.push(raw.messages().to_vec());
    let record = stream.flush().expect("flush").expect("one batch");
    let stages = counters(stream.last_stages());
    let walls: Vec<&str> = record
        .stage_walls_us
        .iter()
        .map(|(s, _)| s.as_str())
        .collect();
    let mut expected = vec!["preprocess"];
    expected.extend(stages.iter().map(|(name, ..)| *name));
    assert_eq!(walls, expected);
    stages
}

#[test]
fn daemon_stream_and_session_report_one_stage_record() {
    let captures = [
        // NEMESYS segments are mixed-length: the stratified backend.
        ("nemesys", Protocol::Ntp, 60, 5u64),
        // Fixed-width chunks of NTP are uniform: the matrix backend.
        ("fixed", Protocol::Ntp, 60, 6),
    ];
    for (segmenter, protocol, n, seed) in captures {
        let bytes = pcap::write_to_vec(&corpus::build_trace(protocol, n, seed)).expect("write");
        let mut at_one_thread = None;
        for threads in [1, 2, 4] {
            let report_with = |backend| {
                in_process(&bytes, segmenter, threads, backend, |s| {
                    let trace = s.trace().clone();
                    standard_report(&trace, s).expect("report");
                })
            };
            let (report, report_evals) = report_with(NeighborBackend::Auto);
            let (finish, finish_evals) =
                in_process(&bytes, segmenter, threads, NeighborBackend::Auto, |s| {
                    s.finish().expect("finish");
                });
            let has_matrix = |record: &Counters| record.iter().any(|(name, ..)| *name == "matrix");
            // A report plans message typing, whose segment matrix holds
            // the field matrix: both segmentations resolve the matrix
            // backend. Clustering alone keeps `auto`'s length-profile
            // choice: stratified on mixed-length NEMESYS segments.
            assert!(has_matrix(&report), "{segmenter}: report backend");
            assert_eq!(report_evals, 0, "{segmenter}: no stratified query");
            assert_eq!(
                has_matrix(&finish),
                segmenter == "fixed",
                "{segmenter}: backend"
            );
            assert_eq!(report.last().map(|s| s.0), Some("report"));
            if segmenter == "nemesys" {
                assert!(finish_evals > 0, "stratified queries count kernel calls");
            }

            // The daemon's stages and counter totals are the session's,
            // under `auto` and under an explicit stratified backend,
            // whose queries move the counters.
            for backend in [NeighborBackend::Auto, NeighborBackend::Stratified] {
                let record = match backend {
                    NeighborBackend::Auto => report.clone(),
                    _ => report_with(backend).0,
                };
                let (names, totals) = daemon_job(&bytes, segmenter, threads, backend);
                let label = format!("{segmenter} t={threads} {backend:?}");
                let expected: Vec<&str> = record.iter().map(|(name, ..)| *name).collect();
                assert_eq!(names, expected, "{label}: daemon stages");
                let sum = record
                    .iter()
                    .fold((0, 0, 0), |acc, s| (acc.0 + s.1, acc.1 + s.2, acc.2 + s.3));
                assert_eq!(totals, sum, "{label}: daemon counters");
                if backend == NeighborBackend::Stratified {
                    assert!(sum.0 > 0, "{label}: stratified queries count kernel calls");
                    assert!(sum.1 > 0, "{label}: stratified queries prune candidates");
                }
            }

            let stream = stream_batch(&bytes, segmenter, threads);
            assert_eq!(stream, finish, "{segmenter} t={threads}: stream stages");

            let reference = at_one_thread.get_or_insert_with(|| (report.clone(), finish.clone()));
            assert_eq!(
                reference,
                &(report, finish),
                "{segmenter}: threads {threads}"
            );
        }
    }
}
