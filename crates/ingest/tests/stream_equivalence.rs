//! The streaming pipeline's core contract, end to end:
//!
//! * **Sampling off**: a `follow`-style run over N batches converges to
//!   the exact bytes a one-shot analysis of the merged capture renders,
//!   for every neighbor backend — warm incremental re-clustering is an
//!   optimization, never a result change.
//! * **Warmth**: with a shared artifact store, later batches reuse the
//!   earlier batches' artifacts (store hit counters strictly increase),
//!   so batches are tile-appends and grafts, not cold rebuilds.
//! * **Sampling on**: the admitted set is deterministic under a fixed
//!   seed, invariant to arrival order, and the whole pipeline stays
//!   inside a declared memory budget (checked against peak RSS).

use fieldclust::report::standard_report;
use fieldclust::session::AnalysisSession;
use fieldclust::{ArtifactStore, FieldTypeClusterer, NeighborBackend};
use ingest::{peak_rss_bytes, preprocess, PrepareOpts, SampleConfig, StreamConfig, StreamSession};
use protocols::{corpus, Protocol};
use trace::{Message, Trace};

fn clusterer(backend: NeighborBackend) -> FieldTypeClusterer {
    FieldTypeClusterer {
        neighbor_backend: backend,
        ..FieldTypeClusterer::default()
    }
}

fn stream_config(backend: NeighborBackend, sample: SampleConfig) -> StreamConfig {
    StreamConfig {
        prepare: PrepareOpts::default(),
        segmenter: "nemesys".to_string(),
        clusterer: clusterer(backend),
        sample,
        fsm: false,
    }
}

/// The one-shot reference: what `fieldclust analyze --report` renders
/// for these messages, via the shared prepare → segment → report path,
/// deliberately **cold** (no artifact store) so the comparison also
/// proves warmth never leaks into results.
fn one_shot_report(messages: &[Message], backend: NeighborBackend) -> String {
    let raw = Trace::new("capture", messages.to_vec());
    let prepared = preprocess(&raw, &PrepareOpts::default()).expect("preprocess");
    let mut session = AnalysisSession::from_owned(prepared, clusterer(backend));
    let seg = ingest::build_segmenter("nemesys").expect("segmenter");
    session.segment_with(seg.as_ref()).expect("segment");
    let trace = session.trace().clone();
    standard_report(&trace, &mut session).expect("report")
}

fn temp_store(tag: &str) -> (std::path::PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("ingest-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("open store");
    (dir, store)
}

#[test]
fn follow_converges_to_one_shot_for_every_backend() {
    let trace = corpus::build_trace(Protocol::Ntp, 60, 41);
    let msgs = trace.messages().to_vec();
    for backend in [
        NeighborBackend::Matrix,
        NeighborBackend::Tiled,
        NeighborBackend::Stratified,
    ] {
        let expected = one_shot_report(&msgs, backend);
        let (dir, store) = temp_store(&format!("backend-{backend}"));
        let mut s =
            StreamSession::new(stream_config(backend, SampleConfig::default()), Some(store));
        for slice in msgs.chunks(20) {
            s.push(slice.to_vec());
            s.flush()
                .expect("flush")
                .expect("every slice grows the stream");
        }
        assert_eq!(s.batches(), 3, "{backend}: three batches analyzed");
        assert_eq!(
            s.final_report().expect("final report"),
            expected,
            "{backend}: streamed batches must converge to the one-shot report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_batches_reuse_the_store_instead_of_rebuilding() {
    let trace = corpus::build_trace(Protocol::Ntp, 90, 42);
    let msgs = trace.messages().to_vec();
    // Matrix reuses via monolithic prefix extension; Tiled via re-read
    // complete tiles — 16-row tiles so complete tiles exist at this
    // scale; Stratified via `StrataIndex::extend_from` on the cached
    // prefix index.
    let tiled_small = FieldTypeClusterer {
        neighbor_backend: NeighborBackend::Tiled,
        tile_rows: Some(16),
        ..FieldTypeClusterer::default()
    };
    for (tag, clusterer) in [
        ("matrix", clusterer(NeighborBackend::Matrix)),
        ("tiled-16", tiled_small),
        ("stratified", clusterer(NeighborBackend::Stratified)),
    ] {
        let (dir, store) = temp_store(&format!("warmth-{tag}"));
        let mut s = StreamSession::new(
            StreamConfig {
                prepare: PrepareOpts::default(),
                segmenter: "nemesys".to_string(),
                clusterer,
                sample: SampleConfig::default(),
                fsm: false,
            },
            Some(store),
        );
        // The warm-reuse counter: exact-key fetches (`hits`, e.g. tiles
        // and grafted forests read back) plus prefix extensions
        // (`extended`, the monolithic matrix append). Every batch after
        // the first must bump it — growth is an append over cached
        // prefix artifacts, never a cold rebuild.
        let mut warm = Vec::new();
        for slice in msgs.chunks(30) {
            s.push(slice.to_vec());
            s.flush().expect("flush").expect("batch");
            let stats = s.cache_stats().expect("store attached");
            warm.push(stats.hits + stats.extended);
        }
        assert_eq!(s.batches(), 3);
        for (i, w) in warm.windows(2).enumerate() {
            assert!(
                w[1] > w[0],
                "{tag}: batch {} must reuse more warm artifacts than \
                 batch {i} ({} vs {})",
                i + 1,
                w[1],
                w[0]
            );
        }
        let stats = s.cache_stats().expect("store attached");
        assert!(stats.writes > 0, "{tag}: artifacts were persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sampled_follow_is_deterministic_and_order_invariant() {
    let trace = corpus::build_trace(Protocol::Dns, 80, 43);
    let msgs = trace.messages().to_vec();
    let sample = SampleConfig { max: 32, seed: 7 };

    // Same messages, three arrival orders: forward, reversed, and
    // shuffled by interleaving halves. The reservoir — and therefore
    // every downstream byte — must not care.
    let forward = msgs.clone();
    let mut reversed = msgs.clone();
    reversed.reverse();
    let (a, b) = msgs.split_at(msgs.len() / 2);
    let interleaved: Vec<Message> = a
        .iter()
        .zip(b.iter())
        .flat_map(|(x, y)| [x.clone(), y.clone()])
        .chain(msgs[2 * (msgs.len() / 2)..].iter().cloned())
        .collect();

    let mut reports = Vec::new();
    for (tag, order) in [("fwd", forward), ("rev", reversed), ("mix", interleaved)] {
        let (dir, store) = temp_store(&format!("order-{tag}"));
        let mut s = StreamSession::new(stream_config(NeighborBackend::Auto, sample), Some(store));
        for slice in order.chunks(27) {
            s.push(slice.to_vec());
            s.flush().expect("flush");
        }
        let r = s.records().last().expect("at least one batch").clone();
        assert!(r.messages <= 32, "cap respected");
        assert_eq!(r.seen, msgs.len() as u64);
        reports.push(s.final_report().expect("report"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(reports[0], reports[1], "reversed arrival changes nothing");
    assert_eq!(
        reports[0], reports[2],
        "interleaved arrival changes nothing"
    );
}

#[test]
fn sampled_follow_stays_within_the_declared_memory_budget() {
    // The declared budget for this workload: the reservoir admits at
    // most 48 messages per batch no matter how many arrive, so the
    // whole pipeline — reservoir, session, store — must stay far below
    // a generous whole-process ceiling. VmHWM is process-wide (and
    // test binaries share a process), so the ceiling is deliberately
    // loose; the point is that it is *bounded*, not that it is tiny.
    const BUDGET_BYTES: u64 = 2 << 30;
    let trace = corpus::build_trace(Protocol::Ntp, 400, 44);
    let msgs = trace.messages().to_vec();
    let mut s = StreamSession::new(
        stream_config(NeighborBackend::Auto, SampleConfig { max: 48, seed: 9 }),
        None,
    );
    for slice in msgs.chunks(100) {
        s.push(slice.to_vec());
        let r = s.flush().expect("flush").expect("batch");
        assert!(r.messages <= 48, "admitted set stays capped");
    }
    assert_eq!(s.seen(), 400);
    let rss = peak_rss_bytes();
    assert!(rss > 0, "VmHWM must be readable on Linux");
    assert!(
        rss < BUDGET_BYTES,
        "peak RSS {rss} exceeds the declared {BUDGET_BYTES} byte budget"
    );
}
