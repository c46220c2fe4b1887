//! `follow-sample`: `StreamSession`s with a store, NEMESYS and
//! stratified reservoir sampling, `threads = 1`.
//!
//! Batches are pushed from pre-generated DNS captures. A pass runs
//! `STREAMS` streams one after another, each over its own capture, with
//! its own reservoir seed and a fresh store: the fill phase (batches
//! until the reservoir is full, measured as `ingest.fill_s`), then a
//! fixed number of steady-state batches. One op is one steady-state
//! push-and-flush: the sampler, the per-batch re-cluster, ARI/AMI drift
//! and store writes, at a bounded per-op cost. Several streams per pass
//! keep the op mix from hinging on one capture's clustering.

use super::{analyze, config, mean, ratio, record_counts, truth_f_quarter};
use crate::harness::{disk_mb, median, mix, timed_setup, Args, Run, Tracer, WorkDir};
use crate::inputs;
use fieldclust::{ArtifactStore, NeighborBackend, StoreStats};
use ingest::{DriftRecord, SampleConfig, StratifiedReservoir, StreamConfig, StreamSession};
use protocols::Protocol;
use std::time::Instant;
use trace::{Message, Trace};

const THREADS: usize = 1;
const STREAMS: usize = 6;
const BATCH: usize = 100;
/// Reservoir cap: the fill phase is `CAP / BATCH` batches.
const CAP: usize = 400;
/// Steady-state batches per stream.
const STEADY: usize = 4;

fn stream_config(sample: SampleConfig) -> StreamConfig {
    StreamConfig {
        prepare: serve::PrepareOpts::default(),
        segmenter: "nemesys".to_string(),
        clusterer: config(THREADS, NeighborBackend::Auto),
        sample,
        fsm: false,
    }
}

/// Pushes one batch and flushes it, each call under its own span.
fn push_flush(
    tr: &mut Tracer,
    stream: &mut StreamSession,
    batch: &[Message],
) -> Result<DriftRecord, String> {
    tr.span("ingest.push", || stream.push(batch.to_vec()));
    tr.span("ingest.flush", || stream.flush())?
        .ok_or_else(|| "flush analyzed nothing".to_string())
}

/// The preprocessed trace a reservoir with `sample` admits after seeing
/// `messages`: what the stream's flush re-clusters at that point.
fn reservoir_trace(sample: SampleConfig, messages: &[Message]) -> Result<Trace, String> {
    let mut reservoir = StratifiedReservoir::new(sample);
    for m in messages {
        reservoir.offer(m.clone());
    }
    serve::preprocess(
        &Trace::new("capture", reservoir.sampled()),
        &serve::PrepareOpts::default(),
    )
}

/// What the first pass leaves for the gate and the per-layer counters.
#[derive(Default)]
struct FirstPass {
    /// The first stream's final report, rendered after its last batch.
    report: Option<Result<String, String>>,
    /// Messages pushed into each stream.
    pushed: Vec<usize>,
    /// Every batch's record as `(stream, steady, record)`.
    records: Vec<(usize, bool, DriftRecord)>,
    store: StoreStats,
    disk_mb: f64,
}

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let mut run = Run::new(epoch);
    let (batch, cap, steady, streams) = if args.smoke {
        (BATCH / 5, CAP / 5, 2, 1)
    } else {
        (BATCH, CAP, STEADY, STREAMS)
    };
    let fill = cap.div_ceil(batch);
    let samples: Vec<SampleConfig> = (0..streams)
        .map(|k| SampleConfig {
            max: cap,
            seed: mix(args.seed, 5, k as u64),
        })
        .collect();
    // Set-up: every stream's capture and a scratch dir named `dir`.
    let setup = |dir: &str| {
        let captures: Vec<Vec<Message>> = (0..streams)
            .map(|k| {
                let n = (fill + steady) * batch;
                inputs::captured_messages(Protocol::Dns, n, mix(args.seed, 4, k as u64))
            })
            .collect();
        let work = WorkDir::new(dir).map_err(|e| e.to_string())?;
        Ok::<_, String>((captures, work))
    };
    let (captures, work) = timed_setup(&mut run, || setup("follow-sample"))?;

    // Warm-up, untimed: one fill phase of the first stream.
    if !args.smoke {
        let mut stream = StreamSession::new(stream_config(samples[0]), None);
        let mut quiet = Tracer::new(false, epoch);
        for b in captures[0].chunks(batch).take(fill) {
            run.attempt(push_flush(&mut quiet, &mut stream, b).is_ok());
        }
    }

    let deadline = args.deadline(Instant::now());
    let mut fill_walls = Vec::new();
    let mut first = FirstPass::default();
    let mut steady_records: Vec<DriftRecord> = Vec::new();
    let mut op_id = 0u64;
    for pass in 0.. {
        let traced = args.trace && pass % 2 == 0;
        let mut tr = Tracer::new(traced, epoch);
        let pass_start = Instant::now();
        let mut untimed = 0.0;
        let mut complete = true;
        'streams: for (k, (messages, &sample)) in captures.iter().zip(&samples).enumerate() {
            let dir = work.path().join(format!("pass-{pass}-stream-{k}"));
            let store = ArtifactStore::open(&dir).map_err(|e| format!("store: {e}"))?;
            let mut stream = StreamSession::new(stream_config(sample), Some(store));
            let stream_start = Instant::now();
            let mut pushed = 0;
            for (i, b) in messages.chunks(batch).enumerate() {
                let is_fill = i < fill;
                if !is_fill && pass > 0 && Instant::now() >= deadline {
                    complete = false;
                    break 'streams;
                }
                if !is_fill {
                    op_id += 1;
                    tr.set_op(op_id);
                    tr.begin("op");
                }
                let t = Instant::now();
                let result = push_flush(&mut tr, &mut stream, b);
                let latency = t.elapsed().as_secs_f64();
                if !is_fill {
                    tr.end();
                }
                run.attempt(result.is_ok());
                pushed += b.len();
                match result {
                    Ok(record) => {
                        if !is_fill {
                            run.ops.push(latency);
                            if traced {
                                steady_records.push(record.clone());
                            }
                        }
                        if pass == 0 {
                            first.records.push((k, !is_fill, record));
                        }
                    }
                    Err(e) => eprintln!("stream {k} batch {i} failed: {e}"),
                }
                if i + 1 == fill {
                    fill_walls.push(stream_start.elapsed().as_secs_f64());
                }
            }
            if pass == 0 {
                let t = Instant::now();
                let stats = stream.cache_stats().unwrap_or_default();
                first.store.hits += stats.hits;
                first.store.misses += stats.misses;
                first.store.writes += stats.writes;
                first.store.extended += stats.extended;
                first.store.mmap_reads += stats.mmap_reads;
                first.disk_mb += disk_mb(&dir);
                first.pushed.push(pushed);
                if k == 0 {
                    first.report = Some(stream.final_report());
                }
                untimed += t.elapsed().as_secs_f64();
            }
            // A set-up sample after every stream, outside the pass wall.
            let t = Instant::now();
            drop(timed_setup(&mut run, || setup("follow-sample-setup")));
            untimed += t.elapsed().as_secs_f64();
        }
        if complete {
            run.pass_done(traced, pass_start.elapsed().as_secs_f64() - untimed);
        }
        run.spans.absorb(tr);
        if args.smoke || Instant::now() >= deadline {
            break;
        }
    }
    run.peak_rss_mb = crate::harness::peak_rss_mb();

    // Gate: the first stream's final report equals a one-shot analysis
    // of a reservoir built with the same seed and cap over the same
    // messages. The replay also gives the work counts of one full
    // re-cluster.
    let oneshot = reservoir_trace(samples[0], &captures[0][..first.pushed[0]]).and_then(|trace| {
        let quiet = &mut Tracer::new(false, epoch);
        let a = analyze(
            quiet,
            &trace,
            config(THREADS, NeighborBackend::Auto),
            "nemesys",
            true,
        )?;
        Ok(a)
    });
    let same = match (&first.report, &oneshot) {
        (Some(Ok(report)), Ok(a)) => a.report.as_deref() == Some(report.as_str()),
        _ => false,
    };
    run.check(
        "final report equals a one-shot analysis of the reservoir",
        same,
    );
    if let Ok(a) = &oneshot {
        record_counts(&mut run, a.counts);
    }

    // F¼ over every steady-state reservoir of the first pass, clustered
    // from ground-truth segments (see NOTES.md for why not NEMESYS).
    let mut scores = Vec::new();
    for (k, (messages, &sample)) in captures.iter().zip(&samples).enumerate() {
        for seen in (fill + 1..=fill + steady).map(|b| (b * batch).min(first.pushed[k])) {
            match reservoir_trace(sample, &messages[..seen]) {
                Ok(trace) => scores.push(truth_f_quarter(Protocol::Dns, &trace)?),
                Err(e) => return Err(format!("scoring: {e}")),
            }
        }
    }
    run.f_quarter = mean(&scores);

    // Per-layer times of the steady batches, from the stream's own
    // per-stage walls. Its "cluster" bucket covers DBSCAN and refine
    // together, so `cluster.refine_s` stays 0 here.
    let stage_mean = |stage: &str| {
        let total: u64 = steady_records
            .iter()
            .flat_map(|r| &r.stage_walls_us)
            .filter(|(name, _)| name == stage)
            .map(|(_, us)| us)
            .sum();
        total as f64 / 1e6 / steady_records.len().max(1) as f64
    };
    for (stage, metric) in [
        ("preprocess", "trace.prepare_s"),
        ("segment", "segment.busy_s"),
        ("dedup", "dedup.busy_s"),
        ("neighbors", "dissim.index_s"),
        ("autoconf", "cluster.autoconf_s"),
        ("cluster", "cluster.dbscan_s"),
    ] {
        run.set(metric, stage_mean(stage));
    }
    let self_times = run.spans.self_times();
    let ops = run.spans.count("op").max(1) as f64;
    for (span, metric) in [
        ("ingest.push", "ingest.push_s"),
        ("ingest.flush", "ingest.flush_s"),
    ] {
        run.set(metric, self_times.get(span).copied().unwrap_or(0.0) / ops);
    }
    // Flush time outside every stage the stream reports: drift tracking,
    // reservoir read-out, releasing the previous batch's session.
    let staged: u64 = steady_records
        .iter()
        .flat_map(|r| &r.stage_walls_us)
        .map(|(_, us)| us)
        .sum();
    let staged = staged as f64 / 1e6 / steady_records.len().max(1) as f64;
    let flush = run.layers.get("ingest.flush_s").copied().unwrap_or(0.0);
    run.set("ingest.unstaged_s", flush - staged);
    if let Some(coverage) = run.spans.min_coverage("op") {
        run.set("bench.span_coverage", coverage);
    }
    let steady_ari: Vec<f64> = first
        .records
        .iter()
        .filter(|(_, steady, _)| *steady)
        .map(|(_, _, r)| r.delta.ari)
        .collect();
    // Messages each stream's last re-cluster admitted, summed.
    let admitted: u64 = (0..streams)
        .filter_map(|k| first.records.iter().rfind(|(s, _, _)| *s == k))
        .map(|(_, _, r)| r.messages)
        .sum();
    run.set("ingest.fill_s", median(&fill_walls));
    run.set("ingest.batches", first.records.len() as f64);
    run.set("ingest.admitted", admitted as f64);
    run.set("ingest.ari", mean(&steady_ari));
    let s = first.store;
    run.set("store.hits", s.hits as f64);
    run.set("store.misses", s.misses as f64);
    run.set("store.writes", s.writes as f64);
    run.set("store.extended", s.extended as f64);
    run.set("store.mmap_reads", s.mmap_reads as f64);
    run.set("store.hit_ratio", ratio(s.hits, s.hits + s.misses));
    run.set("store.disk_mb", first.disk_mb);
    run.set("bench.threads", THREADS as f64);
    Ok(run)
}
