//! `ftcd-append`: a closed loop of two clients growing traces on an
//! in-process `ftcd` over loopback TCP.
//!
//! The daemon runs 2 workers at 1 thread per job on a fresh cache dir,
//! with its default session capacity.
//! In each pass both clients, concurrently, submit a fresh DNS capture,
//! run one cold `Analyze(nemesys)`, then repeat `AppendMessages` (+¼ of
//! the capture) followed by `Analyze` until the job is `Done`. One op
//! is one append-and-analyze round, from sending the append to
//! receiving the report; the submit and the cold job are measured as
//! per-layer metrics, never as ops. Reports are polled at a fixed
//! interval and the polls are counted.

use super::{
    analyze, config, mean, ratio, record_counts, record_span_times, truth_f_quarter, Counts,
};
use crate::harness::{disk_mb, mix, timed_setup, Args, Run, Tracer, WorkDir};
use crate::inputs;
use fieldclust::NeighborBackend;
use protocols::Protocol;
use serve::{Client, ClientError, JobState, ServerConfig, ServerHandle, ServerStats};
use std::time::{Duration, Instant};
use trace::Trace;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const THREADS: usize = 1;
/// Messages in a submitted capture; each append adds a quarter more.
const MESSAGES: usize = 300;
/// Append rounds per job. Each round's op analyzes a longer trace, so
/// op latencies form one cluster per round; with an odd count the
/// median falls inside the middle round's cluster rather than in the
/// gap between two clusters, where it would swing from run to run.
const ROUNDS: usize = 3;
const POLL: Duration = Duration::from_millis(5);
/// Jobs whose grown traces F¼ is averaged over (the first passes'
/// jobs, whether or not the window reached them).
const SCORED_JOBS: usize = 24;
/// Passes that always run, window or not; peak RSS is read after the
/// last of them. Every job leaves its trace's session parked, so with
/// the warm-up pass these fill the daemon's default 16-session cache
/// and start evicting; later passes only replace parked sessions.
const RSS_PASSES: usize = 8;

/// One client job's capture: the submitted part, then the appends.
type Job = Vec<Vec<u8>>;

/// An in-process daemon that is shut down (and drained) on drop.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: String,
    cache: WorkDir,
}

impl Daemon {
    fn start(name: &str) -> Result<Self, String> {
        let cache = WorkDir::new(name).map_err(|e| format!("cache dir: {e}"))?;
        let handle = serve::start(ServerConfig {
            workers: WORKERS,
            threads: THREADS,
            cache_dir: Some(cache.path().to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("starting ftcd: {e}"))?;
        Ok(Daemon {
            addr: handle.addr().to_string(),
            handle: Some(handle),
            cache,
        })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connecting: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Wait only for a daemon that accepted the shutdown: waiting on
        // one that never heard it would block forever.
        let shut = Client::connect(&self.addr).is_ok_and(|mut c| c.shutdown().is_ok());
        if let (true, Some(h)) = (shut, self.handle.take()) {
            h.wait();
        }
    }
}

/// What one client's job produced.
#[derive(Default)]
struct Outcome {
    ops: Vec<f64>,
    attempted: u64,
    failed: u64,
    polls: u64,
    jobs: u64,
    /// The report of the last round, when every step succeeded.
    report: Option<Vec<u8>>,
}

/// Enqueues an analysis and polls it to a terminal state; returns the
/// report.
fn analyze_job(c: &mut Client, trace_id: u64, out: &mut Outcome) -> Result<Vec<u8>, ClientError> {
    let job = c.analyze(trace_id, "nemesys", 0)?;
    out.jobs += 1;
    loop {
        out.polls += 1;
        match c.query(job)? {
            JobState::Queued { .. } | JobState::Running => std::thread::sleep(POLL),
            JobState::Done { report } => return Ok(report),
            other => return Err(ClientError::Unexpected(format!("job ended {other:?}"))),
        }
    }
}

/// Runs one client job: submit, cold analyze, then the append rounds.
fn client_job(c: &mut Client, job: &Job, tr: &mut Tracer, first_op: u64) -> Outcome {
    let mut out = Outcome::default();
    let cold = (|| {
        let (trace_id, _) = tr.span("serve.submit", || {
            c.submit_trace("bench", job[0].clone(), None, None, false)
        })?;
        tr.span("serve.cold_job", || analyze_job(c, trace_id, &mut out))?;
        Ok::<_, ClientError>(trace_id)
    })();
    out.attempted += 1;
    let trace_id = match cold {
        Ok(id) => id,
        Err(e) => {
            eprintln!("cold job failed: {e}");
            out.failed += 1;
            return out;
        }
    };
    for (round, part) in job[1..].iter().enumerate() {
        tr.set_op(first_op + round as u64);
        let t = Instant::now();
        tr.begin("op");
        let result = tr
            .span("serve.append", || c.append_messages(trace_id, part.clone()))
            .and_then(|_| tr.span("serve.job", || analyze_job(c, trace_id, &mut out)));
        tr.end();
        out.attempted += 1;
        match result {
            Ok(report) => {
                out.ops.push(t.elapsed().as_secs_f64());
                out.report = Some(report);
            }
            Err(e) => {
                eprintln!("append round failed: {e}");
                out.failed += 1;
                out.report = None;
                return out;
            }
        }
    }
    out
}

/// Job `j`'s capture of `messages` DNS messages, generated from `seed`,
/// split into the submitted part and `ROUNDS` appends of a quarter each.
fn job(seed: u64, j: usize, messages: usize) -> Job {
    let quarter = messages / 4;
    let trace = protocols::corpus::build_trace(
        Protocol::Dns,
        messages + ROUNDS * quarter,
        mix(seed, 3, j as u64),
    );
    let msgs = trace.messages();
    let part = |lo: usize, hi: usize| {
        inputs::encode(&Trace::new(
            "capture",
            msgs[lo..hi.min(msgs.len())].to_vec(),
        ))
    };
    let mut parts = vec![part(0, messages)];
    for r in 0..ROUNDS {
        let lo = messages + r * quarter;
        parts.push(part(lo, lo + quarter));
    }
    parts
}

/// The jobs of pass `pass`, one per client; pass 0 is the untimed
/// warm-up.
fn pass_jobs(seed: u64, pass: usize, messages: usize) -> Vec<Job> {
    (0..CLIENTS)
        .map(|i| job(seed, pass * CLIENTS + i, messages))
        .collect()
}

/// The trace the daemon holds after every part of `job` was submitted
/// or appended: the concatenated messages, preprocessed once.
fn grown_trace(job: &Job) -> Result<Trace, String> {
    let mut messages = Vec::new();
    for part in job {
        let t = trace::pcapng::read_any(part, "capture").map_err(|e| e.to_string())?;
        messages.extend(t.messages().iter().cloned());
    }
    serve::preprocess(
        &Trace::new("capture", messages),
        &serve::PrepareOpts::default(),
    )
}

/// Runs one pass: each client runs its job of `jobs` on its own thread.
fn run_pass(
    clients: &mut [Client],
    jobs: &[Job],
    traced: bool,
    epoch: Instant,
    first_op: u64,
) -> Vec<(Outcome, Tracer)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(jobs)
            .enumerate()
            .map(|(i, (c, job))| {
                let first_op = first_op + (i * ROUNDS) as u64;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let out = client_job(c, job, &mut tr, first_op);
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Store counters the daemon accrued between two `Stats` snapshots.
fn store_delta(a: &ServerStats, b: &ServerStats) -> (u64, u64, u64, u64) {
    (
        b.cache_hits - a.cache_hits,
        b.cache_misses - a.cache_misses,
        b.cache_writes - a.cache_writes,
        b.cache_mmap_reads - a.cache_mmap_reads,
    )
}

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let mut run = Run::new(epoch);
    let (rss_passes, messages) = if args.smoke {
        (1, MESSAGES / 5)
    } else {
        (RSS_PASSES, MESSAGES)
    };
    // Set-up: a pass's inputs and a daemon (cache dir `dir`) with its
    // clients. It runs once before the window for the warm-up pass, and
    // again before every measured pass, outside the pass wall, for that
    // pass's inputs; that second daemon is shut down unused.
    let setup = |pass: usize, dir: &str| {
        let jobs = pass_jobs(args.seed, pass, messages);
        let daemon = Daemon::start(dir)?;
        let clients = (0..CLIENTS)
            .map(|_| daemon.client())
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((jobs, daemon, clients))
    };
    let (warm_jobs, daemon, mut clients) = timed_setup(&mut run, || setup(0, "ftcd-append"))?;

    // An untimed warm-up pass: a fresh daemon's first jobs run slower.
    if !args.smoke {
        for (out, _) in run_pass(&mut clients, &warm_jobs, false, epoch, 0) {
            run.attempted += out.attempted;
            run.failed += out.failed;
        }
    }
    let stats = |c: &mut Client| c.stats().map_err(|e| format!("stats: {e}"));
    let before = stats(&mut clients[0])?;
    let disk_before = disk_mb(daemon.cache.path());

    let deadline = args.deadline(Instant::now());
    let mut first_pass: Option<(Vec<Outcome>, ServerStats, f64)> = None;
    let mut tracers = Tracer::new(args.trace, epoch);
    for pass in 0.. {
        let (jobs, spare, spare_clients) =
            timed_setup(&mut run, || setup(pass + 1, "ftcd-append-setup"))?;
        drop(spare_clients);
        drop(spare);
        let traced = args.trace && pass % 2 == 0;
        let pass_start = Instant::now();
        let first_op = (pass * CLIENTS * ROUNDS) as u64 + 1;
        let results = run_pass(&mut clients, &jobs, traced, epoch, first_op);
        run.pass_done(traced, pass_start.elapsed().as_secs_f64());
        let mut outcomes = Vec::new();
        for (out, tr) in results {
            run.attempted += out.attempted;
            run.failed += out.failed;
            run.ops.extend(&out.ops);
            tracers.absorb(tr);
            outcomes.push(out);
        }
        if first_pass.is_none() {
            let after = stats(&mut clients[0])?;
            let disk = disk_mb(daemon.cache.path()) - disk_before;
            first_pass = Some((outcomes, after, disk));
        }
        if pass + 1 == rss_passes {
            run.peak_rss_mb = crate::harness::peak_rss_mb();
        }
        if args.smoke || (pass + 1 >= rss_passes && Instant::now() >= deadline) {
            break;
        }
    }
    drop(clients);
    drop(daemon);

    // Gate: each client's final report of the first pass is
    // byte-identical to an in-process `standard_report` of the same
    // grown trace. These replays (traced on traced runs) also give the
    // workload's stage times and work counts. F¼ scores the first
    // `SCORED_JOBS` jobs' grown traces clustered from ground-truth
    // segments (see NOTES.md for why not NEMESYS).
    let (outcomes, after, disk) = first_pass.expect("the first pass always runs");
    let mut replay = Tracer::new(args.trace, epoch);
    let mut counts = Counts::default();
    let mut scores = Vec::new();
    for i in 0..SCORED_JOBS {
        let trace = grown_trace(&job(args.seed, CLIENTS + i, messages))?;
        scores.push(truth_f_quarter(Protocol::Dns, &trace)?);
        let Some(out) = outcomes.get(i) else { continue };
        replay.set_op(i as u64);
        replay.begin("op");
        let cfg = config(THREADS, NeighborBackend::Auto);
        let analysis = analyze(&mut replay, &trace, cfg, "nemesys", true);
        replay.end();
        let same = match (&out.report, &analysis) {
            (Some(report), Ok(a)) => a.report.as_deref().map(str::as_bytes) == Some(&report[..]),
            _ => false,
        };
        run.check(
            format!("client {i}'s final report equals an in-process report"),
            same,
        );
        if let Ok(a) = &analysis {
            counts = counts + a.counts;
        }
    }
    run.f_quarter = mean(&scores);
    record_counts(&mut run, counts);
    record_span_times(&mut run, &replay, replay.count("op"));

    // Serve-layer times from the client spans, per call.
    let self_times = tracers.self_times();
    for (span, metric) in [
        ("serve.submit", "serve.submit_s"),
        ("serve.cold_job", "serve.cold_job_s"),
        ("serve.append", "serve.append_s"),
        ("serve.job", "serve.job_s"),
    ] {
        let total = self_times.get(span).copied().unwrap_or(0.0);
        run.set(metric, total / tracers.count(span).max(1) as f64);
    }
    if let Some(coverage) = tracers.min_coverage("op") {
        run.set("bench.span_coverage", coverage);
    }
    let (polls, jobs_run) = outcomes
        .iter()
        .fold((0, 0), |(p, j), o| (p + o.polls, j + o.jobs));
    run.set("serve.polls_per_job", ratio(polls, jobs_run));
    run.set(
        "serve.rejected",
        (after.jobs_rejected - before.jobs_rejected) as f64,
    );
    run.set(
        "serve.session_evictions",
        (after.session_evictions - before.session_evictions) as f64,
    );
    let (hits, misses, writes, mmap_reads) = store_delta(&before, &after);
    run.set("store.hits", hits as f64);
    run.set("store.misses", misses as f64);
    run.set("store.writes", writes as f64);
    run.set("store.mmap_reads", mmap_reads as f64);
    run.set("store.hit_ratio", ratio(hits, hits + misses));
    run.set("store.disk_mb", disk);
    run.set("bench.threads", THREADS as f64);
    run.spans = tracers;
    Ok(run)
}
