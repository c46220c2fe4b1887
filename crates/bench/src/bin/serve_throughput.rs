//! Loopback throughput ladder for the `ftcd` daemon.
//!
//! Each rung starts a fresh in-process daemon and drives it with
//! `c` concurrent clients over real TCP. Every client submits its own
//! synthetic capture of `m` messages, then runs `1 + a` analysis
//! rounds: the first on the freshly submitted trace, each later one
//! after an `AppendMessages` growing the trace — so the rung exercises
//! cold submit, warm re-analysis, and the append/invalidate path
//! together. Per-rung walls and jobs/second are printed and each rung
//! is upserted into `BENCH_trajectory.json` under its own
//! `serve_throughput{c=..,m=..,a=..}` name, giving the trajectory a
//! real surface instead of a single point.
//!
//! Those rungs run the daemon's default configuration, which attaches
//! no artifact store, so every post-append analysis rebuilds cold.
//! Each rung with appends therefore runs a second time on a daemon with
//! a fresh store directory, recorded as
//! `serve_throughput_store{c=..,m=..,a=..}`: there each append round
//! extends the cached prefix artifacts, and the printed `extended=`
//! count shows it. Each rung also prints its summed per-stage walls
//! from the daemon's `Stats` frame, and its memory: the process's
//! resident set at the rung's sampled peak, split into `RssAnon` (heap)
//! and `RssFile` (mapped files, e.g. store reads), its `VmHWM`, and the
//! store directory's size after the rung.
//!
//! `VmHWM` is the peak of the whole process, so a store rung measured
//! after a store-less one in the same process reads the larger of the
//! two. The fourth argument picks which rungs run: `0` store-less, `1`
//! store-attached; run `0` and `1` as separate processes to read each
//! rung's own peak.
//!
//! Run with:
//! `cargo run --release -p bench --bin serve_throughput -- [clients_csv] [messages_csv] [appends_csv] [stores_csv]`
//! (defaults: `1,2,4` × `40,80` × `0,2` × `0,1`)

use bench::append_trajectory;
use protocols::{corpus, Protocol};
use serve::{Client, JobState, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::pcap;

/// `(VmRSS, RssAnon, RssFile)` in bytes from `/proc/self/status`, or
/// `None` where procfs is unavailable.
fn rss_now() -> Option<[u64; 3]> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
    };
    Some([field("VmRSS:")?, field("RssAnon:")?, field("RssFile:")?])
}

/// Runs `f` while a thread samples the resident set every 2 ms; returns
/// `f`'s result and the sample with the largest `VmRSS`.
fn with_rss_peak<T>(f: impl FnOnce() -> T) -> (T, Option<[u64; 3]>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_now();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                if let Some(now) = rss_now() {
                    if peak.is_none_or(|p| now[0] > p[0]) {
                        peak = Some(now);
                    }
                }
            }
            peak
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler thread"))
    })
}

/// Total size in bytes and number of the files directly in `dir`.
fn dir_size(dir: &Path) -> (u64, usize) {
    std::fs::read_dir(dir).map_or((0, 0), |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .filter(|m| m.is_file())
            .fold((0, 0), |(bytes, files), m| (bytes + m.len(), files + 1))
    })
}

fn csv_arg(args: &[String], i: usize, default: &[usize]) -> Vec<usize> {
    match args.get(i) {
        None => default.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().parse().expect("ladder values are numbers"))
            .collect(),
    }
}

/// Runs one rung and prints its line, stage walls and memory.
fn run_rung(clients: usize, messages: usize, appends: usize, cache_dir: Option<&Path>) -> Duration {
    let (wall, peak) = with_rss_peak(|| drive_rung(clients, messages, appends, cache_dir));
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let mut memory = match peak {
        Some([rss, anon, file]) => format!(
            "peak VmRSS={:.1}MB (RssAnon={:.1}MB RssFile={:.1}MB)",
            mb(rss),
            mb(anon),
            mb(file)
        ),
        None => "peak VmRSS=n/a".to_string(),
    };
    memory.push_str(&format!(" VmHWM={:.1}MB", mb(bench::peak_rss_bytes())));
    if let Some(dir) = cache_dir {
        let (bytes, files) = dir_size(dir);
        memory.push_str(&format!(" store_dir={:.1}MB in {files} files", mb(bytes)));
    }
    println!("    memory: {memory}");
    wall
}

fn drive_rung(
    clients: usize,
    messages: usize,
    appends: usize,
    cache_dir: Option<&Path>,
) -> Duration {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let handle = serve::start(ServerConfig {
        workers,
        queue_capacity: clients.max(4) * 2,
        cache_dir: cache_dir.map(|d| d.display().to_string()),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr().to_string();

    let protocols = [
        Protocol::Ntp,
        Protocol::Dns,
        Protocol::Dhcp,
        Protocol::Nbns,
        Protocol::Smb,
    ];
    let run_start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let addr = addr.clone();
            let protocol = protocols[c % protocols.len()];
            scope.spawn(move || {
                let seed = 40 + c as u64;
                let trace = corpus::build_trace(protocol, messages, seed);
                let bytes = pcap::write_to_vec(&trace).expect("encode capture");
                let mut client = Client::connect(&addr).expect("connect");
                let (trace_id, n) = client
                    .submit_trace(&format!("{protocol:?}-{c}"), bytes, None, None, false)
                    .expect("submit");
                assert!(n > 0);
                for round in 0..=appends {
                    if round > 0 {
                        // Each append grows the trace with a fresh
                        // slice, invalidating the warm session; with a
                        // store attached the next analysis extends the
                        // cached prefix artifacts.
                        let extra =
                            corpus::build_trace(protocol, messages / 2, seed + 100 * round as u64);
                        let extra_bytes = pcap::write_to_vec(&extra).expect("encode append");
                        client
                            .append_messages(trace_id, extra_bytes)
                            .expect("append");
                    }
                    let job = client.analyze(trace_id, "nemesys", 0).expect("analyze");
                    match client.wait_for(job, Duration::from_millis(10)) {
                        Ok(JobState::Done { report }) => assert!(!report.is_empty()),
                        other => panic!("client {c} round {round}: {other:?}"),
                    }
                }
            });
        }
    });
    let wall = run_start.elapsed();

    let mut client = Client::connect(&addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let jobs = stats.jobs_completed;
    let expected = clients * (1 + appends);
    assert_eq!(jobs as usize, expected, "every job must complete");
    println!(
        "  c={clients} m={messages} a={appends} store={}: {jobs} jobs in {:.3}s = {:.2} jobs/s \
         (rejected {}, evictions {}, cache hits={} extended={})",
        cache_dir.is_some(),
        wall.as_secs_f64(),
        jobs as f64 / wall.as_secs_f64(),
        stats.jobs_rejected,
        stats.session_evictions,
        stats.cache_hits,
        stats.cache_extended,
    );
    // Where the rung's time went: the jobs' session stage records,
    // summed over every job.
    let walls: Vec<String> = stats
        .stage_wall_ns
        .iter()
        .map(|(stage, ns)| format!("{stage}={:.3}s", *ns as f64 / 1e9))
        .collect();
    println!("    stages: {}", walls.join(" "));
    client.shutdown().expect("shutdown");
    handle.wait();
    wall
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients = csv_arg(&args, 0, &[1, 2, 4]);
    let messages = csv_arg(&args, 1, &[40, 80]);
    let appends = csv_arg(&args, 2, &[0, 2]);
    let stores = csv_arg(&args, 3, &[0, 1]);
    println!(
        "serve_throughput ladder: clients {clients:?} × messages {messages:?} × appends {appends:?} \
         × stores {stores:?}"
    );
    for &m in &messages {
        for &a in &appends {
            for &c in &clients {
                if stores.contains(&0) {
                    let wall = run_rung(c, m, a, None);
                    append_trajectory(&format!("serve_throughput{{c={c},m={m},a={a}}}"), wall);
                }
                if a > 0 && stores.contains(&1) {
                    let dir = std::env::temp_dir().join(format!(
                        "serve_throughput-{}-c{c}-m{m}-a{a}",
                        std::process::id()
                    ));
                    let wall = run_rung(c, m, a, Some(&dir));
                    let _ = std::fs::remove_dir_all(&dir);
                    append_trajectory(
                        &format!("serve_throughput_store{{c={c},m={m},a={a}}}"),
                        wall,
                    );
                }
            }
        }
    }
}
