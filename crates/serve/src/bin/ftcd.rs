//! `ftcd` — the field type clustering daemon.
//!
//! ```text
//! ftcd [--addr A] [--port-file F] [--workers N] [--queue N]
//!      [--threads N] [--cache-dir D] [--job-history N]
//!      [--sessions N] [--neighbor-backend B] [--no-mmap]
//! ```
//!
//! Binds loopback by default, prints the resolved address, serves until
//! a client sends `Shutdown`, drains in-flight jobs, and exits 0.

use serve::daemon::{start, ServerConfig};

const USAGE: &str = "\
ftcd — field type clustering analysis daemon

USAGE:
  ftcd [--addr A] [--port-file F] [--workers N] [--queue N] [--threads N] [--cache-dir D]
       [--job-history N] [--sessions N] [--neighbor-backend B] [--no-mmap]

OPTIONS:
  --addr A         listen address (default 127.0.0.1:4747; port 0 = ephemeral)
  --port-file F    write the resolved TCP port to F once listening
  --workers N      concurrent analysis jobs (default 2)
  --queue N        admission capacity: max jobs queued or running (default 8)
  --threads N      threads per analysis stage, 0 = auto (never affects results)
  --cache-dir D    persist stage artifacts under D and warm-start from them
  --job-history N  finished job records (and reports) kept queryable (default 256)
  --sessions N     warm analysis sessions kept in memory, floor 1 (default 16;
                   never affects results, only re-analysis cost after eviction)
  --no-mmap        read cache artifacts via heap reads instead of memory
                   mappings (never affects results, only copies)
  --neighbor-backend B
                   neighbor queries: auto|matrix|tiled|stratified (default auto;
                   never affects results, only memory and wall time)

EXIT CODES:
  0  clean shutdown    1  runtime failure    2  bad usage";

fn fail_usage(message: &str) -> ! {
    eprintln!("error: ftcd: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:4747".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => fail_usage(&format!("{flag} needs a value")),
            }
        };
        match arg.as_str() {
            "--addr" => config.addr = value_for("--addr"),
            "--port-file" => port_file = Some(value_for("--port-file")),
            "--workers" => {
                config.workers = value_for("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--workers needs a number"))
            }
            "--queue" => {
                config.queue_capacity = value_for("--queue")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--queue needs a number"))
            }
            "--threads" => {
                config.threads = value_for("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--threads needs a number"))
            }
            "--cache-dir" => config.cache_dir = Some(value_for("--cache-dir")),
            "--no-mmap" => store::mmap::set_enabled(false),
            "--neighbor-backend" => {
                config.neighbor_backend = value_for("--neighbor-backend")
                    .parse()
                    .unwrap_or_else(|e: String| fail_usage(&e))
            }
            "--job-history" => {
                config.job_history = value_for("--job-history")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--job-history needs a number"))
            }
            "--sessions" => {
                config.sessions = value_for("--sessions")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail_usage("--sessions needs a number"))
                    .max(1)
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail_usage(&format!("unknown flag `{other}`")),
        }
    }
    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: ftcd: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!("ftcd listening on {addr}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("error: ftcd: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    handle.wait();
    println!("ftcd: drained, exiting");
}
