//! Hand-rolled option parsing (the workspace deliberately avoids
//! additional dependencies).

use crate::error::CliError;
use segment::Segmenter;

/// Top-level usage text.
pub const USAGE: &str = "\
fieldclust — field data type clustering for unknown binary protocols

USAGE:
  fieldclust analyze  <capture.pcap> [--segmenter S] [--port P] [--max N] [--cache-dir D] [--tile-rows R | --max-memory B] [--neighbor-backend B] [--json | --report out.md]
  fieldclust msgtype  <capture.pcap> [--segmenter S] [--port P] [--max N] [--cache-dir D]
  fieldclust statemachine <capture.pcap> [--segmenter S] [--port P] [--max N] [--cache-dir D]
                      [--json | --dot out.dot]
  fieldclust stats    <capture.pcap> [--port P] [--max N]
  fieldclust compare  <a.pcap> <b.pcap> [--segmenter S] [--cache-dir D]
  fieldclust segment  <capture.pcap> [--segmenter S] [--max N] [--limit M]
  fieldclust fuzz     <capture.pcap> [--segmenter S] [--count N] [--seed X]
  fieldclust generate <protocol> <messages> <out.pcap> [--seed X]
  fieldclust follow   <capture.pcap | --listen A> [--batch-msgs N] [--batch-interval MS]
                      [--batches N] [--sample N] [--seed X] [--idle-exit MS]
                      [--drift-log F] [--segmenter S] [--cache-dir D] [--report F] [--fsm]
  fieldclust protocols
  fieldclust submit   <capture.pcap> --addr A [--segmenter S] [--port P] [--max N] [--report out.md]
  fieldclust query    <job-id> --addr A [--report out.md]
  fieldclust stats    --addr A
  fieldclust shutdown --addr A

OPTIONS:
  --segmenter S   nemesys (default) | netzob | csp | fixed
  --port P        keep only messages with source or destination port P
  --max N         truncate the trace to N messages after preprocessing
  --reassemble    reassemble TCP streams with NBSS framing before analysis
  --limit M       print at most M items
  --count N       number of fuzzing candidates per cluster (default 3)
  --seed X        generation / sampling seed (default 1)
  --json          machine-readable output
  --report F      write a full Markdown analysis report to F
  --dot F         write the inferred state machine as Graphviz DOT to F
  --cache-dir D   persist stage artifacts under D and warm-start from them
  --tile-rows R   tiled dissimilarity build with R-row tiles (cached per tile)
  --max-memory B  byte budget for the dissimilarity build, with an optional
                  K/M/G suffix (e.g. 512M); translated into a tile height
  --neighbor-backend B
                  neighbor queries: auto (default) | matrix | tiled
                  | stratified; stratified never materializes the O(u²)
                  matrix (never affects results, only memory and wall
                  time); auto picks stratified on mixed-length corpora
  --threads N     threads for parallel stages, 0 = auto (never affects results)
  --addr A        a running ftcd daemon (e.g. 127.0.0.1:4747); `submit` sends
                  the capture there and waits for the identical report

FOLLOW OPTIONS (streaming ingestion):
  --listen A      accept length-framed raw messages on a loopback socket at A
                  (e.g. 127.0.0.1:0) instead of tailing a capture file
  --batch-msgs N  re-cluster once N messages are pending (default 64)
  --batch-interval MS
                  re-cluster pending messages after MS idle milliseconds
                  (default 500)
  --batches N     stop after N analyzed batches (0 = run until idle-exit)
  --sample N      stratified reservoir cap: keep at most N messages, sampled
                  deterministically by length stratum (0 = keep everything)
  --idle-exit MS  stop once no message has arrived for MS milliseconds
                  (0 = never)
  --drift-log F   append per-batch drift records to F as JSON lines
                  (default: stdout)
  --fsm           infer a protocol state machine per batch and add its
                  drift (states/transitions born/died) to each record

EXIT CODES:
  0  success    1  runtime failure    2  bad usage";

/// Parsed common options.
#[derive(Debug)]
pub struct CommonOpts {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--segmenter`.
    pub segmenter: String,
    /// `--port`.
    pub port: Option<u16>,
    /// `--max`.
    pub max: Option<usize>,
    /// `--limit`.
    pub limit: usize,
    /// `--count`.
    pub count: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--json`.
    pub json: bool,
    /// `--reassemble`.
    pub reassemble: bool,
    /// `--report`.
    pub report: Option<String>,
    /// `--dot`: DOT sink for `statemachine`.
    pub dot: Option<String>,
    /// `--cache-dir`.
    pub cache_dir: Option<String>,
    /// `--tile-rows`.
    pub tile_rows: Option<usize>,
    /// `--max-memory`, parsed to bytes.
    pub max_memory: Option<u64>,
    /// `--threads` (0 = auto). Parallelism only ever changes wall
    /// time, never results.
    pub threads: usize,
    /// `--neighbor-backend`. Backends only ever change memory and wall
    /// time, never results.
    pub neighbor_backend: fieldclust::NeighborBackend,
    /// `--addr`: a running `ftcd` daemon to talk to.
    pub addr: Option<String>,
    /// `--listen`: socket-feed address for `follow`.
    pub listen: Option<String>,
    /// `--batch-msgs`: pending-message batch boundary for `follow`.
    pub batch_msgs: usize,
    /// `--batch-interval`: idle-flush interval for `follow`, in ms.
    pub batch_interval_ms: u64,
    /// `--batches`: stop `follow` after this many batches (0 = no cap).
    pub batches: u64,
    /// `--sample`: stratified reservoir cap (0 = sampling off).
    pub sample: usize,
    /// `--idle-exit`: stop `follow` after this much arrival silence, in
    /// ms (0 = never).
    pub idle_exit_ms: u64,
    /// `--drift-log`: JSONL drift-record sink for `follow`.
    pub drift_log: Option<String>,
    /// `--fsm`: per-batch state-machine drift for `follow`.
    pub fsm: bool,
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (powers of
/// 1024, case-insensitive): `"4096"`, `"64K"`, `"512M"`, `"2G"`.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let value: u64 = digits.parse().ok()?;
    value.checked_mul(1u64 << shift)
}

impl CommonOpts {
    /// Parses `args`; unknown flags are a usage error.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut opts = CommonOpts {
            positional: Vec::new(),
            segmenter: "nemesys".to_string(),
            port: None,
            max: None,
            limit: 16,
            count: 3,
            seed: 1,
            json: false,
            reassemble: false,
            report: None,
            dot: None,
            cache_dir: None,
            tile_rows: None,
            max_memory: None,
            threads: 0,
            neighbor_backend: fieldclust::NeighborBackend::Auto,
            addr: None,
            listen: None,
            batch_msgs: 64,
            batch_interval_ms: 500,
            batches: 0,
            sample: 0,
            idle_exit_ms: 0,
            drift_log: None,
            fsm: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| -> Result<String, CliError> {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
            };
            match arg.as_str() {
                "--segmenter" => opts.segmenter = value_for("--segmenter")?,
                "--port" => {
                    opts.port = Some(
                        value_for("--port")?
                            .parse()
                            .map_err(|_| CliError::usage("--port needs a number"))?,
                    )
                }
                "--max" => {
                    opts.max = Some(
                        value_for("--max")?
                            .parse()
                            .map_err(|_| CliError::usage("--max needs a number"))?,
                    )
                }
                "--limit" => {
                    opts.limit = value_for("--limit")?
                        .parse()
                        .map_err(|_| CliError::usage("--limit needs a number"))?
                }
                "--count" => {
                    opts.count = value_for("--count")?
                        .parse()
                        .map_err(|_| CliError::usage("--count needs a number"))?
                }
                "--seed" => {
                    opts.seed = value_for("--seed")?
                        .parse()
                        .map_err(|_| CliError::usage("--seed needs a number"))?
                }
                "--json" => opts.json = true,
                "--reassemble" => opts.reassemble = true,
                "--report" => opts.report = Some(value_for("--report")?),
                "--dot" => opts.dot = Some(value_for("--dot")?),
                "--cache-dir" => opts.cache_dir = Some(value_for("--cache-dir")?),
                "--tile-rows" => {
                    opts.tile_rows = Some(
                        value_for("--tile-rows")?
                            .parse()
                            .map_err(|_| CliError::usage("--tile-rows needs a number"))?,
                    )
                }
                "--max-memory" => {
                    let raw = value_for("--max-memory")?;
                    opts.max_memory = Some(parse_bytes(&raw).ok_or_else(|| {
                        CliError::usage("--max-memory needs a byte count like 4096, 64K, 512M, 2G")
                    })?)
                }
                "--threads" => {
                    opts.threads = value_for("--threads")?
                        .parse()
                        .map_err(|_| CliError::usage("--threads needs a number"))?
                }
                "--neighbor-backend" => {
                    opts.neighbor_backend = value_for("--neighbor-backend")?
                        .parse()
                        .map_err(CliError::usage)?
                }
                "--addr" => opts.addr = Some(value_for("--addr")?),
                "--listen" => opts.listen = Some(value_for("--listen")?),
                "--batch-msgs" => {
                    opts.batch_msgs = value_for("--batch-msgs")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| CliError::usage("--batch-msgs needs a positive number"))?
                }
                "--batch-interval" => {
                    opts.batch_interval_ms = value_for("--batch-interval")?
                        .parse()
                        .map_err(|_| CliError::usage("--batch-interval needs milliseconds"))?
                }
                "--batches" => {
                    opts.batches = value_for("--batches")?
                        .parse()
                        .map_err(|_| CliError::usage("--batches needs a number"))?
                }
                "--sample" => {
                    opts.sample = value_for("--sample")?
                        .parse()
                        .map_err(|_| CliError::usage("--sample needs a number"))?
                }
                "--idle-exit" => {
                    opts.idle_exit_ms = value_for("--idle-exit")?
                        .parse()
                        .map_err(|_| CliError::usage("--idle-exit needs milliseconds"))?
                }
                "--drift-log" => opts.drift_log = Some(value_for("--drift-log")?),
                "--fsm" => opts.fsm = true,
                flag if flag.starts_with("--") => {
                    return Err(CliError::usage(format!("unknown flag `{flag}`")))
                }
                positional => opts.positional.push(positional.to_string()),
            }
        }
        Ok(opts)
    }

    /// Instantiates the selected segmenter via the construction path
    /// shared with the daemon (`serve::build_segmenter`), so both
    /// frontends agree on segmenter identity and cache fingerprints.
    pub fn build_segmenter(&self) -> Result<Box<dyn Segmenter>, CliError> {
        serve::build_segmenter(&self.segmenter).map_err(CliError::usage)
    }
}

/// Renders bytes as a short hex preview.
pub fn hex_preview(bytes: &[u8], max: usize) -> String {
    let mut s: String = bytes.iter().take(max).map(|b| format!("{b:02x}")).collect();
    if bytes.len() > max {
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CommonOpts, CliError> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        CommonOpts::parse(&args)
    }

    #[test]
    fn defaults() {
        let o = parse(&["file.pcap"]).unwrap();
        assert_eq!(o.positional, vec!["file.pcap"]);
        assert_eq!(o.segmenter, "nemesys");
        assert_eq!(o.port, None);
        assert!(!o.json);
    }

    #[test]
    fn flags_and_values() {
        let o = parse(&[
            "a.pcap",
            "--segmenter",
            "csp",
            "--port",
            "53",
            "--max",
            "100",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.segmenter, "csp");
        assert_eq!(o.port, Some(53));
        assert_eq!(o.max, Some(100));
        assert!(o.json);
    }

    #[test]
    fn rejects_unknown_flag_and_missing_value() {
        for bad in [
            parse(&["--frobnicate"]),
            parse(&["--port"]),
            parse(&["--port", "x"]),
            parse(&["--cache-dir"]),
        ] {
            // All parse failures are usage errors (exit code 2).
            assert_eq!(bad.unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn dot_flag_is_parsed() {
        let o = parse(&["a.pcap", "--dot", "machine.dot"]).unwrap();
        assert_eq!(o.dot.as_deref(), Some("machine.dot"));
        assert!(parse(&["a.pcap"]).unwrap().dot.is_none());
        assert_eq!(parse(&["--dot"]).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn cache_dir_is_parsed() {
        let o = parse(&["a.pcap", "--cache-dir", "/tmp/cache"]).unwrap();
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/cache"));
        assert!(parse(&["a.pcap"]).unwrap().cache_dir.is_none());
    }

    #[test]
    fn tile_flags_are_parsed() {
        let o = parse(&["a.pcap", "--tile-rows", "256", "--max-memory", "512M"]).unwrap();
        assert_eq!(o.tile_rows, Some(256));
        assert_eq!(o.max_memory, Some(512 << 20));
        let o = parse(&["a.pcap"]).unwrap();
        assert_eq!(o.tile_rows, None);
        assert_eq!(o.max_memory, None);
        for bad in [
            parse(&["--tile-rows", "many"]),
            parse(&["--max-memory", "lots"]),
            parse(&["--max-memory"]),
        ] {
            assert_eq!(bad.unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn threads_and_addr_are_parsed() {
        let o = parse(&["a.pcap", "--threads", "4", "--addr", "127.0.0.1:4747"]).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:4747"));
        let o = parse(&["a.pcap"]).unwrap();
        assert_eq!(o.threads, 0);
        assert!(o.addr.is_none());
        for bad in [parse(&["--threads", "many"]), parse(&["--addr"])] {
            assert_eq!(bad.unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn neighbor_backend_is_parsed() {
        use fieldclust::NeighborBackend;
        let o = parse(&["a.pcap", "--neighbor-backend", "tiled"]).unwrap();
        assert_eq!(o.neighbor_backend, NeighborBackend::Tiled);
        let o = parse(&["a.pcap", "--neighbor-backend", "stratified"]).unwrap();
        assert_eq!(o.neighbor_backend, NeighborBackend::Stratified);
        let o = parse(&["a.pcap"]).unwrap();
        assert_eq!(o.neighbor_backend, NeighborBackend::Auto);
        for bad in [
            parse(&["--neighbor-backend", "quadtree"]),
            parse(&["--neighbor-backend", "vptree"]),
            parse(&["--neighbor-backend"]),
            parse(&["a.pcap", "--swar"]),
        ] {
            assert_eq!(bad.unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn follow_flags_are_parsed() {
        let o = parse(&[
            "grow.pcap",
            "--batch-msgs",
            "40",
            "--batch-interval",
            "200",
            "--batches",
            "3",
            "--sample",
            "32",
            "--idle-exit",
            "2000",
            "--drift-log",
            "drift.jsonl",
            "--listen",
            "127.0.0.1:0",
            "--fsm",
        ])
        .unwrap();
        assert_eq!(o.batch_msgs, 40);
        assert_eq!(o.batch_interval_ms, 200);
        assert_eq!(o.batches, 3);
        assert_eq!(o.sample, 32);
        assert_eq!(o.idle_exit_ms, 2000);
        assert_eq!(o.drift_log.as_deref(), Some("drift.jsonl"));
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert!(o.fsm);
    }

    #[test]
    fn follow_defaults_and_bad_values() {
        let o = parse(&["grow.pcap"]).unwrap();
        assert_eq!(o.batch_msgs, 64);
        assert_eq!(o.batch_interval_ms, 500);
        assert_eq!(o.batches, 0);
        assert_eq!(o.sample, 0);
        assert_eq!(o.idle_exit_ms, 0);
        assert!(o.drift_log.is_none());
        assert!(o.listen.is_none());
        assert!(!o.fsm);
        for bad in [
            parse(&["--batch-msgs", "0"]), // a zero boundary never flushes
            parse(&["--batch-msgs", "many"]),
            parse(&["--batch-interval", "soon"]),
            parse(&["--batches"]),
            parse(&["--sample", "-1"]),
            parse(&["--idle-exit", "never"]),
            parse(&["--drift-log"]),
        ] {
            assert_eq!(bad.unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64K"), Some(64 << 10));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("512M"), Some(512 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("G"), None);
        assert_eq!(parse_bytes("-1K"), None);
        assert_eq!(parse_bytes("99999999999999999999G"), None);
    }

    #[test]
    fn segmenter_construction() {
        for name in ["nemesys", "netzob", "csp", "fixed"] {
            let o = parse(&["--segmenter", name]).unwrap();
            assert_eq!(o.build_segmenter().unwrap().name(), name);
        }
        assert!(parse(&["--segmenter", "magic"])
            .unwrap()
            .build_segmenter()
            .is_err());
    }

    #[test]
    fn hex_preview_truncates() {
        assert_eq!(hex_preview(&[0xAB, 0xCD], 4), "abcd");
        assert_eq!(hex_preview(&[1, 2, 3, 4, 5], 3), "010203…");
    }
}
