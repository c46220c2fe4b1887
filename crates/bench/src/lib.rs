//! Shared harness code for the paper-reproduction binaries.
//!
//! Each binary regenerates one table or figure of the evaluation
//! (DESIGN.md §3): `table1`, `table2`, `fig2`, `fig3`, `coverage`. The
//! helpers here run the pipeline for a corpus spec and render rows.

pub mod plot;

use fieldclust::{evaluate, truth, Evaluation, FieldTypeClusterer};
use protocols::corpus::CorpusSpec;
use protocols::{corpus, Protocol};
use segment::{SegmentError, Segmenter, TraceSegmentation};
use serde::Serialize;
use trace::Trace;

/// One rendered cell of Table I/II.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Protocol name.
    pub protocol: String,
    /// Messages in the trace.
    pub messages: usize,
    /// Unique clusterable segments ("fields" column of Table I).
    pub segments: usize,
    /// Auto-configured ε.
    pub epsilon: f64,
    /// Pairwise precision.
    pub precision: f64,
    /// Pairwise recall.
    pub recall: f64,
    /// F¼ score.
    pub f_score: f64,
    /// Byte coverage.
    pub coverage: f64,
    /// Number of clusters.
    pub clusters: u32,
    /// Unique segments labelled noise.
    pub noise: usize,
}

impl RunRecord {
    /// Builds a record from an evaluation.
    pub fn from_eval(spec: &CorpusSpec, eval: &Evaluation) -> Self {
        Self {
            protocol: spec.protocol.to_string(),
            messages: spec.messages,
            segments: eval.n_segments,
            epsilon: eval.epsilon,
            precision: eval.metrics.precision,
            recall: eval.metrics.recall,
            f_score: eval.metrics.f_score,
            coverage: eval.coverage.ratio(),
            clusters: eval.n_clusters,
            noise: eval.n_noise,
        }
    }
}

/// Outcome of one (segmenter, trace) run.
#[derive(Debug)]
pub enum RunOutcome {
    /// The pipeline completed.
    Done(Box<RunRecord>),
    /// The segmenter exceeded its work budget (a "fails" table cell).
    Fails(SegmentError),
}

/// A pipeline failure on one corpus spec, carrying enough context to
/// skip the row and keep the table generation going.
#[derive(Debug, Clone)]
pub struct RunError {
    /// Protocol of the failing spec.
    pub protocol: String,
    /// Messages in the failing spec.
    pub messages: usize,
    /// The rendered pipeline error.
    pub error: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} msgs): {}",
            self.protocol, self.messages, self.error
        )
    }
}

impl std::error::Error for RunError {}

/// Builds the corpus trace and ground truth for a spec.
pub fn prepare(spec: &CorpusSpec) -> (Trace, Vec<Vec<protocols::TrueField>>) {
    let trace = spec.build();
    let gt = corpus::ground_truth(spec.protocol, &trace);
    (trace, gt)
}

/// Runs the pipeline on the ground-truth segmentation (Table I).
pub fn run_truth(spec: &CorpusSpec, clusterer: &FieldTypeClusterer) -> Result<RunRecord, RunError> {
    let (trace, gt) = prepare(spec);
    let segmentation = truth::truth_segmentation(&trace, &gt);
    run_on(spec, clusterer, &trace, &gt, &segmentation)
}

/// Runs the pipeline on a heuristic segmentation (Table II).
pub fn run_segmenter(
    spec: &CorpusSpec,
    segmenter: &dyn Segmenter,
    clusterer: &FieldTypeClusterer,
) -> Result<RunOutcome, RunError> {
    let (trace, gt) = prepare(spec);
    match segmenter.segment_trace(&trace) {
        Err(e) => Ok(RunOutcome::Fails(e)),
        Ok(segmentation) => Ok(RunOutcome::Done(Box::new(run_on(
            spec,
            clusterer,
            &trace,
            &gt,
            &segmentation,
        )?))),
    }
}

fn run_on(
    spec: &CorpusSpec,
    clusterer: &FieldTypeClusterer,
    trace: &Trace,
    gt: &[Vec<protocols::TrueField>],
    segmentation: &TraceSegmentation,
) -> Result<RunRecord, RunError> {
    let result = clusterer
        .cluster_trace(trace, segmentation)
        .map_err(|e| RunError {
            protocol: spec.protocol.to_string(),
            messages: spec.messages,
            error: e.to_string(),
        })?;
    let eval: Evaluation = evaluate(&result, trace, gt);
    Ok(RunRecord::from_eval(spec, &eval))
}

/// Formats a table row like the paper prints them.
pub fn render_row(r: &RunRecord) -> String {
    format!(
        "{:6} {:5} {:6} {:7.3} {:5.2} {:5.2} {:5.2} {:5.0}%  ({} clusters, {} noise)",
        r.protocol,
        r.messages,
        r.segments,
        r.epsilon,
        r.precision,
        r.recall,
        r.f_score,
        r.coverage * 100.0,
        r.clusters,
        r.noise
    )
}

/// Header matching [`render_row`].
pub const ROW_HEADER: &str = "proto  msgs  fields  eps     P     R     F1/4  cov";

/// Writes records as JSON next to the printed table so EXPERIMENTS.md
/// entries can be regenerated.
pub fn dump_json<T: Serialize>(path: &str, records: &T) {
    match serde_json::to_string_pretty(records) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("(records written to {path})");
            }
        }
        Err(e) => eprintln!("warning: could not serialize records: {e}"),
    }
}

/// One entry of the unified benchmark trajectory
/// (`BENCH_trajectory.json`): which harness ran, at which commit, how
/// long it took, and its peak RSS. Every bench binary appends one on
/// exit, so regressions across commits show up in a single file.
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryRecord {
    /// Harness name (the bench binary).
    pub name: String,
    /// `git rev-parse HEAD` at run time, or `"unknown"`.
    pub commit: String,
    /// Wall-clock duration of the whole run, in nanoseconds.
    pub wall_ns: u64,
    /// Peak resident set size of the process (`VmHWM`), in bytes.
    pub peak_rss_bytes: u64,
}

/// The commit a run measures: `git rev-parse HEAD`, with a `-dirty`
/// suffix when tracked files other than `BENCH_trajectory.json` differ
/// from it (so a run of uncommitted code never overwrites the record of
/// its parent, while records written by earlier runs do not count), or
/// `"unknown"` outside git.
pub fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(head) = git(&["rev-parse", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let status = [
        "status",
        "--porcelain",
        "--untracked-files=no",
        "--",
        ":/",
        ":(top,exclude)BENCH_trajectory.json",
    ];
    match git(&status) {
        Some(changes) if !changes.trim().is_empty() => format!("{head}-dirty"),
        _ => head,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Appends one run record to `BENCH_trajectory.json` (a single JSON
/// array, created on first use) in the current directory. Read-modify-
/// write through the tolerant reader: well-formed existing records are
/// preserved, malformed ones are skipped with a warning instead of
/// discarding the whole history. The file is compacted as it grows:
/// re-running a harness at the same commit replaces its previous record
/// (see [`upsert_trajectory_record`]), so the trajectory holds one —
/// the latest — measurement per `(name, commit)` instead of an
/// unbounded append log. Failures only warn — benchmarks never fail on
/// bookkeeping.
pub fn append_trajectory(name: &str, wall: std::time::Duration) {
    let path = "BENCH_trajectory.json";
    let record = TrajectoryRecord {
        name: name.to_string(),
        commit: git_commit(),
        wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        peak_rss_bytes: peak_rss_bytes(),
    };
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => {
            let (records, skipped) = read_trajectory(&text);
            if skipped > 0 {
                eprintln!("warning: skipping {skipped} malformed record(s) in {path}");
            }
            records
        }
        Err(_) => Vec::new(),
    };
    let records = upsert_trajectory_record(existing, record);
    let body = match serde_json::to_string_pretty(&records) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warning: could not serialize trajectory records: {e}");
            return;
        }
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("(trajectory appended to {path}: {name})");
    }
}

/// Compacts-and-appends: drops every existing record sharing the new
/// record's `(name, commit)` — re-runs of one harness at one commit
/// keep only the latest measurement — then appends the new record.
/// Records of other harnesses or other commits are untouched, so the
/// cross-commit history the trajectory exists for is preserved.
pub fn upsert_trajectory_record(
    mut records: Vec<TrajectoryRecord>,
    record: TrajectoryRecord,
) -> Vec<TrajectoryRecord> {
    records.retain(|r| r.name != record.name || r.commit != record.commit);
    records.push(record);
    records
}

/// Parses a trajectory file tolerantly: every top-level `{…}` object
/// that carries the four expected fields becomes a record; everything
/// else — truncated objects, wrong field types, editor damage — is
/// counted as skipped, never an error. Returns `(records, skipped)`.
///
/// The parser is hand-rolled (the vendored `serde_json` is a writer
/// only): a string-aware brace matcher splits the text into top-level
/// objects, and a flat key/value scanner validates each one.
pub fn read_trajectory(text: &str) -> (Vec<TrajectoryRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for object in top_level_objects(text) {
        match parse_record(object) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

/// Splits `text` into its top-level `{…}` spans, counting braces only
/// outside string literals (so `{"a": "}"}` is one object). An
/// unterminated object at EOF is simply dropped — the caller counts it
/// as damage only if it opened.
fn top_level_objects(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    objects.push(&text[start..=i]);
                }
            }
            _ => {}
        }
    }
    objects
}

/// Validates one flat object as a [`TrajectoryRecord`]: `name` and
/// `commit` must be strings, `wall_ns` and `peak_rss_bytes` unsigned
/// numbers. Unknown extra fields are tolerated (forward compatibility);
/// nested values, missing fields, or type mismatches are not.
fn parse_record(object: &str) -> Option<TrajectoryRecord> {
    let mut name = None;
    let mut commit = None;
    let mut wall_ns = None;
    let mut peak_rss_bytes = None;
    for (key, value) in flat_fields(object)? {
        match key.as_str() {
            "name" => name = Some(string_value(&value)?),
            "commit" => commit = Some(string_value(&value)?),
            "wall_ns" => wall_ns = Some(value.parse::<u64>().ok()?),
            "peak_rss_bytes" => peak_rss_bytes = Some(value.parse::<u64>().ok()?),
            _ => {}
        }
    }
    Some(TrajectoryRecord {
        name: name?,
        commit: commit?,
        wall_ns: wall_ns?,
        peak_rss_bytes: peak_rss_bytes?,
    })
}

/// The content of a string literal (quotes included in `value`), with
/// the two escapes our writer emits unescaped. `None` for non-strings.
fn string_value(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

/// Tokenizes a flat JSON object into raw `(key, value)` pairs. String
/// values keep their quotes (see [`string_value`]); numbers come back
/// as their bare token. Nested objects/arrays make the object
/// non-flat → `None`.
fn flat_fields(object: &str) -> Option<Vec<(String, String)>> {
    let inner = object.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        let (key, after_key) = take_string_token_raw(rest)?;
        let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
        let (value, after_value) = if after_colon.starts_with('"') {
            take_string_token_raw(after_colon)?
        } else {
            let end = after_colon
                .find(|c: char| c == ',' || c.is_whitespace())
                .unwrap_or(after_colon.len());
            let token = &after_colon[..end];
            if token.is_empty() || token.starts_with(['{', '[']) {
                return None;
            }
            (token.to_string(), &after_colon[end..])
        };
        fields.push((string_value(&key).unwrap_or(key), value));
        rest = after_value.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return None,
        }
    }
    Some(fields)
}

/// Reads a leading string literal, returning it with quotes plus the
/// remainder. Escape-aware.
fn take_string_token_raw(s: &str) -> Option<(String, &str)> {
    let bytes = s.as_bytes();
    if *bytes.first()? != b'"' {
        return None;
    }
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            return Some((s[..=i].to_string(), &s[i + 1..]));
        }
    }
    None
}

/// Extracts `--cache-dir DIR` from raw process args (bench bins parse
/// positionals by hand; this keeps the flag uniform with the CLI).
pub fn cache_dir_from_args(args: &[String]) -> Option<String> {
    let pos = args.iter().position(|a| a == "--cache-dir")?;
    args.get(pos + 1).cloned()
}

/// Attaches a `--cache-dir` artifact store to the session when the raw
/// process args request one. Returns the store so callers can report
/// hit/miss statistics; a store that fails to open degrades to a cold
/// run with a warning.
pub fn attach_cache_from_args(
    session: &mut fieldclust::AnalysisSession<'_>,
    args: &[String],
) -> Option<fieldclust::ArtifactStore> {
    let dir = cache_dir_from_args(args)?;
    match fieldclust::ArtifactStore::open(&dir) {
        Ok(store) => {
            session.set_store(store.clone());
            Some(store)
        }
        Err(e) => {
            eprintln!("warning: cannot open cache dir {dir}: {e} (running cold)");
            None
        }
    }
}

/// Prints the greppable cache statistics line, if a store is attached.
pub fn report_cache(store: Option<&fieldclust::ArtifactStore>) {
    if let Some(s) = store {
        eprintln!("cache: {}", s.stats());
    }
}

/// All protocols that have IP context (FieldHunter-able).
pub const CONTEXT_PROTOCOLS: [Protocol; 5] = [
    Protocol::Dhcp,
    Protocol::Dns,
    Protocol::Nbns,
    Protocol::Ntp,
    Protocol::Smb,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, wall_ns: u64) -> TrajectoryRecord {
        TrajectoryRecord {
            name: name.to_string(),
            commit: "abc123".to_string(),
            wall_ns,
            peak_rss_bytes: 1 << 20,
        }
    }

    #[test]
    fn trajectory_roundtrips_through_the_tolerant_reader() {
        let records = vec![record("table1", 5), record("serve_throughput", 7)];
        let text = serde_json::to_string_pretty(&records).unwrap();
        let (back, skipped) = read_trajectory(&text);
        assert_eq!(skipped, 0);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "table1");
        assert_eq!(back[1].wall_ns, 7);
        assert_eq!(back[1].peak_rss_bytes, 1 << 20);
    }

    #[test]
    fn malformed_records_are_skipped_not_fatal() {
        // A valid record, then editor damage (wrong type, missing
        // field, truncated object), then another valid record: the two
        // good ones survive, the three bad ones count as skipped.
        let text = r#"[
  { "name": "good1", "commit": "c1", "wall_ns": 10, "peak_rss_bytes": 20 },
  { "name": "bad-type", "commit": "c2", "wall_ns": "fast", "peak_rss_bytes": 1 },
  { "name": "bad-missing", "commit": "c3", "wall_ns": 10 },
  { "name": "bad-negative", "commit": "c4", "wall_ns": -4, "peak_rss_bytes": 1 },
  { "name": "good2", "commit": "c5", "wall_ns": 30, "peak_rss_bytes": 40 }
]"#;
        let (records, skipped) = read_trajectory(text);
        assert_eq!(skipped, 3);
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["good1", "good2"]);
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_the_matcher() {
        let text =
            r#"[{ "name": "has{brace}", "commit": "}{", "wall_ns": 1, "peak_rss_bytes": 2 }]"#;
        let (records, skipped) = read_trajectory(text);
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "has{brace}");
        assert_eq!(records[0].commit, "}{");
    }

    #[test]
    fn garbage_and_empty_files_read_as_empty() {
        assert_eq!(read_trajectory("").0.len(), 0);
        assert_eq!(read_trajectory("not json at all").0.len(), 0);
        // A nested (non-flat) object is damage, not a crash.
        let (records, skipped) = read_trajectory(
            r#"[{ "name": "x", "commit": "y", "wall_ns": {"n":1}, "peak_rss_bytes": 2 }]"#,
        );
        assert_eq!(records.len(), 0);
        // The nested braces produce one outer malformed object (the
        // inner one closes first but never validates as a record).
        assert!(skipped >= 1);
    }

    #[test]
    fn upsert_compacts_same_name_and_commit_through_the_reader() {
        // The existing file is parsed by the string-aware brace matcher
        // (brace-laden strings included), then compaction replaces the
        // stale record of the re-run harness at the same commit — and
        // only that one.
        let text = r#"[
  { "name": "ladder{u=1k}", "commit": "c1", "wall_ns": 100, "peak_rss_bytes": 1 },
  { "name": "ladder{u=1k}", "commit": "c2", "wall_ns": 200, "peak_rss_bytes": 2 },
  { "name": "other", "commit": "c1", "wall_ns": 300, "peak_rss_bytes": 3 }
]"#;
        let (existing, skipped) = read_trajectory(text);
        assert_eq!((existing.len(), skipped), (3, 0));
        let rerun = TrajectoryRecord {
            name: "ladder{u=1k}".to_string(),
            commit: "c1".to_string(),
            wall_ns: 150,
            peak_rss_bytes: 9,
        };
        let compacted = upsert_trajectory_record(existing, rerun);
        let summary: Vec<(&str, &str, u64)> = compacted
            .iter()
            .map(|r| (r.name.as_str(), r.commit.as_str(), r.wall_ns))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("ladder{u=1k}", "c2", 200),
                ("other", "c1", 300),
                ("ladder{u=1k}", "c1", 150),
            ]
        );
    }

    #[test]
    fn unknown_extra_fields_are_tolerated() {
        let text = r#"[{ "name": "x", "commit": "y", "wall_ns": 1, "peak_rss_bytes": 2, "note": "kept" }]"#;
        let (records, skipped) = read_trajectory(text);
        assert_eq!((records.len(), skipped), (1, 0));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // VmHWM exists on every Linux procfs; a few MB at minimum.
        let rss = peak_rss_bytes();
        assert!(rss > 1 << 20, "peak RSS = {rss}");
    }
}
