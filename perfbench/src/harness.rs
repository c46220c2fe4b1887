//! Measurement plumbing shared by every workload: command-line
//! arguments, the in-memory span tracer, percentile helpers, and the
//! run record each workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single pass, for the smoke test.
    pub smoke: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    args.seed = value()?
                        .parse()
                        .map_err(|_| "--seed must be an unsigned integer".to_string())?
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .map_err(|_| "--seconds must be a number".to_string())?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".to_string()),
                    }
                }
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }

    /// When the measured window closes.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// splitmix64: derives independent per-input seeds from the run seed.
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder. Disabled tracers record nothing, so the
/// same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Moves another tracer's spans (e.g. a client thread's) into this
    /// one, re-pointing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// time its direct children cover (children of one span run
    /// sequentially on its thread, so their durations add up).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += secs(s);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (secs(s) - child[i]).max(0.0);
        }
        out
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The smallest share of any `root`-named span that its direct
    /// children cover, or `None` without such spans.
    pub fn min_coverage(&self, root: &str) -> Option<f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += secs(s);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| child[i] / secs(s).max(f64::MIN_POSITIVE))
            .reduce(f64::min)
    }
}

fn secs(s: &Span) -> f64 {
    (s.end - s.start).as_secs_f64()
}

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples
/// strictly beyond it (nearest-rank), as `(percentile, value)`. With
/// ten samples or fewer no such percentile exists and the maximum is
/// returned as percentile 100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (100, 0.0);
    }
    if n <= 10 {
        return (100, v[n - 1]);
    }
    let pct = (100 * (n - 10) / n) as u32;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    (pct, v[rank - 1])
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    serve::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// What one run of a workload measured.
#[derive(Debug)]
pub struct Run {
    /// Wall time of each set-up sample.
    pub setup_s: Vec<f64>,
    /// Wall time of each complete untraced pass of the fixed work.
    pub pass_walls: Vec<f64>,
    /// Wall time of each complete traced pass (traced runs only).
    pub traced_pass_walls: Vec<f64>,
    /// Steady-state op latencies (cold and fill phases excluded).
    pub ops: Vec<f64>,
    /// Units of work attempted: ops plus cold jobs and fill batches.
    pub attempted: u64,
    /// Attempted units that errored, were rejected, or failed the gate.
    pub failed: u64,
    /// Correctness-gate checks, by name.
    pub gate: Vec<(String, bool)>,
    /// Mean F¼ against the generator's ground truth; what each workload
    /// scores is set out in NOTES.md.
    pub f_quarter: f64,
    /// Peak RSS at the end of the measured window, before the gate.
    pub peak_rss_mb: f64,
    pub spans: Tracer,
    /// Per-layer counters and times, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    pub fn new(epoch: Instant) -> Self {
        Run {
            setup_s: Vec::new(),
            pass_walls: Vec::new(),
            traced_pass_walls: Vec::new(),
            ops: Vec::new(),
            attempted: 0,
            failed: 0,
            gate: Vec::new(),
            f_quarter: 0.0,
            peak_rss_mb: 0.0,
            spans: Tracer::new(true, epoch),
            layers: BTreeMap::new(),
        }
    }

    /// Records one unit of work and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a correctness-gate check; a mismatch fails the op it
    /// checks.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.gate.push((name.into(), ok));
    }

    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.layers.insert(metric, value);
    }

    /// Records a wall time under the pass kind it belongs to.
    pub fn pass_done(&mut self, traced: bool, wall: f64) {
        if traced {
            self.traced_pass_walls.push(wall);
        } else {
            self.pass_walls.push(wall);
        }
    }
}

/// Runs `setup` once and records its wall time as one `setup_s`
/// sample. Workloads set up once before the window and again, outside
/// op and pass timing, at fixed points spread over the window (see
/// `NOTES.md`), so the samples see the machine across the whole run.
pub fn timed_setup<T>(run: &mut Run, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = setup();
    run.setup_s.push(t.elapsed().as_secs_f64());
    value
}

/// A scratch directory under `.perfbench_work/` in the current
/// directory (the checkout root), removed again on drop.
pub struct WorkDir(std::path::PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> std::io::Result<Self> {
        let path =
            std::path::Path::new(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.perfbench_work` itself only if other runs still use it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Total size of the regular files under `dir`, in MiB.
pub fn disk_mb(dir: &std::path::Path) -> f64 {
    fn walk(dir: &std::path::Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => walk(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// Writes every span as one JSON line to `path`.
pub fn write_spans(tracer: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in tracer.spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"op\": {}}}",
            s.name,
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
            s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(pct, 75);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100, 3.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        tr.begin("op");
        tr.span("child", || std::thread::sleep(Duration::from_millis(20)));
        tr.end();
        let times = tr.self_times();
        assert!(times["child"] >= 0.02);
        assert!(times["op"] < times["child"]);
        assert!(tr.min_coverage("op").unwrap() > 0.5);
        assert_eq!(tr.count("op"), 1);
        assert!(Tracer::new(false, epoch).self_times().is_empty());
    }
}
