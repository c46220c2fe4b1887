//! The four workloads and the staged analysis helpers they share.

mod fixed_report;
mod follow_sample;
mod ftcd_append;
mod nemesys_fields;

use crate::harness::{timed_setup, Args, Run, Tracer};
use fieldclust::report::{render_markdown, standard_report, ReportOptions};
use fieldclust::{
    interpret, AnalysisSession, EpsilonSource, FieldTypeClusterer, MessageTypeConfig,
    NeighborBackend, PseudoTypeClustering, SemanticsConfig,
};
use std::time::Instant;
use trace::Trace;

/// Runs the named workload.
pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    match args.workload.as_str() {
        "nemesys-fields" => nemesys_fields::run(args, epoch),
        "fixed-report" => fixed_report::run(args, epoch),
        "ftcd-append" => ftcd_append::run(args, epoch),
        "follow-sample" => follow_sample::run(args, epoch),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The default pipeline configuration at `threads` on `backend`.
pub fn config(threads: usize, backend: NeighborBackend) -> FieldTypeClusterer {
    FieldTypeClusterer {
        threads,
        neighbor_backend: backend,
        ..FieldTypeClusterer::default()
    }
}

/// What one staged analysis produced.
pub struct Analysis {
    pub result: PseudoTypeClustering,
    /// The rendered report, when one was asked for.
    pub report: Option<String>,
    pub counts: Counts,
}

/// Work counts of analyses, summed over the first pass of a workload
/// into its per-layer counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub messages: u64,
    pub segments: u64,
    pub unique_segments: u64,
    pub kernel_evals: u64,
    pub pruned: u64,
    pub strata_skipped: u64,
    /// Condensed-matrix cells built, u(u−1)/2 per analysis that
    /// resolved the matrix backend.
    pub matrix_cells: u64,
    pub trimmed_knee_ops: u64,
    pub clusters: u64,
    pub noise: u64,
    /// Message types found, when the traced report ran message typing.
    pub message_types: u64,
}

impl std::ops::Add for Counts {
    type Output = Counts;
    fn add(self, o: Counts) -> Counts {
        Counts {
            messages: self.messages + o.messages,
            segments: self.segments + o.segments,
            unique_segments: self.unique_segments + o.unique_segments,
            kernel_evals: self.kernel_evals + o.kernel_evals,
            pruned: self.pruned + o.pruned,
            strata_skipped: self.strata_skipped + o.strata_skipped,
            matrix_cells: self.matrix_cells + o.matrix_cells,
            trimmed_knee_ops: self.trimmed_knee_ops + o.trimmed_knee_ops,
            clusters: self.clusters + o.clusters,
            noise: self.noise + o.noise,
            message_types: self.message_types + o.message_types,
        }
    }
}

impl std::iter::Sum for Counts {
    fn sum<I: Iterator<Item = Counts>>(iter: I) -> Counts {
        iter.fold(Counts::default(), |a, b| a + b)
    }
}

/// Drives one analysis of a prepared `trace` stage by stage, each
/// stage under its own span, optionally finishing with the canonical
/// report. Traced, the report is rendered through the same calls
/// `standard_report` makes (finish → interpret → message_types →
/// render_markdown) so each gets its own span; untraced it is one
/// `standard_report` call.
pub fn analyze(
    tr: &mut Tracer,
    trace: &Trace,
    config: FieldTypeClusterer,
    segmenter: &str,
    with_report: bool,
) -> Result<Analysis, String> {
    let err = |e: fieldclust::PipelineError| e.to_string();
    let mut session = AnalysisSession::new(trace, config);
    let segments = tr.span("segment.busy", || {
        let seg = serve::build_segmenter(segmenter)?;
        session
            .segment_with(seg.as_ref())
            .map(|s| s.total_segments() as u64)
            .map_err(|e| format!("segmentation failed: {e}"))
    })?;
    let unique = tr
        .span("dedup.busy", || session.store().map(|s| s.segments.len()))
        .map_err(err)?;
    let backend = session.resolved_neighbor_backend().map_err(err)?;
    let mut matrix_cells = 0;
    if matches!(backend, NeighborBackend::Matrix | NeighborBackend::Tiled) {
        tr.span("dissim.build", || session.matrix().map(|_| ()))
            .map_err(err)?;
        matrix_cells = (unique as u64) * (unique as u64).saturating_sub(1) / 2;
    }
    tr.span("dissim.index", || session.ensure_neighbors())
        .map_err(err)?;
    tr.span("cluster.autoconf", || session.autoconf().map(|_| ()))
        .map_err(err)?;
    tr.span("cluster.dbscan", || session.cluster().map(|_| ()))
        .map_err(err)?;
    let result = tr
        .span("cluster.refine", || {
            session.refine()?;
            session.finish()
        })
        .map_err(err)?;
    let trimmed_knee = session.epsilon_source() == Some(EpsilonSource::TrimmedKnee);
    let mut message_types = None;
    let report = match (with_report, tr.enabled()) {
        (false, _) => None,
        (true, false) => Some(standard_report(trace, &mut session).map_err(err)?),
        (true, true) => {
            let semantics = tr.span("report.semantics", || {
                interpret(&result, trace, &SemanticsConfig::default())
            });
            let types = tr
                .span("msgtype.busy", || {
                    session.message_types(&MessageTypeConfig::default())
                })
                .ok();
            message_types = types.as_ref().map(|t| t.clustering.n_clusters());
            Some(tr.span("report.render", || {
                render_markdown(
                    trace,
                    &result,
                    &semantics,
                    types.as_ref(),
                    &ReportOptions {
                        examples_per_cluster: 3,
                        include_value_models: true,
                    },
                )
            }))
        }
    };
    let (kernel_evals, pruned, strata_skipped) = session.neighbor_counters();
    let counts = Counts {
        messages: trace.len() as u64,
        segments,
        unique_segments: unique as u64,
        kernel_evals,
        pruned,
        strata_skipped,
        matrix_cells,
        trimmed_knee_ops: u64::from(trimmed_knee),
        clusters: u64::from(result.clustering.n_clusters()),
        noise: result.clustering.noise().len() as u64,
        message_types: u64::from(message_types.unwrap_or(0)),
    };
    Ok(Analysis {
        result,
        report,
        counts,
    })
}

/// Writes summed work counts as per-layer counters.
pub fn record_counts(run: &mut Run, c: Counts) {
    run.set("trace.messages", c.messages as f64);
    run.set("segment.segments", c.segments as f64);
    run.set("dedup.unique_segments", c.unique_segments as f64);
    run.set("dissim.matrix_cells", c.matrix_cells as f64);
    run.set("dissim.kernel_evals", c.kernel_evals as f64);
    run.set("dissim.pruned", c.pruned as f64);
    run.set("dissim.strata_skipped", c.strata_skipped as f64);
    run.set(
        "dissim.prune_ratio",
        ratio(c.pruned, c.pruned + c.kernel_evals),
    );
    run.set(
        "dissim.evals_per_segment",
        ratio(c.kernel_evals, c.unique_segments),
    );
    run.set("cluster.clusters", c.clusters as f64);
    run.set("cluster.noise", c.noise as f64);
    run.set("cluster.trimmed_knee_ops", c.trimmed_knee_ops as f64);
    run.set("msgtype.types", c.message_types as f64);
}

/// Mean self time per op of every span-timed layer in `spans`, written
/// as per-layer times, plus the smallest share of an `op` span its
/// layer spans cover.
pub fn record_span_times(run: &mut Run, spans: &Tracer, ops: usize) {
    const LAYERS: &[(&str, &str)] = &[
        ("trace.prepare", "trace.prepare_s"),
        ("segment.busy", "segment.busy_s"),
        ("dedup.busy", "dedup.busy_s"),
        ("dissim.build", "dissim.build_s"),
        ("dissim.index", "dissim.index_s"),
        ("cluster.autoconf", "cluster.autoconf_s"),
        ("cluster.dbscan", "cluster.dbscan_s"),
        ("cluster.refine", "cluster.refine_s"),
        ("msgtype.busy", "msgtype.busy_s"),
        ("report.semantics", "report.semantics_s"),
        ("report.render", "report.render_s"),
    ];
    let self_times = spans.self_times();
    for &(span, metric) in LAYERS {
        let total = self_times.get(span).copied().unwrap_or(0.0);
        run.set(metric, total / ops.max(1) as f64);
    }
    if let Some(coverage) = spans.min_coverage("op") {
        run.set("bench.span_coverage", coverage);
    }
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// F¼ of an analysis of a prepared trace against its generator's
/// ground truth, exactly as `fieldclust::evaluate` returns it.
pub fn f_quarter(
    protocol: protocols::Protocol,
    trace: &Trace,
    result: &PseudoTypeClustering,
) -> f64 {
    let truth = protocols::corpus::ground_truth(protocol, trace);
    fieldclust::evaluate(result, trace, &truth).metrics.f_score
}

/// F¼ of a clustering of `trace` from its ground-truth segments — the
/// paper's ground-truth column — outside op timing.
pub fn truth_f_quarter(protocol: protocols::Protocol, trace: &Trace) -> Result<f64, String> {
    let truth = protocols::corpus::ground_truth(protocol, trace);
    let mut session = AnalysisSession::new(trace, config(2, NeighborBackend::Auto));
    session.set_segmentation(fieldclust::truth::truth_segmentation(trace, &truth));
    let result = session.finish().map_err(|e| e.to_string())?;
    Ok(fieldclust::evaluate(&result, trace, &truth).metrics.f_score)
}

/// The mean of `values`, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The batch workloads' measured loop. A pass runs `op` once per input
/// of `pool`, sequentially, each inside an `op` span with a fresh op
/// id; passes repeat the same inputs until the window closes, and the
/// first always completes. Traced runs trace every other pass, the
/// first included, so traced and untraced pass walls can be compared.
///
/// Before the window opens, the first `WARMUP_OPS` inputs run once,
/// untimed: a fresh process runs its first second of ops markedly
/// slower (lazy tables, heap growth), which would otherwise leak into
/// the first pass.
///
/// The first pass's outputs are reduced by `digest` (given the pool
/// index) as they arrive, outside op timing and outside the pass wall,
/// so the benchmark holds no analysis results in memory while it
/// measures peak RSS. After every op, `setup` runs once more as a
/// `setup_s` sample, likewise outside op timing and the pass wall.
/// Returns the digests.
pub fn run_passes<I, R, D, S>(
    run: &mut Run,
    args: &Args,
    epoch: Instant,
    pool: &[I],
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut Tracer, &I) -> Result<R, String>,
    mut digest: impl FnMut(usize, R) -> D,
) -> Vec<D> {
    const WARMUP_OPS: usize = 3;
    let mut quiet = Tracer::new(false, epoch);
    for input in pool.iter().take(if args.smoke { 0 } else { WARMUP_OPS }) {
        let out = op(&mut quiet, input);
        run.attempt(out.is_ok());
    }
    let deadline = args.deadline(Instant::now());
    let mut first = Vec::new();
    let mut op_id = 0u64;
    for pass in 0.. {
        let traced = args.trace && pass % 2 == 0;
        let mut tr = Tracer::new(traced, epoch);
        let mut complete = true;
        let pass_start = Instant::now();
        let mut untimed = 0.0;
        for (index, input) in pool.iter().enumerate() {
            if pass > 0 && Instant::now() >= deadline {
                complete = false;
                break;
            }
            op_id += 1;
            tr.set_op(op_id);
            let t = Instant::now();
            tr.begin("op");
            let out = op(&mut tr, input);
            tr.end();
            let latency = t.elapsed().as_secs_f64();
            run.attempt(out.is_ok());
            let t = Instant::now();
            match out {
                Ok(out) => {
                    run.ops.push(latency);
                    if pass == 0 {
                        first.push(digest(index, out));
                    } else {
                        std::hint::black_box(out);
                    }
                }
                Err(e) => eprintln!("op {op_id} failed: {e}"),
            }
            drop(timed_setup(run, &mut setup));
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
    first
}
