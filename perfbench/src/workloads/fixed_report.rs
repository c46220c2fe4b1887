//! `fixed-report`: the canonical report over fixed-width-segmented NTP
//! captures, sequential, `threads = 1`.
//!
//! One op: capture bytes → `prepare_trace` → `segment_with(fixed)` →
//! `standard_report`. NTP's 48-byte payloads cut into 4-byte chunks give
//! uniform-length segments, so `auto` resolves to the matrix backend:
//! the Canberra matrix build, the `NeighborIndex`, message typing and
//! rendering, with zero stratified queries and parkit running inline.

use super::{
    analyze, config, f_quarter, mean, record_counts, record_span_times, run_passes, Counts,
};
use crate::harness::{mix, timed_setup, Args, Run, Tracer};
use crate::inputs;
use fieldclust::NeighborBackend;
use protocols::Protocol;
use std::time::Instant;

const THREADS: usize = 1;
/// Messages per capture (about 1.7k unique 4-byte segments).
const MESSAGES: usize = 400;
/// Captures per pass, each analyzed by one op.
const POOL: usize = 6;

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let mut run = Run::new(epoch);
    let (pool_len, messages) = if args.smoke {
        (2, MESSAGES / 5)
    } else {
        (POOL, MESSAGES)
    };
    let setup = || -> Vec<Vec<u8>> {
        (0..pool_len)
            .map(|i| inputs::capture(Protocol::Ntp, messages, mix(args.seed, 2, i as u64)))
            .collect()
    };
    let pool = timed_setup(&mut run, setup);

    let op = |tr: &mut Tracer, backend: NeighborBackend, bytes: &Vec<u8>| {
        let (trace, _) = tr.span("trace.prepare", || {
            serve::prepare_trace(bytes, &serve::PrepareOpts::default())
        })?;
        let analysis = analyze(tr, &trace, config(THREADS, backend), "fixed", true)?;
        Ok((trace, analysis))
    };
    // Per first-pass op: F¼, work counts, and the first op's report for
    // the gate.
    let first = run_passes(
        &mut run,
        args,
        epoch,
        &pool,
        setup,
        |tr, bytes| op(tr, NeighborBackend::Auto, bytes),
        |index, (trace, a)| {
            let report = if index == 0 { a.report } else { None };
            (
                f_quarter(Protocol::Ntp, &trace, &a.result),
                a.counts,
                report,
            )
        },
    );

    // Gate: the first op's report equals a stratified-backend run of
    // the same input.
    let oracle = op(
        &mut Tracer::new(false, epoch),
        NeighborBackend::Stratified,
        &pool[0],
    );
    let same = match (first.first(), &oracle) {
        (Some((_, _, Some(report))), Ok((_, b))) => b.report.as_ref() == Some(report),
        _ => false,
    };
    run.check("first op's report equals a stratified-backend run", same);
    let counts: Counts = first.iter().map(|(_, c, _)| *c).sum();
    let matrix = counts.matrix_cells > 0 && counts.kernel_evals == 0;
    run.check("auto resolves to the matrix backend", matrix);

    run.f_quarter = mean(&first.iter().map(|(f, _, _)| *f).collect::<Vec<_>>());
    record_counts(&mut run, counts);
    let spans = std::mem::replace(&mut run.spans, Tracer::new(false, epoch));
    record_span_times(&mut run, &spans, spans.count("op"));
    run.spans = spans;
    run.set("bench.threads", THREADS as f64);
    Ok(run)
}
