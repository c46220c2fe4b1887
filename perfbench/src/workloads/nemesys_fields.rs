//! `nemesys-fields`: NEMESYS-segmented field clustering of mixed-length
//! captures, sequential, one caller, `threads = 2`.
//!
//! One op: capture bytes → `prepare_trace` → `segment_with(NEMESYS)` →
//! `finish()`, every stage called explicitly under its own span. SMB,
//! AWDL and NTP captures come in a fixed rotation; one pass runs every
//! capture of the pool once. Mixed segment lengths resolve `auto` to
//! the stratified backend. No message typing, no store, no matrix.

use super::{
    analyze, config, f_quarter, mean, record_counts, record_span_times, run_passes, Counts,
};
use crate::harness::{mix, timed_setup, Args, Run, Tracer};
use crate::inputs;
use fieldclust::NeighborBackend;
use protocols::Protocol;
use std::time::Instant;

const THREADS: usize = 2;
/// Messages per capture, sized to about 1.2–1.5k unique segments each.
const ROTATION: [(Protocol, usize); 3] = [
    (Protocol::Smb, 170),
    (Protocol::Awdl, 200),
    (Protocol::Ntp, 300),
];
/// Rotations per pass: each op of a pass analyzes a distinct capture.
const POOL: usize = 6;

pub fn run(args: &Args, epoch: Instant) -> Result<Run, String> {
    let mut run = Run::new(epoch);
    let (pool_len, shrink) = if args.smoke { (1, 5) } else { (POOL, 1) };
    let setup = || -> Vec<(Protocol, Vec<u8>)> {
        (0..pool_len * ROTATION.len())
            .map(|i| {
                let (protocol, n) = ROTATION[i % ROTATION.len()];
                let seed = mix(args.seed, 1, i as u64);
                (protocol, inputs::capture(protocol, n / shrink, seed))
            })
            .collect()
    };
    let pool = timed_setup(&mut run, setup);

    let op =
        |tr: &mut Tracer, backend: NeighborBackend, (protocol, bytes): &(Protocol, Vec<u8>)| {
            let (trace, _) = tr.span("trace.prepare", || {
                serve::prepare_trace(bytes, &serve::PrepareOpts::default())
            })?;
            let analysis = analyze(tr, &trace, config(THREADS, backend), "nemesys", false)?;
            Ok((*protocol, trace, analysis))
        };
    // Per first-pass op: F¼, work counts, and the first op's labels for
    // the gate.
    let first = run_passes(
        &mut run,
        args,
        epoch,
        &pool,
        setup,
        |tr, input| op(tr, NeighborBackend::Auto, input),
        |index, (protocol, trace, a)| {
            let labels = (index == 0).then(|| a.result.clustering.labels().to_vec());
            (f_quarter(protocol, &trace, &a.result), a.counts, labels)
        },
    );

    // Gate: the first op's refined labels equal a matrix-backend run of
    // the same input.
    let oracle = op(
        &mut Tracer::new(false, epoch),
        NeighborBackend::Matrix,
        &pool[0],
    );
    let same = match (first.first(), &oracle) {
        (Some((_, _, Some(labels))), Ok((_, _, b))) => labels == b.result.clustering.labels(),
        _ => false,
    };
    run.check("first op's labels equal a matrix-backend run", same);
    let counts: Counts = first.iter().map(|(_, c, _)| *c).sum();
    let stratified = counts.kernel_evals > 0 && counts.matrix_cells == 0;
    run.check("auto resolves to the stratified backend", stratified);

    run.f_quarter = mean(&first.iter().map(|(f, _, _)| *f).collect::<Vec<_>>());
    record_counts(&mut run, counts);
    let spans = std::mem::replace(&mut run.spans, Tracer::new(false, epoch));
    record_span_times(&mut run, &spans, spans.count("op"));
    run.spans = spans;
    run.set("bench.threads", THREADS as f64);
    Ok(run)
}
