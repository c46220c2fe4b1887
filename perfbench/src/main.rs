//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nemesys-fields|fixed-report|ftcd-append|follow-sample> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every input is generated from `--seed`. The program is driven only
//! through its public functions and timed from outside. Human-readable
//! lines name every metric with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics with
//! `--trace 1`). See `NOTES.md` for what each workload and metric is for.

mod declared;
mod harness;
mod inputs;
mod workloads;

use declared::Declared;
use harness::{median, tail, Args, Run};
use std::time::Instant;

/// The repository's `BENCHMARK.json`, compiled in: its metric lists
/// name what a run prints, and with which unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn main() {
    let declared = declared::parse(BENCHMARK_JSON);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).and_then(|a| {
        if declared.workloads.contains(&a.workload) {
            Ok(a)
        } else {
            Err(format!("unknown workload `{}`", a.workload))
        }
    });
    let args = match args {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                declared.workloads.join("|")
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let run = match workloads::run(&args, epoch) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = std::path::Path::new(".perfbench_work")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match harness::write_spans(&run.spans, &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: writing spans: {e}"),
        }
    }
    print_result(&declared, &args, &run);
}

fn print_result(declared: &Declared, args: &Args, run: &Run) {
    let correct = run.failed == 0 && run.gate.iter().all(|(_, ok)| *ok);
    for (name, ok) in &run.gate {
        println!("gate {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    let fail_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ratio ({} failed of {} attempted)",
        run.failed, run.attempted
    );
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("available_parallelism = {cores}");
    let (pct, tail_value) = tail(&run.ops);
    println!("op_tail_s is p{pct} over {} ops", run.ops.len());

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let overhead = if run.traced_pass_walls.is_empty() || run.pass_walls.is_empty() {
            0.0
        } else {
            median(&run.traced_pass_walls) - median(&run.pass_walls)
        };
        // A layer the workload does not exercise reads 0.
        for (name, unit) in &declared.per_layer {
            let value = match name.as_str() {
                "bench.trace_overhead_s" => overhead,
                "bench.fail_ratio" => fail_ratio,
                "bench.ops" => run.ops.len() as f64,
                other => run.layers.get(other).copied().unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
    } else {
        for (name, unit) in &declared.end_to_end {
            let value = match name.as_str() {
                "setup_s" => workloads::mean(&run.setup_s),
                "wall_s" => median(&run.pass_walls),
                "op_p50_s" => median(&run.ops),
                "op_tail_s" => tail_value,
                "peak_rss_mb" => run.peak_rss_mb,
                "f_quarter" => run.f_quarter,
                other => {
                    eprintln!("error: BENCHMARK.json names end-to-end metric `{other}`, which perfbench does not measure");
                    std::process::exit(1);
                }
            };
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
