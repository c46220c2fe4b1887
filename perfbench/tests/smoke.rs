//! Smoke test of the benchmark itself: a tiny pass of every workload,
//! traced and untraced, must print every metric `BENCHMARK.json`
//! declares by name with its unit, pass its correctness gate, and end
//! with the one-line JSON result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

#[path = "../src/declared.rs"]
mod declared;

fn declared() -> declared::Declared {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    declared::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root"))
}

fn bench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark runs")
}

/// Runs one tiny pass and checks its output; returns standard output.
fn check(workload: &str, trace: &str, metrics: &[(String, String)]) -> String {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ctx = format!(
        "{workload} --trace {trace}\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "{ctx}");
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{ctx}");
    assert!(last.contains("\"failed\": 0, "), "{ctx}");
    assert!(stdout.lines().any(|l| l.starts_with("gate ")), "{ctx}");
    assert!(!stdout.contains(": FAIL"), "{ctx}");
    assert!(stdout.contains("fail_ratio = 0 ratio"), "{ctx}");
    assert!(stdout.contains("op_tail_s is p"), "{ctx}");
    for (name, unit) in metrics {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{name} = ")))
            .unwrap_or_else(|| panic!("no `{name}` line\n{ctx}"));
        assert!(line.ends_with(&format!(" {unit}")), "{line}\n{ctx}");
        let json = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&json)
            .unwrap_or_else(|| panic!("`{name}` not in JSON\n{ctx}"));
        assert!(
            last[at..].contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name}\n{ctx}"
        );
    }
    let count = last.matches("\"value\": ").count();
    assert_eq!(count, metrics.len(), "exactly the declared metrics\n{ctx}");
    stdout.into_owned()
}

/// The value printed on a `<name> = <value> <unit>` line.
fn value(stdout: &str, name: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&format!("{name} = ")))
        .expect("metric line");
    line.split(' ')
        .nth(2)
        .expect("value")
        .parse()
        .expect("number")
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let d = declared();
    assert!(d.workloads.len() >= 2);
    for w in &d.workloads {
        check(w, "0", &d.end_to_end);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let d = declared();
    for w in &d.workloads {
        let stdout = check(w, "1", &d.per_layer);
        // The batch workloads' layer spans must account for their ops.
        if w == "nemesys-fields" || w == "fixed-report" {
            let coverage = value(&stdout, "bench.span_coverage");
            assert!(coverage >= 0.95, "{w}: span coverage {coverage}");
        }
    }
}

#[test]
fn bad_usage_fails_without_a_result() {
    for args in [
        &["--workload", "no-such-workload", "--seed", "1"][..],
        &["--seed", "1"][..],
        &["--workload", "fixed-report", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
