//! Tiny-size passes of every workload: the result line parses, the
//! metric names and units match `BENCHMARK.json`, every output check
//! passes, and the results digest is the same across invocations,
//! seeds, thread counts, and traced and untraced runs.

use diverseav_obs::json::{self, Value};
use std::process::Command;

struct Run {
    result: Value,
    digest: String,
}

fn run(workload: &str, seed: u64, trace: u8, threads: usize) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "0"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .env("DIVERSEAV_THREADS", threads.to_string())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} exited {}: {stderr}", out.status);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: no result lines:\n{stdout}");
    let result = json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    let stamp = json::parse(lines[lines.len() - 2]).expect("stamp line is JSON");
    let digest = stamp.get("digest").and_then(Value::as_str).expect("digest").to_string();
    assert_eq!(stamp.get("kind").and_then(Value::as_str), Some("measured"));
    let machine = stamp.get("machine").expect("machine stamp");
    for key in ["nproc", "DIVERSEAV_THREADS", "rustc", "cpu", "target_cpu_native", "commit"] {
        assert!(machine.get(key).is_some(), "machine stamp lacks {key}");
    }
    Run { result, digest }
}

/// `(name, unit)` of a metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(workload: &str, run: &Run, list: &str) {
    let r = &run.result;
    let keys: Vec<&str> = r.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true), "{workload} checks fail");
    assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(r.get("attempted").and_then(Value::as_f64).is_some_and(|a| a >= 1.0));
    let printed: Vec<(String, String)> = r
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared(list), "{workload}: printed {list} metrics differ");
    for (name, _) in &printed {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} has characters outside [A-Za-z0-9_.-]"
        );
    }
}

fn tiny_pass(workload: &str) {
    let a = run(workload, 1, 0, 2);
    let b = run(workload, 2, 0, 1);
    let traced = run(workload, 3, 1, 2);
    check_result(workload, &a, "end_to_end");
    check_result(workload, &b, "end_to_end");
    check_result(workload, &traced, "per_layer");
    assert_eq!(a.digest, b.digest, "{workload}: digest differs across invocations");
    assert_eq!(a.digest, traced.digest, "{workload}: traced digest differs");
}

#[test]
fn campaign_rr_tiny() {
    tiny_pass("campaign_rr");
}

#[test]
fn campaign_fd_sharded_tiny() {
    tiny_pass("campaign_fd_sharded");
}

#[test]
fn sensing_fig5_tiny() {
    tiny_pass("sensing_fig5");
}

#[test]
fn rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
