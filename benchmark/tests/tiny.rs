//! Tiny runs of every workload through the benchmark binary, both passes:
//! each must pass its output checks and print exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit. Run with
//! `cargo test --release` from this directory.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let entries = json.get(section).and_then(Value::as_array).expect("metric section");
    entries
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pulse-replay-bench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let json = benchmark_json();
    let workloads = json.get("workloads").and_then(Value::as_array).expect("workloads");
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).expect("workload name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args =
                ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"];
            let out = bench(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{args:?}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the result line is JSON");
            let keys: Vec<&str> =
                result.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{args:?}");
            assert!(matches!(result.get("correct"), Some(Value::Bool(true))), "{args:?}: {last}");
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1, "{last}");
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{last}");
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object")
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").and_then(Value::as_f64).is_some(), "{k}: {last}");
                    (k.clone(), v.get("unit").and_then(Value::as_str).unwrap_or("").to_string())
                })
                .collect();
            assert_eq!(printed, declared(section), "{args:?}");
        }
    }
}

#[test]
fn a_bad_workload_prints_no_result() {
    let out = bench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
