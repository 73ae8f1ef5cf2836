//! The smoke mode of every workload: a tiny world and one second of
//! traffic through the real server, with the end-to-end and the traced
//! output. Each run must pass its exactness gate, fail no operation, and
//! print exactly the metrics `BENCHMARK.json` names, with their units.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        let keys: Vec<&str> = result
            .as_object()
            .expect("result object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys.len(), 4, "{result}");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(result.get(key).is_some(), "{key} missing in {result}");
        }
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let expected = declared(section);
        assert_eq!(
            metrics.len(),
            expected.len(),
            "{workload} {section}: {result}"
        );
        for (name, unit) in expected {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            // The two differences of separately timed calls may come out
            // below zero; every other metric is a time, count or share.
            let difference = ["shard.merge_ms", "harness.unaccounted_ms"].contains(&name.as_str());
            assert!(
                value.is_finite() && (difference || value >= 0.0),
                "{name} = {value}"
            );
        }
    }
}

#[test]
fn feed_smoke() {
    check("feed");
}

#[test]
fn explore_smoke() {
    check("explore");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "feed", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
