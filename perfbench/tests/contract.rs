//! The runner prints exactly the metrics `BENCHMARK.json` declares, with
//! their units, on every workload, and its checks pass on small inputs.

use tectonic_perfbench::checks::Golden;
use tectonic_perfbench::env::repo_root;
use tectonic_perfbench::output::contract_line;
use tectonic_perfbench::workloads::{self, Run, Sizes, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let root = repo_root().expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    bench[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn runner_tables_match_benchmark_json() {
    assert_eq!(table(END_TO_END), declared("end_to_end"));
    assert_eq!(table(PER_LAYER), declared("per_layer"));
}

#[test]
fn workload_names_match_benchmark_json() {
    let root = repo_root().expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let names: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// Runs every workload at smoke size, plain and traced, and parses the
/// contract line the runner would print.
#[test]
fn every_declared_metric_is_printed() {
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        for workload in Workload::ALL {
            let run = Run {
                workload,
                seed: 7,
                seconds: 0.01,
                trace,
                workers: 2,
            };
            let outcome = workloads::run(&run, &Sizes::smoke(), &Golden::default());
            let line = contract_line(&outcome);
            let parsed: serde_json::Value =
                serde_json::from_str(&line).expect("contract line is JSON");
            assert_eq!(
                parsed["correct"],
                serde_json::Value::Bool(true),
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.checks.failures
            );
            let serde_json::Value::Object(metrics) = &parsed["metrics"] else {
                panic!("metrics is not an object: {line}");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), m["unit"].as_str().expect("unit").to_string()))
                .collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            assert!(parsed["attempted"].as_u64().expect("attempted") >= 1);
            assert_eq!(parsed["failed"].as_u64(), Some(0), "{}", workload.name());
        }
    }
}
