//! Tiny-scale self-test of the benchmark: every workload named in
//! `BENCHMARK.json` runs, passes its output and ledger checks, and emits
//! exactly the metrics `BENCHMARK.json` names, each with its unit.

use std::path::PathBuf;
use std::process::Command;

use serde::{Content, DeError, Deserialize};

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

struct Json(Content);

impl Deserialize for Json {
    fn deserialize(v: &Content) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn field<'a>(c: &'a Content, name: &str) -> &'a Content {
    c.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{name}` in {c:?}"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn every_benchmark_metric_is_emitted_with_its_unit() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let bench: Benchmark = serde_json::from_str(&text).unwrap();
    for workload in &bench.workloads {
        for (trace, expected) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    &workload.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--scale", "tiny"])
                .current_dir(repo_root())
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().unwrap();
            let result = serde_json::from_str::<Json>(last).unwrap().0;
            assert_eq!(field(&result, "correct"), &Content::Bool(true));
            let metrics = field(&result, "metrics").as_map().unwrap();
            let emitted: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| (name.as_str(), field(m, "unit").as_str().unwrap()))
                .collect();
            let named: Vec<(&str, &str)> = expected
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(emitted, named, "{} --trace {trace}", workload.name);
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
