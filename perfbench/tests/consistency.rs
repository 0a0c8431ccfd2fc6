//! Runs every workload's smoke preset, untraced and traced, and checks
//! that the metrics each run prints are exactly the ones `BENCHMARK.json`
//! declares, that every answer was right, and that nothing failed.

use std::path::Path;
use std::process::Command;

use recopack_json::Json;

const WORKLOADS: [&str; 4] = ["paper", "decide_mix", "search_proof", "serve_mix"];

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_runs_emit_the_declared_metrics_with_right_answers() {
    let doc = declared();
    let workloads = names(&doc, "workloads");
    assert_eq!(workloads, WORKLOADS);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = names(&doc, key);
        expected.sort();
        for workload in WORKLOADS {
            let output = Command::new(env!("CARGO_BIN_EXE_recopack-perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {last}");
            };
            let mut emitted: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
            emitted.sort();
            assert_eq!(emitted, expected, "{workload} trace {trace}");
        }
    }
}
