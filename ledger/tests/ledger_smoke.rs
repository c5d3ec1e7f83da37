//! Runs `ledger --smoke` (about 1 MiB corpora, 64 KiB chunks) twice with one
//! seed and holds the binary, `spec.rs` and `BENCHMARK.json` in agreement.

use std::collections::BTreeMap;
use std::process::Command;

use rgz_bench::json::{self, JsonValue};
use rgz_ledger::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// One workload's record line: metric name -> (value, unit).
type Record = BTreeMap<String, (f64, String)>;

fn smoke_run() -> BTreeMap<String, Record> {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("the ledger binary starts");
    assert!(
        output.status.success(),
        "ledger --smoke failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf-8 output")
        .lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| {
            let record = json::parse(line).expect("every record line parses");
            let workload = record.get("workload").and_then(JsonValue::as_str).unwrap();
            assert_eq!(
                record.get("failed").and_then(JsonValue::as_number),
                Some(0.0)
            );
            assert_eq!(record.get("correct"), Some(&JsonValue::Bool(true)));
            assert!(
                record
                    .get("attempted")
                    .and_then(JsonValue::as_number)
                    .unwrap()
                    >= 1.0
            );
            let metrics = record
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap();
            let metrics = metrics
                .iter()
                .map(|(name, metric)| {
                    let value = metric.get("value").and_then(JsonValue::as_number).unwrap();
                    let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), (value, unit.to_string()))
                })
                .collect();
            (workload.to_string(), metrics)
        })
        .collect()
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
fn declared(benchmark: &JsonValue, list: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Array(entries)) = benchmark.get(list) else {
        panic!("BENCHMARK.json lacks {list}");
    };
    entries
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics_and_exact_ones_repeat() {
    let benchmark = json::parse(rgz_ledger::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let mut declared_metrics = declared(&benchmark, "end_to_end");
    declared_metrics.extend(declared(&benchmark, "per_layer"));
    let in_code: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|metric| (metric.name.to_string(), metric.unit.to_string()))
        .collect();
    assert_eq!(
        declared_metrics, in_code,
        "BENCHMARK.json and spec.rs differ"
    );
    for (name, unit) in &declared_metrics {
        let allowed = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        assert!(
            name.len() <= 64 && name.chars().all(|c| allowed(c, "_.-")),
            "{name}"
        );
        assert!(
            unit.len() <= 16 && unit.chars().all(|c| allowed(c, "_/%.-")),
            "{unit}"
        );
    }
    let Some(JsonValue::Array(workloads)) = benchmark.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let declared_workloads: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let workloads_in_code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared_workloads, workloads_in_code);

    let first = smoke_run();
    let second = smoke_run();
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>()
    );
    let mut emitted_workloads: Vec<&str> = first.keys().map(String::as_str).collect();
    emitted_workloads.sort_unstable();
    let mut expected_workloads = workloads_in_code.clone();
    expected_workloads.sort_unstable();
    assert_eq!(emitted_workloads, expected_workloads);

    let mut expected: Vec<(String, String)> = declared_metrics.clone();
    expected.sort();
    for (workload, metrics) in &first {
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, (_, unit))| (name.clone(), unit.clone()))
            .collect();
        assert_eq!(
            emitted, expected,
            "{workload} emits other metrics than declared"
        );
        for metric in END_TO_END.iter().chain(&PER_LAYER).filter(|m| m.exact) {
            assert_eq!(
                metrics[metric.name].0, second[workload][metric.name].0,
                "{workload}: {} is marked exact but differs between two runs of one seed",
                metric.name
            );
        }
        for metric in &END_TO_END {
            assert!(
                metrics[metric.name].0 > 0.0,
                "{workload}: {} is 0",
                metric.name
            );
        }
    }
}
