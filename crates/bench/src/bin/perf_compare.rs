//! Compares a per-PR bench report (`BENCH_pr.json`) against the checked-in
//! `bench/baseline.json` and fails (exit code 1) on regressions.
//!
//! Both files hold one [`rgz_bench::JsonReport`] line per bench binary:
//!
//! ```json
//! {"bench":"table2_components","mode":"quick","metrics":{"speedup_base64":1.5,...}}
//! ```
//!
//! Rules, applied per metric present in **both** files:
//!
//! * higher is better (all metrics are bandwidths or speedups);
//! * fail when `current < baseline * (1 - threshold)` (default threshold
//!   0.15, override with `--threshold 0.10`);
//! * a baseline line may carry a `"floors"` object of absolute minimums
//!   (machine-independent gates like the fast-loop speedup ratios); fail
//!   when `current < floor` regardless of the relative threshold;
//! * every baseline key must be present in the current report: a missing
//!   bench line or metric counts as a failure, so a bench bin dropping out
//!   of the CI invocation list cannot pass unnoticed.
//!
//! Absolute bandwidths vary with the runner hardware, so the baseline keeps
//! the relative threshold loose; the `speedup_*` ratios are hardware-
//! independent and gated by floors.
//!
//! Usage: `perf_compare <baseline.json> <current.json> [--threshold 0.15]`

use std::collections::BTreeMap;
use std::process::ExitCode;

use rgz_bench::json::{parse, JsonValue};

struct Report {
    metrics: BTreeMap<String, f64>,
    floors: BTreeMap<String, f64>,
}

fn number_map(value: Option<&JsonValue>) -> BTreeMap<String, f64> {
    value
        .and_then(JsonValue::as_object)
        .map(|map| {
            map.iter()
                .filter_map(|(k, v)| v.as_number().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

/// Parses a JSONL report file into `bench name -> Report`.
fn load_reports(path: &str) -> Result<BTreeMap<String, Report>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut reports = BTreeMap::new();
    for (index, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
        let bench = value
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}:{}: missing \"bench\" key", index + 1))?
            .to_string();
        reports.insert(
            bench,
            Report {
                metrics: number_map(value.get("metrics")),
                floors: number_map(value.get("floors")),
            },
        );
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut threshold = 0.15f64;
    let mut paths = Vec::new();
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        if arg == "--threshold" {
            match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(value) if (0.0..1.0).contains(&value) => threshold = value,
                _ => {
                    eprintln!("--threshold needs a value in [0, 1)");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!("usage: perf_compare <baseline.json> <current.json> [--threshold 0.15]");
        return ExitCode::from(2);
    };

    let (baseline, current) = match (load_reports(baseline_path), load_reports(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut compared = 0usize;
    println!(
        "{:<24} {:<32} {:>12} {:>12} {:>8}  verdict",
        "bench", "metric", "baseline", "current", "ratio"
    );
    for (bench, base_report) in &baseline {
        let Some(current_report) = current.get(bench) else {
            // A bench bin silently dropping out of CI must not pass: every
            // baseline key it carried counts as a failed check.
            let missing = (base_report.metrics.len() + base_report.floors.len()).max(1);
            eprintln!(
                "error: bench {bench} missing from {current_path} ({missing} baseline key(s) unchecked)"
            );
            failures += missing;
            continue;
        };
        for (metric, &base_value) in &base_report.metrics {
            let Some(&current_value) = current_report.metrics.get(metric) else {
                eprintln!("error: metric {bench}/{metric} missing from {current_path}");
                failures += 1;
                continue;
            };
            compared += 1;
            let ratio = if base_value > 0.0 {
                current_value / base_value
            } else {
                1.0
            };
            let floor = base_report.floors.get(metric).copied();
            let below_threshold = current_value < base_value * (1.0 - threshold);
            let below_floor = floor.is_some_and(|f| current_value < f);
            let verdict = if below_floor {
                failures += 1;
                "FAIL (floor)"
            } else if below_threshold {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{bench:<24} {metric:<32} {base_value:>12.3} {current_value:>12.3} {ratio:>7.2}x  {verdict}"
            );
        }
        // Floors apply even to metrics without a baseline value.
        for (metric, &floor) in &base_report.floors {
            if base_report.metrics.contains_key(metric) {
                continue;
            }
            let Some(&current_value) = current_report.metrics.get(metric) else {
                eprintln!("warning: floored metric {bench}/{metric} missing from {current_path}");
                failures += 1;
                continue;
            };
            compared += 1;
            let verdict = if current_value < floor {
                failures += 1;
                "FAIL (floor)"
            } else {
                "ok"
            };
            println!(
                "{bench:<24} {metric:<32} {floor:>11.3}f {current_value:>12.3} {:>8}  {verdict}",
                ""
            );
        }
    }
    println!();
    if failures > 0 {
        println!("perf_compare: {failures} of {compared} checks FAILED (threshold {threshold})");
        ExitCode::FAILURE
    } else {
        println!("perf_compare: all {compared} checks passed (threshold {threshold})");
        ExitCode::SUCCESS
    }
}
