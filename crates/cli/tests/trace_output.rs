//! Process-level tests for `--trace` and `--trace-report`: run the real `rgz`
//! binary and validate the emitted Chrome trace-event JSON and the aggregated
//! trace report with the bench harness's JSON parser.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rgz_bench::json::{parse, JsonValue};

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_rgz")
}

fn run_rgz(arguments: &[&str]) -> Output {
    Command::new(binary())
        .args(arguments)
        .output()
        .expect("failed to spawn the rgz binary")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("rgz_trace_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

fn number(value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(|v| v.as_number())
        .unwrap_or_else(|| panic!("missing number {key} in {value:?}"))
}

fn events(trace: &JsonValue) -> &[JsonValue] {
    match trace {
        JsonValue::Array(events) => events,
        other => panic!("trace is not a JSON array: {other:?}"),
    }
}

#[test]
fn trace_flag_emits_parseable_chrome_trace_covering_the_input() {
    let dir = TempDir::new("chrome");
    let data = rgz_datagen::fastq_of_size(700_000, 90);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let compressed_size = compressed.len() as u64;
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();
    let trace_path = dir.file("trace.json");

    let output = run_rgz(&[
        "--chunk-size",
        "64",
        "-P",
        "2",
        "--verbose",
        "--trace",
        path_str(&trace_path),
        "--trace-report=json",
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    assert!(
        output.status.success(),
        "traced run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);

    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap())
        .expect("trace file is not valid JSON");
    let events = events(&trace);
    assert!(!events.is_empty());

    // One named track per worker thread (plus the main thread's track).
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .expect("thread_name metadata without a name")
        })
        .collect();
    for worker in ["rgz-worker-0", "rgz-worker-1"] {
        assert!(
            track_names.contains(&worker),
            "missing a track for {worker}: {track_names:?}"
        );
    }

    // Chunk decode spans must cover the whole compressed input: collect the
    // absolute byte ranges of all decode spans and union them.
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut span_count = 0usize;
    let mut commit_instants = 0u64;
    let mut window_known_instants = 0u64;
    for event in events {
        let phase = event.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let name = event.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if phase == "i" && name == "spec_commit" {
            commit_instants += 1;
        }
        if phase == "i" && name == "window_known_commit" {
            window_known_instants += 1;
        }
        if phase != "X" {
            continue;
        }
        span_count += 1;
        if matches!(
            name,
            "decode_two_stage" | "decode_one_stage" | "random_access"
        ) {
            let args = event.get("args").expect("span without args");
            if args.get("compressed_start").is_some() {
                let outcome = args.get("outcome").and_then(|o| o.as_str()).unwrap_or("");
                if outcome == "not_found" || outcome == "error" {
                    continue;
                }
                ranges.push((
                    number(args, "compressed_start") as u64,
                    number(args, "compressed_end") as u64,
                ));
            }
        }
    }
    assert!(span_count > 0, "no complete (X) span events in the trace");
    assert!(!ranges.is_empty(), "no decode spans with byte ranges");
    ranges.sort_unstable();
    assert_eq!(ranges[0].0, 0, "first decode span must start at byte 0");
    let mut covered_to = 0u64;
    for (start, end) in &ranges {
        assert!(
            *start <= covered_to,
            "gap in decode span coverage before byte {start} (covered to {covered_to})"
        );
        covered_to = covered_to.max(*end);
    }
    assert!(
        covered_to >= compressed_size,
        "decode spans cover only {covered_to} of {compressed_size} compressed bytes"
    );

    // The aggregated metrics JSON (one object line on stderr) must reconcile
    // with the reader statistics printed by --verbose.
    let stderr = String::from_utf8_lossy(&output.stderr);
    let metrics_line = stderr
        .lines()
        .find(|line| line.starts_with('{') && line.contains("\"wall_us\""))
        .expect("no metrics JSON line on stderr");
    let metrics = parse(metrics_line).expect("metrics line is not valid JSON");
    let speculation = metrics.get("speculation").expect("no speculation block");
    let committed = number(speculation, "committed_chunks") as u64;
    assert_eq!(
        committed, commit_instants,
        "metrics and trace disagree on committed chunks"
    );

    let verbose_line = stderr
        .lines()
        .find(|line| line.contains("speculative,"))
        .expect("no chunk statistics in --verbose output");
    let statistics_committed: u64 = verbose_line
        .split("chunks: ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("unparseable chunk statistics line");
    assert_eq!(
        committed, statistics_committed,
        "metrics JSON disagrees with ReaderStatistics:\n{stderr}"
    );
    // The same three views of the chunks decoded from a known start.
    let window_known = number(speculation, "window_known_chunks") as u64;
    assert_eq!(window_known, window_known_instants);
    let statistics_window_known: u64 = verbose_line
        .split("speculative, ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("no window-known count in the chunk statistics line");
    assert_eq!(window_known, statistics_window_known, "{stderr}");

    let stages = metrics
        .get("stages")
        .and_then(|s| s.as_object())
        .expect("no stages object");
    let stage_count = |stages: &BTreeMap<String, JsonValue>, name: &str| {
        stages.get(name).map(|s| number(s, "count") as u64)
    };
    assert_eq!(
        stage_count(stages, "marker_replace"),
        Some(committed),
        "every committed chunk gets exactly one marker_replace span"
    );
    assert!(stage_count(stages, "crc_fold").unwrap_or(0) > 0);
    assert!(number(&metrics, "wall_us") > 0.0);
}

/// The serial path traces and reports like the parallel one; the `--metrics`
/// spelling `--trace-report` once had is gone.
#[test]
fn serial_path_traces_and_reports_metrics() {
    let dir = TempDir::new("serial");
    let data = rgz_datagen::base64_random(200_000, 91);
    std::fs::write(
        dir.file("corpus.gz"),
        rgz_gzip::GzipWriter::default().compress(&data),
    )
    .unwrap();
    let trace_path = dir.file("trace.json");

    let output = run_rgz(&[
        "--serial",
        "--trace",
        path_str(&trace_path),
        "--trace-report",
        "-o",
        path_str(&dir.file("out")),
        path_str(&dir.file("corpus.gz")),
    ]);
    assert!(
        output.status.success(),
        "serial traced run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);

    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap())
        .expect("serial trace file is not valid JSON");
    let serial_span = events(&trace).iter().any(|event| {
        event.get("ph").and_then(|p| p.as_str()) == Some("X")
            && event.get("name").and_then(|n| n.as_str()) == Some("serial_decode")
    });
    assert!(serial_span, "missing serial_decode span in the trace");

    // Human-readable trace report on stderr.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("trace:") && stderr.contains("serial_decode"),
        "missing trace report:\n{stderr}"
    );
    let rejected = run_rgz(&["--metrics", path_str(&dir.file("corpus.gz"))]);
    let stderr = String::from_utf8_lossy(&rejected.stderr);
    assert!(
        !rejected.status.success() && stderr.contains("unknown argument: --metrics"),
        "--metrics was not rejected:\n{stderr}"
    );
}

#[test]
fn untraced_runs_emit_neither_trace_nor_metrics() {
    let dir = TempDir::new("off");
    let data = rgz_datagen::base64_random(150_000, 92);
    std::fs::write(
        dir.file("corpus.gz"),
        rgz_gzip::GzipWriter::default().compress(&data),
    )
    .unwrap();
    let output = run_rgz(&[
        "-o",
        path_str(&dir.file("out")),
        path_str(&dir.file("corpus.gz")),
    ]);
    assert!(output.status.success());
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("\"wall_us\""));
    assert!(!stderr.contains("trace events"));
}
