//! Process-level tests for the metrics surface: `--stats-interval` must emit
//! live progress lines and `--metrics-export` must write a Prometheus text
//! dump whose totals reconcile with the `--verbose` reader statistics — all
//! three are views of the same registry, so the numbers must agree exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
        let path = std::env::temp_dir().join(format!("rgz_metrics_{tag}_{}", std::process::id()));
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

/// Reads one series from a Prometheus text-format dump. `label` narrows the
/// match to a series carrying that `key="value"` pair; `None` requires the
/// bare (unlabeled) series.
fn series_value(export: &str, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
    for line in export.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ')?;
        let matches = match label {
            Some((key, value)) => {
                series.starts_with(&format!("{name}{{"))
                    && series.contains(&format!("{key}=\"{value}\""))
            }
            None => series == name,
        };
        if matches {
            return value.parse().ok();
        }
    }
    None
}

/// Pulls a named count out of the `--verbose` chunk-statistics line, e.g.
/// `rgzip: chunks: 12 speculative, 0 window-known, 1 on-demand, 0 mismatches, ...`.
fn verbose_count(stderr: &str, suffix: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|line| line.contains("chunks:") && line.contains("speculative,"))
        .unwrap_or_else(|| panic!("no chunk statistics line in:\n{stderr}"));
    let mut previous = "";
    for word in line.split([' ', ',']).filter(|w| !w.is_empty()) {
        if word == suffix {
            return previous
                .parse()
                .unwrap_or_else(|_| panic!("unparseable count before {suffix:?}: {line}"));
        }
        previous = word;
    }
    panic!("no {suffix:?} count in: {line}");
}

/// The two numbers of the `--verbose` window-store line that
/// `window_statistics()` reports — `rgzip: index: 11 seek points, 11 windows;
/// window memory: 360448 raw -> 75991 stored bytes (4.74x), ...` — and the
/// two gauges of the export that must equal them.
fn assert_window_store_gauges_match_verbose(stderr: &str, export: &str) {
    let line = stderr
        .lines()
        .find(|line| line.starts_with("rgzip: index:") && line.contains("window memory:"))
        .unwrap_or_else(|| panic!("no window-store line in:\n{stderr}"));
    let before = |suffix: &str| -> u64 {
        let head = line.split(suffix).next().unwrap();
        head.rsplit(' ').next().unwrap().parse().unwrap()
    };
    let (windows, stored_bytes) = (before(" windows;"), before(" stored bytes"));
    assert!(windows > 0 && stored_bytes > 0, "{line}");
    assert_eq!(
        series_value(export, "rgz_window_store_windows", None),
        Some(windows),
        "{line}"
    );
    assert_eq!(
        series_value(export, "rgz_window_store_bytes", None),
        Some(stored_bytes),
        "{line}"
    );
}

/// A decode that never seeks keeps no chunk for random access: the access
/// cache's gauges read 0 in the export, and so does `--verbose`'s
/// `access cache: 0 chunk(s) spanning 0 of 16777216 bytes`.
fn assert_access_cache_empty(stderr: &str, export: &str) {
    for gauge in ["rgz_access_cache_chunks", "rgz_access_cache_bytes"] {
        assert!(export.contains(&format!("# TYPE {gauge} gauge")), "{gauge}");
        assert_eq!(series_value(export, gauge, None), Some(0), "{gauge}");
    }
    let line = stderr
        .lines()
        .find(|line| line.starts_with("rgzip: random access:"))
        .unwrap_or_else(|| panic!("no random-access line in:\n{stderr}"));
    assert!(
        line.contains("; access cache: 0 chunk(s) spanning 0 of "),
        "{line}"
    );
}

#[test]
fn stats_interval_and_export_reconcile_with_verbose_statistics() {
    let dir = TempDir::new("reconcile");
    // Large enough that decoding outlives several 10 ms sampler ticks even on
    // a fast machine, so at least one progress line is guaranteed.
    let data = rgz_datagen::fastq_of_size(4_000_000, 90);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();
    let export_path = dir.file("metrics.prom");
    let index_path = dir.file("corpus.idx");

    let output = run_rgz(&[
        "--chunk-size",
        "64",
        "-P",
        "2",
        "--verbose",
        "--stats-interval",
        "0.01",
        "--export-index",
        path_str(&index_path),
        "--metrics-export",
        path_str(&export_path),
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run failed: {stderr}");
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);

    // At least one live progress line, with every advertised field present.
    let progress = stderr
        .lines()
        .find(|line| line.starts_with("rgzip: progress:"))
        .unwrap_or_else(|| panic!("no progress line on stderr:\n{stderr}"));
    for field in ["%", "in", "out", "MB/s", "eta", "queue"] {
        assert!(
            progress.contains(field),
            "progress line lacks {field:?}: {progress}"
        );
    }
    assert!(!progress.contains("cache"), "{progress}");

    // The Prometheus dump must reconcile exactly with the --verbose counters:
    // both are rendered from the same registry after the pool went idle.
    let export = std::fs::read_to_string(&export_path).unwrap();
    assert!(export.contains("# TYPE rgz_chunks_decoded_total counter"));
    let chunks = |path| series_value(&export, "rgz_chunks_decoded_total", Some(("path", path)));
    assert_eq!(
        chunks("speculative"),
        Some(verbose_count(&stderr, "speculative"))
    );
    assert_eq!(
        chunks("on_demand"),
        Some(verbose_count(&stderr, "on-demand"))
    );
    assert_eq!(
        chunks("window_known"),
        Some(verbose_count(&stderr, "window-known"))
    );
    assert_eq!(
        series_value(&export, "rgz_bytes_out_total", None),
        Some(data.len() as u64),
        "exported output byte counter disagrees with the decoded size"
    );
    assert!(
        series_value(&export, "rgz_read_bytes_total", None).unwrap_or(0) >= compressed.len() as u64,
        "instrumented reads must cover the whole compressed file"
    );

    // So must the buffer pool's line, summed over the three kinds of buffer:
    // `rgzip: buffers: 26 reused, 13 fresh, 25.8 MiB idle`.
    let buffers = stderr
        .lines()
        .find(|line| line.starts_with("rgzip: buffers:"))
        .unwrap_or_else(|| panic!("no buffers line on stderr:\n{stderr}"));
    let takes = |result: &str| -> u64 {
        export
            .lines()
            .filter(|line| line.starts_with("rgz_buffer_pool_takes_total{"))
            .filter(|line| line.contains(&format!("result=\"{result}\"")))
            .map(|line| line.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum()
    };
    assert!(
        buffers.starts_with(&format!(
            "rgzip: buffers: {} reused, {} fresh, ",
            takes("reused"),
            takes("fresh")
        )),
        "{buffers} against {} reused, {} fresh exported",
        takes("reused"),
        takes("fresh")
    );
    assert!(buffers.ends_with(" MiB idle"), "{buffers}");
    assert!(takes("reused") > takes("fresh"), "{buffers}");
    assert!(export.contains("# TYPE rgz_buffer_pool_idle_bytes gauge"));

    // So must the window store's gauges, whoever filled the store: the pass
    // above, or — one more input — an import, before the reader that counts
    // into the registry exists.
    assert_window_store_gauges_match_verbose(&stderr, &export);
    let decoded =
        ["speculative", "window-known", "on-demand"].map(|path| verbose_count(&stderr, path));
    assert!(decoded.iter().sum::<u64>() > 1, "{stderr}");
    assert_access_cache_empty(&stderr, &export);
    let output = run_rgz(&[
        "-P",
        "2",
        "--verbose",
        "--import-index",
        path_str(&index_path),
        "--metrics-export",
        path_str(&export_path),
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run failed: {stderr}");
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);
    let export = std::fs::read_to_string(&export_path).unwrap();
    assert_window_store_gauges_match_verbose(&stderr, &export);
    assert_access_cache_empty(&stderr, &export);
}

#[test]
fn compress_verb_exports_matching_prometheus_totals() {
    let dir = TempDir::new("compress");
    let data = rgz_datagen::base64_random(600_000, 93);
    let input = dir.file("corpus");
    std::fs::write(&input, &data).unwrap();
    let export_path = dir.file("metrics.prom");

    let output = run_rgz(&[
        "compress",
        "--chunk-size",
        "64",
        "-P",
        "2",
        "--metrics-export",
        path_str(&export_path),
        "-o",
        path_str(&dir.file("corpus.gz")),
        path_str(&input),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "compress run failed: {stderr}");

    let export = std::fs::read_to_string(&export_path).unwrap();
    let compressed_size = std::fs::metadata(dir.file("corpus.gz")).unwrap().len();
    assert_eq!(
        series_value(&export, "rgz_compress_bytes_in_total", None),
        Some(data.len() as u64)
    );
    assert_eq!(
        series_value(&export, "rgz_compress_bytes_out_total", None),
        Some(compressed_size)
    );
    assert!(series_value(&export, "rgz_compress_chunks_total", None).unwrap_or(0) > 0);
}

#[test]
fn metrics_are_silent_without_the_flags() {
    let dir = TempDir::new("off");
    let data = rgz_datagen::base64_random(150_000, 94);
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
    assert!(!stderr.contains("rgzip: progress:"));
    assert!(!stderr.contains("Prometheus"));
}
