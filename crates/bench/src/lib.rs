//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`; the micro-benchmarks (Figure 7, Table 2) are the rows
//! of `fig07_bitreader` and `table2_components`.
//!
//! All harness binaries accept `--quick` (or the environment variable
//! `RGZ_BENCH_QUICK=1`) to run at CI-friendly sizes; without it they use
//! larger corpora that take a few minutes in total.
//!
//! Binaries wired into the CI `perf-smoke` job additionally accept `--json`,
//! which replaces the human-readable tables with one machine-readable JSON
//! line on stdout (see [`JsonReport`]).  The checked-in `bench/baseline.json`
//! and the per-PR `BENCH_pr.json` artifact both use this format, one report
//! per line; `perf_compare` diffs them and enforces the regression threshold.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::time::{Duration, Instant};

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_index::GzipIndex;
use rgz_io::SharedFileReader;

pub mod json;

pub use json::JsonValue;

/// Returns true when the caller asked for CI-sized benchmarks.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("RGZ_BENCH_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false)
}

/// Returns true when the caller asked for machine-readable one-line JSON
/// output instead of the human tables.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Accumulates a bench binary's metrics and renders them as the one-line
/// JSON document shared by `BENCH_pr.json`, `bench/baseline.json` and the
/// CI `perf-smoke` job.
///
/// Metric keys are sorted (BTreeMap) so output is diffable run to run.
/// Which build of the inflate fast loop the numbers were taken with rides
/// along as `"kernels":{"inflate":"isa"}` where it was named.
#[derive(Debug, Clone)]
pub struct JsonReport {
    bench: String,
    inflate_isa: Option<&'static str>,
    metrics: BTreeMap<String, f64>,
}

impl JsonReport {
    /// Creates a report for the bench binary `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            inflate_isa: None,
            metrics: BTreeMap::new(),
        }
    }

    /// Records that the inflate fast loop ran its `isa` build in this process.
    pub fn name_inflate_isa(&mut self, isa: &'static str) {
        self.inflate_isa = Some(isa);
    }

    /// Records one metric. Non-finite values are recorded as 0 (JSON has no
    /// NaN/Infinity, and a zero fails a regression gate loudly rather than
    /// poisoning the file).
    pub fn record(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(key.to_string(), value);
    }

    /// Records a whole block of metrics under a common key prefix — used to
    /// fold an `rgz_trace::MetricsReport::flat_metrics()` map into a bench
    /// report.
    pub fn record_block(&mut self, prefix: &str, metrics: &BTreeMap<String, f64>) {
        for (key, value) in metrics {
            self.record(&format!("{prefix}{key}"), *value);
        }
    }

    /// Renders the one-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"bench\":{},\"mode\":{},",
            json::escape_string(&self.bench),
            json::escape_string(if quick_mode() { "quick" } else { "full" }),
        ));
        if let Some(isa) = self.inflate_isa {
            out.push_str(&format!(
                "\"kernels\":{{\"inflate\":{}}},",
                json::escape_string(isa)
            ));
        }
        out.push_str("\"metrics\":{");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json::escape_string(key), value));
        }
        out.push_str("}}");
        out
    }

    /// Prints the report to stdout (the contract of `--json` mode: exactly
    /// one line, nothing else on stdout).
    pub fn emit(&self) {
        println!("{}", self.to_json());
    }
}

/// Picks `full` or `quick` depending on [`quick_mode`].
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Number of repetitions per measurement point.
pub fn repetitions() -> usize {
    if quick_mode() {
        2
    } else {
        3
    }
}

/// Available logical cores.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The list of core counts to sweep (1, 2, 4, … up to the machine size),
/// mirroring the x-axes of Figures 9–11.
pub fn core_counts() -> Vec<usize> {
    let maximum = available_cores();
    let mut counts = vec![1usize];
    while let Some(&last) = counts.last() {
        let next = last * 2;
        if next >= maximum {
            break;
        }
        counts.push(next);
    }
    if *counts.last().unwrap() != maximum {
        counts.push(maximum);
    }
    counts
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Runs `f` `repetitions()` times and returns the best (minimum) duration,
/// which is the least noisy estimator for throughput benchmarks.
pub fn best_of<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best: Option<Duration> = None;
    let mut last_value = None;
    for _ in 0..repetitions() {
        let (value, duration) = time(&mut f);
        best = Some(best.map_or(duration, |b| b.min(duration)));
        last_value = Some(value);
    }
    (last_value.unwrap(), best.unwrap())
}

/// Best of [`repetitions`] decodes of `compressed` by a fresh reader's
/// `decompress_all`, seeded with `index` where one is given, each checked to
/// yield `size` bytes.  `finish` is handed each reader inside the timing; what
/// it returns for the last comes back beside the best time.
pub fn best_decompress_all<T>(
    compressed: &SharedFileReader,
    options: &ParallelGzipReaderOptions,
    index: Option<&GzipIndex>,
    size: usize,
    finish: impl Fn(ParallelGzipReader) -> T,
) -> (T, Duration) {
    best_of(|| {
        let mut reader = match index {
            Some(index) => {
                ParallelGzipReader::with_index(compressed.clone(), options.clone(), index.clone())
            }
            None => ParallelGzipReader::new(compressed.clone(), options.clone()),
        }
        .unwrap();
        assert_eq!(reader.decompress_all().unwrap().len(), size);
        finish(reader)
    })
}

/// `count` deterministic pseudo-random offsets (xorshift from `seed`) at
/// which a read of `read_size` bytes fits into a stream of `total` bytes.
pub fn access_offsets(seed: u64, total: usize, count: usize, read_size: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % (total - read_size) as u64
        })
        .collect()
}

/// Wall time of a seek and a `read_size` read at every offset, in order.
pub fn timed_random_access(
    reader: &mut ParallelGzipReader,
    offsets: &[u64],
    read_size: usize,
) -> Duration {
    let mut buffer = vec![0u8; read_size];
    let start = Instant::now();
    for &offset in offsets {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
    }
    start.elapsed()
}

/// Bandwidth in MB/s (decimal megabytes, as in the paper).
pub fn bandwidth_mb_per_s(bytes: usize, duration: Duration) -> f64 {
    bytes as f64 / 1e6 / duration.as_secs_f64().max(1e-9)
}

/// Prints a standard harness header.
pub fn print_header(title: &str, description: &str) {
    println!("# {title}");
    println!("# {description}");
    println!(
        "# machine: {} logical cores; mode: {}",
        available_cores(),
        if quick_mode() { "quick" } else { "full" }
    );
}

/// Formats a bandwidth series row.
pub fn print_series_row(label: &str, values: &[(usize, f64)]) {
    print!("{label:<28}");
    for (x, bandwidth) in values {
        print!(" {x:>4}:{bandwidth:>9.1}");
    }
    println!();
}

/// The weak-scaling run of Figures 9–11: a corpus of `make_data(size, seed)`
/// that grows with the core count, pigz-style compressed, decompressed by the
/// serial decoder once and at every count of [`core_counts`] by the parallel
/// reader without and with an index, and (`include_pugz`) by the pugz
/// baseline where it accepts the content.  One series row each.
pub fn scaling_run(kind: &str, make_data: fn(usize, u64) -> Vec<u8>, include_pugz: bool) {
    let per_core = scaled(8 << 20, 1 << 20);
    let chunk_size = scaled(512 * 1024, 128 * 1024);
    // Single-threaded baselines, measured once on the single-core corpus.
    let data1 = make_data(per_core, 1);
    let compressed1 = rgz_gzip::GzipWriter::default().compress_pigz_like(&data1, 128 * 1024);
    let (out, duration) = best_of(|| rgz_gzip::decompress(&compressed1).unwrap());
    assert_eq!(out.len(), data1.len());
    print_series_row(
        "gzip (serial baseline)",
        &[(1, bandwidth_mb_per_s(data1.len(), duration))],
    );

    let mut rapid_no_index = Vec::new();
    let mut rapid_index = Vec::new();
    let mut pugz_series = Vec::new();
    for &cores in &core_counts() {
        let data = make_data(per_core * cores, cores as u64);
        let compressed = rgz_gzip::GzipWriter::default().compress_pigz_like(&data, 128 * 1024);
        println!(
            "# cores {cores}: corpus {} MB, compressed {} MB ({kind})",
            data.len() / 1_000_000,
            compressed.len() / 1_000_000
        );

        let options = ParallelGzipReaderOptions {
            parallelization: cores,
            chunk_size,
            ..Default::default()
        };
        let shared = SharedFileReader::from_bytes(compressed.clone());

        let (_, duration) = best_decompress_all(&shared, &options, None, data.len(), drop);
        rapid_no_index.push((cores, bandwidth_mb_per_s(data.len(), duration)));

        // Build the index once, then measure decompression with it.
        let mut index_builder = ParallelGzipReader::new(shared.clone(), options.clone()).unwrap();
        let index = index_builder.build_full_index().unwrap();
        let (_, duration) = best_decompress_all(&shared, &options, Some(&index), data.len(), drop);
        rapid_index.push((cores, bandwidth_mb_per_s(data.len(), duration)));

        if include_pugz {
            let pugz = rgz_baselines::PugzDecompressor {
                threads: cores,
                chunk_size,
                synchronized: true,
            };
            let (result, duration) = best_of(|| pugz.decompress(&compressed));
            match result {
                Ok(out) => {
                    assert_eq!(out.len(), data.len());
                    pugz_series.push((cores, bandwidth_mb_per_s(data.len(), duration)));
                }
                Err(_) => println!("# pugz cannot decompress this corpus (content restriction)"),
            }
        }
    }
    print_series_row("rapidgzip (no index)", &rapid_no_index);
    print_series_row("rapidgzip (index)", &rapid_index);
    if include_pugz && !pugz_series.is_empty() {
        print_series_row("pugz (sync)", &pugz_series);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_counts_are_increasing_and_end_at_the_machine_size() {
        let counts = core_counts();
        assert!(!counts.is_empty());
        assert_eq!(*counts.last().unwrap(), available_cores());
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(counts[0], 1);
    }

    #[test]
    fn a_report_names_the_inflate_build_and_parses_back() {
        let mut report = JsonReport::new("table2_components");
        report.name_inflate_isa("bmi2");
        report.record("a_mb_s", 1.5);
        let value = json::parse(&report.to_json()).unwrap();
        let kernel = value
            .get("kernels")
            .and_then(|kernels| kernels.get("inflate"));
        assert_eq!(kernel.and_then(JsonValue::as_str), Some("bmi2"));
        let metric = value
            .get("metrics")
            .and_then(|metrics| metrics.get("a_mb_s"));
        assert_eq!(metric.and_then(JsonValue::as_number), Some(1.5));
        // No kernel named, no key.
        let plain = json::parse(&JsonReport::new("fig07_bitreader").to_json()).unwrap();
        assert!(plain.get("kernels").is_none());
    }

    #[test]
    fn bandwidth_computation() {
        let bandwidth = bandwidth_mb_per_s(10_000_000, Duration::from_secs(1));
        assert!((bandwidth - 10.0).abs() < 1e-9);
    }

    #[test]
    fn best_of_returns_a_duration() {
        let (value, duration) = best_of(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(duration.as_nanos() > 0 || duration.is_zero());
    }
}
