//! One workload, start to finish: set-up, the timed child for the
//! end-to-end metrics, and the traced run, layer timings and comparators
//! for the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use rgz_bench::json::{self, JsonValue};
use rgz_trace::TraceSink;

use crate::layers::{self, BenchTrace};
use crate::op::{self, ReaderJob, ReaderRun, Tally};
use crate::prepare::{self, Files, Prepared, RunOptions};
use crate::spec::{Corpus, Kind, Workload, END_TO_END, PER_LAYER};
use crate::{stats, traced};

/// Which metric sets a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: tracing off, end-to-end metrics only.
    EndToEnd,
    /// `--trace 1`: the traced run and the per-layer metrics only.
    PerLayer,
    /// No `--trace`: both, for people.
    Both,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Seconds the end-to-end timed phase measures for.
    pub seconds: f64,
    pub mode: Mode,
    pub options: RunOptions,
}

/// Untraced repetitions behind the per-layer ratios (the end-to-end
/// metrics proper come from the child, with at least [`op::MIN_REPS`]).
const REFERENCE_REPS: usize = 3;
const REFERENCE_REPS_ONE_THREAD: usize = 2;

pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted and failed, set-up's included.
    pub tally: Tally,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(metric, _, _)| *metric == name)
            .map(|(_, value, _)| *value)
    }

    fn metrics_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; `+ 0.0` turns -0 into 0.
                let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", metrics.join(", "))
    }

    /// The benchmark contract's result line.
    pub fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.tally.failed == 0,
            self.tally.ops,
            self.tally.failed,
            self.metrics_json()
        )
    }

    /// The line recorded in `BENCH_<pr>.json`.
    pub fn record_json(&self, config: &Config) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            config.seed,
            config.options.threads,
            self.tally.failed == 0,
            self.tally.ops,
            self.tally.failed,
            self.metrics_json()
        )
    }
}

/// Directory for generated inputs and trace files: `<target dir>/ledger`,
/// next to the profile directory the binary runs from.
pub fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("the executable has no directory")?;
    Ok(profile_dir.parent().unwrap_or(profile_dir).join("ledger"))
}

/// One metric set of a workload and the operations behind it.
struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
}

/// Runs the timed phase in a child process and turns its JSON line into the
/// end-to-end metrics.
fn end_to_end(prepared: &Prepared, config: &Config) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--child", prepared.workload.name, "--dir"])
        .arg(&prepared.files.dir)
        .args(["--seconds", &config.seconds.to_string()]);
    if config.options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the child process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let value = json::parse(line)?;
    let number = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_number)
            .ok_or_else(|| format!("the child's result lacks {key}"))
    };

    let mut metrics = BTreeMap::new();
    for name in [
        "throughput_mb_s",
        "throughput_p1_mb_s",
        "op_latency_ms",
        "peak_heap_mb",
    ] {
        metrics.insert(name, number(name)?);
    }
    let stored_bytes = match prepared.workload.kind {
        Kind::Compress => number("compressed_bytes")?,
        _ => prepared.gz.len() as f64,
    };
    metrics.insert(
        "compressed_size_ratio",
        prepared.data.len() as f64 / stored_bytes.max(1.0),
    );
    metrics.insert("setup_s", stats::median(&prepared.setup_seconds));
    Ok(Measured {
        metrics,
        tally: Tally {
            ops: number("ops")? as u64,
            failed: number("failed")? as u64,
        },
    })
}

/// Times the sibling `rgz` binary doing the workload's operation; `None`
/// when the workload has no CLI equivalent or the binary is not there.
fn cli_seconds(prepared: &Prepared, config: &Config, tally: &mut Tally) -> Option<f64> {
    let kind = prepared.workload.kind;
    if kind == Kind::Seek {
        eprintln!("# note: the CLI cannot seek; cli.* read 0 on this workload");
        return None;
    }
    let rgz = std::env::current_exe().ok()?.with_file_name("rgz");
    if !rgz.exists() {
        eprintln!("# note: no rgz binary next to the ledger; cli.* read 0");
        return None;
    }
    let files = &prepared.files;
    let threads = config.options.threads.to_string();
    let cli_out = files.dir.join("cli.gz");
    let newlines = prepared.data.iter().filter(|&&b| b == b'\n').count();
    let mut samples = Vec::new();
    for repetition in 0..=REFERENCE_REPS {
        let mut command = Command::new(&rgz);
        match kind {
            Kind::Compress => {
                command.args(["compress", "-P", &threads, "-o"]);
                command.arg(&cli_out).arg(files.plain());
            }
            _ => {
                let chunk_kib = (config.options.chunk_size / 1024).to_string();
                command.args(["-d", "-P", &threads, "--chunk-size", &chunk_kib]);
                command.arg("--count-lines");
                if kind == Kind::Indexed {
                    command.arg("--import-index").arg(files.index());
                }
                command.arg(files.gz());
            }
        }
        let start = Instant::now();
        let output = command.stderr(Stdio::null()).output().ok()?;
        let seconds = start.elapsed().as_secs_f64();
        let correct = output.status.success()
            && match kind {
                // The compressor is deterministic: check the first output.
                Kind::Compress if repetition == 0 => std::fs::read(&cli_out)
                    .ok()
                    .and_then(|bytes| rgz_gzip::decompress(&bytes).ok())
                    .is_some_and(|restored| restored == prepared.data),
                Kind::Compress => true,
                _ => String::from_utf8_lossy(&output.stdout).trim() == newlines.to_string(),
            };
        tally.check(correct, "rgz CLI output");
        if repetition > 0 {
            samples.push(seconds);
        }
    }
    Some(stats::median(&samples))
}

/// Decompresses the workload's file with the system `gzip`, checking its
/// output; MB/s, or `None` when there is no `gzip`.
fn system_gzip_mb_s(prepared: &Prepared, tally: &mut Tally) -> Option<f64> {
    let start = Instant::now();
    let mut child = Command::new("gzip")
        .arg("-dc")
        .arg(prepared.files.gz())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut sink = op::Sink::hashing();
    let copied = std::io::copy(&mut child.stdout.take()?, &mut sink);
    let status = child.wait();
    let seconds = start.elapsed().as_secs_f64();
    tally.check(
        copied.is_ok()
            && status.is_ok_and(|s| s.success())
            && sink.crc32() == Some(prepared.manifest.crc32),
        "system gzip output",
    );
    Some(prepared.data.len() as f64 / 1e6 / seconds.max(1e-9))
}

/// What the untraced and traced runs of a workload's operation give the
/// derived per-layer metrics.
struct Reference {
    /// Trace of the one traced reader run.
    sink: Arc<TraceSink>,
    /// Median untraced seconds of the reader operation that was traced.
    reader_seconds: f64,
    /// Median seconds of one of the workload's own operations (a whole
    /// pass, one seek + read, one compression) at `P` threads.
    seconds_at_p: f64,
}

/// Runs the workload's operation untraced at `P` threads and at one, and its
/// reader operation once traced; records `core.*`, `fetcher.*` and
/// `compress.*` and writes the reader's trace file.
fn reference_runs(
    prepared: &Prepared,
    config: &Config,
    root: &Path,
    metrics: &mut BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) -> Result<Reference, String> {
    let workload = prepared.workload;
    let options = &config.options;
    let files = &prepared.files;
    let threads = options.threads;

    // The reader operation that gets traced is the workload's own, or for
    // the compress workload the round trip of its output through the reader.
    let plain: Option<Arc<[u8]>> =
        (workload.kind == Kind::Compress).then(|| Arc::from(&prepared.data[..]));
    let compressed = plain.as_ref().map(|plain| op::run_compress(plain, threads));
    let members = compressed.as_ref().map_or(0, |(_, stream)| stream.members);
    metrics.insert("compress.members", members as f64);
    metrics.insert("compress.index_bytes", 0.0);
    if let Some((_, stream)) = &compressed {
        tally.add(1, 0);
        let reader_options = options.reader(threads);
        op::check_compressed(stream, files, &prepared.manifest, reader_options, tally)?;
        metrics.insert("compress.index_bytes", stream.index.export().len() as f64);
    }
    let job = |threads: usize, trace: Option<Arc<TraceSink>>, check_crc: bool| {
        let mut reader_options = options.reader(threads);
        reader_options.trace = trace;
        match &compressed {
            Some(_) => ReaderJob {
                gz: files.compressed_out(),
                index: Some(files.compressed_out_index()),
                seeks: None,
                options: reader_options,
                length: prepared.manifest.length,
                crc32: check_crc.then_some(prepared.manifest.crc32),
                members: members as u64,
            },
            None => {
                let mut job = op::reader_job(
                    workload.kind,
                    files,
                    &prepared.manifest,
                    reader_options,
                    check_crc,
                );
                // Half a seek pass (ten tours): these runs feed ratios and
                // shares, and three whole passes would not fit the time cap.
                job.seeks = job.seeks.map(|seeks| &seeks[..seeks.len() / 2]);
                job
            }
        }
    };

    // Untraced, untraced, traced, untraced: the traced run sits among the
    // runs it is compared with.  A seek pass is a hundred checked samples
    // already and takes seconds, so it runs once each way with no warm-up.
    let (reference_reps, one_thread_reps) = match workload.kind {
        Kind::Seek => (1, 1),
        _ => {
            tally.reader(&job(threads, None, true))?;
            (REFERENCE_REPS, REFERENCE_REPS_ONE_THREAD)
        }
    };
    let mut untraced = Vec::new();
    for _ in 1..reference_reps {
        untraced.push(tally.reader(&job(threads, None, false))?);
    }
    let sink = Arc::new(TraceSink::new_enabled());
    let traced_run = tally.reader(&job(threads, Some(sink.clone()), false))?;
    untraced.push(tally.reader(&job(threads, None, false))?);
    let median_of = |runs: &[ReaderRun], seconds: fn(&ReaderRun) -> f64| {
        stats::median(&runs.iter().map(seconds).collect::<Vec<_>>())
    };
    let reader_seconds = median_of(&untraced, |run| run.seconds);
    metrics.extend(traced::reader_metrics(&sink, &traced_run, threads));
    metrics.insert(
        "core.trace_overhead_ratio",
        reader_seconds / traced_run.seconds.max(1e-9),
    );
    std::fs::write(
        root.join(format!("{}.reader.trace.json", workload.name)),
        rgz_trace::chrome_trace_json(&sink),
    )
    .map_err(|e| e.to_string())?;

    let (seconds_at_p, seconds_at_1) = match (&plain, &compressed) {
        (Some(plain), Some((first, _))) => {
            let mut time = |threads: usize, reps: usize| {
                tally.add(reps as u64, 0);
                (0..reps)
                    .map(|_| op::run_compress(plain, threads).0)
                    .collect::<Vec<_>>()
            };
            let mut at_p = time(threads, REFERENCE_REPS - 1);
            at_p.push(*first);
            let at_1 = time(1, REFERENCE_REPS_ONE_THREAD);
            (stats::median(&at_p), stats::median(&at_1))
        }
        _ => {
            let mut at_1 = Vec::new();
            for _ in 0..one_thread_reps {
                let mut job = job(1, None, false);
                // Five tours are enough for the one-thread side of a ratio.
                job.seeks = job.seeks.map(|seeks| &seeks[..seeks.len() / 2]);
                at_1.push(tally.reader(&job)?);
            }
            // The seek workload's operations are its reads, not the pass.
            let per_op: fn(&ReaderRun) -> f64 = match workload.kind {
                Kind::Seek => |run| run.seconds / run.ops.max(1) as f64,
                _ => |run| run.seconds,
            };
            (median_of(&untraced, per_op), median_of(&at_1, per_op))
        }
    };
    metrics.insert(
        "core.parallel_efficiency",
        seconds_at_1 / (threads as f64 * seconds_at_p).max(1e-9),
    );
    Ok(Reference {
        sink,
        reader_seconds,
        seconds_at_p,
    })
}

fn per_layer(prepared: &Prepared, config: &Config, root: &Path) -> Result<Measured, String> {
    let workload = prepared.workload;
    let threads = config.options.threads;
    let megabytes = prepared.data.len() as f64 / 1e6;
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let reference = reference_runs(prepared, config, root, &mut metrics, &mut tally)?;

    // Each layer from outside, on this workload's bytes.
    let mut bench_trace = BenchTrace::default();
    let layers = layers::measure(prepared, &config.options, &mut bench_trace)?;
    tally.merge(layers.checks);
    metrics.extend(layers.metrics.iter().map(|(name, value)| (*name, *value)));

    // What one thread with no cache-and-prefetch machinery achieves: the
    // serial decoder (half the file on average before a random offset), or
    // the chunk compressor.
    let serial_seconds = bench_trace.seconds("gzip.serial_decompress");
    let comparator_seconds = match workload.kind {
        Kind::Seek => serial_seconds / 2.0,
        Kind::Compress => megabytes / metrics["deflate.compress_chunk_mb_s"].max(1e-9),
        _ => serial_seconds,
    };
    metrics.insert(
        "core.speedup_vs_serial",
        comparator_seconds / reference.seconds_at_p.max(1e-9),
    );

    // The part of the run the layers do not explain.
    let predicted = match workload.kind {
        Kind::Seek => {
            traced::on_demand_decodes(&reference.sink) as f64 * layers.seconds_per_chunk_decode
        }
        _ => layers.serial_seconds + layers.parallel_seconds / threads as f64,
    };
    let measured = match workload.kind {
        Kind::Compress => reference.seconds_at_p,
        _ => reference.reader_seconds,
    };
    metrics.insert(
        "core.model_residual_pct",
        100.0 * (measured - predicted) / measured.max(1e-9),
    );

    // Comparators.
    let cli = cli_seconds(prepared, config, &mut tally);
    metrics.insert("cli.mb_s", cli.map_or(0.0, |seconds| megabytes / seconds));
    metrics.insert(
        "cli.overhead_pct",
        cli.map_or(0.0, |seconds| {
            100.0 * (seconds - reference.seconds_at_p) / reference.seconds_at_p
        }),
    );
    let pugz =
        (workload.corpus == Corpus::Base64 && workload.kind == Kind::Sequential).then(|| {
            // pugz only accepts printable single-member input.
            let decompressor = rgz_baselines::PugzDecompressor {
                threads,
                ..Default::default()
            };
            let restored =
                bench_trace.time("baselines.pugz", 0, prepared.data.len() as u64, || {
                    decompressor.decompress(&prepared.gz)
                });
            tally.check(
                restored.is_ok_and(|bytes| bytes == prepared.data),
                "pugz output",
            );
            megabytes / bench_trace.seconds("baselines.pugz").max(1e-9)
        });
    metrics.insert("baselines.pugz_mb_s", pugz.unwrap_or(0.0));
    let gzip = system_gzip_mb_s(prepared, &mut tally);
    if gzip.is_none() {
        eprintln!("# note: no system gzip; baselines.system_gzip_mb_s reads 0");
    }
    metrics.insert("baselines.system_gzip_mb_s", gzip.unwrap_or(0.0));

    std::fs::write(
        root.join(format!("{}.bench.trace.json", workload.name)),
        bench_trace.chrome_trace_json(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Measured { metrics, tally })
}

/// Sets one workload up, measures it as `config.mode` asks and removes its
/// generated files again.
pub fn run_workload(workload: &'static Workload, config: &Config) -> Result<Outcome, String> {
    let root = work_root()?;
    let dir = root.join(format!("run-{}-{}", std::process::id(), workload.name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = measure(workload, config, &root, &Files::new(&dir));
    // Best effort: a failed removal must not mask the run's own result.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    workload: &'static Workload,
    config: &Config,
    root: &Path,
    files: &Files,
) -> Result<Outcome, String> {
    let prepared = prepare::prepare(workload, config.seed, files, &config.options)?;
    eprintln!(
        "# {}: {} -> {} bytes, set up in {:.2} s",
        workload.name,
        prepared.data.len(),
        prepared.gz.len(),
        stats::median(&prepared.setup_seconds)
    );
    let mut outcome = Outcome {
        workload: workload.name,
        tally: prepared.checks,
        metrics: Vec::new(),
    };
    if config.mode != Mode::PerLayer {
        let end_to_end = end_to_end(&prepared, config)?;
        outcome.tally.merge(end_to_end.tally);
        for metric in &END_TO_END {
            if let Some(&value) = end_to_end.metrics.get(metric.name) {
                outcome.metrics.push((metric.name, value, metric.unit));
            }
        }
    }
    if config.mode != Mode::EndToEnd {
        let per_layer = per_layer(&prepared, config, root)?;
        outcome.tally.merge(per_layer.tally);
        for metric in &PER_LAYER {
            let value = per_layer
                .metrics
                .get(metric.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", metric.name))?;
            outcome.metrics.push((metric.name, *value, metric.unit));
        }
    }
    Ok(outcome)
}
