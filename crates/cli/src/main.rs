//! `rgzip` — a rapidgzip-style command line tool.
//!
//! ```text
//! rgzip [OPTIONS] <FILE>
//! rgzip compress [OPTIONS] <FILE>
//!
//!   -d, --decompress          decompress FILE to stdout (default action)
//!   -P, --threads <N>         number of decompression threads (default: all cores)
//!       --chunk-size <KiB>    compressed chunk size in KiB (default: 4096)
//!       --count-lines         count newlines instead of writing the output
//!       --export-index <PATH> write the seek-point index to PATH
//!       --import-index <PATH> load a seek-point index from PATH; the format
//!                             (native v1/v2/v3, gztool .gzi, indexed_gzip) is
//!                             autodetected from the magic bytes
//!       --index-format <FMT>  exported index format: v3 (compressed windows +
//!                             per-point CRC-32 fragments for verified random
//!                             access, default), gztool (.gzi) or
//!                             indexed-gzip (GZIDX)
//!       --verify              verify member CRC-32 and ISIZE trailers while
//!                             decompressing (default)
//!       --no-verify           skip checksum verification (faster, but silent
//!                             corruption goes undetected)
//!       --serial              use the single-threaded decoder (baseline)
//!       --trace <PATH>        record per-chunk pipeline events and write them
//!                             as Chrome trace-event JSON to PATH (load in
//!                             ui.perfetto.dev or chrome://tracing)
//!       --trace-report[=json] print an aggregated trace report (per-stage
//!                             latency percentiles, worker utilization,
//!                             speculation waste, prefetch hit rate) to stderr;
//!                             `=json` emits one machine-readable JSON line
//!       --stats-interval <S>  print a live one-line progress report (input/
//!                             output MB/s, ETA, pool queue depth) to stderr
//!                             every S seconds of
//!                             parallel decompression, computed from the
//!                             metrics registry as the output is written
//!       --metrics-export <P>  write every metric series in Prometheus text
//!                             exposition format (0.0.4) to P at exit
//!   -v, --verbose             print the selected SIMD kernels, reader
//!                             statistics and index/window memory usage to
//!                             stderr
//!   -o, --output <PATH>       write output to PATH instead of stdout
//!   -h, --help                show this help
//!
//! FILE may be `-` for standard input.  Input that is not a regular file —
//! `-`, a pipe, a FIFO — has no size to cut chunks of: it is read whole and
//! decoded as `--serial` decodes, and takes no index to import or export.
//!
//! The `compress` verb runs the chunk-parallel write path instead:
//!
//!   -l, --level <0-9>         gzip-style compression level (default: 6)
//!       --bgzf                emit BGZF (64 KiB-input blocks with the BC
//!                             extra subfield) instead of pigz-style members
//!   -P, --threads <N>         number of compression threads
//!       --chunk-size <KiB>    input bytes per parallel work unit (default: 128)
//!       --member-size <KiB>   input bytes per gzip member (pigz mode,
//!                             default: 2048)
//!       --export-index <PATH> write the index captured during compression
//!                             (seek points + CRC-32 fragments) to PATH
//!       --index-format <FMT>  exported index format (default: v3)
//!   -o, --output <PATH>       output path (default: FILE.gz)
//!   -v, --verbose             print member/chunk/index statistics to stderr
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics, VerificationMode};
use rgz_index::GzipIndex;
use rgz_interop::AnyIndexFormat;
use rgz_io::SharedFileReader;
use rgz_metrics::{names, MetricsRegistry, MetricsSnapshot};
use rgz_trace::{chrome_trace_json, MetricsReport, Outcome, Stage, TraceSink};

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Text,
    Json,
}

/// Both verbs' options: the input file and the flags they share first, then
/// those only decompression takes, then those only `compress` takes.
#[derive(Default)]
struct Options {
    file: String,
    threads: usize,
    chunk_size_kib: usize,
    export_index: Option<String>,
    index_format: AnyIndexFormat,
    output: Option<String>,
    verbose: bool,
    metrics_export: Option<String>,

    count_lines: bool,
    import_index: Option<String>,
    verification: VerificationMode,
    serial: bool,
    trace: Option<String>,
    trace_report: Option<ReportFormat>,
    stats_interval: Option<f64>,

    level: u8,
    bgzf: bool,
    member_size_kib: usize,
}

fn print_usage(compress: bool) {
    if compress {
        eprintln!("usage: rgzip compress [-l 0-9] [--bgzf] [-P N] [--chunk-size KiB]");
        eprintln!("                      [--member-size KiB] [--export-index PATH]");
        eprintln!("                      [--index-format v3|gztool|indexed-gzip]");
        eprintln!("                      [--metrics-export PATH]");
        eprintln!("                      [-v] [-o OUTPUT] FILE");
        return;
    }
    eprintln!("usage: rgzip [-d] [-P N] [--chunk-size KiB] [--count-lines]");
    eprintln!("             [--export-index PATH] [--import-index PATH]");
    eprintln!("             [--index-format v3|gztool|indexed-gzip]");
    eprintln!("             [--verify|--no-verify] [--serial] [-v]");
    eprintln!("             [--trace PATH] [--trace-report[=json]]");
    eprintln!("             [--stats-interval SECS] [--metrics-export PATH]");
    eprintln!("             [-o OUTPUT] FILE|-");
    eprintln!("       rgzip compress [OPTIONS] FILE   (see `rgzip compress --help`)");
}

/// Parses the arguments of decompression, or of `compress` if `compress`:
/// the flags both take, each verb's own, and the input file.
fn parse_arguments(
    compress: bool,
    mut arguments: impl Iterator<Item = String>,
) -> Result<Options, String> {
    let mut options = Options {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        chunk_size_kib: if compress { 128 } else { 4096 },
        level: 6,
        member_size_kib: 2048,
        ..Options::default()
    };
    let decompress = !compress;
    while let Some(argument) = arguments.next() {
        let mut value = |flag: &str| {
            arguments
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match argument.as_str() {
            "-h" | "--help" => {
                print_usage(compress);
                std::process::exit(0);
            }
            "-v" | "--verbose" => options.verbose = true,
            "-P" | "--threads" => options.threads = parsed(value("-P")?, "thread count")?,
            "--chunk-size" => {
                options.chunk_size_kib = parsed(value("--chunk-size")?, "chunk size")?;
            }
            "--export-index" => options.export_index = Some(value("--export-index")?),
            "--index-format" => options.index_format = value("--index-format")?.parse()?,
            "-o" | "--output" => options.output = Some(value("-o")?),
            "--metrics-export" => options.metrics_export = Some(value("--metrics-export")?),

            "-d" | "--decompress" if decompress => {}
            "--verify" if decompress => options.verification = VerificationMode::Full,
            "--no-verify" if decompress => options.verification = VerificationMode::Off,
            "--serial" if decompress => options.serial = true,
            "--count-lines" if decompress => options.count_lines = true,
            "--import-index" if decompress => options.import_index = Some(value("--import-index")?),
            "--trace" if decompress => options.trace = Some(value("--trace")?),
            "--trace-report" | "--trace-report=text" if decompress => {
                options.trace_report = Some(ReportFormat::Text);
            }
            "--trace-report=json" if decompress => options.trace_report = Some(ReportFormat::Json),
            "--stats-interval" if decompress => {
                let seconds: f64 = parsed(value("--stats-interval")?, "stats interval")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("invalid stats interval: {seconds} (expected > 0)"));
                }
                options.stats_interval = Some(seconds);
            }

            "--bgzf" if compress => options.bgzf = true,
            "-l" | "--level" if compress => {
                options.level = parsed(value("-l")?, "level")?;
                if options.level > 9 {
                    return Err(format!("invalid level: {} (expected 0-9)", options.level));
                }
            }
            "--member-size" if compress => {
                options.member_size_kib = parsed(value("--member-size")?, "member size")?;
            }

            other
                if options.file.is_empty()
                    && (!other.starts_with('-') || (decompress && other == "-")) =>
            {
                options.file = other.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if options.file.is_empty() {
        return Err("no input file given".to_string());
    }
    if decompress && is_stream(&options.file) {
        if options.import_index.is_some() || options.export_index.is_some() {
            return Err(format!(
                "{} is not a regular file: it is decoded serially, with no index to \
                 import or export",
                options.file
            ));
        }
        options.serial = true;
    }
    Ok(options)
}

/// Whether `file` is standard input or another input that is not a regular
/// file — a pipe, a FIFO — and so is read whole.  A path that cannot be
/// looked at is not: opening it says why.
fn is_stream(file: &str) -> bool {
    file == "-" || std::fs::metadata(file).is_ok_and(|metadata| !metadata.is_file())
}

/// A flag's value, parsed; `what` names it in the error.
fn parsed<T: std::str::FromStr>(value: String, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("invalid {what}: {e}"))
}

/// `part` as a percentage of `whole`, 0 of nothing.
fn percent(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        100.0 * part as f64 / whole as f64
    } else {
        0.0
    }
}

/// Writes `index` to `path` in `format` and says so, with a warning if the
/// format cannot keep the index's CRC-32 fragments.
fn export_index(index: &GzipIndex, format: AnyIndexFormat, path: &str) -> Result<(), String> {
    let (serialized, report) = rgz_interop::export_index_with_report(index, format);
    std::fs::write(path, &serialized).map_err(|e| e.to_string())?;
    eprintln!(
        "rgzip: exported {format} index with {} seek points ({} bytes) to {path}",
        index.block_map.len(),
        serialized.len()
    );
    if report.checksummed_points_dropped > 0 {
        eprintln!(
            "rgzip: warning: {format} format cannot store CRC-32 fragments; dropped \
             checksums for {} seek point(s) (use --index-format v3 to keep them)",
            report.checksummed_points_dropped
        );
    }
    Ok(())
}

/// Writes every series of `registry` to `path` in the Prometheus text format.
///
/// The export is written at exit rather than on a signal: without a signal
/// handling dependency the process cannot observe SIGUSR1, so the final
/// registry state is the one scrape this build can offer.
fn export_metrics(registry: &MetricsRegistry, path: &str) -> Result<(), String> {
    std::fs::write(path, registry.render_prometheus())
        .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
    eprintln!("rgzip: wrote Prometheus metrics to {path}");
    Ok(())
}

/// Where decompressed bytes go: the file or stdout, or — under
/// `--count-lines` — nowhere but into a count of newlines.  With `progress`,
/// every write is followed by a look at the clock.
struct Output {
    sink: Box<dyn Write>,
    lines: Option<u64>,
    progress: Option<Progress>,
}

impl Write for Output {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let written = match &mut self.lines {
            Some(lines) => {
                *lines += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
                bytes.len()
            }
            None => self.sink.write(bytes)?,
        };
        if let Some(progress) = &mut self.progress {
            progress.tick();
        }
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

/// The `--stats-interval` line: once the interval has passed, rates over the
/// time since the line before, from one registry snapshot and the one kept
/// from that line.
struct Progress {
    registry: Arc<MetricsRegistry>,
    interval: Duration,
    compressed_size: u64,
    previous: (Instant, MetricsSnapshot),
}

impl Progress {
    fn new(registry: Arc<MetricsRegistry>, seconds: f64, compressed_size: u64) -> Self {
        Self {
            interval: Duration::from_secs_f64(seconds).max(Duration::from_millis(10)),
            compressed_size,
            previous: (Instant::now(), registry.snapshot()),
            registry,
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        let seconds = now.duration_since(self.previous.0);
        if seconds < self.interval {
            return;
        }
        let seconds = seconds.as_secs_f64();
        let snapshot = self.registry.snapshot();
        let previous = &self.previous.1;
        let rate = |name| {
            let total = snapshot.counter_total(name);
            total.saturating_sub(previous.counter_total(name)) as f64 / seconds
        };
        let (in_rate, out_rate) = (rate(names::READ_BYTES), rate(names::BYTES_OUT));
        let read_total = snapshot.counter_total(names::READ_BYTES);
        let queue_depth = snapshot.gauge(names::POOL_QUEUE_DEPTH, &[]).unwrap_or(0);
        let eta = if in_rate > 0.0 && self.compressed_size > read_total {
            let remaining = (self.compressed_size - read_total) as f64;
            format!("{:.0} s", remaining / in_rate)
        } else {
            "-".to_string()
        };
        eprintln!(
            "rgzip: progress: {:.1} % in {:.1} MB/s out {:.1} MB/s \
             eta {eta} queue {queue_depth}",
            percent(read_total, self.compressed_size),
            in_rate / 1e6,
            out_rate / 1e6,
        );
        self.previous = (now, snapshot);
    }
}

fn run(options: &Options) -> Result<(), String> {
    let start = Instant::now();

    if options.verbose {
        // Which kernel each runtime-dispatched hot path selected on this
        // machine (all of them fall back to "scalar"-family names under
        // RGZ_FORCE_SCALAR=1 or on CPUs without the fast ISAs).
        eprintln!(
            "rgzip: kernels: crc32={}, marker-replacement={}, block-finder={}, inflate={}{}",
            rgz_checksum::crc32_active_isa(),
            rgz_deflate::markers_active_isa(),
            rgz_blockfinder::finder_active_isa(),
            rgz_deflate::inflate_active_isa(),
            if rgz_bitio::scalar_forced() {
                " [RGZ_FORCE_SCALAR=1]"
            } else {
                ""
            }
        );
    }

    // One sink serves both decoder paths; it records nothing (a single
    // relaxed atomic load per call site) unless a trace or its report was
    // requested.
    let trace = if options.trace.is_some() || options.trace_report.is_some() {
        Arc::new(TraceSink::new_enabled())
    } else {
        Arc::new(TraceSink::new())
    };

    // The metrics registry backs three consumers: the live --stats-interval
    // progress line, the Prometheus --metrics-export dump, and the --verbose
    // summary.
    let registry = Arc::new(MetricsRegistry::new());

    let sink: Box<dyn Write> = match &options.output {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let mut output = Output {
        sink,
        lines: options.count_lines.then_some(0),
        progress: None,
    };

    // Throughput is reported over the decode alone: file opening, index
    // import and index export all happen outside this window, so the MB/s
    // figure states what the decoder itself sustained.
    let (total_bytes, decode_elapsed) = if options.serial {
        decompress_serial(options, &trace, &mut output)?
    } else {
        decompress_parallel(options, &trace, &registry, &mut output)?
    };
    output.flush().map_err(|e| e.to_string())?;

    if let Some(path) = &options.trace {
        let json = chrome_trace_json(&trace);
        std::fs::write(path, json.as_bytes())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!(
            "rgzip: wrote {} trace events to {path} (load in ui.perfetto.dev)",
            trace.event_count()
        );
    }
    match options.trace_report {
        Some(ReportFormat::Text) => {
            eprint!("{}", MetricsReport::from_sink(&trace).render_text());
        }
        Some(ReportFormat::Json) => {
            eprintln!("{}", MetricsReport::from_sink(&trace).to_json());
        }
        None => {}
    }
    if let Some(path) = &options.metrics_export {
        export_metrics(&registry, path)?;
    }

    let elapsed = start.elapsed();
    if let Some(lines) = output.lines {
        println!("{lines}");
    }
    eprintln!(
        "rgzip: {} bytes decoded in {:.2} s ({:.1} MB/s, {} threads); {:.2} s total",
        total_bytes,
        decode_elapsed.as_secs_f64(),
        total_bytes as f64 / 1e6 / decode_elapsed.as_secs_f64().max(1e-9),
        if options.serial { 1 } else { options.threads },
        elapsed.as_secs_f64()
    );
    Ok(())
}

/// Decodes the file — standard input for `-` — in one call of the serial
/// decoder and hands the bytes to `output`; returns their count and the
/// decode's duration.
fn decompress_serial(
    options: &Options,
    trace: &TraceSink,
    output: &mut Output,
) -> Result<(u64, Duration), String> {
    let file = &options.file;
    let compressed = if file == "-" {
        let mut compressed = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut compressed)
            .map(|_| compressed)
    } else {
        std::fs::read(file)
    }
    .map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut decoder = rgz_gzip::GzipDecoder::new();
    if options.verification == VerificationMode::Off {
        decoder = decoder.without_checksum_verification();
    }
    let decode_start = Instant::now();
    let mut span = trace.span(Stage::SerialDecode);
    let result = decoder.decompress(&compressed);
    match &result {
        Ok(data) => {
            span.set_bytes(data.len() as u64);
            span.set_outcome(Outcome::Committed);
        }
        Err(_) => span.set_outcome(Outcome::Error),
    }
    span.finish();
    let decode_elapsed = decode_start.elapsed();
    let data = result.map_err(|e| e.to_string())?;
    if options.verbose {
        eprintln!("rgzip: serial decoder: no chunk or index statistics");
    }
    output.write_all(&data).map_err(|e| e.to_string())?;
    Ok((data.len() as u64, decode_elapsed))
}

/// Decodes the file with the parallel reader, which hands its chunks to
/// `output` a slice at a time; returns the byte count and the duration of
/// the hand-over.
fn decompress_parallel(
    options: &Options,
    trace: &Arc<TraceSink>,
    registry: &Arc<MetricsRegistry>,
    output: &mut Output,
) -> Result<(u64, Duration), String> {
    let reader_options = ParallelGzipReaderOptions {
        parallelization: options.threads.max(1),
        chunk_size: options.chunk_size_kib.max(4) * 1024,
        verification: options.verification,
        ..Default::default()
    }
    .with_trace(Arc::clone(trace))
    .with_metrics(Arc::clone(registry));
    let compressed_size = std::fs::metadata(&options.file)
        .map(|metadata| metadata.len())
        .unwrap_or(0);
    let shared = SharedFileReader::open(&options.file)
        .map_err(|e| format!("cannot open {}: {e}", options.file))?;
    let mut reader = match &options.import_index {
        Some(path) => {
            let index = import_index(path, options.verbose)?;
            ParallelGzipReader::with_index(shared, reader_options, index)
        }
        None => ParallelGzipReader::new(shared, reader_options),
    }
    .map_err(|e| e.to_string())?;

    output.progress = options
        .stats_interval
        .map(|seconds| Progress::new(Arc::clone(registry), seconds, compressed_size));
    let decode_start = Instant::now();
    // Errors read as through the reader's `Read`: an I/O error, the
    // output's or the input's, as itself.
    let total_bytes = reader
        .decompress_to(output)
        .map_err(|e| std::io::Error::from(e).to_string())?;
    let decode_elapsed = decode_start.elapsed();
    output.progress = None;

    if let Some(path) = &options.export_index {
        let index = reader.build_full_index().map_err(|e| e.to_string())?;
        export_index(&index, options.index_format, path)?;
    }
    if options.verbose {
        print_statistics(&reader, registry);
    }
    Ok((total_bytes, decode_elapsed))
}

/// Reads the index at `path`, in whichever format it is, and tells what it
/// holds when asked to or when points had to be dropped.
fn import_index(path: &str, verbose: bool) -> Result<GzipIndex, String> {
    let serialized = std::fs::read(path).map_err(|e| format!("cannot read index {path}: {e}"))?;
    let imported = rgz_interop::import_index(&serialized).map_err(|e| e.to_string())?;
    let points = imported.index.block_map.len();
    if verbose || imported.windowless_points_dropped > 0 {
        eprintln!(
            "rgzip: imported {} index: {points} seek points{}{}",
            imported.format,
            if imported.windowless_points_dropped > 0 {
                format!(
                    ", dropped {} window-less point(s)",
                    imported.windowless_points_dropped
                )
            } else {
                String::new()
            },
            if imported.synthesized_leading_point {
                ", synthesized a leading point"
            } else {
                ""
            }
        );
        if imported.checksummed_points > 0 {
            eprintln!(
                "rgzip: {} of {points} seek points carry CRC-32 fragments; \
                 random-access reads will be verified",
                imported.checksummed_points
            );
        } else {
            eprintln!(
                "rgzip: index stores no CRC-32 fragments; random-access \
                 reads through it are NOT verified (re-export as v3 to fix)"
            );
        }
    }
    Ok(imported.index)
}

/// The `--verbose` summary of a parallel decode.
fn print_statistics(reader: &ParallelGzipReader, registry: &MetricsRegistry) {
    // Every figure below is read from one snapshot of the registry the
    // reader and the layers under it count into, the one a --stats-interval
    // line and a --metrics-export dump show; taken once index() has seen the
    // last marker replacement out.
    let windows = reader.window_statistics();
    let index = reader.index();
    let snapshot = registry.snapshot();
    let statistics = ReaderStatistics::from_metrics_snapshot(&snapshot);
    let gauge = |name: &str| snapshot.gauge(name, &[]).unwrap_or(0);
    eprintln!(
        "rgzip: chunks: {} speculative, {} window-known, {} on-demand, {} mismatches, \
         {} prefetches issued, {} decoded from index",
        statistics.speculative_chunks_used,
        statistics.window_known_chunks,
        statistics.on_demand_chunks,
        statistics.speculative_mismatches,
        statistics.prefetches_issued,
        statistics.index_chunks
    );
    eprintln!(
        "rgzip: speculation waste: {} chunk(s) discarded, {} bytes decoded in vain",
        statistics.speculative_chunks_wasted, statistics.speculative_bytes_wasted
    );
    eprintln!(
        "rgzip: speculative decode: {} bytes as 16-bit marker symbols, {} bytes as \
         plain bytes after markers died out or the window arrived ({:.1} % at \
         one-stage speed), {} chunk(s) handed their window mid-decode",
        statistics.speculative_bytes_u16,
        statistics.speculative_bytes_u8,
        percent(
            statistics.speculative_bytes_u8,
            statistics.speculative_bytes_u16 + statistics.speculative_bytes_u8
        ),
        statistics.speculative_chunks_handed
    );
    eprintln!(
        "rgzip: index-aligned prefetch: {} issued, {} hits",
        statistics.index_prefetches_issued, statistics.index_prefetch_hits
    );
    eprintln!(
        "rgzip: worker pool: {} tasks submitted, {} queued, {} in flight",
        statistics.pool_tasks_submitted,
        statistics.pool_queue_depth,
        statistics.pool_tasks_inflight
    );
    eprintln!(
        "rgzip: index: {} seek points, {} windows; window memory: \
         {} raw -> {} stored bytes ({:.2}x), {} corrupt",
        index.block_map.len(),
        windows.windows,
        windows.original_bytes,
        windows.stored_bytes,
        windows.compression_ratio(),
        windows.corrupt_windows
    );
    // Chunk buffers (compressed ranges, 16-bit symbols, output bytes) the
    // reader's pool handed out, from the same snapshot.
    let buffer_takes = |result: &str| -> u64 {
        ["range", "u16", "u8"]
            .iter()
            .filter_map(|kind| {
                let labels = [("kind", *kind), ("result", result)];
                snapshot.counter(names::BUFFER_POOL_TAKES, &labels)
            })
            .sum()
    };
    eprintln!(
        "rgzip: buffers: {} reused, {} fresh, {:.1} MiB idle",
        buffer_takes("reused"),
        buffer_takes("fresh"),
        gauge(names::BUFFER_POOL_IDLE_BYTES) as f64 / (1 << 20) as f64
    );
    let verification = reader.verification_statistics();
    eprintln!(
        "rgzip: verification ({:?}): {} members verified, {} bytes hashed, \
         {} fragments folded, stream CRC-32 {:#010x}",
        verification.mode,
        verification.members_verified,
        verification.bytes_verified,
        verification.fragments_folded,
        verification.stream_crc32
    );
    eprintln!(
        "rgzip: random access: {} chunk(s) verified against stored fragments, \
         {} unverified (index carried no fragments); {} slice(s) of them decoded \
         for later reads, {} bytes ({:.1} KiB each on average); interior windows \
         {} of {} bytes; access cache: {} chunk(s) spanning {} of {} bytes",
        statistics.index_chunks_verified,
        statistics.index_chunks_unverified,
        statistics.index_slices,
        statistics.index_slice_bytes,
        statistics.index_slice_bytes as f64 / statistics.index_slices.max(1) as f64 / 1024.0,
        gauge(names::INTERIOR_WINDOW_BYTES),
        reader.options().cache_budget(),
        gauge(names::ACCESS_CACHE_CHUNKS),
        gauge(names::ACCESS_CACHE_BYTES),
        reader.options().cache_budget()
    );
}

fn run_compress(options: &Options) -> Result<(), String> {
    use rgz_compress::{
        CompressionLevel, ContainerFormat, ParallelCompressor, ParallelCompressorOptions,
    };

    let data =
        std::fs::read(&options.file).map_err(|e| format!("cannot read {}: {e}", options.file))?;
    let input_bytes = data.len() as u64;

    let registry = MetricsRegistry::new();
    let compressor = ParallelCompressor::new(ParallelCompressorOptions {
        level: CompressionLevel::from_numeric(options.level),
        container: if options.bgzf {
            ContainerFormat::Bgzf
        } else {
            ContainerFormat::Pigz
        },
        chunk_size: options.chunk_size_kib.max(1) * 1024,
        member_size: options.member_size_kib.max(1) * 1024,
        parallelization: options.threads.max(1),
        ..Default::default()
    })
    .with_metrics(&registry);
    let compress_start = Instant::now();
    let stream = compressor.compress_shared(Arc::from(data));
    let compress_elapsed = compress_start.elapsed();

    let output_path = options
        .output
        .clone()
        .unwrap_or_else(|| format!("{}.gz", options.file));
    if output_path == "-" {
        let stdout = std::io::stdout();
        let mut sink = stdout.lock();
        sink.write_all(&stream.bytes).map_err(|e| e.to_string())?;
        sink.flush().map_err(|e| e.to_string())?;
    } else {
        std::fs::write(&output_path, &stream.bytes)
            .map_err(|e| format!("cannot write {output_path}: {e}"))?;
    }

    if let Some(path) = &options.export_index {
        export_index(&stream.index, options.index_format, path)?;
    }
    if options.verbose {
        eprintln!(
            "rgzip: layout: {} member(s), {} chunk(s), {} seek point(s), all with CRC fragments",
            stream.members,
            stream.chunks,
            stream.index.block_map.len()
        );
    }
    if let Some(path) = &options.metrics_export {
        export_metrics(&registry, path)?;
    }
    eprintln!(
        "rgzip: {} bytes compressed to {} ({:.2}x) in {:.2} s ({:.1} MB/s, {} threads)",
        input_bytes,
        stream.bytes.len(),
        input_bytes as f64 / (stream.bytes.len() as f64).max(1.0),
        compress_elapsed.as_secs_f64(),
        input_bytes as f64 / 1e6 / compress_elapsed.as_secs_f64().max(1e-9),
        options.threads.max(1)
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut arguments = std::env::args().skip(1).peekable();
    let compress = arguments.next_if_eq("compress").is_some();
    let result = parse_arguments(compress, arguments).map(|options| {
        if compress {
            run_compress(&options)
        } else {
            run(&options)
        }
    });
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(message)) => {
            eprintln!("rgzip: {message}");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("rgzip: {message}");
            print_usage(compress);
            ExitCode::from(2)
        }
    }
}
