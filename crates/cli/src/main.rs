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
//!       --index-format <FMT>  exported index format: v1 (raw windows),
//!                             v2 (compressed windows),
//!                             v3 (compressed windows + per-point CRC-32
//!                             fragments for verified random access, default),
//!                             gztool (.gzi) or indexed-gzip (GZIDX)
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
//!                             output MB/s, ETA, window-cache hit rate, pool
//!                             queue depth) to stderr every S seconds,
//!                             computed from periodic metrics-registry samples
//!       --metrics-export <P>  write every metric series in Prometheus text
//!                             exposition format (0.0.4) to P at exit
//!   -v, --verbose             print the selected SIMD kernels, reader
//!                             statistics and index/window memory usage to
//!                             stderr
//!   -o, --output <PATH>       write output to PATH instead of stdout
//!   -h, --help                show this help
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
use std::time::Duration;

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics, VerificationMode};
use rgz_interop::AnyIndexFormat;
use rgz_io::SharedFileReader;
use rgz_metrics::{names, MetricsRegistry, SampleWindow, Sampler};
use rgz_trace::{chrome_trace_json, MetricsReport, Outcome, Stage, TraceSink};

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Text,
    Json,
}

struct Options {
    file: String,
    threads: usize,
    chunk_size_kib: usize,
    count_lines: bool,
    export_index: Option<String>,
    import_index: Option<String>,
    index_format: AnyIndexFormat,
    verification: VerificationMode,
    serial: bool,
    verbose: bool,
    output: Option<String>,
    trace: Option<String>,
    trace_report: Option<ReportFormat>,
    stats_interval: Option<f64>,
    metrics_export: Option<String>,
}

fn print_usage() {
    eprintln!("usage: rgzip [-d] [-P N] [--chunk-size KiB] [--count-lines]");
    eprintln!("             [--export-index PATH] [--import-index PATH]");
    eprintln!("             [--index-format v1|v2|v3|gztool|indexed-gzip]");
    eprintln!("             [--verify|--no-verify] [--serial] [-v]");
    eprintln!("             [--trace PATH] [--trace-report[=json]]");
    eprintln!("             [--stats-interval SECS] [--metrics-export PATH]");
    eprintln!("             [-o OUTPUT] FILE");
    eprintln!("       rgzip compress [OPTIONS] FILE   (see `rgzip compress --help`)");
}

fn parse_arguments() -> Result<Options, String> {
    let mut arguments = std::env::args().skip(1);
    let mut options = Options {
        file: String::new(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        chunk_size_kib: 4096,
        count_lines: false,
        export_index: None,
        import_index: None,
        index_format: AnyIndexFormat::default(),
        verification: VerificationMode::default(),
        serial: false,
        verbose: false,
        output: None,
        trace: None,
        trace_report: None,
        stats_interval: None,
        metrics_export: None,
    };
    let next_value = |arguments: &mut dyn Iterator<Item = String>, flag: &str| {
        arguments
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "-h" | "--help" => {
                print_usage();
                std::process::exit(0);
            }
            "-d" | "--decompress" => {}
            "--verify" => options.verification = VerificationMode::Full,
            "--no-verify" => options.verification = VerificationMode::Off,
            "--serial" => options.serial = true,
            "-v" | "--verbose" => options.verbose = true,
            "--count-lines" => options.count_lines = true,
            "-P" | "--threads" => {
                options.threads = next_value(&mut arguments, "-P")?
                    .parse()
                    .map_err(|e| format!("invalid thread count: {e}"))?;
            }
            "--chunk-size" => {
                options.chunk_size_kib = next_value(&mut arguments, "--chunk-size")?
                    .parse()
                    .map_err(|e| format!("invalid chunk size: {e}"))?;
            }
            "--export-index" => {
                options.export_index = Some(next_value(&mut arguments, "--export-index")?);
            }
            "--import-index" => {
                options.import_index = Some(next_value(&mut arguments, "--import-index")?);
            }
            "--index-format" => {
                options.index_format = next_value(&mut arguments, "--index-format")?.parse()?;
            }
            "-o" | "--output" => {
                options.output = Some(next_value(&mut arguments, "-o")?);
            }
            "--trace" => {
                options.trace = Some(next_value(&mut arguments, "--trace")?);
            }
            "--trace-report" | "--trace-report=text" => {
                options.trace_report = Some(ReportFormat::Text);
            }
            "--trace-report=json" => options.trace_report = Some(ReportFormat::Json),
            "--stats-interval" => {
                let seconds: f64 = next_value(&mut arguments, "--stats-interval")?
                    .parse()
                    .map_err(|e| format!("invalid stats interval: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("invalid stats interval: {seconds} (expected > 0)"));
                }
                options.stats_interval = Some(seconds);
            }
            "--metrics-export" => {
                options.metrics_export = Some(next_value(&mut arguments, "--metrics-export")?);
            }
            other if !other.starts_with('-') && options.file.is_empty() => {
                options.file = other.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if options.file.is_empty() {
        return Err("no input file given".to_string());
    }
    Ok(options)
}

fn run(options: &Options) -> Result<(), String> {
    let start = std::time::Instant::now();

    if options.verbose {
        // Which kernel each runtime-dispatched hot path selected on this
        // machine (all of them fall back to "scalar"-family names under
        // RGZ_FORCE_SCALAR=1 or on CPUs without the fast ISAs).
        eprintln!(
            "rgzip: kernels: crc32={}, marker-replacement={}, block-finder={}{}",
            rgz_checksum::crc32_active_isa(),
            rgz_deflate::markers_active_isa(),
            rgz_blockfinder::finder_active_isa(),
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

    let mut sink: Box<dyn Write> = match &options.output {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };

    let total_bytes;
    let mut line_count = 0u64;
    // Throughput is reported over the decode loop alone: file opening, index
    // import and index export all happen outside this window, so the MB/s
    // figure states what the decoder itself sustained.
    let decode_elapsed;

    if options.serial {
        let compressed = std::fs::read(&options.file)
            .map_err(|e| format!("cannot read {}: {e}", options.file))?;
        let mut decoder = rgz_gzip::GzipDecoder::new();
        if options.verification == VerificationMode::Off {
            decoder = decoder.without_checksum_verification();
        }
        let decode_start = std::time::Instant::now();
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
        decode_elapsed = decode_start.elapsed();
        let data = result.map_err(|e| e.to_string())?;
        if options.verbose {
            eprintln!("rgzip: serial decoder: no chunk or index statistics");
        }
        total_bytes = data.len() as u64;
        if options.count_lines {
            line_count = data.iter().filter(|&&b| b == b'\n').count() as u64;
        } else {
            sink.write_all(&data).map_err(|e| e.to_string())?;
        }
    } else {
        let reader_options = ParallelGzipReaderOptions {
            parallelization: options.threads.max(1),
            chunk_size: options.chunk_size_kib.max(4) * 1024,
            verification: options.verification,
            ..Default::default()
        }
        .with_trace(trace.clone())
        .with_metrics(Arc::clone(&registry));
        let compressed_size = std::fs::metadata(&options.file)
            .map(|metadata| metadata.len())
            .unwrap_or(0);
        let shared = SharedFileReader::open(&options.file)
            .map_err(|e| format!("cannot open {}: {e}", options.file))?;
        let mut reader = match &options.import_index {
            Some(path) => {
                let serialized =
                    std::fs::read(path).map_err(|e| format!("cannot read index {path}: {e}"))?;
                let imported = rgz_interop::import_index(&serialized).map_err(|e| e.to_string())?;
                if options.verbose || imported.windowless_points_dropped > 0 {
                    eprintln!(
                        "rgzip: imported {} index: {} seek points{}{}",
                        imported.format,
                        imported.index.block_map.len(),
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
                            "rgzip: {} of {} seek points carry CRC-32 fragments; \
                             random-access reads will be verified",
                            imported.checksummed_points,
                            imported.index.block_map.len()
                        );
                    } else {
                        eprintln!(
                            "rgzip: index stores no CRC-32 fragments; random-access \
                             reads through it are NOT verified (re-export as v3 to fix)"
                        );
                    }
                }
                ParallelGzipReader::with_index(shared, reader_options, imported.index)
            }
            None => ParallelGzipReader::new(shared, reader_options),
        }
        .map_err(|e| e.to_string())?;

        // The sampler thread snapshots the registry every interval and hands
        // the observer two consecutive samples; everything on the progress
        // line is computed from that delta window, so the live report and the
        // final export can never disagree about what happened.
        let sampler = options.stats_interval.map(|seconds| {
            let observer = Box::new(move |window: &SampleWindow| {
                let read_total = window.current.snapshot.counter_total(names::READ_BYTES);
                let in_rate = window.rate_per_sec(names::READ_BYTES);
                let out_rate = window.rate_per_sec(names::BYTES_OUT);
                let cache_hits = window
                    .current
                    .snapshot
                    .counter(names::WINDOW_CACHE, &[("event", "hit")])
                    .unwrap_or(0);
                let cache_misses = window
                    .current
                    .snapshot
                    .counter(names::WINDOW_CACHE, &[("event", "miss")])
                    .unwrap_or(0);
                let cache_lookups = cache_hits + cache_misses;
                let queue_depth = window.gauge(names::POOL_QUEUE_DEPTH, &[]).unwrap_or(0);
                let percent_done = if compressed_size > 0 {
                    100.0 * read_total as f64 / compressed_size as f64
                } else {
                    0.0
                };
                let eta = if in_rate > 0.0 && compressed_size > read_total {
                    format!("{:.0} s", (compressed_size - read_total) as f64 / in_rate)
                } else {
                    "-".to_string()
                };
                eprintln!(
                    "rgzip: progress: {percent_done:.1} % in {:.1} MB/s out {:.1} MB/s \
                     eta {eta} cache {:.0} % queue {queue_depth}",
                    in_rate / 1e6,
                    out_rate / 1e6,
                    if cache_lookups > 0 {
                        100.0 * cache_hits as f64 / cache_lookups as f64
                    } else {
                        0.0
                    },
                );
            }) as Box<dyn Fn(&SampleWindow) + Send>;
            Sampler::start_with_observer(
                Arc::clone(&registry),
                Duration::from_secs_f64(seconds),
                120,
                Some(observer),
            )
        });

        let decode_start = std::time::Instant::now();
        let mut buffer = vec![0u8; 4 << 20];
        let mut written = 0u64;
        loop {
            let read = std::io::Read::read(&mut reader, &mut buffer).map_err(|e| e.to_string())?;
            if read == 0 {
                break;
            }
            if options.count_lines {
                line_count += buffer[..read].iter().filter(|&&b| b == b'\n').count() as u64;
            } else {
                sink.write_all(&buffer[..read]).map_err(|e| e.to_string())?;
            }
            written += read as u64;
        }
        decode_elapsed = decode_start.elapsed();
        total_bytes = written;
        // Joins the sampler thread so no progress line interleaves with the
        // summary output below.
        drop(sampler);

        if let Some(path) = &options.export_index {
            let index = reader.build_full_index().map_err(|e| e.to_string())?;
            let (serialized, report) =
                rgz_interop::export_index_with_report(&index, options.index_format);
            std::fs::write(path, &serialized).map_err(|e| e.to_string())?;
            eprintln!(
                "rgzip: exported {} index with {} seek points ({} bytes) to {path}",
                options.index_format,
                index.block_map.len(),
                serialized.len()
            );
            if report.checksummed_points_dropped > 0 {
                eprintln!(
                    "rgzip: warning: {} format cannot store CRC-32 fragments; dropped \
                     checksums for {} seek point(s) (use --index-format v3 to keep them)",
                    options.index_format, report.checksummed_points_dropped
                );
            }
        }

        if options.verbose {
            // Every figure below is read from one snapshot of the registry
            // the reader and the layers under it count into, the one a
            // --stats-interval line and a --metrics-export dump show; taken
            // once index() has seen the last marker replacement out.
            let windows = reader.window_statistics();
            let index = reader.index();
            let snapshot = registry.snapshot();
            let statistics = ReaderStatistics::from_metrics_snapshot(&snapshot);
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
            let speculative_bytes =
                statistics.speculative_bytes_u16 + statistics.speculative_bytes_u8;
            eprintln!(
                "rgzip: speculative decode: {} bytes as 16-bit marker symbols, {} bytes as \
                 plain bytes after markers died out or the window arrived ({:.1} % at \
                 one-stage speed), {} chunk(s) handed their window mid-decode",
                statistics.speculative_bytes_u16,
                statistics.speculative_bytes_u8,
                if speculative_bytes > 0 {
                    100.0 * statistics.speculative_bytes_u8 as f64 / speculative_bytes as f64
                } else {
                    0.0
                },
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
                 {} raw -> {} stored bytes ({:.2}x), {} pending compressions",
                index.block_map.len(),
                windows.windows,
                windows.original_bytes,
                windows.stored_bytes,
                windows.compression_ratio(),
                windows.pending_compressions
            );
            let cache = |event| {
                let labels = [("event", event)];
                snapshot.counter(names::WINDOW_CACHE, &labels).unwrap_or(0)
            };
            let cache_hits = cache("hit");
            let cache_lookups = cache_hits + cache("miss");
            eprintln!(
                "rgzip: window cache: {} hot ({} hits / {} lookups = {:.1} % hit rate, \
                 {} evictions), {} corrupt",
                windows.hot_windows,
                cache_hits,
                cache_lookups,
                if cache_lookups > 0 {
                    100.0 * cache_hits as f64 / cache_lookups as f64
                } else {
                    0.0
                },
                cache("evicted"),
                windows.corrupt_windows
            );
            // Chunk buffers (compressed ranges, 16-bit symbols, output bytes)
            // the reader's pool handed out, from the same snapshot.
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
                snapshot
                    .gauge(names::BUFFER_POOL_IDLE_BYTES, &[])
                    .unwrap_or(0) as f64
                    / (1 << 20) as f64
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
                 for later reads, {} bytes",
                statistics.index_chunks_verified,
                statistics.index_chunks_unverified,
                statistics.index_slices,
                statistics.index_slice_bytes
            );
        }
    }

    sink.flush().map_err(|e| e.to_string())?;

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
    // The export is written at exit rather than on a signal: without a signal
    // handling dependency the process cannot observe SIGUSR1, so the final
    // registry state is the one scrape this build can offer.
    if let Some(path) = &options.metrics_export {
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        eprintln!("rgzip: wrote Prometheus metrics to {path}");
    }

    let elapsed = start.elapsed();
    if options.count_lines {
        println!("{line_count}");
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

struct CompressOptions {
    file: String,
    level: u8,
    bgzf: bool,
    threads: usize,
    chunk_size_kib: usize,
    member_size_kib: usize,
    export_index: Option<String>,
    index_format: AnyIndexFormat,
    output: Option<String>,
    verbose: bool,
    metrics_export: Option<String>,
}

fn print_compress_usage() {
    eprintln!("usage: rgzip compress [-l 0-9] [--bgzf] [-P N] [--chunk-size KiB]");
    eprintln!("                      [--member-size KiB] [--export-index PATH]");
    eprintln!("                      [--index-format v1|v2|v3|gztool|indexed-gzip]");
    eprintln!("                      [--metrics-export PATH]");
    eprintln!("                      [-v] [-o OUTPUT] FILE");
}

fn parse_compress_arguments(
    arguments: impl Iterator<Item = String>,
) -> Result<CompressOptions, String> {
    let mut arguments = arguments;
    let mut options = CompressOptions {
        file: String::new(),
        level: 6,
        bgzf: false,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        chunk_size_kib: 128,
        member_size_kib: 2048,
        export_index: None,
        index_format: AnyIndexFormat::default(),
        output: None,
        verbose: false,
        metrics_export: None,
    };
    let next_value = |arguments: &mut dyn Iterator<Item = String>, flag: &str| {
        arguments
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "-h" | "--help" => {
                print_compress_usage();
                std::process::exit(0);
            }
            "--bgzf" => options.bgzf = true,
            "-v" | "--verbose" => options.verbose = true,
            "-l" | "--level" => {
                options.level = next_value(&mut arguments, "-l")?
                    .parse()
                    .map_err(|e| format!("invalid level: {e}"))?;
                if options.level > 9 {
                    return Err(format!("invalid level: {} (expected 0-9)", options.level));
                }
            }
            "-P" | "--threads" => {
                options.threads = next_value(&mut arguments, "-P")?
                    .parse()
                    .map_err(|e| format!("invalid thread count: {e}"))?;
            }
            "--chunk-size" => {
                options.chunk_size_kib = next_value(&mut arguments, "--chunk-size")?
                    .parse()
                    .map_err(|e| format!("invalid chunk size: {e}"))?;
            }
            "--member-size" => {
                options.member_size_kib = next_value(&mut arguments, "--member-size")?
                    .parse()
                    .map_err(|e| format!("invalid member size: {e}"))?;
            }
            "--export-index" => {
                options.export_index = Some(next_value(&mut arguments, "--export-index")?);
            }
            "--index-format" => {
                options.index_format = next_value(&mut arguments, "--index-format")?.parse()?;
            }
            "-o" | "--output" => {
                options.output = Some(next_value(&mut arguments, "-o")?);
            }
            "--metrics-export" => {
                options.metrics_export = Some(next_value(&mut arguments, "--metrics-export")?);
            }
            other if !other.starts_with('-') && options.file.is_empty() => {
                options.file = other.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if options.file.is_empty() {
        return Err("no input file given".to_string());
    }
    Ok(options)
}

fn run_compress(options: &CompressOptions) -> Result<(), String> {
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
    let compress_start = std::time::Instant::now();
    let stream = compressor.compress_shared(std::sync::Arc::from(data));
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
        let (serialized, report) =
            rgz_interop::export_index_with_report(&stream.index, options.index_format);
        std::fs::write(path, &serialized).map_err(|e| e.to_string())?;
        eprintln!(
            "rgzip: exported {} index with {} seek points ({} bytes) to {path}",
            options.index_format,
            stream.index.block_map.len(),
            serialized.len()
        );
        if report.checksummed_points_dropped > 0 {
            eprintln!(
                "rgzip: warning: {} format cannot store CRC-32 fragments; dropped \
                 checksums for {} seek point(s) (use --index-format v3 to keep them)",
                options.index_format, report.checksummed_points_dropped
            );
        }
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
        std::fs::write(path, registry.render_prometheus())
            .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        eprintln!("rgzip: wrote Prometheus metrics to {path}");
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
    if std::env::args().nth(1).as_deref() == Some("compress") {
        return match parse_compress_arguments(std::env::args().skip(2)) {
            Ok(options) => match run_compress(&options) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("rgzip: {message}");
                    ExitCode::FAILURE
                }
            },
            Err(message) => {
                eprintln!("rgzip: {message}");
                print_compress_usage();
                ExitCode::from(2)
            }
        };
    }
    match parse_arguments() {
        Ok(options) => match run(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("rgzip: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("rgzip: {message}");
            print_usage();
            ExitCode::from(2)
        }
    }
}
