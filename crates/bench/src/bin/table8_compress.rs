//! Table 8: the parallel write path — compression bandwidth, scaling, and
//! the round-trip compression ratio.
//!
//! Measures `rgz_compress` over the CI corpora (silesia-like text, base64,
//! FASTQ) at the default and fast levels, in pigz and BGZF layouts, plus a
//! single-threaded control run.  Every timed stream is decoded back and
//! byte-compared before its ratio is reported, so `compress_roundtrip_ratio`
//! only ever describes output the reader stack actually accepts.
//!
//! Below the container rows, the encoder's three kernels on one thread:
//! match finding alone (`HtMatchFinder::start` + `next_block`), block
//! emission with its code construction (a `Fast` compression minus its match
//! finding), and one length-limited code construction over a full
//! literal/length alphabet.
//!
//! `--json` emits one [`rgz_bench::JsonReport`] line; `perf_compare` gates
//! `compress_roundtrip_ratio` (the silesia default-level ratio, hardware
//! independent), `compress_vs_inflate_silesia` (one-thread compression over
//! one-thread decompression of the same stream, hardware independent too)
//! and the absolute `compress_silesia_mb_s` floor, catching "the compressor
//! stopped compressing" as well as "the compressor fell off a performance
//! cliff".

use std::time::Duration;

use rgz_bench::*;
use rgz_compress::{
    CompressionLevel, ContainerFormat, ParallelCompressor, ParallelCompressorOptions,
};
use rgz_deflate::{CompressorOptions, DeflateCompressor, HtMatchFinder, TokenBlock};

fn options(
    level: CompressionLevel,
    container: ContainerFormat,
    parallelization: usize,
) -> ParallelCompressorOptions {
    ParallelCompressorOptions {
        level,
        container,
        chunk_size: 128 << 10,
        member_size: 2 << 20,
        parallelization,
        ..Default::default()
    }
}

/// Best-of-N timed compression; the output of the last run is returned for
/// the round-trip check and ratio.
fn timed_compress(
    data: &std::sync::Arc<[u8]>,
    options: ParallelCompressorOptions,
    repetitions: usize,
) -> (Duration, Vec<u8>) {
    let compressor = ParallelCompressor::new(options);
    let mut best = Duration::MAX;
    let mut bytes = Vec::new();
    for _ in 0..repetitions {
        let start = std::time::Instant::now();
        let stream = compressor.compress_shared(std::sync::Arc::clone(data));
        best = best.min(start.elapsed());
        bytes = stream.bytes;
    }
    (best, bytes)
}

/// Block size of the kernel rows, `DeflateCompressor`'s default.
const KERNEL_BLOCK_SIZE: usize = 128 << 10;

/// Match finding alone, exactly as the compressor runs it: a block at a time
/// into one reused buffer.  Returns the token count and the best time.
fn match_find(data: &[u8], level: CompressionLevel) -> (usize, Duration) {
    let mut finder = HtMatchFinder::new(level);
    let mut block = TokenBlock::default();
    best_of(|| {
        let mut tokenizer = finder.start(data);
        let mut tokens = 0usize;
        while tokenizer.next_block(KERNEL_BLOCK_SIZE, &mut block).end < data.len() {
            tokens += block.len();
        }
        tokens + block.len()
    })
}

/// The encoder's kernels on one thread, over the first MiBs of each corpus.
fn kernel_rows(report: &mut JsonReport, json: bool, silesia: &[u8], base64: &[u8], fastq: &[u8]) {
    let length = scaled(8 << 20, 2 << 20).min(silesia.len());
    let (silesia, base64, fastq) = (&silesia[..length], &base64[..length], &fastq[..length]);
    let mut kernel_row = |name: &str, bytes: usize, elapsed: Duration, tokens: usize| {
        let mb_s = bandwidth_mb_per_s(bytes, elapsed);
        let ns_per_token = elapsed.as_secs_f64() * 1e9 / tokens as f64;
        if !json {
            println!(
                "{:<26} {mb_s:>10.1} {ns_per_token:>12.1}",
                name.replace('_', " ")
            );
        }
        report.record(&format!("{name}_mb_s"), mb_s);
        report.record(&format!("{name}_ns_per_token"), ns_per_token);
    };
    if !json {
        println!();
        println!(
            "{:<26} {:>10} {:>12}",
            "kernel (1 thread)", "MB/s", "ns/token"
        );
    }

    for (corpus, data) in [("silesia", silesia), ("fastq", fastq)] {
        for (name, level) in [
            ("fast", CompressionLevel::Fast),
            ("default", CompressionLevel::Default),
        ] {
            let (tokens, elapsed) = match_find(data, level);
            kernel_row(
                &format!("match_find_{name}_{corpus}"),
                data.len(),
                elapsed,
                tokens,
            );
        }
    }

    // Emission with its code construction: what a `Fast` compression costs
    // beyond finding its matches.
    let compressor = DeflateCompressor::new(CompressorOptions {
        level: CompressionLevel::Fast,
        block_size: KERNEL_BLOCK_SIZE,
        force_dynamic: false,
    });
    for (corpus, data) in [("silesia", silesia), ("base64", base64)] {
        let (tokens, find) = match_find(data, CompressionLevel::Fast);
        let (_, whole) = best_of(|| compressor.compress(data));
        let emit = whole.saturating_sub(find).max(Duration::from_nanos(1));
        kernel_row(&format!("emit_{corpus}"), data.len(), emit, tokens);
    }

    // One code construction over a full literal/length alphabet, every
    // symbol in use, skewed like text.
    let frequencies: Vec<u32> = (0..288u32)
        .map(|symbol| 1 + (symbol.wrapping_mul(2_654_435_761) >> 12) % (1 + symbol * symbol))
        .collect();
    let mut best = Duration::MAX;
    for _ in 0..200 {
        let (lengths, elapsed) =
            time(|| rgz_deflate::huffman::compute_code_lengths(&frequencies, 15));
        assert!(lengths.is_ok());
        best = best.min(elapsed);
    }
    let microseconds = best.as_secs_f64() * 1e6;
    if !json {
        println!("code lengths, 288 symbols: {microseconds:.1} us");
    }
    report.record("code_lengths_288_us", microseconds);
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("table8_compress");
    if !json {
        print_header(
            "Table 8 — parallel compression (pigz/BGZF write path)",
            "bandwidth and round-trip ratio; every stream is decoded back before reporting",
        );
        println!(
            "{:<26} {:>10} {:>10} {:>8}",
            "configuration", "MB/s", "out KiB", "ratio"
        );
    }

    let total = scaled(32 << 20, 4 << 20);
    let repetitions = 3;
    let silesia: std::sync::Arc<[u8]> = rgz_datagen::silesia_like(total, 81).into();
    let base64: std::sync::Arc<[u8]> = rgz_datagen::base64_random(total, 82).into();
    let fastq: std::sync::Arc<[u8]> = rgz_datagen::fastq_of_size(total, 83).into();
    let input_mb = total as f64 / 1e6;
    let cores = available_cores();

    // The table's first row would otherwise pay for the pool's threads, the
    // workers' first scratch and cold caches.
    timed_compress(
        &silesia,
        options(CompressionLevel::Fast, ContainerFormat::Pigz, cores),
        1,
    );

    let mut last_decompress = Duration::ZERO;
    let mut row =
        |name: &str, data: &std::sync::Arc<[u8]>, opts: ParallelCompressorOptions| -> (f64, f64) {
            let (elapsed, bytes) = timed_compress(data, opts, repetitions);
            let (restored, decompress) = time(|| rgz_gzip::decompress(&bytes));
            last_decompress = decompress;
            assert_eq!(
                restored.expect("bench output must decode"),
                data[..],
                "{name}: round trip"
            );
            let mb_s = input_mb / elapsed.as_secs_f64().max(1e-9);
            let ratio = data.len() as f64 / (bytes.len() as f64).max(1.0);
            if !json {
                println!(
                    "{:<26} {:>10.1} {:>10} {:>8.2}",
                    name,
                    mb_s,
                    bytes.len() >> 10,
                    ratio
                );
            }
            (mb_s, ratio)
        };

    let (parallel_mb_s, silesia_ratio) = row(
        "silesia default pigz",
        &silesia,
        options(CompressionLevel::Default, ContainerFormat::Pigz, cores),
    );
    report.record("compress_silesia_mb_s", parallel_mb_s);
    let (fast_mb_s, _) = row(
        "silesia fast pigz",
        &silesia,
        options(CompressionLevel::Fast, ContainerFormat::Pigz, cores),
    );
    report.record("compress_silesia_fast_mb_s", fast_mb_s);
    let (bgzf_mb_s, _) = row(
        "silesia default bgzf",
        &silesia,
        options(CompressionLevel::Default, ContainerFormat::Bgzf, cores),
    );
    report.record("compress_bgzf_mb_s", bgzf_mb_s);
    let (base64_mb_s, _) = row(
        "base64 default pigz",
        &base64,
        options(CompressionLevel::Default, ContainerFormat::Pigz, cores),
    );
    report.record("compress_base64_mb_s", base64_mb_s);
    let (fastq_mb_s, _) = row(
        "fastq default pigz",
        &fastq,
        options(CompressionLevel::Default, ContainerFormat::Pigz, cores),
    );
    report.record("compress_fastq_mb_s", fastq_mb_s);

    // Single-threaded control for the hardware-independent ratios: scaling,
    // and what a byte costs to compress against what it costs to decompress.
    let (serial_mb_s, _) = row(
        "silesia default 1-thread",
        &silesia,
        options(CompressionLevel::Default, ContainerFormat::Pigz, 1),
    );
    let decompress_mb_s = input_mb / last_decompress.as_secs_f64().max(1e-9);
    let speedup = parallel_mb_s / serial_mb_s.max(1e-9);
    let compress_vs_inflate = serial_mb_s / decompress_mb_s.max(1e-9);
    if !json {
        println!("parallel speedup over 1 thread ({cores} cores): {speedup:.2}x");
        println!("silesia round-trip ratio: {silesia_ratio:.2}");
        println!(
            "1-thread decompression of that stream: {decompress_mb_s:.1} MB/s, compress / inflate: {compress_vs_inflate:.3}"
        );
    }
    report.record("compress_serial_mb_s", serial_mb_s);
    report.record("compress_parallel_speedup", speedup);
    report.record("compress_roundtrip_ratio", silesia_ratio);
    report.record("decompress_silesia_mb_s", decompress_mb_s);
    report.record("compress_vs_inflate_silesia", compress_vs_inflate);

    kernel_rows(&mut report, json, &silesia, &base64, &fastq);

    if json {
        report.emit();
    }
}
