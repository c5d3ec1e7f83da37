//! Table 2: bandwidths of the individual components (block finder variants,
//! Non-Compressed Block finder, one-stage inflate, marker replacement,
//! writing, newline count).
//!
//! The one-stage inflate rows measure the fast loop (the `inflate_multi_*`
//! keys, named for the multi-symbol decoder they first timed) against the
//! single-symbol reference decoder on the base64 and silesia corpora, the
//! two-stage rows the same loop emitting 16-bit marker symbols (all of them,
//! and only until markers die out); the `speedup_*`,
//! `two_stage_vs_one_stage_*`, `hybrid_vs_one_stage_*` and
//! `inflate_vs_setup_*` metrics are the machine-independent ratios the CI
//! `perf-smoke` job gates on.  `--json` names the fast loop's build
//! (`"kernels":{"inflate":…}`).  The "dynamic
//! block set-up" rows record what a Dynamic Block costs before its first
//! symbol is decoded (header parse and the two decode tables), per block and
//! as a share of one-stage inflate — at the compressor's 128 KiB blocks and,
//! ungated, at the 16 KiB blocks of gzip-sized streams, which pay it eight
//! times as often.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgz_baselines::{CustomParseFinder, PugzLikeFinder, SkipLutFinder, TrialInflateFinder};
use rgz_bench::*;
use rgz_bitio::BitReader;
use rgz_blockfinder::{
    BlockFinder, CombinedBlockFinder, DynamicBlockFinder, UncompressedBlockFinder,
};
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_deflate::block::{
    build_distance_table, build_literal_table, parse_dynamic_header, DistanceTable, LiteralTable,
};
use rgz_deflate::{
    inflate, inflate_single_symbol, inflate_speculative, inflate_two_stage, replace_markers,
    replace_markers_to_slice, replace_markers_to_slice_scalar, BlockBoundary, BlockType,
    CompressorOptions, Cutter, DeflateCompressor, SpeculativeOutput, WindowAnswer, MARKER_BASE,
};
use rgz_trace::{chrome_trace_json, MetricsReport, TraceSink};

fn row(
    report: &mut JsonReport,
    json: bool,
    label: &str,
    key: &str,
    bytes: usize,
    duration: std::time::Duration,
) -> f64 {
    let bandwidth = bandwidth_mb_per_s(bytes, duration);
    if !json {
        println!("{label:<28} {bandwidth:>16.3}");
    }
    report.record(key, bandwidth);
    bandwidth
}

/// The parts of setting up a Dynamic Block, in the order the decoder runs
/// them: header parse (precode + code lengths), the literal/length table,
/// the distance table.
const SETUP_PARTS: [&str; 3] = ["parse", "literal", "distance"];

/// Time spent per part over all Dynamic Blocks of `compressed` (the best of
/// a few passes, part by part), and how many such blocks there are.
fn dynamic_block_setup(
    compressed: &[u8],
    blocks: &[BlockBoundary],
) -> ([std::time::Duration; 3], usize) {
    let dynamic: Vec<u64> = blocks
        .iter()
        .filter(|block| block.block_type == BlockType::Dynamic)
        .map(|block| block.bit_offset + 3)
        .collect();
    let (mut literal, mut distance) = (LiteralTable::new(), DistanceTable::new());
    let mut best = [std::time::Duration::MAX; 3];
    for _ in 0..repetitions() {
        let mut pass = [std::time::Duration::ZERO; 3];
        for &header_offset in &dynamic {
            let mut reader = BitReader::new(compressed);
            reader.seek_to_bit(header_offset).unwrap();
            let (header, elapsed) = time(|| parse_dynamic_header(&mut reader).unwrap());
            pass[0] += elapsed;
            pass[1] += time(|| build_literal_table(&mut literal, header.literal_lengths())).1;
            pass[2] += time(|| build_distance_table(&mut distance, header.distance_lengths())).1;
        }
        for (best, pass) in best.iter_mut().zip(pass) {
            *best = (*best).min(pass);
        }
    }
    (best, dynamic.len())
}

/// Records what the Dynamic Blocks of `compressed` cost before their first
/// symbol, per block and against `inflate`, the one-stage decode of the same
/// stream; returns inflate time over set-up time.
fn record_dynamic_block_setup(
    report: &mut JsonReport,
    json: bool,
    name: &str,
    compressed: &[u8],
    blocks: &[BlockBoundary],
    inflate: std::time::Duration,
) -> Option<f64> {
    let (parts, dynamic_blocks) = dynamic_block_setup(compressed, blocks);
    if dynamic_blocks == 0 {
        return None;
    }
    let per_block = |part: std::time::Duration| part.as_secs_f64() * 1e6 / dynamic_blocks as f64;
    let total: std::time::Duration = parts.iter().sum();
    let share = total.as_secs_f64() / inflate.as_secs_f64();
    if !json {
        println!(
            "{:<28} {:>13.1} us = {:.1}% of inflate ({dynamic_blocks} blocks)",
            format!("  dyn. block set-up ({name})"),
            per_block(total),
            100.0 * share,
        );
    }
    report.record(&format!("dynamic_setup_{name}_us"), per_block(total));
    report.record(&format!("dynamic_setup_{name}_share"), share);
    for (part_name, part) in SETUP_PARTS.iter().zip(parts) {
        if !json {
            println!(
                "{:<28} {:>13.1} us",
                format!("    {part_name}"),
                per_block(part)
            );
        }
        report.record(
            &format!("dynamic_setup_{name}_{part_name}_us"),
            per_block(part),
        );
    }
    Some(1.0 / share)
}

fn scan(finder: &dyn BlockFinder, data: &[u8]) -> u64 {
    let mut count = 0u64;
    let mut offset = 0u64;
    while let Some(found) = finder.find_next(data, offset) {
        count += 1;
        offset = found + 1;
    }
    count
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("table2_components");
    report.name_inflate_isa(rgz_deflate::inflate_active_isa());
    if !json {
        print_header(
            "Table 2 — component bandwidths",
            "all single-threaded, on random data (finders) / marker data (replacement)",
        );
        println!("{:<28} {:>16}", "component", "bandwidth MB/s");
    }

    let mut rng = StdRng::seed_from_u64(2);
    let finder_megabytes = scaled(8, 2);
    let random: Vec<u8> = (0..finder_megabytes << 20).map(|_| rng.gen()).collect();
    // The trial-inflate finder is orders of magnitude slower; give it less data.
    let random_small = &random[..random.len().min(scaled(256 << 10, 64 << 10))];

    let (_, duration) = best_of(|| scan(&TrialInflateFinder, random_small));
    row(
        &mut report,
        json,
        "DBF zlib (trial inflate)",
        "dbf_zlib_mb_s",
        random_small.len(),
        duration,
    );
    let (_, duration) = best_of(|| scan(&CustomParseFinder, &random));
    row(
        &mut report,
        json,
        "DBF custom deflate",
        "dbf_custom_mb_s",
        random.len(),
        duration,
    );
    let (_, duration) = best_of(|| scan(&PugzLikeFinder::default(), &random));
    row(
        &mut report,
        json,
        "Pugz block finder",
        "dbf_pugz_mb_s",
        random.len(),
        duration,
    );
    let (_, duration) = best_of(|| scan(&SkipLutFinder, &random));
    row(
        &mut report,
        json,
        "DBF skip-LUT",
        "dbf_skip_lut_mb_s",
        random.len(),
        duration,
    );
    let (_, duration) = best_of(|| scan(&DynamicBlockFinder::new(), &random));
    let dynamic = row(
        &mut report,
        json,
        "DBF rapidgzip",
        "dbf_rapidgzip_mb_s",
        random.len(),
        duration,
    );
    // Every candidate of either kind, as a chunk decode walks them: the
    // Non-Compressed Block finder's hits must not send the other over the
    // same bits again.
    let (_, duration) = best_of(|| {
        let finder = CombinedBlockFinder::new();
        finder.candidates(&random, 0, u64::MAX).count()
    });
    let walk = row(
        &mut report,
        json,
        "DBF + NBF, all candidates",
        "dbf_combined_walk_mb_s",
        random.len(),
        duration,
    );
    report.record("combined_walk_vs_dynamic", walk / dynamic);
    let (_, duration) = best_of(|| scan(&UncompressedBlockFinder::new(), &random));
    row(&mut report, json, "NBF", "nbf_mb_s", random.len(), duration);

    // One-stage inflate: the fast loop versus the single-symbol reference
    // decoder (deterministic seeds so CI runs are comparable).
    let corpus_bytes = scaled(32 << 20, 4 << 20);
    for (name, data) in [
        ("base64", rgz_datagen::base64_random(corpus_bytes, 7)),
        ("silesia", rgz_datagen::silesia_like(corpus_bytes, 7)),
    ] {
        let compressed = DeflateCompressor::new(CompressorOptions::default()).compress(&data);
        let (out, duration) = best_of(|| {
            let mut reader = BitReader::new(&compressed);
            let mut out = Vec::with_capacity(data.len());
            inflate_single_symbol(&mut reader, &[], &mut out, u64::MAX).unwrap();
            out
        });
        assert_eq!(out, data, "single-symbol decode must round-trip");
        let single = row(
            &mut report,
            json,
            &format!("Inflate 1-symbol ({name})"),
            &format!("inflate_single_{name}_mb_s"),
            data.len(),
            duration,
        );
        let (out, duration) = best_of(|| {
            let mut reader = BitReader::new(&compressed);
            let mut out = Vec::with_capacity(data.len());
            inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
            out
        });
        assert_eq!(out, data, "fast-loop decode must round-trip");
        let multi = row(
            &mut report,
            json,
            &format!("Inflate fast loop ({name})"),
            &format!("inflate_multi_{name}_mb_s"),
            data.len(),
            duration,
        );
        let speedup = multi / single;
        if !json {
            println!(
                "{:<28} {:>15.2}x [{}]",
                format!("  speedup ({name})"),
                speedup,
                rgz_deflate::inflate_active_isa()
            );
        }
        report.record(&format!("speedup_{name}"), speedup);

        // Two-stage decode, as a speculative chunk sees the stream: from the
        // first block boundary a whole window into it, window unknown —
        // against the one-stage decoder on the same range with the window
        // known.  Both into a reused buffer, so the ratio compares the two
        // sinks of the one hot loop rather than first-touch page faults on
        // twice the memory.
        let mut reader = BitReader::new(&compressed);
        let blocks = inflate(&mut reader, &[], &mut Vec::new(), u64::MAX)
            .unwrap()
            .blocks;
        // What the blocks cost before their first symbol, against the decode
        // of the same stream: a ratio of two times taken in this process.
        if let Some(ratio) =
            record_dynamic_block_setup(&mut report, json, name, &compressed, &blocks, duration)
        {
            report.record(&format!("inflate_vs_setup_{name}"), ratio);
        }
        // The same corpus in gzip-sized blocks, where set-up is paid eight
        // times as often (ungated).
        {
            let small_blocks = DeflateCompressor::new(CompressorOptions {
                block_size: 16 * 1024,
                ..Default::default()
            })
            .compress(&data);
            let ((), duration) = best_of(|| {
                let mut reader = BitReader::new(&small_blocks);
                let mut out = Vec::with_capacity(data.len());
                inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
            });
            let name = format!("{name}_16k");
            row(
                &mut report,
                json,
                &format!("Inflate 16 KiB blocks ({name})"),
                &format!("inflate_multi_{name}_mb_s"),
                data.len(),
                duration,
            );
            let mut reader = BitReader::new(&small_blocks);
            let blocks = inflate(&mut reader, &[], &mut Vec::new(), u64::MAX)
                .unwrap()
                .blocks;
            record_dynamic_block_setup(&mut report, json, &name, &small_blocks, &blocks, duration);
        }
        let start = blocks
            .iter()
            .find(|block| block.uncompressed_offset >= 32 * 1024)
            .expect("corpus spans several blocks");
        let split = start.uncompressed_offset as usize;
        let (window, tail) = (&data[split - 32 * 1024..split], &data[split..]);
        let mut bytes = Vec::with_capacity(tail.len());
        let ((), duration) = best_of(|| {
            let mut reader = BitReader::new(&compressed);
            reader.seek_to_bit(start.bit_offset).unwrap();
            bytes.clear();
            inflate(&mut reader, window, &mut bytes, u64::MAX).unwrap();
        });
        assert_eq!(bytes, tail, "mid-stream decode must round-trip");
        let one_stage = row(
            &mut report,
            json,
            &format!("Inflate mid-stream ({name})"),
            &format!("inflate_mid_stream_{name}_mb_s"),
            tail.len(),
            duration,
        );
        let mut symbols = Vec::with_capacity(tail.len());
        let ((), duration) = best_of(|| {
            let mut reader = BitReader::new(&compressed);
            reader.seek_to_bit(start.bit_offset).unwrap();
            symbols.clear();
            inflate_two_stage(&mut reader, &mut symbols, u64::MAX).unwrap();
        });
        assert_eq!(
            replace_markers(&symbols, window).unwrap(),
            tail,
            "two-stage decode must round-trip"
        );
        let two_stage = row(
            &mut report,
            json,
            &format!("Inflate two-stage ({name})"),
            &format!("inflate_two_stage_{name}_mb_s"),
            tail.len(),
            duration,
        );
        if name == "silesia" {
            // The text corpus's own symbols, every other one a marker, into
            // one buffer that exists: what the reader resolves a chunk with.
            let mut resolved = vec![0u8; symbols.len()];
            let (_, duration) =
                best_of(|| replace_markers_to_slice(&symbols, window, &mut resolved).unwrap());
            assert_eq!(resolved, tail);
            let dense = row(
                &mut report,
                json,
                "Marker replacement (dense)",
                "replace_markers_dense_mb_s",
                symbols.len(),
                duration,
            );
            // The same chunk with its window arriving when half its blocks
            // are decoded — what a decode the pass catches up with sees — and
            // the replacement of its prefix, against the two rows above: all
            // of it 16 bits wide, and every symbol replaced.  Into the same
            // buffers, recycled as the reader's are.
            let ahead = blocks
                .iter()
                .filter(|block| block.bit_offset > start.bit_offset);
            let halfway = ahead
                .clone()
                .nth(ahead.count() / 2)
                .expect("several blocks");
            let arrives_at = halfway.uncompressed_offset as usize - split;
            let (mut wide, mut narrow) = (std::mem::take(&mut symbols), Vec::new());
            let ((), duration) = best_of(|| {
                let mut reader = BitReader::new(&compressed);
                reader.seek_to_bit(start.bit_offset).unwrap();
                wide.clear();
                let mut output = SpeculativeOutput::from(std::mem::take(&mut wide));
                inflate_speculative(
                    &mut reader,
                    &mut output,
                    u64::MAX,
                    || std::mem::take(&mut narrow),
                    |decoded| match decoded >= arrives_at {
                        true => WindowAnswer::Known(window),
                        false => WindowAnswer::Unknown,
                    },
                    &mut Cutter::never(),
                )
                .unwrap();
                output.resolve_into(window, &mut resolved).unwrap();
                (wide, narrow) = output.into_buffers();
            });
            assert_eq!(resolved, tail, "handed decode must round-trip");
            let handed = row(
                &mut report,
                json,
                "Inflate handed at 50 %",
                "inflate_handed_silesia_mb_s",
                tail.len(),
                duration,
            );
            let ratio = handed * (1.0 / two_stage + 1.0 / dense);
            if !json {
                println!("{:<28} {:>15.2}x", "  handed/two-stage+replace", ratio);
            }
            report.record("handed_vs_two_stage_silesia", ratio);
            symbols = wide;
        }
        // The speculative decode as a chunk runs it, window never known: it
        // pays for looking for the switch at every block boundary, which
        // `inflate_two_stage` does not.  Into recycled buffers, as the row it
        // is compared with.
        let mut output = SpeculativeOutput::from(symbols);
        let ((), duration) = best_of(|| {
            let (mut wide, narrow) = std::mem::take(&mut output).into_buffers();
            wide.clear();
            output = SpeculativeOutput::from(wide);
            let mut reader = BitReader::new(&compressed);
            reader.seek_to_bit(start.bit_offset).unwrap();
            inflate_speculative(
                &mut reader,
                &mut output,
                u64::MAX,
                || narrow,
                WindowAnswer::never,
                &mut Cutter::never(),
            )
            .unwrap();
        });
        let wide_share = output.prefix().len() as f64 / tail.len() as f64;
        assert_eq!(
            output.resolve(window).unwrap(),
            tail,
            "hybrid decode must round-trip"
        );
        let hybrid = row(
            &mut report,
            json,
            &format!("Inflate hybrid ({name})"),
            &format!("inflate_hybrid_{name}_mb_s"),
            tail.len(),
            duration,
        );
        let ratio = two_stage / one_stage;
        if !json {
            println!(
                "{:<28} {:>15.2}x",
                format!("  two-stage/one-stage ({name})"),
                ratio
            );
            println!(
                "{:<28} {:>15.2}x",
                format!("  hybrid/one-stage ({name})"),
                hybrid / one_stage
            );
            println!(
                "{:<28} {:>15.1}%",
                format!("  hybrid u16 share ({name})"),
                100.0 * wide_share
            );
        }
        report.record(&format!("two_stage_vs_one_stage_{name}"), ratio);
        report.record(&format!("hybrid_vs_one_stage_{name}"), hybrid / one_stage);
    }

    // Marker replacement.
    let window: Vec<u8> = (0..32 * 1024).map(|i| (i % 251) as u8).collect();
    let symbols: Vec<u16> = (0..scaled(64 << 20, 8 << 20))
        .map(|i| {
            if i % 7 == 0 {
                MARKER_BASE + (i % 32768) as u16
            } else {
                (i % 256) as u16
            }
        })
        .collect();
    // Both kernels into one buffer that exists already, as in the reader:
    // the ratio compares kernels, not who pays for the page faults.
    let mut resolved = vec![0u8; symbols.len()];
    let (_, duration) =
        best_of(|| replace_markers_to_slice(&symbols, &window, &mut resolved).unwrap());
    let marker_simd = row(
        &mut report,
        json,
        "Marker replacement",
        "marker_replacement_mb_s",
        symbols.len(),
        duration,
    );
    let (_, duration) =
        best_of(|| replace_markers_to_slice_scalar(&symbols, &window, &mut resolved).unwrap());
    let marker_scalar = row(
        &mut report,
        json,
        "Marker replacement (scalar)",
        "marker_replacement_scalar_mb_s",
        symbols.len(),
        duration,
    );
    let marker_speedup = marker_simd / marker_scalar;
    if !json {
        println!(
            "{:<28} {:>15.2}x [{}]",
            "  speedup (markers)",
            marker_speedup,
            rgz_deflate::markers_active_isa()
        );
    }
    report.record("speedup_marker_replacement", marker_speedup);

    // CRC-32: the carryless-multiply folding kernel against the slicing-by-16
    // scalar reference.  The speedup ratio is machine-independent as long as
    // the runner has PCLMULQDQ (every x86-64 CPU since ~2010); on other ISAs
    // both sides run the scalar path and the ratio degenerates to ~1.
    let crc_payload = rgz_datagen::base64_random(scaled(256 << 20, 32 << 20), 5);
    let (simd_crc, duration) = best_of(|| rgz_checksum::crc32(&crc_payload));
    let crc_simd = row(
        &mut report,
        json,
        "CRC-32 (folding)",
        "crc32_mb_s",
        crc_payload.len(),
        duration,
    );
    let (scalar_crc, duration) = best_of(|| rgz_checksum::crc32_scalar(&crc_payload));
    assert_eq!(simd_crc, scalar_crc, "CRC kernels must agree");
    let crc_scalar = row(
        &mut report,
        json,
        "CRC-32 (scalar)",
        "crc32_scalar_mb_s",
        crc_payload.len(),
        duration,
    );
    let crc_speedup = crc_simd / crc_scalar;
    if !json {
        println!(
            "{:<28} {:>15.2}x [{}]",
            "  speedup (crc32)",
            crc_speedup,
            rgz_checksum::crc32_active_isa()
        );
    }
    report.record("speedup_crc32", crc_speedup);
    drop(crc_payload);

    // Writing to a file in /dev/shm (or the temp dir as a fallback).
    let out_dir = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let out_path = out_dir.join("rgz_table2_write.bin");
    let payload = rgz_datagen::base64_random(scaled(256 << 20, 32 << 20), 3);
    let (_, duration) = best_of(|| std::fs::write(&out_path, &payload).unwrap());
    row(
        &mut report,
        json,
        "Write to /dev/shm/",
        "write_shm_mb_s",
        payload.len(),
        duration,
    );
    std::fs::remove_file(&out_path).ok();

    // Counting newlines.
    let (_, duration) = best_of(|| payload.iter().filter(|&&b| b == b'\n').count());
    row(
        &mut report,
        json,
        "Count newlines",
        "count_newlines_mb_s",
        payload.len(),
        duration,
    );

    // Trace overhead: the same parallel decompression with the structured
    // event layer enabled versus the default disabled sink.  The runs are
    // interleaved so machine drift hits both sides equally, and the ratio
    // (a machine-independent number) is gated by the `trace_overhead_ratio`
    // floor in bench/baseline.json.
    let corpus = rgz_datagen::fastq_of_size(scaled(24 << 20, 3 << 20), 9);
    let compressed = rgz_gzip::GzipWriter::default().compress(&corpus);
    let decode = |trace: Option<Arc<TraceSink>>| {
        let mut options = ParallelGzipReaderOptions {
            parallelization: available_cores().min(4),
            chunk_size: 256 * 1024,
            ..Default::default()
        };
        if let Some(trace) = trace {
            options = options.with_trace(trace);
        }
        let mut reader = ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();
        reader.decompress_all().unwrap()
    };
    assert_eq!(decode(None), corpus, "parallel decode must round-trip");
    let sink = Arc::new(TraceSink::new_enabled());
    let mut best_untraced = std::time::Duration::MAX;
    let mut best_traced = std::time::Duration::MAX;
    for _ in 0..repetitions().max(3) {
        let (_, duration) = time(|| decode(None));
        best_untraced = best_untraced.min(duration);
        let (_, duration) = time(|| decode(Some(sink.clone())));
        best_traced = best_traced.min(duration);
    }
    let untraced = row(
        &mut report,
        json,
        "Parallel decode (no trace)",
        "decompress_untraced_mb_s",
        corpus.len(),
        best_untraced,
    );
    let traced = row(
        &mut report,
        json,
        "Parallel decode (traced)",
        "decompress_traced_mb_s",
        corpus.len(),
        best_traced,
    );
    let overhead_ratio = traced / untraced;
    if !json {
        println!(
            "{:<28} {:>15.3}x",
            "  traced/untraced ratio", overhead_ratio
        );
    }
    report.record("trace_overhead_ratio", overhead_ratio);

    // The aggregated pipeline metrics ride along in the JSON report, and the
    // raw trace can be kept as a CI artifact.
    report.record_block("trace_", &MetricsReport::from_sink(&sink).flat_metrics());
    if let Ok(path) = std::env::var("RGZ_TRACE_OUT") {
        std::fs::write(&path, chrome_trace_json(&sink))
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        eprintln!("# wrote pipeline trace to {path}");
    }

    if json {
        report.emit();
    }
}
