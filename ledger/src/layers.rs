//! Per-layer metrics measured from outside: single-threaded timed calls
//! into each crate's public functions on the workload's own bytes, with
//! chunk slices cut at the true block boundaries (the seek points of the
//! index built in set-up) and the true 32 KiB windows taken from the
//! generated corpus.
//!
//! Every call is recorded as a span in the bench's own trace (name = metric
//! stem, chunk id, bytes); per-layer totals are sums over those spans.

use std::collections::BTreeMap;
use std::time::Instant;

use rgz_bitio::BitReader;
use rgz_blockfinder::CombinedBlockFinder;
use rgz_deflate::{
    inflate, inflate_two_stage, replace_markers_hashed, BlockType, CompressorOptions,
    DeflateCompressor, MARKER_BASE,
};
use rgz_index::{GzipIndex, WindowMap, WINDOW_SIZE};
use rgz_io::SharedFileReader;

use crate::op::Tally;
use crate::prepare::{Prepared, RunOptions};
use crate::spec::Kind;
use crate::stats;

/// Input bytes per `DeflateCompressor::compress` call, the compressor
/// pool's default work unit.
const COMPRESS_SLICE: usize = 128 * 1024;
/// Corpus prefix the (slow, ~6 MB/s) chunk compressor is timed on.
const COMPRESS_SAMPLE: usize = 4 << 20;

struct Span {
    name: &'static str,
    chunk: u64,
    bytes: u64,
    start_us: f64,
    duration_us: f64,
}

/// The bench's own spans, kept in memory and written out as Chrome
/// trace-event JSON when the run ends.  (`rgz_trace::TraceSink` names spans
/// by its fixed `Stage` enum, which has no entry for half the layers timed
/// here, so the bench keeps this list itself.)
pub struct BenchTrace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for BenchTrace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl BenchTrace {
    /// Times `call` and records it as a span of layer `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        chunk: u64,
        bytes: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let value = std::hint::black_box(call());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            chunk,
            bytes,
            start_us: start.as_secs_f64() * 1e6,
            duration_us: (end - start).as_secs_f64() * 1e6,
        });
        value
    }

    /// Seconds spent in layer `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Duration in seconds of each span of layer `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_us / 1e6)
            .collect()
    }

    /// Bytes per second over all spans of layer `name`, in MB/s.
    fn megabytes_per_second(&self, name: &str) -> f64 {
        let bytes: u64 = self
            .spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.bytes)
            .sum();
        bytes as f64 / 1e6 / self.seconds(name).max(1e-9)
    }

    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|span| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"chunk\":{},\"bytes\":{}}}}}",
                    span.name, span.start_us, span.duration_us, span.chunk, span.bytes
                )
            })
            .collect();
        format!("[{}]", events.join(",\n"))
    }
}

/// One chunk of the file as the index cut it.
struct Chunk {
    start_bit: u64,
    /// Start of the next chunk; `u64::MAX` for the last one.
    stop_bit: u64,
    offset: usize,
    length: usize,
}

pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks made while measuring.
    pub checks: Tally,
    /// Single-thread seconds the layers of this workload's operation take
    /// over the whole file, for `core.model_residual_pct`.
    pub serial_seconds: f64,
    pub parallel_seconds: f64,
    /// Seconds of layer work per chunk decode on the seek path.
    pub seconds_per_chunk_decode: f64,
}

/// Positions a bit reader over the whole file at a chunk start, past the
/// gzip header when the chunk is the first of the member.
fn reader_at<'a>(gz: &'a [u8], chunk: &Chunk) -> Result<BitReader<'a>, String> {
    let mut reader = BitReader::new(gz);
    if chunk.start_bit == 0 {
        rgz_gzip::parse_header(&mut reader).map_err(|e| e.to_string())?;
    } else {
        reader
            .seek_to_bit(chunk.start_bit)
            .map_err(|e| e.to_string())?;
    }
    Ok(reader)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn measure(
    prepared: &Prepared,
    options: &RunOptions,
    trace: &mut BenchTrace,
) -> Result<Layers, String> {
    let (data, gz) = (&prepared.data[..], &prepared.gz[..]);
    let mut metrics = BTreeMap::new();
    let mut checks = Tally::default();

    // --- index: import, export, shape -----------------------------------
    let mut index = GzipIndex::new();
    for _ in 0..5 {
        index = trace
            .time("index.import", 0, prepared.index_bytes.len() as u64, || {
                GzipIndex::import(&prepared.index_bytes)
            })
            .map_err(|e| e.to_string())?;
        let exported = trace.time("index.export", 0, prepared.index_bytes.len() as u64, || {
            index.export()
        });
        checks.check(exported == prepared.index_bytes, "index re-export differs");
    }
    let points = index.block_map.points();
    metrics.insert(
        "index.import_ms",
        stats::median(&trace.durations("index.import")) * 1e3,
    );
    metrics.insert(
        "index.export_ms",
        stats::median(&trace.durations("index.export")) * 1e3,
    );
    metrics.insert("index.seek_points", points.len() as f64);
    metrics.insert(
        "index.bytes_per_seek_point",
        prepared.index_bytes.len() as f64 / points.len().max(1) as f64,
    );
    let window_statistics = index.window_map.statistics();
    metrics.insert(
        "window.stored_bytes_per_window",
        window_statistics.stored_bytes as f64 / window_statistics.windows.max(1) as f64,
    );

    let chunks: Vec<Chunk> = points
        .iter()
        .enumerate()
        .filter(|(_, point)| point.uncompressed_size > 0)
        .map(|(i, point)| Chunk {
            start_bit: point.compressed_bit_offset,
            stop_bit: points
                .get(i + 1)
                .map_or(u64::MAX, |next| next.compressed_bit_offset),
            offset: point.uncompressed_offset as usize,
            length: point.uncompressed_size as usize,
        })
        .collect();
    if chunks.is_empty() || chunks.iter().any(|c| c.offset + c.length > data.len()) {
        return Err("the set-up index does not describe the corpus".into());
    }
    let window_of = |chunk: &Chunk| &data[chunk.offset.saturating_sub(WINDOW_SIZE)..chunk.offset];
    let output_of = |chunk: &Chunk| &data[chunk.offset..chunk.offset + chunk.length];

    // --- one-stage inflate with the known window ------------------------
    let mut true_blocks = Vec::new();
    let mut window_usage = Vec::new();
    let (mut blocks, mut fallback_blocks) = (0u64, 0u64);
    let mut out = Vec::new();
    for chunk in &chunks {
        let mut reader = reader_at(gz, chunk)?;
        out.clear();
        let outcome = trace
            .time(
                "deflate.inflate_one_stage",
                chunk.start_bit,
                chunk.length as u64,
                || inflate(&mut reader, window_of(chunk), &mut out, chunk.stop_bit),
            )
            .map_err(|e| e.to_string())?;
        checks.check(out == output_of(chunk), "one-stage inflate output");
        blocks += outcome.blocks.len() as u64;
        fallback_blocks += u64::from(outcome.fast_fallback_blocks);
        // The block finder reports neither Fixed nor final blocks.
        true_blocks.extend(
            outcome
                .blocks
                .iter()
                .filter(|block| block.block_type != BlockType::Fixed && !block.is_final)
                .map(|block| block.bit_offset),
        );
        window_usage.push(outcome.window_usage);
    }
    metrics.insert(
        "deflate.inflate_one_stage_mb_s",
        trace.megabytes_per_second("deflate.inflate_one_stage"),
    );
    metrics.insert(
        "deflate.fast_fallback_block_ratio",
        fallback_blocks as f64 / blocks.max(1) as f64,
    );

    // --- two-stage inflate and marker replacement ------------------------
    let (mut markers, mut symbol_count) = (0u64, 0u64);
    let mut last_marker_offsets = Vec::new();
    let mut symbols: Vec<u16> = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        let mut reader = reader_at(gz, chunk)?;
        symbols.clear();
        trace
            .time(
                "deflate.inflate_two_stage",
                chunk.start_bit,
                chunk.length as u64,
                || inflate_two_stage(&mut reader, &mut symbols, chunk.stop_bit),
            )
            .map_err(|e| e.to_string())?;
        symbol_count += symbols.len() as u64;
        markers += symbols.iter().filter(|&&s| s >= MARKER_BASE).count() as u64;
        if i > 0 {
            let last = symbols.iter().rposition(|&s| s >= MARKER_BASE);
            last_marker_offsets.push(last.map_or(0.0, |p| (p + 1) as f64 / 1024.0));
        }
        let resolved = trace
            .time(
                "deflate.replace_markers",
                chunk.start_bit,
                symbols.len() as u64,
                || replace_markers_hashed(&symbols, window_of(chunk), &[]),
            )
            .map_err(|e| e.to_string())?;
        checks.check(
            resolved.0 == output_of(chunk),
            "two-stage inflate + marker replacement output",
        );
    }
    metrics.insert(
        "deflate.inflate_two_stage_mb_s",
        trace.megabytes_per_second("deflate.inflate_two_stage"),
    );
    metrics.insert(
        "deflate.replace_markers_mb_s",
        trace.megabytes_per_second("deflate.replace_markers"),
    );
    metrics.insert(
        "deflate.marker_symbol_ratio",
        markers as f64 / symbol_count.max(1) as f64,
    );
    metrics.insert("deflate.last_marker_offset_kib", mean(&last_marker_offsets));

    // --- block finder: every chunk-boundary guess to the first true block
    let finder = CombinedBlockFinder::new();
    let (mut distances, mut false_candidates) = (Vec::new(), Vec::new());
    for guess in (1..).map(|k| k * options.chunk_size) {
        if guess >= gz.len() {
            break;
        }
        let guess_bit = guess as u64 * 8;
        let first = true_blocks.partition_point(|&block| block < guess_bit);
        let Some(&target) = true_blocks.get(first) else {
            break;
        };
        let target = target - guess_bit;
        let range = &gz[guess..gz.len().min(guess + 2 * options.chunk_size)];
        let scanned = target / 8 + 1;
        let (found, rejected) = trace.time("blockfinder.scan", guess_bit, scanned, || {
            let (mut from, mut rejected) = (0u64, 0u64);
            loop {
                match finder.find_next_candidate(range, from) {
                    Some(candidate) if candidate.bit_offset < target => {
                        rejected += 1;
                        from = candidate.bit_offset + 1;
                    }
                    candidate => break (candidate.map(|c| c.bit_offset), rejected),
                }
            }
        });
        checks.check(found == Some(target), "block finder missed a true block");
        distances.push(scanned as f64);
        false_candidates.push(rejected as f64);
    }
    metrics.insert(
        "blockfinder.scan_mb_s",
        trace.megabytes_per_second("blockfinder.scan"),
    );
    metrics.insert("blockfinder.bytes_to_first_block", mean(&distances));
    metrics.insert(
        "blockfinder.false_candidates_per_chunk",
        mean(&false_candidates),
    );

    // --- CRC-32 of the output, per chunk, folded like the verifier does --
    let mut folded = 0u32;
    for chunk in &chunks {
        let crc = trace.time(
            "checksum.crc32",
            chunk.start_bit,
            chunk.length as u64,
            || rgz_checksum::crc32(output_of(chunk)),
        );
        folded = rgz_checksum::crc32_combine(folded, crc, chunk.length as u64);
    }
    checks.check(folded == prepared.manifest.crc32, "folded CRC-32");
    metrics.insert(
        "checksum.crc32_mb_s",
        trace.megabytes_per_second("checksum.crc32"),
    );

    // --- the single-thread comparator ------------------------------------
    let serial = trace
        .time("gzip.serial_decompress", 0, data.len() as u64, || {
            rgz_gzip::decompress(gz)
        })
        .map_err(|e| e.to_string())?;
    checks.check(serial == data, "serial decompression output");
    drop(serial);
    metrics.insert(
        "gzip.serial_decompress_mb_s",
        trace.megabytes_per_second("gzip.serial_decompress"),
    );

    // --- compressed input in chunk_size reads (page cache) ---------------
    let file = SharedFileReader::open(prepared.files.gz()).map_err(|e| e.to_string())?;
    for offset in (0..gz.len()).step_by(options.chunk_size) {
        let length = options.chunk_size.min(gz.len() - offset);
        let bytes = trace
            .time("io.read_range", offset as u64 * 8, length as u64, || {
                file.read_range(offset as u64, length)
            })
            .map_err(|e| e.to_string())?;
        checks.check(bytes == gz[offset..offset + length], "read_range bytes");
    }
    metrics.insert(
        "io.read_range_mb_s",
        trace.megabytes_per_second("io.read_range"),
    );

    // --- window store: first and second get, sparse insert ---------------
    let cold = GzipIndex::import(&prepared.index_bytes).map_err(|e| e.to_string())?;
    let inserted = WindowMap::new();
    for (chunk, usage) in chunks.iter().zip(&window_usage).skip(1) {
        let first = trace.time("window.get_cold", chunk.start_bit, 0, || {
            cold.window_map.get(chunk.start_bit)
        });
        checks.check(first.is_some(), "stored window missing or corrupt");
        trace.time("window.get_hot", chunk.start_bit, 0, || {
            cold.window_map.get(chunk.start_bit)
        });
        let window = window_of(chunk);
        trace.time(
            "window.insert_sparse",
            chunk.start_bit,
            window.len() as u64,
            || inserted.insert_sparse(chunk.start_bit, window, usage),
        );
    }
    for (metric, layer) in [
        ("window.get_cold_us", "window.get_cold"),
        ("window.get_hot_us", "window.get_hot"),
        ("window.insert_sparse_us", "window.insert_sparse"),
    ] {
        metrics.insert(metric, mean(&trace.durations(layer)) * 1e6);
    }

    // --- the compressor's work unit ---------------------------------------
    let compressor = DeflateCompressor::new(CompressorOptions::default());
    let sample = &data[..data.len().min(COMPRESS_SAMPLE)];
    for (i, slice) in sample.chunks(COMPRESS_SLICE).enumerate() {
        let compressed = trace.time(
            "deflate.compress_chunk",
            i as u64,
            slice.len() as u64,
            || compressor.compress(slice),
        );
        let mut restored = Vec::with_capacity(slice.len());
        let round_trip = inflate(
            &mut BitReader::new(&compressed),
            &[],
            &mut restored,
            u64::MAX,
        );
        checks.check(
            round_trip.is_ok() && restored == slice,
            "chunk compressor round trip",
        );
    }
    let compress_mb_s = trace.megabytes_per_second("deflate.compress_chunk");
    metrics.insert("deflate.compress_chunk_mb_s", compress_mb_s);

    // --- what the layers predict for this workload's operation -----------
    let crc = trace.seconds("checksum.crc32");
    let io = trace.seconds("io.read_range");
    let one_stage = trace.seconds("deflate.inflate_one_stage");
    let window_get = trace.seconds("window.get_cold");
    let (serial_seconds, parallel_seconds) = match prepared.workload.kind {
        Kind::Sequential => (
            0.0,
            trace.seconds("blockfinder.scan")
                + trace.seconds("deflate.inflate_two_stage")
                + trace.seconds("deflate.replace_markers")
                + trace.seconds("window.insert_sparse")
                + crc
                + io,
        ),
        Kind::Indexed => (
            stats::median(&trace.durations("index.import")),
            window_get + one_stage + crc + io,
        ),
        Kind::Seek => (0.0, 0.0),
        Kind::Compress => (0.0, data.len() as f64 / 1e6 / compress_mb_s.max(1e-9) + crc),
    };

    Ok(Layers {
        metrics,
        checks,
        serial_seconds,
        parallel_seconds,
        seconds_per_chunk_decode: (window_get + one_stage + crc + io) / chunks.len() as f64,
    })
}
