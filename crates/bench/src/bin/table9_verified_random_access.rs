//! Table 9: verified random access — the cost of checking stored CRC-32
//! fragments on the index fast path.
//!
//! A v3 index stores per-seek-point checksum fragments, so every on-demand
//! chunk decode under [`VerificationMode::Full`] is hashed and compared.
//! This harness measures the same shuffled access pattern through the same
//! v3 index with verification on and off; the hardware-independent ratio
//! between the two is the price of closing the unverified fast-path hole.
//!
//! A second leg measures what a seek costs once its chunk has been decoded
//! before: the reader keeps interior seek points from a chunk's first, whole,
//! verified decode, and a later jump into the chunk decodes the MiB or so
//! around the read instead of all of it — `slice_vs_chunk_read_speedup`,
//! checked against the same CRCs.
//!
//! `--json` emits one [`rgz_bench::JsonReport`] line; `perf_compare` gates
//! `verified_vs_unverified_ratio` and `slice_vs_chunk_read_speedup`.  The
//! design target of the first is <= 10% overhead
//! (a ratio of 0.9); the checked-in floor sits at 0.85 to leave measurement
//! margin on loaded CI runners while still catching pathological
//! regressions (an accidental second hash or decode pass lands well below
//! it).

use std::io::{Read, Seek, SeekFrom};
use std::time::Duration;

use rgz_bench::*;
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, VerificationMode};
use rgz_gzip::GzipWriter;
use rgz_index::GzipIndex;
use rgz_io::SharedFileReader;

fn options(verification: VerificationMode) -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: available_cores(),
        chunk_size: scaled(1 << 20, 128 << 10),
        verification,
        ..Default::default()
    }
}

/// Seed of the access offsets.
const SEED: u64 = 0x9E3779B9_7F4A7C15;

/// One sweep with a fresh reader, so every repetition decodes (and, when
/// enabled, re-verifies) its chunks instead of hitting the resolved cache.
fn one_sweep(
    serialized: &[u8],
    compressed: &[u8],
    verification: VerificationMode,
    offsets: &[u64],
    read_size: usize,
) -> (Duration, u64, u64) {
    let index = GzipIndex::import(serialized).unwrap();
    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed.to_vec()),
        options(verification),
        index,
    )
    .unwrap();
    let elapsed = timed_random_access(&mut reader, offsets, read_size);
    let statistics = reader.verification_statistics();
    (
        elapsed,
        statistics.index_chunks_verified,
        statistics.index_chunks_unverified,
    )
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// 64 KiB reads through a v3 index of chunks a dozen MiB of output long:
/// each chunk's first touch — the whole chunk, decoded and checked — and then
/// a tour of jumps that find their chunk's interior points known.
fn sliced_reads(report: &mut JsonReport, json: bool) {
    let read_size = 64 << 10;
    let options = ParallelGzipReaderOptions {
        parallelization: available_cores(),
        chunk_size: scaled(4 << 20, 2 << 20),
        // Of whole chunks, the access cache keeps the last.
        resolved_cache_chunks: 1,
        ..Default::default()
    };
    let data = rgz_datagen::silesia_like(scaled(96 << 20, 28 << 20), 92);
    let compressed = GzipWriter::default().compress(&data);
    let index = ParallelGzipReader::from_bytes(compressed.clone(), options.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let serialized = index.export();
    let points = index.block_map.points();
    assert!(points.len() >= 4, "{} chunks", points.len());

    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed),
        options,
        GzipIndex::import(&serialized).unwrap(),
    )
    .unwrap();
    let mut offsets = access_offsets(SEED, usize::MAX, 1 << 10, 0).into_iter();
    let mut buffer = vec![0u8; read_size];
    let mut read_in = |reader: &mut ParallelGzipReader, chunk: usize| {
        let room = points[chunk].uncompressed_size - read_size as u64;
        let offset = points[chunk].uncompressed_offset + offsets.next().unwrap() % room;
        let start = std::time::Instant::now();
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        let elapsed = start.elapsed();
        assert!(buffer[..] == data[offset as usize..][..read_size]);
        elapsed
    };
    // Last chunk to first, and round again: never the chunk just read or the
    // one after it, which the reader takes for a sequential run.
    let descending = (0..points.len()).rev();
    let whole: Vec<Duration> = descending
        .clone()
        .map(|chunk| read_in(&mut reader, chunk))
        .collect();
    // Of the jumps after, those count that decoded a slice: not the ones into
    // the chunk the access cache holds.
    let mut sliced = Vec::new();
    for chunk in descending.cycle().take(scaled(120, 40)) {
        let slices_before = reader.statistics().index_slices;
        let elapsed = read_in(&mut reader, chunk);
        if reader.statistics().index_slices > slices_before {
            sliced.push(elapsed);
        }
    }

    let statistics = reader.statistics();
    assert!(sliced.len() >= scaled(60, 20), "{statistics:?}");
    assert_eq!(statistics.index_chunks_unverified, 0, "{statistics:?}");
    let (whole_ms, sliced_ms) = (median_ms(whole), median_ms(sliced));
    let chunk_bytes = data.len() as f64 / points.len() as f64;
    let slice_bytes = statistics.index_slice_bytes as f64 / statistics.index_slices as f64;
    let speedup = whole_ms / sliced_ms.max(1e-9);
    if !json {
        println!();
        println!(
            "{:<22} {:>10} {:>26}",
            "64 KiB read", "median ms", "decoded bytes / byte read"
        );
        let per_byte = |bytes: f64| bytes / read_size as f64;
        println!(
            "{:<22} {:>10.2} {:>26.1}",
            "first touch (chunk)",
            whole_ms,
            per_byte(chunk_bytes)
        );
        println!(
            "{:<22} {:>10.2} {:>26.1}",
            "later jump (slice)",
            sliced_ms,
            per_byte(slice_bytes)
        );
        println!("slice/chunk read speedup: {speedup:.1}");
    }
    report.record("whole_chunk_read_ms", whole_ms);
    report.record("sliced_read_ms", sliced_ms);
    report.record(
        "sliced_decoded_bytes_per_byte_read",
        slice_bytes / read_size as f64,
    );
    report.record("slice_vs_chunk_read_speedup", speedup);
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("table9_verified_random_access");
    if !json {
        print_header(
            "Table 9 — verified random access through a v3 index",
            "same access pattern, stored-fragment verification on vs. off",
        );
    }

    let total = scaled(48 << 20, 6 << 20);
    let read_size = 64 << 10;
    let accesses = scaled(48, 16);
    let data = rgz_datagen::base64_random(total, 91);
    let compressed = GzipWriter::default().compress_pigz_like(&data, 128 << 10);
    let offsets = access_offsets(SEED, total, accesses, read_size);
    let touched = (accesses * read_size) as f64;

    // Producer side: one sequential pass captures the fragments for free;
    // the v3 export carries them.
    let mut producer =
        ParallelGzipReader::from_bytes(compressed.clone(), options(VerificationMode::Full))
            .unwrap();
    let index = producer.build_full_index().unwrap();
    let serialized = index.export();
    let serialized_v2 = index.export_as(rgz_index::IndexFormat::V2);

    // Untimed warmup: touch the compressed bytes and the allocator once so
    // the first timed sweep is not charged for cold caches.
    one_sweep(
        &serialized,
        &compressed,
        VerificationMode::Off,
        &offsets,
        read_size,
    );

    // Interleave the modes and keep the best of each, so machine-load
    // drift hits both measurements instead of biasing one side.
    let mut unverified_time = Duration::MAX;
    let mut fragmentless_time = Duration::MAX;
    let mut verified_time = Duration::MAX;
    let mut chunks_verified = 0;
    let mut chunks_unverified = 0;
    for _ in 0..5 {
        let (off, _, _) = one_sweep(
            &serialized,
            &compressed,
            VerificationMode::Off,
            &offsets,
            read_size,
        );
        unverified_time = unverified_time.min(off);
        // Control: Full mode through a fragment-less v2 index follows the
        // identical code path minus the hashing, isolating the hash cost
        // from any other mode-dependent work.
        let (v2, _, _) = one_sweep(
            &serialized_v2,
            &compressed,
            VerificationMode::Full,
            &offsets,
            read_size,
        );
        fragmentless_time = fragmentless_time.min(v2);
        let (full, verified, unverified) = one_sweep(
            &serialized,
            &compressed,
            VerificationMode::Full,
            &offsets,
            read_size,
        );
        verified_time = verified_time.min(full);
        chunks_verified = verified;
        chunks_unverified = unverified;
    }
    let unverified_mb_s = touched / 1e6 / unverified_time.as_secs_f64().max(1e-9);
    let fragmentless_mb_s = touched / 1e6 / fragmentless_time.as_secs_f64().max(1e-9);
    let verified_mb_s = touched / 1e6 / verified_time.as_secs_f64().max(1e-9);
    assert!(
        chunks_verified > 0 && chunks_unverified == 0,
        "the v3 fast path must verify every chunk it serves \
         ({chunks_verified} verified, {chunks_unverified} unverified)"
    );

    let ratio = verified_mb_s / unverified_mb_s.max(1e-9);
    if !json {
        println!(
            "{:<14} {:>12} {:>16}",
            "mode", "access MB/s", "chunks verified"
        );
        println!("{:<14} {:>12.1} {:>16}", "unverified", unverified_mb_s, "-");
        println!(
            "{:<14} {:>12.1} {:>16}",
            "v2 (no frags)", fragmentless_mb_s, "-"
        );
        println!(
            "{:<14} {:>12.1} {:>16}",
            "verified", verified_mb_s, chunks_verified
        );
        println!("verified/unverified ratio: {ratio:.3}");
    }
    report.record("unverified_access_mb_s", unverified_mb_s);
    report.record("fragmentless_access_mb_s", fragmentless_mb_s);
    report.record("verified_access_mb_s", verified_mb_s);
    report.record("verified_vs_unverified_ratio", ratio);
    sliced_reads(&mut report, json);

    if json {
        report.emit();
    }
}
