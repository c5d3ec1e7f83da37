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
//! A third takes a tour of 128 seeded 64 KiB reads through the reader that
//! made the pass, once it has read the file, and through a fresh reader of
//! the index it exports: one table, so the 90th percentiles of the two should
//! match (`imported_vs_same_reader_p90`), and their means, which count the
//! reads beyond — a whole chunk decoded at each chunk's first touch, where
//! the export has a point every MiB.  Beside it, the MB/s of a second whole
//! read on the same reader and of a first one on the fresh reader, at one and
//! two threads.  Two counts of work go with the tour: the mean bytes a jump's
//! slice decodes on the same reader, against the bytes of a point
//! (`point_vs_slice_bytes`), and the exported index's bytes per seek point,
//! against those of the same table with every window stored whole
//! (`verbatim_vs_index_bytes`) — what sparse windows at the cuts and interior
//! points save, measured by counting, not by a clock.
//!
//! `--json` emits one [`rgz_bench::JsonReport`] line; `perf_compare` gates
//! `verified_vs_unverified_ratio`, `slice_vs_chunk_read_speedup`,
//! `imported_vs_same_reader_p90`, `point_vs_slice_bytes` and
//! `verbatim_vs_index_bytes`.  The
//! design target of the first is <= 10% overhead
//! (a ratio of 0.9); the checked-in floor sits at 0.85 to leave measurement
//! margin on loaded CI runners while still catching pathological
//! regressions (an accidental second hash or decode pass lands well below
//! it).

use std::io::{Read, Seek, SeekFrom};
use std::time::Duration;

use rgz_bench::*;
use rgz_core::{
    ParallelGzipReader, ParallelGzipReaderOptions, VerificationMode, DEFAULT_CHUNK_SIZE,
};
use rgz_gzip::GzipWriter;
use rgz_index::{GzipIndex, WindowMap, WINDOW_SIZE};
use rgz_io::SharedFileReader;

/// The pass's table of chunks, out of the index it exported.
#[path = "../../../../tests/common/chunk_table.rs"]
mod chunk_table;

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

/// 64 KiB reads through a v3 index of chunks a dozen MiB of output long —
/// the chunks the pass decoded, merged back from the points a MiB apart it
/// cut them into: each chunk's
/// first touch — the whole chunk, decoded and checked — and then a tour of
/// jumps that find their chunk's interior points known.
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
    let exported = ParallelGzipReader::from_bytes(compressed.clone(), options.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table::chunk_table(&exported, options.chunk_size);
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

/// Seeded 64 KiB reads over a file of a dozen chunks of the pass, through the
/// reader that made the pass after it read the file, and through a fresh
/// reader of its export; then a second whole read of the same reader against
/// a first of a fresh one.  With them, the mean bytes of the same reader's
/// slices against a point's, and the bytes per point of the export against
/// those of the same table with every window stored whole.
fn tour_after_the_pass(report: &mut JsonReport, json: bool) {
    let read_size = 64 << 10;
    let data = rgz_datagen::silesia_like(scaled(128 << 20, 32 << 20), 3);
    let compressed = GzipWriter::default().compress(&data);
    // A reader that has read the file, and the fresh reader of its export;
    // and the export.
    let readers = |parallelization| {
        let options = ParallelGzipReaderOptions {
            parallelization,
            chunk_size: scaled(DEFAULT_CHUNK_SIZE, 1 << 20),
            ..Default::default()
        };
        let mut same = ParallelGzipReader::from_bytes(compressed.clone(), options.clone()).unwrap();
        assert!(same.decompress_all().unwrap() == data);
        let exported = same.index().export();
        let index = GzipIndex::import(&exported).unwrap();
        let file = SharedFileReader::from_bytes(compressed.clone());
        let imported = ParallelGzipReader::with_index(file, options, index).unwrap();
        ([same, imported], exported)
    };
    // Ten or more reads lie beyond the 90th percentile.
    let offsets = access_offsets(SEED, data.len(), 128, read_size);
    let mut buffer = vec![0u8; read_size];
    // The best of three tours a side, each with fresh readers, so that a
    // drift of the machine reaches both alike; and what the same reader's
    // slices decoded in all three.
    let [mut same, mut imported] = [[f64::MAX; 2]; 2];
    let (mut slice_bytes, mut slices) = (0, 0);
    let mut exported = Vec::new();
    for _ in 0..3 {
        let (pair, export) = readers(available_cores());
        exported = export;
        let [(same_tour, sliced), (imported_tour, _)] = pair.map(|mut reader| {
            let mut reads: Vec<Duration> = offsets
                .iter()
                .map(|&offset| {
                    let (_, elapsed) = time(|| {
                        reader.seek(SeekFrom::Start(offset)).unwrap();
                        reader.read_exact(&mut buffer).unwrap();
                    });
                    assert!(buffer[..] == data[offset as usize..][..read_size]);
                    elapsed
                })
                .collect();
            reads.sort();
            // The mean holds what lies beyond: a chunk's whole first touch.
            let mean = reads.iter().sum::<Duration>() / reads.len() as u32;
            let statistics = reader.statistics();
            (
                [reads[reads.len() * 9 / 10], mean].map(|time| time.as_secs_f64() * 1e3),
                (statistics.index_slice_bytes, statistics.index_slices),
            )
        });
        slice_bytes += sliced.0;
        slices += sliced.1;
        let tours = [same_tour, imported_tour];
        for (best, tour) in [&mut same, &mut imported].into_iter().zip(tours) {
            *best = [0, 1].map(|figure| best[figure].min(tour[figure]));
        }
    }
    let ratio = imported[0] / same[0].max(1e-9);
    for (reader, [p90, mean]) in [("same_reader", same), ("imported", imported)] {
        report.record(&format!("{reader}_tour_p90_ms"), p90);
        report.record(&format!("{reader}_tour_mean_ms"), mean);
        if !json {
            println!("64 KiB reads after the pass, {reader}: p90 {p90:.2} ms, mean {mean:.2} ms");
        }
    }
    report.record("imported_vs_same_reader_p90", ratio);

    // Counts, not clocks: what a jump decodes, and what a point stores.
    let index = GzipIndex::import(&exported).unwrap();
    let points = index.block_map.len() as f64;
    let point_bytes = data.len() as f64 / points;
    assert!(slices > 0, "no read of the tour sliced its point");
    let slice_bytes = slice_bytes as f64 / slices as f64;
    let index_bytes = exported.len() as f64 / points;
    let whole = WindowMap::new();
    for point in index.block_map.points() {
        let at = point.uncompressed_offset as usize;
        let window = &data[at.saturating_sub(WINDOW_SIZE)..at];
        whole.insert(point.compressed_bit_offset, window);
    }
    let whole = GzipIndex {
        window_map: whole,
        ..index
    };
    let verbatim_bytes = whole.export().len() as f64 / points;
    report.record("same_reader_slice_bytes", slice_bytes);
    report.record("point_vs_slice_bytes", point_bytes / slice_bytes);
    report.record("index_bytes_per_point", index_bytes);
    report.record("verbatim_vs_index_bytes", verbatim_bytes / index_bytes);
    if !json {
        println!(
            "a jump's slice after the pass: {slice_bytes:.0} bytes of a point's {point_bytes:.0} ({slices} slices)"
        );
        println!(
            "exported index: {index_bytes:.0} bytes per point, {verbatim_bytes:.0} with every window whole"
        );
    }

    for parallelization in [1, 2] {
        let (pair, _) = readers(parallelization);
        let [second, first] = pair.map(|mut reader| {
            let (read, elapsed) = time(|| reader.decompress_all().unwrap());
            assert!(read == data);
            bandwidth_mb_per_s(data.len(), elapsed)
        });
        report.record(&format!("second_read_p{parallelization}_mb_s"), second);
        report.record(&format!("imported_read_p{parallelization}_mb_s"), first);
        if !json {
            println!("whole read, P = {parallelization}: {second:.1} MB/s the same reader's second, {first:.1} the first of one of its export");
        }
    }
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
    let fragmentless = rgz_index::GzipIndex {
        checksum_map: Default::default(),
        ..index.clone()
    }
    .export();

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
        // Control: Full mode through a v3 index without fragments follows
        // the identical code path minus the hashing, isolating the hash cost
        // from any other mode-dependent work.
        let (bare, _, _) = one_sweep(
            &fragmentless,
            &compressed,
            VerificationMode::Full,
            &offsets,
            read_size,
        );
        fragmentless_time = fragmentless_time.min(bare);
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
            "v3 (no frags)", fragmentless_mb_s, "-"
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
    tour_after_the_pass(&mut report, json);

    if json {
        report.emit();
    }
}
