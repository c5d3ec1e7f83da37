//! Reads through a seek-point table that is not the reader's own: an index
//! need not put one chunk in each of the reader's `chunk_size` ranges — one
//! built at 32 KiB, or `ParallelCompressor`'s one point per BGZF block group,
//! puts dozens into a default 4 MiB range — so what is decoded ahead through
//! it goes by each chunk's own first bit, never by its range.  Whatever the
//! reader's chunk size and thread count: the same bytes, every chunk decoded
//! once and verified, and prefetches that are found.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use rapidgzip_suite::checksum::crc32;
use rapidgzip_suite::compress::{
    CompressionLevel, ContainerFormat, ParallelCompressor, ParallelCompressorOptions,
};
use rapidgzip_suite::core::{CoreError, ParallelGzipReader, ParallelGzipReaderOptions};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::GzipWriter;
use rapidgzip_suite::index::{GzipIndex, SeekPoint};
use rapidgzip_suite::io::SharedFileReader;
use rapidgzip_suite::metrics::names;
use rapidgzip_suite::window::WindowError;
use rgz_trace::{instants, EventKind, TraceSink};

mod common;
use common::quiesce;

const DATA_BYTES: usize = 2 << 20;

fn corpus() -> Vec<u8> {
    datagen::silesia_like(DATA_BYTES, 404)
}

/// A plain gzip file and the index a pass at 32 KiB chunks builds for it.
fn gzip_with_fine_index(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let compressed = GzipWriter::default().compress(data);
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 32 * 1024,
        ..Default::default()
    };
    let mut builder = ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();
    let index = builder.build_full_index().unwrap();
    (compressed, index.export())
}

/// A BGZF file and the index its compressor emits with it.
fn bgzf_with_emitted_index(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let stream = ParallelCompressor::new(ParallelCompressorOptions {
        level: CompressionLevel::Fast,
        container: ContainerFormat::Bgzf,
        chunk_size: 64 * 1024,
        parallelization: 2,
        ..Default::default()
    })
    .compress(data);
    (stream.bytes, stream.index.export())
}

fn reader(
    compressed: &[u8],
    index: &[u8],
    options: ParallelGzipReaderOptions,
) -> ParallelGzipReader {
    ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed.to_vec()),
        options,
        GzipIndex::import(index).unwrap(),
    )
    .unwrap()
}

#[test]
fn an_index_finer_than_the_readers_chunks_serves_every_chunk_once() {
    let data = corpus();
    let files = [
        ("gzip, 32 KiB index", gzip_with_fine_index(&data)),
        ("BGZF, emitted index", bgzf_with_emitted_index(&data)),
    ];
    // Chunk starts, chunk ends, a stride, and back again.
    let tour: Vec<usize> = [0, 7, 3, 11, 12, 13, 5, 15, 1, 14, 2]
        .into_iter()
        .map(|step| step * (DATA_BYTES / 16 - 1021))
        .chain([DATA_BYTES - 4096, 0])
        .collect();
    for (name, (compressed, index)) in &files {
        let points = GzipIndex::import(index).unwrap().block_map;
        // Many to a default chunk, and more than one to a small one.
        assert!(points.len() >= 16, "{name}: {} seek points", points.len());
        assert!(compressed.len() / points.len() < 48 * 1024, "{name}");
        let non_empty = points
            .points()
            .iter()
            .filter(|point| point.uncompressed_size > 0)
            .count() as u64;
        for chunk_size in [4 << 20, 64 << 10] {
            for parallelization in [1usize, 2, 8] {
                let run = format!("{name}, chunk {chunk_size}, P = {parallelization}");
                let options = ParallelGzipReaderOptions {
                    parallelization,
                    chunk_size,
                    ..Default::default()
                };
                let mut sequential = reader(compressed, index, options.clone());
                assert_eq!(sequential.decompress_all().unwrap(), data, "{run}");
                let statistics = sequential.statistics();
                // No chunk decoded twice, none served unchecked.
                assert_eq!(statistics.index_chunks, non_empty, "{run}: {statistics:?}");
                assert_eq!(statistics.index_chunks_verified, non_empty, "{run}");
                assert_eq!(statistics.index_chunks_unverified, 0, "{run}");
                assert!(statistics.index_prefetch_hits > 0, "{run}: {statistics:?}");
                assert_eq!(statistics.prefetches_issued, 0, "{run}");

                let mut seeking = reader(compressed, index, options);
                let mut buffer = vec![0u8; 4096];
                for &offset in &tour {
                    seeking.seek(SeekFrom::Start(offset as u64)).unwrap();
                    seeking.read_exact(&mut buffer).unwrap();
                    assert_eq!(buffer, data[offset..offset + 4096], "{run} at {offset}");
                }
                let statistics = seeking.statistics();
                assert!(statistics.index_prefetch_hits > 0, "{run}: {statistics:?}");
                assert_eq!(statistics.index_chunks_unverified, 0, "{run}");
            }
        }
    }
}

/// The prefetch policy, pinned: which chunks one scripted walk over the
/// table has decoded ahead, in which order, and how many of its reads found
/// their chunk that way.  With one worker and every decode finished before
/// the next read the walk is deterministic.  The rule: a read that takes its
/// chunk whole prefetches nothing if that is the chunk read last, the chunk
/// after it if the read jumped (followed a seek that moved the position),
/// and else the prefetch degree's chunks after it (2 × parallelization) —
/// clipped to the table, skipping those in the table or the access cache,
/// and letting go of finished chunks outside this read's reach once 2 ×
/// degree are held.  Every read of the walk is a jump, so each prefetches at
/// most one; the second read of chunk 1 is answered from the bytes the first
/// left held, and reaches nothing.
#[test]
fn the_prefetch_policy_is_the_recorded_one() {
    let data = corpus();
    let (compressed, index) = gzip_with_fine_index(&data);
    let points = GzipIndex::import(&index).unwrap().block_map;
    let points = points.points();
    assert_eq!(points.len(), 16);

    let trace = Arc::new(TraceSink::new_enabled());
    let options = ParallelGzipReaderOptions {
        parallelization: 1,
        chunk_size: 32 * 1024,
        resolved_cache_chunks: 2,
        ..Default::default()
    }
    .with_trace(Arc::clone(&trace));
    let mut reader = reader(&compressed, &index, options);
    let walk = [
        0usize, 1, 2, 3, 10, 11, 5, 12, 13, 14, 15, 4, 12, 0, 1, 1, 2, 3, 4, 5, 6, 9, 7,
    ];
    let mut buffer = vec![0u8; 1024];
    for &chunk in &walk {
        let offset = points[chunk].uncompressed_offset + 100;
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(buffer, data[offset as usize..][..1024], "chunk {chunk}");
        quiesce(&reader);
    }

    let mut issued = Vec::new();
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for track in trace.snapshot() {
        for event in &track.events {
            let EventKind::Instant { name, .. } = event.kind else {
                continue;
            };
            match name {
                instants::PREFETCH_ISSUE => {
                    let key = event.meta.chunk.unwrap();
                    let chunk = points
                        .iter()
                        .position(|point| point.compressed_bit_offset == key)
                        .expect("every prefetch starts at a seek point");
                    issued.push(chunk);
                }
                instants::PREFETCH_HIT => hits += 1,
                instants::PREFETCH_MISS => misses += 1,
                instants::PREFETCH_EVICT => evictions += 1,
                _ => {}
            }
        }
    }
    assert_eq!(issued, RECORDED_ISSUES);
    assert_eq!((hits, misses, evictions), RECORDED_HITS_MISSES_EVICTIONS);
    let statistics = reader.statistics();
    assert_eq!(statistics.index_prefetches_issued, issued.len() as u64);
    assert_eq!(statistics.index_prefetch_hits, hits);
    assert_eq!(statistics.index_chunks, hits + misses);
}

const RECORDED_ISSUES: [usize; 21] = [
    1, 2, 3, 4, 11, 12, 6, 13, 14, 15, 5, 13, 1, 2, 3, 4, 5, 6, 7, 10, 8,
];
const RECORDED_HITS_MISSES_EVICTIONS: (u64, u64, u64) = (16, 6, 3);

/// The chunks an index prefetch was issued for, in order, and how many
/// prefetch instants of any kind (issue, hit, miss, eviction) the trace holds.
fn prefetch_instants(trace: &TraceSink, points: &[SeekPoint]) -> (Vec<usize>, usize) {
    let mut issued = Vec::new();
    let mut instants = 0;
    for track in trace.snapshot() {
        for event in &track.events {
            let EventKind::Instant { name, .. } = event.kind else {
                continue;
            };
            match name {
                instants::PREFETCH_ISSUE => {
                    let key = event.meta.chunk.unwrap();
                    let at = points.iter().position(|p| p.compressed_bit_offset == key);
                    issued.push(at.expect("every prefetch starts at a seek point"));
                }
                instants::PREFETCH_HIT | instants::PREFETCH_MISS | instants::PREFETCH_EVICT => {}
                _ => continue,
            }
            instants += 1;
        }
    }
    (issued, instants)
}

/// Each clause of the prefetch rule on its own, at P = 2 (degree 4): a first
/// read that jumps into chunk 3 prefetches the one chunk after it; a read
/// that goes on from there into chunk 4 prefetches the four after that; a
/// jump elsewhere in chunk 4, the chunk read last, prefetches nothing; and
/// reads inside the bytes held from chunk 4 reach no chunk at all.
#[test]
fn a_read_prefetches_by_the_chunk_it_read_last_and_whether_it_jumped() {
    let data = corpus();
    let (compressed, index) = gzip_with_fine_index(&data);
    let imported = GzipIndex::import(&index).unwrap();
    let points = imported.block_map.points().to_vec();
    assert!(points.len() >= 10, "{} seek points", points.len());
    assert!(points[4].uncompressed_size > 64 * 1024);

    let trace = Arc::new(TraceSink::new_enabled());
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        ..Default::default()
    }
    .with_trace(Arc::clone(&trace));
    let mut reader = reader(&compressed, &index, options);
    let mut buffer = vec![0u8; 1024];
    let mut read_at = |reader: &mut ParallelGzipReader, offset: u64| {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(buffer, data[offset as usize..][..1024], "at {offset}");
        quiesce(reader);
    };

    // A jump, first read of all: the last KiB of chunk 3.
    read_at(&mut reader, points[4].uncompressed_offset - 1024);
    assert_eq!(prefetch_instants(&trace, &points).0, [4]);

    // Goes on where that one ended, into chunk 4: no seek moves the position.
    read_at(&mut reader, points[4].uncompressed_offset);
    assert_eq!(prefetch_instants(&trace, &points).0, [4, 5, 6, 7, 8]);
    assert_eq!(reader.statistics().index_prefetch_hits, 1);

    // A jump into chunk 4 again.
    read_at(&mut reader, points[4].uncompressed_offset + 50_000);
    let (issued, instants) = prefetch_instants(&trace, &points);
    assert_eq!(issued, [4, 5, 6, 7, 8]);

    let before = reader.statistics();
    for step in 0..10 {
        read_at(&mut reader, points[4].uncompressed_offset + step * 6000);
    }
    let after = reader.statistics();
    assert_eq!(after.index_chunks, before.index_chunks);
    assert_eq!(
        after.index_prefetches_issued,
        before.index_prefetches_issued
    );
    assert_eq!(prefetch_instants(&trace, &points), (issued, instants));
}

/// A jump whose chunk is in the access cache decodes nothing, and prefetches
/// nothing either: at a point a MiB long that is most of a tour's reads, and
/// the neighbour a prefetch would decode is one the tour is not going to.
#[test]
fn a_jump_into_a_cached_chunk_prefetches_nothing() {
    let data = corpus();
    let (compressed, index) = gzip_with_fine_index(&data);
    let points = GzipIndex::import(&index)
        .unwrap()
        .block_map
        .points()
        .to_vec();
    assert!(points.len() >= 16);
    let trace = Arc::new(TraceSink::new_enabled());
    let options = ParallelGzipReaderOptions {
        parallelization: 1,
        ..Default::default()
    }
    .with_trace(Arc::clone(&trace));
    let mut reader = reader(&compressed, &index, options);
    let mut buffer = vec![0u8; 1024];
    let mut jump_into = |reader: &mut ParallelGzipReader, chunk: usize| {
        let offset = points[chunk].uncompressed_offset + 100;
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(buffer, data[offset as usize..][..1024], "chunk {chunk}");
        quiesce(reader);
        prefetch_instants(&trace, &points).0
    };
    // Each jump decodes its chunk and prefetches the next, until the table
    // of chunks decoded ahead is full and lets go of the oldest: chunk 1.
    for chunk in [0, 3, 6, 9, 12] {
        jump_into(&mut reader, chunk);
    }
    let issued = prefetch_instants(&trace, &points).0;
    assert_eq!(issued, [1, 4, 7, 10, 13]);
    let before = reader.statistics();
    // Chunk 0 is in the access cache; chunk 1 is nowhere.
    assert_eq!(jump_into(&mut reader, 0), issued);
    let after = reader.statistics();
    assert_eq!(after.index_chunks, before.index_chunks);
    // One that has to decode its chunk still prefetches the next.
    assert_eq!(jump_into(&mut reader, 14).last(), Some(&15));
}

/// A whole chunk's buffer is taken at the length the index gives it, but an
/// index is believed only as far as the chunk's bits could inflate: a point
/// that claims exabytes is an error when read, not an allocation of them.
#[test]
fn a_length_no_bits_could_inflate_to_is_an_error_not_an_allocation() {
    let data = corpus();
    let compressed = GzipWriter::default().compress(&data);
    let mut index = GzipIndex::new();
    index.compressed_size = compressed.len() as u64;
    let claimed = 1 << 62;
    let point = SeekPoint {
        compressed_bit_offset: 0,
        uncompressed_offset: 0,
        uncompressed_size: claimed,
    };
    index.add_seek_point(point, &[]);
    index.uncompressed_size = claimed;
    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed),
        ParallelGzipReaderOptions::with_parallelization(1),
        index,
    )
    .unwrap();
    match reader.decompress_all() {
        Err(CoreError::IndexMismatch {
            compressed_bit_offset: 0,
        }) => {}
        other => panic!("expected an index mismatch, got {other:?}"),
    }
}

/// Where each seek point's stored window CRC-32 lies in a v3 index file.
fn window_checksum_positions(index: &[u8]) -> Vec<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(index[at..at + 4].try_into().unwrap());
    let points = u64::from_le_bytes(index[28..36].try_into().unwrap());
    // Header; per point three u64 offsets, then flags u8, original and
    // window length u32, payload length u32, CRC-32 u32, the payload, and the
    // fragments' presence byte with what it announces.
    let mut at = 36;
    (0..points)
        .map(|_| {
            let checksum = at + 24 + 13;
            at = checksum + 4 + u32_at(at + 24 + 9) as usize;
            at += match index[at] {
                1 => 1 + 8 + 4 + 12 * u32_at(at + 9) as usize,
                _ => 1,
            };
            checksum
        })
        .collect()
}

/// Every window a decode through the index starts from is read through the
/// index's window map, a prefetch's included: one sample of the inflate
/// histogram each, and a corrupt record fails the read and is counted.
#[test]
fn prefetched_chunks_read_their_windows_through_the_map() {
    let data = corpus();
    let (compressed, index) = gzip_with_fine_index(&data);
    let imported = GzipIndex::import(&index).unwrap();
    let points = imported.block_map.points();
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 32 * 1024,
        ..Default::default()
    };

    let mut pristine = reader(&compressed, &index, options.clone());
    assert_eq!(pristine.decompress_all().unwrap(), data);
    quiesce(&pristine);
    let statistics = pristine.statistics();
    assert!(statistics.index_prefetch_hits > 0, "{statistics:?}");
    let with_window = points
        .iter()
        .filter(|point| point.uncompressed_size > 0)
        .filter(|point| imported.window_map.contains(point.compressed_bit_offset))
        .count() as u64;
    let snapshot = pristine.metrics().snapshot();
    let inflations = snapshot.histogram(names::WINDOW_INFLATE_SECONDS, &[]);
    assert_eq!(inflations.unwrap().count, with_window);

    // The third point's record: the first chunk is the reader's own to
    // decode, the ones after it are prefetched while it does.
    let mut corrupt = index.clone();
    corrupt[window_checksum_positions(&index)[2]] ^= 1;
    let body = corrupt.len() - 4;
    let trailer = crc32(&corrupt[..body]);
    corrupt[body..].copy_from_slice(&trailer.to_le_bytes());
    let trace = Arc::new(TraceSink::new_enabled());
    let mut reader = reader(
        &compressed,
        &corrupt,
        options.with_trace(Arc::clone(&trace)),
    );
    match reader.decompress_all() {
        Err(CoreError::Window(WindowError::ChecksumMismatch { .. })) => {}
        other => panic!("expected a window checksum mismatch, got {other:?}"),
    }
    quiesce(&reader);
    assert_eq!(reader.window_statistics().corrupt_windows, 1);
    let prefetched = trace.snapshot().iter().any(|track| {
        track.events.iter().any(|event| {
            matches!(event.kind, EventKind::Instant { name, .. } if name == instants::PREFETCH_ISSUE)
                && event.meta.chunk == Some(points[2].compressed_bit_offset)
        })
    });
    assert!(prefetched, "the corrupt point's chunk was not prefetched");
}

/// Output a block of [`exported_file`] covers: its longest.
const EXPORT_BLOCK: usize = 64 << 10;

/// A pass's chunks of [`exported_file`]: 1 MiB of it compressed, some three
/// of output.
const EXPORT_CHUNK: usize = 1 << 20;

/// 7 MiB of text in one gzip member of 64 KiB blocks.
fn exported_file() -> (Vec<u8>, Vec<u8>) {
    let data = datagen::silesia_like(7 << 20, 421);
    let compressed = GzipWriter::new(rapidgzip_suite::deflate::CompressorOptions {
        block_size: EXPORT_BLOCK,
        ..Default::default()
    })
    .compress(&data);
    (data, compressed)
}

/// The index a pass at `parallelization` threads exports, and how many
/// chunks it decoded.
fn exported_index(compressed: &[u8], parallelization: usize) -> (GzipIndex, u64) {
    let options = ParallelGzipReaderOptions {
        parallelization,
        chunk_size: EXPORT_CHUNK,
        ..Default::default()
    };
    let mut pass = ParallelGzipReader::from_bytes(compressed.to_vec(), options).unwrap();
    let index = pass.build_full_index().unwrap();
    let statistics = pass.statistics();
    let chunks = statistics.speculative_chunks_used
        + statistics.window_known_chunks
        + statistics.on_demand_chunks;
    (index, chunks)
}

#[test]
fn a_pass_exports_a_seek_point_every_mib_and_a_block() {
    let (data, compressed) = exported_file();
    let (index, chunks) = exported_index(&compressed, 2);
    assert!(chunks >= 2, "{chunks} chunks");
    let points = index.block_map.points();
    // Chunk starts and cuts alike, each with its window and fragments.
    assert!(points.len() as u64 >= data.len() as u64 >> 20, "{points:?}");
    assert!(points.len() as u64 > chunks);
    for point in points {
        let most = (EXPORT_CHUNK + EXPORT_BLOCK) as u64;
        assert!(point.uncompressed_size <= most, "{point:?}");
        let checksums = index.checksum_map.get(point.compressed_bit_offset).unwrap();
        let covered: u64 = checksums.fragments.iter().map(|f| f.length).sum();
        assert_eq!(covered, point.uncompressed_size, "{point:?}");
        assert!(
            index.window_map.contains(point.compressed_bit_offset)
                || point.uncompressed_offset == 0
        );
    }
    assert_eq!(index.block_map.uncompressed_size(), data.len() as u64);
}

#[test]
fn the_exported_index_does_not_depend_on_the_thread_count() {
    let (_, compressed) = exported_file();
    let exports = [1, 2, 3].map(|parallelization| exported_index(&compressed, parallelization));
    let bytes = exports.each_ref().map(|(index, _)| index.export());
    assert!(bytes[0] == bytes[1], "P = 1 and 2 differ");
    assert!(bytes[0] == bytes[2], "P = 1 and 3 differ");
    // More points than chunks: the export splits them.
    let (index, chunks) = &exports[0];
    assert!(index.block_map.len() as u64 > *chunks);
}

#[test]
fn a_cold_read_through_an_exported_index_decodes_a_mib_not_a_chunk() {
    let (data, compressed) = exported_file();
    let exported = exported_index(&compressed, 2).0.export();
    let points = GzipIndex::import(&exported).unwrap().block_map;
    // Reads inside one point each: the first, a middle one and the last.
    let middle = points.find(3 << 20).unwrap();
    let picked = [0, middle, points.len() - 1].map(|index| {
        let point = &points.points()[index];
        assert!(point.uncompressed_size > (64 << 10) + 100, "{point:?}");
        point.uncompressed_offset as usize + 100
    });
    for offset in picked {
        let options = ParallelGzipReaderOptions {
            parallelization: 1,
            chunk_size: EXPORT_CHUNK,
            ..Default::default()
        };
        let mut fresh = reader(&compressed, &exported, options);
        let mut buffer = vec![0u8; 64 << 10];
        fresh.seek(SeekFrom::Start(offset as u64)).unwrap();
        fresh.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset..][..buffer.len()], "at {offset}");
        let statistics = fresh.statistics();
        assert_eq!(statistics.index_chunks, 1, "at {offset}: {statistics:?}");
        assert_eq!(statistics.index_chunks_verified, 1, "at {offset}");
        assert_eq!(statistics.index_slices, 0, "at {offset}");
        // The bytes the one chunk served were all that was decoded for it.
        let decoded = fresh.metrics().snapshot().counter_total(names::BYTES_OUT);
        let point = &points.points()[points.find(offset as u64).unwrap()];
        assert_eq!(decoded, point.uncompressed_size, "at {offset}");
        assert!(
            decoded <= (EXPORT_CHUNK + EXPORT_BLOCK) as u64,
            "{decoded} bytes"
        );
    }

    // The reader that made the pass seeks through the table it exports: the
    // same reads decode the same points, not the chunks they were cut from.
    let options = ParallelGzipReaderOptions {
        parallelization: 1,
        chunk_size: EXPORT_CHUNK,
        ..Default::default()
    };
    let mut same = ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();
    assert!(same.decompress_all().unwrap() == data);
    let decoded = |reader: &ParallelGzipReader| {
        let snapshot = reader.metrics().snapshot();
        snapshot.counter_total(names::BYTES_OUT)
    };
    for offset in picked {
        let before = decoded(&same);
        let mut buffer = vec![0u8; 64 << 10];
        same.seek(SeekFrom::Start(offset as u64)).unwrap();
        same.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset..][..buffer.len()], "at {offset}");
        let point = &points.points()[points.find(offset as u64).unwrap()];
        assert_eq!(
            decoded(&same) - before,
            point.uncompressed_size,
            "at {offset}"
        );
    }
}

#[test]
fn a_table_of_bgzf_members_keeps_more_than_four_of_them() {
    // The access cache counts the compressed bytes its chunks span: sixteen
    // MiB of them at the default chunk size, every 64 KiB member of this
    // file.  Counting them as four chunks would keep four.
    let data = corpus();
    let (compressed, index) = bgzf_with_emitted_index(&data);
    let points = GzipIndex::import(&index).unwrap().block_map;
    let options = ParallelGzipReaderOptions {
        parallelization: 1,
        ..Default::default()
    };
    let mut bgzf = reader(&compressed, &index, options);
    // A reader that has sought keeps what it reads whole; a stream would not.
    bgzf.seek(SeekFrom::Start(1)).unwrap();
    assert_eq!(bgzf.decompress_all().unwrap(), data);
    quiesce(&bgzf);
    let decoded = bgzf.statistics().index_chunks;
    // Back through the last eight members, each where it was left.
    let members = points
        .points()
        .iter()
        .filter(|point| point.uncompressed_size > 0);
    let last: Vec<u64> = members.map(|point| point.uncompressed_offset).collect();
    assert!(last.len() > 8);
    let mut byte = [0u8; 1];
    for &offset in last.iter().rev().take(8) {
        bgzf.seek(SeekFrom::Start(offset)).unwrap();
        bgzf.read_exact(&mut byte).unwrap();
        assert_eq!(byte[0], data[offset as usize]);
    }
    assert_eq!(bgzf.statistics().index_chunks, decoded);
}
