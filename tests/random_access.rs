//! Integration tests for seeking, index reuse, and concurrent access from
//! multiple offsets.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use rapidgzip_suite::core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rapidgzip_suite::datagen;
use rapidgzip_suite::deflate::{CompressionLevel, CompressorOptions};
use rapidgzip_suite::gzip::GzipWriter;
use rapidgzip_suite::index::{GzipIndex, SeekPoint};
use rapidgzip_suite::io::SharedFileReader;
use rapidgzip_suite::metrics::{names, MetricsRegistry};

mod common;
use common::{chunk_table, held_windows, quiesce};

fn options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 4,
        chunk_size: 64 * 1024,
        ..Default::default()
    }
}

#[test]
fn seeks_are_equivalent_to_skipping() {
    let data = datagen::silesia_like(1_500_000, 20);
    let compressed = GzipWriter::default().compress(&data);
    let mut reader = ParallelGzipReader::from_bytes(compressed, options()).unwrap();
    let mut buffer = vec![0u8; 8192];
    for &offset in &[0u64, 1, 65_535, 65_536, 777_777, 1_400_000] {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(
            &buffer[..],
            &data[offset as usize..offset as usize + buffer.len()]
        );
    }
    // Backwards seek after reading forward.
    reader.seek(SeekFrom::Start(10)).unwrap();
    reader.read_exact(&mut buffer[..16]).unwrap();
    assert_eq!(&buffer[..16], &data[10..26]);
    // Relative and end-anchored seeks.
    let position = reader.seek(SeekFrom::Current(-8)).unwrap();
    assert_eq!(position, 18);
    let position = reader.seek(SeekFrom::End(-100)).unwrap();
    assert_eq!(position, data.len() as u64 - 100);
    let mut tail = Vec::new();
    reader.read_to_end(&mut tail).unwrap();
    assert_eq!(&tail, &data[data.len() - 100..]);
}

#[test]
fn exported_index_survives_a_round_trip_to_disk() {
    let data = datagen::fastq_of_size(1_000_000, 21);
    let compressed = GzipWriter::default().compress(&data);
    let shared = SharedFileReader::from_bytes(compressed);

    let mut builder = ParallelGzipReader::new(shared.clone(), options()).unwrap();
    let index = builder.build_full_index().unwrap();
    let path = std::env::temp_dir().join(format!("rgz_index_{}.rgzidx", std::process::id()));
    std::fs::write(&path, index.export()).unwrap();

    let imported = GzipIndex::import(&std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(imported.block_map.len(), index.block_map.len());

    let mut reader = ParallelGzipReader::with_index(shared, options(), imported).unwrap();
    assert_eq!(reader.uncompressed_size(), Some(data.len() as u64));
    let mut buffer = vec![0u8; 4096];
    reader.seek(SeekFrom::Start(500_000)).unwrap();
    reader.read_exact(&mut buffer).unwrap();
    assert_eq!(&buffer[..], &data[500_000..504_096]);
    assert_eq!(reader.decompress_all().unwrap(), data);
}

#[test]
fn v2_index_round_trips_through_disk_with_byte_identical_output() {
    // Export with and without fragments (what a v2 file holds), re-import
    // each, and byte-compare full decompression and random access against
    // the serial decoder's output.
    let data = datagen::silesia_like(1_200_000, 25);
    let compressed = GzipWriter::default().compress(&data);
    let expected = rapidgzip_suite::gzip::decompress(&compressed).unwrap();
    assert_eq!(expected, data);
    let shared = SharedFileReader::from_bytes(compressed);

    let mut builder = ParallelGzipReader::new(shared.clone(), options()).unwrap();
    let index = builder.build_full_index().unwrap();

    let bare = GzipIndex {
        checksum_map: Default::default(),
        ..index.clone()
    };
    for (format, index) in [("v3", &index), ("v3 without fragments", &bare)] {
        let path = std::env::temp_dir().join(format!(
            "rgz_index_{}_{}.rgzidx",
            index.checksum_map.len(),
            std::process::id()
        ));
        std::fs::write(&path, index.export()).unwrap();
        let imported = GzipIndex::import(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();

        let mut reader =
            ParallelGzipReader::with_index(shared.clone(), options(), imported).unwrap();
        let mut buffer = vec![0u8; 4096];
        reader.seek(SeekFrom::Start(900_000)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &expected[900_000..904_096]);
        assert_eq!(reader.decompress_all().unwrap(), expected, "{format}");
    }
}

#[test]
fn v3_index_is_at_least_4x_smaller_than_its_raw_windows_on_the_base64_corpus() {
    // The acceptance criterion of the compressed/sparse window store: on the
    // datagen base64 corpus the v3 export must be >= 4x smaller than the raw
    // windows of its seek points, with decompression staying byte-identical.
    let data = datagen::base64_random(4 * 1024 * 1024, 26);
    let compressed = GzipWriter::default().compress(&data);
    let shared = SharedFileReader::from_bytes(compressed);

    let mut builder = ParallelGzipReader::new(shared.clone(), options()).unwrap();
    let index = builder.build_full_index().unwrap();
    assert!(index.block_map.len() > 8, "need a multi-chunk index");

    let raw = index.window_map.statistics().original_bytes;
    let v3 = index.export();
    assert!(
        v3.len() * 4 <= raw,
        "v3 export ({}) must be at least 4x smaller than its raw windows ({raw})",
        v3.len(),
    );

    let imported = GzipIndex::import(&v3).unwrap();
    let mut reader = ParallelGzipReader::with_index(shared, options(), imported).unwrap();
    assert_eq!(reader.decompress_all().unwrap(), data);
}

#[test]
fn a_slice_from_its_chunks_own_point_inflates_the_stored_window_every_time() {
    // A chunk's first touch here is a prefetch, which inflates the window
    // record itself; a later jump into the chunk's first MiB is a slice from
    // the chunk's own seek point, whose window only the store has.  The store
    // keeps no decompressed copy, so each such slice inflates it again.
    let data = datagen::silesia_like(16 << 20, 23);
    let compressed = GzipWriter::default().compress(&data);
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 768 << 10,
        resolved_cache_chunks: 1,
        ..Default::default()
    };
    let index = ParallelGzipReader::from_bytes(compressed.clone(), options.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table(&index, options.chunk_size);
    let starts: Vec<u64> = index
        .block_map
        .points()
        .iter()
        .map(|point| point.uncompressed_offset)
        .collect();
    assert!(starts.len() >= 5, "{} chunks", starts.len());
    let registry = Arc::new(MetricsRegistry::new());
    let file = SharedFileReader::from_bytes(compressed);
    let options = options.with_metrics(Arc::clone(&registry));
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
    let mut buffer = vec![0u8; 4096];
    let mut read = |reader: &mut ParallelGzipReader, offset: u64| {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset as usize..][..4096], "at {offset}");
    };
    let inflations = || {
        let snapshot = registry.snapshot();
        snapshot
            .histogram(names::WINDOW_INFLATE_SECONDS, &[])
            .unwrap()
            .count
    };

    // Chunk 1 decoded here prefetches chunk 2, whose bytes the next read
    // takes; a read of the last chunk pushes them out of the access cache.
    read(&mut reader, starts[1]);
    quiesce(&reader);
    read(&mut reader, starts[2] + 10);
    let last = starts[starts.len() - 1];
    read(&mut reader, last);
    for _ in 0..2 {
        let (slices, before) = (reader.statistics().index_slices, inflations());
        read(&mut reader, starts[2] + 100);
        assert_eq!(reader.statistics().index_slices, slices + 1);
        assert_eq!(inflations(), before + 1);
        // Away, so that the next read does not find the slice kept.
        read(&mut reader, last);
    }
}

#[test]
fn concurrent_access_at_two_offsets_through_clones_of_the_file() {
    // Two independent readers over the same compressed bytes, used from two
    // threads at different offsets (the ratarmount access pattern).
    let data = datagen::silesia_like(2_000_000, 22);
    let compressed = GzipWriter::default().compress(&data);
    let shared = SharedFileReader::from_bytes(compressed);
    std::thread::scope(|scope| {
        for (start, length) in [(100_000usize, 50_000usize), (1_500_000, 80_000)] {
            let shared = shared.clone();
            let data = &data;
            scope.spawn(move || {
                let mut reader = ParallelGzipReader::new(shared, options()).unwrap();
                reader.seek(SeekFrom::Start(start as u64)).unwrap();
                let mut buffer = vec![0u8; length];
                reader.read_exact(&mut buffer).unwrap();
                assert_eq!(&buffer[..], &data[start..start + length]);
            });
        }
    });
}

#[test]
fn a_seek_past_what_64_bits_address_is_an_error_not_a_wrap() {
    // `std::io::Cursor`'s answer.  The target used to be computed in 128 bits
    // and then cut to 64: position 9 after the first pair below.
    let data = datagen::base64_random(100_000, 27);
    let compressed = GzipWriter::default().compress(&data);
    let mut reader = ParallelGzipReader::from_bytes(compressed.clone(), options()).unwrap();
    assert_eq!(reader.seek(SeekFrom::Start(u64::MAX)).unwrap(), u64::MAX);
    let error = reader.seek(SeekFrom::Current(10)).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    // A failed seek leaves the position where it was; a read there is at the
    // end of the stream.
    assert_eq!(reader.stream_position().unwrap(), u64::MAX);
    assert_eq!(reader.read(&mut [0u8; 16]).unwrap(), 0);
    assert_eq!(reader.seek(SeekFrom::Current(-1)).unwrap(), u64::MAX - 1);
    let halfway = reader.seek(SeekFrom::Current(-1 - i64::MAX)).unwrap();
    assert_eq!(halfway, (1u64 << 63) - 2);
    let error = reader.seek(SeekFrom::Current(-1 - i64::MAX)).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);

    // From the end of a stream an index claims to be nearly 2^64 bytes long
    // (only an index can: no file is): position 2^63 - 52 before.
    let mut index = GzipIndex::new();
    index.compressed_size = compressed.len() as u64;
    let point = |uncompressed_offset, uncompressed_size| SeekPoint {
        compressed_bit_offset: 0,
        uncompressed_offset,
        uncompressed_size,
    };
    index.add_seek_point(point(0, 100_000), &[]);
    index.add_seek_point(point(u64::MAX - 100, 50), &[]);
    let file = SharedFileReader::from_bytes(compressed);
    let mut reader = ParallelGzipReader::with_index(file, options(), index).unwrap();
    assert_eq!(reader.seek(SeekFrom::End(0)).unwrap(), u64::MAX - 50);
    let error = reader.seek(SeekFrom::End(i64::MAX)).unwrap_err();
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(reader.seek(SeekFrom::End(50)).unwrap(), u64::MAX);
}

#[test]
fn a_read_after_a_seek_slices_its_chunk_and_one_that_goes_on_takes_it_whole() {
    // Text that compresses some sixfold — a block over and over, a little
    // noise between — in chunks of 256 KiB: 1.5 MiB or more of output each,
    // one windowed interior point, and stop points every 64 KiB or so.  Two
    // chunks in the access cache give the interior points room for sixteen
    // windows: every chunk's are kept.
    let block = datagen::base64_random(4000, 41);
    let mut data = Vec::new();
    for round in 0..4500u64 {
        data.extend_from_slice(&block);
        data.extend_from_slice(&datagen::base64_random(1000, round));
    }
    let compressed = GzipWriter::new(CompressorOptions {
        block_size: 16 * 1024,
        ..Default::default()
    })
    .compress(&data);
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 256 * 1024,
        resolved_cache_chunks: 2,
        ..Default::default()
    };
    let index = ParallelGzipReader::from_bytes(compressed.clone(), options.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table(&index, options.chunk_size);
    let starts: Vec<u64> = index
        .block_map
        .points()
        .iter()
        .map(|point| point.uncompressed_offset)
        .chain([data.len() as u64])
        .collect();
    let chunks = starts.len() - 1;
    assert!(chunks >= 6, "{chunks} chunks");
    let long = starts
        .windows(2)
        .take(chunks - 1)
        .all(|chunk| chunk[1] - chunk[0] > 1_200_000);
    assert!(long, "{starts:?}");

    // First touch of every chunk; the last two stay in the access cache.
    let file = SharedFileReader::from_bytes(compressed);
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
    assert!(reader.decompress_all().unwrap() == data);
    quiesce(&reader);
    let mut buffer = vec![0u8; 1000];
    let mut read = |reader: &mut ParallelGzipReader, seek: Option<u64>| {
        if let Some(offset) = seek {
            reader.seek(SeekFrom::Start(offset)).unwrap();
        }
        let offset = reader.stream_position().unwrap() as usize;
        reader.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset..][..1000], "at {offset}");
        let statistics = reader.statistics();
        (
            statistics.index_slices,
            statistics.index_chunks,
            statistics.index_prefetches_issued,
        )
    };
    let (slices, whole, prefetches) = read(&mut reader, Some(starts[1] + 300_000));

    // A jump into the chunk after the one read last is a slice.
    let after = read(&mut reader, Some(starts[2] + 600_000));
    assert_eq!(after, (slices + 1, whole, prefetches));

    // A seek to where the last read ended is no jump: the read that goes on
    // from the end of chunk 3 into chunk 4 takes chunk 4 whole.
    assert_eq!(read(&mut reader, Some(starts[4] - 1000)).0, slices + 2);
    assert_eq!(reader.stream_position().unwrap(), starts[4]);
    let (went_on, took, _) = read(&mut reader, None);
    assert_eq!((went_on, took), (slices + 2, whole + 1));

    // Nor is a read that runs on across the end of a chunk without one: the
    // end of chunk 0 is a slice, chunk 1 is taken whole.
    let (across, took, _) = read(&mut reader, Some(starts[1] - 500));
    assert_eq!((across, took), (slices + 3, whole + 2));
}

#[test]
fn a_jump_back_into_a_chunk_read_by_a_slice_is_a_slice_again() {
    // The last read took a slice of a chunk: a jump elsewhere in that chunk,
    // past the slice, is a slice of its own, not the whole chunk.
    let (data, compressed, index, options) = jump_file();
    let starts = chunk_starts(&index);
    let file = SharedFileReader::from_bytes(compressed);
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
    // First touch of every chunk; the last ones stay in the access cache.
    assert!(reader.decompress_all().unwrap() == data);
    quiesce(&reader);
    let mut buffer = vec![0u8; READ as usize];
    let mut jump = |reader: &mut ParallelGzipReader, offset: u64| {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset as usize..][..READ as usize]);
        let statistics = reader.statistics();
        (statistics.index_slices, statistics.index_chunks)
    };
    let (slices, chunks) = jump(&mut reader, starts[1] + 100_000);
    assert_eq!((slices, chunks), (1, 8));
    assert_eq!(jump(&mut reader, starts[1] + 1_150_000), (2, 8));
    assert_eq!(jump(&mut reader, starts[1] + 500_000), (3, 8));
}

/// Bytes of each read below, the ledger's seek read.
const READ: u64 = 64 << 10;
/// Bytes of output per deflate block of [`jump_file`].
const BLOCK: u64 = 16 << 10;
/// How far apart a chunk's interior points are at least: a slice ends at the
/// first past its read.
const STOP_SPACING: u64 = 64 << 10;

/// Base64 text in blocks of 16 KiB, compressed some 1.3-fold, in chunks of
/// 1 MiB: eight chunks of 1.3 MiB of output, and the table of them.  Three chunks in the
/// access cache give the interior points 3 MiB of window: room for one every
/// 107 KiB of all eight chunks.
fn jump_file() -> (Vec<u8>, Vec<u8>, GzipIndex, ParallelGzipReaderOptions) {
    let data = datagen::base64_random(10 << 20, 43);
    let compressed = GzipWriter::new(CompressorOptions {
        level: CompressionLevel::Fast,
        block_size: BLOCK as usize,
        ..Default::default()
    })
    .compress(&data);
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 1 << 20,
        resolved_cache_chunks: 3,
        ..Default::default()
    };
    let index = ParallelGzipReader::from_bytes(compressed.clone(), options.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table(&index, options.chunk_size);
    assert_eq!(index.block_map.len(), 8);
    (data, compressed, index, options)
}

/// Where each chunk of `index` starts, and the end of the last.
fn chunk_starts(index: &GzipIndex) -> Vec<u64> {
    let points = index.block_map.points().iter();
    let starts = points.map(|point| point.uncompressed_offset);
    starts
        .chain([index.block_map.uncompressed_size()])
        .collect()
}

fn interior_window_bytes(registry: &MetricsRegistry) -> u64 {
    let held = registry.snapshot().gauge(names::INTERIOR_WINDOW_BYTES, &[]);
    u64::try_from(held.unwrap_or(0)).unwrap()
}

#[test]
fn a_jump_keeps_its_chunks_windows_as_close_as_the_budget_lets_them_be() {
    // A whole decode for a read that jumped keeps a window every 32 KiB x
    // (bytes the table covers / window budget), here every 107 KiB, not
    // every MiB: the windows of all eight chunks fit the budget together, so
    // after a tour that decodes each chunk once, no jump decodes a chunk
    // whole again, and each slice starts at most that far — and a block —
    // before its read.
    let (data, compressed, index, options) = jump_file();
    let starts = chunk_starts(&index);
    let chunks = starts.len() - 1;
    let budget = 3 << 20;
    let spacing = (32 * 1024 * data.len() as u64).div_ceil(budget);
    assert_eq!(spacing, 109_227);
    let registry = Arc::new(MetricsRegistry::new());
    let file = SharedFileReader::from_bytes(compressed);
    let options = options.with_metrics(Arc::clone(&registry));
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();

    // Twenty tours of 64 KiB reads, each inside its chunk and a jump into
    // another chunk than the read before.  The first tour goes through the
    // chunks in order, so that the one chunk each read prefetches is the
    // next one's.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut buffer = vec![0u8; READ as usize];
    let (mut previous, mut slices, mut sliced) = (chunks - 1, 0u64, 0u64);
    for tour in 0..20 {
        for step in 0..chunks {
            let chunk = match tour {
                0 => step,
                _ => (previous + 1 + draw() as usize % (chunks - 1)) % chunks,
            };
            let room = starts[chunk + 1] - starts[chunk] - READ;
            let offset = starts[chunk] + draw() % room;
            let before = reader.statistics();
            reader.seek(SeekFrom::Start(offset)).unwrap();
            reader.read_exact(&mut buffer).unwrap();
            assert!(
                buffer[..] == data[offset as usize..][..READ as usize],
                "at {offset}"
            );
            let after = reader.statistics();
            let read = format!("tour {tour}, chunk {chunk}, at {offset}");
            assert!(interior_window_bytes(&registry) <= budget, "{read}");
            if tour > 0 {
                assert_eq!(after.index_chunks, before.index_chunks, "{read}");
            }
            if after.index_slices > before.index_slices {
                let bytes = after.index_slice_bytes - before.index_slice_bytes;
                // From the last window at or before the read to the first
                // point past it: a block past each spacing at most.
                let most = spacing + READ + STOP_SPACING + 2 * BLOCK;
                assert!(bytes <= most, "{read}: a slice of {bytes} bytes");
                slices += 1;
                sliced += bytes;
            }
            previous = chunk;
        }
    }
    // The five chunks out of the access cache are read by slices, 83 times.
    // With windows a MiB apart those slices decode 566 542 bytes each on
    // average; at this spacing 151 407, and less than half the former.
    assert!(slices > 80, "{slices} slices");
    let mean = sliced / slices;
    assert!(mean * 2 < 566_542, "{mean} bytes per slice");

    // A read that runs on across the end of chunk 1 takes chunk 2 whole, and
    // prefetches the chunks after it, as a read that goes on does; but a
    // chunk decoded before keeps its windows as close as they were.
    quiesce(&reader);
    let (held, before) = (interior_window_bytes(&registry), reader.statistics());
    let offset = starts[2] - READ / 2;
    reader.seek(SeekFrom::Start(offset)).unwrap();
    reader.read_exact(&mut buffer).unwrap();
    assert!(buffer[..] == data[offset as usize..][..READ as usize]);
    quiesce(&reader);
    let after = reader.statistics();
    assert!(after.index_prefetches_issued > before.index_prefetches_issued);
    assert_eq!(interior_window_bytes(&registry), held);
}

#[test]
fn a_read_that_goes_on_from_chunk_to_chunk_keeps_its_windows_a_mib_apart() {
    // A read that never jumps keeps the windows of its chunks a MiB apart,
    // whatever the budget would allow: one in each chunk of more than a MiB
    // of output, whose blocks of 16 KiB put a boundary at the MiB exactly —
    // each weighing the bytes before it that the MiB after it references.
    let (data, compressed, index, options) = jump_file();
    let points = index.block_map.points();
    let stops = points[1..].iter().map(|point| point.compressed_bit_offset);
    let (windows, expected) = points.iter().zip(stops.chain([u64::MAX])).fold(
        (0, 0),
        |(windows, bytes), (point, stop)| {
            let held = held_windows(&compressed, &data, point, stop, 1 << 20);
            (windows + held.0, bytes + held.1)
        },
    );
    assert_eq!(windows, 7);
    assert!(expected < 7 * 32 * 1024, "{expected} bytes");
    let registry = Arc::new(MetricsRegistry::new());
    let file = SharedFileReader::from_bytes(compressed);
    let options = options.with_metrics(Arc::clone(&registry));
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
    assert!(reader.decompress_all().unwrap() == data);
    quiesce(&reader);
    assert_eq!(interior_window_bytes(&registry), expected);
}
