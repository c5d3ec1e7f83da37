//! Corruption-injection tests for the *random access* path.
//!
//! The contract under test: with a native v3 index (which stores per-seek-
//! point CRC-32 fragments split at member boundaries), a single-bit flip in
//! any chunk body is detected by a random-access read under
//! [`VerificationMode::Full`] and the error names the offending member.
//! The same read through a fragment-less index — native v1/v2 (here: a v3
//! file whose points carry no fragments, which says the same) or a foreign
//! gztool/indexed_gzip import — completes (the bytes still decode), but the
//! reader's statistics must report the chunk as *unverified*, never as
//! silently clean.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use rapidgzip_suite::core::{
    CoreError, ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics, VerificationMode,
};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::{
    decompress_with_info, CompressorFrontend, FrontendKind, GzipWriter, MemberInfo,
};
use rapidgzip_suite::index::{GzipIndex, SeekPoint};
use rapidgzip_suite::interop::{export_index, import_index, AnyIndexFormat};
use rapidgzip_suite::io::{FileReader, MemoryFileReader, SharedFileReader};
use rapidgzip_suite::metrics::MetricsRegistry;
use rgz_trace::{MetricsReport, TraceSink};

mod common;
use common::quiesce;

fn options(verification: VerificationMode) -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 4,
        chunk_size: 32 * 1024,
        verification,
        // A single-slot cache so every seek in the sweep below re-decodes
        // (and therefore re-verifies) its chunk through the index fast path.
        resolved_cache_chunks: 1,
        ..Default::default()
    }
}

/// Builds a full seek-point index (with captured CRC fragments) for
/// `compressed` via a sequential pass.
fn build_index(compressed: &[u8]) -> GzipIndex {
    let mut builder =
        ParallelGzipReader::from_bytes(compressed.to_vec(), options(VerificationMode::Full))
            .unwrap();
    builder.build_full_index().unwrap()
}

fn indexed_reader(
    compressed: &[u8],
    index: GzipIndex,
    verification: VerificationMode,
) -> ParallelGzipReader {
    ParallelGzipReader::with_index(
        rapidgzip_suite::io::SharedFileReader::from_bytes(compressed.to_vec()),
        options(verification),
        index,
    )
    .unwrap()
}

/// `index` without its fragments: what a native v1 or v2 file says.
fn without_fragments(index: &GzipIndex) -> GzipIndex {
    GzipIndex {
        checksum_map: Default::default(),
        ..index.clone()
    }
}

/// The files a seek-point index round-trips through, by name: native v3
/// with its fragments, which alone can verify, and every file without.
fn all_formats(index: &GzipIndex) -> [(&'static str, Vec<u8>); 4] {
    [
        ("v3", index.export()),
        ("v3 without fragments", without_fragments(index).export()),
        ("gztool", export_index(index, AnyIndexFormat::Gztool)),
        (
            "indexed-gzip",
            export_index(index, AnyIndexFormat::IndexedGzip),
        ),
    ]
}

#[test]
fn pristine_random_access_is_verified_only_with_native_v3() {
    let data = datagen::silesia_like(900_000, 201);
    let compressed = GzipWriter::default().compress(&data);
    let index = build_index(&compressed);
    assert!(index.checksum_map.len() >= index.block_map.len());

    for (format, serialized) in all_formats(&index) {
        let verifiable = format == "v3";
        let imported = import_index(&serialized).unwrap();
        assert_eq!(
            imported.checksummed_points > 0,
            verifiable,
            "{format}: checksummed_points = {}",
            imported.checksummed_points
        );

        let mut reader = indexed_reader(&compressed, imported.index, VerificationMode::Full);
        let mut buffer = vec![0u8; 4096];
        for offset in [700_000u64, 40_000, 450_000, 850_000] {
            reader.seek(SeekFrom::Start(offset)).unwrap();
            reader.read_exact(&mut buffer).unwrap();
            assert_eq!(
                &buffer[..],
                &data[offset as usize..offset as usize + 4096],
                "{format}: wrong bytes at {offset}"
            );
        }
        let statistics = reader.verification_statistics();
        if verifiable {
            assert!(
                statistics.index_chunks_verified > 0 && statistics.index_chunks_unverified == 0,
                "{format}: {statistics:?}"
            );
        } else {
            assert!(
                statistics.index_chunks_verified == 0 && statistics.index_chunks_unverified > 0,
                "{format}: {statistics:?}"
            );
        }
    }
}

/// A BGZF file of *stored* (uncompressed) DEFLATE blocks: a payload bit flip
/// always decodes to plausible output, so only checksum verification can
/// catch it — and member attribution is deterministic.
fn stored_bgzf_corpus() -> (Vec<u8>, Vec<u8>, Vec<MemberInfo>) {
    let data = datagen::fastq_of_size(600_000, 202);
    let compressed = CompressorFrontend::new(FrontendKind::Bgzf, 0).compress(&data);
    let (restored, members) = decompress_with_info(&compressed).unwrap();
    assert_eq!(restored, data);
    (compressed, data, members)
}

/// Target members spread across the file, skipping the empty BGZF EOF
/// member, with the flip landing mid-payload (inside stored block data).
fn flip_sites(members: &[MemberInfo]) -> Vec<(usize, usize)> {
    [1, members.len() / 2, members.len() - 2]
        .into_iter()
        .map(|m| {
            let member = &members[m];
            (
                m,
                (member.compressed_start as usize + member.compressed_end as usize) / 2,
            )
        })
        .collect()
}

#[test]
fn chunk_body_bit_flips_are_detected_and_attributed_through_native_v3() {
    let (pristine, _, members) = stored_bgzf_corpus();
    let index = build_index(&pristine);
    // Go through the on-disk v3 container, not just the in-memory index.
    let serialized = index.export();

    for (member, byte) in flip_sites(&members) {
        for bit in [0u8, 5] {
            let mut corrupted = pristine.clone();
            corrupted[byte] ^= 1 << bit;
            let imported = import_index(&serialized).unwrap();
            let mut reader = indexed_reader(&corrupted, imported.index, VerificationMode::Full);
            let target = members[member].uncompressed_start + members[member].uncompressed_size / 2;
            reader.seek(SeekFrom::Start(target)).unwrap();
            let mut buffer = vec![0u8; 1024];
            let error = reader
                .read_exact(&mut buffer)
                .expect_err(&format!(
                    "flipping bit {bit} of byte {byte} (member {member}) went undetected"
                ))
                .to_string();
            assert!(
                error.contains(&format!("member {member}")),
                "expected the error to name member {member}, got: {error}"
            );
        }
    }
}

#[test]
fn fragmentless_imports_complete_corrupted_reads_but_report_unverified() {
    let (pristine, data, members) = stored_bgzf_corpus();
    let index = build_index(&pristine);

    let (member, byte) = flip_sites(&members)[1];
    let mut corrupted = pristine.clone();
    corrupted[byte] ^= 1 << 3;
    let span = members[member].uncompressed_start as usize
        ..(members[member].uncompressed_start + members[member].uncompressed_size) as usize;

    for (format, serialized) in all_formats(&index).into_iter().skip(1) {
        let imported = import_index(&serialized).unwrap();
        assert_eq!(imported.checksummed_points, 0, "{format}");
        let mut reader = indexed_reader(&corrupted, imported.index, VerificationMode::Full);
        reader.seek(SeekFrom::Start(span.start as u64)).unwrap();
        let mut buffer = vec![0u8; span.len()];
        reader
            .read_exact(&mut buffer)
            .unwrap_or_else(|e| panic!("{format}: fragment-less read should complete: {e}"));
        assert_ne!(
            &buffer[..],
            &data[span.clone()],
            "{format}: the flip vanished from the output"
        );
        let statistics = reader.verification_statistics();
        assert_eq!(
            statistics.index_chunks_verified, 0,
            "{format}: {statistics:?}"
        );
        assert!(
            statistics.index_chunks_unverified > 0,
            "{format}: {statistics:?}"
        );
    }
}

#[test]
fn decompress_all_counts_each_index_chunk_exactly_once() {
    // Regression for the `index_chunks` double count: a chunk whose
    // prefetched data was consumed used to be counted again by the
    // surrounding bookkeeping.  After a full sequential read through an
    // imported index, the per-chunk counters must sum to the chunk count.
    let data = datagen::base64_random(800_000, 203);
    let compressed = GzipWriter::default().compress(&data);
    let index = build_index(&compressed);
    let chunk_count = index.block_map.len() as u64;

    for (format, index) in [
        ("v3 without fragments", without_fragments(&index)),
        ("v3", index),
    ] {
        let imported = GzipIndex::import(&index.export()).unwrap();
        let mut reader = indexed_reader(&compressed, imported, VerificationMode::Full);
        assert_eq!(reader.decompress_all().unwrap(), data);
        let statistics = reader.statistics();
        assert_eq!(
            statistics.index_chunks, chunk_count,
            "{format}: {statistics:?}"
        );
        assert_eq!(
            statistics.index_chunks_verified + statistics.index_chunks_unverified,
            chunk_count,
            "{format}: {statistics:?}"
        );
    }
}

#[test]
fn a_lying_index_is_an_error_not_a_panic() {
    // Regression for the `data.len() - chunk_offset` underflow: an index
    // whose seek point claims a larger span than the chunk actually decodes
    // must surface as `IndexMismatch`, not an arithmetic panic.
    const N: u64 = 200_000;
    let data = datagen::silesia_like(2 * N as usize, 204);
    let compressed = GzipWriter::default().compress(&data);

    let mut index = GzipIndex::new();
    index.compressed_size = compressed.len() as u64;
    // Truthful point covering the real stream…
    index.add_seek_point(
        SeekPoint {
            compressed_bit_offset: 0,
            uncompressed_offset: 0,
            uncompressed_size: 2 * N,
        },
        &[],
    );
    // …and a lying one that claims the same chunk also covers 2N..5N.
    index.add_seek_point(
        SeekPoint {
            compressed_bit_offset: 0,
            uncompressed_offset: 2 * N,
            uncompressed_size: 3 * N,
        },
        &[],
    );
    index.uncompressed_size = 5 * N;

    // One whole-file chunk, so the truthful point really decodes its full
    // claimed span in a single piece.
    let mut reader = ParallelGzipReader::with_index(
        rapidgzip_suite::io::SharedFileReader::from_bytes(compressed.clone()),
        ParallelGzipReaderOptions {
            parallelization: 2,
            chunk_size: 4 << 20,
            resolved_cache_chunks: 1,
            ..Default::default()
        },
        index,
    )
    .unwrap();
    // The first read may fail outright: the index-aligned prefetcher plans
    // the *next* chunk, which is the lying point, and its own length check
    // rejects the decode.  Either way it must not panic, and it leaves the
    // prefetcher quiet for the population read below.
    let mut buffer = vec![0u8; 4096];
    let _ = reader.read(&mut buffer);
    // Populate the chunk cache through the truthful point, so the final
    // read hits the cached (shorter-than-claimed) data.
    reader.seek(SeekFrom::Start(0)).unwrap();
    reader.read_exact(&mut buffer).unwrap();
    assert_eq!(&buffer[..], &data[..4096]);

    reader.seek(SeekFrom::Start(4 * N + 10)).unwrap();
    let error = reader
        .read_exact(&mut buffer)
        .expect_err("lying index must error");
    assert!(
        error.to_string().contains("does not match"),
        "expected an index mismatch, got: {error}"
    );
}

#[test]
fn a_chunk_that_fails_its_check_is_counted_nowhere_however_it_was_reached() {
    // A chunk counts as served from the index, and as verified, once its
    // bytes have passed every check — whether the read that wanted it decoded
    // it itself or found what a prefetch had left: its error.
    let (pristine, _, members) = stored_bgzf_corpus();
    let index = build_index(&pristine);
    let serialized = index.export();
    let (member, byte) = flip_sites(&members)[1];
    let mut corrupted = pristine.clone();
    corrupted[byte] ^= 1 << 3;
    let points = index.block_map.points();
    let bad = points.partition_point(|point| point.compressed_bit_offset / 8 <= byte as u64) - 1;
    assert!(bad >= 2 && bad + 3 < points.len(), "chunk {bad}");

    let mut errors = Vec::new();
    // A jump back from far ahead prefetches the one chunk after its target,
    // and decodes the target on demand; a first read of the chunk before it
    // has prefetched the target at full degree (2 x 4 threads).
    for (route, first, misses) in [("on demand", bad + 3, 1), ("prefetched", bad - 1, 0)] {
        let trace = Arc::new(TraceSink::new_enabled());
        let registry = Arc::new(MetricsRegistry::new());
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(corrupted.clone()),
            options(VerificationMode::Full)
                .with_trace(Arc::clone(&trace))
                .with_metrics(Arc::clone(&registry)),
            import_index(&serialized).unwrap().index,
        )
        .unwrap();
        let mut buffer = vec![0u8; 512];
        reader
            .seek(SeekFrom::Start(points[first].uncompressed_offset))
            .unwrap();
        reader.read_exact(&mut buffer).unwrap();
        quiesce(&reader);
        let before = reader.statistics();
        let misses_before = MetricsReport::from_sink(&trace).prefetch.misses;
        assert_eq!(before.index_chunks, 1, "{route}");
        assert_eq!(before.index_chunks_verified, 1, "{route}");

        reader
            .seek(SeekFrom::Start(points[bad].uncompressed_offset))
            .unwrap();
        let error = reader.read_exact(&mut buffer).expect_err(route);
        quiesce(&reader);
        let after = reader.statistics();
        assert_eq!(after.index_chunks, 1, "{route}: {after:?}");
        assert_eq!(after.index_chunks_verified, 1, "{route}: {after:?}");
        assert_eq!(after.index_chunks_unverified, 0, "{route}: {after:?}");
        assert_eq!(
            MetricsReport::from_sink(&trace).prefetch.misses - misses_before,
            misses,
            "{route}: not the way the chunk was to be reached"
        );
        assert_eq!(
            ReaderStatistics::from_metrics_snapshot(&registry.snapshot()),
            after,
            "{route}"
        );
        errors.push((error.kind(), error.to_string()));
    }
    assert_eq!(errors[0], errors[1]);
    assert!(
        errors[0].1.contains(&format!("member {member}")),
        "expected the error to name member {member}, got: {}",
        errors[0].1
    );
}

/// A compressed file no pool thread can read: what a bug in a chunk task
/// looks like from outside.
struct PanicsOnWorkers(MemoryFileReader);

impl FileReader for PanicsOnWorkers {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> std::io::Result<usize> {
        let worker = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("rgz-worker"));
        assert!(!worker, "poisoned fixture: a read on a pool thread");
        self.0.read_at(offset, buffer)
    }

    fn size(&self) -> u64 {
        self.0.size()
    }
}

#[test]
fn a_panicking_prefetch_is_an_error_of_the_read_that_wanted_its_chunk() {
    let data = datagen::base64_random(400_000, 205);
    let compressed = GzipWriter::default().compress(&data);
    let index = build_index(&compressed);
    assert!(index.block_map.len() >= 4);
    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::new(PanicsOnWorkers(MemoryFileReader::new(compressed))),
        options(VerificationMode::Full),
        index,
    )
    .unwrap();
    // The first chunk is decoded on this thread; the ones after it are
    // prefetched on the pool, where every task panics.
    match reader.decompress_all() {
        Err(CoreError::Io(error)) => assert!(error.to_string().contains("panicked"), "{error}"),
        other => panic!("expected the chunk task's panic as an error, got {other:?}"),
    }
    // The reader is none the worse for it: what it decodes itself, it serves.
    let mut buffer = vec![0u8; 1000];
    reader.seek(SeekFrom::Start(0)).unwrap();
    reader.read_exact(&mut buffer).unwrap();
    assert_eq!(buffer, data[..1000]);
}

/// A compressed file one bit of which flips when told to: a medium going bad
/// under an open reader.  `flip` holds `byte << 3 | bit`, `u64::MAX` for none.
struct FlipsLater {
    file: MemoryFileReader,
    flip: Arc<std::sync::atomic::AtomicU64>,
}

impl FileReader for FlipsLater {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> std::io::Result<usize> {
        let read = self.file.read_at(offset, buffer)?;
        let flip = self.flip.load(std::sync::atomic::Ordering::SeqCst);
        if let Some(at) = (flip >> 3)
            .checked_sub(offset)
            .filter(|&at| at < read as u64)
        {
            buffer[at as usize] ^= 1 << (flip & 7);
        }
        Ok(read)
    }

    fn size(&self) -> u64 {
        self.file.size()
    }
}

#[test]
fn a_slice_is_checked_like_its_chunk_was_and_a_failed_one_is_counted_nowhere() {
    use std::sync::atomic::{AtomicU64, Ordering};
    // A slice is decoded from an interior point a chunk's first, whole,
    // index-verified decode left behind — and its bytes are hashed against the
    // CRCs taken then.  Bytes that change *after* that decode are caught like
    // any others: stored blocks (only a CRC can tell) and compressed ones.
    let data = datagen::fastq_of_size(6 << 20, 206);
    for level in [0u8, 1] {
        let compressed = CompressorFrontend::new(FrontendKind::Bgzf, level).compress(&data);
        let (_, members) = decompress_with_info(&compressed).unwrap();
        // Chunks of 1.5 MiB of output: an interior point in each.
        let chunk_size = compressed.len() / 4 - 50_000;
        let reader_options = || ParallelGzipReaderOptions {
            parallelization: 2,
            chunk_size,
            resolved_cache_chunks: 1,
            ..Default::default()
        };
        let index = ParallelGzipReader::from_bytes(compressed.clone(), reader_options())
            .unwrap()
            .build_full_index()
            .unwrap();
        let starts: Vec<u64> = index
            .block_map
            .points()
            .iter()
            .map(|point| point.uncompressed_offset)
            .collect();
        assert!(starts.len() >= 4, "level {level}: {} chunks", starts.len());

        let flip = Arc::new(AtomicU64::new(u64::MAX));
        let registry = Arc::new(MetricsRegistry::new());
        let file = FlipsLater {
            file: MemoryFileReader::new(compressed.clone()),
            flip: Arc::clone(&flip),
        };
        let serialized = index.export();
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::new(file),
            reader_options().with_metrics(Arc::clone(&registry)),
            import_index(&serialized).unwrap().index,
        )
        .unwrap();
        let mut buffer = vec![0u8; 4096];
        let mut read = |reader: &mut ParallelGzipReader, offset: u64| {
            reader.seek(SeekFrom::Start(offset)).unwrap();
            let result = reader.read_exact(&mut buffer);
            result.map(|()| assert!(buffer[..] == data[offset as usize..][..4096], "at {offset}"))
        };
        // Every chunk's first touch, and then a read from end to end, which
        // takes what the jumps had prefetched.
        for &start in starts.iter().rev() {
            read(&mut reader, start + 9).unwrap();
        }
        assert_eq!(reader.decompress_all().unwrap().len(), data.len());
        quiesce(&reader);
        assert_eq!(reader.statistics().index_slices, 0, "level {level}");

        // Past the interior point of the third chunk, a member in the middle
        // of which the bit will flip; and a MiB before it, where none.
        let target = starts[2] + (5 << 18);
        let member = members
            .iter()
            .position(|m| m.uncompressed_start + m.uncompressed_size > target)
            .unwrap();
        let target = members[member].uncompressed_start + 100;
        let byte = (members[member].compressed_start + members[member].compressed_end) / 2;
        // Jumps away, each to where the slice kept from the last is not.
        let mut away = [starts[0] + (5 << 18), starts[0] + 100].into_iter().cycle();
        for bit in [0u64, 5] {
            read(&mut reader, away.next().unwrap()).unwrap();
            let before = reader.statistics();
            assert!(before.index_slices > 0, "level {level}: {before:?}");

            flip.store(byte << 3 | bit, Ordering::SeqCst);
            let error = read(&mut reader, target).expect_err("a slice of changed bytes");
            // A typed error: the CRC's, which names the member, unless the
            // compressed bits stopped making sense before it came to that.
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
            let message = error.to_string();
            assert!(
                message.contains(&format!("member {member}:"))
                    || (level > 0 && (message.contains("DEFLATE") || message.contains("index"))),
                "level {level} bit {bit}: {message}"
            );
            let after = reader.statistics();
            assert_eq!(after, before, "level {level} bit {bit}");
            assert_eq!(
                ReaderStatistics::from_metrics_snapshot(&registry.snapshot()),
                after
            );
            // The reads that follow in the chunk take it whole: no better.
            read(&mut reader, target).expect_err("the chunk those bytes are in");
            assert_eq!(reader.statistics(), before, "level {level} bit {bit}");
            // The slice before decodes from bytes that did not change.
            read(&mut reader, away.next().unwrap()).unwrap();
            read(&mut reader, target - (1 << 20)).unwrap();
            // And the medium's recovery is the read's.
            flip.store(u64::MAX, Ordering::SeqCst);
            read(&mut reader, away.next().unwrap()).unwrap();
            read(&mut reader, target).unwrap();
            let healed = reader.statistics();
            assert_eq!(healed.index_slices, before.index_slices + 4, "{healed:?}");
            assert_eq!(healed.index_chunks, before.index_chunks, "{healed:?}");
        }
        assert_eq!(reader.verification_statistics().index_chunks_unverified, 0);
    }
}
