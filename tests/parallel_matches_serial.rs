//! Cross-crate integration tests: the parallel reader must reproduce the
//! serial decoder bit-for-bit on every kind of gzip file the compressor
//! front-ends can produce.

use std::io::Read;

use rapidgzip_suite::core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::{decompress, CompressorFrontend, FrontendKind, GzipWriter};

fn options(threads: usize, chunk_size: usize) -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: threads,
        chunk_size,
        ..Default::default()
    }
}

fn parallel(compressed: &[u8], threads: usize, chunk_size: usize) -> Vec<u8> {
    let mut reader =
        ParallelGzipReader::from_bytes(compressed.to_vec(), options(threads, chunk_size)).unwrap();
    let mut out = Vec::new();
    reader.read_to_end(&mut out).unwrap();
    out
}

#[test]
fn every_frontend_and_corpus_combination_round_trips() {
    let corpora: Vec<(&str, Vec<u8>)> = vec![
        ("base64", datagen::base64_random(900_000, 1)),
        ("silesia", datagen::silesia_like(900_000, 2)),
        ("fastq", datagen::fastq_of_size(900_000, 3)),
    ];
    for (corpus_name, data) in &corpora {
        for kind in FrontendKind::all() {
            for level in [1u8, 6] {
                let frontend = CompressorFrontend::new(kind, level);
                let compressed = frontend.compress(data);
                let serial = decompress(&compressed).unwrap();
                assert_eq!(&serial, data, "serial {corpus_name} {}", frontend.label());
                let parallel_output = parallel(&compressed, 4, 64 * 1024);
                assert_eq!(
                    &parallel_output,
                    data,
                    "parallel {corpus_name} {}",
                    frontend.label()
                );
            }
        }
    }
}

#[test]
fn pathological_single_block_and_stored_files() {
    let data = datagen::silesia_like(700_000, 4);
    for frontend in [
        CompressorFrontend::new(FrontendKind::Igzip, 0),
        CompressorFrontend::new(FrontendKind::Bgzf, 0),
    ] {
        let compressed = frontend.compress(&data);
        assert_eq!(
            parallel(&compressed, 4, 32 * 1024),
            data,
            "{}",
            frontend.label()
        );
    }
}

#[test]
fn multi_member_concatenated_files() {
    let writer = GzipWriter::default();
    let parts = [
        datagen::base64_random(300_000, 5),
        datagen::silesia_like(400_000, 6),
        Vec::new(),
        datagen::fastq_of_size(200_000, 7),
    ];
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    let compressed = writer.compress_members(&refs);
    let expected: Vec<u8> = parts.concat();
    assert_eq!(parallel(&compressed, 4, 64 * 1024), expected);
    assert_eq!(decompress(&compressed).unwrap(), expected);
}

#[test]
fn thread_and_chunk_size_sweep() {
    let data = datagen::silesia_like(1_200_000, 8);
    let compressed = GzipWriter::default().compress_pigz_like(&data, 64 * 1024);
    for threads in [1usize, 2, 8] {
        for chunk_size in [16 * 1024usize, 128 * 1024, 4 << 20] {
            assert_eq!(
                parallel(&compressed, threads, chunk_size),
                data,
                "threads {threads} chunk {chunk_size}"
            );
        }
    }
}

/// One run's observable result: the output and the exported v3 index, as
/// `output CRC-32, index length, index CRC-32`, and the reader's statistics.
fn observe(
    compressed: &[u8],
    members: u64,
    threads: usize,
    chunk_size: usize,
) -> (String, ReaderStatistics, usize) {
    use rapidgzip_suite::checksum::crc32;
    let mut reader =
        ParallelGzipReader::from_bytes(compressed.to_vec(), options(threads, chunk_size)).unwrap();
    let output = reader.decompress_all().unwrap();
    let index = reader.index();
    let seek_points = index.block_map.len();
    let index = index.export();
    let verification = reader.verification_statistics();
    assert_eq!(verification.members_verified, members);
    assert_eq!(verification.bytes_verified, output.len() as u64);
    assert_eq!(verification.stream_crc32, crc32(&output));
    assert_eq!(verification.index_chunks_unverified, 0);
    let fingerprint = format!(
        "{:08x} {} {:08x}",
        crc32(&output),
        index.len(),
        // The file ends in its own CRC-32, which would make the CRC of
        // the whole a constant.
        crc32(&index[..index.len() - 4]),
    );
    (fingerprint, reader.statistics(), seek_points)
}

/// Output bytes and exported v3 index bytes (seek points, sparse windows, CRC
/// fragments) are a function of the file and the chunk size alone — not of
/// the thread count, and not of *how* a chunk was decoded, which the thread
/// count decides: with one worker every chunk's start and window are known
/// when its decode begins, with eight nearly every chunk is decoded ahead of
/// the one before it, as markers.  The pinned strings are `output CRC-32,
/// index length, index CRC-32, speculative chunks used, on-demand chunks,
/// mismatches` as the commit before the hybrid (u16 prefix + u8 tail) decoder
/// reported them at every thread count; the commit that let a task decode
/// from a known start added the 64 KiB and the stored-only rows from its
/// parent.  Which path decoded a chunk is no longer pinned, only that every
/// chunk is some path's: the chunk counts must *add up* to the pinned ones.
/// The index bytes of the 4 and 64 MiB rows were pinned anew when the export
/// began to split each chunk at a seek point every MiB of output, and again
/// when the cuts' windows became sparse (the bytes before a cut that the
/// MiB after it references, not all 32 KiB).  The pigz
/// row was pinned at the commit before speculative chunks found at a stored
/// block matched across its padding, its chunk counts as P = 1 gave them.
#[test]
fn output_index_and_statistics_are_invariant_under_thread_count() {
    use rapidgzip_suite::compress::{ParallelCompressor, ParallelCompressorOptions};
    let multi_member = [
        datagen::base64_random(3 << 19, 23),
        datagen::silesia_like(5 << 20, 24),
        datagen::fastq_of_size(3 << 20, 25),
    ];
    let parts: Vec<&[u8]> = multi_member.iter().map(Vec::as_slice).collect();
    // Blocks smaller than the smallest chunk size: every guessed chunk then
    // holds a block start, so which chunks decode speculatively does not
    // depend on how far ahead (2 x threads) the prefetcher looks.
    let writer = GzipWriter::new(rapidgzip_suite::deflate::CompressorOptions {
        block_size: 16 * 1024,
        ..Default::default()
    });
    // Each a little over one default chunk (4 MiB) compressed.
    let corpora = [
        (
            "base64",
            1,
            writer.compress(&datagen::base64_random(11 << 19, 21)),
            [
                "45e4b821 772538 19fca300 134 3 0",
                "45e4b821 385846 44c626c8 67 2 0",
                "45e4b821 34716 f1c20905 1 1 0",
                "45e4b821 28925 e58e36b4 0 1 0",
            ],
        ),
        (
            "silesia",
            1,
            writer.compress(&datagen::silesia_like(14 << 20, 22)),
            [
                "0f08e733 410531 717f9c8b 129 2 0",
                "0f08e733 203155 b3326a50 64 2 0",
                "0f08e733 45541 fff57e98 1 1 0",
                "0f08e733 42249 c83ed696 0 1 0",
            ],
        ),
        (
            "multi-member",
            3,
            writer.compress_members(&parts),
            [
                "df4238ca 644039 bbd7c871 134 1 0",
                "df4238ca 324137 188b6168 67 1 0",
                "df4238ca 44643 c284d97b 1 1 0",
                "df4238ca 38915 ebb7a446 0 1 0",
            ],
        ),
        (
            // One stored block per 64 KiB BGZF member, none of which the
            // block finder reports: no chunk can be decoded ahead.
            "stored-only",
            // The last one the empty member a BGZF file ends in.
            74,
            CompressorFrontend::new(FrontendKind::Bgzf, 0)
                .compress(&datagen::base64_random(9 << 19, 26)),
            [
                "1e763ce8 4858 58782633 0 73 0",
                "1e763ce8 4804 0c87d409 0 72 0",
                "1e763ce8 1186 745a0c28 0 2 0",
                "1e763ce8 1186 7a0c2ab4 0 1 0",
            ],
        ),
        (
            // What `rgz compress` writes: 2 MiB members of 128 KiB runs, each
            // ended by an empty stored block, whose header the pass stands
            // at and the block finder puts after its padding.
            "pigz",
            7,
            ParallelCompressor::new(ParallelCompressorOptions {
                parallelization: 2,
                ..Default::default()
            })
            .compress(&datagen::silesia_like(14 << 20, 27))
            .bytes,
            [
                "584e7f79 7492 ae9c1643 0 112 0",
                "584e7f79 4468 bea077ac 0 66 0",
                "584e7f79 1102 e8f63c5b 0 2 0",
                "584e7f79 1090 2f87c51d 0 1 0",
            ],
        ),
    ];
    for (name, members, compressed, pinned) in &corpora {
        assert!(compressed.len() > 4 << 20, "{name}: {}", compressed.len());
        let chunk_sizes = [32 << 10, 64 << 10, 4 << 20, 64 << 20];
        for (chunk_size, pinned) in chunk_sizes.into_iter().zip(pinned) {
            let pinned: Vec<&str> = pinned.split(' ').collect();
            let pinned_chunks: u64 = pinned[3..5].iter().map(|n| n.parse::<u64>().unwrap()).sum();
            for threads in [1usize, 2, 3, 8] {
                let run = format!("{name} chunk {chunk_size} threads {threads}");
                let (fingerprint, statistics, seek_points) =
                    observe(compressed, *members, threads, chunk_size);
                assert_eq!(fingerprint, pinned[..3].join(" "), "{run}");
                assert_eq!(
                    statistics.speculative_chunks_used
                        + statistics.window_known_chunks
                        + statistics.on_demand_chunks,
                    pinned_chunks,
                    "{run}: {statistics:?}"
                );
                // The export splits the pass's chunks at a seek point every
                // MiB of output or so: the pinned index bytes say where.
                assert!(seek_points as u64 >= pinned_chunks, "{run}");
                // A reader that reads on finds every chunk where the pass
                // put it: none is let go of and decoded again, and none of
                // the cuts the pass left in its table is prefetched or
                // sliced, past the pass's end included.
                assert_eq!(statistics.index_chunks, 0, "{run}: {statistics:?}");
                assert_eq!(
                    statistics.index_prefetches_issued, 0,
                    "{run}: {statistics:?}"
                );
                assert_eq!(statistics.index_slices, 0, "{run}: {statistics:?}");
                assert_eq!(
                    statistics.speculative_bytes_u16 > 0 || statistics.speculative_bytes_u8 > 0,
                    statistics.speculative_chunks_used > 0,
                    "{run}: {statistics:?}"
                );
                if *name == "pigz" && threads > 1 {
                    // A stored block the finder reports past its padding is
                    // where the pass stands.  What is left is at most one
                    // chunk per member end, where the pass stands at the
                    // member's final block and the finder starts in the next
                    // member, and one false candidate that decodes to its
                    // stop.
                    assert!(
                        statistics.speculative_mismatches <= *members,
                        "{run}: {statistics:?}"
                    );
                }
                if threads == 1 && pinned_chunks >= 4 {
                    // The one worker finds every chunk's predecessor
                    // committed — by itself.
                    assert_eq!(statistics.speculative_chunks_used, 0, "{run}");
                    assert_eq!(statistics.speculative_chunks_wasted, 0, "{run}");
                }
            }
        }
    }
}

/// Seeks through an index whose chunks are longer than the spacing of the
/// reader's interior seek points (1 MiB of output): jumps, jumps backwards,
/// reads that straddle a chunk end or an interior point, runs that turn
/// sequential.  Whichever way a read is served — the whole chunk on its first
/// touch, a slice of it after, the slice kept from the call before, the
/// access cache, a prefetch — it is the serial decoder's bytes; the index the
/// reader exports is byte for byte the one it was given; and with a v3 index
/// nothing is served unverified, while one without fragments (v3 with none,
/// or foreign) slices all the same and says so.
#[test]
fn seek_patterns_read_the_serial_decoders_bytes_whole_or_sliced() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rapidgzip_suite::index::GzipIndex;
    use rapidgzip_suite::interop::{export_index, import_index, AnyIndexFormat};
    use rapidgzip_suite::io::SharedFileReader;
    use std::io::{Seek, SeekFrom};

    let members = [
        datagen::silesia_like(5 << 19, 31),
        datagen::base64_random(7 << 19, 32),
        Vec::new(),
        datagen::fastq_of_size(3 << 20, 33),
    ];
    let parts: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
    // (name, file, chunk size): every chunk a few MiB of output.
    let corpora = [
        (
            "silesia",
            GzipWriter::default().compress(&datagen::silesia_like(9 << 20, 30)),
            1 << 20,
        ),
        (
            // 64 KiB members: slices start at and cross member boundaries.
            "bgzf",
            CompressorFrontend::new(FrontendKind::Bgzf, 6)
                .compress(&datagen::base64_random(8 << 20, 34)),
            2 << 20,
        ),
        (
            "multi-member",
            GzipWriter::default().compress_members(&parts),
            1 << 20,
        ),
    ];
    for (name, compressed, chunk_size) in &corpora {
        let serial = decompress(compressed).unwrap();
        let length = serial.len() as u64;
        let built = ParallelGzipReader::from_bytes(compressed.clone(), options(2, *chunk_size))
            .unwrap()
            .build_full_index()
            .unwrap();
        let exported = built.export();
        let starts: Vec<u64> = built
            .block_map
            .points()
            .iter()
            .map(|point| point.uncompressed_offset)
            .collect();
        assert!(starts.len() >= 3, "{name}: {} chunks", starts.len());

        // What a v1 or v2 file says: the v3 records without fragments.
        let bare = GzipIndex {
            checksum_map: Default::default(),
            ..built.clone()
        };
        let legs = [1, 2, 3, 8]
            .map(|threads| ("v3", exported.clone(), threads))
            .into_iter()
            .chain([
                ("v3 without fragments", bare.export(), 2),
                ("gztool", export_index(&built, AnyIndexFormat::Gztool), 2),
            ]);
        for (format, serialized, threads) in legs {
            let run = format!("{name} {format} P={threads}");
            let imported = import_index(&serialized).unwrap().index;
            // One chunk in the access cache, so that most jumps find none.
            let one_cached = ParallelGzipReaderOptions {
                resolved_cache_chunks: 1,
                ..options(threads, *chunk_size)
            };
            let file = SharedFileReader::from_bytes(compressed.clone());
            let mut reader = ParallelGzipReader::with_index(file, one_cached, imported).unwrap();
            let mut rng = StdRng::seed_from_u64(threads as u64);
            let mut buffer = vec![0u8; 3 << 20];
            let mut check = |reader: &mut ParallelGzipReader, offset: u64, size: usize| {
                let size = size.min((length - offset) as usize);
                reader.seek(SeekFrom::Start(offset)).unwrap();
                reader.read_exact(&mut buffer[..size]).unwrap();
                let expected = &serial[offset as usize..offset as usize + size];
                assert!(
                    buffer[..size] == *expected,
                    "{run}: {size} bytes at {offset}"
                );
            };
            // First touches, in an order that is not a run.
            for &start in starts.iter().rev() {
                check(&mut reader, start + 5, 1000);
            }
            for round in 0..40 {
                let offset = rng.gen_range(0..length - 1);
                match round % 5 {
                    // A jump, of a few bytes or across interior points.
                    0 | 1 => check(&mut reader, offset, rng.gen_range(1..(5usize << 19))),
                    // Over the end of a chunk.
                    2 => {
                        let end = starts[rng.gen_range(1..starts.len())];
                        check(&mut reader, end - rng.gen_range(1..70_000), 140_000);
                    }
                    // Backwards, by a little and over an interior point.
                    3 => {
                        check(&mut reader, offset, 4096);
                        check(&mut reader, offset.saturating_sub(3000), 4096);
                        check(&mut reader, offset.saturating_sub(1 << 20), 4096);
                    }
                    // A run that goes on past the slice, and past the chunk.
                    _ => {
                        let mut position = offset;
                        for _ in 0..9 {
                            check(&mut reader, position, 400_000);
                            position = (position + 400_000).min(length - 1);
                        }
                    }
                }
            }
            let statistics = reader.statistics();
            assert!(statistics.index_slices >= 10, "{run}: {statistics:?}");
            // A slice is on average well short of a chunk.
            assert!(
                statistics.index_slice_bytes / statistics.index_slices
                    < length / starts.len() as u64,
                "{run}: {statistics:?}"
            );
            let verification = reader.verification_statistics();
            if format == "v3" {
                assert_eq!(verification.index_chunks_unverified, 0, "{run}");
                assert_eq!(
                    verification.index_chunks_verified, statistics.index_chunks,
                    "{run}"
                );
                assert!(
                    reader.index().export() == exported,
                    "{run}: the index changed"
                );
            } else {
                assert_eq!(verification.index_chunks_verified, 0, "{run}");
                assert_eq!(
                    verification.index_chunks_unverified, statistics.index_chunks,
                    "{run}"
                );
            }
        }
    }
}

/// What may follow a gzip member is read one way by the serial decoder and
/// the parallel reader alike: zeros to the end of the file are padding, a
/// gzip magic starts a member, anything else is trailing garbage at its first
/// byte.  So the reader returns the serial decoder's bytes or its error,
/// offset included, whatever the thread count and chunk size.
#[test]
fn what_follows_a_member_is_read_as_the_serial_decoder_reads_it() {
    use rapidgzip_suite::core::CoreError;
    use rapidgzip_suite::gzip::GzipError;

    let a = GzipWriter::default().compress(&datagen::silesia_like(300_000, 1));
    let b = GzipWriter::default().compress(&datagen::base64_random(200_000, 2));
    let ab = [&a[..], &b[..]].concat();
    assert_eq!((a.len(), ab.len()), (84_355, 239_492));
    let ascii = b"THIS IS NOT GZIP DATA AT ALL, NOT EVEN CLOSE";
    let garbage_at = |offset| Err(GzipError::TrailingGarbage { offset });
    let rows: [(&str, Vec<u8>, Result<usize, GzipError>); 8] = [
        (
            "a, 1 zero byte, b",
            [&a, &[0][..], &b].concat(),
            garbage_at(84_355),
        ),
        (
            "a, 64 zero bytes, b",
            [&a, &[0; 64][..], &b].concat(),
            garbage_at(84_355),
        ),
        (
            "a, b, 7 B of garbage",
            [&ab, &b"garbage"[..]].concat(),
            garbage_at(239_492),
        ),
        (
            "a, b, 44 B of ASCII",
            [&ab, &ascii[..]].concat(),
            garbage_at(239_492),
        ),
        (
            "a, 5 B of b",
            [&a, &b[..5]].concat(),
            Err(GzipError::Truncated),
        ),
        (
            "a, b short by 3 B",
            ab[..ab.len() - 3].to_vec(),
            Err(GzipError::Truncated),
        ),
        (
            "a, b, 512 zero bytes",
            [&ab, &[0; 512][..]].concat(),
            Ok(500_000),
        ),
        ("an empty file", Vec::new(), Err(GzipError::Truncated)),
    ];
    for (row, file, pinned) in rows {
        let serial = decompress(&file);
        assert_eq!(
            serial.as_ref().map(Vec::len),
            pinned.as_ref().copied(),
            "serial: {row}"
        );
        for threads in [1, 2, 3] {
            for chunk_size in [32 << 10, 4 << 20] {
                let run = format!("{row}, P = {threads}, chunk {chunk_size}");
                let parallel =
                    ParallelGzipReader::from_bytes(file.clone(), options(threads, chunk_size))
                        .and_then(|mut reader| reader.decompress_all())
                        .map_err(|error| match error {
                            CoreError::Gzip(error) => error,
                            other => panic!("{run}: not a gzip error: {other:?}"),
                        });
                match (&parallel, &serial) {
                    (Ok(parallel), Ok(serial)) => assert!(parallel == serial, "{run}"),
                    _ => assert_eq!(parallel.map(|out| out.len()), pinned, "{run}"),
                }
            }
        }
    }
}

/// A chunk records its members the same way whether it was decoded
/// speculatively or with its window known, so the fragments folded into the
/// member checksums do not depend on how many threads decoded ahead.
#[test]
fn fragments_folded_do_not_depend_on_the_thread_count() {
    let one = datagen::silesia_like(700_000, 1);
    let members = [
        one.clone(),
        datagen::base64_random(500_000, 2),
        datagen::fastq_of_size(600_000, 3),
    ];
    let parts: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
    let files = [
        ("one member", GzipWriter::default().compress(&one), 64 << 10),
        (
            "three members",
            GzipWriter::default().compress_members(&parts),
            256 << 10,
        ),
    ];
    for (name, compressed, chunk_size) in files {
        let folded = [1, 2, 3, 8].map(|threads| {
            let mut reader =
                ParallelGzipReader::from_bytes(compressed.clone(), options(threads, chunk_size))
                    .unwrap();
            reader.decompress_all().unwrap();
            reader.verification_statistics().fragments_folded
        });
        assert!(folded.iter().all(|&n| n == folded[0]), "{name}: {folded:?}");
    }
}
