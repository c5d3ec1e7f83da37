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
/// seek point is some path's: the chunk counts must *add up* to the pinned
/// ones.
#[test]
fn output_index_and_statistics_are_invariant_under_thread_count() {
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
                "45e4b821 5897 dea433e0 1 1 0",
                "45e4b821 106 f976ad1a 0 1 0",
            ],
        ),
        (
            "silesia",
            1,
            writer.compress(&datagen::silesia_like(14 << 20, 22)),
            [
                "0f08e733 410531 717f9c8b 129 2 0",
                "0f08e733 203155 b3326a50 64 2 0",
                "0f08e733 3398 c4625678 1 1 0",
                "0f08e733 106 cfa2b8b5 0 1 0",
            ],
        ),
        (
            "multi-member",
            3,
            writer.compress_members(&parts),
            [
                "df4238ca 644039 bbd7c871 134 1 0",
                "df4238ca 324137 188b6168 67 1 0",
                "df4238ca 5858 95ac34b3 1 1 0",
                "df4238ca 130 468ce9b2 0 1 0",
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
                "1e763ce8 1024 17209691 0 2 0",
                "1e763ce8 970 91a6fe96 0 1 0",
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
                assert_eq!(seek_points as u64, pinned_chunks, "{run}");
                // A reader that reads on finds every chunk where the pass
                // put it: none is let go of and decoded again.
                assert_eq!(statistics.index_chunks, 0, "{run}: {statistics:?}");
                assert_eq!(
                    statistics.speculative_bytes_u16 > 0 || statistics.speculative_bytes_u8 > 0,
                    statistics.speculative_chunks_used > 0,
                    "{run}: {statistics:?}"
                );
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
