//! End-to-end round trips for the parallel write path: `rgz_compress` output
//! must decode byte-identically through the serial decoder *and* the
//! parallel reader (speculative, no index), and the index emitted at
//! compress time must serve fully *verified* random access — zero
//! `index_chunks_unverified` — after an export/import through the on-disk
//! v3 container.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use rapidgzip_suite::compress::{
    CompressedStream, CompressionLevel, ContainerFormat, ParallelCompressor,
    ParallelCompressorOptions,
};
use rapidgzip_suite::core::{ParallelGzipReader, ParallelGzipReaderOptions, VerificationMode};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::decompress;
use rapidgzip_suite::index::GzipIndex;
use rapidgzip_suite::io::SharedFileReader;

fn compress(data: &[u8], level: CompressionLevel, container: ContainerFormat) -> CompressedStream {
    ParallelCompressor::new(ParallelCompressorOptions {
        level,
        container,
        chunk_size: 48 * 1024,
        member_size: 192 * 1024,
        parallelization: 4,
        ..Default::default()
    })
    .compress(data)
}

fn reader_options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 4,
        chunk_size: 64 * 1024,
        verification: VerificationMode::Full,
        // A single-slot cache so every seek below re-decodes (and therefore
        // re-verifies) its chunk through the index fast path.
        resolved_cache_chunks: 1,
        ..Default::default()
    }
}

fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("silesia", datagen::silesia_like(1_000_000, 901)),
        ("base64", datagen::base64_random(700_000, 902)),
    ]
}

#[test]
fn output_round_trips_through_serial_and_parallel_readers() {
    for (name, data) in corpora() {
        for container in [ContainerFormat::Pigz, ContainerFormat::Bgzf] {
            for level in [CompressionLevel::Fast, CompressionLevel::Best] {
                let stream = compress(&data, level, container);
                assert_eq!(
                    decompress(&stream.bytes).unwrap(),
                    data,
                    "{name} {container:?} {level:?}: serial decoder"
                );
                // Speculative parallel decode: no index, the block finder has
                // to rediscover our chunk boundaries on its own.
                let mut reader =
                    ParallelGzipReader::from_bytes(stream.bytes.clone(), reader_options()).unwrap();
                assert_eq!(
                    reader.decompress_all().unwrap(),
                    data,
                    "{name} {container:?} {level:?}: parallel reader"
                );
            }
        }
    }
}

#[test]
fn emitted_index_serves_fully_verified_random_access() {
    for (name, data) in corpora() {
        for container in [ContainerFormat::Pigz, ContainerFormat::Bgzf] {
            let stream = compress(&data, CompressionLevel::Default, container);
            // Round-trip the index through the on-disk v3 container, exactly
            // like the CLI's --export-index/--import-index pair does.
            let serialized = stream.index.export();
            let index = GzipIndex::import(&serialized).unwrap();
            assert_eq!(index.block_map.len(), stream.index.block_map.len());

            let mut reader = ParallelGzipReader::with_index(
                SharedFileReader::from_bytes(stream.bytes.clone()),
                reader_options(),
                index,
            )
            .unwrap();

            // Deterministic offset sweep, front-loaded with the awkward
            // spots: chunk boundaries, last bytes, and a mid-file stride.
            let mut offsets = vec![0u64, data.len() as u64 - 1, data.len() as u64 / 2];
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ (data.len() as u64);
            for _ in 0..12 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                offsets.push(state % data.len() as u64);
            }
            for offset in offsets {
                let want = &data[offset as usize..(offset as usize + 512).min(data.len())];
                let mut buffer = vec![0u8; want.len()];
                reader.seek(SeekFrom::Start(offset)).unwrap();
                reader.read_exact(&mut buffer).unwrap();
                assert_eq!(buffer, want, "{name} {container:?}: bytes at {offset}");
            }

            let statistics = reader.verification_statistics();
            assert!(
                statistics.index_chunks_verified > 0,
                "{name} {container:?}: nothing was verified: {statistics:?}"
            );
            assert_eq!(
                statistics.index_chunks_unverified, 0,
                "{name} {container:?}: {statistics:?}"
            );
        }
    }
}

#[test]
fn corruption_cannot_pass_verified_random_access() {
    let data = datagen::silesia_like(500_000, 903);
    let stream = compress(&data, CompressionLevel::Default, ContainerFormat::Pigz);
    let index = GzipIndex::import(&stream.index.export()).unwrap();

    // Flip one bit in the middle of the second member's chunk data.
    let points = stream.index.block_map.points();
    assert!(points.len() >= 2, "corpus must span several members");
    let target_byte = (points[1].compressed_bit_offset / 8) as usize + 600;
    let mut corrupted = stream.bytes.clone();
    corrupted[target_byte] ^= 0x10;

    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(corrupted),
        reader_options(),
        index,
    )
    .unwrap();
    reader
        .seek(SeekFrom::Start(points[1].uncompressed_offset + 1000))
        .unwrap();
    let mut buffer = vec![0u8; 1024];
    let result = reader.read_exact(&mut buffer);
    match result {
        // Usually the flip garbles the DEFLATE stream outright…
        Err(error) => assert!(!error.to_string().is_empty()),
        // …but if it still decodes, the CRC fragments must catch it.
        Ok(()) => assert_ne!(
            &buffer[..],
            &data[points[1].uncompressed_offset as usize + 1000..][..1024],
            "corrupted read returned pristine bytes"
        ),
    }
}

#[test]
fn compressor_shares_a_pool_with_other_work() {
    // The compressor must be usable on a caller-owned pool (the service
    // direction shares one pool between read and write pipelines).
    let pool = Arc::new(rapidgzip_suite::fetcher::ThreadPool::new(2));
    let data = datagen::fastq_of_size(300_000, 904);
    let compressor = ParallelCompressor::with_pool(
        ParallelCompressorOptions {
            chunk_size: 32 * 1024,
            member_size: 128 * 1024,
            ..Default::default()
        },
        pool,
    );
    let first = compressor.compress(&data);
    let second = compressor.compress(&data);
    assert_eq!(first.bytes, second.bytes, "deterministic on a shared pool");
    assert_eq!(decompress(&first.bytes).unwrap(), data);
}
