//! Table 6: checksum verification overhead — verified vs. unverified
//! parallel decompression throughput.
//!
//! The verification pipeline hashes every chunk's decompressed bytes on the
//! worker thread that produced them and folds the per-chunk CRC-32 fragments
//! with `crc32_combine` on the orchestrator (an O(log n) GF(2) product per
//! fragment).  Because hashing parallelizes with decoding, the expected
//! overhead is a few percent — this harness quantifies it per corpus.

use rgz_bench::*;
use rgz_core::{ParallelGzipReaderOptions, VerificationMode};
use rgz_gzip::GzipWriter;
use rgz_io::SharedFileReader;

fn main() {
    print_header(
        "Table 6 — CRC-32 verification overhead",
        "parallel decompression bandwidth with --verify (default) vs. --no-verify",
    );
    let total = scaled(64 << 20, 8 << 20);
    let chunk_size = scaled(4 << 20, 256 << 10);
    let corpora: Vec<(&str, Vec<u8>)> = vec![
        ("base64", rgz_datagen::base64_random(total, 61)),
        ("fastq", rgz_datagen::fastq_of_size(total, 62)),
        ("silesia", rgz_datagen::silesia_like(total, 63)),
    ];

    println!(
        "{:<10} {:>14} {:>14} {:>9} {:>9}",
        "corpus", "off MB/s", "full MB/s", "overhead", "members"
    );
    for (name, data) in corpora {
        let compressed = GzipWriter::default().compress(&data);
        let shared = SharedFileReader::from_bytes(compressed);

        let mut bandwidths = [0.0f64; 2];
        let mut members_verified = 0u64;
        for (index, verification) in [VerificationMode::Off, VerificationMode::Full]
            .into_iter()
            .enumerate()
        {
            let options = ParallelGzipReaderOptions {
                parallelization: available_cores(),
                chunk_size,
                verification,
                ..Default::default()
            };
            let (reader, duration) =
                best_decompress_all(&shared, &options, None, data.len(), |reader| reader);
            bandwidths[index] = bandwidth_mb_per_s(data.len(), duration);
            if verification == VerificationMode::Full {
                members_verified = reader.verification_statistics().members_verified;
                assert!(members_verified > 0, "verification pipeline never ran");
            }
        }
        let overhead = (bandwidths[0] / bandwidths[1] - 1.0) * 100.0;
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>8.1}% {:>9}",
            name, bandwidths[0], bandwidths[1], overhead, members_verified
        );
    }
}
