//! Table 5: seek-point index memory — raw vs. compressed vs. sparse windows.
//!
//! A raw index stores one 32 KiB window per chunk (~8 MiB of index per GiB
//! of compressed input at the 4 MiB default chunk size).  The `rgz_window`
//! store sparsifies each window down to the bytes its chunk actually
//! references and deflate-compresses the result; this harness quantifies the
//! effect per corpus and relates it to the size of the serialized v3 index.

use rgz_bench::*;
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_gzip::GzipWriter;
use rgz_io::SharedFileReader;

fn main() {
    print_header(
        "Table 5 — index memory: raw vs. compressed vs. sparse windows",
        "per corpus: serialized v3 index size and in-memory window store",
    );
    let total = scaled(64 << 20, 8 << 20);
    let chunk_size = scaled(1 << 20, 256 << 10);
    let corpora: Vec<(&str, Vec<u8>)> = vec![
        ("base64", rgz_datagen::base64_random(total, 51)),
        ("fastq", rgz_datagen::fastq_of_size(total, 52)),
        ("silesia", rgz_datagen::silesia_like(total, 53)),
    ];

    println!(
        "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "corpus", "points", "v3 bytes", "raw win B", "masked B", "stored B", "raw/v3"
    );
    for (name, data) in corpora {
        let compressed = GzipWriter::default().compress(&data);
        let mut reader = ParallelGzipReader::new(
            SharedFileReader::from_bytes(compressed),
            ParallelGzipReaderOptions {
                parallelization: available_cores(),
                chunk_size,
                ..Default::default()
            },
        )
        .unwrap();
        let index = reader.build_full_index().unwrap();
        let v3 = index.export();
        let statistics = reader.window_statistics();
        println!(
            "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12} {:>7.2}",
            name,
            index.block_map.len(),
            v3.len(),
            statistics.original_bytes,
            statistics.window_bytes,
            statistics.stored_bytes,
            statistics.original_bytes as f64 / v3.len() as f64,
        );
    }
}
