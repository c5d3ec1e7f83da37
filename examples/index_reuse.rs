//! Export a seek-point index after the first decompression and reuse it for a
//! much faster second pass and for constant-time random access (§1.3).
//!
//! Run with: `cargo run --release --example index_reuse`

use std::io::{Read, Seek, SeekFrom};

use rapidgzip_suite::core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::GzipWriter;
use rapidgzip_suite::index::GzipIndex;
use rapidgzip_suite::io::SharedFileReader;

fn main() {
    let data = datagen::silesia_like(32 << 20, 3);
    let compressed = GzipWriter::default().compress(&data);
    let shared = SharedFileReader::from_bytes(compressed);
    let options = ParallelGzipReaderOptions::default().with_chunk_size(1 << 20);

    // Pass 1: decompress while building the index, then export it.  Windows
    // are held compressed and sparsified in memory, and the v3 export writes
    // those compressed records directly, with each seek point's CRC-32
    // fragments for verified random access.
    let start = std::time::Instant::now();
    let mut first = ParallelGzipReader::new(shared.clone(), options.clone()).unwrap();
    let size = first.decompress_all().unwrap().len();
    let index = first.build_full_index().unwrap();
    let serialized = index.export();
    let first_pass = start.elapsed();
    println!(
        "pass 1 (no index): {size} bytes in {:.2} s; exported index of {} bytes / {} seek points",
        first_pass.as_secs_f64(),
        serialized.len(),
        index.block_map.len()
    );
    let windows = first.window_statistics();
    println!(
        "window store     : {} windows, {} raw -> {} stored bytes in memory ({:.1}x)",
        windows.windows,
        windows.original_bytes,
        windows.stored_bytes,
        windows.compression_ratio()
    );

    // Pass 2: import the index and decompress again — no block finding, no
    // two-stage decoding, balanced chunks.
    let start = std::time::Instant::now();
    let imported = GzipIndex::import(&serialized).unwrap();
    let mut second =
        ParallelGzipReader::with_index(shared.clone(), options.clone(), imported).unwrap();
    assert_eq!(second.decompress_all().unwrap().len(), size);
    let second_pass = start.elapsed();
    println!(
        "pass 2 (index)   : {size} bytes in {:.2} s ({:.2}x the first pass)",
        second_pass.as_secs_f64(),
        first_pass.as_secs_f64() / second_pass.as_secs_f64().max(1e-9)
    );

    // Constant-time random access through the imported index.
    let imported = GzipIndex::import(&serialized).unwrap();
    let mut random = ParallelGzipReader::with_index(shared, options, imported).unwrap();
    let mut buffer = vec![0u8; 64 * 1024];
    for &offset in &[1_000_000u64, 17_000_000, 30_000_000] {
        let start = std::time::Instant::now();
        random.seek(SeekFrom::Start(offset)).unwrap();
        random.read_exact(&mut buffer).unwrap();
        assert_eq!(
            &buffer[..],
            &data[offset as usize..offset as usize + buffer.len()]
        );
        println!(
            "random read of 64 KiB at offset {offset:>9}: {:.2} ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }
}
