//! Figure 12: influence of the chunk size on decompression bandwidth.

use rgz_bench::*;
use rgz_core::ParallelGzipReaderOptions;
use rgz_io::SharedFileReader;

fn main() {
    print_header(
        "Figure 12 — influence of the chunk size",
        "fixed core count, base64 corpus; rapidgzip vs. the pugz-style baseline",
    );
    let cores = available_cores().min(16);
    let total = scaled(256 << 20, 16 << 20);
    let data = rgz_datagen::base64_random(total, 12);
    let compressed = rgz_gzip::GzipWriter::default().compress_pigz_like(&data, 128 * 1024);
    println!(
        "# corpus {} MB, compressed {} MB, {} cores",
        data.len() / 1_000_000,
        compressed.len() / 1_000_000,
        cores
    );
    let shared = SharedFileReader::from_bytes(compressed.clone());

    let chunk_sizes: Vec<usize> = [
        64usize << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
    ]
    .into_iter()
    .filter(|&size| size <= compressed.len())
    .collect();

    println!(
        "{:>12} {:>18} {:>18} {:>12}",
        "chunk size", "rapidgzip MB/s", "pugz MB/s", "chunks"
    );
    for &chunk_size in &chunk_sizes {
        let options = ParallelGzipReaderOptions {
            parallelization: cores,
            chunk_size,
            ..Default::default()
        };
        let (_, duration) = best_decompress_all(&shared, &options, None, data.len(), drop);
        let rapid = bandwidth_mb_per_s(data.len(), duration);

        let pugz = rgz_baselines::PugzDecompressor {
            threads: cores,
            chunk_size,
            synchronized: true,
        };
        let (result, duration) = best_of(|| pugz.decompress(&compressed));
        let pugz_bandwidth = match result {
            Ok(out) => {
                assert_eq!(out.len(), data.len());
                bandwidth_mb_per_s(data.len(), duration)
            }
            Err(_) => f64::NAN,
        };
        println!(
            "{:>12} {:>18.1} {:>18.1} {:>12}",
            format!("{} KiB", chunk_size / 1024),
            rapid,
            pugz_bandwidth,
            compressed.len() / chunk_size
        );
    }
}
