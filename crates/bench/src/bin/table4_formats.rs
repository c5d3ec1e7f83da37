//! Table 4: comparison with other compression formats and tools.
//!
//! zstd/pzstd/bzip2/lz4 are represented by the `framezip` stand-in (see
//! DESIGN.md): a single-frame file reproduces zstd's "cannot be parallelized"
//! behaviour, a multi-frame file reproduces pzstd's.

use rgz_baselines::{decompress_bgzf_parallel, FramezipDecompressor, FramezipWriter};
use rgz_bench::*;
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_gzip::{BgzfWriter, GzipWriter};
use rgz_io::SharedFileReader;

fn main() {
    print_header(
        "Table 4 — comparison with other formats/tools",
        "Silesia-like corpus; P = degree of parallelism",
    );
    let max_cores = available_cores();
    let parallelism = [1usize, 4.min(max_cores), max_cores];
    let total = scaled(96 << 20, 8 << 20);
    let data = rgz_datagen::silesia_like(total, 14);
    println!("# corpus {} MB", data.len() / 1_000_000);

    let gzip_file = GzipWriter::default().compress_pigz_like(&data, 128 * 1024);
    let bgzf_file = BgzfWriter::default().compress(&data);
    let framezip_single = FramezipWriter::default().compress_single_frame(&data);
    let framezip_multi = FramezipWriter::default().compress_multi_frame(&data, 512 * 1024);

    println!(
        "{:<10} {:>10} {:<26} {:>4} {:>16}",
        "format", "ratio", "decompressor", "P", "bandwidth MB/s"
    );
    let row = |format: &str, compressed: &Vec<u8>, decompressor: &str, p: usize, bandwidth: f64| {
        println!(
            "{:<10} {:>10.2} {:<26} {:>4} {:>16.1}",
            format,
            data.len() as f64 / compressed.len() as f64,
            decompressor,
            p,
            bandwidth
        );
    };

    for &p in &parallelism {
        // gzip file decompressed by rapidgzip, without and with an index.
        let options = ParallelGzipReaderOptions {
            parallelization: p,
            chunk_size: scaled(1 << 20, 256 << 10),
            ..Default::default()
        };
        let shared = SharedFileReader::from_bytes(gzip_file.clone());
        let (_, duration) = best_decompress_all(&shared, &options, None, data.len(), drop);
        row(
            "gzip",
            &gzip_file,
            "rapidgzip",
            p,
            bandwidth_mb_per_s(data.len(), duration),
        );

        let mut builder = ParallelGzipReader::new(shared.clone(), options.clone()).unwrap();
        let index = builder.build_full_index().unwrap();
        let (_, duration) = best_decompress_all(&shared, &options, Some(&index), data.len(), drop);
        row(
            "gzip",
            &gzip_file,
            "rapidgzip (index)",
            p,
            bandwidth_mb_per_s(data.len(), duration),
        );

        // Serial gzip baseline (only meaningful at P = 1, constant otherwise).
        if p == 1 {
            let (_, duration) = best_of(|| rgz_gzip::decompress(&gzip_file).unwrap());
            row(
                "gzip",
                &gzip_file,
                "gzip (serial)",
                1,
                bandwidth_mb_per_s(data.len(), duration),
            );
        }

        // BGZF decompressed by the bgzip-style parallel decoder.
        let (_, duration) = best_of(|| decompress_bgzf_parallel(&bgzf_file, p).unwrap());
        row(
            "bgzf",
            &bgzf_file,
            "bgzip",
            p,
            bandwidth_mb_per_s(data.len(), duration),
        );

        // framezip single frame (zstd-like): parallelism cannot help.
        let single = FramezipDecompressor { threads: p };
        let (_, duration) = best_of(|| single.decompress(&framezip_single).unwrap());
        row(
            "zstd*",
            &framezip_single,
            "pzstd (single frame)",
            p,
            bandwidth_mb_per_s(data.len(), duration),
        );

        // framezip multi frame (pzstd-like): parallelism helps.
        let multi = FramezipDecompressor { threads: p };
        let (_, duration) = best_of(|| multi.decompress(&framezip_multi).unwrap());
        row(
            "pzstd*",
            &framezip_multi,
            "pzstd (multi frame)",
            p,
            bandwidth_mb_per_s(data.len(), duration),
        );
    }
    println!("# * framezip stand-in for Zstandard (see DESIGN.md, substitutions)");
}
