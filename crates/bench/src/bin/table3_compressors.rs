//! Table 3: influence of the compressing tool and level on rapidgzip's
//! parallel decompression bandwidth.

use rgz_bench::*;
use rgz_core::ParallelGzipReaderOptions;
use rgz_gzip::{CompressorFrontend, FrontendKind};
use rgz_io::SharedFileReader;

fn main() {
    print_header(
        "Table 3 — influence of the compressor",
        "Silesia-like corpus compressed by emulated tools/levels, decompressed by rapidgzip with all cores",
    );
    let cores = available_cores();
    let total = scaled(128 << 20, 8 << 20);
    let data = rgz_datagen::silesia_like(total, 13);
    println!("# corpus {} MB, {} cores", data.len() / 1_000_000, cores);
    println!(
        "{:<14} {:>12} {:>18}",
        "compressor", "compr. ratio", "bandwidth MB/s"
    );

    let frontends = [
        (FrontendKind::Bgzf, 0u8),
        (FrontendKind::Bgzf, 3),
        (FrontendKind::Bgzf, 6),
        (FrontendKind::Bgzf, 9),
        (FrontendKind::Gzip, 1),
        (FrontendKind::Gzip, 3),
        (FrontendKind::Gzip, 6),
        (FrontendKind::Gzip, 9),
        (FrontendKind::Igzip, 0),
        (FrontendKind::Igzip, 1),
        (FrontendKind::Igzip, 3),
        (FrontendKind::Pigz, 1),
        (FrontendKind::Pigz, 6),
        (FrontendKind::Pigz, 9),
    ];
    for (kind, level) in frontends {
        let frontend = CompressorFrontend::new(kind, level);
        let compressed = frontend.compress(&data);
        let ratio = data.len() as f64 / compressed.len() as f64;
        let options = ParallelGzipReaderOptions {
            parallelization: cores,
            chunk_size: scaled(1 << 20, 256 << 10),
            ..Default::default()
        };
        let shared = SharedFileReader::from_bytes(compressed);
        let (_, duration) = best_decompress_all(&shared, &options, None, data.len(), drop);
        println!(
            "{:<14} {:>12.2} {:>18.1}",
            frontend.label(),
            ratio,
            bandwidth_mb_per_s(data.len(), duration)
        );
    }
}
