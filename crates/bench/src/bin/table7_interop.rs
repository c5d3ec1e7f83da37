//! Table 7: index interop — cold-start random access with an imported
//! on-disk index vs. speculative block-finding.
//!
//! The whole point of gztool / indexed_gzip compatibility is skipping the
//! first pass: a reader seeded with an imported index can serve a random
//! offset by decoding exactly one chunk, while a cold reader has to run the
//! speculative sequential pass up to that offset first.  This harness
//! quantifies the gap on a pigz-style corpus for every importable format
//! and reports the import cost of each.
//!
//! `--json` emits one [`rgz_bench::JsonReport`] line; `perf_compare` gates
//! the hardware-independent `speedup_index_vs_speculative` ratio.

use rgz_bench::*;
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_gzip::GzipWriter;
use rgz_index::IndexFormat;
use rgz_interop::{export_index, import_index, AnyIndexFormat};
use rgz_io::SharedFileReader;

fn options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: available_cores(),
        chunk_size: scaled(1 << 20, 128 << 10),
        ..Default::default()
    }
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("table7_interop");
    if !json {
        print_header(
            "Table 7 — interop: cold random access, imported index vs. speculation",
            "per format: import cost + bandwidth over a shuffled access pattern",
        );
    }

    let total = scaled(48 << 20, 6 << 20);
    let read_size = 64 << 10;
    let accesses = scaled(48, 16);
    let data = rgz_datagen::base64_random(total, 61);
    let compressed = GzipWriter::default().compress_pigz_like(&data, 128 << 10);
    let offsets = access_offsets(0x2545F491_4F6CDD1D, total, accesses, read_size);
    let touched = (accesses * read_size) as f64;

    // Build the index once (this is the producer side; its cost is the
    // ordinary first pass) and serialise it in every format.
    let mut producer = ParallelGzipReader::from_bytes(compressed.clone(), options()).unwrap();
    let index = producer.build_full_index().unwrap();
    let serialized: Vec<(AnyIndexFormat, Vec<u8>)> = [
        AnyIndexFormat::Native(IndexFormat::V2),
        AnyIndexFormat::Gztool,
        AnyIndexFormat::IndexedGzip,
    ]
    .into_iter()
    .map(|format| (format, export_index(&index, format)))
    .collect();

    // Baseline: a cold reader with no index serving the same accesses via
    // speculative block-finding (the first access forces the pass to cover
    // the file).
    let mut cold = ParallelGzipReader::from_bytes(compressed.clone(), options()).unwrap();
    let speculative_time = timed_random_access(&mut cold, &offsets, read_size);
    let speculative_mb_s = touched / 1e6 / speculative_time.as_secs_f64().max(1e-9);
    let speculative_decodes = {
        let statistics = cold.statistics();
        statistics.speculative_chunks_used + statistics.on_demand_chunks + statistics.index_chunks
    };
    if !json {
        println!(
            "{:<14} {:>10} {:>12} {:>14} {:>10}",
            "setup", "import ms", "access MB/s", "chunk decodes", "speedup"
        );
        println!(
            "{:<14} {:>10} {:>12.1} {:>14} {:>10}",
            "speculative", "-", speculative_mb_s, speculative_decodes, "1.00"
        );
    }
    report.record("cold_access_speculative_mb_s", speculative_mb_s);

    let mut indexed_v2_mb_s = 0f64;
    for (format, bytes) in &serialized {
        let (imported, import_time) = time(|| import_index(bytes).unwrap());
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed.clone()),
            options(),
            imported.index,
        )
        .unwrap();
        let access_time = timed_random_access(&mut reader, &offsets, read_size);
        let mb_s = touched / 1e6 / access_time.as_secs_f64().max(1e-9);
        let statistics = reader.statistics();
        let decodes = statistics.index_chunks + statistics.on_demand_chunks;
        let speedup = speculative_time.as_secs_f64() / access_time.as_secs_f64().max(1e-9);
        if !json {
            println!(
                "{:<14} {:>10.1} {:>12.1} {:>14} {:>9.2}x",
                format.to_string(),
                import_time.as_secs_f64() * 1e3,
                mb_s,
                decodes,
                speedup,
            );
        }
        let key = match format {
            AnyIndexFormat::Native(_) => "v2",
            AnyIndexFormat::Gztool => "gztool",
            AnyIndexFormat::IndexedGzip => "indexed_gzip",
        };
        report.record(&format!("import_{key}_ms"), import_time.as_secs_f64() * 1e3);
        report.record(&format!("cold_access_{key}_mb_s"), mb_s);
        if matches!(format, AnyIndexFormat::Native(_)) {
            indexed_v2_mb_s = mb_s;
        }
    }
    // The headline, hardware-independent ratio: how much faster cold random
    // access gets when any reusable index is present.
    report.record(
        "speedup_index_vs_speculative",
        indexed_v2_mb_s / speculative_mb_s.max(1e-9),
    );

    if json {
        report.emit();
    }
}
