//! Regenerates the golden interop fixtures under `tests/fixtures/`.
//!
//! The fixtures pin the exact bytes of every on-disk index format written
//! (native v3, gztool, indexed_gzip) for a small deterministic corpus: `tests/golden_fixtures.rs` re-exports the
//! same index and asserts byte equality, so any unintended change to a
//! serialiser (or to the chunking/sparsification that feeds it) fails CI.
//!
//! Run from anywhere in the workspace:
//!
//! ```text
//! cargo run -p rgz_interop --example generate_fixtures
//! ```
//!
//! An optional first argument redirects the output to another directory
//! (created if needed). The CI `fixture-freshness` job uses this to render
//! the fixtures into a temporary directory and `git diff --no-index` them
//! against the checked-in `tests/fixtures/`, so a serialiser change that
//! forgot to regenerate the goldens fails before the byte-equality tests do.
//!
//! Everything is derived from fixed seeds and fixed reader options; the
//! output is identical on every platform (the vendored `rand` is part of
//! the workspace precisely to keep the corpora deterministic).
//!
//! The native versions no longer written, v1 and v2, are not generated:
//! their files are frozen under `crates/index/tests/legacy/`.

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_gzip::GzipWriter;
use rgz_interop::{export_index, AnyIndexFormat};

fn main() {
    let fixtures = match std::env::args().nth(1) {
        Some(directory) => {
            let path = std::path::PathBuf::from(directory);
            std::fs::create_dir_all(&path).expect("cannot create the output directory");
            path
        }
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .canonicalize()
            .or_else(|_| {
                let path =
                    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
                std::fs::create_dir_all(&path).map(|_| path)
            })
            .expect("cannot locate tests/fixtures"),
    };

    // The corpus: 200 KB of deterministic FASTQ records, compressed
    // pigz-style (a deflate block boundary every 24 KiB of input) so the
    // chunking actually finds split points in a corpus this small.
    let data = rgz_datagen::fastq_of_size(200_000, 4242);
    let compressed = GzipWriter::default().compress_pigz_like(&data, 24 * 1024);
    std::fs::write(fixtures.join("interop_corpus.gz"), &compressed).unwrap();

    // The index: fixed 8 KiB chunks (small, so the tiny corpus still yields
    // a handful of seek points), built by the ordinary first pass
    // (sparsified, compressed windows included).
    let mut reader = ParallelGzipReader::from_bytes(
        compressed,
        ParallelGzipReaderOptions {
            parallelization: 2,
            chunk_size: 8 * 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let index = reader.build_full_index().unwrap();

    for (name, format) in [
        ("interop_corpus.gzi", AnyIndexFormat::Gztool),
        ("interop_corpus.gzidx", AnyIndexFormat::IndexedGzip),
        ("interop_corpus.rgzidx", AnyIndexFormat::Native),
    ] {
        let serialized = export_index(&index, format);
        std::fs::write(fixtures.join(name), &serialized).unwrap();
        println!(
            "wrote {name}: {} bytes, {} seek points",
            serialized.len(),
            index.block_map.len()
        );
    }
    println!(
        "corpus: {} bytes decompressed, {} seek points",
        data.len(),
        index.block_map.len()
    );
}
