//! Golden-fixture tests: the checked-in gztool / indexed_gzip / native v3
//! index files under `tests/fixtures/` pin the exact serialised bytes of
//! every exporter.  Any unintended change to a format writer — or to the
//! chunking and window sparsification that feed it — shows up as a byte
//! diff here.
//!
//! Regenerate after an *intended* format change with:
//! `cargo run -p rgz_interop --example generate_fixtures`

use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_index::DetectedFormat;
use rgz_interop::{export_index, import_index, AnyIndexFormat};
use rgz_io::SharedFileReader;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// The exact reader configuration the generator used.
fn generator_options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: 8 * 1024,
        ..Default::default()
    }
}

#[test]
fn exports_are_byte_identical_to_the_golden_fixtures() {
    let compressed = fixture("interop_corpus.gz");
    let mut reader = ParallelGzipReader::from_bytes(compressed, generator_options()).unwrap();
    let index = reader.build_full_index().unwrap();
    assert!(index.block_map.len() >= 8, "fixture corpus lost its points");

    for (name, format) in [
        ("interop_corpus.gzi", AnyIndexFormat::Gztool),
        ("interop_corpus.gzidx", AnyIndexFormat::IndexedGzip),
        ("interop_corpus.rgzidx", AnyIndexFormat::Native),
    ] {
        let exported = export_index(&index, format);
        let golden = fixture(name);
        assert_eq!(
            exported, golden,
            "{name}: export no longer matches the golden fixture; if the \
             format change is intended, regenerate with \
             `cargo run -p rgz_interop --example generate_fixtures`"
        );
    }
}

#[test]
fn fixture_magics_are_detected() {
    for (name, expected) in [
        ("interop_corpus.gzi", DetectedFormat::Gztool),
        ("interop_corpus.gzidx", DetectedFormat::IndexedGzip),
        ("interop_corpus.rgzidx", DetectedFormat::Rgz),
        ("interop_corpus.gz", DetectedFormat::Unknown),
    ] {
        assert_eq!(rgz_index::detect_format(&fixture(name)), expected, "{name}");
    }
}

#[test]
fn golden_indexes_drive_correct_random_access_reads() {
    let compressed = fixture("interop_corpus.gz");
    let data = rgz_gzip::decompress(&compressed).unwrap();
    assert_eq!(data.len(), 200_000);

    for name in [
        "interop_corpus.gzi",
        "interop_corpus.gzidx",
        "interop_corpus.rgzidx",
    ] {
        let imported =
            import_index(&fixture(name)).unwrap_or_else(|e| panic!("{name}: import failed: {e}"));
        assert_eq!(imported.windowless_points_dropped, 0, "{name}");
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed.clone()),
            generator_options(),
            imported.index,
        )
        .unwrap();
        assert_eq!(
            reader.uncompressed_size(),
            Some(data.len() as u64),
            "{name}"
        );
        let mut buffer = vec![0u8; 4096];
        for offset in [0u64, 50_000, 123_456, 195_904] {
            reader.seek(SeekFrom::Start(offset)).unwrap();
            reader.read_exact(&mut buffer).unwrap();
            assert_eq!(
                &buffer[..],
                &data[offset as usize..offset as usize + 4096],
                "{name}: mismatch at offset {offset}"
            );
        }
        let mut full = Vec::new();
        reader.seek(SeekFrom::Start(0)).unwrap();
        reader.read_to_end(&mut full).unwrap();
        assert_eq!(full, data, "{name}: full read mismatch");
    }
}
