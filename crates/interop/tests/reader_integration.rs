//! End-to-end proof of the acceptance criterion: an index converted to a
//! foreign format and back drives byte-identical random-access reads through
//! `ParallelGzipReader`, compared against a natively built index.

use std::io::{Read, Seek, SeekFrom};

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_gzip::{CompressorFrontend, FrontendKind, GzipWriter};
use rgz_index::GzipIndex;
use rgz_interop::{export_index, import_index, AnyIndexFormat};
use rgz_io::SharedFileReader;

fn options() -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 4,
        chunk_size: 64 * 1024,
        ..Default::default()
    }
}

fn build_index(compressed: &[u8]) -> GzipIndex {
    let mut reader = ParallelGzipReader::from_bytes(compressed.to_vec(), options()).unwrap();
    reader.build_full_index().unwrap()
}

fn read_at(reader: &mut ParallelGzipReader, offset: u64, length: usize) -> Vec<u8> {
    let mut buffer = vec![0u8; length];
    reader.seek(SeekFrom::Start(offset)).unwrap();
    reader.read_exact(&mut buffer).unwrap();
    buffer
}

/// Every format (native v3 without fragments, gztool, indexed_gzip) must
/// serve the same bytes at the same offsets as the natively built index, for
/// both a marker-heavy stream and a BGZF-style multi-member one.
#[test]
fn foreign_indexes_drive_byte_identical_random_access() {
    let corpora: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
        {
            let data = rgz_datagen::silesia_like(1_500_000, 90);
            let compressed = GzipWriter::default().compress(&data);
            ("silesia", data, compressed)
        },
        {
            let data = rgz_datagen::fastq_of_size(1_000_000, 91);
            let compressed = CompressorFrontend::new(FrontendKind::Bgzf, 6).compress(&data);
            ("bgzf", data, compressed)
        },
    ];
    for (name, data, compressed) in corpora {
        let index = build_index(&compressed);
        let offsets: Vec<u64> = vec![
            0,
            1,
            data.len() as u64 / 3,
            data.len() as u64 / 2 + 17,
            data.len() as u64 - 8192,
        ];
        // What v1 and v2 files say: no fragments.
        let bare = GzipIndex {
            checksum_map: Default::default(),
            ..index.clone()
        };
        for format in [
            AnyIndexFormat::Native,
            AnyIndexFormat::Gztool,
            AnyIndexFormat::IndexedGzip,
        ] {
            let serialized = export_index(&bare, format);
            let imported = import_index(&serialized)
                .unwrap_or_else(|e| panic!("{name}/{format}: import failed: {e}"));
            assert_eq!(
                imported.windowless_points_dropped, 0,
                "{name}/{format}: dropped points on a complete index"
            );
            let mut reader = ParallelGzipReader::with_index(
                SharedFileReader::from_bytes(compressed.clone()),
                options(),
                imported.index,
            )
            .unwrap();
            assert_eq!(
                reader.uncompressed_size(),
                Some(data.len() as u64),
                "{name}/{format}"
            );
            for &offset in &offsets {
                let restored = read_at(&mut reader, offset, 8192);
                let expected = &data[offset as usize..offset as usize + 8192];
                assert_eq!(
                    restored, expected,
                    "{name}/{format}: mismatch at offset {offset}"
                );
            }
            assert!(
                reader.statistics().index_chunks > 0,
                "{name}/{format}: the index fast path was never used"
            );
            // Full sequential decompression through the imported index.
            let mut full = Vec::new();
            reader.seek(SeekFrom::Start(0)).unwrap();
            reader.read_to_end(&mut full).unwrap();
            assert_eq!(full, data, "{name}/{format}: full read mismatch");
        }
    }
}

/// An index whose foreign form lost its interior windows (indexed_gzip v1
/// allows data-less points) still serves correct reads everywhere — spans
/// merge onto the preceding windowed point.
#[test]
fn reads_stay_correct_after_windowless_points_are_dropped() {
    let data = rgz_datagen::base64_random(900_000, 92);
    let compressed = GzipWriter::default().compress(&data);
    let index = build_index(&compressed);
    let mut serialized = export_index(&index, AnyIndexFormat::IndexedGzip);

    // Clear the data flag of every second windowed point and remove its
    // 32 KiB window block from the tail section.
    let npoints = u32::from_le_bytes(serialized[31..35].try_into().unwrap()) as usize;
    let records_start = 35;
    let data_start = records_start + npoints * 18;
    let mut window_position = data_start;
    let mut removals: Vec<usize> = Vec::new();
    let mut windowed_seen = 0usize;
    for point in 0..npoints {
        let flag_position = records_start + point * 18 + 17;
        if serialized[flag_position] == 0 {
            continue;
        }
        windowed_seen += 1;
        if windowed_seen % 2 == 0 {
            serialized[flag_position] = 0;
            removals.push(window_position);
        }
        // Positions are in the original layout; every windowed point owns a
        // block there, removed or not.
        window_position += 32768;
    }
    // Remove from the back so earlier positions stay valid.
    for &position in removals.iter().rev() {
        serialized.drain(position..position + 32768);
    }
    assert!(!removals.is_empty(), "corpus produced too few seek points");

    let imported = import_index(&serialized).unwrap();
    assert_eq!(imported.windowless_points_dropped, removals.len());
    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed),
        options(),
        imported.index,
    )
    .unwrap();
    for offset in [0u64, 123_456, 456_789, data.len() as u64 - 4096] {
        let restored = read_at(&mut reader, offset, 4096);
        assert_eq!(
            restored,
            &data[offset as usize..offset as usize + 4096],
            "mismatch at offset {offset}"
        );
    }
}
