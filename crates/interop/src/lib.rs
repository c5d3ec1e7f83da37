//! On-disk index interop: importers and exporters for the gztool (`.gzi`)
//! and indexed_gzip (`GZIDX`) seek-point index formats.
//!
//! The paper positions rapidgzip against gztool and indexed_gzip, whose
//! defining feature is a *reusable* on-disk index.  This crate makes the
//! native [`GzipIndex`] a citizen of that ecosystem:
//!
//! * [`import_index`] sniffs the magic bytes ([`rgz_index::detect_format`])
//!   and parses native v1/v2/v3, gztool v0 and indexed_gzip v0/v1 files into a
//!   [`GzipIndex`], normalising zran-style *(byte, bits)* offsets into
//!   absolute bit offsets, deriving per-point spans, dropping window-less
//!   interior points (reported, never silently) and synthesising a leading
//!   point so the head of the file stays readable;
//! * [`export_index`] writes any of the three formats — native v3, gztool,
//!   indexed_gzip; foreign windows go through the same [`rgz_window`]
//!   records as native ones, so sparsification/compression still applies on
//!   the way in and zero-padding restores full windows on the way out;
//! * [`AnyIndexFormat`] is the CLI-facing name for "one of the three".
//!
//! Hostile files fail with typed [`IndexError`]s *before* any large
//! allocation: declared point counts are bounded by the file length,
//! declared window lengths by the 32 KiB window bound, and zlib windows are
//! inflated through an output-limited decoder.

pub mod convert;
pub mod gztool;
pub mod indexed_gzip;
pub mod zlib;

use std::str::FromStr;

pub use convert::ImportedIndex;
use rgz_index::{DetectedFormat, GzipIndex, IndexError};

/// Any index format this workspace writes: the native container, as v3, and
/// the two foreign formats.  (Native v1 and v2 files are still read.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AnyIndexFormat {
    /// The native `RGZIDX01` container, version 3.
    #[default]
    Native,
    /// gztool's `.gzi` v0 format.
    Gztool,
    /// indexed_gzip's `GZIDX` format (written as version 1).
    IndexedGzip,
}

impl std::fmt::Display for AnyIndexFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyIndexFormat::Native => write!(f, "v3"),
            AnyIndexFormat::Gztool => write!(f, "gztool"),
            AnyIndexFormat::IndexedGzip => write!(f, "indexed-gzip"),
        }
    }
}

impl FromStr for AnyIndexFormat {
    type Err = String;

    fn from_str(value: &str) -> Result<Self, Self::Err> {
        match value {
            "v3" => Ok(AnyIndexFormat::Native),
            "gztool" | "gzi" => Ok(AnyIndexFormat::Gztool),
            "indexed-gzip" | "indexed_gzip" | "gzidx" => Ok(AnyIndexFormat::IndexedGzip),
            other => Err(format!(
                "unknown index format '{other}' (expected v3, gztool or indexed-gzip)"
            )),
        }
    }
}

/// Imports an index in whichever supported format the bytes are in,
/// dispatching on the magic.
pub fn import_index(data: &[u8]) -> Result<ImportedIndex, IndexError> {
    match rgz_index::detect_format(data) {
        DetectedFormat::Rgz => {
            let index = GzipIndex::import(data)?;
            let checksummed_points = index.checksum_map.len();
            Ok(ImportedIndex {
                index,
                format: DetectedFormat::Rgz,
                windowless_points_dropped: 0,
                synthesized_leading_point: false,
                checksummed_points,
            })
        }
        DetectedFormat::Gztool | DetectedFormat::GztoolWithLines => gztool::import(data),
        DetectedFormat::IndexedGzip => indexed_gzip::import(data),
        DetectedFormat::Unknown => Err(IndexError::BadMagic),
    }
}

/// Serialises an index in the requested format.
pub fn export_index(index: &GzipIndex, format: AnyIndexFormat) -> Vec<u8> {
    match format {
        AnyIndexFormat::Native => index.export(),
        AnyIndexFormat::Gztool => gztool::export(index),
        AnyIndexFormat::IndexedGzip => indexed_gzip::export(index),
    }
}

/// What an export could not represent in the target format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportReport {
    /// Seek points whose stored CRC-32 fragments were dropped because the
    /// target format (gztool, indexed_gzip) cannot carry them.
    /// Random-access reads through the exported file will be unverifiable.
    pub checksummed_points_dropped: usize,
}

/// Like [`export_index`], but also reports what the target format lost.
/// Only the native format preserves per-point checksum fragments.
pub fn export_index_with_report(
    index: &GzipIndex,
    format: AnyIndexFormat,
) -> (Vec<u8>, ExportReport) {
    let dropped = match format {
        AnyIndexFormat::Native => 0,
        _ => index.checksum_map.len(),
    };
    (
        export_index(index, format),
        ExportReport {
            checksummed_points_dropped: dropped,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rgz_index::{SeekPoint, WINDOW_SIZE};

    /// A deterministic index whose windows are full 32 KiB buffers (the
    /// shape both foreign formats represent losslessly).
    fn full_window_index(point_count: u64) -> GzipIndex {
        let mut index = GzipIndex::new();
        index.compressed_size = 123_456;
        let mut uncompressed = 0u64;
        // First point: start of the stream, no history.
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 0,
                uncompressed_offset: 0,
                uncompressed_size: 100_000,
            },
            &[],
        );
        uncompressed += 100_000;
        let mut compressed_bits = 80u64;
        for i in 0..point_count {
            let window: Vec<u8> = (0..WINDOW_SIZE)
                .map(|j| ((j as u64 * 31 + i * 7) % 256) as u8)
                .collect();
            compressed_bits += 50_001 + i; // exercises all sub-byte phases
            index.add_seek_point(
                SeekPoint {
                    compressed_bit_offset: compressed_bits,
                    uncompressed_offset: uncompressed,
                    uncompressed_size: 100_000,
                },
                &window,
            );
            uncompressed += 100_000;
        }
        index.uncompressed_size = uncompressed;
        index
    }

    fn assert_same_points_and_windows(imported: &GzipIndex, original: &GzipIndex) {
        assert_eq!(imported.block_map.points(), original.block_map.points());
        for point in original.block_map.points() {
            assert_eq!(
                imported
                    .window_map
                    .get(point.compressed_bit_offset)
                    .as_deref(),
                original
                    .window_map
                    .get(point.compressed_bit_offset)
                    .as_deref(),
                "window mismatch at bit offset {}",
                point.compressed_bit_offset
            );
        }
    }

    #[test]
    fn gztool_round_trip_is_lossless_for_windowed_points() {
        let index = full_window_index(5);
        let serialized = export_index(&index, AnyIndexFormat::Gztool);
        assert_eq!(
            rgz_index::detect_format(&serialized),
            DetectedFormat::Gztool
        );
        let imported = import_index(&serialized).unwrap();
        assert_eq!(imported.format, DetectedFormat::Gztool);
        assert_eq!(imported.windowless_points_dropped, 0);
        assert!(!imported.synthesized_leading_point);
        assert_eq!(imported.index.uncompressed_size, index.uncompressed_size);
        assert_same_points_and_windows(&imported.index, &index);
    }

    #[test]
    fn indexed_gzip_round_trip_is_lossless_for_windowed_points() {
        let index = full_window_index(5);
        let serialized = export_index(&index, AnyIndexFormat::IndexedGzip);
        assert_eq!(
            rgz_index::detect_format(&serialized),
            DetectedFormat::IndexedGzip
        );
        let imported = import_index(&serialized).unwrap();
        assert_eq!(imported.format, DetectedFormat::IndexedGzip);
        assert_eq!(imported.windowless_points_dropped, 0);
        assert_eq!(imported.index.compressed_size, index.compressed_size);
        assert_eq!(imported.index.uncompressed_size, index.uncompressed_size);
        assert_same_points_and_windows(&imported.index, &index);
    }

    #[test]
    fn gztool_round_trip_preserves_short_windows_exactly() {
        // gztool stores window lengths explicitly, so even windows shorter
        // than 32 KiB survive byte-exactly (indexed_gzip pads those).
        let mut index = GzipIndex::new();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 0,
                uncompressed_offset: 0,
                uncompressed_size: 500,
            },
            &[],
        );
        let short: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 4003,
                uncompressed_offset: 500,
                uncompressed_size: 700,
            },
            &short,
        );
        index.uncompressed_size = 1200;
        let imported = import_index(&export_index(&index, AnyIndexFormat::Gztool)).unwrap();
        assert_same_points_and_windows(&imported.index, &index);
    }

    #[test]
    fn indexed_gzip_pads_short_windows_to_the_window_size() {
        let mut index = GzipIndex::new();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 0,
                uncompressed_offset: 0,
                uncompressed_size: 500,
            },
            &[],
        );
        let short = vec![0xAAu8; 600];
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 4003,
                uncompressed_offset: 500,
                uncompressed_size: 700,
            },
            &short,
        );
        index.uncompressed_size = 1200;
        let imported = import_index(&export_index(&index, AnyIndexFormat::IndexedGzip)).unwrap();
        let window = imported.index.window_map.get(4003).unwrap();
        assert_eq!(window.len(), WINDOW_SIZE);
        assert!(window[..WINDOW_SIZE - 600].iter().all(|&b| b == 0));
        assert_eq!(&window[WINDOW_SIZE - 600..], &short[..]);
    }

    #[test]
    fn windowless_interior_points_are_dropped_and_spans_merged() {
        // Hand-craft an indexed_gzip v1 file whose middle point has no
        // window: the import must drop it and extend the previous span.
        let index = full_window_index(2);
        let mut serialized = export_index(&index, AnyIndexFormat::IndexedGzip);
        // Point records start at byte 35; each is 18 bytes; the data flag is
        // the record's last byte.  Clear the flag of point 1 (the second).
        let flag_position = 35 + 18 + 17;
        assert_eq!(serialized[flag_position], 1);
        serialized[flag_position] = 0;
        // Remove its 32 KiB window block (the first data block, since point
        // 0 has none).
        let data_start = 35 + 3 * 18;
        serialized.drain(data_start..data_start + WINDOW_SIZE);

        let imported = import_index(&serialized).unwrap();
        assert_eq!(imported.windowless_points_dropped, 1);
        assert_eq!(imported.index.block_map.len(), 2);
        let first = &imported.index.block_map.points()[0];
        // Point 0's span now covers the dropped point's data.
        assert_eq!(first.uncompressed_size, 200_000);
    }

    #[test]
    fn foreign_index_without_a_leading_point_gets_a_synthetic_one() {
        // gztool/zran indexes often start at the first span boundary, not at
        // offset zero.
        let mut index = GzipIndex::new();
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 256) as u8).collect();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 1_000_003,
                uncompressed_offset: 1 << 20,
                uncompressed_size: 1 << 20,
            },
            &window,
        );
        index.uncompressed_size = 2 << 20;
        let imported = import_index(&export_index(&index, AnyIndexFormat::Gztool)).unwrap();
        assert!(imported.synthesized_leading_point);
        let points = imported.index.block_map.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].compressed_bit_offset, 0);
        assert_eq!(points[0].uncompressed_offset, 0);
        assert_eq!(points[0].uncompressed_size, 1 << 20);
        assert_eq!(points[1], index.block_map.points()[0]);
    }

    #[test]
    fn sparse_windows_export_zero_padded() {
        let mut index = GzipIndex::new();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 0,
                uncompressed_offset: 0,
                uncompressed_size: 64_000,
            },
            &[],
        );
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 253) as u8).collect();
        let usage = vec![(30_000u32, 100u32)];
        index.add_seek_point_sparse(
            SeekPoint {
                compressed_bit_offset: 777_777,
                uncompressed_offset: 64_000,
                uncompressed_size: 64_000,
            },
            &window,
            &usage,
        );
        index.uncompressed_size = 128_000;
        for format in [AnyIndexFormat::Gztool, AnyIndexFormat::IndexedGzip] {
            let imported = import_index(&export_index(&index, format)).unwrap();
            let restored = imported.index.window_map.get(777_777).unwrap();
            assert_eq!(restored.len(), WINDOW_SIZE, "{format}");
            assert!(restored[..30_000].iter().all(|&b| b == 0));
            assert_eq!(&restored[30_000..30_100], &window[30_000..30_100]);
            assert!(restored[30_100..].iter().all(|&b| b == 0));
        }
    }

    /// A minimal hand-built gztool file with one interior window-less
    /// point.
    fn gztool_all_windowless(file_size: u64) -> Vec<u8> {
        let mut data = vec![0u8; 8];
        data.extend_from_slice(b"gzipindx");
        data.extend_from_slice(&1u64.to_be_bytes()); // planned
        data.extend_from_slice(&1u64.to_be_bytes()); // have
        data.extend_from_slice(&100_000u64.to_be_bytes()); // out
        data.extend_from_slice(&5_000u64.to_be_bytes()); // in
        data.extend_from_slice(&0u32.to_be_bytes()); // bits
        data.extend_from_slice(&0u32.to_be_bytes()); // window_size
        data.extend_from_slice(&file_size.to_be_bytes());
        data
    }

    #[test]
    fn dropping_every_point_still_covers_the_stream_or_errors() {
        // Known total: a synthetic point spans the whole stream, so the
        // index never silently reads as empty.
        let imported = import_index(&gztool_all_windowless(250_000)).unwrap();
        assert_eq!(imported.windowless_points_dropped, 1);
        assert!(imported.synthesized_leading_point);
        let points = imported.index.block_map.points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].compressed_bit_offset, 0);
        assert_eq!(points[0].uncompressed_offset, 0);
        assert_eq!(points[0].uncompressed_size, 250_000);

        // Unknown total: the index would carry no information; refuse it.
        assert!(matches!(
            import_index(&gztool_all_windowless(0)).unwrap_err(),
            IndexError::InvalidPoint(_)
        ));
    }

    #[test]
    fn format_names_parse_and_print() {
        for (name, format) in [
            ("v3", AnyIndexFormat::Native),
            ("gztool", AnyIndexFormat::Gztool),
            ("gzi", AnyIndexFormat::Gztool),
            ("indexed-gzip", AnyIndexFormat::IndexedGzip),
            ("indexed_gzip", AnyIndexFormat::IndexedGzip),
            ("gzidx", AnyIndexFormat::IndexedGzip),
        ] {
            assert_eq!(name.parse::<AnyIndexFormat>().unwrap(), format);
        }
        assert!("bgzf".parse::<AnyIndexFormat>().is_err());
        assert_eq!(AnyIndexFormat::Gztool.to_string(), "gztool");
        assert_eq!(AnyIndexFormat::IndexedGzip.to_string(), "indexed-gzip");
        assert_eq!(AnyIndexFormat::default().to_string(), "v3");
    }

    #[test]
    fn index_format_parses_from_cli_strings() {
        // Only v3 is written; the versions before it, and every other
        // spelling of a version, name what is accepted instead.
        for name in ["v1", "v2", "1", "2", "3", "V1", "V2", "V3", "v4"] {
            assert_eq!(
                name.parse::<AnyIndexFormat>().unwrap_err(),
                format!("unknown index format '{name}' (expected v3, gztool or indexed-gzip)")
            );
        }
    }

    #[test]
    fn native_files_pass_through_import_index() {
        let index = full_window_index(2);
        let imported = import_index(&index.export()).unwrap();
        assert_eq!(imported.format, DetectedFormat::Rgz);
        assert_same_points_and_windows(&imported.index, &index);
        assert_eq!(
            import_index(b"not an index at all").unwrap_err(),
            IndexError::BadMagic
        );
    }

    /// Attaches a stored CRC fragment to every seek point of `index`.
    fn checksum_every_point(index: &mut GzipIndex) {
        for (position, point) in index.block_map.points().iter().enumerate() {
            index.checksum_map.insert(
                point.compressed_bit_offset,
                rgz_index::PointChecksums::from_fragments(
                    position as u64,
                    [(0xDEAD_BEEF ^ position as u32, point.uncompressed_size)],
                ),
            );
        }
    }

    #[test]
    fn only_native_v3_round_trips_checksum_fragments() {
        let mut index = full_window_index(2);
        checksum_every_point(&mut index);
        let total = index.checksum_map.len();
        assert_eq!(total, 3);

        let (serialized, report) = export_index_with_report(&index, AnyIndexFormat::Native);
        assert_eq!(report.checksummed_points_dropped, 0);
        let imported = import_index(&serialized).unwrap();
        assert_eq!(imported.checksummed_points, total);
        assert_eq!(imported.index.checksum_map.len(), total);

        for lossy in [AnyIndexFormat::Gztool, AnyIndexFormat::IndexedGzip] {
            let (serialized, report) = export_index_with_report(&index, lossy);
            assert_eq!(report.checksummed_points_dropped, total, "{lossy}");
            let imported = import_index(&serialized).unwrap();
            assert_eq!(imported.checksummed_points, 0, "{lossy}");
            assert!(imported.index.checksum_map.is_empty(), "{lossy}");
        }
    }

    #[test]
    fn gztool_v1_line_format_is_rejected_not_misparsed() {
        let index = full_window_index(1);
        let mut serialized = export_index(&index, AnyIndexFormat::Gztool);
        serialized[15] = b'X'; // "gzipindx" -> "gzipindX"
        assert_eq!(
            import_index(&serialized).unwrap_err(),
            IndexError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn absurd_point_counts_fail_before_any_allocation() {
        let index = full_window_index(1);

        let mut gzi = export_index(&index, AnyIndexFormat::Gztool);
        // The "have" count lives at bytes 24..32, big-endian.
        gzi[24..32].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            import_index(&gzi).unwrap_err(),
            IndexError::PointCountTooLarge { count: u64::MAX }
        ));

        let mut gzidx = export_index(&index, AnyIndexFormat::IndexedGzip);
        // The point count lives at bytes 31..35, little-endian.
        gzidx[31..35].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            import_index(&gzidx).unwrap_err(),
            IndexError::PointCountTooLarge { .. }
        ));
    }

    #[test]
    fn oversized_window_lengths_fail_before_any_allocation() {
        let index = full_window_index(1);

        let mut gzi = export_index(&index, AnyIndexFormat::Gztool);
        // Point 0 has no window; its record starts at byte 32 and its
        // window_size field sits at offset 20 within the record.
        gzi[32 + 20..32 + 24].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            import_index(&gzi).unwrap_err(),
            IndexError::WindowTooLarge {
                length
            } if length == u64::from(u32::MAX)
        ));

        let mut gzidx = export_index(&index, AnyIndexFormat::IndexedGzip);
        // The header's window size field sits at bytes 27..31.
        gzidx[27..31].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            import_index(&gzidx).unwrap_err(),
            IndexError::WindowTooLarge { .. }
        ));
    }

    #[test]
    fn non_monotonic_and_invalid_points_are_typed_errors_not_panics() {
        let index = full_window_index(2);

        // Swap the uncompressed offsets of points 1 and 2 in a gztool file:
        // point 1's "out" field (record 1 starts right after record 0's
        // empty window at byte 32 + 24).
        let mut gzi = export_index(&index, AnyIndexFormat::Gztool);
        gzi[56..64].copy_from_slice(&(5_000_000u64).to_be_bytes());
        assert!(matches!(
            import_index(&gzi).unwrap_err(),
            IndexError::NonMonotonic { .. }
        ));

        // A bits field outside 0..=7.
        let mut gzi = export_index(&index, AnyIndexFormat::Gztool);
        gzi[32 + 16..32 + 20].copy_from_slice(&99u32.to_be_bytes());
        assert_eq!(
            import_index(&gzi).unwrap_err(),
            IndexError::InvalidPoint("bit count outside 0..=7")
        );

        // indexed_gzip: cmp_offset 0 with bits > 0 would underflow.
        let mut gzidx = export_index(&index, AnyIndexFormat::IndexedGzip);
        gzidx[35..43].copy_from_slice(&0u64.to_le_bytes());
        gzidx[35 + 16] = 3;
        assert!(matches!(
            import_index(&gzidx).unwrap_err(),
            IndexError::InvalidPoint(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Truncating a foreign index anywhere must fail with a typed error,
        /// never panic or allocate absurdly.
        #[test]
        fn truncated_foreign_files_fail_cleanly(
            point_count in 1u64..4,
            cut_seed in 0usize..1_000_000,
        ) {
            let index = full_window_index(point_count);
            for format in [AnyIndexFormat::Gztool, AnyIndexFormat::IndexedGzip] {
                let serialized = export_index(&index, format);
                let cut = 1 + cut_seed % (serialized.len() - 1);
                match import_index(&serialized[..cut]) {
                    Err(_) => {}
                    // A cut behind all windows can still parse: the formats
                    // carry no whole-file checksum (their reference tools
                    // accept them too).  It must at least not gain points.
                    Ok(imported) => {
                        prop_assert!(imported.index.block_map.len() <= index.block_map.len() + 1);
                    }
                }
            }
        }

        /// Arbitrary bytes after a valid magic must never panic.
        #[test]
        fn random_bodies_never_panic(
            body in proptest::collection::vec(any::<u8>(), 0..600),
            which in 0usize..3,
        ) {
            let mut data = match which {
                0 => {
                    let mut d = vec![0u8; 8];
                    d.extend_from_slice(b"gzipindx");
                    d
                }
                1 => b"GZIDX\x01\x00".to_vec(),
                _ => b"RGZIDX01".to_vec(),
            };
            data.extend_from_slice(&body);
            let _ = import_index(&data);
        }

        /// gztool round-trips random window contents and lengths exactly.
        #[test]
        fn gztool_round_trips_arbitrary_windows(
            windows in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..1500),
                1..6,
            ),
        ) {
            let mut index = GzipIndex::new();
            index.add_seek_point(
                SeekPoint {
                    compressed_bit_offset: 0,
                    uncompressed_offset: 0,
                    uncompressed_size: 10_000,
                },
                &[],
            );
            let mut uncompressed = 10_000u64;
            let mut compressed_bits = 100_000u64;
            for window in &windows {
                index.add_seek_point(
                    SeekPoint {
                        compressed_bit_offset: compressed_bits,
                        uncompressed_offset: uncompressed,
                        uncompressed_size: 10_000,
                    },
                    window,
                );
                uncompressed += 10_000;
                compressed_bits += 81_003;
            }
            index.uncompressed_size = uncompressed;
            let imported = import_index(&export_index(&index, AnyIndexFormat::Gztool)).unwrap();
            prop_assert_eq!(imported.windowless_points_dropped, 0);
            prop_assert_eq!(imported.index.block_map.points(), index.block_map.points());
            for point in index.block_map.points() {
                prop_assert_eq!(
                    imported.index.window_map.get(point.compressed_bit_offset).as_deref(),
                    index.window_map.get(point.compressed_bit_offset).as_deref()
                );
            }
        }
    }
}
