//! The native versions no longer written, v1 (raw windows) and v2
//! (compressed-window records, no CRC fragments), are still read.  Their
//! files under `tests/legacy/` are frozen: written once by the last exporter
//! of each version, kept out of `tests/fixtures/` (which the fixture
//! generator rewrites), and never regenerated.
//!
//! * `small_v1.rgzidx` is the v1 export of [`small_index`];
//! * `interop_corpus_v2.rgzidx` is the v2 export of the index the fixture
//!   generator builds, whose v3 export is `tests/fixtures/interop_corpus.rgzidx`.
//!
//! Each must import to the points and windows of the v3 import of the same
//! index, and without fragments: a v3 file whose points carry none is what
//! these versions say.

use std::path::PathBuf;

use rgz_index::{GzipIndex, SeekPoint, WINDOW_SIZE};

fn read(relative: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The index `small_v1.rgzidx` holds: twelve points, the first without a
/// window, one sparse, the others with windows of assorted lengths.
fn small_index() -> GzipIndex {
    let mut index = GzipIndex::new();
    index.compressed_size = 400_000;
    index.uncompressed_size = 12 * 50_000;
    for i in 0..12u64 {
        let point = SeekPoint {
            compressed_bit_offset: 8 + i * 250_003,
            uncompressed_offset: i * 50_000,
            uncompressed_size: 50_000,
        };
        if i == 5 {
            let window: Vec<u8> = (0..WINDOW_SIZE).map(|j| (j % 253) as u8).collect();
            let usage = [(20_000, 300), (WINDOW_SIZE as u32 - 100, 100)];
            index.add_seek_point_sparse(point, &window, &usage);
        } else {
            let length = (i as usize * 1543) % 2500;
            let window: Vec<u8> = (0..length)
                .map(|j| ((j * 7 + i as usize) % 251) as u8)
                .collect();
            index.add_seek_point(point, &window);
        }
    }
    index
}

/// Asserts that `legacy` holds the points and windows of `v3` and no
/// fragments.  A v1 file stores each window raw, zero-padded back to the
/// length it had before sparsification, so `padded` compares against that.
fn assert_imports_like(legacy: &GzipIndex, v3: &GzipIndex, padded: bool) {
    assert_eq!(legacy.compressed_size, v3.compressed_size);
    assert_eq!(legacy.uncompressed_size, v3.uncompressed_size);
    assert_eq!(legacy.block_map.points(), v3.block_map.points());
    for point in v3.block_map.points() {
        let key = point.compressed_bit_offset;
        let record = v3.window_map.get_compressed(key).unwrap();
        let expected = match padded {
            true => record.decompress_padded(),
            false => record.decompress(),
        };
        let window = legacy.window_map.try_get(key).unwrap().unwrap();
        assert_eq!(
            window.as_slice(),
            &expected.unwrap()[..],
            "point at bit {key}"
        );
    }
    assert!(legacy.checksum_map.is_empty());
}

#[test]
fn frozen_v1_and_v2_files_import_like_the_v3_export_of_their_index() {
    let v1 = read("tests/legacy/small_v1.rgzidx");
    assert_eq!(v1[8..12], 1u32.to_le_bytes());
    let v3 = GzipIndex::import(&small_index().export()).unwrap();
    assert_imports_like(&GzipIndex::import(&v1).unwrap(), &v3, true);

    let v2 = read("tests/legacy/interop_corpus_v2.rgzidx");
    assert_eq!(v2[8..12], 2u32.to_le_bytes());
    let golden = read("../../tests/fixtures/interop_corpus.rgzidx");
    assert_eq!(golden[8..12], 3u32.to_le_bytes());
    let v3 = GzipIndex::import(&golden).unwrap();
    assert_eq!(v3.checksum_map.len(), v3.block_map.len());
    assert_imports_like(&GzipIndex::import(&v2).unwrap(), &v3, false);
}
