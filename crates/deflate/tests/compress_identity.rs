//! Byte identity of the write path.
//!
//! Every reader workload's input, every pinned index fingerprint and every
//! golden fixture in this repository comes out of `DeflateCompressor`, so a
//! change that makes the encoder *faster* must not move a single output
//! byte.  These tests pin `(length, CRC-32)` of the compressor's output —
//! raw DEFLATE at every level and two block sizes, the pigz and BGZF
//! containers of `rgz_compress`, and a seek-point window record — to what
//! commit 632837b produced.  A deliberate ratio change re-pins them; anything
//! else that trips them is a bug.
//!
//! The 1 MiB table is skipped in debug builds (minutes at `Best`); the CI
//! `round-trip` job runs it with `cargo test --release`.  Tier-1 pins 128 KiB
//! prefixes of the same corpora plus the edge cases of block splitting.

use std::sync::OnceLock;

use rgz_bitio::BitWriter;
use rgz_checksum::crc32;
use rgz_compress::{ContainerFormat, ParallelCompressor, ParallelCompressorOptions};
use rgz_deflate::{CompressionLevel, CompressorOptions, DeflateCompressor};
use rgz_window::CompressedWindow;

type Fingerprint = (usize, u32);

fn fingerprint(bytes: &[u8]) -> Fingerprint {
    (bytes.len(), crc32(bytes))
}

const LEVELS: [CompressionLevel; 4] = [
    CompressionLevel::Huffman,
    CompressionLevel::Fast,
    CompressionLevel::Default,
    CompressionLevel::Best,
];

/// `[silesia_like, base64_random, fastq_of_size]`, 1 MiB each, seed 14.
fn corpora() -> &'static [(&'static str, Vec<u8>); 3] {
    static CORPORA: OnceLock<[(&str, Vec<u8>); 3]> = OnceLock::new();
    CORPORA.get_or_init(|| {
        [
            ("silesia", rgz_datagen::silesia_like(1 << 20, 14)),
            ("base64", rgz_datagen::base64_random(1 << 20, 14)),
            ("fastq", rgz_datagen::fastq_of_size(1 << 20, 14)),
        ]
    })
}

fn deflate(
    data: &[u8],
    level: CompressionLevel,
    block_size: usize,
    force_dynamic: bool,
) -> Fingerprint {
    let options = CompressorOptions {
        level,
        block_size,
        force_dynamic,
    };
    fingerprint(&DeflateCompressor::new(options).compress(data))
}

fn container(data: &[u8], container: ContainerFormat) -> Fingerprint {
    let options = ParallelCompressorOptions {
        container,
        parallelization: 2,
        ..Default::default()
    };
    fingerprint(&ParallelCompressor::new(options).compress(data).bytes)
}

/// Compares every measured row with its pin and reports all of them on a
/// mismatch, in the form the tables below are written in, so one run at a
/// new parent re-pins a whole table.
fn assert_pinned(measured: &[(String, Fingerprint)], pinned: &[Fingerprint]) {
    if measured.iter().map(|row| row.1).ne(pinned.iter().copied()) {
        let rows: Vec<String> = measured
            .iter()
            .enumerate()
            .map(|(row, (label, got))| {
                let verdict = if pinned.get(row) == Some(got) {
                    ""
                } else {
                    "   <-- differs"
                };
                format!("    ({}, 0x{:08x}), // {label}{verdict}", got.0, got.1)
            })
            .collect();
        panic!(
            "compressor output differs from the {} pinned rows:\n{}",
            pinned.len(),
            rows.join("\n")
        );
    }
}

/// Rows: corpus x level x block size (16 KiB, 128 KiB), then corpus x
/// container, then the window record of each corpus.
fn table(length: usize) -> Vec<(String, Fingerprint)> {
    let mut rows = Vec::new();
    for (name, data) in corpora() {
        let data = &data[..length];
        for level in LEVELS {
            for block_size in [16 << 10, 128 << 10] {
                rows.push((
                    format!("{name} {level:?} {} KiB blocks", block_size >> 10),
                    deflate(data, level, block_size, false),
                ));
            }
        }
    }
    for (name, data) in corpora() {
        let data = &data[..length];
        rows.push((
            format!("{name} pigz"),
            container(data, ContainerFormat::Pigz),
        ));
        rows.push((
            format!("{name} bgzf"),
            container(data, ContainerFormat::Bgzf),
        ));
    }
    for (name, data) in corpora() {
        let window = &data[100_000..100_000 + 32 * 1024];
        rows.push((
            format!("{name} window"),
            fingerprint(&CompressedWindow::from_window(window).payload),
        ));
    }
    rows
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1 MiB at every level: run with --release")]
fn one_mebibyte_table_matches_the_parent() {
    let pinned = [
        (753763, 0xd3ec80ec), // silesia Huffman 16 KiB blocks
        (756637, 0x964b1cd1), // silesia Huffman 128 KiB blocks
        (338178, 0x5877c3e9), // silesia Fast 16 KiB blocks
        (335492, 0x6c816352), // silesia Fast 128 KiB blocks
        (301548, 0xca6b4ef8), // silesia Default 16 KiB blocks
        (298442, 0x9a9aa46a), // silesia Default 128 KiB blocks
        (300937, 0x4f7533f4), // silesia Best 16 KiB blocks
        (297795, 0x58893d72), // silesia Best 128 KiB blocks
        (793075, 0xd6f85fb3), // base64 Huffman 16 KiB blocks
        (791947, 0xcf28e27e), // base64 Huffman 128 KiB blocks
        (814244, 0x4a6569d6), // base64 Fast 16 KiB blocks
        (813594, 0x9b0e8362), // base64 Fast 128 KiB blocks
        (814226, 0xe2ccef09), // base64 Default 16 KiB blocks
        (813571, 0xa6b5f98c), // base64 Default 128 KiB blocks
        (814226, 0xe2ccef09), // base64 Best 16 KiB blocks
        (813571, 0xa6b5f98c), // base64 Best 128 KiB blocks
        (625454, 0x2a1a9bcf), // fastq Huffman 16 KiB blocks
        (624449, 0x4f294ee1), // fastq Huffman 128 KiB blocks
        (588037, 0xd8f156c7), // fastq Fast 16 KiB blocks
        (586482, 0xdfb2d6e5), // fastq Fast 128 KiB blocks
        (560887, 0x7b0916e3), // fastq Default 16 KiB blocks
        (559240, 0x259a8bbb), // fastq Default 128 KiB blocks
        (555682, 0xc4743bdd), // fastq Best 16 KiB blocks
        (554071, 0x7b2da528), // fastq Best 128 KiB blocks
        (305353, 0x510dd7fb), // silesia pigz
        (314014, 0xaa36dd03), // silesia bgzf
        (813160, 0x91906a1e), // base64 pigz
        (813072, 0x0f6a7580), // base64 bgzf
        (561738, 0xfc7f8b5c), // fastq pigz
        (564429, 0x11a68c62), // fastq bgzf
        (9844, 0xb68e3b75),   // silesia window
        (25319, 0xd0b8e366),  // base64 window
        (17791, 0x22c97073),  // fastq window
    ];
    assert_pinned(&table(1 << 20), &pinned);
}

#[test]
fn prefix_table_matches_the_parent() {
    let pinned = [
        (93266, 0x050c6aae),  // silesia Huffman 16 KiB blocks
        (93794, 0x30c8e081),  // silesia Huffman 128 KiB blocks
        (37813, 0xb1795960),  // silesia Fast 16 KiB blocks
        (37556, 0xaf0b12da),  // silesia Fast 128 KiB blocks
        (33571, 0x5ca19d72),  // silesia Default 16 KiB blocks
        (33392, 0x571344cd),  // silesia Default 128 KiB blocks
        (33491, 0x565d5c5a),  // silesia Best 16 KiB blocks
        (33311, 0xa8d9a5ba),  // silesia Best 128 KiB blocks
        (99145, 0x05902462),  // base64 Huffman 16 KiB blocks
        (98996, 0xa4befc3a),  // base64 Huffman 128 KiB blocks
        (101591, 0x194118c8), // base64 Fast 16 KiB blocks
        (101654, 0x48da07da), // base64 Fast 128 KiB blocks
        (101589, 0x7388a47c), // base64 Default 16 KiB blocks
        (101651, 0x48cff243), // base64 Default 128 KiB blocks
        (101589, 0x7388a47c), // base64 Best 16 KiB blocks
        (101651, 0x48cff243), // base64 Best 128 KiB blocks
        (78022, 0x828eecc6),  // fastq Huffman 16 KiB blocks
        (77888, 0xf2ffe7ca),  // fastq Huffman 128 KiB blocks
        (73834, 0xde44e813),  // fastq Fast 16 KiB blocks
        (73791, 0x6661e91f),  // fastq Fast 128 KiB blocks
        (70530, 0x1a28ee22),  // fastq Default 16 KiB blocks
        (70611, 0xb6b0e677),  // fastq Default 128 KiB blocks
        (69993, 0x732be42c),  // fastq Best 16 KiB blocks
        (70131, 0x6fac036b),  // fastq Best 128 KiB blocks
        (33410, 0x5adfd9de),  // silesia pigz
        (35525, 0xb2881f7e),  // silesia bgzf
        (101669, 0x535fbc8e), // base64 pigz
        (101713, 0x4cf1e03e), // base64 bgzf
        (70629, 0x4ee77d2d),  // fastq pigz
        (71016, 0x7b455292),  // fastq bgzf
        (9844, 0xb68e3b75),   // silesia window
        (25319, 0xd0b8e366),  // base64 window
        (17791, 0x22c97073),  // fastq window
    ];
    assert_pinned(&table(128 << 10), &pinned);
}

/// Where block splitting, block-type selection and stream continuation have
/// their corners: blocks of a few KiB, forced dynamic blocks on data that
/// would be stored, inputs too short to hash, and two non-final calls into
/// one writer (the second must not see the first call's matches).
#[test]
fn edge_cases_match_the_parent() {
    let [(_, silesia), (_, base64), (_, fastq)] = corpora();
    let mut rows = Vec::new();
    for (name, data) in [("silesia", silesia), ("fastq", fastq)] {
        for level in LEVELS {
            rows.push((
                format!("{name} {level:?} 4 KiB blocks"),
                deflate(&data[..64 << 10], level, 4 << 10, false),
            ));
        }
    }
    for (name, data) in [("silesia", silesia), ("base64", base64), ("fastq", fastq)] {
        rows.push((
            format!("{name} Default force_dynamic"),
            deflate(&data[..64 << 10], CompressionLevel::Default, 16 << 10, true),
        ));
    }
    let noise: Vec<u8> = (0..40_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    rows.push((
        "noise Fast force_dynamic".into(),
        deflate(&noise, CompressionLevel::Fast, 16 << 10, true),
    ));
    rows.push((
        "noise Default (stored)".into(),
        deflate(&noise, CompressionLevel::Default, 16 << 10, false),
    ));
    rows.push((
        "silesia Stored".into(),
        deflate(
            &silesia[..100_000],
            CompressionLevel::Stored,
            16 << 10,
            false,
        ),
    ));
    for level in LEVELS {
        rows.push((format!("empty {level:?}"), deflate(&[], level, 4096, false)));
        rows.push((
            format!("one byte {level:?}"),
            deflate(b"x", level, 4096, false),
        ));
    }
    rows.push((
        "two bytes Default".into(),
        deflate(b"xy", CompressionLevel::Default, 4096, false),
    ));
    rows.push((
        "one byte Default force_dynamic".into(),
        deflate(b"x", CompressionLevel::Default, 4096, true),
    ));
    // An input that ends exactly on a block boundary closes with an empty
    // stored block.
    rows.push((
        "fastq Fast exact multiple of the block size".into(),
        deflate(&fastq[..8192], CompressionLevel::Fast, 1, false),
    ));
    // One token per block: every lazily deferred match starts the next block.
    rows.push((
        "silesia Default one token per block".into(),
        deflate(&silesia[..4096], CompressionLevel::Default, 1, false),
    ));
    let runs = b"abcabcabcabd".repeat(5000);
    for level in LEVELS {
        rows.push((
            format!("runs {level:?}"),
            deflate(&runs, level, 16 << 10, false),
        ));
    }
    let zeros = vec![0u8; 100_000];
    rows.push((
        "zeros Best".into(),
        deflate(&zeros, CompressionLevel::Best, 32 << 10, false),
    ));

    for level in [CompressionLevel::Fast, CompressionLevel::Default] {
        let compressor = DeflateCompressor::new(CompressorOptions {
            level,
            block_size: 16 << 10,
            force_dynamic: false,
        });
        let mut writer = BitWriter::new();
        compressor.compress_into(&silesia[..40_000], &mut writer, false);
        compressor.compress_into(&silesia[20_000..70_000], &mut writer, false);
        compressor.compress_into(&silesia[..16 << 10], &mut writer, true);
        rows.push((
            format!("continued stream {level:?}"),
            fingerprint(&writer.finish()),
        ));
    }

    let pinned = [
        (46500, 0x2e7d29c6),  // silesia Huffman 4 KiB blocks
        (19376, 0x01f5d5c9),  // silesia Fast 4 KiB blocks
        (17717, 0xfff52aac),  // silesia Default 4 KiB blocks
        (17672, 0x4cbe145a),  // silesia Best 4 KiB blocks
        (39242, 0x54497853),  // fastq Huffman 4 KiB blocks
        (37173, 0x99d3534d),  // fastq Fast 4 KiB blocks
        (35573, 0xb07e0bd7),  // fastq Default 4 KiB blocks
        (35342, 0x5569e5d4),  // fastq Best 4 KiB blocks
        (17222, 0x4195ebf3),  // silesia Default force_dynamic
        (50686, 0xbb5e6cbf),  // base64 Default force_dynamic
        (35301, 0x97ec1404),  // fastq Default force_dynamic
        (3164, 0x21c495f6),   // noise Fast force_dynamic
        (1973, 0x653dbfca),   // noise Default (stored)
        (100010, 0x49f5b32f), // silesia Stored
        (5, 0x4564cc52),      // empty Huffman
        (3, 0x2a6c6b93),      // one byte Huffman
        (5, 0x4564cc52),      // empty Fast
        (3, 0x2a6c6b93),      // one byte Fast
        (5, 0x4564cc52),      // empty Default
        (3, 0x2a6c6b93),      // one byte Default
        (5, 0x4564cc52),      // empty Best
        (3, 0x2a6c6b93),      // one byte Best
        (4, 0x082988c4),      // two bytes Default
        (12, 0x7df29421),     // one byte Default force_dynamic
        (11622, 0x058be024),  // fastq Fast exact multiple of the block size
        (3334, 0x09ef314e),   // silesia Default one token per block
        (15682, 0x6e77b72f),  // runs Huffman
        (180, 0xf5863d42),    // runs Fast
        (180, 0xf5863d42),    // runs Default
        (180, 0xf5863d42),    // runs Best
        (143, 0x5158613c),    // zeros Best
        (30404, 0xe04ad005),  // continued stream Fast
        (28326, 0x36ce4847),  // continued stream Default
    ];
    assert_pinned(&rows, &pinned);
}
