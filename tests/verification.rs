//! Corruption-injection and differential tests for the checksum
//! verification pipeline.
//!
//! The contract under test: with verification on (the default), a
//! single-bit flip anywhere in a compressed archive — member header, DEFLATE
//! payload, or trailer — must surface as an error (a decode error or a
//! [`CoreError::ChecksumMismatch`] naming the offending member), never as
//! silently wrong output.  With verification off the reader reproduces the
//! historical behaviour and the serial decoder byte-for-byte.

use proptest::prelude::*;
use rapidgzip_suite::checksum::crc32;
use rapidgzip_suite::core::{
    CoreError, ParallelGzipReader, ParallelGzipReaderOptions, VerificationMode,
};
use rapidgzip_suite::datagen;
use rapidgzip_suite::gzip::{
    decompress_with_info, CompressorFrontend, FrontendKind, GzipDecoder, GzipWriter, MemberInfo,
};

fn options(verification: VerificationMode) -> ParallelGzipReaderOptions {
    ParallelGzipReaderOptions {
        parallelization: 4,
        chunk_size: 32 * 1024,
        verification,
        ..Default::default()
    }
}

fn decompress_parallel(
    compressed: &[u8],
    verification: VerificationMode,
) -> Result<Vec<u8>, CoreError> {
    let mut reader =
        ParallelGzipReader::from_bytes(compressed.to_vec(), options(verification)).unwrap();
    reader.decompress_all()
}

/// The three corpora of the corruption sweep: a multi-member concatenation,
/// a BGZF-style file of many small members, and one single large member.
fn corpora() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let part_a = datagen::base64_random(300_000, 101);
    let part_b = datagen::silesia_like(350_000, 102);
    let part_c = datagen::fastq_of_size(250_000, 103);
    let mut concatenated = part_a.clone();
    concatenated.extend_from_slice(&part_b);
    concatenated.extend_from_slice(&part_c);
    let multi_member = GzipWriter::default().compress_members(&[&part_a, &part_b, &part_c]);

    let bgzf_data = datagen::fastq_of_size(700_000, 104);
    let bgzf = CompressorFrontend::new(FrontendKind::Bgzf, 6).compress(&bgzf_data);

    let single_data = datagen::silesia_like(800_000, 105);
    let single = GzipWriter::default().compress(&single_data);

    vec![
        ("multi-member", multi_member, concatenated),
        ("bgzf", bgzf, bgzf_data),
        ("single-member", single, single_data),
    ]
}

/// Byte offsets to corrupt in `compressed`: one in a member header (a magic
/// byte, so the flip cannot be a no-op like MTIME), one in the middle of a
/// member's DEFLATE payload, and one in a member's trailer CRC.
fn injection_sites(members: &[MemberInfo]) -> Vec<(&'static str, usize)> {
    let member = &members[members.len() / 2];
    let header_byte = member.compressed_start as usize;
    let payload_middle = (member.compressed_start as usize + member.compressed_end as usize) / 2;
    let trailer_crc_byte = member.compressed_end as usize - 7;
    vec![
        ("header", header_byte),
        ("mid-member", payload_middle),
        ("trailer", trailer_crc_byte),
    ]
}

#[test]
fn single_bit_corruption_is_always_detected() {
    for (corpus, pristine, data) in corpora() {
        // Sanity: the pristine file verifies and round-trips.
        let restored = decompress_parallel(&pristine, VerificationMode::Full)
            .unwrap_or_else(|e| panic!("pristine {corpus} failed: {e}"));
        assert_eq!(restored, data, "pristine {corpus} corrupted");

        let (_, members) = decompress_with_info(&pristine).unwrap();
        for (site, byte) in injection_sites(&members) {
            for bit in [0u8, 5] {
                let mut corrupted = pristine.clone();
                corrupted[byte] ^= 1 << bit;
                let result = decompress_parallel(&corrupted, VerificationMode::Full);
                assert!(
                    result.is_err(),
                    "{corpus}/{site}: flipping bit {bit} of byte {byte} went undetected"
                );
            }
        }
    }
}

/// The corruption matrix re-run at the DEFLATE layer through the multi-symbol
/// fast path: for every corpus and injection site, the fast decoder and the
/// single-symbol reference decoder must stay bit-for-bit identical on the
/// corrupted member — same bytes and stream position when the flip decodes
/// (detection then falls to the checksum layer, asserted above), the same
/// error otherwise.  Note `single_bit_corruption_is_always_detected` already
/// drives the fast path end to end, since the gzip decoder's `inflate` is it.
#[test]
fn corruption_matrix_fast_and_reference_decoders_agree() {
    use rapidgzip_suite::bitio::BitReader;
    use rapidgzip_suite::deflate::{inflate, inflate_single_symbol};
    use rapidgzip_suite::gzip::parse_header;

    for (corpus, pristine, _) in corpora() {
        let (_, members) = decompress_with_info(&pristine).unwrap();
        for (site, byte) in injection_sites(&members) {
            for bit in [0u8, 5] {
                let mut corrupted = pristine.clone();
                corrupted[byte] ^= 1 << bit;
                // Only the member containing the flip can decode differently.
                let member = members
                    .iter()
                    .find(|m| {
                        (m.compressed_start as usize..m.compressed_end as usize).contains(&byte)
                    })
                    .expect("injection sites lie within a member");
                let mut reader = BitReader::new(&corrupted);
                reader.seek_to_bit(member.compressed_start * 8).unwrap();
                if parse_header(&mut reader).is_err() {
                    // A header flip can make the member unparseable; there is
                    // no DEFLATE stream left to compare.
                    continue;
                }
                let deflate_start = reader.position();
                let mut fast_reader = reader.clone();
                let mut fast_out = Vec::new();
                let fast = inflate(&mut fast_reader, &[], &mut fast_out, u64::MAX);
                let mut reference_reader = BitReader::new(&corrupted);
                reference_reader.seek_to_bit(deflate_start).unwrap();
                let mut reference_out = Vec::new();
                let reference =
                    inflate_single_symbol(&mut reference_reader, &[], &mut reference_out, u64::MAX);
                let context = format!("{corpus}/{site}: bit {bit} of byte {byte}");
                match (fast, reference) {
                    (Ok(fast), Ok(reference)) => {
                        assert_eq!(fast_out, reference_out, "{context}: outputs diverge");
                        assert_eq!(
                            fast.end_position, reference.end_position,
                            "{context}: stream positions diverge"
                        );
                    }
                    (fast, reference) => {
                        assert_eq!(fast.err(), reference.err(), "{context}: errors diverge")
                    }
                }
            }
        }
    }
}

#[test]
fn trailer_crc_corruption_names_the_offending_member() {
    for (corpus, pristine, _) in corpora() {
        let (_, members) = decompress_with_info(&pristine).unwrap();
        let target = members.len() / 2;
        let mut corrupted = pristine.clone();
        // Trailer layout: 4 CRC bytes then 4 ISIZE bytes; flip one CRC bit.
        corrupted[members[target].compressed_end as usize - 6] ^= 0x20;
        match decompress_parallel(&corrupted, VerificationMode::Full) {
            Err(CoreError::ChecksumMismatch { member, .. }) => assert_eq!(
                member, target as u64,
                "{corpus}: mismatch attributed to the wrong member"
            ),
            other => panic!("{corpus}: expected a checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn wrong_isize_is_detected_by_the_parallel_reader() {
    // Regression: ISIZE used to be parsed but never checked by the parallel
    // reader.  Corrupt only the ISIZE field so the CRC still matches.
    let data = datagen::base64_random(500_000, 106);
    let mut compressed = GzipWriter::default().compress(&data);
    let length = compressed.len();
    compressed[length - 2] ^= 0x01;
    match decompress_parallel(&compressed, VerificationMode::Full) {
        Err(CoreError::MemberSizeMismatch { member, actual, .. }) => {
            assert_eq!(member, 0);
            assert_eq!(actual, data.len() as u64);
        }
        other => panic!("expected an ISIZE mismatch, got {other:?}"),
    }
    // With verification off the data still comes back.
    assert_eq!(
        decompress_parallel(&compressed, VerificationMode::Off).unwrap(),
        data
    );
}

#[test]
fn verification_statistics_expose_the_stream_crc() {
    let data = datagen::fastq_of_size(600_000, 107);
    let compressed = CompressorFrontend::new(FrontendKind::Bgzf, 6).compress(&data);
    let mut reader =
        ParallelGzipReader::from_bytes(compressed, options(VerificationMode::Full)).unwrap();
    assert_eq!(reader.decompress_all().unwrap(), data);
    let statistics = reader.verification_statistics();
    assert!(statistics.members_verified > 1, "{statistics:?}");
    assert_eq!(statistics.bytes_verified, data.len() as u64);
    assert_eq!(statistics.chunks_pending, 0);
    assert_eq!(statistics.stream_crc32, crc32(&data));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn differential_verified_unverified_and_serial_agree(
        seed in any::<u64>(),
        corpus_kind in 0u8..3,
        frontend_kind in 0u8..4,
        size in 150_000usize..400_000,
    ) {
        let data = match corpus_kind {
            0 => datagen::base64_random(size, seed),
            1 => datagen::silesia_like(size, seed),
            _ => datagen::fastq_of_size(size, seed),
        };
        let frontend = CompressorFrontend::new(FrontendKind::all()[frontend_kind as usize], 6);
        let compressed = frontend.compress(&data);

        let serial = GzipDecoder::new().decompress(&compressed).unwrap();
        let verified = decompress_parallel(&compressed, VerificationMode::Full).unwrap();
        let unverified = decompress_parallel(&compressed, VerificationMode::Off).unwrap();
        prop_assert_eq!(&serial, &data);
        prop_assert_eq!(&verified, &data);
        prop_assert_eq!(&unverified, &data);

        // The folded stream CRC must equal a whole-buffer CRC of the output.
        let mut reader = ParallelGzipReader::from_bytes(
            compressed,
            options(VerificationMode::Full),
        ).unwrap();
        reader.decompress_all().unwrap();
        let statistics = reader.verification_statistics();
        prop_assert_eq!(statistics.stream_crc32, crc32(&data));
        prop_assert_eq!(statistics.bytes_verified, data.len() as u64);
        prop_assert!(statistics.members_verified >= 1);
    }
}
