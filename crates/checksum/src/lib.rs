//! Checksums required by the gzip and zlib container formats.
//!
//! Both are implemented from scratch: CRC-32 (IEEE, reflected polynomial
//! `0xEDB88320`) with a runtime-dispatched carryless-multiply folding kernel
//! on x86-64 (`pclmulqdq`, see [`crc32_active_isa`]) over a portable
//! slicing-by-16 reference so that checksum computation does not dominate
//! single-threaded decompression, and Adler-32 for zlib streams.

mod adler32;
mod crc32;

pub use adler32::Adler32;
pub use crc32::{active_isa as crc32_active_isa, Crc32};

/// Convenience helper: CRC-32 of a whole buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// [`crc32`] through the scalar slicing-by-16 reference path, ignoring any
/// available hardware folding kernel.  The differential tests (and the
/// benchmark harness) compare [`crc32`] against this.
pub fn crc32_scalar(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update_scalar(data);
    crc.finalize()
}

/// Convenience helper: Adler-32 of a whole buffer.
pub fn adler32(data: &[u8]) -> u32 {
    let mut adler = Adler32::new();
    adler.update(data);
    adler.finalize()
}

/// Combines two CRC-32 values computed over consecutive buffers, as if the
/// buffers had been hashed in one pass.  `crc_b` is the CRC of the second
/// buffer and `len_b` its length in bytes.
///
/// The first CRC is multiplied by x^(8 * len_b) modulo the CRC polynomial —
/// a product of precomputed x^(2^k) terms, one 32-step shift-and-add each, as
/// zlib's `crc32_combine` does since 1.2.12: about a microsecond whatever the
/// length.  This lets the parallel decompressor verify whole-stream checksums
/// even though chunks are hashed independently on worker threads, and cut a
/// chunk's hashes at every interior seek point for nothing.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc32::combine(crc_a, crc_b, len_b)
}

/// CRC-32 of every fragment of `data` delimited by `fragment_ends` (sorted
/// end offsets, one per split point).  The returned vector always has
/// `fragment_ends.len() + 1` entries — the last one hashes the (possibly
/// empty) tail after the final split.
///
/// This is the slicing step behind per-member chunk verification: the
/// parallel decompressor splits every chunk's output at gzip member
/// boundaries, hashes each piece independently, and later folds the pieces
/// with [`crc32_combine`] or compares them against an index's stored
/// fragments.
pub fn crc32_fragments(data: &[u8], fragment_ends: &[usize]) -> Vec<u32> {
    debug_assert!(fragment_ends.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(fragment_ends.iter().all(|&end| end <= data.len()));
    let mut crcs = Vec::with_capacity(fragment_ends.len() + 1);
    let mut start = 0usize;
    for &end in fragment_ends {
        crcs.push(crc32(&data[start..end]));
        start = end;
    }
    crcs.push(crc32(&data[start..]));
    crcs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6CAB0B);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
        assert_eq!(adler32(b"123456789"), 0x091E01DE);
    }

    #[test]
    fn crc32_incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut crc = Crc32::new();
        for chunk in data.chunks(13) {
            crc.update(chunk);
        }
        assert_eq!(crc.finalize(), crc32(&data));
    }

    #[test]
    fn crc32_combine_matches_concatenation() {
        let a: Vec<u8> = (0..777u32).map(|i| (i ^ 0x5A) as u8).collect();
        let b: Vec<u8> = (0..1234u32).map(|i| (i.wrapping_mul(31)) as u8).collect();
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        let combined = crc32_combine(crc32(&a), crc32(&b), b.len() as u64);
        assert_eq!(combined, crc32(&whole));
    }

    #[test]
    fn crc32_fragments_cover_the_buffer_and_fold_back_to_the_whole() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(13) >> 3) as u8)
            .collect();
        let ends = [0usize, 1200, 1200, 4999];
        let crcs = crc32_fragments(&data, &ends);
        assert_eq!(crcs.len(), ends.len() + 1);
        assert_eq!(crcs[0], crc32(b""));
        assert_eq!(crcs[1], crc32(&data[..1200]));
        assert_eq!(crcs[2], crc32(b""));
        // Folding the fragments in order reproduces the one-shot hash.
        let mut starts = vec![0];
        starts.extend_from_slice(&ends);
        let mut folded = 0u32;
        for (crc, length) in crcs.iter().zip(
            starts
                .iter()
                .zip(ends.iter().chain(std::iter::once(&data.len())))
                .map(|(&s, &e)| (e - s) as u64),
        ) {
            folded = crc32_combine(folded, *crc, length);
        }
        assert_eq!(folded, crc32(&data));
        // No split points: one fragment hashing the whole buffer.
        assert_eq!(crc32_fragments(&data, &[]), vec![crc32(&data)]);
    }

    #[test]
    fn crc32_combine_with_empty_parts() {
        let a = b"hello world".as_slice();
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
        assert_eq!(
            crc32_combine(crc32(b""), crc32(a), a.len() as u64),
            crc32(a)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            // The hardware folding kernel must be bit-for-bit identical to
            // the scalar slicing-by-16 reference on arbitrary inputs, for
            // one-shot hashing and for arbitrary incremental split points
            // (which exercise resumed states and sub-lane tails).  On
            // machines without pclmulqdq this degenerates to scalar ==
            // scalar and still runs, keeping the harness portable.
            #[test]
            fn simd_and_scalar_crc32_agree(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                split_one in 0usize..4097,
                split_two in 0usize..4097,
            ) {
                prop_assert_eq!(crc32(&data), crc32_scalar(&data));

                let first = split_one % (data.len() + 1);
                let second = split_two % (data.len() + 1);
                let (low, high) = (first.min(second), first.max(second));
                let mut incremental = Crc32::new();
                incremental.update(&data[..low]);
                incremental.update(&data[low..high]);
                incremental.update(&data[high..]);
                prop_assert_eq!(incremental.finalize(), crc32_scalar(&data));
                prop_assert_eq!(incremental.length(), data.len() as u64);
            }
            // The GF(2) construction behind `crc32_combine` makes the fold
            // associative: for any 3-way split a|b|c of a buffer, combining
            // left-to-right, right-to-left, or hashing the whole buffer in
            // one pass must agree.  This is what lets the parallel reader
            // fold per-chunk fragment CRCs in stream order regardless of
            // where chunk boundaries fall.
            #[test]
            fn crc32_combine_is_associative_over_arbitrary_3way_splits(
                data in proptest::collection::vec(any::<u8>(), 0..6000),
                cut_one in 0usize..6001,
                cut_two in 0usize..6001,
            ) {
                let first = cut_one % (data.len() + 1);
                let second = cut_two % (data.len() + 1);
                let (low, high) = (first.min(second), first.max(second));
                let (a, b, c) = (&data[..low], &data[low..high], &data[high..]);

                let ab = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                let left = crc32_combine(ab, crc32(c), c.len() as u64);

                let bc = crc32_combine(crc32(b), crc32(c), c.len() as u64);
                let right = crc32_combine(crc32(a), bc, (b.len() + c.len()) as u64);

                let whole = crc32(&data);
                prop_assert_eq!(left, whole);
                prop_assert_eq!(right, whole);
            }

            // Splitting at every chunk boundary of a random partition and
            // folding sequentially (the verifier's access pattern) matches
            // the one-shot hash.
            #[test]
            fn sequential_fold_of_random_partitions_matches_one_shot(
                data in proptest::collection::vec(any::<u8>(), 1..4000),
                chunk in 1usize..512,
            ) {
                let mut folded = 0u32;
                for piece in data.chunks(chunk) {
                    folded = crc32_combine(folded, crc32(piece), piece.len() as u64);
                }
                prop_assert_eq!(folded, crc32(&data));
            }
        }
    }
}
