//! Finder for Non-Compressed (stored) DEFLATE blocks (§3.4.1).
//!
//! A stored block header ends with a byte-aligned pair of 16-bit length and
//! one's-complement length fields.  The finder scans byte positions, checks
//! the LEN/NLEN pair, and additionally requires the final-block bit, the two
//! block-type bits and the alignment padding (all of which sit in the high
//! bits of the preceding byte) to be zero, which reduces the false-positive
//! rate from once per 64 KiB to roughly once per 512 KiB of random data.

use crate::BlockFinder;

/// Finder for Non-Compressed Blocks.
#[derive(Debug, Default, Clone, Copy)]
pub struct UncompressedBlockFinder;

impl UncompressedBlockFinder {
    /// Creates a finder.
    pub fn new() -> Self {
        Self
    }

    /// Scans for the next candidate and returns the bit offset of the
    /// final-block bit (assuming zero-length padding; stored-block offsets
    /// are inherently ambiguous, see the paper).
    pub fn find_next_offset(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        self.find_next_before(data, start_bit, u64::MAX)
    }

    /// The next candidate in `start_bit..until_bit`.
    pub(crate) fn find_next_before(
        &self,
        data: &[u8],
        start_bit: u64,
        until_bit: u64,
    ) -> Option<u64> {
        // The candidate header occupies the high 3 bits of byte `b` — its
        // final-block bit is bit `8b + 5` — and the LEN/NLEN pair bytes
        // `b + 1 .. b + 5`: `b` runs over the bytes with that bit in range
        // and four more behind them.
        let bytes_before = |bit: u64| (bit.saturating_add(2) / 8) as usize;
        let first = bytes_before(start_bit);
        let end = bytes_before(until_bit).min(data.len().saturating_sub(4));
        let mut headers = data.get(first..end + 4)?.windows(5);
        // Final-block bit, both block-type bits and the padding must be 0,
        // and NLEN the complement of LEN: tested without a branch between
        // them, one byte in eight passing the first.
        let found = headers.position(|header| {
            (header[0] < 32) & (header[1] ^ header[3] == 0xFF) & (header[2] ^ header[4] == 0xFF)
        })?;
        Some((first + found) as u64 * 8 + 5)
    }
}

impl BlockFinder for UncompressedBlockFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        self.find_next_offset(data, start_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rgz_bitio::{BitReader, BitWriter};
    use rgz_deflate::write_stored_block;

    #[test]
    fn finds_a_stored_block_after_garbage() {
        let mut writer = BitWriter::new();
        // Some non-zero leading bits that cannot be misread as a candidate.
        writer.write_bits(0xFFFF_FFFF, 32);
        writer.write_bits(0b111, 3);
        write_stored_block(&mut writer, b"stored payload", false);
        writer.write_bits(0x5555, 16);
        let bytes = writer.finish();

        let finder = UncompressedBlockFinder::new();
        let offset = finder
            .find_next(&bytes, 0)
            .expect("must find the stored block");
        // Decoding from the found offset must yield the stored payload.
        let mut reader = BitReader::new(&bytes);
        reader.seek_to_bit(offset).unwrap();
        let mut out = Vec::new();
        let outcome = rgz_deflate::inflate(&mut reader, &[], &mut out, offset + 1);
        // Only one block is decoded (the next "block" is garbage), so allow
        // an error after the first block; the payload must still be there.
        match outcome {
            Ok(_) | Err(_) => assert!(out.starts_with(b"stored payload")),
        }
    }

    #[test]
    fn respects_the_start_offset() {
        let mut writer = BitWriter::new();
        write_stored_block(&mut writer, b"first", false);
        write_stored_block(&mut writer, b"second", false);
        let bytes = writer.finish();
        let finder = UncompressedBlockFinder::new();
        let first = finder.find_next(&bytes, 0).unwrap();
        let second = finder.find_next(&bytes, first + 1).unwrap();
        assert!(second > first);
        let mut reader = BitReader::new(&bytes);
        reader.seek_to_bit(second).unwrap();
        let mut out = Vec::new();
        let _ = rgz_deflate::inflate(&mut reader, &[], &mut out, second + 1);
        assert!(out.starts_with(b"second"));
    }

    #[test]
    fn the_hit_is_the_first_position_the_definition_admits() {
        // The smallest `8b + 5 >= start_bit` (and before the bound, if any)
        // with three zero bits on top of byte `b` and LEN == !NLEN behind it.
        let by_definition = |data: &[u8], start_bit: u64, until_bit: u64| {
            (0..data.len().saturating_sub(4))
                .filter(|&b| data[b] >> 5 == 0)
                .filter(|&b| data[b + 1] == !data[b + 3] && data[b + 2] == !data[b + 4])
                .map(|b| b as u64 * 8 + 5)
                .find(|&bit| bit >= start_bit && bit < until_bit)
        };
        let mut rng = StdRng::seed_from_u64(96);
        // Random bytes with candidates planted in them, and all zeros but
        // for a few: a candidate at every byte, then none for a while.
        let mut random: Vec<u8> = (0..40).map(|_| rng.gen()).collect();
        for at in [3usize, 9, 10, 35] {
            let (len, filler) = (rng.gen::<u16>().to_le_bytes(), rng.gen_range(0..32u8));
            random[at..at + 5].copy_from_slice(&[filler, len[0], len[1], !len[0], !len[1]]);
        }
        let mut zeros = [0u8; 24];
        zeros[1..3].fill(0xFF);
        zeros[3..5].fill(0x00);
        zeros[7] = 1;
        let finder = UncompressedBlockFinder::new();
        for data in [&random[..], &zeros[..], &zeros[..7], &[][..]] {
            let mut hits = 0;
            for start_bit in 0..96 {
                let expected = by_definition(data, start_bit, u64::MAX);
                assert_eq!(finder.find_next_offset(data, start_bit), expected);
                hits += usize::from(expected.is_some());
                for until_bit in [0, start_bit, start_bit + 7, start_bit + 40, 95] {
                    assert_eq!(
                        finder.find_next_before(data, start_bit, until_bit),
                        by_definition(data, start_bit, until_bit),
                        "{start_bit}..{until_bit} of {} bytes",
                        data.len()
                    );
                }
            }
            assert_eq!(
                hits > 0,
                !data.is_empty(),
                "{hits} hits in {} bytes",
                data.len()
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs_yield_nothing() {
        let finder = UncompressedBlockFinder::new();
        assert_eq!(finder.find_next(&[], 0), None);
        assert_eq!(finder.find_next(&[0u8; 4], 0), None);
    }

    #[test]
    fn false_positive_rate_on_random_data_is_about_once_per_512_kib() {
        // The paper reports (514 ± 23) KiB per false positive on random data
        // (§3.4.1). Verify we are within a factor of two of that.
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let data: Vec<u8> = (0..4 * 1024 * 1024).map(|_| rng.gen()).collect();
        let finder = UncompressedBlockFinder::new();
        let mut count = 0u64;
        let mut offset = 0u64;
        while let Some(found) = finder.find_next(&data, offset) {
            count += 1;
            offset = found + 1;
        }
        let kib_per_false_positive = (data.len() as f64 / 1024.0) / count.max(1) as f64;
        assert!(
            (256.0..=1024.0).contains(&kib_per_false_positive),
            "false positive spacing {kib_per_false_positive} KiB is out of range"
        );
    }
}
