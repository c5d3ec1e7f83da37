//! The finder for Dynamic Blocks (§3.4.2): SWAR masks over the first header
//! bits, the precode check as table lookups, then the staged Huffman validity
//! checks, with per-stage statistics for Table 1.  (The slower variants whose
//! bandwidths Table 2 sets beside it live in `rgz_baselines::dynamic`.)

use rgz_bitio::BitReader;
use rgz_huffman::{classify_code_lengths, CodeCompleteness};

use crate::BlockFinder;

/// Per-filter-stage rejection counters, mirroring Table 1 of the paper.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FilterStatistics {
    /// Bit positions tested.
    pub tested_positions: u64,
    /// Final-block bit was set.
    pub invalid_final_block: u64,
    /// Block type was not "dynamic".
    pub invalid_compression_type: u64,
    /// The literal/length code count field held 30 or 31.
    pub invalid_precode_size: u64,
    /// The precode histogram was over-subscribed.
    pub invalid_precode_code: u64,
    /// The precode histogram was incomplete (unused leaves).
    pub non_optimal_precode_code: u64,
    /// The precode-encoded code-length data was invalid.
    pub invalid_precode_encoded_data: u64,
    /// The distance code was over-subscribed.
    pub invalid_distance_code: u64,
    /// The distance code was incomplete.
    pub non_optimal_distance_code: u64,
    /// The literal code was over-subscribed.
    pub invalid_literal_code: u64,
    /// The literal code was incomplete.
    pub non_optimal_literal_code: u64,
    /// Offsets that passed every check.
    pub valid_headers: u64,
}

impl FilterStatistics {
    /// Table rows in the paper's order, as (label, count) pairs.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("Tested bit positions", self.tested_positions),
            ("Invalid final block", self.invalid_final_block),
            ("Invalid compression type", self.invalid_compression_type),
            ("Invalid Precode size", self.invalid_precode_size),
            ("Invalid Precode code", self.invalid_precode_code),
            ("Non-optimal Precode code", self.non_optimal_precode_code),
            (
                "Invalid Precode-encoded data",
                self.invalid_precode_encoded_data,
            ),
            ("Invalid distance code", self.invalid_distance_code),
            ("Non-optimal distance code", self.non_optimal_distance_code),
            ("Invalid literal code", self.invalid_literal_code),
            ("Non-optimal literal code", self.non_optimal_literal_code),
            ("Valid Deflate headers", self.valid_headers),
        ]
    }
}

/// Why a single offset was rejected (or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeaderCheck {
    InvalidFinalBlock,
    InvalidCompressionType,
    InvalidPrecodeSize,
    InvalidPrecodeCode,
    NonOptimalPrecodeCode,
    InvalidPrecodeData,
    InvalidDistanceCode,
    NonOptimalDistanceCode,
    InvalidLiteralCode,
    NonOptimalLiteralCode,
    Valid,
}

impl HeaderCheck {
    fn record(self, stats: &mut FilterStatistics) {
        match self {
            HeaderCheck::InvalidFinalBlock => stats.invalid_final_block += 1,
            HeaderCheck::InvalidCompressionType => stats.invalid_compression_type += 1,
            HeaderCheck::InvalidPrecodeSize => stats.invalid_precode_size += 1,
            HeaderCheck::InvalidPrecodeCode => stats.invalid_precode_code += 1,
            HeaderCheck::NonOptimalPrecodeCode => stats.non_optimal_precode_code += 1,
            HeaderCheck::InvalidPrecodeData => stats.invalid_precode_encoded_data += 1,
            HeaderCheck::InvalidDistanceCode => stats.invalid_distance_code += 1,
            HeaderCheck::NonOptimalDistanceCode => stats.non_optimal_distance_code += 1,
            HeaderCheck::InvalidLiteralCode => stats.invalid_literal_code += 1,
            HeaderCheck::NonOptimalLiteralCode => stats.non_optimal_literal_code += 1,
            HeaderCheck::Valid => stats.valid_headers += 1,
        }
    }
}

/// Classifies a candidate Dynamic Block header starting at `offset`,
/// performing the checks in the cheap-to-expensive order the paper lists.
fn check_dynamic_header(data: &[u8], offset: u64) -> HeaderCheck {
    let mut reader = BitReader::new(data);
    if reader.seek_to_bit(offset).is_err() {
        return HeaderCheck::InvalidFinalBlock;
    }
    // (1) final-block bit must be 0, (2) block type must be 0b10.
    let Ok(header) = reader.read(3) else {
        return HeaderCheck::InvalidFinalBlock;
    };
    if header & 1 != 0 {
        return HeaderCheck::InvalidFinalBlock;
    }
    if (header >> 1) != 0b10 {
        return HeaderCheck::InvalidCompressionType;
    }
    // (3) number of literal codes must not be 286 or 287.
    let Ok(hlit) = reader.read(5) else {
        return HeaderCheck::InvalidPrecodeSize;
    };
    if hlit >= 30 {
        return HeaderCheck::InvalidPrecodeSize;
    }
    let Ok(hdist) = reader.read(5) else {
        return HeaderCheck::InvalidPrecodeSize;
    };
    let Ok(hclen) = reader.read(4) else {
        return HeaderCheck::InvalidPrecodeSize;
    };

    // (4) the precode must be a valid and efficient Huffman code: its Kraft
    // sum and the number of its codes come out of a table, four 3-bit
    // lengths at a time — the bit-packed histogram of §3.4.2.
    let Ok(lengths) = reader.read(3 * (hclen as u32 + 4)) else {
        return HeaderCheck::InvalidPrecodeCode;
    };
    match precode_sums(lengths) {
        (_, 0) | (129.., _) => return HeaderCheck::InvalidPrecodeCode,
        (..=127, 2..) => return HeaderCheck::NonOptimalPrecodeCode,
        _ => {}
    }

    // (5) the precode-encoded code lengths must be structurally valid: the
    // decoder's own parse, from HCLEN again (work that only the roughly
    // 1-in-10^3 offsets that got this far pay twice).  Its precode is the
    // one accepted above, so what it fails on is the data — the end of the
    // buffer included.
    reader.seek_to_bit(offset + 13).ok();
    let (literal_count, distance_count) = (hlit as usize + 257, hdist as usize + 1);
    let Ok(lengths) =
        rgz_deflate::block::parse_code_lengths(&mut reader, literal_count, distance_count)
    else {
        return HeaderCheck::InvalidPrecodeData;
    };

    // (6) the distance code must be valid and efficient.
    let distance_lengths = lengths.distance_lengths();
    let distance_used = distance_lengths.iter().filter(|&&l| l > 0).count();
    match classify_code_lengths(distance_lengths) {
        CodeCompleteness::Oversubscribed => return HeaderCheck::InvalidDistanceCode,
        CodeCompleteness::Incomplete if distance_used > 1 => {
            return HeaderCheck::NonOptimalDistanceCode
        }
        _ => {}
    }
    // (7) the literal code must be valid and efficient.
    match classify_code_lengths(lengths.literal_lengths()) {
        CodeCompleteness::Oversubscribed => HeaderCheck::InvalidLiteralCode,
        CodeCompleteness::Incomplete | CodeCompleteness::Empty => {
            HeaderCheck::NonOptimalLiteralCode
        }
        CodeCompleteness::Complete => HeaderCheck::Valid,
    }
}

/// `Σ 128 >> length` of the non-zero among four 3-bit precode lengths in the
/// low half of an entry, and how many they are in the high half.
static PRECODE_LUT: [u32; 4096] = {
    let mut table = [0u32; 4096];
    let mut index = 0;
    while index < table.len() {
        let mut lengths = index;
        while lengths != 0 {
            if lengths & 0b111 != 0 {
                table[index] += (1 << 16) + (128 >> (lengths & 0b111));
            }
            lengths >>= 3;
        }
        index += 1;
    }
    table
};

/// The Kraft sum of a precode with these 3-bit `lengths` (up to nineteen, the
/// rest zero) in units of 1/128 — 128 is a complete code, more an
/// over-subscribed one — and the number of its codes.
#[inline]
fn precode_sums(lengths: u64) -> (u32, u32) {
    let sum: u32 = (0..5)
        .map(|four| PRECODE_LUT[(lengths >> (12 * four)) as usize & 0xFFF])
        .sum();
    (sum & 0xFFFF, sum >> 16)
}

/// [`check_dynamic_header`]'s precode stage (steps 3–4) for the bulk scan,
/// which has 11.7 % of all bit positions left after its header-bit masks: one
/// 16-byte load holds HCLEN and all the 3-bit precode lengths wherever in its
/// first byte the header starts (81 bits at most), and five lookups classify
/// them.  Accepts exactly the offsets whose precode the precise check accepts
/// — a complete code, or a single one; the precise check still owns the final
/// verdict.
#[inline]
fn precode_prefilter(data: &[u8], offset: u64) -> bool {
    let byte = (offset / 8) as usize;
    let bytes: [u8; 16] = data[byte..byte + 16].try_into().expect("sixteen bytes");
    let header = u128::from_le_bytes(bytes) >> (offset % 8);
    let precode_bits = 3 * ((header >> 13) as u32 & 0xF) + 12;
    let (kraft, codes) =
        precode_sums((header >> 17) as u64 & rgz_bitio::low_bit_mask(precode_bits));
    kraft == 128 || codes == 1
}

// --- skip LUT ---------------------------------------------------------------

/// Number of header bits the skip LUT inspects per position.  The first 13
/// bits of a Dynamic Block header (BFINAL + BTYPE + HLIT) are checked at up
/// to 6 consecutive positions per table lookup.
const SKIP_LUT_BITS: u32 = 18;

/// For each 13-bit window, the number of bit positions that can be skipped
/// because no position inside the window passes the first three checks
/// (final-block bit, block type, literal-code count).
fn build_skip_table() -> Vec<u8> {
    let window_positions = SKIP_LUT_BITS - 13 + 1; // header needs 13 bits: 3 + 5 + 5
    let mut table = vec![0u8; 1 << SKIP_LUT_BITS];
    for (window, entry) in table.iter_mut().enumerate() {
        let mut skip = window_positions as u8; // conservative default
        for position in 0..window_positions {
            let bits = (window as u32) >> position;
            let final_block = bits & 1;
            let block_type = (bits >> 1) & 0b11;
            let hlit = (bits >> 3) & 0b1_1111;
            if final_block == 0 && block_type == 0b10 && hlit < 30 {
                skip = position as u8;
                break;
            }
        }
        *entry = skip;
    }
    table
}

fn skip_table() -> &'static [u8] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
    TABLE.get_or_init(build_skip_table)
}

/// Name of the candidate-scan kernel [`DynamicBlockFinder::find_next`]
/// resolves to on this machine: `"swar64"` (bulk 64-position prefilter) or
/// `"lut"` (per-position skip-LUT walk, forced by `RGZ_FORCE_SCALAR`).
pub fn active_isa() -> &'static str {
    if rgz_bitio::scalar_forced() {
        "lut"
    } else {
        "swar64"
    }
}

/// The first bit no header that fits into `total_bits` can start at (its
/// first 13 bits must), or `until_bit` if that is less.
fn last_start(total_bits: u64, until_bit: u64) -> u64 {
    until_bit.min((total_bits + 1).saturating_sub(13))
}

/// The fully optimised Dynamic Block finder used by the parallel decompressor.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynamicBlockFinder;

impl DynamicBlockFinder {
    /// Creates a finder.
    pub fn new() -> Self {
        Self
    }

    /// Whether a Dynamic Block header that passes every check of Table 1
    /// starts at `bit_offset`: the verdict on one position that the scans
    /// below reach with fewer steps.
    pub fn accepts(&self, data: &[u8], bit_offset: u64) -> bool {
        check_dynamic_header(data, bit_offset) == HeaderCheck::Valid
    }

    /// The next candidate in `start_bit..until_bit`.
    pub(crate) fn find_next_before(
        &self,
        data: &[u8],
        start_bit: u64,
        until_bit: u64,
    ) -> Option<u64> {
        // The statistics path keeps the skip-LUT walk (it attributes every
        // skipped position exactly); the plain search takes the bulk
        // prefilter, which visits the same candidates in the same order.
        if rgz_bitio::scalar_forced() {
            self.find_next_internal(data, start_bit, until_bit, None)
        } else {
            self.find_next_swar(data, start_bit, until_bit)
        }
    }

    /// Bulk candidate prefilter: classifies 56 bit positions per 64-bit load
    /// with a handful of shifts/ANDs (SWAR), then runs the precode check and
    /// the precise header check only on surviving candidates.
    ///
    /// A position `i` survives iff the three cheap header checks pass — the
    /// same criterion the skip LUT encodes:
    ///
    /// * final-block bit clear — `!w`,
    /// * block type `0b10` (bits `i+1`, `i+2` = 0, 1) — `!(w >> 1) & (w >> 2)`,
    /// * HLIT < 30 — HLIT ≥ 30 iff its four high bits (`i+4..=i+7`) are all
    ///   set, so survivors need `!((w>>4) & (w>>5) & (w>>6) & (w>>7))`.
    ///
    /// On random data 11.7 % of positions survive (1/2 · 1/4 · 30/32 from the
    /// three masks) and go on to [`precode_prefilter`], which leaves one in
    /// two hundred of them to [`check_dynamic_header`]; everything else is 8
    /// bytes per ~9 ALU ops.  DEFLATE's LSB-first
    /// bit order makes a little-endian `u64` load line stream bit `8·byte + i`
    /// up with word bit `i`, which is what lets plain integer shifts stand in
    /// for per-position bit extraction.  Windows advance 7 bytes (56 bits), so
    /// each keeps the 8 lookahead bits that position 55's HLIT field needs.
    fn find_next_swar(&self, data: &[u8], start_bit: u64, until_bit: u64) -> Option<u64> {
        let until_bit = last_start(data.len() as u64 * 8, until_bit);
        if start_bit >= until_bit {
            return None;
        }
        let mut byte = (start_bit / 8) as usize;
        // A window's candidates start in its first seven bytes, and the
        // precode check of one loads sixteen bytes from there.
        while byte + 22 <= data.len() && (byte as u64) * 8 < until_bit {
            let window = u64::from_le_bytes(data[byte..byte + 8].try_into().unwrap());
            let base = byte as u64 * 8;
            let hlit_overflow = (window >> 4) & (window >> 5) & (window >> 6) & (window >> 7);
            let mut candidates =
                !window & !(window >> 1) & (window >> 2) & !hlit_overflow & 0x00FF_FFFF_FFFF_FFFF;
            if start_bit > base {
                // First window only: drop positions before the start bit.
                candidates &= u64::MAX << (start_bit - base);
            }
            while candidates != 0 {
                let offset = base + candidates.trailing_zeros() as u64;
                if offset >= until_bit {
                    return None;
                }
                if precode_prefilter(data, offset) && self.accepts(data, offset) {
                    return Some(offset);
                }
                candidates &= candidates - 1;
            }
            byte += 7;
        }
        // The buffer's last bytes: finish with the per-position walk.
        ((byte as u64 * 8).max(start_bit)..until_bit).find(|&offset| self.accepts(data, offset))
    }

    /// Finds the next candidate and updates per-stage statistics (used by the
    /// Table 1 harness).
    pub fn find_next_with_statistics(
        &self,
        data: &[u8],
        start_bit: u64,
        statistics: &mut FilterStatistics,
    ) -> Option<u64> {
        self.find_next_internal(data, start_bit, u64::MAX, Some(statistics))
    }

    /// The per-position skip-LUT walk the bulk scan is checked against, and
    /// Table 2's "DBF skip-LUT" row.
    pub fn find_next_lut(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        self.find_next_internal(data, start_bit, u64::MAX, None)
    }

    fn find_next_internal(
        &self,
        data: &[u8],
        start_bit: u64,
        until_bit: u64,
        mut statistics: Option<&mut FilterStatistics>,
    ) -> Option<u64> {
        let until_bit = last_start(data.len() as u64 * 8, until_bit);
        let table = skip_table();
        let mut reader = BitReader::new(data);
        let mut offset = start_bit;
        while offset < until_bit {
            reader.seek_to_bit(offset).ok()?;
            let window = reader.peek(SKIP_LUT_BITS) as usize;
            let skip = table[window];
            if skip > 0 {
                if let Some(stats) = statistics.as_deref_mut() {
                    // The LUT only skips positions failing the first three
                    // checks; attribute them for Table 1 bookkeeping.
                    for position in 0..(skip as u64).min(until_bit - offset) {
                        stats.tested_positions += 1;
                        let bits = (window as u64) >> position;
                        if bits & 1 != 0 {
                            stats.invalid_final_block += 1;
                        } else if (bits >> 1) & 0b11 != 0b10 {
                            stats.invalid_compression_type += 1;
                        } else {
                            stats.invalid_precode_size += 1;
                        }
                    }
                }
                offset += skip as u64;
                continue;
            }
            let check = check_dynamic_header(data, offset);
            if let Some(stats) = statistics.as_deref_mut() {
                stats.tested_positions += 1;
                check.record(stats);
            }
            if check == HeaderCheck::Valid {
                return Some(offset);
            }
            offset += 1;
        }
        None
    }
}

impl BlockFinder for DynamicBlockFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        self.find_next_before(data, start_bit, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rgz_deflate::{CompressorOptions, DeflateCompressor};

    fn text_corpus() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..150_000u32 {
            data.extend_from_slice(
                format!("line {:05}: the quick brown fox\n", i % 2500).as_bytes(),
            );
        }
        data
    }

    fn compressed_with_blocks() -> (Vec<u8>, Vec<u64>) {
        let data = text_corpus();
        let compressed = DeflateCompressor::new(CompressorOptions {
            block_size: 32 * 1024,
            ..Default::default()
        })
        .compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = rgz_deflate::inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        let offsets = outcome
            .blocks
            .iter()
            .filter(|b| b.block_type == rgz_deflate::BlockType::Dynamic && !b.is_final)
            .map(|b| b.bit_offset)
            .collect();
        (compressed, offsets)
    }

    /// `lengths` as the header holds them: three bits each, first lowest.
    fn pack(lengths: &[u8]) -> u64 {
        let packed = lengths.iter().rev();
        packed.fold(0, |bits, &length| bits << 3 | length as u64)
    }

    #[test]
    fn packed_histogram_matches_reference_classifier() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2000 {
            let count = rng.gen_range(1..=19usize);
            let lengths: Vec<u8> = (0..count).map(|_| rng.gen_range(0..=7u8)).collect();
            // The reference classifier uses a 15-bit Kraft sum; for lengths
            // <= 7 both must agree on over-subscribed vs complete vs
            // incomplete.
            let (kraft, codes) = precode_sums(pack(&lengths));
            let packed = match (kraft, codes) {
                (_, 0) => CodeCompleteness::Empty,
                (..=127, _) => CodeCompleteness::Incomplete,
                (128, _) => CodeCompleteness::Complete,
                _ => CodeCompleteness::Oversubscribed,
            };
            assert_eq!(
                classify_code_lengths(&lengths),
                packed,
                "lengths {lengths:?}"
            );
            assert_eq!(codes as usize, lengths.iter().filter(|&&l| l > 0).count());
        }
    }

    /// What the reference classifier makes of the precode of a header with
    /// these HCLEN and precode-length bits, read as step (4) of
    /// [`check_dynamic_header`] reads a verdict: complete, or a single code.
    fn precode_passes_the_precise_check(hclen: u64, lengths: u64) -> bool {
        let lengths: Vec<u8> = (0..hclen + 4)
            .map(|nth| (lengths >> (3 * nth)) as u8 & 0b111)
            .collect();
        match classify_code_lengths(&lengths) {
            CodeCompleteness::Complete => true,
            CodeCompleteness::Incomplete => lengths.iter().filter(|&&l| l > 0).count() == 1,
            CodeCompleteness::Oversubscribed | CodeCompleteness::Empty => false,
        }
    }

    /// Three bytes, then a header whose first 17 bits are `front` with HCLEN
    /// replaced, then the precode lengths, starting `shift` bits into a byte,
    /// then the rest of the sixteen bytes loaded for it.
    fn header_bytes(shift: u32, front: u64, hclen: u64, lengths: u64) -> Vec<u8> {
        let front = (front & 0x1FFF) | (hclen << 13);
        let header = (front as u128 | (lengths as u128) << 17) << shift;
        let mut bytes = vec![0xA5; 3];
        bytes.extend_from_slice(&(header | 0xFFFF_FFFF << 96).to_le_bytes());
        bytes
    }

    proptest::proptest! {
        // The table lookups against the reference classifier, wherever in
        // a byte the header starts.
        #[test]
        fn precode_lookups_match_the_reference_classifier(
            front in 0u64..1 << 13,
            hclen in 0u64..16,
            lengths in 0u64..1 << 57,
            shift in 0u32..8,
        ) {
            let data = header_bytes(shift, front, hclen, lengths);
            proptest::prop_assert_eq!(
                precode_prefilter(&data, 24 + shift as u64),
                precode_passes_the_precise_check(hclen, lengths)
            );
        }
    }

    #[test]
    fn every_precode_size_is_checked_alike_wherever_in_a_byte_the_header_starts() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut accepted = 0;
        for _ in 0..4000 {
            // Complete codes are one in two hundred: four codes of two bits
            // anywhere among the nineteen — complete where HCLEN takes in all
            // four — and a third of the draws with noise on top.
            let mut lengths = (0..4).fold(0u64, |lengths, _| {
                lengths | 0b010 << (3 * rng.gen_range(0..19u64))
            });
            if rng.gen_range(0..3u32) == 0 {
                lengths ^= rng.gen::<u64>() & rng.gen::<u64>() & rgz_bitio::low_bit_mask(57);
            }
            for hclen in 0..16u64 {
                for shift in 0..8u32 {
                    let data = header_bytes(shift, 0b100, hclen, lengths);
                    let expected = precode_passes_the_precise_check(hclen, lengths);
                    assert_eq!(
                        precode_prefilter(&data, 24 + shift as u64),
                        expected,
                        "HCLEN {hclen}, lengths {lengths:#x}, {shift} bits into a byte"
                    );
                    accepted += usize::from(expected);
                }
            }
        }
        assert!(accepted > 10_000, "{accepted}");
    }

    #[test]
    fn a_header_in_a_buffers_last_bytes_is_found_once_all_of_it_is_there() {
        // The bulk scan leaves the last bytes to the per-position walk: cut
        // anywhere in a real block's header or behind it, both walks agree.
        let finder = DynamicBlockFinder::new();
        let (compressed, offsets) = compressed_with_blocks();
        let block = offsets[2];
        let mut found = 0;
        for length in (block / 8) as usize..(block / 8) as usize + 160 {
            let data = &compressed[..length];
            let hit = finder.find_next_swar(data, block - 30, u64::MAX);
            assert_eq!(
                hit,
                finder.find_next_lut(data, block - 30),
                "{length} bytes"
            );
            found += usize::from(hit == Some(block));
        }
        assert!((40..150).contains(&found), "{found}");
    }

    /// All offsets a finder reports over the whole input, via repeated
    /// `find_next` calls through the given entry point.
    fn collect_all(
        data: &[u8],
        start: u64,
        mut next: impl FnMut(&[u8], u64) -> Option<u64>,
    ) -> Vec<u64> {
        let mut offsets = Vec::new();
        let mut cursor = start;
        while let Some(found) = next(data, cursor) {
            offsets.push(found);
            cursor = found + 1;
        }
        offsets
    }

    #[test]
    fn swar_active_isa_names_a_known_kernel() {
        assert!(["swar64", "lut"].contains(&active_isa()));
    }

    #[test]
    fn swar_and_lut_walks_agree_on_random_data_and_real_blocks() {
        let finder = DynamicBlockFinder::new();
        let mut rng = StdRng::seed_from_u64(42);
        let random: Vec<u8> = (0..128 * 1024).map(|_| rng.gen()).collect();
        let (compressed, offsets) = compressed_with_blocks();
        for corpus in [&random[..], &compressed[..]] {
            let swar = collect_all(corpus, 0, |d, s| finder.find_next_swar(d, s, u64::MAX));
            let lut = collect_all(corpus, 0, |d, s| finder.find_next_lut(d, s));
            assert_eq!(swar, lut);
        }
        // The real block offsets are among the SWAR results.
        let swar = collect_all(&compressed, 0, |d, s| finder.find_next_swar(d, s, u64::MAX));
        for target in offsets {
            assert!(swar.contains(&target), "missing real block at {target}");
        }
    }

    #[test]
    fn swar_handles_short_inputs_and_unaligned_starts() {
        let finder = DynamicBlockFinder::new();
        let mut rng = StdRng::seed_from_u64(77);
        for length in [0usize, 1, 2, 7, 8, 9, 15, 16, 40] {
            let data: Vec<u8> = (0..length).map(|_| rng.gen()).collect();
            for start in 0..(length as u64 * 8).min(70) {
                assert_eq!(
                    finder.find_next_swar(&data, start, u64::MAX),
                    finder.find_next_lut(&data, start),
                    "length {length} start {start}"
                );
            }
        }
    }

    proptest::proptest! {
        // Differential: the SWAR bulk prefilter and the skip-LUT walk must
        // report identical offsets from any start bit on arbitrary bytes —
        // including window-straddling headers and tails shorter than a load.
        #[test]
        fn swar_prefilter_matches_lut_walk(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            start in 0u64..2048 * 8 + 16,
        ) {
            let finder = DynamicBlockFinder::new();
            proptest::prop_assert_eq!(
                collect_all(&data, start, |d, s| finder.find_next_swar(d, s, u64::MAX)),
                collect_all(&data, start, |d, s| finder.find_next_lut(d, s))
            );
        }
    }

    #[test]
    fn a_bounded_search_reports_what_starts_before_its_bound_in_both_walks() {
        let finder = DynamicBlockFinder::new();
        let (compressed, offsets) = compressed_with_blocks();
        let (first, second) = (offsets[0], offsets[1]);
        for until in [first, first + 1, second, second + 1, u64::MAX] {
            let expected = [first, second].into_iter().find(|&block| block < until);
            let from = first.saturating_sub(100);
            assert_eq!(finder.find_next_swar(&compressed, from, until), expected);
            assert_eq!(
                finder.find_next_internal(&compressed, from, until, None),
                expected
            );
        }
    }

    #[test]
    fn statistics_are_consistent_and_dominated_by_cheap_filters() {
        let mut rng = StdRng::seed_from_u64(1234);
        let data: Vec<u8> = (0..256 * 1024).map(|_| rng.gen()).collect();
        let finder = DynamicBlockFinder::new();
        let mut statistics = FilterStatistics::default();
        let mut offset = 0u64;
        while let Some(found) = finder.find_next_with_statistics(&data, offset, &mut statistics) {
            offset = found + 1;
        }
        // Every tested position is classified by exactly one row below the first.
        let classified: u64 = statistics.rows()[1..].iter().map(|row| row.1).sum();
        assert_eq!(classified, statistics.tested_positions);
        // Table 1: roughly half of all positions fail the final-block check
        // and a further ~3/8 fail the compression-type check.
        let half = statistics.tested_positions / 2;
        assert!(statistics.invalid_final_block > half * 9 / 10);
        assert!(statistics.invalid_compression_type > statistics.tested_positions / 3);
        // Expensive checks only see a tiny fraction of positions.
        assert!(statistics.invalid_precode_encoded_data < statistics.tested_positions / 1000);
        assert!(statistics.rows().len() == 12);
    }

    /// Table 1 as a fingerprint: the rows over `table2_components`' random
    /// buffer, as recorded before the precode check became table lookups and
    /// the code-length parse the decoder's own.
    #[test]
    fn table_1_rows_over_8_mib_of_random_data_are_the_recorded_ones() {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<u8> = (0..8 << 20).map(|_| rng.gen()).collect();
        let finder = DynamicBlockFinder::new();
        let mut statistics = FilterStatistics::default();
        let mut offset = 0u64;
        while let Some(found) = finder.find_next_with_statistics(&data, offset, &mut statistics) {
            offset = found + 1;
        }
        let counts: Vec<u64> = statistics.rows().iter().map(|row| row.1).collect();
        assert_eq!(
            counts,
            [
                67_108_852, 33_553_435, 25_170_946, 523_741, 5_193_044, 2_631_932, 29_517, 185,
                4_665, 225, 1_162, 0
            ]
        );
    }

    #[test]
    fn false_positive_rate_on_random_data_is_small() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..512 * 1024).map(|_| rng.gen()).collect();
        let finder = DynamicBlockFinder::new();
        let mut count = 0u64;
        let mut offset = 0u64;
        while let Some(found) = finder.find_next(&data, offset) {
            count += 1;
            offset = found + 1;
        }
        // Table 1 reports ~200 valid headers per 10^12 positions; on 4 Mibit
        // essentially none should pass, but tolerate a handful.
        assert!(count < 20, "too many false positives: {count}");
    }
}
