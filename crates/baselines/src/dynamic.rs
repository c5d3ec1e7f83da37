//! The Dynamic Block finders (§3.4.2) whose bandwidths Table 2 of the paper
//! sets beside rapidgzip's own ([`rgz_blockfinder::DynamicBlockFinder`]):
//!
//! * [`TrialInflateFinder`] — "DBF zlib": try to fully decode at each offset.
//! * [`CustomParseFinder`] — "DBF custom deflate": parse only the block
//!   header with early exits.
//! * [`SkipLutFinder`] — "DBF skip-LUT": a lookup table skips offsets whose
//!   first header bits cannot possibly start a Dynamic Block.
//! * [`PugzLikeFinder`] — the header checks plus pugz's probe decode.

use rgz_bitio::BitReader;
use rgz_blockfinder::{BlockFinder, DynamicBlockFinder};

/// "DBF zlib" variant: attempt a full (two-stage) decode at every offset and
/// accept the first offset where decoding succeeds. Slowest by far.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrialInflateFinder;

impl BlockFinder for TrialInflateFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        let total_bits = data.len() as u64 * 8;
        let mut offset = start_bit;
        while offset + 13 <= total_bits {
            let mut probe = BitReader::new(data);
            probe.seek_to_bit(offset).ok()?;
            // Only accept non-final Dynamic Blocks, as the real finder does.
            if probe.peek(3) == 0b100 {
                let mut out = Vec::new();
                let stop_after_first_block = offset + 1;
                if rgz_deflate::inflate_two_stage(&mut probe, &mut out, stop_after_first_block)
                    .map(|outcome| !outcome.blocks.is_empty())
                    .unwrap_or(false)
                {
                    return Some(offset);
                }
            }
            offset += 1;
        }
        None
    }
}

/// "DBF custom deflate" variant: parse the header with early exits but
/// without the skip LUT or the precode table.
#[derive(Debug, Default, Clone, Copy)]
pub struct CustomParseFinder;

impl BlockFinder for CustomParseFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        let finder = DynamicBlockFinder::new();
        let total_bits = data.len() as u64 * 8;
        (start_bit..(total_bits + 1).saturating_sub(13))
            .find(|&offset| finder.accepts(data, offset))
    }
}

/// "DBF skip-LUT" variant: like [`CustomParseFinder`] but with the 13-bit
/// skip table filtering positions before the expensive checks run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SkipLutFinder;

impl BlockFinder for SkipLutFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        DynamicBlockFinder::new().find_next_lut(data, start_bit)
    }
}

/// A pugz-style finder: header checks plus a probe decode that requires the
/// first literals to be printable ASCII (bytes 9–126), the restriction that
/// prevents pugz from handling arbitrary files.
#[derive(Debug, Clone, Copy)]
pub struct PugzLikeFinder {
    /// How many decoded literals to inspect.
    pub probe_symbols: usize,
}

impl Default for PugzLikeFinder {
    fn default() -> Self {
        Self { probe_symbols: 512 }
    }
}

impl PugzLikeFinder {
    /// Returns true if `byte` is in the range pugz accepts.
    pub fn is_allowed_byte(byte: u8) -> bool {
        (9..=126).contains(&byte)
    }
}

impl BlockFinder for PugzLikeFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        let finder = DynamicBlockFinder::new();
        let mut offset = start_bit;
        loop {
            let candidate = finder.find_next(data, offset)?;
            // Probe-decode a little data and check the ASCII restriction.
            let mut reader = BitReader::new(data);
            reader.seek_to_bit(candidate).ok()?;
            let mut symbols = Vec::new();
            let probe = rgz_deflate::inflate_two_stage(&mut reader, &mut symbols, candidate + 1);
            let acceptable = match probe {
                Ok(_) | Err(_) => symbols
                    .iter()
                    .take(self.probe_symbols)
                    .all(|&s| s >= 256 || Self::is_allowed_byte(s as u8)),
            };
            if acceptable && !symbols.is_empty() {
                return Some(candidate);
            }
            offset = candidate + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rgz_deflate::{CompressorOptions, DeflateCompressor};

    /// Compressed text and the bit offsets of its non-final Dynamic Blocks.
    fn compressed_with_blocks() -> (Vec<u8>, Vec<u64>) {
        let mut data = Vec::new();
        for i in 0..150_000u32 {
            data.extend_from_slice(
                format!("line {:05}: the quick brown fox\n", i % 2500).as_bytes(),
            );
        }
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

    #[test]
    fn all_variants_find_real_blocks() {
        let (compressed, offsets) = compressed_with_blocks();
        assert!(
            offsets.len() >= 3,
            "fixture must contain several dynamic blocks"
        );
        let target = offsets[1];
        let start = target.saturating_sub(40);

        let optimized = DynamicBlockFinder::new();
        let custom = CustomParseFinder;
        let skip = SkipLutFinder;

        for finder in [&optimized as &dyn BlockFinder, &custom, &skip] {
            let mut offset = start;
            let mut found = None;
            while let Some(candidate) = finder.find_next(&compressed, offset) {
                if candidate >= target {
                    found = Some(candidate);
                    break;
                }
                offset = candidate + 1;
            }
            assert_eq!(found, Some(target));
        }
    }

    #[test]
    fn optimized_and_custom_parse_agree_on_random_data() {
        let mut rng = StdRng::seed_from_u64(99);
        let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
        let optimized = DynamicBlockFinder::new();
        let custom = CustomParseFinder;
        let mut offset = 0u64;
        for _ in 0..20 {
            let a = optimized.find_next(&data, offset);
            let b = custom.find_next(&data, offset);
            assert_eq!(a, b);
            match a {
                Some(next) => offset = next + 1,
                None => break,
            }
        }
    }

    #[test]
    fn pugz_finder_only_accepts_ascii_content() {
        // ASCII corpus: the pugz-like finder must find block starts.
        let (compressed, offsets) = compressed_with_blocks();
        let pugz = PugzLikeFinder::default();
        let target = offsets[1];
        let mut offset = target.saturating_sub(40);
        let mut found = None;
        while let Some(candidate) = pugz.find_next(&compressed, offset) {
            if candidate >= target {
                found = Some(candidate);
                break;
            }
            offset = candidate + 1;
        }
        assert_eq!(found, Some(target));

        // Binary corpus: every literal byte is outside 9..=126 somewhere, so
        // probing rejects the real block starts.
        let mut rng = StdRng::seed_from_u64(7);
        let binary: Vec<u8> = (0..100_000).map(|_| rng.gen_range(128..=255u8)).collect();
        let compressed_binary = DeflateCompressor::new(CompressorOptions {
            block_size: 16 * 1024,
            force_dynamic: true,
            ..Default::default()
        })
        .compress(&binary);
        let mut reader = BitReader::new(&compressed_binary);
        let mut out = Vec::new();
        let outcome = rgz_deflate::inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        let real_offset = outcome.blocks[1].bit_offset;
        // The optimised finder accepts the block; the pugz-like finder must
        // not accept this exact offset.
        let optimized_hit = {
            let mut offset = real_offset;
            DynamicBlockFinder::new()
                .find_next(&compressed_binary, offset)
                .inspect(|&o| {
                    offset = o;
                })
        };
        assert_eq!(optimized_hit, Some(real_offset));
        let pugz_hit = PugzLikeFinder::default().find_next(&compressed_binary, real_offset);
        assert_ne!(pugz_hit, Some(real_offset));
    }

    #[test]
    fn is_allowed_byte_matches_pugz_range() {
        assert!(PugzLikeFinder::is_allowed_byte(b'\t'));
        assert!(PugzLikeFinder::is_allowed_byte(b'a'));
        assert!(PugzLikeFinder::is_allowed_byte(126));
        assert!(!PugzLikeFinder::is_allowed_byte(8));
        assert!(!PugzLikeFinder::is_allowed_byte(127));
        assert!(!PugzLikeFinder::is_allowed_byte(200));
    }
}
