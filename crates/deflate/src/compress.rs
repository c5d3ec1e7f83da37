//! A DEFLATE compressor.
//!
//! The paper's evaluation decompresses files produced by `gzip`, `pigz`,
//! `bgzip` and `igzip` at various levels; since this reproduction builds
//! everything from scratch, the corpora are produced by this compressor.  It
//! supports the knobs those tools differ in: match strategy (none / greedy /
//! lazy), DEFLATE block size, and block-type selection (stored / fixed /
//! dynamic, whichever is smallest), which is what Table 3 varies.

use std::cell::RefCell;
use std::sync::OnceLock;

use rgz_bitio::BitWriter;
use rgz_huffman::{compute_code_lengths, Code, HuffmanEncoder};

use crate::constants::*;
use crate::matchfinder::{HtMatchFinder, TokenBlock};

/// Match-finding effort, roughly corresponding to gzip levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionLevel {
    /// Emit Non-Compressed Blocks only (like `bgzip -l 0`).
    Stored,
    /// Huffman coding only, no LZ77 matches (like `igzip -0`).
    Huffman,
    /// Greedy matching with short hash chains (like `gzip -1`).
    Fast,
    /// Lazy matching with medium chains (like `gzip -6`).
    Default,
    /// Lazy matching with long chains (like `gzip -9`).
    Best,
}

impl CompressionLevel {
    /// Maps a numeric gzip-style level (0..=9) onto the nearest strategy.
    pub fn from_numeric(level: u8) -> Self {
        match level {
            0 => CompressionLevel::Stored,
            1..=3 => CompressionLevel::Fast,
            4..=8 => CompressionLevel::Default,
            _ => CompressionLevel::Best,
        }
    }

    pub(crate) fn max_chain(self) -> usize {
        match self {
            CompressionLevel::Stored | CompressionLevel::Huffman => 0,
            CompressionLevel::Fast => 8,
            CompressionLevel::Default => 128,
            CompressionLevel::Best => 1024,
        }
    }

    pub(crate) fn lazy(self) -> bool {
        matches!(self, CompressionLevel::Default | CompressionLevel::Best)
    }
}

/// Options controlling a [`DeflateCompressor`].
#[derive(Debug, Clone)]
pub struct CompressorOptions {
    /// Match strategy / effort.
    pub level: CompressionLevel,
    /// Approximate number of input bytes per DEFLATE block.  The paper notes
    /// (§4.8) that the average Dynamic Block size is chosen by the compressor
    /// and strongly influences how well rapidgzip can parallelize.
    pub block_size: usize,
    /// If true, forbid block-type selection from falling back to stored or
    /// fixed blocks (useful to emulate tools that always emit dynamic blocks).
    pub force_dynamic: bool,
}

impl Default for CompressorOptions {
    fn default() -> Self {
        Self {
            level: CompressionLevel::Default,
            block_size: 128 * 1024,
            force_dynamic: false,
        }
    }
}

/// A DEFLATE stream compressor.
#[derive(Debug, Clone)]
pub struct DeflateCompressor {
    options: CompressorOptions,
}

/// What a compression needs besides its input and output: the match finder's
/// tables (256 KiB) and one block's tokens and symbol counts.
struct Scratch {
    finder: HtMatchFinder,
    block: TokenBlock,
}

thread_local! {
    /// One scratch per thread, created by the thread's first compression and
    /// reused by every later one, whichever compressor it belongs to: a pool
    /// worker compressing chunk after chunk, or a reader thread compressing
    /// a 32 KiB window per chunk, allocates and fills its tables once.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        finder: HtMatchFinder::new(CompressionLevel::Default),
        block: TokenBlock::default(),
    });
}

impl DeflateCompressor {
    /// Creates a compressor with the given options.
    pub fn new(options: CompressorOptions) -> Self {
        assert!(options.block_size > 0, "block_size must be non-zero");
        Self { options }
    }

    /// Compresses `data` into a complete raw DEFLATE stream.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut writer = BitWriter::with_capacity(data.len() / 2 + 64);
        self.compress_into(data, &mut writer, true);
        writer.finish()
    }

    /// Appends the compressed form of `data` to `writer`.  If `finalize` is
    /// true the last emitted block carries the final-block flag; otherwise the
    /// stream can be continued with further calls (the caller is responsible
    /// for eventually finishing the stream).  Every call is an independent
    /// stream as far as matches go: none reaches into an earlier call's data.
    pub fn compress_into(&self, data: &[u8], writer: &mut BitWriter, finalize: bool) {
        if data.is_empty() {
            if finalize {
                write_stored_block(writer, &[], true);
            }
            return;
        }
        if self.options.level == CompressionLevel::Stored {
            self.compress_stored(data, writer, finalize);
            return;
        }

        SCRATCH.with(|scratch| {
            let Scratch { finder, block } = &mut *scratch.borrow_mut();
            finder.reconfigure(self.options.level);
            // Tokenize and emit a block at a time.  Matches may reference
            // data across block boundaries, exactly as real compressors
            // behave.
            let mut tokenizer = finder.start(data);
            loop {
                let range = tokenizer.next_block(self.options.block_size, block);
                // Only the input's ragged end can be the final block: after
                // a block that filled up, an empty stored block terminates
                // the stream.
                let filled = range.len() >= self.options.block_size;
                let at_end = range.end == data.len();
                self.emit_block(&data[range], block, writer, finalize && !filled);
                if at_end {
                    if filled && finalize {
                        write_stored_block(writer, &[], true);
                    }
                    break;
                }
            }
        });
    }

    fn compress_stored(&self, data: &[u8], writer: &mut BitWriter, finalize: bool) {
        let mut chunks = data.chunks(MAX_STORED_BLOCK_SIZE).peekable();
        while let Some(chunk) = chunks.next() {
            let is_last = chunks.peek().is_none();
            write_stored_block(writer, chunk, is_last && finalize);
        }
    }

    /// Emits one block, choosing the cheapest representation among stored,
    /// fixed and dynamic (unless `force_dynamic` is set).
    fn emit_block(&self, raw: &[u8], block: &TokenBlock, writer: &mut BitWriter, is_final: bool) {
        let literal_frequencies = block.literal_frequencies();
        let distance_frequencies = block.distance_frequencies();
        let dynamic = DynamicBlockPlan::build(literal_frequencies, distance_frequencies);

        if !self.options.force_dynamic {
            let (fixed_literal, fixed_distance) = fixed_encoders();
            let extra_bits = extra_bits_cost(literal_frequencies, distance_frequencies);
            let fixed_cost = 3
                + symbol_cost(literal_frequencies, fixed_literal.codes())
                + symbol_cost(distance_frequencies, fixed_distance.codes())
                + extra_bits;
            let stored_cost = stored_cost_bits(raw.len());
            let dynamic_cost = 3
                + dynamic.header_cost_bits()
                + symbol_cost(literal_frequencies, dynamic.literal_encoder.codes())
                + symbol_cost(distance_frequencies, dynamic.distance_encoder.codes())
                + extra_bits;
            if stored_cost < dynamic_cost && stored_cost < fixed_cost && !raw.is_empty() {
                self.compress_stored(raw, writer, is_final);
                return;
            }
            if fixed_cost <= dynamic_cost {
                write_block_header(writer, is_final, 0b01);
                write_tokens(writer, block, fixed_literal, fixed_distance);
                return;
            }
        }

        write_block_header(writer, is_final, 0b10);
        dynamic.write_header(writer);
        write_tokens(
            writer,
            block,
            &dynamic.literal_encoder,
            &dynamic.distance_encoder,
        );
    }
}

/// The encoders of the fixed Huffman codes (BTYPE = 01), built once.
fn fixed_encoders() -> &'static (HuffmanEncoder, HuffmanEncoder) {
    static ENCODERS: OnceLock<(HuffmanEncoder, HuffmanEncoder)> = OnceLock::new();
    ENCODERS.get_or_init(|| {
        let build = |lengths: &[u8]| {
            HuffmanEncoder::from_code_lengths(lengths).expect("the fixed codes are valid")
        };
        (
            build(&fixed_literal_lengths()),
            build(&fixed_distance_lengths()),
        )
    })
}

fn write_block_header(writer: &mut BitWriter, is_final: bool, block_type: u64) {
    writer.write_bits(is_final as u64 | block_type << 1, 3);
}

/// Writes a complete Non-Compressed Block (used for empty sync blocks too).
pub fn write_stored_block(writer: &mut BitWriter, data: &[u8], is_final: bool) {
    assert!(data.len() <= MAX_STORED_BLOCK_SIZE);
    write_block_header(writer, is_final, 0b00);
    writer.align_to_byte();
    writer.write_bits(data.len() as u64, 16);
    writer.write_bits(!(data.len() as u64) & 0xFFFF, 16);
    writer.write_bytes(data);
}

/// Writes a block's tokens and its end-of-block symbol: one write per token,
/// a match's two codes and their extra bits merged (at most 15 + 5 + 15 + 13
/// bits).
fn write_tokens(
    writer: &mut BitWriter,
    block: &TokenBlock,
    literal_encoder: &HuffmanEncoder,
    distance_encoder: &HuffmanEncoder,
) {
    let literal_codes: &[Code; LITERAL_ALPHABET_SIZE] = literal_encoder
        .codes()
        .try_into()
        .expect("a literal/length encoder covers the whole alphabet");
    let distance_codes = distance_encoder.codes();
    for &token in block.packed() {
        let distance = token.distance();
        if distance == 0 {
            let code = literal_codes[token.literal() as usize];
            debug_assert!(code.length > 0);
            writer.write_bits(code.bits as u64, code.length as u32);
            continue;
        }
        let (length_symbol, length_extra_bits, length_extra) = length_to_code(token.length());
        let distance_index = token.distance_code();
        let length_code = literal_codes[length_symbol as usize];
        let distance_code = distance_codes[distance_index];
        debug_assert!(length_code.length > 0 && distance_code.length > 0);

        let mut bits = length_code.bits as u64;
        let mut count = length_code.length as u32;
        bits |= (length_extra as u64) << count;
        count += length_extra_bits as u32;
        bits |= (distance_code.bits as u64) << count;
        count += distance_code.length as u32;
        bits |= ((distance - DISTANCE_BASE[distance_index] as usize) as u64) << count;
        count += DISTANCE_EXTRA_BITS[distance_index] as u32;
        writer.write_bits(bits, count);
    }
    let end_of_block = literal_codes[END_OF_BLOCK as usize];
    writer.write_bits(end_of_block.bits as u64, end_of_block.length as u32);
}

fn stored_cost_bits(length: usize) -> u64 {
    let blocks = length.div_ceil(MAX_STORED_BLOCK_SIZE).max(1) as u64;
    blocks * (3 + 7 + 32) + length as u64 * 8
}

fn symbol_cost(frequencies: &[u32], codes: &[Code]) -> u64 {
    frequencies
        .iter()
        .zip(codes)
        .map(|(&frequency, code)| frequency as u64 * code.length as u64)
        .sum()
}

fn extra_bits_cost(
    literal_frequencies: &[u32; LITERAL_ALPHABET_SIZE],
    distance_frequencies: &[u32; 30],
) -> u64 {
    let length_bits = literal_frequencies[257..]
        .iter()
        .zip(&LENGTH_EXTRA_BITS)
        .map(|(&frequency, &bits)| frequency as u64 * bits as u64);
    let distance_bits = distance_frequencies
        .iter()
        .zip(&DISTANCE_EXTRA_BITS)
        .map(|(&frequency, &bits)| frequency as u64 * bits as u64);
    length_bits.chain(distance_bits).sum()
}

/// Everything needed to emit a Dynamic Block: its header and the encoders of
/// the two codes the header describes.
struct DynamicBlockPlan {
    literal_encoder: HuffmanEncoder,
    distance_encoder: HuffmanEncoder,
    precode_lengths: Vec<u8>,
    /// Run-length encoded code-length sequence: (precode symbol, extra bit
    /// count, extra value).
    rle: Vec<(u16, u8, u16)>,
    literal_count: usize,
    distance_count: usize,
    precode_count: usize,
}

impl DynamicBlockPlan {
    fn build(
        literal_frequencies: &[u32; LITERAL_ALPHABET_SIZE],
        distance_frequencies: &[u32; 30],
    ) -> Self {
        let code_lengths = |frequencies: &[u32], limit: u32| {
            compute_code_lengths(frequencies, limit).expect("the alphabet fits the length limit")
        };
        let literal_lengths = code_lengths(literal_frequencies, rgz_huffman::MAX_CODE_LENGTH);
        let mut distance_lengths = code_lengths(distance_frequencies, rgz_huffman::MAX_CODE_LENGTH);

        // DEFLATE requires at least 257 literal codes and 1 distance code to
        // be transmitted; unused alphabets get a single dummy length-1 code.
        if distance_lengths.iter().all(|&l| l == 0) {
            distance_lengths[0] = 1;
        }
        let literal_count = literal_lengths
            .iter()
            .rposition(|&l| l > 0)
            .map(|p| p + 1)
            .unwrap_or(0)
            .max(257);
        let distance_count = distance_lengths
            .iter()
            .rposition(|&l| l > 0)
            .map(|p| p + 1)
            .unwrap_or(0)
            .max(1);

        // Run-length encode the concatenated code-length sequence.
        let mut sequence = Vec::with_capacity(literal_count + distance_count);
        sequence.extend_from_slice(&literal_lengths[..literal_count]);
        sequence.extend_from_slice(&distance_lengths[..distance_count]);
        let rle = run_length_encode(&sequence);

        // Build the precode from the RLE symbol frequencies.
        let mut precode_frequencies = [0u32; PRECODE_ALPHABET_SIZE];
        for &(symbol, _, _) in &rle {
            precode_frequencies[symbol as usize] += 1;
        }
        let precode_lengths = code_lengths(&precode_frequencies, rgz_huffman::MAX_PRECODE_LENGTH);
        let precode_count = PRECODE_ORDER
            .iter()
            .rposition(|&position| precode_lengths[position] > 0)
            .map(|p| p + 1)
            .unwrap_or(0)
            .max(4);

        let encoder = |lengths: &[u8]| {
            HuffmanEncoder::from_code_lengths(lengths).expect("package-merge lengths are a code")
        };
        Self {
            literal_encoder: encoder(&literal_lengths),
            distance_encoder: encoder(&distance_lengths),
            precode_lengths,
            rle,
            literal_count,
            distance_count,
            precode_count,
        }
    }

    fn header_cost_bits(&self) -> u64 {
        let mut bits = 5 + 5 + 4 + 3 * self.precode_count as u64;
        for &(symbol, extra_bits, _) in &self.rle {
            bits += self.precode_lengths[symbol as usize] as u64 + extra_bits as u64;
        }
        bits
    }

    fn write_header(&self, writer: &mut BitWriter) {
        writer.write_bits((self.literal_count - 257) as u64, 5);
        writer.write_bits((self.distance_count - 1) as u64, 5);
        writer.write_bits((self.precode_count - 4) as u64, 4);
        for &position in PRECODE_ORDER.iter().take(self.precode_count) {
            writer.write_bits(self.precode_lengths[position] as u64, 3);
        }
        let precode_encoder = HuffmanEncoder::from_code_lengths(&self.precode_lengths)
            .expect("package-merge lengths are a code");
        for &(symbol, extra_bits, extra) in &self.rle {
            let code = precode_encoder.codes()[symbol as usize];
            writer.write_bits(
                code.bits as u64 | (extra as u64) << code.length,
                code.length as u32 + extra_bits as u32,
            );
        }
    }
}

/// Run-length encodes a code-length sequence into precode symbols.
fn run_length_encode(sequence: &[u8]) -> Vec<(u16, u8, u16)> {
    let mut encoded = Vec::new();
    let mut i = 0usize;
    while i < sequence.len() {
        let value = sequence[i];
        let mut run = 1usize;
        while i + run < sequence.len() && sequence[i + run] == value {
            run += 1;
        }
        if value == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let take = remaining.min(138);
                encoded.push((18, 7, (take - 11) as u16));
                remaining -= take;
            }
            if remaining >= 3 {
                encoded.push((17, 3, (remaining - 3) as u16));
                remaining = 0;
            }
            for _ in 0..remaining {
                encoded.push((0, 0, 0));
            }
        } else {
            encoded.push((value as u16, 0, 0));
            let mut remaining = run - 1;
            while remaining >= 3 {
                let take = remaining.min(6);
                encoded.push((16, 2, (take - 3) as u16));
                remaining -= take;
            }
            for _ in 0..remaining {
                encoded.push((value as u16, 0, 0));
            }
        }
        i += run;
    }
    encoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::{inflate, BlockBoundary};
    use crate::BlockType;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rgz_bitio::BitReader;

    fn round_trip_with(options: CompressorOptions, data: &[u8]) -> (Vec<u8>, Vec<BlockBoundary>) {
        let compressed = DeflateCompressor::new(options).compress(data);
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert!(outcome.stream_ended());
        (out, outcome.blocks)
    }

    #[test]
    fn run_length_encode_round_trips_structurally() {
        let sequence = [0u8, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 7, 0, 0, 1];
        let encoded = run_length_encode(&sequence);
        // Expand again following the DEFLATE rules.
        let mut expanded: Vec<u8> = Vec::new();
        for (symbol, _, extra) in encoded {
            match symbol {
                0..=15 => expanded.push(symbol as u8),
                16 => {
                    let previous = *expanded.last().unwrap();
                    expanded.extend(std::iter::repeat_n(previous, 3 + extra as usize));
                }
                17 => expanded.extend(std::iter::repeat_n(0, 3 + extra as usize)),
                18 => expanded.extend(std::iter::repeat_n(0, 11 + extra as usize)),
                _ => unreachable!(),
            }
        }
        assert_eq!(expanded, sequence);
    }

    #[test]
    fn long_zero_runs_use_symbol_18() {
        let sequence = vec![0u8; 200];
        let encoded = run_length_encode(&sequence);
        assert!(encoded.len() <= 3);
        assert!(encoded
            .iter()
            .all(|&(s, _, _)| s == 18 || s == 17 || s == 0));
    }

    #[test]
    fn compresses_and_restores_text() {
        let data =
            b"How much wood would a woodchuck chuck if a woodchuck could chuck wood?".repeat(100);
        for level in [
            CompressionLevel::Huffman,
            CompressionLevel::Fast,
            CompressionLevel::Default,
            CompressionLevel::Best,
        ] {
            let options = CompressorOptions {
                level,
                ..Default::default()
            };
            let (restored, _) = round_trip_with(options, &data);
            assert_eq!(restored, data, "level {level:?}");
        }
    }

    #[test]
    fn matching_levels_actually_compress() {
        let data = b"abcdefgh".repeat(10_000);
        let fast = DeflateCompressor::new(CompressorOptions {
            level: CompressionLevel::Fast,
            ..Default::default()
        })
        .compress(&data);
        let huffman_only = DeflateCompressor::new(CompressorOptions {
            level: CompressionLevel::Huffman,
            ..Default::default()
        })
        .compress(&data);
        assert!(fast.len() < data.len() / 10);
        assert!(fast.len() < huffman_only.len());
    }

    #[test]
    fn block_size_controls_block_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u8> = (0..300_000).map(|_| rng.gen_range(b'a'..=b'z')).collect();
        let small = round_trip_with(
            CompressorOptions {
                block_size: 16 * 1024,
                ..Default::default()
            },
            &data,
        );
        let large = round_trip_with(
            CompressorOptions {
                block_size: 1024 * 1024,
                ..Default::default()
            },
            &data,
        );
        assert_eq!(small.0, data);
        assert_eq!(large.0, data);
        assert!(small.1.len() > large.1.len());
        assert!(small.1.len() >= 300_000 / (16 * 1024));
    }

    #[test]
    fn incompressible_data_falls_back_to_stored_blocks() {
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let (restored, blocks) = round_trip_with(CompressorOptions::default(), &data);
        assert_eq!(restored, data);
        assert!(
            blocks.iter().any(|b| b.block_type == BlockType::Stored),
            "random data should be emitted as Non-Compressed Blocks"
        );
    }

    #[test]
    fn force_dynamic_emits_only_dynamic_blocks() {
        let mut rng = StdRng::seed_from_u64(43);
        let data: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let options = CompressorOptions {
            force_dynamic: true,
            ..Default::default()
        };
        let (restored, blocks) = round_trip_with(options, &data);
        assert_eq!(restored, data);
        assert!(blocks.iter().all(|b| b.block_type == BlockType::Dynamic));
    }

    #[test]
    fn empty_input_is_a_single_final_block() {
        let (restored, blocks) = round_trip_with(CompressorOptions::default(), b"");
        assert!(restored.is_empty());
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].is_final);
    }

    #[test]
    fn streams_can_be_continued_across_calls() {
        let compressor = DeflateCompressor::new(CompressorOptions::default());
        let mut writer = BitWriter::new();
        compressor.compress_into(b"first part, ", &mut writer, false);
        compressor.compress_into(b"second part", &mut writer, true);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        let mut out = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert!(outcome.stream_ended());
        assert_eq!(out, b"first part, second part");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn round_trip_arbitrary_data(
            data in proptest::collection::vec(any::<u8>(), 0..20_000),
            level in prop_oneof![
                Just(CompressionLevel::Stored),
                Just(CompressionLevel::Huffman),
                Just(CompressionLevel::Fast),
                Just(CompressionLevel::Default),
            ],
            block_size in prop_oneof![Just(4usize * 1024), Just(64 * 1024)],
        ) {
            let options = CompressorOptions { level, block_size, force_dynamic: false };
            let compressed = DeflateCompressor::new(options).compress(&data);
            let mut reader = BitReader::new(&compressed);
            let mut out = Vec::new();
            let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
            prop_assert!(outcome.stream_ended());
            prop_assert_eq!(out, data);
        }

        #[test]
        fn round_trip_repetitive_data(
            seed in any::<u64>(),
            length in 1000usize..60_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let phrase_count = rng.gen_range(2..10usize);
            let phrases: Vec<Vec<u8>> = (0..phrase_count)
                .map(|_| (0..rng.gen_range(3..30)).map(|_| rng.gen_range(b'a'..=b'z')).collect())
                .collect();
            let mut data = Vec::with_capacity(length);
            while data.len() < length {
                data.extend_from_slice(&phrases[rng.gen_range(0..phrase_count)]);
            }
            let compressed = DeflateCompressor::new(CompressorOptions::default()).compress(&data);
            prop_assert!(compressed.len() < data.len());
            let mut reader = BitReader::new(&compressed);
            let mut out = Vec::new();
            inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
            prop_assert_eq!(out, data);
        }
    }
}
