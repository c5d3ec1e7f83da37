//! A cut's sparse window is all a decode from it needs: the bytes before each
//! windowed cut that the output after it references, and zeros elsewhere,
//! decode what the whole window decodes — on the three corpora, at two
//! levels and two block sizes, from the stream's start (where the first
//! cuts' windows are shorter than 32 KiB) and from a block in mid-stream
//! (where they reach before the decode's start); and a speculative decode,
//! the window unknown, cuts alike in its marker phase.

use proptest::prelude::*;
use rgz_bitio::BitReader;
use rgz_deflate::constants::WINDOW_SIZE;
use rgz_deflate::{
    inflate, inflate_speculative, inflate_with_cuts, CompressionLevel, CompressorOptions, Cut,
    Cutter, DeflateCompressor, SpeculativeOutput, WindowAnswer,
};

fn reader_at(compressed: &[u8], bit: u64) -> BitReader<'_> {
    let mut reader = BitReader::new(compressed);
    reader.seek_to_bit(bit).unwrap();
    reader
}

/// The window before `end` of `data`, up to 32 KiB, with every byte that
/// `usage` does not name zeroed.
fn sparse_window(data: &[u8], end: usize, usage: &[(u32, u32)]) -> Vec<u8> {
    let window = &data[end.saturating_sub(WINDOW_SIZE)..end];
    let base = WINDOW_SIZE - window.len();
    let mut sparse = vec![0u8; window.len()];
    for &(offset, length) in usage {
        let (start, end) = (offset as usize, (offset + length) as usize);
        assert!(
            start >= base,
            "usage {start} before a window of {}",
            window.len()
        );
        sparse[start - base..end - base].copy_from_slice(&window[start - base..end - base]);
    }
    sparse
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_decode_from_a_windowed_cut_needs_only_its_sparse_window(
        seed in 0u64..1_000_000,
        corpus in 0usize..3,
        level in 0usize..2,
        large_blocks in any::<bool>(),
        length in 1usize..400_000,
        spacings in (1usize..160, 1usize..64),
        start_block in 0usize..4,
    ) {
        let data = match corpus {
            0 => rgz_datagen::silesia_like(length, seed),
            1 => rgz_datagen::fastq_of_size(length, seed),
            _ => rgz_datagen::base64_random(length, seed),
        };
        let compressed = DeflateCompressor::new(CompressorOptions {
            level: [CompressionLevel::Fast, CompressionLevel::Default][level],
            block_size: if large_blocks { 128 * 1024 } else { 16 * 1024 },
            ..Default::default()
        })
        .compress(&data);
        let blocks = inflate(&mut BitReader::new(&compressed), &[], &mut Vec::new(), u64::MAX)
            .unwrap()
            .blocks;
        let start = blocks[start_block % blocks.len()];
        let split = start.uncompressed_offset as usize;
        let window = &data[split.saturating_sub(WINDOW_SIZE)..split];

        let (window_spacing, stop_spacing) = (spacings.0 * 1024, spacings.1 * 1024);
        let mut cutter = Cutter::new(window_spacing, stop_spacing);
        let mut out = Vec::new();
        let mut reader = reader_at(&compressed, start.bit_offset);
        inflate_with_cuts(&mut reader, window, &mut out, u64::MAX, &mut cutter).unwrap();
        prop_assert!(out[..] == data[split..]);
        let cuts = cutter.take_cuts();

        // The window unknown, its markers never resolved: cut alike.
        let mut cutter = Cutter::new(window_spacing, stop_spacing);
        let mut symbols = SpeculativeOutput::new();
        let mut reader = reader_at(&compressed, start.bit_offset);
        inflate_speculative(
            &mut reader,
            &mut symbols,
            u64::MAX,
            Vec::new,
            WindowAnswer::never,
            &mut cutter,
        )
        .unwrap();
        prop_assert_eq!(&cutter.take_cuts(), &cuts);

        for (index, cut) in cuts.iter().enumerate().filter(|(_, cut)| cut.windowed) {
            // To the first cut a window past it or further, the stretch a
            // sparse window has to serve.
            let reach = cut.offset + WINDOW_SIZE;
            let stop = cuts[index + 1..]
                .iter()
                .find(|later: &&Cut| later.offset >= reach)
                .map_or(u64::MAX, |later| later.bit_offset);
            let at = split + cut.offset;
            let sparse = sparse_window(&data, at, &cut.usage);
            let mut from_sparse = Vec::new();
            let mut reader = reader_at(&compressed, cut.bit_offset);
            inflate(&mut reader, &sparse, &mut from_sparse, stop).unwrap();
            let whole = &data[at.saturating_sub(WINDOW_SIZE)..at];
            let mut from_whole = Vec::new();
            let mut reader = reader_at(&compressed, cut.bit_offset);
            inflate(&mut reader, whole, &mut from_whole, stop).unwrap();
            prop_assert!(from_sparse == from_whole, "cut at {}", at);
            prop_assert!(from_whole[..] == data[at..at + from_whole.len()]);
        }
    }
}
