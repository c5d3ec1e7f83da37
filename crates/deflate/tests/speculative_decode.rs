//! The speculative (hybrid) decoder against the one-stage decoder it must be
//! indistinguishable from: `inflate_speculative` + marker replacement with the
//! true window equals `inflate` with that window — same bytes, blocks, end
//! position and window usage — or both fail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgz_bitio::{BitReader, BitWriter};
use rgz_deflate::constants::{
    distance_to_code, fixed_distance_lengths, fixed_literal_lengths, length_to_code, END_OF_BLOCK,
    WINDOW_SIZE,
};
use rgz_deflate::{
    inflate, inflate_speculative, inflate_two_stage, write_stored_block, BlockType,
    CompressionLevel, CompressorOptions, DeflateCompressor, SpeculativeOutput, Token, MARKER_BASE,
};
use rgz_huffman::HuffmanEncoder;

/// What one comparison saw, so tests can assert the case they built
/// actually exercised what it was built for.
struct Agreement {
    /// Symbols the hybrid decoded as 16-bit / as bytes (0, 0 when both
    /// decoders failed).
    prefix_len: usize,
    tail_len: usize,
}

/// Decodes `stream` from `start_bit` both ways and asserts they agree.
fn assert_hybrid_matches_one_stage(
    stream: &[u8],
    start_bit: u64,
    stop_bit: u64,
    window: &[u8],
) -> Agreement {
    let reader_at = |bit| {
        let mut reader = BitReader::new(stream);
        reader.seek_to_bit(bit).map(|()| reader)
    };
    let Ok(mut reader) = reader_at(start_bit) else {
        // Truncated before the start block: nothing to compare.
        return Agreement {
            prefix_len: 0,
            tail_len: 0,
        };
    };
    let mut expected = Vec::new();
    let one_stage = inflate(&mut reader, window, &mut expected, stop_bit);

    // Twice: into buffers of its own, then into the first round's, recycled
    // as they came back — full of another decode's symbols and bytes, or
    // half-written when it failed.  Nothing of that may show.
    let (mut symbols, mut bytes, mut resolved_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    for _ in 0..2 {
        let mut reader = reader_at(start_bit).unwrap();
        symbols.clear();
        let mut output = SpeculativeOutput::from(std::mem::take(&mut symbols));
        let hybrid = inflate_speculative(&mut reader, &mut output, stop_bit, || {
            std::mem::take(&mut bytes)
        });
        let (prefix_len, tail_len) = (output.prefix().len(), output.tail().len());
        if hybrid.is_ok() {
            assert_eq!(prefix_len + tail_len, output.len());
        }
        let resolved = hybrid.and_then(|outcome| {
            output.resolve_into(window, &mut resolved_bytes)?;
            Ok((outcome, resolved_bytes.clone()))
        });
        // Next round's tail goes where this round's chunk went, and the
        // other way round.
        (symbols, bytes) = output.into_buffers();
        std::mem::swap(&mut bytes, &mut resolved_bytes);
        rounds.push((resolved, prefix_len, tail_len));
    }
    let (recycled, ..) = rounds.pop().unwrap();
    let (resolved, prefix_len, tail_len) = rounds.pop().unwrap();
    match (&resolved, &recycled) {
        (Ok((outcome, data)), Ok((recycled_outcome, recycled_data))) => {
            assert_eq!(data, recycled_data);
            assert_eq!(outcome.blocks, recycled_outcome.blocks);
            assert_eq!(outcome.end_position, recycled_outcome.end_position);
            assert_eq!(outcome.window_usage, recycled_outcome.window_usage);
        }
        (Err(error), Err(recycled_error)) => assert_eq!(error, recycled_error),
        _ => panic!("a decode into recycled buffers differs from one into fresh buffers"),
    }

    match (one_stage, resolved) {
        (Ok(one_stage), Ok((hybrid, resolved))) => {
            assert_eq!(resolved, expected);
            assert_eq!(hybrid.blocks, one_stage.blocks);
            assert_eq!(hybrid.stop_reason, one_stage.stop_reason);
            assert_eq!(hybrid.end_position, one_stage.end_position);
            assert_eq!(hybrid.window_usage, one_stage.window_usage);
            assert_eq!(hybrid.fast_fallback_blocks, one_stage.fast_fallback_blocks);
            Agreement {
                prefix_len,
                tail_len,
            }
        }
        (Err(_), Err(_)) => Agreement {
            prefix_len: 0,
            tail_len: 0,
        },
        (one_stage, hybrid) => panic!(
            "decoders disagree: one-stage {:?}, hybrid {:?}",
            one_stage.map(|outcome| outcome.end_position),
            hybrid.map(|(outcome, _)| outcome.end_position),
        ),
    }
}

/// Runs, random bytes and locally repeated phrases: redundancy that never
/// reaches far back, so markers die out and the decoder switches.  A quarter
/// of the seeds add far back-references, whose copies of copies keep markers
/// alive through every chunk.  Every block type appears.
fn mixed_corpus(seed: u64, length: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = if seed % 4 == 0 { 4 } else { 3 };
    let mut data = Vec::with_capacity(length + 4000);
    while data.len() < length {
        match rng.gen_range(0..kinds) {
            0 => data.extend(std::iter::repeat_n(rng.gen::<u8>(), rng.gen_range(1..400))),
            1 => data.extend((0..rng.gen_range(1..4000)).map(|_| rng.gen::<u8>())),
            3 if data.len() > 100 => {
                let back = rng.gen_range(1..data.len().min(WINDOW_SIZE));
                let from = data.len() - back;
                let take = rng.gen_range(3..60).min(back);
                data.extend_from_within(from..from + take);
            }
            _ => {
                let phrase: Vec<u8> = (0..rng.gen_range(4..60)).map(|_| rng.gen()).collect();
                for _ in 0..rng.gen_range(2..12) {
                    data.extend_from_slice(&phrase);
                }
            }
        }
    }
    data.truncate(length);
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hybrid_decode_equals_one_stage_or_both_fail(
        seed in any::<u64>(),
        length in 1usize..500_000,
        block_size in 4usize..48,
        level in 0usize..3,
        start_block in 0usize..64,
        stop_block in 0usize..64,
        // Half the cases decode the stream as compressed, a quarter each
        // with one bit flipped / cut short.
        corruption in 0usize..4,
        corrupt_at in 0usize..4_000_000,
    ) {
        let data = mixed_corpus(seed, length);
        let options = CompressorOptions {
            block_size: block_size * 1024,
            level: [CompressionLevel::Huffman, CompressionLevel::Fast, CompressionLevel::Best][level],
            ..Default::default()
        };
        let mut stream = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&stream);
        let mut full = Vec::new();
        let blocks = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap().blocks;
        prop_assert_eq!(&full, &data);

        let start = blocks[start_block % blocks.len()];
        // Past the last block means "decode to the end of the stream".
        let stop_bit = blocks
            .get(start_block % blocks.len() + 1 + stop_block)
            .map_or(u64::MAX, |block| block.bit_offset);
        let split = start.uncompressed_offset as usize;
        let window = &data[split.saturating_sub(WINDOW_SIZE)..split];

        match corruption {
            2 => {
                let bit = corrupt_at % (stream.len() * 8);
                stream[bit / 8] ^= 1 << (bit % 8);
            }
            3 => stream.truncate(corrupt_at % stream.len()),
            _ => {}
        }
        assert_hybrid_matches_one_stage(&stream, start.bit_offset, stop_bit, window);
    }
}

#[test]
fn hybrid_decode_switches_once_markers_die_out_and_never_when_they_do_not() {
    // Random bytes after a short marker-heavy head: markers die within the
    // first block or two, and nearly the whole chunk decodes as bytes.
    let mut data = b"header header header header ".repeat(2000);
    let mut rng = StdRng::seed_from_u64(5);
    data.extend((0..600_000).map(|_| b"ACGT"[rng.gen_range(0..4)]));
    let options = CompressorOptions {
        block_size: 16 * 1024,
        ..Default::default()
    };
    let stream = DeflateCompressor::new(options).compress(&data);
    let mut reader = BitReader::new(&stream);
    let blocks = inflate(&mut reader, &[], &mut Vec::new(), u64::MAX)
        .unwrap()
        .blocks;
    let start = blocks
        .iter()
        .find(|block| block.uncompressed_offset as usize > WINDOW_SIZE)
        .unwrap();
    let split = start.uncompressed_offset as usize;
    let seen = assert_hybrid_matches_one_stage(
        &stream,
        start.bit_offset,
        u64::MAX,
        &data[split - WINDOW_SIZE..split],
    );
    assert!(
        seen.prefix_len >= WINDOW_SIZE,
        "switched too early: {}",
        seen.prefix_len
    );
    assert!(
        seen.tail_len > 4 * seen.prefix_len,
        "prefix {} tail {}",
        seen.prefix_len,
        seen.tail_len
    );

    // The all-u16 entry point on the same input never switches and agrees
    // with the hybrid's prefix symbol for symbol.
    let mut reader = BitReader::new(&stream);
    reader.seek_to_bit(start.bit_offset).unwrap();
    let mut symbols = Vec::new();
    inflate_two_stage(&mut reader, &mut symbols, u64::MAX).unwrap();
    assert_eq!(symbols.len(), seen.prefix_len + seen.tail_len);
    let mut reader = BitReader::new(&stream);
    reader.seek_to_bit(start.bit_offset).unwrap();
    let mut output = SpeculativeOutput::new();
    inflate_speculative(&mut reader, &mut output, u64::MAX, Vec::new).unwrap();
    assert_eq!(output.prefix(), &symbols[..seen.prefix_len]);
    assert!(symbols[seen.prefix_len - WINDOW_SIZE..]
        .iter()
        .all(|&symbol| symbol < MARKER_BASE));
}

// --- hand-built streams ----------------------------------------------------------

/// Writes `tokens` as one Fixed Block.
fn write_fixed_block(writer: &mut BitWriter, tokens: &[Token], is_final: bool) {
    let literal = HuffmanEncoder::from_code_lengths(&fixed_literal_lengths()).unwrap();
    let distance_code = HuffmanEncoder::from_code_lengths(&fixed_distance_lengths()).unwrap();
    writer.write_bits(is_final as u64, 1);
    writer.write_bits(0b01, 2);
    for token in tokens {
        match *token {
            Token::Literal(byte) => literal.encode(writer, byte as u16).unwrap(),
            Token::Match { length, distance } => {
                let (code, extra_bits, extra) = length_to_code(length as usize);
                literal.encode(writer, code).unwrap();
                writer.write_bits(extra as u64, extra_bits as u32);
                let (code, extra_bits, extra) = distance_to_code(distance as usize);
                distance_code.encode(writer, code).unwrap();
                writer.write_bits(extra as u64, extra_bits as u32);
            }
        }
    }
    literal.encode(writer, END_OF_BLOCK).unwrap();
}

fn literals(count: usize, salt: usize) -> Vec<Token> {
    (0..count)
        .map(|i| Token::Literal(((i * 7 + salt) % 251) as u8))
        .collect()
}

fn window() -> Vec<u8> {
    (0..WINDOW_SIZE).map(|i| (i % 241) as u8).collect()
}

/// A block ending `gap` literals after its last marker, then a block whose
/// first match reaches back exactly `WINDOW_SIZE`: the decoder may only have
/// switched at the boundary if that match cannot see the marker.
fn marker_then_gap(gap: usize) -> Agreement {
    let mut writer = BitWriter::new();
    let mut first = vec![Token::Match {
        length: 4,
        distance: 100,
    }];
    first.extend(literals(gap, 1));
    write_fixed_block(&mut writer, &first, false);
    let mut second = vec![Token::Match {
        length: 258,
        distance: WINDOW_SIZE as u16,
    }];
    second.extend(literals(500, 2));
    write_fixed_block(&mut writer, &second, true);
    let stream = writer.finish();
    assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window())
}

#[test]
fn a_marker_exactly_a_window_before_the_block_end_allows_the_switch() {
    let seen = marker_then_gap(WINDOW_SIZE);
    assert_eq!(seen.prefix_len, 4 + WINDOW_SIZE);
    assert_eq!(seen.tail_len, 258 + 500);
}

#[test]
fn a_marker_one_byte_inside_the_last_window_forbids_the_switch() {
    // The second block's match copies that marker, so it stays wide too.
    let seen = marker_then_gap(WINDOW_SIZE - 1);
    assert_eq!(seen.prefix_len, 4 + WINDOW_SIZE - 1 + 258 + 500);
    assert_eq!(seen.tail_len, 0);
}

#[test]
fn a_copied_marker_restarts_the_marker_free_run() {
    // The marker is re-copied late in the first block by an in-chunk match:
    // the run of marker-free symbols must restart behind the *copy*.
    let mut writer = BitWriter::new();
    let mut first = vec![Token::Match {
        length: 3,
        distance: 7,
    }];
    first.extend(literals(20_000, 3));
    first.push(Token::Match {
        length: 10,
        distance: 20_003,
    });
    first.extend(literals(WINDOW_SIZE - 8, 4));
    write_fixed_block(&mut writer, &first, false);
    write_fixed_block(&mut writer, &literals(100, 5), true);
    let stream = writer.finish();
    let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window());
    // Copied symbols 0..3 are markers: only WINDOW_SIZE - 8 + 7 clean symbols
    // follow the last of them.
    assert_eq!(seen.tail_len, 0);
}

#[test]
fn chunks_shorter_than_a_window_stay_wide() {
    // Marker-free throughout, but a byte decoder needs a whole window of
    // symbols to be seeded with: one short of it at the boundary is not
    // enough, exactly a window is.
    for (first_block, expected) in [
        (WINDOW_SIZE - 1, (WINDOW_SIZE - 1 + 10, 0)),
        (WINDOW_SIZE, (WINDOW_SIZE, 10)),
    ] {
        let mut writer = BitWriter::new();
        write_fixed_block(&mut writer, &literals(first_block, 6), false);
        write_fixed_block(&mut writer, &literals(10, 7), true);
        let stream = writer.finish();
        let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window());
        assert_eq!((seen.prefix_len, seen.tail_len), expected);
    }

    let mut writer = BitWriter::new();
    write_fixed_block(&mut writer, &literals(100, 8), true);
    let stream = writer.finish();
    let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &[]);
    assert_eq!((seen.prefix_len, seen.tail_len), (100, 0));
}

#[test]
fn stored_and_fixed_blocks_before_and_after_the_switch() {
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 199) as u8).collect();
    let mut writer = BitWriter::new();
    // Fixed block with markers, Stored block long enough to bury them,
    // then (after the switch) Stored and Fixed blocks referencing both.
    write_fixed_block(
        &mut writer,
        &[
            Token::Match {
                length: 30,
                distance: 5000,
            },
            Token::Literal(b'x'),
        ],
        false,
    );
    write_stored_block(&mut writer, &payload, false);
    write_stored_block(&mut writer, &payload[..1234], false);
    write_fixed_block(
        &mut writer,
        &[
            Token::Match {
                length: 200,
                distance: WINDOW_SIZE as u16,
            },
            Token::Match {
                length: 258,
                distance: 1,
            },
        ],
        true,
    );
    let stream = writer.finish();
    let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window());
    assert_eq!(seen.prefix_len, 31 + payload.len());
    assert_eq!(seen.tail_len, 1234 + 200 + 258);

    let mut reader = BitReader::new(&stream);
    let mut output = SpeculativeOutput::new();
    let outcome = inflate_speculative(&mut reader, &mut output, u64::MAX, Vec::new).unwrap();
    let types: Vec<BlockType> = outcome.blocks.iter().map(|b| b.block_type).collect();
    assert_eq!(
        types,
        [
            BlockType::Fixed,
            BlockType::Stored,
            BlockType::Stored,
            BlockType::Fixed
        ]
    );
    assert_eq!(
        outcome.window_usage,
        vec![((WINDOW_SIZE - 5000) as u32, 30)]
    );
}

/// The window the chunk after `output` needs, computed the slow way.
fn expected_next_window(output: &SpeculativeOutput, previous: &[u8]) -> Vec<u8> {
    let mut all = previous.to_vec();
    all.extend_from_slice(&output.clone().resolve(previous).unwrap());
    all[all.len().saturating_sub(WINDOW_SIZE)..].to_vec()
}

#[test]
fn next_window_needs_the_previous_window_only_for_a_short_tail() {
    let previous = window();
    let mut writer = BitWriter::new();
    let mut first = vec![Token::Match {
        length: 4,
        distance: 9,
    }];
    first.extend(literals(WINDOW_SIZE, 9));
    write_fixed_block(&mut writer, &first, false);
    write_fixed_block(&mut writer, &literals(1000, 10), false);
    // Stored, so that a stop offset can end the decode in front of it.
    let payload: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 233) as u8).collect();
    write_stored_block(&mut writer, &payload, true);
    let stream = writer.finish();
    let decode = |stop_bit| {
        let mut output = SpeculativeOutput::new();
        let outcome = inflate_speculative(
            &mut BitReader::new(&stream),
            &mut output,
            stop_bit,
            Vec::new,
        )
        .unwrap();
        (output, outcome)
    };

    // A tail of a whole window is the next window, whatever preceded.
    let (output, outcome) = decode(u64::MAX);
    assert_eq!(output.tail().len(), 1000 + WINDOW_SIZE);
    assert_eq!(output.next_window(&[0xEE; 77]).unwrap(), payload);

    // A short tail: the rest comes out of the (marker-free) prefix end.
    let (output, _) = decode(outcome.blocks[2].bit_offset);
    assert_eq!(output.tail().len(), 1000);
    assert_eq!(
        output.next_window(&previous).unwrap(),
        expected_next_window(&output, &previous)
    );

    // An unswitched output shorter than a window: the previous window fills
    // the front.
    let mut writer = BitWriter::new();
    write_fixed_block(
        &mut writer,
        &[
            Token::Match {
                length: 5,
                distance: 5,
            },
            Token::Literal(b'!'),
        ],
        true,
    );
    let stream = writer.finish();
    let mut output = SpeculativeOutput::new();
    inflate_speculative(
        &mut BitReader::new(&stream),
        &mut output,
        u64::MAX,
        Vec::new,
    )
    .unwrap();
    let next = output.next_window(&previous).unwrap();
    assert_eq!(next, expected_next_window(&output, &previous));
    assert_eq!(&next[..WINDOW_SIZE - 6], &previous[6..]);
    assert_eq!(next[WINDOW_SIZE - 1], b'!');

    // A forced switch (gzip member boundary) with a short tail behind a
    // prefix that still holds markers: both halves contribute.
    output.switch_to_bytes(|| vec![0xEE; 3]);
    let mut writer = BitWriter::new();
    write_fixed_block(&mut writer, &literals(50, 12), true);
    let member = writer.finish();
    inflate_speculative(
        &mut BitReader::new(&member),
        &mut output,
        u64::MAX,
        Vec::new,
    )
    .unwrap();
    assert_eq!((output.prefix().len(), output.tail().len()), (6, 50));
    assert_eq!(
        output.next_window(&previous).unwrap(),
        expected_next_window(&output, &previous)
    );
}
