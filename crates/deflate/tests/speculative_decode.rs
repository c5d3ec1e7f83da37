//! The speculative (hybrid) decoder against the one-stage decoder it must be
//! indistinguishable from: `inflate_speculative` + marker replacement with the
//! true window equals `inflate` with that window — same bytes, blocks, end
//! position and window usage — or both fail, whether and whenever that window
//! is handed to the decode while it is under way.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgz_bitio::{BitReader, BitWriter};
use rgz_deflate::constants::{
    distance_to_code, fixed_distance_lengths, fixed_literal_lengths, length_to_code, END_OF_BLOCK,
    WINDOW_SIZE,
};
use rgz_deflate::{
    inflate, inflate_speculative, inflate_two_stage, inflate_with_cuts, write_stored_block,
    BlockType, CompressionLevel, CompressorOptions, Cutter, DeflateCompressor, SpeculativeOutput,
    Token, WindowAnswer, MARKER_BASE,
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

/// Decodes `stream` from `start_bit` both ways and asserts they agree; the
/// hybrid's caller never learns the window.
fn assert_hybrid_matches_one_stage(
    stream: &[u8],
    start_bit: u64,
    stop_bit: u64,
    window: &[u8],
) -> Agreement {
    assert_handed_hybrid_matches_one_stage(stream, start_bit, stop_bit, window, usize::MAX)
}

/// How far apart the comparisons below cut their decodes, windowed and
/// stop points: close enough that cuts fall into the first window, where a
/// cut's window reaches before the decode's start, and into the marker phase.
const CUT_SPACINGS: (usize, usize) = (12 * 1024, 5 * 1024);

/// Decodes `stream` from `start_bit` both ways and asserts they agree, the
/// hybrid's caller knowing `window` from when `arrives_at` symbols are out:
/// cut alike, too, each windowed cut with the same usage.
fn assert_handed_hybrid_matches_one_stage(
    stream: &[u8],
    start_bit: u64,
    stop_bit: u64,
    window: &[u8],
    arrives_at: usize,
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
    let (window_spacing, stop_spacing) = CUT_SPACINGS;
    let mut cutter = Cutter::new(window_spacing, stop_spacing);
    let one_stage = inflate_with_cuts(&mut reader, window, &mut expected, stop_bit, &mut cutter);
    let one_stage_cuts = cutter.take_cuts();

    // Twice: into buffers of its own, then into the first round's, recycled
    // as they came back — full of another decode's symbols and bytes, or
    // half-written when it failed.  Nothing of that may show.
    let (mut symbols, mut bytes, mut resolved_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    for _ in 0..2 {
        let mut reader = reader_at(start_bit).unwrap();
        symbols.clear();
        let mut output = SpeculativeOutput::from(std::mem::take(&mut symbols));
        let mut cutter = Cutter::new(window_spacing, stop_spacing);
        let hybrid = inflate_speculative(
            &mut reader,
            &mut output,
            stop_bit,
            || std::mem::take(&mut bytes),
            |decoded| {
                assert!(decoded >= WINDOW_SIZE, "asked with {decoded} symbols out");
                if decoded >= arrives_at {
                    WindowAnswer::Known(window)
                } else {
                    WindowAnswer::Unknown
                }
            },
            &mut cutter,
        );
        let (prefix_len, tail_len) = (output.prefix().len(), output.tail().len());
        if hybrid.is_ok() {
            assert_eq!(prefix_len + tail_len, output.len());
        }
        let resolved = hybrid.and_then(|outcome| {
            output.resolve_into(window, &mut resolved_bytes)?;
            Ok((outcome, resolved_bytes.clone(), cutter.take_cuts()))
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
        (Ok((outcome, data, cuts)), Ok((recycled_outcome, recycled_data, recycled_cuts))) => {
            assert_eq!(data, recycled_data);
            assert_eq!(cuts, recycled_cuts);
            assert_eq!(outcome.blocks, recycled_outcome.blocks);
            assert_eq!(outcome.end_position, recycled_outcome.end_position);
            assert_eq!(outcome.window_usage, recycled_outcome.window_usage);
        }
        (Err(error), Err(recycled_error)) => assert_eq!(error, recycled_error),
        _ => panic!("a decode into recycled buffers differs from one into fresh buffers"),
    }

    match (one_stage, resolved) {
        (Ok(one_stage), Ok((hybrid, resolved, cuts))) => {
            assert_eq!(resolved, expected);
            assert_eq!(cuts, one_stage_cuts);
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
            hybrid.map(|(outcome, ..)| outcome.end_position),
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
        // When the hybrid's caller learns the window, in symbols decoded: a
        // third of the cases before it is first asked, a third never.
        arrives_at in -300_000isize..600_000,
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
        let arrives_at = if arrives_at > 300_000 { usize::MAX } else { arrives_at.max(0) as usize };
        assert_handed_hybrid_matches_one_stage(&stream, start.bit_offset, stop_bit, window, arrives_at);
    }
}

#[test]
fn a_window_arriving_at_any_block_boundary_changes_nothing_but_the_switch() {
    // Text keeps its markers alive to the end; in the mixed corpus they die
    // out, and the decoder has switched before most arrivals.
    for (marker_heavy, data) in [
        (true, rgz_datagen::silesia_like(300_000, 20)),
        (false, mixed_corpus(5, 300_000)),
    ] {
        let options = CompressorOptions {
            block_size: 6 * 1024,
            ..Default::default()
        };
        let stream = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&stream);
        let blocks = inflate(&mut reader, &[], &mut Vec::new(), u64::MAX)
            .unwrap()
            .blocks;
        let first = blocks
            .iter()
            .position(|block| block.uncompressed_offset as usize > WINDOW_SIZE)
            .unwrap();
        let start = blocks[first];
        let split = start.uncompressed_offset as usize;
        let window = &data[split - WINDOW_SIZE..split];
        let decode = |arrives_at| {
            assert_handed_hybrid_matches_one_stage(
                &stream,
                start.bit_offset,
                u64::MAX,
                window,
                arrives_at,
            )
        };

        let never = decode(usize::MAX);
        assert_eq!(never.prefix_len + never.tail_len, data.len() - split);
        assert_eq!(never.tail_len == 0, marker_heavy);
        // Known before the decode is first asked: it switches at the first
        // boundary with a window's worth of symbols out.
        let eligible = |block: &&rgz_deflate::BlockBoundary| {
            block.uncompressed_offset as usize - split >= WINDOW_SIZE
        };
        let earliest = blocks[first..].iter().find(eligible).unwrap();
        let at_once = decode(0);
        assert_eq!(
            at_once.prefix_len,
            earliest.uncompressed_offset as usize - split
        );
        assert!(blocks.len() - first > 30, "{} blocks", blocks.len() - first);
        for block in blocks[first..].iter().filter(eligible) {
            let boundary = block.uncompressed_offset as usize - split;
            let seen = decode(boundary);
            // The switch is at the boundary where the window arrived, unless
            // the markers had died out before.
            assert_eq!(seen.prefix_len, boundary.min(never.prefix_len));
            // One symbol later is one boundary later.
            let late = decode(boundary + 1);
            assert!(late.prefix_len > boundary || never.prefix_len <= boundary);
        }
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
    inflate_speculative(
        &mut reader,
        &mut output,
        u64::MAX,
        Vec::new,
        WindowAnswer::never,
        &mut Cutter::never(),
    )
    .unwrap();
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
    let outcome = inflate_speculative(
        &mut reader,
        &mut output,
        u64::MAX,
        Vec::new,
        WindowAnswer::never,
        &mut Cutter::never(),
    )
    .unwrap();
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

/// A Fixed block whose match into the window is still within the last 32 KiB
/// when a Stored block ends past the first 32 KiB — no switch without the
/// window — then Stored and Fixed blocks that copy, among other things, what
/// that match produced.  Returns the stream and the offset of that boundary.
fn markers_alive_at_a_stored_boundary() -> (Vec<u8>, usize) {
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 199) as u8).collect();
    let mut writer = BitWriter::new();
    let mut first = literals(20_000, 13);
    first.push(Token::Match {
        length: 30,
        distance: 25_000,
    });
    first.push(Token::Literal(b'x'));
    write_fixed_block(&mut writer, &first, false);
    write_stored_block(&mut writer, &payload, false);
    let boundary = 20_031 + payload.len();
    write_stored_block(&mut writer, &payload[..1234], false);
    write_fixed_block(
        &mut writer,
        &[
            Token::Match {
                length: 200,
                distance: WINDOW_SIZE as u16,
            },
            // What the match into the window produced.
            Token::Match {
                length: 30,
                distance: (boundary + 1234 + 200 - 20_000) as u16,
            },
            Token::Match {
                length: 258,
                distance: 1,
            },
        ],
        true,
    );
    (writer.finish(), boundary)
}

#[test]
fn stored_and_fixed_blocks_before_and_after_a_handed_window() {
    let (stream, boundary) = markers_alive_at_a_stored_boundary();
    let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window());
    assert_eq!(
        seen.tail_len, 0,
        "a marker in the last 32 KiB forbids the switch"
    );
    let seen = assert_handed_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window(), 0);
    assert_eq!(seen.prefix_len, boundary);
    assert_eq!(seen.tail_len, 1234 + 200 + 30 + 258);
    // Arrived while the next Stored block was copied: the switch is behind it.
    let seen =
        assert_handed_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window(), boundary + 1);
    assert_eq!(seen.prefix_len, boundary + 1234);
    // A short window stands at the end of the marker space, as at the start
    // of a stream: 25 000 back from 20 000 symbols in needs its last 5 000.
    let short = &window()[WINDOW_SIZE - 5000..];
    let seen = assert_handed_hybrid_matches_one_stage(&stream, 0, u64::MAX, short, 0);
    assert_eq!(seen.prefix_len, boundary);
}

#[test]
fn a_first_block_shorter_than_a_window_is_no_boundary_to_ask_at() {
    let mut writer = BitWriter::new();
    let mut first = vec![Token::Match {
        length: 4,
        distance: 9,
    }];
    first.extend(literals(1000, 14));
    write_fixed_block(&mut writer, &first, false);
    // Copies the markers forward, so that they are alive at its end.
    let mut second = literals(20_000, 15);
    second.push(Token::Match {
        length: 4,
        distance: 21_004,
    });
    second.extend(literals(12_000, 16));
    write_fixed_block(&mut writer, &second, false);
    write_fixed_block(&mut writer, &literals(100, 16), true);
    let stream = writer.finish();
    // The helper's closure asserts it is never asked with less than a
    // window's worth of symbols out.
    let seen = assert_handed_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window(), 0);
    assert_eq!(seen.prefix_len, 1004 + 20_004 + 12_000);
    assert_eq!(seen.tail_len, 100);
    let seen = assert_hybrid_matches_one_stage(&stream, 0, u64::MAX, &window());
    assert_eq!(seen.tail_len, 0);
}

#[test]
fn an_abandoned_decode_ends_at_the_boundary_it_was_told_at() {
    let (stream, boundary) = markers_alive_at_a_stored_boundary();
    let mut expected = Vec::new();
    let whole = inflate(
        &mut BitReader::new(&stream),
        &window(),
        &mut expected,
        u64::MAX,
    )
    .unwrap();
    let mut reader = BitReader::new(&stream);
    let mut output = SpeculativeOutput::new();
    let mut asked = Vec::new();
    let outcome = inflate_speculative(
        &mut reader,
        &mut output,
        u64::MAX,
        || panic!("an abandoned decode needs no byte buffer"),
        |decoded| {
            asked.push(decoded);
            match asked.len() {
                1 => WindowAnswer::Unknown,
                _ => WindowAnswer::<&[u8]>::Abandon,
            }
        },
        &mut Cutter::never(),
    )
    .unwrap();
    // Asked at the two boundaries past the first 32 KiB, and not again.
    assert_eq!(asked, [boundary, boundary + 1234]);
    assert_eq!(outcome.stop_reason, rgz_deflate::StopReason::Abandoned);
    assert_eq!(outcome.blocks, whole.blocks[..3]);
    assert_eq!(outcome.end_position, whole.blocks[3].bit_offset);
    assert_eq!(reader.position(), outcome.end_position);
    assert_eq!(outcome.window_usage, whole.window_usage);
    assert!(!output.is_switched());
    assert_eq!(output.len(), boundary + 1234);
    assert_eq!(
        output.resolve(&window()).unwrap(),
        expected[..boundary + 1234]
    );
}

#[test]
fn an_output_switched_at_a_member_boundary_is_not_asked() {
    // The first member ends with its markers alive; the caller switches, as
    // the window in front of the second is known to be empty.
    let mut writer = BitWriter::new();
    let mut first = vec![Token::Match {
        length: 5,
        distance: 5,
    }];
    first.extend(literals(20_000, 17));
    first.push(Token::Match {
        length: 5,
        distance: 20_005,
    });
    first.extend(literals(20_000, 18));
    write_fixed_block(&mut writer, &first, true);
    let first = writer.finish();
    let mut writer = BitWriter::new();
    write_fixed_block(&mut writer, &literals(WINDOW_SIZE, 18), false);
    write_fixed_block(&mut writer, &literals(50, 19), true);
    let second = writer.finish();

    let mut output = SpeculativeOutput::new();
    let mut asked = 0;
    let outcome = inflate_speculative(
        &mut BitReader::new(&first),
        &mut output,
        u64::MAX,
        Vec::new,
        |decoded| {
            asked += 1;
            WindowAnswer::never(decoded)
        },
        &mut Cutter::never(),
    )
    .unwrap();
    // A stream's end is no boundary to go on from.
    assert_eq!((asked, outcome.blocks.len()), (0, 1));
    output.switch_to_bytes(Vec::new);
    inflate_speculative(
        &mut BitReader::new(&second),
        &mut output,
        u64::MAX,
        Vec::new,
        |_| -> WindowAnswer<&[u8]> { panic!("asked for a window that is known to be empty") },
        &mut Cutter::never(),
    )
    .unwrap();
    assert_eq!(output.prefix().len(), 40_010);
    assert_eq!(output.tail().len(), WINDOW_SIZE + 50);
    let mut expected = Vec::new();
    inflate(
        &mut BitReader::new(&first),
        &window(),
        &mut expected,
        u64::MAX,
    )
    .unwrap();
    inflate(&mut BitReader::new(&second), &[], &mut expected, u64::MAX).unwrap();
    assert_eq!(output.resolve(&window()).unwrap(), expected);
}

// --- switch points ---------------------------------------------------------------

/// Where the marker phase of a decode that never learns its window must end,
/// read off the all-16-bit decode of the same stretch: the first block
/// boundary with a window's worth of symbols behind it that holds no marker.
/// `None`: the markers live to the end.
fn marker_free_boundary(symbols: &[u16], blocks: &[rgz_deflate::BlockBoundary]) -> Option<usize> {
    blocks
        .iter()
        .map(|block| block.uncompressed_offset as usize)
        .filter(|&at| at >= WINDOW_SIZE)
        .find(|&at| {
            symbols[at - WINDOW_SIZE..at]
                .iter()
                .all(|&s| s < MARKER_BASE)
        })
}

/// Decodes `stream` from `start_bit` to `stop_bit` speculatively, the window
/// arriving at the `arrivals` (in symbols decoded; `usize::MAX` for never),
/// and asserts each decode leaves the 16-bit phase exactly where the oracle
/// says — the marker-free boundary or the first boundary at or past the
/// arrival, whichever comes first — asks for the window at every boundary
/// a window's worth in before that and nowhere else, and holds the oracle's
/// symbols, the one-stage tail and, resolved, the one-stage bytes.  Returns
/// the oracle's boundary and the block offsets.
fn assert_switches_where_the_oracle_says(
    stream: &[u8],
    start_bit: u64,
    stop_bit: u64,
    window: &[u8],
    arrivals: impl Fn(&[usize]) -> Vec<usize>,
) -> (Option<usize>, Vec<usize>) {
    let reader_at = || {
        let mut reader = BitReader::new(stream);
        reader.seek_to_bit(start_bit).unwrap();
        reader
    };
    let mut symbols = Vec::new();
    let oracle = inflate_two_stage(&mut reader_at(), &mut symbols, stop_bit).unwrap();
    let boundaries: Vec<usize> = oracle
        .blocks
        .iter()
        .map(|block| block.uncompressed_offset as usize)
        .collect();
    let marker_free = marker_free_boundary(&symbols, &oracle.blocks);
    let mut expected = Vec::new();
    inflate(&mut reader_at(), window, &mut expected, stop_bit).unwrap();
    assert_eq!(expected.len(), symbols.len());

    for arrives_at in std::iter::once(usize::MAX).chain(arrivals(&boundaries)) {
        let handed = boundaries
            .iter()
            .copied()
            .find(|&at| at >= WINDOW_SIZE && at >= arrives_at);
        let switch = match (marker_free, handed) {
            (Some(free), Some(handed)) => Some(free.min(handed)),
            (free, handed) => free.or(handed),
        };
        let mut asked = Vec::new();
        let mut output = SpeculativeOutput::new();
        let outcome = inflate_speculative(
            &mut reader_at(),
            &mut output,
            stop_bit,
            Vec::new,
            |decoded| {
                asked.push(decoded);
                match decoded >= arrives_at {
                    true => WindowAnswer::Known(window),
                    false => WindowAnswer::Unknown,
                }
            },
            &mut Cutter::never(),
        )
        .unwrap();
        assert_eq!(outcome.blocks, oracle.blocks);
        let prefix_len = switch.unwrap_or(symbols.len());
        assert_eq!(
            output.prefix().len(),
            prefix_len,
            "window at {arrives_at}: the oracle switches at {switch:?}"
        );
        assert!(output.prefix() == &symbols[..prefix_len]);
        assert_eq!(output.is_switched(), switch.is_some());
        assert!(output.tail() == &expected[prefix_len..]);
        let eligible = boundaries
            .iter()
            .copied()
            .filter(|&at| at >= WINDOW_SIZE && at < marker_free.unwrap_or(usize::MAX))
            .filter(|&at| handed.is_none_or(|handed| at <= handed));
        assert!(asked.iter().copied().eq(eligible), "asked at {asked:?}");
        assert!(output.resolve(window).unwrap() == expected);
    }
    (marker_free, boundaries)
}

#[test]
fn switch_points_are_the_oracles_on_mid_stream_stretches() {
    for (name, data) in [
        ("silesia", rgz_datagen::silesia_like(1_500_000, 41)),
        ("base64", rgz_datagen::base64_random(1_500_000, 42)),
        ("fastq", rgz_datagen::fastq_of_size(1_500_000, 43)),
    ] {
        let options = CompressorOptions {
            block_size: 24 * 1024,
            ..Default::default()
        };
        let stream = DeflateCompressor::new(options).compress(&data);
        let blocks = inflate(&mut BitReader::new(&stream), &[], &mut Vec::new(), u64::MAX)
            .unwrap()
            .blocks;
        assert!(blocks.len() > 40, "{name}: {} blocks", blocks.len());
        // A chunk-sized stretch from a quarter in, and the second half to
        // the end of the stream.
        let quarter = blocks.len() / 4;
        for (first, stop_bit) in [
            (quarter, blocks[quarter + 20].bit_offset),
            (blocks.len() / 2, u64::MAX),
        ] {
            let start = blocks[first];
            let split = start.uncompressed_offset as usize;
            let window = &data[split - WINDOW_SIZE..split];
            // The window at every fourth boundary, and one symbol after one.
            let arrivals = |boundaries: &[usize]| {
                let mut at: Vec<usize> = boundaries.iter().copied().step_by(4).collect();
                at.push(boundaries[boundaries.len() / 2] + 1);
                at
            };
            let (marker_free, _) = assert_switches_where_the_oracle_says(
                &stream,
                start.bit_offset,
                stop_bit,
                window,
                arrivals,
            );
            // Text keeps its markers alive, base64 loses them within a few
            // blocks; FASTQ's record headers carry them for megabytes.
            match name {
                "silesia" => assert_eq!(marker_free, None),
                "base64" => assert!(marker_free.is_some()),
                _ => {}
            }
        }
    }
}

#[test]
fn switch_points_are_the_oracles_on_ten_thousand_tiny_blocks() {
    // A match early in every 32 KiB reaches back exactly a window: in the
    // first it copies from the window, in the next eight the markers that
    // copy produced, so they stay alive through blocks of forty symbols
    // each; from then on it reaches back less far, and they die out.
    const SEGMENTS: usize = 13;
    let mut tokens = Vec::new();
    let (mut position, mut next_match) = (0, 100);
    while position < SEGMENTS * WINDOW_SIZE {
        if position == next_match {
            let copies_markers = next_match < 9 * WINDOW_SIZE;
            tokens.push(Token::Match {
                length: 20,
                distance: if copies_markers {
                    WINDOW_SIZE as u16
                } else {
                    30_000
                },
            });
            position += 20;
            next_match += WINDOW_SIZE;
        } else {
            tokens.push(Token::Literal((position * 13 % 251) as u8));
            position += 1;
        }
    }
    let mut writer = BitWriter::new();
    let blocks: Vec<&[Token]> = tokens.chunks(40).collect();
    assert!(blocks.len() >= 10_000, "{} blocks", blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        write_fixed_block(&mut writer, block, i + 1 == blocks.len());
    }
    let stream = writer.finish();
    // The window at a boundary every thousand blocks and at the last two
    // before the markers die out.
    let last_marker = 8 * WINDOW_SIZE + 100 + 20;
    let arrivals = |boundaries: &[usize]| {
        let mut at: Vec<usize> = boundaries.iter().copied().step_by(1000).collect();
        let dying = boundaries.partition_point(|&at| at < last_marker + WINDOW_SIZE);
        at.extend([boundaries[dying - 1], boundaries[dying]]);
        at
    };
    let (marker_free, boundaries) =
        assert_switches_where_the_oracle_says(&stream, 0, u64::MAX, &window(), arrivals);
    let dying = boundaries.partition_point(|&at| at < last_marker + WINDOW_SIZE);
    assert_eq!(marker_free, Some(boundaries[dying]));
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
            WindowAnswer::never,
            &mut Cutter::never(),
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
        WindowAnswer::never,
        &mut Cutter::never(),
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
        WindowAnswer::never,
        &mut Cutter::never(),
    )
    .unwrap();
    assert_eq!((output.prefix().len(), output.tail().len()), (6, 50));
    assert_eq!(
        output.next_window(&previous).unwrap(),
        expected_next_window(&output, &previous)
    );
}
