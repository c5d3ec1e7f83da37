//! The edges of the inflate fast loop, on hand-built streams: the last bytes
//! of input, the output limit, the first matches of a call (into the window,
//! to its first byte, past it), buffers with little or no room, short
//! distances — each against the single-symbol reference decoder and against
//! the values the reference is known to give.  The loop has no kernel to
//! swap: under `RGZ_FORCE_SCALAR=1` (the CI `scalar-fallback` job) the suite
//! runs the same code, against marker replacement's scalar kernel.

use rgz_bitio::{BitReader, BitWriter};
use rgz_deflate::constants::{
    distance_to_code, fixed_distance_lengths, fixed_literal_lengths, length_to_code, END_OF_BLOCK,
    PRECODE_ORDER,
};
use rgz_deflate::{
    inflate, inflate_limited, inflate_single_symbol, inflate_two_stage, replace_markers,
    DeflateError, Token, MARKER_BASE,
};
use rgz_huffman::{HuffmanEncoder, HuffmanError};

// --- building streams ------------------------------------------------------------

/// Writes `tokens`, without the end-of-block symbol.
fn write_tokens(
    writer: &mut BitWriter,
    literal: &HuffmanEncoder,
    distance_code: Option<&HuffmanEncoder>,
    tokens: &[Token],
) {
    for token in tokens {
        match *token {
            Token::Literal(byte) => literal.encode(writer, byte as u16).unwrap(),
            Token::Match { length, distance } => {
                let (code, extra_bits, extra) = length_to_code(length as usize);
                literal.encode(writer, code).unwrap();
                writer.write_bits(extra as u64, extra_bits as u32);
                let (code, extra_bits, extra) = distance_to_code(distance as usize);
                distance_code
                    .expect("a block with matches has a distance code")
                    .encode(writer, code)
                    .unwrap();
                writer.write_bits(extra as u64, extra_bits as u32);
            }
        }
    }
}

/// Writes `tokens` as one Fixed Block.
fn write_fixed_block(writer: &mut BitWriter, tokens: &[Token], is_final: bool) {
    let literal = HuffmanEncoder::from_code_lengths(&fixed_literal_lengths()).unwrap();
    let distance = HuffmanEncoder::from_code_lengths(&fixed_distance_lengths()).unwrap();
    writer.write_bits(is_final as u64, 1);
    writer.write_bits(0b01, 2);
    write_tokens(writer, &literal, Some(&distance), tokens);
    literal.encode(writer, END_OF_BLOCK).unwrap();
}

fn fixed_stream(tokens: &[Token]) -> Vec<u8> {
    let mut writer = BitWriter::new();
    write_fixed_block(&mut writer, tokens, true);
    writer.finish()
}

/// Literal/length code lengths of the hand-built Dynamic Blocks: every
/// literal in nine bits, end-of-block in two, lengths 3 and 258 in three.
fn dynamic_literal_lengths() -> Vec<u8> {
    let mut lengths = vec![9u8; 256];
    lengths.push(2);
    lengths.push(3);
    lengths.extend([0u8; 27]);
    lengths.push(3);
    lengths
}

/// Writes the header of a final Dynamic Block with these code lengths, each
/// sent as itself through a four-bit precode (no repeat codes).
fn write_dynamic_header(writer: &mut BitWriter, literal: &[u8], distance: &[u8]) {
    writer.write_bits(1, 1);
    writer.write_bits(0b10, 2);
    writer.write_bits(literal.len() as u64 - 257, 5);
    writer.write_bits(distance.len() as u64 - 1, 5);
    writer.write_bits(19 - 4, 4);
    let mut precode_lengths = [4u8; 19];
    precode_lengths[16..].fill(0);
    for &position in &PRECODE_ORDER {
        writer.write_bits(precode_lengths[position] as u64, 3);
    }
    let precode = HuffmanEncoder::from_code_lengths(&precode_lengths).unwrap();
    for &length in literal.iter().chain(distance) {
        precode.encode(writer, length as u16).unwrap();
    }
}

fn literals(count: usize, salt: usize) -> Vec<Token> {
    (0..count)
        .map(|i| Token::Literal(((i * 7 + salt) % 251) as u8))
        .collect()
}

fn matches(count: usize, length: u16, distance: u16) -> Vec<Token> {
    vec![Token::Match { length, distance }; count]
}

// --- comparing decoders ------------------------------------------------------------

type Decoded = Result<(Vec<u8>, u64), DeflateError>;

/// The fast decoder's and the reference decoder's view of `stream`; asserts
/// that they are the same: bytes, blocks, end position, window usage, or the
/// error.
fn decode_both_ways(stream: &[u8], window: &[u8]) -> Decoded {
    let mut fast_reader = BitReader::new(stream);
    let mut fast_out = Vec::new();
    let fast = inflate(&mut fast_reader, window, &mut fast_out, u64::MAX);
    let mut reference_reader = BitReader::new(stream);
    let mut reference_out = Vec::new();
    let reference =
        inflate_single_symbol(&mut reference_reader, window, &mut reference_out, u64::MAX);
    match (fast, reference) {
        (Ok(fast), Ok(reference)) => {
            assert_eq!(fast_out, reference_out);
            assert_eq!(fast.blocks, reference.blocks);
            assert_eq!(fast.stop_reason, reference.stop_reason);
            assert_eq!(fast.end_position, reference.end_position);
            assert_eq!(fast.window_usage, reference.window_usage);
            Ok((fast_out, fast.end_position))
        }
        (fast, reference) => {
            let error = reference.expect_err("the fast decoder failed alone");
            assert_eq!(fast.err(), Some(error.clone()));
            Err(error)
        }
    }
}

/// A few thousand symbols of every kind the fixed code has.
fn mixed_tokens() -> Vec<Token> {
    let mut tokens = literals(700, 3);
    for round in 0..40u16 {
        tokens.extend(matches(1, 3 + round * 6, 1 + round * 13));
        tokens.extend(literals(2 + round as usize % 5, round as usize));
        tokens.extend(matches(1, 258, 600 - round));
    }
    tokens
}

// --- (a) the end of input ----------------------------------------------------------

#[test]
fn a_block_may_end_anywhere_in_the_last_bytes_of_input() {
    let stream = fixed_stream(&mixed_tokens());
    let (expected, end) = decode_both_ways(&stream, &[]).unwrap();
    // On the last byte.
    assert_eq!(end.div_ceil(8), stream.len() as u64);
    // Inside the last 16 bytes, and further from the end than that.
    for padding in 1..40 {
        let mut padded = stream.clone();
        padded.resize(stream.len() + padding, 0xA5);
        assert_eq!(decode_both_ways(&padded, &[]), Ok((expected.clone(), end)));
    }
}

#[test]
fn input_cut_anywhere_near_the_end_fails_like_the_reference() {
    let stream = fixed_stream(&mixed_tokens());
    for cut in 1..60 {
        let error = decode_both_ways(&stream[..stream.len() - cut], &[]).unwrap_err();
        assert!(
            matches!(
                error,
                DeflateError::UnexpectedEof
                    | DeflateError::InvalidLiteralCode(_)
                    | DeflateError::InvalidDistanceCode(_)
            ),
            "cut {cut}: {error:?}"
        );
    }
}

#[test]
fn one_bit_short_of_the_end_of_block_symbol_is_an_unexpected_eof() {
    // Pad with literals (eight or nine bits each) until the end-of-block
    // code's last bit is the first bit of the last byte, then drop that byte.
    let mut tokens = mixed_tokens();
    let stream = loop {
        let mut writer = BitWriter::new();
        write_fixed_block(&mut writer, &tokens, true);
        let bits = writer.position();
        let stream = writer.finish();
        if bits % 8 == 1 {
            break stream;
        }
        tokens.push(Token::Literal(200));
    };
    assert_eq!(
        decode_both_ways(&stream[..stream.len() - 1], &[]),
        Err(DeflateError::InvalidLiteralCode(
            HuffmanError::UnexpectedEof
        ))
    );
    assert!(decode_both_ways(&stream, &[]).is_ok());
}

// --- (b) the output limit ------------------------------------------------------------

fn decode_limited(stream: &[u8], limit: usize) -> (Result<(), DeflateError>, Vec<u8>) {
    let mut out = Vec::new();
    let result = inflate_limited(&mut BitReader::new(stream), &[], &mut out, u64::MAX, limit);
    (result.map(drop), out)
}

#[test]
fn the_limit_trips_inside_a_long_match() {
    let mut tokens = literals(1000, 1);
    tokens.extend(matches(40, 258, 1000));
    let stream = fixed_stream(&tokens);
    let total = 1000 + 40 * 258;
    for limit in [1000, 1001, 1100, 1257, 1258, 1259, 5000, total - 1] {
        let (result, out) = decode_limited(&stream, limit);
        assert_eq!(result, Err(DeflateError::OutputLimitExceeded { limit }));
        // The reference checks before every symbol: the first match to cross
        // the limit is the last one decoded.
        let crossed = 1000 + (limit - 1000) / 258 * 258 + 258;
        assert_eq!(out.len(), crossed, "limit {limit}");
    }
    for limit in [total, total + 1, usize::MAX] {
        let (result, out) = decode_limited(&stream, limit);
        assert_eq!(result, Ok(()));
        assert_eq!(out.len(), total);
    }
}

#[test]
fn the_limit_trips_inside_a_run_of_literals() {
    let stream = fixed_stream(&literals(5000, 2));
    for limit in [0, 1, 2, 292, 293, 294, 2000, 2001, 2002, 4999] {
        let (result, out) = decode_limited(&stream, limit);
        assert_eq!(result, Err(DeflateError::OutputLimitExceeded { limit }));
        assert_eq!(out.len(), limit + 1, "limit {limit}");
    }
    assert_eq!(decode_limited(&stream, 5000).0, Ok(()));
}

// --- (c) the first matches of a call ---------------------------------------------------

#[test]
fn the_first_match_may_reach_into_a_short_window_and_to_its_first_byte() {
    let window: Vec<u8> = (0..1000).map(|i| (i * 31 % 253) as u8).collect();
    let mut tokens = literals(10, 4);
    // 500 bytes into the window; then exactly to its first byte (the ten
    // literals and the first match are behind the second).
    tokens.extend(matches(1, 100, 510));
    tokens.extend(matches(1, 258, 1110));
    tokens.extend(literals(600, 5));
    tokens.extend(matches(1, 30, 700));
    let stream = fixed_stream(&tokens);
    let (out, _) = decode_both_ways(&stream, &window).unwrap();
    assert_eq!(&out[10..110], &window[500..600]);
    assert_eq!(&out[110..368], &window[..258]);

    // The same stream without knowing the window: markers where the window
    // was read, and the same bytes once it is known.  Markers count from the
    // start of a full 32 KiB window.
    let mut symbols = Vec::new();
    inflate_two_stage(&mut BitReader::new(&stream), &mut symbols, u64::MAX).unwrap();
    assert_eq!(symbols[10], MARKER_BASE + (32_768 - 500));
    assert_eq!(symbols[110], MARKER_BASE + (32_768 - 1000));
    let mut full_window = vec![0u8; 32_768 - 1000];
    full_window.extend_from_slice(&window);
    assert_eq!(replace_markers(&symbols, &full_window).unwrap(), out);
}

#[test]
fn one_byte_before_the_window_is_too_far() {
    let window: Vec<u8> = (0..1000).map(|i| (i * 31 % 253) as u8).collect();
    for (position, prelude) in [(0, vec![]), (10, literals(10, 4)), (700, literals(700, 4))] {
        let mut tokens = prelude;
        tokens.extend(matches(1, 5, (position + 1001) as u16));
        tokens.extend(literals(400, 6));
        let stream = fixed_stream(&tokens);
        assert_eq!(
            decode_both_ways(&stream, &window),
            Err(DeflateError::DistanceTooFar {
                distance: position + 1001,
                available: position + 1000,
            })
        );
        assert_eq!(
            decode_both_ways(&stream, &[]),
            Err(DeflateError::DistanceTooFar {
                distance: position + 1001,
                available: position,
            })
        );
    }
}

// --- (d) buffers with little room -------------------------------------------------------

/// Decodes `stream` into `out` and returns the capacity `out` ends up with.
fn capacity_after(stream: &[u8], mut out: Vec<u8>, expected: &[u8]) -> usize {
    let prefix = out.clone();
    inflate(&mut BitReader::new(stream), &[], &mut out, u64::MAX).unwrap();
    assert_eq!(&out[..prefix.len()], &prefix[..]);
    assert_eq!(&out[prefix.len()..], expected);
    out.capacity()
}

#[test]
fn decoding_reserves_no_more_than_appending_symbol_by_symbol_would() {
    let mut tokens = literals(3000, 7);
    for round in 0..300u16 {
        tokens.extend(matches(1, 258, 2000 + round));
        tokens.extend(literals(40, round as usize));
    }
    let stream = fixed_stream(&tokens);
    let (expected, _) = decode_both_ways(&stream, &[]).unwrap();
    let length = expected.len();
    assert_eq!(length, 3000 + 300 * 298);

    // A buffer that grows from nothing doubles its way up, as `Vec::push`
    // does: 131072 for these 92400 bytes, which is what the decoder before
    // this one (a `push` per literal, a `reserve` per match) ended up with.
    assert_eq!(capacity_after(&stream, Vec::new(), &expected), 131_072);
    // A recycled buffer that is large enough is left as it is, whether it
    // has a whole margin of room to spare, less, or none.
    for spare in [5000, 293, 292, 100, 1, 0] {
        let recycled = Vec::with_capacity(length + spare);
        assert_eq!(capacity_after(&stream, recycled, &expected), length + spare);
    }
    // So is one that holds something already.
    let mut recycled = Vec::with_capacity(length + 64);
    recycled.extend_from_slice(b"what was here before");
    assert_eq!(capacity_after(&stream, recycled, &expected), length + 64);
    // One that is too small grows once it is full, not before.
    let small = Vec::with_capacity(length - 1);
    assert_eq!(capacity_after(&stream, small, &expected), 2 * (length - 1));
}

#[test]
fn sixteen_bit_output_grows_the_same_way() {
    let mut tokens = literals(3000, 7);
    tokens.extend(matches(200, 258, 2999));
    let stream = fixed_stream(&tokens);
    let (expected, _) = decode_both_ways(&stream, &[]).unwrap();
    let widened: Vec<u16> = expected.iter().map(|&byte| byte as u16).collect();
    for mut symbols in [Vec::new(), Vec::with_capacity(expected.len() + 10)] {
        let capacity = symbols.capacity();
        inflate_two_stage(&mut BitReader::new(&stream), &mut symbols, u64::MAX).unwrap();
        assert_eq!(symbols, widened);
        if capacity == 0 {
            assert_eq!(symbols.capacity(), 65_536);
        } else {
            assert_eq!(symbols.capacity(), capacity);
        }
    }
}

// --- (e) short distances ------------------------------------------------------------------

#[test]
fn runs_of_the_longest_match_at_the_shortest_distances() {
    for distance in [1u16, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33] {
        let mut tokens = literals(40, distance as usize);
        tokens.extend(matches(5, 258, distance));
        tokens.extend(literals(3, 9));
        tokens.extend(matches(2, 258, distance));
        // Enough behind it that all of the above is decoded by the fast loop.
        tokens.extend(literals(2000, 1));
        let stream = fixed_stream(&tokens);
        let (out, _) = decode_both_ways(&stream, &[]).unwrap();
        let period = &out[40 - distance as usize..40];
        for (i, &byte) in out[40..40 + 5 * 258].iter().enumerate() {
            assert_eq!(byte, period[i % period.len()], "distance {distance}");
        }

        // Into a buffer with room from the start, so that the first matches
        // are the fast loop's too; and 16 bits wide.
        let mut roomy = Vec::with_capacity(8192);
        inflate(&mut BitReader::new(&stream), &[], &mut roomy, u64::MAX).unwrap();
        assert_eq!(roomy, out, "distance {distance}");
        let mut symbols = Vec::with_capacity(8192);
        inflate_two_stage(&mut BitReader::new(&stream), &mut symbols, u64::MAX).unwrap();
        let widened: Vec<u16> = out.iter().map(|&byte| byte as u16).collect();
        assert_eq!(symbols, widened, "distance {distance}");
    }
}

// --- distance codes with one symbol, and with none ------------------------------------------

/// A Dynamic Block of a thousand literals, a match of three whose distance
/// is the `code_bits` bits of `distance_code`, and more literals.
fn dynamic_stream(distance_lengths: &[u8], distance_code: u64, code_bits: u32) -> Vec<u8> {
    let literal_lengths = dynamic_literal_lengths();
    let literal = HuffmanEncoder::from_code_lengths(&literal_lengths).unwrap();
    let mut writer = BitWriter::new();
    write_dynamic_header(&mut writer, &literal_lengths, distance_lengths);
    write_tokens(&mut writer, &literal, None, &literals(1000, 8));
    literal.encode(&mut writer, 257).unwrap();
    writer.write_bits(distance_code, code_bits);
    write_tokens(&mut writer, &literal, None, &literals(600, 9));
    literal.encode(&mut writer, END_OF_BLOCK).unwrap();
    writer.finish()
}

/// Where the match's distance code starts in [`dynamic_stream`].
fn distance_code_position(stream_of_valid_match: &[u8]) -> u64 {
    let (_, end) = decode_both_ways(stream_of_valid_match, &[]).unwrap();
    // Behind it: 600 literals of nine bits, end-of-block in two, the bit.
    end - 2 - 600 * 9 - 1
}

#[test]
fn a_distance_code_with_one_symbol_has_one_valid_bit_pattern() {
    // "If only one distance code is used, it is encoded using one bit":
    // distance symbol 0 (distance 1) as the bit 0.
    let valid = dynamic_stream(&[1], 0, 1);
    let (out, _) = decode_both_ways(&valid, &[]).unwrap();
    assert_eq!(out.len(), 1000 + 3 + 600);
    assert_eq!(&out[1000..1003], &[out[999]; 3]);
    // libdeflate decodes the bit 1 as the same symbol; here it is no code.
    assert_eq!(
        decode_both_ways(&dynamic_stream(&[1], 1, 1), &[]),
        Err(DeflateError::InvalidDistanceCode(
            HuffmanError::InvalidCode {
                position: distance_code_position(&valid)
            }
        ))
    );
    // The one symbol may be any, of any length: symbol 3 in two bits.
    let (out, _) = decode_both_ways(&dynamic_stream(&[0, 0, 0, 2], 0, 2), &[]).unwrap();
    assert_eq!(&out[1000..1003], &out[996..999]);
}

#[test]
fn a_match_in_a_block_without_distance_codes_is_an_error() {
    assert_eq!(
        decode_both_ways(&dynamic_stream(&[0], 0, 1), &[]),
        Err(DeflateError::BackReferenceWithoutDistanceCode)
    );
    // Without a match the block is fine.
    let literal_lengths = dynamic_literal_lengths();
    let literal = HuffmanEncoder::from_code_lengths(&literal_lengths).unwrap();
    let mut writer = BitWriter::new();
    write_dynamic_header(&mut writer, &literal_lengths, &[0]);
    write_tokens(&mut writer, &literal, None, &literals(1500, 1));
    literal.encode(&mut writer, END_OF_BLOCK).unwrap();
    let (out, _) = decode_both_ways(&writer.finish(), &[]).unwrap();
    assert_eq!(out.len(), 1500);
}

#[test]
fn length_symbols_286_and_287_of_the_fixed_code_are_invalid() {
    let literal = HuffmanEncoder::from_code_lengths(&fixed_literal_lengths()).unwrap();
    for symbol in [286u16, 287] {
        let mut writer = BitWriter::new();
        writer.write_bits(0b011, 3);
        write_tokens(&mut writer, &literal, None, &literals(900, 2));
        literal.encode(&mut writer, symbol).unwrap();
        write_tokens(&mut writer, &literal, None, &literals(900, 3));
        literal.encode(&mut writer, END_OF_BLOCK).unwrap();
        assert_eq!(
            decode_both_ways(&writer.finish(), &[]),
            Err(DeflateError::InvalidLengthSymbol(symbol))
        );
    }
}

#[test]
fn distance_symbols_30_and_31_of_the_fixed_code_are_invalid() {
    let literal = HuffmanEncoder::from_code_lengths(&fixed_literal_lengths()).unwrap();
    let distance = HuffmanEncoder::from_code_lengths(&fixed_distance_lengths()).unwrap();
    for symbol in [30u16, 31] {
        let mut writer = BitWriter::new();
        writer.write_bits(0b011, 3);
        write_tokens(&mut writer, &literal, None, &literals(900, 2));
        literal.encode(&mut writer, 257).unwrap();
        distance.encode(&mut writer, symbol).unwrap();
        write_tokens(&mut writer, &literal, None, &literals(900, 3));
        literal.encode(&mut writer, END_OF_BLOCK).unwrap();
        assert_eq!(
            decode_both_ways(&writer.finish(), &[]),
            Err(DeflateError::InvalidDistanceSymbol(symbol))
        );
    }
}
