//! DEFLATE block header parsing shared by the one-stage inflater, the
//! two-stage inflater and the "custom deflate" block-finder variant.

use std::sync::OnceLock;

use rgz_bitio::BitReader;
use rgz_huffman::{HuffmanDecoder, MultiSymbolDecoder};

use crate::constants::*;
use crate::DeflateError;

/// The three DEFLATE block types (plus the reserved encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockType {
    /// BTYPE = 00 — Non-Compressed Block.
    Stored,
    /// BTYPE = 01 — compressed with the fixed Huffman codes.
    Fixed,
    /// BTYPE = 10 — compressed with dynamic Huffman codes.
    Dynamic,
}

impl BlockType {
    /// Decodes the two BTYPE bits.
    pub fn from_bits(bits: u64) -> Result<Self, DeflateError> {
        match bits {
            0b00 => Ok(BlockType::Stored),
            0b01 => Ok(BlockType::Fixed),
            0b10 => Ok(BlockType::Dynamic),
            _ => Err(DeflateError::ReservedBlockType),
        }
    }
}

/// A parsed block header: final-block flag plus type.
#[derive(Debug, Clone, Copy)]
pub struct BlockHeader {
    pub is_final: bool,
    pub block_type: BlockType,
}

/// Reads the 3-bit block header (BFINAL + BTYPE).
pub fn read_block_header(reader: &mut BitReader<'_>) -> Result<BlockHeader, DeflateError> {
    let is_final = reader.read_bit()?;
    let block_type = BlockType::from_bits(reader.read(2)?)?;
    Ok(BlockHeader {
        is_final,
        block_type,
    })
}

/// The pair of Huffman decoders a compressed block uses.
#[derive(Debug, Clone)]
pub struct BlockCodes {
    pub literal: HuffmanDecoder,
    /// `None` when the block declares no usable distance code; any
    /// back-reference is then an error.
    pub distance: Option<HuffmanDecoder>,
}

/// Builds the decoders for a Fixed Block (BTYPE = 01).
pub fn fixed_block_codes() -> BlockCodes {
    BlockCodes {
        literal: HuffmanDecoder::from_code_lengths(&fixed_literal_lengths())
            .expect("fixed literal code is valid"),
        distance: Some(
            HuffmanDecoder::from_code_lengths(&fixed_distance_lengths())
                .expect("fixed distance code is valid"),
        ),
    }
}

/// The decoders the fast path uses for a compressed block: the multi-symbol
/// literal table plus the single-symbol decoders it falls back to (over-long
/// codes, near-end-of-input tails) and the distance decoder.
///
/// One- and two-stage decoding share them: the table packs *literals*, which
/// are bytes in the stream whatever width the output has, and markers only
/// ever come out of match copies.  [`BlockCodes`] remains for the
/// single-symbol reference decoder.
#[derive(Debug, Clone)]
pub struct FastBlockCodes {
    /// Single-symbol literal/length decoder — the exact reference fallback.
    pub literal: HuffmanDecoder,
    /// Multi-symbol literal/length fast table.
    pub literal_fast: MultiSymbolDecoder,
    /// `None` when the block declares no usable distance code; any
    /// back-reference is then an error.
    pub distance: Option<HuffmanDecoder>,
}

/// Fixed-block decoders for the fast path, built once per process: unlike
/// Dynamic Blocks the fixed code never changes, so rebuilding its tables for
/// every Fixed Block (as [`fixed_block_codes`] does) is pure overhead.
pub fn fixed_block_codes_fast() -> &'static FastBlockCodes {
    static CODES: OnceLock<FastBlockCodes> = OnceLock::new();
    CODES.get_or_init(|| {
        let literal_lengths = fixed_literal_lengths();
        FastBlockCodes {
            literal: HuffmanDecoder::from_code_lengths(&literal_lengths)
                .expect("fixed literal code is valid"),
            literal_fast: MultiSymbolDecoder::from_code_lengths(&literal_lengths)
                .expect("fixed literal code is valid"),
            distance: Some(
                HuffmanDecoder::from_code_lengths(&fixed_distance_lengths())
                    .expect("fixed distance code is valid"),
            ),
        }
    })
}

/// Parses a Dynamic Block header and builds the fast-path decoders for its
/// body (the multi-symbol table plus the single-symbol fallback).
pub fn dynamic_block_codes_fast(
    reader: &mut BitReader<'_>,
) -> Result<FastBlockCodes, DeflateError> {
    let header = parse_dynamic_header(reader)?;
    let literal = HuffmanDecoder::from_code_lengths(&header.literal_lengths)
        .map_err(DeflateError::InvalidLiteralCode)?;
    let literal_fast = MultiSymbolDecoder::from_code_lengths(&header.literal_lengths)
        .map_err(DeflateError::InvalidLiteralCode)?;
    let distance = match HuffmanDecoder::from_code_lengths(&header.distance_lengths) {
        Ok(decoder) => Some(decoder),
        Err(rgz_huffman::HuffmanError::EmptyAlphabet) => None,
        Err(error) => return Err(DeflateError::InvalidDistanceCode(error)),
    };
    Ok(FastBlockCodes {
        literal,
        literal_fast,
        distance,
    })
}

/// Raw contents of a Dynamic Block header, exposed for the block finder and
/// for tests.
#[derive(Debug, Clone)]
pub struct DynamicHeader {
    pub literal_lengths: Vec<u8>,
    pub distance_lengths: Vec<u8>,
}

/// Parses a Dynamic Block header (everything between BTYPE and the first
/// compressed symbol) and returns the code-length vectors.
///
/// All the structural checks the paper lists in §3.4.2 are applied: HLIT must
/// not exceed 286 symbols, the precode must form a valid code, the
/// precode-encoded run-length data must not overflow or start with a repeat,
/// and both final alphabets must form valid codes (checked by the caller when
/// it builds [`HuffmanDecoder`]s).
pub fn parse_dynamic_header(reader: &mut BitReader<'_>) -> Result<DynamicHeader, DeflateError> {
    let literal_count = reader.read(5)? as usize + 257;
    if literal_count > 286 {
        return Err(DeflateError::InvalidLiteralCodeCount(literal_count as u16));
    }
    let distance_count = reader.read(5)? as usize + 1;
    if distance_count > 30 {
        return Err(DeflateError::InvalidDistanceCodeCount(
            distance_count as u16,
        ));
    }
    let precode_count = reader.read(4)? as usize + 4;

    let mut precode_lengths = [0u8; PRECODE_ALPHABET_SIZE];
    for &position in PRECODE_ORDER.iter().take(precode_count) {
        precode_lengths[position] = reader.read(3)? as u8;
    }
    let precode = HuffmanDecoder::from_code_lengths(&precode_lengths)
        .map_err(DeflateError::InvalidPrecode)?;

    let total = literal_count + distance_count;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let symbol = precode
            .decode(reader)
            .map_err(DeflateError::InvalidPrecode)?;
        match symbol {
            0..=15 => lengths.push(symbol as u8),
            16 => {
                let &previous = lengths
                    .last()
                    .ok_or(DeflateError::RepeatWithoutPreviousLength)?;
                let repeat = reader.read(2)? as usize + 3;
                if lengths.len() + repeat > total {
                    return Err(DeflateError::CodeLengthOverflow);
                }
                lengths.extend(std::iter::repeat_n(previous, repeat));
            }
            17 => {
                let repeat = reader.read(3)? as usize + 3;
                if lengths.len() + repeat > total {
                    return Err(DeflateError::CodeLengthOverflow);
                }
                lengths.extend(std::iter::repeat_n(0u8, repeat));
            }
            18 => {
                let repeat = reader.read(7)? as usize + 11;
                if lengths.len() + repeat > total {
                    return Err(DeflateError::CodeLengthOverflow);
                }
                lengths.extend(std::iter::repeat_n(0u8, repeat));
            }
            _ => return Err(DeflateError::CodeLengthOverflow),
        }
    }

    let distance_lengths = lengths.split_off(literal_count);
    Ok(DynamicHeader {
        literal_lengths: lengths,
        distance_lengths,
    })
}

/// Parses a Dynamic Block header and builds the decoders for its body.
pub fn dynamic_block_codes(reader: &mut BitReader<'_>) -> Result<BlockCodes, DeflateError> {
    let header = parse_dynamic_header(reader)?;
    let literal = HuffmanDecoder::from_code_lengths(&header.literal_lengths)
        .map_err(DeflateError::InvalidLiteralCode)?;
    let distance = match HuffmanDecoder::from_code_lengths(&header.distance_lengths) {
        Ok(decoder) => Some(decoder),
        Err(rgz_huffman::HuffmanError::EmptyAlphabet) => None,
        Err(error) => return Err(DeflateError::InvalidDistanceCode(error)),
    };
    Ok(BlockCodes { literal, distance })
}

/// Reads the LEN/NLEN header of a Non-Compressed Block (after byte
/// alignment) and returns the payload length.
pub fn read_stored_header(reader: &mut BitReader<'_>) -> Result<usize, DeflateError> {
    reader.align_to_byte();
    let length = reader.read_u16_le()?;
    let complement = reader.read_u16_le()?;
    if length != !complement {
        return Err(DeflateError::StoredLengthMismatch { length, complement });
    }
    Ok(length as usize)
}

/// Resolves a literal/length symbol above 256 to a match length.
#[inline]
pub fn decode_length(symbol: u16, reader: &mut BitReader<'_>) -> Result<usize, DeflateError> {
    if !(257..=285).contains(&symbol) {
        return Err(DeflateError::InvalidLengthSymbol(symbol));
    }
    let index = (symbol - 257) as usize;
    let extra = reader.read(LENGTH_EXTRA_BITS[index] as u32)? as usize;
    Ok(LENGTH_BASE[index] as usize + extra)
}

/// Resolves a distance symbol to a match distance.
///
/// `distance_decoder` is `None` when the block declared no usable distance
/// code (see [`BlockCodes::distance`] / [`FastBlockCodes::distance`]).
#[inline]
pub fn decode_distance(
    distance_decoder: Option<&HuffmanDecoder>,
    reader: &mut BitReader<'_>,
) -> Result<usize, DeflateError> {
    let decoder = distance_decoder.ok_or(DeflateError::BackReferenceWithoutDistanceCode)?;
    let symbol = decoder
        .decode(reader)
        .map_err(DeflateError::InvalidDistanceCode)?;
    if symbol as usize >= DISTANCE_BASE.len() {
        return Err(DeflateError::InvalidDistanceSymbol(symbol));
    }
    let index = symbol as usize;
    let extra = reader.read(DISTANCE_EXTRA_BITS[index] as u32)? as usize;
    Ok(DISTANCE_BASE[index] as usize + extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_bitio::BitWriter;

    #[test]
    fn block_type_bits_round_trip() {
        assert_eq!(BlockType::from_bits(0b00).unwrap(), BlockType::Stored);
        assert_eq!(BlockType::from_bits(0b01).unwrap(), BlockType::Fixed);
        assert_eq!(BlockType::from_bits(0b10).unwrap(), BlockType::Dynamic);
        assert!(BlockType::from_bits(0b11).is_err());
    }

    #[test]
    fn stored_header_checks_complement() {
        let mut writer = BitWriter::new();
        writer.write_bits(0, 3); // header bits, to force alignment skip
        writer.align_to_byte();
        writer.write_bits(5, 16);
        writer.write_bits((!5u16) as u64, 16);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        reader.read(3).unwrap();
        assert_eq!(read_stored_header(&mut reader).unwrap(), 5);

        let mut writer = BitWriter::new();
        writer.write_bits(5, 16);
        writer.write_bits(1234, 16);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        assert!(matches!(
            read_stored_header(&mut reader),
            Err(DeflateError::StoredLengthMismatch { .. })
        ));
    }

    #[test]
    fn fixed_codes_build() {
        let codes = fixed_block_codes();
        assert_eq!(codes.literal.max_code_length(), 9);
        assert_eq!(codes.distance.unwrap().max_code_length(), 5);
    }

    #[test]
    fn dynamic_header_rejects_bad_counts() {
        // HLIT = 31 (-> 288 literal codes) is invalid.
        let mut writer = BitWriter::new();
        writer.write_bits(31, 5);
        writer.write_bits(0, 5);
        writer.write_bits(0, 4);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        assert!(matches!(
            parse_dynamic_header(&mut reader),
            Err(DeflateError::InvalidLiteralCodeCount(288))
        ));
    }

    #[test]
    fn repeat_without_previous_length_is_rejected() {
        // Build a header whose first precode symbol is 16 (copy previous).
        let mut writer = BitWriter::new();
        writer.write_bits(0, 5); // HLIT -> 257
        writer.write_bits(0, 5); // HDIST -> 1
        writer.write_bits(15, 4); // HCLEN -> 19
                                  // Precode lengths: give symbols 16 and 0 length 1, everything else 0.
        for &position in PRECODE_ORDER.iter() {
            let length = if position == 16 || position == 0 {
                1
            } else {
                0
            };
            writer.write_bits(length, 3);
        }
        // Canonical code: symbol 0 -> 0, symbol 16 -> 1. Emit symbol 16 first.
        writer.write_huffman_code(1, 1);
        writer.write_bits(0, 2);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        assert!(matches!(
            parse_dynamic_header(&mut reader),
            Err(DeflateError::RepeatWithoutPreviousLength)
        ));
    }

    #[test]
    fn truncated_dynamic_header_reports_eof() {
        let bytes = [0b1010_1010u8];
        let mut reader = BitReader::new(&bytes);
        assert!(parse_dynamic_header(&mut reader).is_err());
    }
}
