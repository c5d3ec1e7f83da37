//! DEFLATE block header parsing shared by the one-stage inflater, the
//! two-stage inflater and the "custom deflate" block-finder variant.

use std::sync::OnceLock;

use rgz_bitio::BitReader;
use rgz_huffman::{DecodeTable, HuffmanDecoder, HuffmanError, ENTRY_EXCEPTIONAL, ENTRY_INVALID};

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

/// The literal/length decode table: 11 bits resolve every code a typical
/// block uses in one lookup, and the whole table stays under 10 KiB.
pub type LiteralTable = DecodeTable<11, 2342>;
/// The distance decode table.
pub type DistanceTable = DecodeTable<8, 402>;

/// Set in the [`LiteralTable`] entry of a literal; its byte is the payload.
pub const ENTRY_LITERAL: u32 = 1 << 31;
/// The [`LiteralTable`] entry flags of the end-of-block symbol.
pub const ENTRY_END_OF_BLOCK: u32 = ENTRY_EXCEPTIONAL | (1 << 13);

/// What each literal/length symbol's table entry holds besides its code
/// length: the literal byte, or the base match length and the number of
/// extra bits.  Symbols 286 and 287 have codes in the fixed alphabet but
/// must not occur.
const LITERAL_TEMPLATES: [u32; LITERAL_ALPHABET_SIZE] = {
    let mut templates = [ENTRY_INVALID; LITERAL_ALPHABET_SIZE];
    let mut symbol = 0;
    while symbol < 256 {
        templates[symbol] = ENTRY_LITERAL | ((symbol as u32) << 16);
        symbol += 1;
    }
    templates[END_OF_BLOCK as usize] = ENTRY_END_OF_BLOCK;
    let mut index = 0;
    while index < LENGTH_BASE.len() {
        templates[257 + index] =
            ((LENGTH_BASE[index] as u32) << 16) | LENGTH_EXTRA_BITS[index] as u32;
        index += 1;
    }
    templates
};

/// The same for distance symbols: base distance and extra-bit count, with
/// symbols 30 and 31 invalid.
const DISTANCE_TEMPLATES: [u32; DISTANCE_ALPHABET_SIZE] = {
    let mut templates = [ENTRY_INVALID; DISTANCE_ALPHABET_SIZE];
    let mut index = 0;
    while index < DISTANCE_BASE.len() {
        templates[index] =
            ((DISTANCE_BASE[index] as u32) << 16) | DISTANCE_EXTRA_BITS[index] as u32;
        index += 1;
    }
    templates
};

/// Builds the literal/length table of a block from its code lengths.
pub fn build_literal_table(table: &mut LiteralTable, lengths: &[u8]) -> Result<(), HuffmanError> {
    table.build(lengths, &LITERAL_TEMPLATES)
}

/// Builds the distance table of a block from its code lengths.
pub fn build_distance_table(table: &mut DistanceTable, lengths: &[u8]) -> Result<(), HuffmanError> {
    table.build(lengths, &DISTANCE_TEMPLATES)
}

/// The two decode tables of the compressed block being decoded by the fast
/// loop.  One value lives for a whole inflate call and is rebuilt in place
/// for every Dynamic Block (a few microseconds, no allocation); the fixed
/// code's tables are built once per process.
///
/// One- and two-stage decoding share them: literals are bytes in the stream
/// whatever width the output has, and markers only ever come out of match
/// copies.  [`BlockCodes`] remains for the single-symbol reference decoder.
#[derive(Debug, Clone)]
pub struct BlockTables {
    pub(crate) literal: LiteralTable,
    /// Every entry invalid when the block declares no distance code.
    pub(crate) distance: DistanceTable,
    /// The code lengths the tables were built from; `None` for the fixed
    /// code.  Kept for [`BlockTables::reference_codes`].
    header: Option<DynamicHeader>,
}

impl Default for BlockTables {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockTables {
    /// Tables in which every bit pattern is invalid.
    pub fn new() -> Self {
        Self {
            literal: LiteralTable::new(),
            distance: DistanceTable::new(),
            header: None,
        }
    }

    /// The tables of a Fixed Block (BTYPE = 01).
    pub fn fixed() -> &'static BlockTables {
        static TABLES: OnceLock<BlockTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut tables = BlockTables::new();
            build_literal_table(&mut tables.literal, &fixed_literal_lengths())
                .expect("fixed literal code is valid");
            build_distance_table(&mut tables.distance, &fixed_distance_lengths())
                .expect("fixed distance code is valid");
            tables
        })
    }

    /// Rebuilds the tables for the body of the Dynamic Block with this
    /// `header`.  Fails on exactly the code lengths [`dynamic_block_codes`]
    /// fails on, with the same errors.
    pub fn build_dynamic(&mut self, header: DynamicHeader) -> Result<(), DeflateError> {
        let header = self.header.insert(header);
        build_literal_table(&mut self.literal, header.literal_lengths())
            .map_err(DeflateError::InvalidLiteralCode)?;
        match build_distance_table(&mut self.distance, header.distance_lengths()) {
            Ok(()) => {}
            Err(HuffmanError::EmptyAlphabet) => self.distance.clear(),
            Err(error) => return Err(DeflateError::InvalidDistanceCode(error)),
        }
        Ok(())
    }

    /// The single-symbol reference decoders of the same block.  Their 15-bit
    /// tables cost ten times what these tables do, so they are built only
    /// when the fast loop has met something it leaves to the reference to
    /// report: an invalid code, a symbol that must not occur, the end of
    /// input inside a symbol.
    #[cold]
    pub fn reference_codes(&self) -> BlockCodes {
        match &self.header {
            None => fixed_block_codes(),
            Some(header) => header
                .block_codes()
                .expect("the tables were built from these code lengths"),
        }
    }
}

/// The code lengths of a Dynamic Block header, exposed for the bench harness
/// and tests.
#[derive(Debug, Clone)]
pub struct DynamicHeader {
    /// Literal/length code lengths, then the distance code lengths.
    lengths: [u8; MAX_DYNAMIC_CODE_LENGTHS],
    literal_count: usize,
    distance_count: usize,
}

/// HLIT at its largest, and what HDIST's five bits can hold.
const MAX_DYNAMIC_CODE_LENGTHS: usize = 286 + 32;

impl DynamicHeader {
    /// Code lengths of the literal/length alphabet (257 to 286 of them).
    pub fn literal_lengths(&self) -> &[u8] {
        &self.lengths[..self.literal_count]
    }

    /// Code lengths of the distance alphabet (1 to 30 of them in a block
    /// that decodes).
    pub fn distance_lengths(&self) -> &[u8] {
        &self.lengths[self.literal_count..self.literal_count + self.distance_count]
    }

    /// Builds the reference decoders for the block's body.
    fn block_codes(&self) -> Result<BlockCodes, DeflateError> {
        let literal = HuffmanDecoder::from_code_lengths(self.literal_lengths())
            .map_err(DeflateError::InvalidLiteralCode)?;
        let distance = match HuffmanDecoder::from_code_lengths(self.distance_lengths()) {
            Ok(decoder) => Some(decoder),
            Err(HuffmanError::EmptyAlphabet) => None,
            Err(error) => return Err(DeflateError::InvalidDistanceCode(error)),
        };
        Ok(BlockCodes { literal, distance })
    }
}

/// Parses a Dynamic Block header (everything between BTYPE and the first
/// compressed symbol) and returns the code lengths, without allocating.
///
/// All the structural checks the paper lists in §3.4.2 are applied: HLIT must
/// not exceed 286 symbols, the precode must form a valid code, the
/// precode-encoded run-length data must not overflow or start with a repeat,
/// and both final alphabets must form valid codes (checked by the caller when
/// it builds its tables).
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
    parse_code_lengths(reader, literal_count, distance_count)
}

/// The rest of a Dynamic Block header after HLIT and HDIST: HCLEN, the
/// precode, and the `literal_count + distance_count` code lengths it encodes.
///
/// The counts are the caller's to check: the block finder, which reports
/// what each candidate header fails on (Table 1), passes every HDIST the five
/// bits can hold.
pub fn parse_code_lengths(
    reader: &mut BitReader<'_>,
    literal_count: usize,
    distance_count: usize,
) -> Result<DynamicHeader, DeflateError> {
    let precode_count = reader.read(4)? as usize + 4;

    let mut precode_lengths = [0u8; PRECODE_ALPHABET_SIZE];
    for &position in PRECODE_ORDER.iter().take(precode_count) {
        precode_lengths[position] = reader.read(3)? as u8;
    }
    let precode = HuffmanDecoder::from_code_lengths(&precode_lengths)
        .map_err(DeflateError::InvalidPrecode)?;

    let total = literal_count + distance_count;
    let mut lengths = [0u8; MAX_DYNAMIC_CODE_LENGTHS];
    let mut filled = 0;
    while filled < total {
        let symbol = precode
            .decode(reader)
            .map_err(DeflateError::InvalidPrecode)?;
        let (value, repeat) = match symbol {
            0..=15 => (symbol as u8, 1),
            16 => {
                if filled == 0 {
                    return Err(DeflateError::RepeatWithoutPreviousLength);
                }
                (lengths[filled - 1], reader.read(2)? as usize + 3)
            }
            17 => (0, reader.read(3)? as usize + 3),
            18 => (0, reader.read(7)? as usize + 11),
            _ => return Err(DeflateError::CodeLengthOverflow),
        };
        if filled + repeat > total {
            return Err(DeflateError::CodeLengthOverflow);
        }
        lengths[filled..filled + repeat].fill(value);
        filled += repeat;
    }
    Ok(DynamicHeader {
        lengths,
        literal_count,
        distance_count,
    })
}

/// Parses a Dynamic Block header and builds the reference decoders for its
/// body.
pub fn dynamic_block_codes(reader: &mut BitReader<'_>) -> Result<BlockCodes, DeflateError> {
    parse_dynamic_header(reader)?.block_codes()
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
/// code (see [`BlockCodes::distance`]).
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
    use rgz_huffman::{entry_code_length, entry_consumed_bits, entry_payload};

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

    /// What the reference decoder makes of the next bits of `pattern`.
    fn reference_symbol(decoder: &HuffmanDecoder, pattern: u32) -> Option<(u16, u32)> {
        let mut bytes = [0u8; 10];
        bytes[..4].copy_from_slice(&pattern.to_le_bytes());
        let mut reader = BitReader::new(&bytes);
        let symbol = decoder.decode(&mut reader).ok()?;
        Some((symbol, reader.position() as u32))
    }

    #[test]
    fn fixed_tables_resolve_like_the_reference_decoders() {
        let tables = BlockTables::fixed();
        let reference = fixed_block_codes();
        for pattern in 0..1u32 << 15 {
            let (symbol, length) = reference_symbol(&reference.literal, pattern).unwrap();
            let (entry, resolved_length) = tables.literal.resolve(pattern as u64).unwrap();
            assert_eq!(resolved_length, length);
            match symbol {
                0..=255 => {
                    assert_ne!(entry & ENTRY_LITERAL, 0);
                    assert_eq!(entry_payload(entry) & 0xFF, symbol as u32);
                }
                END_OF_BLOCK => assert_eq!(entry & ENTRY_END_OF_BLOCK, ENTRY_END_OF_BLOCK),
                // Coded, but never to be used.
                286 | 287 => assert_eq!(entry & !0xFFF, ENTRY_INVALID),
                _ => {
                    assert_eq!(entry & (ENTRY_LITERAL | ENTRY_EXCEPTIONAL), 0);
                    let index = symbol as usize - 257;
                    assert_eq!(entry_payload(entry), LENGTH_BASE[index] as u32);
                }
            }

            let (symbol, length) =
                reference_symbol(reference.distance.as_ref().unwrap(), pattern).unwrap();
            let (entry, resolved_length) = tables.distance.resolve(pattern as u64).unwrap();
            assert_eq!(resolved_length, length);
            if symbol >= 30 {
                assert_eq!(entry & !0xFFF, ENTRY_INVALID);
            } else {
                assert_eq!(entry & ENTRY_EXCEPTIONAL, 0);
                assert_eq!(entry_payload(entry), DISTANCE_BASE[symbol as usize] as u32);
            }
        }
    }

    #[test]
    fn length_and_distance_entries_hold_base_and_extra_bits() {
        // Every length symbol and the end-of-block symbol in five bits, one
        // literal in four.
        let mut lengths = vec![0u8; 286];
        lengths[0] = 4;
        lengths[256..].fill(5);
        let mut table = LiteralTable::new();
        build_literal_table(&mut table, &lengths).unwrap();
        let codes = rgz_huffman::canonical_codes(&lengths);
        for (symbol, &(code, length)) in codes.iter().enumerate().skip(257) {
            let bits = rgz_bitio::reverse_bits(code, length as u32) as u64;
            let (entry, code_length) = table.resolve(bits).unwrap();
            let index = symbol - 257;
            assert_eq!(code_length, 5);
            assert_eq!(entry_payload(entry), LENGTH_BASE[index] as u32);
            assert_eq!(entry_code_length(entry), 5);
            assert_eq!(
                entry_consumed_bits(entry),
                5 + LENGTH_EXTRA_BITS[index] as u32
            );
        }

        let lengths = [5u8; 30];
        let mut table = DistanceTable::new();
        assert_eq!(
            build_distance_table(&mut table, &lengths),
            Err(HuffmanError::Incomplete)
        );
        let mut lengths = [5u8; 32];
        lengths[30..].fill(0);
        lengths[..2].fill(4);
        build_distance_table(&mut table, &lengths[..30]).unwrap();
        let codes = rgz_huffman::canonical_codes(&lengths);
        for (symbol, &(code, length)) in codes.iter().enumerate().take(30) {
            let bits = rgz_bitio::reverse_bits(code, length as u32) as u64;
            let (entry, code_length) = table.resolve(bits).unwrap();
            assert_eq!(code_length, length as u32);
            assert_eq!(entry_payload(entry), DISTANCE_BASE[symbol] as u32);
            assert_eq!(
                entry_consumed_bits(entry),
                length as u32 + DISTANCE_EXTRA_BITS[symbol] as u32
            );
        }
    }

    #[test]
    fn dynamic_tables_fail_where_the_reference_codes_fail() {
        let header = |literal: &[u8], distance: &[u8]| {
            let mut lengths = [0u8; MAX_DYNAMIC_CODE_LENGTHS];
            lengths[..literal.len()].copy_from_slice(literal);
            lengths[literal.len()..literal.len() + distance.len()].copy_from_slice(distance);
            DynamicHeader {
                lengths,
                literal_count: literal.len(),
                distance_count: distance.len(),
            }
        };
        let mut complete = vec![8u8; 256];
        complete.push(0);
        let cases = [
            // A valid block; one without a distance code; one with a single.
            header(&complete, &[1, 1]),
            header(&complete, &[0, 0]),
            header(&complete, &[0, 7]),
            // Incomplete and over-subscribed codes, in either alphabet.
            header(&complete[..255], &[1, 1]),
            header(&[vec![1u8; 3], complete.clone()].concat()[..257], &[1, 1]),
            header(&complete, &[2, 2, 2]),
            header(&complete, &[1, 1, 1]),
        ];
        let mut tables = BlockTables::new();
        for header in cases {
            let reference = header.block_codes().map(drop);
            assert_eq!(tables.build_dynamic(header.clone()).err(), reference.err());
        }
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
