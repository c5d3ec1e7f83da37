//! Table-driven canonical Huffman decoder.

use rgz_bitio::{reverse_bits, BitReader};

use crate::{
    canonical_codes, classify_code_lengths, CodeCompleteness, HuffmanError, MAX_CODE_LENGTH,
};

/// A single-level lookup-table decoder for canonical Huffman codes.
///
/// The table is indexed with `max_length` bits peeked LSB-first from the
/// stream; each entry stores the decoded symbol and its code length so that
/// exactly one peek and one consume are needed per symbol. This mirrors the
/// decoder the paper describes as "always requesting the maximum Huffman code
/// length, which is 15 bits for Deflate" (§4.1).
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Entry layout: low 16 bits = symbol, bits 16..24 = code length
    /// (0 means the bit pattern is not a valid code).
    table: Vec<u32>,
    max_length: u32,
    symbol_count: u16,
}

impl HuffmanDecoder {
    /// Builds a decoder from per-symbol code lengths (0 = symbol unused).
    ///
    /// The code must be *complete*, or the single-symbol incomplete code that
    /// DEFLATE explicitly allows for the distance alphabet.
    pub fn from_code_lengths(lengths: &[u8]) -> Result<Self, HuffmanError> {
        let max_length = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_length == 0 {
            return Err(HuffmanError::EmptyAlphabet);
        }
        if max_length > MAX_CODE_LENGTH {
            return Err(HuffmanError::LengthTooLarge {
                length: max_length as u8,
                maximum: MAX_CODE_LENGTH,
            });
        }
        let used = lengths.iter().filter(|&&l| l > 0).count();
        match classify_code_lengths(lengths) {
            CodeCompleteness::Complete => {}
            CodeCompleteness::Incomplete if used == 1 => {}
            CodeCompleteness::Incomplete => return Err(HuffmanError::Incomplete),
            CodeCompleteness::Oversubscribed => return Err(HuffmanError::Oversubscribed),
            CodeCompleteness::Empty => return Err(HuffmanError::EmptyAlphabet),
        }

        let codes = canonical_codes(lengths);
        let table_size = 1usize << max_length;
        let mut table = vec![0u32; table_size];
        for (symbol, &(code, length)) in codes.iter().enumerate() {
            if length == 0 {
                continue;
            }
            let length = length as u32;
            // The code is defined MSB-first but the stream delivers its bits
            // LSB-first, so the low `length` bits of the peeked value are the
            // reversed code; every choice of the remaining high bits maps to
            // the same symbol.
            let reversed = reverse_bits(code, length) as usize;
            let step = 1usize << length;
            let entry = (length << 16) | symbol as u32;
            let mut index = reversed;
            while index < table_size {
                table[index] = entry;
                index += step;
            }
        }
        Ok(Self {
            table,
            max_length,
            symbol_count: lengths.len() as u16,
        })
    }

    /// The longest code length in this code; also the number of bits peeked
    /// per decode.
    #[inline]
    pub fn max_code_length(&self) -> u32 {
        self.max_length
    }

    /// Number of symbols in the alphabet this decoder was built for.
    #[inline]
    pub fn alphabet_size(&self) -> u16 {
        self.symbol_count
    }

    /// Decodes one symbol from `reader`.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let peeked = reader.peek(self.max_length) as usize;
        let entry = self.table[peeked];
        let length = entry >> 16;
        if length == 0 {
            return Err(HuffmanError::InvalidCode {
                position: reader.position(),
            });
        }
        if (length as u64) > reader.remaining_bits() {
            return Err(HuffmanError::UnexpectedEof);
        }
        reader.consume(length)?;
        Ok((entry & 0xFFFF) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HuffmanEncoder;
    use proptest::prelude::*;
    use rgz_bitio::BitWriter;

    fn round_trip(lengths: &[u8], symbols: &[u16]) -> Vec<u16> {
        let encoder = HuffmanEncoder::from_code_lengths(lengths).unwrap();
        let mut writer = BitWriter::new();
        for &symbol in symbols {
            encoder.encode(&mut writer, symbol).unwrap();
        }
        let bytes = writer.finish();
        let decoder = HuffmanDecoder::from_code_lengths(lengths).unwrap();
        let mut reader = BitReader::new(&bytes);
        symbols
            .iter()
            .map(|_| decoder.decode(&mut reader).unwrap())
            .collect()
    }

    #[test]
    fn decode_rfc_example_code() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let symbols = [5u16, 0, 7, 6, 5, 1, 2, 3, 4, 5];
        assert_eq!(round_trip(&lengths, &symbols), symbols);
    }

    #[test]
    fn rejects_invalid_codes() {
        assert!(matches!(
            HuffmanDecoder::from_code_lengths(&[1, 1, 1]),
            Err(HuffmanError::Oversubscribed)
        ));
        assert!(matches!(
            HuffmanDecoder::from_code_lengths(&[2, 2, 2]),
            Err(HuffmanError::Incomplete)
        ));
        assert!(matches!(
            HuffmanDecoder::from_code_lengths(&[0, 0]),
            Err(HuffmanError::EmptyAlphabet)
        ));
    }

    #[test]
    fn single_symbol_code_is_allowed() {
        // DEFLATE: "If only one distance code is used, it is encoded using
        // one bit" — one length-1 code, incomplete but legal.
        let decoder = HuffmanDecoder::from_code_lengths(&[0, 1, 0]).unwrap();
        let mut writer = BitWriter::new();
        writer.write_bits(0, 1);
        writer.write_bits(0, 1);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        assert_eq!(decoder.decode(&mut reader).unwrap(), 1);
        assert_eq!(decoder.decode(&mut reader).unwrap(), 1);
    }

    #[test]
    fn invalid_bit_pattern_reports_position() {
        // Single-symbol code: the pattern `1` is not a valid code.
        let decoder = HuffmanDecoder::from_code_lengths(&[1, 0]).unwrap();
        let bytes = [0b0000_0001u8];
        let mut reader = BitReader::new(&bytes);
        match decoder.decode(&mut reader) {
            Err(HuffmanError::InvalidCode { position }) => assert_eq!(position, 0),
            other => panic!("expected invalid code, got {other:?}"),
        }
    }

    #[test]
    fn eof_inside_code_is_detected() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let decoder = HuffmanDecoder::from_code_lengths(&lengths).unwrap();
        // Write only 2 bits of a 3-bit code.
        let bytes: Vec<u8> = vec![];
        let mut reader = BitReader::new(&bytes);
        assert!(matches!(
            decoder.decode(&mut reader),
            Err(HuffmanError::InvalidCode { .. }) | Err(HuffmanError::UnexpectedEof)
        ));
    }

    #[test]
    fn fixed_literal_code_decodes_all_symbols() {
        let mut lengths = vec![8u8; 144];
        lengths.extend(vec![9u8; 112]);
        lengths.extend(vec![7u8; 24]);
        lengths.extend(vec![8u8; 8]);
        let symbols: Vec<u16> = (0..288u16).collect();
        assert_eq!(round_trip(&lengths, &symbols), symbols);
    }

    proptest! {
        #[test]
        fn random_complete_codes_round_trip(
            seed_lengths in proptest::collection::vec(1u32..2000, 2..60),
            picks in proptest::collection::vec(any::<u16>(), 1..200),
        ) {
            // Build a complete code from random frequencies via package-merge.
            let lengths = crate::compute_code_lengths(&seed_lengths, MAX_CODE_LENGTH).unwrap();
            prop_assume!(lengths.iter().filter(|&&l| l > 0).count() >= 2);
            let used: Vec<u16> = lengths.iter().enumerate()
                .filter(|(_, &l)| l > 0)
                .map(|(i, _)| i as u16)
                .collect();
            let symbols: Vec<u16> = picks.iter().map(|&p| used[p as usize % used.len()]).collect();
            prop_assert_eq!(round_trip(&lengths, &symbols), symbols);
        }
    }
}
