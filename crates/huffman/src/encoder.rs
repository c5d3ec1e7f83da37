//! Canonical Huffman encoder used by the DEFLATE compressor.

use rgz_bitio::BitWriter;

use crate::{
    canonical_codes, classify_code_lengths, CodeCompleteness, HuffmanError, MAX_CODE_LENGTH,
};

/// One symbol's code as it goes onto the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Code {
    /// The code's bits in stream order: the canonical (MSB-first) code
    /// reversed, ready for an LSB-first [`BitWriter::write_bits`].
    pub bits: u16,
    /// Code length in bits; 0 means "no code assigned".
    pub length: u8,
}

/// Encodes symbols with a canonical Huffman code defined by code lengths.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    codes: Vec<Code>,
}

impl HuffmanEncoder {
    /// Builds an encoder from per-symbol code lengths (0 = symbol unused).
    ///
    /// Unlike the decoder, incomplete codes are accepted as long as they are
    /// not over-subscribed: the compressor only ever *emits* symbols that have
    /// codes, and DEFLATE's single-distance-code special case is incomplete by
    /// definition.
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
        if classify_code_lengths(lengths) == CodeCompleteness::Oversubscribed {
            return Err(HuffmanError::Oversubscribed);
        }
        let codes = canonical_codes(lengths)
            .into_iter()
            .map(|(code, length)| Code {
                bits: rgz_bitio::reverse_bits(code, length as u32) as u16,
                length,
            })
            .collect();
        Ok(Self { codes })
    }

    /// Writes the code for `symbol` to `writer`.
    #[inline]
    pub fn encode(&self, writer: &mut BitWriter, symbol: u16) -> Result<(), HuffmanError> {
        match self.codes.get(symbol as usize) {
            Some(code) if code.length > 0 => {
                writer.write_bits(code.bits as u64, code.length as u32);
                Ok(())
            }
            _ => Err(HuffmanError::SymbolWithoutCode { symbol }),
        }
    }

    /// Every symbol's code, indexed by symbol, for callers that merge a code
    /// with the bits that follow it into one write.
    #[inline]
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// Code length assigned to `symbol` (0 if unused).
    #[inline]
    pub fn code_length(&self, symbol: u16) -> u8 {
        self.codes
            .get(symbol as usize)
            .map(|code| code.length)
            .unwrap_or(0)
    }

    /// Number of symbols in the alphabet.
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.codes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_oversubscribed_codes() {
        assert!(matches!(
            HuffmanEncoder::from_code_lengths(&[1, 1, 1]),
            Err(HuffmanError::Oversubscribed)
        ));
    }

    #[test]
    fn accepts_incomplete_codes() {
        let encoder = HuffmanEncoder::from_code_lengths(&[1, 0]).unwrap();
        assert_eq!(encoder.code_length(0), 1);
        assert_eq!(encoder.code_length(1), 0);
    }

    #[test]
    fn refuses_symbols_without_codes() {
        let encoder = HuffmanEncoder::from_code_lengths(&[1, 1, 0]).unwrap();
        let mut writer = BitWriter::new();
        assert!(encoder.encode(&mut writer, 0).is_ok());
        assert!(matches!(
            encoder.encode(&mut writer, 2),
            Err(HuffmanError::SymbolWithoutCode { symbol: 2 })
        ));
        assert!(matches!(
            encoder.encode(&mut writer, 99),
            Err(HuffmanError::SymbolWithoutCode { symbol: 99 })
        ));
    }

    #[test]
    fn stored_codes_are_the_canonical_codes_in_stream_order() {
        // RFC 1951 section 3.2.2: lengths (3, 3, 3, 3, 3, 2, 4, 4).
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let encoder = HuffmanEncoder::from_code_lengths(&lengths).unwrap();
        for (symbol, &(code, length)) in canonical_codes(&lengths).iter().enumerate() {
            let mut expected = BitWriter::new();
            expected.write_huffman_code(code, length as u32);
            let mut writer = BitWriter::new();
            encoder.encode(&mut writer, symbol as u16).unwrap();
            assert_eq!(writer.finish(), expected.finish(), "symbol {symbol}");
            assert_eq!(encoder.codes()[symbol].length, length);
        }
    }

    #[test]
    fn code_lengths_too_long_rejected() {
        let lengths = [16u8, 1];
        assert!(matches!(
            HuffmanEncoder::from_code_lengths(&lengths),
            Err(HuffmanError::LengthTooLarge { .. })
        ));
    }
}
