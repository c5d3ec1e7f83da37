//! Canonical Huffman coding as used by DEFLATE (RFC 1951).
//!
//! Four pieces live here:
//!
//! * [`HuffmanDecoder`] — a table-driven decoder built from a list of code
//!   lengths, the representation DEFLATE stores in Dynamic Block headers.
//! * [`DecodeTable`] — the two-level table under the inflate hot loop: a
//!   small main table plus subtables for the longer codes, built in a few
//!   microseconds, each entry holding everything its decode step needs.
//!   [`HuffmanDecoder`] is its reference in the differential tests.
//! * [`HuffmanEncoder`] — the canonical-code encoder used by the DEFLATE
//!   compressor in `rgz-deflate`.
//! * [`compute_code_lengths`] — length-limited code construction
//!   (package-merge), needed to build Dynamic Blocks.
//!
//! The block finder additionally needs to classify candidate code-length
//! vectors as *valid and efficient* (complete), *incomplete* (unused leaves)
//! or *over-subscribed*; [`classify_code_lengths`] implements exactly the
//! check illustrated in Figure 6 of the paper.

mod decoder;
mod encoder;
mod length_limited;
mod table;

pub use decoder::HuffmanDecoder;
pub use encoder::{Code, HuffmanEncoder};
pub use length_limited::compute_code_lengths;
pub use table::{
    entry_code_length, entry_consumed_bits, entry_payload, DecodeTable, ENTRY_EXCEPTIONAL,
    ENTRY_INVALID, ENTRY_SUBTABLE,
};

/// Maximum code length permitted for the DEFLATE literal/length and distance
/// alphabets.
pub const MAX_CODE_LENGTH: u32 = 15;
/// Maximum code length permitted for the DEFLATE precode (code-length code).
pub const MAX_PRECODE_LENGTH: u32 = 7;

/// Result of checking a code-length vector against the Kraft inequality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeCompleteness {
    /// The code uses every leaf of the binary tree exactly once
    /// ("valid and efficient" in the paper's terminology).
    Complete,
    /// Some leaves are unused; the code is decodable but not efficient.
    /// DEFLATE only permits this for a single-symbol code.
    Incomplete,
    /// More symbols than the tree can hold; the code is not decodable.
    Oversubscribed,
    /// No symbol has a non-zero length.
    Empty,
}

/// Errors raised while building or using Huffman codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The code-length vector violates the Kraft inequality.
    Oversubscribed,
    /// The code-length vector leaves unused leaves and is not the special
    /// single-symbol case DEFLATE allows.
    Incomplete,
    /// No symbols at all were assigned a code.
    EmptyAlphabet,
    /// A code length exceeded the permitted maximum.
    LengthTooLarge { length: u8, maximum: u32 },
    /// The decoder encountered a bit pattern that maps to no symbol.
    InvalidCode { position: u64 },
    /// The encoder was asked to emit a symbol that has no code.
    SymbolWithoutCode { symbol: u16 },
    /// The underlying bit stream ended prematurely.
    UnexpectedEof,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Oversubscribed => write!(f, "over-subscribed Huffman code"),
            HuffmanError::Incomplete => write!(f, "incomplete (inefficient) Huffman code"),
            HuffmanError::EmptyAlphabet => write!(f, "no symbols with non-zero code length"),
            HuffmanError::LengthTooLarge { length, maximum } => {
                write!(f, "code length {length} exceeds maximum {maximum}")
            }
            HuffmanError::InvalidCode { position } => {
                write!(f, "invalid Huffman code in bit stream at bit {position}")
            }
            HuffmanError::SymbolWithoutCode { symbol } => {
                write!(f, "symbol {symbol} has no assigned code")
            }
            HuffmanError::UnexpectedEof => write!(f, "bit stream ended inside a Huffman code"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<rgz_bitio::BitIoError> for HuffmanError {
    fn from(_: rgz_bitio::BitIoError) -> Self {
        HuffmanError::UnexpectedEof
    }
}

/// Classifies a code-length vector (lengths of zero mean "symbol unused").
///
/// This is the same check the Dynamic Block finder performs on the Precode,
/// Distance and Literal alphabets: a candidate block is rejected unless every
/// used alphabet forms a *complete* code (or the single-symbol special case).
pub fn classify_code_lengths(lengths: &[u8]) -> CodeCompleteness {
    let mut used = 0u32;
    // Kraft sum scaled by 2^MAX_CODE_LENGTH so it stays integral.
    let mut kraft = 0u64;
    for &length in lengths {
        if length == 0 {
            continue;
        }
        used += 1;
        kraft += 1u64 << (MAX_CODE_LENGTH.saturating_sub(length as u32));
    }
    if used == 0 {
        return CodeCompleteness::Empty;
    }
    let full = 1u64 << MAX_CODE_LENGTH;
    if kraft > full {
        CodeCompleteness::Oversubscribed
    } else if kraft < full {
        CodeCompleteness::Incomplete
    } else {
        CodeCompleteness::Complete
    }
}

/// Computes the canonical code values for a code-length vector.
///
/// Returns `codes[symbol] = (code, length)` with `length == 0` for unused
/// symbols. The caller is responsible for having validated the lengths.
pub fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let max_length = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut length_counts = vec![0u32; max_length + 1];
    for &length in lengths {
        if length > 0 {
            length_counts[length as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_length + 2];
    let mut code = 0u32;
    for bits in 1..=max_length {
        code = (code + length_counts[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&length| {
            if length == 0 {
                (0, 0)
            } else {
                let assigned = next_code[length as usize];
                next_code[length as usize] += 1;
                (assigned, length)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_figure_6() {
        // Figure 6 of the paper: lengths (1,1,1) over-subscribed,
        // (2,2,2) incomplete, (2,2,1) complete.
        assert_eq!(
            classify_code_lengths(&[1, 1, 1]),
            CodeCompleteness::Oversubscribed
        );
        assert_eq!(
            classify_code_lengths(&[2, 2, 2]),
            CodeCompleteness::Incomplete
        );
        assert_eq!(
            classify_code_lengths(&[2, 2, 1]),
            CodeCompleteness::Complete
        );
    }

    #[test]
    fn classify_edge_cases() {
        assert_eq!(classify_code_lengths(&[]), CodeCompleteness::Empty);
        assert_eq!(classify_code_lengths(&[0, 0, 0]), CodeCompleteness::Empty);
        assert_eq!(classify_code_lengths(&[1, 1]), CodeCompleteness::Complete);
        assert_eq!(classify_code_lengths(&[1]), CodeCompleteness::Incomplete);
        // Fixed literal code from RFC 1951 is complete.
        let mut fixed = vec![8u8; 144];
        fixed.extend(vec![9u8; 112]);
        fixed.extend(vec![7u8; 24]);
        fixed.extend(vec![8u8; 8]);
        assert_eq!(classify_code_lengths(&fixed), CodeCompleteness::Complete);
    }

    #[test]
    fn canonical_codes_rfc_example() {
        // RFC 1951 section 3.2.2 example: alphabet ABCDEFGH with lengths
        // (3, 3, 3, 3, 3, 2, 4, 4) yields these codes.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        let expected = [
            (0b010, 3),
            (0b011, 3),
            (0b100, 3),
            (0b101, 3),
            (0b110, 3),
            (0b00, 2),
            (0b1110, 4),
            (0b1111, 4),
        ];
        for (symbol, &(code, length)) in expected.iter().enumerate() {
            assert_eq!(codes[symbol], (code, length as u8), "symbol {symbol}");
        }
    }

    #[test]
    fn canonical_codes_skip_unused_symbols() {
        let lengths = [0u8, 2, 0, 2, 2, 2];
        let codes = canonical_codes(&lengths);
        assert_eq!(codes[0], (0, 0));
        assert_eq!(codes[2], (0, 0));
        let used: Vec<u32> = codes
            .iter()
            .filter(|(_, l)| *l > 0)
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(used, vec![0b00, 0b01, 0b10, 0b11]);
    }
}
