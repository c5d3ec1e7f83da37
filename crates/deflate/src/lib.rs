//! DEFLATE (RFC 1951) — compression, one-stage decompression, and the
//! two-stage (marker based) decompression scheme that rapidgzip's parallel
//! architecture is built on.
//!
//! Layout:
//!
//! * [`constants`] — RFC 1951 tables (length/distance codes, fixed codes).
//! * [`block`] — block header parsing shared by all decoders and the
//!   block finder.
//! * [`inflate()`] / [`inflate_two_stage()`] — the two decoding paths, and
//!   [`inflate_speculative()`], which starts as the second and finishes as the
//!   first once its markers have died out or its caller has learnt the window.
//! * [`markers`] — marker replacement and window resolution (second stage).
//! * [`cutter`] — where a decode cuts its output into seek points, and which
//!   bytes before each the output after it references: its sparse window.
//! * [`compress`] — a complete DEFLATE compressor used to build test data
//!   and benchmark corpora.
//! * [`matchfinder`] — the reusable hash-chain LZ77 match finder under the
//!   compressor, which hands out its tokens a DEFLATE block at a time.

pub mod block;
pub mod compress;
pub mod constants;
pub mod cutter;
pub mod inflate;
pub mod markers;
pub mod matchfinder;

pub use block::{BlockType, DynamicHeader};
pub use compress::{write_stored_block, CompressionLevel, CompressorOptions, DeflateCompressor};
pub use cutter::{Cut, Cutter};
pub use inflate::{
    active_isa as inflate_active_isa, inflate, inflate_limited, inflate_single_symbol,
    inflate_speculative, inflate_two_stage, inflate_with_cuts, BlockBoundary, InflateOutcome,
    StopReason, WindowAnswer, MARKER_BASE,
};
pub use markers::{
    active_isa as markers_active_isa, replace_markers, replace_markers_hashed,
    replace_markers_to_slice, replace_markers_to_slice_scalar, resolve_window, SpeculativeOutput,
    WindowUsage,
};
pub use matchfinder::{BlockTokenizer, HtMatchFinder, Token, TokenBlock};
/// The Huffman layer under the block codes and the compressor, for callers
/// that build or time code tables themselves (the bench harness).
pub use rgz_huffman as huffman;

use rgz_huffman::HuffmanError;

/// Errors produced while parsing or decoding a DEFLATE stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// BTYPE was the reserved value 11.
    ReservedBlockType,
    /// HLIT encoded more than 286 literal/length codes.
    InvalidLiteralCodeCount(u16),
    /// HDIST encoded more than 30 distance codes.
    InvalidDistanceCodeCount(u16),
    /// The precode (code-length code) was invalid.
    InvalidPrecode(HuffmanError),
    /// The literal/length code was invalid.
    InvalidLiteralCode(HuffmanError),
    /// The distance code was invalid.
    InvalidDistanceCode(HuffmanError),
    /// A repeat code (16) appeared before any code length.
    RepeatWithoutPreviousLength,
    /// The precode-encoded data produced more lengths than HLIT + HDIST.
    CodeLengthOverflow,
    /// A stored block's LEN and NLEN fields disagree.
    StoredLengthMismatch { length: u16, complement: u16 },
    /// A literal/length symbol outside 0..=285 was decoded.
    InvalidLengthSymbol(u16),
    /// A distance symbol outside 0..=29 was decoded.
    InvalidDistanceSymbol(u16),
    /// A back-reference appeared in a block that declared no distance code.
    BackReferenceWithoutDistanceCode,
    /// A back-reference points further back than the available history.
    DistanceTooFar { distance: usize, available: usize },
    /// A marker referenced window bytes that the provided window does not
    /// contain.
    MarkerOutsideWindow { offset: usize, window_length: usize },
    /// A 16-bit symbol that is neither a literal nor a marker was found
    /// during marker replacement.
    InvalidMarkerSymbol(u16),
    /// The input ended in the middle of a block.
    UnexpectedEof,
    /// Decoding produced more output than the caller-imposed bound (only
    /// raised by [`inflate_limited`], which guards untrusted streams).
    OutputLimitExceeded {
        /// The output bound that was exceeded.
        limit: usize,
    },
    /// A fragment split point handed to [`replace_markers_hashed`] lies past
    /// the end of the resolved output (the caller's member-boundary
    /// bookkeeping disagrees with the chunk's actual length).
    FragmentEndOutOfRange {
        /// The offending split offset.
        end: usize,
        /// Length of the resolved chunk output.
        output_length: usize,
    },
}

impl std::fmt::Display for DeflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeflateError::ReservedBlockType => write!(f, "reserved DEFLATE block type 11"),
            DeflateError::InvalidLiteralCodeCount(n) => {
                write!(f, "invalid number of literal/length codes: {n}")
            }
            DeflateError::InvalidDistanceCodeCount(n) => {
                write!(f, "invalid number of distance codes: {n}")
            }
            DeflateError::InvalidPrecode(e) => write!(f, "invalid precode: {e}"),
            DeflateError::InvalidLiteralCode(e) => write!(f, "invalid literal/length code: {e}"),
            DeflateError::InvalidDistanceCode(e) => write!(f, "invalid distance code: {e}"),
            DeflateError::RepeatWithoutPreviousLength => {
                write!(f, "code-length repeat with no previous length")
            }
            DeflateError::CodeLengthOverflow => {
                write!(f, "code-length data overflows the declared alphabet sizes")
            }
            DeflateError::StoredLengthMismatch { length, complement } => write!(
                f,
                "stored block length {length} does not match complement {complement:#06x}"
            ),
            DeflateError::InvalidLengthSymbol(s) => write!(f, "invalid length symbol {s}"),
            DeflateError::InvalidDistanceSymbol(s) => write!(f, "invalid distance symbol {s}"),
            DeflateError::BackReferenceWithoutDistanceCode => {
                write!(f, "back-reference in a block without distance codes")
            }
            DeflateError::DistanceTooFar {
                distance,
                available,
            } => write!(
                f,
                "back-reference distance {distance} exceeds available history {available}"
            ),
            DeflateError::MarkerOutsideWindow {
                offset,
                window_length,
            } => write!(
                f,
                "marker offset {offset} lies outside the provided window of {window_length} bytes"
            ),
            DeflateError::InvalidMarkerSymbol(s) => {
                write!(f, "invalid 16-bit symbol {s} during marker replacement")
            }
            DeflateError::UnexpectedEof => write!(f, "unexpected end of DEFLATE stream"),
            DeflateError::OutputLimitExceeded { limit } => {
                write!(f, "decoded output exceeds the {limit} byte bound")
            }
            DeflateError::FragmentEndOutOfRange { end, output_length } => write!(
                f,
                "fragment split at {end} lies past the {output_length} byte resolved output"
            ),
        }
    }
}

impl std::error::Error for DeflateError {}

impl From<rgz_bitio::BitIoError> for DeflateError {
    fn from(_: rgz_bitio::BitIoError) -> Self {
        DeflateError::UnexpectedEof
    }
}

impl From<HuffmanError> for DeflateError {
    fn from(error: HuffmanError) -> Self {
        DeflateError::InvalidLiteralCode(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let errors: Vec<DeflateError> = vec![
            DeflateError::ReservedBlockType,
            DeflateError::InvalidLiteralCodeCount(288),
            DeflateError::StoredLengthMismatch {
                length: 1,
                complement: 2,
            },
            DeflateError::DistanceTooFar {
                distance: 100,
                available: 10,
            },
            DeflateError::MarkerOutsideWindow {
                offset: 0,
                window_length: 5,
            },
            DeflateError::UnexpectedEof,
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn bitio_errors_convert_to_eof() {
        let error: DeflateError = rgz_bitio::BitIoError::TooManyBits(99).into();
        assert_eq!(error, DeflateError::UnexpectedEof);
    }
}
