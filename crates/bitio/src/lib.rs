//! Bit-granular readers and writers used throughout the rapidgzip-rs
//! reproduction.
//!
//! DEFLATE packs data LSB-first inside each byte: the first bit of the stream
//! is the least-significant bit of the first byte.  [`BitReader`] and
//! [`BitWriter`] implement exactly this bit order.  The reader maintains a
//! 64-bit refill buffer so that typical DEFLATE reads (1–16 bits) and the
//! block-finder peeks (up to 57 bits) cost only a few instructions, which is
//! what Figure 7 of the paper measures.

pub mod dispatch;
mod reader;
mod writer;

pub use dispatch::scalar_forced;
pub use reader::{BitCursor, BitReader};
pub use writer::BitWriter;

/// Errors produced by bit-level readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitIoError {
    /// The requested number of bits extends past the end of the input.
    UnexpectedEof {
        /// Bit position at which the read was attempted.
        position: u64,
        /// Number of bits requested.
        requested: u32,
        /// Number of bits still available.
        available: u64,
    },
    /// A read or peek requested more bits than the implementation supports
    /// in a single call (at most [`MAX_BITS_PER_READ`]).
    TooManyBits(u32),
    /// A seek targeted a bit offset beyond the end of the input.
    SeekOutOfBounds {
        /// Requested bit offset.
        target: u64,
        /// Size of the input in bits.
        size: u64,
    },
}

impl std::fmt::Display for BitIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitIoError::UnexpectedEof {
                position,
                requested,
                available,
            } => write!(
                f,
                "unexpected end of bit stream at bit {position}: requested {requested} bits, \
                 {available} available"
            ),
            BitIoError::TooManyBits(n) => {
                write!(
                    f,
                    "requested {n} bits in one call, maximum is {MAX_BITS_PER_READ}"
                )
            }
            BitIoError::SeekOutOfBounds { target, size } => {
                write!(
                    f,
                    "seek to bit {target} is beyond the input size of {size} bits"
                )
            }
        }
    }
}

impl std::error::Error for BitIoError {}

/// Maximum number of bits a single [`BitReader::read`] or
/// [`BitReader::peek`] call may request.
pub const MAX_BITS_PER_READ: u32 = 57;

/// Returns a mask with the lowest `count` bits set. `count` must be <= 64.
#[inline]
pub const fn low_bit_mask(count: u32) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Reverses the lowest `length` bits of `code`.
///
/// Canonical Huffman codes are defined MSB-first while DEFLATE streams are
/// read LSB-first, so both the encoder and the decoder LUT construction need
/// this helper.
#[inline]
pub const fn reverse_bits(code: u32, length: u32) -> u32 {
    let mut reversed = 0u32;
    let mut i = 0;
    while i < length {
        reversed |= ((code >> i) & 1) << (length - 1 - i);
        i += 1;
    }
    reversed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bit_mask_values() {
        assert_eq!(low_bit_mask(0), 0);
        assert_eq!(low_bit_mask(1), 1);
        assert_eq!(low_bit_mask(8), 0xFF);
        assert_eq!(low_bit_mask(57), (1u64 << 57) - 1);
        assert_eq!(low_bit_mask(64), u64::MAX);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10, 2), 0b01);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b10110, 5), 0b01101);
        assert_eq!(reverse_bits(0, 15), 0);
    }

    #[test]
    fn reverse_twice_is_identity() {
        for length in 1..=15u32 {
            for code in 0..(1u32 << length.min(10)) {
                assert_eq!(reverse_bits(reverse_bits(code, length), length), code);
            }
        }
    }

    #[test]
    fn error_display() {
        let err = BitIoError::UnexpectedEof {
            position: 10,
            requested: 8,
            available: 3,
        };
        assert!(err.to_string().contains("unexpected end"));
        assert!(BitIoError::TooManyBits(99).to_string().contains("99"));
        assert!(BitIoError::SeekOutOfBounds { target: 5, size: 2 }
            .to_string()
            .contains("beyond"));
    }
}
