//! LSB-first bit writer used by the DEFLATE compressor and by tests that
//! construct hand-crafted bit streams.

use crate::low_bit_mask;

/// An LSB-first bit writer that accumulates into a `Vec<u8>`.
///
/// This is the exact inverse of [`crate::BitReader`]: a stream written with
/// `write_bits(v, n)` calls reads back the same values with `read(n)`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed to `bytes` (low bits first).
    bit_buffer: u64,
    /// Number of valid bits in `bit_buffer`, at most 63 between calls: bits
    /// leave it a word at a time, when the next write would not fit.
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with a pre-allocated output capacity in bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(capacity),
            bit_buffer: 0,
            bit_count: 0,
        }
    }

    /// Current length of the produced stream in bits.
    #[inline]
    pub fn position(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.bit_count as u64
    }

    /// Moves every whole byte of the bit buffer to `bytes`, leaving fewer
    /// than 8 bits behind.  The word is appended whole and the part of it
    /// that was not valid yet is cut off again, so the copy has a fixed size.
    #[inline]
    fn flush_full_bytes(&mut self) {
        let whole_bytes = (self.bit_count / 8) as usize;
        let length = self.bytes.len();
        self.bytes.extend_from_slice(&self.bit_buffer.to_le_bytes());
        self.bytes.truncate(length + whole_bytes);
        // `bit_count` is at most 63, so the shift is at most 56.
        self.bit_buffer >>= 8 * whole_bytes;
        self.bit_count %= 8;
    }

    /// Appends the low `count` bits of `value`, LSB first. `count` must be
    /// at most 56.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 56, "write_bits supports at most 56 bits per call");
        if self.bit_count + count > 63 {
            self.flush_full_bytes();
        }
        self.bit_buffer |= (value & low_bit_mask(count)) << self.bit_count;
        self.bit_count += count;
    }

    /// Writes a Huffman code given MSB-first (as canonical codes are
    /// defined); the bits are emitted in the reversed order DEFLATE expects.
    #[inline]
    pub fn write_huffman_code(&mut self, code: u32, length: u32) {
        let reversed = crate::reverse_bits(code, length);
        self.write_bits(reversed as u64, length);
    }

    /// Pads with zero bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.flush_full_bytes();
        if self.bit_count > 0 {
            // Bits above `bit_count` are zero: that is the padding.
            self.bit_count = 8;
        }
    }

    /// Appends whole bytes. The writer must be byte-aligned.
    pub fn write_bytes(&mut self, data: &[u8]) {
        assert_eq!(
            self.bit_count % 8,
            0,
            "write_bytes requires a byte-aligned writer"
        );
        self.flush_full_bytes();
        debug_assert_eq!(self.bit_count, 0);
        self.bytes.extend_from_slice(data);
    }

    /// Finishes the stream, padding the final partial byte with zeros, and
    /// returns the accumulated bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.flush_full_bytes();
        debug_assert_eq!(self.bit_count, 0);
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitReader;
    use proptest::prelude::*;

    #[test]
    fn writes_lsb_first() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b0, 1);
        writer.write_bits(0b10, 2);
        writer.write_bits(0b10110, 5);
        let bytes = writer.finish();
        assert_eq!(bytes, vec![0xB4]);
    }

    #[test]
    fn align_and_write_bytes() {
        let mut writer = BitWriter::new();
        writer.write_bits(0b101, 3);
        writer.align_to_byte();
        writer.write_bytes(&[0xDE, 0xAD]);
        assert_eq!(writer.position(), 24);
        let bytes = writer.finish();
        assert_eq!(bytes, vec![0b0000_0101, 0xDE, 0xAD]);
    }

    #[test]
    fn huffman_code_round_trip() {
        // Code 0b110 of length 3 (MSB-first) must read back as 0b110 when the
        // reader re-reverses the peeked bits.
        let mut writer = BitWriter::new();
        writer.write_huffman_code(0b110, 3);
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        let raw = reader.read(3).unwrap() as u32;
        assert_eq!(crate::reverse_bits(raw, 3), 0b110);
    }

    #[test]
    fn position_tracks_unflushed_bits() {
        let mut writer = BitWriter::new();
        assert_eq!(writer.position(), 0);
        writer.write_bits(0x3, 2);
        assert_eq!(writer.position(), 2);
        writer.write_bits(0xFFFF, 16);
        assert_eq!(writer.position(), 18);
    }

    /// The writer this one replaced: every whole byte leaves the bit buffer
    /// at once, one `push` each.  Kept as the reference the word-at-a-time
    /// flush must agree with, byte for byte and position for position.
    #[derive(Default)]
    struct ByteAtATimeWriter {
        bytes: Vec<u8>,
        bit_buffer: u64,
        bit_count: u32,
    }

    impl ByteAtATimeWriter {
        fn position(&self) -> u64 {
            self.bytes.len() as u64 * 8 + self.bit_count as u64
        }

        fn write_bits(&mut self, value: u64, count: u32) {
            self.bit_buffer |= (value & low_bit_mask(count)) << self.bit_count;
            self.bit_count += count;
            while self.bit_count >= 8 {
                self.bytes.push(self.bit_buffer as u8);
                self.bit_buffer >>= 8;
                self.bit_count -= 8;
            }
        }

        fn align_to_byte(&mut self) {
            if self.bit_count > 0 {
                self.write_bits(0, 8 - self.bit_count);
            }
        }

        fn finish(mut self) -> Vec<u8> {
            self.align_to_byte();
            self.bytes
        }
    }

    proptest! {
        /// Operations are `(kind, value, count)`: plain bits, wide writes
        /// back to back (the buffer is nearly full when the next arrives), a
        /// Huffman code, an alignment, or aligned whole bytes.
        #[test]
        fn word_flush_matches_the_byte_at_a_time_writer(
            operations in proptest::collection::vec((0u8..5, any::<u64>(), 0u32..=56), 0..300),
        ) {
            let mut writer = BitWriter::new();
            let mut reference = ByteAtATimeWriter::default();
            for &(kind, value, count) in &operations {
                match kind {
                    0 => {
                        writer.write_bits(value, count);
                        reference.write_bits(value, count);
                    }
                    1 => {
                        let count = 50 + count % 7;
                        writer.write_bits(value, count);
                        reference.write_bits(value, count);
                    }
                    2 => {
                        let length = 1 + count % 15;
                        let code = value as u32 & ((1 << length) - 1);
                        writer.write_huffman_code(code, length);
                        reference.write_bits(crate::reverse_bits(code, length) as u64, length);
                    }
                    3 => {
                        writer.align_to_byte();
                        reference.align_to_byte();
                    }
                    _ => {
                        let data = &value.to_le_bytes()[..count as usize % 9];
                        writer.align_to_byte();
                        reference.align_to_byte();
                        writer.write_bytes(data);
                        reference.bytes.extend_from_slice(data);
                    }
                }
                prop_assert_eq!(writer.position(), reference.position());
            }
            prop_assert_eq!(writer.finish(), reference.finish());
        }

        #[test]
        fn writer_reader_round_trip(values in proptest::collection::vec((any::<u64>(), 1u32..25), 0..200)) {
            let mut writer = BitWriter::new();
            for &(value, count) in &values {
                writer.write_bits(value, count);
            }
            let bytes = writer.finish();
            let mut reader = BitReader::new(&bytes);
            for &(value, count) in &values {
                prop_assert_eq!(reader.read(count).unwrap(), value & crate::low_bit_mask(count));
            }
        }
    }
}
