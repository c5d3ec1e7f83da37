//! LSB-first bit reader over an in-memory byte slice.

use crate::{low_bit_mask, BitIoError, MAX_BITS_PER_READ};

/// An LSB-first bit reader over a byte slice.
///
/// The reader tracks an exact bit position, supports arbitrary bit-granular
/// seeks (needed because DEFLATE blocks may start at any bit offset), and
/// offers `peek`/`consume` primitives so that table-driven Huffman decoders
/// can look at the next 15 bits without committing to them.
#[derive(Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte that has not yet been loaded into `bit_buffer`.
    next_byte: usize,
    /// Bits that have been loaded from `data` but not yet consumed.
    bit_buffer: u64,
    /// Number of valid bits in `bit_buffer`.
    bit_count: u32,
}

/// A [`BitReader`]'s position as the three words a decode loop keeps in
/// registers: handed out by [`BitReader::cursor`], taken back by
/// [`BitReader::set_cursor`].
///
/// `buffer` holds the next `bits` stream bits from bit 0 up, `next_byte` is
/// the index of the first input byte that is not counted in `bits`.  Bits of
/// `buffer` above `bits` are zero or the input's own next bits, so a loop
/// refills with `buffer |= next_word << bits` and need not clear them.
#[derive(Debug, Clone, Copy)]
pub struct BitCursor {
    pub buffer: u64,
    pub bits: u32,
    pub next_byte: usize,
}

impl<'a> std::fmt::Debug for BitReader<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitReader")
            .field("size_bits", &self.size_in_bits())
            .field("position", &self.position())
            .finish()
    }
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at bit 0 of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            next_byte: 0,
            bit_buffer: 0,
            bit_count: 0,
        }
    }

    /// Total size of the underlying data in bits.
    #[inline]
    pub fn size_in_bits(&self) -> u64 {
        (self.data.len() as u64) * 8
    }

    /// Current bit position (number of bits consumed so far).
    #[inline]
    pub fn position(&self) -> u64 {
        (self.next_byte as u64) * 8 - self.bit_count as u64
    }

    /// Number of bits remaining until the end of the data.
    #[inline]
    pub fn remaining_bits(&self) -> u64 {
        self.size_in_bits() - self.position()
    }

    /// Whether all bits have been consumed.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.remaining_bits() == 0
    }

    /// The underlying byte slice.
    #[inline]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    #[inline]
    fn refill(&mut self) {
        // Fast path: load eight bytes in one go and advance by however many
        // whole bytes fit into the buffer.  This leaves 56..=63 buffered bits;
        // the byte loop below tops the buffer up to >56 bits (so that 57-bit
        // peeks keep working) and handles the last seven bytes of the data.
        if self.bit_count < 56 && self.next_byte + 8 <= self.data.len() {
            let word = u64::from_le_bytes(
                self.data[self.next_byte..self.next_byte + 8]
                    .try_into()
                    .expect("eight bytes were checked to be available"),
            );
            self.bit_buffer |= word << self.bit_count;
            let added_bytes = (63 - self.bit_count) >> 3;
            self.next_byte += added_bytes as usize;
            self.bit_count += added_bytes * 8;
        }
        while self.bit_count <= 56 && self.next_byte < self.data.len() {
            self.bit_buffer |= (self.data[self.next_byte] as u64) << self.bit_count;
            self.bit_count += 8;
            self.next_byte += 1;
        }
    }

    /// Hands the reader's state to a loop that keeps it in locals (see
    /// [`BitCursor`]); [`BitReader::set_cursor`] takes it back.
    #[inline]
    pub fn cursor(&self) -> BitCursor {
        // A full buffer gives its last byte back, so that `bits` is a valid
        // shift count; the byte's bits stay in `buffer`, above `bits`.
        let full = (self.bit_count == u64::BITS) as usize;
        BitCursor {
            buffer: self.bit_buffer,
            bits: self.bit_count - 8 * full as u32,
            next_byte: self.next_byte - full,
        }
    }

    /// Continues from where a loop that started from [`BitReader::cursor`]
    /// left off.  The cursor must describe a position in this reader's data
    /// (at most 63 buffered bits, all of them below `next_byte`); that its
    /// buffer holds the data's bits is the caller's contract, as with
    /// [`BitReader::consume_cached`].
    #[inline]
    pub fn set_cursor(&mut self, cursor: BitCursor) {
        assert!(
            cursor.bits < 64
                && cursor.next_byte <= self.data.len()
                && cursor.bits as usize <= cursor.next_byte * 8,
            "cursor outside the reader's data"
        );
        self.bit_buffer = cursor.buffer & low_bit_mask(cursor.bits);
        self.bit_count = cursor.bits;
        self.next_byte = cursor.next_byte;
    }

    /// Refills the internal bit buffer from the underlying data.
    ///
    /// After the call the buffer holds at least 57 bits, unless fewer bits
    /// remain in the input (in which case it holds all of them).  One call
    /// amortises over several subsequent [`BitReader::peek_cached`] /
    /// [`BitReader::consume_cached`] steps: several reads between bounds
    /// checks (`fig07_bitreader`'s batched curve).  A decode loop that wants
    /// the buffer in registers takes [`BitReader::cursor`] instead.
    #[inline]
    pub fn fill_buffer(&mut self) {
        self.refill();
    }

    /// Number of bits currently buffered (available to
    /// [`BitReader::peek_cached`] / [`BitReader::consume_cached`] without
    /// another refill).
    #[inline]
    pub fn cached_bits(&self) -> u32 {
        self.bit_count
    }

    /// Returns the next `count` bits without consuming them and **without
    /// refilling** the buffer.
    ///
    /// Only the low [`BitReader::cached_bits`] bits of the result are
    /// guaranteed meaningful.  Beyond them the value is *unspecified*: zero
    /// at the true end of the input, but mid-stream the word-based refill
    /// may leave (correct) not-yet-accounted input bits above `cached_bits`.
    /// Callers must therefore guard with `cached_bits()` before acting on a
    /// peek.
    #[inline]
    pub fn peek_cached(&self, count: u32) -> u64 {
        debug_assert!(count <= MAX_BITS_PER_READ);
        self.bit_buffer & low_bit_mask(count)
    }

    /// Consumes `count` bits that are known to be buffered.
    ///
    /// Contract: `count <= cached_bits()`, checked only via `debug_assert`.
    /// Violating it corrupts the reader's position tracking (it cannot cause
    /// memory unsafety).  Refill once, then consume at most `cached_bits()`
    /// bits before the next refill.
    #[inline]
    pub fn consume_cached(&mut self, count: u32) {
        debug_assert!(count <= self.bit_count);
        self.bit_buffer >>= count;
        self.bit_count -= count;
    }

    /// Returns the next `count` bits without consuming them.
    ///
    /// Bits past the end of the data read as zero; combine with
    /// [`BitReader::remaining_bits`] or a subsequent [`BitReader::read`] if
    /// end-of-data must be detected.
    #[inline]
    pub fn peek(&mut self, count: u32) -> u64 {
        debug_assert!(count <= MAX_BITS_PER_READ);
        self.refill();
        self.bit_buffer & low_bit_mask(count)
    }

    /// Consumes `count` bits that were previously observed with
    /// [`BitReader::peek`]. Fails if fewer bits are available.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), BitIoError> {
        if count > MAX_BITS_PER_READ {
            return Err(BitIoError::TooManyBits(count));
        }
        self.refill();
        if (count as u64) > self.bit_count as u64 {
            return Err(BitIoError::UnexpectedEof {
                position: self.position(),
                requested: count,
                available: self.remaining_bits(),
            });
        }
        self.bit_buffer >>= count;
        self.bit_count -= count;
        Ok(())
    }

    /// Reads and consumes `count` bits, returning them in the low bits of the
    /// result (first stream bit is bit 0 of the result).
    #[inline]
    pub fn read(&mut self, count: u32) -> Result<u64, BitIoError> {
        if count > MAX_BITS_PER_READ {
            return Err(BitIoError::TooManyBits(count));
        }
        if count == 0 {
            return Ok(0);
        }
        self.refill();
        if (count as u64) > self.bit_count as u64 {
            return Err(BitIoError::UnexpectedEof {
                position: self.position(),
                requested: count,
                available: self.remaining_bits(),
            });
        }
        let value = self.bit_buffer & low_bit_mask(count);
        self.bit_buffer >>= count;
        self.bit_count -= count;
        Ok(value)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitIoError> {
        Ok(self.read(1)? != 0)
    }

    /// Seeks to an absolute bit offset.
    pub fn seek_to_bit(&mut self, bit_offset: u64) -> Result<(), BitIoError> {
        if bit_offset > self.size_in_bits() {
            return Err(BitIoError::SeekOutOfBounds {
                target: bit_offset,
                size: self.size_in_bits(),
            });
        }
        self.next_byte = (bit_offset / 8) as usize;
        self.bit_buffer = 0;
        self.bit_count = 0;
        let residual = (bit_offset % 8) as u32;
        if residual != 0 {
            self.refill();
            // A residual implies at least one whole byte exists at next_byte.
            self.bit_buffer >>= residual;
            self.bit_count -= residual;
        }
        Ok(())
    }

    /// Discards bits until the position is a multiple of 8.
    #[inline]
    pub fn align_to_byte(&mut self) {
        let residual = (self.position() % 8) as u32;
        if residual != 0 {
            // Aligning never runs past the end: a non-zero residual means the
            // current byte exists and its remaining bits are in the buffer.
            let _ = self.consume(8 - residual);
        }
    }

    /// Reads `out.len()` bytes starting at the current (byte-aligned)
    /// position. The reader must be byte-aligned.
    pub fn read_bytes(&mut self, out: &mut [u8]) -> Result<(), BitIoError> {
        out.copy_from_slice(self.take_bytes(out.len())?);
        Ok(())
    }

    /// Borrows the next `length` bytes at the current (byte-aligned) position
    /// and advances past them, so callers can copy (or widen) a Stored
    /// block's payload straight into their output. The reader must be
    /// byte-aligned.
    pub fn take_bytes(&mut self, length: usize) -> Result<&'a [u8], BitIoError> {
        assert_eq!(
            self.position() % 8,
            0,
            "take_bytes requires a byte-aligned reader"
        );
        let start = (self.position() / 8) as usize;
        let end = start + length;
        if end > self.data.len() {
            return Err(BitIoError::UnexpectedEof {
                position: self.position(),
                requested: (length * 8) as u32,
                available: self.remaining_bits(),
            });
        }
        self.bit_buffer = 0;
        self.bit_count = 0;
        self.next_byte = end;
        Ok(&self.data[start..end])
    }

    /// Reads a little-endian `u16` from a byte-aligned position.
    pub fn read_u16_le(&mut self) -> Result<u16, BitIoError> {
        let mut buf = [0u8; 2];
        self.read_bytes(&mut buf)?;
        Ok(u16::from_le_bytes(buf))
    }

    /// Reads a little-endian `u32` from a byte-aligned position.
    pub fn read_u32_le(&mut self) -> Result<u32, BitIoError> {
        let mut buf = [0u8; 4];
        self.read_bytes(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Returns a sub-slice of the underlying data without consuming it.
    /// `byte_offset` is absolute within the data.
    pub fn bytes_at(&self, byte_offset: usize, length: usize) -> Option<&'a [u8]> {
        self.data.get(byte_offset..byte_offset + length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reads_lsb_first() {
        // 0b1011_0100, 0b0000_0001
        let data = [0xB4u8, 0x01];
        let mut reader = BitReader::new(&data);
        assert_eq!(reader.read(1).unwrap(), 0); // LSB of 0xB4
        assert_eq!(reader.read(2).unwrap(), 0b10);
        assert_eq!(reader.read(5).unwrap(), 0b10110);
        assert_eq!(reader.position(), 8);
        assert_eq!(reader.read(8).unwrap(), 1);
        assert!(reader.is_at_end());
    }

    #[test]
    fn read_across_byte_boundaries() {
        let data = [0xFF, 0x00, 0xAA, 0x55];
        let mut reader = BitReader::new(&data);
        assert_eq!(reader.read(12).unwrap(), 0x0FF);
        assert_eq!(reader.read(12).unwrap(), 0xAA0);
        assert_eq!(reader.read(8).unwrap(), 0x55);
    }

    #[test]
    fn peek_does_not_consume() {
        let data = [0xCD, 0xAB];
        let mut reader = BitReader::new(&data);
        assert_eq!(reader.peek(16), 0xABCD);
        assert_eq!(reader.peek(16), 0xABCD);
        assert_eq!(reader.position(), 0);
        reader.consume(4).unwrap();
        assert_eq!(reader.peek(12), 0xABC);
    }

    #[test]
    fn peek_past_end_is_zero_padded() {
        let data = [0x0F];
        let mut reader = BitReader::new(&data);
        assert_eq!(reader.peek(16), 0x000F);
        assert_eq!(reader.read(8).unwrap(), 0x0F);
        assert_eq!(reader.peek(8), 0);
        assert!(reader.read(1).is_err());
    }

    #[test]
    fn eof_error_reports_positions() {
        let data = [0xFF];
        let mut reader = BitReader::new(&data);
        reader.read(6).unwrap();
        match reader.read(4) {
            Err(BitIoError::UnexpectedEof {
                position,
                requested,
                available,
            }) => {
                assert_eq!(position, 6);
                assert_eq!(requested, 4);
                assert_eq!(available, 2);
            }
            other => panic!("expected EOF error, got {other:?}"),
        }
    }

    #[test]
    fn too_many_bits_is_rejected() {
        let data = [0u8; 32];
        let mut reader = BitReader::new(&data);
        assert!(matches!(reader.read(58), Err(BitIoError::TooManyBits(58))));
        assert!(matches!(
            reader.consume(64),
            Err(BitIoError::TooManyBits(64))
        ));
    }

    #[test]
    fn seek_to_arbitrary_bit_offsets() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut reader = BitReader::new(&data);
        reader.seek_to_bit(8 * 100 + 3).unwrap();
        assert_eq!(reader.position(), 803);
        assert_eq!(reader.read(5).unwrap(), (100u64 >> 3) & 0x1F);
        reader.seek_to_bit(0).unwrap();
        assert_eq!(reader.read(8).unwrap(), 0);
        assert!(reader.seek_to_bit(reader.size_in_bits() + 1).is_err());
        reader.seek_to_bit(reader.size_in_bits()).unwrap();
        assert!(reader.is_at_end());
    }

    #[test]
    fn align_to_byte_behaviour() {
        let data = [0xFF, 0xEE, 0xDD];
        let mut reader = BitReader::new(&data);
        reader.align_to_byte();
        assert_eq!(reader.position(), 0);
        reader.read(3).unwrap();
        reader.align_to_byte();
        assert_eq!(reader.position(), 8);
        assert_eq!(reader.read(8).unwrap(), 0xEE);
    }

    #[test]
    fn read_bytes_and_le_helpers() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07];
        let mut reader = BitReader::new(&data);
        assert_eq!(reader.read_u16_le().unwrap(), 0x0201);
        assert_eq!(reader.read_u32_le().unwrap(), 0x06050403);
        let mut rest = [0u8; 1];
        reader.read_bytes(&mut rest).unwrap();
        assert_eq!(rest, [0x07]);
        assert!(reader.read_bytes(&mut rest).is_err());
    }

    #[test]
    fn bytes_at_returns_subslices() {
        let data = [1, 2, 3, 4];
        let reader = BitReader::new(&data);
        assert_eq!(reader.bytes_at(1, 2), Some(&data[1..3]));
        assert_eq!(reader.bytes_at(3, 2), None);
    }

    #[test]
    fn fill_buffer_guarantees_57_bits_when_available() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut reader = BitReader::new(&data);
        reader.fill_buffer();
        assert!(reader.cached_bits() >= 57);
        // Consuming odd amounts and refilling keeps the guarantee.
        while reader.cached_bits() >= 13 {
            reader.consume_cached(13);
            reader.fill_buffer();
            assert!(
                reader.cached_bits() >= 57
                    || reader.cached_bits() as u64 == reader.remaining_bits()
            );
        }
        assert!(reader.remaining_bits() < 13);
    }

    #[test]
    fn cached_peek_and_consume_match_read() {
        let data: Vec<u8> = (0..=255u8).rev().collect();
        let mut cached = BitReader::new(&data);
        let mut reference = BitReader::new(&data);
        let widths = [1u32, 13, 7, 13, 2, 13, 5, 13, 13, 3];
        for &width in widths.iter().cycle().take(120) {
            cached.fill_buffer();
            if (cached.cached_bits()) < width {
                break;
            }
            let peeked = cached.peek_cached(width);
            cached.consume_cached(width);
            assert_eq!(peeked, reference.read(width).unwrap());
            assert_eq!(cached.position(), reference.position());
        }
    }

    #[test]
    fn a_cursor_taken_and_set_again_changes_nothing() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        for consumed in [0u32, 1, 7, 8, 9, 13, 56, 57] {
            let mut reader = BitReader::new(&data);
            let mut reference = BitReader::new(&data);
            // `peek` leaves a full 64-bit buffer behind an aligned position.
            reader.peek(1);
            reader.read(consumed).unwrap();
            reference.read(consumed).unwrap();
            let cursor = reader.cursor();
            assert!(cursor.bits < 64);
            assert_eq!(
                cursor.next_byte as u64 * 8 - cursor.bits as u64,
                consumed as u64
            );
            reader.set_cursor(cursor);
            assert_eq!(reader.position(), reference.position());
            for width in [5u32, 57, 1, 30, 57] {
                assert_eq!(reader.read(width).unwrap(), reference.read(width).unwrap());
            }
        }
    }

    #[test]
    fn a_loop_over_a_cursor_hands_back_its_position() {
        let data: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(91)).collect();
        let mut reader = BitReader::new(&data);
        let mut reference = BitReader::new(&data);
        reader.read(3).unwrap();
        reference.read(3).unwrap();
        let mut cursor = reader.cursor();
        for width in [11u32, 4, 15, 13] {
            // The refill and the consume step of a decode loop.
            let word = u64::from_le_bytes(
                data[cursor.next_byte..cursor.next_byte + 8]
                    .try_into()
                    .unwrap(),
            );
            cursor.buffer |= word << cursor.bits;
            cursor.next_byte += (7 - ((cursor.bits >> 3) & 7)) as usize;
            cursor.bits |= 56;
            assert_eq!(
                cursor.buffer & low_bit_mask(width),
                reference.read(width).unwrap()
            );
            cursor.buffer >>= width;
            cursor.bits -= width;
        }
        reader.set_cursor(cursor);
        assert_eq!(reader.position(), reference.position());
        assert_eq!(reader.read(40).unwrap(), reference.read(40).unwrap());
        // The bits the loop had loaded beyond its count are not the reader's.
        reader.seek_to_bit(data.len() as u64 * 8 - 4).unwrap();
        assert_eq!(reader.peek(12), (data[31] >> 4) as u64);
    }

    #[test]
    #[should_panic(expected = "cursor outside the reader's data")]
    fn a_cursor_past_the_end_of_the_data_is_refused() {
        let data = [0u8; 4];
        let mut reader = BitReader::new(&data);
        reader.set_cursor(BitCursor {
            buffer: 0,
            bits: 0,
            next_byte: 5,
        });
    }

    #[test]
    fn fill_buffer_near_end_caches_exactly_the_remaining_bits() {
        let data = [0xAB, 0xCD, 0xEF];
        let mut reader = BitReader::new(&data);
        reader.fill_buffer();
        assert_eq!(reader.cached_bits(), 24);
        reader.consume_cached(20);
        reader.fill_buffer();
        assert_eq!(reader.cached_bits(), 4);
        assert_eq!(reader.peek_cached(4), 0xE);
        // Bits past the end of the cached data peek as zero.
        assert_eq!(reader.peek_cached(12), 0xE);
        reader.consume_cached(4);
        assert!(reader.is_at_end());
    }

    proptest! {
        #[test]
        fn cached_api_matches_read_on_random_schedules(
            data in proptest::collection::vec(any::<u8>(), 0..200),
            widths in proptest::collection::vec(1u32..20, 0..200),
        ) {
            let mut cached = BitReader::new(&data);
            let mut reference = BitReader::new(&data);
            for &width in &widths {
                cached.fill_buffer();
                if cached.cached_bits() < width {
                    prop_assert!(reference.read(width).is_err());
                    break;
                }
                let peeked = cached.peek_cached(width);
                cached.consume_cached(width);
                prop_assert_eq!(peeked, reference.read(width).unwrap());
            }
        }

        #[test]
        fn chunked_reads_match_reference(data in proptest::collection::vec(any::<u8>(), 0..256),
                                         chunk_sizes in proptest::collection::vec(1u32..25, 0..200)) {
            let mut reader = BitReader::new(&data);
            let mut bit_position = 0u64;
            for &count in &chunk_sizes {
                let total_bits = data.len() as u64 * 8;
                let value = reader.read(count);
                if bit_position + count as u64 > total_bits {
                    prop_assert!(value.is_err());
                    break;
                }
                // Reference: extract bits one by one from the byte slice.
                let mut expected = 0u64;
                for i in 0..count as u64 {
                    let bit_index = bit_position + i;
                    let byte = data[(bit_index / 8) as usize];
                    let bit = (byte >> (bit_index % 8)) & 1;
                    expected |= (bit as u64) << i;
                }
                prop_assert_eq!(value.unwrap(), expected);
                bit_position += count as u64;
            }
        }

        #[test]
        fn seek_then_read_matches_fresh_reader(data in proptest::collection::vec(any::<u8>(), 1..128),
                                               offset_frac in 0.0f64..1.0) {
            let total_bits = data.len() as u64 * 8;
            let offset = ((total_bits - 1) as f64 * offset_frac) as u64;
            let mut seeked = BitReader::new(&data);
            seeked.seek_to_bit(offset).unwrap();

            let mut sequential = BitReader::new(&data);
            let mut skipped = 0u64;
            while skipped < offset {
                let step = (offset - skipped).min(32) as u32;
                sequential.read(step).unwrap();
                skipped += step as u64;
            }
            let remaining = (total_bits - offset).min(20) as u32;
            prop_assert_eq!(seeked.read(remaining).unwrap(), sequential.read(remaining).unwrap());
        }
    }
}
