//! Two-level decode tables: a main table indexed with the next `MAIN_BITS`
//! stream bits, plus subtables for the codes longer than that.
//!
//! One builder serves every alphabet.  What a symbol *means* comes from the
//! caller as one `u32` template per symbol; the builder adds the code length
//! to it, so an entry holds everything the decode step of that symbol needs
//! and no second table is consulted:
//!
//! ```text
//! bit  31      template: the caller's (DEFLATE: "this is a literal")
//! bits 16..=30 template: payload (literal byte, length or distance base);
//!              in a subtable pointer: index of the subtable's first entry
//! bit  15      ENTRY_EXCEPTIONAL: not a plain symbol, look at bits 14 and 13
//! bit  14      ENTRY_SUBTABLE: subtable pointer
//! bit  13      template: the caller's (DEFLATE: end of block)
//! bits  8..=11 code length *within this table level*; in a subtable pointer:
//!              the number of bits that index the subtable
//! bits  0..=7  bits to consume: code length within this level plus the extra
//!              bits the template asked for; in a subtable pointer: `MAIN_BITS`
//! ```
//!
//! An entry with [`ENTRY_EXCEPTIONAL`] set and neither bit 14 nor bit 13 is a
//! bit pattern that is no code ([`ENTRY_INVALID`]; templates use the same
//! value for symbols that may be coded but never used).  "Consume the low
//! byte" is the one step every entry shares, a subtable pointer included; a
//! value with extra bits is `base + ((saved_bits & mask(low byte)) >> code
//! length)`, where `saved_bits` are the stream bits before consuming.
//!
//! Validity is [`crate::HuffmanDecoder::from_code_lengths`]'s: a complete
//! code, or a single used symbol, whose other bit patterns stay invalid.

use crate::{HuffmanError, MAX_CODE_LENGTH};

/// Set in entries that are not a plain symbol: subtable pointers, the
/// caller's exceptional templates and invalid bit patterns.
pub const ENTRY_EXCEPTIONAL: u32 = 1 << 15;
/// Set (with [`ENTRY_EXCEPTIONAL`]) in a main-table entry that points to a
/// subtable.
pub const ENTRY_SUBTABLE: u32 = 1 << 14;
/// A bit pattern that is no code, or a symbol that must not occur.
pub const ENTRY_INVALID: u32 = ENTRY_EXCEPTIONAL;

/// Largest alphabet a table is built for (DEFLATE's fixed literal/length
/// code).
const MAX_SYMBOLS: usize = 288;

/// Bits of an entry's low byte: how many stream bits its step consumes.
#[inline]
pub const fn entry_consumed_bits(entry: u32) -> u32 {
    entry & 0xFF
}

/// Code length of an entry within its table level (for a subtable pointer:
/// the number of bits that index the subtable).
#[inline]
pub const fn entry_code_length(entry: u32) -> u32 {
    (entry >> 8) & 0xF
}

/// The 15 payload bits of an entry.
#[inline]
pub const fn entry_payload(entry: u32) -> u32 {
    (entry >> 16) & 0x7FFF
}

#[inline]
const fn is_subtable_pointer(entry: u32) -> bool {
    entry & (ENTRY_EXCEPTIONAL | ENTRY_SUBTABLE) == ENTRY_EXCEPTIONAL | ENTRY_SUBTABLE
}

/// A two-level decode table with a `MAIN_BITS`-bit main table and room for
/// `SIZE` entries in total.  `SIZE` must cover the worst complete code of
/// the alphabet (zlib's `enough`: 2342 for 288 symbols behind 11 bits, 402
/// for 32 symbols behind 8 bits, with codes of up to 15 bits).
#[derive(Clone)]
pub struct DecodeTable<const MAIN_BITS: u32, const SIZE: usize> {
    entries: [u32; SIZE],
}

impl<const MAIN_BITS: u32, const SIZE: usize> Default for DecodeTable<MAIN_BITS, SIZE> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const MAIN_BITS: u32, const SIZE: usize> std::fmt::Debug for DecodeTable<MAIN_BITS, SIZE> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeTable")
            .field("main_bits", &MAIN_BITS)
            .field("size", &SIZE)
            .finish()
    }
}

impl<const MAIN_BITS: u32, const SIZE: usize> DecodeTable<MAIN_BITS, SIZE> {
    const MAIN_SIZE: usize = 1 << MAIN_BITS;

    /// A table in which every bit pattern is invalid.
    pub fn new() -> Self {
        assert!(MAIN_BITS >= 1 && MAIN_BITS <= MAX_CODE_LENGTH && SIZE >= Self::MAIN_SIZE);
        Self {
            entries: [ENTRY_INVALID; SIZE],
        }
    }

    /// Makes every bit pattern invalid (the table of an alphabet without
    /// codes).
    pub fn clear(&mut self) {
        self.entries[..Self::MAIN_SIZE].fill(ENTRY_INVALID);
    }

    /// The main-table entry for the next stream bits (only the low
    /// `MAIN_BITS` of `bits` are looked at).
    #[inline(always)]
    pub fn main_entry(&self, bits: u64) -> u32 {
        self.entries[bits as usize & (Self::MAIN_SIZE - 1)]
    }

    /// The subtable entry a main-table `pointer` leads to; `bits` are the
    /// stream bits after the main table's have been consumed.
    #[inline(always)]
    pub fn subtable_entry(&self, pointer: u32, bits: u64) -> u32 {
        let index = bits as usize & ((1 << entry_code_length(pointer)) - 1);
        self.entries[(pointer >> 16) as usize + index]
    }

    /// Resolves the next stream bits (at least 15 of them, zero-padded at the
    /// end of input) through both levels: the symbol's entry and its whole
    /// code length, or `None` for a bit pattern that is no code.  Templates
    /// equal to [`ENTRY_INVALID`] resolve like any other symbol.
    #[inline]
    pub fn resolve(&self, bits: u64) -> Option<(u32, u32)> {
        let mut entry = self.main_entry(bits);
        let mut outer_bits = 0;
        if is_subtable_pointer(entry) {
            outer_bits = MAIN_BITS;
            entry = self.subtable_entry(entry, bits >> MAIN_BITS);
        }
        let length = entry_code_length(entry);
        (length != 0).then_some((entry, outer_bits + length))
    }

    /// Builds the table of the canonical code with these per-symbol code
    /// `lengths` (0 = symbol unused).  `templates[symbol]` is the entry of
    /// that symbol without its code length: flags, payload, and the number
    /// of extra bits in the low byte.
    ///
    /// Accepts and rejects exactly what
    /// [`crate::HuffmanDecoder::from_code_lengths`] does, with the same
    /// errors.  After an error the table's contents are unspecified.
    pub fn build(&mut self, lengths: &[u8], templates: &[u32]) -> Result<(), HuffmanError> {
        assert!(lengths.len() <= MAX_SYMBOLS && lengths.len() <= templates.len());
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

        let mut counts = [0u32; MAX_CODE_LENGTH as usize + 1];
        for &length in lengths {
            counts[length as usize] += 1;
        }
        let used = lengths.len() as u32 - counts[0];
        counts[0] = 0;
        // Kraft sum scaled by 2^MAX_CODE_LENGTH.
        let kraft: u32 = (1..=MAX_CODE_LENGTH)
            .map(|length| counts[length as usize] << (MAX_CODE_LENGTH - length))
            .sum();
        if kraft > 1 << MAX_CODE_LENGTH {
            return Err(HuffmanError::Oversubscribed);
        }
        if kraft < 1 << MAX_CODE_LENGTH {
            if used != 1 {
                return Err(HuffmanError::Incomplete);
            }
            let symbol = lengths
                .iter()
                .position(|&length| length != 0)
                .expect("one symbol is used");
            self.build_single(templates[symbol], max_length);
            return Ok(());
        }

        // Counting sort: the symbols in order of (code length, symbol), the
        // order in which a canonical code hands out its codewords.
        let mut offsets = [0u32; MAX_CODE_LENGTH as usize + 2];
        for length in 1..=MAX_CODE_LENGTH as usize {
            offsets[length + 1] = offsets[length] + counts[length];
        }
        let mut sorted = [0u16; MAX_SYMBOLS];
        for (symbol, &length) in lengths.iter().enumerate() {
            if length != 0 {
                sorted[offsets[length as usize] as usize] = symbol as u16;
                offsets[length as usize] += 1;
            }
        }
        let mut sorted = sorted[..used as usize]
            .iter()
            .map(|&symbol| symbol as usize);

        // The codeword is kept bit-reversed (as the stream delivers it) and
        // incremented in that form.  The main table is filled for the
        // shortest length first and *doubled by copy* whenever the length
        // grows: an entry's copies at index + k * 2^length come from one
        // memcpy per length instead of one strided store each.
        let entries = &mut self.entries;
        let mut length = (1..=MAX_CODE_LENGTH)
            .find(|&length| counts[length as usize] != 0)
            .expect("a symbol is used");
        let mut count = counts[length as usize];
        let mut codeword = 0usize;
        let mut table_end = 1usize << length.min(MAIN_BITS);
        while length <= MAIN_BITS {
            let code_bits = (length << 8) | length;
            for _ in 0..count {
                let symbol = sorted.next().expect("one symbol per codeword");
                entries[codeword] = templates[symbol] + code_bits;
                if codeword == table_end - 1 {
                    // The all-ones codeword is the last of a complete code.
                    while table_end < Self::MAIN_SIZE {
                        entries.copy_within(..table_end, table_end);
                        table_end *= 2;
                    }
                    return Ok(());
                }
                codeword = next_reversed_codeword(codeword, table_end - 1);
            }
            loop {
                length += 1;
                if length <= MAIN_BITS {
                    entries.copy_within(..table_end, table_end);
                    table_end *= 2;
                }
                count = counts[length as usize];
                if count != 0 {
                    break;
                }
            }
        }

        // Codes longer than the main table: one subtable per distinct
        // MAIN_BITS-bit prefix, indexed by the bits that follow it and as
        // wide as the longest code with that prefix.
        let main_mask = Self::MAIN_SIZE - 1;
        let mut table_end = Self::MAIN_SIZE;
        let mut subtable_prefix = usize::MAX;
        let mut subtable_start = 0;
        loop {
            if codeword & main_mask != subtable_prefix {
                subtable_prefix = codeword & main_mask;
                subtable_start = table_end;
                // The subtable is complete once the codewords of this and
                // the following lengths fill its code space.
                let mut subtable_bits = length - MAIN_BITS;
                let mut codespace_used = count;
                while codespace_used < 1 << subtable_bits {
                    subtable_bits += 1;
                    codespace_used =
                        (codespace_used << 1) + counts[(MAIN_BITS + subtable_bits) as usize];
                }
                table_end = subtable_start + (1 << subtable_bits);
                entries[subtable_prefix] = ((subtable_start as u32) << 16)
                    | ENTRY_EXCEPTIONAL
                    | ENTRY_SUBTABLE
                    | (subtable_bits << 8)
                    | MAIN_BITS;
            }
            let inner_length = length - MAIN_BITS;
            let symbol = sorted.next().expect("one symbol per codeword");
            let entry = templates[symbol] + ((inner_length << 8) | inner_length);
            let mut index = subtable_start + (codeword >> MAIN_BITS);
            while index < table_end {
                entries[index] = entry;
                index += 1 << inner_length;
            }
            let all_ones = (1usize << length) - 1;
            if codeword == all_ones {
                return Ok(());
            }
            codeword = next_reversed_codeword(codeword, all_ones);
            count -= 1;
            while count == 0 {
                length += 1;
                count = counts[length as usize];
            }
        }
    }

    /// The one incomplete code DEFLATE allows: a single symbol, coded as
    /// `length` zero bits.  Every other bit pattern is invalid.
    fn build_single(&mut self, template: u32, length: u32) {
        self.clear();
        if length <= MAIN_BITS {
            let entry = template + ((length << 8) | length);
            for index in (0..Self::MAIN_SIZE).step_by(1 << length) {
                self.entries[index] = entry;
            }
        } else {
            let inner_length = length - MAIN_BITS;
            let subtable = Self::MAIN_SIZE..Self::MAIN_SIZE + (1 << inner_length);
            self.entries[0] = ((subtable.start as u32) << 16)
                | ENTRY_EXCEPTIONAL
                | ENTRY_SUBTABLE
                | (inner_length << 8)
                | MAIN_BITS;
            self.entries[subtable.clone()].fill(ENTRY_INVALID);
            self.entries[subtable.start] = template + ((inner_length << 8) | inner_length);
        }
    }
}

/// The bit-reversed successor of a bit-reversed `codeword` that is not all
/// ones (`all_ones` is the mask of the current code length): clear the run of
/// high ones, set the zero below it.
#[inline]
fn next_reversed_codeword(codeword: usize, all_ones: usize) -> usize {
    let bit = 1usize << (usize::BITS - 1 - (codeword ^ all_ones).leading_zeros());
    (codeword & (bit - 1)) | bit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HuffmanDecoder;
    use proptest::prelude::*;
    use rgz_bitio::BitReader;

    type WideTable = DecodeTable<11, 2342>;
    type NarrowTable = DecodeTable<8, 402>;

    /// Templates that make the payload of an entry its symbol.
    fn identity_templates() -> Vec<u32> {
        (0..MAX_SYMBOLS as u32).map(|symbol| symbol << 16).collect()
    }

    /// What the reference decoder makes of the 15 bits `pattern`.
    fn reference_lookup(decoder: &HuffmanDecoder, pattern: u32) -> Option<(u32, u32)> {
        let mut bytes = [0u8; 10];
        bytes[..4].copy_from_slice(&pattern.to_le_bytes());
        let mut reader = BitReader::new(&bytes);
        let symbol = decoder.decode(&mut reader).ok()?;
        Some((symbol as u32, reader.position() as u32))
    }

    /// Both builders accept `lengths` and resolve every 15-bit pattern alike,
    /// or both reject them with the same error.
    fn assert_agrees_with_reference<const MAIN_BITS: u32, const SIZE: usize>(lengths: &[u8]) {
        let mut table = DecodeTable::<MAIN_BITS, SIZE>::new();
        let built = table.build(lengths, &identity_templates());
        let reference = match HuffmanDecoder::from_code_lengths(lengths) {
            Ok(reference) => reference,
            Err(error) => {
                assert_eq!(built, Err(error), "lengths {lengths:?}");
                return;
            }
        };
        assert_eq!(built, Ok(()), "lengths {lengths:?}");
        for pattern in 0..1u32 << MAX_CODE_LENGTH {
            let resolved = table
                .resolve(pattern as u64)
                .map(|(entry, length)| (entry_payload(entry), length));
            assert_eq!(
                resolved,
                reference_lookup(&reference, pattern),
                "pattern {pattern:#017b} of lengths {lengths:?}"
            );
        }
    }

    /// A small deterministic generator: the vendored proptest has no
    /// `prop_map`, so code-length vectors are shaped here from a seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// The code lengths of a complete code with `used` codewords (at least
    /// two): split a random leaf until there are enough.
    fn complete_leaf_depths(rng: &mut Rng, used: usize) -> Vec<u8> {
        let mut depths = vec![1u8, 1];
        while depths.len() < used {
            let splittable: Vec<usize> = (0..depths.len())
                .filter(|&leaf| (depths[leaf] as u32) < MAX_CODE_LENGTH)
                .collect();
            let leaf = splittable[rng.below(splittable.len())];
            depths[leaf] += 1;
            depths.push(depths[leaf]);
        }
        depths
    }

    /// Hands `depths` to random symbols of an alphabet of `size`.
    fn assign(rng: &mut Rng, size: usize, depths: &[u8]) -> Vec<u8> {
        let mut symbols: Vec<usize> = (0..size).collect();
        let mut lengths = vec![0u8; size];
        for &depth in depths {
            let symbol = symbols.swap_remove(rng.below(symbols.len()));
            lengths[symbol] = depth;
        }
        lengths
    }

    const ALPHABETS: [usize; 7] = [1, 2, 19, 30, 32, 286, 288];

    proptest! {
        #[test]
        fn builds_and_resolves_exactly_like_the_reference_decoder(
            alphabet in 0usize..ALPHABETS.len(),
            shape in 0usize..7,
            seed in any::<u64>(),
        ) {
            let size = ALPHABETS[alphabet];
            let mut rng = Rng(seed | 1);
            let used = if size < 2 { 1 } else { 2 + rng.below(size - 1) };
            let mut lengths = if used < 2 {
                vec![1u8; size]
            } else {
                let depths = complete_leaf_depths(&mut rng, used);
                assign(&mut rng, size, &depths)
            };
            let some_used = lengths.iter().position(|&length| length != 0).unwrap();
            match shape {
                // Complete (or, in an alphabet of one, the single symbol).
                0 | 1 => {}
                // Over-subscribed: one codeword too short, or one too many.
                2 => match lengths.iter().position(|&length| length == 0) {
                    Some(unused) if rng.below(2) == 0 => lengths[unused] = 1 + rng.below(15) as u8,
                    _ if lengths[some_used] > 1 => lengths[some_used] -= 1,
                    _ => lengths.fill(1),
                },
                // Incomplete: one codeword too long, or one missing.
                3 => {
                    if (lengths[some_used] as u32) < MAX_CODE_LENGTH && rng.below(2) == 0 {
                        lengths[some_used] += 1;
                    } else {
                        lengths[some_used] = 0;
                    }
                }
                // Empty.
                4 => lengths.fill(0),
                // A single symbol, of length one or longer.
                5 => {
                    lengths.fill(0);
                    lengths[rng.below(size)] = if rng.below(2) == 0 { 1 } else { 2 + rng.below(14) as u8 };
                }
                // A length beyond the maximum.
                _ => lengths[rng.below(size)] = 16 + rng.below(8) as u8,
            }
            assert_agrees_with_reference::<11, 2342>(&lengths);
            if size <= 32 {
                assert_agrees_with_reference::<8, 402>(&lengths);
            }
        }
    }

    #[test]
    fn rejects_the_same_codes_as_the_reference_decoder() {
        let mut table = NarrowTable::new();
        for lengths in [&[1u8, 1, 1][..], &[2, 2, 2][..], &[0, 0][..], &[], &[3, 16]] {
            assert_eq!(
                table.build(lengths, &identity_templates()).err(),
                HuffmanDecoder::from_code_lengths(lengths).err(),
            );
        }
    }

    /// One codeword of every length from 1 to 15 (and a second of 15): the
    /// all-ones prefix leads to the only subtable, which codes of four
    /// different lengths share.
    const STAIRCASE: [u8; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15];

    #[test]
    fn last_main_table_length_first_and_deepest_subtable_length() {
        assert_agrees_with_reference::<11, 2342>(&STAIRCASE);
        assert_agrees_with_reference::<8, 402>(&STAIRCASE);

        let mut table = WideTable::new();
        table.build(&STAIRCASE, &identity_templates()).unwrap();
        // Eleven bits: ten ones and a zero, straight from the main table.
        let eleven = table.main_entry(0b011_1111_1111);
        assert_eq!(eleven & ENTRY_EXCEPTIONAL, 0);
        assert_eq!((entry_payload(eleven), entry_code_length(eleven)), (10, 11));
        assert_eq!(entry_consumed_bits(eleven), 11);
        // Twelve to fifteen bits: one subtable behind the all-ones prefix,
        // four bits wide, consumed like any entry.
        let pointer = table.main_entry(0b111_1111_1111);
        assert!(is_subtable_pointer(pointer));
        assert_eq!(entry_code_length(pointer), 4);
        assert_eq!(entry_consumed_bits(pointer), 11);
        let twelve = table.subtable_entry(pointer, 0b1110);
        assert_eq!((entry_payload(twelve), entry_code_length(twelve)), (11, 1));
        assert_eq!(table.resolve(0b0111_1111_1111).map(|(_, l)| l), Some(12));
        let deepest = table.subtable_entry(pointer, 0b1111);
        assert_eq!(
            (entry_payload(deepest), entry_code_length(deepest)),
            (15, 4)
        );
        assert_eq!(table.resolve(0x7FFF).map(|(_, l)| l), Some(15));
        assert_eq!(
            table.resolve(0x3FFF).map(|(e, l)| (entry_payload(e), l)),
            Some((14, 15))
        );
    }

    #[test]
    fn extra_bits_of_a_template_are_added_to_the_low_byte_only() {
        let mut templates = identity_templates();
        templates[11] |= 5;
        templates[1] |= 13;
        let mut table = WideTable::new();
        table.build(&STAIRCASE, &templates).unwrap();
        let short = table.main_entry(0b01);
        assert_eq!(
            (entry_code_length(short), entry_consumed_bits(short)),
            (2, 15)
        );
        let (long, length) = table.resolve(0b0111_1111_1111).unwrap();
        assert_eq!(
            (entry_code_length(long), entry_consumed_bits(long), length),
            (1, 6, 12)
        );
    }

    #[test]
    fn a_single_symbol_leaves_every_other_pattern_invalid() {
        for length in 1..=MAX_CODE_LENGTH as u8 {
            let mut lengths = [0u8; 30];
            lengths[7] = length;
            assert_agrees_with_reference::<8, 402>(&lengths);
            assert_agrees_with_reference::<11, 2342>(&lengths);
            let mut table = NarrowTable::new();
            table.build(&lengths, &identity_templates()).unwrap();
            assert_eq!(
                table
                    .resolve(0)
                    .map(|(entry, length)| (entry_payload(entry), length)),
                Some((7, length as u32))
            );
            assert_eq!(table.resolve(1 << (length - 1)), None);
        }
    }

    #[test]
    fn rebuilding_leaves_nothing_of_the_previous_code() {
        let mut table = WideTable::new();
        table.build(&STAIRCASE, &identity_templates()).unwrap();
        let mut single = [0u8; 4];
        single[2] = 12;
        table.build(&single, &identity_templates()).unwrap();
        assert_eq!(table.resolve(0x7FFF), None);
        assert_eq!(
            table.resolve(0).map(|(e, l)| (entry_payload(e), l)),
            Some((2, 12))
        );
        table.clear();
        assert_eq!(table.resolve(0), None);
    }
}
