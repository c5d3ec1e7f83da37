//! Constant tables from RFC 1951.

/// Number of symbols in the literal/length alphabet (0..=287, 286/287 unused).
pub const LITERAL_ALPHABET_SIZE: usize = 288;
/// Number of symbols in the distance alphabet (0..=31, 30/31 unused).
pub const DISTANCE_ALPHABET_SIZE: usize = 32;
/// Number of symbols in the precode (code-length) alphabet.
pub const PRECODE_ALPHABET_SIZE: usize = 19;
/// End-of-block symbol in the literal/length alphabet.
pub const END_OF_BLOCK: u16 = 256;
/// Size of the LZ77 sliding window.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum and maximum match lengths.
pub const MIN_MATCH: usize = 3;
pub const MAX_MATCH: usize = 258;
/// Maximum payload of a single Non-Compressed (stored) block.
pub const MAX_STORED_BLOCK_SIZE: usize = 65_535;

/// Base match length for length codes 257..=285.
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for length codes 257..=285.
pub const LENGTH_EXTRA_BITS: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Base distances for distance codes 0..=29.
pub const DISTANCE_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for distance codes 0..=29.
pub const DISTANCE_EXTRA_BITS: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which precode code lengths are stored in a Dynamic Block header.
pub const PRECODE_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Code lengths of the fixed literal/length Huffman code (BTYPE = 01).
pub fn fixed_literal_lengths() -> Vec<u8> {
    let mut lengths = vec![8u8; 144];
    lengths.extend(std::iter::repeat_n(9u8, 112));
    lengths.extend(std::iter::repeat_n(7u8, 24));
    lengths.extend(std::iter::repeat_n(8u8, 8));
    lengths
}

/// Code lengths of the fixed distance Huffman code (BTYPE = 01).
pub fn fixed_distance_lengths() -> Vec<u8> {
    vec![5u8; DISTANCE_ALPHABET_SIZE]
}

/// Index into [`LENGTH_BASE`] (length code minus 257) of every match length;
/// the entries below [`MIN_MATCH`] are never read.
pub(crate) const LENGTH_CODE_INDEX: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut length = MIN_MATCH;
    while length <= MAX_MATCH {
        let mut index = 0;
        while index + 1 < LENGTH_BASE.len() && LENGTH_BASE[index + 1] as usize <= length {
            index += 1;
        }
        table[length] = index as u8;
        length += 1;
    }
    table
};

/// Where [`DISTANCE_CODES`] keeps the code of `distance`: zlib's two-part
/// layout, one entry per distance up to 256, then one per 128 distances
/// (every code from 16 up starts on a multiple of 128, plus one, and covers a
/// multiple of 128 distances).
const fn distance_slot(distance: usize) -> usize {
    let distance_minus_one = distance - 1;
    if distance_minus_one < 256 {
        distance_minus_one
    } else {
        256 + (distance_minus_one >> 7)
    }
}

/// The distance code of every distance, at its [`distance_slot`].
const DISTANCE_CODES: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    let mut distance = 1;
    while distance <= WINDOW_SIZE {
        if code + 1 < DISTANCE_BASE.len() && DISTANCE_BASE[code + 1] as usize == distance {
            code += 1;
        }
        table[distance_slot(distance)] = code as u8;
        distance += 1;
    }
    table
};

/// The distance code (0..=29) of a match distance (1..=32768).
#[inline]
pub(crate) fn distance_code(distance: usize) -> u8 {
    debug_assert!((1..=WINDOW_SIZE).contains(&distance));
    DISTANCE_CODES[distance_slot(distance) & 511]
}

/// Maps a match length (3..=258) to `(length code, extra bits, extra value)`.
/// Length 258 uses code 285 (no extra bits), not 284 plus 31.
#[inline]
pub fn length_to_code(length: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&length));
    let code_index = LENGTH_CODE_INDEX[length] as usize;
    (
        257 + code_index as u16,
        LENGTH_EXTRA_BITS[code_index],
        (length - LENGTH_BASE[code_index] as usize) as u16,
    )
}

/// Maps a match distance (1..=32768) to `(distance code, extra bits, extra value)`.
#[inline]
pub fn distance_to_code(distance: usize) -> (u16, u8, u16) {
    let code_index = distance_code(distance) as usize;
    (
        code_index as u16,
        DISTANCE_EXTRA_BITS[code_index],
        (distance - DISTANCE_BASE[code_index] as usize) as u16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_code_lengths_have_rfc_sizes() {
        let literals = fixed_literal_lengths();
        assert_eq!(literals.len(), LITERAL_ALPHABET_SIZE);
        assert_eq!(literals[0], 8);
        assert_eq!(literals[143], 8);
        assert_eq!(literals[144], 9);
        assert_eq!(literals[255], 9);
        assert_eq!(literals[256], 7);
        assert_eq!(literals[279], 7);
        assert_eq!(literals[280], 8);
        assert_eq!(literals[287], 8);
        assert_eq!(fixed_distance_lengths(), vec![5u8; 32]);
    }

    /// The binary searches the lookup tables replaced.
    fn length_to_code_by_search(length: usize) -> (u16, u8, u16) {
        let mut code_index = LENGTH_BASE.partition_point(|&base| base as usize <= length) - 1;
        if length == MAX_MATCH {
            code_index = 28;
        }
        let base = LENGTH_BASE[code_index] as usize;
        (
            257 + code_index as u16,
            LENGTH_EXTRA_BITS[code_index],
            (length - base) as u16,
        )
    }

    fn distance_to_code_by_search(distance: usize) -> (u16, u8, u16) {
        let code_index = DISTANCE_BASE.partition_point(|&base| base as usize <= distance) - 1;
        let base = DISTANCE_BASE[code_index] as usize;
        (
            code_index as u16,
            DISTANCE_EXTRA_BITS[code_index],
            (distance - base) as u16,
        )
    }

    #[test]
    fn lookup_tables_agree_with_the_binary_searches() {
        for length in MIN_MATCH..=MAX_MATCH {
            assert_eq!(length_to_code(length), length_to_code_by_search(length));
        }
        for distance in 1..=WINDOW_SIZE {
            assert_eq!(
                distance_to_code(distance),
                distance_to_code_by_search(distance)
            );
        }
    }

    #[test]
    fn every_length_round_trips_through_its_code() {
        for length in MIN_MATCH..=MAX_MATCH {
            let (code, extra_bits, extra) = length_to_code(length);
            assert!(
                (257..=285).contains(&code),
                "length {length} -> code {code}"
            );
            let index = (code - 257) as usize;
            assert_eq!(LENGTH_EXTRA_BITS[index], extra_bits);
            assert_eq!(LENGTH_BASE[index] as usize + extra as usize, length);
            assert!(extra < (1 << extra_bits) || extra_bits == 0 && extra == 0);
        }
    }

    #[test]
    fn length_258_uses_code_285() {
        assert_eq!(length_to_code(258), (285, 0, 0));
        // 258 could also be encoded as code 284 + extra 31, but canonical
        // encoders use 285; our decoder accepts both.
        assert_eq!(length_to_code(257), (284, 5, 30));
    }

    #[test]
    fn every_distance_round_trips_through_its_code() {
        for distance in 1..=WINDOW_SIZE {
            let (code, extra_bits, extra) = distance_to_code(distance);
            assert!((0..30).contains(&(code as usize)));
            let index = code as usize;
            assert_eq!(DISTANCE_EXTRA_BITS[index], extra_bits);
            assert_eq!(DISTANCE_BASE[index] as usize + extra as usize, distance);
        }
    }

    #[test]
    fn precode_order_is_a_permutation() {
        let mut seen = [false; 19];
        for &position in &PRECODE_ORDER {
            assert!(!seen[position]);
            seen[position] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
