//! Hash-chain LZ77 match finding (the `HtMatchFinder` shape).
//!
//! The hash head table and the ring-buffered chain links are allocated once
//! (256 KiB total) and recycled from input to input; the chain links live in
//! a window-sized ring indexed by `position & (WINDOW_SIZE - 1)`, so the
//! finder's footprint is independent of the input length.  Tokens come out a
//! DEFLATE block at a time ([`BlockTokenizer`]), packed and with their symbol
//! frequencies counted ([`TokenBlock`]), so the compressor needs scratch for
//! one block, not for the input.
//!
//! Which match is chosen at a position is pinned byte for byte by
//! `tests/compress_identity.rs`: the chain walk (depth, window and
//! strictly-backwards guards, first-longest-wins) and the one-step lazy rule
//! are exactly those of the byte-at-a-time finder kept in this module's
//! tests as the reference; only the work per candidate differs.

use crate::compress::CompressionLevel;
use crate::constants::{
    distance_code, END_OF_BLOCK, LENGTH_CODE_INDEX, LITERAL_ALPHABET_SIZE, MAX_MATCH, MIN_MATCH,
    WINDOW_SIZE,
};

/// Number of bits in the 3-byte hash.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Sentinel for an empty hash-chain slot.
const NO_POSITION: u32 = u32::MAX;

/// One LZ77 token produced by the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference of `length` bytes starting `distance` bytes back.
    Match {
        /// Match length, `MIN_MATCH..=MAX_MATCH`.
        length: u16,
        /// Match distance, `1..=WINDOW_SIZE`.
        distance: u16,
    },
}

/// A [`Token`] in one word, with the distance code the frequency count
/// already had to look up: bits 0..9 hold the literal byte or the match
/// length, bits 9..14 the distance code, bits 16..32 the distance (zero for
/// a literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedToken(u32);

impl PackedToken {
    /// The match distance, or 0 if this is a literal.
    #[inline]
    pub(crate) fn distance(self) -> usize {
        (self.0 >> 16) as usize
    }

    /// The literal byte of a literal token.
    #[inline]
    pub(crate) fn literal(self) -> u8 {
        self.0 as u8
    }

    /// The length of a match token.
    #[inline]
    pub(crate) fn length(self) -> usize {
        (self.0 & 0x1FF) as usize
    }

    /// The distance code (0..=29) of a match token.
    #[inline]
    pub(crate) fn distance_code(self) -> usize {
        (self.0 >> 9 & 0x1F) as usize
    }

    fn unpack(self) -> Token {
        if self.distance() == 0 {
            Token::Literal(self.literal())
        } else {
            Token::Match {
                length: self.length() as u16,
                distance: self.distance() as u16,
            }
        }
    }
}

/// The tokens of one DEFLATE block and the symbol frequencies they imply,
/// the end-of-block symbol included.  Filled by
/// [`BlockTokenizer::next_block`]; one buffer serves block after block.
#[derive(Debug, Clone)]
pub struct TokenBlock {
    tokens: Vec<PackedToken>,
    literal_frequencies: [u32; LITERAL_ALPHABET_SIZE],
    distance_frequencies: [u32; 30],
}

impl Default for TokenBlock {
    fn default() -> Self {
        Self {
            tokens: Vec::new(),
            literal_frequencies: [0; LITERAL_ALPHABET_SIZE],
            distance_frequencies: [0; 30],
        }
    }
}

impl TokenBlock {
    /// Number of tokens in the block.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the block holds no token.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The block's tokens, in stream order.
    pub fn tokens(&self) -> impl Iterator<Item = Token> + '_ {
        self.tokens.iter().map(|token| token.unpack())
    }

    fn clear(&mut self) {
        self.tokens.clear();
        self.literal_frequencies.fill(0);
        self.literal_frequencies[END_OF_BLOCK as usize] = 1;
        self.distance_frequencies.fill(0);
    }

    #[inline]
    fn push_literal(&mut self, byte: u8) {
        self.tokens.push(PackedToken(byte as u32));
        self.literal_frequencies[byte as usize] += 1;
    }

    #[inline]
    fn push_match(&mut self, length: usize, distance: usize) {
        let code = distance_code(distance);
        self.tokens.push(PackedToken(
            length as u32 | (code as u32) << 9 | (distance as u32) << 16,
        ));
        self.literal_frequencies[257 + LENGTH_CODE_INDEX[length] as usize] += 1;
        self.distance_frequencies[code as usize] += 1;
    }

    pub(crate) fn packed(&self) -> &[PackedToken] {
        &self.tokens
    }

    pub(crate) fn literal_frequencies(&self) -> &[u32; LITERAL_ALPHABET_SIZE] {
        &self.literal_frequencies
    }

    pub(crate) fn distance_frequencies(&self) -> &[u32; 30] {
        &self.distance_frequencies
    }
}

/// Hashes the three bytes in the low 24 bits of `bytes`.
#[inline]
fn hash(bytes: u32) -> usize {
    ((bytes & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash of the three bytes at `data[i..]`, from one 4-byte load wherever a
/// fourth byte exists.
#[inline]
fn hash_at(data: &[u8], i: usize) -> usize {
    match data.get(i..i + 4) {
        Some(four) => hash(u32::from_le_bytes(four.try_into().expect("four bytes"))),
        None => hash((data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16)),
    }
}

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("four bytes"))
}

/// Length of the common prefix of two equally long slices, eight bytes at a
/// step.
#[inline]
fn match_length(current: &[u8], candidate: &[u8]) -> usize {
    debug_assert_eq!(current.len(), candidate.len());
    let mut length = 0usize;
    for (a, b) in current.chunks_exact(8).zip(candidate.chunks_exact(8)) {
        let difference = u64::from_le_bytes(a.try_into().expect("eight bytes"))
            ^ u64::from_le_bytes(b.try_into().expect("eight bytes"));
        if difference != 0 {
            return length + (difference.trailing_zeros() / 8) as usize;
        }
        length += 8;
    }
    let tail = current[length..]
        .iter()
        .zip(&candidate[length..])
        .take_while(|(a, b)| a == b)
        .count();
    length + tail
}

/// A greedy/lazy hash-chain match finder with reusable state.
///
/// The effort knobs (chain depth, lazy evaluation) come from
/// [`CompressionLevel`]; [`HtMatchFinder::reconfigure`] switches levels
/// without touching the allocations.
#[derive(Debug, Clone)]
pub struct HtMatchFinder {
    /// Most recent position for each hash bucket.
    head: Box<[u32; HASH_SIZE]>,
    /// Previous position with the same hash, ring-indexed by
    /// `position & (WINDOW_SIZE - 1)`.
    prev: Box<[u32; WINDOW_SIZE]>,
    max_chain: usize,
    lazy: bool,
}

fn table<const N: usize>() -> Box<[u32; N]> {
    vec![NO_POSITION; N]
        .into_boxed_slice()
        .try_into()
        .expect("the vector has N entries")
}

impl HtMatchFinder {
    /// Creates a finder tuned for `level`.
    pub fn new(level: CompressionLevel) -> Self {
        Self {
            head: table(),
            prev: table(),
            max_chain: level.max_chain(),
            lazy: level.lazy(),
        }
    }

    /// Switches the effort level, keeping the allocated tables.
    pub fn reconfigure(&mut self, level: CompressionLevel) {
        self.max_chain = level.max_chain();
        self.lazy = level.lazy();
    }

    /// Tokenizes `data` from scratch, appending to `tokens` (which is
    /// cleared first).  The finder's tables are reset, so consecutive calls
    /// treat each buffer as an independent stream.
    pub fn tokenize_into(&mut self, data: &[u8], tokens: &mut Vec<Token>) {
        let mut block = TokenBlock::default();
        self.start(data).next_block(usize::MAX, &mut block);
        tokens.clear();
        tokens.extend(block.tokens());
    }

    /// Starts tokenizing `data` as an independent stream: nothing an earlier
    /// input left in the tables can be reached from it.
    pub fn start<'a>(&'a mut self, data: &'a [u8]) -> BlockTokenizer<'a> {
        assert!(
            data.len() < NO_POSITION as usize,
            "input too large for 32-bit match-finder positions"
        );
        // Clearing the heads is enough: chain walks start at a head entry
        // written for this input, and every link reachable from one was
        // also written for this input.
        if self.max_chain > 0 {
            self.head.fill(NO_POSITION);
        }
        BlockTokenizer {
            finder: self,
            data,
            position: 0,
            carried: None,
        }
    }

    /// The longest match for `position` (whose hash is `hash`) among the
    /// first `max_chain` candidates of its hash chain that is longer than
    /// `best_length`, as `(length, distance)`; `(best_length, 0)` if there is
    /// none.  Among equally long candidates the first in chain order (the
    /// nearest) wins.
    ///
    /// `position` must have `MIN_MATCH` bytes left and room for a match
    /// longer than `best_length`.
    #[inline]
    fn find_match(
        &self,
        data: &[u8],
        position: usize,
        hash: usize,
        mut best_length: usize,
    ) -> (usize, usize) {
        let max_length = (data.len() - position).min(MAX_MATCH);
        debug_assert!(max_length >= MIN_MATCH && best_length < max_length);
        let current = &data[position..position + max_length];
        let mut best_distance = 0usize;
        // The four bytes of `current` ending at offset `best_length`.
        let mut wanted = if best_length >= 3 {
            load32(current, best_length - 3)
        } else {
            0
        };
        let mut candidate = self.head[hash];
        let mut chain = 0usize;
        while candidate != NO_POSITION && chain < self.max_chain {
            let candidate_position = candidate as usize;
            let distance = position - candidate_position;
            if distance > WINDOW_SIZE {
                break;
            }
            // A candidate is taken only when strictly longer than the best
            // so far, which it cannot be unless it matches at `best_length`
            // and everywhere before: test the four bytes that end there.
            let could_be_longer = if best_length >= 3 {
                let at = candidate_position + best_length - 3;
                load32(data, at) == wanted
            } else {
                data[candidate_position + best_length] == current[best_length]
            };
            if could_be_longer {
                let length = match_length(
                    current,
                    &data[candidate_position..candidate_position + max_length],
                );
                if length > best_length {
                    best_length = length;
                    best_distance = distance;
                    if length == max_length {
                        break;
                    }
                    if length >= 3 {
                        wanted = load32(current, length - 3);
                    }
                }
            }
            // Ring slots are shared by positions a window apart; a link that
            // does not point strictly backwards was overwritten by a later
            // position and ends the chain.
            let next = self.prev[candidate_position & (WINDOW_SIZE - 1)];
            if next == NO_POSITION || next >= candidate {
                break;
            }
            candidate = next;
            chain += 1;
        }
        (best_length, best_distance)
    }

    #[inline]
    fn link(&mut self, hash: usize, position: usize) {
        self.prev[position & (WINDOW_SIZE - 1)] = self.head[hash];
        self.head[hash] = position as u32;
    }

    /// The best match for `position`, which then enters the table itself.
    #[inline]
    fn find_and_insert(&mut self, data: &[u8], position: usize) -> (usize, usize) {
        if position + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let hash = hash_at(data, position);
        let found = self.find_match(data, position, hash, 0);
        self.link(hash, position);
        found
    }

    /// One-step lazy matching: a match at `position + 1` that is longer than
    /// the `length` bytes found at `position`, if this level looks for one and
    /// one can exist at all.
    #[inline]
    fn find_longer_at_next(
        &self,
        data: &[u8],
        position: usize,
        length: usize,
    ) -> Option<(usize, usize)> {
        let room = (data.len() - position - 1).min(MAX_MATCH);
        if !self.lazy || length < MIN_MATCH || room <= length {
            return None;
        }
        let next = self.find_match(data, position + 1, hash_at(data, position + 1), length);
        (next.0 > length).then_some(next)
    }

    /// Inserts every hashable position in `start..end` (the positions a match
    /// covers), with the bounds checks done once for the whole run.
    #[inline]
    fn insert_range(&mut self, data: &[u8], start: usize, end: usize) {
        // The last hashable position has no fourth byte behind it.
        let last = data.len() - MIN_MATCH;
        let wide_end = end.min(last);
        if start < wide_end {
            for (offset, four) in data[start..wide_end + MIN_MATCH].windows(4).enumerate() {
                let bytes = u32::from_le_bytes(four.try_into().expect("four bytes"));
                self.link(hash(bytes), start + offset);
            }
        }
        if (start..end).contains(&last) {
            self.link(hash_at(data, last), last);
        }
    }
}

/// One pass of an [`HtMatchFinder`] over one input, handing out the tokens a
/// DEFLATE block at a time.
pub struct BlockTokenizer<'a> {
    finder: &'a mut HtMatchFinder,
    data: &'a [u8],
    /// Where the next block starts.
    position: usize,
    /// The match the lazy probe chose for `position`, when the literal in
    /// front of it was the token that filled the previous block.
    carried: Option<(usize, usize)>,
}

impl BlockTokenizer<'_> {
    /// Replaces the contents of `block` with the tokens of the next block and
    /// returns the input range they cover.  A block ends after the token that
    /// brings it to `block_size` (non-zero) input bytes, or with the input.
    pub fn next_block(
        &mut self,
        block_size: usize,
        block: &mut TokenBlock,
    ) -> std::ops::Range<usize> {
        assert!(block_size > 0, "block_size must be non-zero");
        block.clear();
        let data = self.data;
        let start = self.position;
        let mut i = start;
        if self.finder.max_chain == 0 {
            let end = data.len().min(start.saturating_add(block_size));
            for &byte in &data[start..end] {
                block.push_literal(byte);
            }
            i = end;
        }
        while i < data.len() && i - start < block_size {
            let (length, distance) = match self.carried.take() {
                Some(chosen) => chosen,
                None => {
                    let found = self.finder.find_and_insert(data, i);
                    match self.finder.find_longer_at_next(data, i, found.0) {
                        Some(next) => {
                            block.push_literal(data[i]);
                            i += 1;
                            if i - start >= block_size {
                                self.carried = Some(next);
                                break;
                            }
                            next
                        }
                        None => found,
                    }
                }
            };
            if length >= MIN_MATCH {
                block.push_match(length, distance);
                // The match's first position is in the table already, or is
                // deliberately left out when the lazy step moved the match
                // (the reference never inserted it either).
                self.finder.insert_range(data, i + 1, i + length);
                i += length;
            } else {
                block.push_literal(data[i]);
                i += 1;
            }
        }
        self.position = i;
        start..i
    }
}

/// The finder this module had before: every chain candidate compared byte by
/// byte from offset 0, the lazy probe a full second search, one bounds-checked
/// insert per position, the whole input into one token vector.  Kept as the
/// reference the block tokenizer must agree with, token for token.
#[cfg(test)]
mod reference {
    use super::{Token, HASH_BITS, HASH_SIZE, NO_POSITION};
    use crate::compress::CompressionLevel;
    use crate::constants::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

    fn hash(data: &[u8], i: usize) -> usize {
        let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    pub(super) struct Finder {
        head: Vec<u32>,
        prev: Vec<u32>,
        max_chain: usize,
        lazy: bool,
    }

    impl Finder {
        pub(super) fn new(level: CompressionLevel) -> Self {
            Self {
                head: vec![NO_POSITION; HASH_SIZE],
                prev: vec![NO_POSITION; WINDOW_SIZE],
                max_chain: level.max_chain(),
                lazy: level.lazy(),
            }
        }

        pub(super) fn tokenize(&mut self, data: &[u8]) -> Vec<Token> {
            let mut tokens = Vec::new();
            if self.max_chain == 0 {
                tokens.extend(data.iter().map(|&b| Token::Literal(b)));
                return tokens;
            }
            self.head.fill(NO_POSITION);

            let mut i = 0usize;
            while i < data.len() {
                let (mut length, mut distance) = self.find_match(data, i);
                if length >= MIN_MATCH && self.lazy && i + 1 < data.len() {
                    // One-step lazy matching: prefer a longer match starting
                    // at the next byte.
                    self.insert(data, i);
                    let (next_length, next_distance) = self.find_match(data, i + 1);
                    if next_length > length {
                        tokens.push(Token::Literal(data[i]));
                        i += 1;
                        length = next_length;
                        distance = next_distance;
                    }
                } else if length >= MIN_MATCH {
                    self.insert(data, i);
                }

                if length >= MIN_MATCH {
                    tokens.push(Token::Match {
                        length: length as u16,
                        distance: distance as u16,
                    });
                    // Insert hash entries for the matched region (skipping
                    // the first position, already inserted above).
                    for j in (i + 1)..(i + length) {
                        self.insert(data, j);
                    }
                    i += length;
                } else {
                    self.insert(data, i);
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                }
            }
            tokens
        }

        fn find_match(&self, data: &[u8], position: usize) -> (usize, usize) {
            if position + MIN_MATCH > data.len() {
                return (0, 0);
            }
            let max_length = (data.len() - position).min(MAX_MATCH);
            let mut best_length = 0usize;
            let mut best_distance = 0usize;
            let mut candidate = self.head[hash(data, position)];
            let mut chain = 0usize;
            while candidate != NO_POSITION && chain < self.max_chain {
                let candidate_position = candidate as usize;
                let distance = position - candidate_position;
                if distance > WINDOW_SIZE {
                    break;
                }
                let mut length = 0usize;
                while length < max_length
                    && data[candidate_position + length] == data[position + length]
                {
                    length += 1;
                }
                if length > best_length {
                    best_length = length;
                    best_distance = distance;
                    if length == max_length {
                        break;
                    }
                }
                let next = self.prev[candidate_position & (WINDOW_SIZE - 1)];
                if next == NO_POSITION || next >= candidate {
                    break;
                }
                candidate = next;
                chain += 1;
            }
            (best_length, best_distance)
        }

        fn insert(&mut self, data: &[u8], position: usize) {
            if position + MIN_MATCH <= data.len() {
                let h = hash(data, position);
                self.prev[position & (WINDOW_SIZE - 1)] = self.head[h];
                self.head[h] = position as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{distance_to_code, length_to_code};
    use proptest::prelude::*;

    const LEVELS: [CompressionLevel; 4] = [
        CompressionLevel::Huffman,
        CompressionLevel::Fast,
        CompressionLevel::Default,
        CompressionLevel::Best,
    ];

    fn assert_same_tokens(tokens: &[Token], expected: &[Token], what: &str) {
        if let Some(index) = (0..tokens.len().max(expected.len()))
            .find(|&index| tokens.get(index) != expected.get(index))
        {
            panic!(
                "{what}: token {index} is {:?}, the reference has {:?}",
                tokens.get(index),
                expected.get(index)
            );
        }
    }

    /// `tokenize_into`, and the block tokenizer at `block_size`, must produce
    /// the reference finder's tokens; the blocks must tile the input by the
    /// split rule and count their own symbols right.
    fn assert_agrees_with_reference(data: &[u8], level: CompressionLevel, block_size: usize) {
        let expected = reference::Finder::new(level).tokenize(data);
        let mut finder = HtMatchFinder::new(level);
        let mut tokens = Vec::new();
        finder.tokenize_into(data, &mut tokens);
        assert_same_tokens(&tokens, &expected, "tokenize_into");

        tokens.clear();
        let mut block = TokenBlock::default();
        let mut tokenizer = finder.start(data);
        let mut covered = 0usize;
        while covered < data.len() {
            let range = tokenizer.next_block(block_size, &mut block);
            assert_eq!(range.start, covered);
            assert!(range.len() >= block_size || range.end == data.len());
            covered = range.end;

            let unpacked: Vec<Token> = block.tokens().collect();
            let mut literal_frequencies = [0u32; LITERAL_ALPHABET_SIZE];
            let mut distance_frequencies = [0u32; 30];
            let mut input_bytes = 0usize;
            for (index, token) in unpacked.iter().enumerate() {
                // Only the last token may reach the block size.
                assert!(
                    input_bytes < block_size,
                    "token {index} starts past the block"
                );
                match *token {
                    Token::Literal(byte) => {
                        literal_frequencies[byte as usize] += 1;
                        input_bytes += 1;
                    }
                    Token::Match { length, distance } => {
                        literal_frequencies[length_to_code(length as usize).0 as usize] += 1;
                        distance_frequencies[distance_to_code(distance as usize).0 as usize] += 1;
                        input_bytes += length as usize;
                    }
                }
            }
            literal_frequencies[END_OF_BLOCK as usize] += 1;
            assert_eq!(input_bytes, range.len());
            assert_eq!(block.literal_frequencies(), &literal_frequencies);
            assert_eq!(block.distance_frequencies(), &distance_frequencies);
            tokens.extend(unpacked);
        }
        assert_same_tokens(&tokens, &expected, "block by block");
    }

    fn noise(length: usize, seed: u32) -> Vec<u8> {
        let mut state = seed;
        (0..length)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn a_candidate_exactly_one_window_back_is_still_a_match() {
        let phrase = b"exactly-one-window-back!";
        for gap in [WINDOW_SIZE - 1, WINDOW_SIZE, WINDOW_SIZE + 1] {
            let mut data = phrase.to_vec();
            data.extend(noise(gap - phrase.len(), 7));
            data.extend_from_slice(phrase);
            data.extend(noise(100, 8));
            for level in LEVELS {
                assert_agrees_with_reference(&data, level, 10_000);
            }
            let mut tokens = Vec::new();
            HtMatchFinder::new(CompressionLevel::Default).tokenize_into(&data, &mut tokens);
            let reaches_back = tokens.iter().any(
                |token| matches!(token, Token::Match { distance, .. } if *distance as usize == gap),
            );
            assert_eq!(reaches_back, gap <= WINDOW_SIZE, "gap {gap}");
        }
    }

    #[test]
    fn a_phrase_repeated_past_the_ring_wrap_agrees() {
        // Every ring slot is overwritten three times over, and every chain
        // is as long as the level lets it be.
        let data = b"one phrase, forty bytes, again and again".repeat(3000);
        for level in LEVELS {
            assert_agrees_with_reference(&data, level, 16 << 10);
        }
    }

    #[test]
    fn matches_that_run_into_the_end_of_the_data_agree() {
        // The word compare has fewer than eight bytes left, then fewer than
        // a minimum match, then nothing.
        let base = noise(300, 3);
        for copied in 0..=20 {
            let mut data = base.clone();
            data.extend_from_slice(&base[..copied]);
            for level in LEVELS {
                assert_agrees_with_reference(&data, level, 64);
            }
        }
        let periodic = b"abcabcabcabcabcabcabc";
        for length in 0..=periodic.len() {
            for level in LEVELS {
                assert_agrees_with_reference(&periodic[..length], level, 4);
            }
        }
    }

    #[test]
    fn a_maximal_match_skips_the_lazy_probe() {
        let data = vec![0u8; 3000];
        for level in LEVELS {
            assert_agrees_with_reference(&data, level, 1000);
        }
        let mut tokens = Vec::new();
        HtMatchFinder::new(CompressionLevel::Best).tokenize_into(&data, &mut tokens);
        assert_eq!(tokens[0], Token::Literal(0));
        assert!(tokens[1..tokens.len() - 1].iter().all(|token| matches!(
            token,
            Token::Match {
                length: 258,
                distance: 1
            }
        )));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn block_tokenizer_agrees_with_the_reference_on_the_corpora(
            corpus in 0u8..4,
            seed in 0u64..1000,
            length in prop_oneof![0usize..2000, 0usize..(200 << 10)],
            level in prop_oneof![
                Just(CompressionLevel::Huffman),
                Just(CompressionLevel::Fast),
                Just(CompressionLevel::Default),
                Just(CompressionLevel::Best),
            ],
            block_size in prop_oneof![1usize..300, Just(4usize << 10), Just(128 << 10)],
        ) {
            let data = match corpus {
                0 => rgz_datagen::silesia_like(length, seed),
                1 => rgz_datagen::base64_random(length, seed),
                2 => rgz_datagen::fastq_of_size(length, seed),
                // Few distinct bytes: long chains of short, overlapping matches.
                _ => noise(length, seed as u32).iter().map(|byte| b"ab\n"[*byte as usize % 3]).collect(),
            };
            assert_agrees_with_reference(&data, level, block_size);
        }
    }

    fn expand(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for token in tokens {
            match *token {
                Token::Literal(byte) => out.push(byte),
                Token::Match { length, distance } => {
                    assert!((MIN_MATCH..=MAX_MATCH).contains(&(length as usize)));
                    let distance = distance as usize;
                    assert!((1..=WINDOW_SIZE).contains(&distance));
                    assert!(distance <= out.len(), "match reaches before the stream");
                    for _ in 0..length {
                        out.push(out[out.len() - distance]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn tokens_expand_back_to_the_input() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick fox".repeat(300);
        for level in [
            CompressionLevel::Huffman,
            CompressionLevel::Fast,
            CompressionLevel::Default,
            CompressionLevel::Best,
        ] {
            let mut finder = HtMatchFinder::new(level);
            let mut tokens = Vec::new();
            finder.tokenize_into(&data, &mut tokens);
            assert_eq!(expand(&tokens), data, "level {level:?}");
        }
    }

    #[test]
    fn reuse_across_buffers_is_stateless() {
        let mut finder = HtMatchFinder::new(CompressionLevel::Default);
        let first = b"aaaa bbbb cccc dddd".repeat(50);
        let second = b"zzzz yyyy xxxx wwww".repeat(50);
        let mut tokens = Vec::new();
        finder.tokenize_into(&first, &mut tokens);
        let first_tokens = tokens.clone();
        finder.tokenize_into(&second, &mut tokens);
        assert_eq!(expand(&tokens), second);
        // Re-tokenizing the first buffer after another run must give the
        // same result as the fresh finder did.
        finder.tokenize_into(&first, &mut tokens);
        assert_eq!(tokens, first_tokens);
    }

    #[test]
    fn inputs_longer_than_the_window_stay_consistent() {
        // > 32 KiB of repetitive data exercises the ring-buffer wrap and the
        // strictly-backwards chain guard.
        let data: Vec<u8> = (0..200_000u32)
            .flat_map(|i| format!("line {}\n", i % 700).into_bytes())
            .collect();
        let mut finder = HtMatchFinder::new(CompressionLevel::Best);
        let mut tokens = Vec::new();
        finder.tokenize_into(&data, &mut tokens);
        assert_eq!(expand(&tokens), data);
        assert!(
            tokens.len() < data.len() / 4,
            "repetitive data should mostly tokenize into matches"
        );
    }

    #[test]
    fn reconfigure_switches_effort_without_reallocating() {
        let data = b"abcabcabcabc".repeat(1000);
        let mut finder = HtMatchFinder::new(CompressionLevel::Huffman);
        let mut tokens = Vec::new();
        finder.tokenize_into(&data, &mut tokens);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        finder.reconfigure(CompressionLevel::Fast);
        finder.tokenize_into(&data, &mut tokens);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(expand(&tokens), data);
    }
}
