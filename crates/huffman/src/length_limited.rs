//! Length-limited Huffman code construction via the package-merge algorithm.
//!
//! The DEFLATE compressor needs code lengths bounded by 15 (literal/length
//! and distance alphabets) or 7 (precode).  Package-merge produces an optimal
//! set of lengths under such a bound, unlike plain Huffman construction which
//! can exceed it for skewed frequency distributions.

use crate::HuffmanError;

/// Computes length-limited Huffman code lengths for the given symbol
/// frequencies.
///
/// * Symbols with frequency zero receive length zero (no code).
/// * If no symbol has a non-zero frequency, all lengths are zero.
/// * If exactly one symbol is used it receives length 1 (DEFLATE encodes
///   single-symbol alphabets with one bit, not zero bits).
/// * Otherwise the returned lengths form a complete code with
///   `length <= max_length` for every symbol, minimizing the weighted length.
///
/// Returns an error only if the alphabet cannot be represented within
/// `max_length` bits (i.e. more than `2^max_length` used symbols).
///
/// Runs in O(n * max_length) after the sort and allocates seven vectors
/// whatever the alphabet.  Ties are broken the way the compressor's pinned
/// output depends on: equal frequencies keep symbol order, and a leaf goes
/// before a package of the same weight.
pub fn compute_code_lengths(frequencies: &[u32], max_length: u32) -> Result<Vec<u8>, HuffmanError> {
    // The used symbols as `(weight, symbol)`, lightest first.
    let mut leaves: Vec<(u64, usize)> = frequencies
        .iter()
        .enumerate()
        .filter(|(_, &frequency)| frequency > 0)
        .map(|(symbol, &frequency)| (frequency as u64, symbol))
        .collect();
    let mut lengths = vec![0u8; frequencies.len()];
    let count = leaves.len();
    match count {
        0 => return Ok(lengths),
        1 => {
            lengths[leaves[0].1] = 1;
            return Ok(lengths);
        }
        n if (n as u64) > (1u64 << max_length) => {
            return Err(HuffmanError::LengthTooLarge {
                length: max_length as u8 + 1,
                maximum: max_length,
            })
        }
        _ => {}
    }
    // Symbols are distinct, so this is the stable sort by weight.
    leaves.sort_unstable();

    // Package-merge.  A level's list is the leaves merged with the packages
    // (adjacent pairs) of the level below, by weight.  The first k packages
    // of a list are exactly the first 2k items of the list below, so every
    // selection the algorithm makes is a *prefix* of a list, and a prefix is
    // described by how many leaves it holds: a level keeps one flag per
    // item, and only the weights of the newest list are needed to build the
    // next.
    let levels = max_length as usize;
    let mut is_leaf: Vec<bool> = Vec::with_capacity(levels * 2 * count);
    let mut level_ends: Vec<usize> = Vec::with_capacity(levels);
    let mut weights: Vec<u64> = leaves.iter().map(|&(weight, _)| weight).collect();
    let mut below: Vec<u64> = Vec::with_capacity(2 * count);
    is_leaf.resize(count, true);
    level_ends.push(count);
    for _ in 1..levels {
        std::mem::swap(&mut weights, &mut below);
        weights.clear();
        let mut packages = below
            .chunks_exact(2)
            .map(|pair| pair[0] + pair[1])
            .peekable();
        let mut leaf = 0usize;
        loop {
            let take_leaf = match (leaves.get(leaf), packages.peek()) {
                (Some(&(weight, _)), Some(&package)) => weight <= package,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_leaf {
                weights.push(leaves[leaf].0);
                leaf += 1;
            } else {
                weights.extend(packages.next());
            }
            is_leaf.push(take_leaf);
        }
        level_ends.push(is_leaf.len());
    }

    // The first 2n-2 items of the top list define the code: a symbol's
    // length is the number of levels whose selected prefix holds its leaf.
    // `reaching[r]` counts the levels whose prefix holds exactly `r` leaves.
    let mut reaching = vec![0u8; count + 1];
    let mut selected = 2 * count - 2;
    for level in (0..levels).rev() {
        let start = if level == 0 { 0 } else { level_ends[level - 1] };
        let list = &is_leaf[start..level_ends[level]];
        let prefix = &list[..selected.min(list.len())];
        let leaves_taken = prefix.iter().filter(|&&leaf| leaf).count();
        reaching[leaves_taken] += 1;
        selected = 2 * (prefix.len() - leaves_taken);
    }
    let mut length = 0u8;
    for (rank, &(_, symbol)) in leaves.iter().enumerate().rev() {
        length += reaching[rank + 1];
        debug_assert!(length >= 1 && length as u32 <= max_length);
        lengths[symbol] = length;
    }
    Ok(lengths)
}

/// The package-merge this module used before: every item carries a count per
/// leaf, cloned at every merge.  O(n^2 * max_length) and thousands of
/// allocations, but a direct transcription of the algorithm; kept as the
/// reference [`compute_code_lengths`] must agree with, ties included.
#[cfg(test)]
mod reference {
    use crate::HuffmanError;

    pub(crate) fn compute_code_lengths(
        frequencies: &[u32],
        max_length: u32,
    ) -> Result<Vec<u8>, HuffmanError> {
        let used: Vec<usize> = frequencies
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, _)| i)
            .collect();
        let mut lengths = vec![0u8; frequencies.len()];
        match used.len() {
            0 => return Ok(lengths),
            1 => {
                lengths[used[0]] = 1;
                return Ok(lengths);
            }
            n if (n as u64) > (1u64 << max_length) => {
                return Err(HuffmanError::LengthTooLarge {
                    length: max_length as u8 + 1,
                    maximum: max_length,
                })
            }
            _ => {}
        }

        // Package-merge. An item is either an original leaf or a package of two
        // items from the previous level; we only need to know, per item, how many
        // times each *leaf* occurs inside it, which we track as a count vector
        // indexed by position in `used`.
        #[derive(Clone)]
        struct Item {
            weight: u64,
            /// Number of occurrences of each used symbol inside this item.
            leaf_counts: Vec<u16>,
        }

        let leaves: Vec<Item> = {
            let mut leaves: Vec<Item> = used
                .iter()
                .enumerate()
                .map(|(slot, &symbol)| {
                    let mut counts = vec![0u16; used.len()];
                    counts[slot] = 1;
                    Item {
                        weight: frequencies[symbol] as u64,
                        leaf_counts: counts,
                    }
                })
                .collect();
            leaves.sort_by_key(|item| item.weight);
            leaves
        };

        let mut current = leaves.clone();
        for _ in 1..max_length {
            // Package adjacent pairs of the current list.
            let mut packages = Vec::with_capacity(current.len() / 2);
            let mut iter = current.chunks_exact(2);
            for pair in &mut iter {
                let mut counts = pair[0].leaf_counts.clone();
                for (count, other) in counts.iter_mut().zip(&pair[1].leaf_counts) {
                    *count += other;
                }
                packages.push(Item {
                    weight: pair[0].weight + pair[1].weight,
                    leaf_counts: counts,
                });
            }
            // Merge the original leaves with the packages, keeping the list sorted.
            let mut merged = Vec::with_capacity(leaves.len() + packages.len());
            let (mut i, mut j) = (0, 0);
            while i < leaves.len() || j < packages.len() {
                let take_leaf = match (leaves.get(i), packages.get(j)) {
                    (Some(leaf), Some(package)) => leaf.weight <= package.weight,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!(),
                };
                if take_leaf {
                    merged.push(leaves[i].clone());
                    i += 1;
                } else {
                    merged.push(packages[j].clone());
                    j += 1;
                }
            }
            current = merged;
        }

        // The first 2n-2 items of the final list define the code: each occurrence
        // of a leaf adds one to that symbol's code length.
        let selected = 2 * used.len() - 2;
        let mut per_slot_lengths = vec![0u16; used.len()];
        for item in current.iter().take(selected) {
            for (slot, &count) in item.leaf_counts.iter().enumerate() {
                per_slot_lengths[slot] += count;
            }
        }
        for (slot, &symbol) in used.iter().enumerate() {
            debug_assert!(per_slot_lengths[slot] >= 1);
            debug_assert!(per_slot_lengths[slot] as u32 <= max_length);
            lengths[symbol] = per_slot_lengths[slot] as u8;
        }
        Ok(lengths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify_code_lengths, CodeCompleteness};
    use proptest::prelude::*;

    fn weighted_length(frequencies: &[u32], lengths: &[u8]) -> u64 {
        frequencies
            .iter()
            .zip(lengths)
            .map(|(&f, &l)| f as u64 * l as u64)
            .sum()
    }

    #[test]
    fn empty_and_single_symbol_cases() {
        assert_eq!(compute_code_lengths(&[0, 0, 0], 15).unwrap(), vec![0, 0, 0]);
        assert_eq!(compute_code_lengths(&[0, 7, 0], 15).unwrap(), vec![0, 1, 0]);
        assert_eq!(compute_code_lengths(&[], 15).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        assert_eq!(compute_code_lengths(&[1000, 1], 15).unwrap(), vec![1, 1]);
    }

    #[test]
    fn uniform_frequencies_give_balanced_code() {
        let lengths = compute_code_lengths(&[5; 8], 15).unwrap();
        assert_eq!(lengths, vec![3; 8]);
    }

    #[test]
    fn skewed_frequencies_respect_the_limit() {
        // Fibonacci-like frequencies force long codes in unbounded Huffman.
        let frequencies: Vec<u32> = (0..20).map(|i| 1u32 << i.min(20)).collect();
        for limit in [5u32, 7, 15] {
            let lengths = compute_code_lengths(&frequencies, limit).unwrap();
            assert!(lengths.iter().all(|&l| l as u32 <= limit && l > 0));
            assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Complete);
        }
    }

    #[test]
    fn matches_unbounded_huffman_when_limit_is_loose() {
        // Reference: classic Huffman via repeated pairing of the two lightest
        // weights (computed here with a simple O(n^2) loop).
        let frequencies = [45u32, 13, 12, 16, 9, 5];
        let lengths = compute_code_lengths(&frequencies, 15).unwrap();
        // The canonical optimum for this distribution costs 224 weighted bits.
        assert_eq!(weighted_length(&frequencies, &lengths), 224);
        assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Complete);
    }

    #[test]
    fn too_many_symbols_for_the_limit_is_an_error() {
        let frequencies = vec![1u32; 5];
        assert!(compute_code_lengths(&frequencies, 2).is_err());
        assert!(compute_code_lengths(&frequencies, 3).is_ok());
    }

    /// Frequencies as the compressor sees them: many zeros, many ties among
    /// the small counts, a few huge ones.
    fn frequency((kind, value): (u8, u32)) -> u32 {
        match kind {
            0 | 1 => 0,
            2 | 3 => value % 4,
            4 => 1 + value % 64,
            _ => value,
        }
    }

    #[test]
    fn over_full_alphabets_fail_like_the_reference() {
        for (symbols, limit) in [(5usize, 2u32), (129, 7), (200, 7)] {
            let frequencies = vec![3u32; symbols];
            assert_eq!(
                compute_code_lengths(&frequencies, limit),
                reference::compute_code_lengths(&frequencies, limit),
            );
            assert!(compute_code_lengths(&frequencies, limit).is_err());
        }
        // Exactly full is a flat code, not an error.
        assert_eq!(
            compute_code_lengths(&[9u32; 128], 7).unwrap(),
            vec![7u8; 128]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The O(n L) construction is the reference construction, tie for
        /// tie: same lengths for every symbol, over the alphabet sizes
        /// DEFLATE uses (precode 19, distance 30, literal/length 288) and the
        /// degenerate ones, at both of its limits.
        #[test]
        fn agrees_with_the_reference_package_merge(
            symbols in prop_oneof![Just(1usize), Just(2), Just(19), Just(30), Just(288)],
            draws in proptest::collection::vec((0u8..6, any::<u32>()), 288),
            limit in prop_oneof![Just(7u32), Just(15)],
        ) {
            let frequencies: Vec<u32> = draws[..symbols].iter().copied().map(frequency).collect();
            let used = frequencies.iter().filter(|&&f| f > 0).count();
            let result = compute_code_lengths(&frequencies, limit);
            prop_assert_eq!(&result, &reference::compute_code_lengths(&frequencies, limit));
            match result {
                Err(_) => prop_assert!(used > 1 << limit),
                Ok(lengths) => match used {
                    0 => prop_assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Empty),
                    1 => prop_assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Incomplete),
                    _ => prop_assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Complete),
                },
            }
        }

    }

    proptest! {
        #[test]
        fn always_produces_complete_bounded_codes(
            frequencies in proptest::collection::vec(0u32..10_000, 0..80),
            limit in 8u32..=15,
        ) {
            let lengths = compute_code_lengths(&frequencies, limit).unwrap();
            prop_assert_eq!(lengths.len(), frequencies.len());
            for (frequency, length) in frequencies.iter().zip(&lengths) {
                prop_assert_eq!(*frequency == 0, *length == 0);
                prop_assert!((*length as u32) <= limit);
            }
            let used = frequencies.iter().filter(|&&f| f > 0).count();
            match used {
                0 => {}
                1 => prop_assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Incomplete),
                _ => prop_assert_eq!(classify_code_lengths(&lengths), CodeCompleteness::Complete),
            }
        }

        #[test]
        fn cost_never_beats_entropy_bound(
            frequencies in proptest::collection::vec(1u32..1000, 2..40),
        ) {
            let lengths = compute_code_lengths(&frequencies, 15).unwrap();
            let total: f64 = frequencies.iter().map(|&f| f as f64).sum();
            let entropy: f64 = frequencies.iter()
                .map(|&f| {
                    let p = f as f64 / total;
                    -p * p.log2()
                })
                .sum();
            let cost = weighted_length(&frequencies, &lengths) as f64;
            // Shannon: optimal expected length is within [H, H + 1).
            prop_assert!(cost >= entropy * total - 1e-6);
            prop_assert!(cost <= (entropy + 1.0) * total + 1e-6);
        }
    }
}
