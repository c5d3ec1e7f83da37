//! Block finders — locating candidate DEFLATE block starts at arbitrary bit
//! offsets (§3.4 of the paper).
//!
//! A chunk decompression thread is handed a guessed offset in the middle of a
//! gzip file and must locate the next Deflate block before it can start the
//! two-stage decoding.  Because blocks are not byte-aligned and carry no
//! magic number this search is probabilistic: the finders below may return
//! false positives (which the cache-and-prefetch architecture tolerates) but
//! should not miss real blocks.
//!
//! Two specialised finders exist, combined by [`CombinedBlockFinder`]:
//!
//! * [`UncompressedBlockFinder`] for Non-Compressed Blocks (§3.4.1),
//! * [`DynamicBlockFinder`] for Dynamic Blocks (§3.4.2).

pub mod dynamic;
pub mod uncompressed;

pub use dynamic::{active_isa as finder_active_isa, DynamicBlockFinder, FilterStatistics};
pub use uncompressed::UncompressedBlockFinder;

/// What kind of block a candidate offset refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Candidate found by the Non-Compressed Block finder.
    Uncompressed,
    /// Candidate found by the Dynamic Block finder.
    Dynamic,
}

/// A candidate block start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Bit offset of the candidate block header.
    pub bit_offset: u64,
    /// Which finder produced it.
    pub kind: CandidateKind,
}

/// Common interface of all block finders.
pub trait BlockFinder {
    /// Returns the next candidate block offset at or after `start_bit`, or
    /// `None` if the end of `data` is reached first.
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64>;
}

/// Combines the Non-Compressed and Dynamic block finders by returning
/// whichever candidate comes first, as described in §3.4.
#[derive(Debug, Default, Clone)]
pub struct CombinedBlockFinder {
    uncompressed: UncompressedBlockFinder,
    dynamic: DynamicBlockFinder,
}

impl CombinedBlockFinder {
    /// Creates a combined finder with default sub-finders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next candidate together with the finder that produced it.
    pub fn find_next_candidate(&self, data: &[u8], start_bit: u64) -> Option<Candidate> {
        self.candidates(data, start_bit, u64::MAX).next()
    }

    /// Every candidate that starts in `from..until_bit`, in order — what
    /// [`Self::find_next_candidate`], asked again from the bit after each
    /// answer, returns one by one — with every bit searched once: each
    /// sub-finder goes on from its last hit once that has been yielded.
    /// `until_bit` bounds where a candidate starts, not what the checks on it
    /// read.
    pub fn candidates<'a>(&'a self, data: &'a [u8], from: u64, until_bit: u64) -> Candidates<'a> {
        let lane = Lane {
            pending: None,
            resume_bit: from,
            scanned_bytes: 0,
        };
        Candidates {
            finder: self,
            data,
            until_bit: until_bit.min(data.len() as u64 * 8),
            lanes: [lane; 2],
        }
    }
}

/// A sub-finder's place in a walk.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Its next hit, found and not yet yielded.
    pending: Option<u64>,
    /// The first bit it has not searched from.
    resume_bit: u64,
    scanned_bytes: u64,
}

impl Lane {
    /// The hit pending, else the first that `find`, given the bits to search,
    /// comes up with before `until_bit`.
    fn peek(&mut self, until_bit: u64, find: impl FnOnce(u64, u64) -> Option<u64>) -> Option<u64> {
        if self.pending.is_none() && self.resume_bit < until_bit {
            self.pending = find(self.resume_bit, until_bit);
            let searched_to = self.pending.map_or(until_bit, |hit| hit + 1);
            self.scanned_bytes += searched_to.div_ceil(8) - self.resume_bit / 8;
            self.resume_bit = searched_to;
        }
        self.pending
    }
}

/// The walk [`CombinedBlockFinder::candidates`] returns.
#[derive(Debug)]
pub struct Candidates<'a> {
    finder: &'a CombinedBlockFinder,
    data: &'a [u8],
    until_bit: u64,
    /// By `CandidateKind as usize`.
    lanes: [Lane; 2],
}

impl Candidates<'_> {
    /// Bytes of the data the two sub-finders have searched so far, by
    /// `CandidateKind as usize`: from where each search began to its hit, or
    /// to the bit it was to stop before.
    pub fn scanned_bytes(&self) -> [u64; 2] {
        self.lanes.map(|lane| lane.scanned_bytes)
    }
}

impl Iterator for Candidates<'_> {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        let (finder, data) = (self.finder, self.data);
        let [uncompressed, dynamic] = &mut self.lanes;
        // The Dynamic Block finder is asked first: a Non-Compressed Block
        // past its hit cannot come before it, so nobody looks for one there
        // until the hit has been yielded.
        let dynamic = dynamic.peek(self.until_bit, |from, until| {
            finder.dynamic.find_next_before(data, from, until)
        });
        let until_bit = dynamic.map_or(self.until_bit, |hit| hit + 1);
        let uncompressed = uncompressed.peek(until_bit, |from, until| {
            finder.uncompressed.find_next_before(data, from, until)
        });
        let (bit_offset, kind) = match (uncompressed, dynamic) {
            (Some(hit), Some(dynamic)) if hit <= dynamic => (hit, CandidateKind::Uncompressed),
            (_, Some(hit)) => (hit, CandidateKind::Dynamic),
            (Some(hit), None) => (hit, CandidateKind::Uncompressed),
            (None, None) => return None,
        };
        // The next candidate starts after this one: a hit at the same bit is
        // passed over with it.
        for lane in &mut self.lanes {
            lane.pending = lane.pending.filter(|&hit| hit > bit_offset);
        }
        Some(Candidate { bit_offset, kind })
    }
}

impl BlockFinder for CombinedBlockFinder {
    fn find_next(&self, data: &[u8], start_bit: u64) -> Option<u64> {
        self.find_next_candidate(data, start_bit)
            .map(|c| c.bit_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_deflate::{CompressionLevel, CompressorOptions, DeflateCompressor};

    /// Compresses text-like data and returns (compressed bytes, real block
    /// offsets in bits) for finder recall tests.
    pub(crate) fn compressed_fixture(force_stored: bool) -> (Vec<u8>, Vec<u64>) {
        let mut data = Vec::new();
        for i in 0..200_000u32 {
            data.extend_from_slice(format!("token-{:06} lorem ipsum\n", i % 4000).as_bytes());
        }
        let options = CompressorOptions {
            level: if force_stored {
                CompressionLevel::Stored
            } else {
                CompressionLevel::Default
            },
            block_size: 32 * 1024,
            force_dynamic: false,
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = rgz_bitio::BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = rgz_deflate::inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert_eq!(out, data);
        let offsets = outcome.blocks.iter().map(|b| b.bit_offset).collect();
        (compressed, offsets)
    }

    #[test]
    fn combined_finder_locates_real_dynamic_blocks() {
        let (compressed, offsets) = compressed_fixture(false);
        let finder = CombinedBlockFinder::new();
        // Every real block (except possibly a tiny final fixed/stored one)
        // must be discoverable when searching from shortly before it.
        for &offset in offsets.iter().take(5) {
            let start = offset.saturating_sub(64);
            let mut candidate = finder.find_next(&compressed, start);
            // Skip over false positives until we reach the real offset.
            while let Some(found) = candidate {
                if found >= offset {
                    break;
                }
                candidate = finder.find_next(&compressed, found + 1);
            }
            assert_eq!(candidate, Some(offset));
        }
    }

    #[test]
    fn combined_finder_locates_stored_blocks() {
        let (compressed, offsets) = compressed_fixture(true);
        let finder = CombinedBlockFinder::new();
        let candidate = finder.find_next_candidate(&compressed, 0).unwrap();
        assert_eq!(candidate.kind, CandidateKind::Uncompressed);
        // Stored-block bit offsets are ambiguous because the zero padding is
        // indistinguishable from the zero header bits (§3.4.1); the candidate
        // must resolve to the same LEN field as a real block though.
        let len_byte = |bit: u64| (bit + 3).div_ceil(8);
        assert!(
            offsets
                .iter()
                .any(|&o| len_byte(o) == len_byte(candidate.bit_offset)),
            "candidate {} does not match any real stored block {:?}",
            candidate.bit_offset,
            offsets
        );
    }

    /// What [`CombinedBlockFinder::find_next_candidate`] was before there was
    /// a walk — both sub-finders searching from `start_bit` to their first
    /// hit, wherever — asked again from the bit after each answer.
    fn candidates_by_restarting(data: &[u8], from_bit: u64, until_bit: u64) -> Vec<Candidate> {
        let finder = CombinedBlockFinder::new();
        let mut found = Vec::new();
        let mut start_bit = from_bit;
        loop {
            let uncompressed = finder.uncompressed.find_next(data, start_bit);
            let dynamic = finder.dynamic.find_next(data, start_bit);
            let (bit_offset, kind) = match (uncompressed, dynamic) {
                (Some(u), Some(d)) if u <= d => (u, CandidateKind::Uncompressed),
                (_, Some(d)) => (d, CandidateKind::Dynamic),
                (Some(u), None) => (u, CandidateKind::Uncompressed),
                (None, None) => return found,
            };
            if bit_offset >= until_bit {
                return found;
            }
            found.push(Candidate { bit_offset, kind });
            start_bit = bit_offset + 1;
        }
    }

    /// A few KiB that both sub-finders hit often, at every bit alignment:
    /// Dynamic Blocks of text, Non-Compressed Blocks with noise in them (or,
    /// `pigz_layout`, an empty one behind every compressed piece, as pigz
    /// flushes), and runs of noise.
    fn mixed_stream(seed: u64, pigz_layout: bool) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut writer = rgz_bitio::BitWriter::new();
        for piece in 0..12u32 {
            let kind = if pigz_layout {
                0
            } else {
                rng.gen_range(0..4u32)
            };
            match kind {
                0 => {
                    let text: Vec<u8> = (0..rng.gen_range(3_000..9_000u32))
                        .flat_map(|i| format!("{piece}-{:03} lorem\n", i % 311).into_bytes())
                        .collect();
                    let options = CompressorOptions {
                        level: CompressionLevel::Default,
                        block_size: 4 * 1024,
                        force_dynamic: true,
                    };
                    // Not byte-aligned: the blocks start at any bit.
                    for byte in DeflateCompressor::new(options).compress(&text) {
                        writer.write_bits(byte as u64, 8);
                    }
                    if pigz_layout {
                        rgz_deflate::write_stored_block(&mut writer, b"", false);
                        rgz_deflate::write_stored_block(&mut writer, b"", false);
                    }
                }
                1 => {
                    let noise: Vec<u8> = (0..rng.gen_range(0..300)).map(|_| rng.gen()).collect();
                    rgz_deflate::write_stored_block(&mut writer, &noise, false);
                }
                2 => writer.write_bits(rng.gen::<u64>() >> 8, rng.gen_range(1..56)),
                _ => rgz_deflate::write_stored_block(&mut writer, b"", false),
            }
        }
        writer.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // The walk against the search it replaces, restarted after every
        // candidate: the same candidates of the same kinds in the same order,
        // from any bit to any bit.
        #[test]
        fn the_walk_yields_what_restarting_after_every_candidate_yields(
            seed in 0u64..1_000_000,
            layout in 0u32..3,
            from in 0.0f64..1.1,
            span in 0.0f64..1.2,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            let data = match layout {
                0 => noise,
                1 => mixed_stream(seed, false),
                _ => mixed_stream(seed, true),
            };
            let bits = data.len() as f64 * 8.0;
            let from_bit = (from * bits) as u64;
            // One walk in six to the end of the data, as `find_next_candidate`.
            let until_bit = match seed % 6 {
                0 => u64::MAX,
                _ => from_bit + (span * bits) as u64,
            };
            let finder = CombinedBlockFinder::new();
            let walked: Vec<Candidate> = finder.candidates(&data, from_bit, until_bit).collect();
            proptest::prop_assert_eq!(&walked, &candidates_by_restarting(&data, from_bit, until_bit));
            proptest::prop_assert_eq!(
                finder.find_next_candidate(&data, from_bit),
                candidates_by_restarting(&data, from_bit, u64::MAX).first().copied()
            );
        }
    }

    #[test]
    fn the_mixed_streams_hold_candidates_of_both_kinds() {
        for pigz_layout in [false, true] {
            let data = mixed_stream(5, pigz_layout);
            let finder = CombinedBlockFinder::new();
            let kinds: Vec<CandidateKind> = finder
                .candidates(&data, 0, u64::MAX)
                .map(|candidate| candidate.kind)
                .collect();
            for kind in [CandidateKind::Dynamic, CandidateKind::Uncompressed] {
                let count = kinds.iter().filter(|&&k| k == kind).count();
                assert!(count >= 4, "{count} {kind:?} candidates of {}", kinds.len());
            }
        }
    }

    #[test]
    fn a_walk_searches_every_byte_once_however_many_candidates_it_yields() {
        // A Non-Compressed Block candidate every 64 bytes (in bytes that hold
        // no Dynamic Block candidate: every final-block bit is set), in front
        // of one Dynamic Block.
        let mut data = Vec::new();
        for _ in 0..1000 {
            data.extend_from_slice(&[0x1F, 0xFF, 0xFF, 0x00, 0x00]);
            data.extend_from_slice(&[0xFF; 59]);
        }
        let (compressed, offsets) = compressed_fixture(false);
        let block_at = data.len() as u64 * 8 + offsets[1];
        data.extend_from_slice(&compressed);

        let finder = CombinedBlockFinder::new();
        let mut walk = finder.candidates(&data, 0, block_at + 1);
        let hits = walk.by_ref().count() as u64;
        assert_eq!(hits, 1000 + 2, "the stored candidates and two blocks");
        // Restarting the Dynamic Block finder after every candidate has it
        // search from there to its block each time: half the data per hit.
        let searched_once = block_at / 8 + 16 * hits;
        let [uncompressed, dynamic] = walk.scanned_bytes();
        assert!(dynamic <= searched_once, "{dynamic} of {}", data.len());
        assert!(uncompressed <= searched_once, "{uncompressed}");
        assert!(dynamic.min(uncompressed) >= block_at / 8);
    }

    #[test]
    fn find_next_past_the_end_returns_none() {
        let finder = CombinedBlockFinder::new();
        assert_eq!(finder.find_next(&[], 0), None);
        assert_eq!(finder.find_next(&[0u8; 16], 16 * 8), None);
    }
}
