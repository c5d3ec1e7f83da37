//! The pipelined checksum-verification state of the parallel reader.
//!
//! The paper leaves checksum computation during parallel decompression as
//! future work; this module closes that gap.  Every decoded chunk hashes its
//! own decompressed bytes on the worker thread that produced them, split
//! into [`ChunkFragment`]s at gzip member boundaries.  The
//! [`StreamVerifier`] then folds those per-chunk CRC-32 fragments in stream
//! order with `crc32_combine` — O(log n) multiplications modulo the CRC
//! polynomial per fragment, about a microsecond, so the sequential folding
//! cost is negligible compared to decompression — and compares the accumulated value against each member's
//! trailer CRC-32 and ISIZE.

use std::collections::BTreeMap;

use rgz_checksum::crc32_combine;
use rgz_gzip::GzipFooter;
use rgz_index::PointChecksums;
use rgz_metrics::Counter;

use crate::CoreError;

/// Whether (and how) the parallel reader verifies member checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerificationMode {
    /// Hash every decompressed byte on the worker threads and verify each
    /// member's trailer CRC-32 and ISIZE as chunks are committed in stream
    /// order.  This is the default.
    #[default]
    Full,
    /// Skip hashing and trailer verification entirely (rapidgzip's
    /// historical behaviour; silently corrupted archives decompress
    /// "successfully").
    Off,
}

/// One contiguous run of a chunk's decompressed bytes belonging to a single
/// gzip member.
///
/// A chunk that contains no member boundary is one fragment; a chunk whose
/// compressed range spans members is split at each boundary, so every
/// fragment can be attributed to exactly one trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkFragment {
    /// CRC-32 of the fragment's decompressed bytes (0 when hashing is off).
    pub crc32: u32,
    /// Length of the fragment in decompressed bytes.
    pub length: u64,
    /// The member's trailer, when the member ends with this fragment.
    /// `None` means the member continues into the next chunk (or the next
    /// fragment's member starts a new chunk-internal member).
    pub trailer: Option<GzipFooter>,
}

/// Counters describing what the verification pipeline has checked so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerificationStatistics {
    /// The mode the reader runs in.
    pub mode: VerificationMode,
    /// Members whose trailer CRC-32 and ISIZE both matched.
    pub members_verified: u64,
    /// Decompressed bytes folded into member checksums so far.
    pub bytes_verified: u64,
    /// Chunk fragments folded so far.
    pub fragments_folded: u64,
    /// Chunks whose fragments arrived out of order and await folding.
    pub chunks_pending: usize,
    /// Running CRC-32 over the *whole* decompressed stream (all members
    /// concatenated), folded from the same fragments.  After a complete
    /// in-order pass this equals `crc32` of the full output.
    pub stream_crc32: u32,
    /// Random-access (index fast path) chunk decodes whose output was
    /// checked against the CRC fragments stored in a v3 index.
    pub index_chunks_verified: u64,
    /// Random-access chunk decodes served without stored fragments (v1/v2
    /// files, foreign imports) — under [`VerificationMode::Full`] these
    /// complete *unverified* and are surfaced here instead of silently
    /// passing.
    pub index_chunks_unverified: u64,
}

#[derive(Debug, Clone, Copy)]
enum VerificationFailure {
    Checksum {
        member: u64,
        expected: u32,
        actual: u32,
    },
    Size {
        member: u64,
        expected: u32,
        actual: u64,
    },
}

/// Folds per-chunk CRC fragments in stream order and records the first
/// member whose trailer does not match.
#[derive(Debug)]
pub(crate) struct StreamVerifier {
    mode: VerificationMode,
    /// Fragments submitted by workers, keyed by chunk sequence number;
    /// drained in order as the contiguous prefix becomes available.
    slots: BTreeMap<u64, Vec<ChunkFragment>>,
    next_seq: u64,
    member_crc: u32,
    member_length: u64,
    member_index: u64,
    stream_crc: u32,
    /// The reader's `rgz_verification_total{outcome="member_verified"}`.
    members_verified: Counter,
    bytes_verified: u64,
    fragments_folded: u64,
    failure: Option<VerificationFailure>,
}

impl StreamVerifier {
    /// A verifier that counts the members it verifies in `members_verified`.
    pub(crate) fn new(mode: VerificationMode, members_verified: Counter) -> Self {
        Self {
            mode,
            slots: BTreeMap::new(),
            next_seq: 0,
            member_crc: 0,
            member_length: 0,
            member_index: 0,
            stream_crc: 0,
            members_verified,
            bytes_verified: 0,
            fragments_folded: 0,
            failure: None,
        }
    }

    /// Accepts the fragments of the chunk committed as sequence number
    /// `seq`, then folds every contiguously-available chunk.  Workers may
    /// submit out of order; folding always happens in stream order.
    pub(crate) fn submit(&mut self, seq: u64, fragments: Vec<ChunkFragment>) {
        if self.mode == VerificationMode::Off {
            return;
        }
        self.slots.insert(seq, fragments);
        while let Some(fragments) = self.slots.remove(&self.next_seq) {
            self.next_seq += 1;
            for fragment in fragments {
                self.fold(fragment);
            }
        }
    }

    fn fold(&mut self, fragment: ChunkFragment) {
        self.fragments_folded += 1;
        self.bytes_verified += fragment.length;
        self.member_crc = crc32_combine(self.member_crc, fragment.crc32, fragment.length);
        self.stream_crc = crc32_combine(self.stream_crc, fragment.crc32, fragment.length);
        self.member_length += fragment.length;
        if let Some(trailer) = fragment.trailer {
            // Only the first failure is kept: everything after a corrupt
            // member decodes from a suspect window anyway.
            if self.failure.is_none() {
                if self.member_crc != trailer.crc32 {
                    self.failure = Some(VerificationFailure::Checksum {
                        member: self.member_index,
                        expected: trailer.crc32,
                        actual: self.member_crc,
                    });
                } else if self.member_length as u32 != trailer.uncompressed_size {
                    // ISIZE stores the size modulo 2^32 (RFC 1952 §2.3.1).
                    self.failure = Some(VerificationFailure::Size {
                        member: self.member_index,
                        expected: trailer.uncompressed_size,
                        actual: self.member_length,
                    });
                } else {
                    self.members_verified.inc();
                }
            }
            self.member_index += 1;
            self.member_crc = 0;
            self.member_length = 0;
        }
    }

    /// Errors with the first recorded trailer mismatch, if any.
    pub(crate) fn check(&self) -> Result<(), CoreError> {
        match self.failure {
            None => Ok(()),
            Some(VerificationFailure::Checksum {
                member,
                expected,
                actual,
            }) => Err(CoreError::ChecksumMismatch {
                member,
                expected,
                actual,
            }),
            Some(VerificationFailure::Size {
                member,
                expected,
                actual,
            }) => Err(CoreError::MemberSizeMismatch {
                member,
                expected,
                actual,
            }),
        }
    }

    pub(crate) fn statistics(&self) -> VerificationStatistics {
        VerificationStatistics {
            mode: self.mode,
            members_verified: self.members_verified.value(),
            bytes_verified: self.bytes_verified,
            fragments_folded: self.fragments_folded,
            chunks_pending: self.slots.len(),
            stream_crc32: self.stream_crc,
            // Filled in by the reader, which owns the fast-path counters.
            index_chunks_verified: 0,
            index_chunks_unverified: 0,
        }
    }
}

/// Compares the fragments of a re-decoded chunk against the fragments a v3
/// index stores for its seek point, attributing the first disagreement to
/// the gzip member it belongs to.
///
/// Trailing zero-length fragments are ignored on both sides: the sequential
/// capture and the random-access re-decode differ in whether they emit an
/// empty piece when a chunk ends exactly on a member boundary, and an empty
/// piece carries no checksum information anyway.
pub(crate) fn check_point_fragments(
    stored: &PointChecksums,
    decoded: &[ChunkFragment],
) -> Result<(), CoreError> {
    let trimmed = |count: usize, length_at: &dyn Fn(usize) -> u64| -> usize {
        let mut count = count;
        while count > 0 && length_at(count - 1) == 0 {
            count -= 1;
        }
        count
    };
    let stored_count = trimmed(stored.fragments.len(), &|i| stored.fragments[i].length);
    let decoded_count = trimmed(decoded.len(), &|i| decoded[i].length);
    for i in 0..stored_count.max(decoded_count) {
        let expected = stored.fragments.get(i).filter(|_| i < stored_count);
        let actual = decoded.get(i).filter(|_| i < decoded_count);
        let matches = match (expected, actual) {
            (Some(expected), Some(actual)) => {
                expected.length == actual.length && expected.crc32 == actual.crc32
            }
            // One side ran out: the chunk's member structure changed, which
            // only corruption (or a stale index) can cause.
            _ => false,
        };
        if !matches {
            return Err(CoreError::ChecksumMismatch {
                member: stored.first_member + i as u64,
                expected: expected.map(|f| f.crc32).unwrap_or(0),
                actual: actual.map(|f| f.crc32).unwrap_or(0),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_checksum::crc32;

    fn new_verifier(mode: VerificationMode) -> StreamVerifier {
        let registry = rgz_metrics::MetricsRegistry::new();
        StreamVerifier::new(mode, registry.counter("members_verified_total", "test"))
    }

    fn fragment(data: &[u8], trailer: Option<GzipFooter>) -> ChunkFragment {
        ChunkFragment {
            crc32: crc32(data),
            length: data.len() as u64,
            trailer,
        }
    }

    #[test]
    fn folds_fragments_across_chunks_and_members() {
        let part_a = b"first member split across".to_vec();
        let part_b = b" two chunk fragments".to_vec();
        let mut whole = part_a.clone();
        whole.extend_from_slice(&part_b);
        let footer = GzipFooter {
            crc32: crc32(&whole),
            uncompressed_size: whole.len() as u32,
        };

        let mut verifier = new_verifier(VerificationMode::Full);
        // Chunk 1 arrives before chunk 0: folding must wait.
        verifier.submit(1, vec![fragment(&part_b, Some(footer))]);
        assert_eq!(verifier.statistics().members_verified, 0);
        assert_eq!(verifier.statistics().chunks_pending, 1);
        verifier.submit(0, vec![fragment(&part_a, None)]);
        let statistics = verifier.statistics();
        assert_eq!(statistics.members_verified, 1);
        assert_eq!(statistics.chunks_pending, 0);
        assert_eq!(statistics.bytes_verified, whole.len() as u64);
        assert_eq!(statistics.stream_crc32, crc32(&whole));
        assert!(verifier.check().is_ok());
    }

    #[test]
    fn wrong_trailer_crc_is_reported_with_the_member_index() {
        let mut verifier = new_verifier(VerificationMode::Full);
        let good = GzipFooter {
            crc32: crc32(b"ok"),
            uncompressed_size: 2,
        };
        let bad = GzipFooter {
            crc32: 0xDEAD_BEEF,
            uncompressed_size: 3,
        };
        verifier.submit(
            0,
            vec![fragment(b"ok", Some(good)), fragment(b"bad", Some(bad))],
        );
        match verifier.check() {
            Err(CoreError::ChecksumMismatch {
                member, expected, ..
            }) => {
                assert_eq!(member, 1);
                assert_eq!(expected, 0xDEAD_BEEF);
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        assert_eq!(verifier.statistics().members_verified, 1);
    }

    #[test]
    fn wrong_isize_is_reported_even_when_the_crc_matches() {
        let mut verifier = new_verifier(VerificationMode::Full);
        let footer = GzipFooter {
            crc32: crc32(b"payload"),
            uncompressed_size: 999,
        };
        verifier.submit(0, vec![fragment(b"payload", Some(footer))]);
        assert!(matches!(
            verifier.check(),
            Err(CoreError::MemberSizeMismatch {
                member: 0,
                expected: 999,
                actual: 7,
            })
        ));
    }

    #[test]
    fn off_mode_accepts_anything() {
        let mut verifier = new_verifier(VerificationMode::Off);
        let bad = GzipFooter {
            crc32: 1,
            uncompressed_size: 2,
        };
        verifier.submit(0, vec![fragment(b"whatever", Some(bad))]);
        assert!(verifier.check().is_ok());
        assert_eq!(verifier.statistics().members_verified, 0);
        assert_eq!(verifier.statistics().fragments_folded, 0);
    }

    #[test]
    fn point_fragment_comparison_names_the_member_and_ignores_empty_tails() {
        let stored = PointChecksums::from_fragments(5, [(0xAAAA, 100), (0xBBBB, 50)]);
        let decoded = |crcs: &[(u32, u64)], trailing_empty: bool| -> Vec<ChunkFragment> {
            let mut fragments: Vec<ChunkFragment> = crcs
                .iter()
                .map(|&(crc32, length)| ChunkFragment {
                    crc32,
                    length,
                    trailer: None,
                })
                .collect();
            if trailing_empty {
                fragments.push(ChunkFragment {
                    crc32: 0,
                    length: 0,
                    trailer: None,
                });
            }
            fragments
        };

        // Matching fragments pass, with or without the decode's trailing
        // empty piece (emitted when a chunk ends exactly on a member end).
        for trailing in [false, true] {
            assert!(check_point_fragments(
                &stored,
                &decoded(&[(0xAAAA, 100), (0xBBBB, 50)], trailing)
            )
            .is_ok());
        }
        // A CRC disagreement is attributed to first_member + index.
        match check_point_fragments(&stored, &decoded(&[(0xAAAA, 100), (0xCCCC, 50)], false)) {
            Err(CoreError::ChecksumMismatch {
                member,
                expected,
                actual,
            }) => {
                assert_eq!(member, 6);
                assert_eq!(expected, 0xBBBB);
                assert_eq!(actual, 0xCCCC);
            }
            other => panic!("expected a mismatch on member 6, got {other:?}"),
        }
        // A length disagreement counts too (the crc of wrong-length pieces
        // proves nothing).
        assert!(
            check_point_fragments(&stored, &decoded(&[(0xAAAA, 100), (0xBBBB, 51)], false))
                .is_err()
        );
        // A changed member structure (fragment count) is a mismatch on the
        // first absent index.
        match check_point_fragments(&stored, &decoded(&[(0xAAAA, 100)], false)) {
            Err(CoreError::ChecksumMismatch { member, .. }) => assert_eq!(member, 6),
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_member_verifies() {
        let mut verifier = new_verifier(VerificationMode::Full);
        let footer = GzipFooter {
            crc32: 0,
            uncompressed_size: 0,
        };
        verifier.submit(0, vec![fragment(b"", Some(footer))]);
        assert!(verifier.check().is_ok());
        assert_eq!(verifier.statistics().members_verified, 1);
    }
}
