//! Chunk decompression tasks.
//!
//! Two kinds of chunk decoding exist (§3.3):
//!
//! * **Speculative** ([`decode_speculative_chunk`]): a worker thread is given
//!   a *guessed* chunk start (a multiple of the chunk size), locates the next
//!   DEFLATE block with the block finder, and decodes in two-stage mode
//!   producing 16-bit marker symbols because the preceding window is unknown
//!   — but only until the last 32 KiB of output are marker-free (or a gzip
//!   member ends), from where the rest of the chunk decodes straight to
//!   bytes.  This can fail entirely (no block found) or latch onto a false
//!   positive; both cases are handled gracefully by the orchestrator.
//! * **Direct** ([`decode_chunk_at`]): the exact block offset *and* its
//!   window are known (from the previous chunk or from an index), so the
//!   chunk decodes straight to bytes without markers — the same fast path
//!   used when an index has been imported.
//!
//! Both tasks read their compressed byte range through the shared
//! [`FileReader`], growing the range geometrically when a chunk's last block
//! runs past the guessed boundary.

use rgz_bitio::BitReader;
use rgz_blockfinder::{BlockFinder, CombinedBlockFinder};
use rgz_deflate::{
    inflate, inflate_hashed, inflate_speculative, DeflateError, SpeculativeOutput, StopReason,
};
use rgz_gzip::{parse_footer, parse_header, GzipError, GzipFooter};
use rgz_io::{FileReader, SharedFileReader};
use rgz_trace::{Outcome, Stage, TraceSink};

use crate::verify::ChunkFragment;
use crate::CoreError;

/// Result of a direct (window-known) chunk decode.
#[derive(Debug, Clone)]
pub struct ChunkResult {
    /// Absolute bit offset decoding started at.
    pub start_bit_offset: u64,
    /// Absolute bit offset at which the next chunk starts.
    pub end_bit_offset: u64,
    /// Decompressed bytes of this chunk.
    pub data: Vec<u8>,
    /// Whether the end of the compressed file was reached.
    pub reached_end_of_file: bool,
    /// Which bytes of the preceding window the chunk referenced, as sorted
    /// marker-space `(offset, length)` runs — the index uses this to store a
    /// sparsified window for the chunk's seek point.
    pub window_usage: Vec<(u32, u32)>,
    /// `data` split at gzip member boundaries, each fragment carrying the
    /// CRC-32 of its bytes (when decoded with `verify`) and, for fragments
    /// that end a member, the member's trailer.  The verification pipeline
    /// folds these in stream order.
    pub fragments: Vec<ChunkFragment>,
    /// DEFLATE blocks the multi-symbol fast path routed through the
    /// single-symbol reference decoder (see
    /// [`rgz_deflate::InflateOutcome::fast_fallback_blocks`]); used to tag
    /// decode spans with a *fallback* outcome.
    pub fast_fallback_blocks: u32,
}

/// Result of a speculative (two-stage) chunk decode.
#[derive(Debug, Clone)]
pub struct SpeculativeChunk {
    /// Guessed bit offset the block search started from.
    pub requested_bit_offset: u64,
    /// Bit offset of the block the finder located (the chunk's actual start).
    pub found_bit_offset: u64,
    /// Absolute bit offset at which the next chunk starts.
    pub end_bit_offset: u64,
    /// Decoded output: a 16-bit marker prefix plus, from where the decoder
    /// could switch, a plain byte tail.
    pub output: SpeculativeOutput,
    /// Which bytes of the (still unknown) preceding window the chunk
    /// references, as sorted marker-space `(offset, length)` runs — recorded
    /// by the decoder as it emits markers, so nobody has to rescan the
    /// symbols.  Non-empty exactly when the output contains markers.
    pub window_usage: Vec<(u32, u32)>,
    /// Number of DEFLATE blocks decoded.
    pub block_count: usize,
    /// Whether the end of the compressed file was reached.
    pub reached_end_of_file: bool,
    /// Gzip member boundaries inside the chunk: `(end offset in the output,
    /// trailer)` per member that *ends* within this chunk, in order.
    /// Symbols map 1:1 to output bytes, so these offsets split the resolved
    /// data into per-member CRC fragments after marker replacement.
    pub member_ends: Vec<(u64, GzipFooter)>,
}

fn is_eof_like_deflate(error: &DeflateError) -> bool {
    matches!(error, DeflateError::UnexpectedEof)
}

fn is_eof_like(error: &CoreError) -> bool {
    match error {
        CoreError::Deflate(e) => is_eof_like_deflate(e),
        CoreError::Gzip(GzipError::Truncated) => true,
        _ => false,
    }
}

/// Reads the compressed range `[start_byte, start_byte + length)`.
fn read_compressed_range(
    reader: &SharedFileReader,
    start_byte: u64,
    length: u64,
) -> Result<Vec<u8>, CoreError> {
    Ok(reader.read_range(start_byte, length as usize)?)
}

/// Parses the gzip footer at the current (possibly unaligned) position and,
/// if another member follows, its header too.  Returns the parsed footer and
/// `true` if the end of the input was reached (only trailing zero padding or
/// nothing remains).
fn cross_member_boundary(reader: &mut BitReader<'_>) -> Result<(GzipFooter, bool), CoreError> {
    let footer = parse_footer(reader).map_err(CoreError::Gzip)?;
    // Trailing padding / end of file detection.
    loop {
        if reader.remaining_bits() < 8 * 18 {
            let position = (reader.position() / 8) as usize;
            let rest = &reader.data()[position..];
            if rest.iter().all(|&b| b == 0) {
                return Ok((footer, true));
            }
            // Something follows but is too short to be a member: treat as
            // truncation so the caller can grow the range.
            return Err(CoreError::Gzip(GzipError::Truncated));
        }
        let position = (reader.position() / 8) as usize;
        if reader.data()[position] == 0 && reader.data()[position + 1] == 0 {
            // Zero padding between members (rare but legal for bgzip -
            // produced files); skip one byte and re-check.
            reader
                .consume(8)
                .map_err(|_| CoreError::Gzip(GzipError::Truncated))?;
            continue;
        }
        parse_header(reader).map_err(CoreError::Gzip)?;
        return Ok((footer, false));
    }
}

/// Decodes a chunk whose exact start offset and window are known, producing
/// plain bytes.
///
/// * `start_bit_offset` — absolute bit offset of the first DEFLATE block (or
///   of a gzip member header if `at_member_start` is true).
/// * `stop_bit_offset` — guessed boundary of the next chunk; decoding stops
///   at the first Dynamic or Non-Compressed block at or after it.
/// * `window` — up to 32 KiB of decompressed data preceding the chunk.
/// * `verify` — hash the decompressed bytes per member fragment (CRC-32 on
///   this thread) so the caller can fold them against member trailers.
pub fn decode_chunk_at(
    reader: &SharedFileReader,
    start_bit_offset: u64,
    stop_bit_offset: u64,
    window: &[u8],
    at_member_start: bool,
    chunk_size: usize,
    verify: bool,
) -> Result<ChunkResult, CoreError> {
    let file_size = reader.size();
    let start_byte = start_bit_offset / 8;
    let mut slack = (chunk_size as u64).max(64 * 1024);

    loop {
        let stop_byte = stop_bit_offset.div_ceil(8);
        let range_end = (stop_byte + slack).min(file_size);
        let range = read_compressed_range(reader, start_byte, range_end - start_byte)?;
        let range_covers_file_end = start_byte + range.len() as u64 >= file_size;

        let attempt = decode_direct_in_range(
            &range,
            start_byte,
            start_bit_offset,
            stop_bit_offset,
            window,
            at_member_start,
            verify,
        );
        match attempt {
            Ok(result) => return Ok(result),
            Err(error) if !range_covers_file_end => {
                // The chunk extends past the range we read; widen and retry.
                let _ = error;
                slack = slack.saturating_mul(4);
            }
            Err(error) => return Err(error),
        }
    }
}

fn decode_direct_in_range(
    range: &[u8],
    range_start_byte: u64,
    start_bit_offset: u64,
    stop_bit_offset: u64,
    window: &[u8],
    at_member_start: bool,
    verify: bool,
) -> Result<ChunkResult, CoreError> {
    let range_start_bits = range_start_byte * 8;
    let mut reader = BitReader::new(range);
    reader
        .seek_to_bit(start_bit_offset - range_start_bits)
        .map_err(|_| CoreError::Deflate(DeflateError::UnexpectedEof))?;
    let relative_stop = stop_bit_offset.saturating_sub(range_start_bits);

    if at_member_start {
        parse_header(&mut reader).map_err(CoreError::Gzip)?;
    }

    let mut data = Vec::new();
    let mut first_call = true;
    let mut reached_end_of_file = false;
    let mut fast_fallback_blocks = 0u32;
    let mut window_usage = Vec::new();
    // One inflate call never crosses a member boundary, so each iteration
    // contributes exactly one CRC fragment.
    let mut fragments = Vec::new();
    let mut fragment_start = 0usize;
    loop {
        let call_window = if first_call { window } else { &[] };
        first_call = false;
        let outcome = if verify {
            inflate_hashed(&mut reader, call_window, &mut data, relative_stop)
        } else {
            inflate(&mut reader, call_window, &mut data, relative_stop)
        }
        .map_err(CoreError::Deflate)?;
        fast_fallback_blocks += outcome.fast_fallback_blocks;
        if window_usage.is_empty() {
            // Only the first member of the chunk can reference the preceding
            // window; later inflate calls get an empty window.
            window_usage = outcome.window_usage.clone();
        }
        let fragment = ChunkFragment {
            crc32: outcome.crc32.unwrap_or(0),
            length: (data.len() - fragment_start) as u64,
            trailer: None,
        };
        fragment_start = data.len();
        match outcome.stop_reason {
            StopReason::StopOffsetReached => {
                fragments.push(fragment);
                break;
            }
            StopReason::EndOfInput => {
                return Err(CoreError::Deflate(DeflateError::UnexpectedEof));
            }
            StopReason::EndOfStream => {
                let (footer, at_end_of_file) = cross_member_boundary(&mut reader)?;
                fragments.push(ChunkFragment {
                    trailer: Some(footer),
                    ..fragment
                });
                if at_end_of_file {
                    reached_end_of_file = true;
                    break;
                }
            }
        }
    }

    Ok(ChunkResult {
        start_bit_offset,
        end_bit_offset: range_start_bits + reader.position(),
        data,
        reached_end_of_file,
        window_usage,
        fragments,
        fast_fallback_blocks,
    })
}

/// Speculatively decodes the chunk whose guessed start is
/// `guess_index * chunk_size` bytes, using the block finder and two-stage
/// decoding.  Returns `Ok(None)` if no DEFLATE block could be found inside
/// the guessed chunk range.
#[cfg_attr(not(test), allow(dead_code))]
pub fn decode_speculative_chunk(
    reader: &SharedFileReader,
    chunk_size: usize,
    guess_index: usize,
) -> Result<Option<SpeculativeChunk>, CoreError> {
    decode_speculative_chunk_traced(
        reader,
        chunk_size,
        guess_index,
        &TraceSink::shared_disabled(),
    )
}

/// [`decode_speculative_chunk`] with block-find and two-stage decode spans
/// recorded into `trace` (chunk id = the guessed bit offset).
pub fn decode_speculative_chunk_traced(
    reader: &SharedFileReader,
    chunk_size: usize,
    guess_index: usize,
    trace: &TraceSink,
) -> Result<Option<SpeculativeChunk>, CoreError> {
    let file_size = reader.size();
    let guess_byte = (guess_index as u64) * chunk_size as u64;
    if guess_byte >= file_size {
        return Ok(None);
    }
    let guess_bit = guess_byte * 8;
    let stop_bit = (guess_byte + chunk_size as u64) * 8;
    let mut slack = chunk_size as u64;

    loop {
        let range_end = (stop_bit / 8 + slack).min(file_size);
        let range = read_compressed_range(reader, guess_byte, range_end - guess_byte)?;
        let range_covers_file_end = guess_byte + range.len() as u64 >= file_size;

        match decode_speculative_in_range(&range, guess_byte, guess_bit, stop_bit, trace) {
            SpeculativeOutcome::Found(chunk) => return Ok(Some(chunk)),
            SpeculativeOutcome::NoBlock => return Ok(None),
            SpeculativeOutcome::NeedMoreData if !range_covers_file_end => {
                slack = slack.saturating_mul(4);
            }
            SpeculativeOutcome::NeedMoreData => return Ok(None),
        }
    }
}

enum SpeculativeOutcome {
    Found(SpeculativeChunk),
    NoBlock,
    NeedMoreData,
}

fn decode_speculative_in_range(
    range: &[u8],
    range_start_byte: u64,
    guess_bit: u64,
    stop_bit: u64,
    trace: &TraceSink,
) -> SpeculativeOutcome {
    let range_start_bits = range_start_byte * 8;
    let relative_guess = guess_bit - range_start_bits;
    let relative_stop = stop_bit - range_start_bits;
    let finder = CombinedBlockFinder::new();

    let mut search_from = relative_guess;
    loop {
        let candidate = {
            let mut span = trace.span(Stage::BlockFind).chunk(guess_bit);
            match finder.find_next(range, search_from) {
                // The first candidate block may already belong to the next
                // chunk, in which case this chunk has nothing to offer.
                Some(candidate) if candidate < relative_stop => candidate,
                _ => {
                    span.set_outcome(Outcome::NotFound);
                    return SpeculativeOutcome::NoBlock;
                }
            }
        };

        let mut span = trace
            .span(Stage::DecodeTwoStage)
            .chunk(guess_bit)
            .compressed_range(
                range_start_byte + candidate / 8,
                range_start_byte + range.len() as u64,
            );
        match try_speculative_decode(range, candidate, relative_stop) {
            Ok(decoded) => {
                span.set_bytes(decoded.output.len() as u64);
                span.set_marker_bytes(decoded.output.prefix().len() as u64);
                span.set_compressed_range(
                    range_start_byte + candidate / 8,
                    range_start_byte + decoded.end_bit_offset.div_ceil(8),
                );
                span.finish();
                // The decode worked in offsets relative to `range`.
                return SpeculativeOutcome::Found(SpeculativeChunk {
                    requested_bit_offset: guess_bit,
                    found_bit_offset: range_start_bits + candidate,
                    end_bit_offset: range_start_bits + decoded.end_bit_offset,
                    ..decoded
                });
            }
            Err(error) if is_eof_like(&error) => {
                // Could be a genuine block whose data extends past the range
                // we read: ask the caller for more data.
                span.set_outcome(Outcome::Error);
                return SpeculativeOutcome::NeedMoreData;
            }
            Err(_) => {
                // False positive: try the next candidate.
                span.set_outcome(Outcome::NotFound);
                search_from = candidate + 1;
            }
        }
    }
}

/// Decodes the chunk starting at bit `start` of `range`; the bit offsets of
/// the returned chunk are relative to `range`.
fn try_speculative_decode(
    range: &[u8],
    start: u64,
    relative_stop: u64,
) -> Result<SpeculativeChunk, CoreError> {
    let mut reader = BitReader::new(range);
    reader
        .seek_to_bit(start)
        .map_err(|_| CoreError::Deflate(DeflateError::UnexpectedEof))?;
    let mut output = SpeculativeOutput::new();
    let mut window_usage = None;
    let mut block_count = 0usize;
    let mut reached_end_of_file = false;
    let mut member_ends = Vec::new();
    loop {
        let outcome = inflate_speculative(&mut reader, &mut output, relative_stop)
            .map_err(CoreError::Deflate)?;
        block_count += outcome.blocks.len();
        // Only the chunk's first member can reference the preceding window.
        window_usage.get_or_insert(outcome.window_usage);
        match outcome.stop_reason {
            StopReason::StopOffsetReached => break,
            StopReason::EndOfInput => {
                return Err(CoreError::Deflate(DeflateError::UnexpectedEof));
            }
            StopReason::EndOfStream => {
                let (footer, at_end_of_file) = cross_member_boundary(&mut reader)?;
                member_ends.push((output.len() as u64, footer));
                if at_end_of_file {
                    reached_end_of_file = true;
                    break;
                }
                // The next member starts with an empty window: nothing after
                // this point can reference the markers.
                output.switch_to_bytes();
            }
        }
    }
    // Up to `prefetch_degree` finished chunks wait for the sequential pass;
    // the doubling growth left each up to a third of its capacity unused.
    output.shrink_to_fit();
    Ok(SpeculativeChunk {
        requested_bit_offset: start,
        found_bit_offset: start,
        end_bit_offset: reader.position(),
        output,
        window_usage: window_usage.unwrap_or_default(),
        block_count,
        reached_end_of_file,
        member_ends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_gzip::GzipWriter;

    fn corpus(records: usize) -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..records {
            data.extend_from_slice(
                format!("record {:07} -- some repetitive payload text\n", i % 10_000).as_bytes(),
            );
        }
        data
    }

    #[test]
    fn direct_decode_of_whole_small_file() {
        let data = corpus(2_000);
        let compressed = GzipWriter::default().compress(&data);
        let reader = SharedFileReader::from_bytes(compressed);
        let result = decode_chunk_at(&reader, 0, u64::MAX, &[], true, 128 * 1024, true).unwrap();
        assert_eq!(result.data, data);
        assert!(result.reached_end_of_file);
        // A single-member file yields one trailer fragment hashing the
        // whole output.
        assert_eq!(result.fragments.len(), 1);
        let fragment = &result.fragments[0];
        assert_eq!(fragment.length, data.len() as u64);
        assert_eq!(fragment.crc32, rgz_checksum::crc32(&data));
        let trailer = fragment.trailer.expect("member ends in this chunk");
        assert_eq!(trailer.crc32, fragment.crc32);
        assert_eq!(trailer.uncompressed_size, data.len() as u32);
    }

    #[test]
    fn direct_decode_without_verification_skips_hashing() {
        let data = corpus(1_000);
        let compressed = GzipWriter::default().compress(&data);
        let reader = SharedFileReader::from_bytes(compressed);
        let result = decode_chunk_at(&reader, 0, u64::MAX, &[], true, 128 * 1024, false).unwrap();
        assert_eq!(result.data, data);
        assert_eq!(result.fragments.len(), 1);
        assert_eq!(result.fragments[0].crc32, 0);
        assert!(result.fragments[0].trailer.is_some());
    }

    #[test]
    fn direct_decode_handles_multi_member_files() {
        let writer = GzipWriter::default();
        let part_a = corpus(500);
        let part_b = corpus(700);
        let compressed = writer.compress_members(&[&part_a, &part_b]);
        let reader = SharedFileReader::from_bytes(compressed);
        let result = decode_chunk_at(&reader, 0, u64::MAX, &[], true, 128 * 1024, true).unwrap();
        let mut expected = part_a.clone();
        expected.extend_from_slice(&part_b);
        assert_eq!(result.data, expected);
        assert!(result.reached_end_of_file);
        // Two members, two fragments, split exactly at the member boundary.
        assert_eq!(result.fragments.len(), 2);
        assert_eq!(result.fragments[0].length, part_a.len() as u64);
        assert_eq!(result.fragments[0].crc32, rgz_checksum::crc32(&part_a));
        assert_eq!(result.fragments[1].crc32, rgz_checksum::crc32(&part_b));
        assert_eq!(
            result.fragments[0].trailer.unwrap().crc32,
            rgz_checksum::crc32(&part_a)
        );
        assert_eq!(
            result.fragments[1].trailer.unwrap().uncompressed_size,
            part_b.len() as u32
        );
    }

    #[test]
    fn speculative_chunk_matches_direct_decode() {
        let data = corpus(60_000);
        let compressed = GzipWriter::default().compress(&data);
        let chunk_size = 64 * 1024;
        let shared = SharedFileReader::from_bytes(compressed);

        // Decode chunk 0 directly to learn the exact boundary and window.
        let chunk0 = decode_chunk_at(
            &shared,
            0,
            (chunk_size as u64) * 8,
            &[],
            true,
            chunk_size,
            true,
        )
        .unwrap();
        assert!(!chunk0.reached_end_of_file);
        // The member continues past the chunk: its only fragment carries no
        // trailer but still hashes the chunk's bytes.
        assert_eq!(chunk0.fragments.len(), 1);
        assert!(chunk0.fragments[0].trailer.is_none());
        assert_eq!(chunk0.fragments[0].crc32, rgz_checksum::crc32(&chunk0.data));

        // Speculatively decode guess index 1 and verify it lines up.
        let speculative = decode_speculative_chunk(&shared, chunk_size, 1)
            .unwrap()
            .expect("a block must be found in chunk 1");
        assert_eq!(speculative.requested_bit_offset, (chunk_size as u64) * 8);
        assert_eq!(speculative.found_bit_offset, chunk0.end_bit_offset);
        assert!(speculative.block_count >= 1);
        assert!(
            speculative.member_ends.is_empty(),
            "a mid-member chunk records no member boundary"
        );

        // Resolving its markers with chunk 0's window yields the original data.
        let window_start = chunk0.data.len().saturating_sub(32 * 1024);
        let resolved = speculative
            .output
            .resolve(&chunk0.data[window_start..])
            .unwrap();
        let offset = chunk0.data.len();
        assert_eq!(&resolved[..], &data[offset..offset + resolved.len()]);
    }

    #[test]
    fn speculative_chunks_record_member_boundaries() {
        // Two multi-block members with several blocks per chunk: the chunk
        // containing member A's end starts at a findable (non-final) block
        // before A's final block, decodes across the boundary into member B,
        // and must record the boundary with A's trailer.  (BGZF members are
        // single final blocks the block finder never reports, so they
        // exercise the on-demand path instead.)
        let part_a = corpus(15_000);
        let part_b = corpus(9_000);
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 16 * 1024,
            ..Default::default()
        });
        let compressed = writer.compress_members(&[&part_a, &part_b]);
        let chunk_size = 8 * 1024;
        assert!(compressed.len() > 4 * chunk_size);
        let shared = SharedFileReader::from_bytes(compressed.clone());

        let mut recorded = Vec::new();
        for guess in 1..compressed.len().div_ceil(chunk_size) {
            if let Some(chunk) = decode_speculative_chunk(&shared, chunk_size, guess).unwrap() {
                recorded.extend(chunk.member_ends);
            }
        }
        let crc_a = rgz_checksum::crc32(&part_a);
        assert!(
            recorded.iter().any(|&(end, footer)| end > 0
                && footer.crc32 == crc_a
                && footer.uncompressed_size == part_a.len() as u32),
            "no speculative chunk recorded member A's trailer: {recorded:?}"
        );
    }

    #[test]
    fn speculative_chunk_beyond_the_file_is_none() {
        let compressed = GzipWriter::default().compress(&corpus(100));
        let shared = SharedFileReader::from_bytes(compressed);
        assert!(decode_speculative_chunk(&shared, 1 << 20, 5)
            .unwrap()
            .is_none());
    }

    #[test]
    fn speculative_chunk_in_single_block_file_is_none() {
        // A Huffman-only single-block file (igzip -0 style) offers no block
        // boundaries to start from, so speculation must come up empty rather
        // than hallucinate data.
        let data = corpus(30_000);
        let compressed =
            rgz_gzip::CompressorFrontend::new(rgz_gzip::FrontendKind::Igzip, 0).compress(&data);
        let chunk_size = 32 * 1024;
        let shared = SharedFileReader::from_bytes(compressed.clone());
        assert!((compressed.len() / chunk_size) > 2);
        let speculative = decode_speculative_chunk(&shared, chunk_size, 1).unwrap();
        assert!(
            speculative.is_none(),
            "single-block files cannot provide speculative chunks"
        );
    }

    /// Every speculative chunk `compressed` offers at `chunk_size` against
    /// the direct decode from the same block with the true window: same
    /// bytes, end offset, window usage, member ends and trailers.  Returns
    /// how many chunks were compared and how many of them decoded part of
    /// their output as plain bytes.
    fn assert_speculative_chunks_match_direct_decode(
        compressed: &[u8],
        chunk_size: usize,
    ) -> (usize, usize) {
        let shared = SharedFileReader::from_bytes(compressed.to_vec());
        let (mut compared, mut switched) = (0, 0);
        for guess in 1..compressed.len().div_ceil(chunk_size) {
            let Some(speculative) = decode_speculative_chunk(&shared, chunk_size, guess).unwrap()
            else {
                continue;
            };
            // Everything before the chunk, for its true window.  A real
            // block start is where a direct decode told to stop there stops.
            let start = speculative.found_bit_offset;
            let before = decode_chunk_at(&shared, 0, start, &[], true, chunk_size, false).unwrap();
            assert_eq!(before.end_bit_offset, start, "block finder false positive");
            let window = &before.data[before.data.len().saturating_sub(32 * 1024)..];
            let stop = (guess as u64 + 1) * chunk_size as u64 * 8;
            let direct =
                decode_chunk_at(&shared, start, stop, window, false, chunk_size, true).unwrap();

            assert_eq!(speculative.end_bit_offset, direct.end_bit_offset);
            assert_eq!(speculative.reached_end_of_file, direct.reached_end_of_file);
            assert_eq!(speculative.window_usage, direct.window_usage);
            let mut fragment_end = 0;
            let direct_member_ends: Vec<(u64, GzipFooter)> = direct
                .fragments
                .iter()
                .filter_map(|fragment| {
                    fragment_end += fragment.length;
                    Some((fragment_end, fragment.trailer?))
                })
                .collect();
            assert_eq!(speculative.member_ends, direct_member_ends);
            compared += 1;
            switched += usize::from(!speculative.output.tail().is_empty());
            assert_eq!(speculative.output.resolve(window).unwrap(), direct.data);
        }
        (compared, switched)
    }

    #[test]
    fn a_member_boundary_inside_a_chunk_switches_to_bytes() {
        // Marker-heavy members (markers never die out on their own), so only
        // the member boundary can have switched a chunk to bytes.
        let members = [
            rgz_datagen::silesia_like(300_000, 1),
            rgz_datagen::silesia_like(200_000, 2),
            rgz_datagen::silesia_like(250_000, 3),
        ];
        let parts: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 16 * 1024,
            ..Default::default()
        });
        let compressed = writer.compress_members(&parts);
        let (compared, switched) =
            assert_speculative_chunks_match_direct_decode(&compressed, 16 * 1024);
        assert!(compared >= 8, "{compared} chunks compared");
        assert!(
            (2..compared).contains(&switched),
            "{switched} of {compared}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Valid multi-member files of every compressibility: the hybrid
        /// chunk decode is indistinguishable from the direct one.  (Corrupt
        /// streams are covered where they are decoded, in `rgz_deflate`'s
        /// `speculative_decode` test: a speculative chunk that fails to
        /// decode is simply not offered.)
        #[test]
        fn speculative_chunks_match_direct_decode(
            seed in 0u64..1_000_000,
            member_lengths in proptest::collection::vec(1usize..400_000, 1..4),
            block_size in 4usize..48,
            chunk_size in 8usize..96,
        ) {
            let members: Vec<Vec<u8>> = member_lengths
                .iter()
                .enumerate()
                .map(|(index, &length)| match (seed as usize + index) % 3 {
                    0 => rgz_datagen::base64_random(length, seed),
                    1 => rgz_datagen::silesia_like(length, seed),
                    _ => rgz_datagen::fastq_of_size(length, seed),
                })
                .collect();
            let parts: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
            let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
                block_size: block_size * 1024,
                ..Default::default()
            });
            let compressed = writer.compress_members(&parts);
            assert_speculative_chunks_match_direct_decode(&compressed, chunk_size * 1024);
        }
    }

    #[test]
    fn direct_decode_with_wrong_offset_fails() {
        let data = corpus(5_000);
        let compressed = GzipWriter::default().compress(&data);
        let shared = SharedFileReader::from_bytes(compressed);
        // Bit offset 12345 is (almost certainly) not a valid block start.
        let result = decode_chunk_at(&shared, 12_345, u64::MAX, &[], false, 64 * 1024, false);
        assert!(result.is_err());
    }
}
