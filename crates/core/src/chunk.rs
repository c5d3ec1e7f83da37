//! Chunk decompression tasks.
//!
//! Two kinds of chunk decoding exist (§3.3):
//!
//! * **Speculative** ([`ChunkDecoder::decode_speculative`]): a worker thread
//!   is given a *guessed* chunk start (a multiple of the chunk size), locates
//!   the next DEFLATE block with the block finder, and decodes in two-stage
//!   mode producing 16-bit marker symbols because the preceding window is
//!   unknown — but only until the last 32 KiB of output are marker-free, a
//!   gzip member ends, or the caller, asked at each block boundary, has the
//!   window after all: from there the rest of the chunk decodes straight to
//!   bytes.  This can fail entirely (no block found) or latch onto a false
//!   positive; both cases are handled gracefully by the orchestrator.
//! * **Direct** ([`ChunkDecoder::decode_at`]): the exact block offset *and*
//!   its window are known (from the previous chunk or from an index), so the
//!   chunk decodes straight to bytes without markers — the same fast path
//!   used when an index has been imported.
//!
//! Both tasks read their compressed byte range through the shared
//! [`FileReader`], growing the range geometrically when a chunk's last block
//! runs past the guessed boundary, and take every large buffer — the range,
//! the symbols, the bytes — from the reader's [`BufferPool`], to which each
//! returns when its last user drops it.
//!
//! Both hand each inflate call to one [`Assembly`], which keeps a chunk's
//! bookkeeping for both: its gzip members as [`ChunkFragment`]s, one per
//! member that ends in the chunk and one for the rest unless the chunk ends
//! the file; what follows a member, read with [`next_member`], the serial
//! decoder's rule; and the chunk cut into [`Segment`]s at the same block
//! boundaries, a MiB of output apart — the seek points its export is split
//! into — each windowed one with the bytes before it that the chunk after it
//! references, which the inflate calls record as they cut ([`Cutter`]).  The
//! direct decoder adds its fast-loop fallbacks, the speculative one its
//! switch to bytes at a member's end.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use rgz_bitio::BitReader;
use rgz_blockfinder::{CandidateKind, CombinedBlockFinder};
use rgz_checksum::{crc32, crc32_combine};
use rgz_deflate::{
    inflate_speculative, inflate_with_cuts, Cutter, DeflateError, InflateOutcome,
    SpeculativeOutput, StopReason, WindowAnswer,
};
use rgz_fetcher::{BufferPool, Pooled};
use rgz_gzip::{next_member, parse_footer, parse_header, GzipError, GzipFooter};
use rgz_index::{CrcFragment, WINDOW_SIZE};
use rgz_io::{FileReader, SharedFileReader};
use rgz_trace::{Outcome, Stage};

use crate::metrics::ReaderMetrics;
use crate::verify::ChunkFragment;
use crate::CoreError;

/// Result of a direct (window-known) chunk decode, or of a speculative one
/// resolved.
#[derive(Debug)]
pub(crate) struct ChunkResult {
    /// Absolute bit offset at which the next chunk starts.
    pub end_bit_offset: u64,
    /// Decompressed bytes of this chunk.
    pub data: Pooled<u8>,
    /// Whether the end of the compressed file was reached.
    pub reached_end_of_file: bool,
    /// Which bytes of the preceding window the chunk referenced, as sorted
    /// marker-space `(offset, length)` runs — the index uses this to store a
    /// sparsified window for the chunk's seek point.
    pub window_usage: Vec<(u32, u32)>,
    /// `data` split at gzip member boundaries, each fragment carrying the
    /// CRC-32 of its bytes (when decoded with `verify`) and, for fragments
    /// that end a member, the member's trailer: one per member that ends in
    /// the chunk, and one without a trailer for the rest unless the chunk
    /// ends the file.  The verification pipeline folds these in stream
    /// order.
    pub fragments: Vec<ChunkFragment>,
    /// Dynamic Blocks too close to the end of the input for the inflate
    /// fast loop (see
    /// [`rgz_deflate::InflateOutcome::fast_fallback_blocks`]); used to tag
    /// decode spans with a *fallback* outcome.
    pub fast_fallback_blocks: u32,
    /// `data` cut into stretches that decode by themselves: the first from
    /// the chunk's own start, and one more at every cut the [`Cutter`] of
    /// its extent ([`Extent::cutter`]) makes.
    pub(crate) segments: Vec<Segment>,
}

/// A stretch of a chunk's bytes from a Dynamic or Non-Compressed block
/// boundary on: with the 32 KiB before it for a window, it decodes alone.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Absolute bit offset of its first block.
    pub bit: u64,
    /// Where in the chunk's bytes it starts.
    pub offset: usize,
    /// How many gzip members end in the chunk before it.
    pub member: u64,
    /// Whether a decode may start here: a windowed cut of the [`Cutter`].
    /// Other cuts are only where a decode may stop.  The chunk's own start is
    /// not: its window is the index's.
    pub windowed: bool,
    /// Which bytes of the 32 KiB before a windowed cut the stretch after it
    /// references, as sorted marker-space `(offset, length)` runs: its sparse
    /// window.  Empty for the others.
    pub usage: Vec<(u32, u32)>,
    /// Its bytes split at gzip member ends, each piece hashed if the decode
    /// verifies: folded with those of the segments around, they are the
    /// chunk's [`ChunkResult::fragments`].
    pub pieces: Vec<CrcFragment>,
}

/// How far apart in a chunk's bytes its windowed cuts are, at least: the
/// spacing of the seek points a pass's chunks are split into on export, and
/// of the interior points a whole decode through an index keeps unless
/// [`crate::indexed`] keeps them closer.
pub(crate) const INTERIOR_SPACING: usize = 1 << 20;

/// Splits `data`, a chunk's bytes, into the pieces its `segments` and its
/// `fragments` (by their lengths) cut it into, each hashed if `verify`, and
/// folds every fragment's CRC-32 from those of its pieces (`crc32_combine`):
/// what hashing each fragment whole comes to, and no more hashing than that.
/// A segment that starts where a member does leaves no piece of that member
/// behind.
fn hash_pieces(
    data: &[u8],
    fragments: &mut [ChunkFragment],
    segments: &mut [Segment],
    verify: bool,
) {
    let mut next = 1;
    let mut call_start = 0;
    for (member, fragment) in fragments.iter_mut().enumerate() {
        let call_end = call_start + fragment.length as usize;
        let mut piece_start = call_start;
        let mut close_piece = |segment: &mut Segment, end: usize| {
            let piece = &data[std::mem::replace(&mut piece_start, end)..end];
            let length = piece.len() as u64;
            let crc32 = if verify { crc32(piece) } else { 0 };
            if verify {
                fragment.crc32 = crc32_combine(fragment.crc32, crc32, length);
            }
            segment.pieces.push(CrcFragment { crc32, length });
        };
        while next < segments.len() && segments[next].member == member as u64 {
            let offset = segments[next].offset;
            if offset > call_start {
                close_piece(&mut segments[next - 1], offset);
            }
            next += 1;
        }
        close_piece(&mut segments[next - 1], call_end);
        call_start = call_end;
    }
}

impl ChunkResult {
    /// The window the chunk after this one needs: the last 32 KiB of
    /// `window`, the one this chunk was decoded with, followed by its bytes.
    pub(crate) fn next_window(&self, window: &[u8]) -> Vec<u8> {
        let tail = &self.data[self.data.len().saturating_sub(WINDOW_SIZE)..];
        let kept = (WINDOW_SIZE - tail.len()).min(window.len());
        let mut next = Vec::with_capacity(kept + tail.len());
        next.extend_from_slice(&window[window.len() - kept..]);
        next.extend_from_slice(tail);
        next
    }
}

/// Result of a speculative (two-stage) chunk decode.
#[derive(Debug)]
pub(crate) struct SpeculativeChunk {
    /// Bit offset of the block the finder located (the chunk's actual start).
    pub found_bit_offset: u64,
    /// The first bit a decode of the same chunk may start at: see
    /// [`StartBits`].
    pub earliest_bit_offset: u64,
    /// Absolute bit offset at which the next chunk starts.
    pub end_bit_offset: u64,
    /// Decoded output: a 16-bit marker prefix plus, from where the decoder
    /// could switch, a plain byte tail.
    pub output: PooledOutput,
    /// Which bytes of the (still unknown) preceding window the chunk
    /// references, as sorted marker-space `(offset, length)` runs — recorded
    /// by the decoder as it emits markers, so nobody has to rescan the
    /// symbols.  Non-empty exactly when the output contains markers.
    pub window_usage: Vec<(u32, u32)>,
    /// Whether the end of the compressed file was reached.
    pub reached_end_of_file: bool,
    /// The output split at gzip member boundaries as a direct decode splits
    /// it ([`ChunkResult::fragments`]), not hashed yet: symbols map 1:1 to
    /// output bytes, so the lengths hold for the resolved bytes too.
    pub fragments: Vec<ChunkFragment>,
    /// The output cut as a direct decode of the pass cuts it
    /// ([`ChunkResult::segments`]), its pieces not hashed yet.
    pub segments: Vec<Segment>,
}

/// The bits of the file a speculative chunk may start at.  The finder puts
/// a Non-Compressed block's three header bits right before the byte its
/// lengths start at, as if it had no padding; it may have up to seven bits
/// of it, all zero.  Read from any zero bit of those, the header is the same
/// and aligns to the same byte: the chunk is the same.  A Dynamic block
/// starts where it was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StartBits {
    pub earliest: u64,
    pub found: u64,
}

impl StartBits {
    /// The bits a chunk found at bit `found` of `range`, by a finder of
    /// `kind`, may start at, in the file's terms.
    fn of(kind: CandidateKind, range: &CompressedRange, found: u64) -> Self {
        let is_zero = |bit: u64| range.bytes[(bit / 8) as usize] >> (bit % 8) & 1 == 0;
        let padding = match kind {
            CandidateKind::Uncompressed => (1..=found.min(7))
                .take_while(|&back| is_zero(found - back))
                .count() as u64,
            CandidateKind::Dynamic => 0,
        };
        let range_bit = range.start_byte * 8;
        Self {
            earliest: range_bit + found - padding,
            found: range_bit + found,
        }
    }

    /// Whether a decode from `bit` — where the pass stands — decodes the
    /// chunk a decode from these does.
    pub(crate) fn admit(self, bit: u64) -> bool {
        (self.earliest..=self.found).contains(&bit)
    }
}

impl SpeculativeChunk {
    /// The bits the chunk may start at.
    pub(crate) fn start(&self) -> StartBits {
        StartBits {
            earliest: self.earliest_bit_offset,
            found: self.found_bit_offset,
        }
    }

    /// Replaces the chunk's markers with bytes from `window`, the 32 KiB in
    /// front of it: the chunk as a direct decode would have given it, its
    /// fragments and segments hashed, right here on the thread that resolved
    /// them, if `verify` is set.
    pub(crate) fn resolve(self, window: &[u8], verify: bool) -> Result<ChunkResult, CoreError> {
        let (mut fragments, mut segments) = (self.fragments, self.segments);
        let data = self.output.resolve(window).map_err(CoreError::Deflate)?;
        hash_pieces(&data, &mut fragments, &mut segments, verify);
        Ok(ChunkResult {
            end_bit_offset: self.end_bit_offset,
            data,
            reached_end_of_file: self.reached_end_of_file,
            window_usage: self.window_usage,
            fragments,
            fast_fallback_blocks: 0,
            segments,
        })
    }
}

/// A [`SpeculativeOutput`] made of pool buffers: the symbol buffer from the
/// start, the byte buffer from the switch (or from [`Self::resolve`], for a
/// chunk that never switched).  Dropping it, resolved or not, gives back
/// whichever it holds.
pub struct PooledOutput {
    output: SpeculativeOutput,
    buffers: BufferPool,
}

impl PooledOutput {
    /// An empty output over a symbol buffer from `buffers`.
    fn new(buffers: &BufferPool) -> Self {
        let mut symbols = buffers.symbols();
        symbols.clear();
        Self::adopt(symbols.detach().into(), buffers)
    }

    /// Takes over `output`, whose buffers will go to `buffers`.
    pub(crate) fn adopt(output: SpeculativeOutput, buffers: &BufferPool) -> Self {
        Self {
            output,
            buffers: buffers.clone(),
        }
    }

    /// Replaces the markers with bytes from `window` and returns the chunk's
    /// bytes.  The symbol buffer is back in the pool when this returns.
    pub(crate) fn resolve(mut self, window: &[u8]) -> Result<Pooled<u8>, DeflateError> {
        // A switched output already holds the buffer its bytes are in.
        let mut data = if self.output.is_switched() {
            self.buffers.adopt_bytes(Vec::new())
        } else {
            self.buffers.bytes()
        };
        self.output.resolve_into(window, &mut data)?;
        Ok(data)
    }
}

impl Deref for PooledOutput {
    type Target = SpeculativeOutput;

    fn deref(&self) -> &SpeculativeOutput {
        &self.output
    }
}

impl DerefMut for PooledOutput {
    fn deref_mut(&mut self) -> &mut SpeculativeOutput {
        &mut self.output
    }
}

impl std::fmt::Debug for PooledOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.output.fmt(f)
    }
}

impl Drop for PooledOutput {
    fn drop(&mut self) {
        let (symbols, bytes) = std::mem::take(&mut self.output).into_buffers();
        drop(self.buffers.adopt_symbols(symbols));
        drop(self.buffers.adopt_bytes(bytes));
    }
}

fn is_eof_like(error: &CoreError) -> bool {
    matches!(
        error,
        CoreError::Deflate(DeflateError::UnexpectedEof) | CoreError::Gzip(GzipError::Truncated)
    )
}

/// Parses the gzip footer at the reader's position in `range` and what
/// follows it (see [`next_member`]): returns the footer and whether the file
/// ends there.  What the range cannot decide is a truncation, for the caller
/// to widen the range and retry.
fn cross_member_boundary(
    reader: &mut BitReader<'_>,
    range: &CompressedRange,
) -> Result<(GzipFooter, bool), CoreError> {
    let footer = parse_footer(reader).map_err(CoreError::Gzip)?;
    match next_member(reader, range.reaches_file_end) {
        Ok(next) => Ok((footer, next.is_none())),
        Err(GzipError::TrailingGarbage { offset }) => {
            let offset = range.start_byte + offset;
            Err(CoreError::Gzip(GzipError::TrailingGarbage { offset }))
        }
        Err(error) => Err(CoreError::Gzip(error)),
    }
}

/// What a decode makes of its inflate calls, whichever decoder ran them: a
/// call ends at the chunk's stop or at the end of a gzip member, so each is
/// one [`ChunkFragment`]; the calls cut the chunk as the [`Cutter`] of its
/// extent says, all of them one; only the first can reference the window
/// before the chunk; and after a member the next call starts past its
/// trailer.
struct Assembly {
    /// Handed to every call.
    cutter: Cutter,
    segments: Vec<Segment>,
    /// One per call, not hashed yet.
    fragments: Vec<ChunkFragment>,
    /// The first call's.
    window_usage: Option<Vec<(u32, u32)>>,
    reached_end_of_file: bool,
    /// The chunk's bytes the calls so far decoded.
    decoded: usize,
}

impl Assembly {
    /// The assembly of a decode of `extent` from bit `start` of the file.
    fn new(extent: Extent, start: u64) -> Self {
        Self {
            cutter: extent.cutter(),
            segments: vec![Segment {
                bit: start,
                offset: 0,
                member: 0,
                windowed: false,
                usage: Vec::new(),
                pieces: Vec::new(),
            }],
            fragments: Vec::new(),
            window_usage: None,
            reached_end_of_file: false,
            decoded: 0,
        }
    }

    /// Takes in `call`, which decoded the chunk's bytes up to `decoded` from
    /// `reader` over `range`; past the end of a member, reads what follows
    /// its trailer.  Returns whether the chunk is done.
    fn take(
        &mut self,
        call: InflateOutcome,
        decoded: usize,
        reader: &mut BitReader<'_>,
        range: &CompressedRange,
    ) -> Result<bool, CoreError> {
        let call_start = std::mem::replace(&mut self.decoded, decoded);
        let member = self.fragments.len() as u64;
        let bit = range.start_byte * 8;
        let cuts = self.cutter.take_cuts().into_iter();
        self.segments.extend(cuts.map(|cut| Segment {
            bit: bit + cut.bit_offset,
            offset: cut.offset,
            member,
            windowed: cut.windowed,
            usage: cut.usage,
            pieces: Vec::new(),
        }));
        self.window_usage.get_or_insert(call.window_usage);
        let mut fragment = ChunkFragment {
            crc32: 0,
            length: (decoded - call_start) as u64,
            trailer: None,
        };
        let done = match call.stop_reason {
            StopReason::StopOffsetReached | StopReason::Abandoned => true,
            StopReason::EndOfInput => return Err(CoreError::Deflate(DeflateError::UnexpectedEof)),
            StopReason::EndOfStream => {
                let (footer, at_end_of_file) = cross_member_boundary(reader, range)?;
                fragment.trailer = Some(footer);
                self.reached_end_of_file = at_end_of_file;
                at_end_of_file
            }
        };
        self.fragments.push(fragment);
        Ok(done)
    }
}

/// A chunk to decode directly: its exact start offset and window are known.
pub(crate) struct DirectChunk<'a> {
    /// Absolute bit offset of the first DEFLATE block (or of a gzip member
    /// header if `at_member_start` is true).
    pub start_bit_offset: u64,
    /// Boundary of the next chunk; decoding stops at the first Dynamic or
    /// Non-Compressed block at or after it.
    pub stop_bit_offset: u64,
    /// Up to 32 KiB of decompressed data preceding the chunk.
    pub window: &'a [u8],
    pub at_member_start: bool,
    pub extent: Extent,
    /// Hash the decompressed bytes per member fragment (CRC-32 on this
    /// thread) so the caller can fold them against member trailers.
    pub verify: bool,
}

/// What a direct decode is of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extent {
    /// A chunk of the pass: `stop_bit_offset` is a guess (a multiple of the
    /// chunk size) that the chunk's last block may run well past.
    Guessed,
    /// A chunk of a seek-point table, to the next seek point, where the next
    /// chunk is *known* to start; its interior points are harvested: a
    /// windowed one at least `window_spacing` bytes of output past the last,
    /// and between them stop points at least `stop_spacing` apart.
    Chunk {
        window_spacing: usize,
        stop_spacing: usize,
    },
    /// From one interior point of such a chunk to another: a decode the
    /// buffer pool is not to size the next chunk's buffers by.
    Slice,
}

impl Extent {
    /// Where a decode of this cuts its chunk's bytes into [`Segment`]s: a
    /// pass's chunk every [`INTERIOR_SPACING`], with no stop points; a
    /// table's as it says; a slice not at all.  Cutters see blocks only, so
    /// both decoders cut a chunk alike.
    fn cutter(self) -> Cutter {
        match self {
            Extent::Guessed => Cutter::new(INTERIOR_SPACING, usize::MAX),
            Extent::Chunk {
                window_spacing,
                stop_spacing,
            } => Cutter::new(window_spacing, stop_spacing),
            Extent::Slice => Cutter::never(),
        }
    }
}

/// Bytes a direct decode reads past the next seek point: the decoder looks at
/// that block's three header bits to stop in front of it, and a Dynamic block
/// starting with fewer than 2 KiB of input left takes the slower
/// single-symbol path.  Should a chunk need more after all, the decode widens
/// the range and retries like any other.
const SEEK_POINT_SLACK: usize = 2 * 1024;

/// A compressed byte range of the file.
struct CompressedRange {
    bytes: Pooled<u8>,
    start_byte: u64,
    reaches_file_end: bool,
}

enum SpeculativeOutcome {
    Found(SpeculativeChunk),
    NoBlock,
    NeedMoreData,
}

/// Everything a chunk decode needs besides the chunk's offsets: the
/// compressed input and the size of the chunks it is cut into, the pool its
/// buffers come from, and the reader's telemetry.  Cheap to clone into a task.
#[derive(Clone)]
pub(crate) struct ChunkDecoder {
    pub reader: SharedFileReader,
    pub chunk_size: usize,
    pub buffers: BufferPool,
    pub metrics: Arc<ReaderMetrics>,
    /// The most bytes any decode of this reader has run past a guessed stop:
    /// the length of the longest block met across one.
    pub largest_overrun: Arc<AtomicU64>,
}

impl ChunkDecoder {
    /// How far past a guessed stop a decode reads at first.  It ends with the
    /// block that crosses the stop, so with blocks the length of the longest
    /// seen so far — of gzip's tens of KiB, until the input shows otherwise —
    /// twice that will do; a block longer still has the range widened and
    /// the decode done again, once, and the ones after it read enough.
    fn guessed_slack(&self) -> u64 {
        let initial = (self.chunk_size / 8).max(64 * 1024) as u64;
        initial.max(self.largest_overrun.load(Relaxed).saturating_mul(2))
    }

    /// Notes where a decode told to stop at `stop_bit` did.
    fn note_overrun(&self, end_bit: u64, stop_bit: u64) {
        let overrun = end_bit.saturating_sub(stop_bit).div_ceil(8);
        self.largest_overrun.fetch_max(overrun, Relaxed);
    }

    /// Reads the compressed range `[start_byte, end_byte)`, clamped to the
    /// file, into a pool buffer.
    fn read_range(&self, start_byte: u64, end_byte: u64) -> Result<CompressedRange, CoreError> {
        let file_size = self.reader.size();
        let length = end_byte.min(file_size).saturating_sub(start_byte);
        let mut bytes = self.buffers.range();
        self.reader
            .read_range_into(start_byte, length as usize, &mut bytes)?;
        let reaches_file_end = start_byte + bytes.len() as u64 >= file_size;
        Ok(CompressedRange {
            bytes,
            start_byte,
            reaches_file_end,
        })
    }

    /// Decodes a chunk whose exact start offset and window are known,
    /// producing plain bytes.
    pub fn decode_at(&self, chunk: &DirectChunk<'_>) -> Result<ChunkResult, CoreError> {
        let start_byte = chunk.start_bit_offset / 8;
        let stop_byte = chunk.stop_bit_offset.div_ceil(8);
        let mut slack = match chunk.extent {
            Extent::Guessed => self.guessed_slack(),
            Extent::Chunk { .. } | Extent::Slice => SEEK_POINT_SLACK as u64,
        };
        loop {
            let range = self.read_range(start_byte, stop_byte.saturating_add(slack))?;
            if chunk.extent != Extent::Slice {
                self.buffers.note_range(range.bytes.len());
            }
            match self.decode_direct_in_range(&range, chunk) {
                // The chunk extends past the range we read; widen and retry.
                Err(_) if !range.reaches_file_end => slack = slack.saturating_mul(4),
                Ok(result) if chunk.extent == Extent::Guessed => {
                    self.note_overrun(result.end_bit_offset, chunk.stop_bit_offset);
                    return Ok(result);
                }
                attempt => return attempt,
            }
        }
    }

    fn decode_direct_in_range(
        &self,
        range: &CompressedRange,
        chunk: &DirectChunk<'_>,
    ) -> Result<ChunkResult, CoreError> {
        let &DirectChunk {
            start_bit_offset,
            stop_bit_offset,
            window,
            at_member_start,
            verify,
            ..
        } = chunk;
        let range_start_bits = range.start_byte * 8;
        let mut reader = BitReader::new(&range.bytes);
        reader
            .seek_to_bit(start_bit_offset - range_start_bits)
            .map_err(|_| CoreError::Deflate(DeflateError::UnexpectedEof))?;
        let relative_stop = stop_bit_offset.saturating_sub(range_start_bits);

        if at_member_start {
            parse_header(&mut reader).map_err(CoreError::Gzip)?;
        }

        let mut assembly = Assembly::new(chunk.extent, start_bit_offset);
        let mut data = self.buffers.bytes();
        data.clear();
        let mut fast_fallback_blocks = 0u32;
        let mut call_window = window;
        loop {
            let cutter = &mut assembly.cutter;
            let call =
                inflate_with_cuts(&mut reader, call_window, &mut data, relative_stop, cutter)
                    .map_err(CoreError::Deflate)?;
            // A member after the first has no window to reference.
            call_window = &[];
            fast_fallback_blocks += call.fast_fallback_blocks;
            if assembly.take(call, data.len(), &mut reader, range)? {
                break;
            }
        }

        let (mut fragments, mut segments) = (assembly.fragments, assembly.segments);
        hash_pieces(&data, &mut fragments, &mut segments, verify);
        // A seek point's chunk was noted by the length the index gives it
        // before it began.
        if chunk.extent == Extent::Guessed {
            self.buffers.note_bytes(data.len());
        }
        Ok(ChunkResult {
            end_bit_offset: range_start_bits + reader.position(),
            data,
            reached_end_of_file: assembly.reached_end_of_file,
            window_usage: assembly.window_usage.unwrap_or_default(),
            fragments,
            fast_fallback_blocks,
            segments,
        })
    }

    /// Speculatively decodes the chunk whose guessed start is
    /// `guess_index * self.chunk_size` bytes, using the block finder and two-stage
    /// decoding, with block-find and two-stage decode spans recorded into the
    /// trace (chunk id = the guessed bit offset).  Returns `Ok(None)` if no
    /// DEFLATE block could be found inside the guessed chunk range.
    ///
    /// `window` is asked at the block boundaries of the decode (see
    /// [`inflate_speculative`]), with the bits of the file it may have
    /// started from and the symbols it has out, for the window in front of
    /// them.  A decode told to [`WindowAnswer::Abandon`] returns what it has
    /// by then: a chunk that ends at that boundary.
    pub fn decode_speculative(
        &self,
        guess_index: usize,
        mut window: impl FnMut(StartBits, usize) -> WindowAnswer<Arc<Vec<u8>>>,
    ) -> Result<Option<SpeculativeChunk>, CoreError> {
        let chunk_size = self.chunk_size;
        let guess_byte = (guess_index as u64) * chunk_size as u64;
        if guess_byte >= self.reader.size() {
            return Ok(None);
        }
        let guess_bit = guess_byte * 8;
        let stop_byte = guess_byte + chunk_size as u64;
        let mut slack = self.guessed_slack();

        loop {
            let range = {
                let _span = self.metrics.trace().span(Stage::RangeRead).chunk(guess_bit);
                self.read_range(guess_byte, stop_byte.saturating_add(slack))?
            };
            self.buffers.note_range(range.bytes.len());
            match self.decode_speculative_in_range(&range, guess_bit, stop_byte * 8, &mut window) {
                SpeculativeOutcome::Found(chunk) => {
                    self.note_overrun(chunk.end_bit_offset, stop_byte * 8);
                    return Ok(Some(chunk));
                }
                SpeculativeOutcome::NoBlock => return Ok(None),
                SpeculativeOutcome::NeedMoreData if !range.reaches_file_end => {
                    slack = slack.saturating_mul(4);
                }
                SpeculativeOutcome::NeedMoreData => return Ok(None),
            }
        }
    }

    fn decode_speculative_in_range(
        &self,
        range: &CompressedRange,
        guess_bit: u64,
        stop_bit: u64,
        window: &mut impl FnMut(StartBits, usize) -> WindowAnswer<Arc<Vec<u8>>>,
    ) -> SpeculativeOutcome {
        let range_start_bits = range.start_byte * 8;
        let range_end_byte = range.start_byte + range.bytes.len() as u64;
        let relative_guess = guess_bit - range_start_bits;
        let relative_stop = stop_bit - range_start_bits;
        // Every candidate that starts in the chunk's range, each bit of it
        // searched once.  The first block found may already belong to the
        // next chunk, in which case this one has nothing to offer.
        let finder = CombinedBlockFinder::new();
        let mut candidates = finder.candidates(&range.bytes, relative_guess, relative_stop);
        let mut rejected = [0u64; 2];
        let (taken, outcome) = loop {
            let candidate = {
                let trace = self.metrics.trace();
                let mut span = trace.span(Stage::BlockFind).chunk(guess_bit);
                let Some(candidate) = candidates.next() else {
                    span.set_outcome(Outcome::NotFound);
                    break (None, SpeculativeOutcome::NoBlock);
                };
                candidate
            };
            let start = candidate.bit_offset;
            let bits = StartBits::of(candidate.kind, range, start);

            let mut span = self.metrics.stage(Stage::DecodeTwoStage, guess_bit);
            span.set_compressed_range(range.start_byte + start / 8, range_end_byte);
            let window = |decoded| window(bits, decoded);
            match self.try_speculative_decode(range, bits, relative_stop, window) {
                Ok(chunk) => {
                    span.set_bytes(chunk.output.len() as u64);
                    span.set_marker_bytes(chunk.output.prefix().len() as u64);
                    let end_byte = chunk.end_bit_offset.div_ceil(8);
                    span.set_compressed_range(range.start_byte + start / 8, end_byte);
                    break (Some(candidate.kind), SpeculativeOutcome::Found(chunk));
                }
                Err(error) if is_eof_like(&error) => {
                    // Could be a genuine block whose data extends past the
                    // range we read: ask the caller for more data.
                    span.set_outcome(Outcome::Error);
                    break (None, SpeculativeOutcome::NeedMoreData);
                }
                Err(_) => {
                    // False positive: on to the next candidate.
                    span.set_outcome(Outcome::NotFound);
                    rejected[candidate.kind as usize] += 1;
                }
            }
        };
        let scanned_bytes = candidates.scanned_bytes().iter().sum();
        self.metrics.block_searched(scanned_bytes, rejected, taken);
        outcome
    }

    /// Decodes the chunk of `range` that starts at `start`.
    fn try_speculative_decode(
        &self,
        range: &CompressedRange,
        start: StartBits,
        relative_stop: u64,
        mut window: impl FnMut(usize) -> WindowAnswer<Arc<Vec<u8>>>,
    ) -> Result<SpeculativeChunk, CoreError> {
        let range_start_bits = range.start_byte * 8;
        let mut reader = BitReader::new(&range.bytes);
        reader
            .seek_to_bit(start.found - range_start_bits)
            .map_err(|_| CoreError::Deflate(DeflateError::UnexpectedEof))?;
        let byte_buffer = || self.buffers.bytes().detach();
        let mut output = PooledOutput::new(&self.buffers);
        let mut assembly = Assembly::new(Extent::Guessed, start.found);
        loop {
            let call = inflate_speculative(
                &mut reader,
                &mut output,
                relative_stop,
                byte_buffer,
                &mut window,
                &mut assembly.cutter,
            )
            .map_err(CoreError::Deflate)?;
            if assembly.take(call, output.len(), &mut reader, range)? {
                break;
            }
            // The next member starts with an empty window: nothing after
            // this point can reference the markers.
            output.switch_to_bytes(byte_buffer);
        }
        // The decodes that start before this chunk's buffers come back are
        // to find theirs as large already; its bytes need a buffer of this
        // size too, the one they are in or the one they will be resolved
        // into.
        self.buffers.note_symbols(output.prefix().len());
        self.buffers.note_bytes(output.len());
        Ok(SpeculativeChunk {
            found_bit_offset: start.found,
            earliest_bit_offset: start.earliest,
            end_bit_offset: range_start_bits + reader.position(),
            output,
            window_usage: assembly.window_usage.unwrap_or_default(),
            reached_end_of_file: assembly.reached_end_of_file,
            fragments: assembly.fragments,
            segments: assembly.segments,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rgz_deflate::CompressionLevel;
    use rgz_gzip::GzipWriter;
    use rgz_metrics::MetricsRegistry;

    /// A decoder over `reader` with a pool of its own.
    fn decoder(
        reader: &SharedFileReader,
        chunk_size: usize,
        metrics: &MetricsRegistry,
    ) -> ChunkDecoder {
        let trace = rgz_trace::TraceSink::shared_disabled();
        ChunkDecoder {
            reader: reader.clone(),
            chunk_size,
            buffers: BufferPool::new(1, metrics),
            metrics: Arc::new(ReaderMetrics::register(&Arc::default(), trace)),
            largest_overrun: Arc::default(),
        }
    }

    /// A direct decode into fresh buffers, to a guessed stop offset.
    fn decode_chunk_at(
        reader: &SharedFileReader,
        start_bit_offset: u64,
        stop_bit_offset: u64,
        window: &[u8],
        at_member_start: bool,
        chunk_size: usize,
        verify: bool,
    ) -> Result<ChunkResult, CoreError> {
        decoder(reader, chunk_size, &MetricsRegistry::new()).decode_at(&DirectChunk {
            start_bit_offset,
            stop_bit_offset,
            window,
            at_member_start,
            extent: Extent::Guessed,
            verify,
        })
    }

    /// A speculative decode into fresh buffers.
    fn decode_speculative_chunk(
        reader: &SharedFileReader,
        chunk_size: usize,
        guess_index: usize,
    ) -> Result<Option<SpeculativeChunk>, CoreError> {
        decoder(reader, chunk_size, &MetricsRegistry::new())
            .decode_speculative(guess_index, |_, _| WindowAnswer::Unknown)
    }

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
        assert_eq!(*result.data, data);
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
        assert_eq!(*result.data, data);
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
        assert_eq!(*result.data, expected);
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
        assert_eq!(speculative.found_bit_offset, chunk0.end_bit_offset);
        // A mid-member chunk records no member boundary: one fragment, all of
        // its output, no trailer.
        assert_eq!(speculative.fragments.len(), 1);
        assert_eq!(
            speculative.fragments[0].length,
            speculative.output.len() as u64
        );
        assert!(speculative.fragments[0].trailer.is_none());

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
                let ends = chunk.fragments.iter();
                recorded.extend(ends.filter_map(|f| Some((f.length, f.trailer?))));
            }
        }
        let crc_a = rgz_checksum::crc32(&part_a);
        assert!(
            recorded.iter().any(|&(length, footer)| length > 0
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
    /// bytes, end offset, window usage, fragments and segments — each
    /// windowed cut with the same usage, and decoding the rest of the chunk
    /// from its sparse window as from its whole one — hashed.  Returns how
    /// many chunks were compared, how many of them decoded part of their
    /// output as plain bytes, and how many cuts they made.
    fn assert_speculative_chunks_match_direct_decode(
        compressed: &[u8],
        chunk_size: usize,
    ) -> (usize, usize, usize) {
        let shared = SharedFileReader::from_bytes(compressed.to_vec());
        let (mut compared, mut switched, mut cuts) = (0, 0, 0);
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
            compared += 1;
            switched += usize::from(!speculative.output.tail().is_empty());
            let resolved = speculative.resolve(window, true).unwrap();
            assert_eq!(*resolved.data, *direct.data);
            assert_eq!(resolved.fragments, direct.fragments);
            assert_eq!(resolved.segments, direct.segments);
            cuts += resolved.segments.len() - 1;
            let windowed = resolved.segments.iter().filter(|segment| segment.windowed);
            for segment in windowed {
                let whole = &direct.data[segment.offset.saturating_sub(32 * 1024)..segment.offset];
                let sparse = rgz_window::SparseWindow::new(whole, &segment.usage).window();
                let end = direct.end_bit_offset;
                let rest = &direct.data[segment.offset..];
                for window in [whole, &sparse] {
                    let after = decode_chunk_at(
                        &shared,
                        segment.bit,
                        end,
                        window,
                        false,
                        chunk_size,
                        false,
                    );
                    assert!(
                        after.unwrap().data[..] == rest[..],
                        "cut at {}",
                        segment.offset
                    );
                }
            }
        }
        (compared, switched, cuts)
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
        let (compared, switched, _) =
            assert_speculative_chunks_match_direct_decode(&compressed, 16 * 1024);
        assert!(compared >= 8, "{compared} chunks compared");
        assert!(
            (2..compared).contains(&switched),
            "{switched} of {compared}"
        );
    }

    #[test]
    fn a_speculative_chunk_is_cut_where_a_direct_decode_cuts_it() {
        // Text that compresses some twentyfold, in blocks of 16 KiB: chunks
        // of 96 KiB are two MiB of output or so, cut a MiB apart, and one
        // holds a member boundary.
        let block = rgz_datagen::base64_random(24_000, 35);
        let members: Vec<Vec<u8>> = [(120, 1), (100, 2)]
            .map(|(rounds, seed)| {
                let mut member = Vec::new();
                for round in 0..rounds {
                    member.extend_from_slice(&block);
                    member.extend_from_slice(&rgz_datagen::base64_random(1000, seed + round));
                }
                member
            })
            .into();
        let parts: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 16 * 1024,
            ..Default::default()
        });
        let compressed = writer.compress_members(&parts);
        let (compared, _, cuts) =
            assert_speculative_chunks_match_direct_decode(&compressed, 96 * 1024);
        assert!(compared >= 2, "{compared} chunks compared");
        assert!(cuts >= compared, "{cuts} cuts in {compared} chunks");
    }

    #[test]
    fn a_speculative_decode_does_as_it_is_told_at_any_block_boundary() {
        // Text: markers live to the end of every chunk, so that nothing but
        // the answer switches a decode to bytes, or ends it.
        let data = rgz_datagen::silesia_like(500_000, 9);
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 8 * 1024,
            ..Default::default()
        });
        let compressed = writer.compress(&data);
        let chunk_size = 48 * 1024;
        let shared = SharedFileReader::from_bytes(compressed.clone());
        let metrics = MetricsRegistry::new();
        let mut told = 0;
        for guess in 1..compressed.len().div_ceil(chunk_size) {
            // Never told anything: where it starts, and what it asks.
            let mut asked = Vec::new();
            let untold = decoder(&shared, chunk_size, &metrics)
                .decode_speculative(guess, |found_bit, decoded| {
                    asked.push((found_bit, decoded));
                    WindowAnswer::Unknown
                })
                .unwrap()
                .expect("a block in every range");
            assert!(untold.output.tail().is_empty());
            let start = untold.found_bit_offset;
            let before = decode_chunk_at(&shared, 0, start, &[], true, chunk_size, false).unwrap();
            assert_eq!(before.end_bit_offset, start, "block finder false positive");
            let window = Arc::new(before.data[before.data.len() - 32 * 1024..].to_vec());
            let stop = (guess as u64 + 1) * chunk_size as u64 * 8;
            let direct =
                decode_chunk_at(&shared, start, stop, &window, false, chunk_size, true).unwrap();

            for (nth, &(_, at)) in asked.iter().enumerate() {
                assert!(at >= 32 * 1024, "asked with {at} symbols out");
                for answer in [
                    WindowAnswer::Known(Arc::clone(&window)),
                    WindowAnswer::Abandon,
                ] {
                    let mut asked_again = Vec::new();
                    let chunk = decoder(&shared, chunk_size, &metrics)
                        .decode_speculative(guess, |found_bit, decoded| {
                            asked_again.push((found_bit, decoded));
                            match asked_again.len() > nth {
                                true => answer.clone(),
                                false => WindowAnswer::Unknown,
                            }
                        })
                        .unwrap()
                        .unwrap();
                    // Asked as before, and no more once told.
                    assert_eq!(asked_again, asked[..=nth]);
                    assert_eq!(chunk.found_bit_offset, start);
                    assert_eq!(chunk.window_usage, direct.window_usage);
                    assert_eq!(chunk.output.prefix().len(), at);
                    let (end_bit, length) = (chunk.end_bit_offset, chunk.output.len());
                    let resolved = chunk.output.resolve(&window).unwrap();
                    assert_eq!(*resolved, direct.data[..length]);
                    if answer == WindowAnswer::Abandon {
                        // What there was: a chunk that ends at that boundary.
                        assert_eq!(length, at);
                        assert!(end_bit < direct.end_bit_offset);
                    } else {
                        assert_eq!(length, direct.data.len());
                        assert_eq!(end_bit, direct.end_bit_offset);
                    }
                    told += 1;
                }
            }
        }
        assert!(told > 40, "{told} answers given");
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The three corpora at two levels and two block sizes, in two chunks
        /// of over a MiB of output each: the second, decoded speculatively,
        /// is cut at a MiB — in its marker phase where markers live on, as on
        /// text — where a direct decode cuts it, with the same usage, and
        /// decodes on from there with its sparse window.
        #[test]
        fn a_speculative_chunk_cuts_where_a_direct_one_does_with_the_same_sparse_window(
            seed in 0u64..1_000_000,
            corpus in 0usize..3,
            level in 0usize..2,
            large_blocks in proptest::prelude::any::<bool>(),
        ) {
            let length = 3 << 20;
            let data = match corpus {
                0 => rgz_datagen::silesia_like(length, seed),
                1 => rgz_datagen::fastq_of_size(length, seed),
                _ => rgz_datagen::base64_random(length, seed),
            };
            let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
                level: [CompressionLevel::Fast, CompressionLevel::Default][level],
                block_size: if large_blocks { 128 * 1024 } else { 16 * 1024 },
                ..Default::default()
            });
            let compressed = writer.compress(&data);
            let chunk_size = compressed.len().div_ceil(2);
            let (compared, _, cuts) =
                assert_speculative_chunks_match_direct_decode(&compressed, chunk_size);
            proptest::prop_assert!(compared >= 1 && cuts >= 1, "{} chunks, {} cuts", compared, cuts);
        }
    }

    /// Two members; the first is one 512 KiB block (no block boundary a
    /// speculative chunk could start from) of even compressed length.
    pub(crate) fn single_block_member_then_another() -> (Vec<u8>, usize, Vec<u8>) {
        let first = rgz_datagen::base64_random(300_001, 7);
        let second = rgz_datagen::base64_random(50_000, 8);
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 512 * 1024,
            ..Default::default()
        });
        let first_length = writer.compress(&first).len();
        assert_eq!(first_length % 2, 0, "the repro needs an even length");
        let compressed = writer.compress_members(&[&first, &second]);
        let mut expected = first;
        expected.extend_from_slice(&second);
        (compressed, first_length, expected)
    }

    /// Six blocks of some 400 KiB each, compressed: any of them crosses six
    /// 64 KiB chunk boundaries.
    pub(crate) fn long_blocks() -> (Vec<u8>, Vec<u8>) {
        let data = rgz_datagen::base64_random(6 * 540 * 1024, 41);
        let writer = GzipWriter::new(rgz_deflate::CompressorOptions {
            block_size: 540 * 1024,
            ..Default::default()
        });
        (writer.compress(&data), data)
    }

    #[test]
    fn the_slack_follows_the_longest_block_seen_across_a_stop() {
        let (compressed, data) = long_blocks();
        let chunk_size = 64 * 1024;
        let chunk_bits = chunk_size as u64 * 8;
        let guesses = compressed.len().div_ceil(chunk_size);
        let shared = SharedFileReader::from_bytes(compressed);
        let registry = MetricsRegistry::new();
        let decoder = decoder(&shared, chunk_size, &registry);
        let range_reads = || {
            let snapshot = registry.snapshot();
            ["fresh", "reused"].map(|result| {
                let labels = [("kind", "range"), ("result", result)];
                snapshot.counter(rgz_metrics::names::BUFFER_POOL_TAKES, &labels)
            })
        };
        let range_reads = || range_reads().into_iter().flatten().sum::<u64>();

        // As the pass goes with one worker: from where the last chunk ended
        // to the first block boundary past the next multiple of the chunk
        // size — the end of the block the chunk began with.
        let (mut start, mut window, mut restored) = (0u64, Vec::new(), Vec::new());
        let mut ends = Vec::new();
        loop {
            let chunk = decoder
                .decode_at(&DirectChunk {
                    start_bit_offset: start,
                    stop_bit_offset: (start / chunk_bits + 1) * chunk_bits,
                    window: &window,
                    at_member_start: start == 0,
                    extent: Extent::Guessed,
                    verify: true,
                })
                .unwrap();
            restored.extend_from_slice(&chunk.data);
            window = chunk.next_window(&window);
            start = chunk.end_bit_offset;
            ends.push(start);
            if chunk.reached_end_of_file {
                break;
            }
        }
        assert!(restored == data);
        assert_eq!(ends.len(), 6);
        let overrun = decoder.largest_overrun.load(Relaxed);
        assert!((300_000..450_000).contains(&overrun), "{overrun}");
        // The first block did not fit into its stop + 64 KiB, nor + 256 KiB;
        // no other was decoded twice.
        assert_eq!(range_reads(), 6 + 2);

        // Neither is any speculative decode, and each block but the final
        // one, which no finder looks for, is found.
        let mut found = Vec::new();
        for guess in 1..guesses {
            let chunk = decoder.decode_speculative(guess, |_, _| WindowAnswer::Unknown);
            found.extend(chunk.unwrap().map(|chunk| chunk.found_bit_offset));
        }
        assert!(ends[..4].iter().all(|block| found.contains(block)));
        assert_eq!(range_reads(), 6 + 2 + (guesses as u64 - 1));
    }

    #[test]
    fn a_range_ending_at_a_member_end_is_not_the_end_of_the_file() {
        // The compressed range ends exactly where the first member does:
        // nothing is left of the *range*, but the file goes on.
        let (compressed, first_length, expected) = single_block_member_then_another();
        let shared = SharedFileReader::from_bytes(compressed);
        let stop_bit = (first_length as u64 - 65_536) * 8;
        let result = decode_chunk_at(&shared, 0, stop_bit, &[], true, 4096, true).unwrap();
        assert!(!result.reached_end_of_file);
        assert_eq!(*result.data, &expected[..300_001]);
        assert_eq!(result.end_bit_offset % 8, 0);
        let rest = decode_chunk_at(
            &shared,
            result.end_bit_offset,
            u64::MAX,
            &[],
            false,
            4096,
            true,
        )
        .unwrap();
        assert!(rest.reached_end_of_file);
        assert_eq!(*rest.data, &expected[300_001..]);
    }

    /// Everything a caller can see of a direct decode, or its error.
    fn direct_view(result: Result<ChunkResult, CoreError>) -> String {
        match result {
            Ok(chunk) => format!(
                "{} {} {:?} {:?} {} {:08x} {}",
                chunk.end_bit_offset,
                chunk.reached_end_of_file,
                chunk.window_usage,
                chunk.fragments,
                chunk.fast_fallback_blocks,
                rgz_checksum::crc32(&chunk.data),
                chunk.data.len(),
            ),
            Err(error) => format!("{error:?}"),
        }
    }

    /// Likewise of a speculative decode, resolved against `window`.
    fn speculative_view(
        result: Result<Option<SpeculativeChunk>, CoreError>,
        window: &[u8],
    ) -> String {
        match result {
            Ok(Some(chunk)) => {
                let view = format!(
                    "{} {} {:?} {} {} {}",
                    chunk.found_bit_offset,
                    chunk.end_bit_offset,
                    chunk.window_usage,
                    chunk.reached_end_of_file,
                    chunk.output.prefix().len(),
                    chunk.output.tail().len(),
                );
                let resolved = chunk.resolve(window, true);
                let resolved =
                    resolved.map(|chunk| (chunk.data.len(), chunk.fragments, chunk.segments));
                format!("{view} {resolved:?}")
            }
            Ok(None) => "no block".to_string(),
            Err(error) => format!("{error:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// One decoder goes through a file's chunks, speculatively and
        /// directly, with one pool: each decode finds the buffers the one
        /// before gave back — full of another chunk's range, symbols and
        /// bytes (behind the placeholders of a switch, past the end where a
        /// match copy overshot), or half-written where a truncated or
        /// bit-flipped chunk failed.  None of that may show: every result,
        /// and every error, equals that of a decode into fresh buffers.
        #[test]
        fn decodes_into_recycled_buffers_equal_decodes_into_fresh_ones(
            seed in 0u64..1_000_000,
            member_lengths in proptest::collection::vec(1usize..300_000, 1..4),
            block_size in 4usize..48,
            chunk_size in 8usize..64,
            damage in 0usize..3,
            damage_at in 0usize..1_000_000,
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
            let mut compressed = writer.compress_members(&parts);
            match damage {
                1 => {
                    let bit = damage_at % (compressed.len() * 8);
                    compressed[bit / 8] ^= 1 << (bit % 8);
                }
                2 => compressed.truncate((damage_at % compressed.len()).max(20)),
                _ => {}
            }
            let chunk_size = chunk_size * 1024;
            let chunks = compressed.len().div_ceil(chunk_size);
            let shared = SharedFileReader::from_bytes(compressed);
            // Not the true windows: all that matters is that both sides
            // resolve against the same one — and are handed it, two times in
            // three, at the same point of their decodes.
            let window = Arc::new(rgz_datagen::base64_random(32 * 1024, seed));
            let handed_from = [usize::MAX, 0, 100_000][seed as usize % 3];
            let hand = |_, decoded| match decoded >= handed_from {
                true => WindowAnswer::Known(Arc::clone(&window)),
                false => WindowAnswer::Unknown,
            };

            let recycled_metrics = MetricsRegistry::new();
            let recycling = decoder(&shared, chunk_size, &recycled_metrics);
            let fresh_metrics = MetricsRegistry::new();
            let fresh = || decoder(&shared, chunk_size, &fresh_metrics);
            for guess in 0..chunks {
                let speculative = recycling.decode_speculative(guess, hand);
                // Where the direct decode starts: at the block the
                // speculative one found, else at the guess itself.
                let start = match &speculative {
                    Ok(Some(chunk)) => chunk.found_bit_offset,
                    _ => (guess * chunk_size) as u64 * 8,
                };
                proptest::prop_assert_eq!(
                    speculative_view(speculative, &window),
                    speculative_view(fresh().decode_speculative(guess, hand), &window)
                );
                // To a guessed stop, and as if an index had named it.
                let direct = DirectChunk {
                    start_bit_offset: start,
                    stop_bit_offset: ((guess + 1) * chunk_size) as u64 * 8,
                    window: &window,
                    at_member_start: start == 0,
                    extent: [Extent::Guessed, Extent::Chunk {
                        window_spacing: 100_000,
                        stop_spacing: 20_000,
                    }][guess % 2],
                    verify: true,
                };
                proptest::prop_assert_eq!(
                    direct_view(recycling.decode_at(&direct)),
                    direct_view(fresh().decode_at(&direct))
                );
            }
            // Each guess took a range twice, and found the one its last
            // decode gave back at least once (a range longer than any of the
            // last few replaces it, once).
            let reused_takes = recycled_metrics
                .snapshot()
                .counter(
                    rgz_metrics::names::BUFFER_POOL_TAKES,
                    &[("kind", "range"), ("result", "reused")],
                );
            proptest::prop_assert!(
                reused_takes >= Some(chunks as u64),
                "the range buffer was not recycled: {:?} of {}", reused_takes, 2 * chunks
            );
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
