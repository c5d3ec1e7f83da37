//! One-stage (window-based) and two-stage (marker-based) DEFLATE decoding.
//!
//! The one-stage path is the classic decoder: it needs the 32 KiB of
//! decompressed data preceding the stream position (empty at the start of a
//! gzip member) and produces plain bytes.
//!
//! The two-stage path implements §2.2 of the paper: a thread that starts
//! decoding in the middle of a stream does not know the preceding window, so
//! back-references into it emit 16-bit *marker* symbols which a later, much
//! cheaper pass replaces once the window is known.  [`inflate_speculative`]
//! stays in that mode only until the last 32 KiB of output are marker-free,
//! then finishes through the one-stage path.
//!
//! Both paths run the same block loop and the same two symbol loops (the
//! multi-symbol hot loop and its single-symbol reference), generic over the
//! output [`Sink`]: [`ByteSink`] or [`MarkerSink`].

use rgz_bitio::BitReader;
use rgz_huffman::{FastEntryKind, HuffmanDecoder, FAST_TABLE_BITS, MAX_LENGTH_EXTRA_BITS};

use crate::block::{
    decode_distance, decode_length, dynamic_block_codes, dynamic_block_codes_fast,
    fixed_block_codes, fixed_block_codes_fast, read_block_header, read_stored_header, BlockType,
    FastBlockCodes,
};
use crate::constants::{END_OF_BLOCK, WINDOW_SIZE};
use crate::markers::{SpeculativeOutput, WindowUsage};
use crate::DeflateError;

/// Marker base: output symbols `>= MARKER_BASE` denote offset
/// `symbol - MARKER_BASE` into the unknown 32 KiB window preceding the chunk
/// (offset 0 = oldest byte, `WINDOW_SIZE - 1` = byte immediately before the
/// chunk).
pub const MARKER_BASE: u16 = 32_768;

/// Where and what a decoded block was; collected so the caller can build
/// seek points and enforce the chunk stop condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockBoundary {
    /// Bit offset of the first bit of the block header.
    pub bit_offset: u64,
    /// Offset of the block's first output byte, relative to the start of this
    /// inflate call.
    pub uncompressed_offset: u64,
    /// Block type.
    pub block_type: BlockType,
    /// Whether this block had the final-block bit set.
    pub is_final: bool,
}

/// Why an inflate call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A block with the final-block flag was fully decoded.
    EndOfStream,
    /// A Dynamic or Non-Compressed block starting at or after the stop offset
    /// was encountered (and not consumed).
    StopOffsetReached,
    /// The input data ended exactly at a block boundary before the stream's
    /// final block (only possible when decoding a truncated prefix).
    EndOfInput,
}

/// Metadata describing one inflate call.
#[derive(Debug, Clone)]
pub struct InflateOutcome {
    /// Block boundaries encountered, in order.
    pub blocks: Vec<BlockBoundary>,
    /// Why decoding stopped.
    pub stop_reason: StopReason,
    /// Bit position after the last consumed bit.
    pub end_position: u64,
    /// Which bytes of the preceding 32 KiB window the decoded data actually
    /// referenced, as sorted `(offset, length)` runs in marker space (see
    /// [`crate::markers::WindowUsage`]).  Empty when the data is
    /// self-contained.
    pub window_usage: Vec<(u32, u32)>,
    /// CRC-32 of the bytes *this call* appended to the output, when decoding
    /// through [`inflate_hashed`]; `None` for the unhashed entry points and
    /// for two-stage decoding (marker symbols cannot be hashed before
    /// replacement).
    pub crc32: Option<u32>,
    /// Blocks the multi-symbol fast path declined and routed through the
    /// single-symbol reference decoder (table build would not amortise near
    /// the end of input).  Always zero when the fast path was not requested;
    /// lets callers tag a decode span with a *fallback* outcome.
    pub fast_fallback_blocks: u32,
}

impl InflateOutcome {
    /// Whether the DEFLATE stream was decoded to its final block.
    pub fn stream_ended(&self) -> bool {
        self.stop_reason == StopReason::EndOfStream
    }
}

/// Decides whether the block starting at the current position should be left
/// unconsumed because of the stop condition (§3.3: stop at the first Dynamic
/// or Non-Compressed block at or after the stop offset; Fixed Blocks are
/// decoded through because the block finder never reports them).
fn should_stop_before_block(reader: &mut BitReader<'_>, stop_offset: u64) -> bool {
    if reader.position() < stop_offset || reader.remaining_bits() < 3 {
        return false;
    }
    let header = reader.peek(3);
    let block_type = (header >> 1) & 0b11;
    block_type == 0b00 || block_type == 0b10
}

// --- output sinks --------------------------------------------------------------

/// Where the block decoders put their output.  One multi-symbol hot loop
/// ([`decode_block_fast`]) and one single-symbol reference loop
/// ([`decode_block_reference`]) serve both output widths through this trait;
/// monomorphisation keeps each instance as tight as a hand-written loop.
trait Sink {
    /// Symbols in the output buffer, including any that preceded this call.
    fn len(&self) -> usize;

    fn push_literal(&mut self, byte: u8);

    /// Emits the literals one fast-table entry packed together.
    fn push_literals<const N: usize>(&mut self, bytes: [u8; N]);

    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError>;

    /// Appends a Stored block's payload.
    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError>;

    /// Errors once the output has outgrown the caller's bound.  Checked once
    /// per hot-loop step, so a hostile stream can overshoot by at most one
    /// match (258 bytes) before erroring out.
    #[inline]
    fn check_limit(&self) -> Result<(), DeflateError> {
        Ok(())
    }

    /// Whether decoding should leave this sink at the next block boundary
    /// (see [`MarkerSink::switch`]).
    #[inline]
    fn wants_switch(&self) -> bool {
        false
    }
}

/// Spare capacity, in elements, the overshooting match copy keeps past the
/// output end: one 16-element store, plus one period-replication pass that
/// can land a store's worth beyond it.
const COPY_SLACK: usize = 32;

/// Copies `length` elements from `distance` elements behind the end of `out`
/// to its end.  Requires `1 <= distance <= out.len()`.  `scalar` routes the
/// copy through the portable doubling loop instead of the overshooting vector
/// copy (set by `RGZ_FORCE_SCALAR`, and by the differential tests to compare
/// both).
#[inline]
fn copy_within_output<T: Copy>(out: &mut Vec<T>, distance: usize, length: usize, scalar: bool) {
    if scalar {
        copy_within_output_scalar(out, distance, length);
    } else {
        copy_within_output_overshoot(out, distance, length);
    }
}

/// Portable reference for [`copy_within_output`]: repeated
/// `extend_from_within` chunks, each a bounds-checked memcpy.
fn copy_within_output_scalar<T: Copy>(out: &mut Vec<T>, distance: usize, length: usize) {
    let start = out.len() - distance;
    // The output from `start` onwards repeats with period `distance`, so
    // each `extend_from_within` chunk (a memcpy) may cover everything
    // written so far past `start` — doubling per iteration instead of the
    // element-at-a-time loop an overlapping copy would otherwise need.
    let mut copied = 0;
    while copied < length {
        let chunk = (length - copied).min(out.len() - start);
        out.extend_from_within(start..start + chunk);
        copied += chunk;
    }
}

/// Vector match copy: whole 16-element stores (one or two registers),
/// deliberately overshooting the match end into reserved slack (the
/// overshoot elements are either overwritten by the next symbol or sit
/// beyond `len` and are never observed).  Typical DEFLATE matches are 3–30
/// bytes, so most copies complete in one or two stores with no per-element or
/// per-chunk bookkeeping; overlapping matches first replicate their period
/// until source and cursor are a store apart.
// `unsafe` is confined to raw-pointer copies whose bounds are established by
// the `reserve` above them (workspace-wide policy: unsafe only inside vetted
// hot-loop kernels; `copy_within_output_scalar` is the portable reference).
#[allow(unsafe_code)]
#[inline]
fn copy_within_output_overshoot<T: Copy>(out: &mut Vec<T>, distance: usize, length: usize) {
    let len = out.len();
    assert!(distance >= 1 && distance <= len);
    out.reserve(length + COPY_SLACK);
    // SAFETY: the buffer has `length + COPY_SLACK` spare elements.  Writes
    // run from `len` to at most `len + length + 15` (each store is 16
    // elements starting below `end`); reads start at `len - distance`, inside
    // the buffer by the assertion above, and stay below the write cursor,
    // which starts at initialized data and advances contiguously.  `set_len`
    // covers exactly the `length` initialized match elements.
    unsafe {
        let base = out.as_mut_ptr();
        let mut src = base.add(len - distance);
        let mut dst = base.add(len);
        let end = dst.add(length);
        if distance == 1 {
            let value = *src;
            for offset in 0..length {
                dst.add(offset).write(value);
            }
        } else {
            // Replicate the period until source and cursor are at least
            // one store apart; each pass doubles the gap, so this runs at
            // most four times (distance >= 2).
            let mut gap = distance;
            while gap < 16 && dst < end {
                std::ptr::copy_nonoverlapping(src, dst, gap);
                dst = dst.add(gap);
                gap *= 2;
            }
            while dst < end {
                std::ptr::copy_nonoverlapping(src, dst, 16);
                src = src.add(16);
                dst = dst.add(16);
            }
        }
        out.set_len(len + length);
    }
}

/// One-stage sink: output bytes plus the window that preceded them.
struct ByteSink<'w> {
    window: &'w [u8],
    out: Vec<u8>,
    usage: WindowUsage,
    /// Maximum total output length; decoding errors out once exceeded (used
    /// to bound the expansion of untrusted streams).
    limit: usize,
    scalar_copies: bool,
}

impl<'w> ByteSink<'w> {
    fn new(window: &'w [u8], out: Vec<u8>, limit: usize) -> Self {
        Self {
            window,
            out,
            usage: WindowUsage::new(),
            limit,
            scalar_copies: rgz_bitio::scalar_forced(),
        }
    }
}

impl Sink for ByteSink<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.out.len()
    }

    #[inline]
    fn push_literal(&mut self, byte: u8) {
        self.out.push(byte);
    }

    #[inline]
    fn push_literals<const N: usize>(&mut self, bytes: [u8; N]) {
        self.out.extend_from_slice(&bytes);
    }

    #[inline]
    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError> {
        let position = self.out.len();
        if distance > position + self.window.len() || distance == 0 || distance > WINDOW_SIZE {
            return Err(DeflateError::DistanceTooFar {
                distance,
                available: position + self.window.len(),
            });
        }
        let mut remaining = length;
        if distance > position {
            // The first `distance - position` bytes come out of the preceding
            // window; record them so the index can sparsify the stored copy.
            let reach = distance - position;
            let from_window = reach.min(length);
            self.usage.mark(WINDOW_SIZE - reach, from_window);
            let start = self.window.len() - reach;
            self.out
                .extend_from_slice(&self.window[start..start + from_window]);
            // Once the source position crosses into this call's own output
            // the copy continues as a plain self-referential match (the
            // distance is unchanged and now <= out.len()).
            remaining -= from_window;
        }
        if remaining > 0 {
            copy_within_output(&mut self.out, distance, remaining, self.scalar_copies);
        }
        Ok(())
    }

    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError> {
        if self.out.len().saturating_add(bytes.len()) > self.limit {
            return Err(DeflateError::OutputLimitExceeded { limit: self.limit });
        }
        self.out.extend_from_slice(bytes);
        Ok(())
    }

    #[inline]
    fn check_limit(&self) -> Result<(), DeflateError> {
        if self.out.len() > self.limit {
            return Err(DeflateError::OutputLimitExceeded { limit: self.limit });
        }
        Ok(())
    }
}

/// Two-stage sink: 16-bit output where values `< 256` are literals and
/// values `>= MARKER_BASE` are markers into the unknown window.
struct MarkerSink {
    out: Vec<u16>,
    /// Length of `out` when this inflate call started: the window boundary
    /// (data appended by previous calls is not referenced).
    base: usize,
    usage: WindowUsage,
    /// Index into `out` from which on no symbol is a marker.
    marker_free_from: usize,
    /// Ask the block loop to stop at the first block boundary where the last
    /// [`WINDOW_SIZE`] symbols are marker-free: from there a byte decoder
    /// seeded with those symbols needs no window (§2.2).
    switch: bool,
    scalar_copies: bool,
}

impl MarkerSink {
    fn new(out: Vec<u16>, switch: bool) -> Self {
        Self {
            base: out.len(),
            marker_free_from: out.len(),
            out,
            usage: WindowUsage::new(),
            switch,
            scalar_copies: rgz_bitio::scalar_forced(),
        }
    }
}

impl Sink for MarkerSink {
    #[inline]
    fn len(&self) -> usize {
        self.out.len()
    }

    #[inline]
    fn push_literal(&mut self, byte: u8) {
        self.out.push(byte as u16);
    }

    #[inline]
    fn push_literals<const N: usize>(&mut self, bytes: [u8; N]) {
        self.out.extend_from_slice(&bytes.map(u16::from));
    }

    #[inline]
    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError> {
        if distance == 0 || distance > WINDOW_SIZE {
            return Err(DeflateError::DistanceTooFar {
                distance,
                available: WINDOW_SIZE,
            });
        }
        // Position within this inflate call.
        let position = self.out.len() - self.base;
        let mut remaining = length;
        if distance > position {
            // Reference into the unknown preceding window: the byte at
            // distance `d` behind position `p` sits `d - p` bytes before the
            // chunk, i.e. at window offset `WINDOW_SIZE - (d - p)`, counted
            // from the oldest window byte.  Consecutive source bytes are
            // consecutive markers.
            let reach = distance - position;
            let from_window = reach.min(length);
            let first = WINDOW_SIZE - reach;
            self.usage.mark(first, from_window);
            self.out
                .extend((first..first + from_window).map(|offset| MARKER_BASE + offset as u16));
            self.marker_free_from = self.out.len();
            remaining -= from_window;
        }
        if remaining > 0 {
            let copied_from = self.out.len();
            copy_within_output(&mut self.out, distance, remaining, self.scalar_copies);
            // A source starting at or after the last marker copied none;
            // otherwise the copy's own last marker is the new last marker.
            if copied_from - distance < self.marker_free_from {
                if let Some(last) = self.out[copied_from..]
                    .iter()
                    .rposition(|&symbol| symbol >= MARKER_BASE)
                {
                    self.marker_free_from = copied_from + last + 1;
                }
            }
        }
        Ok(())
    }

    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError> {
        self.out.extend(bytes.iter().map(|&byte| byte as u16));
        Ok(())
    }

    #[inline]
    fn wants_switch(&self) -> bool {
        self.switch && self.out.len() - self.marker_free_from >= WINDOW_SIZE
    }
}

// --- block loop ----------------------------------------------------------------

/// Minimum remaining input (bits) for a Dynamic Block to take the
/// multi-symbol fast path; below this the packed-table build dominates the
/// block's decode time. 16 Kibit = 2 KiB of compressed payload, roughly a
/// thousand symbols.
const DYNAMIC_FAST_MIN_REMAINING_BITS: u64 = 16 * 1024;

/// What the block loop has seen so far; shared by the marker and the byte
/// phase of one [`inflate_speculative`] call.
#[derive(Default)]
struct BlockLog {
    blocks: Vec<BlockBoundary>,
    fast_fallback_blocks: u32,
}

impl BlockLog {
    fn into_outcome(
        self,
        stop_reason: StopReason,
        reader: &BitReader<'_>,
        usage: &WindowUsage,
        crc32: Option<u32>,
    ) -> InflateOutcome {
        InflateOutcome {
            blocks: self.blocks,
            stop_reason,
            end_position: reader.position(),
            window_usage: usage.intervals(),
            crc32,
            fast_fallback_blocks: self.fast_fallback_blocks,
        }
    }
}

/// Decodes blocks into `sink` until a stop condition holds (`Some(reason)`)
/// or the sink asks to be switched out at a block boundary (`None`).
/// `base` is the sink length block offsets are reported relative to.
fn decode_blocks<S: Sink>(
    reader: &mut BitReader<'_>,
    sink: &mut S,
    base: usize,
    stop_offset: u64,
    fast: bool,
    log: &mut BlockLog,
) -> Result<Option<StopReason>, DeflateError> {
    loop {
        if should_stop_before_block(reader, stop_offset) {
            return Ok(Some(StopReason::StopOffsetReached));
        }
        if reader.remaining_bits() == 0 && !log.blocks.is_empty() {
            return Ok(Some(StopReason::EndOfInput));
        }
        if sink.wants_switch() {
            return Ok(None);
        }
        let block_start = reader.position();
        let header = read_block_header(reader)?;
        log.blocks.push(BlockBoundary {
            bit_offset: block_start,
            uncompressed_offset: (sink.len() - base) as u64,
            block_type: header.block_type,
            is_final: header.is_final,
        });
        match header.block_type {
            BlockType::Stored => {
                let length = read_stored_header(reader)?;
                sink.push_stored(reader.take_bytes(length)?)?;
            }
            BlockType::Fixed => {
                if fast {
                    decode_block_fast(reader, fixed_block_codes_fast(), sink)?;
                } else {
                    let codes = fixed_block_codes();
                    decode_block_reference(reader, &codes.literal, codes.distance.as_ref(), sink)?;
                }
            }
            BlockType::Dynamic => {
                // Building the 8K-entry packed table costs about as much as
                // decoding a thousand symbols; when the remaining input
                // cannot contain a block large enough to amortise that,
                // decode through the reference tables (identical output).
                if fast && reader.remaining_bits() >= DYNAMIC_FAST_MIN_REMAINING_BITS {
                    let codes = dynamic_block_codes_fast(reader)?;
                    decode_block_fast(reader, &codes, sink)?;
                } else {
                    if fast {
                        log.fast_fallback_blocks += 1;
                    }
                    let codes = dynamic_block_codes(reader)?;
                    decode_block_reference(reader, &codes.literal, codes.distance.as_ref(), sink)?;
                }
            }
        }
        if header.is_final {
            return Ok(Some(StopReason::EndOfStream));
        }
    }
}

/// Decodes one literal/length symbol through the bounds-checked reference
/// decoder and applies it to the sink. Returns `true` when the symbol ended
/// the block.
#[inline]
fn decode_one_symbol<S: Sink>(
    reader: &mut BitReader<'_>,
    literal: &HuffmanDecoder,
    distance_decoder: Option<&HuffmanDecoder>,
    sink: &mut S,
) -> Result<bool, DeflateError> {
    let symbol = literal
        .decode(reader)
        .map_err(DeflateError::InvalidLiteralCode)?;
    if symbol < 256 {
        sink.push_literal(symbol as u8);
    } else if symbol == END_OF_BLOCK {
        return Ok(true);
    } else {
        let length = decode_length(symbol, reader)?;
        let distance = decode_distance(distance_decoder, reader)?;
        sink.copy_match(distance, length)?;
    }
    Ok(false)
}

/// The single-symbol reference loop: the decoder the paper describes, and
/// the exact fallback of [`decode_block_fast`].
fn decode_block_reference<S: Sink>(
    reader: &mut BitReader<'_>,
    literal: &HuffmanDecoder,
    distance_decoder: Option<&HuffmanDecoder>,
    sink: &mut S,
) -> Result<(), DeflateError> {
    loop {
        sink.check_limit()?;
        if decode_one_symbol(reader, literal, distance_decoder, sink)? {
            return Ok(());
        }
    }
}

/// Worst-case number of buffered bits one fast-path step consumes without
/// further bounds checks: a full table lookup plus a length symbol's extra
/// bits. (Distance codes are decoded through the checked reference decoder,
/// which refills on its own.)
const FAST_STEP_BITS: u32 = FAST_TABLE_BITS + MAX_LENGTH_EXTRA_BITS;

/// The multi-symbol hot loop (the paper's stated single-core gap versus
/// ISA-L, §4.1): one [`BitReader::fill_buffer`] refill amortises over several
/// table hits, and each hit resolves up to three symbols.
///
/// Behaviour is bit-for-bit identical to [`decode_block_reference`]:
/// patterns the fast table cannot resolve (codes longer than
/// [`FAST_TABLE_BITS`] bits, invalid codes) and near-end-of-input tails are
/// delegated to the reference decoder, which also reproduces its exact
/// errors.
fn decode_block_fast<S: Sink>(
    reader: &mut BitReader<'_>,
    codes: &FastBlockCodes,
    sink: &mut S,
) -> Result<(), DeflateError> {
    loop {
        reader.fill_buffer();
        if reader.cached_bits() < FAST_STEP_BITS {
            // Fewer than FAST_STEP_BITS bits left in the *entire input* (a
            // refill otherwise always buffers more): finish the block — at
            // most a couple of symbols — through the checked reference loop.
            return decode_block_reference(reader, &codes.literal, codes.distance.as_ref(), sink);
        }
        while reader.cached_bits() >= FAST_STEP_BITS {
            sink.check_limit()?;
            let entry = codes
                .literal_fast
                .entry(reader.peek_cached(FAST_TABLE_BITS));
            match entry.kind() {
                FastEntryKind::LiteralTriple => {
                    reader.consume_cached(entry.consumed_bits());
                    sink.push_literals([
                        entry.literal(),
                        entry.second_literal(),
                        entry.third_literal(),
                    ]);
                }
                FastEntryKind::LiteralPair => {
                    reader.consume_cached(entry.consumed_bits());
                    sink.push_literals([entry.literal(), entry.second_literal()]);
                }
                FastEntryKind::Literal => {
                    reader.consume_cached(entry.consumed_bits());
                    sink.push_literal(entry.literal());
                }
                FastEntryKind::Length => {
                    reader.consume_cached(entry.consumed_bits());
                    finish_fast_match(reader, codes, sink, entry)?;
                }
                FastEntryKind::LiteralLength => {
                    reader.consume_cached(entry.consumed_bits());
                    sink.push_literal(entry.literal());
                    finish_fast_match(reader, codes, sink, entry)?;
                }
                FastEntryKind::EndOfBlock => {
                    reader.consume_cached(entry.consumed_bits());
                    return Ok(());
                }
                FastEntryKind::Fallback => {
                    if decode_one_symbol(reader, &codes.literal, codes.distance.as_ref(), sink)? {
                        return Ok(());
                    }
                }
            }
        }
    }
}

/// Worst-case buffered bits a distance resolution consumes: a maximum-length
/// distance code plus its extra bits (13 for codes 28/29).
const FAST_DISTANCE_BITS: u32 =
    rgz_huffman::MAX_CODE_LENGTH + crate::constants::DISTANCE_EXTRA_BITS[29] as u32;

/// Completes a match whose length symbol came out of the fast table: reads
/// the cached number of extra bits from the buffer, then resolves the
/// distance — from the buffer too when one refill covers the worst case,
/// through the checked reference path otherwise (near end of input).
#[inline]
fn finish_fast_match<S: Sink>(
    reader: &mut BitReader<'_>,
    codes: &FastBlockCodes,
    sink: &mut S,
    entry: rgz_huffman::FastEntry,
) -> Result<(), DeflateError> {
    let extra_bits = entry.length_extra_bits();
    let extra = reader.peek_cached(extra_bits) as usize;
    reader.consume_cached(extra_bits);
    let length = entry.length_base() as usize + extra;

    reader.fill_buffer();
    let distance = if reader.cached_bits() >= FAST_DISTANCE_BITS {
        let decoder = codes
            .distance
            .as_ref()
            .ok_or(DeflateError::BackReferenceWithoutDistanceCode)?;
        let symbol = decoder
            .decode_cached(reader)
            .map_err(DeflateError::InvalidDistanceCode)?;
        let index = symbol as usize;
        if index >= crate::constants::DISTANCE_BASE.len() {
            return Err(DeflateError::InvalidDistanceSymbol(symbol));
        }
        let distance_extra_bits = crate::constants::DISTANCE_EXTRA_BITS[index] as u32;
        let distance_extra = reader.peek_cached(distance_extra_bits) as usize;
        reader.consume_cached(distance_extra_bits);
        crate::constants::DISTANCE_BASE[index] as usize + distance_extra
    } else {
        decode_distance(codes.distance.as_ref(), reader)?
    };
    sink.copy_match(distance, length)
}

// --- one-stage decoding ----------------------------------------------------------

/// Decodes DEFLATE blocks starting at the reader's current position,
/// appending plain bytes to `out`.
///
/// * `window` — up to 32 KiB of decompressed data preceding this position
///   (empty at the start of a stream).
/// * `stop_offset` — bit offset at which to stop before the next Dynamic or
///   Non-Compressed block (use `u64::MAX` to decode the whole stream).
pub fn inflate(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
) -> Result<InflateOutcome, DeflateError> {
    inflate_impl(reader, window, out, stop_offset, usize::MAX, false, true)
}

/// [`inflate`] decoding through the single-symbol reference decoder instead
/// of the multi-symbol fast path.
///
/// Behaviour is bit-for-bit identical to [`inflate`]; this entry point exists
/// so differential tests can assert exactly that, and so the benchmark
/// harness (`table2_components`) can measure the fast path's speedup against
/// the decoder the paper describes.
pub fn inflate_single_symbol(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
) -> Result<InflateOutcome, DeflateError> {
    inflate_impl(reader, window, out, stop_offset, usize::MAX, false, false)
}

/// [`inflate`] that additionally computes the CRC-32 of the bytes it appends
/// to `out`, reported in [`InflateOutcome::crc32`].  Because one inflate call
/// never crosses a gzip member boundary, the hash of one call is exactly the
/// member-CRC fragment the verification pipeline folds with
/// `crc32_combine` — and it is computed here, on the thread that decoded the
/// data, so hashing parallelizes with decompression across chunks.
pub fn inflate_hashed(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
) -> Result<InflateOutcome, DeflateError> {
    inflate_impl(reader, window, out, stop_offset, usize::MAX, true, true)
}

/// [`inflate`] with an upper bound on the total length of `out`: decoding an
/// *untrusted* stream fails with [`DeflateError::OutputLimitExceeded`] as
/// soon as it expands past `output_limit` (give or take one match), instead
/// of ballooning a hostile 32 KiB payload into tens of megabytes.
pub fn inflate_limited(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
    output_limit: usize,
) -> Result<InflateOutcome, DeflateError> {
    inflate_impl(reader, window, out, stop_offset, output_limit, false, true)
}

fn inflate_impl(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
    output_limit: usize,
    hash_output: bool,
    fast: bool,
) -> Result<InflateOutcome, DeflateError> {
    let start_len = out.len();
    let mut sink = ByteSink::new(window, std::mem::take(out), output_limit);
    let mut log = BlockLog::default();
    let exit = decode_blocks(reader, &mut sink, start_len, stop_offset, fast, &mut log);
    // The caller's buffer goes back before an error returns: it may be a
    // recycled one that is to be reused whatever happened here.
    *out = sink.out;
    let stop_reason = exit?.expect("a byte sink never asks to be switched out");
    // Hashing after the decode loop keeps the per-byte hot path untouched;
    // the slicing-by-eight CRC makes this one cheap linear pass.
    let crc32 = hash_output.then(|| rgz_checksum::crc32(&out[start_len..]));
    Ok(log.into_outcome(stop_reason, reader, &sink.usage, crc32))
}

// --- two-stage decoding ----------------------------------------------------------

/// Decodes DEFLATE blocks without knowing the preceding window, appending
/// 16-bit symbols (literals or markers) to `out`.
///
/// References that reach before the start of *this call's* output become
/// markers; pass the output of a previous call in `out` and its length as
/// implicit context is **not** used — each call treats its own start as the
/// window boundary, matching how chunks are decoded independently.
///
/// This is [`inflate_speculative`]'s marker phase with the switch to bytes
/// turned off: every symbol stays 16 bits wide.
pub fn inflate_two_stage(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u16>,
    stop_offset: u64,
) -> Result<InflateOutcome, DeflateError> {
    let mut sink = MarkerSink::new(std::mem::take(out), false);
    let base = sink.base;
    let mut log = BlockLog::default();
    let exit = decode_blocks(reader, &mut sink, base, stop_offset, true, &mut log);
    *out = sink.out;
    let stop_reason = exit?.expect("the switch is off");
    Ok(log.into_outcome(stop_reason, reader, &sink.usage, None))
}

/// Decodes DEFLATE blocks without knowing the preceding window, as 16-bit
/// marker symbols only for as long as it has to (§2.2): at the first block
/// boundary where the last 32 KiB of output contain no marker, those 32 KiB
/// are narrowed to bytes and the rest decodes through the one-stage path at
/// one-stage speed.  `out` that has already switched (by an earlier call, or
/// by [`SpeculativeOutput::switch_to_bytes`] at a gzip member boundary, where
/// the window is known to be empty) decodes one-stage from the start.
///
/// `byte_buffer` is asked for the buffer the byte tail goes into, at the
/// switch and only then: a chunk that stays 16 bits wide never holds one.
/// Its contents are discarded; hand in a recycled one of the right capacity
/// or `Vec::new`.
///
/// The outcome's `window_usage` covers the marker phase only: after the
/// switch every reference resolves inside `out`.  As with the other entry
/// points, what `out` holds after an error is unspecified — but it still
/// owns every buffer it was given.
pub fn inflate_speculative(
    reader: &mut BitReader<'_>,
    out: &mut SpeculativeOutput,
    stop_offset: u64,
    byte_buffer: impl FnOnce() -> Vec<u8>,
) -> Result<InflateOutcome, DeflateError> {
    let start_len = out.len();
    let mut log = BlockLog::default();
    let mut usage = WindowUsage::new();
    if !out.switched {
        let mut sink = MarkerSink::new(std::mem::take(&mut out.prefix), true);
        let exit = decode_blocks(reader, &mut sink, start_len, stop_offset, true, &mut log);
        out.prefix = sink.out;
        usage = sink.usage;
        match exit? {
            Some(stop_reason) => return Ok(log.into_outcome(stop_reason, reader, &usage, None)),
            None => out.switch_to_bytes(byte_buffer),
        }
    }
    let mut sink = ByteSink::new(&[], std::mem::take(&mut out.bytes), usize::MAX);
    let exit = decode_blocks(reader, &mut sink, start_len, stop_offset, true, &mut log);
    out.bytes = sink.out;
    let stop_reason = exit?.expect("a byte sink never asks to be switched out");
    Ok(log.into_outcome(stop_reason, reader, &usage, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{CompressionLevel, CompressorOptions, DeflateCompressor};

    fn compress(data: &[u8]) -> Vec<u8> {
        DeflateCompressor::new(CompressorOptions::default()).compress(data)
    }

    #[test]
    fn round_trip_simple_text() {
        let data = b"How much wood would a woodchuck chuck if a woodchuck could chuck wood?";
        let compressed = compress(data);
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert_eq!(out, data);
        assert!(outcome.stream_ended());
        assert!(!outcome.blocks.is_empty());
        assert_eq!(outcome.blocks[0].bit_offset, 0);
    }

    #[test]
    fn round_trip_empty_input() {
        let compressed = compress(b"");
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert!(out.is_empty());
        assert!(outcome.stream_ended());
    }

    #[test]
    fn inflate_hashed_reports_the_crc_of_the_appended_bytes() {
        let data = b"hash me, hash me thoroughly ".repeat(3000);
        let compressed = compress(&data);
        let mut reader = BitReader::new(&compressed);
        // Pre-existing buffer contents must not leak into the hash.
        let mut out = b"prefix".to_vec();
        let outcome = inflate_hashed(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert_eq!(&out[6..], &data[..]);
        assert_eq!(outcome.crc32, Some(rgz_checksum::crc32(&data)));

        // The unhashed entry points report no checksum.
        let mut reader = BitReader::new(&compressed);
        let mut plain = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut plain, u64::MAX).unwrap();
        assert_eq!(outcome.crc32, None);
    }

    #[test]
    fn stored_blocks_round_trip() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let options = CompressorOptions {
            level: CompressionLevel::Stored,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        assert_eq!(out, data);
        // 200 kB needs at least four 64 KiB stored blocks.
        assert!(outcome.blocks.len() >= 4);
        assert!(outcome
            .blocks
            .iter()
            .all(|b| b.block_type == BlockType::Stored));
    }

    #[test]
    fn window_continuation_between_calls() {
        // Compress data, decode it in full, then decode only the second block
        // by passing the first block's output as the window.
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            data.extend_from_slice(format!("line {} of repetitive text\n", i % 100).as_bytes());
        }
        let options = CompressorOptions {
            block_size: 16 * 1024,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut full = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap();
        assert_eq!(full, data);
        assert!(
            outcome.blocks.len() > 2,
            "need multiple blocks for this test"
        );

        let second_block = outcome.blocks[1];
        let mut reader = BitReader::new(&compressed);
        reader.seek_to_bit(second_block.bit_offset).unwrap();
        let split = second_block.uncompressed_offset as usize;
        let window_start = split.saturating_sub(WINDOW_SIZE);
        let mut tail = Vec::new();
        inflate(&mut reader, &data[window_start..split], &mut tail, u64::MAX).unwrap();
        assert_eq!(&tail[..], &data[split..]);
    }

    #[test]
    fn two_stage_with_markers_then_replacement() {
        let mut data = Vec::new();
        for i in 0..60_000u32 {
            data.extend_from_slice(format!("record {:06} ACGTACGT\n", i % 997).as_bytes());
        }
        let options = CompressorOptions {
            block_size: 8 * 1024,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut full = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap();
        assert_eq!(full, data);

        // Pick a block boundary beyond 32 KiB so back-references hit the
        // unknown window.
        let boundary = outcome
            .blocks
            .iter()
            .find(|b| b.uncompressed_offset > WINDOW_SIZE as u64)
            .copied()
            .expect("need a block past the first 32 KiB");
        let mut reader = BitReader::new(&compressed);
        reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut symbols = Vec::new();
        inflate_two_stage(&mut reader, &mut symbols, u64::MAX).unwrap();
        assert!(
            symbols.iter().any(|&s| s >= MARKER_BASE),
            "expected markers"
        );

        let split = boundary.uncompressed_offset as usize;
        let window = &data[split - WINDOW_SIZE..split];
        let resolved = crate::markers::replace_markers(&symbols, window).unwrap();
        assert_eq!(&resolved[..], &data[split..]);
    }

    #[test]
    fn one_and_two_stage_decoders_report_the_same_window_usage() {
        let mut data = Vec::new();
        for i in 0..60_000u32 {
            data.extend_from_slice(format!("record {:06} ACGTACGT\n", i % 997).as_bytes());
        }
        let options = CompressorOptions {
            block_size: 8 * 1024,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut full = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap();
        // A stream decoded from its start references no preceding window.
        assert!(outcome.window_usage.is_empty());

        let boundary = outcome
            .blocks
            .iter()
            .find(|b| b.uncompressed_offset > WINDOW_SIZE as u64)
            .copied()
            .expect("need a block past the first 32 KiB");
        let split = boundary.uncompressed_offset as usize;
        let window = &data[split - WINDOW_SIZE..split];

        // Two-stage decode: usage from the outcome must match a scan of the
        // produced marker symbols.
        let mut reader = BitReader::new(&compressed);
        reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut symbols = Vec::new();
        let two_stage = inflate_two_stage(&mut reader, &mut symbols, u64::MAX).unwrap();
        assert!(!two_stage.window_usage.is_empty());
        assert_eq!(
            two_stage.window_usage,
            WindowUsage::from_symbols(&symbols).intervals()
        );

        // One-stage decode of the same range with the true window must report
        // the same usage.
        let mut reader = BitReader::new(&compressed);
        reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut tail = Vec::new();
        let one_stage = inflate(&mut reader, window, &mut tail, u64::MAX).unwrap();
        assert_eq!(one_stage.window_usage, two_stage.window_usage);

        // Zeroing every *unreferenced* window byte must not change the decode.
        let mut masked = vec![0u8; WINDOW_SIZE];
        for &(offset, length) in &one_stage.window_usage {
            let (offset, length) = (offset as usize, length as usize);
            masked[offset..offset + length].copy_from_slice(&window[offset..offset + length]);
        }
        let mut reader = BitReader::new(&compressed);
        reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut from_masked = Vec::new();
        inflate(&mut reader, &masked, &mut from_masked, u64::MAX).unwrap();
        assert_eq!(from_masked, tail);
        assert_eq!(&tail[..], &data[split..]);
    }

    #[test]
    fn stop_offset_halts_before_later_blocks() {
        let data: Vec<u8> = (0..100_000u32)
            .flat_map(|i| format!("{i} ").into_bytes())
            .collect();
        let options = CompressorOptions {
            block_size: 8 * 1024,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut full = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap();
        assert!(outcome.blocks.len() > 3);

        // Stop just after the start of block 2: the decoder must decode
        // blocks 0..=1 up to (but not including) block 2.
        let stop = outcome.blocks[1].bit_offset + 1;
        let mut reader = BitReader::new(&compressed);
        let mut partial = Vec::new();
        let partial_outcome = inflate(&mut reader, &[], &mut partial, stop).unwrap();
        assert_eq!(partial_outcome.stop_reason, StopReason::StopOffsetReached);
        assert_eq!(partial_outcome.blocks.len(), 2);
        assert_eq!(partial_outcome.end_position, outcome.blocks[2].bit_offset);
        assert_eq!(&partial[..], &data[..partial.len()]);
    }

    #[test]
    fn invalid_distance_is_reported() {
        // A back-reference at stream start with no window must fail in
        // one-stage mode.
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            data.extend_from_slice(format!("{} abcabcabc ", i % 3).as_bytes());
        }
        let compressed = compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut out = Vec::new();
        inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        // Re-decode from the second block without providing the window.
        let mut reader = BitReader::new(&compressed);
        let mut out2 = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut out2, u64::MAX).unwrap();
        drop(outcome);
        // Direct unit check of the sink error.
        let mut sink = ByteSink::new(&[], Vec::new(), usize::MAX);
        assert!(matches!(
            sink.copy_match(5, 3),
            Err(DeflateError::DistanceTooFar { .. })
        ));
    }

    /// Drives both decode paths over the same bytes and asserts identical
    /// results: output, outcome metadata, and (on failure) the exact error.
    fn assert_paths_agree(compressed: &[u8], window: &[u8]) {
        let mut fast_reader = BitReader::new(compressed);
        let mut fast_out = Vec::new();
        let fast = inflate(&mut fast_reader, window, &mut fast_out, u64::MAX);
        let mut reference_reader = BitReader::new(compressed);
        let mut reference_out = Vec::new();
        let reference =
            inflate_single_symbol(&mut reference_reader, window, &mut reference_out, u64::MAX);
        match (fast, reference) {
            (Ok(fast), Ok(reference)) => {
                assert_eq!(fast_out, reference_out);
                assert_eq!(fast.stop_reason, reference.stop_reason);
                assert_eq!(fast.end_position, reference.end_position);
                assert_eq!(fast.window_usage, reference.window_usage);
                assert_eq!(fast.blocks, reference.blocks);
            }
            (fast, reference) => assert_eq!(fast.err(), reference.err()),
        }
    }

    #[test]
    fn fast_path_matches_reference_on_all_compression_levels() {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.extend_from_slice(format!("entry {:05} AAAA text\n", i % 777).as_bytes());
        }
        for level in [
            CompressionLevel::Stored,
            CompressionLevel::Huffman,
            CompressionLevel::Fast,
            CompressionLevel::Best,
        ] {
            let options = CompressorOptions {
                level,
                block_size: 12 * 1024,
                ..Default::default()
            };
            let compressed = DeflateCompressor::new(options).compress(&data);
            assert_paths_agree(&compressed, &[]);
        }
    }

    #[test]
    fn fast_path_matches_reference_with_window_and_markers_corpus() {
        let mut data = Vec::new();
        for i in 0..60_000u32 {
            data.extend_from_slice(format!("record {:06} ACGTACGT\n", i % 997).as_bytes());
        }
        let options = CompressorOptions {
            block_size: 8 * 1024,
            ..Default::default()
        };
        let compressed = DeflateCompressor::new(options).compress(&data);
        let mut reader = BitReader::new(&compressed);
        let mut full = Vec::new();
        let outcome = inflate(&mut reader, &[], &mut full, u64::MAX).unwrap();
        let boundary = outcome
            .blocks
            .iter()
            .find(|b| b.uncompressed_offset > WINDOW_SIZE as u64)
            .copied()
            .expect("need a block past the first 32 KiB");
        let split = boundary.uncompressed_offset as usize;
        let window = &data[split - WINDOW_SIZE..split];
        let tail = &compressed[(boundary.bit_offset / 8) as usize..];
        // Byte-aligned tails only (assert_paths_agree starts at bit 0), so
        // pad by re-seeking instead when unaligned.
        if boundary.bit_offset % 8 == 0 {
            assert_paths_agree(tail, window);
        }
        let mut fast_reader = BitReader::new(&compressed);
        fast_reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut fast_out = Vec::new();
        inflate(&mut fast_reader, window, &mut fast_out, u64::MAX).unwrap();
        let mut reference_reader = BitReader::new(&compressed);
        reference_reader.seek_to_bit(boundary.bit_offset).unwrap();
        let mut reference_out = Vec::new();
        inflate_single_symbol(&mut reference_reader, window, &mut reference_out, u64::MAX).unwrap();
        assert_eq!(fast_out, reference_out);
        assert_eq!(&fast_out[..], &data[split..]);
    }

    #[test]
    fn overshoot_copy_matches_scalar_on_boundary_cases() {
        // Distances straddling the period-replication and register-copy
        // regimes, lengths straddling the register size; bytes and 16-bit
        // symbols share the kernel.
        for distance in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 32, 200] {
            for length in [1usize, 2, 3, 15, 16, 17, 31, 32, 33, 258] {
                let seed: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
                let (mut fast, mut scalar) = (seed.clone(), seed.clone());
                copy_within_output(&mut fast, distance, length, false);
                copy_within_output(&mut scalar, distance, length, true);
                assert_eq!(fast, scalar, "distance {distance} length {length}");

                let wide: Vec<u16> = seed.iter().map(|&b| b as u16 * 257).collect();
                let (mut fast, mut scalar) = (wide.clone(), wide);
                copy_within_output(&mut fast, distance, length, false);
                copy_within_output(&mut scalar, distance, length, true);
                assert_eq!(fast, scalar, "u16 distance {distance} length {length}");
            }
        }
    }

    proptest::proptest! {
        /// The overshooting vector match copy must be identical to the
        /// portable doubling reference over arbitrary literal/copy op
        /// sequences (overlapping and straddling matches included), for both
        /// element widths.
        #[test]
        fn overshoot_and_scalar_match_copies_are_identical(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), 1usize..300, 1usize..300),
                1..60,
            ),
        ) {
            let (mut fast, mut scalar) = (vec![7u8], vec![7u8]);
            let (mut fast_wide, mut scalar_wide) = (vec![7u16], vec![7u16]);
            for (literal, distance, length) in ops {
                fast.push(literal);
                scalar.push(literal);
                fast_wide.push(literal as u16 | MARKER_BASE);
                scalar_wide.push(literal as u16 | MARKER_BASE);
                let distance = 1 + distance % fast.len();
                copy_within_output(&mut fast, distance, length, false);
                copy_within_output(&mut scalar, distance, length, true);
                copy_within_output(&mut fast_wide, distance, length, false);
                copy_within_output(&mut scalar_wide, distance, length, true);
                proptest::prop_assert_eq!(&fast, &scalar);
                proptest::prop_assert_eq!(&fast_wide, &scalar_wide);
            }
        }

        /// The tentpole guarantee: on arbitrary compressible inputs, dynamic
        /// block sizes and corruption (single-bit flips or truncation), the
        /// multi-symbol fast path and the single-symbol reference decoder are
        /// bit-for-bit identical — same bytes, same metadata, same errors.
        #[test]
        fn fast_and_reference_paths_are_identical(
            seed in proptest::prelude::any::<u64>(),
            length in 1usize..40_000,
            block_size in 4usize..64,
            // 0 encodes "no corruption" / "no truncation".
            flip_bit in 0usize..100_000,
            truncate_at in 0usize..100_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // Mixed compressibility: runs, random bytes, repeated phrases.
            let mut data = Vec::with_capacity(length);
            while data.len() < length {
                match rng.gen_range(0..3) {
                    0 => data.extend(std::iter::repeat_n(rng.gen::<u8>(), rng.gen_range(1..200))),
                    1 => data.extend((0..rng.gen_range(1..200)).map(|_| rng.gen::<u8>())),
                    _ => data.extend_from_slice(b"the quick brown fox jumps over the lazy dog "),
                }
            }
            data.truncate(length);
            let options = CompressorOptions {
                block_size: block_size * 1024,
                ..Default::default()
            };
            let mut compressed = DeflateCompressor::new(options).compress(&data);
            if flip_bit > 0 {
                let bit = flip_bit % (compressed.len() * 8);
                compressed[bit / 8] ^= 1 << (bit % 8);
            }
            if truncate_at > 0 {
                compressed.truncate(truncate_at.min(compressed.len()));
            }
            assert_paths_agree(&compressed, &[]);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![7u8; 100_000];
        let compressed = compress(&data);
        let truncated = &compressed[..compressed.len() / 2];
        let mut reader = BitReader::new(truncated);
        let mut out = Vec::new();
        assert!(inflate(&mut reader, &[], &mut out, u64::MAX).is_err());
    }
}
