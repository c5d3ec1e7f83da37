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
//! stays in that mode only for as long as it has to, and finishes through the
//! one-stage path from the first block boundary with 32 KiB of output behind
//! it where either of two things holds: those 32 KiB are marker-free, or the
//! caller, asked there, has come to know the window ([`WindowAnswer`]).
//!
//! Both paths run the same block loop and the same symbol decoders — a fast
//! loop over two-level tables that runs wherever nothing can go wrong, a
//! careful per-symbol step over the same tables for everywhere else, and the
//! single-symbol reference that every error comes from — generic over the
//! output `Sink`: `ByteSink` or `MarkerSink`.  Each sink carries the decode's
//! [`Cutter`], which the block loop asks at every block header, and which
//! notes every match that reaches below the last windowed cut.  Within a
//! window after such a cut the fast loop runs an instance whose test of a
//! match against the call's own start compares against the cut instead, and
//! notes; everywhere else it runs the instance without.
//!
//! Whether the last 32 KiB are marker-free is a question of the block
//! boundary, and is asked there: the marker phase keeps no account of
//! markers as it copies.  At each boundary the `MarkerSink` looks back from
//! the output's end, over the symbols it has not looked at yet and no
//! further than a window back, and stops at the first marker it meets.  That
//! is exact — the last marker among symbols looked at before is the last
//! marker, unless a newer one turns up, and anything older than a window
//! cannot decide the answer — and linear: no symbol is looked at twice, so a
//! stream of tiny blocks costs what one of large blocks does.
//!
//! The fast loop is compiled twice from one source: as the crate is built,
//! and with BMI1/BMI2 enabled (`shrx` for every variable shift, `bzhi` for
//! every extra-bits mask).  [`active_isa`] names the build this process
//! runs: the BMI2 one where the CPU has the instructions and
//! `RGZ_FORCE_SCALAR` is not set, settled once.

use rgz_bitio::{BitCursor, BitReader};
use rgz_huffman::{
    entry_code_length, entry_consumed_bits, entry_payload, HuffmanDecoder, ENTRY_EXCEPTIONAL,
    ENTRY_SUBTABLE, MAX_CODE_LENGTH,
};

use crate::block::{
    decode_distance, decode_length, dynamic_block_codes, fixed_block_codes, parse_dynamic_header,
    read_block_header, read_stored_header, BlockTables, BlockType, ENTRY_END_OF_BLOCK,
    ENTRY_LITERAL,
};
use crate::constants::{END_OF_BLOCK, MAX_MATCH, WINDOW_SIZE};
use crate::cutter::Cutter;
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
    /// The caller of [`inflate_speculative`], asked for the window at a block
    /// boundary, answered [`WindowAnswer::Abandon`].
    Abandoned,
}

/// What the caller of [`inflate_speculative`] knows, at a block boundary, of
/// the window its decode lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAnswer<W> {
    /// Nothing yet: decode on as markers.
    Unknown,
    /// The up to 32 KiB that precede the call's first bit: decode on as bytes.
    Known(W),
    /// The decode is of no use any more: return what there is.
    Abandon,
}

impl WindowAnswer<&'static [u8]> {
    /// The answer of a caller that will never know the window.
    pub fn never(_decoded: usize) -> Self {
        Self::Unknown
    }
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
    /// Dynamic Blocks whose first symbol lies within the last few bytes of
    /// the input, where the fast loop's input margin never holds: decoded
    /// symbol by symbol.  Always zero for [`inflate_single_symbol`]; lets
    /// callers tag a decode span with a *fallback* outcome.
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

// --- output ------------------------------------------------------------------------

/// Room, in elements, added past the output end whenever the fast loop has
/// less than its margin left: enough that asking is rare, little enough that
/// the cleared elements are still in cache when they are written, and that a
/// call which decodes a few KiB (one member of many, a stored window, a block
/// finder's probe) does not pay for clearing a whole recycled buffer.
const ROOM_STEP: usize = 32 * 1024;

/// The output buffer of one inflate call.  The decoded symbols are
/// `buf[..len]`; what follows is *room*: elements that exist (cleared) so
/// that the fast loop can store by index, without a capacity check or a
/// length update per symbol.  [`Output::finish`] cuts the room off again.
struct Output<T> {
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Output<T> {
    fn new(buf: Vec<T>) -> Self {
        Self {
            len: buf.len(),
            buf,
        }
    }

    fn finish(mut self) -> Vec<T> {
        self.buf.truncate(self.len);
        self.buf
    }

    /// Makes `buf[len..len + additional]` exist.
    #[inline]
    fn make_room(&mut self, additional: usize) {
        if self.len + additional > self.buf.len() {
            self.grow(additional);
        }
    }

    #[cold]
    fn grow(&mut self, additional: usize) {
        if self.len + additional > self.buf.capacity() {
            // Exactly `Vec::push` / `Vec::extend` at this length: amortised
            // doubling, nothing reserved ahead of need.
            self.buf.truncate(self.len);
            self.buf.reserve(additional);
        }
        self.add_room(additional);
    }

    /// Extends the room to [`ROOM_STEP`] elements (at least `needed`, at most
    /// what the buffer has capacity for): never allocates.
    #[cold]
    fn add_room(&mut self, needed: usize) {
        let room = needed.max(ROOM_STEP);
        self.buf
            .resize((self.len + room).min(self.buf.capacity()), T::default());
    }

    #[inline]
    fn push(&mut self, symbol: T) {
        self.make_room(1);
        self.buf[self.len] = symbol;
        self.len += 1;
    }

    /// Appends `symbols` as `Vec::extend` does, giving up the room: a Stored
    /// block is written once, and grows the buffer as it always did.
    fn extend(&mut self, symbols: impl Iterator<Item = T>) {
        self.buf.truncate(self.len);
        self.buf.extend(symbols);
        self.len = self.buf.len();
    }
}

/// Room the overshooting match copy needs past the end of a match: its
/// last store can start one element before the end and is 16 elements long
/// (rounded up to two stores).
const COPY_SLACK: usize = 32;

/// Copies `length` elements from `distance` elements behind `from` to `from`,
/// element for element.  Requires `1 <= distance <= from` and `from + length
/// <= out.len()`.  The match copy that writes nothing past the match: what
/// the careful path uses, and the fast loop's is pinned to.
fn copy_match_exact<T: Copy>(out: &mut [T], from: usize, distance: usize, length: usize) {
    let start = from - distance;
    // The output from `start` onwards repeats with period `distance`, so
    // each chunk (a memmove) may cover everything written so far past
    // `start` — doubling per iteration instead of the element-at-a-time loop
    // an overlapping copy would otherwise need.
    let mut copied = 0;
    while copied < length {
        let chunk = (length - copied).min(distance + copied);
        out.copy_within(start..start + chunk, from + copied);
        copied += chunk;
    }
}

/// The fast loop's match copy: whole 16-element stores (one or two
/// registers), deliberately overshooting the match end into room the loop
/// has checked for (`from + length + COPY_SLACK <= out.len()`; the overshoot
/// elements are overwritten by the next symbol or cut off by
/// [`Output::finish`]).  Typical DEFLATE matches are 3–30 bytes, so most
/// copies complete in one or two stores with no per-element or per-chunk
/// bookkeeping, and none of them calls `memmove`.  [`copy_match_exact`] is
/// its reference.
#[inline(always)]
fn copy_match_overshoot<T: Copy>(out: &mut [T], from: usize, distance: usize, length: usize) {
    let end = from + length;
    let mut src = from - distance;
    let mut dst = from;
    // An overlapping match repeats its period.  A store `gap` elements after
    // its source is right in its first `gap` elements (every store is loaded
    // whole before it is written) and is overwritten from there on by the
    // next one, which starts there: each pass doubles the gap until source
    // and cursor are a store apart, at most four times.
    let mut gap = distance;
    while gap < 16 && dst < end {
        out.copy_within(src..src + 16, dst);
        dst += gap;
        gap *= 2;
    }
    while dst < end {
        out.copy_within(src..src + 16, dst);
        src += 16;
        dst += 16;
    }
}

// --- output sinks --------------------------------------------------------------

/// Where the block decoders put their output.  One fast loop
/// ([`decode_fast`]), one careful per-symbol step over the same tables
/// ([`decode_symbol_careful`]) and the single-symbol reference loop
/// ([`decode_block_reference`]) serve both output widths through this trait;
/// monomorphisation keeps each instance as tight as a hand-written loop.
trait Sink {
    /// An output element: a byte, or a 16-bit literal-or-marker.
    type Symbol: Copy + Default + From<u8>;

    fn output(&mut self) -> &mut Output<Self::Symbol>;

    /// Symbols in the output buffer, including any that preceded this call.
    fn len(&self) -> usize;

    /// The oldest output index a match can copy from as it is.  A match that
    /// starts before it reaches into the window (or nowhere) and goes
    /// through [`Sink::copy_match`].
    fn base(&self) -> usize;

    /// The cut rule of the decode, which sees every block header and every
    /// match that reaches below [`Sink::floor`].
    fn cutter(&mut self) -> &mut Cutter;

    /// The oldest output index a match can copy from unnoted: the last
    /// windowed cut, or [`Sink::base`] if that is later.  A match that
    /// starts before it but not before the base is copied as any other, and
    /// noted by the cutter.
    fn floor(&self) -> usize;

    /// Maximum total output length (see [`Sink::check_limit`]).
    #[inline]
    fn limit(&self) -> usize {
        usize::MAX
    }

    /// Appends a match from anywhere: this call's output, what the buffer
    /// held before, the window.  Every check is here.
    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError>;

    /// Appends a Stored block's payload.
    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError>;

    /// Errors once the output has outgrown the caller's bound.  Checked once
    /// per symbol by the careful step and the reference loop; the fast loop
    /// runs only where a whole iteration stays below the bound.  A hostile
    /// stream can overshoot by at most one match (258 bytes) before erroring
    /// out.
    #[inline]
    fn check_limit(&self) -> Result<(), DeflateError> {
        let limit = self.limit();
        if self.len() > limit {
            return Err(DeflateError::OutputLimitExceeded { limit });
        }
        Ok(())
    }

    /// Whether decoding should leave this sink at the block boundary it
    /// stands at (see [`MarkerSink::leave`]).
    #[inline]
    fn wants_switch(&mut self) -> bool {
        false
    }
}

/// One-stage sink: output bytes plus the window that preceded them.
struct ByteSink<'a> {
    window: &'a [u8],
    out: Output<u8>,
    usage: WindowUsage,
    /// Maximum total output length; decoding errors out once exceeded (used
    /// to bound the expansion of untrusted streams).
    limit: usize,
    cutter: &'a mut Cutter,
}

impl<'a> ByteSink<'a> {
    fn new(window: &'a [u8], out: Vec<u8>, limit: usize, cutter: &'a mut Cutter) -> Self {
        Self {
            window,
            out: Output::new(out),
            usage: WindowUsage::new(),
            limit,
            cutter,
        }
    }
}

impl Sink for ByteSink<'_> {
    type Symbol = u8;

    #[inline]
    fn output(&mut self) -> &mut Output<u8> {
        &mut self.out
    }

    #[inline]
    fn len(&self) -> usize {
        self.out.len
    }

    /// What the buffer held before this call is history like any other.
    #[inline]
    fn base(&self) -> usize {
        0
    }

    #[inline]
    fn cutter(&mut self) -> &mut Cutter {
        self.cutter
    }

    #[inline]
    fn floor(&self) -> usize {
        self.cutter.floor()
    }

    #[inline]
    fn limit(&self) -> usize {
        self.limit
    }

    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError> {
        let position = self.out.len;
        if distance > position + self.window.len() || distance == 0 || distance > WINDOW_SIZE {
            return Err(DeflateError::DistanceTooFar {
                distance,
                available: position + self.window.len(),
            });
        }
        self.out.make_room(length);
        let mut from = position;
        if distance > position {
            // The first `distance - position` bytes come out of the preceding
            // window; record them so the index can sparsify the stored copy.
            let reach = distance - position;
            let from_window = reach.min(length);
            self.usage.mark(WINDOW_SIZE - reach, from_window);
            let start = self.window.len() - reach;
            self.out.buf[from..from + from_window]
                .copy_from_slice(&self.window[start..start + from_window]);
            // Once the source position crosses into this call's own output
            // the copy continues as a plain self-referential match (the
            // distance is unchanged and now <= the output length).
            from += from_window;
        }
        let end = position + length;
        if from < end {
            copy_match_exact(&mut self.out.buf, from, distance, end - from);
        }
        self.out.len = end;
        if distance > position - self.floor() {
            self.cutter.note(position, distance, length);
        }
        Ok(())
    }

    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError> {
        if self.out.len.saturating_add(bytes.len()) > self.limit {
            return Err(DeflateError::OutputLimitExceeded { limit: self.limit });
        }
        self.out.extend(bytes.iter().copied());
        Ok(())
    }
}

/// Two-stage sink: 16-bit output where values `< 256` are literals and
/// values `>= MARKER_BASE` are markers into the unknown window.
struct MarkerSink<'a> {
    out: Output<u16>,
    /// Length of `out` when this inflate call started: the window boundary
    /// (data appended by previous calls is not referenced).
    base: usize,
    usage: WindowUsage,
    /// Index into `out` from which on no symbol looked at is a marker.
    marker_free_from: usize,
    /// Index into `out` up to which [`Self::wants_switch`] has looked for
    /// markers.
    scanned_to: usize,
    /// Has the block loop stop at the first block boundary where a byte
    /// decoder seeded with the last [`WINDOW_SIZE`] symbols can take over
    /// (§2.2): they are marker-free, or this, asked with the number of symbols
    /// this call has decoded, says their markers can be resolved (or that the
    /// decode is to end).  It is asked only once this call has a window's
    /// worth of symbols out, so that nothing decoded later reaches the window
    /// itself and [`Self::usage`] is complete.  `None`: never stop.
    leave: Option<&'a mut dyn FnMut(usize) -> bool>,
    cutter: &'a mut Cutter,
}

/// The index of the last marker in `symbols`: a backward scan that tests 32
/// symbols at a time for a set top bit (`MARKER_BASE` is `0x8000`), and
/// stops at the first block that has one.
fn last_marker(symbols: &[u16]) -> Option<usize> {
    const BLOCK: usize = 32;
    let blocks = symbols.rchunks_exact(BLOCK);
    let head = blocks.remainder();
    for (back, block) in blocks.enumerate() {
        let block: &[u16; BLOCK] = block.try_into().expect("an exact chunk");
        if block.iter().fold(0, |any, &symbol| any | symbol) >= MARKER_BASE {
            let start = symbols.len() - (back + 1) * BLOCK;
            return block
                .iter()
                .rposition(|&symbol| symbol >= MARKER_BASE)
                .map(|last| start + last);
        }
    }
    head.iter().rposition(|&symbol| symbol >= MARKER_BASE)
}

impl<'a> MarkerSink<'a> {
    fn new(
        out: Vec<u16>,
        leave: Option<&'a mut dyn FnMut(usize) -> bool>,
        cutter: &'a mut Cutter,
    ) -> Self {
        Self {
            base: out.len(),
            marker_free_from: out.len(),
            scanned_to: out.len(),
            out: Output::new(out),
            usage: WindowUsage::new(),
            leave,
            cutter,
        }
    }

    /// Moves `marker_free_from` past the last marker among the symbols
    /// decoded since the last look, of which only the last [`WINDOW_SIZE`]
    /// can still matter.  Requires a window's worth of symbols in `out`.
    fn look_for_markers(&mut self) {
        let end = self.out.len;
        let from = self.scanned_to.max(end - WINDOW_SIZE);
        if let Some(last) = last_marker(&self.out.buf[from..end]) {
            self.marker_free_from = from + last + 1;
        }
        self.scanned_to = end;
    }
}

impl Sink for MarkerSink<'_> {
    type Symbol = u16;

    #[inline]
    fn output(&mut self) -> &mut Output<u16> {
        &mut self.out
    }

    #[inline]
    fn len(&self) -> usize {
        self.out.len
    }

    #[inline]
    fn base(&self) -> usize {
        self.base
    }

    #[inline]
    fn cutter(&mut self) -> &mut Cutter {
        self.cutter
    }

    #[inline]
    fn floor(&self) -> usize {
        self.cutter.floor().max(self.base)
    }

    fn copy_match(&mut self, distance: usize, length: usize) -> Result<(), DeflateError> {
        if distance == 0 || distance > WINDOW_SIZE {
            return Err(DeflateError::DistanceTooFar {
                distance,
                available: WINDOW_SIZE,
            });
        }
        self.out.make_room(length);
        // Position within this inflate call.
        let position = self.out.len - self.base;
        let mut from = self.out.len;
        let end = from + length;
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
            for (slot, offset) in self.out.buf[from..from + from_window]
                .iter_mut()
                .zip(first..)
            {
                *slot = MARKER_BASE + offset as u16;
            }
            from += from_window;
        }
        if from < end {
            copy_match_exact(&mut self.out.buf, from, distance, end - from);
        }
        self.out.len = end;
        let position = end - length;
        if distance > position - self.floor() {
            self.cutter.note(position, distance, length);
        }
        Ok(())
    }

    fn push_stored(&mut self, bytes: &[u8]) -> Result<(), DeflateError> {
        self.out.extend(bytes.iter().map(|&byte| byte as u16));
        Ok(())
    }

    #[inline]
    fn wants_switch(&mut self) -> bool {
        let decoded = self.out.len - self.base;
        if self.leave.is_none() || decoded < WINDOW_SIZE {
            return false;
        }
        self.look_for_markers();
        self.out.len - self.marker_free_from >= WINDOW_SIZE
            || self.leave.as_mut().is_some_and(|leave| leave(decoded))
    }
}

// --- block loop ----------------------------------------------------------------

/// What one inflate call carries from block to block, and from the marker
/// phase to the byte phase of [`inflate_speculative`].
struct BlockLoop {
    /// The build of [`decode_fast`] compressed blocks go through (and
    /// [`decode_symbol_careful`] wherever it stops short), or `None` for the
    /// single-symbol reference decoder.
    fast: Option<FastLoop>,
    /// The fast loop's tables for Dynamic Blocks: `None` until the first such
    /// block has a valid header (a call that fails before, as a block
    /// finder's probes do, should not pay for 11 KiB of tables).
    tables: Option<BlockTables>,
    blocks: Vec<BlockBoundary>,
    fast_fallback_blocks: u32,
}

impl BlockLoop {
    fn new(fast: Option<FastLoop>) -> Self {
        Self {
            fast,
            tables: None,
            blocks: Vec::new(),
            fast_fallback_blocks: 0,
        }
    }

    fn into_outcome(
        self,
        stop_reason: StopReason,
        reader: &BitReader<'_>,
        usage: &WindowUsage,
    ) -> InflateOutcome {
        InflateOutcome {
            blocks: self.blocks,
            stop_reason,
            end_position: reader.position(),
            window_usage: usage.intervals(),
            fast_fallback_blocks: self.fast_fallback_blocks,
        }
    }

    /// Decodes blocks into `sink` until a stop condition holds
    /// (`Some(reason)`) or the sink asks to be switched out at a block
    /// boundary (`None`).  `base` is the sink length block offsets are
    /// reported relative to.
    fn run<S: Sink>(
        &mut self,
        reader: &mut BitReader<'_>,
        sink: &mut S,
        base: usize,
        stop_offset: u64,
    ) -> Result<Option<StopReason>, DeflateError> {
        loop {
            if should_stop_before_block(reader, stop_offset) {
                return Ok(Some(StopReason::StopOffsetReached));
            }
            if reader.remaining_bits() == 0 && !self.blocks.is_empty() {
                return Ok(Some(StopReason::EndOfInput));
            }
            if sink.wants_switch() {
                return Ok(None);
            }
            let block_start = reader.position();
            let header = read_block_header(reader)?;
            self.blocks.push(BlockBoundary {
                bit_offset: block_start,
                uncompressed_offset: (sink.len() - base) as u64,
                block_type: header.block_type,
                is_final: header.is_final,
            });
            let offset = sink.len();
            sink.cutter()
                .at_block(block_start, offset, header.block_type);
            match (header.block_type, self.fast) {
                (BlockType::Stored, _) => {
                    let length = read_stored_header(reader)?;
                    sink.push_stored(reader.take_bytes(length)?)?;
                }
                (BlockType::Fixed, Some(fast_loop)) => {
                    decode_block_fast(reader, BlockTables::fixed(), sink, fast_loop)?
                }
                (BlockType::Fixed, None) => {
                    let codes = fixed_block_codes();
                    decode_block_reference(reader, &codes.literal, codes.distance.as_ref(), sink)?;
                }
                (BlockType::Dynamic, Some(fast_loop)) => {
                    let header = parse_dynamic_header(reader)?;
                    let tables = self.tables.get_or_insert_with(BlockTables::new);
                    tables.build_dynamic(header)?;
                    if reader.remaining_bits() < 8 * FAST_INPUT_MARGIN as u64 {
                        self.fast_fallback_blocks += 1;
                    }
                    decode_block_fast(reader, tables, sink, fast_loop)?;
                }
                (BlockType::Dynamic, None) => {
                    let codes = dynamic_block_codes(reader)?;
                    decode_block_reference(reader, &codes.literal, codes.distance.as_ref(), sink)?;
                }
            }
            if header.is_final {
                return Ok(Some(StopReason::EndOfStream));
            }
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
        sink.output().push((symbol as u8).into());
    } else if symbol == END_OF_BLOCK {
        return Ok(true);
    } else {
        let length = decode_length(symbol, reader)?;
        let distance = decode_distance(distance_decoder, reader)?;
        sink.copy_match(distance, length)?;
    }
    Ok(false)
}

/// The single-symbol reference loop: the decoder the paper describes, the
/// reference of the differential tests, and where every error of a
/// compressed block's body comes from.
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

// --- the fast loop ---------------------------------------------------------------

/// Input bytes one fast-loop iteration may load without looking at the input
/// length: an eight-byte word at its start and one more before the distance,
/// each at most seven bytes past the one before.
const FAST_INPUT_MARGIN: usize = 16;

/// Output elements one fast-loop iteration may write without looking at the
/// buffer or the output limit: up to three literals, or two literals and a
/// match of 258 with its overshoot.
const FAST_OUTPUT_MARGIN: usize = 3 + MAX_MATCH + COPY_SLACK;

/// Bits a distance takes at most: a 15-bit code and 13 extra bits.
const MAX_DISTANCE_BITS: u32 = 15 + 13;

/// The byte of a literal entry.
#[inline(always)]
fn entry_literal(entry: u32) -> u8 {
    (entry >> 16) as u8
}

/// The value of a length or distance entry: its base plus the extra bits
/// that follow its code in `saved`, the stream bits before the entry was
/// consumed.
#[inline(always)]
fn entry_value(entry: u32, saved: u64) -> usize {
    let extra = (saved & ((1u64 << entry_consumed_bits(entry)) - 1)) >> entry_code_length(entry);
    entry_payload(entry) as usize + extra as usize
}

/// Decodes one compressed block through [`decode_fast`], and through
/// [`decode_symbol_careful`] wherever that one stops short: the paper's
/// stated single-core gap versus ISA-L and zlib (§4.1) is this function.
///
/// Behaviour is bit-for-bit identical to [`decode_block_reference`], errors
/// included: those are the reference decoder's own.
fn decode_block_fast<S: Sink>(
    reader: &mut BitReader<'_>,
    tables: &BlockTables,
    sink: &mut S,
    fast_loop: FastLoop,
) -> Result<(), DeflateError> {
    loop {
        if fast_loop.decode(reader, tables, sink) || decode_symbol_careful(reader, tables, sink)? {
            return Ok(());
        }
    }
}

/// The two builds of [`decode_fast`]: as the crate is compiled, and with
/// BMI1 and BMI2 enabled — the same source, tables and checks, with `shrx`
/// for each variable shift and `bzhi` for each extra-bits mask.
// `unsafe` is confined to calling the BMI2 build, which only a CPU that has
// been asked for the instructions gets to (workspace-wide policy: unsafe only
// inside vetted kernel modules).
#[allow(unsafe_code)]
mod fast_loop {
    use super::{decode_fast, BitReader, BlockTables, Sink, WINDOW_SIZE};

    /// A build of the fast loop that this CPU can run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct FastLoop {
        /// Set by [`FastLoop::bmi2`] alone, once the CPU has said it has
        /// BMI1 and BMI2.
        bmi2: bool,
    }

    impl FastLoop {
        /// The build for the crate's target, which every CPU it runs on can run.
        pub(super) const PLAIN: Self = Self { bmi2: false };

        /// The BMI2 build, if this CPU has the instructions.
        pub(super) fn bmi2() -> Option<Self> {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("bmi1") && is_x86_feature_detected!("bmi2") {
                return Some(Self { bmi2: true });
            }
            None
        }

        /// The build this process decodes with, chosen on first use: BMI2
        /// where the CPU has it, unless `RGZ_FORCE_SCALAR` pins the plain one.
        pub(super) fn active() -> Self {
            static ACTIVE: std::sync::OnceLock<FastLoop> = std::sync::OnceLock::new();
            *ACTIVE.get_or_init(|| match rgz_bitio::scalar_forced() {
                true => Self::PLAIN,
                false => Self::bmi2().unwrap_or(Self::PLAIN),
            })
        }

        pub(super) fn name(self) -> &'static str {
            if self.bmi2 {
                "bmi2"
            } else {
                "scalar"
            }
        }

        /// [`decode_fast`] in this build: the instance that notes matches
        /// below the sink's floor while the output is within a window of a
        /// windowed cut, the one that does not everywhere else.
        #[inline]
        pub(super) fn decode<S: Sink>(
            self,
            reader: &mut BitReader<'_>,
            tables: &BlockTables,
            sink: &mut S,
        ) -> bool {
            let floor = sink.floor();
            if floor > sink.base() && sink.len() < floor + WINDOW_SIZE {
                self.decode_noting::<S, true>(reader, tables, sink)
            } else {
                self.decode_noting::<S, false>(reader, tables, sink)
            }
        }

        #[inline]
        fn decode_noting<S: Sink, const NOTE: bool>(
            self,
            reader: &mut BitReader<'_>,
            tables: &BlockTables,
            sink: &mut S,
        ) -> bool {
            #[cfg(target_arch = "x86_64")]
            if self.bmi2 {
                // SAFETY: `bmi2` is set only by `FastLoop::bmi2`, after the
                // CPU reported both instruction sets.
                return unsafe { decode_fast_bmi2::<S, NOTE>(reader, tables, sink) };
            }
            decode_fast::<S, NOTE>(reader, tables, sink)
        }
    }

    /// [`decode_fast`] compiled with BMI1 and BMI2.
    ///
    /// # Safety
    ///
    /// The CPU must have BMI1 and BMI2.
    // `unsafe fn` (not the 1.86+ safe `#[target_feature]` form) keeps the
    // crate buildable on the MSRV toolchain.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi1", enable = "bmi2")]
    unsafe fn decode_fast_bmi2<S: Sink, const NOTE: bool>(
        reader: &mut BitReader<'_>,
        tables: &BlockTables,
        sink: &mut S,
    ) -> bool {
        decode_fast::<S, NOTE>(reader, tables, sink)
    }
}

use fast_loop::FastLoop;

/// Name of the fast-loop build [`inflate`] and its siblings run on this
/// machine: `"bmi2"` or `"scalar"`.
pub fn active_isa() -> &'static str {
    FastLoop::active().name()
}

/// The fast loop: decodes symbols for as long as nothing can go wrong, and
/// returns whether it consumed the end-of-block symbol.  Otherwise the reader
/// stands on the first bit of a symbol this loop leaves to
/// [`decode_symbol_careful`]:
///
/// * the input has fewer than [`FAST_INPUT_MARGIN`] bytes left, or the
///   output fewer than [`FAST_OUTPUT_MARGIN`] elements of room below the end
///   of the buffer and the sink's limit — established *before* each
///   iteration, which then loads, stores and copies unconditionally;
/// * a match that starts before [`Sink::base`] (into the window, or too far);
/// * a bit pattern that is no code, or a symbol that must not occur;
/// * with `NOTE`, the output a window past [`Sink::floor`]: the instance
///   without, which the rest of the decode runs, has no note in its loop (a
///   call there, however cold, cost 3–5 % of the loop's speed).
///
/// One iteration starts from at least 56 buffered bits (a branch-free
/// eight-byte refill): enough for three main-table literals (3 × 11 bits),
/// or for up to two literals (22), a length code with its extra bits (20)
/// and, after one conditional refill, a distance (28).  The entry of the
/// next iteration is looked up before a match is copied.
///
/// Always inlined: into each of its two builds ([`FastLoop`]).
#[inline(always)]
fn decode_fast<S: Sink, const NOTE: bool>(
    reader: &mut BitReader<'_>,
    tables: &BlockTables,
    sink: &mut S,
) -> bool {
    let input = reader.data();
    let limit = sink.limit();
    let base = sink.base();
    let floor = if NOTE { sink.floor() } else { base };
    let output = sink.output();
    if output.buf.len() - output.len < FAST_OUTPUT_MARGIN
        && output.buf.len() < output.buf.capacity()
    {
        output.add_room(FAST_OUTPUT_MARGIN);
    }
    let (Some(last_input), Some(mut last_output)) = (
        input.len().checked_sub(FAST_INPUT_MARGIN),
        output.buf.len().min(limit).checked_sub(FAST_OUTPUT_MARGIN),
    ) else {
        return false;
    };
    if NOTE {
        // Past a window after the floor no match reaches below it.
        last_output = last_output.min(floor + WINDOW_SIZE);
    }
    let BitCursor {
        mut buffer,
        mut bits,
        mut next_byte,
    } = reader.cursor();
    let mut len = output.len;
    if next_byte > last_input || len > last_output {
        return false;
    }
    // The buffer leaves the sink for the duration of the loop: held in a
    // local, its pointer and length stay in registers (borrowed through the
    // sink instead, the loop ran 3-4 % slower on base64).
    let mut buf = std::mem::take(&mut output.buf);
    let out = &mut buf[..];

    // `bits | 56` is `bits` plus eight times the whole bytes that fit.
    macro_rules! refill {
        () => {
            let word: [u8; 8] = input[next_byte..next_byte + 8]
                .try_into()
                .expect("a slice of eight");
            buffer |= u64::from_le_bytes(word) << bits;
            next_byte += (7 - ((bits >> 3) & 7)) as usize;
            bits |= 56;
        };
    }
    macro_rules! consume {
        ($entry:expr) => {
            buffer >>= entry_consumed_bits($entry);
            bits -= entry_consumed_bits($entry);
        };
    }
    macro_rules! put_literal {
        ($entry:expr) => {
            consume!($entry);
            out[len] = entry_literal($entry).into();
            len += 1;
        };
    }

    refill!();
    let mut entry = tables.literal.main_entry(buffer);
    let exit = 'symbols: loop {
        'literals: {
            // Up to three literals straight from the main table.
            if entry & ENTRY_LITERAL != 0 {
                put_literal!(entry);
                entry = tables.literal.main_entry(buffer);
                if entry & ENTRY_LITERAL != 0 {
                    put_literal!(entry);
                    entry = tables.literal.main_entry(buffer);
                    if entry & ENTRY_LITERAL != 0 {
                        put_literal!(entry);
                        break 'literals;
                    }
                }
            }
            // Anything else; should the symbol turn out not to be this
            // loop's (`Err`), the reader goes back to its first bit.
            let symbol_start = next_byte as u64 * 8 - bits as u64;
            if entry & ENTRY_EXCEPTIONAL != 0 {
                if entry & ENTRY_SUBTABLE != 0 {
                    consume!(entry);
                    entry = tables.literal.subtable_entry(entry, buffer);
                }
                if entry & ENTRY_LITERAL != 0 {
                    put_literal!(entry);
                    break 'literals;
                }
                if entry & ENTRY_EXCEPTIONAL != 0 {
                    if entry & ENTRY_END_OF_BLOCK == ENTRY_END_OF_BLOCK {
                        consume!(entry);
                        break 'symbols Ok(true);
                    }
                    break 'symbols Err(symbol_start);
                }
            }
            let saved = buffer;
            consume!(entry);
            let length = entry_value(entry, saved);

            if bits < MAX_DISTANCE_BITS {
                refill!();
            }
            let mut distance_entry = tables.distance.main_entry(buffer);
            if distance_entry & ENTRY_EXCEPTIONAL != 0 {
                if distance_entry & ENTRY_SUBTABLE == 0 {
                    break 'symbols Err(symbol_start);
                }
                consume!(distance_entry);
                distance_entry = tables.distance.subtable_entry(distance_entry, buffer);
                if distance_entry & ENTRY_EXCEPTIONAL != 0 {
                    break 'symbols Err(symbol_start);
                }
            }
            let saved = buffer;
            consume!(distance_entry);
            let distance = entry_value(distance_entry, saved);
            if distance > len - floor {
                if !NOTE || distance > len - base {
                    break 'symbols Err(symbol_start);
                }
                // Into the window before a cut: copied as any other match.
                sink.cutter().note(len, distance, length);
            }

            let from = len;
            len += length;
            // The next entry's load is under way while the match is copied.
            let more = next_byte <= last_input && len <= last_output;
            if more {
                refill!();
                entry = tables.literal.main_entry(buffer);
            }
            copy_match_overshoot(out, from, distance, length);
            if more {
                continue 'symbols;
            }
            break 'symbols Ok(false);
        }
        if next_byte > last_input || len > last_output {
            break 'symbols Ok(false);
        }
        refill!();
        entry = tables.literal.main_entry(buffer);
    };

    let output = sink.output();
    output.buf = buf;
    output.len = len;
    match exit {
        Ok(block_ended) => {
            reader.set_cursor(BitCursor {
                buffer,
                bits,
                next_byte,
            });
            block_ended
        }
        Err(symbol_start) => {
            reader
                .seek_to_bit(symbol_start)
                .expect("a position inside the input");
            false
        }
    }
}

/// Reads the code of a resolved length or distance entry and the extra bits
/// behind it: the length or distance, or `None` at the end of input.
fn read_entry_value(reader: &mut BitReader<'_>, entry: u32, code_length: u32) -> Option<usize> {
    let extra_bits = entry_consumed_bits(entry) - entry_code_length(entry);
    let code_and_extra = reader.read(code_length + extra_bits).ok()?;
    Some(entry_payload(entry) as usize + (code_and_extra >> code_length) as usize)
}

/// Decodes one symbol over the fast loop's tables with every check the fast
/// loop leaves out — end of input, output limit, room in the buffer, matches
/// from the window — and returns whether it was the end-of-block symbol.
///
/// A symbol that cannot be decoded is decoded once more, from its first
/// bit, by the single-symbol reference decoder ([`decode_one_symbol`]; its
/// tables are built here and only here), so that every error value and
/// position is the reference's own.
fn decode_symbol_careful<S: Sink>(
    reader: &mut BitReader<'_>,
    tables: &BlockTables,
    sink: &mut S,
) -> Result<bool, DeflateError> {
    sink.check_limit()?;
    let symbol_start = reader.position();
    if let Some(result) = decode_symbol_checked(reader, tables, sink) {
        return result;
    }
    reader
        .seek_to_bit(symbol_start)
        .expect("a position the reader has been at");
    let codes = tables.reference_codes();
    decode_one_symbol(reader, &codes.literal, codes.distance.as_ref(), sink)
}

/// [`decode_symbol_careful`] without the way out: `None` for a symbol that is
/// invalid or cut off by the end of input (the reader is then somewhere
/// inside it).
fn decode_symbol_checked<S: Sink>(
    reader: &mut BitReader<'_>,
    tables: &BlockTables,
    sink: &mut S,
) -> Option<Result<bool, DeflateError>> {
    let (entry, code_length) = tables.literal.resolve(reader.peek(MAX_CODE_LENGTH))?;
    if entry & ENTRY_LITERAL != 0 {
        reader.consume(code_length).ok()?;
        sink.output().push(entry_literal(entry).into());
        return Some(Ok(false));
    }
    if entry & ENTRY_EXCEPTIONAL != 0 {
        let block_ended =
            entry & ENTRY_END_OF_BLOCK == ENTRY_END_OF_BLOCK && reader.consume(code_length).is_ok();
        return block_ended.then_some(Ok(true));
    }
    let length = read_entry_value(reader, entry, code_length)?;

    let (entry, code_length) = tables.distance.resolve(reader.peek(MAX_CODE_LENGTH))?;
    if entry & ENTRY_EXCEPTIONAL != 0 {
        return None;
    }
    let distance = read_entry_value(reader, entry, code_length)?;
    Some(sink.copy_match(distance, length).map(|()| false))
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
    let fast = Some(FastLoop::active());
    let cutter = &mut Cutter::never();
    inflate_impl(reader, window, out, stop_offset, usize::MAX, fast, cutter)
}

/// [`inflate`] cutting its output as `cutter` says: its cuts, each windowed
/// one with the bytes before it that the output after it references, are
/// [`Cutter::take_cuts`]'s once the call returns.  Hand the same cutter to
/// every call of a decode whose output shares one buffer.
pub fn inflate_with_cuts(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
    cutter: &mut Cutter,
) -> Result<InflateOutcome, DeflateError> {
    let fast = Some(FastLoop::active());
    inflate_impl(reader, window, out, stop_offset, usize::MAX, fast, cutter)
}

/// [`inflate`] decoding through the single-symbol reference decoder instead
/// of the fast loop.
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
    let cutter = &mut Cutter::never();
    inflate_impl(reader, window, out, stop_offset, usize::MAX, None, cutter)
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
    let fast = Some(FastLoop::active());
    let cutter = &mut Cutter::never();
    inflate_impl(reader, window, out, stop_offset, output_limit, fast, cutter)
}

fn inflate_impl(
    reader: &mut BitReader<'_>,
    window: &[u8],
    out: &mut Vec<u8>,
    stop_offset: u64,
    output_limit: usize,
    fast: Option<FastLoop>,
    cutter: &mut Cutter,
) -> Result<InflateOutcome, DeflateError> {
    let start_len = out.len();
    let mut sink = ByteSink::new(window, std::mem::take(out), output_limit, cutter);
    let mut blocks = BlockLoop::new(fast);
    let exit = blocks.run(reader, &mut sink, start_len, stop_offset);
    // The caller's buffer goes back before an error returns: it may be a
    // recycled one that is to be reused whatever happened here.
    *out = sink.out.finish();
    let stop_reason = exit?.expect("a byte sink never asks to be switched out");
    Ok(blocks.into_outcome(stop_reason, reader, &sink.usage))
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
    let cutter = &mut Cutter::never();
    let mut sink = MarkerSink::new(std::mem::take(out), None, cutter);
    let base = sink.base;
    let mut blocks = BlockLoop::new(Some(FastLoop::active()));
    let exit = blocks.run(reader, &mut sink, base, stop_offset);
    *out = sink.out.finish();
    let stop_reason = exit?.expect("the switch is off");
    Ok(blocks.into_outcome(stop_reason, reader, &sink.usage))
}

/// Decodes DEFLATE blocks without knowing the preceding window, as 16-bit
/// marker symbols only for as long as it has to (§2.2).  At each block
/// boundary with at least 32 KiB of this call's output behind it — so that
/// nothing decoded from there on can reach the window itself — the output
/// switches to bytes for either of two reasons:
///
/// * those 32 KiB contain no marker: they are narrowed to bytes;
/// * `window`, asked there with the number of symbols decoded so far, answers
///   [`WindowAnswer::Known`]: their markers are replaced from that window.
///
/// Either way they are all the history the rest of the chunk can reference,
/// and it decodes through the one-stage path at one-stage speed.
/// [`WindowAnswer::Abandon`] ends the call at that boundary instead, with
/// [`StopReason::Abandoned`].  `out` that has already switched (by an earlier
/// call, or by [`SpeculativeOutput::switch_to_bytes`] at a gzip member
/// boundary, where the window is known to be empty) decodes one-stage from
/// the start, and `window` is never asked.
///
/// `byte_buffer` is asked for the buffer the byte tail goes into, at the
/// switch and only then: a chunk that stays 16 bits wide never holds one.
/// Its contents are discarded; hand in a recycled one of the right capacity
/// or `Vec::new`.
///
/// The outcome's `window_usage` covers the marker phase only, and is that of
/// the whole decode: after the switch every reference resolves inside `out`.
/// `cutter` cuts the output as in [`inflate_with_cuts`], in either phase: a
/// cut's usage is of symbols, whatever they resolve to.  As with the other
/// entry points, what `out` holds after an error is unspecified — but it
/// still owns every buffer it was given.
pub fn inflate_speculative<W: std::ops::Deref<Target: AsRef<[u8]>>>(
    reader: &mut BitReader<'_>,
    out: &mut SpeculativeOutput,
    stop_offset: u64,
    byte_buffer: impl FnOnce() -> Vec<u8>,
    mut window: impl FnMut(usize) -> WindowAnswer<W>,
    cutter: &mut Cutter,
) -> Result<InflateOutcome, DeflateError> {
    let start_len = out.len();
    let mut blocks = BlockLoop::new(Some(FastLoop::active()));
    let mut usage = WindowUsage::new();
    if !out.switched {
        let mut answer = WindowAnswer::Unknown;
        let mut leave = |decoded| {
            answer = window(decoded);
            !matches!(answer, WindowAnswer::Unknown)
        };
        let mut sink = MarkerSink::new(std::mem::take(&mut out.prefix), Some(&mut leave), cutter);
        let exit = blocks.run(reader, &mut sink, start_len, stop_offset);
        out.prefix = sink.out.finish();
        usage = sink.usage;
        let stop_reason = match (exit?, &answer) {
            (Some(stop_reason), _) => Some(stop_reason),
            (None, WindowAnswer::Abandon) => Some(StopReason::Abandoned),
            (None, _) => None,
        };
        if let Some(stop_reason) = stop_reason {
            return Ok(blocks.into_outcome(stop_reason, reader, &usage));
        }
        out.switch_to_bytes(byte_buffer);
        if let WindowAnswer::Known(window) = answer {
            out.resolve_history((*window).as_ref())?;
        }
    }
    let mut sink = ByteSink::new(&[], std::mem::take(&mut out.bytes), usize::MAX, cutter);
    let exit = blocks.run(reader, &mut sink, start_len, stop_offset);
    out.bytes = sink.out.finish();
    let stop_reason = exit?.expect("a byte sink never asks to be switched out");
    Ok(blocks.into_outcome(stop_reason, reader, &usage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{CompressionLevel, CompressorOptions, DeflateCompressor};
    use crate::cutter::Cut;
    use crate::markers::tests::{contains_markers, window_usage_of};

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
            window_usage_of(&symbols).intervals()
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
        let mut never = Cutter::never();
        let mut sink = ByteSink::new(&[], Vec::new(), usize::MAX, &mut never);
        assert!(matches!(
            sink.copy_match(5, 3),
            Err(DeflateError::DistanceTooFar { .. })
        ));
    }

    /// What one decode came to: its output, its outcome or error, and its
    /// cuts.
    type Decoded<T> = (Vec<T>, Result<InflateOutcome, DeflateError>, Vec<Cut>);

    /// How far apart the differential tests cut their decodes, windowed and
    /// stop points.
    type Spacings = (usize, usize);

    fn reader_at(compressed: &[u8], start_bit: u64) -> BitReader<'_> {
        let mut reader = BitReader::new(compressed);
        reader.seek_to_bit(start_bit).unwrap();
        reader
    }

    /// One-stage decode of `compressed` from `start_bit` by the `fast` build,
    /// or by the reference decoder, cut `spacings` apart.
    fn decode_bytes(
        compressed: &[u8],
        start_bit: u64,
        window: &[u8],
        fast: Option<FastLoop>,
        spacings: Spacings,
    ) -> Decoded<u8> {
        let mut out = Vec::new();
        let mut reader = reader_at(compressed, start_bit);
        let mut cutter = Cutter::new(spacings.0, spacings.1);
        let result = inflate_impl(
            &mut reader,
            window,
            &mut out,
            u64::MAX,
            usize::MAX,
            fast,
            &mut cutter,
        );
        (out, result, cutter.take_cuts())
    }

    /// Two-stage [`decode_bytes`].
    fn decode_symbols(
        compressed: &[u8],
        start_bit: u64,
        fast: Option<FastLoop>,
        spacings: Spacings,
    ) -> Decoded<u16> {
        let mut reader = reader_at(compressed, start_bit);
        let mut cutter = Cutter::new(spacings.0, spacings.1);
        let mut sink = MarkerSink::new(Vec::new(), None, &mut cutter);
        let mut blocks = BlockLoop::new(fast);
        let exit = blocks.run(&mut reader, &mut sink, 0, u64::MAX);
        let result = exit.map(|stop_reason| {
            let stop_reason = stop_reason.expect("the switch is off");
            blocks.into_outcome(stop_reason, &reader, &sink.usage)
        });
        let symbols = sink.out.finish();
        (symbols, result, cutter.take_cuts())
    }

    fn assert_decodes_agree<T: PartialEq>(name: &str, fast: Decoded<T>, reference: &Decoded<T>) {
        match (&fast.1, &reference.1) {
            (Ok(outcome), Ok(expected)) => {
                assert!(fast.0 == reference.0, "{name}: output differs");
                assert_eq!(outcome.stop_reason, expected.stop_reason, "{name}");
                assert_eq!(outcome.end_position, expected.end_position, "{name}");
                assert_eq!(outcome.window_usage, expected.window_usage, "{name}");
                assert_eq!(outcome.blocks, expected.blocks, "{name}");
                assert_eq!(fast.2, reference.2, "{name}: cuts");
            }
            (outcome, expected) => {
                assert_eq!(outcome.as_ref().err(), expected.as_ref().err(), "{name}")
            }
        }
    }

    /// The builds of the fast loop this CPU can run: the plain one, and the
    /// BMI2 one where the CPU has the instructions (a CPU without skips it).
    fn fast_loops() -> Vec<FastLoop> {
        std::iter::once(FastLoop::PLAIN)
            .chain(FastLoop::bmi2())
            .collect()
    }

    /// Drives each build of the fast loop and the reference decoder over the
    /// same bits, into bytes (with `window`) and into markers, cut `spacings`
    /// apart, and asserts identical results: output, outcome metadata, cuts
    /// with the usage of each, and (on failure) the exact error.  Into bytes
    /// or into markers, a decode that succeeds both ways cuts alike.
    fn assert_paths_agree(compressed: &[u8], start_bit: u64, window: &[u8], spacings: Spacings) {
        if start_bit > compressed.len() as u64 * 8 {
            return;
        }
        let bytes = decode_bytes(compressed, start_bit, window, None, spacings);
        let symbols = decode_symbols(compressed, start_bit, None, spacings);
        if let (Ok(_), Ok(_)) = (&bytes.1, &symbols.1) {
            assert_eq!(bytes.2, symbols.2, "bytes and markers: cuts");
        }
        for fast_loop in fast_loops() {
            let name = format!("{} build, bytes", fast_loop.name());
            assert_decodes_agree(
                &name,
                decode_bytes(compressed, start_bit, window, Some(fast_loop), spacings),
                &bytes,
            );
            let name = format!("{} build, markers", fast_loop.name());
            assert_decodes_agree(
                &name,
                decode_symbols(compressed, start_bit, Some(fast_loop), spacings),
                &symbols,
            );
        }
    }

    #[test]
    fn active_isa_names_a_build_this_cpu_runs() {
        assert!(["bmi2", "scalar"].contains(&active_isa()));
        assert!(fast_loops().contains(&FastLoop::active()));
        if rgz_bitio::scalar_forced() {
            assert_eq!(active_isa(), "scalar");
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
            assert_paths_agree(&compressed, 0, &[], (50_000, 20_000));
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
        assert_paths_agree(&compressed, boundary.bit_offset, window, (20_000, 9_000));
        let fast = Some(FastLoop::active());
        let never = (usize::MAX, usize::MAX);
        let (out, ..) = decode_bytes(&compressed, boundary.bit_offset, window, fast, never);
        assert_eq!(&out[..], &data[split..]);
        let (symbols, ..) = decode_symbols(&compressed, boundary.bit_offset, fast, never);
        assert!(contains_markers(&symbols));
    }

    /// Appends a match to `out` through either copy, the way the decode loops
    /// do: into room that exists already.
    fn append_match<T: Copy + Default>(
        out: &mut Vec<T>,
        distance: usize,
        length: usize,
        exact: bool,
    ) {
        let from = out.len();
        out.resize(from + length + COPY_SLACK, T::default());
        if exact {
            copy_match_exact(out, from, distance, length);
        } else {
            copy_match_overshoot(out, from, distance, length);
        }
        out.truncate(from + length);
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
                append_match(&mut fast, distance, length, false);
                append_match(&mut scalar, distance, length, true);
                assert_eq!(fast, scalar, "distance {distance} length {length}");

                let wide: Vec<u16> = seed.iter().map(|&b| b as u16 * 257).collect();
                let (mut fast, mut scalar) = (wide.clone(), wide);
                append_match(&mut fast, distance, length, false);
                append_match(&mut scalar, distance, length, true);
                assert_eq!(fast, scalar, "u16 distance {distance} length {length}");
            }
        }
    }

    proptest::proptest! {
        /// The overshooting match copy must be identical to the portable
        /// doubling reference over arbitrary literal/copy op sequences
        /// (overlapping and straddling matches included), for both element
        /// widths.
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
                append_match(&mut fast, distance, length, false);
                append_match(&mut scalar, distance, length, true);
                append_match(&mut fast_wide, distance, length, false);
                append_match(&mut scalar_wide, distance, length, true);
                proptest::prop_assert_eq!(&fast, &scalar);
                proptest::prop_assert_eq!(&fast_wide, &scalar_wide);
            }
        }

        /// The tentpole guarantee: on arbitrary compressible inputs, dynamic
        /// block sizes, starts at any block and corruption (single-bit flips
        /// or truncation), both builds of the multi-symbol fast path and the
        /// single-symbol reference decoder are bit-for-bit identical — same
        /// bytes or markers, same metadata, same cuts with the same usage
        /// each, same errors.
        #[test]
        fn fast_and_reference_paths_are_identical(
            seed in proptest::prelude::any::<u64>(),
            length in 1usize..40_000,
            block_size in 4usize..64,
            start_block in 0usize..8,
            // 0 encodes "no corruption" / "no truncation".
            flip_bit in 0usize..100_000,
            truncate_at in 0usize..100_000,
            spacings in (1usize..48, 1usize..16),
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
            let blocks = inflate(&mut BitReader::new(&compressed), &[], &mut Vec::new(), u64::MAX)
                .unwrap()
                .blocks;
            let start = blocks[start_block % blocks.len()];
            let split = start.uncompressed_offset as usize;
            let window = &data[split.saturating_sub(WINDOW_SIZE)..split];
            if flip_bit > 0 {
                let bit = flip_bit % (compressed.len() * 8);
                compressed[bit / 8] ^= 1 << (bit % 8);
            }
            if truncate_at > 0 {
                compressed.truncate(truncate_at.min(compressed.len()));
            }
            let spacings = (spacings.0 * 1024, spacings.1 * 1024);
            assert_paths_agree(&compressed, start.bit_offset, window, spacings);
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
