//! Marker replacement — the second stage of two-stage decompression.

use crate::constants::WINDOW_SIZE;
use crate::inflate::MARKER_BASE;
use crate::DeflateError;

/// Tracks which bytes of the 32 KiB window preceding a chunk are actually
/// referenced by the chunk's back-references (sparsity tracking).
///
/// Offsets are in *marker space*: 0 is the oldest possible window byte
/// (32 KiB before the chunk start), `WINDOW_SIZE - 1` the byte immediately
/// before the chunk — the same coordinate system marker symbols use.  Most
/// chunks reference only a small, scattered subset of their window, which the
/// seek-point index exploits by dropping or zeroing unreferenced bytes before
/// compressing the stored window.
#[derive(Clone, PartialEq, Eq)]
pub struct WindowUsage {
    bits: Vec<u64>,
}

impl std::fmt::Debug for WindowUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowUsage")
            .field("used_bytes", &self.used_bytes())
            .field("min_offset", &self.min_offset())
            .finish()
    }
}

impl Default for WindowUsage {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowUsage {
    /// Creates an empty usage map (no window byte referenced).
    pub fn new() -> Self {
        Self {
            bits: vec![0u64; WINDOW_SIZE / 64],
        }
    }

    /// Marks `length` window bytes starting at marker-space `offset` as used.
    /// Ranges reaching past `WINDOW_SIZE` are clamped.
    pub fn mark(&mut self, offset: usize, length: usize) {
        let end = offset.saturating_add(length).min(WINDOW_SIZE);
        if offset >= end {
            return;
        }
        // Bits `offset % 64 ..` of the first word, bits `.. end % 64` of the
        // last (all of it when the range ends on a word boundary), whole
        // words in between.
        let (first, last) = (offset / 64, (end - 1) / 64);
        let head = u64::MAX << (offset % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.bits[first] |= head & tail;
        } else {
            self.bits[first] |= head;
            self.bits[first + 1..last].fill(u64::MAX);
            self.bits[last] |= tail;
        }
    }

    /// Whether no window byte is referenced at all.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&word| word == 0)
    }

    /// Number of referenced window bytes.
    pub fn used_bytes(&self) -> usize {
        self.bits
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// The smallest referenced marker-space offset (i.e. the furthest the
    /// chunk reaches back into its window), if any.
    pub fn min_offset(&self) -> Option<usize> {
        self.bits
            .iter()
            .position(|&word| word != 0)
            .map(|index| index * 64 + self.bits[index].trailing_zeros() as usize)
    }

    /// Maximal runs of referenced bytes as sorted `(offset, length)` pairs.
    ///
    /// Offsets and lengths are bounded by [`WINDOW_SIZE`] (32 KiB) — `mark`
    /// clamps every range to the window — so the `as u32` narrowing below is
    /// lossless; the debug assertion pins that invariant at the window
    /// boundary.
    pub fn intervals(&self) -> Vec<(u32, u32)> {
        debug_assert_eq!(self.bits.len() * 64, WINDOW_SIZE);
        let mut intervals = Vec::new();
        let mut run_start: Option<usize> = None;
        for (word_index, &word) in self.bits.iter().enumerate() {
            // From bit to bit where a run starts or ends: a few steps per
            // run, none per byte.
            let bit_base = word_index * 64;
            let mut bit = 0;
            while bit < 64 {
                // Inside a run, the next clear bit ends it; outside, the next
                // set bit starts one.
                let rest = match run_start {
                    Some(_) => !word >> bit,
                    None => word >> bit,
                };
                if rest == 0 {
                    break;
                }
                bit += rest.trailing_zeros() as usize;
                match run_start.take() {
                    Some(start) => intervals.push((start as u32, (bit_base + bit - start) as u32)),
                    None => run_start = Some(bit_base + bit),
                }
            }
        }
        if let Some(start) = run_start {
            intervals.push((start as u32, (WINDOW_SIZE - start) as u32));
        }
        intervals
    }
}

/// Replaces marker symbols with bytes from `window` and returns the resolved
/// bytes.
///
/// `window` is the decompressed data immediately preceding the chunk these
/// symbols were decoded from; it may be shorter than 32 KiB (e.g. near the
/// beginning of a stream), in which case markers that reach further back than
/// the window are an error (they indicate the chunk was decoded from a false
/// positive).
pub fn replace_markers(symbols: &[u16], window: &[u8]) -> Result<Vec<u8>, DeflateError> {
    let mut out = vec![0u8; symbols.len()];
    replace_markers_to_slice(symbols, window, &mut out)?;
    Ok(out)
}

/// [`replace_markers`] writing byte `i` of the result to `out[i]`, for a
/// caller that already owns the destination (a recycled buffer, or the
/// placeholders in front of a byte tail); this is the routine whose bandwidth
/// Table 2 reports as "Marker replacement".  What `out` holds after an error
/// is unspecified.
///
/// On x86-64 the replacement runs through a SIMD kernel (AVX2 when detected
/// at runtime, SSE2 otherwise — see [`active_isa`]): 16–32 symbols are
/// classified per iteration as literal, marker inside the window, or bad;
/// a block of literals is narrowed and stored in one go, and a block with
/// markers is looked up whole in a per-thread table of 64 Ki bytes — symbol
/// `s` maps to itself below 256 and to its window byte from `MARKER_BASE` +
/// (32 KiB − the window's length) on; nothing in between gets past the
/// classification — with `vpgatherdd` under AVX2: the cost of a block does
/// not depend on how many of its lanes are markers, and in text half of them
/// are.  Setting the table up is a copy of the window, under a microsecond.
/// Every other platform runs the scalar form of the same; all of them are
/// pinned to the one-symbol-at-a-time reference by differential tests.
///
/// # Panics
///
/// If `out` and `symbols` differ in length.
pub fn replace_markers_to_slice(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
) -> Result<(), DeflateError> {
    assert_eq!(out.len(), symbols.len(), "one output byte per symbol");
    replace_dispatched(symbols, window, out).1
}

/// Portable scalar reference for [`replace_markers_to_slice`]: what the
/// benches time the SIMD kernels against, both into a buffer that exists.
pub fn replace_markers_to_slice_scalar(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
) -> Result<(), DeflateError> {
    assert_eq!(out.len(), symbols.len(), "one output byte per symbol");
    replace_scalar(symbols, window, out).1
}

/// A table kernel: resolves `symbols` into the front of `out` (at least as
/// long) with this thread's lookup table, set up for the window, and reports
/// how many bytes it wrote before it stopped, and why if that is not all of
/// them.
type TableKernel = fn(&[u16], &[u8], &mut [u8], &Table) -> (usize, Result<(), DeflateError>);

/// The kernel this machine runs: every block with a marker in it goes
/// through the lookup table.
fn replace_dispatched(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
) -> (usize, Result<(), DeflateError>) {
    #[cfg(target_arch = "x86_64")]
    let kernel: TableKernel = match simd::kernel() {
        simd::Kernel::Avx2 => simd::replace_avx2_table,
        simd::Kernel::Sse2 => simd::replace_sse2_table,
        simd::Kernel::Scalar => replace_scalar_table,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let kernel: TableKernel = replace_scalar_table;
    with_table(window, |table| kernel(symbols, window, out, table))
}

/// One entry per 16-bit symbol, and four bytes more so that a 32-bit load at
/// the last entry stays inside.
const TABLE_LEN: usize = (1 << 16) + 4;

type Table = [u8; TABLE_LEN];

/// Runs `kernel` over this thread's lookup table, set up for `window`:
/// entry `s` is `s` for a literal and the window byte for a marker inside the
/// window.  The entries of the other symbols hold whatever earlier windows
/// left there; the kernels reject those symbols before they look anything up.
fn with_table<R>(window: &[u8], kernel: impl FnOnce(&Table) -> R) -> R {
    thread_local! {
        static TABLE: std::cell::RefCell<Box<Table>> = std::cell::RefCell::new({
            let mut table: Box<Table> = vec![0u8; TABLE_LEN]
                .into_boxed_slice()
                .try_into()
                .expect("a vector of TABLE_LEN bytes");
            for (entry, literal) in table.iter_mut().zip(0..=u8::MAX) {
                *entry = literal;
            }
            table
        });
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        table[(1 << 16) - window.len()..1 << 16].copy_from_slice(window);
        kernel(&table)
    })
}

/// Everything from symbol `done` on — the block a kernel stopped in front of,
/// or the remainder — through the scalar reference, for its exact error and
/// the count of bytes preceding it.
fn finish_scalar(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
    done: usize,
) -> (usize, Result<(), DeflateError>) {
    let (written, result) = replace_scalar(&symbols[done..], window, &mut out[done..]);
    (done + written, result)
}

/// The scalar form of the table kernel: validate a block, then look every
/// symbol of it up.  `symbol as usize` cannot exceed the table, so the lookup
/// is neither checked nor branches on what kind of symbol it has.
fn replace_scalar_table(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
    table: &Table,
) -> (usize, Result<(), DeflateError>) {
    const BLOCK: usize = 512;
    let first_marker = MARKER_BASE as usize + (WINDOW_SIZE - window.len());
    let mut done = 0;
    for (block, target) in symbols.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        let valid = block
            .iter()
            .all(|&symbol| symbol < 256 || symbol as usize >= first_marker);
        if !valid {
            break;
        }
        for (byte, &symbol) in target.iter_mut().zip(block) {
            *byte = table[symbol as usize];
        }
        done += block.len();
    }
    finish_scalar(symbols, window, out, done)
}

fn replace_scalar(
    symbols: &[u16],
    window: &[u8],
    out: &mut [u8],
) -> (usize, Result<(), DeflateError>) {
    const BLOCK: usize = 512;
    let window_base = WINDOW_SIZE - window.len();
    // Validate a block ahead of time, then emit it through a tight
    // branch-light select loop; only a block that actually contains a bad
    // symbol re-runs the exact per-symbol loop below, so error positions and
    // partial output stay identical to the one-symbol-at-a-time reference.
    let blocks = symbols.chunks(BLOCK).zip(out.chunks_mut(BLOCK));
    for (index, (block, target)) in blocks.enumerate() {
        let valid = block.iter().all(|&symbol| {
            symbol < 256
                || (symbol >= MARKER_BASE && (symbol - MARKER_BASE) as usize >= window_base)
        });
        if valid {
            for (byte, &symbol) in target.iter_mut().zip(block) {
                *byte = if symbol >= MARKER_BASE {
                    window[(symbol - MARKER_BASE) as usize - window_base]
                } else {
                    symbol as u8
                };
            }
            continue;
        }
        for (position, (byte, &symbol)) in target.iter_mut().zip(block).enumerate() {
            let written = index * BLOCK + position;
            if symbol < 256 {
                *byte = symbol as u8;
            } else if symbol >= MARKER_BASE {
                let offset = (symbol - MARKER_BASE) as usize;
                if offset < window_base {
                    let error = DeflateError::MarkerOutsideWindow {
                        offset,
                        window_length: window.len(),
                    };
                    return (written, Err(error));
                }
                *byte = window[offset - window_base];
            } else {
                return (written, Err(DeflateError::InvalidMarkerSymbol(symbol)));
            }
        }
    }
    (symbols.len(), Ok(()))
}

/// Name of the marker-replacement kernel [`replace_markers_to_slice`]
/// resolves to on this machine: `"avx2"`, `"sse2"`, or `"scalar"`.
pub fn active_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match simd::kernel() {
            simd::Kernel::Avx2 => "avx2",
            simd::Kernel::Sse2 => "sse2",
            simd::Kernel::Scalar => "scalar",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// SIMD marker replacement (x86-64).
///
/// Every block of `LANES` 16-bit symbols is classified with vector masks:
///
/// * **literal** — high byte zero (symbol < 256);
/// * **marker** — sign bit set ([`MARKER_BASE`] is `0x8000`, so markers are
///   exactly the negative lanes when reinterpreted as `i16`); the table
///   kernels also tell, with one signed compare of the offset, whether it
///   lies **inside the window**;
/// * **invalid** — neither (256..=32767), which must surface the scalar
///   path's exact `InvalidMarkerSymbol` error and partial output.
///
/// A block of literals is narrowed to bytes and stored with one unaligned
/// write (`packus`).  A block with markers is looked up whole in a 64
/// Ki-entry byte table, by `vpgatherdd` ([`replace_avx2_table`]) or lane by
/// lane ([`replace_sse2_table`]), after the classification has vouched for
/// every lane: what a block costs does not depend on how many of its lanes
/// are markers — one symbol in two on the text corpus, one in a thousand on
/// base64.  The vector loop stops in front of a block containing an invalid
/// symbol or an out-of-window marker and leaves it, like the remainder, to
/// the scalar reference, so the error and the count of bytes preceding it
/// match bit-for-bit.
// `unsafe` is confined to CPU intrinsics and stores whose bounds are
// established by the up-front length assertion (workspace-wide policy:
// unsafe only inside vetted SIMD kernel modules).
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{finish_scalar, DeflateError, Table, WINDOW_SIZE};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Kernel {
        Avx2,
        Sse2,
        Scalar,
    }

    pub(super) fn kernel() -> Kernel {
        use std::sync::OnceLock;
        static KERNEL: OnceLock<Kernel> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            if rgz_bitio::scalar_forced() {
                Kernel::Scalar
            } else if is_x86_feature_detected!("avx2") {
                Kernel::Avx2
            } else {
                // SSE2 is part of the x86-64 baseline; no detection needed.
                Kernel::Sse2
            }
        })
    }

    /// The largest offset *outside* a window of this length (−1 if there is
    /// none), for a signed greater-than against a lane's symbol with its
    /// sign bit flipped: that is the offset for a marker and negative for
    /// anything else, so the compare selects exactly the markers inside.
    fn last_offset_outside(window: &[u8]) -> i16 {
        // 0..=32768, less one: fits.
        ((WINDOW_SIZE - window.len()) as i32 - 1) as i16
    }

    pub(super) fn replace_sse2_table(
        symbols: &[u16],
        window: &[u8],
        out: &mut [u8],
        table: &Table,
    ) -> (usize, Result<(), DeflateError>) {
        assert!(out.len() >= symbols.len());
        let mut written = 0;
        // SAFETY: `out` is at least as long as `symbols` (asserted above), and
        // the zip yields whole blocks of 16 symbols with the 16 bytes of
        // `out` at the block's own offset; each is loaded and stored once.
        unsafe {
            let zero = _mm_setzero_si128();
            let sign = _mm_set1_epi16(i16::MIN);
            let outside = _mm_set1_epi16(last_offset_outside(window));
            for (block, target) in symbols.chunks_exact(16).zip(out.chunks_exact_mut(16)) {
                let v0 = _mm_loadu_si128(block.as_ptr().cast());
                let v1 = _mm_loadu_si128(block.as_ptr().add(8).cast());
                let literal0 = _mm_cmpeq_epi16(_mm_srli_epi16(v0, 8), zero);
                let literal1 = _mm_cmpeq_epi16(_mm_srli_epi16(v1, 8), zero);
                let inside0 = _mm_cmpgt_epi16(_mm_xor_si128(v0, sign), outside);
                let inside1 = _mm_cmpgt_epi16(_mm_xor_si128(v1, sign), outside);
                let literal_bits = _mm_movemask_epi8(_mm_packs_epi16(literal0, literal1));
                let inside_bits = _mm_movemask_epi8(_mm_packs_epi16(inside0, inside1));
                if literal_bits | inside_bits != 0xFFFF {
                    break;
                }
                if inside_bits == 0 {
                    _mm_storeu_si128(target.as_mut_ptr().cast(), _mm_packus_epi16(v0, v1));
                } else {
                    for (byte, &symbol) in target.iter_mut().zip(block) {
                        *byte = table[symbol as usize];
                    }
                }
                written += 16;
            }
        }
        finish_scalar(symbols, window, out, written)
    }

    // `unsafe fn` (not the 1.86+ safe `#[target_feature]` form) keeps the
    // crate buildable on the MSRV toolchain.
    #[target_feature(enable = "avx2")]
    unsafe fn replace_avx2_table_inner(
        symbols: &[u16],
        window: &[u8],
        out: &mut [u8],
        table: &Table,
    ) -> (usize, Result<(), DeflateError>) {
        assert!(out.len() >= symbols.len());
        let mut written = 0;
        // SAFETY: `out` is at least as long as `symbols` (asserted above);
        // each iteration stores the 32 bytes of one whole block of 32 symbols
        // at the block's own offset.  Each gather lane loads the four bytes at `table + symbol`, a
        // zero-extended `u16`: at most 65535 + 3, inside the `Table`'s
        // 65536 + 4 bytes.
        unsafe {
            let base = out.as_mut_ptr();
            let zero = _mm256_setzero_si256();
            let sign = _mm256_set1_epi16(i16::MIN);
            let outside = _mm256_set1_epi16(last_offset_outside(window));
            let low_byte = _mm256_set1_epi32(0xFF);
            // 256-bit packs interleave 128-bit halves; one permute of the
            // packed result's dwords (or qwords) puts them in symbol order.
            let order = _mm256_permute4x64_epi64::<0b11_01_10_00>;
            let gathered_order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
            let entries: *const i32 = table.as_ptr().cast();
            for block in symbols.chunks_exact(32) {
                let v0 = _mm256_loadu_si256(block.as_ptr().cast());
                let v1 = _mm256_loadu_si256(block.as_ptr().add(16).cast());
                let literal0 = _mm256_cmpeq_epi16(_mm256_srli_epi16(v0, 8), zero);
                let literal1 = _mm256_cmpeq_epi16(_mm256_srli_epi16(v1, 8), zero);
                let inside0 = _mm256_cmpgt_epi16(_mm256_xor_si256(v0, sign), outside);
                let inside1 = _mm256_cmpgt_epi16(_mm256_xor_si256(v1, sign), outside);
                // Neither mask is needed in lane order: one is compared with
                // all ones, the other with zero.
                let literal_bits = _mm256_movemask_epi8(_mm256_packs_epi16(literal0, literal1));
                let inside_bits = _mm256_movemask_epi8(_mm256_packs_epi16(inside0, inside1));
                if literal_bits | inside_bits != -1 {
                    break;
                }
                let dst = base.add(written);
                if inside_bits == 0 {
                    _mm256_storeu_si256(dst.cast(), order(_mm256_packus_epi16(v0, v1)));
                } else {
                    let gather = |lanes: __m128i| {
                        let indexes = _mm256_cvtepu16_epi32(lanes);
                        _mm256_and_si256(_mm256_i32gather_epi32::<1>(entries, indexes), low_byte)
                    };
                    let a = gather(_mm256_castsi256_si128(v0));
                    let b = gather(_mm256_extracti128_si256::<1>(v0));
                    let c = gather(_mm256_castsi256_si128(v1));
                    let d = gather(_mm256_extracti128_si256::<1>(v1));
                    // As dwords of four bytes each: a0 b0 c0 d0 | a1 b1 c1 d1.
                    let bytes =
                        _mm256_packus_epi16(_mm256_packus_epi32(a, b), _mm256_packus_epi32(c, d));
                    let bytes = _mm256_permutevar8x32_epi32(bytes, gathered_order);
                    _mm256_storeu_si256(dst.cast(), bytes);
                }
                written += 32;
            }
        }
        finish_scalar(symbols, window, out, written)
    }

    pub(super) fn replace_avx2_table(
        symbols: &[u16],
        window: &[u8],
        out: &mut [u8],
        table: &Table,
    ) -> (usize, Result<(), DeflateError>) {
        // SAFETY: only called where AVX2 was detected (`kernel()` returned
        // Avx2, or the test asked `is_x86_feature_detected!` itself).
        unsafe { replace_avx2_table_inner(symbols, window, out, table) }
    }
}

/// [`replace_markers`] variant for the verification pipeline: resolves the
/// symbols and returns, alongside the bytes, the CRC-32 of every *fragment*
/// of the output delimited by `fragment_ends` (sorted end offsets in symbol
/// space, one per gzip member boundary inside the chunk).  The returned
/// vector always has `fragment_ends.len() + 1` entries — the last one hashes
/// the (possibly empty) tail that continues into the next chunk.
///
/// Hashing happens here, right after replacement while the resolved bytes
/// are cache-hot, on whichever worker thread runs the replacement — so
/// checksum computation parallelizes with decoding exactly like the
/// replacement itself does.
pub fn replace_markers_hashed(
    symbols: &[u16],
    window: &[u8],
    fragment_ends: &[usize],
) -> Result<(Vec<u8>, Vec<u32>), DeflateError> {
    let out = replace_markers(symbols, window)?;
    let crcs = hash_fragments(&out, fragment_ends)?;
    Ok((out, crcs))
}

/// CRC-32 of every fragment of `out` delimited by `fragment_ends`.
fn hash_fragments(out: &[u8], fragment_ends: &[usize]) -> Result<Vec<u32>, DeflateError> {
    // A split past the chunk end means the caller's member-boundary
    // bookkeeping is wrong; slicing would panic (or silently mis-hash in a
    // release build), so reject it as a typed error in every build.
    if let Some(&end) = fragment_ends.iter().find(|&&end| end > out.len()) {
        return Err(DeflateError::FragmentEndOutOfRange {
            end,
            output_length: out.len(),
        });
    }
    Ok(rgz_checksum::crc32_fragments(out, fragment_ends))
}

/// Resolves only the markers contained in the final `WINDOW_SIZE` symbols of
/// `symbols`, returning the 32 KiB (or shorter) byte window that a *following*
/// chunk needs.
///
/// This is the cheap, inherently sequential part of window propagation the
/// paper discusses in §2.2: only the last 32 KiB of each chunk has to be
/// resolved before the next chunk can be finalized, while full-chunk
/// replacement runs in parallel.
pub fn resolve_window(symbols: &[u16], window: &[u8]) -> Result<Vec<u8>, DeflateError> {
    if symbols.len() >= WINDOW_SIZE {
        let tail = &symbols[symbols.len() - WINDOW_SIZE..];
        replace_markers(tail, window)
    } else {
        // The chunk is shorter than a window: the following chunk's window is
        // the tail of (previous window + this chunk's data).  Each symbol
        // resolves to exactly one byte, so the split is known up front:
        // `take` window bytes followed by the whole resolved chunk, which is
        // resolved straight into the result buffer (one allocation, no
        // intermediate copies).
        let take = (WINDOW_SIZE - symbols.len()).min(window.len());
        let mut combined = Vec::with_capacity(take + symbols.len());
        combined.extend_from_slice(&window[window.len() - take..]);
        combined.resize(take + symbols.len(), 0);
        replace_markers_to_slice(symbols, window, &mut combined[take..])?;
        debug_assert!(combined.len() <= WINDOW_SIZE);
        Ok(combined)
    }
}

/// Output of a speculative decode ([`crate::inflate_speculative`]): a 16-bit
/// marker *prefix* followed, once the decoder has switched, by a plain byte
/// *tail*.  It switches for one of two reasons — the prefix's last 32 KiB
/// hold no marker, or its caller has learnt the window they point into — and
/// where its caller knows the window to be empty, after a gzip member's end.
/// Symbols map 1:1 to output bytes, so [`Self::len`] is the chunk's
/// decompressed size throughout.
///
/// Both buffers are the caller's: the symbol buffer comes in through
/// [`From<Vec<u16>>`], the byte buffer at the switch, and
/// [`Self::into_buffers`] hands back whatever the output still holds, so a
/// reader can recycle them from chunk to chunk.
#[derive(Debug, Clone, Default)]
pub struct SpeculativeOutput {
    /// Symbols (literals and markers) decoded before the switch.
    pub(crate) prefix: Vec<u16>,
    /// Unused before the switch.  After it, the whole chunk's bytes:
    /// `prefix.len()` placeholders — the last [`WINDOW_SIZE`] of them
    /// already holding the prefix symbols, narrowed or resolved, which is all
    /// the history the one-stage decoder can reach — then the tail it decoded.
    /// [`Self::resolve_into`] fills the placeholders in.
    pub(crate) bytes: Vec<u8>,
    pub(crate) switched: bool,
}

/// Wraps all-16-bit symbols (e.g. of [`crate::inflate_two_stage`]) as an
/// output that has not switched; an empty buffer with capacity to decode into
/// is the same thing with nothing decoded yet.
impl From<Vec<u16>> for SpeculativeOutput {
    fn from(prefix: Vec<u16>) -> Self {
        Self {
            prefix,
            ..Self::default()
        }
    }
}

impl SpeculativeOutput {
    /// An empty output, decoding as markers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dismantles the output into its symbol and its byte buffer, contents
    /// and all.
    pub fn into_buffers(self) -> (Vec<u16>, Vec<u8>) {
        (self.prefix, self.bytes)
    }

    /// Number of symbols (= decompressed bytes) decoded so far.
    pub fn len(&self) -> usize {
        if self.switched {
            self.bytes.len()
        } else {
            self.prefix.len()
        }
    }

    /// Whether nothing has been decoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 16-bit symbols decoded before the switch.
    pub fn prefix(&self) -> &[u16] {
        &self.prefix
    }

    /// The bytes decoded after the switch.
    pub fn tail(&self) -> &[u8] {
        self.bytes.get(self.prefix.len()..).unwrap_or(&[])
    }

    /// Whether the output decodes (or has finished decoding) as plain bytes.
    pub fn is_switched(&self) -> bool {
        self.switched
    }

    /// Makes every further [`crate::inflate_speculative`] call on this output
    /// decode one-stage, into the buffer `byte_buffer` is then asked for
    /// (whose contents are discarded); nothing happens, and nothing is asked
    /// for, if it already does.  The decoder does this itself once the last
    /// 32 KiB are marker-free; callers do it where they *know* no reference
    /// can reach the prefix — right after a gzip member boundary.
    pub fn switch_to_bytes(&mut self, byte_buffer: impl FnOnce() -> Vec<u8>) {
        if self.switched {
            return;
        }
        self.switched = true;
        self.bytes = byte_buffer();
        // Whatever the placeholders hold — the zeros of a fresh buffer, the
        // last chunk of a recycled one, markers narrowed to garbage —
        // `resolve_into` overwrites, and a valid stream never references it
        // from the tail.
        let history = self.prefix.len().saturating_sub(WINDOW_SIZE);
        self.bytes.resize(history, 0);
        self.bytes
            .extend(self.prefix[history..].iter().map(|&symbol| symbol as u8));
    }

    /// Makes the history a switched output decodes on from the prefix's last
    /// [`WINDOW_SIZE`] symbols with their markers replaced from `window`,
    /// where [`Self::switch_to_bytes`] has left them narrowed: what the
    /// one-stage decoder would have in their place.
    pub(crate) fn resolve_history(&mut self, window: &[u8]) -> Result<(), DeflateError> {
        let history = self.prefix.len().saturating_sub(WINDOW_SIZE)..self.prefix.len();
        let resolved = &mut self.bytes[history.clone()];
        replace_markers_to_slice(&self.prefix[history], window, resolved)
    }

    /// Replaces the prefix's markers with bytes from `window` (see
    /// [`replace_markers`]) and moves the whole chunk's bytes into `out`,
    /// replacing its contents.  Only the prefix is touched: the tail is
    /// already final and stays in the buffer it was decoded into, for which
    /// `out`'s own is swapped in (and comes back out of
    /// [`Self::into_buffers`], with the symbols).  What `out` holds after an
    /// error is unspecified.
    pub fn resolve_into(&mut self, window: &[u8], out: &mut Vec<u8>) -> Result<(), DeflateError> {
        if self.switched {
            let placeholders = &mut self.bytes[..self.prefix.len()];
            replace_markers_to_slice(&self.prefix, window, placeholders)?;
            std::mem::swap(out, &mut self.bytes);
            Ok(())
        } else {
            // A recycled buffer's old bytes are as good as placeholders; one
            // that is too small grows to the size, not to twice its own.
            out.reserve_exact(self.prefix.len().saturating_sub(out.len()));
            out.resize(self.prefix.len(), 0);
            replace_markers_to_slice(&self.prefix, window, out)
        }
    }

    /// [`Self::resolve_into`] a buffer of its own.
    pub fn resolve(mut self, window: &[u8]) -> Result<Vec<u8>, DeflateError> {
        let mut out = Vec::new();
        self.resolve_into(window, &mut out)?;
        Ok(out)
    }

    /// The window a *following* chunk needs (see [`resolve_window`]).  A tail
    /// of at least [`WINDOW_SIZE`] bytes is that window by itself, with no
    /// dependence on `window` at all.
    pub fn next_window(&self, window: &[u8]) -> Result<Vec<u8>, DeflateError> {
        let tail = self.tail();
        if tail.len() >= WINDOW_SIZE {
            return Ok(tail[tail.len() - WINDOW_SIZE..].to_vec());
        }
        let mut next = resolve_window(&self.prefix, window)?;
        let excess = (next.len() + tail.len()).saturating_sub(WINDOW_SIZE);
        next.drain(..excess);
        next.extend_from_slice(tail);
        Ok(next)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn literals_pass_through() {
        let symbols: Vec<u16> = b"hello world".iter().map(|&b| b as u16).collect();
        assert!(!contains_markers(&symbols));
        assert_eq!(replace_markers(&symbols, &[]).unwrap(), b"hello world");
    }

    #[test]
    fn markers_resolve_against_full_window() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 256) as u8).collect();
        let symbols = vec![
            MARKER_BASE, // oldest window byte
            MARKER_BASE + 1,
            MARKER_BASE + (WINDOW_SIZE as u16 - 1), // newest window byte
            b'x' as u16,
        ];
        let resolved = replace_markers(&symbols, &window).unwrap();
        assert_eq!(
            resolved,
            vec![window[0], window[1], window[WINDOW_SIZE - 1], b'x']
        );
    }

    #[test]
    fn markers_resolve_against_short_window() {
        // A 100-byte window occupies the *last* 100 slots of the 32 KiB
        // marker space.
        let window: Vec<u8> = (0..100u8).collect();
        let newest = MARKER_BASE + (WINDOW_SIZE - 1) as u16;
        let oldest_valid = MARKER_BASE + (WINDOW_SIZE - 100) as u16;
        assert_eq!(replace_markers(&[newest], &window).unwrap(), vec![99]);
        assert_eq!(replace_markers(&[oldest_valid], &window).unwrap(), vec![0]);
        assert!(matches!(
            replace_markers(&[oldest_valid - 1], &window),
            Err(DeflateError::MarkerOutsideWindow { .. })
        ));
    }

    #[test]
    fn hashed_replacement_fragments_cover_the_output() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 256) as u8).collect();
        let symbols: Vec<u16> = (0..1000u16)
            .map(|i| {
                if i % 7 == 0 {
                    MARKER_BASE + (WINDOW_SIZE as u16 - 1 - (i % 100))
                } else {
                    i % 256
                }
            })
            .collect();
        let plain = replace_markers(&symbols, &window).unwrap();

        let ends = [0usize, 137, 137, 999];
        let (resolved, crcs) = replace_markers_hashed(&symbols, &window, &ends).unwrap();
        assert_eq!(resolved, plain);
        assert_eq!(crcs.len(), ends.len() + 1);
        let mut start = 0usize;
        for (&end, &crc) in ends.iter().zip(&crcs) {
            assert_eq!(crc, rgz_checksum::crc32(&plain[start..end]));
            start = end;
        }
        assert_eq!(*crcs.last().unwrap(), rgz_checksum::crc32(&plain[999..]));
        // No splits: one fragment hashing the whole chunk.
        let (_, whole) = replace_markers_hashed(&symbols, &window, &[]).unwrap();
        assert_eq!(whole, vec![rgz_checksum::crc32(&plain)]);
    }

    #[test]
    fn hashed_replacement_rejects_out_of_range_fragment_ends() {
        // This must hold in release builds too (it used to be a
        // debug_assert!, letting release builds slice out of bounds or
        // mis-hash), so the check is a typed error, not an assertion.
        let symbols: Vec<u16> = (0..10u16).collect();
        let result = replace_markers_hashed(&symbols, &[], &[5, 11]);
        assert_eq!(
            result.unwrap_err(),
            DeflateError::FragmentEndOutOfRange {
                end: 11,
                output_length: 10,
            }
        );
        // An end exactly at the output length is still valid.
        let (out, crcs) = replace_markers_hashed(&symbols, &[], &[10]).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(crcs.len(), 2);
    }

    #[test]
    fn window_usage_intervals_at_window_boundary() {
        // Runs touching the very last window byte exercise the final
        // `(WINDOW_SIZE - start)` narrowing.
        let mut usage = WindowUsage::new();
        usage.mark(WINDOW_SIZE - 1, 100); // clamped to one byte
        assert_eq!(usage.intervals(), vec![((WINDOW_SIZE - 1) as u32, 1)]);

        let mut full = WindowUsage::new();
        full.mark(0, WINDOW_SIZE);
        assert_eq!(full.intervals(), vec![(0, WINDOW_SIZE as u32)]);
        assert_eq!(full.used_bytes(), WINDOW_SIZE);

        let mut split = WindowUsage::new();
        split.mark(0, 1);
        split.mark(WINDOW_SIZE - 70, WINDOW_SIZE); // clamped at the end
        assert_eq!(
            split.intervals(),
            vec![(0, 1), ((WINDOW_SIZE - 70) as u32, 70)]
        );
    }

    #[test]
    fn symbols_between_256_and_marker_base_are_invalid() {
        assert!(matches!(
            replace_markers(&[300], &[]),
            Err(DeflateError::InvalidMarkerSymbol(300))
        ));
    }

    #[test]
    fn resolve_window_of_long_chunk_uses_only_the_tail() {
        let window = vec![0xAAu8; WINDOW_SIZE];
        // Chunk longer than a window made of literals 0,1,2,...
        let symbols: Vec<u16> = (0..(WINDOW_SIZE + 1000))
            .map(|i| (i % 256) as u16)
            .collect();
        let next_window = resolve_window(&symbols, &window).unwrap();
        assert_eq!(next_window.len(), WINDOW_SIZE);
        let expected: Vec<u8> = (1000..WINDOW_SIZE + 1000)
            .map(|i| (i % 256) as u8)
            .collect();
        assert_eq!(next_window, expected);
    }

    #[test]
    fn resolve_window_of_short_chunk_prepends_previous_window() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 251) as u8).collect();
        let symbols: Vec<u16> = (0..10u16).collect();
        let next_window = resolve_window(&symbols, &window).unwrap();
        assert_eq!(next_window.len(), WINDOW_SIZE);
        assert_eq!(
            &next_window[WINDOW_SIZE - 10..],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
        assert_eq!(&next_window[..WINDOW_SIZE - 10], &window[10..]);
    }

    #[test]
    fn window_usage_tracks_intervals_and_min_offset() {
        let mut usage = WindowUsage::new();
        assert!(usage.is_empty());
        assert_eq!(usage.min_offset(), None);
        assert!(usage.intervals().is_empty());

        usage.mark(100, 4);
        usage.mark(102, 6); // overlaps the first run
        usage.mark(WINDOW_SIZE - 2, 10); // clamped at the window end
        assert!(!usage.is_empty());
        assert_eq!(usage.min_offset(), Some(100));
        assert_eq!(usage.used_bytes(), 8 + 2);
        assert_eq!(
            usage.intervals(),
            vec![(100, 8), ((WINDOW_SIZE - 2) as u32, 2)]
        );
    }

    #[test]
    fn window_usage_from_symbols_collects_marker_offsets() {
        let symbols = vec![
            b'a' as u16,
            MARKER_BASE + 7,
            MARKER_BASE + 8,
            b'b' as u16,
            MARKER_BASE + 7, // duplicate marker counts once
            MARKER_BASE + 4000,
        ];
        let usage = window_usage_of(&symbols);
        assert_eq!(usage.used_bytes(), 3);
        assert_eq!(usage.intervals(), vec![(7, 2), (4000, 1)]);
        assert!(window_usage_of(&[1, 2, 255]).is_empty());
    }

    #[test]
    fn active_isa_names_a_known_kernel() {
        assert!(["avx2", "sse2", "scalar"].contains(&active_isa()));
    }

    /// Asserts the dispatched replacement and the scalar reference agree on
    /// `symbols`/`window`, over destinations that are not zeroed: same
    /// `Result`, same count of bytes written, same bytes — the partial
    /// output preceding an error included.
    fn assert_simd_matches_scalar(symbols: &[u16], window: &[u8]) {
        let mut simd_out = vec![0xA5u8; symbols.len()];
        let mut scalar_out = vec![0xA5u8; symbols.len()];
        let (simd_written, simd_result) = replace_dispatched(symbols, window, &mut simd_out);
        let (scalar_written, scalar_result) = replace_scalar(symbols, window, &mut scalar_out);
        assert_eq!(simd_result, scalar_result, "result mismatch");
        assert_eq!(simd_written, scalar_written, "bytes written mismatch");
        assert_eq!(
            simd_out[..simd_written],
            scalar_out[..scalar_written],
            "output mismatch (partial included)"
        );
    }

    #[test]
    fn simd_matches_scalar_on_lane_boundary_lengths() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 253) as u8).collect();
        for length in [
            0usize, 1, 7, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 100, 512,
        ] {
            // All literals.
            let literals: Vec<u16> = (0..length).map(|i| (i % 256) as u16).collect();
            assert_simd_matches_scalar(&literals, &window);
            // Alternating literal / marker.
            let mixed: Vec<u16> = (0..length)
                .map(|i| {
                    if i % 2 == 0 {
                        (i % 256) as u16
                    } else {
                        MARKER_BASE + (i % WINDOW_SIZE) as u16
                    }
                })
                .collect();
            assert_simd_matches_scalar(&mixed, &window);
            // All markers (marker-dense worst case).
            let markers: Vec<u16> = (0..length)
                .map(|i| MARKER_BASE + ((i * 37) % WINDOW_SIZE) as u16)
                .collect();
            assert_simd_matches_scalar(&markers, &window);
        }
    }

    #[test]
    fn simd_matches_scalar_on_error_paths() {
        let window: Vec<u8> = (0..100u8).collect();
        // Invalid symbol at every lane position of the first two blocks.
        for position in 0..64usize {
            let mut symbols: Vec<u16> = (0..96).map(|i| (i % 256) as u16).collect();
            symbols[position] = 300;
            assert_simd_matches_scalar(&symbols, &window);
            // Out-of-window marker (window covers only the last 100 slots).
            symbols[position] = MARKER_BASE;
            assert_simd_matches_scalar(&symbols, &window);
        }
        // Valid marker *after* an out-of-window one in the same block: the
        // partial output must stop exactly where the scalar loop stops.
        let mut symbols: Vec<u16> = (0..32).map(|i| (i % 256) as u16).collect();
        symbols[5] = MARKER_BASE + (WINDOW_SIZE - 1) as u16;
        symbols[3] = MARKER_BASE; // aborts before lane 5 in symbol order
        assert_simd_matches_scalar(&symbols, &window);
    }

    /// A table kernel by name, for the tests to run whichever the CPU has —
    /// not only the one the dispatch picked.
    type TableKernel = fn(&[u16], &[u8], &mut [u8], &Table) -> (usize, Result<(), DeflateError>);

    fn table_kernels() -> Vec<(&'static str, TableKernel)> {
        let mut kernels: Vec<(&'static str, TableKernel)> = vec![("scalar", replace_scalar_table)];
        #[cfg(target_arch = "x86_64")]
        {
            kernels.push(("sse2", simd::replace_sse2_table));
            if is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", simd::replace_avx2_table));
            }
        }
        kernels
    }

    /// Every table kernel against the one-symbol-at-a-time reference: the
    /// same result, the same count of bytes written, the same bytes.
    fn assert_table_kernels_match_scalar(symbols: &[u16], window: &[u8]) {
        let mut expected = vec![0xA5u8; symbols.len()];
        let (expected_written, expected_result) = replace_scalar(symbols, window, &mut expected);
        for (name, kernel) in table_kernels() {
            let mut out = vec![0xA5u8; symbols.len()];
            let (written, result) =
                with_table(window, |table| kernel(symbols, window, &mut out, table));
            assert_eq!(result, expected_result, "{name}: result");
            assert_eq!(written, expected_written, "{name}: bytes written");
            assert_eq!(out[..written], expected[..written], "{name}: output");
        }
    }

    /// `length` symbols, `per_mille` of them markers (in runs, as copies from
    /// the window come) into a window of `window_length` bytes.
    fn symbols_with_markers(
        length: usize,
        per_mille: u32,
        window_length: usize,
        seed: u64,
    ) -> Vec<u16> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let window_base = WINDOW_SIZE - window_length;
        let mut symbols = Vec::with_capacity(length);
        while symbols.len() < length {
            let run = 3 + (next() % 38) as usize;
            let marker = (next() % 1000) < u64::from(per_mille);
            for _ in 0..run.min(length - symbols.len()) {
                symbols.push(if marker {
                    // With no window to point into, every marker is a bad one.
                    let offset = window_base + (next() as usize % window_length.max(1));
                    MARKER_BASE + offset.min(WINDOW_SIZE - 1) as u16
                } else {
                    (next() % 256) as u16
                });
            }
        }
        symbols
    }

    const DENSITIES_PER_MILLE: [u32; 5] = [0, 1, 50, 500, 1000];
    const WINDOW_LENGTHS: [usize; 4] = [0, 1, WINDOW_SIZE - 1, WINDOW_SIZE];

    #[test]
    fn table_kernels_match_scalar_around_the_lane_counts() {
        for (window_length, per_mille) in WINDOW_LENGTHS
            .into_iter()
            .flat_map(|window| DENSITIES_PER_MILLE.map(|density| (window, density)))
        {
            let window: Vec<u8> = (0..window_length).map(|i| (i % 251) as u8).collect();
            for length in [
                0usize, 1, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 511, 512, 513, 1100,
            ] {
                let symbols = symbols_with_markers(length, per_mille, window_length, 17);
                assert_table_kernels_match_scalar(&symbols, &window);
            }
        }
    }

    #[test]
    fn table_kernels_stop_where_the_scalar_loop_stops_at_every_lane() {
        // A window one byte short of full: offset 0 is the one marker outside.
        let window: Vec<u8> = (0..WINDOW_SIZE - 1).map(|i| (i % 253) as u8).collect();
        let valid = symbols_with_markers(160, 500, window.len(), 29);
        assert!(replace_markers(&valid, &window).is_ok());
        assert!(contains_markers(&valid[..32]) && contains_markers(&valid[64..96]));
        for position in 0..96 {
            for bad in [300u16, MARKER_BASE - 1, MARKER_BASE] {
                let mut symbols = valid.clone();
                symbols[position] = bad;
                assert_table_kernels_match_scalar(&symbols, &window);
                assert_simd_matches_scalar(&symbols, &window);
            }
        }
    }

    proptest! {
        // Differential: the runtime-dispatched kernel (AVX2/SSE2 on x86-64)
        // must match the portable scalar reference bit-for-bit on arbitrary
        // symbol streams — valid, invalid, and out-of-window alike.  On
        // machines without SIMD this degenerates to scalar == scalar and
        // still runs, keeping the harness portable.
        #[test]
        fn simd_and_scalar_replacement_agree(
            window in proptest::collection::vec(any::<u8>(), 0..WINDOW_SIZE),
            symbols in proptest::collection::vec(any::<u16>(), 0..600),
        ) {
            assert_simd_matches_scalar(&symbols, &window);
        }

        // Same, but biased toward *valid* streams so the success path gets
        // deep coverage too (any::<u16> streams nearly always abort within
        // a few symbols).
        #[test]
        fn simd_and_scalar_replacement_agree_on_valid_streams(
            window in proptest::collection::vec(any::<u8>(), 1..WINDOW_SIZE),
            symbols in proptest::collection::vec(0u16..256, 0..600),
            marker_positions in proptest::collection::vec((0usize..600, 0u16..32768), 0..80),
        ) {
            let mut symbols = symbols;
            if !symbols.is_empty() {
                for (position, offset) in marker_positions {
                    let position = position % symbols.len();
                    let offset = (WINDOW_SIZE - 1 - (offset as usize % window.len())) as u16;
                    symbols[position] = MARKER_BASE + offset;
                }
            }
            assert_simd_matches_scalar(&symbols, &window);
        }

        // The table kernels (all of them, whichever the dispatch picked) and
        // the dispatched entry points, on inputs of a few blocks and of two
        // windows' length: marker density x window length x length, a bad
        // symbol or none.
        #[test]
        fn table_kernels_and_scalar_replacement_agree(
            seed in any::<u64>(),
            density in 0usize..5,
            window_length in prop_oneof![
                Just(0usize), Just(1usize), Just(WINDOW_SIZE - 1), Just(WINDOW_SIZE), 2usize..WINDOW_SIZE
            ],
            length in prop_oneof![0usize..200, 65_496usize..65_576],
            bad in (any::<bool>(), 0usize..65_536, any::<u16>()),
        ) {
            let window: Vec<u8> = (0..window_length).map(|i| (i as u64 ^ seed) as u8).collect();
            let mut symbols =
                symbols_with_markers(length, DENSITIES_PER_MILLE[density], window_length, seed);
            if let ((true, position, symbol), false) = (bad, symbols.is_empty()) {
                let position = position % symbols.len();
                symbols[position] = symbol;
            }
            assert_table_kernels_match_scalar(&symbols, &window);
            assert_simd_matches_scalar(&symbols, &window);
        }

        // The word-mask `mark` must set exactly the bits a bit-at-a-time
        // loop would, clamped at the window end.
        #[test]
        fn mark_sets_exactly_the_clamped_range(
            ranges in proptest::collection::vec((0usize..WINDOW_SIZE + 100, 0usize..700), 1..12),
        ) {
            let mut usage = WindowUsage::new();
            let mut reference = vec![false; WINDOW_SIZE];
            for (offset, length) in ranges {
                usage.mark(offset, length);
                let end = (offset + length).min(WINDOW_SIZE);
                reference[offset.min(end)..end].fill(true);
            }
            prop_assert_eq!(usage.used_bytes(), reference.iter().filter(|&&bit| bit).count());
            for (offset, length) in usage.intervals() {
                let (offset, length) = (offset as usize, length as usize);
                prop_assert!(reference[offset..offset + length].iter().all(|&bit| bit));
            }
        }

        // `resolve_window` must equal the tail of (window ++ full-chunk
        // replacement) for chunks shorter than, longer than, and exactly at
        // WINDOW_SIZE — the short-chunk path computes its window/chunk split
        // up front and must not drop or duplicate a byte at the boundary.
        #[test]
        fn resolve_window_equals_tail_of_full_replacement(
            window_length in prop_oneof![0usize..80, (WINDOW_SIZE - 3)..=WINDOW_SIZE],
            chunk_length in prop_oneof![
                0usize..80,
                (WINDOW_SIZE - 40)..(WINDOW_SIZE + 40),
            ],
            marker_positions in proptest::collection::vec((0usize..40000, 0usize..40000), 0..60),
        ) {
            let window: Vec<u8> = (0..window_length).map(|i| (i % 239) as u8).collect();
            let mut symbols: Vec<u16> =
                (0..chunk_length).map(|i| (i % 256) as u16).collect();
            if !window.is_empty() && !symbols.is_empty() {
                for (position, offset) in marker_positions {
                    let offset = WINDOW_SIZE - 1 - offset % window.len();
                    symbols[position % chunk_length] = MARKER_BASE + offset as u16;
                }
            }
            let resolved = replace_markers(&symbols, &window).unwrap();
            let mut all = window.clone();
            all.extend_from_slice(&resolved);
            let expected = &all[all.len().saturating_sub(WINDOW_SIZE)..];
            prop_assert_eq!(resolve_window(&symbols, &window).unwrap(), expected);
        }

        #[test]
        fn replacement_is_equivalent_to_naive_loop(
            window in proptest::collection::vec(any::<u8>(), 0..WINDOW_SIZE),
            symbols in proptest::collection::vec(0u16..256, 0..500),
            marker_positions in proptest::collection::vec((0usize..500, 0u16..1000), 0..50),
        ) {
            let mut symbols = symbols;
            // Sprinkle in markers that stay within the provided window.
            if !window.is_empty() && !symbols.is_empty() {
                for (position, offset) in marker_positions {
                    let position = position % symbols.len();
                    let offset = (WINDOW_SIZE - 1 - (offset as usize % window.len())) as u16;
                    symbols[position] = MARKER_BASE + offset;
                }
            }
            let resolved = replace_markers(&symbols, &window).unwrap();
            for (i, &symbol) in symbols.iter().enumerate() {
                if symbol < 256 {
                    prop_assert_eq!(resolved[i], symbol as u8);
                } else {
                    let offset = (symbol - MARKER_BASE) as usize;
                    prop_assert_eq!(resolved[i], window[offset - (WINDOW_SIZE - window.len())]);
                }
            }
        }
    }

    /// Whether any symbol in `symbols` is a marker that still needs a window
    /// to be resolved.
    pub(crate) fn contains_markers(symbols: &[u16]) -> bool {
        symbols.iter().any(|&s| s >= MARKER_BASE)
    }

    /// The usage map of a two-stage chunk, read off its marker symbols.
    pub(crate) fn window_usage_of(symbols: &[u16]) -> WindowUsage {
        let mut usage = WindowUsage::new();
        for &symbol in symbols {
            if symbol >= MARKER_BASE {
                usage.mark((symbol - MARKER_BASE) as usize, 1);
            }
        }
        usage
    }
}
