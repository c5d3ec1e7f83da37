//! Reading through a seek-point table, imported or built by the pass: every
//! chunk's first bit, window, length and (format v3) the CRC fragments of its
//! bytes are known before its decode starts, so there is one way to decode it
//! ([`Shared::decode_indexed`]) and three occasions — the reader asks for a
//! chunk nobody has, and decodes it on its own thread; a read of a chunk
//! before it prefetches it, and a pool task puts it into the pass's table of
//! chunks (`Decoding` → `Prefetched` | `Failed`) for the reader to find; or the
//! reader jumps into a chunk decoded before — a read after a seek that moved
//! the position, into a chunk it did not last take whole — and decodes only the
//! *slice* of it that the read is of.  Unlike a speculative decode these are *exact*
//! chunks: each starts at a real seek point and stops at the next one, so
//! none is wasted on a misguessed boundary.
//!
//! **Slices.**  A chunk is the unit of parallel work, and for a seek the
//! wrong one: megabytes decoded for the kilobytes asked for.  So a chunk's
//! whole decode — its *first touch*, always, whichever of the first two
//! occasions it is — harvests [`InteriorPoint`]s at block boundaries: the
//! bit, and the CRC-32 of the bytes up to the next, hashed *instead of* the
//! whole chunk and folded (`crc32_combine`, a microsecond) into the very
//! fragments the index's are compared with.  Those [`window_spacing`] bytes
//! of output or more apart also keep a sparse window: the bytes of the 32
//! KiB before them that the decode recorded the 32 KiB after them
//! referencing, as runs — a ninth of the window or so on text, FASTQ and
//! base64 alike — rebuilt with zeros between them for a slice that starts
//! at one of them (or at the chunk's own point).  That spacing is a MiB
//! unless the first touch serves a read that jumped, or decodes a chunk
//! whose points are held already, through a complete table: then it is the
//! closest at which the windows of every chunk of the table fit the budget
//! below together, at the mean bytes the windows of the reader's cuts have
//! held so far ([`WindowTally`]; a whole window's before the first), so a
//! slice starts within [`STOP_SPACING`] or so of a read on a table of a few
//! hundred MiB instead of up to a MiB — while a pass that reads on from chunk
//! to chunk keeps no windows nobody would start from.
//! Between them, *stop points* at every block boundary 64 KiB or more past
//! the last cut keep no window, a hundred bytes each, and are where a slice
//! ends: at the first point past the read.  An interior point is therefore
//! what a seek point is — and taken only from bytes that had just passed
//! every check the index affords, which is why first touches stay whole:
//! with a v3 index, no byte is ever served that was not hashed against a CRC
//! that chains back to the file's own.  The run of points around a later
//! read makes an [`IndexedChunk`] like any other, for the same
//! `decode_indexed`.  The tables are the reader's own, in memory only.  What
//! the seek-point table holds instead are the pass's cuts: the same rule at a
//! MiB, with no stop points, so a table the pass built is a point every MiB
//! or so, in the reader that built it as in one that imports it.  A point
//! inside a chunk the pass's table of chunks or the access cache holds is read
//! from that chunk's bytes ([`holder`]), never decoded again from a cut.
//!
//! **What random access keeps** follows one rule, a [`Cache`] each: the
//! interior points of the chunks decoded whole, and the bytes of the chunks
//! read whole last by a reader that has sought (the access cache), are kept
//! until they weigh more than [`cache_budget`] bytes, `resolved_cache_chunks
//! × chunk_size`, and then the least recently used chunk's go first — never
//! those just kept.  A chunk's points weigh the bytes their sparse windows
//! hold, runs and bounds, and are not kept at all if they alone weigh more;
//! its bytes weigh the compressed bytes from its seek point to the next, and
//! are kept however many those are: three or four of the pass's chunks fit,
//! dozens of points a MiB of output apart.  A reader that never sought — a stream, which
//! does not come back — keeps no chunk's bytes past the read it is in.
//!
//! [`Cache`]: crate::cache::Cache
//! [`cache_budget`]: crate::ParallelGzipReaderOptions::cache_budget

use std::ops::Range;
use std::sync::Arc;

use rgz_index::{PointChecksums, SeekPoint, WINDOW_SIZE};
use rgz_trace::{Outcome, Stage};
use rgz_window::SparseWindow;

use crate::chunk::{DirectChunk, Extent, Segment, INTERIOR_SPACING};
use crate::pass::{ChunkBytes, ChunkState, FailOnUnwind};
use crate::reader::{ReaderState, Shared};
use crate::verify::check_point_fragments;
use crate::CoreError;

/// What the index says of a chunk, besides its window.
pub(crate) struct IndexedChunk {
    pub point: SeekPoint,
    /// Where the next chunk starts.
    stop_bit: u64,
    /// The fragments its bytes must hash to, if the index stores them and
    /// the reader verifies.
    pub checksums: Option<Arc<PointChecksums>>,
    /// [`Extent::Chunk`], or [`Extent::Slice`] for a run of interior points.
    extent: Extent,
}

/// A seek point inside a chunk, harvested from its whole decode; the first
/// of a chunk's is the chunk's own.
pub(crate) struct InteriorPoint {
    /// Where it is, and how far it is to the next.
    pub point: SeekPoint,
    /// The bytes of the 32 KiB before it that the bytes after it reference,
    /// if a slice may start here.  The index has the window of a chunk's own
    /// point, and a slice from there inflates it anew: the budget below has
    /// no room for a copy of a chunk's window beside those of its interior
    /// points.  A stop point has none: a slice only ends there.
    pub window: Option<Arc<SparseWindow>>,
    /// What the bytes up to the next hash to, if the chunk's were checked.
    pub checksums: Option<PointChecksums>,
}

/// The points `segments` cut `data` at: the bytes of the chunk at `chunk`,
/// its first in gzip member `first_member` if they were hashed.
pub(crate) fn interior_points(
    chunk: &SeekPoint,
    first_member: Option<u64>,
    segments: Vec<Segment>,
    data: &[u8],
) -> Vec<InteriorPoint> {
    let ends: Vec<usize> = segments[1..].iter().map(|next| next.offset).collect();
    segments
        .into_iter()
        .zip(ends.into_iter().chain([data.len()]))
        .map(|(segment, end)| InteriorPoint {
            point: SeekPoint {
                compressed_bit_offset: segment.bit,
                uncompressed_offset: chunk.uncompressed_offset + segment.offset as u64,
                uncompressed_size: (end - segment.offset) as u64,
            },
            window: segment.windowed.then(|| {
                let before = segment.offset.saturating_sub(WINDOW_SIZE)..segment.offset;
                Arc::new(SparseWindow::new(&data[before], &segment.usage))
            }),
            checksums: first_member.map(|first_member| PointChecksums {
                first_member: first_member + segment.member,
                fragments: segment.pieces,
            }),
        })
        .collect()
}

/// How far apart in a chunk's bytes its interior points of either kind are,
/// at least: how far past a read a slice may decode, less a block.
const STOP_SPACING: usize = 64 << 10;

/// The spacing of windowed interior points at which those of every chunk of
/// a table of `covered` bytes of output fit `budget` bytes of window
/// together — `window_bytes` of window per spacing — no closer than a stop
/// point's and no further apart than [`INTERIOR_SPACING`].
fn window_spacing(covered: u64, budget: usize, window_bytes: usize) -> usize {
    let spacing = (window_bytes as u128 * u128::from(covered)).div_ceil(budget.max(1) as u128);
    spacing.clamp(STOP_SPACING as u128, INTERIOR_SPACING as u128) as usize
}

/// What the windows of the cuts a reader has made hold — the pass's and
/// those of its whole decodes through the table — and how many there were:
/// the bytes a windowed interior point costs, on average.
#[derive(Debug, Default)]
pub(crate) struct WindowTally {
    bytes: u64,
    windows: u64,
}

impl WindowTally {
    /// Counts the windows of `points` in.
    pub fn add(&mut self, points: &[InteriorPoint]) {
        for window in points.iter().filter_map(|point| point.window.as_ref()) {
            self.bytes += window.held_bytes() as u64;
            self.windows += 1;
        }
    }

    /// The mean bytes a window holds; a whole window's before the first.
    fn mean(&self) -> usize {
        match self.windows {
            0 => WINDOW_SIZE,
            windows => self.bytes.div_ceil(windows) as usize,
        }
    }
}

/// The index of the first point of `points` at bit `key` that has bytes, if
/// any: a point of no bytes may share its bit with the next.
pub(crate) fn point_at(points: &[SeekPoint], key: u64) -> Option<usize> {
    let first = points.partition_point(|point| point.compressed_bit_offset < key);
    let mut at = points[first..]
        .iter()
        .take_while(|p| p.compressed_bit_offset == key);
    Some(first + at.position(|point| point.uncompressed_size > 0)?)
}

/// The first bit past `key` of the points of `state`'s table from the
/// `next`th on — points are sorted by compressed offset (enforced on import)
/// — or, past the last, the file's end or where a pass under way stands.
fn stop_bit(state: &ReaderState, next: usize, key: u64) -> u64 {
    let points = state.index.block_map.points().iter().skip(next);
    let end = if state.pass.finished {
        u64::MAX
    } else {
        state.pass.next_start_bit
    };
    let mut bits = points.map(|point| point.compressed_bit_offset);
    bits.find(|&bit| bit > key).unwrap_or(end)
}

/// The points of `points` whose bytes are the `length` from the `first`th's
/// on, and at least that one.
fn spanned(points: &[SeekPoint], first: usize, length: usize) -> Range<usize> {
    let end = points[first].uncompressed_offset + length as u64;
    let count = points[first..].partition_point(|point| point.uncompressed_offset < end);
    first..first + count.max(1)
}

/// The points of the table whose bytes are held with the `index`th's, if
/// someone holds them: the chunk of the pass's table or of the access cache
/// whose bytes they are — one of the pass's holds those of its cuts — or a
/// decode of the point that failed, which holds its error.
pub(crate) fn holder(state: &ReaderState, index: usize) -> Option<Range<usize>> {
    let points = state.index.block_map.points();
    let key = points[index].compressed_bit_offset;
    let mut decoded = state.pass.chunks.range(..=key).rev();
    let decoded = decoded.find_map(|(&first, chunk)| match chunk {
        ChunkState::Ready(data) | ChunkState::Prefetched(data) => Some((first, data.len())),
        ChunkState::Failed(_) if first == key => Some((first, 0)),
        _ => None,
    });
    let cached = state.resolved_cache.at_or_before(key);
    let cached = cached.map(|(first, data)| (first, data.len()));
    let (first, length) = decoded
        .into_iter()
        .chain(cached)
        .max_by_key(|held| held.0)?;
    let held = spanned(points, point_at(points, first)?, length);
    held.contains(&index).then_some(held)
}

/// A slice to decode, and the window it starts with unless the index has it.
pub(crate) type Slice = (IndexedChunk, Option<Arc<SparseWindow>>);

impl IndexedChunk {
    /// The interior points that `segments` cut `data`, this chunk's bytes,
    /// just checked, at.
    fn interior_points(&self, segments: Vec<Segment>, data: &[u8]) -> Vec<InteriorPoint> {
        let first_member = self.checksums.as_ref().map(|whole| whole.first_member);
        interior_points(&self.point, first_member, segments, data)
    }

    /// The run of `points`, all of this chunk's, around the bytes `wanted`:
    /// from the last windowed point (or the chunk's own) at or before them to
    /// the first point of either kind at or past their end.
    fn slice(&self, points: &[InteriorPoint], wanted: Range<u64>) -> Slice {
        let before = |offset: u64| points.partition_point(|p| p.point.uncompressed_offset < offset);
        let first = points[..before(wanted.start + 1)]
            .iter()
            .rposition(|point| point.window.is_some())
            .unwrap_or(0);
        let end = before(wanted.end).max(first + 1);
        let run = &points[first..end];
        let checksums = run[0].checksums.clone().map(|mut merged| {
            for next in run[1..].iter().filter_map(|point| point.checksums.as_ref()) {
                merged.append(next);
            }
            Arc::new(merged)
        });
        let point = SeekPoint {
            uncompressed_size: run.iter().map(|p| p.point.uncompressed_size).sum(),
            ..run[0].point.clone()
        };
        let stop_bit = points
            .get(end)
            .map_or(self.stop_bit, |next| next.point.compressed_bit_offset);
        let slice = IndexedChunk {
            point,
            stop_bit,
            checksums,
            extent: Extent::Slice,
        };
        (slice, run[0].window.clone())
    }
}

impl Shared {
    /// Keeps `data`, the bytes from the seek point at `key` on that a reader
    /// which has sought took whole, in the access cache, weighed by the
    /// compressed bytes from that point to the first past them: a chunk of
    /// the pass weighs all of its own, however many points it was cut into,
    /// and a table of points a MiB of output apart keeps as many as span four
    /// of the pass's chunks.
    pub(crate) fn keep_resolved(&self, state: &mut ReaderState, key: u64, data: ChunkBytes) {
        let points = state.index.block_map.points();
        let first = point_at(points, key).expect("bytes taken start at a point");
        let past = spanned(points, first, data.len()).end;
        let span = stop_bit(state, past, key)
            .min(self.file_bits())
            .saturating_sub(key)
            / 8;
        let cache = &mut state.resolved_cache;
        cache.insert(key, data, span);
        // Only an insert evicts.
        self.metrics.access_cache_held(cache.len(), cache.weight());
    }

    /// The `index`th chunk of the seek-point table, for a read that `jumped`
    /// or not.  Through a complete table, a whole decode for one that did —
    /// or of a chunk whose interior points are held already: a reader that
    /// comes back to a chunk is seeking, and its windows were paid for —
    /// keeps its windowed interior points as close as [`window_spacing`] lets
    /// them be, at the mean bytes the windows of the reader's cuts hold.
    pub(crate) fn indexed_chunk(
        &self,
        state: &ReaderState,
        index: usize,
        jumped: bool,
    ) -> IndexedChunk {
        let points = state.index.block_map.points();
        let point = points[index].clone();
        let key = point.compressed_bit_offset;
        let stop_bit = stop_bit(state, index + 1, key);
        let checksums = if self.verify() {
            state.index.checksum_map.get(key)
        } else {
            None
        };
        let seeking = jumped || state.interior.contains(key);
        let window_spacing = if seeking && state.pass.finished {
            let covered = state.index.block_map.uncompressed_size();
            let window_bytes = state.window_tally.mean();
            window_spacing(covered, self.options.cache_budget(), window_bytes)
        } else {
            INTERIOR_SPACING
        };
        IndexedChunk {
            point,
            stop_bit,
            checksums,
            extent: Extent::Chunk {
                window_spacing,
                stop_spacing: STOP_SPACING,
            },
        }
    }

    /// What to decode instead of the whole `index`th chunk for a read of the
    /// bytes `wanted` there that jumps into it — follows a seek that moved
    /// the position, into a chunk other than the one the last read took
    /// whole (a read that goes on from where the last one ended, or stays in
    /// a chunk taken whole, takes the chunk whole) — and whose bytes nobody
    /// holds ([`holder`]): nothing, unless its interior points are known.  A
    /// jump served this way issues no prefetch, and does not wait for one of
    /// its chunk under way.
    pub(crate) fn plan_slice(
        &self,
        state: &mut ReaderState,
        index: usize,
        wanted: Range<u64>,
    ) -> Option<Slice> {
        let key = state.index.block_map.points()[index].compressed_bit_offset;
        let points = state.interior.get(key)?;
        Some(
            self.indexed_chunk(state, index, true)
                .slice(&points, wanted),
        )
    }

    /// Keeps `points`, the interior points of the chunk at `key`, weighed by
    /// the bytes of window they hold — unless they alone weigh more than the
    /// budget — and counts their windows into the tally.
    fn keep_interior_points(&self, key: u64, points: Vec<InteriorPoint>) {
        let windows = points.iter().filter_map(|point| point.window.as_ref());
        let weight: usize = windows.map(|window| window.held_bytes()).sum();
        let state = &mut *self.lock();
        state.window_tally.add(&points);
        if weight > self.options.cache_budget() {
            return;
        }
        state.interior.insert(key, Arc::new(points), weight as u64);
        self.metrics
            .interior_windows_held(state.interior.weight() as usize);
    }

    /// Decodes `chunk` from its seek point — with `window`, an interior
    /// point's own, rebuilt from its runs with zeros between them, or else
    /// the one the index's map inflates — and holds the
    /// bytes against everything the index says of them: `stage` is
    /// [`Stage::PrefetchDecode`] on the pool, ahead of the reader, and
    /// [`Stage::RandomAccess`] on the reader's own thread, chunk or slice.
    ///
    /// Chunks decoded through the index are not folded into the stream
    /// verification; instead, when the index stores per-point CRC fragments
    /// (format v3), the bytes are hashed and compared against them.  Without
    /// (v1/v2 files, foreign imports) the decode completes unverified, and
    /// the reader counts it as such once it has the bytes.
    pub(crate) fn decode_indexed(
        &self,
        stage: Stage,
        chunk: &IndexedChunk,
        window: Option<Arc<SparseWindow>>,
    ) -> Result<ChunkBytes, CoreError> {
        let key = chunk.point.compressed_bit_offset;
        let mut span = self.metrics.stage(stage, key);
        if let Some(checksums) = &chunk.checksums {
            span.set_member(checksums.first_member);
        }
        let decoded = (|| {
            let window = match window {
                Some(window) => Arc::new(window.window()),
                None => self.windows.try_get(key)?.unwrap_or_default(),
            };
            if let Extent::Chunk { .. } = chunk.extent {
                // The index says how long the chunk is: its bytes' buffer is
                // taken at that length, not grown to it in the decode's hands
                // — and at no more than its bits could inflate to (a 258-byte
                // match per two bits), whatever the index claims.
                let bits = chunk.stop_bit.min(self.file_bits()).saturating_sub(key);
                let most = (bits / 2).saturating_mul(258);
                let length = chunk.point.uncompressed_size.min(most);
                self.decoder
                    .buffers
                    .note_bytes(usize::try_from(length).unwrap_or(usize::MAX));
            }
            let result = self.decoder.decode_at(&DirectChunk {
                start_bit_offset: key,
                stop_bit_offset: chunk.stop_bit,
                window: &window,
                at_member_start: key == 0,
                extent: chunk.extent,
                verify: chunk.checksums.is_some(),
            })?;
            span.set_bytes(result.data.len() as u64);
            span.set_compressed_range(key / 8, result.end_bit_offset.div_ceil(8));
            if result.data.len() as u64 != chunk.point.uncompressed_size {
                return Err(CoreError::IndexMismatch {
                    compressed_bit_offset: key,
                });
            }
            if let Some(checksums) = &chunk.checksums {
                check_point_fragments(checksums, &result.fragments)?;
            }
            // Stop points alone start no slice.
            if result.segments.iter().any(|segment| segment.windowed) {
                let points = chunk.interior_points(result.segments, &result.data);
                self.keep_interior_points(key, points);
            }
            Ok(result.data)
        })();
        span.set_outcome(match decoded {
            Ok(_) => Outcome::Committed,
            Err(_) => Outcome::Error,
        });
        decoded.map(Arc::new)
    }

    /// Puts the chunks to decode ahead, now that the reader takes the bytes
    /// of the points `taken` of the table whole, on the pool, each entered
    /// into the table as `Decoding`: none if they are those read `last`
    /// (another read in them says nothing new) or the read `jumped` into a
    /// chunk of the access cache (a tour back to where it was, which decodes
    /// nothing: at points a MiB apart, most of a random tour's reads), the
    /// one after them if the read otherwise `jumped` — its interior points
    /// kept as a jump's are — and else the prefetch degree's after them —
    /// those neither in the table nor in the access cache.  A chunk there
    /// counts once, however many points it holds, and a point of no bytes not
    /// at all: past a pass's end, the chunks a stream is about to read are
    /// those it prefetches.
    ///
    /// Active only once a complete seek-point table exists.
    pub(crate) fn issue_index_prefetches(
        self: &Arc<Self>,
        state: &mut ReaderState,
        taken: Range<usize>,
        last: Option<u64>,
        jumped: bool,
    ) {
        let points = state.index.block_map.points();
        let key = points[taken.start].compressed_bit_offset;
        let revisit = jumped && state.resolved_cache.contains(key);
        if !state.pass.finished || last == Some(key) || revisit {
            return;
        }
        let degree = self.options.prefetch_degree();
        let count = if jumped { 1 } else { degree };
        let mut targets = Vec::new();
        let mut next = taken.end;
        while targets.len() < count && next < points.len() {
            // A point of no bytes, such as a chunk's cut at an empty last
            // block, has nothing to decode.
            if points[next].uncompressed_size == 0 {
                next += 1;
                continue;
            }
            let held = holder(state, next).unwrap_or(next..next + 1);
            targets.push(held.start);
            next = held.end.max(next + 1);
        }
        let targeted = targets
            .iter()
            .map(|&index| points[index].compressed_bit_offset);
        let wanted: Vec<u64> = targeted.chain([key]).collect();

        // Cap the decoded-but-unconsumed backlog: let go of finished chunks
        // that are neither this read's nor among those it prefetches (random
        // access moved elsewhere) — the pass's last chunks wait here for a
        // first read that follows it closely, beside the tasks of the ranges
        // it ran past.
        if state.pass.chunks.len() >= degree.saturating_mul(2) {
            let elsewhere: Vec<u64> = state
                .pass
                .chunks
                .iter()
                .filter(|(key, chunk)| chunk.is_finished() && !wanted.contains(key))
                .map(|(&key, _)| key)
                .collect();
            for key in elsewhere {
                self.evict(state, key);
            }
            if state.pass.chunks.len() >= degree.saturating_mul(2) {
                return;
            }
        }

        let planned: Vec<IndexedChunk> = targets
            .into_iter()
            .map(|index| self.indexed_chunk(state, index, jumped))
            .filter(|chunk| {
                let key = chunk.point.compressed_bit_offset;
                !state.pass.chunks.contains_key(&key) && !state.resolved_cache.contains(key)
            })
            .collect();
        for chunk in planned {
            let key = chunk.point.compressed_bit_offset;
            state.pass.chunks.insert(key, ChunkState::Decoding);
            self.metrics
                .index_prefetch_issued(key, chunk.point.uncompressed_size);
            let shared = Arc::clone(self);
            // The table, not the handle, is where the result goes.
            drop(
                self.spawner
                    .submit(move || shared.run_prefetch_task(&chunk)),
            );
        }
    }

    /// A pool task: decodes `chunk` ahead of the reader and enters the bytes,
    /// or why there are none, into the table.
    fn run_prefetch_task(&self, chunk: &IndexedChunk) {
        let key = chunk.point.compressed_bit_offset;
        let _unwinding = FailOnUnwind { shared: self, key };
        let decoded = self.decode_indexed(Stage::PrefetchDecode, chunk, None);
        self.finish(
            key,
            match decoded {
                Ok(data) => ChunkState::Prefetched(data),
                Err(error) => ChunkState::Failed(error),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkDecoder, ChunkResult};
    use crate::metrics::ReaderMetrics;
    use rgz_deflate::{CompressionLevel, CompressorOptions};
    use rgz_fetcher::BufferPool;
    use rgz_gzip::GzipWriter;
    use rgz_io::SharedFileReader;
    use rgz_metrics::MetricsRegistry;
    use rgz_trace::TraceSink;

    /// Where the chunk of the tests below starts in the stream.
    const CHUNK_START: u64 = 7_000_000;

    /// A chunk of one to four members, decoded whole with the two spacings
    /// given, and the interior points harvested from it.
    struct Harvest {
        data: Vec<u8>,
        decoder: ChunkDecoder,
        whole: IndexedChunk,
        points: Vec<InteriorPoint>,
    }

    impl Harvest {
        /// Members of `member_lengths` bytes of the three corpora, compressed
        /// in blocks of `block_kib` KiB at one of four levels, or (`layout`
        /// 4) pigz-like with empty stored blocks between the others: points
        /// of no bytes.
        fn new(
            seed: u64,
            member_lengths: &[usize],
            block_kib: usize,
            layout: usize,
            window_spacing: usize,
            stop_spacing: usize,
        ) -> Self {
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
            let data = parts.concat();
            let levels = [
                CompressionLevel::Stored,
                CompressionLevel::Huffman,
                CompressionLevel::Fast,
                CompressionLevel::Default,
            ];
            let writer = GzipWriter::new(CompressorOptions {
                level: levels[layout % 4],
                block_size: block_kib * 1024,
                ..Default::default()
            });
            let compressed = match layout {
                4 => writer.compress_pigz_like(&data, block_kib * 3000),
                _ => writer.compress_members(&parts),
            };
            let decoder = ChunkDecoder {
                reader: SharedFileReader::from_bytes(compressed),
                chunk_size: 1 << 20,
                buffers: BufferPool::new(1, &MetricsRegistry::new()),
                metrics: Arc::new(ReaderMetrics::register(
                    &Arc::default(),
                    TraceSink::shared_disabled(),
                )),
                largest_overrun: Arc::default(),
            };
            let whole = IndexedChunk {
                point: SeekPoint {
                    compressed_bit_offset: 0,
                    uncompressed_offset: CHUNK_START,
                    uncompressed_size: data.len() as u64,
                },
                stop_bit: u64::MAX,
                checksums: None,
                extent: Extent::Chunk {
                    window_spacing,
                    stop_spacing,
                },
            };
            let mut harvest = Self {
                data,
                decoder,
                whole,
                points: Vec::new(),
            };
            let result = harvest.decode(&harvest.whole, &[]);
            assert!(result.data[..] == harvest.data[..]);
            let fragments = result.fragments.iter().map(|f| (f.crc32, f.length));
            let checksums = PointChecksums::from_fragments(3, fragments);
            harvest.whole.checksums = Some(Arc::new(checksums));
            harvest.points = harvest.whole.interior_points(result.segments, &result.data);
            harvest
        }

        fn decode(&self, chunk: &IndexedChunk, window: &[u8]) -> ChunkResult {
            self.decoder
                .decode_at(&DirectChunk {
                    start_bit_offset: chunk.point.compressed_bit_offset,
                    stop_bit_offset: chunk.stop_bit,
                    window,
                    at_member_start: chunk.point.compressed_bit_offset == 0,
                    extent: chunk.extent,
                    verify: true,
                })
                .unwrap()
        }

        /// Whether a slice may start at the `index`th point.
        fn starts_a_slice(&self, index: usize) -> bool {
            index == 0 || self.points[index].window.is_some()
        }

        /// Decodes the slice of the points around `wanted` and checks that it
        /// is exactly its stretch of the chunk, hashed as its merged pieces
        /// say; returns the slice.
        fn check_slice(&self, wanted: Range<u64>) -> Result<IndexedChunk, String> {
            let (slice, window) = self.whole.slice(&self.points, wanted.clone());
            let window = window.map(|window| window.window()).unwrap_or_default();
            let sliced = self.decode(&slice, &window);
            let stretch = (slice.point.uncompressed_offset - CHUNK_START) as usize..;
            if sliced.data[..] != self.data[stretch][..sliced.data.len()] {
                return Err(format!("{wanted:?}: not its stretch"));
            }
            if sliced.data.len() as u64 != slice.point.uncompressed_size {
                return Err(format!("{wanted:?}: {} bytes", sliced.data.len()));
            }
            let checksums = slice.checksums.as_ref().unwrap();
            check_point_fragments(checksums, &sliced.fragments)
                .map_err(|_| format!("{wanted:?}: {checksums:?} vs {:?}", sliced.fragments))?;
            Ok(slice)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Whatever blocks and members a chunk is made of, and wherever that
        /// puts its interior points: the CRCs harvested with them fold to
        /// the chunk's own fragments (or the whole decode would not have
        /// passed), and every run of them a slice can be — from a windowed
        /// point or the chunk's own, to any point after — decodes, through
        /// the same `decode_at`, to exactly its stretch of the chunk's bytes
        /// and hashes to what its merged pieces say.
        #[test]
        fn every_run_of_interior_points_is_its_stretch_of_the_chunk(
            seed in 0u64..1_000_000,
            member_lengths in proptest::collection::vec(0usize..300_000, 1..5),
            block_size in 1usize..48,
            spacings in (1usize..150, 1usize..40),
            layout in 0usize..5,
        ) {
            let harvest = Harvest::new(
                seed,
                &member_lengths,
                block_size,
                layout,
                spacings.0 * 1024,
                spacings.1 * 1024,
            );
            let points = &harvest.points;
            for first in (0..points.len()).filter(|&index| harvest.starts_a_slice(index)) {
                for last in first..points.len() {
                    let from = points[first].point.uncompressed_offset;
                    let to = points[last].point.uncompressed_offset
                        + points[last].point.uncompressed_size.max(1);
                    let slice = harvest
                        .check_slice(from..to)
                        .map_err(|error| format!("points {first}..={last}: {error}"))
                        .unwrap();
                    if (first, last) == (0, points.len() - 1) {
                        let sliced = harvest.decode(&slice, &[]);
                        let stored = harvest.whole.checksums.as_ref().unwrap();
                        proptest::prop_assert!(
                            check_point_fragments(stored, &sliced.fragments).is_ok()
                        );
                    }
                }
            }
        }

        /// A read of any bytes of the chunk gets the slice from the last
        /// windowed point (or the chunk's own) at or before its first byte to
        /// the first point of either kind at or past its end — the chunk's
        /// end if none is — and that slice is exactly its stretch.
        #[test]
        fn a_slice_runs_from_a_windowed_point_to_the_first_point_past_the_read(
            seed in 0u64..1_000_000,
            member_lengths in proptest::collection::vec(1usize..300_000, 1..4),
            block_size in 1usize..32,
            spacings in (1usize..150, 1usize..40),
            layout in 0usize..5,
            reads in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32), 1..8),
        ) {
            let harvest = Harvest::new(
                seed,
                &member_lengths,
                block_size,
                layout,
                spacings.0 * 1024,
                spacings.1 * 1024,
            );
            let points = &harvest.points;
            let length = harvest.data.len() as u64;
            for (start, reach) in reads {
                let start = start % length;
                let end = start + 1 + reach % (length - start).min(200_000);
                let wanted = CHUNK_START + start..CHUNK_START + end;
                let slice = harvest.check_slice(wanted.clone()).unwrap();
                let from = slice.point.uncompressed_offset;
                let to = from + slice.point.uncompressed_size;
                proptest::prop_assert!(from <= wanted.start && to >= wanted.end, "{:?}", wanted);
                let first = points
                    .iter()
                    .position(|point| point.point.uncompressed_offset == from)
                    .unwrap();
                proptest::prop_assert!(harvest.starts_a_slice(first));
                let later_start = (first + 1..points.len()).find(|&index| {
                    harvest.starts_a_slice(index)
                        && points[index].point.uncompressed_offset <= wanted.start
                });
                proptest::prop_assert_eq!(later_start, None, "{:?}", wanted);
                let stop = points
                    .iter()
                    .map(|point| point.point.uncompressed_offset)
                    .find(|&offset| offset >= wanted.end)
                    .unwrap_or(CHUNK_START + length);
                proptest::prop_assert_eq!(to, stop, "{:?}", wanted);
            }
        }
    }

    #[test]
    fn windows_are_spaced_so_that_a_whole_table_fits_the_budget() {
        // The ledger's seek file: 159.4 MB of output, a 4-chunk cache of 4 MiB
        // chunks.  A whole window every 304 KiB, 32 KiB each, is 16 MiB of
        // window; sparse ones of ~5 KB each fit at every stop point.
        assert_eq!(window_spacing(159_383_552, 16 << 20, WINDOW_SIZE), 311_296);
        assert_eq!(window_spacing(159_383_552, 16 << 20, 5_000), STOP_SPACING);
        assert_eq!(window_spacing(159_383_552, 16 << 20, 8_000), 76_000);
        // A small file could keep a window at every stop point...
        assert_eq!(
            window_spacing(1_000_000, 16 << 20, WINDOW_SIZE),
            STOP_SPACING
        );
        assert_eq!(window_spacing(0, 16 << 20, WINDOW_SIZE), STOP_SPACING);
        // ...and a large one keeps them a MiB apart, as a pass does.
        assert_eq!(
            window_spacing(1 << 30, 16 << 20, WINDOW_SIZE),
            INTERIOR_SPACING
        );
        assert_eq!(window_spacing(u64::MAX, 1, 1), INTERIOR_SPACING);
        // The mean of no window is a whole one.
        let mut tally = WindowTally::default();
        assert_eq!(tally.mean(), WINDOW_SIZE);
        let point = |window: Option<SparseWindow>| InteriorPoint {
            point: SeekPoint {
                compressed_bit_offset: 0,
                uncompressed_offset: 0,
                uncompressed_size: 0,
            },
            window: window.map(Arc::new),
            checksums: None,
        };
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| i as u8).collect();
        let sparse = |usage| Some(SparseWindow::new(&window, usage));
        tally.add(&[
            point(sparse(&[(0, 1000)])),
            point(None),
            point(sparse(&[(100, 10), (200, 10)])),
        ]);
        assert_eq!(tally.mean(), (1000 + 4 + 20 + 8_u64).div_ceil(2) as usize);
    }

    #[test]
    fn stop_points_leave_the_windowed_points_where_one_cut_a_mib_put_them() {
        // The parent rule cut at the first Dynamic or Stored boundary a MiB
        // of output or more past the last cut, and nowhere else.  Stop
        // points in between must not move those cuts, or the windows a
        // budget holds would be others.
        for (seed, block_kib, layout) in [(1u64, 16, 3), (2, 7, 2), (3, 40, 1), (4, 5, 4)] {
            let lengths = [3 << 20, 500_000, 2 << 20];
            let both = Harvest::new(
                seed,
                &lengths,
                block_kib,
                layout,
                INTERIOR_SPACING,
                STOP_SPACING,
            );
            let parent = Harvest::new(
                seed,
                &lengths,
                block_kib,
                layout,
                INTERIOR_SPACING,
                usize::MAX,
            );
            // Where each windowed point is, and its window.
            let windowed = |harvest: &Harvest| {
                let points = harvest.points.iter();
                let windowed = points.filter_map(|point| {
                    let at = &point.point;
                    let window = point.window.as_deref()?;
                    Some((
                        at.compressed_bit_offset,
                        at.uncompressed_offset,
                        window.clone(),
                    ))
                });
                windowed.collect::<Vec<_>>()
            };
            assert!(windowed(&parent).len() >= 3, "seed {seed}");
            assert_eq!(
                parent.points.len(),
                windowed(&parent).len() + 1,
                "seed {seed}"
            );
            assert!(windowed(&both) == windowed(&parent), "seed {seed}");
            assert!(both.points.len() > 4 * parent.points.len(), "seed {seed}");
        }
    }
}
