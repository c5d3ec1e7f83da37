//! The sequential first pass and the one table of chunk states: what is
//! decoded ahead of the reader — by the pass, or through the index once there
//! is one ([`crate::indexed`]) — waits here for it, and each of the pass's
//! transitions has the one function that makes it.
//!
//! Only window propagation is sequential (§3.1–3.3): chunk *n* + 1 can be
//! *committed* — given its place in the stream, a seek point, the window its
//! markers resolve against — once chunk *n* has been.  Everything else runs
//! on the pool, the commit included: the worker that finishes the decode of
//! the chunk the pass stands at commits it and every decoded chunk that
//! follows on it ([`Shared::commit_ready`], a 32 KiB window resolve per chunk
//! under the state lock), runs the first of their marker replacements itself
//! and queues the others on the pool's urgent lane.  The reader's own thread
//! decides how far ahead of its read position chunks are decoded, waits for
//! bytes, and hands them on.
//!
//! A chunk is keyed by the bit its decode starts from.  While that is a
//! *guess* — the pass decodes ahead by `chunk_size` ranges of the compressed
//! file, from the first block found in each — it is the first bit of its
//! range; a committed chunk ends at the first block boundary at or after the
//! end of its range, so at most one starts in each.  Once the chunk's own
//! first bit is known — it is committed, or a seek point says so — it is that
//! bit: a seek-point table need not be the pass's own, and may hold many
//! chunks in one range (BGZF members, a foreign index's spacing).
//!
//! ```text
//!            issued ahead            found a block          starts where the
//!            or demanded             (or none)              pass stands
//!   (none) ──────────────► Decoding ──────────► Markered ─────────────► Resolving ──► Ready
//!                             │  │              NoBlock ──► Decoding                    ▲
//!                             │  └─ window handed mid-decode: ─► Markered               │
//!                             │     bytes from there                                    │
//!                             │  the pass stood in its range when the task began:      │
//!                             └──── decoded one-stage with the known window ───────────┘
//! ```
//!
//! A task that finds the pass standing *in* its range when it starts knows
//! its chunk's exact first bit and window, and skips block finder, 16-bit
//! symbols and marker replacement: with one worker that is every chunk, and
//! the pass a serial decode with the writes overlapped.
//!
//! One that started before the pass arrived asks again at every block
//! boundary of its decode ([`Shared::window_for`]; an atomic load while the
//! pass is elsewhere).  Arrived at a bit the decode may have started from
//! ([`StartBits`]: the block found, and for a stored block the zero bits of
//! its padding before it), the pass hands it the window: the decode goes on
//! one-stage, and the chunk enters the table `Markered` like any other — only
//! that most of it is bytes already, the window after it its own tail, and
//! the replacement left to do a prefix.  Arrived anywhere else, the decode is
//! of no use and stops.
//!
//! A speculative chunk the pass cannot use takes one road, whoever finds it
//! — the task that decoded it, or the one that committed the chunk before:
//! into the table, where [`Shared::commit_ready`] counts it wasted and queues
//! the decode from the pass's bit on the urgent lane.  And a chunk's commit
//! ends in one tail, whichever decoder made its bytes ([`Shared::store`]):
//! fold, window records, its points into the seek-point table, then its
//! bytes into the table of chunks.
//!
//! Either way a committed chunk is cut at the first Dynamic or Non-Compressed
//! block boundary a MiB of output past its start or its last cut, the same
//! boundaries whichever decoder ran, and its one point in the reader's
//! seek-point table becomes a point at its start and one at each cut, each
//! with its CRC fragments and the bytes of the 32 KiB before it that the
//! decode recorded the bytes after it referencing — a sparse window, kept
//! undeflated until [`crate::ParallelGzipReader::index`] has the pool
//! compress it.  The table a reader seeks through after its pass is the one
//! it exports; the bytes of a chunk still in the table of chunks serve all of
//! its points.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, MutexGuard};

use rgz_deflate::WindowAnswer;
use rgz_fetcher::Pooled;
use rgz_index::{PointChecksums, SeekPoint};
use rgz_io::FileReader;
use rgz_trace::{Outcome, Stage};

use crate::chunk::{ChunkResult, DirectChunk, Extent, Segment, SpeculativeChunk, StartBits};
use crate::indexed::{interior_points, InteriorPoint};
use crate::reader::{ReaderState, Shared};
use crate::verify::ChunkFragment;
use crate::CoreError;

/// A chunk's decompressed bytes, in a buffer of the reader's
/// [`rgz_fetcher::BufferPool`]: it goes back there when the last holder — the
/// pass's table, the access cache, a read in progress — lets go.
pub(crate) type ChunkBytes = Arc<Pooled<u8>>;

/// Where a chunk decoded ahead of the reader is on its way to it.
pub(crate) enum ChunkState {
    /// A task that will decode it is queued or running.
    Decoding,
    /// Decoded from the first block found in its range, the window unknown;
    /// the chunk before it has not been committed yet.
    Markered(SpeculativeChunk),
    /// Searched, and no block found to start from.
    NoBlock,
    /// Committed; its markers are being replaced, or about to be.
    Resolving,
    /// Committed, all bytes: waiting for the reader.
    Ready(ChunkBytes),
    /// Decoded ahead from its seek point and checked against it: waiting for
    /// the reader.
    Prefetched(ChunkBytes),
    /// Its decode or its marker replacement failed; the reader takes the
    /// error, and the chunk is decoded again if it comes back.
    Failed(CoreError),
}

impl ChunkState {
    /// Whether no task is at work on the chunk any more and none is to come:
    /// the reader can take it, and it can be let go of.
    pub fn is_finished(&self) -> bool {
        matches!(self, Self::Ready(_) | Self::Prefetched(_) | Self::Failed(_))
    }
}

/// State of the sequential first pass.
pub(crate) struct SequentialPass {
    /// Exact bit offset where the next chunk starts.
    pub next_start_bit: u64,
    /// Uncompressed offset of the next chunk.
    pub next_uncompressed_offset: u64,
    /// Window (up to 32 KiB) preceding the next chunk.
    pub window: Arc<Vec<u8>>,
    /// Whether the whole file has been traversed.
    pub finished: bool,
    /// Sequence number of the next committed chunk; orders the CRC fragment
    /// fold, to which chunks report in whatever order their bytes are ready.
    pub next_seq: u64,
    /// Zero-based index of the gzip member the next chunk starts in; recorded
    /// into each seek point's [`PointChecksums`] so random-access mismatches
    /// can name the member.
    pub next_member: u64,
    /// Every chunk between a task submitted for it and the reader taking its
    /// bytes, by the bit its decode starts from: its range's first while that
    /// is a guess (`Decoding`, `Markered`, `NoBlock`), its own once known.
    pub chunks: BTreeMap<u64, ChunkState>,
    /// The first guess no decode has been issued ahead for.
    pub next_unissued: usize,
}

impl SequentialPass {
    pub fn new(finished: bool) -> Self {
        Self {
            next_start_bit: 0,
            next_uncompressed_offset: 0,
            window: Arc::new(Vec::new()),
            finished,
            next_seq: 0,
            next_member: 0,
            chunks: BTreeMap::new(),
            next_unissued: 0,
        }
    }

    /// Whether a committed chunk's markers are still being replaced.
    pub fn is_resolving(&self) -> bool {
        self.chunks
            .values()
            .any(|chunk| matches!(chunk, ChunkState::Resolving))
    }
}

/// Where the pass stands, as the chunk committed there needs it: its seek
/// point's first bit and offset, the window in front of it, its place in the
/// stream-ordered fold and the gzip member it starts in.
struct Position {
    start_bit: u64,
    uncompressed_offset: u64,
    window: Arc<Vec<u8>>,
    seq: u64,
    first_member: u64,
}

impl Position {
    /// Where `pass` stands.
    fn of(pass: &SequentialPass) -> Self {
        Self {
            start_bit: pass.next_start_bit,
            uncompressed_offset: pass.next_uncompressed_offset,
            window: Arc::clone(&pass.window),
            seq: pass.next_seq,
            first_member: pass.next_member,
        }
    }

    /// The seek point of a chunk of `length` bytes committed here.
    fn point(&self, length: u64) -> SeekPoint {
        SeekPoint {
            compressed_bit_offset: self.start_bit,
            uncompressed_offset: self.uncompressed_offset,
            uncompressed_size: length,
        }
    }
}

/// A committed speculative chunk on its way to a marker replacement; its
/// markers point into `at.window`.
pub(crate) struct Replacement {
    at: Position,
    chunk: SpeculativeChunk,
}

/// How many gzip members end in a chunk with these fragments.
fn members_ended(fragments: &[ChunkFragment]) -> u64 {
    fragments.iter().filter(|f| f.trailer.is_some()).count() as u64
}

/// Marks a chunk failed if the task working on it unwinds, so that a reader
/// waiting for the chunk gets an error and not silence.
pub(crate) struct FailOnUnwind<'a> {
    pub shared: &'a Shared,
    /// What the chunk goes by in the table.
    pub key: u64,
}

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let error = std::io::Error::other("a chunk task panicked");
            let failed = ChunkState::Failed(CoreError::Io(error));
            self.shared.finish(self.key, failed);
        }
    }
}

impl Shared {
    fn chunk_bits(&self) -> u64 {
        self.decoder.chunk_size as u64 * 8
    }

    /// The guess a chunk starting at `bit_offset` goes by.
    pub(crate) fn guess_of(&self, bit_offset: u64) -> usize {
        (bit_offset / self.chunk_bits()) as usize
    }

    /// The first bit of range `guess`: what a chunk goes by in the table
    /// while all that is known of it is that it starts there or after.
    fn range_bit(&self, guess: usize) -> u64 {
        guess as u64 * self.chunk_bits()
    }

    pub(crate) fn file_bits(&self) -> u64 {
        self.decoder.reader.size() * 8
    }

    /// Has the chunks after `base` — the guess of the chunk the reader stands
    /// in, or waits for — decoded ahead: a task each for the guesses up to
    /// `base` + the prefetch degree (2 × `parallelization`) that none has
    /// been issued for yet.
    ///
    /// This is what bounds the pass's memory: beyond the chunk being read —
    /// and, for a reader that has sought, the access cache — at most
    /// *degree* chunks are decoded or decoding at
    /// any time, however long the reader takes over a chunk — committed ones
    /// as bytes, one byte per byte; the not yet committed, at most as many as
    /// there are workers and then some, as 16-bit symbols for as far as their
    /// markers live.  (A reader that *skips* chunks — a seek forward, an
    /// index build — has the pass run on without it: of the bytes nobody
    /// comes for, [`Self::ready`] keeps degree + 1 chunks.)
    pub(crate) fn issue_prefetches(self: &Arc<Self>, state: &mut ReaderState, base: usize) {
        if state.pass.finished {
            return;
        }
        let chunk_size = self.decoder.chunk_size;
        let total_chunks = (self.decoder.reader.size() as usize).div_ceil(chunk_size);
        let end = (base + 1 + self.options.prefetch_degree()).min(total_chunks);
        // Ranges the pass has gone past hold no chunk start.
        let first = (base + 1)
            .max(state.pass.next_unissued)
            .max(self.guess_of(state.pass.next_start_bit));
        for guess in first..end {
            if state.pass.chunks.contains_key(&self.range_bit(guess)) {
                continue;
            }
            self.metrics.speculative_issued(self.range_bit(guess));
            self.spawn_chunk_task(state, guess, false);
        }
        state.pass.next_unissued = state.pass.next_unissued.max(end);
    }

    /// Makes sure the chunk the pass stands at is on its way — the reader is
    /// about to wait for it — or returns the error it failed with.
    pub(crate) fn demand_frontier(
        self: &Arc<Self>,
        state: &mut ReaderState,
    ) -> Result<(), CoreError> {
        let guess = self.guess_of(state.pass.next_start_bit);
        let key = self.range_bit(guess);
        match state.pass.chunks.get(&key) {
            None => self.spawn_chunk_task(state, guess, true),
            Some(ChunkState::Failed(_)) => {
                if let Some(ChunkState::Failed(error)) = state.pass.chunks.remove(&key) {
                    return Err(error);
                }
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Queues the decode of the chunk starting in range `guess`: on the
    /// urgent lane if it is `demanded` — the pass stands there and cannot
    /// move until it is done — and behind the decodes issued before it if not.
    fn spawn_chunk_task(self: &Arc<Self>, state: &mut ReaderState, guess: usize, demanded: bool) {
        let key = self.range_bit(guess);
        state.pass.chunks.insert(key, ChunkState::Decoding);
        let shared = Arc::clone(self);
        let task = move || shared.run_chunk_task(guess, demanded);
        // The table, not the handle, is where the result goes.
        drop(if demanded {
            self.spawner.submit_urgent(task)
        } else {
            self.spawner.submit(task)
        });
    }

    /// Records `outcome` — bytes, or an error — as what the task of the chunk
    /// that goes by `key` came to, and wakes the reader.
    pub(crate) fn finish(&self, key: u64, outcome: ChunkState) {
        self.lock().pass.chunks.insert(key, outcome);
        self.progress.notify_all();
    }

    /// Puts the bytes of a chunk the pass has committed where the reader finds
    /// them.  A reader that reads on takes each chunk before degree + 1 more
    /// are committed, which is as far as [`Self::issue_prefetches`] lets the
    /// pass run ahead of it.  One that has gone elsewhere — a seek, an index
    /// build — leaves them lying: of those, the farthest from where it reads
    /// goes, to be decoded again through the index if it does come back, and
    /// checked against the fragments the pass has just stored.
    fn ready(&self, state: &mut ReaderState, start_bit: u64, data: Pooled<u8>) {
        let chunks = &mut state.pass.chunks;
        chunks.insert(start_bit, ChunkState::Ready(Arc::new(data)));
        let ready = chunks
            .iter()
            .filter(|(_, chunk)| matches!(chunk, ChunkState::Ready(_)))
            .map(|(&key, _)| key);
        if ready.clone().count() > self.options.prefetch_degree() + 1 {
            let farthest = ready.max_by_key(|key| key.abs_diff(state.reading_at));
            self.evict(state, farthest.expect("counted above"));
        }
    }

    /// Lets go of a finished chunk the reader has not come for.
    pub(crate) fn evict(&self, state: &mut ReaderState, key: u64) {
        state.pass.chunks.remove(&key);
        self.metrics.evicted(key);
    }

    /// A pool task: decodes the chunk starting in range `guess` whichever way
    /// the pass's position allows *now*, and commits what that makes ready.
    fn run_chunk_task(self: &Arc<Self>, guess: usize, demanded: bool) {
        let key = self.range_bit(guess);
        let _unwinding = FailOnUnwind { shared: self, key };
        let known = {
            let mut state = self.lock();
            let pass = &state.pass;
            let frontier = self.guess_of(pass.next_start_bit);
            if pass.finished || frontier > guess {
                // The chunk before ran past this whole range.
                state.pass.chunks.remove(&key);
                return;
            }
            (frontier == guess).then(|| Position::of(pass))
        };
        let replacements = match known {
            Some(known) => self.decode_known(guess, known, demanded),
            None => self.decode_guessed(guess),
        };
        self.run_replacements(replacements);
    }

    /// What the pass knows of the window in front of `start`, asked by the
    /// speculative decode of range `guess` that started there and has
    /// `decoded` symbols out: nothing, while it stands before the range; the
    /// window, once it stands at a bit `start` admits; and that the decode is
    /// in vain, once it stands anywhere else — in the range, which then
    /// starts at another block than the finder's, or past it.
    ///
    /// Asked at every block boundary, so without the state lock for as long
    /// as the pass is elsewhere: [`Shared::frontier`] follows
    /// `next_start_bit` and publishes nothing — what is handed over is read
    /// under the lock, and the pass cannot leave the range again before this
    /// decode is done.
    fn window_for(
        &self,
        guess: usize,
        start: StartBits,
        decoded: usize,
    ) -> WindowAnswer<Arc<Vec<u8>>> {
        match self.guess_of(self.frontier.load(Relaxed)).cmp(&guess) {
            Ordering::Less => WindowAnswer::Unknown,
            Ordering::Greater => WindowAnswer::Abandon,
            Ordering::Equal => {
                let pass = &self.lock().pass;
                if !start.admit(pass.next_start_bit) {
                    return WindowAnswer::Abandon;
                }
                self.metrics.window_handed(start.found, decoded as u64);
                WindowAnswer::Known(Arc::clone(&pass.window))
            }
        }
    }

    /// Decodes the chunk in range `guess` from the first block found there,
    /// the window unknown until the pass arrives to hand it over, and enters
    /// it into the table for [`Self::commit_ready`] to commit — or to have
    /// decoded again from where the pass arrived, if that is another block.
    fn decode_guessed(self: &Arc<Self>, guess: usize) -> Vec<Replacement> {
        let window = |start, decoded| self.window_for(guess, start, decoded);
        let decoded = self.decoder.decode_speculative(guess, window);
        let key = self.range_bit(guess);
        let mut state = self.lock();
        if state.pass.finished || self.guess_of(state.pass.next_start_bit) > guess {
            state.pass.chunks.remove(&key);
            if let Ok(Some(chunk)) = &decoded {
                self.metrics.speculative_wasted(chunk, false);
            }
            return Vec::new();
        }
        // An error here is not the stream's: the decode from the chunk's true
        // start, which the lack of a result brings about, reports that.
        let decoded = decoded.ok().flatten();
        let decoded = decoded.map_or(ChunkState::NoBlock, ChunkState::Markered);
        state.pass.chunks.insert(key, decoded);
        self.commit_ready(&mut state)
    }

    /// Decodes the chunk in range `guess` from `at`, where the pass stands,
    /// with its window, straight to bytes, and commits it and what follows on
    /// it.
    fn decode_known(
        self: &Arc<Self>,
        guess: usize,
        at: Position,
        demanded: bool,
    ) -> Vec<Replacement> {
        let mut span = self.metrics.stage(Stage::DecodeOneStage, at.start_bit);
        span.set_member(at.first_member);
        let mut result = match self.decoder.decode_at(&DirectChunk {
            start_bit_offset: at.start_bit,
            stop_bit_offset: self.range_bit(guess + 1),
            window: &at.window,
            at_member_start: at.start_bit == 0,
            extent: Extent::Guessed,
            verify: self.verify(),
        }) {
            Ok(result) => result,
            Err(error) => {
                span.set_outcome(Outcome::Error);
                self.finish(self.range_bit(guess), ChunkState::Failed(error));
                return Vec::new();
            }
        };
        span.set_bytes(result.data.len() as u64);
        span.set_compressed_range(at.start_bit / 8, result.end_bit_offset.div_ceil(8));
        span.set_outcome(if result.fast_fallback_blocks > 0 {
            Outcome::Fallback
        } else {
            Outcome::Committed
        });
        drop(span);
        let length = result.data.len() as u64;
        let next_window = result.next_window(&at.window);
        let members_ended = members_ended(&result.fragments);
        let (end_bit, end_of_file) = (result.end_bit_offset, result.reached_end_of_file);
        let usage = std::mem::take(&mut result.window_usage);
        let key = self.range_bit(guess);
        let Some(mut state) = self.store(&at, key, &usage, Ok(result)) else {
            return Vec::new();
        };
        let state = &mut *state;
        debug_assert_eq!(state.pass.next_start_bit, at.start_bit);
        self.metrics
            .known_start_committed(demanded, at.start_bit, at.first_member, length);
        self.advance(
            state,
            end_bit,
            length,
            next_window,
            members_ended,
            end_of_file,
        );
        self.commit_ready(state)
    }

    /// Commits every decoded chunk that starts where the pass stands, until
    /// it stands at one that is not decoded yet, and returns the committed
    /// ones, in stream order, for their markers to be replaced.  A chunk
    /// decoded from somewhere else than where the pass arrived, or not at all
    /// for want of a block to start from, goes back to the pool to be decoded
    /// from there, ahead of everything else: the one road for a speculative
    /// chunk the pass cannot use, wherever the pass found it.
    ///
    /// Every transition of a chunk that others wait for happens under the
    /// state lock and ends here or in [`Self::finish`] or [`Self::replace`]:
    /// all three wake the reader.
    pub(crate) fn commit_ready(self: &Arc<Self>, state: &mut ReaderState) -> Vec<Replacement> {
        let mut replacements = Vec::new();
        while !state.pass.finished {
            let start_bit = state.pass.next_start_bit;
            let guess = self.guess_of(start_bit);
            let key = self.range_bit(guess);
            if !matches!(
                state.pass.chunks.get(&key),
                Some(ChunkState::Markered(_) | ChunkState::NoBlock)
            ) {
                break;
            }
            // What cannot be committed: a chunk decoded from another block
            // than the one the pass arrived at (`StartBits`); one whose
            // markers point outside the data there is, so that not even the
            // window after it resolves; the first chunk, which nothing
            // precedes and which is decoded as what it is, the start of a
            // gzip member.
            let unusable = match state.pass.chunks.remove(&key) {
                Some(ChunkState::Markered(chunk)) => {
                    let next_window = (chunk.start().admit(start_bit) && start_bit != 0)
                        .then(|| chunk.output.next_window(&state.pass.window));
                    if let Some(Ok(next_window)) = next_window {
                        replacements.push(self.commit_speculative(state, chunk, next_window));
                        continue;
                    }
                    Some(chunk)
                }
                _ => None,
            };
            if let Some(chunk) = unusable {
                self.metrics.speculative_wasted(&chunk, true);
            }
            self.spawn_chunk_task(state, guess, true);
            break;
        }
        self.progress.notify_all();
        replacements
    }

    /// Commits `chunk`, decoded from where the pass stands, and moves the
    /// pass to where it ends.  `next_window` is the window for the chunk
    /// after it, resolved from this one's last 32 KiB — all that has to
    /// happen in stream order, and nothing at all once the chunk's byte tail
    /// spans a window.
    fn commit_speculative(
        &self,
        state: &mut ReaderState,
        mut chunk: SpeculativeChunk,
        next_window: Vec<u8>,
    ) -> Replacement {
        let at = Position::of(&state.pass);
        let length = chunk.output.len() as u64;
        let wide_bytes = chunk.output.prefix().len() as u64;
        // The chunk starts where its window's record is keyed: at the pass's
        // bit, which a stored block's padding may put before the finder's.
        chunk.segments[0].bit = at.start_bit;
        // That record follows with the replacement (`Self::replace`), before
        // the chunk leaves `Resolving`.
        state.index.block_map.push(at.point(length));
        self.metrics
            .speculative_committed(at.start_bit, at.first_member, length, wide_bytes);
        state
            .pass
            .chunks
            .insert(at.start_bit, ChunkState::Resolving);
        self.advance(
            state,
            chunk.end_bit_offset,
            length,
            next_window,
            members_ended(&chunk.fragments),
            chunk.reached_end_of_file,
        );
        Replacement { at, chunk }
    }

    /// Moves the pass past the chunk just committed where it stands, and
    /// counts what was decoded ahead in ranges that turn out to hold no chunk
    /// start — the ranges its last block ran past, every range once it was
    /// the file's last — as wasted.
    fn advance(
        &self,
        state: &mut ReaderState,
        end_bit: u64,
        length: u64,
        next_window: Vec<u8>,
        members_ended: u64,
        reached_end_of_file: bool,
    ) {
        let pass = &mut state.pass;
        let committed = self.range_bit(self.guess_of(pass.next_start_bit));
        pass.next_start_bit = end_bit;
        pass.next_uncompressed_offset += length;
        pass.window = Arc::new(next_window);
        pass.next_seq += 1;
        pass.next_member += members_ended;
        let passed = if reached_end_of_file || end_bit >= self.file_bits() {
            pass.finished = true;
            self.frontier.store(u64::MAX, Relaxed);
            // Every decode from here on is direct: the symbol buffers the
            // last marker replacements give back are no use to anyone.
            self.decoder.buffers.retire_symbols();
            Bound::Unbounded
        } else {
            self.frontier.store(end_bit, Relaxed);
            Bound::Excluded(self.range_bit(self.guess_of(end_bit)))
        };
        // Tasks still at work there count themselves when they are done.
        let stale: Vec<u64> = state
            .pass
            .chunks
            .range((Bound::Excluded(committed), passed))
            .filter(|(_, chunk)| matches!(chunk, ChunkState::Markered(_) | ChunkState::NoBlock))
            .map(|(&key, _)| key)
            .collect();
        for key in stale {
            if let Some(ChunkState::Markered(chunk)) = state.pass.chunks.remove(&key) {
                self.metrics.speculative_wasted(&chunk, false);
            }
        }
    }

    /// Hands a committed chunk's member fragments to the stream-ordered fold
    /// and returns what the index keeps of them for its seek point; neither
    /// without verification.
    fn fold_fragments(
        &self,
        start_bit: u64,
        seq: u64,
        first_member: u64,
        fragments: Vec<ChunkFragment>,
    ) -> Option<PointChecksums> {
        if !self.verify() {
            return None;
        }
        let checksums = PointChecksums::from_fragments(
            first_member,
            fragments.iter().map(|f| (f.crc32, f.length)),
        );
        let _fold = self.metrics.stage(Stage::CrcFold, start_bit);
        self.verifier.lock().submit(seq, fragments);
        Some(checksums)
    }

    /// The seek points `chunk`, just committed, is split into if its decode
    /// cut it: its own, up to the first cut, and one at each cut, with the
    /// CRC fragments of their bytes if the pass hashes; none if it was not
    /// cut.  Each cut's window — the bytes of the 32 KiB of `data` before it
    /// that the bytes after it reference — goes into the map here, before
    /// the cut can be read through, as a sparse record whose deflate waits
    /// for `index()` ([`Self::compress_windows`]).
    fn cut(
        &self,
        chunk: &SeekPoint,
        first_member: u64,
        data: &[u8],
        segments: Vec<Segment>,
    ) -> Vec<InteriorPoint> {
        if segments.len() < 2 {
            return Vec::new();
        }
        let first_member = self.verify().then_some(first_member);
        let mut points = interior_points(chunk, first_member, segments, data);
        for cut in &mut points {
            if let Some(window) = &cut.window {
                self.windows
                    .insert_compressed(cut.point.compressed_bit_offset, window.record());
            }
            // Trimmed of empty trailing pieces, as the chunk's own are.
            cut.checksums = cut.checksums.take().map(|checksums| {
                let fragments = checksums.fragments.iter();
                PointChecksums::from_fragments(
                    checksums.first_member,
                    fragments.map(|fragment| (fragment.crc32, fragment.length)),
                )
            });
        }
        points
    }

    /// Compresses the windows at `keys`, put into the map undeflated by
    /// [`Self::cut`], on the pool — a share per worker, each
    /// window once — and waits for them.
    pub(crate) fn compress_windows(&self, keys: Vec<u64>) {
        let share = keys.len().div_ceil(self.options.parallelization.max(1));
        let tasks: Vec<_> = keys
            .chunks(share.max(1))
            .map(|keys| {
                let (windows, keys) = (self.windows.clone(), keys.to_vec());
                self.spawner.submit(move || {
                    for key in keys {
                        let record = windows.get_compressed(key);
                        if let Some(compressed) = record.and_then(|record| record.recompressed()) {
                            windows.insert_compressed(key, compressed);
                        }
                    }
                })
            })
            .collect();
        for task in tasks {
            task.wait();
        }
    }

    /// Replaces the markers of the first of `replacements` on this thread,
    /// the one the reader needs first, and leaves the others to whichever
    /// worker is free first — this one, if the others stay busy.
    fn run_replacements(self: &Arc<Self>, replacements: Vec<Replacement>) {
        let mut replacements = replacements.into_iter();
        let Some(first) = replacements.next() else {
            return;
        };
        for replacement in replacements {
            let shared = Arc::clone(self);
            drop(
                self.spawner
                    .submit_urgent(move || shared.replace(replacement)),
            );
        }
        self.replace(first);
    }

    /// Marker replacement of a committed chunk (§2.2): 16-bit symbols to the
    /// bytes the reader is waiting for, hashed per member and cut while they
    /// are hot, and stored.
    fn replace(&self, replacement: Replacement) {
        let Replacement { at, mut chunk } = replacement;
        let _unwinding = FailOnUnwind {
            shared: self,
            key: at.start_bit,
        };
        let usage = std::mem::take(&mut chunk.window_usage);
        let mut span = self.metrics.stage(Stage::MarkerReplace, at.start_bit);
        span.set_member(at.first_member);
        span.set_bytes(chunk.output.len() as u64);
        let resolved = chunk.resolve(&at.window, self.verify());
        span.set_outcome(match resolved {
            Ok(_) => Outcome::Committed,
            Err(_) => Outcome::Error,
        });
        drop(span);
        if let Some(state) = self.store(&at, at.start_bit, &usage, resolved) {
            drop(state);
            self.progress.notify_all();
        }
    }

    /// The end of every commit, whichever decoder made `decoded` of the
    /// chunk committed at `at`.  Outside the state lock: the seek point's
    /// window record — the bytes of `at.window` that `usage` says the chunk
    /// references — into the map, before the point can be read through, and
    /// whether or not the decode failed, for a speculative chunk's point is
    /// in the index either way; the chunk's fragments into the fold; its cuts'
    /// windows into the map.  Then, under the lock, its points and their
    /// checksums into the index — its cuts in place of its one point — and
    /// its bytes into the table in place of `key`, what it went by until now.
    /// Returns the state, still locked, or `None` if the chunk failed: the
    /// error then waits under `key`, and the chunk's point stays whole.
    fn store(
        &self,
        at: &Position,
        key: u64,
        usage: &[(u32, u32)],
        decoded: Result<ChunkResult, CoreError>,
    ) -> Option<MutexGuard<'_, ReaderState>> {
        self.windows.insert_sparse(at.start_bit, &at.window, usage);
        let mut result = match decoded {
            Ok(result) => result,
            Err(error) => {
                self.finish(key, ChunkState::Failed(error));
                return None;
            }
        };
        // Into the fold before anyone can see the bytes: a reader that has
        // them all has every member checked.
        let fragments = std::mem::take(&mut result.fragments);
        let checksums = self.fold_fragments(at.start_bit, at.seq, at.first_member, fragments);
        let point = at.point(result.data.len() as u64);
        let segments = std::mem::take(&mut result.segments);
        let cuts = self.cut(&point, at.first_member, &result.data, segments);
        let mut guard = self.lock();
        let state = &mut *guard;
        let index = &mut state.index;
        // A speculative chunk's point entered the table at its commit; one
        // decoded from where the pass stands is committed now.
        if state.pass.next_start_bit == at.start_bit {
            index.block_map.push(point);
        }
        if let Some(checksums) = checksums {
            index.checksum_map.insert(at.start_bit, checksums);
        }
        if !cuts.is_empty() {
            state.window_tally.add(&cuts);
            let mut points = Vec::with_capacity(cuts.len());
            for cut in cuts {
                if let Some(checksums) = cut.checksums {
                    index
                        .checksum_map
                        .insert(cut.point.compressed_bit_offset, checksums);
                }
                points.push(cut.point);
            }
            let keys = points[1..].iter().map(|point| point.compressed_bit_offset);
            state.undeflated_cuts.extend(keys);
            index.block_map.split(points);
        }
        state.pass.chunks.remove(&key);
        self.ready(state, at.start_bit, result.data);
        Some(guard)
    }
}
