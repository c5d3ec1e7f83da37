//! The `ParallelGzipReader`: orchestration of speculative chunk
//! decompression, marker resolution, index construction and random access.

use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use rgz_fetcher::{BufferPool, Pooled, Spawner, ThreadPool};
use rgz_index::{GzipIndex, WindowMap, WindowStoreStatistics};
use rgz_io::{FileReader, SharedFileReader};
use rgz_metrics::MetricsRegistry;
use rgz_trace::{Stage, TraceSink};

use crate::cache::Cache;
use crate::chunk::ChunkDecoder;
use crate::indexed::{holder, point_at, InteriorPoint, WindowTally};
use crate::metrics::ReaderMetrics;
use crate::pass::{ChunkBytes, ChunkState, SequentialPass};
use crate::verify::{StreamVerifier, VerificationMode, VerificationStatistics};
use crate::{CoreError, DEFAULT_CHUNK_SIZE};

/// Configuration of a [`ParallelGzipReader`].
#[derive(Debug, Clone)]
pub struct ParallelGzipReaderOptions {
    /// Number of worker threads; every chunk of the sequential pass is decoded
    /// on one of them, none on the reader's own.  Defaults to the number of
    /// logical CPUs.
    pub parallelization: usize,
    /// Compressed chunk size in bytes (the paper's default is 4 MiB).
    pub chunk_size: usize,
    /// Times `chunk_size`, the budget of what random access keeps
    /// ([`Self::cache_budget`]): the compressed bytes the chunks in the cache
    /// of resolved chunks may span — this many of the pass's own, more of a
    /// finer index's — and the bytes of window the interior seek points of
    /// chunks decoded whole through an index may hold, which slices of them
    /// start from.  Only a reader that has sought fills the cache of
    /// resolved chunks: one that streams holds the chunk it reads and none
    /// behind it.
    pub resolved_cache_chunks: usize,
    /// Whether to verify member CRC-32s and ISIZEs during the sequential
    /// pass.  [`VerificationMode::Full`] (the default) hashes every
    /// decompressed byte on the worker threads and folds the per-chunk CRCs
    /// in stream order with `crc32_combine`.
    pub verification: VerificationMode,
    /// Structured event sink every pipeline stage records into.  `None` (the
    /// default) uses the process-wide disabled sink, whose per-record cost is
    /// a single atomic load.
    pub trace: Option<Arc<TraceSink>>,
    /// Metrics registry the reader and every layer below it — worker pool,
    /// buffer pool, window map, the compressed input — register their
    /// series on.  `None` (the default) gives the reader one of its own,
    /// with the same series; see [`ParallelGzipReader::metrics`].
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ParallelGzipReaderOptions {
    fn default() -> Self {
        Self {
            parallelization: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            chunk_size: DEFAULT_CHUNK_SIZE,
            resolved_cache_chunks: 4,
            verification: VerificationMode::default(),
            trace: None,
            metrics: None,
        }
    }
}

impl ParallelGzipReaderOptions {
    /// Convenience constructor fixing the degree of parallelism.
    pub fn with_parallelization(parallelization: usize) -> Self {
        Self {
            parallelization: parallelization.max(1),
            ..Default::default()
        }
    }

    /// Sets the compressed chunk size; a reader takes no less than 4 KiB.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(MIN_CHUNK_SIZE);
        self
    }

    /// Sets the checksum verification mode.
    pub fn with_verification(mut self, verification: VerificationMode) -> Self {
        self.verification = verification;
        self
    }

    /// Attaches a trace sink; every pipeline stage records spans into it.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a metrics registry; every pipeline layer registers and
    /// updates its counters, gauges and latency histograms on it.
    ///
    /// The registry is the unit of aggregation: readers that share one add to
    /// the same series, and [`ParallelGzipReader::statistics`] of each reports
    /// the registry's totals, not the one reader's share.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The budget of what random access keeps, in bytes:
    /// `resolved_cache_chunks × chunk_size` of compressed span in the access
    /// cache, which only a reader that has sought fills, and as many bytes
    /// of interior windows.
    pub fn cache_budget(&self) -> usize {
        self.resolved_cache_chunks.max(1) * self.chunk_size
    }

    /// How many chunks ahead of the last access to prefetch: twice the
    /// parallelization, the paper's prefetch cache sizing.
    pub(crate) fn prefetch_degree(&self) -> usize {
        (self.parallelization * 2).max(1)
    }
}

/// What a `chunk_size` below it, zero included, is raised to.
const MIN_CHUNK_SIZE: usize = 4 * 1024;

/// Counters describing how the parallel reader behaved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReaderStatistics {
    /// Chunks whose speculative result was used.
    pub speculative_chunks_used: u64,
    /// Chunks decoded because the pass could not go on without: the first
    /// one, and those whose speculative decode started from the wrong block
    /// (a false positive) or found none.
    pub on_demand_chunks: u64,
    /// Chunks issued as speculative decodes whose exact start and window
    /// were known by the time a worker began them — the chunk before was
    /// already committed — and which decoded one-stage instead: no block
    /// finder, no markers, no replacement.  With one worker, every chunk but
    /// the on-demand ones.
    pub window_known_chunks: u64,
    /// Speculative results that did not match the required offset (block
    /// finder false positives or boundary mismatches).
    pub speculative_mismatches: u64,
    /// Speculative prefetch tasks submitted to the pool.
    pub prefetches_issued: u64,
    /// Chunks decoded directly from the index fast path.
    pub index_chunks: u64,
    /// Index-aligned prefetch tasks submitted once a seek-point table was
    /// available (imported or built by the first pass).  Unlike speculative
    /// prefetches these decode exact chunks, so none of them is wasted on a
    /// misguessed boundary.
    pub index_prefetches_issued: u64,
    /// Reads that found their chunk already decoded (or decoding) by an
    /// index-aligned prefetch.
    pub index_prefetch_hits: u64,
    /// Reads that jumped into a chunk decoded whole before and were served
    /// by decoding a slice of it, from one of its interior seek points.  Not
    /// among `index_chunks`, nor the verified or unverified: a slice is as
    /// checked as the chunk it is of.
    pub index_slices: u64,
    /// The bytes those slices decoded to.
    pub index_slice_bytes: u64,
    /// Index fast-path chunks whose decoded bytes were checked against the
    /// CRC fragments stored in a v3 index.
    pub index_chunks_verified: u64,
    /// Index fast-path chunks served without stored fragments (v1/v2 files,
    /// foreign imports) — completed *unverified* even under
    /// [`VerificationMode::Full`].
    pub index_chunks_unverified: u64,
    /// Speculatively decoded chunks whose result was discarded without ever
    /// being committed: block-finder false positives consumed at a boundary
    /// mismatch, plus finished results that became stale once the sequential
    /// pass moved past them.
    pub speculative_chunks_wasted: u64,
    /// Output symbols (1:1 with uncompressed bytes) decoded in vain by the
    /// wasted speculative chunks above — the paper's speculation-waste cost,
    /// previously invisible.
    pub speculative_bytes_wasted: u64,
    /// Bytes of committed speculative chunks that had to be decoded as 16-bit
    /// marker symbols: the window was unknown and markers were still alive.
    pub speculative_bytes_u16: u64,
    /// Bytes of the same chunks decoded straight to `u8` at one-stage speed,
    /// after their last 32 KiB had become marker-free, a gzip member had
    /// ended, or the pass had handed the decode its window.  A low share here
    /// is why a speculative decode was slow.
    pub speculative_bytes_u8: u64,
    /// Speculative decodes the pass reached while they were under way and
    /// handed their window, to finish one-stage.
    pub speculative_chunks_handed: u64,
    /// Tasks currently waiting in the worker pool's queue (the gauge as it
    /// stands when [`ParallelGzipReader::statistics`] is called).
    pub pool_queue_depth: u64,
    /// Tasks currently executing on a worker thread (likewise).
    pub pool_tasks_inflight: u64,
    /// Total tasks ever submitted to the worker pool.
    pub pool_tasks_submitted: u64,
}

/// The most bytes [`ParallelGzipReader::decompress_to`] hands its writer in
/// one call.
const HAND_OVER_BYTES: usize = 1 << 20;

pub(crate) struct ReaderState {
    /// The reader's own seek-point table, and the one it exports: the index
    /// imported, or the pass's — a point at each chunk's start and at each
    /// cut of it, a MiB of output or so apart, once the chunk is stored (see
    /// [`crate::pass`]).
    pub index: GzipIndex,
    /// The pass's cuts whose sparse windows wait in the map, undeflated, for
    /// [`ParallelGzipReader::index`] to compress them.
    pub undeflated_cuts: Vec<u64>,
    /// The sequential pass and its table of chunks: the prefetch cache,
    /// everything decoded ahead of the reader, through the index too.
    pub pass: SequentialPass,
    /// The access cache: the chunks the reader took whole last, once it has
    /// sought (a reader that never did keeps none), keyed like the table by
    /// compressed bit offset — where a read that comes back to one finds it
    /// — and weighed by the compressed bytes from their seek point to the
    /// next.
    pub resolved_cache: Cache<Pooled<u8>>,
    /// First bit of the chunk of the last read that reached this state (one
    /// inside the bytes the reader holds reaches none), `u64::MAX` if that
    /// was one the pass has yet to reach.
    pub reading_at: u64,
    /// The interior seek points of the chunks decoded whole through the
    /// index, by the chunk's first bit, weighed by the bytes of window they
    /// hold: see [`crate::indexed`].
    pub interior: Cache<Vec<InteriorPoint>>,
    /// What the windows of the reader's cuts hold, on average: how close
    /// together a table's interior windows fit the budget.
    pub window_tally: WindowTally,
}

/// What the reader shares with the tasks it has on the pool.  Nothing in
/// here owns a thread — the pool is reached through a [`Spawner`] — so
/// whichever thread drops the last reference, a worker finishing a task of a
/// reader that is gone included, joins nothing.
pub(crate) struct Shared {
    pub options: ParallelGzipReaderOptions,
    /// The compressed input, the chunk size and the chunk buffers — compressed
    /// ranges, 16-bit symbols, decompressed bytes — recycled from chunk to
    /// chunk.
    pub decoder: ChunkDecoder,
    pub spawner: Spawner,
    /// The index's windows (a clone of `state.index.window_map`, the same
    /// records): stored by the worker that commits a chunk and read by every
    /// decode from a seek point, neither under the state lock.
    pub windows: WindowMap,
    /// One method per reader event, every sink behind it: the trace, and the
    /// registry the statistics are read back from — the one attached, or the
    /// reader's own — which the layers below count into as well.
    pub metrics: Arc<ReaderMetrics>,
    /// Stream-ordered CRC fold; a chunk's fragments go in on the worker that
    /// produced its bytes, before the reader can see them.
    pub verifier: parking_lot::Mutex<StreamVerifier>,
    state: Mutex<ReaderState>,
    /// Where the pass stands: `next_start_bit` as [`Shared::advance`] last
    /// set it, `u64::MAX` once the pass has finished — for the decodes under
    /// way ahead of it, which look at every block boundary.
    pub frontier: AtomicU64,
    /// Signalled whenever the pass moved or a chunk's bytes or failure
    /// arrived: everything the reader's thread waits for.
    pub progress: Condvar,
}

impl Shared {
    /// A panic under this lock is a panic of a chunk task, which fails its
    /// chunk on the way out; the table is whole after every statement that
    /// touches it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ReaderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether chunks hash their bytes for the verifier.
    pub(crate) fn verify(&self) -> bool {
        self.options.verification == VerificationMode::Full
    }

    /// Waits for [`Self::progress`].
    fn wait<'a>(&self, state: MutexGuard<'a, ReaderState>) -> MutexGuard<'a, ReaderState> {
        self.progress
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parallel decompression of and random access to a gzip file.
///
/// See the crate-level documentation for an overview of the architecture.
pub struct ParallelGzipReader {
    /// Held for its drop, and declared before `shared`: when the reader goes,
    /// the workers finish what is queued first, and what they leave behind is
    /// freed here.
    _pool: ThreadPool,
    shared: Arc<Shared>,
    /// Current logical read position in the decompressed stream.
    position: u64,
    // Where the reader is, four facts that decide each read: one inside
    // `held` is answered from it without the state lock; one that `jumped`
    // may be a slice (`Shared::plan_slice` declines a chunk the access cache
    // holds, which a chunk taken whole by a reader that has `sought` is
    // until others push it out); any other takes its chunk whole, with as
    // many after it prefetched as `last` and `jumped` say
    // (`Shared::issue_index_prefetches`).  A reader that never sought holds
    // the chunk it reads and nothing behind it.
    /// The bytes the last read came from — a whole chunk or a slice — and
    /// the offset of their first byte, until a read elsewhere.
    held: Option<(u64, ChunkBytes)>,
    /// The first bit of the bytes the last read that reached the table took
    /// (a chunk's, or the point a slice is of).
    last: Option<u64>,
    /// Whether a seek has moved `position` since the last read: the next
    /// read is a jump.
    jumped: bool,
    /// Whether a seek has ever moved `position`: only then does a chunk
    /// taken whole enter the access cache, for a read that comes back.
    sought: bool,
}

impl std::fmt::Debug for ParallelGzipReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelGzipReader")
            .field("compressed_size", &self.reader().size())
            .field("position", &self.position)
            .finish()
    }
}

impl ParallelGzipReader {
    /// Creates a reader over any [`SharedFileReader`].
    pub fn new(
        reader: SharedFileReader,
        options: ParallelGzipReaderOptions,
    ) -> Result<Self, CoreError> {
        let mut index = GzipIndex::new();
        index.compressed_size = reader.size();
        Ok(Self::build(
            reader,
            options,
            index,
            SequentialPass::new(false),
        ))
    }

    /// The reader of `reader` that goes on from `pass` with `index`: the one
    /// place its trace sink and its registry — the ones attached, or else the
    /// disabled sink and a registry of its own — are handed to the layers
    /// below, the input, both pools, the window map and the verifier.
    fn build(
        reader: SharedFileReader,
        mut options: ParallelGzipReaderOptions,
        index: GzipIndex,
        pass: SequentialPass,
    ) -> Self {
        let parallelization = options.parallelization.max(1);
        options.chunk_size = options.chunk_size.max(MIN_CHUNK_SIZE);
        let trace = options
            .trace
            .clone()
            .unwrap_or_else(TraceSink::shared_disabled);
        let registry = options.metrics.clone().unwrap_or_default();
        let metrics = Arc::new(ReaderMetrics::register(&registry, trace.clone()));
        index.window_map.attach(&trace, &registry);
        let pool = ThreadPool::new_observed(parallelization, trace, Arc::clone(&registry));
        let budget = options.cache_budget() as u64;
        Self {
            shared: Arc::new(Shared {
                decoder: ChunkDecoder {
                    reader: reader.instrumented(&registry),
                    chunk_size: options.chunk_size,
                    buffers: BufferPool::new(parallelization, &registry),
                    metrics: Arc::clone(&metrics),
                    largest_overrun: Arc::default(),
                },
                spawner: pool.spawner(),
                windows: index.window_map.clone(),
                verifier: parking_lot::Mutex::new(StreamVerifier::new(
                    options.verification,
                    metrics.verify_member.clone(),
                )),
                metrics,
                state: Mutex::new(ReaderState {
                    index,
                    undeflated_cuts: Vec::new(),
                    pass,
                    resolved_cache: Cache::new(budget),
                    reading_at: 0,
                    interior: Cache::new(budget),
                    window_tally: WindowTally::default(),
                }),
                frontier: AtomicU64::new(0),
                progress: Condvar::new(),
                options,
            }),
            _pool: pool,
            position: 0,
            held: None,
            last: None,
            jumped: false,
            sought: false,
        }
    }

    /// Creates a reader over an in-memory compressed buffer.
    pub fn from_bytes(
        data: impl Into<bytes::Bytes>,
        options: ParallelGzipReaderOptions,
    ) -> Result<Self, CoreError> {
        Self::new(SharedFileReader::from_bytes(data.into()), options)
    }

    /// Opens a gzip file from a path.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        options: ParallelGzipReaderOptions,
    ) -> Result<Self, CoreError> {
        Self::new(SharedFileReader::open(path)?, options)
    }

    /// Creates a reader that uses an existing index, enabling the fast path
    /// (direct decoding with stored windows, balanced work distribution,
    /// constant-time seeks) from the start.
    pub fn with_index(
        reader: SharedFileReader,
        options: ParallelGzipReaderOptions,
        mut index: GzipIndex,
    ) -> Result<Self, CoreError> {
        if index.uncompressed_size == 0 {
            index.uncompressed_size = index.effective_uncompressed_size();
        }
        // Some foreign formats (gztool) record no compressed size, so an
        // imported index may carry 0; re-exports must still write the real
        // file size.
        if index.compressed_size == 0 {
            index.compressed_size = reader.size();
        }
        let mut pass = SequentialPass::new(true);
        pass.next_uncompressed_offset = index.uncompressed_size;
        let this = Self::build(reader, options, index, pass);
        // Nothing is decoded speculatively through an index.
        this.buffers().retire_symbols();
        Ok(this)
    }

    fn reader(&self) -> &SharedFileReader {
        &self.shared.decoder.reader
    }

    fn buffers(&self) -> &BufferPool {
        &self.shared.decoder.buffers
    }

    /// The options this reader was created with.
    pub fn options(&self) -> &ParallelGzipReaderOptions {
        &self.shared.options
    }

    /// The trace sink this reader records into (the process-wide disabled
    /// sink unless one was attached via the options).
    pub fn trace(&self) -> &Arc<TraceSink> {
        self.shared.metrics.trace()
    }

    /// Behaviour counters, read back from [`Self::metrics`].
    pub fn statistics(&self) -> ReaderStatistics {
        self.shared.metrics.statistics()
    }

    /// The metrics registry this reader and the layers below it record into:
    /// the one attached via the options, or else the reader's own.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics.registry
    }

    /// Memory counters of the seek-point window map (compressed window
    /// bytes vs. the raw bytes of the same windows).
    pub fn window_statistics(&self) -> WindowStoreStatistics {
        self.shared.windows.statistics()
    }

    /// Counters of the checksum verification pipeline: members verified,
    /// bytes hashed, the running whole-stream CRC-32, and — for the random
    /// access fast path — how many chunk decodes were checked against a v3
    /// index's stored CRC fragments versus served unverified (v1/v2 files,
    /// foreign imports and v3 files without fragments carry none).
    pub fn verification_statistics(&self) -> VerificationStatistics {
        let mut statistics = self.shared.verifier.lock().statistics();
        let reader_statistics = self.shared.metrics.statistics();
        statistics.index_chunks_verified = reader_statistics.index_chunks_verified;
        statistics.index_chunks_unverified = reader_statistics.index_chunks_unverified;
        statistics
    }

    /// Errors with the first recorded member-trailer mismatch, if any.
    fn check_verification(&self) -> Result<(), CoreError> {
        if !self.shared.verify() {
            return Ok(());
        }
        self.shared.verifier.lock().check()
    }

    /// Total decompressed size, if already known (i.e. after a full pass or
    /// when an index was imported).
    pub fn uncompressed_size(&self) -> Option<u64> {
        let state = self.shared.lock();
        if state.pass.finished {
            Some(state.index.block_map.uncompressed_size())
        } else {
            None
        }
    }

    /// Returns a copy of the index built so far: the reader's own table.
    /// Call after reading the whole stream (or
    /// [`ParallelGzipReader::build_full_index`]) to get a complete index
    /// suitable for export.
    ///
    /// The pass's chunks come split at their cuts: a seek point at the first
    /// Dynamic or Non-Compressed block a MiB of output or more past the
    /// chunk's start or the last cut, each with its window and the CRC
    /// fragments of its bytes — so that a read through the index decodes a
    /// MiB or so, not a chunk, here as in a reader that imports it.  The
    /// cuts' windows are sparse, the bytes before each that the MiB after it
    /// references; kept undeflated since the pass, they are compressed on the
    /// pool before this returns, once.
    pub fn index(&self) -> GzipIndex {
        let mut state = self.shared.lock();
        // Wait for the marker replacements in flight first: each one records
        // its seek point's CRC fragments and cuts as it finishes, and an
        // export taken before that would silently lose verification data for
        // the last chunks.
        while state.pass.is_resolving() {
            state = self.shared.wait(state);
        }
        state.index.uncompressed_size = state.index.block_map.uncompressed_size();
        let index = state.index.clone();
        let cuts = std::mem::take(&mut state.undeflated_cuts);
        drop(state);
        // The index shares the map: an export finds them compressed.
        self.shared.compress_windows(cuts);
        index
    }

    /// Runs the sequential pass to the end of the file (if not already done)
    /// so that the index covers the whole stream, then returns it.
    pub fn build_full_index(&mut self) -> Result<GzipIndex, CoreError> {
        self.finish_pass()?;
        Ok(self.index())
    }

    /// Decompresses the whole stream into memory.
    ///
    /// Unlike going through the `Read` implementation, this preserves typed
    /// [`CoreError`]s — in particular [`CoreError::ChecksumMismatch`] names
    /// the offending member instead of being flattened into an I/O error.
    pub fn decompress_all(&mut self) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::new();
        self.decompress_to(&mut out)?;
        Ok(out)
    }

    /// Decompresses the whole stream into a writer, returning the number of
    /// bytes written.
    pub fn decompress_to(&mut self, writer: &mut impl std::io::Write) -> Result<u64, CoreError> {
        self.position = 0;
        self.jumped = false;
        // The writer gets the chunks' own bytes, a slice at a time.
        while let Some((data, offset)) = self.chunk_at_position(HAND_OVER_BYTES)? {
            let end = data.len().min(offset + HAND_OVER_BYTES);
            writer.write_all(&data[offset..end])?;
            self.position += (end - offset) as u64;
        }
        Ok(self.position)
    }

    // --- sequential pass ------------------------------------------------

    /// Waits until the sequential pass has committed one more chunk,
    /// extending the index — the workers do that, see [`crate::pass`]; this
    /// thread only sees to it that the chunk the pass stands at and the ones
    /// after it are on the pool.
    fn advance_one_chunk(&self) -> Result<(), CoreError> {
        let shared = &self.shared;
        let mut state = shared.lock();
        let waiting_for = state.pass.next_seq;
        while !state.pass.finished && state.pass.next_seq == waiting_for {
            shared.demand_frontier(&mut state)?;
            // The chunk this thread waits for is the one it stands in.
            let frontier = shared.guess_of(state.pass.next_start_bit);
            shared.issue_prefetches(&mut state, frontier);
            state = shared.wait(state);
        }
        drop(state);
        // Surface any mismatch the fold has found so far.
        self.check_verification()
    }

    /// Runs the sequential pass to the end of the file.
    fn finish_pass(&self) -> Result<(), CoreError> {
        while !self.shared.lock().pass.finished {
            self.advance_one_chunk()?;
        }
        Ok(())
    }

    // --- serving reads ----------------------------------------------------

    /// The bytes from the seek point at bit `key` on: out of the access
    /// cache; out of the table, once the decode or marker replacement they
    /// may be in there is done; or, if nobody has them, decoded here and now
    /// from the point, as a read that [`Self::jumped`] or not.  The bytes
    /// enter the access cache if the reader has [`Self::sought`].
    fn chunk_bytes<'a>(
        &'a self,
        mut state: MutexGuard<'a, ReaderState>,
        key: u64,
    ) -> Result<ChunkBytes, CoreError> {
        let shared = &self.shared;
        if let Some(cached) = state.resolved_cache.get(key) {
            return Ok(cached);
        }
        while let Some(ChunkState::Decoding | ChunkState::Resolving) = state.pass.chunks.get(&key) {
            state = shared.wait(state);
        }
        let taken = match state.pass.chunks.get(&key) {
            Some(chunk) if chunk.is_finished() => state.pass.chunks.remove(&key),
            _ => None,
        };
        // Only a reader that seeks comes back; a stream lets each chunk's
        // buffer go back to the pool once it has read on.
        let keep = |state: &mut ReaderState, data: &ChunkBytes| {
            if self.sought {
                shared.keep_resolved(state, key, Arc::clone(data));
            }
        };
        let data = match taken {
            Some(ChunkState::Ready(data)) => {
                keep(&mut state, &data);
                drop(state);
                // The worker that produced these bytes has handed their CRC
                // fragments in; fail the read if the fold caught a trailer
                // mismatch.
                self.check_verification()?;
                return Ok(data);
            }
            Some(ChunkState::Failed(error)) => return Err(error),
            Some(ChunkState::Prefetched(data)) => {
                shared.metrics.prefetch_hit(key);
                data
            }
            // Nobody has it: decoded on this thread, with the stored window
            // lazily re-inflated from its compressed record — from the point
            // as it stands now that this thread has waited, after the cuts of
            // a chunk stored meanwhile.
            _ => {
                let points = state.index.block_map.points();
                let index = point_at(points, key).expect("a point at a read's bit");
                let chunk = shared.indexed_chunk(&state, index, self.jumped);
                drop(state);
                shared.metrics.prefetch_miss(key);
                let data = shared.decode_indexed(Stage::RandomAccess, &chunk, None)?;
                state = shared.lock();
                data
            }
        };
        // One more chunk out of the index, every check there was passed.
        let checked = shared.verify() && state.index.checksum_map.contains(key);
        shared
            .metrics
            .index_chunk_served(data.len() as u64, checked, shared.verify());
        keep(&mut state, &data);
        Ok(data)
    }

    /// The bytes holding the current position — a chunk's, or a slice of
    /// one, for a read of `wanted` bytes that jumps into a point whose bytes
    /// nobody holds but whose interior points are known (see
    /// [`Shared::plan_slice`]) — and the position's offset in them,
    /// advancing the sequential pass as far as that takes; `None` at the end
    /// of the stream.
    fn chunk_at_position(
        &mut self,
        wanted: usize,
    ) -> Result<Option<(ChunkBytes, usize)>, CoreError> {
        match &self.held {
            Some((start, data))
                if (*start..*start + data.len() as u64).contains(&self.position) =>
            {
                return Ok(Some((Arc::clone(data), (self.position - start) as usize)));
            }
            // Let go of first: a slice's buffer is a chunk's, not to be held
            // beside the next one.
            _ => self.held = None,
        }
        let shared = Arc::clone(&self.shared);
        loop {
            let mut state = shared.lock();
            let Some(index) = state.index.block_map.find(self.position) else {
                // The index does not (yet) cover the position.
                let finished = state.pass.finished;
                state.reading_at = u64::MAX;
                drop(state);
                if finished {
                    // End of stream: a sequential pass has taken every chunk's
                    // bytes by now, so a corrupt trailer anywhere must have been
                    // folded and is reported here at the latest.
                    self.check_verification()?;
                    return Ok(None);
                }
                self.advance_one_chunk()?;
                continue;
            };
            // A point inside a chunk the table of chunks or the access cache
            // holds is read from that chunk's bytes.
            let held = holder(&state, index);
            let taken = held.clone().unwrap_or(index..index + 1);
            let point = &state.index.block_map.points()[taken.start];
            let (key, start) = (point.compressed_bit_offset, point.uncompressed_offset);
            state.reading_at = key;
            let reach = self.position..self.position.saturating_add(wanted as u64);
            let planned = if self.jumped && held.is_none() {
                shared.plan_slice(&mut state, index, reach)
            } else {
                None
            };
            let last = self.last.replace(key);
            let (start, data) = match planned {
                Some((slice, window)) => {
                    drop(state);
                    let data = shared.decode_indexed(Stage::RandomAccess, &slice, window)?;
                    let checked = slice.checksums.is_some();
                    shared
                        .metrics
                        .index_slice_served(key, data.len() as u64, checked);
                    (slice.point.uncompressed_offset, data)
                }
                None => {
                    // Keep the pool busy with what follows the bytes taken:
                    // the ranges that follow while the pass is under way,
                    // and with a complete seek-point table the exact chunks
                    // after them.
                    shared.issue_prefetches(&mut state, shared.guess_of(key));
                    shared.issue_index_prefetches(&mut state, taken.clone(), last, self.jumped);
                    (start, self.chunk_bytes(state, key)?)
                }
            };
            let chunk_offset = (self.position - start) as usize;
            // A cached chunk shorter than its seek point claims (a lying or
            // stale index) must error like the decode's own length check
            // does, not underflow in the caller.
            if chunk_offset >= data.len() {
                return Err(CoreError::IndexMismatch {
                    compressed_bit_offset: key,
                });
            }
            self.held = Some((start, Arc::clone(&data)));
            return Ok(Some((data, chunk_offset)));
        }
    }

    /// Serves as many bytes as possible from the chunk covering `position`.
    fn read_at_position(&mut self, buffer: &mut [u8]) -> Result<usize, CoreError> {
        let found = self.chunk_at_position(buffer.len());
        self.jumped = false;
        let Some((data, chunk_offset)) = found? else {
            return Ok(0);
        };
        let count = (data.len() - chunk_offset).min(buffer.len());
        buffer[..count].copy_from_slice(&data[chunk_offset..chunk_offset + count]);
        self.position += count as u64;
        Ok(count)
    }
}

impl Read for ParallelGzipReader {
    fn read(&mut self, buffer: &mut [u8]) -> std::io::Result<usize> {
        if buffer.is_empty() {
            return Ok(0);
        }
        self.read_at_position(buffer).map_err(std::io::Error::from)
    }
}

impl Seek for ParallelGzipReader {
    fn seek(&mut self, target: SeekFrom) -> std::io::Result<u64> {
        let new_position: i128 = match target {
            SeekFrom::Start(offset) => offset as i128,
            SeekFrom::Current(delta) => self.position as i128 + delta as i128,
            SeekFrom::End(delta) => {
                // Seeking from the end requires knowing the total size, which
                // may require finishing the sequential pass.
                self.finish_pass().map_err(std::io::Error::from)?;
                let size = self.shared.lock().index.block_map.uncompressed_size();
                size as i128 + delta as i128
            }
        };
        // A seek only updates the position, and notes whether it moved; all
        // work happens on the next read (§3.1).
        let new_position = u64::try_from(new_position).map_err(|_| {
            let message = "seek before the start of the stream, or past what 64 bits address";
            std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
        })?;
        self.jumped |= new_position != self.position;
        self.sought |= self.jumped;
        self.position = new_position;
        Ok(self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_datagen::{base64_random, fastq_records, silesia_like};
    use rgz_gzip::{decompress, CompressorFrontend, FrontendKind, GzipWriter};
    use rgz_metrics::names;

    fn options(parallelization: usize, chunk_size: usize) -> ParallelGzipReaderOptions {
        ParallelGzipReaderOptions {
            parallelization,
            chunk_size,
            ..Default::default()
        }
    }

    fn parallel_roundtrip(compressed: &[u8], chunk_size: usize) -> Vec<u8> {
        let mut reader =
            ParallelGzipReader::from_bytes(compressed.to_vec(), options(4, chunk_size)).unwrap();
        reader.decompress_all().unwrap()
    }

    #[test]
    fn matches_serial_decoder_on_base64_data() {
        let data = base64_random(3 * 1024 * 1024, 1);
        let compressed = GzipWriter::default().compress(&data);
        let restored = parallel_roundtrip(&compressed, 128 * 1024);
        assert_eq!(restored, decompress(&compressed).unwrap());
        assert_eq!(restored, data);
    }

    #[test]
    fn matches_serial_decoder_on_marker_heavy_data() {
        let data = silesia_like(3 * 1024 * 1024, 2);
        let compressed = GzipWriter::default().compress(&data);
        let restored = parallel_roundtrip(&compressed, 128 * 1024);
        assert_eq!(restored, data);
    }

    #[test]
    fn speculative_results_are_actually_used() {
        let data = fastq_records(20_000, 3);
        let compressed = GzipWriter::default().compress(&data);
        let mut reader = ParallelGzipReader::from_bytes(compressed, options(4, 64 * 1024)).unwrap();
        let restored = reader.decompress_all().unwrap();
        assert_eq!(restored, data);
        let statistics = reader.statistics();
        assert!(
            statistics.speculative_chunks_used > 0,
            "parallel pipeline unused: {statistics:?}"
        );
        assert!(statistics.prefetches_issued > 0);
    }

    #[test]
    fn multi_member_and_pigz_style_files_decode() {
        let part_a = base64_random(600_000, 10);
        let part_b = silesia_like(700_000, 11);
        let writer = GzipWriter::default();
        let multi = writer.compress_members(&[&part_a, &part_b]);
        let mut expected = part_a.clone();
        expected.extend_from_slice(&part_b);
        assert_eq!(parallel_roundtrip(&multi, 64 * 1024), expected);

        let pigz = writer.compress_pigz_like(&expected, 128 * 1024);
        assert_eq!(parallel_roundtrip(&pigz, 64 * 1024), expected);

        let bgzf = CompressorFrontend::new(FrontendKind::Bgzf, 6).compress(&expected);
        assert_eq!(parallel_roundtrip(&bgzf, 64 * 1024), expected);
    }

    #[test]
    fn single_block_files_fall_back_to_sequential_decoding() {
        let data = silesia_like(1_200_000, 4);
        let compressed = CompressorFrontend::new(FrontendKind::Igzip, 0).compress(&data);
        let restored = parallel_roundtrip(&compressed, 64 * 1024);
        assert_eq!(restored, data);
    }

    #[test]
    fn stored_only_files_decode_in_parallel() {
        let data = base64_random(2_000_000, 5);
        let compressed = CompressorFrontend::new(FrontendKind::Bgzf, 0).compress(&data);
        assert_eq!(parallel_roundtrip(&compressed, 64 * 1024), data);
    }

    #[test]
    fn seeking_and_partial_reads() {
        let data = silesia_like(2_500_000, 6);
        let compressed = GzipWriter::default().compress(&data);
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(4, 128 * 1024)).unwrap();

        let mut buffer = vec![0u8; 10_000];
        reader.seek(SeekFrom::Start(1_234_567)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &data[1_234_567..1_244_567]);

        reader.seek(SeekFrom::Start(17)).unwrap();
        reader.read_exact(&mut buffer[..100]).unwrap();
        assert_eq!(&buffer[..100], &data[17..117]);

        let end_position = reader.seek(SeekFrom::End(-50)).unwrap();
        assert_eq!(end_position, data.len() as u64 - 50);
        let mut tail = Vec::new();
        reader.read_to_end(&mut tail).unwrap();
        assert_eq!(&tail[..], &data[data.len() - 50..]);

        // Seeking past the end yields EOF on read.
        reader
            .seek(SeekFrom::Start(data.len() as u64 + 10))
            .unwrap();
        assert_eq!(reader.read(&mut buffer).unwrap(), 0);
    }

    #[test]
    fn index_export_import_enables_fast_path() {
        let data = fastq_records(15_000, 7);
        let compressed = GzipWriter::default().compress(&data);
        let mut first_pass =
            ParallelGzipReader::from_bytes(compressed.clone(), options(4, 64 * 1024)).unwrap();
        let index = first_pass.build_full_index().unwrap();
        assert!(index.block_map.len() > 1, "expected multiple seek points");
        assert_eq!(index.uncompressed_size, data.len() as u64);

        let serialized = index.export();
        let imported = GzipIndex::import(&serialized).unwrap();
        let mut second_pass = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed),
            options(4, 64 * 1024),
            imported,
        )
        .unwrap();
        assert_eq!(second_pass.uncompressed_size(), Some(data.len() as u64));
        let restored = second_pass.decompress_all().unwrap();
        assert_eq!(restored, data);
        assert!(second_pass.statistics().index_chunks > 0);

        // Random access through the imported index.
        let mut buffer = vec![0u8; 4096];
        second_pass.seek(SeekFrom::Start(1_000_000)).unwrap();
        second_pass.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &data[1_000_000..1_004_096]);
    }

    #[test]
    fn windows_are_stored_compressed_and_sparse() {
        let data = silesia_like(2 * 1024 * 1024, 40);
        let compressed = GzipWriter::default().compress(&data);
        let mut reader =
            ParallelGzipReader::from_bytes(compressed.clone(), options(4, 128 * 1024)).unwrap();
        let index = reader.build_full_index().unwrap();
        assert!(index.block_map.len() > 4);

        // The export of the sparse/compressed windows must round-trip into
        // a reader whose output is byte-identical, through seeks included.
        let serialized = index.export();

        let statistics = reader.window_statistics();
        assert!(
            statistics.stored_bytes * 2 < statistics.original_bytes,
            "windows not compressed: {statistics:?}"
        );
        let imported = GzipIndex::import(&serialized).unwrap();
        let mut second = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed),
            options(4, 128 * 1024),
            imported,
        )
        .unwrap();
        assert_eq!(second.decompress_all().unwrap(), data);
        let mut buffer = vec![0u8; 8192];
        second.seek(SeekFrom::Start(1_500_000)).unwrap();
        second.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &data[1_500_000..1_508_192]);
    }

    #[test]
    fn imported_index_reads_are_prefetched_chunk_aligned() {
        let data = fastq_records(30_000, 55);
        let compressed = GzipWriter::default().compress(&data);
        let mut first_pass =
            ParallelGzipReader::from_bytes(compressed.clone(), options(4, 64 * 1024)).unwrap();
        let index = first_pass.build_full_index().unwrap();
        assert!(index.block_map.len() > 4);

        let imported = GzipIndex::import(&index.export()).unwrap();
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed),
            options(4, 64 * 1024),
            imported,
        )
        .unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);
        let statistics = reader.statistics();
        assert!(
            statistics.index_prefetches_issued > 0,
            "sequential read through an index must prefetch: {statistics:?}"
        );
        assert!(
            statistics.index_prefetch_hits > 0,
            "prefetched chunks were never consumed: {statistics:?}"
        );
        // Index-aligned prefetching replaces speculation entirely.
        assert_eq!(statistics.prefetches_issued, 0);
        assert_eq!(statistics.speculative_chunks_used, 0);
    }

    #[test]
    fn post_pass_random_access_uses_index_prefetching() {
        let data = silesia_like(2 * 1024 * 1024, 56);
        let compressed = GzipWriter::default().compress(&data);
        // A single-slot resolved cache: after the full pass nothing but the
        // last chunk stays resident, so the sweep below must re-decode.
        let mut reader = ParallelGzipReader::from_bytes(
            compressed,
            ParallelGzipReaderOptions {
                parallelization: 4,
                chunk_size: 128 * 1024,
                resolved_cache_chunks: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Finish the sequential pass and drain its resident chunk data, so
        // later reads must re-decode through the index.
        reader.build_full_index().unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);

        // A forward sequential sweep over the head of the file — evicted
        // from the bounded resolved cache by the full read above — makes
        // the plan see consecutive chunk accesses and prefetch ahead.
        let mut buffer = vec![0u8; 64 * 1024];
        reader.seek(SeekFrom::Start(0)).unwrap();
        for step in 0..10 {
            reader.read_exact(&mut buffer).unwrap();
            let start = step * buffer.len();
            assert_eq!(&buffer[..], &data[start..start + buffer.len()]);
        }
        let statistics = reader.statistics();
        assert!(
            statistics.index_prefetches_issued > 0,
            "post-pass reads must use the index-aligned plan: {statistics:?}"
        );
    }

    #[test]
    fn sequential_pass_captures_fragments_for_every_seek_point() {
        // Chunks of less than a MiB of output, and chunks of three MiB, which
        // the export splits at a seek point every MiB.
        for (length, chunk_size) in [(1_500_000, 128 * 1024), (6 << 20, 1 << 20)] {
            let data = silesia_like(length, 60);
            let compressed = GzipWriter::default().compress(&data);
            let mut reader =
                ParallelGzipReader::from_bytes(compressed, options(4, chunk_size)).unwrap();
            // `index()` waits for in-flight workers, so every point's
            // fragments are present even though speculative chunks insert
            // asynchronously.
            let index = reader.build_full_index().unwrap();
            assert!(index.block_map.len() > 2);
            assert_eq!(index.checksum_map.len(), index.block_map.len());
            for point in index.block_map.points() {
                let checksums = index.checksum_map.get(point.compressed_bit_offset).unwrap();
                let total: u64 = checksums.fragments.iter().map(|f| f.length).sum();
                assert_eq!(total, point.uncompressed_size);
            }
        }
    }

    /// The seek points of `index` whose chunks `reader` holds in its access
    /// cache, and the compressed bytes they span.
    fn cached(reader: &ParallelGzipReader, index: &GzipIndex) -> (usize, u64) {
        let state = reader.shared.lock();
        let points = index.block_map.points().iter();
        let held =
            points.filter(|point| state.resolved_cache.contains(point.compressed_bit_offset));
        (held.count(), state.resolved_cache.weight())
    }

    /// The whole stream, read by a reader that has sought: one that keeps
    /// the chunks it takes whole in its access cache.
    fn read_after_a_seek(reader: &mut ParallelGzipReader) -> Vec<u8> {
        reader.seek(SeekFrom::Start(1)).unwrap();
        reader.decompress_all().unwrap()
    }

    #[test]
    fn only_a_reader_that_has_sought_keeps_chunks_for_random_access() {
        let data = silesia_like(2 << 20, 83);
        let compressed = GzipWriter::default().compress(&data);
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(2, 128 * 1024)).unwrap();
        let gauges = |reader: &ParallelGzipReader| {
            let snapshot = reader.metrics().snapshot();
            let gauge = |name| snapshot.gauge(name, &[]).unwrap_or(0) as u64;
            (
                gauge(names::ACCESS_CACHE_CHUNKS) as usize,
                gauge(names::ACCESS_CACHE_BYTES),
            )
        };
        // A stream keeps nothing behind the chunk it reads...
        assert_eq!(reader.decompress_all().unwrap(), data);
        let index = reader.shared.lock().index.clone();
        assert!(index.block_map.len() > 4);
        assert_eq!(cached(&reader, &index), (0, 0));
        assert_eq!(gauges(&reader), (0, 0));
        // ...nor does a seek to where the reader already is make it seek.
        assert_eq!(reader.seek(SeekFrom::End(0)).unwrap(), data.len() as u64);
        assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0);
        assert_eq!(cached(&reader, &index), (0, 0));
        // One that moved it keeps the chunk its next read takes whole.
        let offset = 1_000_000;
        reader.seek(SeekFrom::Start(offset as u64)).unwrap();
        let mut buffer = [0u8; 1000];
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(buffer[..], data[offset..][..1000]);
        let (held, span) = cached(&reader, &index);
        assert_eq!(held, 1);
        assert!(span > 0);
        assert_eq!(gauges(&reader), (held, span));
    }

    #[test]
    fn the_access_cache_holds_as_many_chunks_as_span_its_budget() {
        // Blocks of 8 KiB, Huffman codes only: a chunk of the pass ends a few
        // KiB past its range, and a read through a table of chunks an eighth
        // as long keeps eight times as many, nearly.
        let data = base64_random(3 << 20, 81);
        let compressed = GzipWriter::new(rgz_deflate::CompressorOptions {
            level: rgz_deflate::CompressionLevel::Huffman,
            block_size: 8 * 1024,
            ..Default::default()
        })
        .compress(&data);
        let chunk_size = 256 * 1024;
        let budget = 4 * chunk_size as u64;
        let table = |chunk_size| {
            let mut pass =
                ParallelGzipReader::from_bytes(compressed.clone(), options(2, chunk_size)).unwrap();
            pass.build_full_index().unwrap()
        };
        let read_through = |index: &GzipIndex| {
            let mut reader = ParallelGzipReader::with_index(
                SharedFileReader::from_bytes(compressed.clone()),
                options(2, chunk_size),
                index.clone(),
            )
            .unwrap();
            assert_eq!(read_after_a_seek(&mut reader), data);
            cached(&reader, index)
        };
        // The pass's own table, kept by the reader that built it...
        let mut reader =
            ParallelGzipReader::from_bytes(compressed.clone(), options(2, chunk_size)).unwrap();
        assert_eq!(read_after_a_seek(&mut reader), data);
        let own = reader.shared.lock().index.clone();
        let (held, span) = cached(&reader, &own);
        assert!((3..=4).contains(&held), "{held} chunks");
        assert!(span <= budget, "{span} bytes");
        // ...or imported: four chunks of the pass, three if they run over.
        let (held, span) = read_through(&table(chunk_size));
        assert!((3..=4).contains(&held), "{held} chunks");
        assert!(span <= budget, "{span} bytes");
        // Points an eighth as far apart: thirty-two, and never more span.
        let fine = table(chunk_size / 8);
        assert!(fine.block_map.len() > 40);
        let (held, span) = read_through(&fine);
        assert!(held >= 8 * 4 - 1, "{held} chunks");
        assert!(span <= budget, "{span} bytes");
    }

    #[test]
    fn a_chunk_spanning_more_than_the_budget_is_still_kept() {
        let data = base64_random(1 << 20, 82);
        let compressed = GzipWriter::default().compress(&data);
        let mut pass =
            ParallelGzipReader::from_bytes(compressed.clone(), options(2, 512 * 1024)).unwrap();
        let index = pass.build_full_index().unwrap();
        // A budget of one 4 KiB chunk, and chunks a hundred times that.
        let mut reader = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(compressed),
            ParallelGzipReaderOptions {
                resolved_cache_chunks: 1,
                ..options(1, 4096)
            },
            index.clone(),
        )
        .unwrap();
        assert_eq!(read_after_a_seek(&mut reader), data);
        let (held, span) = cached(&reader, &index);
        assert_eq!(held, 1);
        assert!(span > 4096, "{span} bytes");
    }

    #[test]
    fn index_fast_path_reads_verify_against_stored_fragments() {
        let data = silesia_like(1_500_000, 61);
        let compressed = GzipWriter::default().compress(&data);
        let mut first =
            ParallelGzipReader::from_bytes(compressed.clone(), options(4, 128 * 1024)).unwrap();
        let index = first.build_full_index().unwrap();

        let small_cache = |index| {
            ParallelGzipReader::with_index(
                SharedFileReader::from_bytes(compressed.clone()),
                ParallelGzipReaderOptions {
                    parallelization: 2,
                    chunk_size: 128 * 1024,
                    resolved_cache_chunks: 1,
                    ..Default::default()
                },
                index,
            )
            .unwrap()
        };

        // The default (v3) export round-trips the fragments, so every
        // random-access decode is checked.
        let imported = GzipIndex::import(&index.export()).unwrap();
        assert_eq!(imported.checksum_map.len(), index.checksum_map.len());
        let mut verified = small_cache(imported);
        let mut buffer = vec![0u8; 4096];
        for offset in [900_000u64, 30_000, 1_200_000] {
            verified.seek(SeekFrom::Start(offset)).unwrap();
            verified.read_exact(&mut buffer).unwrap();
            assert_eq!(&buffer[..], &data[offset as usize..offset as usize + 4096]);
        }
        let statistics = verified.verification_statistics();
        assert!(statistics.index_chunks_verified > 0, "{statistics:?}");
        assert_eq!(statistics.index_chunks_unverified, 0, "{statistics:?}");

        // The same reads through an export without fragments complete but
        // are reported as unverified.
        let bare = GzipIndex {
            checksum_map: Default::default(),
            ..index.clone()
        };
        let bare = GzipIndex::import(&bare.export()).unwrap();
        assert!(bare.checksum_map.is_empty());
        let mut unverified = small_cache(bare);
        unverified.seek(SeekFrom::Start(900_000)).unwrap();
        unverified.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &data[900_000..904_096]);
        let statistics = unverified.verification_statistics();
        assert_eq!(statistics.index_chunks_verified, 0, "{statistics:?}");
        assert!(statistics.index_chunks_unverified > 0, "{statistics:?}");
    }

    #[test]
    fn corrupted_input_never_yields_the_original_data_silently() {
        // With full verification (the default) any corruption that still
        // decodes must be caught by the CRC fold; corruption that breaks
        // decoding must error.  Either way: never a silent, seemingly
        // correct result, and never a panic or hang.
        let data = base64_random(500_000, 9);
        let pristine = GzipWriter::default().compress(&data);
        for flip_at in [
            pristine.len() / 3,
            pristine.len() / 2,
            2 * pristine.len() / 3,
        ] {
            let mut compressed = pristine.clone();
            compressed[flip_at] ^= 0xFF;
            let mut reader =
                ParallelGzipReader::from_bytes(compressed, options(2, 32 * 1024)).unwrap();
            match reader.decompress_all() {
                Err(_) => {}
                Ok(restored) => assert_ne!(restored, data, "corruption at byte {flip_at} vanished"),
            }
        }
    }

    #[test]
    fn corrupted_trailer_crc_is_reported_with_the_member_index() {
        let part_a = base64_random(400_000, 21);
        let part_b = silesia_like(500_000, 22);
        let writer = GzipWriter::default();
        let mut compressed = writer.compress_members(&[&part_a, &part_b]);
        // The second member's trailer CRC is in the file's final 8 bytes;
        // flip one bit of it so the stream still decodes but the fold must
        // flag member 1.
        let length = compressed.len();
        compressed[length - 6] ^= 0x10;
        let mut reader =
            ParallelGzipReader::from_bytes(compressed.clone(), options(4, 64 * 1024)).unwrap();
        match reader.decompress_all() {
            Err(CoreError::ChecksumMismatch { member, .. }) => assert_eq!(member, 1),
            other => panic!("expected a checksum mismatch for member 1, got {other:?}"),
        }

        // The same file decompresses fine with verification off.
        let mut unverified = ParallelGzipReader::from_bytes(
            compressed,
            options(4, 64 * 1024).with_verification(VerificationMode::Off),
        )
        .unwrap();
        let mut expected = part_a;
        expected.extend_from_slice(&part_b);
        assert_eq!(unverified.decompress_all().unwrap(), expected);
        assert_eq!(unverified.verification_statistics().members_verified, 0);
    }

    #[test]
    fn corrupted_isize_is_reported_even_when_the_crc_matches() {
        let data = base64_random(300_000, 23);
        let mut compressed = GzipWriter::default().compress(&data);
        // ISIZE occupies the final 4 bytes; the CRC before it stays intact.
        let length = compressed.len();
        compressed[length - 1] ^= 0x80;
        let mut reader = ParallelGzipReader::from_bytes(compressed, options(4, 64 * 1024)).unwrap();
        match reader.decompress_all() {
            Err(CoreError::MemberSizeMismatch { member, actual, .. }) => {
                assert_eq!(member, 0);
                assert_eq!(actual, data.len() as u64);
            }
            other => panic!("expected an ISIZE mismatch, got {other:?}"),
        }
    }

    #[test]
    fn verification_statistics_cover_the_whole_stream() {
        let parts = [
            base64_random(300_000, 24),
            silesia_like(400_000, 25),
            fastq_records(2_000, 26),
        ];
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let compressed = GzipWriter::default().compress_members(&refs);
        let mut expected = Vec::new();
        for part in &parts {
            expected.extend_from_slice(part);
        }
        let mut reader = ParallelGzipReader::from_bytes(compressed, options(4, 64 * 1024)).unwrap();
        assert_eq!(reader.decompress_all().unwrap(), expected);
        let statistics = reader.verification_statistics();
        assert_eq!(statistics.mode, VerificationMode::Full);
        assert_eq!(statistics.members_verified, 3);
        assert_eq!(statistics.bytes_verified, expected.len() as u64);
        assert_eq!(statistics.chunks_pending, 0);
        assert_eq!(statistics.stream_crc32, rgz_checksum::crc32(&expected));
        assert!(statistics.fragments_folded >= 3);
    }

    #[test]
    fn truncated_input_reports_an_error() {
        let data = base64_random(500_000, 12);
        let compressed = GzipWriter::default().compress(&data);
        let truncated = compressed[..compressed.len() / 2].to_vec();
        let mut reader = ParallelGzipReader::from_bytes(truncated, options(2, 32 * 1024)).unwrap();
        assert!(reader.decompress_all().is_err());
    }

    #[test]
    fn a_member_ending_at_the_range_end_does_not_truncate_the_stream() {
        // Chunk 0's compressed range (chunk + 64 KiB of slack) ends exactly
        // at the first member's end; the second member must still be read.
        let (compressed, first_length, expected) =
            crate::chunk::tests::single_block_member_then_another();
        let chunk_size = first_length - 64 * 1024;
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(2, chunk_size)).unwrap();
        let restored = reader.decompress_all().unwrap();
        assert_eq!(restored.len(), expected.len());
        assert_eq!(restored, expected);
        assert_eq!(reader.verification_statistics().members_verified, 2);
    }

    #[test]
    fn blocks_longer_than_the_slack_widen_the_range_once_not_chunk_after_chunk() {
        let (compressed, data) = crate::chunk::tests::long_blocks();
        let chunk_size = 64 * 1024;
        let range_reads = |reader: &ParallelGzipReader| {
            let snapshot = reader.metrics().snapshot();
            ["fresh", "reused"].map(|result| {
                let labels = [("kind", "range"), ("result", result)];
                snapshot.counter(names::BUFFER_POOL_TAKES, &labels)
            })
        };
        // One worker: every chunk from its known start, a block each, and on
        // demand, the ranges decoded ahead being the ones it runs past.  The
        // first reads 64 KiB past its stop, then 256 KiB, then the 1 MiB its
        // block fits into; the others twice what that one ran past its stop.
        let mut reader =
            ParallelGzipReader::from_bytes(compressed.clone(), options(1, chunk_size)).unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);
        let statistics = reader.statistics();
        let chunks = reader.index().block_map.len() as u64;
        assert_eq!(
            (chunks, statistics.on_demand_chunks),
            (6, 6),
            "{statistics:?}"
        );
        let reads: u64 = range_reads(&reader).into_iter().flatten().sum();
        assert_eq!(reads, chunks + 2);

        // More workers, and whichever ranges they got to before the pass had
        // gone by: same bytes, same chunks, and still not three reads each.
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(3, chunk_size)).unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);
        assert_eq!(reader.index().block_map.len() as u64, chunks);
        let reads: u64 = range_reads(&reader).into_iter().flatten().sum();
        let issued = reader.statistics().prefetches_issued;
        assert!(
            reads <= chunks + issued + 2,
            "{reads} reads of {chunks} chunks"
        );
    }

    #[test]
    fn empty_payload_round_trips() {
        let compressed = GzipWriter::default().compress(b"");
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, ParallelGzipReaderOptions::default())
                .unwrap();
        assert_eq!(reader.decompress_all().unwrap(), Vec::<u8>::new());
        assert_eq!(reader.uncompressed_size(), Some(0));
    }

    #[test]
    fn a_chunk_size_below_the_floor_is_raised_to_it() {
        // Set through the field, where no builder method sees it: zero used
        // to divide the first read by it.
        let data = silesia_like(300_000, 13);
        let compressed = GzipWriter::default().compress(&data);
        for chunk_size in [0, 1] {
            for parallelization in [1, 2] {
                let mut reader = ParallelGzipReader::from_bytes(
                    compressed.clone(),
                    options(parallelization, chunk_size),
                )
                .unwrap();
                assert_eq!(reader.decompress_all().unwrap(), data);
                assert_eq!(reader.options().chunk_size, 4 * 1024);
            }
        }
    }

    #[test]
    fn traced_parallel_decompress_records_pipeline_spans() {
        use rgz_trace::{EventKind, MetricsReport};

        let data = fastq_records(20_000, 70);
        let compressed = GzipWriter::default().compress(&data);
        let trace = Arc::new(TraceSink::new_enabled());
        let mut reader = ParallelGzipReader::from_bytes(
            compressed,
            options(4, 64 * 1024).with_trace(trace.clone()),
        )
        .unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);
        let statistics = reader.statistics();
        assert!(statistics.speculative_chunks_used > 0, "{statistics:?}");

        // Every pipeline stage the sequential pass exercises must show up,
        // and each track's spans must be recorded in completion order.
        let snapshot = trace.snapshot();
        let mut seen = std::collections::HashSet::new();
        for track in &snapshot {
            let mut last_end = 0u64;
            for event in &track.events {
                if let EventKind::Span {
                    stage,
                    start_us,
                    duration_us,
                    ..
                } = event.kind
                {
                    seen.insert(stage.name());
                    let end = start_us + duration_us;
                    assert!(
                        end >= last_end,
                        "span end times must be monotonic per track ({})",
                        track.name
                    );
                    last_end = end;
                }
            }
        }
        for stage in [
            Stage::BlockFind,
            Stage::DecodeTwoStage,
            Stage::DecodeOneStage,
            Stage::MarkerReplace,
            Stage::CrcFold,
            Stage::TaskWait,
        ] {
            assert!(
                seen.contains(stage.name()),
                "missing {} spans",
                stage.name()
            );
        }

        // The aggregated report must reconcile with the reader's own
        // statistics: both count the same commit/waste events.
        let report = MetricsReport::from_sink(&trace);
        assert!(report.wall_us > 0);
        assert_eq!(
            report.speculation.committed_chunks,
            statistics.speculative_chunks_used
        );
        assert_eq!(
            report.speculation.wasted_chunks,
            statistics.speculative_chunks_wasted
        );
        assert_eq!(
            report.speculation.wasted_bytes,
            statistics.speculative_bytes_wasted
        );
        assert!(report.speculation.submitted >= report.speculation.committed_chunks);

        // Every successful two-stage decode span says how much of its output
        // it had to decode as 16-bit symbols; the committed ones among them
        // are what the statistics count.
        let marker_bytes: u64 = snapshot
            .iter()
            .flat_map(|track| &track.events)
            .filter(|event| {
                matches!(
                    event.kind,
                    EventKind::Span {
                        stage: Stage::DecodeTwoStage,
                        outcome: rgz_trace::Outcome::Ok,
                        ..
                    }
                )
            })
            .map(|event| {
                let marker_bytes = event.meta.marker_bytes.expect("recorded on success");
                assert!(marker_bytes <= event.meta.bytes.unwrap());
                marker_bytes
            })
            .sum();
        assert!(statistics.speculative_bytes_u16 > 0);
        assert!(marker_bytes >= statistics.speculative_bytes_u16);

        // A disabled sink built the exact same way records nothing.
        let data = fastq_records(2_000, 70);
        let compressed = GzipWriter::default().compress(&data);
        let silent = Arc::new(TraceSink::new());
        let mut reader = ParallelGzipReader::from_bytes(
            compressed,
            options(2, 64 * 1024).with_trace(silent.clone()),
        )
        .unwrap();
        assert_eq!(reader.decompress_all().unwrap(), data);
        assert_eq!(silent.event_count(), 0);
    }

    #[test]
    fn dropping_a_reader_mid_read_keeps_recorded_events() {
        use rgz_trace::EventKind;

        let data = silesia_like(2 * 1024 * 1024, 71);
        let compressed = GzipWriter::default().compress(&data);
        let trace = Arc::new(TraceSink::new_enabled());
        let mut reader = ParallelGzipReader::from_bytes(
            compressed,
            options(4, 128 * 1024).with_trace(trace.clone()),
        )
        .unwrap();
        // Read just far enough to put speculative workers in flight, then
        // drop the reader while they may still be running.
        let mut buffer = vec![0u8; 256 * 1024];
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(&buffer[..], &data[..buffer.len()]);
        let recorded_before_drop = trace.event_count();
        assert!(recorded_before_drop > 0);
        drop(reader);
        // Workers record straight into the sink's per-thread tracks, so the
        // drop (which joins the pool) must not lose a single buffered event,
        // and every surviving span is complete.
        let snapshot = trace.snapshot();
        let total: usize = snapshot.iter().map(|t| t.events.len()).sum();
        assert!(
            total >= recorded_before_drop,
            "events lost on drop: {total} < {recorded_before_drop}"
        );
        for track in &snapshot {
            for event in &track.events {
                if let EventKind::Span {
                    start_us,
                    duration_us,
                    ..
                } = event.kind
                {
                    assert!(start_us.checked_add(duration_us).is_some());
                }
            }
        }
    }

    #[test]
    fn a_sequential_first_read_decodes_no_chunk_twice() {
        // Takes longer over a chunk than a worker does to decode the next.
        struct SlowWriter;
        impl std::io::Write for SlowWriter {
            fn write(&mut self, buffer: &[u8]) -> std::io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(buffer.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let data = fastq_records(20_000, 3);
        let compressed = GzipWriter::default().compress(&data);
        for parallelization in [1, 2] {
            for chunk_size in [32 * 1024, 64 * 1024] {
                // Right behind the pass, and far behind it.
                for slow in [false, true] {
                    let options = options(parallelization, chunk_size);
                    let mut reader =
                        ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();
                    let read = if slow {
                        reader.decompress_to(&mut SlowWriter).unwrap()
                    } else {
                        reader.read_to_end(&mut Vec::new()).unwrap() as u64
                    };
                    assert_eq!(read, data.len() as u64);
                    let statistics = reader.statistics();
                    let run = format!("P = {parallelization}, {chunk_size}, slow: {slow}");
                    assert_eq!(statistics.index_chunks, 0, "{run}: {statistics:?}");
                }
            }
        }
    }

    #[test]
    fn the_chunk_a_read_is_about_to_take_is_not_let_go_of() {
        // The end of a pass with its reader right behind it: the last chunks
        // committed wait in the table, beside the tasks of the ranges the
        // pass ran past, which have yet to find that out.  A jump to the
        // start of one of them, and one past the first cut of a chunk of more
        // than a MiB of output: its bytes hold those of its cuts.
        let cases = [
            (fastq_records(20_000, 3), 32 * 1024, 0),
            (silesia_like(6 << 20, 3), 1 << 20, 1),
        ];
        for (data, chunk_size, cut) in cases {
            let compressed = GzipWriter::default().compress(&data);
            let mut reader =
                ParallelGzipReader::from_bytes(compressed, options(1, chunk_size)).unwrap();
            reader.build_full_index().unwrap();
            let offset = {
                let mut state = reader.shared.lock();
                let state = &mut *state;
                let (&waiting, length) = state
                    .pass
                    .chunks
                    .iter()
                    .filter_map(|(key, chunk)| match chunk {
                        ChunkState::Ready(data) => Some((key, data.len() as u64)),
                        _ => None,
                    })
                    .max_by_key(|(_, length)| *length)
                    .unwrap();
                for key in 1..=reader.options().prefetch_degree() as u64 * 2 {
                    state
                        .pass
                        .chunks
                        .insert(u64::MAX - key, ChunkState::Decoding);
                }
                let points = state.index.block_map.points();
                let first = points
                    .iter()
                    .rposition(|point| point.compressed_bit_offset == waiting)
                    .unwrap();
                let start = points[first].uncompressed_offset;
                let point = &points[first + cut];
                assert!(point.uncompressed_offset + 100 < start + length);
                point.uncompressed_offset + 100
            };
            reader.seek(SeekFrom::Start(offset)).unwrap();
            let mut buffer = [0u8; 100];
            reader.read_exact(&mut buffer).unwrap();
            assert_eq!(buffer, data[offset as usize..][..100]);
            let statistics = reader.statistics();
            assert_eq!(statistics.index_chunks, 0, "cut {cut}: {statistics:?}");
            assert_eq!(statistics.index_slices, 0, "cut {cut}: {statistics:?}");
        }
    }

    #[test]
    fn after_its_pass_a_reader_seeks_through_the_table_it_exports() {
        let data = silesia_like(6 << 20, 60);
        let compressed = GzipWriter::default().compress(&data);
        // The points of a table and the CRC fragments of each.
        let table = |index: &GzipIndex| {
            let points = index.block_map.points().to_vec();
            let checksums: Vec<_> = points
                .iter()
                .map(|point| index.checksum_map.get(point.compressed_bit_offset))
                .collect();
            assert_eq!(index.checksum_map.len(), points.len());
            (points, checksums)
        };
        for parallelization in [1, 2, 3] {
            let options = options(parallelization, 1 << 20);
            let mut reader =
                ParallelGzipReader::from_bytes(compressed.clone(), options.clone()).unwrap();
            let exported = reader.build_full_index().unwrap();
            let own = table(&reader.shared.lock().index);
            // Chunks of some three MiB of output, each cut a MiB apart.
            let statistics = reader.statistics();
            let chunks = statistics.speculative_chunks_used
                + statistics.window_known_chunks
                + statistics.on_demand_chunks;
            assert!(chunks >= 2, "P = {parallelization}: {chunks} chunks");
            assert!(own.0.len() as u64 > chunks, "P = {parallelization}");
            assert!(own == table(&exported), "P = {parallelization}");
            let imported = ParallelGzipReader::with_index(
                SharedFileReader::from_bytes(compressed.clone()),
                options,
                GzipIndex::import(&exported.export()).unwrap(),
            )
            .unwrap();
            let fresh = table(&imported.shared.lock().index);
            assert!(own == fresh, "P = {parallelization}");
        }
    }

    #[test]
    fn stale_and_mismatched_speculation_is_counted_as_waste() {
        use rgz_trace::MetricsReport;

        let data = base64_random(600_000, 72);
        let compressed = GzipWriter::default().compress(&data);
        let trace = Arc::new(TraceSink::new_enabled());
        let reader = ParallelGzipReader::from_bytes(
            compressed,
            options(2, 64 * 1024).with_trace(trace.clone()),
        )
        .unwrap();
        // Plant two impossible speculative results in the pass's table:
        // the one in the first range collides with the first chunk, which is
        // never taken from a speculative decode (a mismatch); the one in the
        // second starts a bit after the range does, where chunk 0 will not be
        // found to end (another), or is run past (stale).
        {
            let mut state = reader.shared.lock();
            state.pass.next_unissued = 2;
            for (range_bit, found) in [(0u64, 0u64), (64 * 1024 * 8, 64 * 1024 * 8 + 1)] {
                state.pass.chunks.insert(
                    range_bit,
                    ChunkState::Markered(crate::chunk::SpeculativeChunk {
                        found_bit_offset: found,
                        earliest_bit_offset: found,
                        end_bit_offset: found + 8,
                        output: crate::chunk::PooledOutput::adopt(
                            vec![0u16; 100].into(),
                            reader.buffers(),
                        ),
                        window_usage: Vec::new(),
                        reached_end_of_file: false,
                        fragments: Vec::new(),
                        segments: Vec::new(),
                    }),
                );
            }
            // What a task that had just decoded the first of them would do.
            assert!(reader.shared.commit_ready(&mut state).is_empty());
        }
        let mut reader = reader;
        assert_eq!(reader.decompress_all().unwrap(), data);
        let statistics = reader.statistics();
        assert!(statistics.speculative_chunks_wasted >= 2, "{statistics:?}");
        assert!(statistics.speculative_bytes_wasted >= 200, "{statistics:?}");
        assert!(statistics.speculative_mismatches >= 1, "{statistics:?}");
        let report = MetricsReport::from_sink(&trace);
        assert_eq!(
            report.speculation.wasted_chunks,
            statistics.speculative_chunks_wasted
        );
        assert_eq!(
            report.speculation.wasted_bytes,
            statistics.speculative_bytes_wasted
        );
        assert!(report.speculation.waste_ratio() > 0.0);
    }
}
