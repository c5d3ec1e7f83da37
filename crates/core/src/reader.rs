//! The `ParallelGzipReader`: orchestration of speculative chunk
//! decompression, marker resolution, index construction and random access.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use parking_lot::Mutex;
use rgz_fetcher::{BufferPool, Cache, IndexAlignedPlan, Pooled, TaskHandle, ThreadPool};
use rgz_index::{GzipIndex, PointChecksums, SeekPoint, WINDOW_SIZE};
use rgz_io::{FileReader, SharedFileReader};
use rgz_metrics::MetricsRegistry;
use rgz_trace::{instants, EventMeta, Outcome, Stage, TraceSink};

use crate::chunk::{ChunkDecoder, DirectChunk, SpeculativeChunk};
use crate::metrics::ReaderMetrics;
use crate::verify::{
    check_point_fragments, ChunkFragment, StreamVerifier, VerificationMode, VerificationStatistics,
};
use crate::{CoreError, DEFAULT_CHUNK_SIZE};

/// Configuration of a [`ParallelGzipReader`].
#[derive(Debug, Clone)]
pub struct ParallelGzipReaderOptions {
    /// Number of worker threads used for speculative chunk decompression and
    /// marker replacement.  Defaults to the number of logical CPUs.
    pub parallelization: usize,
    /// Compressed chunk size in bytes (the paper's default is 4 MiB).
    pub chunk_size: usize,
    /// How many chunks ahead of the last access to prefetch.  Defaults to
    /// twice the parallelization, matching the paper's prefetch cache sizing.
    pub prefetch_degree: Option<usize>,
    /// Capacity of the cache of resolved chunks kept for random access.
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
    /// Metrics registry every pipeline layer registers its series on.  `None`
    /// (the default) leaves all handles disconnected: each record call is a
    /// single relaxed load of a never-enabled gate, mirroring the trace sink.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ParallelGzipReaderOptions {
    fn default() -> Self {
        Self {
            parallelization: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            chunk_size: DEFAULT_CHUNK_SIZE,
            prefetch_degree: None,
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

    /// Sets the compressed chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(4 * 1024);
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
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn effective_prefetch_degree(&self) -> usize {
        self.prefetch_degree
            .unwrap_or(self.parallelization * 2)
            .max(1)
    }
}

/// Counters describing how the parallel reader behaved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReaderStatistics {
    /// Chunks whose speculative result was used.
    pub speculative_chunks_used: u64,
    /// Chunks that had to be decoded on demand (cache miss or false
    /// positive).
    pub on_demand_chunks: u64,
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
    /// after their last 32 KiB had become marker-free (or a gzip member had
    /// ended).  A low share here is why a speculative decode was slow.
    pub speculative_bytes_u8: u64,
    /// Tasks currently waiting in the worker pool's queue (sampled live when
    /// [`ParallelGzipReader::statistics`] is called).
    pub pool_queue_depth: u64,
    /// Tasks currently executing on a worker thread (sampled likewise).
    pub pool_tasks_inflight: u64,
    /// Total tasks ever submitted to the worker pool.
    pub pool_tasks_submitted: u64,
}

/// State of the sequential first pass.
struct SequentialPass {
    /// Exact bit offset where the next chunk starts.
    next_start_bit: u64,
    /// Uncompressed offset of the next chunk.
    next_uncompressed_offset: u64,
    /// Window (up to 32 KiB) preceding the next chunk.
    window: Arc<Vec<u8>>,
    /// Whether the whole file has been traversed.
    finished: bool,
    /// Sequence number of the next committed chunk; orders the CRC fragment
    /// fold even when worker threads finish out of order.
    next_seq: u64,
    /// Zero-based index of the gzip member the next chunk starts in; recorded
    /// into each seek point's [`PointChecksums`] so random-access mismatches
    /// can name the member.
    next_member: u64,
}

/// A chunk's decompressed bytes, in a buffer of the reader's [`BufferPool`]:
/// it goes back there when the last holder — `chunk_data`, the resolved
/// cache, a read in progress — lets go.
type ChunkBytes = Arc<Pooled<u8>>;

enum ChunkData {
    Ready(ChunkBytes),
    Pending(TaskHandle<Result<Pooled<u8>, CoreError>>),
}

/// The most bytes [`ParallelGzipReader::decompress_to`] hands its writer in
/// one call.
const HAND_OVER_BYTES: usize = 1 << 20;

struct ReaderState {
    index: GzipIndex,
    pass: SequentialPass,
    /// Resolved (or resolving) chunk data keyed by compressed bit offset.
    chunk_data: HashMap<u64, ChunkData>,
    /// LRU cache of chunk data for random access after the first pass.
    resolved_cache: Cache<u64, Pooled<u8>>,
    /// Finished speculative chunks keyed by their *found* bit offset.
    speculative_ready: HashMap<u64, SpeculativeChunk>,
    /// In-flight speculative tasks keyed by guess index.
    speculative_pending: HashMap<usize, TaskHandle<Result<Option<SpeculativeChunk>, CoreError>>>,
    /// Guess indexes that have already been dispatched (or completed).
    speculative_issued: std::collections::HashSet<usize>,
    /// Prefetch plan aligned to the seek-point table; built lazily once the
    /// sequential pass is finished (or an index was imported).
    index_plan: Option<Arc<IndexAlignedPlan>>,
    /// Keys in `chunk_data` that were produced by index-aligned prefetching
    /// and have not been consumed yet.
    index_prefetched: std::collections::HashSet<u64>,
    /// Chunk index the last index-aligned prefetch ran for; consecutive
    /// reads inside one chunk skip the whole prefetch pipeline.
    last_prefetch_chunk: Option<usize>,
    statistics: ReaderStatistics,
}

/// Parallel decompression of and random access to a gzip file.
///
/// See the crate-level documentation for an overview of the architecture.
pub struct ParallelGzipReader {
    reader: SharedFileReader,
    options: ParallelGzipReaderOptions,
    pool: Arc<ThreadPool>,
    /// The chunk buffers — compressed ranges, 16-bit symbols, decompressed
    /// bytes — recycled from chunk to chunk.
    buffers: BufferPool,
    trace: Arc<TraceSink>,
    /// Pre-resolved registry handles; disconnected when no registry was
    /// attached, so the hot paths stay unconditional.
    metrics: Arc<ReaderMetrics>,
    state: Mutex<ReaderState>,
    /// Stream-ordered CRC fold; shared with the worker threads, which submit
    /// their chunk's fragments as soon as marker replacement finishes.
    verifier: Arc<Mutex<StreamVerifier>>,
    /// Current logical read position in the decompressed stream.
    position: u64,
}

impl std::fmt::Debug for ParallelGzipReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelGzipReader")
            .field("compressed_size", &self.reader.size())
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
        let parallelization = options.parallelization.max(1);
        let trace = options
            .trace
            .clone()
            .unwrap_or_else(TraceSink::shared_disabled);
        let metrics = match options.metrics.as_ref() {
            Some(registry) => Arc::new(ReaderMetrics::register(registry)),
            None => Arc::new(ReaderMetrics::disconnected()),
        };
        // Instrument the compressed input (read syscalls, bytes, latency)
        // only when a registry is attached; the wrapper adds one virtual
        // call per read otherwise.
        let reader = if options.metrics.is_some() {
            reader.instrumented(Arc::clone(&metrics.registry))
        } else {
            reader
        };
        let pool = Arc::new(ThreadPool::new_observed(
            parallelization,
            trace.clone(),
            Arc::clone(&metrics.registry),
        ));
        // Up to 2P + 1 chunks are on their way from decode to hand-over, and
        // when the consumer falls behind and catches up again, the number
        // breathes by P + 1: that many buffers of a kind may lie idle, so
        // that the pass neither frees nor creates one once it has them all.
        let buffers = BufferPool::new(parallelization + 1, &metrics.registry);
        let mut index = GzipIndex::new();
        index.compressed_size = reader.size();
        // Seek-point windows compress on the shared pool as they are stored.
        index.window_map.set_pool(pool.clone());
        index.window_map.set_trace(trace.clone());
        if options.metrics.is_some() {
            index.window_map.set_metrics(&metrics.registry);
        }
        let mut verifier = StreamVerifier::new(options.verification);
        verifier.set_member_verified_counter(metrics.verify_member.clone());
        Ok(Self {
            pool,
            buffers,
            trace,
            metrics,
            verifier: Arc::new(Mutex::new(verifier)),
            state: Mutex::new(ReaderState {
                index,
                pass: SequentialPass {
                    next_start_bit: 0,
                    next_uncompressed_offset: 0,
                    window: Arc::new(Vec::new()),
                    finished: false,
                    next_seq: 0,
                    next_member: 0,
                },
                chunk_data: HashMap::new(),
                resolved_cache: Cache::new(options.resolved_cache_chunks.max(1)),
                speculative_ready: HashMap::new(),
                speculative_pending: HashMap::new(),
                speculative_issued: std::collections::HashSet::new(),
                index_plan: None,
                index_prefetched: std::collections::HashSet::new(),
                last_prefetch_chunk: None,
                statistics: ReaderStatistics::default(),
            }),
            reader,
            options,
            position: 0,
        })
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
        index: GzipIndex,
    ) -> Result<Self, CoreError> {
        let this = Self::new(reader, options)?;
        // Nothing is decoded speculatively through an index.
        this.buffers.retire_symbols();
        {
            let mut state = this.state.lock();
            let uncompressed_size = index.uncompressed_size;
            state.pass.finished = true;
            state.pass.next_uncompressed_offset = uncompressed_size;
            state.index = index;
            state.index.window_map.set_pool(this.pool.clone());
            state.index.window_map.set_trace(this.trace.clone());
            if this.options.metrics.is_some() {
                state.index.window_map.set_metrics(&this.metrics.registry);
            }
            if state.index.uncompressed_size == 0 {
                state.index.uncompressed_size = state.index.effective_uncompressed_size();
                state.pass.next_uncompressed_offset = state.index.uncompressed_size;
            }
            // Some foreign formats (gztool) record no compressed size, so
            // an imported index may carry 0; re-exports must still write
            // the real file size.
            if state.index.compressed_size == 0 {
                state.index.compressed_size = this.reader.size();
            }
        }
        Ok(this)
    }

    /// What a chunk decode task needs of this reader.
    fn chunk_decoder(&self) -> ChunkDecoder {
        ChunkDecoder {
            reader: self.reader.clone(),
            chunk_size: self.options.chunk_size,
            buffers: self.buffers.clone(),
            trace: self.trace.clone(),
        }
    }

    /// The options this reader was created with.
    pub fn options(&self) -> &ParallelGzipReaderOptions {
        &self.options
    }

    /// The trace sink this reader records into (the process-wide disabled
    /// sink unless one was attached via the options).
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Behaviour counters.  The `pool_*` fields are sampled live from the
    /// worker pool at call time.
    pub fn statistics(&self) -> ReaderStatistics {
        let mut statistics = self.state.lock().statistics;
        let pool = self.pool.statistics();
        statistics.pool_queue_depth = pool.queue_depth;
        statistics.pool_tasks_inflight = pool.tasks_inflight;
        statistics.pool_tasks_submitted = pool.tasks_submitted;
        statistics
    }

    /// The metrics registry this reader records into (the process-wide
    /// disabled registry unless one was attached via the options).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Memory and cache counters of the seek-point window store (compressed
    /// window bytes vs. the raw bytes a v1-style index would hold).
    pub fn window_statistics(&self) -> rgz_window::WindowStoreStatistics {
        self.state.lock().index.window_map.statistics()
    }

    /// Counters of the checksum verification pipeline: members verified,
    /// bytes hashed, the running whole-stream CRC-32, and — for the random
    /// access fast path — how many chunk decodes were checked against a v3
    /// index's stored CRC fragments versus served unverified (v1/v2 files
    /// and foreign imports carry no fragments).
    pub fn verification_statistics(&self) -> VerificationStatistics {
        let mut statistics = self.verifier.lock().statistics();
        let reader_statistics = self.state.lock().statistics;
        statistics.index_chunks_verified = reader_statistics.index_chunks_verified;
        statistics.index_chunks_unverified = reader_statistics.index_chunks_unverified;
        statistics
    }

    /// Errors with the first recorded member-trailer mismatch, if any.
    fn check_verification(&self) -> Result<(), CoreError> {
        if self.options.verification == VerificationMode::Off {
            return Ok(());
        }
        self.verifier.lock().check()
    }

    /// Total decompressed size, if already known (i.e. after a full pass or
    /// when an index was imported).
    pub fn uncompressed_size(&self) -> Option<u64> {
        let state = self.state.lock();
        if state.pass.finished {
            Some(state.index.block_map.uncompressed_size())
        } else {
            None
        }
    }

    /// Returns a copy of the index built so far.  Call after reading the
    /// whole stream (or [`ParallelGzipReader::build_full_index`]) to get a
    /// complete index suitable for export.
    pub fn index(&self) -> GzipIndex {
        let mut state = self.state.lock();
        // Wait for in-flight chunk workers first: each one records its seek
        // point's CRC fragments as it finishes, and an export taken before
        // that would silently lose verification data for the last chunks.
        let pending: Vec<u64> = state
            .chunk_data
            .iter()
            .filter(|(_, data)| matches!(data, ChunkData::Pending(_)))
            .map(|(&key, _)| key)
            .collect();
        for key in pending {
            if let Some(ChunkData::Pending(handle)) = state.chunk_data.remove(&key) {
                if let Ok(data) = handle.wait() {
                    state
                        .chunk_data
                        .insert(key, ChunkData::Ready(Arc::new(data)));
                }
            }
        }
        let mut index = state.index.clone();
        index.uncompressed_size = index.block_map.uncompressed_size();
        state.index.uncompressed_size = index.uncompressed_size;
        index
    }

    /// Runs the sequential pass to the end of the file (if not already done)
    /// so that the index covers the whole stream, then returns it.
    pub fn build_full_index(&mut self) -> Result<GzipIndex, CoreError> {
        loop {
            let finished = self.state.lock().pass.finished;
            if finished {
                break;
            }
            self.advance_one_chunk()?;
        }
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
        // The writer gets the chunks' own bytes, a slice at a time.
        while let Some((data, offset)) = self.chunk_at_position()? {
            let end = data.len().min(offset + HAND_OVER_BYTES);
            writer.write_all(&data[offset..end])?;
            self.position += (end - offset) as u64;
        }
        Ok(self.position)
    }

    // --- sequential pass ------------------------------------------------

    /// Advances the sequential pass by one chunk, extending the index.
    fn advance_one_chunk(&self) -> Result<(), CoreError> {
        let verify = self.options.verification == VerificationMode::Full;
        let (start_bit, uncompressed_offset, window, seq, first_member) = {
            let state = self.state.lock();
            if state.pass.finished {
                return Ok(());
            }
            (
                state.pass.next_start_bit,
                state.pass.next_uncompressed_offset,
                state.pass.window.clone(),
                state.pass.next_seq,
                state.pass.next_member,
            )
        };

        let chunk_bits = (self.options.chunk_size as u64) * 8;
        let file_bits = self.reader.size() * 8;
        if start_bit >= file_bits {
            self.state.lock().pass.finished = true;
            return Ok(());
        }

        // Keep the pool busy before doing this chunk's work.
        self.issue_prefetches(start_bit);

        // The stop offset is the next guessed chunk boundary after the start.
        let guess_index = (start_bit / chunk_bits) as usize;
        let stop_bit = ((guess_index as u64) + 1) * chunk_bits;

        // Try to reuse a speculative result for this exact offset.
        let speculative = self.take_speculative(start_bit, guess_index)?;

        let (data_handle, end_bit, chunk_length, window_for_next, reached_end_of_file);
        // Which window bytes the chunk actually referenced; the seek point
        // stores a sparsified window based on this.
        let window_usage;
        // How many gzip members end inside this chunk, advancing the member
        // counter for the next seek point's fragment attribution.
        let members_ended;
        match speculative {
            Some(chunk) if chunk.found_bit_offset == start_bit && start_bit != 0 => {
                // Resolve the trailing window serially, then dispatch the full
                // marker replacement to the pool (§2.2: only the window
                // propagation is inherently sequential — and not even that
                // once the chunk's byte tail spans a whole window).
                let next_window = chunk
                    .output
                    .next_window(&window)
                    .map_err(CoreError::Deflate)?;
                window_usage = chunk.window_usage;
                end_bit = chunk.end_bit_offset;
                chunk_length = chunk.output.len() as u64;
                reached_end_of_file = chunk.reached_end_of_file;
                window_for_next = Arc::new(next_window);
                let window_clone = window.clone();
                let wide_bytes = chunk.output.prefix().len() as u64;
                let output = chunk.output;
                let member_ends = chunk.member_ends;
                members_ended = member_ends.len() as u64;
                let verifier = self.verifier.clone();
                let trace = self.trace.clone();
                let marker_seconds = self.metrics.stage_marker_replace.clone();
                let crc_seconds = self.metrics.stage_crc_fold.clone();
                // The checksum map shares storage with the index (and holds
                // no pool reference), so the worker can record this seek
                // point's fragments for verified random access later.
                let checksum_map = self.state.lock().index.checksum_map.clone();
                let handle = self.pool.submit(move || {
                    let _stage_timer = marker_seconds.start_timer();
                    let mut span = trace
                        .span(Stage::MarkerReplace)
                        .chunk(start_bit)
                        .member(first_member);
                    span.set_bytes(chunk_length);
                    let result = if verify {
                        // Hash the resolved bytes per member fragment right
                        // here on the worker, then hand the fragments to the
                        // stream-ordered fold.
                        let ends: Vec<usize> =
                            member_ends.iter().map(|&(end, _)| end as usize).collect();
                        output
                            .resolve(&window_clone, Some(&ends))
                            .map_err(CoreError::Deflate)
                            .map(|(data, crcs)| {
                                let mut fragments = Vec::with_capacity(crcs.len());
                                let mut start = 0u64;
                                for (index, crc32) in crcs.into_iter().enumerate() {
                                    let (length, trailer) = match member_ends.get(index) {
                                        Some(&(end, footer)) => (end - start, Some(footer)),
                                        None => (data.len() as u64 - start, None),
                                    };
                                    fragments.push(ChunkFragment {
                                        crc32,
                                        length,
                                        trailer,
                                    });
                                    start += length;
                                }
                                checksum_map.insert(
                                    start_bit,
                                    PointChecksums::from_fragments(
                                        first_member,
                                        fragments.iter().map(|f| (f.crc32, f.length)),
                                    ),
                                );
                                {
                                    let _fold = trace.span(Stage::CrcFold).chunk(start_bit);
                                    let _crc_timer = crc_seconds.start_timer();
                                    verifier.lock().submit(seq, fragments);
                                }
                                data
                            })
                    } else {
                        output
                            .resolve(&window_clone, None)
                            .map(|(data, _)| data)
                            .map_err(CoreError::Deflate)
                    };
                    span.set_outcome(match &result {
                        Ok(_) => Outcome::Committed,
                        Err(_) => Outcome::Error,
                    });
                    result
                });
                data_handle = ChunkData::Pending(handle);
                self.trace.instant(
                    instants::SPEC_COMMIT,
                    EventMeta {
                        chunk: Some(start_bit),
                        member: Some(first_member),
                        bytes: Some(chunk_length),
                        ..EventMeta::default()
                    },
                );
                {
                    let mut state = self.state.lock();
                    state.statistics.speculative_chunks_used += 1;
                    state.statistics.speculative_bytes_u16 += wide_bytes;
                    state.statistics.speculative_bytes_u8 += chunk_length - wide_bytes;
                }
                self.metrics.chunks_speculative.inc();
                self.metrics.speculative_bytes_u16.add(wide_bytes);
                self.metrics
                    .speculative_bytes_u8
                    .add(chunk_length - wide_bytes);
                self.metrics.bytes_out.add(chunk_length);
            }
            other => {
                if let Some(wasted) = other {
                    let wasted_bytes = wasted.output.len() as u64;
                    let mut state = self.state.lock();
                    state.statistics.speculative_mismatches += 1;
                    state.statistics.speculative_chunks_wasted += 1;
                    state.statistics.speculative_bytes_wasted += wasted_bytes;
                    drop(state);
                    self.metrics.speculation_mismatches.inc();
                    self.metrics.chunks_wasted.inc();
                    self.metrics.bytes_wasted.add(wasted_bytes);
                    self.trace.instant(
                        instants::SPEC_WASTE,
                        EventMeta {
                            chunk: Some(wasted.found_bit_offset),
                            bytes: Some(wasted_bytes),
                            ..EventMeta::default()
                        },
                    );
                }
                // Decode on demand with the known window (first chunk, false
                // positive, or no speculative result available).
                let _stage_timer = self.metrics.stage_decode_one_stage.start_timer();
                let mut span = self
                    .trace
                    .span(Stage::DecodeOneStage)
                    .chunk(start_bit)
                    .member(first_member);
                let mut result = match self.chunk_decoder().decode_at(&DirectChunk {
                    start_bit_offset: start_bit,
                    stop_bit_offset: stop_bit,
                    window: &window,
                    at_member_start: start_bit == 0,
                    stop_is_seek_point: false,
                    verify,
                }) {
                    Ok(result) => {
                        span.set_bytes(result.data.len() as u64);
                        span.set_compressed_range(start_bit / 8, result.end_bit_offset.div_ceil(8));
                        span.set_outcome(if result.fast_fallback_blocks > 0 {
                            Outcome::Fallback
                        } else {
                            Outcome::Committed
                        });
                        span.finish();
                        result
                    }
                    Err(error) => {
                        span.set_outcome(Outcome::Error);
                        return Err(error);
                    }
                };
                members_ended = result
                    .fragments
                    .iter()
                    .filter(|f| f.trailer.is_some())
                    .count() as u64;
                if verify {
                    self.state.lock().index.checksum_map.insert(
                        start_bit,
                        PointChecksums::from_fragments(
                            first_member,
                            result.fragments.iter().map(|f| (f.crc32, f.length)),
                        ),
                    );
                    let _fold = self.trace.span(Stage::CrcFold).chunk(start_bit);
                    let _crc_timer = self.metrics.stage_crc_fold.start_timer();
                    self.verifier
                        .lock()
                        .submit(seq, std::mem::take(&mut result.fragments));
                }
                end_bit = result.end_bit_offset;
                chunk_length = result.data.len() as u64;
                reached_end_of_file = result.reached_end_of_file;
                window_usage = result.window_usage;
                let tail_start = result.data.len().saturating_sub(WINDOW_SIZE);
                let mut next_window: Vec<u8> = Vec::with_capacity(WINDOW_SIZE);
                if result.data.len() < WINDOW_SIZE {
                    let need = WINDOW_SIZE - result.data.len();
                    let take = need.min(window.len());
                    next_window.extend_from_slice(&window[window.len() - take..]);
                }
                next_window.extend_from_slice(&result.data[tail_start..]);
                window_for_next = Arc::new(next_window);
                data_handle = ChunkData::Ready(Arc::new(result.data));
                self.state.lock().statistics.on_demand_chunks += 1;
                self.metrics.chunks_on_demand.inc();
                self.metrics.bytes_out.add(chunk_length);
            }
        }

        let mut state = self.state.lock();
        state.index.add_seek_point_sparse(
            SeekPoint {
                compressed_bit_offset: start_bit,
                uncompressed_offset,
                uncompressed_size: chunk_length,
            },
            &window,
            &window_usage,
        );
        state.chunk_data.insert(start_bit, data_handle);
        state.pass.next_start_bit = end_bit;
        state.pass.next_uncompressed_offset = uncompressed_offset + chunk_length;
        state.pass.window = window_for_next;
        state.pass.next_seq = seq + 1;
        state.pass.next_member = first_member + members_ended;
        if reached_end_of_file || end_bit >= file_bits {
            state.pass.finished = true;
            state.index.uncompressed_size = state.index.block_map.uncompressed_size();
        }
        // Drop stale speculative results that can never match again, counting
        // each one as wasted speculation work.
        let next_start = state.pass.next_start_bit;
        let stale: Vec<u64> = state
            .speculative_ready
            .keys()
            .copied()
            .filter(|&found| found < next_start)
            .collect();
        let mut wasted_events: Vec<(u64, u64)> = Vec::with_capacity(stale.len());
        for found in stale {
            if let Some(chunk) = state.speculative_ready.remove(&found) {
                let bytes = chunk.output.len() as u64;
                state.statistics.speculative_chunks_wasted += 1;
                state.statistics.speculative_bytes_wasted += bytes;
                wasted_events.push((found, bytes));
            }
        }
        // At the end of the pass, harvest any speculative task that already
        // finished: its result can never be committed, so it is pure waste.
        // Tasks still genuinely in flight are left to complete on the pool and
        // are dropped unharvested (their cost is not attributable yet).
        if state.pass.finished {
            let finished: Vec<usize> = state
                .speculative_pending
                .iter()
                .filter(|(_, handle)| handle.is_finished())
                .map(|(&index, _)| index)
                .collect();
            for index in finished {
                if let Some(handle) = state.speculative_pending.remove(&index) {
                    if let Some(Ok(Ok(Some(chunk)))) = handle.try_wait() {
                        let bytes = chunk.output.len() as u64;
                        state.statistics.speculative_chunks_wasted += 1;
                        state.statistics.speculative_bytes_wasted += bytes;
                        wasted_events.push((chunk.found_bit_offset, bytes));
                    }
                }
            }
        }
        let finished = state.pass.finished;
        drop(state);
        if finished {
            // Every decode from here on is direct: the symbol buffers the
            // last marker replacements give back are no use to anyone.
            self.buffers.retire_symbols();
        }
        for (found, bytes) in wasted_events {
            self.metrics.chunks_wasted.inc();
            self.metrics.bytes_wasted.add(bytes);
            self.trace.instant(
                instants::SPEC_WASTE,
                EventMeta {
                    chunk: Some(found),
                    bytes: Some(bytes),
                    ..EventMeta::default()
                },
            );
        }
        // Surface any mismatch the fold has found so far (an on-demand chunk
        // submits synchronously; speculative workers may have reported a
        // failure from an earlier chunk by now).
        self.check_verification()
    }

    /// Looks for a finished speculative chunk starting exactly at `start_bit`;
    /// waits for the in-flight task covering that guess index if necessary.
    fn take_speculative(
        &self,
        start_bit: u64,
        guess_index: usize,
    ) -> Result<Option<SpeculativeChunk>, CoreError> {
        // Harvest all finished speculative tasks.
        let handle_to_wait;
        {
            let mut state = self.state.lock();
            let finished: Vec<usize> = state
                .speculative_pending
                .iter()
                .filter(|(_, handle)| handle.is_finished())
                .map(|(&index, _)| index)
                .collect();
            for index in finished {
                if let Some(handle) = state.speculative_pending.remove(&index) {
                    if let Some(Ok(Ok(Some(chunk)))) = handle.try_wait() {
                        state
                            .speculative_ready
                            .insert(chunk.found_bit_offset, chunk);
                    }
                }
            }
            if let Some(chunk) = state.speculative_ready.remove(&start_bit) {
                return Ok(Some(chunk));
            }
            // If the task responsible for this offset is still running, wait
            // for it specifically (the paper's "periodically check for ready
            // chunks until C1 has become ready").
            handle_to_wait = state.speculative_pending.remove(&guess_index);
        }
        match handle_to_wait {
            Some(handle) => {
                let result = handle.wait();
                let mut state = self.state.lock();
                if let Ok(Some(chunk)) = result {
                    state
                        .speculative_ready
                        .insert(chunk.found_bit_offset, chunk);
                }
                Ok(state.speculative_ready.remove(&start_bit))
            }
            None => Ok(None),
        }
    }

    /// Submits speculative decompression tasks for the chunks following
    /// `start_bit`, up to the prefetch degree.
    fn issue_prefetches(&self, start_bit: u64) {
        let chunk_bits = (self.options.chunk_size as u64) * 8;
        let total_chunks = (self.reader.size() as usize).div_ceil(self.options.chunk_size);
        let current_guess = (start_bit / chunk_bits) as usize;
        let degree = self.options.effective_prefetch_degree();

        let mut state = self.state.lock();
        for guess in (current_guess + 1)..=(current_guess + degree) {
            if guess >= total_chunks
                || state.speculative_issued.contains(&guess)
                || state.speculative_pending.len() >= degree
            {
                continue;
            }
            state.speculative_issued.insert(guess);
            state.statistics.prefetches_issued += 1;
            self.metrics.prefetch_issued_speculative.inc();
            self.trace.instant(
                instants::SPEC_SUBMIT,
                EventMeta {
                    chunk: Some(guess as u64 * chunk_bits),
                    ..EventMeta::default()
                },
            );
            let decoder = self.chunk_decoder();
            let decode_seconds = self.metrics.stage_decode_two_stage.clone();
            let handle = self.pool.submit(move || {
                let _stage_timer = decode_seconds.start_timer();
                decoder.decode_speculative(guess)
            });
            state.speculative_pending.insert(guess, handle);
        }
    }

    // --- index-aligned prefetching ---------------------------------------

    /// Prefetches the chunks the index-aligned plan predicts will be read
    /// next, decoding them on the pool with their stored windows.
    ///
    /// Active only once a complete seek-point table exists — imported from
    /// any supported index format or built by the sequential pass.  Unlike
    /// the speculative prefetcher this decodes *exact* chunks: every task
    /// starts at a real seek point and stops at the next one, so no decode
    /// is wasted on a misguessed boundary.
    fn issue_index_prefetches(&self, position: u64) {
        let degree = self.options.effective_prefetch_degree();
        let mut state = self.state.lock();
        if !state.pass.finished || state.index.block_map.len() < 2 {
            return;
        }
        let plan = match &state.index_plan {
            Some(plan) => plan.clone(),
            None => {
                let boundaries: Vec<u64> = state
                    .index
                    .block_map
                    .points()
                    .iter()
                    .map(|p| p.uncompressed_offset)
                    .collect();
                let end = state.index.block_map.uncompressed_size();
                let plan = Arc::new(IndexAlignedPlan::new(boundaries, end));
                state.index_plan = Some(plan.clone());
                plan
            }
        };
        // Consecutive reads within one chunk cannot change the prediction;
        // skip the strategy update and backlog scan until the read position
        // crosses into the next chunk (this also keeps many small reads
        // from masquerading as a long sequential run to the strategy).
        let chunk = plan.chunk_of(position);
        if chunk.is_none() || chunk == state.last_prefetch_chunk {
            return;
        }
        state.last_prefetch_chunk = chunk;
        if plan.record_access(position).is_none() {
            return;
        }
        let targets = plan.prefetch(degree);

        // Cap the decoded-but-unconsumed backlog; evict finished prefetches
        // the plan no longer predicts (random access moved elsewhere).
        let outstanding: Vec<u64> = state
            .index_prefetched
            .iter()
            .filter(|key| state.chunk_data.contains_key(key))
            .copied()
            .collect();
        if outstanding.len() >= degree.saturating_mul(2) {
            let predicted: std::collections::HashSet<u64> = targets
                .iter()
                .map(|&chunk| state.index.block_map.points()[chunk].compressed_bit_offset)
                .collect();
            for key in outstanding {
                if predicted.contains(&key) {
                    continue;
                }
                let finished = match state.chunk_data.get(&key) {
                    Some(ChunkData::Ready(_)) => true,
                    Some(ChunkData::Pending(handle)) => handle.is_finished(),
                    None => true,
                };
                if finished {
                    state.chunk_data.remove(&key);
                    state.index_prefetched.remove(&key);
                    self.trace.instant(
                        instants::PREFETCH_EVICT,
                        EventMeta {
                            chunk: Some(key),
                            ..EventMeta::default()
                        },
                    );
                }
            }
            if state
                .index_prefetched
                .iter()
                .filter(|key| state.chunk_data.contains_key(key))
                .count()
                >= degree.saturating_mul(2)
            {
                return;
            }
        }

        // Look up window *records* outside the state lock, before
        // submitting: a task must never capture the window map (it
        // references the thread pool, and a worker dropping the pool's
        // last handle would try to join itself), but an individual
        // `CompressedWindow` record holds no pool reference, so the 32 KiB
        // inflation itself can run on the worker instead of delaying the
        // read this prefetch is meant to hide.
        let window_map = state.index.window_map.clone();
        let checksum_map = state.index.checksum_map.clone();
        let verify = self.options.verification == VerificationMode::Full;
        let plans: Vec<(SeekPoint, u64)> = targets
            .into_iter()
            .filter_map(|chunk| {
                let point = state.index.block_map.points()[chunk].clone();
                let key = point.compressed_bit_offset;
                if state.chunk_data.contains_key(&key) || state.resolved_cache.contains(&key) {
                    return None;
                }
                let stop_bit = state
                    .index
                    .block_map
                    .points()
                    .get(chunk + 1)
                    .map(|next| next.compressed_bit_offset)
                    .unwrap_or(u64::MAX);
                Some((point, stop_bit))
            })
            .collect();
        drop(state);

        for (point, stop_bit) in plans {
            let key = point.compressed_bit_offset;
            let record = window_map.get_compressed(key);
            // Stored fragments (if any) let the task verify its own output;
            // an `Arc<PointChecksums>` holds no pool reference, so capturing
            // it in the closure is safe.
            let checksums = if verify { checksum_map.get(key) } else { None };
            let decoder = self.chunk_decoder();
            let expected_length = point.uncompressed_size;
            let trace = self.trace.clone();
            self.trace.instant(
                instants::PREFETCH_ISSUE,
                EventMeta {
                    chunk: Some(key),
                    bytes: Some(expected_length),
                    ..EventMeta::default()
                },
            );
            let prefetch_seconds = self.metrics.stage_prefetch_decode.clone();
            let handle = self.pool.submit(move || {
                let _stage_timer = prefetch_seconds.start_timer();
                let mut span = trace.span(Stage::PrefetchDecode).chunk(key);
                let result = (|| {
                    let window = match &record {
                        Some(record) => {
                            let _inflate = trace.span(Stage::WindowInflate).chunk(key);
                            record.decompress().map_err(CoreError::Window)?
                        }
                        None => Vec::new(),
                    };
                    let hashed = checksums.is_some();
                    let result = decoder.decode_at(&DirectChunk {
                        start_bit_offset: key,
                        stop_bit_offset: stop_bit,
                        window: &window,
                        at_member_start: key == 0,
                        stop_is_seek_point: true,
                        verify: hashed,
                    })?;
                    if result.data.len() as u64 != expected_length {
                        return Err(CoreError::IndexMismatch {
                            compressed_bit_offset: key,
                        });
                    }
                    if let Some(checksums) = &checksums {
                        check_point_fragments(checksums, &result.fragments)?;
                    }
                    Ok(result.data)
                })();
                match &result {
                    Ok(data) => {
                        span.set_bytes(data.len() as u64);
                        span.set_outcome(Outcome::Committed);
                    }
                    Err(_) => span.set_outcome(Outcome::Error),
                }
                result
            });
            let mut state = self.state.lock();
            state.chunk_data.insert(key, ChunkData::Pending(handle));
            state.index_prefetched.insert(key);
            state.statistics.index_prefetches_issued += 1;
            self.metrics.prefetch_issued_index.inc();
        }
    }

    // --- serving reads ----------------------------------------------------

    /// Records whether a consumed fast-path chunk was checked against stored
    /// CRC fragments.  Prefetched chunks with fragments verify inside their
    /// task; on-demand decodes verify in [`ParallelGzipReader::chunk_bytes`].
    fn count_fast_path_verification(&self, state: &mut ReaderState, key: u64) {
        if self.options.verification != VerificationMode::Full {
            return;
        }
        if state.index.checksum_map.contains(key) {
            state.statistics.index_chunks_verified += 1;
            self.metrics.verify_index_verified.inc();
        } else {
            state.statistics.index_chunks_unverified += 1;
            self.metrics.verify_index_unverified.inc();
        }
    }

    /// Returns the resolved data of the chunk described by `point`.
    fn chunk_bytes(&self, point: &SeekPoint) -> Result<ChunkBytes, CoreError> {
        let key = point.compressed_bit_offset;
        // Data produced (or being produced) by the sequential pass or an
        // index-aligned prefetch.  The prefetch-hit bookkeeping lives inside
        // the match arms: a stale prefetch flag whose data was already
        // evicted must fall through to the on-demand decode below without
        // counting the chunk twice.
        {
            let mut state = self.state.lock();
            if let Some(cached) = state.resolved_cache.get(&key) {
                return Ok(cached);
            }
            let prefetched = state.index_prefetched.remove(&key);
            match state.chunk_data.remove(&key) {
                Some(ChunkData::Ready(data)) => {
                    if prefetched {
                        state.statistics.index_prefetch_hits += 1;
                        state.statistics.index_chunks += 1;
                        self.count_fast_path_verification(&mut state, key);
                        self.metrics.prefetch_hits.inc();
                        self.metrics.chunks_index.inc();
                        self.metrics.bytes_out.add(data.len() as u64);
                        self.trace.instant(
                            instants::PREFETCH_HIT,
                            EventMeta {
                                chunk: Some(key),
                                ..EventMeta::default()
                            },
                        );
                    }
                    state.resolved_cache.insert(key, data.clone());
                    return Ok(data);
                }
                Some(ChunkData::Pending(handle)) => {
                    if prefetched {
                        state.statistics.index_prefetch_hits += 1;
                        state.statistics.index_chunks += 1;
                        self.count_fast_path_verification(&mut state, key);
                        self.metrics.prefetch_hits.inc();
                        self.metrics.chunks_index.inc();
                        self.trace.instant(
                            instants::PREFETCH_HIT,
                            EventMeta {
                                chunk: Some(key),
                                ..EventMeta::default()
                            },
                        );
                    }
                    drop(state);
                    // A prefetched chunk with stored fragments has compared
                    // its output inside the task; a fragment mismatch
                    // surfaces here as the task's error.
                    let data = Arc::new(handle.wait()?);
                    if prefetched {
                        self.metrics.bytes_out.add(data.len() as u64);
                    }
                    // The worker that produced this chunk has submitted its
                    // CRC fragments by now; fail the read if the fold caught
                    // a trailer mismatch.
                    self.check_verification()?;
                    let mut state = self.state.lock();
                    state.resolved_cache.insert(key, data.clone());
                    return Ok(data);
                }
                None => {}
            }
        }

        // Random access / index fast path: decode on demand with the stored
        // window, lazily re-inflated from its compressed record.
        let (window, checksums) = {
            let state = self.state.lock();
            let checksums = if self.options.verification == VerificationMode::Full {
                state.index.checksum_map.get(key)
            } else {
                None
            };
            (state.index.window_map.try_get(key), checksums)
        };
        let window = window.map_err(CoreError::Window)?.unwrap_or_default();
        let stop_bit = {
            let state = self.state.lock();
            let points = state.index.block_map.points();
            // Points are sorted by compressed offset (enforced on import).
            let position = points.partition_point(|p| p.compressed_bit_offset <= key);
            points
                .get(position)
                .map(|p| p.compressed_bit_offset)
                .unwrap_or(u64::MAX)
        };
        // Chunks re-decoded through the index are not folded into the stream
        // verification; instead, when the index stores per-point CRC
        // fragments (format v3), hash the output and compare against them.
        // Without stored fragments (v1/v2 files, foreign imports) the decode
        // completes unverified and is counted as such.
        self.trace.instant(
            instants::PREFETCH_MISS,
            EventMeta {
                chunk: Some(key),
                ..EventMeta::default()
            },
        );
        let _stage_timer = self.metrics.stage_random_access.start_timer();
        let mut span = self.trace.span(Stage::RandomAccess).chunk(key);
        if let Some(checksums) = &checksums {
            span.set_member(checksums.first_member);
        }
        let result = match self.chunk_decoder().decode_at(&DirectChunk {
            start_bit_offset: key,
            stop_bit_offset: stop_bit,
            window: &window,
            at_member_start: key == 0,
            stop_is_seek_point: true,
            verify: checksums.is_some(),
        }) {
            Ok(result) => result,
            Err(error) => {
                span.set_outcome(Outcome::Error);
                return Err(error);
            }
        };
        span.set_bytes(result.data.len() as u64);
        span.set_compressed_range(key / 8, result.end_bit_offset.div_ceil(8));
        if result.data.len() as u64 != point.uncompressed_size {
            span.set_outcome(Outcome::Error);
            return Err(CoreError::IndexMismatch {
                compressed_bit_offset: key,
            });
        }
        if let Some(checksums) = &checksums {
            if let Err(error) = check_point_fragments(checksums, &result.fragments) {
                span.set_outcome(Outcome::Error);
                return Err(error);
            }
        }
        span.set_outcome(Outcome::Committed);
        span.finish();
        let data = Arc::new(result.data);
        let mut state = self.state.lock();
        state.statistics.index_chunks += 1;
        self.count_fast_path_verification(&mut state, key);
        self.metrics.chunks_index.inc();
        self.metrics.bytes_out.add(data.len() as u64);
        state.resolved_cache.insert(key, data.clone());
        Ok(data)
    }

    /// The chunk covering the current position and the position's offset in
    /// it, advancing the sequential pass as far as that takes; `None` at the
    /// end of the stream.
    fn chunk_at_position(&self) -> Result<Option<(ChunkBytes, usize)>, CoreError> {
        loop {
            let covering_point = {
                let state = self.state.lock();
                state.index.block_map.find(self.position).cloned()
            };
            if let Some(point) = covering_point {
                let end = point.uncompressed_offset + point.uncompressed_size;
                if self.position < end {
                    // With a complete seek-point table, keep the pool busy
                    // decoding the exact chunks predicted to be read next.
                    self.issue_index_prefetches(self.position);
                    let data = self.chunk_bytes(&point)?;
                    let chunk_offset = (self.position - point.uncompressed_offset) as usize;
                    // A cached chunk shorter than its seek point claims (a
                    // lying or stale index) must error like the on-demand
                    // length check does, not underflow in the caller.
                    if chunk_offset >= data.len() {
                        return Err(CoreError::IndexMismatch {
                            compressed_bit_offset: point.compressed_bit_offset,
                        });
                    }
                    return Ok(Some((data, chunk_offset)));
                }
            }
            // The index does not (yet) cover the position.
            let finished = self.state.lock().pass.finished;
            if finished {
                // End of stream: a sequential pass has waited on every chunk
                // by now, so a corrupt trailer anywhere must have been folded
                // and is reported here at the latest.
                self.check_verification()?;
                return Ok(None);
            }
            self.advance_one_chunk()?;
        }
    }

    /// Serves as many bytes as possible from the chunk covering `position`.
    fn read_at_position(&mut self, buffer: &mut [u8]) -> Result<usize, CoreError> {
        let Some((data, chunk_offset)) = self.chunk_at_position()? else {
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
                loop {
                    let finished = self.state.lock().pass.finished;
                    if finished {
                        break;
                    }
                    self.advance_one_chunk().map_err(std::io::Error::from)?;
                }
                let size = self.state.lock().index.block_map.uncompressed_size();
                size as i128 + delta as i128
            }
        };
        if new_position < 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "seek before the start of the stream",
            ));
        }
        // A seek only updates the position; all work happens on the next read
        // (§3.1).
        self.position = new_position as u64;
        Ok(self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_datagen::{base64_random, fastq_records, silesia_like};
    use rgz_gzip::{decompress, CompressorFrontend, FrontendKind, GzipWriter};

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

        // The v2 export of the sparse/compressed windows must round-trip into
        // a reader whose output is byte-identical, through seeks included.
        // (Exporting also waits for any still-running window compressions.)
        let serialized = index.export_as(rgz_index::IndexFormat::V2);

        let statistics = reader.window_statistics();
        assert_eq!(statistics.pending_compressions, 0);
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

        // With a single-chunk resolved cache, alternating between two far
        // apart offsets forces repeated decodes of the same chunks — the
        // second round must find its decompressed windows in the hot cache.
        let imported = GzipIndex::import(&serialized).unwrap();
        let mut third = ParallelGzipReader::with_index(
            SharedFileReader::from_bytes(GzipWriter::default().compress(&data)),
            ParallelGzipReaderOptions {
                parallelization: 2,
                chunk_size: 128 * 1024,
                resolved_cache_chunks: 1,
                ..Default::default()
            },
            imported,
        )
        .unwrap();
        for _ in 0..2 {
            for offset in [400_000u64, 1_500_000] {
                third.seek(SeekFrom::Start(offset)).unwrap();
                third.read_exact(&mut buffer).unwrap();
                assert_eq!(
                    &buffer[..],
                    &data[offset as usize..offset as usize + buffer.len()]
                );
            }
        }
        assert!(third.window_statistics().hot_cache.hits > 0);
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
        let data = silesia_like(1_500_000, 60);
        let compressed = GzipWriter::default().compress(&data);
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(4, 128 * 1024)).unwrap();
        // `index()` waits for in-flight workers, so every point's fragments
        // are present even though speculative chunks insert asynchronously.
        let index = reader.build_full_index().unwrap();
        assert!(index.block_map.len() > 2);
        assert_eq!(index.checksum_map.len(), index.block_map.len());
        for point in index.block_map.points() {
            let checksums = index.checksum_map.get(point.compressed_bit_offset).unwrap();
            let total: u64 = checksums.fragments.iter().map(|f| f.length).sum();
            assert_eq!(total, point.uncompressed_size);
        }
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

        // The same reads through a fragment-less v2 export complete but are
        // reported as unverified.
        let v2 = GzipIndex::import(&index.export_as(rgz_index::IndexFormat::V2)).unwrap();
        assert!(v2.checksum_map.is_empty());
        let mut unverified = small_cache(v2);
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
        // Chunk 0's compressed range (chunk + slack = two chunks) ends exactly
        // at the first member's end; the second member must still be read.
        let (compressed, first_length, expected) =
            crate::chunk::tests::single_block_member_then_another();
        let mut reader =
            ParallelGzipReader::from_bytes(compressed, options(2, first_length / 2)).unwrap();
        let restored = reader.decompress_all().unwrap();
        assert_eq!(restored.len(), expected.len());
        assert_eq!(restored, expected);
        assert_eq!(reader.verification_statistics().members_verified, 2);
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
                        outcome: Outcome::Ok,
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
        // Plant two impossible speculative results: offset 0 collides with
        // the first on-demand chunk (counted as a mismatch), offset 1 can
        // never be a chunk start (dropped as stale once the first chunk
        // commits past it).
        {
            let mut state = reader.state.lock();
            for found in [0u64, 1] {
                state.speculative_ready.insert(
                    found,
                    SpeculativeChunk {
                        requested_bit_offset: found,
                        found_bit_offset: found,
                        end_bit_offset: found + 8,
                        output: crate::chunk::PooledOutput::adopt(
                            vec![0u16; 100].into(),
                            &reader.buffers,
                        ),
                        window_usage: Vec::new(),
                        block_count: 1,
                        reached_end_of_file: false,
                        member_ends: Vec::new(),
                    },
                );
            }
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
