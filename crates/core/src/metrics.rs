//! The reader's telemetry: one call per event, every sink behind it.
//!
//! What happens to a chunk — issued, committed, wasted, served out of the
//! index — is written once, by the [`ReaderMetrics`] method named after it:
//! it adds to the event's `rgz_metrics` series and emits its `rgz_trace`
//! instant, and no other code touches either.  Nothing is counted a second
//! time for [`ReaderStatistics`]: `statistics()` reads the registry back
//! through [`ReaderStatistics::from_metrics_snapshot`], so it, a snapshot and
//! a Prometheus scrape are views of one store.  (The trace report folds its
//! speculation and prefetch summaries from the instants — a trace is read
//! without the process that wrote it.)  A stage's duration is likewise taken
//! once, by the [`StageTimer`] of [`ReaderMetrics::stage`]: what a trace's
//! span says of it is what `rgz_stage_seconds` observed.

use std::sync::Arc;

use rgz_blockfinder::CandidateKind;
use rgz_fetcher::StageTimer;
use rgz_metrics::{
    exponential_buckets, names, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
use rgz_trace::{instants, EventMeta, Stage, TraceSink};

use crate::chunk::SpeculativeChunk;
use crate::reader::ReaderStatistics;

/// Latency buckets shared by every `rgz_stage_seconds` series: ~100 µs up to
/// ~26 s, factor-4 spacing.  All series of one family must share bounds.
fn stage_buckets() -> Vec<f64> {
    exponential_buckets(0.000_1, 4.0, 10)
}

/// The stages of the reader's own that `rgz_stage_seconds` has a series of,
/// under the name their trace spans go by.
const TIMED_STAGES: [Stage; 6] = [
    Stage::DecodeTwoStage,
    Stage::DecodeOneStage,
    Stage::MarkerReplace,
    Stage::CrcFold,
    Stage::PrefetchDecode,
    Stage::RandomAccess,
];

/// Handles for every reader-owned series, resolved once at construction, and
/// the trace sink their events go to as well: an event is a handful of
/// relaxed atomic adds and, with the sink disabled, one relaxed load.  The
/// counters are private: an event method is the only way to move one.
#[derive(Debug)]
pub(crate) struct ReaderMetrics {
    pub registry: Arc<MetricsRegistry>,
    trace: Arc<TraceSink>,
    chunks_speculative: Counter,
    chunks_on_demand: Counter,
    chunks_window_known: Counter,
    chunks_index: Counter,
    chunks_wasted: Counter,
    bytes_out: Counter,
    bytes_wasted: Counter,
    speculation_mismatches: Counter,
    speculative_bytes_u16: Counter,
    speculative_bytes_u8: Counter,
    speculative_handoffs: Counter,
    block_finder_scanned_bytes: Counter,
    /// By [`CandidateKind`], rejected and taken.
    block_finder_candidates: [[Counter; 2]; 2],
    prefetch_issued_speculative: Counter,
    prefetch_issued_index: Counter,
    prefetch_hits: Counter,
    index_slices_checked: Counter,
    index_slices_unchecked: Counter,
    index_slice_bytes: Counter,
    interior_window_bytes: Gauge,
    access_cache_bytes: Gauge,
    access_cache_chunks: Gauge,
    /// Counted by the [`StreamVerifier`](crate::verify::StreamVerifier).
    pub verify_member: Counter,
    verify_index_verified: Counter,
    verify_index_unverified: Counter,
    stages: [(Stage, Histogram); 6],
}

impl ReaderMetrics {
    /// Register (or re-resolve) every reader family on `registry`.
    pub fn register(registry: &Arc<MetricsRegistry>, trace: Arc<TraceSink>) -> Self {
        let stage = |stage: Stage| {
            let histogram = registry.histogram_with_labels(
                names::STAGE_SECONDS,
                "Reader pipeline stage latency in seconds",
                &stage_buckets(),
                &[("stage", stage.name())],
            );
            (stage, histogram)
        };
        let decoded = |path: &str| {
            registry.counter_with_labels(
                names::CHUNKS_DECODED,
                "Chunks whose bytes were committed to the output, by decode path",
                &[("path", path)],
            )
        };
        let prefetch = |kind: &str| {
            registry.counter_with_labels(
                names::PREFETCH_ISSUED,
                "Prefetch tasks submitted to the pool, by kind",
                &[("kind", kind)],
            )
        };
        let speculative_bytes = |width: &str| {
            registry.counter_with_labels(
                names::SPECULATIVE_BYTES,
                "Bytes of committed speculative chunks, by the symbol width they were decoded at",
                &[("width", width)],
            )
        };
        let candidates = |kind: &str, verdict: &str| {
            registry.counter_with_labels(
                names::BLOCK_FINDER_CANDIDATES,
                "Block starts the finder offered a speculative decode, by what became of them",
                &[("kind", kind), ("verdict", verdict)],
            )
        };
        let slices = |checked: &str| {
            registry.counter_with_labels(
                names::INDEX_SLICES,
                "Reads served by decoding a slice of an index chunk between interior points",
                &[("checked", checked)],
            )
        };
        let verify = |outcome: &str| {
            registry.counter_with_labels(
                names::VERIFICATION,
                "Chunk/member verification outcomes",
                &[("outcome", outcome)],
            )
        };
        Self {
            registry: Arc::clone(registry),
            trace,
            chunks_speculative: decoded("speculative"),
            chunks_on_demand: decoded("on_demand"),
            chunks_window_known: decoded("window_known"),
            chunks_index: decoded("index"),
            chunks_wasted: registry.counter(
                names::CHUNKS_WASTED,
                "Speculatively decoded chunks discarded without use",
            ),
            bytes_out: registry.counter(
                names::BYTES_OUT,
                "Decompressed bytes committed to the output",
            ),
            bytes_wasted: registry.counter(
                names::BYTES_WASTED,
                "Decompressed bytes discarded with wasted chunks",
            ),
            speculation_mismatches: registry.counter(
                names::SPECULATION_MISMATCHES,
                "Speculative chunks rejected because the block boundary guess was wrong",
            ),
            speculative_bytes_u16: speculative_bytes("u16"),
            speculative_bytes_u8: speculative_bytes("u8"),
            speculative_handoffs: registry.counter(
                names::SPECULATIVE_HANDOFFS,
                "Speculative decodes handed their window while under way",
            ),
            block_finder_scanned_bytes: registry.counter(
                names::BLOCK_FINDER_SCANNED_BYTES,
                "Compressed bytes searched for a block to start a speculative decode from",
            ),
            block_finder_candidates: ["uncompressed", "dynamic"]
                .map(|kind| ["rejected", "taken"].map(|verdict| candidates(kind, verdict))),
            prefetch_issued_speculative: prefetch("speculative"),
            prefetch_issued_index: prefetch("index"),
            prefetch_hits: registry.counter(
                names::PREFETCH_HITS,
                "Index-path chunk requests served from a completed prefetch",
            ),
            index_slices_checked: slices("yes"),
            index_slices_unchecked: slices("no"),
            index_slice_bytes: registry.counter(
                names::INDEX_SLICE_BYTES,
                "Bytes decoded as slices of index chunks",
            ),
            interior_window_bytes: registry.gauge(
                names::INTERIOR_WINDOW_BYTES,
                "Bytes of sparse window the reader's interior seek points hold",
            ),
            access_cache_bytes: registry.gauge(
                names::ACCESS_CACHE_BYTES,
                "Compressed bytes the chunks of the reader's access cache span",
            ),
            access_cache_chunks: registry.gauge(
                names::ACCESS_CACHE_CHUNKS,
                "Chunks the reader's access cache holds",
            ),
            verify_member: verify("member_verified"),
            verify_index_verified: verify("index_verified"),
            verify_index_unverified: verify("index_unverified"),
            stages: TIMED_STAGES.map(stage),
        }
    }

    /// The sink every stage of the reader records into.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Starts the clock of one of the [`TIMED_STAGES`], at work on the chunk
    /// at `key`: its span and its `rgz_stage_seconds` observation end with
    /// what is returned.
    pub fn stage(&self, stage: Stage, key: u64) -> StageTimer<'_> {
        let timed = self.stages.iter().find(|(timed, _)| *timed == stage);
        let (_, histogram) = timed.expect("a stage rgz_stage_seconds has a series of");
        StageTimer::start(self.trace.span(stage).chunk(key), histogram)
    }

    /// Everything the reader has counted so far, read back from the registry.
    pub fn statistics(&self) -> ReaderStatistics {
        ReaderStatistics::from_metrics_snapshot(&self.registry.snapshot())
    }

    fn instant(&self, name: &'static str, chunk: u64, member: Option<u64>, bytes: Option<u64>) {
        let meta = EventMeta {
            chunk: Some(chunk),
            member,
            bytes,
            ..EventMeta::default()
        };
        self.trace.instant(name, meta);
    }

    /// `bytes` more of the output are decided, decoded the way `path` counts.
    fn committed(&self, path: &Counter, bytes: u64) {
        path.inc();
        self.bytes_out.add(bytes);
    }

    /// A decode ahead of the pass went to the pool, for the range at `key`.
    pub fn speculative_issued(&self, key: u64) {
        self.prefetch_issued_speculative.inc();
        self.instant(instants::SPEC_SUBMIT, key, None, None);
    }

    /// The pass committed a chunk decoded with its window unknown, the first
    /// `wide_bytes` of its `length` as 16-bit symbols.
    pub fn speculative_committed(&self, start_bit: u64, member: u64, length: u64, wide_bytes: u64) {
        self.committed(&self.chunks_speculative, length);
        self.speculative_bytes_u16.add(wide_bytes);
        self.speculative_bytes_u8.add(length - wide_bytes);
        self.instant(instants::SPEC_COMMIT, start_bit, Some(member), Some(length));
    }

    /// A speculative decode searched its range for a block to start from, over
    /// `scanned_bytes` by the two finders together: `rejected` counts the
    /// candidates, by `CandidateKind as usize`, that did not decode, and
    /// `taken` is the one that did.  (A search done again over a wider range
    /// counts again: it is work done.)
    pub fn block_searched(
        &self,
        scanned_bytes: u64,
        rejected: [u64; 2],
        taken: Option<CandidateKind>,
    ) {
        self.block_finder_scanned_bytes.add(scanned_bytes);
        for (kind, rejected) in rejected.into_iter().enumerate() {
            self.block_finder_candidates[kind][0].add(rejected);
        }
        if let Some(kind) = taken {
            self.block_finder_candidates[kind as usize][1].inc();
        }
    }

    /// The pass, arrived at `start_bit`, handed the speculative decode under
    /// way from there its window, `wide_bytes` symbols into the chunk.
    pub fn window_handed(&self, start_bit: u64, wide_bytes: u64) {
        self.speculative_handoffs.inc();
        self.instant(instants::WINDOW_HANDED, start_bit, None, Some(wide_bytes));
    }

    /// The pass committed a chunk decoded one-stage from where it stood:
    /// `demanded`, or issued ahead and begun with the one before committed.
    pub fn known_start_committed(&self, demanded: bool, start_bit: u64, member: u64, length: u64) {
        if demanded {
            self.committed(&self.chunks_on_demand, length);
        } else {
            self.committed(&self.chunks_window_known, length);
            let name = instants::WINDOW_KNOWN_COMMIT;
            self.instant(name, start_bit, Some(member), Some(length));
        }
    }

    /// A speculatively decoded chunk will never be committed: decoded from a
    /// block the pass did not arrive at (`mismatched`), or in a range it never
    /// stopped in.
    pub fn speculative_wasted(&self, chunk: &SpeculativeChunk, mismatched: bool) {
        let (found_bit, bytes) = (chunk.found_bit_offset, chunk.output.len() as u64);
        if mismatched {
            self.speculation_mismatches.inc();
        }
        self.chunks_wasted.inc();
        self.bytes_wasted.add(bytes);
        self.instant(instants::SPEC_WASTE, found_bit, None, Some(bytes));
    }

    /// An index-aligned prefetch of the chunk at `key` went to the pool.
    pub fn index_prefetch_issued(&self, key: u64, bytes: u64) {
        self.prefetch_issued_index.inc();
        self.instant(instants::PREFETCH_ISSUE, key, None, Some(bytes));
    }

    /// The reader found the chunk at `key` prefetched.
    pub fn prefetch_hit(&self, key: u64) {
        self.prefetch_hits.inc();
        self.instant(instants::PREFETCH_HIT, key, None, None);
    }

    /// Nobody had the chunk at `key`: the reader decodes it itself.
    pub fn prefetch_miss(&self, key: u64) {
        self.instant(instants::PREFETCH_MISS, key, None, None);
    }

    /// A finished chunk the reader has not come for was let go of.
    pub fn evicted(&self, key: u64) {
        self.instant(instants::PREFETCH_EVICT, key, None, None);
    }

    /// A read got the `bytes` of a slice of the chunk at `key`, decoded from
    /// an interior point of it — `checked` against the CRCs taken when the
    /// whole chunk was.  The chunk it is of has been counted.
    pub fn index_slice_served(&self, key: u64, bytes: u64, checked: bool) {
        match checked {
            true => self.index_slices_checked.inc(),
            false => self.index_slices_unchecked.inc(),
        }
        self.index_slice_bytes.add(bytes);
        self.instant(instants::INDEX_SLICE, key, None, Some(bytes));
    }

    /// The interior points of all chunks now hold `bytes` of window.
    pub fn interior_windows_held(&self, bytes: usize) {
        self.interior_window_bytes.set(bytes as i64);
    }

    /// The access cache now holds `chunks` chunks spanning `bytes`
    /// compressed bytes.
    pub fn access_cache_held(&self, chunks: usize, bytes: u64) {
        self.access_cache_chunks.set(chunks as i64);
        self.access_cache_bytes.set(bytes as i64);
    }

    /// A chunk decoded through the index reached the reader: `checked`
    /// against fragments the index stores, or with none while `verifying`.
    pub fn index_chunk_served(&self, bytes: u64, checked: bool, verifying: bool) {
        self.committed(&self.chunks_index, bytes);
        if checked {
            self.verify_index_verified.inc();
        } else if verifying {
            self.verify_index_unverified.inc();
        }
    }
}

impl ReaderStatistics {
    /// Rebuild the reader-owned counters from a registry snapshot.
    ///
    /// Every field is read back from the series the reader's events add to;
    /// [`ParallelGzipReader::statistics`](crate::ParallelGzipReader::statistics)
    /// is this function over the reader's registry.  The `pool_*` fields are
    /// the pool's gauges and counter as they stand: tasks may be in flight.
    pub fn from_metrics_snapshot(snapshot: &MetricsSnapshot) -> Self {
        let counter =
            |name: &str, labels: &[(&str, &str)]| snapshot.counter(name, labels).unwrap_or(0);
        let gauge = |name: &str| snapshot.gauge(name, &[]).unwrap_or(0).max(0) as u64;
        Self {
            speculative_chunks_used: counter(names::CHUNKS_DECODED, &[("path", "speculative")]),
            on_demand_chunks: counter(names::CHUNKS_DECODED, &[("path", "on_demand")]),
            window_known_chunks: counter(names::CHUNKS_DECODED, &[("path", "window_known")]),
            index_chunks: counter(names::CHUNKS_DECODED, &[("path", "index")]),
            speculative_mismatches: counter(names::SPECULATION_MISMATCHES, &[]),
            prefetches_issued: counter(names::PREFETCH_ISSUED, &[("kind", "speculative")]),
            index_prefetches_issued: counter(names::PREFETCH_ISSUED, &[("kind", "index")]),
            index_prefetch_hits: counter(names::PREFETCH_HITS, &[]),
            index_slices: counter(names::INDEX_SLICES, &[("checked", "yes")])
                + counter(names::INDEX_SLICES, &[("checked", "no")]),
            index_slice_bytes: counter(names::INDEX_SLICE_BYTES, &[]),
            index_chunks_verified: counter(names::VERIFICATION, &[("outcome", "index_verified")]),
            index_chunks_unverified: counter(
                names::VERIFICATION,
                &[("outcome", "index_unverified")],
            ),
            speculative_chunks_wasted: counter(names::CHUNKS_WASTED, &[]),
            speculative_bytes_wasted: counter(names::BYTES_WASTED, &[]),
            speculative_bytes_u16: counter(names::SPECULATIVE_BYTES, &[("width", "u16")]),
            speculative_bytes_u8: counter(names::SPECULATIVE_BYTES, &[("width", "u8")]),
            speculative_chunks_handed: counter(names::SPECULATIVE_HANDOFFS, &[]),
            pool_queue_depth: gauge(names::POOL_QUEUE_DEPTH),
            pool_tasks_inflight: gauge(names::POOL_TASKS_INFLIGHT),
            pool_tasks_submitted: counter(names::POOL_TASKS_TOTAL, &[]),
        }
    }
}
