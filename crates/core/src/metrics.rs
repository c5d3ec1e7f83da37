//! Reader-level metric handles and the mapping between the live registry and
//! [`ReaderStatistics`](crate::reader::ReaderStatistics).
//!
//! Every counter the reader already tracks in `ReaderStatistics` has a
//! registry twin, incremented at the same program point, so a registry
//! snapshot and a `statistics()` call can never disagree.  The reverse
//! mapping lives in [`ReaderStatistics::from_metrics_snapshot`]; a
//! reconciliation test pins the two representations to each other.

use std::sync::Arc;

use rgz_metrics::{
    exponential_buckets, names, Counter, Histogram, MetricsRegistry, MetricsSnapshot,
};

use crate::reader::ReaderStatistics;

/// Latency buckets shared by every `rgz_stage_seconds` series: ~100 µs up to
/// ~26 s, factor-4 spacing.  All series of one family must share bounds.
fn stage_buckets() -> Vec<f64> {
    exponential_buckets(0.000_1, 4.0, 10)
}

/// Pre-resolved handles for every reader-owned series.
///
/// Handles are resolved once at reader construction; the hot paths touch
/// only sharded relaxed atomics (or a single relaxed load when recording is
/// disabled).  `disconnected()` gives inert handles for readers built
/// without a registry so call sites stay unconditional.
#[derive(Debug)]
pub(crate) struct ReaderMetrics {
    pub registry: Arc<MetricsRegistry>,
    pub chunks_speculative: Counter,
    pub chunks_on_demand: Counter,
    pub chunks_window_known: Counter,
    pub chunks_index: Counter,
    pub chunks_wasted: Counter,
    pub bytes_out: Counter,
    pub bytes_wasted: Counter,
    pub speculation_mismatches: Counter,
    pub speculative_bytes_u16: Counter,
    pub speculative_bytes_u8: Counter,
    pub prefetch_issued_speculative: Counter,
    pub prefetch_issued_index: Counter,
    pub prefetch_hits: Counter,
    pub verify_member: Counter,
    pub verify_index_verified: Counter,
    pub verify_index_unverified: Counter,
    pub stage_decode_two_stage: Histogram,
    pub stage_decode_one_stage: Histogram,
    pub stage_marker_replace: Histogram,
    pub stage_crc_fold: Histogram,
    pub stage_prefetch_decode: Histogram,
    pub stage_random_access: Histogram,
}

impl ReaderMetrics {
    /// Inert handles: every record call is a single relaxed load of a
    /// never-enabled gate.
    pub fn disconnected() -> Self {
        Self {
            registry: MetricsRegistry::shared_disabled(),
            chunks_speculative: Counter::disconnected(),
            chunks_on_demand: Counter::disconnected(),
            chunks_window_known: Counter::disconnected(),
            chunks_index: Counter::disconnected(),
            chunks_wasted: Counter::disconnected(),
            bytes_out: Counter::disconnected(),
            bytes_wasted: Counter::disconnected(),
            speculation_mismatches: Counter::disconnected(),
            speculative_bytes_u16: Counter::disconnected(),
            speculative_bytes_u8: Counter::disconnected(),
            prefetch_issued_speculative: Counter::disconnected(),
            prefetch_issued_index: Counter::disconnected(),
            prefetch_hits: Counter::disconnected(),
            verify_member: Counter::disconnected(),
            verify_index_verified: Counter::disconnected(),
            verify_index_unverified: Counter::disconnected(),
            stage_decode_two_stage: Histogram::disconnected(),
            stage_decode_one_stage: Histogram::disconnected(),
            stage_marker_replace: Histogram::disconnected(),
            stage_crc_fold: Histogram::disconnected(),
            stage_prefetch_decode: Histogram::disconnected(),
            stage_random_access: Histogram::disconnected(),
        }
    }

    /// Register (or re-resolve) every reader family on `registry`.
    pub fn register(registry: &Arc<MetricsRegistry>) -> Self {
        let stage = |name: &str| {
            registry.histogram_with_labels(
                names::STAGE_SECONDS,
                "Reader pipeline stage latency in seconds",
                &stage_buckets(),
                &[("stage", name)],
            )
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
        let verify = |outcome: &str| {
            registry.counter_with_labels(
                names::VERIFICATION,
                "Chunk/member verification outcomes",
                &[("outcome", outcome)],
            )
        };
        Self {
            registry: Arc::clone(registry),
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
            prefetch_issued_speculative: prefetch("speculative"),
            prefetch_issued_index: prefetch("index"),
            prefetch_hits: registry.counter(
                names::PREFETCH_HITS,
                "Index-path chunk requests served from a completed prefetch",
            ),
            verify_member: verify("member_verified"),
            verify_index_verified: verify("index_verified"),
            verify_index_unverified: verify("index_unverified"),
            stage_decode_two_stage: stage("decode_two_stage"),
            stage_decode_one_stage: stage("decode_one_stage"),
            stage_marker_replace: stage("marker_replace"),
            stage_crc_fold: stage("crc_fold"),
            stage_prefetch_decode: stage("prefetch_decode"),
            stage_random_access: stage("random_access"),
        }
    }
}

impl ReaderStatistics {
    /// Rebuild the reader-owned counters from a registry snapshot.
    ///
    /// The inverse of the instrumentation: every field is read back from the
    /// series the reader increments, so for a quiescent reader this equals
    /// [`ParallelGzipReader::statistics`](crate::ParallelGzipReader::statistics)
    /// exactly (the reconciliation tests pin this).  Pool gauges are sampled
    /// live and may lag while tasks are still in flight.
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
            index_chunks_verified: counter(names::VERIFICATION, &[("outcome", "index_verified")]),
            index_chunks_unverified: counter(
                names::VERIFICATION,
                &[("outcome", "index_unverified")],
            ),
            speculative_chunks_wasted: counter(names::CHUNKS_WASTED, &[]),
            speculative_bytes_wasted: counter(names::BYTES_WASTED, &[]),
            speculative_bytes_u16: counter(names::SPECULATIVE_BYTES, &[("width", "u16")]),
            speculative_bytes_u8: counter(names::SPECULATIVE_BYTES, &[("width", "u8")]),
            pool_queue_depth: gauge(names::POOL_QUEUE_DEPTH),
            pool_tasks_inflight: gauge(names::POOL_TASKS_INFLIGHT),
            pool_tasks_submitted: counter(names::POOL_TASKS_TOTAL, &[]),
        }
    }
}
