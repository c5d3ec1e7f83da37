//! Low-overhead structured tracing for the parallel read pipeline.
//!
//! The paper's analysis lives and dies by per-chunk timelines: its scaling
//! figures are explained by *where* chunk time goes (block finding vs.
//! two-stage decode vs. marker replacement vs. verification).  This crate is
//! the reproduction's equivalent instrument: a [`TraceSink`] that pipeline
//! stages write timestamped spans and instant events into, plus
//! exporters for Chrome trace-event JSON ([`chrome_trace_json`], loadable in
//! Perfetto / `chrome://tracing`) and an aggregated [`MetricsReport`]
//! (per-stage latency percentiles, thread utilization, speculation waste,
//! prefetch hit rate).
//!
//! # Design
//!
//! - **Always compiled, off by default.** Every record method starts with a
//!   single relaxed atomic load; when the sink is disabled that load is the
//!   *entire* cost, so instrumentation can stay in release builds
//!   unconditionally.  The `trace_overhead_ratio` gate in the perf-smoke CI
//!   job enforces this claim.
//! - **Per-thread event buffers.** Each recording thread gets its own
//!   [`ThreadTrack`] with its own buffer lock.  Only the owning thread
//!   appends, so the lock is uncontended in steady state (exporters take it
//!   briefly when snapshotting); a thread-local cache maps sinks to tracks so
//!   the global registry lock is touched once per thread per sink.  Events
//!   become visible to exporters the moment they are recorded — there is no
//!   thread-local pending buffer to flush, so dropping a reader mid-stream
//!   loses nothing.
//! - **Monotonic microsecond clock.** Timestamps are `Instant`-based,
//!   rebased to the sink's construction time (the *trace epoch*), which is
//!   exactly the `ts` convention Chrome trace viewers expect.
//!
//! # Example
//!
//! ```
//! use rgz_trace::{Outcome, Stage, TraceSink};
//!
//! let sink = TraceSink::new_enabled();
//! {
//!     let mut span = sink.span(Stage::DecodeOneStage).chunk(0);
//!     span.set_bytes(4096);
//!     span.set_outcome(Outcome::Committed);
//! } // span recorded on drop
//! let json = rgz_trace::chrome_trace_json(&sink);
//! assert!(json.contains("decode_one_stage"));
//! ```

mod chrome;
mod metrics;

pub use chrome::chrome_trace_json;
pub use metrics::{
    instants, MetricsReport, PrefetchSummary, SpeculationSummary, StageSummary, ThreadSummary,
};

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pipeline stage a span belongs to. One value per instrumented hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Read of the compressed range a speculative chunk decode works on.
    RangeRead,
    /// Speculative deflate-block search inside a chunk guess.
    BlockFind,
    /// Speculative two-stage decode (16-bit marker symbols, unknown window).
    DecodeTwoStage,
    /// One-stage decode with a known window (sequential, prefetch, or
    /// on-demand random access all run this loop).
    DecodeOneStage,
    /// Marker-symbol replacement of a speculative chunk against the real
    /// window, including worker-side output hashing.
    MarkerReplace,
    /// Seek-point window sparsify + deflate-compress job.
    WindowCompress,
    /// Lazy re-inflation of a compressed seek-point window.
    WindowInflate,
    /// CRC fragment folding inside `StreamVerifier`.
    CrcFold,
    /// Index-aligned prefetch task: window inflate + decode + fragment check.
    PrefetchDecode,
    /// On-demand random-access chunk decode (index fast path, cache miss).
    RandomAccess,
    /// Whole-stream serial decode (the non-parallel CLI path).
    SerialDecode,
    /// Time a submitted task spent queued before a worker picked it up.
    TaskWait,
}

impl Stage {
    /// Stable snake_case name used in Chrome trace output and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::RangeRead => "range_read",
            Stage::BlockFind => "block_find",
            Stage::DecodeTwoStage => "decode_two_stage",
            Stage::DecodeOneStage => "decode_one_stage",
            Stage::MarkerReplace => "marker_replace",
            Stage::WindowCompress => "window_compress",
            Stage::WindowInflate => "window_inflate",
            Stage::CrcFold => "crc_fold",
            Stage::PrefetchDecode => "prefetch_decode",
            Stage::RandomAccess => "random_access",
            Stage::SerialDecode => "serial_decode",
            Stage::TaskWait => "task_wait",
        }
    }

    /// All stages, for exhaustive aggregation.
    pub const ALL: [Stage; 12] = [
        Stage::RangeRead,
        Stage::BlockFind,
        Stage::DecodeTwoStage,
        Stage::DecodeOneStage,
        Stage::MarkerReplace,
        Stage::WindowCompress,
        Stage::WindowInflate,
        Stage::CrcFold,
        Stage::PrefetchDecode,
        Stage::RandomAccess,
        Stage::SerialDecode,
        Stage::TaskWait,
    ];
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// Completed; no commit/discard semantics apply (the default).
    #[default]
    Ok,
    /// Work product was committed to the output stream or a cache.
    Committed,
    /// Speculative work whose product was discarded.
    Wasted,
    /// The fast path bailed to the reference implementation mid-stage.
    Fallback,
    /// A search stage finished without finding anything.
    NotFound,
    /// The stage returned an error.
    Error,
}

impl Outcome {
    /// Stable snake_case name used in Chrome trace args.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Committed => "committed",
            Outcome::Wasted => "wasted",
            Outcome::Fallback => "fallback",
            Outcome::NotFound => "not_found",
            Outcome::Error => "error",
        }
    }
}

/// Optional identifying payload attached to spans and instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventMeta {
    /// Chunk identifier: the compressed *bit* offset the chunk starts at.
    pub chunk: Option<u64>,
    /// Gzip member index the work belongs to.
    pub member: Option<u64>,
    /// Compressed byte range `[start, end)` the stage covered.
    pub compressed_range: Option<(u64, u64)>,
    /// Uncompressed bytes produced (or covered) by the stage.
    pub bytes: Option<u64>,
    /// Of `bytes`, how many a speculative decode produced as 16-bit marker
    /// symbols before it could switch to plain bytes.
    pub marker_bytes: Option<u64>,
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed duration span.
    Span {
        stage: Stage,
        start_us: u64,
        duration_us: u64,
        outcome: Outcome,
    },
    /// A point-in-time marker (speculation submit/commit/waste, prefetch
    /// issue/hit/evict, ...).
    Instant { name: &'static str, at_us: u64 },
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub kind: EventKind,
    pub meta: EventMeta,
}

/// Per-thread event buffer. Only the owning thread appends; exporters briefly
/// take the lock to copy events out, so the mutex is effectively uncontended.
#[derive(Debug)]
pub struct ThreadTrack {
    name: String,
    tid: u64,
    events: Mutex<Vec<Event>>,
}

impl ThreadTrack {
    /// Display name (the OS thread name, e.g. `rgz-worker-3`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable per-sink track id.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Copies the events recorded on this track so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }
}

/// Point-in-time copy of one track, as returned by [`TraceSink::snapshot`].
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    pub name: String,
    pub tid: u64,
    pub events: Vec<Event>,
}

/// Distinguishes sinks in the per-thread track cache.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(sink id, track)` pairs for every sink this thread has recorded into.
    /// Readers have at most a couple of live sinks, so a linear scan beats a
    /// hash map here.
    static TRACK_CACHE: RefCell<Vec<(u64, Arc<ThreadTrack>)>> = const { RefCell::new(Vec::new()) };
}

/// A structured event sink shared by every stage of one read pipeline.
///
/// Cloning is done via `Arc`. Disabled sinks cost one relaxed atomic load per
/// record call; see the crate docs for the full design.
#[derive(Debug)]
pub struct TraceSink {
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    tracks: Mutex<Vec<Arc<ThreadTrack>>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// Creates a disabled sink (recording is a single atomic load per call).
    pub fn new() -> Self {
        TraceSink {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// Creates a sink that records immediately.
    pub fn new_enabled() -> Self {
        let sink = Self::new();
        sink.enabled.store(true, Ordering::Relaxed);
        sink
    }

    /// A process-wide shared *disabled* sink, for code paths that need a sink
    /// reference but were not handed one. Never enable this instance.
    pub fn shared_disabled() -> Arc<TraceSink> {
        static SHARED: OnceLock<Arc<TraceSink>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(TraceSink::new())))
    }

    /// Whether events are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans already open keep their start time.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Microseconds elapsed since the trace epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span for `stage`, ending (and recording) when the guard drops.
    /// Returns a disarmed no-op guard when the sink is disabled.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::disarmed();
        }
        SpanGuard {
            sink: Some(self),
            stage,
            start_us: self.now_us(),
            meta: EventMeta::default(),
            outcome: Outcome::Ok,
        }
    }

    /// Records a span whose start timestamp was captured earlier (possibly on
    /// a different thread) with [`TraceSink::now_us`]. Used for queue-wait
    /// spans where the interval spans submit → dequeue.
    #[inline]
    pub fn record_span_since(
        &self,
        stage: Stage,
        start_us: u64,
        meta: EventMeta,
        outcome: Outcome,
    ) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_us();
        self.record(Event {
            kind: EventKind::Span {
                stage,
                start_us,
                duration_us: now.saturating_sub(start_us),
                outcome,
            },
            meta,
        });
    }

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(&self, name: &'static str, meta: EventMeta) {
        if !self.is_enabled() {
            return;
        }
        self.record(Event {
            kind: EventKind::Instant {
                name,
                at_us: self.now_us(),
            },
            meta,
        });
    }

    /// Appends a fully-formed event to the calling thread's track.
    fn record(&self, event: Event) {
        let track = self.track_for_current_thread();
        track.events.lock().push(event);
    }

    /// Finds (or registers) the calling thread's track for this sink. The
    /// global registry lock is only taken on the first event a thread records
    /// into this sink; later calls hit the thread-local cache.
    fn track_for_current_thread(&self) -> Arc<ThreadTrack> {
        TRACK_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, track)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(track);
            }
            // Drop cache entries whose sink died (registry Arc gone): the
            // cached Arc would otherwise keep dead tracks alive forever in
            // long-lived worker threads that serve many readers.
            cache.retain(|(_, track)| Arc::strong_count(track) > 1);
            let track = {
                let mut tracks = self.tracks.lock();
                let tid = tracks.len() as u64;
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                let track = Arc::new(ThreadTrack {
                    name,
                    tid,
                    events: Mutex::new(Vec::new()),
                });
                tracks.push(Arc::clone(&track));
                track
            };
            cache.push((self.id, Arc::clone(&track)));
            track
        })
    }

    /// Copies out every track recorded so far, in registration order.
    pub fn snapshot(&self) -> Vec<TrackSnapshot> {
        let tracks = self.tracks.lock().clone();
        tracks
            .iter()
            .map(|track| TrackSnapshot {
                name: track.name.clone(),
                tid: track.tid,
                events: track.events(),
            })
            .collect()
    }

    /// Total events recorded across all tracks.
    pub fn event_count(&self) -> usize {
        let tracks = self.tracks.lock().clone();
        tracks.iter().map(|t| t.events.lock().len()).sum()
    }
}

/// RAII span: opened by [`TraceSink::span`], recorded when dropped.
///
/// Identifying metadata can be attached up front with the builder methods or
/// after the work with the `set_*` methods; the duration always runs from
/// `span()` to drop.
#[must_use = "a span measures the scope it lives in; dropping it immediately records a zero-length span"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: Option<&'a TraceSink>,
    stage: Stage,
    start_us: u64,
    meta: EventMeta,
    outcome: Outcome,
}

impl<'a> SpanGuard<'a> {
    /// A guard that records nothing; returned when the sink is disabled.
    #[inline]
    fn disarmed() -> SpanGuard<'a> {
        SpanGuard {
            sink: None,
            stage: Stage::SerialDecode,
            start_us: 0,
            meta: EventMeta::default(),
            outcome: Outcome::Ok,
        }
    }

    /// Attaches the chunk id (compressed bit offset).
    #[inline]
    pub fn chunk(mut self, chunk: u64) -> Self {
        if self.sink.is_some() {
            self.meta.chunk = Some(chunk);
        }
        self
    }

    /// Attaches the gzip member index.
    #[inline]
    pub fn member(mut self, member: u64) -> Self {
        if self.sink.is_some() {
            self.meta.member = Some(member);
        }
        self
    }

    /// Attaches the compressed byte range `[start, end)` covered.
    #[inline]
    pub fn compressed_range(mut self, start: u64, end: u64) -> Self {
        if self.sink.is_some() {
            self.meta.compressed_range = Some((start, end));
        }
        self
    }

    /// Sets the uncompressed byte count once the work has produced it.
    #[inline]
    pub fn set_bytes(&mut self, bytes: u64) {
        if self.sink.is_some() {
            self.meta.bytes = Some(bytes);
        }
    }

    /// Sets how many of the span's bytes were decoded as 16-bit symbols.
    #[inline]
    pub fn set_marker_bytes(&mut self, marker_bytes: u64) {
        if self.sink.is_some() {
            self.meta.marker_bytes = Some(marker_bytes);
        }
    }

    /// Sets the member index once the work has discovered it.
    #[inline]
    pub fn set_member(&mut self, member: u64) {
        if self.sink.is_some() {
            self.meta.member = Some(member);
        }
    }

    /// Sets the compressed byte range once the work has discovered it.
    #[inline]
    pub fn set_compressed_range(&mut self, start: u64, end: u64) {
        if self.sink.is_some() {
            self.meta.compressed_range = Some((start, end));
        }
    }

    /// Sets how the span ended (defaults to [`Outcome::Ok`]).
    #[inline]
    pub fn set_outcome(&mut self, outcome: Outcome) {
        self.outcome = outcome;
    }

    /// Ends the span now (equivalent to dropping it).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        let end_us = sink.now_us();
        sink.record(Event {
            kind: EventKind::Span {
                stage: self.stage,
                start_us: self.start_us,
                duration_us: end_us.saturating_sub(self.start_us),
                outcome: self.outcome,
            },
            meta: self.meta,
        });
    }
}

/// Escapes `text` for inclusion in a JSON string literal. Shared by the
/// Chrome exporter and the metrics JSON renderer; kept dependency-free so
/// `rgz_trace` stays a leaf crate.
pub(crate) fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new();
        {
            let mut span = sink.span(Stage::DecodeOneStage).chunk(17);
            span.set_bytes(100);
            span.set_outcome(Outcome::Committed);
        }
        sink.instant("spec_commit", EventMeta::default());
        sink.record_span_since(Stage::TaskWait, 0, EventMeta::default(), Outcome::Ok);
        assert_eq!(sink.event_count(), 0);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn enabling_mid_stream_starts_recording() {
        let sink = TraceSink::new();
        sink.span(Stage::BlockFind).finish();
        assert_eq!(sink.event_count(), 0);
        sink.set_enabled(true);
        sink.span(Stage::BlockFind).finish();
        assert_eq!(sink.event_count(), 1);
    }

    #[test]
    fn spans_are_balanced_and_monotonic_per_thread() {
        let sink = Arc::new(TraceSink::new_enabled());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::Builder::new()
                    .name(format!("trace-test-{t}"))
                    .spawn(move || {
                        for i in 0..50u64 {
                            let mut span = sink.span(Stage::DecodeTwoStage).chunk(i);
                            // Nested span: must close before the outer one.
                            sink.span(Stage::BlockFind).chunk(i).finish();
                            span.set_bytes(i * 10);
                            span.set_outcome(Outcome::Committed);
                        }
                    })
                    .unwrap()
            })
            .collect();
        for handle in threads {
            handle.join().unwrap();
        }

        let snapshot = sink.snapshot();
        assert_eq!(snapshot.len(), 4, "one track per recording thread");
        for track in &snapshot {
            assert!(track.name.starts_with("trace-test-"));
            let spans: Vec<_> = track
                .events
                .iter()
                .filter_map(|event| match event.kind {
                    EventKind::Span {
                        start_us,
                        duration_us,
                        stage,
                        ..
                    } => Some((stage, start_us, start_us + duration_us)),
                    _ => None,
                })
                .collect();
            assert_eq!(spans.len(), 100, "50 outer + 50 nested spans");
            // Balanced: every span closed (end >= start)...
            for &(_, start, end) in &spans {
                assert!(end >= start);
            }
            // ...and monotonic: recorded in end-time order per thread, and
            // each nested BlockFind closes before its enclosing decode span.
            for pair in spans.windows(2) {
                assert!(pair[1].2 >= pair[0].2, "per-thread end times sorted");
            }
            for pair in spans.chunks(2) {
                let (inner, outer) = (pair[0], pair[1]);
                assert_eq!(inner.0, Stage::BlockFind);
                assert_eq!(outer.0, Stage::DecodeTwoStage);
                assert!(inner.1 >= outer.1, "nested span starts inside outer");
                assert!(inner.2 <= outer.2, "nested span ends inside outer");
            }
        }
    }

    #[test]
    fn cross_thread_queue_wait_span_lands_on_recording_thread() {
        let sink = Arc::new(TraceSink::new_enabled());
        let submit_us = sink.now_us();
        let worker = {
            let sink = Arc::clone(&sink);
            std::thread::Builder::new()
                .name("trace-worker".into())
                .spawn(move || {
                    sink.record_span_since(
                        Stage::TaskWait,
                        submit_us,
                        EventMeta {
                            chunk: Some(1),
                            ..EventMeta::default()
                        },
                        Outcome::Ok,
                    );
                })
                .unwrap()
        };
        worker.join().unwrap();
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].name, "trace-worker");
        assert!(matches!(
            snapshot[0].events[0].kind,
            EventKind::Span {
                stage: Stage::TaskWait,
                ..
            }
        ));
    }

    #[test]
    fn two_sinks_keep_separate_tracks_on_one_thread() {
        let a = TraceSink::new_enabled();
        let b = TraceSink::new_enabled();
        a.span(Stage::CrcFold).finish();
        b.span(Stage::CrcFold).finish();
        b.span(Stage::CrcFold).finish();
        assert_eq!(a.event_count(), 1);
        assert_eq!(b.event_count(), 2);
    }

    #[test]
    fn escape_json_handles_controls_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
