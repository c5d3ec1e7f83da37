//! Live telemetry for the rapidgzip-rs pipeline.
//!
//! [`rgz_trace`](../rgz_trace/index.html) answers *"what happened during that
//! run?"* — a structured event log read after the fact.  This crate answers
//! *"what is the process doing right now?"*: a registry of monotonic
//! [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s that a
//! long-running process can scrape continuously, the layer an `rgz serve`
//! `/metrics` endpoint will mount unchanged.
//!
//! A registry is always on and an instrument is as plain as its traffic: the
//! pipeline's events are *per chunk* — counted at PR 22 (every `add`, `set`
//! and `observe` of a run; `bench/TRAJECTORY.md`): 29–35 instrument
//! operations per 4 MiB chunk of a sequential pass, 10.5 per 64 KiB read
//! through an index, a few thousand a second on any machine there is — so a
//! counter is one relaxed `AtomicU64`, a histogram one row of buckets and a
//! sum, and nothing is gated: unlike a trace sink, which stores an event per
//! call, a registry stores nothing per call.
//!
//! ```
//! use rgz_metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let chunks = registry.counter_with_labels(
//!     "rgz_chunks_decoded_total",
//!     "Chunks decoded, by pipeline path.",
//!     &[("path", "speculative")],
//! );
//! chunks.add(3);
//! let text = registry.render_prometheus();
//! assert!(text.contains("rgz_chunks_decoded_total{path=\"speculative\"} 3"));
//! ```

mod expose;

/// Well-known metric names of the pipeline, so producers (the crates that
/// register them), consumers (the CLI progress line, `--metrics-export`) and
/// tests can never drift apart on spelling.
pub mod names {
    // rgz_core: the parallel reader.
    /// Counter, label `path` ∈ {`speculative`, `on_demand`, `window_known`,
    /// `index`}.
    pub const CHUNKS_DECODED: &str = "rgz_chunks_decoded_total";
    pub const CHUNKS_WASTED: &str = "rgz_chunks_wasted_total";
    pub const BYTES_OUT: &str = "rgz_bytes_out_total";
    pub const BYTES_WASTED: &str = "rgz_bytes_wasted_total";
    pub const SPECULATION_MISMATCHES: &str = "rgz_speculation_mismatches_total";
    /// Counter, label `width` ∈ {`u16`, `u8`}: bytes of committed speculative
    /// chunks decoded as marker symbols vs. after the switch to plain bytes.
    pub const SPECULATIVE_BYTES: &str = "rgz_speculative_bytes_total";
    /// Counter: speculative decodes handed their window while under way, and
    /// finished one-stage.
    pub const SPECULATIVE_HANDOFFS: &str = "rgz_speculative_handoffs_total";
    /// Counter: compressed bytes the block finders searched for speculative
    /// decodes.
    pub const BLOCK_FINDER_SCANNED_BYTES: &str = "rgz_block_finder_scanned_bytes_total";
    /// Counter, labels `kind` ∈ {`dynamic`, `uncompressed`} and `verdict` ∈
    /// {`taken`, `rejected`}: the candidates those searches came up with.
    pub const BLOCK_FINDER_CANDIDATES: &str = "rgz_block_finder_candidates_total";
    /// Counter, label `kind` ∈ {`speculative`, `index`}.
    pub const PREFETCH_ISSUED: &str = "rgz_prefetch_issued_total";
    pub const PREFETCH_HITS: &str = "rgz_prefetch_hits_total";
    /// Counter, label `checked` ∈ {`yes`, `no`}: reads served by decoding a
    /// slice of an index chunk from one of its interior points.
    pub const INDEX_SLICES: &str = "rgz_index_slices_total";
    pub const INDEX_SLICE_BYTES: &str = "rgz_index_slice_bytes_total";
    /// Gauge: raw window bytes the reader's interior points hold.
    pub const INTERIOR_WINDOW_BYTES: &str = "rgz_interior_window_bytes";
    /// Gauge: compressed bytes the chunks of the reader's access cache span,
    /// from each one's seek point to the next.
    pub const ACCESS_CACHE_BYTES: &str = "rgz_access_cache_bytes";
    /// Gauge: chunks the reader's access cache holds.
    pub const ACCESS_CACHE_CHUNKS: &str = "rgz_access_cache_chunks";
    /// Counter, label `outcome` ∈ {`member_verified`, `index_verified`,
    /// `index_unverified`}.
    pub const VERIFICATION: &str = "rgz_verification_total";
    /// Histogram, label `stage` ∈ {`decode_two_stage`, `decode_one_stage`,
    /// `marker_replace`, `crc_fold`, `prefetch_decode`, `random_access`}.
    pub const STAGE_SECONDS: &str = "rgz_stage_seconds";

    // rgz_fetcher: the worker pool.
    pub const POOL_QUEUE_DEPTH: &str = "rgz_pool_queue_depth";
    pub const POOL_TASKS_INFLIGHT: &str = "rgz_pool_tasks_inflight";
    pub const POOL_TASKS_TOTAL: &str = "rgz_pool_tasks_total";
    pub const POOL_TASK_WAIT_SECONDS: &str = "rgz_pool_task_wait_seconds";
    /// Counter, labels `kind` ∈ {`range`, `u16`, `u8`} and `result` ∈
    /// {`reused`, `fresh`}: chunk buffers taken from the reader's buffer pool.
    pub const BUFFER_POOL_TAKES: &str = "rgz_buffer_pool_takes_total";
    /// Gauge: capacity of the buffers the pool holds idle.
    pub const BUFFER_POOL_IDLE_BYTES: &str = "rgz_buffer_pool_idle_bytes";

    // rgz_index::WindowMap: the seek-point windows.
    pub const WINDOW_STORE_BYTES: &str = "rgz_window_store_bytes";
    pub const WINDOW_STORE_WINDOWS: &str = "rgz_window_store_windows";
    pub const WINDOW_COMPRESS_SECONDS: &str = "rgz_window_compress_seconds";
    pub const WINDOW_INFLATE_SECONDS: &str = "rgz_window_inflate_seconds";

    // rgz_io: the compressed input.
    pub const READ_CALLS: &str = "rgz_read_calls_total";
    pub const READ_BYTES: &str = "rgz_read_bytes_total";
    pub const READ_SECONDS: &str = "rgz_read_seconds";

    // rgz_compress: the write path.
    pub const COMPRESS_CHUNKS: &str = "rgz_compress_chunks_total";
    pub const COMPRESS_MEMBERS: &str = "rgz_compress_members_total";
    pub const COMPRESS_BYTES_IN: &str = "rgz_compress_bytes_in_total";
    pub const COMPRESS_BYTES_OUT: &str = "rgz_compress_bytes_out_total";
    pub const COMPRESS_ENCODE_SECONDS: &str = "rgz_compress_encode_seconds";
}

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter: a cheap `Arc` clone of the registered
/// series.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.value())
            .finish()
    }
}

/// An instantaneous value that can go up and down (queue depth, resident
/// bytes); `set` is last-writer-wins.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.value())
            .finish()
    }
}

struct HistogramCore {
    bounds: Vec<f64>,
    /// One slot per finite bound plus the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values as `f64` bits, updated with a CAS loop.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram (cumulative `le` buckets on exposition).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        Self {
            core: Arc::new(HistogramCore {
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                bounds,
            }),
        }
    }

    pub fn observe(&self, value: f64) {
        let core = &*self.core;
        // First bucket whose upper bound admits the value; values above every
        // finite bound land in the +Inf slot at the end.
        let slot = core.bounds.partition_point(|bound| value > *bound);
        core.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let add = |bits| Some((f64::from_bits(bits) + value).to_bits());
        let _ = core
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Times a region and observes its duration in **seconds** on drop.
    #[inline]
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            histogram: self.clone(),
            started: Some(Instant::now()),
        }
    }

    /// Count, sum and per-bucket counts (per slot, not cumulative).
    pub fn snapshot_values(&self) -> HistogramSnapshot {
        let load = |bucket: &AtomicU64| bucket.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.core.buckets.iter().map(load).collect();
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            count: buckets.iter().sum(),
            sum: f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.snapshot_values();
        f.debug_struct("Histogram")
            .field("count", &snapshot.count)
            .field("sum", &snapshot.sum)
            .finish()
    }
}

/// RAII guard from [`Histogram::start_timer`].
pub struct HistogramTimer {
    histogram: Histogram,
    started: Option<Instant>,
}

impl HistogramTimer {
    /// Discards the measurement (e.g. on an error path that should not
    /// pollute a latency distribution).
    pub fn discard(mut self) {
        self.started = None;
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.histogram.observe(started.elapsed().as_secs_f64());
        }
    }
}

/// `count + 1` exponentially spaced upper bounds starting at `start`.
///
/// The conventional helper for latency histograms; bounds are in the same
/// unit the histogram observes (seconds for `start_timer`).
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0, "exponential_buckets start must be positive");
    assert!(factor > 1.0, "exponential_buckets factor must exceed 1");
    let mut bounds = Vec::with_capacity(count);
    let mut bound = start;
    for _ in 0..count {
        bounds.push(bound);
        bound *= factor;
    }
    bounds
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// What a registered family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword in the Prometheus text format.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Label *names*, fixed at first registration; every series must carry
    /// exactly this set.
    label_names: Vec<String>,
    /// Histogram families share one bucket layout.
    bounds: Vec<f64>,
    series: BTreeMap<Vec<String>, Series>,
}

/// Rejected registrations.  Registration is static (call sites use literal
/// names), so the panicking wrappers are the normal API; the `try_` variants
/// exist for validation tests and defensive callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    InvalidMetricName(String),
    InvalidLabelName(String),
    InvalidBuckets(String),
    /// A family with this name exists with a different kind, help text,
    /// label set, or bucket layout.
    Mismatched(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::InvalidMetricName(name) => {
                write!(f, "invalid metric name {name:?}")
            }
            RegistryError::InvalidLabelName(name) => {
                write!(f, "invalid label name {name:?}")
            }
            RegistryError::InvalidBuckets(why) => write!(f, "invalid buckets: {why}"),
            RegistryError::Mismatched(why) => {
                write!(f, "conflicting registration: {why}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The metric store of a reader, a compressor or a whole process:
/// registration, aggregation, exposition.
///
/// Clone-free sharing is by `Arc<MetricsRegistry>`; every layer of the
/// pipeline accepts one and registers its families at construction.
/// Registration is get-or-create: asking for an existing `(name, labels)`
/// series with a matching shape returns a handle to the same storage, so
/// several components can share one registry without coordination.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("families", &self.families.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry; whatever is registered on it records from then on.
    pub fn new() -> Self {
        Self::default()
    }

    // -- registration -------------------------------------------------------

    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with_labels(name, help, &[])
    }

    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.try_counter_with_labels(name, help, labels)
            .unwrap_or_else(|err| panic!("metric registration failed: {err}"))
    }

    pub fn try_counter_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Counter, RegistryError> {
        let series = self.register(name, help, MetricKind::Counter, labels, &[])?;
        match series {
            Series::Counter(counter) => Ok(counter),
            _ => unreachable!("registry returned a non-counter for a counter family"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with_labels(name, help, &[])
    }

    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.try_gauge_with_labels(name, help, labels)
            .unwrap_or_else(|err| panic!("metric registration failed: {err}"))
    }

    pub fn try_gauge_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Gauge, RegistryError> {
        let series = self.register(name, help, MetricKind::Gauge, labels, &[])?;
        match series {
            Series::Gauge(gauge) => Ok(gauge),
            _ => unreachable!("registry returned a non-gauge for a gauge family"),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with_labels(name, help, bounds, &[])
    }

    pub fn histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        self.try_histogram_with_labels(name, help, bounds, labels)
            .unwrap_or_else(|err| panic!("metric registration failed: {err}"))
    }

    pub fn try_histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Result<Histogram, RegistryError> {
        if bounds.is_empty() {
            return Err(RegistryError::InvalidBuckets(format!(
                "{name}: at least one finite bucket bound is required"
            )));
        }
        if !bounds.windows(2).all(|pair| pair[0] < pair[1]) {
            return Err(RegistryError::InvalidBuckets(format!(
                "{name}: bounds must be strictly increasing"
            )));
        }
        if bounds.iter().any(|bound| !bound.is_finite()) {
            return Err(RegistryError::InvalidBuckets(format!(
                "{name}: bounds must be finite (+Inf is implicit)"
            )));
        }
        let series = self.register(name, help, MetricKind::Histogram, labels, bounds)?;
        match series {
            Series::Histogram(histogram) => Ok(histogram),
            _ => unreachable!("registry returned a non-histogram for a histogram family"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Result<Series, RegistryError> {
        if !valid_metric_name(name) {
            return Err(RegistryError::InvalidMetricName(name.to_string()));
        }
        for (label, _) in labels {
            if !valid_label_name(label) {
                return Err(RegistryError::InvalidLabelName(label.to_string()));
            }
        }
        let label_names: Vec<String> = labels.iter().map(|(l, _)| l.to_string()).collect();
        let label_values: Vec<String> = labels.iter().map(|(_, v)| v.to_string()).collect();

        let mut families = self.families.lock();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            label_names: label_names.clone(),
            bounds: bounds.to_vec(),
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            return Err(RegistryError::Mismatched(format!(
                "{name} already registered as a {}",
                family.kind.as_str()
            )));
        }
        if family.help != help {
            return Err(RegistryError::Mismatched(format!(
                "{name} already registered with different help text"
            )));
        }
        if family.label_names != label_names {
            return Err(RegistryError::Mismatched(format!(
                "{name} already registered with labels {:?}",
                family.label_names
            )));
        }
        if kind == MetricKind::Histogram && family.bounds != bounds {
            return Err(RegistryError::Mismatched(format!(
                "{name} already registered with a different bucket layout"
            )));
        }
        let family_bounds = &family.bounds;
        let series = family
            .series
            .entry(label_values)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Counter {
                    value: Arc::default(),
                }),
                MetricKind::Gauge => Series::Gauge(Gauge {
                    value: Arc::default(),
                }),
                MetricKind::Histogram => Series::Histogram(Histogram::new(family_bounds.clone())),
            });
        Ok(series.clone())
    }

    // -- scraping -----------------------------------------------------------

    /// Aggregates every registered series into an owned, point-in-time view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock();
        let snapshot_families = families
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                help: family.help.clone(),
                kind: family.kind,
                label_names: family.label_names.clone(),
                series: family
                    .series
                    .iter()
                    .map(|(label_values, series)| SeriesSnapshot {
                        label_values: label_values.clone(),
                        value: match series {
                            Series::Counter(counter) => SeriesValue::Counter(counter.value()),
                            Series::Gauge(gauge) => SeriesValue::Gauge(gauge.value()),
                            Series::Histogram(histogram) => {
                                SeriesValue::Histogram(histogram.snapshot_values())
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot {
            families: snapshot_families,
        }
    }

    /// Renders the registry in the Prometheus text exposition format 0.0.4.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Aggregated histogram state (per-slot bucket counts, not cumulative).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Values in the order of the family's `label_names`.
    pub label_values: Vec<String>,
    pub value: SeriesValue,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub label_names: Vec<String>,
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time aggregation of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|family| family.name == name)
    }

    fn series_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let family = self.family(name)?;
        let wanted: Vec<&str> = family
            .label_names
            .iter()
            .map(|label| {
                labels
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| *v)
                    .unwrap_or("")
            })
            .collect();
        family
            .series
            .iter()
            .find(|series| {
                series
                    .label_values
                    .iter()
                    .map(String::as_str)
                    .eq(wanted.iter().copied())
            })
            .map(|series| &series.value)
    }

    /// The value of one counter series (labels must match exactly).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.series_value(name, labels)? {
            SeriesValue::Counter(value) => Some(*value),
            _ => None,
        }
    }

    /// Sum of a counter family across all of its label values.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .map(|family| {
                family
                    .series
                    .iter()
                    .map(|series| match &series.value {
                        SeriesValue::Counter(value) => *value,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.series_value(name, labels)? {
            SeriesValue::Gauge(value) => Some(*value),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.series_value(name, labels)? {
            SeriesValue::Histogram(histogram) => Some(histogram),
            _ => None,
        }
    }

    /// Renders this snapshot in the Prometheus text exposition format 0.0.4.
    pub fn render_prometheus(&self) -> String {
        expose::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_storage() {
        let registry = MetricsRegistry::new();
        let first = registry.counter_with_labels("c_total", "help", &[("path", "a")]);
        let second = registry.counter_with_labels("c_total", "help", &[("path", "a")]);
        first.add(2);
        second.add(3);
        assert_eq!(first.value(), 5);
        assert_eq!(second.value(), 5);
        let other = registry.counter_with_labels("c_total", "help", &[("path", "b")]);
        other.inc();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("c_total", &[("path", "a")]), Some(5));
        assert_eq!(snapshot.counter("c_total", &[("path", "b")]), Some(1));
        assert_eq!(snapshot.counter_total("c_total"), 6);
    }

    #[test]
    fn registration_validates_names_labels_and_shape() {
        let registry = MetricsRegistry::new();
        assert!(matches!(
            registry.try_counter_with_labels("0bad", "h", &[]),
            Err(RegistryError::InvalidMetricName(_))
        ));
        assert!(matches!(
            registry.try_counter_with_labels("ok_total", "h", &[("__reserved", "x")]),
            Err(RegistryError::InvalidLabelName(_))
        ));
        assert!(matches!(
            registry.try_counter_with_labels("ok_total", "h", &[("bad-label", "x")]),
            Err(RegistryError::InvalidLabelName(_))
        ));
        registry.counter("ok_total", "h");
        assert!(matches!(
            registry.try_gauge_with_labels("ok_total", "h", &[]),
            Err(RegistryError::Mismatched(_))
        ));
        assert!(matches!(
            registry.try_counter_with_labels("ok_total", "different help", &[]),
            Err(RegistryError::Mismatched(_))
        ));
        assert!(matches!(
            registry.try_counter_with_labels("ok_total", "h", &[("path", "a")]),
            Err(RegistryError::Mismatched(_))
        ));
        assert!(matches!(
            registry.try_histogram_with_labels("hist", "h", &[], &[]),
            Err(RegistryError::InvalidBuckets(_))
        ));
        assert!(matches!(
            registry.try_histogram_with_labels("hist", "h", &[2.0, 1.0], &[]),
            Err(RegistryError::InvalidBuckets(_))
        ));
        assert!(matches!(
            registry.try_histogram_with_labels("hist", "h", &[1.0, f64::INFINITY], &[]),
            Err(RegistryError::InvalidBuckets(_))
        ));
        registry.histogram("hist", "h", &[1.0, 2.0]);
        assert!(matches!(
            registry.try_histogram_with_labels("hist", "h", &[1.0, 3.0], &[]),
            Err(RegistryError::Mismatched(_))
        ));
    }

    #[test]
    fn gauge_tracks_ups_and_downs() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("depth", "queue depth");
        gauge.inc();
        gauge.inc();
        gauge.dec();
        assert_eq!(gauge.value(), 1);
        gauge.set(42);
        assert_eq!(registry.snapshot().gauge("depth", &[]), Some(42));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("h", "help", &[1.0, 5.0, 10.0]);
        // Exactly on a bound counts into that bound's bucket (le semantics).
        histogram.observe(1.0);
        histogram.observe(0.5);
        histogram.observe(5.0);
        histogram.observe(5.1);
        histogram.observe(10.0);
        histogram.observe(11.0); // +Inf overflow
        let snapshot = histogram.snapshot_values();
        assert_eq!(snapshot.buckets, vec![2, 1, 2, 1]);
        assert_eq!(snapshot.count, 6);
        assert!((snapshot.sum - 32.6).abs() < 1e-9);
    }

    #[test]
    fn histogram_timer_observes_seconds_and_discard_drops() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("h_seconds", "help", &[10.0]);
        {
            let _timer = histogram.start_timer();
        }
        histogram.start_timer().discard();
        let snapshot = histogram.snapshot_values();
        assert_eq!(snapshot.count, 1);
        assert!(snapshot.sum < 10.0, "a no-op region takes well under 10s");
    }

    #[test]
    fn exponential_buckets_shape() {
        let bounds = exponential_buckets(0.001, 4.0, 5);
        assert_eq!(bounds.len(), 5);
        assert!((bounds[0] - 0.001).abs() < 1e-12);
        assert!((bounds[4] - 0.256).abs() < 1e-12);
        assert!(bounds.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn concurrent_increments_are_exact() {
        // N threads x M metrics: totals must be exact.
        const THREADS: usize = 8;
        const METRICS: usize = 4;
        const INCREMENTS: u64 = 10_000;
        let registry = Arc::new(MetricsRegistry::new());
        let counters: Vec<Counter> = (0..METRICS)
            .map(|m| registry.counter(&format!("stress_{m}_total"), "stress"))
            .collect();
        let histogram = registry.histogram("stress_seconds", "stress", &[0.5]);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let counters = counters.clone();
                let histogram = histogram.clone();
                std::thread::spawn(move || {
                    for i in 0..INCREMENTS {
                        for counter in &counters {
                            counter.inc();
                        }
                        histogram.observe(if i % 2 == 0 { 0.25 } else { 1.0 });
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        for counter in &counters {
            assert_eq!(counter.value(), (THREADS as u64) * INCREMENTS);
        }
        let snapshot = histogram.snapshot_values();
        assert_eq!(snapshot.count, (THREADS as u64) * INCREMENTS);
        assert_eq!(
            snapshot.buckets,
            vec![
                (THREADS as u64) * INCREMENTS / 2,
                (THREADS as u64) * INCREMENTS / 2
            ]
        );
    }
}
