//! The paper's `WindowMap`: one compressed record per seek point, and no
//! decompressed copy — a window is inflated anew for every decode that needs
//! it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rgz_fetcher::StageTimer;
use rgz_metrics::{exponential_buckets, names, Gauge, Histogram, MetricsRegistry};
use rgz_trace::{Outcome, Stage, TraceSink};
use rgz_window::{CompressedWindow, WindowError};

/// Aggregate memory counters of a [`WindowMap`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStoreStatistics {
    /// Number of stored windows.
    pub windows: usize,
    /// Payload bytes currently held (compressed or verbatim).
    pub stored_bytes: usize,
    /// Decompressed (masked) window bytes the payloads expand to.
    pub window_bytes: usize,
    /// Window bytes before sparsification and compression: what raw 32 KiB
    /// windows would take for the same seek points.
    pub original_bytes: usize,
    /// Windows that failed checksum or structural validation on access.
    pub corrupt_windows: u64,
}

impl WindowStoreStatistics {
    /// Raw bytes divided by stored bytes (0 when nothing is stored yet).
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes as f64 / (self.stored_bytes.max(1)) as f64
    }
}

/// The map's series on the registry it counts into: its own, until it is
/// [attached](WindowMap::attach) to a reader's.
struct MapMetrics {
    stored_bytes: Gauge,
    windows: Gauge,
    compress_seconds: Histogram,
    inflate_seconds: Histogram,
}

impl MapMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            stored_bytes: registry.gauge(
                names::WINDOW_STORE_BYTES,
                "Compressed payload bytes currently held by the window store.",
            ),
            windows: registry.gauge(
                names::WINDOW_STORE_WINDOWS,
                "Seek-point windows currently held by the window store.",
            ),
            compress_seconds: registry.histogram(
                names::WINDOW_COMPRESS_SECONDS,
                "Time to sparsify and deflate one seek-point window.",
                &exponential_buckets(0.000_02, 4.0, 10),
            ),
            inflate_seconds: registry.histogram(
                names::WINDOW_INFLATE_SECONDS,
                "Time to re-inflate one stored window for random access.",
                &exponential_buckets(0.000_02, 4.0, 10),
            ),
        }
    }
}

struct Records {
    records: HashMap<u64, Arc<CompressedWindow>>,
    corrupt_windows: u64,
    trace: Arc<TraceSink>,
    metrics: MapMetrics,
}

impl Default for Records {
    fn default() -> Self {
        Self {
            records: HashMap::new(),
            corrupt_windows: 0,
            trace: TraceSink::shared_disabled(),
            metrics: MapMetrics::register(&MetricsRegistry::new()),
        }
    }
}

/// Windows keyed by compressed bit offset (the paper's `WindowMap`).
///
/// A window is sparsified (when its chunk's usage is known) and
/// deflate-compressed by the thread that inserts it, before the map's lock
/// is taken, so a lookup never waits for a compression.  Clones share the
/// same records: the reader, its index and the tasks decoding through it
/// all read one map.
#[derive(Default, Clone)]
pub struct WindowMap {
    inner: Arc<Mutex<Records>>,
}

impl std::fmt::Debug for WindowMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowMap")
            .field("windows", &self.len())
            .finish()
    }
}

impl WindowMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Has the map trace into `trace` and count into `registry` from now on,
    /// its gauges starting at what it already holds — an imported index's
    /// windows, for one.
    pub fn attach(&self, trace: &Arc<TraceSink>, registry: &MetricsRegistry) {
        let inner = &mut *self.inner.lock();
        inner.trace = Arc::clone(trace);
        inner.metrics = MapMetrics::register(registry);
        let stored_bytes: usize = inner.records.values().map(|r| r.stored_bytes()).sum();
        inner.metrics.stored_bytes.set(stored_bytes as i64);
        inner.metrics.windows.set(inner.records.len() as i64);
    }

    /// Number of stored windows.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().records.is_empty()
    }

    /// Whether a window exists for the given offset.
    pub fn contains(&self, compressed_bit_offset: u64) -> bool {
        self.inner
            .lock()
            .records
            .contains_key(&compressed_bit_offset)
    }

    /// Compresses a window on this thread, timed as the map's, and stores it.
    fn compress_and_insert(&self, offset: u64, compress: impl FnOnce() -> CompressedWindow) {
        let (trace, compress_seconds) = {
            let inner = self.inner.lock();
            (
                Arc::clone(&inner.trace),
                inner.metrics.compress_seconds.clone(),
            )
        };
        let span = trace.span(Stage::WindowCompress).chunk(offset);
        let mut timer = StageTimer::start(span, &compress_seconds);
        let record = compress();
        timer.set_bytes(u64::from(record.window_length));
        drop(timer);
        self.insert_compressed(offset, record);
    }

    /// Stores the window preceding the block at `compressed_bit_offset`,
    /// keeping only the last 32 KiB.
    pub fn insert(&self, compressed_bit_offset: u64, window: &[u8]) {
        self.compress_and_insert(compressed_bit_offset, || {
            CompressedWindow::from_window(window)
        });
    }

    /// Stores the window keeping only the bytes in `usage` — marker-space
    /// `(offset, length)` runs as produced by `rgz_deflate::WindowUsage` —
    /// dropping leading unreferenced bytes and zeroing the rest.
    pub fn insert_sparse(&self, compressed_bit_offset: u64, window: &[u8], usage: &[(u32, u32)]) {
        self.compress_and_insert(compressed_bit_offset, || {
            CompressedWindow::from_window_sparse(window, usage)
        });
    }

    /// Stores an already compressed record (the import path).
    pub fn insert_compressed(&self, compressed_bit_offset: u64, record: CompressedWindow) {
        let inner = &mut *self.inner.lock();
        inner.metrics.stored_bytes.add(record.stored_bytes() as i64);
        if let Some(old) = inner
            .records
            .insert(compressed_bit_offset, Arc::new(record))
        {
            inner.metrics.stored_bytes.add(-(old.stored_bytes() as i64));
        }
        inner.metrics.windows.set(inner.records.len() as i64);
    }

    /// Looks up (and decompresses) the window for a compressed bit offset.
    /// Corrupt windows yield `None`; use [`WindowMap::try_get`] to
    /// distinguish corruption from absence.
    pub fn get(&self, compressed_bit_offset: u64) -> Option<Arc<Vec<u8>>> {
        self.try_get(compressed_bit_offset).ok().flatten()
    }

    /// Looks up the window, surfacing checksum/validation failures: the
    /// record is found under the map's lock and inflated outside it.
    /// `Ok(None)` means no window is stored there.
    pub fn try_get(&self, compressed_bit_offset: u64) -> Result<Option<Arc<Vec<u8>>>, WindowError> {
        let (record, trace, inflate_seconds) = {
            let inner = self.inner.lock();
            let Some(record) = inner.records.get(&compressed_bit_offset) else {
                return Ok(None);
            };
            let seconds = inner.metrics.inflate_seconds.clone();
            (Arc::clone(record), Arc::clone(&inner.trace), seconds)
        };
        let span = trace
            .span(Stage::WindowInflate)
            .chunk(compressed_bit_offset);
        let mut timer = StageTimer::start(span, &inflate_seconds);
        match record.decompress() {
            Ok(window) => {
                timer.set_bytes(window.len() as u64);
                Ok(Some(Arc::new(window)))
            }
            Err(error) => {
                timer.set_outcome(Outcome::Error);
                timer.discard();
                self.inner.lock().corrupt_windows += 1;
                Err(error)
            }
        }
    }

    /// The compressed record for a seek point, if any (the export path).
    pub fn get_compressed(&self, compressed_bit_offset: u64) -> Option<Arc<CompressedWindow>> {
        self.inner
            .lock()
            .records
            .get(&compressed_bit_offset)
            .cloned()
    }

    /// Memory counters.
    pub fn statistics(&self) -> WindowStoreStatistics {
        let inner = self.inner.lock();
        let mut statistics = WindowStoreStatistics {
            windows: inner.records.len(),
            corrupt_windows: inner.corrupt_windows,
            ..Default::default()
        };
        for record in inner.records.values() {
            statistics.stored_bytes += record.stored_bytes();
            statistics.window_bytes += record.window_length as usize;
            statistics.original_bytes += record.original_length as usize;
        }
        statistics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WINDOW_SIZE;

    fn repetitive_window(seed: u8) -> Vec<u8> {
        (0..WINDOW_SIZE)
            .map(|i| seed.wrapping_add((i % 64) as u8))
            .collect()
    }

    #[test]
    fn insert_get_round_trips_inline() {
        let map = WindowMap::new();
        assert!(map.is_empty());
        let window = repetitive_window(1);
        map.insert(100, &window);
        assert!(map.contains(100));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(100).unwrap().as_slice(), &window[..]);
        assert_eq!(map.try_get(999).unwrap(), None);

        let statistics = map.statistics();
        assert_eq!(statistics.windows, 1);
        assert!(statistics.stored_bytes < WINDOW_SIZE / 4);
        assert_eq!(statistics.original_bytes, WINDOW_SIZE);
        assert!(statistics.compression_ratio() > 4.0);
    }

    #[test]
    fn repeated_gets_inflate_the_record_each_time() {
        let map = WindowMap::new();
        map.insert(0, &repetitive_window(0));
        // No decompressed copy is kept: two reads are two windows.
        let first = map.get(0).unwrap();
        let second = map.get(0).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first, second);
        let inflations = map.inner.lock().metrics.inflate_seconds.snapshot_values();
        assert_eq!(inflations.count, 2);
    }

    #[test]
    fn corrupt_records_error_and_are_counted() {
        let map = WindowMap::new();
        let mut record = CompressedWindow::from_window(&repetitive_window(9));
        record.checksum ^= 1;
        map.insert_compressed(7, record);
        assert!(map.try_get(7).is_err());
        assert_eq!(map.get(7), None);
        assert_eq!(map.statistics().corrupt_windows, 2);
    }

    #[test]
    fn metrics_mirror_store_state() {
        let registry = MetricsRegistry::new();
        let map = WindowMap::new();
        // What the map holds when it is attached — an imported index's
        // windows — is what the gauges start at.
        map.insert(0, &repetitive_window(0));
        map.attach(&TraceSink::shared_disabled(), &registry);
        for offset in 1..3u64 {
            map.insert(offset, &repetitive_window(offset as u8));
        }
        for offset in [0, 0, 1, 2] {
            map.get(offset).unwrap();
        }
        let statistics = map.statistics();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::WINDOW_STORE_WINDOWS, &[]), Some(3));
        assert_eq!(
            snapshot.gauge(names::WINDOW_STORE_BYTES, &[]),
            Some(statistics.stored_bytes as i64)
        );
        let count = |name| snapshot.histogram(name, &[]).unwrap().count;
        assert_eq!(count(names::WINDOW_COMPRESS_SECONDS), 2, "since attached");
        assert_eq!(count(names::WINDOW_INFLATE_SECONDS), 4, "one per get");
    }

    #[test]
    fn reinsertion_invalidates_the_hot_copy() {
        let map = WindowMap::new();
        map.insert(5, &repetitive_window(1));
        let first = map.get(5).unwrap();
        map.insert(5, &repetitive_window(2));
        let second = map.get(5).unwrap();
        assert_ne!(first.as_slice(), second.as_slice());
        assert_eq!(second.as_slice(), &repetitive_window(2)[..]);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn sparse_insertion_stores_only_referenced_bytes() {
        let map = WindowMap::new();
        let window = repetitive_window(3);
        map.insert_sparse(11, &window, &[((WINDOW_SIZE - 8) as u32, 8)]);
        let masked = map.get(11).unwrap();
        assert_eq!(masked.len(), 8);
        assert_eq!(masked.as_slice(), &window[WINDOW_SIZE - 8..]);
        let record = map.get_compressed(11).unwrap();
        assert!(record.is_sparse());
        assert_eq!(record.original_length as usize, WINDOW_SIZE);
    }
}
