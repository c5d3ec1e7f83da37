//! The window store: compressed records + a bounded cache of hot windows.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rgz_fetcher::{Cache, Spawner, StageTimer, TaskHandle, ThreadPool};
use rgz_metrics::{exponential_buckets, names, Counter, Gauge, Histogram, MetricsRegistry};
use rgz_trace::{Outcome, Stage, TraceSink};

use crate::compressed::{CompressedWindow, WindowError};

/// Default capacity of the hot (decompressed) window cache: 32 windows is at
/// most 1 MiB, enough to cover the prefetch span of a typical reader.
pub const DEFAULT_HOT_WINDOWS: usize = 32;

/// Aggregate memory/behaviour counters of a [`WindowStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStoreStatistics {
    /// Number of stored windows (including in-flight compressions).
    pub windows: usize,
    /// Compression tasks still running on the thread pool.
    pub pending_compressions: usize,
    /// Payload bytes currently held (compressed or verbatim).
    pub stored_bytes: usize,
    /// Decompressed (masked) window bytes the payloads expand to.
    pub window_bytes: usize,
    /// Window bytes a raw (v1-style) index would hold for the same seek
    /// points, i.e. before sparsification and compression.
    pub original_bytes: usize,
    /// Windows currently resident in the hot cache; its hits, misses and
    /// evictions are the [`names::WINDOW_CACHE`] series.
    pub hot_windows: usize,
    /// Windows that failed checksum or structural validation on access.
    pub corrupt_windows: u64,
}

impl WindowStoreStatistics {
    /// Raw bytes divided by stored bytes (∞ when nothing is stored yet).
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes as f64 / (self.stored_bytes.max(1)) as f64
    }
}

enum Slot {
    /// Compression still running on the pool.
    Pending(TaskHandle<CompressedWindow>),
    /// Compressed record ready for use.
    Ready(Arc<CompressedWindow>),
}

/// The store's series on the registry it counts into: its own, until it is
/// [attached](WindowStore::attach) to a pool's.
struct StoreMetrics {
    stored_bytes: Gauge,
    windows: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    compress_seconds: Histogram,
    inflate_seconds: Histogram,
}

impl StoreMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let cache_event = |event| {
            registry.counter_with_labels(
                names::WINDOW_CACHE,
                "Hot (decompressed) window cache events.",
                &[("event", event)],
            )
        };
        Self {
            stored_bytes: registry.gauge(
                names::WINDOW_STORE_BYTES,
                "Compressed payload bytes currently held by the window store.",
            ),
            windows: registry.gauge(
                names::WINDOW_STORE_WINDOWS,
                "Seek-point windows currently held by the window store.",
            ),
            cache_hits: cache_event("hit"),
            cache_misses: cache_event("miss"),
            cache_evictions: cache_event("evicted"),
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

struct Inner {
    /// Not the pool itself: a chunk task that holds the store must not be
    /// able to drop, and so join, the pool it runs on.
    pool: Option<Spawner>,
    trace: Arc<TraceSink>,
    slots: HashMap<u64, Slot>,
    hot: Cache<u64, Vec<u8>>,
    corrupt_windows: u64,
    metrics: StoreMetrics,
}

impl Inner {
    /// Waits for an in-flight compression and caches the finished record.
    fn resolve(&mut self, offset: u64) -> Option<Arc<CompressedWindow>> {
        let slot = self.slots.get_mut(&offset)?;
        if let Slot::Ready(record) = slot {
            return Some(record.clone());
        }
        // Swap in a placeholder so the pending handle can be consumed; it is
        // overwritten with the real record on the next line.
        let placeholder = Slot::Ready(Arc::new(CompressedWindow::from_window(&[])));
        let Slot::Pending(handle) = std::mem::replace(slot, placeholder) else {
            unreachable!("checked to be pending above");
        };
        let record = Arc::new(handle.wait());
        *slot = Slot::Ready(record.clone());
        Some(record)
    }
}

/// Owns the windows of a seek-point index: compressed records plus a bounded
/// LRU cache of hot decompressed windows.
///
/// The store is internally synchronised and meant to be shared (`Arc`)
/// between an index, its reader and in-flight decompression tasks.  With a
/// thread pool attached ([`WindowStore::attach`]), insertions dispatch the
/// deflate compression asynchronously and only block when the record is
/// actually needed (a later `get`, an export, or statistics that touch it).
pub struct WindowStore {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for WindowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("WindowStore")
            .field("windows", &inner.slots.len())
            .field("hot_windows", &inner.hot.len())
            .finish()
    }
}

impl Default for WindowStore {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowStore {
    /// Creates an empty store with the default hot-cache capacity and no
    /// thread pool (compression runs inline on insert).
    pub fn new() -> Self {
        Self::with_hot_capacity(DEFAULT_HOT_WINDOWS)
    }

    /// Creates an empty store with an explicit hot-cache capacity.
    pub fn with_hot_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                pool: None,
                trace: TraceSink::shared_disabled(),
                slots: HashMap::new(),
                hot: Cache::new(capacity.max(1)),
                corrupt_windows: 0,
                metrics: StoreMetrics::register(&MetricsRegistry::new()),
            }),
        }
    }

    /// Attaches the store to `pool`: subsequent insertions compress on it
    /// for as long as it lives (on the inserting thread after that), and
    /// compress/inflate work is traced and counted where the pool's tasks
    /// are.  The gauges of the pool's registry start at what the store
    /// already holds, an imported index's windows for one.
    pub fn attach(&self, pool: &ThreadPool) {
        let inner = &mut *self.inner.lock();
        // What is still compressing reports to the gauge it started with.
        let offsets: Vec<u64> = inner.slots.keys().copied().collect();
        let records = offsets
            .into_iter()
            .filter_map(|offset| inner.resolve(offset));
        let stored_bytes: usize = records.map(|record| record.stored_bytes()).sum();
        inner.pool = Some(pool.spawner());
        inner.trace = Arc::clone(pool.trace());
        inner.metrics = StoreMetrics::register(pool.metrics());
        inner.metrics.stored_bytes.set(stored_bytes as i64);
        inner.metrics.windows.set(inner.slots.len() as i64);
    }

    /// Number of stored windows.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().slots.is_empty()
    }

    /// Whether a window exists for the given offset.
    pub fn contains(&self, offset: u64) -> bool {
        self.inner.lock().slots.contains_key(&offset)
    }

    fn insert_job(&self, offset: u64, job: impl FnOnce() -> CompressedWindow + Send + 'static) {
        let mut inner = self.inner.lock();
        // Invalidate any stale decompressed copy of a window being replaced,
        // and retire the replaced record's gauge contribution (waiting out an
        // in-flight compression of the same offset — replacement of a pending
        // slot is pathological and correctness beats speed there).
        inner.hot.remove(&offset);
        if inner.slots.contains_key(&offset) {
            if let Some(old) = inner.resolve(offset) {
                inner.metrics.stored_bytes.add(-(old.stored_bytes() as i64));
            }
        }
        let trace = Arc::clone(&inner.trace);
        let stored_bytes = inner.metrics.stored_bytes.clone();
        let compress_seconds = inner.metrics.compress_seconds.clone();
        let traced_job = move || {
            let span = trace.span(Stage::WindowCompress).chunk(offset);
            let mut timer = StageTimer::start(span, &compress_seconds);
            let record = job();
            timer.set_bytes(u64::from(record.window_length));
            drop(timer);
            stored_bytes.add(record.stored_bytes() as i64);
            record
        };
        let slot = match &inner.pool {
            Some(pool) => Slot::Pending(pool.submit(traced_job)),
            None => Slot::Ready(Arc::new(traced_job())),
        };
        inner.slots.insert(offset, slot);
        let windows = inner.slots.len();
        inner.metrics.windows.set(windows as i64);
    }

    /// Stores the last 32 KiB of `window` without sparsification.
    pub fn insert(&self, offset: u64, window: Vec<u8>) {
        self.insert_job(offset, move || CompressedWindow::from_window(&window));
    }

    /// Stores the last 32 KiB of `window`, dropping/zeroing the bytes not
    /// named by `usage` (marker-space `(offset, length)` runs).
    pub fn insert_sparse(&self, offset: u64, window: Vec<u8>, usage: Vec<(u32, u32)>) {
        self.insert_job(offset, move || {
            CompressedWindow::from_window_sparse(&window, &usage)
        });
    }

    /// Stores an already compressed record (the index import path).
    pub fn insert_compressed(&self, offset: u64, record: CompressedWindow) {
        let mut inner = self.inner.lock();
        inner.hot.remove(&offset);
        if inner.slots.contains_key(&offset) {
            if let Some(old) = inner.resolve(offset) {
                inner.metrics.stored_bytes.add(-(old.stored_bytes() as i64));
            }
        }
        inner.metrics.stored_bytes.add(record.stored_bytes() as i64);
        inner.slots.insert(offset, Slot::Ready(Arc::new(record)));
        let windows = inner.slots.len();
        inner.metrics.windows.set(windows as i64);
    }

    /// Returns the decompressed (masked) window for `offset`, inflating and
    /// caching it if necessary.  `Ok(None)` means no window is stored there.
    pub fn get(&self, offset: u64) -> Result<Option<Arc<Vec<u8>>>, WindowError> {
        let inner = &mut *self.inner.lock();
        if let Some(hot) = inner.hot.get(&offset) {
            inner.metrics.cache_hits.inc();
            return Ok(Some(hot));
        }
        inner.metrics.cache_misses.inc();
        let Some(record) = inner.resolve(offset) else {
            return Ok(None);
        };
        let span = inner.trace.span(Stage::WindowInflate).chunk(offset);
        let mut timer = StageTimer::start(span, &inner.metrics.inflate_seconds);
        match record.decompress() {
            Ok(window) => {
                timer.set_bytes(window.len() as u64);
                drop(timer);
                let window = Arc::new(window);
                if inner.hot.insert(offset, window.clone()).is_some() {
                    inner.metrics.cache_evictions.inc();
                }
                Ok(Some(window))
            }
            Err(error) => {
                timer.set_outcome(Outcome::Error);
                timer.discard();
                inner.corrupt_windows += 1;
                Err(error)
            }
        }
    }

    /// Returns the compressed record for `offset`, waiting for an in-flight
    /// compression to finish if necessary (the index export path).
    pub fn get_compressed(&self, offset: u64) -> Option<Arc<CompressedWindow>> {
        self.inner.lock().resolve(offset)
    }

    /// Memory and behaviour counters.  Harvests compressions that already
    /// finished but does not wait for ones still in flight; their sizes are
    /// reported once they complete.
    pub fn statistics(&self) -> WindowStoreStatistics {
        let mut inner = self.inner.lock();
        let mut statistics = WindowStoreStatistics {
            windows: inner.slots.len(),
            hot_windows: inner.hot.len(),
            corrupt_windows: inner.corrupt_windows,
            ..Default::default()
        };
        for slot in inner.slots.values_mut() {
            if let Slot::Pending(handle) = slot {
                match handle.try_wait() {
                    Some(Ok(record)) => *slot = Slot::Ready(Arc::new(record)),
                    Some(Err(panic)) => std::panic::resume_unwind(panic),
                    None => {}
                }
            }
            match slot {
                Slot::Pending(_) => statistics.pending_compressions += 1,
                Slot::Ready(record) => {
                    statistics.stored_bytes += record.stored_bytes();
                    statistics.window_bytes += record.window_length as usize;
                    statistics.original_bytes += record.original_length as usize;
                }
            }
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
        let store = WindowStore::new();
        assert!(store.is_empty());
        let window = repetitive_window(1);
        store.insert(100, window.clone());
        assert!(store.contains(100));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(100).unwrap().unwrap().as_slice(), &window[..]);
        assert_eq!(store.get(999).unwrap(), None);

        let statistics = store.statistics();
        assert_eq!(statistics.windows, 1);
        assert!(statistics.stored_bytes < WINDOW_SIZE / 4);
        assert_eq!(statistics.original_bytes, WINDOW_SIZE);
        assert!(statistics.compression_ratio() > 4.0);
    }

    #[test]
    fn pool_backed_insertions_resolve_on_access() {
        let pool = ThreadPool::new(4);
        let store = WindowStore::new();
        store.attach(&pool);
        let windows: Vec<Vec<u8>> = (0..16).map(|i| repetitive_window(i as u8)).collect();
        for (i, window) in windows.iter().enumerate() {
            store.insert(i as u64 * 1000, window.clone());
        }
        for (i, window) in windows.iter().enumerate() {
            assert_eq!(
                store.get(i as u64 * 1000).unwrap().unwrap().as_slice(),
                &window[..]
            );
        }
        let statistics = store.statistics();
        assert_eq!(statistics.pending_compressions, 0);
        assert_eq!(statistics.windows, 16);
    }

    #[test]
    fn hot_cache_serves_repeated_access_and_is_bounded() {
        let store = WindowStore::with_hot_capacity(2);
        for offset in 0..4u64 {
            store.insert(offset, repetitive_window(offset as u8));
        }
        // First access decompresses, second hits the hot cache.
        store.get(0).unwrap().unwrap();
        store.get(0).unwrap().unwrap();
        assert_eq!(store.inner.lock().metrics.cache_hits.value(), 1);
        assert!(store.statistics().hot_windows <= 2);
        // Touch everything; the cache must stay within its bound.
        for offset in 0..4u64 {
            store.get(offset).unwrap().unwrap();
        }
        assert!(store.statistics().hot_windows <= 2);
    }

    #[test]
    fn corrupt_records_error_and_are_counted() {
        let store = WindowStore::new();
        let mut record = CompressedWindow::from_window(&repetitive_window(9));
        record.checksum ^= 1;
        store.insert_compressed(7, record);
        assert!(store.get(7).is_err());
        assert_eq!(store.statistics().corrupt_windows, 1);
    }

    #[test]
    fn metrics_mirror_store_and_cache_state() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = ThreadPool::new_observed(1, TraceSink::shared_disabled(), registry.clone());
        let store = WindowStore::with_hot_capacity(2);
        // What the store holds when it is attached — an imported index's
        // windows — is what the gauges start at.
        store.insert(0, repetitive_window(0));
        store.attach(&pool);
        for offset in 1..3u64 {
            store.insert(offset, repetitive_window(offset as u8));
        }
        store.get(0).unwrap().unwrap(); // miss + inflate
        store.get(0).unwrap().unwrap(); // hit
        store.get(1).unwrap().unwrap(); // miss
        store.get(2).unwrap().unwrap(); // miss, evicts offset 0
        let statistics = store.statistics();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::WINDOW_STORE_WINDOWS, &[]), Some(3));
        assert_eq!(
            snapshot.gauge(names::WINDOW_STORE_BYTES, &[]),
            Some(statistics.stored_bytes as i64)
        );
        let cache = |event| snapshot.counter(names::WINDOW_CACHE, &[("event", event)]);
        assert_eq!(cache("hit"), Some(1));
        assert_eq!(cache("miss"), Some(3));
        assert_eq!(cache("evicted"), Some(1));
        let count = |name| snapshot.histogram(name, &[]).unwrap().count;
        assert_eq!(count(names::WINDOW_COMPRESS_SECONDS), 2, "since attached");
        assert_eq!(
            count(names::WINDOW_INFLATE_SECONDS),
            3,
            "hits do not re-inflate"
        );
    }

    #[test]
    fn reinsertion_invalidates_the_hot_copy() {
        let store = WindowStore::new();
        store.insert(5, repetitive_window(1));
        let first = store.get(5).unwrap().unwrap();
        store.insert(5, repetitive_window(2));
        let second = store.get(5).unwrap().unwrap();
        assert_ne!(first.as_slice(), second.as_slice());
        assert_eq!(second.as_slice(), &repetitive_window(2)[..]);
    }

    #[test]
    fn sparse_insertion_stores_only_referenced_bytes() {
        let store = WindowStore::new();
        let window = repetitive_window(3);
        store.insert_sparse(11, window.clone(), vec![((WINDOW_SIZE - 8) as u32, 8)]);
        let masked = store.get(11).unwrap().unwrap();
        assert_eq!(masked.len(), 8);
        assert_eq!(masked.as_slice(), &window[WINDOW_SIZE - 8..]);
        let record = store.get_compressed(11).unwrap();
        assert!(record.is_sparse());
        assert_eq!(record.original_length as usize, WINDOW_SIZE);
    }
}
