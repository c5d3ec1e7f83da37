//! The cache-and-prefetch machinery (§3.1–§3.2, Figure 5).
//!
//! * [`ThreadPool`] — a fixed-size worker pool with joinable task handles, an
//!   urgent lane in front of the normal one, and a [`Spawner`] for tasks that
//!   submit tasks.
//! * [`BufferPool`] — the chunk buffers (compressed range, 16-bit symbols,
//!   output bytes) a reader's tasks take and give back instead of going to
//!   the allocator, and through it the kernel, for each chunk.
//! * [`Cache`] — a keyed cache parameterised by a [`CacheStrategy`]
//!   (eviction policy); [`LeastRecentlyUsed`] is the default.
//! * [`FetchingStrategy`] — decides which chunk indexes to prefetch based on
//!   the recent access history (`FetchNextFixed`, `FetchNextAdaptive`,
//!   `FetchNextMultiStream`).
//! * [`ChunkFetcher`] — ties the three together: on every access it returns
//!   the cached chunk or computes it on the pool, and asynchronously
//!   prefetches the chunks the strategy predicts, into a *separate* prefetch
//!   cache so speculative work cannot evict explicitly accessed chunks.

pub mod buffer_pool;
pub mod cache;
pub mod chunk_fetcher;
pub mod plan;
pub mod strategy;
pub mod thread_pool;

pub use buffer_pool::{BufferPool, Pooled};
pub use cache::{Cache, CacheStatistics, CacheStrategy, LeastRecentlyUsed};
pub use chunk_fetcher::{ChunkFetcher, ChunkFetcherConfig, FetchStatistics};
pub use plan::IndexAlignedPlan;
pub use strategy::{FetchNextAdaptive, FetchNextFixed, FetchNextMultiStream, FetchingStrategy};
pub use thread_pool::{PoolStatistics, Spawner, TaskHandle, ThreadPool};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn end_to_end_prefetching_pipeline() {
        // A fetcher whose "decompression" doubles the index; verify that
        // sequential access triggers prefetching and never returns wrong data.
        let computed = Arc::new(AtomicUsize::new(0));
        let computed_clone = computed.clone();
        let fetcher = ChunkFetcher::new(
            ChunkFetcherConfig {
                parallelization: 4,
                ..Default::default()
            },
            Arc::new(FetchNextAdaptive::default()),
            move |index: usize| {
                computed_clone.fetch_add(1, Ordering::Relaxed);
                Ok::<usize, String>(index * 2)
            },
        );
        for index in 0..64usize {
            let value = fetcher.get(index, 64).unwrap();
            assert_eq!(*value, index * 2);
        }
        let statistics = fetcher.statistics();
        assert_eq!(statistics.accesses, 64);
        assert!(statistics.prefetch_hits > 0, "prefetching never hit");
        // Prefetching may compute chunks beyond the highest accessed index and
        // may recompute a chunk whose prefetched result was evicted before it
        // was accessed (timing dependent), but the total work must stay within
        // a small constant factor of the 64 useful chunks.
        assert!(computed.load(Ordering::Relaxed) >= 64);
        assert!(computed.load(Ordering::Relaxed) <= 64 * 2);
    }
}
