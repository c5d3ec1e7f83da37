//! Helpers shared by the integration tests.

use std::time::{Duration, Instant};

use rapidgzip_suite::core::ParallelGzipReader;

#[allow(dead_code)]
mod chunk_table;
#[allow(unused_imports)]
pub use chunk_table::chunk_table;
#[allow(dead_code)]
mod held_windows;
#[allow(unused_imports)]
pub use held_windows::held_windows;

/// Waits until no task is queued or running on the reader's pool: what was
/// decoded ahead is done, and the counters stand still.
pub fn quiesce(reader: &ParallelGzipReader) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let statistics = reader.statistics();
        if statistics.pool_queue_depth == 0 && statistics.pool_tasks_inflight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "worker pool did not quiesce");
        std::thread::sleep(Duration::from_millis(1));
    }
}
