//! What the reader's chunk tasks run on and keep their memory in (§3.1–§3.2,
//! Figure 5): a thread pool and a buffer pool.  What is decoded ahead, and
//! where it waits for the reader, is `rgz_core`'s table of chunks; which
//! chunks the reader has decoded ahead, and what random access keeps of
//! them, is decided there too.
//!
//! * [`ThreadPool`] — a fixed-size worker pool with joinable task handles, an
//!   urgent lane in front of the normal one, and a [`Spawner`] for tasks that
//!   submit tasks.
//! * [`BufferPool`] — the chunk buffers (compressed range, 16-bit symbols,
//!   output bytes) a reader's tasks take and give back instead of going to
//!   the allocator, and through it the kernel, for each chunk.
//! * [`StageTimer`] — what the tasks are timed by: one clock per stage for
//!   its trace span and its latency histogram.

pub mod buffer_pool;
pub mod stage_timer;
pub mod thread_pool;

pub use buffer_pool::{BufferPool, Pooled};
pub use stage_timer::StageTimer;
pub use thread_pool::{Spawner, TaskHandle, ThreadPool};
