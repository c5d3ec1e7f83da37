//! A fixed-size thread pool with joinable task handles.
//!
//! The paper's architecture dispatches chunk decompression and marker
//! replacement as tasks to a shared pool (the `ThreadPool` / `JoiningThread`
//! classes in Figure 5).  The work queue has two lanes: a worker takes from
//! the *urgent* lane before it looks at the *normal* one, and each lane is
//! first in, first out.  The reader puts what its consumer is waiting for —
//! the decode of the chunk the pass stands at, the marker replacement of a
//! committed chunk — in front of the decodes it issued ahead; everything else
//! in the workspace uses the normal lane.  A small one-shot channel per task
//! carries the result.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver};
use rgz_metrics::{exponential_buckets, names, Counter, Gauge, Histogram, MetricsRegistry};
use rgz_trace::{EventMeta, Outcome, Stage, TraceSink};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Clone, Copy)]
enum Lane {
    Urgent,
    Normal,
}

#[derive(Default)]
struct Lanes {
    urgent: VecDeque<Job>,
    normal: VecDeque<Job>,
    /// The pool is being dropped: workers leave once both lanes are empty.
    closed: bool,
    /// Workers that have not left yet.
    workers: usize,
}

/// The two-lane work queue the workers and every [`Spawner`] share.
struct Queue {
    lanes: Mutex<Lanes>,
    available: Condvar,
}

impl Queue {
    fn lock(&self) -> std::sync::MutexGuard<'_, Lanes> {
        // A job never runs under this lock, so a poisoned one still holds
        // two well-formed queues.
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job`, or hands it back if no worker is left to run it.
    fn push(&self, lane: Lane, job: Job) -> Result<(), Job> {
        let mut lanes = self.lock();
        if lanes.workers == 0 {
            return Err(job);
        }
        match lane {
            Lane::Urgent => lanes.urgent.push_back(job),
            Lane::Normal => lanes.normal.push_back(job),
        }
        drop(lanes);
        self.available.notify_one();
        Ok(())
    }

    /// The next job — urgent before normal — or `None` once the queue is
    /// closed and empty, which counts the calling worker out.
    fn pop(&self) -> Option<Job> {
        let mut lanes = self.lock();
        loop {
            let job = match lanes.urgent.pop_front() {
                Some(job) => Some(job),
                None => lanes.normal.pop_front(),
            };
            if job.is_some() {
                return job;
            }
            if lanes.closed {
                lanes.workers -= 1;
                return None;
            }
            lanes = self
                .available
                .wait(lanes)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

/// The pool's series on the registry it was built with: the only count kept
/// of what is queued, in flight and submitted.
struct PoolObservers {
    queue_depth: Gauge,
    inflight: Gauge,
    tasks_total: Counter,
    task_wait_seconds: Histogram,
    metrics: Arc<MetricsRegistry>,
}

impl PoolObservers {
    fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            queue_depth: metrics.gauge(
                names::POOL_QUEUE_DEPTH,
                "Tasks submitted to the worker pool but not yet started.",
            ),
            inflight: metrics.gauge(
                names::POOL_TASKS_INFLIGHT,
                "Tasks currently executing on a pool worker.",
            ),
            tasks_total: metrics.counter(
                names::POOL_TASKS_TOTAL,
                "Total tasks submitted to the worker pool.",
            ),
            task_wait_seconds: metrics.histogram(
                names::POOL_TASK_WAIT_SECONDS,
                "Time a task spent queued before a worker picked it up.",
                &exponential_buckets(0.000_05, 4.0, 10),
            ),
            metrics,
        }
    }
}

/// Handle to a value being computed on the pool.
pub struct TaskHandle<T> {
    receiver: Receiver<std::thread::Result<T>>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the task finishes and returns its result.
    ///
    /// Panics if the task itself panicked (propagating the panic payload),
    /// mirroring `std::thread::JoinHandle::join().unwrap()` semantics.
    pub fn wait(self) -> T {
        match self.receiver.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(panic)) => std::panic::resume_unwind(panic),
            Err(_) => panic!("thread pool dropped the task without running it"),
        }
    }
}

/// Submits tasks to a [`ThreadPool`] without owning its threads.
///
/// Anything a *task* holds on to — the reader's shared pass state — submits
/// through one of these: dropping it on a worker thread joins nothing, so no
/// task can end up waiting for its own thread.
/// A spawner that outlives its pool runs what it is given on the calling
/// thread.
#[derive(Clone)]
pub struct Spawner {
    queue: Arc<Queue>,
    trace: Arc<TraceSink>,
    observers: Arc<PoolObservers>,
}

impl std::fmt::Debug for Spawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spawner").finish_non_exhaustive()
    }
}

impl Spawner {
    /// Submits a closure to the normal lane and returns a handle to its
    /// result.
    pub fn submit<T, F>(&self, task: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_to(Lane::Normal, task)
    }

    /// Submits a closure to the urgent lane: it runs before every task of
    /// the normal lane that no worker has started yet, and after the urgent
    /// ones submitted before it.
    pub fn submit_urgent<T, F>(&self, task: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_to(Lane::Urgent, task)
    }

    fn submit_to<T, F>(&self, lane: Lane, task: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (result_sender, result_receiver) = unbounded();
        // Capture the submit timestamp so the worker can record how long the
        // task sat in the queue; `None` (sink disabled) skips the span.
        let submitted_us = self.trace.is_enabled().then(|| self.trace.now_us());
        let submitted_at = Instant::now();
        let trace = Arc::clone(&self.trace);
        let observers = Arc::clone(&self.observers);
        observers.queue_depth.inc();
        observers.tasks_total.inc();
        let job: Job = Box::new(move || {
            // In flight before it is out of the queue: whoever waits for the
            // pool to go idle never sees a task in neither.
            observers.inflight.inc();
            observers.queue_depth.dec();
            observers
                .task_wait_seconds
                .observe(submitted_at.elapsed().as_secs_f64());
            if let Some(submitted_us) = submitted_us {
                trace.record_span_since(
                    Stage::TaskWait,
                    submitted_us,
                    EventMeta::default(),
                    Outcome::Ok,
                );
            }
            let outcome = catch_unwind(AssertUnwindSafe(task));
            observers.inflight.dec();
            // The receiver may have been dropped if the caller lost interest;
            // that is fine, the work is simply discarded.
            let _ = result_sender.send(outcome);
        });
        if let Err(job) = self.queue.push(lane, job) {
            job();
        }
        TaskHandle {
            receiver: result_receiver,
        }
    }
}

/// A fixed-size worker pool.
pub struct ThreadPool {
    spawner: Spawner,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns `size` worker threads (at least one) that trace nothing and
    /// count into a registry of the pool's own.
    pub fn new(size: usize) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        Self::new_observed(size, TraceSink::shared_disabled(), metrics)
    }

    /// Spawns `size` worker threads reporting queue-wait spans to `trace` and
    /// queue depth, tasks in flight and task wait to `metrics`.
    pub fn new_observed(size: usize, trace: Arc<TraceSink>, metrics: Arc<MetricsRegistry>) -> Self {
        let size = size.max(1);
        let queue = Arc::new(Queue {
            lanes: Mutex::new(Lanes {
                workers: size,
                ..Lanes::default()
            }),
            available: Condvar::new(),
        });
        let workers = (0..size)
            .map(|index| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("rgz-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            spawner: Spawner {
                queue,
                trace,
                observers: Arc::new(PoolObservers::new(metrics)),
            },
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// The metrics registry the pool reports to.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.spawner.observers.metrics
    }

    /// A handle tasks can keep to submit more work to this pool.
    pub fn spawner(&self) -> Spawner {
        self.spawner.clone()
    }

    /// Submits a closure and returns a handle to its result.
    pub fn submit<T, F>(&self, task: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawner.submit(task)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers finish what is queued — and what that queues — and leave.
        self.spawner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn queue_depth(pool: &ThreadPool) -> Option<i64> {
        pool.metrics()
            .snapshot()
            .gauge(names::POOL_QUEUE_DEPTH, &[])
    }

    #[test]
    fn runs_tasks_and_returns_results() {
        let pool = ThreadPool::new(4);
        let handles: Vec<TaskHandle<usize>> =
            (0..100).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<usize> = handles.into_iter().map(TaskHandle::wait).collect();
        assert_eq!(results, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_actually_run_in_parallel() {
        let pool = ThreadPool::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let running = running.clone();
                let peak = peak.clone();
                pool.submit(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in handles {
            handle.wait();
        }
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "no observable parallelism"
        );
    }

    #[test]
    fn zero_size_is_clamped_to_one_worker() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.submit(|| 7u32).wait(), 7);
    }

    #[test]
    fn panicking_tasks_propagate_on_wait() {
        let pool = ThreadPool::new(2);
        let handle = pool.submit(|| -> u32 { panic!("task exploded") });
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| handle.wait()));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        assert_eq!(pool.submit(|| 1 + 1).wait(), 2);
    }

    #[test]
    fn traced_pool_records_queue_wait_spans() {
        let trace = Arc::new(rgz_trace::TraceSink::new_enabled());
        let pool = ThreadPool::new_observed(2, Arc::clone(&trace), Arc::default());
        let handles: Vec<_> = (0..10).map(|i| pool.submit(move || i)).collect();
        for handle in handles {
            handle.wait();
        }
        let waits: usize = trace
            .snapshot()
            .iter()
            .flat_map(|track| track.events.iter())
            .filter(|event| {
                matches!(
                    event.kind,
                    rgz_trace::EventKind::Span {
                        stage: rgz_trace::Stage::TaskWait,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(waits, 10, "one queue-wait span per submitted task");
    }

    #[test]
    fn untraced_pool_records_nothing() {
        let trace = Arc::new(rgz_trace::TraceSink::new());
        let pool = ThreadPool::new_observed(2, Arc::clone(&trace), Arc::default());
        for handle in (0..4).map(|i| pool.submit(move || i)).collect::<Vec<_>>() {
            handle.wait();
        }
        assert_eq!(trace.event_count(), 0);
    }

    #[test]
    fn pool_statistics_track_queue_and_inflight() {
        let registry = Arc::new(rgz_metrics::MetricsRegistry::new());
        let pool = ThreadPool::new_observed(
            1,
            rgz_trace::TraceSink::shared_disabled(),
            Arc::clone(&registry),
        );
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // One task running, queue another two behind it on the single worker.
        let queued: Vec<_> = (0..2).map(|i| pool.submit(move || i)).collect();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::POOL_TASKS_INFLIGHT, &[]), Some(1));
        assert_eq!(snapshot.gauge(names::POOL_QUEUE_DEPTH, &[]), Some(2));
        assert_eq!(snapshot.counter(names::POOL_TASKS_TOTAL, &[]), Some(3));
        block_tx.send(()).unwrap();
        blocker.wait();
        for handle in queued {
            handle.wait();
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::POOL_QUEUE_DEPTH, &[]), Some(0));
        assert_eq!(snapshot.gauge(names::POOL_TASKS_INFLIGHT, &[]), Some(0));
        assert_eq!(
            snapshot
                .histogram(names::POOL_TASK_WAIT_SECONDS, &[])
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn urgent_tasks_run_first_and_each_lane_in_order() {
        let pool = ThreadPool::new(1);
        // Hold the only worker so that everything below queues up behind it.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(move || {
            started_tx.send(()).unwrap();
            held.recv().unwrap();
        });
        started.recv().unwrap();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = |name: &'static str| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(name)
        };
        let spawner = pool.spawner();
        let handles = vec![
            pool.submit(record("normal 1")),
            spawner.submit_urgent(record("urgent 1")),
            spawner.submit(record("normal 2")),
            spawner.submit_urgent(record("urgent 2")),
            pool.submit(record("normal 3")),
        ];
        assert_eq!(queue_depth(&pool), Some(5));
        release.send(()).unwrap();
        blocker.wait();
        for handle in handles {
            handle.wait();
        }
        assert_eq!(
            *order.lock().unwrap(),
            ["urgent 1", "urgent 2", "normal 1", "normal 2", "normal 3"]
        );
    }

    #[test]
    fn dropping_the_pool_runs_both_lanes_and_what_they_submit() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(2);
        let spawner = pool.spawner();
        // Hold both workers, so that both lanes are still full when the pool
        // is dropped: they are let go from another thread, once this one is
        // on its way into the drop.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let held = Arc::new(std::sync::Mutex::new(held));
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        for _ in 0..2 {
            let held = Arc::clone(&held);
            let started_tx = started_tx.clone();
            drop(pool.submit(move || {
                started_tx.send(()).unwrap();
                let _ = held.lock().unwrap().recv();
            }));
        }
        started.recv().unwrap();
        started.recv().unwrap();
        for index in 0..40 {
            let counter = counter.clone();
            let task_spawner = spawner.clone();
            let task = move || {
                counter.fetch_add(1, Ordering::SeqCst);
                // A task that submits a task, as a committing worker does —
                // also while the pool is being dropped.
                let counter = counter.clone();
                drop(task_spawner.submit_urgent(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }));
            };
            if index % 2 == 0 {
                drop(pool.submit(task));
            } else {
                drop(spawner.submit_urgent(task));
            }
        }
        assert_eq!(queue_depth(&pool), Some(40));
        let (dropping_tx, dropping) = std::sync::mpsc::channel::<()>();
        let releaser = std::thread::spawn(move || {
            dropping.recv().unwrap();
            // Both blockers: one message each.
            release.send(()).unwrap();
            release.send(()).unwrap();
        });
        dropping_tx.send(()).unwrap();
        drop(pool);
        releaser.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 80);
        // Nobody is left to run it: the caller does.
        assert_eq!(spawner.submit(|| 7).wait(), 7);
        assert_eq!(spawner.submit_urgent(|| 8).wait(), 8);
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..50 {
                let counter = counter.clone();
                // Fire-and-forget: handles are dropped immediately.
                let _ = pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // All submitted tasks ran before drop returned.
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }
}
