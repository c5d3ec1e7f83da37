//! Background sampling: periodic registry snapshots in a bounded ring.
//!
//! Rates ("MB/s over the last tick") need two timestamped snapshots; the
//! [`Sampler`] owns a thread that takes one every `interval`, keeps the last
//! `capacity` of them, and hands each fresh pair to an optional observer —
//! which is how the CLI's `--stats-interval` progress line is produced
//! without touching the decode loop.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::{MetricsRegistry, MetricsSnapshot};

/// One snapshot with the elapsed time since the sampler started.
#[derive(Debug, Clone)]
pub struct TimedSample {
    pub elapsed: Duration,
    pub snapshot: MetricsSnapshot,
}

/// Two consecutive samples — everything a rate computation needs.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    pub previous: TimedSample,
    pub current: TimedSample,
}

impl SampleWindow {
    /// Wall time covered by this window.
    pub fn interval(&self) -> Duration {
        self.current.elapsed.saturating_sub(self.previous.elapsed)
    }

    /// Increase of a whole counter family (summed over label values).
    pub fn counter_total_delta(&self, name: &str) -> u64 {
        self.current
            .snapshot
            .counter_total(name)
            .saturating_sub(self.previous.snapshot.counter_total(name))
    }

    /// Family increase divided by the window length, per second.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        let seconds = self.interval().as_secs_f64();
        if seconds <= 0.0 {
            return 0.0;
        }
        self.counter_total_delta(name) as f64 / seconds
    }

    /// Current value of a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.current.snapshot.gauge(name, labels)
    }
}

type Observer = Box<dyn Fn(&SampleWindow) + Send>;

struct SamplerShared {
    ring: Mutex<VecDeque<TimedSample>>,
    capacity: usize,
}

impl SamplerShared {
    fn push(&self, sample: TimedSample) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
    }
}

/// Owns the sampling thread; dropping it stops the thread and joins it.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` every `interval`, keeping the most recent
    /// `capacity` samples.  A baseline sample is taken immediately so the
    /// first tick already forms a window.
    pub fn start(registry: Arc<MetricsRegistry>, interval: Duration, capacity: usize) -> Sampler {
        Self::start_with_observer(registry, interval, capacity, None)
    }

    /// Like [`Sampler::start`], with an observer invoked (on the sampler
    /// thread) after every tick with the freshest window.
    pub fn start_with_observer(
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        capacity: usize,
        observer: Option<Observer>,
    ) -> Sampler {
        let interval = interval.max(Duration::from_millis(10));
        let capacity = capacity.max(2);
        let shared = Arc::new(SamplerShared {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        });
        let (stop, ticks) = mpsc::channel::<()>();
        let thread_shared = Arc::clone(&shared);
        // The baseline is taken here, not on the sampler thread: whatever the
        // caller records after `start` returns is a delta, however late the
        // thread gets scheduled.
        let started = Instant::now();
        let mut previous = TimedSample {
            elapsed: Duration::ZERO,
            snapshot: registry.snapshot(),
        };
        shared.push(previous.clone());
        let handle = std::thread::Builder::new()
            .name("rgz-sampler".to_string())
            .spawn(move || {
                // Any non-timeout result means the sender hung up (or sent an
                // explicit stop message): the loop ends and the thread exits.
                while let Err(RecvTimeoutError::Timeout) = ticks.recv_timeout(interval) {
                    let current = TimedSample {
                        elapsed: started.elapsed(),
                        snapshot: registry.snapshot(),
                    };
                    thread_shared.push(current.clone());
                    let window = SampleWindow {
                        previous,
                        current: current.clone(),
                    };
                    if let Some(observer) = observer.as_ref() {
                        observer(&window);
                    }
                    previous = current;
                }
            })
            .expect("failed to spawn sampler thread");
        Sampler {
            shared,
            stop: Some(stop),
            handle: Some(handle),
        }
    }

    /// The ring's current contents, oldest first.
    pub fn samples(&self) -> Vec<TimedSample> {
        self.shared.ring.lock().iter().cloned().collect()
    }

    /// The freshest consecutive pair, if two samples exist yet.
    pub fn latest_window(&self) -> Option<SampleWindow> {
        let ring = self.shared.ring.lock();
        let len = ring.len();
        if len < 2 {
            return None;
        }
        Some(SampleWindow {
            previous: ring[len - 2].clone(),
            current: ring[len - 1].clone(),
        })
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_accumulate_and_windows_expose_deltas() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("ticks_total", "test");
        let gauge = registry.gauge("depth", "test");
        gauge.set(3);
        let sampler = Sampler::start(Arc::clone(&registry), Duration::from_millis(20), 8);
        for _ in 0..10 {
            counter.add(10);
            std::thread::sleep(Duration::from_millis(10));
        }
        // Wait until at least one post-baseline sample landed.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.latest_window().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let window = sampler.latest_window().expect("sampler produced no window");
        assert!(window.interval() > Duration::ZERO);
        assert!(window.current.snapshot.counter("ticks_total", &[]).unwrap() <= 100);
        assert_eq!(window.gauge("depth", &[]), Some(3));
        let samples = sampler.samples();
        assert!(!samples.is_empty() && samples.len() <= 8);
        assert_eq!(samples[0].elapsed, Duration::ZERO, "baseline sample first");
    }

    #[test]
    fn ring_is_bounded() {
        let registry = Arc::new(MetricsRegistry::new());
        let sampler = Sampler::start(registry, Duration::from_millis(10), 2);
        std::thread::sleep(Duration::from_millis(120));
        assert!(sampler.samples().len() <= 2);
    }

    #[test]
    fn observer_sees_every_tick_and_drop_stops_the_thread() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("obs_total", "test");
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen_in_observer = Arc::clone(&seen);
        let sampler = Sampler::start_with_observer(
            Arc::clone(&registry),
            Duration::from_millis(15),
            4,
            Some(Box::new(move |window| {
                seen_in_observer.fetch_add(
                    window.counter_total_delta("obs_total"),
                    std::sync::atomic::Ordering::Relaxed,
                );
            })),
        );
        counter.add(7);
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.load(std::sync::atomic::Ordering::Relaxed) < 7 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(sampler);
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 7);
    }
}
