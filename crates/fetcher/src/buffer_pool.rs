//! Recycled chunk buffers: the memory of a chunk, owned by the reader
//! instead of by malloc.
//!
//! Every chunk a reader decodes needs a compressed-range buffer, usually a
//! 16-bit symbol buffer, and a byte buffer for its output: megabytes each,
//! which the system allocator takes from and gives back to the kernel chunk
//! after chunk — a page fault per 4 KiB on first touch, and an `munmap` that
//! stalls every other thread's faults.  A [`BufferPool`] keeps a few of each
//! kind idle instead and hands them to the next task, already grown to what
//! the last chunks needed — which the decodes tell it as they finish
//! ([`BufferPool::note_range`] and its siblings), well before their buffers
//! come back.
//!
//! **The bound.**  At most P + 1 buffers of a kind lie idle (2P + 1 byte
//! buffers, for a reader of P workers), each of a capacity at most 1/32 over
//! the largest of the last sixteen chunks noted (or its own contents, if
//! nothing was).  A buffer is created only when none is idle, or in place of
//! an idle one when all have become too small, so buffers in use plus idle
//! never outnumber the most that were ever in use at once: the pool recycles
//! what was live anyway, it does not add to it.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::Mutex;
use rgz_metrics::{names, Counter, Gauge, MetricsRegistry};

/// How many noted chunks back a shelf looks for the size to keep.
const RECENT: usize = 16;

/// The pool of one reader: three shelves of idle buffers.  Cloning is cheap
/// and yields a handle to the same shelves; they hold plain memory — no
/// thread, task or reader — so whoever lets go of the last handle or buffer
/// frees them, on whatever thread that is.
#[derive(Clone)]
pub struct BufferPool {
    range: Arc<Shelf<u8>>,
    symbols: Arc<Shelf<u16>>,
    bytes: Arc<Shelf<u8>>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool").finish_non_exhaustive()
    }
}

impl BufferPool {
    /// The pool of a reader decoding `parallelization` chunks at once,
    /// counting on `metrics`: [`names::BUFFER_POOL_TAKES`] by
    /// kind (`range`, `u16`, `u8`) and result, and the
    /// [`names::BUFFER_POOL_IDLE_BYTES`] gauge.
    ///
    /// Up to 2P + 1 chunks are on their way from decode to hand-over, and
    /// when the consumer falls behind and catches up again, the number
    /// breathes by P + 1: that many range and symbol buffers may lie idle,
    /// so that the pass neither frees nor creates one once it has them all.
    /// Byte buffers breathe deeper: a consumer descheduled while the workers
    /// fill the whole decode-ahead window hands all 2P + 1 back in one
    /// burst, and a shelf of P + 1 would free P of them for the next decodes
    /// to create anew.
    pub fn new(parallelization: usize, metrics: &MetricsRegistry) -> Self {
        let idle_bytes = metrics.gauge(
            names::BUFFER_POOL_IDLE_BYTES,
            "Capacity of the chunk buffers the reader's pool holds idle.",
        );
        let (breath, burst) = (parallelization + 1, 2 * parallelization + 1);
        Self {
            range: Arc::new(Shelf::new("range", breath, metrics, &idle_bytes)),
            symbols: Arc::new(Shelf::new("u16", breath, metrics, &idle_bytes)),
            bytes: Arc::new(Shelf::new("u8", burst, metrics, &idle_bytes)),
        }
    }

    /// A buffer for a compressed byte range.
    pub fn range(&self) -> Pooled<u8> {
        Shelf::take(&self.range)
    }

    /// A buffer for the 16-bit symbols of a speculative decode.
    pub fn symbols(&self) -> Pooled<u16> {
        Shelf::take(&self.symbols)
    }

    /// A buffer for a chunk's decompressed bytes.
    pub fn bytes(&self) -> Pooled<u8> {
        Shelf::take(&self.bytes)
    }

    /// Wraps a symbol buffer that has been through [`Pooled::detach`] (or
    /// any other) so that it returns to the pool when dropped.
    pub fn adopt_symbols(&self, buffer: Vec<u16>) -> Pooled<u16> {
        Shelf::adopt(&self.symbols, buffer)
    }

    /// [`Self::adopt_symbols`] for a decompressed-bytes buffer.
    pub fn adopt_bytes(&self, buffer: Vec<u8>) -> Pooled<u8> {
        Shelf::adopt(&self.bytes, buffer)
    }

    /// Notes that a chunk's decode read a compressed range of `length` bytes:
    /// what the next range buffers are sized by.
    pub fn note_range(&self, length: usize) {
        self.range.state.lock().note(length);
    }

    /// [`Self::note_range`] for the 16-bit symbols a chunk decoded to.
    pub fn note_symbols(&self, length: usize) {
        self.symbols.state.lock().note(length);
    }

    /// [`Self::note_range`] for a chunk's decompressed bytes.
    pub fn note_bytes(&self, length: usize) {
        self.bytes.state.lock().note(length);
    }

    /// Frees the idle symbol buffers and keeps none from now on: for a reader
    /// that has decoded its last chunk speculatively.
    pub fn retire_symbols(&self) {
        self.symbols.retire();
    }
}

/// A buffer on loan from a [`BufferPool`], as large as the recent chunks
/// needed (if there were any) and holding whatever its last user left in it,
/// for the taker to replace; dropping it gives it back.
pub struct Pooled<T> {
    buffer: Vec<T>,
    home: Arc<Shelf<T>>,
}

impl<T> Pooled<T> {
    /// Takes the buffer out of the pool's hands for good (or until a
    /// `BufferPool::adopt_*` brings it back).
    pub fn detach(mut self) -> Vec<T> {
        std::mem::take(&mut self.buffer)
    }
}

impl<T> Deref for Pooled<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buffer
    }
}

impl<T> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buffer
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Pooled<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buffer.fmt(f)
    }
}

impl<T> Drop for Pooled<T> {
    fn drop(&mut self) {
        self.home.give(std::mem::take(&mut self.buffer));
    }
}

/// The idle buffers of one kind.
struct Shelf<T> {
    state: Mutex<ShelfState<T>>,
    reused: Counter,
    fresh: Counter,
    /// Shared by the pool's three shelves.
    idle_bytes: Gauge,
}

struct ShelfState<T> {
    /// Most recently returned last: the next taker gets the warmest.
    idle: Vec<Vec<T>>,
    idle_limit: usize,
    /// What the last [`RECENT`] chunks noted needed of this kind.
    recent: [usize; RECENT],
    next: usize,
}

impl<T> ShelfState<T> {
    /// The largest of the recent chunks, which are much of a size.
    fn largest(&self) -> usize {
        self.recent.iter().copied().max().unwrap_or(0)
    }

    /// The capacity a buffer of this kind is created with and trimmed to:
    /// 1/32 over the largest of the recent chunks.
    fn capacity(&self) -> usize {
        self.largest() + self.largest() / 32
    }

    /// Notes that a chunk needed `length` elements.
    fn note(&mut self, length: usize) {
        self.recent[self.next] = length;
        self.next = (self.next + 1) % RECENT;
    }
}

impl<T> Shelf<T> {
    fn new(kind: &str, idle_limit: usize, metrics: &MetricsRegistry, idle_bytes: &Gauge) -> Self {
        let takes = |result: &str| {
            metrics.counter_with_labels(
                names::BUFFER_POOL_TAKES,
                "Chunk buffers taken from the reader's pool, recycled or newly allocated.",
                &[("kind", kind), ("result", result)],
            )
        };
        Self {
            state: Mutex::new(ShelfState {
                idle: Vec::new(),
                idle_limit,
                recent: [0; RECENT],
                next: 0,
            }),
            reused: takes("reused"),
            fresh: takes("fresh"),
            idle_bytes: idle_bytes.clone(),
        }
    }

    fn take(shelf: &Arc<Self>) -> Pooled<T> {
        let (recycled, largest, capacity) = {
            let mut state = shelf.state.lock();
            let largest = state.largest();
            // The warmest buffer large enough, else the warmest: a buffer
            // that came back last may be smaller than one before it, when a
            // decode noted a larger chunk while it was out.
            let idle = &mut state.idle;
            let fits = idle.iter().rposition(|buffer| buffer.capacity() >= largest);
            let recycled = fits.or(idle.len().checked_sub(1)).map(|at| idle.remove(at));
            (recycled, largest, state.capacity())
        };
        if let Some(buffer) = &recycled {
            shelf.published(-(buffer.capacity() as i64));
        }
        // A buffer too small for the chunks going round now is no use:
        // growing in the task's hands would copy contents nobody wants, and
        // double the capacity for a few elements more.  Its replacement is
        // an allocation like any other, and counts as one.
        let buffer = match recycled.filter(|buffer| buffer.capacity() >= largest) {
            Some(buffer) => {
                shelf.reused.inc();
                buffer
            }
            None => {
                shelf.fresh.inc();
                Vec::with_capacity(capacity)
            }
        };
        Self::adopt(shelf, buffer)
    }

    fn adopt(shelf: &Arc<Self>, buffer: Vec<T>) -> Pooled<T> {
        Pooled {
            buffer,
            home: Arc::clone(shelf),
        }
    }

    fn give(&self, mut buffer: Vec<T>) {
        if buffer.capacity() == 0 {
            return;
        }
        let (capacity, room) = {
            let state = self.state.lock();
            (state.capacity(), state.idle.len() < state.idle_limit)
        };
        if !room {
            return;
        }
        // Trimming megabytes can be a system call, as can freeing them: both
        // happen with the shelf unlocked (the guard below goes before the
        // parameter does).
        buffer.shrink_to(capacity);
        let mut state = self.state.lock();
        if state.idle.len() < state.idle_limit {
            self.published(buffer.capacity() as i64);
            state.idle.push(buffer);
        }
    }

    /// Frees the idle buffers and keeps none from now on.
    fn retire(&self) {
        let idle = {
            let mut state = self.state.lock();
            state.idle_limit = 0;
            std::mem::take(&mut state.idle)
        };
        let elements: usize = idle.iter().map(Vec::capacity).sum();
        self.published(-(elements as i64));
    }

    /// Moves the idle-bytes gauge by `elements` of this shelf's type.
    fn published(&self, elements: i64) {
        self.idle_bytes
            .add(elements * std::mem::size_of::<T>() as i64);
    }
}

/// The last handle and the last loan are gone: what lay idle is freed.
impl<T> Drop for Shelf<T> {
    fn drop(&mut self) {
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn takes(registry: &MetricsRegistry, kind: &str, result: &str) -> u64 {
        registry
            .snapshot()
            .counter(
                names::BUFFER_POOL_TAKES,
                &[("kind", kind), ("result", result)],
            )
            .unwrap_or(0)
    }

    fn idle_bytes(registry: &MetricsRegistry) -> i64 {
        registry
            .snapshot()
            .gauge(names::BUFFER_POOL_IDLE_BYTES, &[])
            .unwrap_or(0)
    }

    #[test]
    fn a_returned_buffer_is_the_next_one_taken_contents_and_all() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        let mut first = pool.bytes();
        assert_eq!(first.capacity(), 0, "nothing to size a first buffer by");
        first.extend_from_slice(&[7; 1000]);
        let address = first.as_ptr();
        drop(first);
        assert_eq!(idle_bytes(&registry), 1000);

        let second = pool.bytes();
        assert_eq!(second.as_ptr(), address);
        assert_eq!(second[..], [7; 1000]);
        assert_eq!(idle_bytes(&registry), 0);
        // Kinds do not mix, even of one element type.
        assert_eq!(pool.range().capacity(), 0);
        assert_eq!(takes(&registry, "u8", "fresh"), 1);
        assert_eq!(takes(&registry, "u8", "reused"), 1);
        assert_eq!(takes(&registry, "range", "fresh"), 1);
        assert_eq!(takes(&registry, "u16", "fresh"), 0);
    }

    #[test]
    fn idle_buffers_are_bounded_in_number_and_size() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        let mut loans: Vec<Pooled<u16>> = (0..5).map(|_| pool.symbols()).collect();
        for (loan, length) in loans.iter_mut().zip([800usize, 100, 100, 100, 100]) {
            loan.reserve(4000);
            loan.resize(length, 1);
            pool.note_symbols(length);
        }
        // P + 1 = two stay, trimmed from 4000 elements to 1/32 over the
        // largest of the recent chunks; three are freed.
        loans.clear();
        assert_eq!(idle_bytes(&registry), 2 * 825 * 2);
        // A new buffer starts out at that size.
        let (_a, _b, fresh) = (pool.symbols(), pool.symbols(), pool.symbols());
        assert_eq!(fresh.capacity(), 825);
        assert_eq!(takes(&registry, "u16", "reused"), 2);
        assert_eq!(takes(&registry, "u16", "fresh"), 6);
        // Of the kind that comes home in bursts, 2P + 1 = three stay.
        let bytes: Vec<Pooled<u8>> = (0..5).map(|_| pool.bytes()).collect();
        for mut loan in bytes {
            loan.resize(10, 1);
        }
        assert_eq!(idle_bytes(&registry), 3 * 10);
        let _kept: Vec<Pooled<u8>> = (0..5).map(|_| pool.bytes()).collect();
        assert_eq!(takes(&registry, "u8", "reused"), 3);
        assert_eq!(takes(&registry, "u8", "fresh"), 7);

        // The largest chunk is forgotten once RECENT others have passed.
        for _ in 0..RECENT {
            pool.note_symbols(100);
        }
        assert_eq!(pool.symbols().capacity(), 103);
        // Without a chunk noted, a buffer keeps what it holds and no more.
        let mut range = pool.range();
        range.reserve(4000);
        range.resize(10, 1);
        drop(range);
        assert_eq!(pool.range().capacity(), 10);
    }

    #[test]
    fn a_buffer_too_small_for_the_recent_chunks_is_replaced_when_taken() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        let (mut small, mut large) = (pool.bytes(), pool.bytes());
        small.resize(100, 1);
        large.resize(1000, 2);
        drop(small);
        drop(large);
        // A decode reports its chunk before the chunk's buffer comes back.
        pool.note_bytes(100);
        pool.note_bytes(1000);
        let large = pool.bytes();
        assert_eq!((large.len(), large.capacity()), (1000, 1000));
        // What a task would otherwise have to grow, by doubling, as it fills it.
        let small = pool.bytes();
        assert_eq!((small.len(), small.capacity()), (0, 1031));
        // That is an allocation, and counted as one.
        assert_eq!(takes(&registry, "u8", "reused"), 1);
        assert_eq!(takes(&registry, "u8", "fresh"), 3);
        assert_eq!(idle_bytes(&registry), 0);
    }

    #[test]
    fn a_buffer_large_enough_is_taken_before_a_warmer_one_too_small() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        // Two decodes at once; the one of the larger range gives its buffer
        // back first, the other's comes back a byte short of it.
        let (mut short, mut large) = (pool.range(), pool.range());
        pool.note_range(1000);
        large.resize(1000, 2);
        pool.note_range(999);
        short.resize(999, 1);
        drop(large);
        drop(short);
        let taken = pool.range();
        assert_eq!(taken[..], [2; 1000]);
        assert_eq!(takes(&registry, "range", "reused"), 1);
        assert_eq!(takes(&registry, "range", "fresh"), 2);
        // Only with none large enough idle is one replaced.
        let replaced = pool.range();
        assert_eq!((replaced.len(), replaced.capacity()), (0, 1031));
        assert_eq!(takes(&registry, "range", "fresh"), 3);
    }

    #[test]
    fn detached_buffers_return_only_when_adopted() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        let mut loan = pool.symbols();
        loan.resize(64, 9);
        let plain = loan.detach();
        assert_eq!(idle_bytes(&registry), 0);
        drop(pool.adopt_symbols(plain));
        assert_eq!(idle_bytes(&registry), 128);
        // Nothing to keep of a buffer that never allocated.
        drop(pool.adopt_bytes(Vec::new()));
        assert_eq!(pool.bytes().capacity(), 0);

        // Retired, the symbol shelf frees what it has and takes no more.
        let loan = pool.symbols();
        drop(pool.adopt_symbols(vec![0; 50]));
        assert_eq!(idle_bytes(&registry), 100);
        pool.retire_symbols();
        assert_eq!(idle_bytes(&registry), 0);
        drop(loan);
        assert_eq!(idle_bytes(&registry), 0);
    }

    #[test]
    fn buffers_outlive_the_pool_handle_and_come_home_from_any_thread() {
        let registry = MetricsRegistry::new();
        let pool = BufferPool::new(1, &registry);
        let (mut first, mut second) = (pool.range(), pool.range());
        first.resize(4096, 0);
        second.resize(4096, 0);
        std::thread::spawn(move || drop(first)).join().unwrap();
        assert_eq!(idle_bytes(&registry), 4096);
        // The last handle or loan of a kind to go frees what lies idle of
        // it, here and in the gauge.
        drop(pool);
        assert_eq!(idle_bytes(&registry), 4096);
        drop(second);
        assert_eq!(idle_bytes(&registry), 0);
    }
}
