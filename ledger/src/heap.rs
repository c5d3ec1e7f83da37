//! Peak live heap bytes of one operation, counted by a wrapper around the
//! system allocator that is switched on only for untimed runs.
//!
//! The ledger first reported the child's `VmHWM`.  Between runs of one
//! build it moved by 14% (quartile distance over median) on `silesia_seek`
//! and by 24% on `fastq_indexed`, against 3-7% for the timings: a process
//! settles early into a high or a low resident set depending on which freed
//! buffers glibc happened to keep, so no statistic taken inside the process
//! steadied it.  Bytes the program holds allocated are what a change to the
//! program controls, and they depend only on how many chunk buffers are in
//! flight at the peak.
//!
//! Counting costs two atomic updates of shared counters per allocator call,
//! and one warm-up makes 40 000 (`fastq_indexed`) to 500 000
//! (`fastq_compress`) calls from all its threads.  So it runs only inside
//! [`measure`], which the child wraps around its untimed warm-up operations.
//! Everywhere else — every timed repetition, the per-layer timings, the
//! parent process — the wrapper adds one relaxed load of [`COUNTING`] to the
//! system allocator's work: at a nanosecond each, under 0.1% of any
//! operation's 0.4-1.5 s.

// The one place the ledger needs `unsafe`: `GlobalAlloc` is an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Forwards to [`System`] and, while [`measure`] runs, keeps the live byte
/// count and its peak.  The counters publish no other data, so `Relaxed` is
/// enough.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting began.  Signed: a block
/// allocated before that and freed after it takes the count below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn changed(by: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already upholds, and returns
// what `System` returns; the counters never influence a pointer or a size.
// `Layout` sizes are at most `isize::MAX`, so the casts below keep the value.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let pointer = unsafe { System.alloc(layout) };
        if !pointer.is_null() {
            changed(layout.size() as isize);
        }
        pointer
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let pointer = unsafe { System.alloc_zeroed(layout) };
        if !pointer.is_null() {
            changed(layout.size() as isize);
        }
        pointer
    }

    unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(pointer, layout) };
        changed(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(pointer, layout, new_size) };
        if !moved.is_null() {
            changed(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

/// Runs `operation` with counting on and returns its result beside the most
/// bytes it held allocated at once, in MB, over what was live when it began.
/// One call at a time: the counters are the process's.
pub fn measure<T>(operation: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = operation();
    COUNTING.store(false, Ordering::Relaxed);
    (result, PEAK.load(Ordering::Relaxed) as f64 / 1e6)
}
