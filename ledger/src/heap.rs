//! Live-heap accounting for `compile_heap_mb_geomean`.
//!
//! The ledger measures a compile's memory as the most heap it held live
//! beyond what was live when it started, counted at the allocator, rather
//! than the process's peak resident set (`VmHWM`).  On glibc, freed memory
//! stays mapped in per-thread arenas in amounts that depend on the order of
//! earlier compiles, and `VmHWM` varied by about 17% between seeds on the
//! same build.
//!
//! Each thread batches its net allocation in [`BATCH`]-byte steps before
//! touching the shared counters, so the shim costs a thread-local add per
//! call and a peak is exact to within one batch per live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread may allocate or free before publishing.
const BATCH: isize = 64 * 1024;

/// Live heap bytes, as published by all threads.  Statistics only: they
/// publish no other data, so relaxed ordering suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Largest value `LIVE` has reached since the last [`Mark::start`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's unpublished net allocation.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with` fails only while the thread-local is being torn down;
    // such late frees are too small to matter and are skipped.
    let _ = PENDING.try_with(|pending| {
        let v = pending.get() + delta;
        if v.abs() >= BATCH {
            pending.set(0);
            let now = LIVE.fetch_add(v, Ordering::Relaxed) + v;
            PEAK.fetch_max(now, Ordering::Relaxed);
        } else {
            pending.set(v);
        }
    });
}

/// The system allocator, counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees for `layout` and `ptr` are exactly those `System`
// requires; the counting touches only atomics and a const-initialized
// thread-local without a destructor, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The start of one measured operation.  Marks must not overlap: starting
/// one resets the shared peak.
pub struct Mark {
    live_at_start: isize,
}

impl Mark {
    /// Starts measuring: the peak restarts from the current live heap.
    pub fn start() -> Mark {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        Mark {
            live_at_start: live,
        }
    }

    /// Most heap held live since [`Mark::start`] beyond what was live then,
    /// in MB.
    pub fn peak_mb(&self) -> f64 {
        (PEAK.load(Ordering::Relaxed) - self.live_at_start).max(0) as f64 / 1e6
    }
}
