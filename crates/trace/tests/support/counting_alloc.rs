//! Test support: a global allocator that watches how much, and how often,
//! the code under test asks for memory, and how much it holds at once, so
//! a decoder's "no allocation the input does not justify", a run's
//! allocations per query and a loader's peak heap are assertions. Shared through `#[path]` by the integration tests that make
//! those claims (the root `tests/budgets.rs` among them); including it
//! installs the allocator for that test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread asked for since the last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    /// Allocations and reallocations this thread has made, ever.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated less those it has freed, ever
    /// (a block freed by another thread than its allocator's counts
    /// against the freeing thread).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Highest `LIVE` since the last reset.
    static PEAK_LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Watching;

fn note(size: usize) {
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Moves this thread's live bytes by `delta` and raises the high-water
/// mark to match.
fn live(delta: isize) {
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        let _ = PEAK_LIVE.try_with(|p| p.set(p.get().max(l.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` and `live` only update thread-local
// `Cell`s of integers (no allocation, no destructor).
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            live(layout.size() as isize);
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed through as given.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            live(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` and returns its result with the largest single allocation
/// (in bytes; 0 for none at all) this thread made meanwhile.
pub fn largest_alloc_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST_ALLOC.with(|m| m.set(0));
    let result = f();
    (result, LARGEST_ALLOC.with(Cell::get))
}

/// Runs `f` and returns its result with the number of allocations and
/// reallocations this thread made meanwhile (other threads' do not
/// count). Calls nest: an inner count is part of the outer one.
#[allow(dead_code)] // only the allocation budgets count; the decoders' tests read sizes
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with two readings of this thread's live
/// heap bytes, each over what was live when `f` started: the highest it
/// reached meanwhile, and what `f` left live, which is the heap its result
/// owns when nothing else survives the call.
#[allow(dead_code)] // only the memory budget reads live bytes
pub fn live_bytes_during<R>(f: impl FnOnce() -> R) -> (R, isize, isize) {
    let before = LIVE.with(Cell::get);
    PEAK_LIVE.with(|p| p.set(before));
    let result = f();
    let peak = PEAK_LIVE.with(Cell::get) - before;
    (result, peak, LIVE.with(Cell::get) - before)
}
