//! Test support: a global allocator that watches how much the code under
//! test asks for, so a decoder's "no allocation the input does not
//! justify" is an assertion. Shared by the integration tests that make
//! that claim through `#[path]`; including it installs the allocator for
//! that test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread asked for since the last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

fn note(size: usize) {
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only updates a thread-local `Cell<usize>`
// (no allocation, no destructor).
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
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
