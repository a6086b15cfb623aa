//! A counting global allocator for the tests that pin "this path does not
//! allocate (much)". A test binary that declares `mod counting_alloc;`
//! holds exactly one test: a second one running on another thread would
//! be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// The system allocator, counting every allocation and reallocation and
/// the bytes each asked for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics and
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` asked the allocator for. Each test binary reads the fields it
/// bounds, so the others are dead code there.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
pub struct Allocated {
    /// Calls to `alloc` and `realloc`.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Runs `f` and reports what it (and anything else running meanwhile)
/// allocated.
pub fn allocated_during<R>(f: impl FnOnce() -> R) -> (Allocated, R) {
    let calls = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let r = f();
    let allocated = Allocated {
        calls: ALLOCATIONS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (allocated, r)
}
