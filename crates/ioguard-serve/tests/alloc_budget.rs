//! Heap-allocation budget of the replay loop.
//!
//! A steady-state serve slot reuses its storage: the release calendar,
//! the per-client frame buffers, the frame and response vectors, the
//! cluster's per-client queues and event buffer and the executor's
//! timers all keep their capacity from slot to slot. What is left
//! per request is the request's own payload and frame bytes. This test
//! counts every heap allocation a 10⁴-request [`ReplayDriver::run`]
//! makes on the calling thread and holds it to a per-request budget, so
//! a per-slot rebuild that creeps back in fails here rather than only
//! showing up as lost throughput.
//!
//! The counter is a global allocator that counts only while the test
//! thread has switched it on; allocations of other test threads pass
//! through uncounted. The replay decodes on one worker, so all of its
//! work runs on the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ioguard_serve::replay::{ReplayConfig, ReplayDriver};

/// Allocations per emitted request the replay may make.
const BUDGET_PER_REQUEST: f64 = 3.0;

const REQUESTS: u64 = 10_000;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with` fails only during thread teardown, when nothing counts.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = counter.try_with(|c| c.set(c.get().saturating_add(1)));
    }
}

/// The system allocator, counting the calling thread's allocations
/// while [`COUNTING`] is set.
struct CountingAlloc;

// `GlobalAlloc` is an unsafe trait; every method forwards unchanged to
// `System`, so the caller's contract carries over as is.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCATIONS);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting switched on; returns its result and the
/// `(allocations, reallocations)` it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCATIONS.with(|c| c.set(0));
    REALLOCATIONS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        ALLOCATIONS.with(Cell::get),
        REALLOCATIONS.with(Cell::get),
    )
}

#[test]
fn replay_stays_within_its_allocation_budget() {
    let driver = ReplayDriver::new(ReplayConfig::new(REQUESTS));
    let (report, allocations, reallocations) = counted(|| driver.run());
    let report = report.expect("default replay config is valid");
    assert_eq!(report.requests_sent, REQUESTS);
    let per_request = allocations as f64 / REQUESTS as f64;
    eprintln!(
        "replay of {REQUESTS} requests: {allocations} allocations ({per_request:.2} per request), \
         {reallocations} reallocations, {} slots",
        report.slots
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per request exceed the budget of {BUDGET_PER_REQUEST}"
    );
}
