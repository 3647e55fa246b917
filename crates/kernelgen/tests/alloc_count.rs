//! Pins the registry's memoization with an allocation counter: the first
//! request for a shape's blocked kernels/lane tables/tape pays the
//! construction cost,
//! and every later request is an `Arc` clone out of the memo map — zero
//! heap allocations. This is the whole point of routing kernel
//! materialization through [`KernelRegistry`] instead of the old
//! build-a-fresh-box-per-call `resolve`, so a regression here means a
//! hot solve loop went back to re-deriving blocked kernels and lane
//! tables per chunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kernelgen::{KernelRegistry, KernelStrategy};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One test function: the counter is process-global, so concurrent tests
/// in this binary would pollute each other's deltas.
#[test]
fn memoized_requests_do_not_allocate() {
    let registry = KernelRegistry::new();

    // Cold: builds blocked kernels, lane tables, a tape, and the plan's
    // kernel objects. (5, 4) has no generated kernel, so the unrolled plan
    // is the blocked fallback.
    let blocked = registry.blocked(5, 4).unwrap();
    let batched = registry.batched(4, 3);
    let tape = registry.tape::<f64>(5, 4).unwrap();
    let plan = registry.plan::<f64>(5, 4, KernelStrategy::Unrolled);
    assert!(allocs() > 0, "cold construction must have allocated");

    // Warm: every request is a map lookup plus an Arc clone.
    let before = allocs();
    let blocked2 = registry.blocked(5, 4).unwrap();
    let batched2 = registry.batched(4, 3);
    let tape2 = registry.tape::<f64>(5, 4).unwrap();
    let plan2 = registry.plan::<f64>(5, 4, KernelStrategy::Unrolled);
    let plan3 = registry.plan::<f32>(5, 4, KernelStrategy::Blocked);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "memoized blocked/lane/tape requests and warm blocked plans must not allocate"
    );

    // The memo really is sharing one object, not rebuilding equal ones.
    assert!(std::sync::Arc::ptr_eq(&blocked, &blocked2));
    assert!(std::sync::Arc::ptr_eq(&batched, &batched2));
    assert!(std::sync::Arc::ptr_eq(&tape, &tape2));
    assert_eq!(plan.effective, KernelStrategy::Blocked);
    assert_eq!(plan2.effective, KernelStrategy::Blocked);
    assert_eq!(plan3.effective, KernelStrategy::Blocked);
}
