//! Allocation gate for the ECS scan hot path.
//!
//! One routed /24 costs one query, one authoritative reply and one reply
//! decode. This binary installs a counting global allocator that counts
//! only on the thread that switched it on, runs one [`EcsScanner::scan`]
//! on a small deployment and bounds the heap allocations per query sent.
//! A count, not a time, so the gate does not depend on the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tectonic::core::ecs_scan::EcsScanner;
use tectonic::net::{Epoch, SimClock};
use tectonic::relay::{Deployment, DeploymentConfig, Domain};

/// Allocations per sent query the scan may make. Each query used to cost
/// about 64 (four heap objects per `DomainName` clone or decode, eight
/// answer records per reply); the shared-buffer name brings it to ~10.
const MAX_ALLOCATIONS_PER_QUERY: f64 = 20.0;

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` keeps allocations during thread teardown harmless.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only `const`-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with counting switched on for this thread and returns its
/// result together with the allocations it made.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn ecs_scan_allocations_per_query_are_bounded() {
    let d = Deployment::build(3, DeploymentConfig::scaled(1024));
    let auth = d.auth_server_unlimited();
    let scanner = EcsScanner::default();
    let mut clock = SimClock::new(Epoch::Apr2022.start());
    let (report, allocations) =
        count_allocations(|| scanner.scan(Domain::MaskQuic.name(), &auth, &d.rib, &mut clock));
    assert!(
        report.queries_sent > 1_000,
        "{} queries",
        report.queries_sent
    );
    assert!(report.total() > 0, "the scan found no ingress address");
    let per_query = allocations as f64 / report.queries_sent as f64;
    println!(
        "{allocations} allocations over {} queries: {per_query:.1} per query",
        report.queries_sent
    );
    assert!(
        per_query <= MAX_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per query (bound {MAX_ALLOCATIONS_PER_QUERY})"
    );
}
