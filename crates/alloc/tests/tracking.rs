//! Allocator accounting, checked exactly.
//!
//! The counters are process-wide, so exact deltas hold only while no
//! other thread allocates or frees. libtest runs tests on worker
//! threads and allocates on its own threads too, which made these
//! checks flaky under CPU load. This is a `harness = false` test
//! instead: a plain single-threaded `main` runs each check in turn.

use leo_alloc::{rebase_span_peak, set_tracking, span_peak_bytes, stats, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

fn tracking_counts_allocations_and_bytes() {
    set_tracking(true);
    let before = stats();
    let v: Vec<u8> = Vec::with_capacity(64 * 1024);
    let during = stats();
    drop(v);
    let after = stats();
    set_tracking(false);
    assert!(during.alloc_calls > before.alloc_calls);
    assert!(during.allocated_bytes >= before.allocated_bytes + 64 * 1024);
    assert!(during.current_bytes >= before.current_bytes + 64 * 1024);
    assert!(after.dealloc_calls > during.dealloc_calls);
    assert!(after.freed_bytes >= during.freed_bytes + 64 * 1024);
    assert!(after.peak_bytes >= during.current_bytes);
}

fn disabled_tracking_counts_nothing() {
    set_tracking(false);
    let before = stats();
    let v: Vec<u8> = Vec::with_capacity(256 * 1024);
    drop(v);
    let after = stats();
    assert_eq!(before.alloc_calls, after.alloc_calls);
    assert_eq!(before.allocated_bytes, after.allocated_bytes);
    assert_eq!(before.current_bytes, after.current_bytes);
}

fn span_peak_rebases_to_live_heap() {
    set_tracking(true);
    // Raise the process peak well above the live heap...
    let big: Vec<u8> = Vec::with_capacity(1 << 20);
    drop(big);
    // ...then rebase: the span peak restarts from `current`, far
    // below the 1 MiB the process peak retains.
    let base = rebase_span_peak();
    assert_eq!(span_peak_bytes(), base);
    let small: Vec<u8> = Vec::with_capacity(100 * 1024);
    let peak = span_peak_bytes();
    drop(small);
    set_tracking(false);
    assert!(peak >= base + 100 * 1024, "{peak} vs base {base}");
    assert!(stats().peak_bytes >= 1 << 20);
}

fn realloc_keeps_call_counts_balanced() {
    set_tracking(true);
    let before = stats();
    let mut v: Vec<u8> = vec![0; 1024];
    v.reserve(64 * 1024); // likely realloc; at minimum alloc+free
    drop(v);
    let after = stats();
    set_tracking(false);
    let allocs = after.alloc_calls - before.alloc_calls;
    let frees = after.dealloc_calls - before.dealloc_calls;
    assert_eq!(allocs, frees, "every grow pairs an alloc with a free");
    // All of it was freed again: the live heap is back where it
    // started, exactly, now that no other thread allocates.
    assert!(after.allocated_bytes - before.allocated_bytes >= 65 * 1024);
    assert_eq!(after.current_bytes, before.current_bytes);
}

fn main() {
    let checks: [(&str, fn()); 4] = [
        (
            "tracking_counts_allocations_and_bytes",
            tracking_counts_allocations_and_bytes,
        ),
        (
            "disabled_tracking_counts_nothing",
            disabled_tracking_counts_nothing,
        ),
        (
            "span_peak_rebases_to_live_heap",
            span_peak_rebases_to_live_heap,
        ),
        (
            "realloc_keeps_call_counts_balanced",
            realloc_keeps_call_counts_balanced,
        ),
    ];
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
}
