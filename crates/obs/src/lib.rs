//! # leo-obs
//!
//! The workspace's observability substrate: hierarchical timing
//! [`span`]s, a [`metrics`] registry (counters, gauges, fixed-bucket
//! histograms), handle-based [`scope`] contexts that own every
//! registry (with a process-default scope backing the free-function
//! API) and optionally an event [`timeline`], JSON [`manifest`] emission for reproducible runs, the leveled
//! stderr [`log`]ger behind the `divide` CLI, the opt-in [`progress`]
//! line it prints per pipeline stage, process [`resource`] telemetry
//! (allocator hook + RSS sampling), and the append-only run-history
//! [`ledger`].
//!
//! ## The determinism contract
//!
//! Instrumentation must **never** perturb artifact bytes. Everything in
//! this crate therefore only *observes*: spans and metrics accumulate
//! into global registries that are read back exclusively by the run
//! manifest and the flat run record (ledger line, `--metrics-out`) —
//! never by the model, the dataset generator, or the renderers.
//! `tests/determinism.rs` asserts the contract end to end: a run with
//! observability enabled produces byte-identical CSVs/SVGs to one with
//! `DIVIDE_OBS=off`, at 1 and 4 worker threads.
//!
//! ## Switching it off
//!
//! Observability defaults to on and costs a few atomic loads plus one
//! short mutex hold per span/metric update (never per data item — the
//! hot loops in `leo-parallel` record per *chunk*). `DIVIDE_OBS=off`
//! (or `0`/`false`) disables every registry at the source, for
//! overhead-sensitive benchmarking; [`set_enabled`] does the same
//! programmatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod resource;
pub mod scope;
pub mod span;
pub mod timeline;

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = unresolved (consult `DIVIDE_OBS`), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether observability is currently enabled. Resolved from the
/// `DIVIDE_OBS` environment variable on first call (`off`, `0`, and
/// `false` disable; anything else, including unset, enables) and cached;
/// [`set_enabled`] overrides it.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("DIVIDE_OBS").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns observability on or off for the whole process, overriding
/// `DIVIDE_OBS`. The determinism tests flip this to prove artifact
/// bytes do not depend on it.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Clears every observability registry (spans, metrics and timeline)
/// of the calling thread's current scope, re-basing the timeline's
/// epoch. Runs that reuse one process for several measured phases call
/// this between phases; the CLI calls it once at startup so a manifest
/// only covers its own invocation.
pub fn reset() {
    span::reset();
    metrics::reset();
    scope::reset_timeline();
}

/// Opens a timing span and returns its RAII guard; the span ends when
/// the guard drops. Bind it — `let _span = span!("fig2.sweep");` — or
/// it ends immediately.
///
/// Spans nest per thread: a span opened while another is live on the
/// same thread becomes its child in the manifest's span tree (path
/// `parent/child`). Each distinct path accumulates call count and
/// total/min/max nanoseconds.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Serializes tests that flip the global [`enabled`] flag; the flag is
/// process-wide, so concurrent test threads must not interleave
/// toggles.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    #[test]
    fn set_enabled_overrides_env() {
        let _lock = super::test_lock();
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
    }
}
