//! The timeline's disabled-path contract (DESIGN.md §10): a scope
//! without a timeline records no events, and `DIVIDE_OBS=off` wins even
//! over a scope that keeps one, at every thread count. One sequential
//! test, because the observability switch is process-wide.

use starlink_divide_repro::demand::dataset::{BroadbandDataset, SynthConfig};
use starlink_divide_repro::model::{coverage_sweep, PaperModel};
use starlink_divide_repro::obs;
use starlink_divide_repro::obs::scope::{Capture, ObsScope};
use starlink_divide_repro::parallel::with_threads;

/// Dataset generation plus the fig-2 sweep — the two heaviest span- and
/// fanout-instrumented paths in the pipeline — inside a fresh scope,
/// with or without a timeline.
fn run_pipeline(timeline: bool, threads: usize) -> Capture {
    let scope = ObsScope::new();
    if timeline {
        scope.enable_timeline();
    }
    {
        let _g = scope.enter();
        with_threads(threads, || {
            let model = PaperModel::new(BroadbandDataset::generate(&SynthConfig::small()));
            let _ = coverage_sweep::sweep(&model);
        });
    }
    scope.snapshot()
}

fn event_count(cap: &Capture) -> usize {
    cap.timeline.iter().map(|l| l.events.len()).sum()
}

#[test]
fn recorder_stays_empty_unless_both_obs_and_trace_are_on() {
    // No --trace: spans and fanouts run, no timeline is kept.
    obs::set_enabled(true);
    for threads in [1, 4] {
        let cap = run_pipeline(false, threads);
        assert!(!cap.spans.is_empty(), "spans still recorded");
        assert_eq!(cap.timeline.len(), 0, "no lanes without --trace");
        assert_eq!(event_count(&cap), 0, "no events without --trace");
    }

    // Tracing requested but observability off: the kill switch wins.
    obs::set_enabled(false);
    for threads in [1, 4] {
        let cap = run_pipeline(true, threads);
        assert_eq!(cap.timeline.len(), 0, "no lanes under DIVIDE_OBS=off");
        assert_eq!(event_count(&cap), 0, "no events under DIVIDE_OBS=off");
    }

    // Both on: the same pipeline now fills the timeline.
    obs::set_enabled(true);
    let cap = run_pipeline(true, 4);
    assert!(event_count(&cap) > 0, "events recorded when enabled");
    assert!(!cap.timeline.is_empty(), "at least the main lane exists");
}
