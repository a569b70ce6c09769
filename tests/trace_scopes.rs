//! Per-scope timelines (DESIGN.md §10): two pipelines traced at the
//! same time, each in its own scope, through the one shared worker
//! pool. Each capture must hold exactly its own spans and pool chunks.

use std::sync::Barrier;

use starlink_divide_repro::demand::dataset::{BroadbandDataset, SynthConfig};
use starlink_divide_repro::model::{coverage_sweep, PaperModel};
use starlink_divide_repro::obs::scope::{Capture, ObsScope};
use starlink_divide_repro::obs::timeline::EventKind;
use starlink_divide_repro::obs::{self, span};
use starlink_divide_repro::parallel::{with_serial_threshold, with_threads};

/// Dataset generation plus the fig-2 sweep under a root span named
/// `root`, forced through the pool at 4 threads, in a scope of its own.
/// Both callers wait on `overlap` with their root span open, before and
/// after the work, so the two roots are open at the same time.
fn traced_pipeline(root: &'static str, overlap: &Barrier) -> Capture {
    let scope = ObsScope::new();
    scope.enable_timeline();
    {
        let _g = scope.enter();
        let _root = span!(root);
        overlap.wait();
        with_serial_threshold(0, || {
            with_threads(4, || {
                let model = PaperModel::new(BroadbandDataset::generate(&SynthConfig::small()));
                let _ = coverage_sweep::sweep(&model);
            })
        });
        overlap.wait();
    }
    scope.snapshot()
}

fn assert_only_own_events(cap: &Capture, root: &str, other: &str) {
    let thread_lanes: Vec<_> = cap
        .timeline
        .iter()
        .filter(|l| l.label != "mem" && !l.label.starts_with("worker-"))
        .collect();
    assert_eq!(thread_lanes.len(), 1, "one recording thread per scope");
    let spans = &thread_lanes[0].events;
    assert_eq!(spans.first().map(|e| e.name.as_str()), Some(root));
    assert_eq!(spans.last().map(|e| e.name.as_str()), Some(root));
    assert!(spans.iter().all(|e| e.name != other), "{other} leaked in");
    let begins = spans.iter().filter(|e| e.kind == EventKind::Begin).count();
    let span_calls: u64 = cap
        .spans
        .iter()
        .filter(|(path, _)| !path.ends_with("parallel.par_map"))
        .map(|(_, s)| s.count)
        .sum();
    assert_eq!(begins as u64, span_calls, "one Begin per span call");

    let chunks: Vec<_> = cap
        .timeline
        .iter()
        .filter(|l| l.label.starts_with("worker-"))
        .flat_map(|l| &l.events)
        .collect();
    assert!(!chunks.is_empty(), "the pool ran chunks for {root}");
    for chunk in &chunks {
        assert!(matches!(chunk.kind, EventKind::Complete { .. }));
        let parent = chunk.parent.as_deref().unwrap_or_default();
        assert!(parent.starts_with(root), "chunk parented under {parent}");
    }
    let attributed: u64 = cap.parallel.values().map(|p| p.chunks).sum();
    assert_eq!(chunks.len() as u64, attributed, "one event per chunk");
}

#[test]
fn concurrent_timeline_scopes_see_only_their_own_events() {
    obs::set_enabled(true);
    let overlap = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| traced_pipeline("t_scope_a", &overlap));
        let b = s.spawn(|| traced_pipeline("t_scope_b", &overlap));
        (a.join().expect("a"), b.join().expect("b"))
    });
    assert_only_own_events(&a, "t_scope_a", "t_scope_b");
    assert_only_own_events(&b, "t_scope_b", "t_scope_a");
}
