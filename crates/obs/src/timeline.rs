//! Scope-owned timelines: *when* each span ran and on *which* lane.
//!
//! Where the span registry answers how much time each path took in
//! total, a timeline keeps the individual events. It is an optional
//! buffer owned by an [`ObsScope`]: [`ObsScope::enable_timeline`]
//! switches it on (the CLI does so on the default scope for
//! `--trace`), and from then on the recording sites that already feed
//! the scope also push events:
//!
//! * span enter/exit push `Begin`/`End` on the calling thread's lane,
//!   carrying the **same** `Instant`s the registry times with, so
//!   folded-stack totals agree with [`crate::span::SpanStats`] to the
//!   nanosecond; each boundary also samples the heap (and RSS) onto the
//!   `mem` lane when an allocator hook is installed;
//! * pool chunks push one `Complete` event on their `worker-<index>`
//!   lane through the [`ObsContext`] `leo-parallel` already installs;
//! * [`instant`] marks points in time (cache hit/miss/invalid).
//!
//! Scopes without a timeline pay one `OnceLock` load per recording
//! site and allocate nothing. Events are read back only through
//! [`ObsScope::snapshot`]'s [`crate::scope::Capture::timeline`], which
//! the `leo-trace` exporters render; like everything in this crate,
//! the timeline never feeds the computation.
//!
//! [`ObsScope`]: crate::scope::ObsScope
//! [`ObsScope::enable_timeline`]: crate::scope::ObsScope::enable_timeline
//! [`ObsScope::snapshot`]: crate::scope::ObsScope::snapshot
//! [`ObsContext`]: crate::scope::ObsContext

use crate::scope;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one timeline event marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome phase `B`).
    Begin,
    /// A span closed (Chrome phase `E`).
    End,
    /// A point-in-time marker, e.g. a cache hit (Chrome phase `i`).
    Instant,
    /// A self-contained duration, e.g. one worker chunk (Chrome
    /// phase `X`).
    Complete {
        /// The event's duration in nanoseconds.
        dur_ns: u64,
    },
    /// A sampled counter value, e.g. live heap bytes (Chrome phase
    /// `C`). The sample's series values ride in [`Event::args`].
    Counter,
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the timeline's epoch.
    pub ts_ns: u64,
    /// Event name (span leaf, counter name, or primitive name).
    pub name: String,
    /// What the event marks.
    pub kind: EventKind,
    /// Small integer annotations (chunk index, item range, ...).
    pub args: Vec<(&'static str, u64)>,
    /// Owning span path of a worker chunk, so the folded-stack
    /// exporter can telescope `worker-N` frames under `stage.*`.
    pub parent: Option<String>,
}

/// A copy of one lane: its label and every event recorded on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Lane label (`main`, `mem`, `worker-3`, another thread's name).
    pub label: String,
    /// The lane's events in timestamp order.
    pub events: Vec<Event>,
}

impl Event {
    /// An event with no args or parent; [`Timeline::push`] stamps it.
    pub(crate) fn new(name: &str, kind: EventKind) -> Event {
        Event {
            ts_ns: 0,
            name: name.to_string(),
            kind,
            args: Vec::new(),
            parent: None,
        }
    }
}

/// Which lane an event lands on. The derived order is the export
/// order: thread lanes by label (just `main` in the CLI), the `mem`
/// counter lane, then worker lanes by ascending index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Lane {
    /// A recording thread, by name (else its `ThreadId`).
    Thread(String),
    /// The memory counter lane.
    Mem,
    /// A pool worker index; chunk `i` always lands on `worker-<i>`.
    Worker(usize),
}

impl Lane {
    /// The calling thread's lane.
    fn current_thread() -> Lane {
        let thread = std::thread::current();
        Lane::Thread(match thread.name() {
            Some(name) => name.to_string(),
            None => format!("{:?}", thread.id()),
        })
    }

    fn label(&self) -> String {
        match self {
            Lane::Thread(name) => name.clone(),
            Lane::Mem => "mem".to_string(),
            Lane::Worker(w) => format!("worker-{w}"),
        }
    }
}

/// One scope's event buffer.
pub(crate) struct Timeline {
    epoch: Instant,
    lanes: BTreeMap<Lane, Vec<Event>>,
}

impl Timeline {
    /// An empty timeline whose epoch is now.
    pub(crate) fn new() -> Timeline {
        Timeline {
            epoch: Instant::now(),
            lanes: BTreeMap::new(),
        }
    }

    /// Appends `event` to `lane`, stamped `at`. Instants predating the
    /// epoch (a span already open when the timeline started) saturate
    /// to 0.
    pub(crate) fn push(&mut self, lane: Lane, at: Instant, mut event: Event) {
        event.ts_ns = at
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        self.lanes.entry(lane).or_default().push(event);
    }

    /// Every lane in export order. Each lane's events are sorted by
    /// timestamp, stably so same-instant events (a span's Begin before
    /// a nested Begin) keep their recording order: a worker lane is fed
    /// from whichever thread ran the chunk, so push order is lock
    /// order, not time order.
    pub(crate) fn snapshot(&self) -> Vec<LaneSnapshot> {
        self.lanes
            .iter()
            .map(|(lane, events)| {
                let mut events = events.clone();
                events.sort_by_key(|e| e.ts_ns);
                LaneSnapshot {
                    label: lane.label(),
                    events,
                }
            })
            .collect()
    }
}

/// Records a span boundary on the calling thread's lane of the current
/// scope's timeline, then samples memory onto the `mem` lane at the
/// same instant. Span boundaries are frequent enough to draw a useful
/// heap/RSS curve and rare enough (never per data item) that the
/// `/proc` read stays invisible. The allocator hook is the master
/// switch for memory telemetry: no hook, no samples, RSS included.
pub(crate) fn span_boundary(kind: EventKind, name: &str, at: Instant) {
    let scope = scope::current_scope();
    let Some(timeline) = scope.timeline() else {
        return;
    };
    let heap = crate::resource::alloc_hook().map(|hook| (hook.read)().current_bytes);
    let rss = heap.and_then(|_| crate::resource::rss_kb());
    let mut timeline = timeline.lock();
    timeline.push(Lane::current_thread(), at, Event::new(name, kind));
    if let Some(bytes) = heap {
        let sample = Event {
            args: vec![("bytes", bytes)],
            ..Event::new("heap_bytes", EventKind::Counter)
        };
        timeline.push(Lane::Mem, at, sample);
    }
    if let Some(rss) = rss {
        let sample = Event {
            args: vec![("kb", rss.current_kb)],
            ..Event::new("rss_kb", EventKind::Counter)
        };
        timeline.push(Lane::Mem, at, sample);
    }
}

/// Marks a point in time (cache hit/miss/invalid, ...) on the calling
/// thread's lane of the current scope's timeline. A no-op when
/// observability is off or the scope keeps no timeline.
pub fn instant(name: &str) {
    if !crate::enabled() {
        return;
    }
    let at = Instant::now();
    if let Some(timeline) = scope::current_scope().timeline() {
        let event = Event::new(name, EventKind::Instant);
        timeline.lock().push(Lane::current_thread(), at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{Capture, ObsContext, ObsScope};

    /// A scope with a timeline, entered for the duration of `f`.
    fn traced(f: impl FnOnce()) -> Capture {
        let scope = ObsScope::new();
        scope.enable_timeline();
        {
            let _g = scope.enter();
            f();
        }
        scope.snapshot()
    }

    fn label() -> String {
        Lane::current_thread().label()
    }

    #[test]
    fn scope_without_timeline_allocates_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let (_, cap) = ObsScope::capture(|| {
            let _span = crate::span::enter("t.span");
            instant("t.marker");
            ObsContext::current().record_chunk(0, "t.chunk", Instant::now(), Instant::now(), 0, 8);
        });
        assert!(cap.spans.contains_key("t.span"));
        assert!(cap.timeline.is_empty(), "{:?}", cap.timeline);
    }

    #[test]
    fn events_record_in_order_with_monotonic_timestamps() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let cap = traced(|| {
            let t0 = Instant::now();
            let ctx = {
                let _outer = crate::span::enter("t.outer");
                instant("t.mark");
                ObsContext::current()
            };
            ctx.record_chunk(2, "t.chunk", t0, Instant::now(), 10, 20);
        });
        let lanes = cap.timeline;
        assert_eq!(lanes.len(), 2, "{lanes:?}");
        let own = &lanes[0];
        assert_eq!(own.label, label());
        let kinds: Vec<&EventKind> = own.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            [&EventKind::Begin, &EventKind::Instant, &EventKind::End]
        );
        assert!(own.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let worker = &lanes[1];
        assert_eq!(worker.label, "worker-2");
        assert!(matches!(worker.events[0].kind, EventKind::Complete { .. }));
        assert_eq!(
            worker.events[0].args,
            vec![("chunk", 2), ("lo", 10), ("hi", 20)]
        );
        assert_eq!(worker.events[0].parent.as_deref(), Some("t.outer"));
    }

    #[test]
    fn obs_off_silences_the_timeline() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        let cap = traced(|| {
            let _span = crate::span::enter("t.span");
            instant("t.marker");
            ObsContext::current().record_chunk(0, "t.chunk", Instant::now(), Instant::now(), 0, 8);
        });
        crate::set_enabled(true);
        assert!(cap.timeline.is_empty(), "{:?}", cap.timeline);
    }

    #[test]
    fn spans_push_boundaries_with_leaf_names() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let cap = traced(|| {
            let _span = crate::span::enter("t_tl.outer");
            let _inner = crate::span::enter("inner");
        });
        let names: Vec<(&str, &EventKind)> = cap
            .timeline
            .iter()
            .flat_map(|l| &l.events)
            .map(|e| (e.name.as_str(), &e.kind))
            .collect();
        assert_eq!(
            names,
            vec![
                ("t_tl.outer", &EventKind::Begin),
                ("inner", &EventKind::Begin),
                ("inner", &EventKind::End),
                ("t_tl.outer", &EventKind::End),
            ]
        );
    }

    fn fake_read() -> crate::resource::AllocReading {
        crate::resource::AllocReading {
            alloc_calls: 1,
            dealloc_calls: 0,
            allocated_bytes: 2048,
            current_bytes: 2048,
            peak_bytes: 2048,
        }
    }
    fn fake_rebase() -> u64 {
        2048
    }
    fn fake_span_peak() -> u64 {
        2048
    }

    #[test]
    fn span_boundaries_sample_memory_onto_the_mem_lane() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        // Without a hook: spans alone, no mem lane.
        let cap = traced(|| {
            let _span = crate::span::enter("t_mem.unhooked");
        });
        assert!(!cap.timeline.iter().any(|l| l.label == "mem"));
        crate::resource::set_alloc_hook(Some(crate::resource::AllocHook {
            read: fake_read,
            rebase_span_peak: fake_rebase,
            span_peak: fake_span_peak,
        }));
        let cap = traced(|| {
            let _span = crate::span::enter("t_mem.hooked");
        });
        crate::resource::set_alloc_hook(None);
        let labels: Vec<&str> = cap.timeline.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, [label().as_str(), "mem"]);
        let heap: Vec<&Event> = cap.timeline[1]
            .events
            .iter()
            .filter(|e| e.name == "heap_bytes")
            .collect();
        // One sample per span boundary: Begin and End.
        assert_eq!(heap.len(), 2, "{heap:?}");
        assert!(heap
            .iter()
            .all(|e| e.kind == EventKind::Counter && e.args == vec![("bytes", 2048)]));
    }

    #[test]
    fn worker_lanes_export_in_index_order() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let cap = traced(|| {
            let _span = crate::span::enter("t_order.stage");
            let ctx = ObsContext::current();
            for w in [3, 1, 0, 2, 10] {
                ctx.record_chunk(w, "t.chunk", Instant::now(), Instant::now(), w, w + 1);
            }
        });
        let labels: Vec<&str> = cap.timeline.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                label().as_str(),
                "worker-0",
                "worker-1",
                "worker-2",
                "worker-3",
                "worker-10"
            ]
        );
    }

    #[test]
    fn reset_clears_lanes_and_rebases_the_epoch() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let scope = ObsScope::new();
        scope.enable_timeline();
        let _g = scope.enter();
        let ctx = ObsContext::current();
        ctx.record_chunk(0, "t.chunk", Instant::now(), Instant::now(), 0, 4);
        instant("t.marker");
        assert!(scope.snapshot().timeline.len() >= 2);
        let before_reset = Instant::now();
        crate::reset();
        assert!(scope.snapshot().timeline.is_empty());
        // Re-recording after reset lands on fresh lanes, stamped from
        // the new epoch: an instant before it saturates to 0.
        ctx.record_chunk(0, "t.chunk", before_reset, Instant::now(), 0, 4);
        let lanes = scope.snapshot().timeline;
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].events[0].ts_ns, 0);
    }
}
