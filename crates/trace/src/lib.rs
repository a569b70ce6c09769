//! # leo-trace
//!
//! Timeline exporters. Recording lives in `leo-obs`: a scope that
//! keeps a timeline (`ObsScope::enable_timeline`, which the CLI calls
//! on the default scope for `--trace`) collects span boundaries, worker
//! chunks, cache instants and memory samples, and its
//! [`Capture::timeline`] carries them out. This crate renders a
//! capture, as pure functions of it, in two formats. Both go through
//! `leo_obs::json`; there is no serde anywhere in the workspace.
//!
//! ## `trace.json`: Chrome Trace Event format
//!
//! The JSON-object form (`{"traceEvents": [...]}`) with one process
//! (`pid` 1) and one Chrome thread per lane (`tid` = lane index, named
//! via `thread_name` metadata events). Lanes come in a fixed order:
//! `main`, `mem`, then `worker-0..worker-N-1`. Span boundaries are
//! `B`/`E` duration events, cache markers are thread-scoped `i`
//! instants, worker chunks are `X` complete events carrying
//! `chunk`/`lo`/`hi` args, and memory samples on the `mem` lane are
//! `C` counter events (`heap_bytes`/`rss_kb`) that Perfetto draws as
//! counter tracks. Timestamps are microseconds since the timeline's
//! epoch, as the format requires; load the file in
//! <https://ui.perfetto.dev> or `chrome://tracing` unmodified.
//!
//! ## `trace.folded`: folded stacks
//!
//! One `lane;frame;frame <nanoseconds>` line per distinct stack, the
//! input format of `flamegraph.pl` and speedscope. Durations are
//! *exclusive* (self time). Exclusive segments telescope, so the sum
//! over a stage's subtree equals the span registry's inclusive
//! `total_ns` for that stage exactly. `scripts/tier1.sh` cross-checks
//! the two against the run manifest on the main lane only. Worker-lane
//! chunks carry their owning `stage.*` span path as intermediate
//! frames, so worker busy time telescopes under the dispatching stage
//! in a flamegraph rather than floating as lane-level orphans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use leo_obs::json::Json;
use leo_obs::scope::Capture;
use leo_obs::timeline::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn ts_us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

fn event_json(tid: usize, ev: &Event) -> Json {
    let mut e = Json::obj()
        .set("name", ev.name.as_str())
        .set("pid", 1u64)
        .set("tid", tid);
    e = match ev.kind {
        EventKind::Begin => e.set("ph", "B").set("ts", ts_us(ev.ts_ns)),
        EventKind::End => e.set("ph", "E").set("ts", ts_us(ev.ts_ns)),
        EventKind::Instant => e.set("ph", "i").set("s", "t").set("ts", ts_us(ev.ts_ns)),
        EventKind::Complete { dur_ns } => e
            .set("ph", "X")
            .set("ts", ts_us(ev.ts_ns))
            .set("dur", ts_us(dur_ns)),
        EventKind::Counter => e.set("ph", "C").set("ts", ts_us(ev.ts_ns)),
    };
    if !ev.args.is_empty() || ev.parent.is_some() {
        let mut args = Json::obj();
        for &(k, v) in &ev.args {
            args = args.set(k, v);
        }
        if let Some(parent) = &ev.parent {
            args = args.set("parent", parent.as_str());
        }
        e = e.set("args", args);
    }
    e
}

/// Renders `capture`'s timeline as a Chrome Trace Event document.
pub fn chrome_trace(capture: &Capture) -> Json {
    let lanes = &capture.timeline;
    let mut events = vec![Json::obj()
        .set("name", "process_name")
        .set("ph", "M")
        .set("pid", 1u64)
        .set("tid", 0u64)
        .set("args", Json::obj().set("name", "divide"))];
    for (tid, lane) in lanes.iter().enumerate() {
        events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 1u64)
                .set("tid", tid)
                .set("args", Json::obj().set("name", lane.label.as_str())),
        );
    }
    for (tid, lane) in lanes.iter().enumerate() {
        for ev in &lane.events {
            events.push(event_json(tid, ev));
        }
    }
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
}

/// Renders `capture`'s timeline as folded flamegraph stacks
/// (exclusive nanoseconds, sorted by stack string).
pub fn folded_stacks(capture: &Capture) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for lane in &capture.timeline {
        let mut stack: Vec<String> = vec![lane.label.clone()];
        // Timestamp since which the current stack has been the one
        // running; only attributed while at least one span is open.
        let mut since = 0u64;
        for ev in &lane.events {
            match ev.kind {
                EventKind::Begin => {
                    if stack.len() > 1 {
                        *totals.entry(stack.join(";")).or_default() +=
                            ev.ts_ns.saturating_sub(since);
                    }
                    stack.push(ev.name.clone());
                    since = ev.ts_ns;
                }
                EventKind::End => {
                    // An End with no open span (its Begin predates a
                    // reset) is dropped rather than underflowing.
                    if stack.len() > 1 {
                        *totals.entry(stack.join(";")).or_default() +=
                            ev.ts_ns.saturating_sub(since);
                        stack.pop();
                    }
                    since = ev.ts_ns;
                }
                EventKind::Complete { dur_ns } => {
                    // A chunk dispatched from inside a span carries
                    // that span's path: render its frames between the
                    // lane and the chunk name so worker time
                    // telescopes under the owning `stage.*` subtree.
                    let key = match &ev.parent {
                        Some(parent) => {
                            format!("{};{};{}", lane.label, parent.replace('/', ";"), ev.name)
                        }
                        None => format!("{};{}", lane.label, ev.name),
                    };
                    *totals.entry(key).or_default() += dur_ns;
                }
                // Counter samples carry values, not durations; they
                // have no place on a flamegraph.
                EventKind::Instant | EventKind::Counter => {}
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in &totals {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Writes [`chrome_trace`] to `path` (compact JSON: paper-scale
/// traces stay small, but pretty-printing would triple the bytes).
pub fn write_chrome(path: &Path, capture: &Capture) -> std::io::Result<()> {
    let mut body = chrome_trace(capture).render();
    body.push('\n');
    leo_fault::safe_io::write_atomic(path, body.as_bytes())
}

/// Writes [`folded_stacks`] to `path` (atomic tmp+rename, like every
/// artifact writer).
pub fn write_folded(path: &Path, capture: &Capture) -> std::io::Result<()> {
    leo_fault::safe_io::write_atomic(path, folded_stacks(capture).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_obs::timeline::LaneSnapshot;

    fn ev(us: u64, name: &str, kind: EventKind) -> Event {
        Event {
            ts_ns: us * 1000,
            name: name.to_string(),
            kind,
            args: Vec::new(),
            parent: None,
        }
    }

    fn chunk(us: u64, dur_us: u64, w: u64, lo: u64, hi: u64, parent: Option<&str>) -> Event {
        Event {
            args: vec![("chunk", w), ("lo", lo), ("hi", hi)],
            parent: parent.map(str::to_string),
            ..ev(
                us,
                "parallel.par_map",
                EventKind::Complete {
                    dur_ns: dur_us * 1000,
                },
            )
        }
    }

    fn lane(label: &str, events: Vec<Event>) -> LaneSnapshot {
        LaneSnapshot {
            label: label.to_string(),
            events,
        }
    }

    /// A small deterministic capture: outer(0..100µs) containing
    /// inner(20..60µs), one instant, a heap sample, an unparented
    /// worker chunk of 30µs plus a 20µs chunk owned by `outer`.
    fn fixture() -> Capture {
        let main = vec![
            ev(0, "outer", EventKind::Begin),
            ev(20, "inner", EventKind::Begin),
            ev(60, "inner", EventKind::End),
            ev(80, "cache.hit", EventKind::Instant),
            ev(100, "outer", EventKind::End),
        ];
        let heap = Event {
            args: vec![("bytes", 4096)],
            ..ev(50, "heap_bytes", EventKind::Counter)
        };
        Capture {
            timeline: vec![
                lane("main", main),
                lane("mem", vec![heap]),
                lane("worker-0", vec![chunk(10, 30, 0, 0, 50, None)]),
                lane("worker-1", vec![chunk(50, 20, 1, 50, 100, Some("outer"))]),
            ],
            ..Capture::default()
        }
    }

    #[test]
    fn chrome_trace_has_lanes_events_and_metadata() {
        let rendered = chrome_trace(&fixture()).render();
        // Object form with the traceEvents array.
        assert!(rendered.starts_with("{\"traceEvents\":["));
        // Thread-name metadata for every lane, tids in lane order.
        assert!(rendered.contains("\"thread_name\""));
        assert!(rendered.contains("\"worker-0\""));
        for (tid, label) in ["main", "mem", "worker-0", "worker-1"].iter().enumerate() {
            assert!(
                rendered.contains(&format!("\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}")),
                "{label} is not tid {tid}: {rendered}"
            );
        }
        // B/E pair for the outer span, X for the chunk, i for the hit.
        assert!(rendered.contains("\"ph\":\"B\""));
        assert!(rendered.contains("\"ph\":\"E\""));
        assert!(rendered.contains("\"ph\":\"X\""));
        assert!(rendered.contains("\"ph\":\"i\""));
        // Chunk args survive, in µs-land the chunk lasts 30.
        assert!(rendered.contains("\"lo\":0"));
        assert!(rendered.contains("\"hi\":50"));
        assert!(rendered.contains("\"dur\":30"));
        // The parented chunk carries its owning span path as an arg.
        assert!(rendered.contains("\"parent\":\"outer\""));
        // The heap sample lands on the named mem lane as a C event.
        assert!(rendered.contains("\"ph\":\"C\""));
        assert!(rendered.contains("\"mem\""));
        assert!(rendered.contains("\"bytes\":4096"));
    }

    #[test]
    fn folded_stacks_ignore_counter_samples() {
        let folded = folded_stacks(&fixture());
        assert!(!folded.contains("heap_bytes"), "{folded}");
        assert!(!folded.contains("mem;"), "{folded}");
    }

    #[test]
    fn folded_stacks_telescope_to_span_totals() {
        let folded = folded_stacks(&fixture());
        let mut totals = BTreeMap::new();
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack ns");
            totals.insert(stack.to_string(), ns.parse::<u64>().expect("ns"));
        }
        // outer ran 100µs total: 60µs exclusive + inner's 40µs.
        assert_eq!(totals["main;outer"], 60_000);
        assert_eq!(totals["main;outer;inner"], 40_000);
        assert_eq!(totals["worker-0;parallel.par_map"], 30_000);
        // The chunk dispatched from inside `outer` telescopes under
        // its owning span's frames on the worker lane.
        assert_eq!(totals["worker-1;outer;parallel.par_map"], 20_000);
        let outer_total: u64 = totals
            .iter()
            .filter(|(k, _)| k.starts_with("main;outer"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(outer_total, 100_000, "exclusive segments telescope");
    }

    #[test]
    fn writers_create_parent_directories() {
        let capture = fixture();
        let dir = std::env::temp_dir().join(format!("leo_trace_export_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let json_path = dir.join("nested/trace.json");
        let folded_path = dir.join("nested/trace.folded");
        write_chrome(&json_path, &capture).expect("chrome");
        write_folded(&folded_path, &capture).expect("folded");
        assert!(std::fs::read_to_string(&json_path)
            .unwrap()
            .contains("traceEvents"));
        assert!(!std::fs::read_to_string(&folded_path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
