//! The append-only run-history ledger.
//!
//! Every observed `divide` run appends one flat JSON record — schema
//! [`SCHEMA`] — as a single line to `runs.jsonl` (by default inside
//! the snapshot-cache directory, since that is the one place that
//! already persists across runs). `--metrics-out FILE` writes the same
//! record, pretty-printed, to a file of its own. `divide history`
//! reads the ledger back to render per-stage trend tables and gate the
//! newest run against the median of its predecessors; `divide report`
//! runs the same table and gate over two records.
//!
//! ## Why JSONL, appended with `O_APPEND`
//!
//! A ledger must survive concurrent writers (two benches racing, a
//! user run during a bench) and partial writes (a killed process).
//! One record per line, written with a **single** `write` syscall on a
//! file opened in append mode, makes every append atomic at the line
//! level on POSIX; readers then treat each line independently and
//! [`read`] skips anything that does not parse — a truncated tail or
//! corrupt line costs one `log_warn!`, never a panic and never the
//! rest of the history.

use crate::json::Json;
use crate::manifest::{self, RunInfo};
use crate::span;
use std::io::Write;
use std::path::Path;

/// The ledger record schema identifier. `v2` added per-stage
/// `busy_ns`/`chunks` parallel-efficiency fields; readers filter on
/// this exact string, so `v1` lines in an old ledger are skipped the
/// same way corrupt lines are. The later `cpu_ms` and `counters`
/// fields are optional to readers and kept the version.
pub const SCHEMA: &str = "leo-obs/run-ledger/v2";

/// Builds the flat record of the current run — the one run record the
/// ledger appends and `--metrics-out` writes — from the span,
/// allocator, metric, parallel-attribution, and RSS registries.
/// Stages are keyed by name in execution order; `counters` carries
/// every metric counter plus `leo-fault`'s `fault.*`/`degraded.*`.
/// Fields whose source is unavailable (no allocator hook, no
/// `/proc`) are absent rather than zero. `ts_unix` is seconds since
/// the epoch (passed in so callers control clock access); `git` is the
/// output of [`git_describe`], if any.
pub fn build_record(info: &RunInfo, wall_ms: f64, ts_unix: u64, git: Option<&str>) -> Json {
    let allocs = span::alloc_snapshot();
    let parallel = crate::scope::parallel_snapshot();
    let mut stages = Json::obj();
    for (name, stats) in manifest::stage_spans(&span::snapshot()) {
        let path = format!("stage.{name}");
        let mut stage = Json::obj().set("wall_ms", stats.total_ns as f64 / 1e6);
        if let Some(a) = allocs.get(&path) {
            stage = stage
                .set("alloc_bytes", a.alloc_bytes)
                .set("alloc_count", a.alloc_count)
                .set("peak_heap_delta", a.peak_heap_delta);
        }
        if let Some(attr) = parallel.get(&path) {
            stage = stage
                .set("busy_ns", attr.busy_ns)
                .set("chunks", attr.chunks);
        }
        stages = stages.set(&name, stage);
    }
    let mut rec = Json::obj()
        .set("schema", SCHEMA)
        .set("ts_unix", ts_unix)
        .set("command", info.command.as_str())
        .set("scale", info.scale.as_str())
        .set("seed", info.seed)
        .set("threads", info.threads)
        .set("argv", info.argv.clone());
    if let Some(git) = git {
        rec = rec.set("git", git);
    }
    rec = rec.set("wall_ms", wall_ms);
    // CPU time (user+system): the stable basis for overhead A/Bs on a
    // loaded host, where wall-clock is scheduler noise.
    if let Some(cpu) = crate::resource::cpu_ms() {
        rec = rec.set("cpu_ms", cpu);
    }
    rec = rec.set("stages", stages);
    if let Some(hook) = crate::resource::alloc_hook() {
        let r = (hook.read)();
        rec = rec
            .set("alloc_bytes_total", r.allocated_bytes)
            .set("peak_heap_bytes", r.peak_bytes);
    }
    if let Some(rss) = crate::resource::rss_kb() {
        rec = rec.set("peak_rss_kb", rss.peak_kb);
    }
    let mut counters = Json::obj();
    for (name, value) in crate::scope::counters_merged() {
        counters = counters.set(&name, value);
    }
    rec.set("counters", manifest::with_fault_counters(counters))
}

/// Best-effort `git describe --always --dirty --tags` of the current
/// working directory. `None` when git is absent, the directory is not
/// a repository, or the output is empty.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let desc = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if desc.is_empty() {
        None
    } else {
        Some(desc)
    }
}

/// Appends one record to the ledger at `path` as a single line,
/// creating the file (and parent directories) if needed. The line is
/// rendered compactly and written with one `write_all` on an
/// append-mode handle, so concurrent appenders cannot interleave
/// within a line. Transient failures (including injected
/// `ledger.append` faults) are retried with bounded backoff via
/// `leo_fault::safe_io::retrying`; each attempt reopens the handle, so
/// the O_APPEND single-write protocol is preserved.
pub fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut line = record.render();
    line.push('\n');
    leo_fault::safe_io::retrying("ledger.append", || {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(line.as_bytes())
    })
}

/// Reads every parseable record from the ledger at `path`, oldest
/// first. Lines that fail to parse — truncated tails, corruption,
/// stray garbage — are skipped with a `log_warn!`; only opening or
/// reading the file itself can error.
pub fn read(path: &Path) -> std::io::Result<Vec<Json>> {
    let body = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Json::parse(line) {
            Ok(rec @ Json::Obj(_)) => records.push(rec),
            Ok(_) => {
                crate::log_warn!(
                    "ledger {}: line {} is not a JSON object; skipping",
                    path.display(),
                    idx + 1
                );
            }
            Err(err) => {
                crate::log_warn!(
                    "ledger {}: line {} unparseable ({err}); skipping",
                    path.display(),
                    idx + 1
                );
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leo_obs_ledger_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn info() -> RunInfo {
        RunInfo {
            command: "all".into(),
            scale: "small".into(),
            seed: 7,
            threads: 2,
            argv: vec!["divide".into(), "all".into()],
        }
    }

    #[test]
    fn record_carries_schema_identity_and_stages() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = span::enter("stage.dataset");
        }
        crate::metrics::counter_add("t_ledger.counter", 3);
        let rec = build_record(&info(), 42.0, 1_700_000_000, Some("abc1234-dirty"));
        assert_eq!(rec.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(
            rec.get("ts_unix").and_then(|v| v.as_u64()),
            Some(1_700_000_000)
        );
        assert_eq!(
            rec.get("git").and_then(|v| v.as_str()),
            Some("abc1234-dirty")
        );
        assert!(rec.get("stages").unwrap().get("dataset").is_some());
        let counters = rec.get("counters").expect("counters");
        assert_eq!(
            counters.get("t_ledger.counter").and_then(|v| v.as_u64()),
            Some(3)
        );
        assert!(rec.get("io_bytes_read").is_none());
        crate::reset();
    }

    #[test]
    fn v2_record_carries_per_stage_parallel_fields() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = span::enter("stage.dataset");
            crate::scope::attribute_fanout("parallel.par_map", 64, &[30, 50], 60);
        }
        let rec = build_record(&info(), 9.0, 1_700_000_000, None);
        assert_eq!(rec.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let stage = rec.get("stages").unwrap().get("dataset").unwrap();
        assert_eq!(stage.get("busy_ns").and_then(|v| v.as_u64()), Some(80));
        assert_eq!(stage.get("chunks").and_then(|v| v.as_u64()), Some(2));
        crate::reset();
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmp("roundtrip");
        let path = dir.join("runs.jsonl");
        for seed in 0..3u64 {
            let rec = Json::obj().set("schema", SCHEMA).set("seed", seed);
            append(&path, &rec).unwrap();
        }
        let got = read(&path).unwrap();
        assert_eq!(got.len(), 3);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec.get("seed").and_then(|v| v.as_u64()), Some(i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped() {
        let dir = tmp("corrupt");
        let path = dir.join("runs.jsonl");
        append(&path, &Json::obj().set("ok", 1u64)).unwrap();
        // A truncated line (killed writer), pure garbage, a non-object,
        // and a blank line — all must be skipped, not panic.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"truncated\": tr\nnot json at all\n42\n\n")
            .unwrap();
        append(&path, &Json::obj().set("ok", 2u64)).unwrap();
        let got = read(&path).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get("ok").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(got[1].get("ok").and_then(|v| v.as_u64()), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_stay_line_atomic() {
        let dir = tmp("concurrent");
        let path = dir.join("runs.jsonl");
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let path = path.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // A payload long enough that torn writes would
                        // show up as parse failures.
                        let rec = Json::obj()
                            .set("schema", SCHEMA)
                            .set("writer", t as u64)
                            .set("i", i as u64)
                            .set("pad", "x".repeat(200));
                        append(&path, &rec).unwrap();
                    }
                });
            }
        });
        let got = read(&path).unwrap();
        assert_eq!(got.len(), threads * per_thread, "no line lost or torn");
        for rec in &got {
            assert_eq!(
                rec.get("pad").and_then(|v| v.as_str()).map(str::len),
                Some(200)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_an_io_error() {
        let dir = tmp("missing");
        assert!(read(&dir.join("nope.jsonl")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
