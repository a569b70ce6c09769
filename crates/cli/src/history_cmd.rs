//! `divide history` and `divide report` — one comparator over the flat
//! run record.
//!
//! Both commands read records of one schema, `leo-obs/run-ledger/v2`
//! (see `leo_obs::ledger`): the lines of the append-only `runs.jsonl`
//! ledger, or the files `--metrics-out` writes. Both render the same
//! trend table over a window of runs, oldest first, and gate its
//! newest run against the **median of its predecessors**:
//!
//! * `history` reads the ledger, filters it to runs *comparable* with
//!   the newest one (same command, scale, and thread count), and takes
//!   up to `--last` predecessors. A median baseline makes the gate
//!   robust to a single outlier run in either direction.
//! * `report --baseline A --candidate B` takes the window `[A, B]`. The
//!   prior median of one record is that record, and no identity filter
//!   applies: the user chose the pair.
//!
//! One row per metric: per-stage and total wall-clock, total CPU time,
//! per-stage pool busy time and chunk counts, per-stage and run-level
//! peak heap, peak RSS, and every counter whose value changed within
//! the window. Each row shows min/median/max over the window, an ASCII
//! sparkline, and the newest run's delta against the prior median.
//! Counts (chunks, counters) measure work shape, not speed, so they
//! never gate.
//!
//! Records from other schemas are skipped by `history`'s exact-schema
//! filter, the same way corrupt lines are — an old ledger never breaks
//! `history`, it just shrinks the window. `report` rejects them.
//!
//! Exit codes: 0 ok (including "not enough history to judge"), 3 when
//! any metric regressed beyond `--max-regress-pct`, 1 on IO/parse
//! errors, 2 on usage errors (handled by the caller).

use leo_obs::json::Json;
use leo_obs::ledger;
use leo_report::{sparkline, TextTable};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Exit code when at least one metric regressed beyond the threshold.
pub const EXIT_REGRESSED: i32 = 3;

/// The regression gate's thresholds, shared by `history` and `report`.
pub struct Gate {
    /// A metric regresses when the newest run exceeds the prior
    /// median by more than this percentage.
    pub max_regress_pct: f64,
    /// Wall-clock metrics below this in both newest and median never
    /// gate.
    pub min_wall_ms: f64,
}

/// Parsed `divide history` options.
pub struct HistoryOpts {
    /// The ledger file (`--ledger`, or the resolved cache directory's
    /// `runs.jsonl`).
    pub ledger: PathBuf,
    /// Window size: the newest run gates against the median of up to
    /// this many predecessors.
    pub last: usize,
    /// The gate thresholds.
    pub gate: Gate,
}

/// Memory metrics below these floors never gate: at a few hundred kB
/// of heap or a few MB of RSS, allocator and kernel bookkeeping noise
/// swamps any real signal (the wall-clock floor is `--min-wall-ms`).
const MIN_HEAP_BYTES: f64 = 1024.0 * 1024.0;
const MIN_RSS_KB: f64 = 4096.0;

/// How a metric's values are scaled and floored.
#[derive(Clone, Copy, PartialEq)]
enum Unit {
    Ms,
    Bytes,
    Kb,
    /// Dimensionless counts (pool chunks, counters). Trended for
    /// context but never gated: a count change tracks workload shape,
    /// not a performance regression — hence the infinite floor.
    Count,
}

impl Unit {
    fn floor(self, gate: &Gate) -> f64 {
        match self {
            Unit::Ms => gate.min_wall_ms,
            Unit::Bytes => MIN_HEAP_BYTES,
            Unit::Kb => MIN_RSS_KB,
            Unit::Count => f64::INFINITY,
        }
    }

    /// Renders a value in the unit's display scale (ms, MiB, MB).
    fn fmt(self, v: f64) -> String {
        if !v.is_finite() {
            return "-".to_string();
        }
        match self {
            Unit::Ms => format!("{v:.2}"),
            Unit::Bytes => format!("{:.1}", v / (1024.0 * 1024.0)),
            Unit::Kb => format!("{:.1}", v / 1024.0),
            Unit::Count => format!("{v:.0}"),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Unit::Ms => "ms",
            Unit::Bytes => "MiB",
            Unit::Kb => "MB rss",
            Unit::Count => "count",
        }
    }
}

/// One trend row: a metric's value in each run of the window, oldest
/// first (NaN where a run lacks the field).
struct Metric {
    name: String,
    unit: Unit,
    values: Vec<f64>,
}

fn stage_field(rec: &Json, stage: &str, field: &str) -> f64 {
    rec.get("stages")
        .and_then(|s| s.get(stage))
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn top_field(rec: &Json, field: &str) -> f64 {
    rec.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The keys of a record's `field` object, in record order.
fn keys(rec: &Json, field: &str) -> Vec<String> {
    match rec.get(field) {
        Some(Json::Obj(fields)) => fields.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Builds the metric rows for `runs` (the window, oldest first). The
/// newest run's stages come first, in its execution order, then any
/// stage only an older run has; memory and CPU rows appear only where
/// some run measured them, counter rows only where a counter changed.
fn metrics_of(runs: &[&Json]) -> Vec<Metric> {
    let newest = runs.last().expect("at least one run");
    let mut stages = keys(newest, "stages");
    for run in runs {
        for stage in keys(run, "stages") {
            if !stages.contains(&stage) {
                stages.push(stage);
            }
        }
    }
    let column = |f: &dyn Fn(&Json) -> f64| runs.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let mut metrics = Vec::new();
    let mut push_measured = |name: String, unit: Unit, values: Vec<f64>| {
        if values.iter().any(|v| v.is_finite()) {
            metrics.push(Metric { name, unit, values });
        }
    };
    for stage in &stages {
        push_measured(
            format!("{stage} wall"),
            Unit::Ms,
            column(&|r| stage_field(r, stage, "wall_ms")),
        );
    }
    push_measured(
        "total wall".to_string(),
        Unit::Ms,
        column(&|r| top_field(r, "wall_ms")),
    );
    push_measured(
        "total cpu".to_string(),
        Unit::Ms,
        column(&|r| top_field(r, "cpu_ms")),
    );
    // Per-stage parallel-efficiency rows: pool busy time gates like
    // any wall metric, chunk counts only trend.
    for stage in &stages {
        push_measured(
            format!("{stage} par busy"),
            Unit::Ms,
            column(&|r| stage_field(r, stage, "busy_ns") / 1e6),
        );
        push_measured(
            format!("{stage} par chunks"),
            Unit::Count,
            column(&|r| stage_field(r, stage, "chunks")),
        );
    }
    for stage in &stages {
        push_measured(
            format!("{stage} peak heap"),
            Unit::Bytes,
            column(&|r| stage_field(r, stage, "peak_heap_delta")),
        );
    }
    push_measured(
        "run peak heap".to_string(),
        Unit::Bytes,
        column(&|r| top_field(r, "peak_heap_bytes")),
    );
    push_measured(
        "run peak rss".to_string(),
        Unit::Kb,
        column(&|r| top_field(r, "peak_rss_kb")),
    );
    // Counters that changed within the window, for context. A counter
    // one run lacks counts as changed.
    let counters: BTreeSet<String> = runs.iter().flat_map(|r| keys(r, "counters")).collect();
    for name in counters {
        let values = column(&|r| {
            r.get("counters")
                .and_then(|c| c.get(&name))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        });
        if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            metrics.push(Metric {
                name,
                unit: Unit::Count,
                values,
            });
        }
    }
    metrics
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Renders the trend table of `runs` (oldest first, at least one) under
/// `title` and returns how many metrics regressed: the newest value
/// exceeds the median of its predecessors by more than the gate's
/// percentage, and it or the median sits at or above the unit's floor.
fn compare(title: String, runs: &[&Json], gate: &Gate) -> usize {
    let mut table = TextTable::new(
        title,
        &[
            "metric",
            "unit",
            "runs",
            "min",
            "median",
            "max",
            "newest",
            "vs median",
            "trend",
            "status",
        ],
    );
    let mut regressed = 0usize;
    for metric in metrics_of(runs) {
        let newest_v = *metric.values.last().expect("window non-empty");
        let mut prior: Vec<f64> = metric.values[..metric.values.len() - 1]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        prior.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med = median(&prior);
        let finite: Vec<f64> = metric
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let floor = metric.unit.floor(gate);
        let pct = if med > 0.0 {
            100.0 * (newest_v - med) / med
        } else {
            0.0
        };
        let (delta, status) = if !newest_v.is_finite() {
            ("-".to_string(), "no data")
        } else if prior.is_empty() {
            ("-".to_string(), "new")
        } else if newest_v < floor && med < floor {
            let status = if floor.is_finite() {
                "below floor"
            } else {
                "not gated"
            };
            (format!("{pct:+.1}%"), status)
        } else {
            let status = if pct > gate.max_regress_pct {
                regressed += 1;
                "REGRESSED"
            } else if pct < -gate.max_regress_pct {
                "improved"
            } else {
                "ok"
            };
            (format!("{pct:+.1}%"), status)
        };
        table.row(&[
            metric.name.clone(),
            metric.unit.label().to_string(),
            finite.len().to_string(),
            metric.unit.fmt(min),
            metric.unit.fmt(med),
            metric.unit.fmt(max),
            metric.unit.fmt(newest_v),
            delta,
            sparkline(&metric.values),
            status.to_string(),
        ]);
    }
    print!("{}", table.render());
    regressed
}

/// A short identity string for the header: command/scale/threads of
/// the newest run.
fn identity(rec: &Json) -> String {
    format!(
        "{} --scale {} ({} threads)",
        rec.get("command").and_then(Json::as_str).unwrap_or("?"),
        rec.get("scale").and_then(Json::as_str).unwrap_or("?"),
        rec.get("threads")
            .and_then(Json::as_u64)
            .map_or("?".to_string(), |t| t.to_string()),
    )
}

fn same_identity(a: &Json, b: &Json) -> bool {
    for key in ["command", "scale"] {
        if a.get(key).and_then(Json::as_str) != b.get(key).and_then(Json::as_str) {
            return false;
        }
    }
    a.get("threads").and_then(Json::as_u64) == b.get("threads").and_then(Json::as_u64)
}

/// Runs `divide history`; returns the process exit code.
pub fn history(opts: &HistoryOpts) -> i32 {
    let all = match ledger::read(&opts.ledger) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("divide history: cannot read {}: {e}", opts.ledger.display());
            return 1;
        }
    };
    let all: Vec<Json> = all
        .into_iter()
        .filter(|r| r.get("schema").and_then(Json::as_str) == Some(ledger::SCHEMA))
        .collect();
    let Some(newest) = all.last() else {
        println!(
            "divide history: {} holds no {} records yet",
            opts.ledger.display(),
            ledger::SCHEMA
        );
        return 0;
    };

    // Comparable runs: same command/scale/threads as the newest, the
    // newest itself last; window = up to `last` predecessors + newest.
    let comparable: Vec<&Json> = all.iter().filter(|r| same_identity(r, newest)).collect();
    let skipped = all.len() - comparable.len();
    let window_start = comparable.len().saturating_sub(opts.last + 1);
    let runs = &comparable[window_start..];

    let title = format!(
        "divide history: {} — {} over {} run(s){} (gate: newest > prior median +{:.0}%)",
        opts.ledger.display(),
        identity(newest),
        runs.len(),
        if skipped > 0 {
            format!(", {skipped} other run(s) ignored")
        } else {
            String::new()
        },
        opts.gate.max_regress_pct,
    );
    let regressed = compare(title, runs, &opts.gate);

    if runs.len() < 2 {
        println!("divide history: fewer than 2 comparable runs — nothing to gate against");
        return 0;
    }
    if regressed > 0 {
        eprintln!(
            "divide history: {regressed} metric(s) regressed beyond +{:.0}% of the prior median",
            opts.gate.max_regress_pct
        );
        EXIT_REGRESSED
    } else {
        0
    }
}

/// Loads one run record (a `--metrics-out` file) and checks its schema.
fn load_record(path: &Path) -> Result<Json, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(ledger::SCHEMA) => Ok(doc),
        other => Err(format!(
            "{}: unsupported schema {:?} (expected a {} run record, as --metrics-out writes)",
            path.display(),
            other.unwrap_or(""),
            ledger::SCHEMA
        )),
    }
}

/// Runs `divide report`: the history table and gate over the window
/// `[baseline, candidate]`. Returns the process exit code.
pub fn report(baseline: &Path, candidate: &Path, gate: &Gate) -> i32 {
    let (base, cand) = match (load_record(baseline), load_record(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("divide report: {e}");
            return 1;
        }
    };
    let title = format!(
        "divide report: {} -> {} (gate: candidate > baseline +{:.0}%)",
        baseline.display(),
        candidate.display(),
        gate.max_regress_pct,
    );
    let regressed = compare(title, &[&base, &cand], gate);
    if regressed > 0 {
        eprintln!(
            "divide report: {regressed} metric(s) regressed beyond +{:.0}% of the baseline",
            gate.max_regress_pct
        );
        EXIT_REGRESSED
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: Gate = Gate {
        max_regress_pct: 10.0,
        min_wall_ms: 0.0,
    };

    #[test]
    fn median_of_even_and_odd_windows() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    fn rec(command: &str, wall: f64, heap: u64) -> Json {
        Json::obj()
            .set("schema", ledger::SCHEMA)
            .set("command", command)
            .set("scale", "small")
            .set("threads", 2u64)
            .set("wall_ms", wall)
            .set(
                "stages",
                Json::obj().set(
                    "dataset",
                    Json::obj()
                        .set("wall_ms", wall / 2.0)
                        .set("alloc_bytes", heap)
                        .set("alloc_count", 10u64)
                        .set("peak_heap_delta", heap),
                ),
            )
            .set("peak_heap_bytes", heap)
    }

    #[test]
    fn metric_rows_cover_stages_and_run_level() {
        let a = rec("all", 100.0, 50 << 20);
        let b = rec("all", 110.0, 51 << 20);
        let runs = vec![&a, &b];
        let metrics = metrics_of(&runs);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dataset wall",
                "total wall",
                "dataset peak heap",
                "run peak heap",
            ]
        );
        assert_eq!(metrics[0].values, vec![50.0, 55.0]);
    }

    #[test]
    fn identity_filter_separates_commands() {
        let a = rec("all", 100.0, 1);
        let b = rec("fig2", 5.0, 1);
        assert!(same_identity(&a, &a));
        assert!(!same_identity(&a, &b));
    }

    /// A record under `schema` whose dataset stage carries the
    /// parallel fields (`Json::set` appends, so the schema must be
    /// chosen up front, not overridden later).
    fn rec_schema(schema: &str, wall: f64, busy_ns: u64, chunks: u64) -> Json {
        Json::obj()
            .set("schema", schema)
            .set("command", "all")
            .set("scale", "small")
            .set("threads", 4u64)
            .set("wall_ms", wall)
            .set(
                "stages",
                Json::obj().set(
                    "dataset",
                    Json::obj()
                        .set("wall_ms", wall / 2.0)
                        .set("busy_ns", busy_ns)
                        .set("chunks", chunks),
                ),
            )
    }

    fn rec_par(wall: f64, busy_ns: u64, chunks: u64) -> Json {
        rec_schema(ledger::SCHEMA, wall, busy_ns, chunks)
    }

    #[test]
    fn parallel_rows_trend_busy_and_chunks() {
        let a = rec_par(100.0, 40_000_000, 4);
        let b = rec_par(110.0, 44_000_000, 4);
        let runs = vec![&a, &b];
        let metrics = metrics_of(&runs);
        let busy = metrics
            .iter()
            .find(|m| m.name == "dataset par busy")
            .expect("busy row");
        assert_eq!(busy.values, vec![40.0, 44.0], "busy_ns rendered as ms");
        assert!(matches!(busy.unit, Unit::Ms));
        let chunks = metrics
            .iter()
            .find(|m| m.name == "dataset par chunks")
            .expect("chunks row");
        assert_eq!(chunks.values, vec![4.0, 4.0]);
        assert!(
            chunks.unit.floor(&GATE) == f64::INFINITY,
            "chunk counts never gate"
        );
        // Records without the fields (an all-serial run) grow no rows.
        let plain = rec("all", 100.0, 1);
        let only = vec![&plain];
        assert!(!metrics_of(&only)
            .iter()
            .any(|m| m.name.contains("par busy") || m.name.contains("par chunks")));
    }

    #[test]
    fn counter_rows_appear_only_when_a_counter_changed_and_never_gate() {
        let with_counters = |counters: Json| rec("all", 100.0, 1).set("counters", counters);
        let steady = || {
            Json::obj()
                .set("cache.hit", 1u64)
                .set("io.write_calls", 40u64)
        };
        let a = with_counters(steady());
        let b = with_counters(steady());
        // A counter that only the newest run has counts as changed.
        let c = with_counters(
            Json::obj()
                .set("cache.hit", 1u64)
                .set("fault.injected", 2u64)
                .set("io.write_calls", 400u64),
        );
        let steady = metrics_of(&[&a, &b]);
        assert!(
            steady.iter().all(|m| m.unit != Unit::Count),
            "no counter rows when nothing changed"
        );
        let changed = metrics_of(&[&a, &b, &c]);
        let rows: Vec<&str> = changed
            .iter()
            .filter(|m| m.unit == Unit::Count)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(rows, vec!["fault.injected", "io.write_calls"]);
        // A tenfold counter jump is context, not a regression.
        assert_eq!(compare("counters".to_string(), &[&a, &b, &c], &GATE), 0);
    }

    #[test]
    fn old_schema_lines_are_skipped_not_fatal() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("divide_history_v1_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        // Two v1-era records (10× faster — would trip the gate if the
        // reader compared across schemas), a corrupt line, one v2 run.
        let mut file = std::fs::File::create(&path).unwrap();
        for _ in 0..2 {
            let v1 = rec_schema("leo-obs/run-ledger/v1", 10.0, 4_000_000, 4);
            writeln!(file, "{}", v1.render()).unwrap();
        }
        writeln!(file, "{{\"truncated\": tr").unwrap();
        writeln!(file, "{}", rec_par(100.0, 40_000_000, 4).render()).unwrap();
        drop(file);
        let code = history(&HistoryOpts {
            ledger: path,
            last: 10,
            gate: GATE,
        });
        assert_eq!(code, 0, "a lone v2 run gates against nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
