#!/usr/bin/env python3
"""Benchmark of the starlink-divide reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `divide` CLI and the benchmark's own harness binary
(`perfbench/replay`) from source, runs one workload closed-loop with one
client for S seconds, checks every output against the reference, and
prints every metric by name with its unit. The last line of stdout is a
JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from a separate traced run.
The full record of a run (host, sample counts, digests, error rate) is
written to .perfbench/out/.

Workloads (see perfbench/layers.json for why each exists and which
layer metric should move which end-to-end metric):

  paper-warm     divide --scale paper all --threads 2 over a filled
                 snapshot cache
  paper-cold     the same at --threads 1, cache emptied before each
                 iteration (outside the timed interval)
  whatif-policy  in-process what-if draws at 1 pool thread; an
                 iteration is one pass over a fixed deck of draws, and
                 the seed drives their order

The paper workloads have fixed inputs: the CLI takes no seed, and their
correctness check rests on the paper's calibrated pins in results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

PAPER_WORKLOADS = {"paper-warm": 2, "paper-cold": 1}  # name -> --threads
# One pool thread: at two, the draws' millisecond fan-outs wait on
# whichever vCPU the hypervisor preempts, and steal storms moved the
# what-if p90 from 16 to 45 ms between runs (IQR 0.6 of the median).
WHATIF_THREADS = 1
WORKLOADS = [*PAPER_WORKLOADS, "whatif-policy"]
# Set-up is repeated this many times per untraced run; setup_s is the median.
# The what-if set-up takes a fifth of a second, so it can afford more.
SETUPS = 3
WHATIF_SETUPS = 9
# Timing samples taken while more host CPU time than this was stolen are
# left out of the timing metrics (see steal_filter).
STEAL_MAX_PCT = 2.0

END_TO_END = {
    "wall_ms_p50": "ms",
    "wall_ms_p90": "ms",
    "cpu_ms_per_iter": "ms",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: name -> unit. Layers a workload does not cross read 0.
PER_LAYER = {
    "orbit.density.wall_ms": "ms",
    "orbit.density.cpu_ms": "ms",
    "orbit.coverage.wall_ms": "ms",
    "orbit.coverage.cpu_ms": "ms",
    "orbit.paths.wall_ms": "ms",
    "orbit.propagations": "count",
    "orbit.ns_per_propagation": "ns",
    "demand.generate.wall_ms": "ms",
    "demand.generate.cpu_ms": "ms",
    "demand.locations_per_s": "1/s",
    "demand.transform.wall_ms": "ms",
    "demand.export.wall_ms": "ms",
    "demand.export.bytes": "bytes",
    "cache.load.wall_ms": "ms",
    "cache.decode.wall_ms": "ms",
    "cache.decode_mb_per_s": "MB/s",
    "cache.encode.wall_ms": "ms",
    "cache.save.wall_ms": "ms",
    "cache.bytes_written": "bytes",
    "cache.hit_ratio": "ratio",
    "core.sizing.wall_ms": "ms",
    "core.sweep.wall_ms": "ms",
    "core.tail.wall_ms": "ms",
    "core.afford.wall_ms": "ms",
    "core.findings.wall_ms": "ms",
    "core.sensitivity.wall_ms": "ms",
    "core.other.wall_ms": "ms",
    "core.cpu_ms": "ms",
    "simnet.qoe.wall_ms": "ms",
    "simnet.flows": "count",
    "capacity.wall_ms": "ms",
    "report.render.wall_ms": "ms",
    "report.bytes": "bytes",
    "io.write.wall_ms": "ms",
    "io.write_calls": "count",
    "io.bytes_written": "bytes",
    "parallel.efficiency.orbit": "ratio",
    "parallel.efficiency.demand": "ratio",
    "parallel.efficiency.core": "ratio",
    "telemetry.overhead_pct": "%",
    "trace.overhead_pct": "%",
    "replay.coverage": "ratio",
    "cli.unattributed_ms": "ms",
    "host.calib_ms": "ms",
}

# Benchmark span names (perfbench/replay) grouped into the layers that
# parallel efficiency is reported for.
ORBIT_SPANS = ("orbit.density", "orbit.coverage", "orbit.paths")
DEMAND_SPANS = ("demand.generate", "demand.transform", "demand.export")


class Failure(Exception):
    """The benchmark cannot run here: no result is printed."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def clean_env(**extra):
    """The environment every child gets: telemetry and pool settings at
    their defaults, so no stray DIVIDE_* variable changes what is run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVIDE_")}
    env.update(extra)
    return env


# ---------------------------------------------------------------- build


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds both binaries from source; returns their paths."""
    for needed in ("Cargo.toml", "crates", "results/paper_run.txt"):
        if not (ROOT / needed).exists():
            raise Failure(f"{needed} is missing: this is not a checkout of the repository")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "divide-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/replay/Cargo.toml"],
    ):
        # Cargo reports on stderr; stdout stays reserved for the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    return target / "release" / "divide", target / "release" / "perfbench-replay"


# ------------------------------------------------------------ reference


def load_reference(results_dir):
    """The checked-in reference: every tracked CSV/SVG artifact, and the
    stdout of `divide --scale paper all` (paper_run.txt without its
    `[divide]` log lines)."""
    results_dir = Path(results_dir)
    artifacts = {
        p.name: p.read_bytes()
        for p in sorted(results_dir.iterdir())
        if p.suffix in (".csv", ".svg")
    }
    if not artifacts:
        raise Failure(f"no reference artifacts in {results_dir}")
    lines = (results_dir / "paper_run.txt").read_bytes().splitlines(keepends=True)
    stdout = b"".join(l for l in lines if not l.startswith(b"[divide]"))
    return {"artifacts": artifacts, "stdout": stdout}


def check_outputs(reference, out_dir, stdout):
    """Problems with one iteration's outputs; empty when all match."""
    problems = []
    if stdout != reference["stdout"]:
        problems.append("stdout differs from results/paper_run.txt")
    for name, want in reference["artifacts"].items():
        path = Path(out_dir) / name
        got = path.read_bytes() if path.exists() else None
        if got != want:
            problems.append(f"{name} {'is missing' if got is None else 'differs'}")
    return problems


# ------------------------------------------------------------- children


class Child:
    """One program run, reported by the harness binary's `spawn`: the
    program's own wall time, CPU time and peak RSS (a child forked
    straight from this Python process would inherit its RSS peak)."""

    def __init__(self, replay_bin, cmd, env, work):
        stdout_path = work / "child_stdout"
        ticks0 = cpu_ticks()
        code, report = run_json(
            [str(replay_bin), "spawn", "--stdout", str(stdout_path), "--", *cmd], env, work)
        self.steal_pct = steal_pct(ticks0, cpu_ticks())
        if report is None:
            raise Failure(f"spawn helper failed with exit code {code}")
        self.code = report["code"]
        self.wall_ms = report["wall_ms"]
        self.cpu_ms = report["cpu_ms"]
        self.rss_kb = report["rss_kb"]
        self.stdout = stdout_path.read_bytes()


def run_json(cmd, env, work):
    """Runs a harness command; returns its exit code and the JSON object
    on the last line of its stdout (None if there is none)."""
    with open(work / "stderr.log", "ab") as err:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    lines = p.stdout.decode(errors="replace").strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


def calib(replay_bin, work):
    code, report = run_json([str(replay_bin), "calib"], clean_env(), work)
    if report is None:
        raise Failure(f"calibration loop failed with exit code {code}")
    return report["calib_ms"]


# ----------------------------------------------------------- statistics


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_pct(ticks0, ticks1):
    """Share of host CPU time the hypervisor stole between two readings."""
    steal, total = (b - a for a, b in zip(ticks0, ticks1))
    return 100.0 * steal / total if total > 0 else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs):
    """The value at the highest percentile (at most p90) that has at
    least ten samples beyond it, and never below the median (with fewer
    than 21 samples that is the median); returns (value, percentile)."""
    s = sorted(xs)
    n = len(s)
    i = max(min(n - 11, int(0.9 * (n - 1))), n // 2)
    return s[i], 100.0 * i / max(n - 1, 1)


def paired_overhead_pct(on, off):
    """Median over pairs of the relative cost of `on` over `off`, in %."""
    pcts = [100.0 * (a - b) / b for a, b in zip(on, off) if b > 0]
    return median(pcts)


def steal_filter(steal_pcts):
    """Indices of the timing samples to use. This host is a VM whose
    hypervisor steals CPU time in bursts of a few seconds; a sample taken
    during one is slower for reasons outside the program. Keep the samples
    taken while at most STEAL_MAX_PCT of host CPU time was stolen, or, when
    fewer than half qualify, the least-stolen half (ties by order). The
    selection looks only at steal, never at the timings."""
    n = len(steal_pcts)
    clean = [i for i in range(n) if steal_pcts[i] <= STEAL_MAX_PCT]
    if 2 * len(clean) >= n:
        return clean
    return sorted(sorted(range(n), key=lambda i: steal_pcts[i])[:(n + 1) // 2])


def end_to_end(walls, cpus, steal_pcts, rss_kb, setups):
    keep = steal_filter(steal_pcts)
    w = [walls[i] for i in keep]
    p90, pct = tail_percentile(w)
    metrics = {
        "wall_ms_p50": median(w),
        "wall_ms_p90": p90,
        "cpu_ms_per_iter": sum(cpus[i] for i in keep) / len(w),
        "iters_per_s": len(w) / (sum(w) / 1e3),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": median(setups),
    }
    notes = {
        "wall_ms_p50": f"{len(w)} of {len(walls)} samples kept by host steal",
        "wall_ms_p90": f"p{pct:.0f} of {len(w)} samples",
    }
    return metrics, notes


# -------------------------------------------------------- paper workloads


class PaperRun:
    """One of the `divide --scale paper all` workloads."""

    def __init__(self, name, divide_bin, replay_bin, reference):
        self.name = name
        self.cold = name == "paper-cold"
        self.threads = PAPER_WORKLOADS[name]
        self.divide_bin = divide_bin
        self.replay_bin = replay_bin
        self.reference = reference
        self.work = STATE / "work" / name
        self.cache = self.work / "cache"
        self.out = self.work / "out"
        self.replay_out = self.work / "replay-out"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}

    def fail(self, what, problems):
        self.failed += 1
        self.failures.append(f"{what}: " + "; ".join(problems))

    def divide(self, obs=True):
        """One checked `divide` iteration. The output directory is
        emptied first, outside the timed interval, so every artifact
        checked was written by this iteration; the cold workload empties
        the cache too."""
        shutil.rmtree(self.out, ignore_errors=True)
        if self.cold:
            shutil.rmtree(self.cache, ignore_errors=True)
        env = clean_env() if obs else clean_env(DIVIDE_OBS="off")
        cmd = [str(self.divide_bin), "--scale", "paper", "all", "--threads", str(self.threads),
               "--cache", str(self.cache), "--out", str(self.out), "-q"]
        child = Child(self.replay_bin, cmd, env, self.work)
        self.attempted += 1
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        problems += check_outputs(self.reference, self.out, child.stdout)
        if problems:
            self.fail(f"divide iteration {self.attempted}", problems)
        return child

    def replay(self, spans):
        """One checked replay pass in a fresh process, so process-wide
        lazy state starts cold exactly as it does for `divide`."""
        if self.cold:
            shutil.rmtree(self.cache, ignore_errors=True)
        shutil.rmtree(self.replay_out, ignore_errors=True)
        cmd = [str(self.replay_bin), "replay", "--cache", str(self.cache),
               "--out", str(self.replay_out), "--threads", str(self.threads),
               "--spans", "1" if spans else "0"]
        ticks0 = cpu_ticks()
        code, report = run_json(cmd, clean_env(), self.work)
        self.attempted += 1
        problems = [] if code == 0 and report else [f"exit code {code}"]
        stdout_file = self.replay_out / "replay_stdout.txt"
        text = stdout_file.read_bytes() if stdout_file.exists() else b""
        problems += check_outputs(self.reference, self.replay_out, text)
        if problems:
            self.fail(f"replay iteration {self.attempted}", problems)
            return None
        report["steal_pct"] = steal_pct(ticks0, cpu_ticks())
        return report

    def setup(self):
        """From workload start to the first timed iteration: fresh
        directories, then one untimed iteration (for the warm workload,
        after the cache-filling cold run)."""
        t0 = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if not self.cold:
            self.divide()
        self.divide()
        return time.perf_counter() - t0

    def run(self, seconds, traced):
        if traced:
            self.setup()
            return self.traced(seconds)
        setups = [self.setup() for _ in range(SETUPS)]
        walls, cpus, steal, rss_kb = [], [], [], 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            child = self.divide()
            walls.append(child.wall_ms)
            cpus.append(child.cpu_ms)
            steal.append(child.steal_pct)
            rss_kb = max(rss_kb, child.rss_kb)
        self.samples = {"wall_ms": walls, "cpu_ms": cpus, "steal_pct": steal, "setup_s": setups}
        return end_to_end(walls, cpus, steal, rss_kb, setups)

    def traced(self, seconds):
        """Order-alternating pairs: first `divide` with telemetry at its
        defaults vs DIVIDE_OBS=off (scored on CPU), then the replay with
        benchmark spans on vs off."""
        default, obs_off = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4 * seconds:
            order = (True, False) if len(default) % 2 == 0 else (False, True)
            for obs in order:
                (default if obs else obs_off).append(self.divide(obs))
        spans_on, spans_off = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < 0.6 * seconds or not spans_on:
            order = (True, False) if len(spans_on) % 2 == 0 else (False, True)
            pair = {spans: self.replay(spans) for spans in order}
            if pair[True] is None or pair[False] is None:
                if len(self.failures) > 20:
                    break
                continue
            spans_on.append(pair[True])
            spans_off.append(pair[False])
        if not spans_on:
            return {}, {}
        keep = steal_filter([c.steal_pct for c in default])
        wall_p50 = median([default[i].wall_ms for i in keep])
        traces = [spans_on[i]["trace"] for i in steal_filter([r["steal_pct"] for r in spans_on])]
        metrics = layer_metrics(traces, self.threads, wall_p50)
        metrics["telemetry.overhead_pct"] = paired_overhead_pct(
            [c.cpu_ms for c in default], [c.cpu_ms for c in obs_off])
        metrics["trace.overhead_pct"] = paired_overhead_pct(
            [r["cpu_ms"] for r in spans_on], [r["cpu_ms"] for r in spans_off])
        notes = {"replay.coverage": f"of divide wall_ms_p50 {wall_p50:.1f} ms; layers from "
                                    f"{len(traces)} of {len(spans_on)} replays kept by host steal"}
        return metrics, notes


def layer_metrics(traces, threads, wall_p50):
    """Per-layer metrics from the traced replays (medians over passes)."""

    def layer(name, field="wall_ms"):
        return median([t["layers"].get(name, {}).get(field, 0.0) for t in traces])

    def count(name):
        return median([t["counts"].get(name, 0.0) for t in traces])

    def total(names, field):
        return median([sum(t["layers"].get(n, {}).get(field, 0.0) for n in names)
                       for t in traces])

    def efficiency(names):
        wall = total(names, "wall_ms")
        return total(names, "cpu_ms") / (wall * threads) if wall > 0 else 0.0

    core = sorted({n for t in traces for n in t["layers"] if n.startswith("core.")})
    every = sorted({n for t in traces for n in t["layers"]})
    attributed = total(every, "wall_ms")
    propagations = count("orbit.propagations")
    generate_ms = layer("demand.generate")
    decode_ms = layer("cache.decode")
    lookups = count("cache.lookups")
    m = {
        "orbit.density.wall_ms": layer("orbit.density"),
        "orbit.density.cpu_ms": layer("orbit.density", "cpu_ms"),
        "orbit.coverage.wall_ms": layer("orbit.coverage"),
        "orbit.coverage.cpu_ms": layer("orbit.coverage", "cpu_ms"),
        "orbit.paths.wall_ms": layer("orbit.paths"),
        "orbit.propagations": propagations,
        "orbit.ns_per_propagation":
            total(ORBIT_SPANS, "wall_ms") * 1e6 / propagations if propagations else 0.0,
        "demand.generate.wall_ms": generate_ms,
        "demand.generate.cpu_ms": layer("demand.generate", "cpu_ms"),
        "demand.locations_per_s":
            count("demand.locations") / (generate_ms / 1e3) if generate_ms else 0.0,
        "demand.transform.wall_ms": layer("demand.transform"),
        "demand.export.wall_ms": layer("demand.export"),
        "demand.export.bytes": count("demand.export.bytes"),
        "cache.load.wall_ms": layer("cache.load"),
        "cache.decode.wall_ms": decode_ms,
        "cache.decode_mb_per_s":
            count("cache.bytes_read") / 1e6 / (decode_ms / 1e3) if decode_ms else 0.0,
        "cache.encode.wall_ms": layer("cache.encode"),
        "cache.save.wall_ms": layer("cache.save"),
        "cache.bytes_written": count("cache.bytes_written"),
        "cache.hit_ratio": count("cache.hits") / lookups if lookups else 0.0,
        "core.sizing.wall_ms": layer("core.sizing"),
        "core.sweep.wall_ms": layer("core.sweep"),
        "core.tail.wall_ms": layer("core.tail"),
        "core.afford.wall_ms": layer("core.afford"),
        "core.findings.wall_ms": layer("core.findings"),
        "core.sensitivity.wall_ms": layer("core.sensitivity"),
        "core.other.wall_ms": layer("core.other"),
        "core.cpu_ms": total(core, "cpu_ms"),
        "simnet.qoe.wall_ms": layer("simnet.qoe"),
        "simnet.flows": count("simnet.flows"),
        "capacity.wall_ms": layer("capacity"),
        "report.render.wall_ms": layer("report.render"),
        "report.bytes": count("report.bytes"),
        "io.write.wall_ms": layer("io.write"),
        "io.write_calls": count("io.write_calls"),
        "io.bytes_written": count("io.bytes_written"),
        "parallel.efficiency.orbit": efficiency(ORBIT_SPANS),
        "parallel.efficiency.demand": efficiency(DEMAND_SPANS),
        "parallel.efficiency.core": efficiency(core),
        "replay.coverage": attributed / wall_p50,
        "cli.unattributed_ms": wall_p50 - attributed,
    }
    return m


# ------------------------------------------------------ what-if workload


class WhatIfRun:
    """In-process what-if draws (perfbench/replay `whatif`)."""

    def __init__(self, replay_bin, seed):
        self.replay_bin = replay_bin
        self.seed = seed
        self.work = STATE / "work" / "whatif-policy"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.record = {}

    def run(self, seconds, traced):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cmd = [str(self.replay_bin), "whatif", "--seed", str(self.seed),
               "--seconds", str(seconds), "--threads", str(WHATIF_THREADS),
               "--trace", "1" if traced else "0", "--setups", "1" if traced else str(WHATIF_SETUPS)]
        code, r = run_json(cmd, clean_env(), self.work)
        if code != 0 or r is None:
            self.attempted = self.failed = 1
            self.failures.append(f"whatif exited with code {code}")
            return {}, {}
        self.record = r
        self.attempted, self.failed = r["attempted"], r["failed"]
        self.failures += r["failures"]
        if not traced:
            plain = r["plain"]
            self.samples = {**plain, "steal_pct": r["deck_steal_pct"], "setup_s": r["setup_s"]}
            return end_to_end(plain["wall_ms"], plain["cpu_ms"], r["deck_steal_pct"],
                              r["peak_rss_kb"], r["setup_s"])
        traces = [
            {"layers": {name: {"wall_ms": s["wall_ms"][i], "cpu_ms": s["cpu_ms"][i]}
                        for name, s in r["layers"].items()},
             "counts": {}}
            for i in range(len(r["spans"]["wall_ms"]))
        ]
        keep = steal_filter(r["deck_steal_pct"])
        plain = r["plain"]["wall_ms"]
        wall_p50 = median([plain[i] for i in keep])
        metrics = layer_metrics([traces[i] for i in keep], WHATIF_THREADS, wall_p50)
        # A deck's traced and untraced passes run back to back, so
        # coverage pairs them: the host's slow and fast phases last
        # seconds and would otherwise land on one side only.
        attributed = {i: sum(l["wall_ms"] for l in traces[i]["layers"].values()) for i in keep}
        metrics["replay.coverage"] = median([attributed[i] / plain[i] for i in keep])
        metrics["cli.unattributed_ms"] = median([plain[i] - attributed[i] for i in keep])
        self.samples = {"plain": r["plain"], "spans": r["spans"], "obs_off": r["obs_off"],
                        "steal_pct": r["deck_steal_pct"]}
        metrics["telemetry.overhead_pct"] = paired_overhead_pct(
            r["plain"]["cpu_ms"], r["obs_off"]["cpu_ms"])
        metrics["trace.overhead_pct"] = paired_overhead_pct(
            r["spans"]["cpu_ms"], r["plain"]["cpu_ms"])
        notes = {"replay.coverage": f"median over decks of traced layers / untraced pass "
                                    f"(untraced median {wall_p50:.2f} ms); {len(keep)} of "
                                    f"{len(traces)} decks kept by host steal"}
        return metrics, notes


# ---------------------------------------------------------------- host


def host_record(calib_ms, ticks0):
    def cmd(*argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    cpu_model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The checkout the benchmark runs in need not be a git repository;
    # the source digest identifies the code under test either way.
    rev = cmd("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else "none"
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cpu_model": cpu_model,
        "rustc": cmd("rustc", "--version"),
        "git_rev": rev,
        "source_sha256": source_digest(),
        "calib_ms": calib_ms,
        # Share of CPU time the hypervisor gave to other guests during
        # the run: a noisy-neighbour reading next to the metrics.
        "steal_pct": steal_pct(ticks0, cpu_ticks()),
    }


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py"))
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        divide_bin, replay_bin = build()
        reference = load_reference(ROOT / "results")
    except Failure as e:
        log(f"error: {e}")
        return 1
    work = STATE / "work"
    work.mkdir(parents=True, exist_ok=True)
    ticks0 = cpu_ticks()
    calibs = [calib(replay_bin, work)]

    if args.workload == "whatif-policy":
        run = WhatIfRun(replay_bin, args.seed)
    else:
        run = PaperRun(args.workload, divide_bin, replay_bin, reference)
    metrics, notes = run.run(args.seconds, bool(args.trace))
    calibs.append(calib(replay_bin, work))
    host = host_record(median(calibs), ticks0)

    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["host.calib_ms"] = host["calib_ms"]
    attempted = max(run.attempted, 1)
    failed = min(run.failed, attempted)
    correct = failed == 0 and not run.failures and all(n in metrics for n in names)
    for name in names:
        metrics.setdefault(name, 0.0)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": run.failures[:20],
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names},
        "notes": notes,
        "samples": run.samples,
    }
    if isinstance(run, WhatIfRun) and run.record:
        record["decks"] = run.record["decks"]
        record["deck_size"] = run.record["deck_size"]
        record["run_digest"] = run.record["run_digest"]
        record["digest_draws"] = run.record["digest_draws"]
        record["distinct_draws"] = run.record["distinct_draws"]
        record["recurrences"] = run.record["recurrences"]
        record["draw_digests"] = run.record["draw_digests"]
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"host nproc={host['nproc']} kernel={host['kernel']} cpu={host['cpu_model']!r} "
          f"rustc={host['rustc']!r} git={host['git_rev']} calib_ms={host['calib_ms']:.2f} "
          f"steal_pct={host['steal_pct']:.1f}")
    for name in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {names[name]}{note}")
    print(f"error_rate = {record['error_rate']:.6g} ratio  ({failed} of {attempted} failed)")
    if "run_digest" in record:
        print(f"run_digest = {record['run_digest']} over the first "
              f"{record['digest_draws']} draws")
    for f in run.failures[:20]:
        print(f"FAILED: {f}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
