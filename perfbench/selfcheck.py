#!/usr/bin/env python3
"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks, in order, and exits non-zero on the first failure:

1. perfbench/layers.json maps every per-layer metric of BENCHMARK.json,
   and run.py declares the same metrics with the same units.
2. An unknown workload name is a usage error: exit 2, no result line.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
4. The correctness gate passes on a real `divide` run against a copy of
   the reference, and fails when one byte of that copy is flipped, in an
   artifact or in the expected stdout.
5. Every workload, untraced and traced (short runs), prints every metric
   BENCHMARK.json names, by name with its unit, and ends with a correct
   result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

ROOT = run.ROOT
SCRATCH = run.STATE / "selfcheck"


def check(cond, what):
    if not cond:
        print(f"[selfcheck] FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"[selfcheck] ok: {what}")


def bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return doc, e2e, layer


def main():
    doc, e2e, layer = declared()

    mapped = {m for entry in json.loads((HERE / "layers.json").read_text())["layers"].values()
              for m in entry["metrics"]}
    check(set(layer) == mapped, "layers.json maps exactly the per-layer metrics")
    check(e2e == run.END_TO_END and layer == run.PER_LAYER,
          "run.py declares the metrics and units of BENCHMARK.json")
    check([w["name"] for w in doc["workloads"]] == run.WORKLOADS,
          "run.py runs the workloads of BENCHMARK.json")

    p = bench(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
               "--trace", "0"])
    check(p.returncode == 2 and result_line(p.stdout) is None,
          "an unknown workload is a usage error (exit 2, no result)")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    p = bench(["--workload", "paper-warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
              cwd=bare)
    check(p.returncode != 0 and result_line(p.stdout) is None,
          "without the repository the benchmark fails without a result")

    divide_bin, replay_bin = run.build()
    ref_copy = SCRATCH / "reference"
    shutil.copytree(ROOT / "results", ref_copy)
    out = SCRATCH / "out"
    child = run.Child(replay_bin, [str(divide_bin), "--scale", "paper", "all", "--threads", "2",
                                   "--cache", str(SCRATCH / "cache"), "--out", str(out), "-q"],
                      run.clean_env(), SCRATCH)
    check(child.code == 0, "divide runs")
    reference = run.load_reference(ref_copy)
    check(run.check_outputs(reference, out, child.stdout) == [],
          "the gate passes on an unmodified copy of the reference")
    for name in ("table2.csv", "paper_run.txt"):
        path = ref_copy / name
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0x01
        path.write_bytes(bytes(body))
        problems = run.check_outputs(run.load_reference(ref_copy), out, child.stdout)
        check(len(problems) == 1, f"one flipped byte in the reference's {name} fails the gate")
        shutil.copy(ROOT / "results" / name, path)

    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layer)):
            p = bench(["--workload", workload, "--seed", "7", "--seconds", "2",
                       "--trace", str(trace)])
            res = result_line(p.stdout)
            what = f"{workload} --trace {trace}"
            check(p.returncode == 0 and res is not None, f"{what} prints a result")
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what} is correct with no failures")
            check({n: m["unit"] for n, m in res["metrics"].items()} == names,
                  f"{what} reports every declared metric with its unit")
            text = p.stdout.splitlines()
            check(all(any(l.startswith(f"{n} = ") and f" {u}" in l for l in text)
                      for n, u in names.items()),
                  f"{what} prints every metric by name with its unit")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("[selfcheck] all checks passed")


if __name__ == "__main__":
    main()
