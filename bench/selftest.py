"""Self-test of the benchmark at smoke sizes (about a minute).

Run from the repository root:

    python3 bench/selftest.py

It is not named ``test_*.py`` and lives outside ``tests/``, so the tier-1
pytest run does not collect it.  It checks that:

* every workload, untraced and traced, exits 0 and ends with a result line
  with exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``,
  with every job correct;
* the metrics are exactly those ``BENCHMARK.json`` declares for the mode,
  each with its declared unit and a finite value;
* the spans written by each traced run nest: every parent precedes its
  child and encloses its interval, and every traced layer appears on some
  workload;
* the tracer puts the package's own functions back when it is removed;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)
        print(f"FAIL {message}", flush=True)


def bench_cmd(workload: str, trace: int) -> list[str]:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]


def check_result(workload: str, trace: int) -> None:
    label = f"{workload} trace={trace}"
    done = subprocess.run(bench_cmd(workload, trace), capture_output=True, text=True, timeout=180)
    expect(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-400:]}")
    if done.returncode != 0:
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: {done.stderr[-400:]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    declared = run.declared_metrics(bool(trace))
    expect(set(result["metrics"]) == set(declared), f"{label}: metric names differ from BENCHMARK.json")
    for name, unit in declared.items():
        metric = result["metrics"].get(name, {})
        expect(metric.get("unit") == unit, f"{label}: {name} unit {metric.get('unit')!r} != {unit!r}")
        value = metric.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value!r}")
    if trace == 0:
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_ratio"):
            expect(result["metrics"][name]["value"] > 0, f"{label}: {name} is not positive")


def check_spans(workload: str, seen: set[str]) -> None:
    with open(run.OUT_ROOT / f"trace-{workload}.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) > 0, f"{workload}: no spans written")
    start = [int(r["start_ns"]) for r in rows]
    end = [int(r["end_ns"]) for r in rows]
    bad = 0
    for i, row in enumerate(rows):
        seen.add(row["name"])
        p = int(row["parent"])
        if p < 0:
            bad += row["name"] != "cli.main"
        elif not (p < i and start[p] <= start[i] <= end[i] <= end[p]):
            bad += 1
    expect(bad == 0, f"{workload}: {bad} spans do not nest in their parent")


def check_tracer_removal() -> None:
    sys.path.insert(0, str(run.SRC.resolve()))
    import bellvar.bounds
    import bellvar.optimize

    before = bellvar.optimize.report_for
    tr = tracer.Tracer()
    with tr.installed():
        expect(bellvar.optimize.report_for is not before, "report_for not wrapped in optimize")
        expect(bellvar.bounds.report_for is bellvar.optimize.report_for, "bindings differ")
    expect(bellvar.optimize.report_for is before, "report_for not restored in optimize")


def check_bare_directory() -> None:
    bare = (run.OUT_ROOT / f"bare-{os.getpid()}").resolve()
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(done.returncode != 0, "benchmark succeeded without the program")
    expect('"metrics"' not in done.stdout, "benchmark printed a result without the program")


def main() -> int:
    seen: set[str] = set()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace)
        check_spans(workload, seen)
    missing = set(tracer.Tracer().names) - seen
    expect(not missing, f"traced layers never called: {sorted(missing)}")
    check_tracer_removal()
    check_bare_directory()
    print("selftest " + ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
