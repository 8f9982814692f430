"""Check that the benchmark's end-to-end metrics are steady across seeds.

Run from the repository root:

    python3 bench/steady.py --seeds 0-9 [--out F] [--against G]

Runs ``BENCHMARK.json``'s command once per (seed, workload), for every
workload it declares and for its ``run_seconds``, as the benchmark is
meant to be driven, interleaving the workloads and rotating
their order from one seed to the next so that host drift spreads over all
of them instead of landing on one.  For every workload and end-to-end
metric it prints the median, the quartiles and the spread (distance
between the quartiles over the median, as ``statistics.quantiles(n=4)``
gives them) next to the metric's bound; ``ok`` marks spreads below a third
of the bound.  It also prints each untraced run's median reference-job
time and unadjusted times, so drift of the host shows beside the figures,
and ends with one traced run per workload for the per-layer figures.
``--out`` writes every run and the summary as JSON (``bench/BENCH_seed.json``
is such a file, the baseline).  ``--against`` compares each median with
the one in such a file and marks a metric ``WORSE`` when it is worse than
that median by more than its bound.  Exits 1 if any run failed or any
metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from make_refs import parse_seeds


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-9")
    ap.add_argument("--out", help="also write the runs and their summary here as JSON")
    ap.add_argument("--against", help="compare the medians with those of this --out file")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    runs = []

    def bench(workload: str, seed: int, trace: int) -> dict | None:
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            return None
        result = json.loads(lines[-1])
        host = json.loads(next(l for l in lines if l.startswith("# host "))[7:])
        detail = json.loads(next(l for l in lines if l.startswith("# detail "))[9:])
        run = {"workload": workload, "seed": seed, "trace": trace, "host": host}
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        drift = ""
        if not trace:
            run["probe_s"] = statistics.median(detail["probe_wall_s"])
            run["raw"] = detail["raw"]
            raw = " ".join(f"{k}={v:.4g}" for k, v in detail["raw"].items())
            drift = f"probe {run['probe_s']:.3f}  raw: {raw}  "
        runs.append({**run, "result": result})
        print(f"{workload:10s} seed {seed:3d} trace {trace}  {drift}"
              f"correct={result['correct']}  {shown}", flush=True)
        return result

    ok = True
    for i, seed in enumerate(args.seeds):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result = bench(workload, seed, trace=0)
            ok = ok and result is not None and result["correct"]
            for name, metric in (result or {}).get("metrics", {}).items():
                values[(workload, name)].append(metric["value"])
    # one traced run per workload gives the per-layer figures beside them
    for workload in workloads:
        result = bench(workload, args.seeds[0], trace=1)
        ok = ok and result is not None and result["correct"]

    print(f"\n{'workload':10s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    summary = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            vals = values.get((workload, metric["name"]))
            if not vals or len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:10s} {metric['name']:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {metric['bound']:6.2f} {flag}")
            summary.append({"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                            "median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)})
    if args.out:
        doc = {"seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if args.against:
        ok = compare(spec, summary, args.against) and ok
    return 0 if ok else 1


def compare(spec: dict, summary: list[dict], path: str) -> bool:
    """Print each median's change from the one in ``path``; False if one got worse than its bound."""
    before = {
        (row["workload"], row["metric"]): row["median"]
        for row in json.loads(Path(path).read_text(encoding="utf-8"))["summary"]
    }
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\nagainst {path}\n{'workload':10s} {'metric':12s} {'before':>10s} {'now':>10s} "
          f"{'change':>7s} {'bound':>6s}")
    ok = True
    for row in summary:
        old = before.get((row["workload"], row["metric"]))
        if old is None:
            continue
        metric = metrics[row["metric"]]
        change = row["median"] / old - 1
        worse = change if metric["better"] == "lower" else -change
        flag = "ok" if worse <= metric["bound"] else "WORSE"
        ok = ok and flag == "ok"
        print(f"{row['workload']:10s} {row['metric']:12s} {old:10.4g} {row['median']:10.4g} "
              f"{change:+7.3f} {metric['bound']:6.2f} {flag}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
