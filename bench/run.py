"""End-to-end benchmark of the bellvar command line, with a traced per-layer run.

Run from the root of a bellvar checkout (the package is not installed; the
CLI is run from ``src/`` the way the tests run it):

    python3 bench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Each workload is a fixed list of CLI jobs.  With ``--trace 0`` the list
runs as one pass after another, every job a fresh
``python -m bellvar.cli ...`` child process, started only after the
previous one has ended (a closed loop with one client).  Passes repeat
until ``--seconds`` is used up; the end-to-end metrics combine each job's
median over the passes, and times are adjusted for the host's speed by a
reference job run beside them (see ``PROBE_ARGV``).  With ``--trace 1`` the same jobs run in this process through
``bellvar.cli.main(argv)``, alternating untraced passes with passes in
which ``tracer.Tracer`` wraps the package's public functions; the result
holds per-layer metrics.

Every job's output is checked (see the ``_check_*`` functions); a job
that exits nonzero or fails its check counts as failed.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it, starting with ``#``,
give the host (Python, numpy, BLAS, thread variables, CPU count) and the
per-job figures, with the reference job's times that make host drift
visible and the unadjusted times; each run also appends them to
``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"
OUT_ROOT = Path(".bench_out")
SRC = Path("src")
WORKLOADS = ("scan", "multiparty", "sample")
JOB_TIMEOUT_S = 150.0
# the trivial job whose wall time is setup_s: interpreter start, import, argparse
SETUP_ARGV = "lhv --family chsh"
MIN_SETUP_JOBS = 7
# A fixed reference job that runs no bellvar code: interpreter start and the
# imports that dominate the setup job.  The host's speed moves by a third or
# more from one minute to the next and stays moved for whole runs (CPU time
# tracks wall time, so it is the host, not waiting), which no statistic
# within a run removes.  So the reported times are host-adjusted: the
# reference job runs before and after every job, and each job's time is
# divided by its host factor, the geometric mean of those two reference
# times over PROBE_NOMINAL_S (roughly the probe's time on a quiet 2-core
# host), before the medians are taken.  The speed also moves within
# seconds: a reference run one job further away tracks a job's time much
# less closely.  The raw times are kept in the detail line.
PROBE_ARGV = ("-c", "import argparse, json, numpy")
PROBE_NOMINAL_S = 0.15
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckFailed(Exception):
    """A job's output is not what the seed code produces."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``template`` holds ``{seed}`` and ``{out}`` fields."""

    template: str
    check: Callable[["JobOutput"], None]
    # the value stored in refs.json for this job and seed (see make_refs.py)
    reference: Callable[["JobOutput"], object] | None = None

    def argv(self, seed: int, out: Path) -> list[str]:
        return self.template.format(seed=seed, out=out).split()


@dataclass
class JobOutput:
    job: Job
    seed: int
    out: Path
    stdout: str
    refs: dict

    def ref(self):
        """The value recorded for this job and seed at the seed commit, or None."""
        return self.refs.get(self.job.template, {}).get(str(self.seed))


# ---------------------------------------------------------------------------
# output checks


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def stdout_field(text: str, key: str) -> str:
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return " ".join(parts[1:])
    raise CheckFailed(f"no {key!r} line on stdout")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _check_min_slack(o: JobOutput, min_slack: float, violations: int) -> None:
    _require(violations == 0, f"{violations} violations")
    _require(min_slack >= -1e-9, f"min_slack {min_slack!r} below -1e-9")
    ref = o.ref()
    if ref is not None:
        _require(abs(min_slack - ref) <= 1e-12, f"min_slack {min_slack!r} != reference {ref!r}")


def scan_min_slack(o: JobOutput, name: str, samples: int) -> tuple[float, int]:
    """(min slack, violations) of a scan job's output file (JSON summary or CSV rows)."""
    if name.endswith(".json"):
        doc = _read_json(o.out / name)
        _require(doc["n_samples"] == samples, f"n_samples {doc['n_samples']} != {samples}")
        return doc["min_slack"], doc["violations"]
    lines = (o.out / name).read_text(encoding="utf-8").splitlines()
    _require(lines[1].split(",")[-1] == "slack", "CSV has no slack column")
    slacks = [float(line.rsplit(",", 1)[1]) for line in lines[2:]]
    _require(len(slacks) == samples, f"{len(slacks)} CSV rows != {samples}")
    return min(slacks), sum(s < -1e-9 for s in slacks)


def _check_scan(name: str, samples: int):
    def check(o: JobOutput) -> None:
        min_slack, violations = scan_min_slack(o, name, samples)
        _require(int(stdout_field(o.stdout, "violations")) == 0, "stdout reports violations")
        _check_min_slack(o, min_slack, violations)

    return check


def _scan_reference(name: str, samples: int):
    return lambda o: scan_min_slack(o, name, samples)[0]


def _check_lhv(expected: float):
    def check(o: JobOutput) -> None:
        value = float(stdout_field(o.stdout, "lhv_max"))
        _require(value == expected, f"lhv_max {value!r} != {expected!r}")

    return check


def _check_mk_report(n: int):
    def check(o: JobOutput) -> None:
        report = _read_json(o.out / "report.json")["report"]
        expected = 2.0 ** (3 * (n - 1) / 2)
        _require(
            abs(report["bell_value"] - expected) <= 1e-9,
            f"bell_value {report['bell_value']!r} != {expected!r}",
        )
        _require(report["slack"] >= -1e-9, f"slack {report['slack']!r} below -1e-9")

    return check


def _check_mk_optimum(n: int):
    def check(o: JobOutput) -> None:
        best = _read_json(o.out / "optimize.json")["best"]["value"]
        expected = 2.0 ** (3 * (n - 1) / 2)
        _require(abs(best - expected) <= 1e-7, f"best value {best!r} != {expected!r}")

    return check


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_sample(name: str, rounds: int, has_check: bool):
    def check(o: JobOutput) -> None:
        path = o.out / name
        ref = o.ref()
        if ref is not None:
            _require(sha256_of(path) == ref, f"{name} differs from the reference bytes")
        if name.endswith(".json"):
            doc = _read_json(path)
            total = sum(map(sum, doc["counts"]))
            _require(total == rounds, f"counts sum to {total}, not {rounds}")
            if has_check:
                _require(doc["empirical_check"]["passed"] is True, "empirical_check failed")
        else:
            with open(path, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 2
            _require(rows == rounds, f"{rows} CSV rows != {rounds}")
        if has_check:
            verdict = stdout_field(o.stdout, "empirical_check").split()[0]
            _require(verdict == "pass", f"empirical_check {verdict}")

    return check


def _sample_reference(name: str):
    return lambda o: sha256_of(o.out / name)


# ---------------------------------------------------------------------------
# workloads


def workload_jobs(name: str, smoke: bool = False) -> list[Job]:
    """The CLI jobs of one pass of a workload; ``smoke`` uses tiny sizes."""
    if name == "scan":
        chsh, chained, mk = (60, 20, 10) if smoke else (2000, 500, 200)
        return [
            Job(
                f"scan --family chsh --samples {chsh} --seed {{seed}} --out {{out}}/scan-chsh.json",
                _check_scan("scan-chsh.json", chsh),
                _scan_reference("scan-chsh.json", chsh),
            ),
            Job(
                f"scan --family chained --n 5 --samples {chained} --seed {{seed}} "
                f"--format csv --out {{out}}/scan-chained.csv",
                _check_scan("scan-chained.csv", chained),
                _scan_reference("scan-chained.csv", chained),
            ),
            Job(
                f"scan --family mk --n 4 --samples {mk} --seed {{seed}} --out {{out}}/scan-mk.json",
                _check_scan("scan-mk.json", mk),
                _scan_reference("scan-mk.json", mk),
            ),
        ]
    if name == "multiparty":
        n_report, n_opt, n_lhv = (4, 3, 4) if smoke else (8, 7, 12)
        return [
            Job(
                f"report --preset mk-ghz --n {n_report} --out {{out}}/report.json",
                _check_mk_report(n_report),
            ),
            Job(
                f"optimize --family mk --n {n_opt} --seeds 3 --seed {{seed}} "
                f"--out {{out}}/optimize.json",
                _check_mk_optimum(n_opt),
            ),
            Job(f"lhv --family chained --n {n_lhv}", _check_lhv(2 * n_lhv - 2)),
        ]
    if name == "sample":
        big, csv = (20_000, 5_000) if smoke else (1_000_000, 200_000)
        return [
            Job(
                f"sample --preset chsh-optimal --rounds {big} --seed {{seed}} --out {{out}}/x.json",
                _check_sample("x.json", big, has_check=True),
                _sample_reference("x.json"),
            ),
            Job(
                f"sample --preset mk-ghz --n 6 --rounds {big} --seed {{seed}} --out {{out}}/y.json",
                _check_sample("y.json", big, has_check=False),
                _sample_reference("y.json"),
            ),
            Job(
                f"sample --preset chsh-optimal --rounds {csv} --seed {{seed}} "
                f"--format csv --out {{out}}/z.csv",
                _check_sample("z.csv", csv, has_check=True),
                _sample_reference("z.csv"),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")


SETUP_JOB = Job(SETUP_ARGV, _check_lhv(2.0))


def load_refs() -> dict:
    try:
        return json.loads(REFS_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def check_job(job: Job, seed: int, out: Path, code: int, stdout: str, refs: dict) -> str | None:
    """None if the job succeeded, else why it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        job.check(JobOutput(job, seed, out, stdout, refs))
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unexpected output: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# host information


def host_info() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# untraced run: one child process per job


def child_env() -> dict:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str


def clear_outputs(out: Path) -> None:
    """Remove earlier jobs' files, so a check never reads a stale output."""
    for stale in out.glob("*.*"):
        stale.unlink()


def run_child(argv, env: dict, out: Path, prefix=("-m", "bellvar.cli")) -> ChildResult:
    """Run ``python -m bellvar.cli argv`` and collect its own rusage via wait4."""
    stdout_path, stderr_path = out / "stdout.txt", out / "stderr.txt"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *prefix, *argv], stdout=so, stderr=se, env=env
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
    if proc.returncode != 0 and err:
        print(f"# stderr of {' '.join(argv)}: {err[-500:]}", file=sys.stderr)
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_probe(env: dict, out: Path) -> float:
    """Wall time of one run of the reference job PROBE_ARGV."""
    res = run_child((), env, out, prefix=PROBE_ARGV)
    if res.code != 0:
        raise RuntimeError(f"reference probe exited with {res.code}")
    return res.wall_s


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, argv: list[str], failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"# FAILED {' '.join(argv)}: {failure}", file=sys.stderr)


def untraced_run(workload, jobs, seed, seconds, out, refs):
    env = child_env()
    tally = Tally()
    # the reference job runs before the first job and after every job, so
    # each job sits between probe k and probe k + 1
    probes = [run_probe(env, out)]

    def sample(job: Job) -> tuple[ChildResult, int]:
        """Run ``job`` and the reference job after it; returns the job's result and k."""
        argv = job.argv(seed, out)
        clear_outputs(out)
        res = run_child(argv, env, out)
        tally.record(argv, check_job(job, seed, out, res.code, res.stdout, refs))
        probes.append(run_probe(env, out))
        return res, len(probes) - 2

    # per job, one sample per pass; metrics sum (or max) the per-job medians,
    # so a burst of load from elsewhere on the host moves one sample, not the result
    setup_walls: list[float] = []
    setup_at: list[int] = []
    walls: list[list[float]] = [[] for _ in jobs]
    cpus: list[list[float]] = [[] for _ in jobs]
    rss: list[list[float]] = [[] for _ in jobs]
    at: list[list[int]] = [[] for _ in jobs]

    def setup_job() -> None:
        res, k = sample(SETUP_JOB)
        setup_walls.append(res.wall_s)
        setup_at.append(k)

    t_start = time.perf_counter()
    while True:
        setup_job()
        for j, job in enumerate(jobs):
            res, k = sample(job)
            walls[j].append(res.wall_s)
            cpus[j].append(res.cpu_s)
            rss[j].append(res.maxrss_mb)
            at[j].append(k)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(setup_walls) > seconds:
            break
    while len(setup_walls) < MIN_SETUP_JOBS:
        setup_job()

    def adjusted_median(samples: list[float], ks: list[int]) -> float:
        """Median of the samples, each divided by the host factor around it."""
        return statistics.median(
            x / (math.sqrt(probes[k] * probes[k + 1]) / PROBE_NOMINAL_S)
            for x, k in zip(samples, ks)
        )

    raw = {
        "wall_s": sum(map(statistics.median, walls)),
        "cpu_s": sum(map(statistics.median, cpus)),
        "setup_s": statistics.median(setup_walls),
    }
    metrics = {
        "wall_s": (sum(map(adjusted_median, walls, at)), "s"),
        "cpu_s": (sum(map(adjusted_median, cpus, at)), "s"),
        "peak_rss_mb": (max(map(statistics.median, rss)), "MB"),
        "setup_s": (adjusted_median(setup_walls, setup_at), "s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    detail = {
        "raw": raw, "probe_wall_s": probes,
        "job_wall_s": walls, "job_cpu_s": cpus, "job_probe_ix": at,
        "setup_wall_s": setup_walls, "setup_probe_ix": setup_at,
    }
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# traced run: the same jobs in this process through bellvar.cli.main


def import_s(env: dict, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to ``import bellvar.cli``."""
    code = (
        "import time; t0 = time.perf_counter(); import bellvar.cli; "
        "print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def in_process_pass(cli, jobs, seed, out, refs, tally) -> tuple[float, int]:
    """Run one pass via ``cli.main``; returns (wall seconds, output bytes)."""
    wall = 0.0
    out_bytes = 0
    for job in jobs:
        argv = job.argv(seed, out)
        clear_outputs(out)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        wall += time.perf_counter() - t0
        stdout = buf.getvalue()
        out_bytes += len(stdout.encode()) + sum(p.stat().st_size for p in out.glob("*.*"))
        tally.record(argv, check_job(job, seed, out, code, stdout, refs))
    return wall, out_bytes


def traced_run(workload, jobs, seed, seconds, out, refs):
    import tracer as tracing

    env = child_env()
    imp = import_s(env)
    sys.path.insert(0, str(SRC.resolve()))
    import bellvar.cli

    cli = sys.modules["bellvar.cli"]
    tr = tracing.Tracer()
    tally = Tally()
    plain_walls, traced_walls, out_bytes = [], [], []
    t_start = time.perf_counter()
    # warm up (lazy imports, first-call costs) at tiny sizes, so that the
    # first untraced pass is not the only one paying them
    in_process_pass(cli, workload_jobs(workload, smoke=True), seed, out, refs, tally)
    while True:
        wall, _ = in_process_pass(cli, jobs, seed, out, refs, tally)
        plain_walls.append(wall)
        with tr.installed():
            wall, nbytes = in_process_pass(cli, jobs, seed, out, refs, tally)
        traced_walls.append(wall)
        out_bytes.append(nbytes)
        elapsed = time.perf_counter() - t_start
        if elapsed + (elapsed / len(traced_walls)) > seconds:
            break
    errors = tr.nesting_errors()
    if errors:
        tally.failed += 1
        print(f"# FAILED trace nesting: {errors[:5]}", file=sys.stderr)
    trace_path = OUT_ROOT / f"trace-{workload}.csv"
    tr.write_csv(trace_path)

    k = len(traced_walls)
    summ = tr.summary()
    work = tr.work
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in summ.items():
        metrics[f"{name}.self_s"] = (row["self_s"] / k, "s")
        metrics[f"{name}.calls"] = (row["calls"] / k, "count")

    def rate(count_key: str, name: str) -> float:
        incl = summ[name]["incl_s"]
        return work[count_key] / incl if incl > 0 else 0.0

    sweeps = work["optimize.seesaw_max.sweeps"]
    runs = work["optimize.seesaw_max.runs"]
    metrics.update(
        {
            "optimize.random_scan.instances_per_s": (
                rate("optimize.random_scan.instances", "optimize.random_scan"), "1/s"),
            "optimize.seesaw_max.sweeps": (sweeps / k, "count"),
            "optimize.seesaw_max.s_per_sweep": (
                summ["optimize.seesaw_max"]["incl_s"] / sweeps if sweeps else 0.0, "s"),
            "optimize.seesaw_max.converged_ratio": (
                work["optimize.seesaw_max.converged"] / runs if runs else 0.0, "ratio"),
            "montecarlo.simulate_rounds.rounds_per_s": (
                rate("montecarlo.simulate_rounds.rounds", "montecarlo.simulate_rounds"), "1/s"),
            "montecarlo.batch_to_csv.rows_per_s": (
                rate("montecarlo.batch_to_csv.rows", "montecarlo.batch_to_csv"), "1/s"),
            "cli.output_bytes": (statistics.median(out_bytes), "bytes"),
            "process.import_s": (imp, "s"),
            "trace.overhead_s": (
                statistics.median(traced_walls) - statistics.median(plain_walls), "s"),
        }
    )
    detail = {
        "plain_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "spans": len(tr),
        "trace_file": str(trace_path),
    }
    return tally, metrics, detail


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny job sizes, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellvar" / "cli.py").is_file():
        print(f"error: run from the root of a bellvar checkout ({SRC}/bellvar missing)",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    jobs = workload_jobs(args.workload, smoke=args.smoke)
    refs = load_refs()
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / f"jobs-{os.getpid()}"
    out.mkdir()
    info = host_info()
    print("# host " + json.dumps(info, sort_keys=True), flush=True)
    try:
        run = traced_run if args.trace else untraced_run
        tally, metrics, detail = run(args.workload, jobs, args.seed, args.seconds, out, refs)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    wrong = {n: u for n, u in declared.items() if n not in metrics or metrics[n][1] != u}
    if wrong:
        raise RuntimeError(f"metrics not measured with their declared unit: {wrong}")
    bad = [v for v, _ in metrics.values() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metric values: {bad}")
    print("# detail " + json.dumps(detail), flush=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "host": info, "detail": detail,
        "time": time.time(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()
        },
    }
    record["result"] = result
    with open(OUT_ROOT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
