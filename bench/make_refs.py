"""Record the reference outputs that run.py compares seeded jobs against.

Run from the repository root, at the commit whose outputs are the
reference (the scan slacks and sample files are promised to reproduce
byte for byte, so a later commit must match them):

    python3 bench/make_refs.py --seeds 0-63

Each job that has a ``reference`` (scan minimum slack, SHA-256 of sample
output files) runs once per seed as a CLI child process; its invariant
checks must pass before its value is stored in ``bench/refs.json``.
Values already stored for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-63")
    args = ap.parse_args(argv)
    if not (run.SRC / "bellvar" / "cli.py").is_file():
        print("error: run from the root of a bellvar checkout", file=sys.stderr)
        return 2
    refs = run.load_refs()
    env = run.child_env()
    run.OUT_ROOT.mkdir(exist_ok=True)
    out = run.OUT_ROOT / f"refs-{os.getpid()}"
    out.mkdir()
    jobs = [job for w in run.WORKLOADS for job in run.workload_jobs(w) if job.reference]
    try:
        for seed in args.seeds:
            for job in jobs:
                argv = job.argv(seed, out)
                res = run.run_child(argv, env, out)
                failure = run.check_job(job, seed, out, res.code, res.stdout, {})
                if failure is not None:
                    print(f"error: seed {seed}: {' '.join(argv)}: {failure}", file=sys.stderr)
                    return 1
                output = run.JobOutput(job, seed, out, res.stdout, {})
                refs.setdefault(job.template, {})[str(seed)] = job.reference(output)
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    run.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
