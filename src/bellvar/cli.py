"""Command line front end.

Subcommands: decompose, report, optimize, scan, sample, lhv.  The
``_COMMANDS`` table names each one's handler and the arguments it reads,
and the parser offers it only those.  A human readable table always goes
to stdout; ``--out PATH`` also writes a machine readable file, canonical
JSON by default.  The table shows the fields of the same document that
``--out`` writes.  ``report``, ``scan`` and ``sample`` take ``--format
csv`` for a CSV file instead (every format carries a schema_version
field, CSV as a leading comment line).  Every subcommand writes its
file first and prints its table after, so an ``--out`` that cannot be
opened exits 2 with nothing on stdout.  A scan CSV is written one kernel
pass at a time.  A run that fails after its file was opened deletes the
file if the path resolves to a regular file.

``decompose`` prints ``A|psi> = <A>|psi> + dA|psi_perp>`` for every
(party, setting) from one-site block images, building no joint operator;
a family, if one is given, must fit the table, as for report.  ``report``
only formats the document that ``bounds._report_document`` builds, where
each family's extras are chosen.

Each subcommand imports its layers when called, and a run builds only its
own subcommand's parser.  At import this module loads only scenarios and
linalg, which parsing and output need; ``lhv`` loads nothing more, and
only ``report`` and ``sample`` load presets, for the ``--preset`` choices.
``scan`` and ``decompose`` load the kernel module ``_kernel`` only,
``report`` the bounds layer with it, ``optimize`` the search module with
it, and ``sample`` the sampler.  Most of a short run's start-up left is
compiling this module and scenarios.

BLAS runs on one thread: before numpy is first imported this module sets
``OMP_NUM_THREADS=1`` unless the caller has set it.  No operator is larger
than 256 x 256, so worker threads only spin between calls, and the
see-saw's sums would round differently with each thread count.  A
caller's ``OMP_NUM_THREADS`` or ``OPENBLAS_NUM_THREADS`` still wins;
a program that imported numpy earlier keeps its own pool.

Exit codes: 0 success, 2 unreadable or malformed input (also argparse
usage errors, a scenario-file key the reader does not know, an empty
``--out``, and any argument given that the resolved instance does not
read), 3 a domain validation failure (dimension mismatch, cap exceeded,
degenerate spread, undersampled batch, a non-finite scan slack or JSON
value, chsh with an ``--n`` other than 2) or a size too large to allocate,
such as ``--samples`` or ``--rounds`` at 10**15, 1 unexpected internal
error.  ``_resolve`` refuses every argument conflict before it builds a
preset or reads a file, and all of it runs before a subcommand starts.

State specifications accepted by ``--state``: ``bell`` (two qubits, the
default), ``ghz`` (all parties), ``zero`` (|0...0>), a path to a JSON
file holding a list of ``[re, im]`` amplitude pairs (each exactly two
JSON numbers), or an inline comma-separated list of real amplitudes.
Explicit amplitudes must be finite, with a sum of squared moduli that
does not overflow a float (a norm below about 1.34e154), and are
normalized.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterable

# before the first numpy import: OpenBLAS sizes its thread pool when it loads
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from .linalg import as_ket
from .scenarios import (
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _check_instance,
    _complex_pair,
    _complex_pairs,
    _csv_chunks,
    _images,
    bell_state,
    family_to_json_dict,
    ghz_state,
    lhv_max,
    load_scenario_file,
    scenario_to_json_dict,
)

__all__ = ["main"]


class InputError(ValueError):
    """Unreadable or malformed user input (exit code 2)."""


def _fmt(x: float) -> str:
    return f"{x: .12g}"


def _cell(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, list):
        return " ".join(map(_fmt, value))
    return str(value)


def _emit(args, doc: dict, rows: list, family=None, chunks: Iterable[str] | None = None) -> int:
    """With ``--out``, write the CSV ``chunks`` as they are made, or with none given ``doc`` as
    canonical JSON; then print the table.  A row is a key of ``doc`` or a ``(label, value)``
    pair; every value shows through ``_cell``.  ``doc`` gains ``schema_version`` and, with a
    family given, the ``family`` field, which the table shows first.  The JSON text is made
    before the file is opened and takes no NaN or infinity: such a value raises ``ValueError``
    and leaves no file behind.  Chunks may fill ``doc`` as they are written (the scan CSV, one
    kernel pass at a time).  Any failure after the file is opened, its closing included,
    removes the file ``--out`` resolves to if that is a regular file, never a FIFO or device."""
    doc["schema_version"] = SCHEMA_VERSION
    if family is not None:
        doc["family"] = family_to_json_dict(family)
        rows = [("family", f"{family.name} (n={family.n})"), *rows]
    if args.out:
        if chunks is None:
            chunks = [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"]
        fh = open(args.out, "w", encoding="utf-8")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            if os.path.isfile(path := os.path.realpath(args.out)):
                os.remove(path)
            raise
    rows = [(r, doc[r]) if isinstance(r, str) else r for r in rows]
    width = max(len(label) for label, _ in rows)
    print("\n".join(f"{label.ljust(width)}  {_cell(v)}" for label, v in rows))
    return 0


def _parse_state(spec: str, n_parties: int) -> np.ndarray:
    dim = 2**n_parties
    if spec == "bell":
        if n_parties != 2:
            raise InputError("state 'bell' needs exactly two parties")
        return bell_state()
    if spec == "ghz":
        return ghz_state(n_parties)
    if spec == "zero":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return as_ket(vec)
    if spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            vec = np.array([_complex_pair(pair) for pair in raw], dtype=complex)
        except (OSError, ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"cannot read state file {spec!r}: {exc}") from exc
    else:
        try:
            vec = np.array([complex(float(part), 0.0) for part in spec.split(",")])
        except ValueError as exc:
            raise InputError(f"cannot parse state spec {spec!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise InputError("state amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm):
        raise InputError("state norm overflows a float: amplitudes are too large")
    if norm < 1e-12:
        raise InputError("state amplitudes are all zero")
    vec = vec / norm
    if vec.shape[0] != dim:
        raise InputError(f"state has length {vec.shape[0]}, scenario needs {dim}")
    return as_ket(vec)


def _resolve(args) -> tuple[FamilySpec | None, Scenario | None, np.ndarray | None]:
    """(family, scenario, state) for a run, refusing any argument given that the instance
    does not read.  First the conflicts the arguments alone show: ``--family``, ``--scenario``
    or ``--state`` with ``--preset``; ``--n`` with ``--scenario`` but no ``--family``;
    ``--split-k`` with a ``--family`` other than mk; ``--format`` without ``--out``; an empty
    ``--out``.  Then the instance: from ``--preset``; from ``--scenario`` and ``--state``,
    with ``--family`` over the file's family; or, for a subcommand that takes no
    ``--scenario``, from ``--family`` alone.  Only ``decompose`` runs with no family.  Last,
    a ``--split-k`` with a preset or a file's family must be that mk instance's own split."""
    given = {name for name, value in vars(args).items() if value is not None}
    fixed = "--preset fixes the instance: drop --family, --split-k, --scenario and --state"
    name, n, k = args.family, args.n, args.split_k
    if "preset" in given and given & {"family", "scenario", "state"}:
        raise InputError(fixed)
    if {"n", "scenario"} <= given and "family" not in given:
        raise InputError("--n is read only with --family or --preset, not from a scenario file")
    if k is not None and name not in (None, "mk"):
        raise InputError(f"--split-k applies to mk only, not to {name}")
    if "format" in given and "out" not in given:
        raise InputError("--format applies only with --out")
    if args.out == "":
        raise InputError("--out needs a file path, not an empty string")
    family = scenario = state = None
    if "preset" in given:
        from .presets import preset

        p = preset(args.preset, n)
        family, scenario, state = p.family, p.scenario, p.state
    else:
        if hasattr(args, "scenario"):
            if args.scenario is None:
                raise InputError("either --preset or --scenario is required")
            try:
                scenario, family = load_scenario_file(args.scenario)
            except OSError as exc:
                raise InputError(f"cannot read scenario file: {exc}") from exc
            except ValueError as exc:
                raise InputError(str(exc)) from exc
        if name is not None:
            if n is None and name != "chsh":
                raise InputError(f"--n is required for family {name!r}")
            family = FamilySpec(name=name, n=2 if n is None else n, split_k=1 if k is None else k)
        elif scenario is None:
            raise InputError("--family is required")
        elif family is None and args.command != "decompose":
            raise InputError("no family given on the command line or in the scenario file")
        if scenario is not None:
            state = _parse_state("bell" if args.state is None else args.state, scenario.n_parties)
    if k is not None and (family is None or (family.name, family.split_k) != ("mk", k)):
        if "preset" in given:
            raise InputError(fixed)
        if family is None or family.name != "mk":
            name = family.name if family else "a scenario file with no family"
            raise InputError(f"--split-k applies to mk only, not to {name}")
        raise InputError(f"--split-k {k} disagrees with the scenario file's split_k {family.split_k}")
    return family, scenario, state


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args, family, scenario, state) -> int:
    from ._kernel import SPREAD_EPS, _split

    if family is not None:
        _check_instance(family, scenario, state)
    # each party is a one-site block at its own tensor factor
    images = np.concatenate(
        [
            _images(np.asarray(row)[None, None], state[None], p)[0]
            for p, row in enumerate(scenario.observables)
        ]
    )
    mean, spread, perp = (v[0] for v in _split(images[None], state[None]))
    residual = np.linalg.norm(images - mean[:, None] * state - spread[:, None] * perp, axis=1)
    labels = [(p, s) for p, row in enumerate(scenario.observables) for s in range(len(row))]
    entries = [
        {
            "party": p,
            "setting": s,
            "mean": m,
            "spread": dx,
            "degenerate": dx < SPREAD_EPS,
            "perp": None if dx < SPREAD_EPS else _complex_pairs(v),
            "reconstruction_residual": r,
        }
        for (p, s), m, dx, v, r in zip(
            labels, mean.tolist(), spread.tolist(), perp, residual.tolist()
        )
    ]
    rows = [
        (
            f"party {e['party']} setting {e['setting']}",
            f"mean {_fmt(e['mean'])}  spread {_fmt(e['spread'])}  "
            f"residual {e['reconstruction_residual']:.2e}"
            + ("  (degenerate)" if e["degenerate"] else ""),
        )
        for e in entries
    ]
    doc = {
        "scenario": scenario_to_json_dict(scenario),
        "state": _complex_pairs(state),
        "decompositions": entries,
    }
    return _emit(args, doc, rows)


def _cmd_report(args, family, scenario, state) -> int:
    from .bounds import _report_document

    doc = _report_document(family, scenario, state)
    fields = {k: v for k, v in doc["report"].items() if k not in ("family", "schema_version")}
    rows = [("family", f"{family.name} (n={family.n})"), *fields.items()]
    if "saturation" in doc:
        shown = (f"{k}={'absent' if v is None else v}" for k, v in doc["saturation"].items())
        rows.append(("saturation", ", ".join(shown)))
    if doc.get("pearson"):
        rows.append(("pearson r_chsh", doc["pearson"]["r_chsh"]))
        rows.append(("pearson bound", doc["pearson"]["bound_geometric"]))
    if "cos_lambda" in doc:
        rows.append("cos_lambda")
    csv_chunks = None
    if args.format == "csv":
        csv_chunks = _csv_chunks(list(fields), [[v] for v in fields.values()])
    return _emit(args, doc, rows, chunks=csv_chunks)


def _cmd_optimize(args, family, *_) -> int:
    from .optimize import CONVERGENCE_EPS, seesaw_max

    if args.seeds < 1:
        raise ValueError(f"seeds must be positive, got {args.seeds}")
    results = [
        seesaw_max(family, seed, max_iters=args.max_iters)
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    # best is the first seed within the see-saw's own convergence step of the largest
    # value, so last-bit noise between seeds that reach the same optimum cannot move it
    top = max(r.value for r in results)
    best = next(r for r in results if top - r.value <= CONVERGENCE_EPS * max(1.0, abs(top)))
    doc = {
        "runs": [
            {"seed": r.seed, "value": r.value, "iterations": r.iterations, "converged": r.converged}
            for r in results
        ],
        "best": {
            "seed": best.seed,
            "value": best.value,
            "history": list(best.history),
            "scenario": scenario_to_json_dict(best.scenario, family),
            "state": _complex_pairs(best.state),
        },
    }
    rows = [
        (
            f"seed {r['seed']}",
            f"value {_fmt(r['value'])}  iters {r['iterations']}  converged {r['converged']}",
        )
        for r in doc["runs"]
    ]
    rows.append(("best", f"seed {best.seed}  value {_fmt(best.value)}"))
    return _emit(args, doc, rows, family)


def _cmd_scan(args, family, *_) -> int:
    from ._kernel import _COLUMNS, _scan_passes, _scan_summary, random_scan

    def document(summary) -> dict:
        if summary.non_finite:
            raise ValueError(f"{summary.non_finite} of {args.samples} scan slacks are not finite")
        keys = ("n_samples", "seed", "min_slack", "mean_slack", "violations")
        return {key: getattr(summary, key) for key in keys}

    rows = [("samples", args.samples), "seed", "min_slack", "mean_slack", "violations"]
    if args.format != "csv":
        return _emit(args, document(random_scan(family, args.samples, args.seed)), rows, family)
    # --samples and --seed are checked here, before the file is opened
    passes = _scan_passes(family, args.samples, args.seed)
    doc: dict = {}

    def csv_chunks():
        # each pass's rows are written as the pass is made; only the slacks are kept
        slack = np.empty(args.samples)
        yield from _csv_chunks(["index", *_COLUMNS])
        for start, cols in passes:
            stop = start + len(cols["slack"])
            slack[start:stop] = cols["slack"]
            yield from _csv_chunks((), [range(start, stop), *(cols[name] for name in _COLUMNS)])
            del cols  # free the pass's images and splits before the next pass
        doc.update(document(_scan_summary(family, slack, args.seed)))

    return _emit(args, doc, rows, family, csv_chunks())


def _cmd_sample(args, family, scenario, state) -> int:
    from .montecarlo import (
        _batch_csv_chunks,
        empirical_check,
        estimate,
        estimates_to_json_dict,
        simulate_rounds,
    )

    # checked for every family, although only chsh runs the empirical check
    if not 0.0 <= args.z < np.inf:
        raise ValueError(f"z must be finite and non-negative, got {args.z}")
    batch = simulate_rounds(family, scenario, state, rounds=args.rounds, seed=args.seed)
    est = estimate(batch)
    doc = {
        "rounds": batch.rounds,
        "seed": batch.seed,
        "counts": batch.counts.tolist(),
        "estimates": estimates_to_json_dict(est),
    }
    hat = f"{_fmt(est.bell_value_hat)}  (se {est.se_bell_value:.3e})"
    rows = ["rounds", "seed", ("bell_value_hat", hat), ("rms_hats", doc["estimates"]["rms_hats"])]
    if family.name == "chsh":
        check = empirical_check(est, z=args.z)
        doc["empirical_check"] = dataclasses.asdict(check)
        verdict = "pass" if check.passed else "FAIL"
        rows.append(("empirical_check", f"{verdict}  margin {_fmt(check.margin)}  z {check.z}"))
    csv_chunks = _batch_csv_chunks(batch) if args.format == "csv" else None
    del batch  # JSON needs no per-round arrays: free them before its text is made
    return _emit(args, doc, rows, family, csv_chunks)


def _cmd_lhv(args, family, *_) -> int:
    return _emit(args, {"lhv_max": lhv_max(family)}, ["lhv_max"], family)


# ---------------------------------------------------------------------------
# parser

# every argument of any subcommand: flag -> add_argument keywords; with no default it is None
_ARGUMENTS = {
    "--preset": {},  # choices: presets.PRESET_NAMES, imported where a parser offers --preset
    "--scenario": {"help": "scenario JSON file"},
    "--state": {"help": "state specification (default: bell)"},
    "--family": {"choices": ("chsh", "chained", "mk")},
    "--n": {"type": int, "help": "settings (chained) or parties (mk)"},
    "--split-k": {"type": int},
    "--seed": {"type": int, "default": 0},
    "--seeds": {"type": int, "default": 1, "help": "number of consecutive seeds"},
    "--max-iters": {"type": int, "default": 300},
    "--samples": {"type": int},
    "--rounds": {"type": int},
    "--z": {"type": float, "default": 5.0},
    "--format": {"choices": ("json", "csv")},
    "--out": {"help": "write machine output here"},
}
_FAMILY = ("--family", "--n", "--split-k")
_INSTANCE = ("--preset", "--scenario", "--state", *_FAMILY)

# subcommand -> (handler, help, required arguments, optional arguments): all it reads but
# --out, which every subcommand takes
_COMMANDS = {
    "decompose": (
        _cmd_decompose,
        "mean/spread/perp split of every observable",
        ("--scenario",),
        ("--state", *_FAMILY),
    ),
    "report": (_cmd_report, "Bell value, local part and bounds", (), (*_INSTANCE, "--format")),
    "optimize": (
        _cmd_optimize,
        "see-saw maximization over seeds",
        (),
        (*_FAMILY, "--seed", "--seeds", "--max-iters"),
    ),
    "scan": (
        _cmd_scan,
        "slack statistics over random instances",
        ("--samples",),
        (*_FAMILY, "--seed", "--format"),
    ),
    "sample": (
        _cmd_sample,
        "Born-rule rounds, estimates, bound check",
        ("--rounds",),
        (*_INSTANCE, "--seed", "--z", "--format"),
    ),
    "lhv": (_cmd_lhv, "exact deterministic-strategy maximum", (), _FAMILY),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with ``argv[0]`` a subcommand, that subcommand's alone,
    under a usage line that still names all six; else all six, for help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="bellvar",
        description="Variance-based bounds on Bell inequality violations.",
    )
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, text, required, optional = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag in (*required, *optional, "--out"):
            keywords = dict(_ARGUMENTS[flag], required=flag in required)
            if flag == "--preset":
                from .presets import PRESET_NAMES

                keywords["choices"] = PRESET_NAMES
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        family, scenario, state = _resolve(args)
        return args.func(args, family, scenario, state)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
