"""Command line front end.

Subcommands: decompose, report, optimize, scan, sample, lhv.  A human
readable table always goes to stdout; ``--out PATH`` also writes a
machine readable file, canonical JSON by default.  ``report``, ``scan``
and ``sample`` take ``--format csv`` for a CSV file instead (every format
carries a schema_version field, CSV as a leading comment line).

``decompose`` prints ``A|psi> = <A>|psi> + dA|psi_perp>`` for every
(party, setting) from one-site block images, building no joint operator;
a family from ``--family`` or the file must fit the table, as for report.

Each subcommand imports its layers when called.  At import this module
loads only scenarios, linalg and presets, which parsing, ``--preset`` and
output need; ``lhv`` loads nothing more.  ``scan`` and ``decompose`` load
the kernel module ``_kernel`` only, ``report`` the bounds and
decomposition layers with it, ``optimize`` the search module with it,
and ``sample`` the sampler.

BLAS runs on one thread: before numpy is first imported this module sets
``OMP_NUM_THREADS=1`` unless the caller has set it.  No operator is larger
than 256 x 256, so worker threads only spin between calls, and the
see-saw's sums would round differently with each thread count.  A
caller's ``OMP_NUM_THREADS`` or ``OPENBLAS_NUM_THREADS`` still wins;
a program that imported numpy earlier keeps its own pool.

Exit codes: 0 success, 2 unreadable or malformed input (also argparse
usage errors, ``--preset`` with ``--family``, ``--scenario``, ``--state``
or any ``--split-k`` but an mk preset's own, and a ``--split-k`` the
family would drop: other than 1 for chsh or chained, or one, 1 included,
that disagrees with an mk scenario file's), 3 a domain validation
failure (dimension mismatch, cap exceeded, degenerate spread,
undersampled batch, a non-finite scan slack or JSON value, chsh with an
``--n`` other than 2), 1 unexpected internal error.

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
from .presets import PRESET_NAMES, preset
from .scenarios import (
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _complex_pair,
    _complex_pairs,
    _csv_chunks,
    _images,
    bell_state,
    check_family_scenario,
    family_to_json_dict,
    ghz_state,
    lhv_max,
    load_scenario_file,
    scenario_to_json_dict,
)

__all__ = ["main"]


class InputError(ValueError):
    """Unreadable or malformed user input (exit code 2)."""


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _emit(
    args, rows: list[tuple[str, str]], doc: dict, csv_chunks: Iterable[str] | None = None
) -> int:
    """Print the table; with ``--out``, write the CSV chunks as they are made,
    or with none given ``doc`` as canonical JSON.  The JSON text is made
    before the file is opened and takes no NaN or infinity: such a value
    raises ``ValueError`` and leaves no file behind."""
    text = None
    if args.out and csv_chunks is None:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    print(_table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(csv_chunks if text is None else [text])
    return 0


def _fmt(x: float) -> str:
    return f"{x: .12g}"


def _parse_family(args) -> FamilySpec:
    if args.family is None:
        raise InputError("--family is required (or use --preset)")
    name, n = args.family, args.n
    if name == "chsh" and n is None:
        n = 2
    elif n is None:
        raise InputError(f"--n is required for family {name!r}")
    split_k = args.split_k if name == "mk" and args.split_k is not None else 1
    family = FamilySpec(name=name, n=n, split_k=split_k)
    _check_split_k(args, family)
    return family


def _check_split_k(args, family: FamilySpec) -> None:
    """Fail closed on a ``--split-k`` the family would drop unread."""
    if args.split_k is None or args.split_k == family.split_k:
        return
    if family.name != "mk":
        raise InputError(f"--split-k applies to mk only, not to {family.name}")
    raise InputError(
        f"--split-k {args.split_k} disagrees with the scenario file's split_k {family.split_k}"
    )


def _load_scenario(args) -> tuple[Scenario, FamilySpec | None]:
    """The ``--scenario`` file and its family: ``--family`` if given, else the file's (or None)."""
    try:
        scenario, family = load_scenario_file(args.scenario)
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.family is not None:
        return scenario, _parse_family(args)
    if family is not None:
        _check_split_k(args, family)
    return scenario, family


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


def _state_spec(args) -> str:
    """``--state`` as given, or ``bell`` when it was not."""
    return "bell" if args.state is None else args.state


def _resolve_instance(args) -> tuple[FamilySpec, Scenario, np.ndarray]:
    """(family, scenario, state) from --preset or --family/--scenario/--state."""
    if args.preset is not None:
        fixed = "--preset fixes the instance: drop --family, --split-k, --scenario and --state"
        if args.family is not None or args.scenario is not None or args.state is not None:
            raise InputError(fixed)
        if args.preset not in PRESET_NAMES:
            raise InputError(
                f"unknown preset {args.preset!r}; available: {', '.join(PRESET_NAMES)}"
            )
        p = preset(args.preset, args.n)
        # only an mk preset reads a split, so --split-k may only repeat its own
        if args.split_k is not None and (p.family.name, args.split_k) != ("mk", p.family.split_k):
            raise InputError(fixed)
        return p.family, p.scenario, p.state
    if args.scenario is None:
        raise InputError("either --preset or --scenario is required")
    scenario, family = _load_scenario(args)
    if family is None:
        raise InputError("no family given on the command line or in the scenario file")
    state = _parse_state(_state_spec(args), scenario.n_parties)
    return family, scenario, state


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    from ._kernel import SPREAD_EPS, _split

    scenario, family = _load_scenario(args)
    state = _parse_state(_state_spec(args), scenario.n_parties)
    if family is not None:
        check_family_scenario(family, scenario)
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
    entries = []
    rows: list[tuple[str, str]] = []
    for (p, s), m, dx, v, r in zip(labels, mean.tolist(), spread.tolist(), perp, residual.tolist()):
        degenerate = dx < SPREAD_EPS
        entries.append(
            {
                "party": p,
                "setting": s,
                "mean": m,
                "spread": dx,
                "degenerate": degenerate,
                "perp": None if degenerate else _complex_pairs(v),
                "reconstruction_residual": r,
            }
        )
        detail = (
            f"mean {_fmt(m)}  spread {_fmt(dx)}  "
            f"residual {r:.2e}" + ("  (degenerate)" if degenerate else "")
        )
        rows.append((f"party {p} setting {s}", detail))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_json_dict(scenario),
        "state": _complex_pairs(state),
        "decompositions": entries,
    }
    return _emit(args, rows, doc)


def _report_document(family, scenario, state) -> dict:
    from .avdecomp import DegenerateSpreadError
    from .bounds import (
        SATURATION_ATOL,
        SLACK_FLOOR,
        _bell_report,
        _blocks,
        _pearson,
        _saturation,
        report_to_json_dict,
    )

    cols = _blocks(family, scenario, state)
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if family.name == "chsh":
        doc["saturation"] = dataclasses.asdict(_saturation(cols))
        try:
            doc["pearson"] = dataclasses.asdict(_pearson(cols))
        except DegenerateSpreadError:
            doc["pearson"] = None
    elif family.name == "chained":
        doc["cos_lambda"] = cols["cos_lambda"][0].tolist()
    doc["report"] = report_to_json_dict(_bell_report(family, cols))
    doc["scenario"] = scenario_to_json_dict(scenario, family)
    doc["tolerances"] = {"slack_floor": SLACK_FLOOR, "saturation_atol": SATURATION_ATOL}
    return doc


def _cmd_report(args) -> int:
    family, scenario, state = _resolve_instance(args)
    doc = _report_document(family, scenario, state)
    report = doc["report"]
    keys = [k for k in report if k not in ("family", "schema_version")]
    rows = [("family", f"{family.name} (n={family.n})")]
    rows += [(k, _fmt(report[k])) for k in keys]
    if "saturation" in doc:
        flags = doc["saturation"]
        shown = ", ".join(
            f"{k}={'absent' if v is None else v}" for k, v in flags.items()
        )
        rows.append(("saturation", shown))
    if doc.get("pearson"):
        rows.append(("pearson r_chsh", _fmt(doc["pearson"]["r_chsh"])))
        rows.append(("pearson bound", _fmt(doc["pearson"]["bound_geometric"])))
    if "cos_lambda" in doc:
        rows.append(("cos_lambda", " ".join(_fmt(c) for c in doc["cos_lambda"])))
    csv_chunks = None
    if args.format == "csv":
        csv_chunks = _csv_chunks(keys, [[report[k]] for k in keys])
    return _emit(args, rows, doc, csv_chunks)


def _cmd_optimize(args) -> int:
    from .optimize import seesaw_max

    family = _parse_family(args)
    if args.seeds < 1:
        raise ValueError(f"seeds must be positive, got {args.seeds}")
    results = [
        seesaw_max(family, seed, max_iters=args.max_iters)
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    # best is the first seed that reaches the largest value: seeds equal to the
    # last bit report the lowest of them, so a near-tie can turn on last-bit noise
    best = max(results, key=lambda r: r.value)
    rows = [("family", f"{family.name} (n={family.n})")]
    for res in results:
        rows.append(
            (
                f"seed {res.seed}",
                f"value {_fmt(res.value)}  iters {res.iterations}  "
                f"converged {res.converged}",
            )
        )
    rows.append(("best", f"seed {best.seed}  value {_fmt(best.value)}"))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(family),
        "runs": [
            {
                "seed": r.seed,
                "value": r.value,
                "iterations": r.iterations,
                "converged": r.converged,
            }
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
    return _emit(args, rows, doc)


def _cmd_scan(args) -> int:
    from ._kernel import _COLUMNS, random_scan

    family = _parse_family(args)
    want_rows = args.out is not None and args.format == "csv"
    summary = random_scan(family, args.samples, args.seed, keep_rows=want_rows)
    if summary.non_finite:
        raise ValueError(f"{summary.non_finite} of {summary.n_samples} scan slacks are not finite")
    rows = [
        ("family", f"{family.name} (n={family.n})"),
        ("samples", str(summary.n_samples)),
        ("seed", str(summary.seed)),
        ("min_slack", "undefined" if summary.min_slack is None else _fmt(summary.min_slack)),
        (
            "mean_slack",
            "undefined" if summary.mean_slack is None else _fmt(summary.mean_slack),
        ),
        ("violations", str(summary.violations)),
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(family),
        "n_samples": summary.n_samples,
        "min_slack": summary.min_slack,
        "mean_slack": summary.mean_slack,
        "violations": summary.violations,
        "seed": summary.seed,
    }
    csv_chunks = None
    if want_rows:
        columns = [range(summary.n_samples), *(summary.rows[name] for name in _COLUMNS)]
        csv_chunks = _csv_chunks(["index", *_COLUMNS], columns)
    return _emit(args, rows, doc, csv_chunks)


def _cmd_sample(args) -> int:
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
    family, scenario, state = _resolve_instance(args)
    batch = simulate_rounds(family, scenario, state, rounds=args.rounds, seed=args.seed)
    est = estimate(batch)
    check = None
    if family.name == "chsh":
        check = empirical_check(est, z=args.z)
    rows = [
        ("family", f"{family.name} (n={family.n})"),
        ("rounds", str(batch.rounds)),
        ("seed", str(batch.seed)),
        ("bell_value_hat", f"{_fmt(est.bell_value_hat)}  (se {est.se_bell_value:.3e})"),
        ("rms_hats", " ".join(_fmt(v) for v in est.rms_hats)),
    ]
    if check is not None:
        rows.append(
            (
                "empirical_check",
                f"{'pass' if check.passed else 'FAIL'}  margin {_fmt(check.margin)}  "
                f"z {check.z}",
            )
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(family),
        "rounds": batch.rounds,
        "seed": batch.seed,
        "counts": batch.counts.tolist(),
        "estimates": estimates_to_json_dict(est),
    }
    if check is not None:
        doc["empirical_check"] = dataclasses.asdict(check)
    csv_chunks = _batch_csv_chunks(batch) if args.format == "csv" else None
    return _emit(args, rows, doc, csv_chunks)


def _cmd_lhv(args) -> int:
    family = _parse_family(args)
    value = lhv_max(family)
    rows = [
        ("family", f"{family.name} (n={family.n})"),
        ("lhv_max", _fmt(value)),
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(family),
        "lhv_max": value,
    }
    return _emit(args, rows, doc)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellvar",
        description="Variance-based bounds on Bell inequality violations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, preset_ok=False, scenario_ok=False, format_ok=False):
        p.add_argument("--family", choices=["chsh", "chained", "mk"], default=None)
        p.add_argument("--n", type=int, default=None, help="settings (chained) or parties (mk)")
        p.add_argument("--split-k", type=int, default=None, dest="split_k")
        p.add_argument("--seed", type=int, default=0)
        if format_ok:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write machine output here")
        if preset_ok:
            p.add_argument("--preset", choices=list(PRESET_NAMES), default=None)
        if scenario_ok:
            p.add_argument("--scenario", default=None, help="scenario JSON file")
            p.add_argument(
                "--state", default=None, help="state specification (default: bell)"
            )

    p = sub.add_parser("decompose", help="mean/spread/perp split of every observable")
    add_common(p, scenario_ok=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("report", help="Bell value, local part and bounds")
    add_common(p, preset_ok=True, scenario_ok=True, format_ok=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("optimize", help="see-saw maximization over seeds")
    add_common(p)
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p.add_argument("--max-iters", type=int, default=300, dest="max_iters")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("scan", help="slack statistics over random instances")
    add_common(p, format_ok=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sample", help="Born-rule rounds, estimates, bound check")
    add_common(p, preset_ok=True, scenario_ok=True, format_ok=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--z", type=float, default=5.0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("lhv", help="exact deterministic-strategy maximum")
    add_common(p)
    p.set_defaults(func=_cmd_lhv)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
