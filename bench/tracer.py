"""In-memory span tracer that wraps bellvar's public functions from outside.

The package's modules import each other's functions by name (``optimize``
calls ``report_for``, ``bounds`` calls ``operator_from_tensor``), so a
wrapper must replace the function in every ``bellvar`` module namespace
that binds it, not only in the defining module.  ``Tracer.installed()``
does that for the functions in ``TRACED`` and puts the originals back on
exit.  Nothing in the package itself changes.

Each call becomes a span: name, start, end and parent span.  Spans are
kept in flat arrays (tens of thousands of calls per scan) and written out
once, at the end.  A span's self time is its duration minus the durations
of its direct children; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

# module -> public functions wrapped in a traced run
TRACED = {
    "linalg": ("tensor_product", "top_eigenpair", "haar_random_ket", "as_hermitian"),
    "scenarios": ("operator_from_tensor", "random_scenario", "lhv_max"),
    "avdecomp": ("av_decompose",),
    "bounds": ("report_for", "chsh_report", "chained_report", "mk_report"),
    "optimize": ("random_scan", "seesaw_max"),
    "presets": ("preset",),
    "montecarlo": ("simulate_rounds", "estimate", "empirical_check", "batch_to_csv"),
    "cli": ("main",),
}


def _count_scan(work, args, kwargs, result):
    work["optimize.random_scan.instances"] += result.n_samples


def _count_seesaw(work, args, kwargs, result):
    work["optimize.seesaw_max.runs"] += 1
    work["optimize.seesaw_max.sweeps"] += result.iterations
    work["optimize.seesaw_max.converged"] += int(result.converged)


def _count_rounds(work, args, kwargs, result):
    work["montecarlo.simulate_rounds.rounds"] += result.rounds


def _count_csv_rows(work, args, kwargs, result):
    batch = args[0] if args else kwargs["batch"]
    work["montecarlo.batch_to_csv.rows"] += batch.rounds


# work counters read off a call's arguments or result
_COUNTERS = {
    "optimize.random_scan": _count_scan,
    "optimize.seesaw_max": _count_seesaw,
    "montecarlo.simulate_rounds": _count_rounds,
    "montecarlo.batch_to_csv": _count_csv_rows,
}


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.name_ix = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start_ns)

    def _wrap(self, ix: int, fn):
        counter = _COUNTERS.get(self.names[ix])
        name_ix, start_ns, end_ns, parent = self.name_ix, self.start_ns, self.end_ns, self.parent
        stack, work, clock = self._stack, self.work, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(start_ns)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end_ns.append(0)
            stack.append(span)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[span] = clock()
                stack.pop()
            if counter is not None:
                counter(work, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of a traced function in the ``bellvar`` modules."""
        defining = {mod: importlib.import_module(f"bellvar.{mod}") for mod in TRACED}
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bellvar" or name.startswith("bellvar."))
        ]
        patches = []
        for ix, qualname in enumerate(self.names):
            mod_name, fn_name = qualname.split(".")
            original = getattr(defining[mod_name], fn_name)
            wrapper = self._wrap(ix, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in patches:
                setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self)
        for span in range(len(self)):
            p = self.parent[span]
            if p >= 0:
                child_ns[p] += self.end_ns[span] - self.start_ns[span]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for span in range(len(self)):
            dur = self.end_ns[span] - self.start_ns[span]
            row = out[self.names[self.name_ix[span]]]
            row["calls"] += 1
            row["incl_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[span]) / 1e9
        return out

    def nesting_errors(self) -> list[str]:
        """Spans whose parent does not precede and enclose them."""
        errors = []
        for span in range(len(self)):
            p = self.parent[span]
            if self.end_ns[span] < self.start_ns[span]:
                errors.append(f"span {span} ends before it starts")
            if p < 0:
                continue
            if p >= span:
                errors.append(f"span {span} has later parent {p}")
            elif not (
                self.start_ns[p] <= self.start_ns[span] and self.end_ns[span] <= self.end_ns[p]
            ):
                errors.append(f"span {span} is not inside parent {p}")
        return errors

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for span in range(len(self)):
                fh.write(
                    f"{span},{self.names[self.name_ix[span]]},{self.start_ns[span]},"
                    f"{self.end_ns[span]},{self.parent[span]}\n"
                )
