"""See-saw maximization of Bell expressions and related search utilities.

The see-saw alternates two exact coordinate maximizations:

* state step: the state becomes the top eigenvector of the current Bell
  operator;
* setting step: party by party, each single-qubit observable becomes
  ``g . sigma / |g|``.  ``g_j`` is the state's expectation of the terms
  that contain that setting, with that observable replaced by
  ``sigma_j``.  One expectation tensor per party, with the stack
  ``[sigma_x, sigma_y, sigma_z]`` in that party's slot, contracted with
  the coefficient tensor over the other parties' settings, gives ``g`` for
  all of the party's settings at once.  No term holds two settings of one
  party, so updating them together is exact; the value is linear in the
  Bloch vector, so the normalized gradient is the exact argmax.  A sweep
  builds one density and folds each updated party into a shared prefix.

Both steps can only increase the objective, so the recorded history is
nondecreasing up to rounding.  All randomness (initial settings, scan
instances) comes from numpy's Philox generator, a counter-based stream
that reproduces across platforms for a given integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _DICHOTOMY_ATOL, _NORM_ATOL, SIGMA_X, SIGMA_Y, SIGMA_Z, top_eigenpair
from .scenarios import (
    FamilySpec,
    Scenario,
    _contract,
    _density,
    _flat,
    _philox,
    _real,
    bloch_observable,
    bloch_of,
    chsh_coefficients,
    coefficient_tensor,
    from_bloch_table,
    operator_from_tensor,
    random_scenario,
)

__all__ = [
    "CONVERGENCE_EPS",
    "OptimizationResult",
    "ScanSummary",
    "StationarityReport",
    "seesaw_max",
    "statistical_chsh_surface",
    "stationarity_check",
    "random_scan",
]

# An improvement below this, three sweeps running, counts as converged.
CONVERGENCE_EPS = 1e-12
_STALL_SWEEPS = 3
_GRADIENT_EPS = 1e-12
_PAULIS = np.array((SIGMA_X, SIGMA_Y, SIGMA_Z))
# A scan reports its instances in chunks of at most this many instances x dim (images are dim-long).
_SCAN_CHUNK = 2**10


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one seeded see-saw run.

    ``value`` is the expression's expectation in ``state`` under the
    final ``scenario`` settings; ``history`` holds the value after each
    sweep and is nondecreasing within rounding.
    """

    family: FamilySpec
    value: float
    state: np.ndarray
    scenario: Scenario
    iterations: int
    converged: bool
    history: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class ScanSummary:
    """Slack statistics over random instances of one family.

    ``violations`` counts samples whose slack is not at or above the
    rounding floor ``bounds.SLACK_FLOOR``, NaN included; a NaN slack also
    propagates into ``min_slack``.  ``non_finite`` counts the NaN and
    infinite slacks on their own.  ``min_slack``/``mean_slack`` are None
    for an empty scan.  ``rows`` optionally keeps the per-instance rows for
    CSV export, stored by column: one length-``n_samples`` array per name in
    ``bounds._COLUMNS``, instance i at position i.  It is not part of the
    summary proper and takes no part in comparisons.
    """

    family: FamilySpec
    n_samples: int
    min_slack: float | None
    mean_slack: float | None
    violations: int
    non_finite: int
    seed: int
    rows: dict[str, np.ndarray] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class StationarityReport:
    """Finite-difference stationarity tests of the mean surface at the origin.

    ``gradient`` and ``second_partials`` are central differences along
    the four mean axes; ``hessian_eigenvalues`` is the spectrum of the
    full mixed-difference Hessian (recorded for completeness, the
    negativity claims are about the diagonal).
    """

    value_at_origin: float
    gradient: tuple[float, float, float, float]
    second_partials: tuple[float, float, float, float]
    hessian_eigenvalues: tuple[float, float, float, float]
    step: float


def seesaw_max(family: FamilySpec, seed: int, max_iters: int = 300) -> OptimizationResult:
    """Alternating state/setting maximization from a seeded random start.

    Deterministic for a given seed.  Convergence means the per-sweep
    improvement stayed below 1e-12 for three consecutive sweeps before
    ``max_iters`` ran out; otherwise the best iterate so far is returned
    with ``converged=False``.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    rng = _philox(seed)
    start = random_scenario(family, rng)
    observables = [list(row) for row in start.observables]
    coeff = coefficient_tensor(family)
    flats = [_flat(row) for row in observables]

    history: list[float] = []
    state = None
    prev = -np.inf
    stall = 0
    iterations = 0
    converged = False
    for _ in range(max_iters):
        iterations += 1
        _, state = top_eigenpair(operator_from_tensor(coeff, observables))
        prefix = _density(state, family.n_parties)
        for p in range(family.n_parties):
            others = [q for q in range(family.n_parties) if q != p]
            expectations = _real(_contract(prefix, [_flat(_PAULIS), *flats[p + 1 :]]))
            grads = np.tensordot(coeff, expectations, axes=(others, others))
            for s, g in enumerate(grads):
                norm = float(np.linalg.norm(g))
                if norm < _GRADIENT_EPS:
                    continue
                observables[p][s] = bloch_observable(g / norm)
            flats[p] = _flat(observables[p])
            prefix = _contract(prefix, [flats[p]])
        value = float(np.sum(coeff * _real(prefix)))
        history.append(value)
        if value - prev < CONVERGENCE_EPS:
            stall += 1
            if stall >= _STALL_SWEEPS:
                converged = True
                prev = max(prev, value)
                break
        else:
            stall = 0
        prev = max(prev, value)

    final = from_bloch_table([[bloch_of(op) for op in row] for row in observables])
    return OptimizationResult(
        family=family,
        value=float(prev),
        state=state,
        scenario=final,
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        seed=int(seed),
    )


def statistical_chsh_surface(means_a, means_b) -> float:
    """Local part plus fluctuation budget as a function of the four means.

    ``sum_xy c_xy a_x b_y + sqrt(2) sqrt(sum_x (1 - a_x^2))
    sqrt(sum_y (1 - b_y^2))``: the largest CHSH value compatible with the
    given single-observable means.  All means must lie in [-1, 1].
    """
    a = np.asarray(means_a, dtype=float)
    b = np.asarray(means_b, dtype=float)
    if a.shape != (2,) or b.shape != (2,):
        raise ValueError("means_a and means_b must each hold two values")
    if not (np.all(np.abs(a) <= 1.0) and np.all(np.abs(b) <= 1.0)):
        raise ValueError("means must lie in [-1, 1]")
    coeff = chsh_coefficients()
    local = float(sum(coeff[x, y] * a[x] * b[y] for x in range(2) for y in range(2)))
    budget_a = float(np.sqrt(max(2.0 - a[0] ** 2 - a[1] ** 2, 0.0)))
    budget_b = float(np.sqrt(max(2.0 - b[0] ** 2 - b[1] ** 2, 0.0)))
    return local + float(np.sqrt(2.0)) * budget_a * budget_b


def stationarity_check(step: float = 1e-4) -> StationarityReport:
    """Central-difference stationarity test of the surface at zero means.

    Steps outside (0, 1e-3] are rejected: larger stencils leave the
    regime where the quadratic model is trustworthy.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")

    def f(v: np.ndarray) -> float:
        return statistical_chsh_surface(v[:2], v[2:])

    origin = np.zeros(4)
    f0 = f(origin)
    gradient = []
    second = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = step
        up, down = f(origin + e), f(origin - e)
        gradient.append((up - down) / (2.0 * step))
        second.append((up - 2.0 * f0 + down) / step**2)
    hessian = np.zeros((4, 4))
    for i in range(4):
        hessian[i, i] = second[i]
        for j in range(i + 1, 4):
            ei = np.zeros(4)
            ej = np.zeros(4)
            ei[i] = step
            ej[j] = step
            mixed = (
                f(origin + ei + ej)
                - f(origin + ei - ej)
                - f(origin - ei + ej)
                + f(origin - ei - ej)
            ) / (4.0 * step**2)
            hessian[i, j] = hessian[j, i] = mixed
    eigs = np.linalg.eigvalsh(hessian)
    return StationarityReport(
        value_at_origin=f0,
        gradient=tuple(float(g) for g in gradient),
        second_partials=tuple(float(s) for s in second),
        hessian_eigenvalues=tuple(float(w) for w in eigs),
        step=float(step),
    )


def random_scan(
    family: FamilySpec, n_samples: int, seed: int, keep_rows: bool = False
) -> ScanSummary:
    """Slack statistics over Haar states and uniform-Bloch settings.

    Instance i consumes the Philox stream exactly as ``random_scenario``
    followed by ``haar_random_ket`` would: three normals per setting,
    party by party, each triple normalized to a Bloch vector, then the
    real and the imaginary parts of the state.  The instances are drawn
    and reported a chunk at a time (at most ``_SCAN_CHUNK // dim`` of
    them, at least one) through the stacked report kernel, and only the
    slacks are kept across chunks.  ``keep_rows=True`` keeps every
    ``_COLUMNS`` array instead (for CSV export).  A Gaussian
    triple of norm at most 1e-12, which ``uniform_bloch`` would redraw,
    raises ``ArithmeticError`` (probability below 1e-36).
    """
    from .bounds import _COLUMNS, SLACK_FLOOR, _columns

    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = _philox(seed)
    shape = (family.n_parties, family.settings_per_party[0])
    n_bloch = 3 * shape[0] * shape[1]
    dim = 2**family.n_parties
    chunk = max(1, _SCAN_CHUNK // dim)
    columns = {name: np.empty(n_samples) for name in (_COLUMNS if keep_rows else ("slack",))}
    for start in range(0, n_samples, chunk):
        m = min(chunk, n_samples - start)
        normals = rng.standard_normal((m, n_bloch + 2 * dim))
        bloch = normals[:, :n_bloch].reshape(m, *shape, 3)
        norms = np.linalg.norm(bloch, axis=-1, keepdims=True)
        if not np.all(norms > 1e-12):
            raise ArithmeticError("a Gaussian Bloch triple has norm at most 1e-12")
        bloch = bloch / norms
        # |v|^2 = 1 is the dichotomy of v . sigma, which is Hermitian for real v.
        if not np.all(np.abs(np.sum(bloch**2, axis=-1) - 1.0) <= _DICHOTOMY_ATOL):
            raise ValueError("a drawn observable is not dichotomic")
        raw = normals[:, n_bloch : n_bloch + dim] + 1j * normals[:, n_bloch + dim :]
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        if not np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= _NORM_ATOL):
            raise ValueError("a drawn state is not normalized")
        cols = _columns(family, np.tensordot(bloch, _PAULIS, axes=(-1, 0)), states)
        for name, column in columns.items():
            column[start : start + m] = cols[name]
    slack = columns["slack"]
    return ScanSummary(
        family=family,
        n_samples=n_samples,
        min_slack=float(np.min(slack)) if n_samples else None,
        mean_slack=float(np.mean(slack)) if n_samples else None,
        violations=int(np.count_nonzero(~(slack >= SLACK_FLOOR))),
        non_finite=int(np.count_nonzero(~np.isfinite(slack))),
        seed=int(seed),
        rows=columns if keep_rows else None,
    )
