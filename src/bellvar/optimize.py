"""See-saw maximization of Bell expressions and related search utilities.

The see-saw alternates two exact coordinate maximizations:

* state step: the state becomes the top eigenvector of the current Bell
  operator ``B``, by power iteration on ``B + s I`` with ``s = sum |c|``.
  Every term is a product of +-1 unitaries, so ``||B|| <= s`` and the
  shifted operator is positive semidefinite: no step lowers the value.
  The first sweep starts from the scan's instance 0 (``_kernel._draw``);
  each later sweep starts from the previous sweep's state, which is a top
  eigenvector already or close to one, and takes few steps or none
  (``linalg._shifted_power_state``);
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
nondecreasing up to rounding.  A sweep is no gain when it rises at most
``CONVERGENCE_EPS * max(1, |best|)`` above the best so far (``_no_gain``,
which also picks the command line's best seed).  All randomness comes
from numpy's Philox generator, a counter-based stream that reproduces
across platforms for a given integer seed.

``random_scan`` and ``ScanSummary`` are defined in ``_kernel``, next to
the kernel pass the scan drives, and exported from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._kernel import _PAULIS, ScanSummary, _draw, random_scan
from .linalg import _real, _shifted_power_state
from .scenarios import (
    FamilySpec,
    Scenario,
    _contract,
    _density,
    _flat,
    _philox,
    bloch_observable,
    bloch_of,
    chsh_coefficients,
    coefficient_tensor,
    from_bloch_table,
    operator_from_tensor,
)

__all__ = list(_EXPORTS["optimize"])

# A rise of at most this, relative to max(1, |best|), is no gain; three sweeps running converge.
CONVERGENCE_EPS = 1e-12
_STALL_SWEEPS = 3
_GRADIENT_EPS = 1e-12


def _no_gain(value: float, best: float) -> bool:
    """Whether ``value`` rises no more than ``CONVERGENCE_EPS * max(1, |best|)`` above ``best``."""
    return value - best <= CONVERGENCE_EPS * max(1.0, abs(best))


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one seeded see-saw run.

    ``history`` holds the value after each sweep, nondecreasing within
    rounding, and ``iterations`` its length.  ``value`` is ``max(history)``;
    ``state`` and ``scenario`` are the last sweep's, worth ``history[-1]``,
    which rounding may leave just below ``value``.
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

    Starts from instance 0 of ``random_scan`` with the same seed.  Convergence
    means three consecutive sweeps were no gain (``_no_gain``) before
    ``max_iters`` ran out; otherwise ``converged=False``.  Either way the
    last iterate comes back, with the history's best value.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    parties = family.n_parties
    stacks, states = _draw(_philox(seed), 1, (parties, family.settings_per_party[0]), 2**parties)
    observables, state = [list(row) for row in stacks[0]], states[0]
    coeff = coefficient_tensor(family)
    # every term is a product of +-1 unitaries, so ||B|| <= sum |c|
    shift = float(np.abs(coeff).sum())

    history: list[float] = []
    stall = 0
    for _ in range(max_iters):
        state = _shifted_power_state(operator_from_tensor(coeff, observables), state, shift)
        prefix = _density(state, family.n_parties)
        for p in range(family.n_parties):
            others = [q for q in range(family.n_parties) if q != p]
            stacks = [_flat(row) for row in [_PAULIS, *observables[p + 1 :]]]
            grads = np.tensordot(coeff, _real(_contract(prefix, stacks)), axes=(others, others))
            for s, g in enumerate(grads):
                norm = float(np.linalg.norm(g))
                if norm < _GRADIENT_EPS:
                    continue
                observables[p][s] = bloch_observable(g / norm)
            prefix = _contract(prefix, [_flat(observables[p])])
        value = float(np.sum(coeff * _real(prefix)))
        stall = stall + 1 if history and _no_gain(value, max(history)) else 0
        history.append(value)
        if stall >= _STALL_SWEEPS:
            break

    final = from_bloch_table([[bloch_of(op) for op in row] for row in observables])
    return OptimizationResult(
        family=family,
        value=max(history),
        state=state,
        scenario=final,
        iterations=len(history),
        converged=stall >= _STALL_SWEEPS,
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

    f0 = f(np.zeros(4))
    axes = np.eye(4) * step
    up = np.array([f(e) for e in axes])
    down = np.array([f(-e) for e in axes])
    second = (up - 2.0 * f0 + down) / step**2
    hessian = np.diag(second)
    for i, j in itertools.combinations(range(4), 2):
        ei, ej = axes[i], axes[j]
        mixed = f(ei + ej) - f(ei - ej) - f(ej - ei) + f(-ei - ej)
        hessian[i, j] = hessian[j, i] = mixed / (4.0 * step**2)
    return StationarityReport(
        value_at_origin=f0,
        gradient=tuple(((up - down) / (2.0 * step)).tolist()),
        second_partials=tuple(second.tolist()),
        hessian_eigenvalues=tuple(np.linalg.eigvalsh(hessian).tolist()),
        step=float(step),
    )
