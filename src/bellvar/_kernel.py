"""The one kernel pass, its image split, and the random scan that drives it.

``_columns`` is the two-block kernel behind every report, and
``_scan_passes`` runs it one pass at a time over random instances, for
``random_scan`` and for the command line's scan CSV, which writes each
pass's rows as soon as the pass is made.  The report
layer (``bounds``), the decomposition records (``avdecomp``) and the
see-saw (``optimize``) import these names back and export the public
ones, so ``bellvar.SPREAD_EPS``, ``bellvar.DegenerateSpreadError``,
``bellvar.SLACK_FLOOR``, ``bellvar.ScanSummary`` and
``bellvar.random_scan`` are the objects defined here.  This module
imports only ``linalg`` and ``scenarios``: ``scan`` and ``decompose``
reach the kernel without loading the report, decomposition and see-saw
records they never build, and ``report`` without the decomposition
records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import _DICHOTOMY_ATOL, _NORM_ATOL, SIGMA_X, SIGMA_Y, SIGMA_Z, _real
from .scenarios import FamilySpec, _images, _philox, chsh_coefficients, coefficient_tensor

# Below this absolute spread the fluctuation direction is undefined.
SPREAD_EPS = 1e-9

# Quantum slacks may dip this far below zero from rounding, never more.
SLACK_FLOOR = -1e-9

_PAULIS = np.array((SIGMA_X, SIGMA_Y, SIGMA_Z))
# A scan pass holds at most _SCAN_CHUNK instances x dim (its images) and _SCAN_CORRELATORS
# instances x settings^2 (its correlators); the second binds only chained(n > 8).
_SCAN_CHUNK = 2**10
_SCAN_CORRELATORS = 2**14

# The per-instance columns of every report, in the order scan rows and scan CSV files carry them.
_COLUMNS = ("bell_value", "local_part", "rms_a", "rms_b", "bound_statistical", "slack")


class DegenerateSpreadError(ValueError):
    """An operation needed a fluctuation direction but the spread is zero."""


def _split(images: np.ndarray, states: np.ndarray):
    """Mean, spread and fluctuation direction of each image ``A_x|psi_i>`` of a Hermitian ``A_x``.

    ``images`` has shape ``(N, S, d)`` and ``states`` shape ``(N, d)``; the
    results have shapes ``(N, S)``, ``(N, S)`` and ``(N, S, d)``, with
    ``perp`` zero where ``spread < SPREAD_EPS``.  Raises ``ArithmeticError``
    unless every mean ``<psi_i|image>`` has an imaginary part of at most
    1e-10 (a non-Hermitian operator or a non-finite state slipped through).
    """
    mean = _real(np.einsum("id,isd->is", states.conj(), images))
    fluct = images - mean[..., None] * states[:, None]
    spread = np.linalg.norm(fluct, axis=-1)
    degenerate = spread < SPREAD_EPS
    perp = fluct / np.where(degenerate, 1.0, spread)[..., None]
    perp[degenerate] = 0.0
    return mean, spread, perp


def _columns(family: FamilySpec, stacks: np.ndarray, states: np.ndarray) -> dict:
    """The one kernel pass: the family's expression and budget on a stack of instances.

    ``stacks`` holds the observables, shape ``(N, parties, settings, 2,
    2)``, and ``states`` the kets, shape ``(N, 2**parties)``.  Block A is
    the leading party, or the leading ``split_k`` parties of an MK
    expression, whose two block pairs take the CHSH coefficients; block B
    is the rest.  The correlators are ``Re(A_img^* B_img^T)``, and no
    operator is ever formed.

    Returns one length-N array per name in ``_COLUMNS``, the images
    ``a_img[i, x] = (A_x x I)|psi_i>`` and ``b_img[i, y] = (I x B_y)|psi_i>``,
    and their ``(mean, spread, perp)`` arrays ``a_split``/``b_split``.
    """
    k = family.split_k
    coeff = coefficient_tensor(family) if family.name == "chained" else chsh_coefficients()
    a_img = _images(stacks[:, :k], states, 0)
    b_img = _images(stacks[:, k:], states, k)
    a_split = _split(a_img, states)
    b_split = _split(b_img, states)
    (mean_a, spread_a, _), (mean_b, spread_b, perp_b) = a_split, b_split
    bell = np.sum(coeff * (a_img.conj() @ b_img.swapaxes(-1, -2)).real, axis=(1, 2))
    local = np.einsum("xy,ix,iy->i", coeff, mean_a, mean_b)
    rms_a = np.sqrt(np.sum(spread_a**2, axis=1))
    rms_b = np.sqrt(np.sum(spread_b**2, axis=1))
    cols = {"a_img": a_img, "b_img": b_img, "a_split": a_split, "b_split": b_split}
    cols.update(bell_value=bell, local_part=local, rms_a=rms_a, rms_b=rms_b)
    # the one budget: rms_a ||C F_b||_F, the rows of F_b being dB_y perp_y
    bound = rms_a * np.linalg.norm(coeff @ (spread_b[..., None] * perp_b), axis=(1, 2))
    cols["bound_statistical"] = bound
    cols["slack"] = bound + local - bell
    return cols


@dataclass(frozen=True)
class ScanSummary:
    """Slack statistics over random instances of one family.

    ``violations`` counts samples whose slack is not at or above the
    rounding floor ``SLACK_FLOOR``, NaN included; a NaN slack also
    propagates into ``min_slack``.  ``non_finite`` counts the NaN and
    infinite slacks on their own.  ``min_slack``/``mean_slack`` are None
    for an empty scan.
    """

    family: FamilySpec
    n_samples: int
    min_slack: float | None
    mean_slack: float | None
    violations: int
    non_finite: int
    seed: int


def _draw(rng: np.random.Generator, m: int, shape: tuple[int, int], dim: int):
    """Observable stacks ``(m, parties, settings, 2, 2)`` and kets ``(m, dim)`` of ``m`` random
    instances.

    Instance i consumes the Philox stream exactly as ``random_scenario``
    followed by ``haar_random_ket`` would: three normals per setting,
    party by party, each triple normalized to a Bloch vector, then the
    real and the imaginary parts of the state; instance 0 is
    ``seesaw_max``'s start.  A Gaussian triple of norm at most 1e-12, which
    ``uniform_bloch`` would redraw, raises ``ArithmeticError`` (probability
    below 1e-36).
    """
    n_bloch = 3 * shape[0] * shape[1]
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
    return np.tensordot(bloch, _PAULIS, axes=(-1, 0)), states


def _scan_passes(family: FamilySpec, n_samples: int, seed: int) -> Iterator[tuple[int, dict]]:
    """The kernel passes of a random scan, lazily: ``(start, columns)`` per pass, ``columns`` as
    :func:`_columns` returns them for the next ``m`` instances of :func:`_draw`.

    A pass covers ``m = min(_SCAN_CHUNK // dim, _SCAN_CORRELATORS // S**2)``
    instances, S settings per party (at least one; fewer in the last), and
    holds none of the draw's scratch while the kernel runs.  ``n_samples``
    and ``seed`` are checked when this is called, before the first pass.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = _philox(seed)
    shape = (family.n_parties, family.settings_per_party[0])
    dim = 2**family.n_parties
    chunk = max(1, min(_SCAN_CHUNK // dim, _SCAN_CORRELATORS // shape[1] ** 2))
    return (
        (start, _columns(family, *_draw(rng, min(chunk, n_samples - start), shape, dim)))
        for start in range(0, n_samples, chunk)
    )


def _scan_summary(family: FamilySpec, slack: np.ndarray, seed: int) -> ScanSummary:
    """The summary of a scan from its whole slack column."""
    n_samples = len(slack)
    return ScanSummary(
        family=family,
        n_samples=n_samples,
        min_slack=float(np.min(slack)) if n_samples else None,
        mean_slack=float(np.mean(slack)) if n_samples else None,
        violations=int(np.count_nonzero(~(slack >= SLACK_FLOOR))),
        non_finite=int(np.count_nonzero(~np.isfinite(slack))),
        seed=int(seed),
    )


def random_scan(family: FamilySpec, n_samples: int, seed: int) -> ScanSummary:
    """Slack statistics over Haar states and uniform-Bloch settings.

    The instances are drawn (see :func:`_draw`) and reported one kernel
    pass at a time (see :func:`_scan_passes`), and only the slacks are kept
    across passes; the command line writes its scan CSV from the same
    passes.
    """
    passes = _scan_passes(family, n_samples, seed)
    slack = np.empty(n_samples)
    for start, cols in passes:
        slack[start : start + len(cols["slack"])] = cols["slack"]
        del cols  # it holds the pass's images and splits: free them before the next pass
    return _scan_summary(family, slack, seed)
