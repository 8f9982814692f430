"""Dense complex linear algebra for small multi-qubit systems.

Conventions used throughout the package:

* Kets are 1-d complex numpy arrays, normalized, with power-of-two length.
* The computational basis is |0>, |1> with sigma_z = diag(+1, -1).
* Multi-site kets are ordered big-endian: site 0 is the most significant
  bit, so ``tensor_product(a, b)`` puts ``a`` on site 0.  This matches the
  index convention of ``numpy.kron``.
* Everything is dense.  Dimensions above ``DIM_CAP`` (2**12) are rejected.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["linalg"])

DIM_CAP = 2**12

# Tolerances for input validation and internal consistency checks.
_NORM_ATOL = 1e-12
_HERM_ATOL = 1e-12
_IMAG_ATOL = 1e-10
_EIG_RESIDUAL_ATOL = 1e-10
_DICHOTOMY_ATOL = 1e-10
_PHASE_ATOL = 1e-12
# The shifted power iteration stops once its residual is at most this times
# the shift, or after this many steps; neither stop lowers the Rayleigh quotient.
_POWER_RESIDUAL_RTOL = 1e-13
_POWER_ITERS = 10_000

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_dim(dim: int, what: str) -> None:
    """Raise ``ValueError`` unless ``dim`` is a power of two no larger than ``DIM_CAP``."""
    if not (dim >= 1 and dim & (dim - 1) == 0):
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if dim > DIM_CAP:
        raise ValueError(f"{what} dimension {dim} exceeds cap {DIM_CAP}")


def _real(values: np.ndarray) -> np.ndarray:
    """Real part of complex expectations; an imaginary part above 1e-10 raises ArithmeticError."""
    if not np.all(np.abs(values.imag) <= _IMAG_ATOL):
        raise ArithmeticError(f"expectation has imaginary part {np.abs(values.imag).max():.3e}")
    return values.real


def as_ket(amplitudes) -> np.ndarray:
    """Validate and return a state vector as a complex array.

    The vector must be 1-d, of power-of-two length up to ``DIM_CAP``, and
    normalized to unit norm within 1e-12.  NaN or infinite amplitudes
    fail the norm test.
    """
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"ket must be 1-d, got shape {vec.shape}")
    _check_dim(vec.shape[0], "ket")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= _NORM_ATOL:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return vec


def as_hermitian(entries) -> np.ndarray:
    """Validate and return an operator as a complex Hermitian matrix.

    NaN or infinite entries fail the Hermiticity test.
    """
    op = np.asarray(entries, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    _check_dim(op.shape[0], "operator")
    dev = np.max(np.abs(op - op.conj().T))
    if not dev <= _HERM_ATOL:
        raise ValueError(f"operator is not Hermitian: max deviation {dev:.3e}")
    return op


def is_dichotomic(op: np.ndarray) -> bool:
    """True when ``op @ op`` is the identity within 1e-10 (entrywise)."""
    dim = op.shape[0]
    return bool(np.max(np.abs(op @ op - np.eye(dim))) <= _DICHOTOMY_ATOL)


def tensor_product(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices or kets, left to right.

    Accepts either several array arguments or a single sequence of arrays.
    The first factor acts on site 0 (most significant).
    """
    if len(ops) == 1 and isinstance(ops[0], (list, tuple)):
        ops = tuple(ops[0])
    if len(ops) == 0:
        raise ValueError("tensor_product requires at least one factor")
    factors = [np.asarray(op, dtype=complex) for op in ops]
    # np.kron pads fewer dimensions with leading ones; Python ints, unlike np.prod, never wrap
    ndim = max(factor.ndim for factor in factors)
    dim = math.prod(factor.shape[0] for factor in factors if factor.ndim == ndim)
    if dim > DIM_CAP:
        raise ValueError(f"tensor product dimension {dim} exceeds cap {DIM_CAP}")
    return functools.reduce(np.kron, factors)


def expectation(op: np.ndarray, ket: np.ndarray) -> float:
    """<ket|op|ket> as a real number.

    The imaginary part of the raw expectation must vanish within 1e-10;
    anything larger signals a non-Hermitian operator slipping through and
    is treated as an internal error.  A dimension mismatch between ``op``
    and ``ket`` raises ``ValueError``.
    """
    if op.shape[1] != ket.shape[0]:
        raise ValueError(f"dimension mismatch: operator {op.shape} on ket of length {ket.shape[0]}")
    return float(_real(np.vdot(ket, op @ ket)))


def _fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero amplitude is real positive.

    The first amplitude with modulus above 1e-12 (in basis order) sets the
    phase.  ``top_eigenpair`` and ``_shifted_power_state`` fix their
    eigenvectors' phase this way; the zero vector is returned unchanged.
    """
    for amp in vec:
        if abs(amp) > _PHASE_ATOL:
            return vec * (amp.conjugate() / abs(amp))
    return vec


def top_eigenpair(op: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a matching phase-fixed unit eigenvector.

    Raises when the input is not Hermitian or when the residual
    ``||op v - w v||`` exceeds 1e-10 (an internal solver failure).  In a
    degenerate top eigenspace the returned vector is the solver's last
    column, made deterministic by the global phase convention.
    """
    op = as_hermitian(op)
    vals, vecs = np.linalg.eigh(op)
    w = float(vals[-1])
    v = _fix_global_phase(vecs[:, -1])
    residual = np.linalg.norm(op @ v - w * v)
    if residual > _EIG_RESIDUAL_ATOL * max(1.0, abs(w)):
        raise ArithmeticError(f"eigenpair residual {residual:.3e} above tolerance")
    return w, v


def _shifted_power_state(op: np.ndarray, start: np.ndarray, shift: float) -> np.ndarray:
    """Top eigenvector of Hermitian ``op`` by power iteration on ``op + shift I`` from ``start``.

    ``shift`` must bound ``||op||``.  Then ``op + shift I`` is positive
    semidefinite, so no step lowers the Rayleigh quotient and the iteration
    cannot settle on a most negative eigenvalue of larger modulus.  It stops
    once ``||op v - <v|op|v> v|| <= 1e-13 shift`` or after ``_POWER_ITERS``
    steps, whichever comes first: a start that is already a top eigenvector
    takes no step.  A non-finite iterate raises ``ArithmeticError``.
    """
    shifted = as_hermitian(op) + shift * np.eye(op.shape[0])
    vec = start
    for _ in range(_POWER_ITERS):
        image = shifted @ vec
        gap = image - np.vdot(vec, image).real * vec
        residual = math.sqrt(np.vdot(gap, gap).real)
        if not math.isfinite(residual):
            raise ArithmeticError("power iteration reached a non-finite iterate")
        if residual <= _POWER_RESIDUAL_RTOL * shift:
            break
        vec = image / math.sqrt(np.vdot(image, image).real)
    return _fix_global_phase(vec)


def haar_random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized vector of iid complex Gaussians."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return as_ket(raw / np.linalg.norm(raw))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style random Hermitian matrix, entries O(1)."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return as_hermitian((raw + raw.conj().T) / 2.0)
