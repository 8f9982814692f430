"""State decomposition along an observable, and what it says about correlators.

Any Hermitian ``A`` splits its action on a state into a mean part and a
fluctuation part::

    A|psi> = <A> |psi> + dA |psi_perp>

where ``<A>`` is the expectation, ``dA = sqrt(<A^2> - <A>^2)`` the spread
(standard deviation), and ``|psi_perp>`` a normalized vector orthogonal to
``|psi>``.  The decomposition is unique; when the spread vanishes there is
no fluctuation direction and ``perp`` is absent.

The spread is computed as the norm ``||A|psi> - <A>|psi>||`` of the
fluctuation part, never as the difference of moments: for a state that
is an eigenstate normalized only to rounding, ``<A^2> - <A>^2`` is
rounding noise of order 1e-16, and its square root (about 1e-8) would
pass the ``SPREAD_EPS`` test although no fluctuation direction exists.

For two observables the identity lifts to the correlator::

    <AB> = <A><B> + dA dB <psi_A_perp|psi_B_perp>

which is the bridge between raw correlators, their local (product) part,
and the overlap geometry of the fluctuation directions.  All of the Bell
bound machinery in this package is built on these two identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._kernel import SPREAD_EPS, DegenerateSpreadError, _split
from .linalg import _real

__all__ = list(_EXPORTS["avdecomp"])

_COMMUTATOR_ATOL = 1e-8


@dataclass(frozen=True)
class AVDecomposition:
    """Mean/spread/fluctuation-direction split of ``A|psi>``.

    ``perp`` is None when ``spread < SPREAD_EPS`` (degenerate case: the
    state is an eigenstate of the observable).  Otherwise ``perp`` is the
    unit vector ``(A - <A>)|psi> / spread``, orthogonal to ``|psi>``; its
    phase is inherited from that expression, which makes the
    reconstruction ``A|psi> = mean |psi> + spread perp`` exact.
    """

    mean: float
    spread: float
    perp: np.ndarray | None

    @property
    def degenerate(self) -> bool:
        return self.perp is None


@dataclass(frozen=True)
class CorrelatorSplit:
    """Correlator of a commuting pair split into local and fluctuation parts.

    ``joint = local_product + spread_product * overlap`` up to rounding,
    with ``overlap = <psi_A_perp|psi_B_perp>`` (set to zero when either
    spread is degenerate, which makes the identity exact in that case too).
    """

    joint: float
    local_product: float
    spread_product: float
    overlap: complex


def av_decompose(op: np.ndarray, state: np.ndarray) -> AVDecomposition:
    """Split ``op|state>`` into mean and fluctuation components.

    ``op`` must be Hermitian on the same space as ``state``; validation is
    the caller's job (scenario constructors and the CLI boundary enforce
    it), this routine only guards against a non-real or non-finite mean.
    """
    if op.shape[1] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {op.shape} on state of length {state.shape[0]}"
        )
    mean, spread, perp = (v[0, 0] for v in _split((op @ state)[None, None], state[None]))
    perp = None if spread < SPREAD_EPS else perp
    return AVDecomposition(mean=float(mean), spread=float(spread), perp=perp)


def reconstruction_residual(op: np.ndarray, state: np.ndarray, dec: AVDecomposition) -> float:
    """Norm of ``op|state> - mean|state> - spread*perp`` (degenerate: no perp term)."""
    image = op @ state
    residual = image - dec.mean * state
    if dec.perp is not None:
        residual = residual - dec.spread * dec.perp
    return float(np.linalg.norm(residual))


def correlator_split(op_a: np.ndarray, op_b: np.ndarray, state: np.ndarray) -> CorrelatorSplit:
    """Split ``<AB>`` into ``<A><B>`` plus a fluctuation-overlap term.

    The two operators must commute (Frobenius commutator norm within 1e-8);
    the intended use is observables acting on disjoint tensor factors,
    already lifted to the joint space.  Zero-spread factors contribute an
    overlap of zero.
    """
    if op_a.shape != op_b.shape:
        raise ValueError(f"operator shapes differ: {op_a.shape} vs {op_b.shape}")
    comm = np.linalg.norm(op_a @ op_b - op_b @ op_a)
    if not comm <= _COMMUTATOR_ATOL:
        raise ValueError(f"operators do not commute: commutator norm {comm:.3e}")
    dec_a = av_decompose(op_a, state)
    dec_b = av_decompose(op_b, state)
    joint = float(_real(np.vdot(op_a @ state, op_b @ state)))
    if dec_a.degenerate or dec_b.degenerate:
        overlap = 0.0 + 0.0j
    else:
        overlap = complex(np.vdot(dec_a.perp, dec_b.perp))
    return CorrelatorSplit(
        joint=joint,
        local_product=dec_a.mean * dec_b.mean,
        spread_product=dec_a.spread * dec_b.spread,
        overlap=overlap,
    )


def pearson(op_a: np.ndarray, op_b: np.ndarray, state: np.ndarray) -> float:
    """Pearson correlation of two observables in a state.

    Equals ``(<AB> - <A><B>) / (dA dB)``, computed as the real part of the
    fluctuation-direction overlap (for non-commuting pairs this is the
    symmetrized covariance).  Raises ``DegenerateSpreadError`` when either
    spread vanishes: the correlator is undefined there.
    """
    dec_a = av_decompose(op_a, state)
    dec_b = av_decompose(op_b, state)
    if dec_a.degenerate or dec_b.degenerate:
        raise DegenerateSpreadError("correlator undefined: zero spread")
    return float(np.vdot(dec_a.perp, dec_b.perp).real)
