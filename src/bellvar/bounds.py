"""Bell reports: raw value, local part, and variance-based bounds.

Every report rests on one picture.  The parties split into two blocks A
and B whose observables commute, and for each pair of settings the
correlator splits exactly into a product of means plus a fluctuation
overlap::

    <A_x B_y> = <A_x><B_y> + dA_x dB_y <psi_A_x_perp|psi_B_y_perp>

One kernel pass, ``_kernel._columns``, works on a stack of N instances:
it picks the family's block split and coefficient matrix ``C``, takes
the images ``A_x|psi>`` and ``B_y|psi>`` of each block's site stacks
from ``scenarios._images``, splits each image into mean, spread and
fluctuation direction with ``_kernel._split``, and sums the Bell value
``sum_xy c_xy <A_x B_y>``, its local part ``sum_xy c_xy <A_x><B_y>`` and
one budget for every family.  With the B-side fluctuation vectors ``F_b
= (dB_y psi_B_y_perp)`` and the rows ``v_x`` of ``C F_b``, ``bell_value -
local_part = sum_x dA_x Re<psi_A_x_perp|v_x>``, and Cauchy-Schwarz gives::

    bell_value - local_part <= bound_statistical = rms_a ||C F_b||_F

with ``rms = sqrt(sum_x dX_x^2)`` per side.  The reported ``slack =
bound_statistical + local_part - bell_value`` is non-negative for
quantum states up to rounding, and zero exactly at the saturating
configurations.  Everything else reads that pass.  ``random_scan``
keeps only the slack column of each pass.  A single instance runs it as a
stack of one (``_blocks``, which adds the chained geometry and loose bound):
``_bell_report`` reads instance 0 as a ``BellReport`` next to the family's
Tsirelson and LHV values, and the CHSH saturation flags, the Pearson
variant, the chained geometry and ``_report_document``, the document of
``bellvar report``, read the same record.  So each family's extras are
chosen here, not in the kernel or the command line.

The pass lives in ``_kernel``, with ``_COLUMNS``, ``SLACK_FLOOR`` and the
scan that drives it, because ``scan`` and ``decompose`` need the kernel
and none of the report records.  ``_kernel`` imports only ``linalg`` and
``scenarios``, so those commands start without compiling this module,
``avdecomp`` and ``optimize`` or creating their dataclasses, a cost
larger than a short scan's compute.

Closed forms follow from the one budget:

* CHSH and mk(n): ``C^T C = 2I``, so ``bound_statistical = sqrt(2) rms_a
  rms_b``.  For mk the blocks are the two halves of the top-level
  recursion, whose block pairs carry the CHSH coefficients, and
  ``rms_a``/``rms_b`` hold the block aggregates ``sqrt(dB^2 + dB'^2)``;
  each side's images ``(B_m|psi>, B_m'|psi>)`` are carried through its
  sites by the recursion, so no block operator is formed.
* chained(n): each row of ``C`` pairs consecutive settings, so the budget
  is ``sqrt(2) rms_a sqrt(rms_b^2 + sum_j dB_j dB_{j+1} cos_lambda_j)``
  with the overlap angles of consecutive fluctuation directions
  (``cos_lambda``), the wrap-around term sign-flipped.  The loose variant
  puts every direction on one common unit vector: every ``cos_lambda``
  is 1, and as row x of ``|C|`` holds ones at x-1 and x (indices wrapping),
  it reads ``rms_a sqrt(sum_x (dB_{x-1} + dB_x)^2)`` off the spreads.

The budget bounds the quantum maximum of both bipartite families.  With
mean vectors ``m_a`` and ``m_b``, the local part is ``m_a^T C m_b <=
||C||_2 |m_a| |m_b|`` and ``bound_statistical <= ||C||_2 rms_a rms_b``.
Each dichotomic setting has ``<X>^2 + dX^2 = 1``, so ``|m|^2 + rms^2 =
n`` on each side, and Cauchy-Schwarz on ``(|m|, rms)`` gives
``local_part + bound_statistical <= n ||C||_2``: ``2 sqrt(2)`` for CHSH
and ``2n cos(pi/2n)`` for chained(n), the ``bound_tsirelson`` of each
report.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import _EXPORTS
from ._kernel import _COLUMNS, SLACK_FLOOR, SPREAD_EPS, DegenerateSpreadError, _columns
from .scenarios import (
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _check_instance,
    chsh_coefficients,
    chsh_family,
    family_to_json_dict,
    scenario_to_json_dict,
)

__all__ = list(_EXPORTS["bounds"])

# Saturation checks run at a fixed tolerance on purpose: loosening it is a
# code change, not a configuration knob.
SATURATION_ATOL = 1e-8

TSIRELSON_CHSH = float(2.0 * np.sqrt(2.0))


@dataclass(frozen=True)
class BellReport:
    """Raw Bell value next to its local part and variance-based bounds.

    ``nonlocal_amount = bell_value - local_part`` and
    ``slack = bound_statistical + local_part - bell_value``.
    ``bound_statistical_loose`` is only set for the chained family (every
    overlap angle replaced by its extreme).
    """

    family: FamilySpec
    bell_value: float
    local_part: float
    nonlocal_amount: float
    rms_a: float
    rms_b: float
    bound_statistical: float
    bound_tsirelson: float
    bound_lhv: float
    slack: float
    bound_statistical_loose: float | None = None


@dataclass(frozen=True)
class ChainGeometry:
    """Overlap angles of consecutive fluctuation directions on the B side.

    ``cos_lambda[j]`` pairs settings j and j+1; the closing entry pairs
    n-1 with 0 and carries the expression's sign flip.  Pairs with a
    zero-spread member contribute 0.
    """

    cos_lambda: tuple[float, ...]


@dataclass(frozen=True)
class SaturationFlags:
    """Which of the five saturation conditions hold at 1e-8.

    ``None`` means indeterminate: a spread the condition depends on is
    degenerate, so the condition has no content there (reported as absent
    rather than failed).
    """

    perp_alignment: bool | None = None
    ratio_condition: bool | None = None
    anticommutator_zero: bool | None = None
    operator_relation: bool | None = None
    overlap_orthogonal: bool | None = None

    def all_true(self) -> bool:
        return all(flag is True for flag in astuple(self))


@dataclass(frozen=True)
class PearsonChshReport:
    """CHSH evaluated on Pearson correlators instead of raw ones.

    ``bound_geometric = sqrt(2 + 2 cos_lambda_b) + sqrt(2 - 2 cos_lambda_b)``
    depends only on the overlap of the two B-side fluctuation directions
    and never exceeds the Tsirelson value.
    """

    r_values: tuple[tuple[float, float], tuple[float, float]]
    r_chsh: float
    cos_lambda_b: float
    bound_geometric: float


def _blocks(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> dict:
    """The kernel pass every report reads: the instance as a stack of one, after the shape checks;
    chained adds ``bound_statistical_loose`` and the ``(1, n)`` array ``cos_lambda``."""
    _check_instance(family, scenario, state)
    cols = _columns(family, np.asarray(scenario.observables)[None], state[None])
    if family.name == "chained":
        _, spread_b, perp_b = cols["b_split"]
        overlap = np.sum(perp_b.conj() * np.roll(perp_b, -1, axis=1), axis=-1).real
        # The closing pair (n-1, 0) enters the expression with the
        # opposite sign, which flips its effective overlap angle.
        overlap[:, -1] *= -1.0
        degenerate = spread_b < SPREAD_EPS
        cos_lambda = np.where(degenerate | np.roll(degenerate, -1, axis=1), 0.0, overlap)
        # every perp_y replaced by one common unit vector: row x of |C| adds dB_{x-1} + dB_x
        loose = cols["rms_a"] * np.linalg.norm(np.roll(spread_b, 1, axis=1) + spread_b, axis=1)
        cols.update(cos_lambda=cos_lambda, bound_statistical_loose=loose)
    return cols


def _bell_report(family: FamilySpec, cols: dict) -> BellReport:
    """Instance 0 of one kernel pass as the family's report.

    The Tsirelson and local-hidden-variable values of every family live
    here.
    """
    values = {name: float(cols[name][0]) for name in _COLUMNS}
    n, extra = family.n, {}
    if family.name == "chained":
        tsirelson, lhv = float(2.0 * n * np.cos(np.pi / (2 * n))), float(2 * n - 2)
        extra = {"bound_statistical_loose": float(cols["bound_statistical_loose"][0])}
    else:  # mk(n), and chsh as its n = 2
        tsirelson, lhv = float(2.0 ** (1.5 * (n - 1))), float(2 ** (n - 1))
    return BellReport(
        family=family,
        nonlocal_amount=values["bell_value"] - values["local_part"],
        bound_tsirelson=tsirelson,
        bound_lhv=lhv,
        **values,
        **extra,
    )


def chsh_report(scenario: Scenario, state: np.ndarray) -> BellReport:
    """CHSH value, local part, and the sqrt(2)*rms_a*rms_b bound."""
    return report_for(chsh_family(), scenario, state)


def pearson_chsh_report(scenario: Scenario, state: np.ndarray) -> PearsonChshReport:
    """CHSH over Pearson correlators with its overlap-geometry bound.

    Raises ``DegenerateSpreadError`` when any of the four settings has
    zero spread in the state (the Pearson correlator is undefined there).
    """
    return _pearson(_blocks(chsh_family(), scenario, state))


def _pearson(cols: dict) -> PearsonChshReport:
    _, spread_a, perp_a = (v[0] for v in cols["a_split"])
    _, spread_b, perp_b = (v[0] for v in cols["b_split"])
    if not np.all(np.concatenate([spread_a, spread_b]) >= SPREAD_EPS):
        raise DegenerateSpreadError("Pearson CHSH undefined: a setting has zero spread")
    r = (perp_a.conj() @ perp_b.T).real
    cos_b = float(np.vdot(perp_b[0], perp_b[1]).real)
    plus = max(2.0 + 2.0 * cos_b, 0.0)
    minus = max(2.0 - 2.0 * cos_b, 0.0)
    bound = float(np.sqrt(plus) + np.sqrt(minus))
    return PearsonChshReport(
        r_values=tuple(map(tuple, r.tolist())),
        r_chsh=float(np.sum(chsh_coefficients() * r)),
        cos_lambda_b=cos_b,
        bound_geometric=bound,
    )


def saturation_check(scenario: Scenario, state: np.ndarray) -> SaturationFlags:
    """Evaluate the five CHSH saturation conditions at tolerance 1e-8.

    Conditions and their spread dependencies (a degenerate dependency
    makes the flag None):

    * ``perp_alignment``: the A-side fluctuation directions equal the
      normalized sum/difference of the spread-weighted B-side ones
      (needs all four spreads).
    * ``ratio_condition``: the norms of that sum and difference stand in
      the same ratio as the A spreads (needs all four spreads).
    * ``anticommutator_zero``: ``<{B0, B1}> = 0`` (needs both B spreads;
      without fluctuations the condition carries no saturation content).
    * ``operator_relation``: ``A_x|psi> = (B0 + (-1)^x B1)|psi>/sqrt(2)``
      (contextual to the saturating regime, needs all four spreads).
    * ``overlap_orthogonal``: the B-side fluctuation directions are
      orthogonal (needs both B spreads).
    """
    return _saturation(_blocks(chsh_family(), scenario, state))


def _saturation(cols: dict) -> SaturationFlags:
    a_img, b_img = cols["a_img"][0], cols["b_img"][0]
    _, spread_a, perp_a = (v[0] for v in cols["a_split"])
    _, spread_b, perp_b = (v[0] for v in cols["b_split"])
    a_ok = bool(np.all(spread_a >= SPREAD_EPS))
    b_ok = bool(np.all(spread_b >= SPREAD_EPS))
    flags = {}  # the flags left out stay None: indeterminate

    if b_ok:
        # <psi|B0 B1 + B1 B0|psi> = 2 Re <B0 psi|B1 psi> for Hermitian B's.
        anti = 2.0 * float(np.vdot(b_img[0], b_img[1]).real)
        flags["anticommutator_zero"] = bool(abs(anti) <= SATURATION_ATOL)
        overlap = np.vdot(perp_b[0], perp_b[1])
        flags["overlap_orthogonal"] = bool(abs(overlap) <= SATURATION_ATOL)

    if a_ok and b_ok:
        # the budget's fluctuation vectors v_x = sum_y c_xy dB_y perp_y
        coeff = chsh_coefficients()
        v = coeff @ (spread_b[:, None] * perp_b)
        norms = np.linalg.norm(v, axis=1)
        if norms.min() >= 1e-12:
            residuals = np.linalg.norm(perp_a - v / norms[:, None], axis=1)
            flags["perp_alignment"] = bool(residuals.max() <= SATURATION_ATOL)
        ratios = norms / spread_a
        flags["ratio_condition"] = bool(abs(ratios[0] - ratios[1]) <= SATURATION_ATOL)
        rel = np.linalg.norm(a_img - coeff @ b_img / np.sqrt(2.0), axis=1)
        flags["operator_relation"] = bool(rel.max() <= SATURATION_ATOL)

    return SaturationFlags(**flags)


def chained_report(
    n: int, scenario: Scenario, state: np.ndarray
) -> tuple[BellReport, ChainGeometry]:
    """Cyclic n-setting report with overlap-aware and loose bounds.

    The one budget ``rms_a ||C F_b||_F`` reads here as ``sqrt(2) * rms_a *
    sqrt(rms_b^2 + sum_j dB_j dB_{j+1} cos_lambda_j)``, with indices
    wrapping and the closing overlap sign-flipped; the loose variant
    replaces every ``cos_lambda_j`` by 1.  The wrap term is what makes
    n = 2 reduce exactly to the CHSH report.
    """
    family = FamilySpec(name="chained", n=n)
    cols = _blocks(family, scenario, state)
    return _bell_report(family, cols), ChainGeometry(tuple(cols["cos_lambda"][0].tolist()))


def mk_report(
    n: int, scenario: Scenario, state: np.ndarray, split_k: int = 1
) -> BellReport:
    """MK report built from the top-level block split.

    The recursion's two blocks (sites 0..k-1 and k..n-1) take the roles
    of the two parties: the images of their pairs ``(B_k, B_k')`` and
    ``(B_{n-k}, B_{n-k}')`` enter the kernel with the CHSH coefficients,
    which is ``B_n`` by the recursion.  The local part is the recursion
    applied to the four block means, and the bound multiplies the block
    fluctuation aggregates ``sqrt(dB^2 + dB'^2)``.
    """
    return report_for(FamilySpec(name="mk", n=n, split_k=split_k), scenario, state)


def report_for(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> BellReport:
    """The family's report off one kernel pass (for chained, without its geometry)."""
    return _bell_report(family, _blocks(family, scenario, state))


# ---------------------------------------------------------------------------
# serialization


def report_to_json_dict(report: BellReport) -> dict:
    out = {"schema_version": SCHEMA_VERSION, **asdict(report)}
    out["family"] = family_to_json_dict(report.family)
    if report.bound_statistical_loose is None:
        del out["bound_statistical_loose"]
    return out


def _report_document(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> dict:
    """``bellvar report``'s document off one kernel pass: the family's extras (chsh saturation
    and Pearson, chained ``cos_lambda``), the report, the scenario and the tolerances."""
    cols = _blocks(family, scenario, state)
    doc: dict = {}
    if family.name == "chsh":
        doc["saturation"] = asdict(_saturation(cols))
        try:
            doc["pearson"] = asdict(_pearson(cols))
        except DegenerateSpreadError:
            doc["pearson"] = None
    elif family.name == "chained":
        doc["cos_lambda"] = cols["cos_lambda"][0].tolist()
    doc["report"] = report_to_json_dict(_bell_report(family, cols))
    doc["scenario"] = scenario_to_json_dict(scenario, family)
    doc["tolerances"] = {"slack_floor": SLACK_FLOOR, "saturation_atol": SATURATION_ATOL}
    return doc
