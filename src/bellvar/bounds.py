"""Bell reports: raw value, local part, and variance-based bounds.

Every report rests on one picture.  The parties split into two blocks A
and B whose observables commute, and for each pair of settings the
correlator splits exactly into a product of means plus a fluctuation
overlap::

    <A_x B_y> = <A_x><B_y> + dA_x dB_y <psi_A_x_perp|psi_B_y_perp>

One kernel, ``_two_block``, computes the images ``A_x|psi>`` and
``B_y|psi>`` by reshaping the state into a ``(dim_A, dim_B)`` matrix,
splits each image into mean, spread and fluctuation direction, and sums
the Bell value ``sum_xy c_xy <A_x B_y>`` and its local part
``sum_xy c_xy <A_x><B_y>`` under the expression's coefficient matrix.
The families differ only in which operators form the blocks and in the
budget that bounds the fluctuation term::

    bell_value - local_part <= bound_statistical

The reported ``slack = bound_statistical + local_part - bell_value`` is
non-negative for quantum states up to rounding, and zero exactly at the
saturating configurations.

Family specifics:

* CHSH: the blocks are the two parties; ``bound_statistical = sqrt(2) *
  rms_a * rms_b`` with ``rms = sqrt(dX0^2 + dX1^2)`` per side; Tsirelson
  bound ``2 sqrt(2)``.  The saturation flags and the Pearson variant read
  the same images and fluctuation directions.
* chained(n): the cross terms pick up the overlap angles of consecutive
  fluctuation directions (``cos_lambda``), with the wrap-around term
  sign-flipped; a looser variant replaces every ``cos_lambda`` by 1.  The
  Tsirelson value ``2n cos(pi/2n)`` is attached as a reference value, the
  statistical route does not derive it for n > 2.
* mk(n): the blocks are the two halves of the top-level MK recursion,
  carrying the block operator pairs with the CHSH coefficients;
  ``rms_a``/``rms_b`` hold the block aggregates ``sqrt(dB^2 + dB'^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .avdecomp import AVDecomposition, DegenerateSpreadError, rms_spread, split_image
from .linalg import inner_product
from .scenarios import (
    FamilySpec,
    Scenario,
    check_family_scenario,
    chsh_coefficients,
    coefficient_tensor,
    mk_coefficient_pair,
    operator_from_tensor,
)

__all__ = [
    "SATURATION_ATOL",
    "SLACK_FLOOR",
    "TSIRELSON_CHSH",
    "BellReport",
    "ChainGeometry",
    "SaturationFlags",
    "PearsonChshReport",
    "chsh_report",
    "pearson_chsh_report",
    "saturation_check",
    "chained_report",
    "mk_report",
    "report_for",
    "report_to_json_dict",
    "report_from_json_dict",
]

# Saturation checks run at a fixed tolerance on purpose: loosening it is a
# code change, not a configuration knob.
SATURATION_ATOL = 1e-8

# Quantum slacks may dip this far below zero from rounding, never more.
SLACK_FLOOR = -1e-9

TSIRELSON_CHSH = 2.0 * np.sqrt(2.0)

_CHSH = FamilySpec(name="chsh", n=2)


@dataclass(frozen=True)
class BellReport:
    """Raw Bell value next to its local part and variance-based bounds.

    ``nonlocal_amount = bell_value - local_part`` and
    ``slack = bound_statistical + local_part - bell_value``.
    ``bound_statistical_loose`` is only set for the chained family (every
    overlap angle replaced by its extreme).  ``tsirelson_is_reference``
    marks families whose Tsirelson entry is attached for orientation
    rather than derived from the statistical route.
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
    tsirelson_is_reference: bool = False


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

    perp_alignment: bool | None
    ratio_condition: bool | None
    anticommutator_zero: bool | None
    operator_relation: bool | None
    overlap_orthogonal: bool | None

    def all_true(self) -> bool:
        return all(
            flag is True
            for flag in (
                self.perp_alignment,
                self.ratio_condition,
                self.anticommutator_zero,
                self.operator_relation,
                self.overlap_orthogonal,
            )
        )


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
    bound_tsirelson: float


@dataclass(frozen=True)
class _TwoBlock:
    """What every report reads off a two-block split of the state.

    ``a_img[x]`` and ``b_img[y]`` are the flattened images
    ``(A_x x I)|psi>`` and ``(I x B_y)|psi>``; ``a_dec``/``b_dec`` hold
    their mean/spread/perp splits; ``bell`` and ``local`` are the
    expression and its product-of-means counterpart under ``coeff``.
    """

    a_img: list[np.ndarray]
    b_img: list[np.ndarray]
    a_dec: list[AVDecomposition]
    b_dec: list[AVDecomposition]
    bell: float
    local: float


def _two_block(
    family: FamilySpec,
    scenario: Scenario,
    state: np.ndarray,
    a_ops,
    b_ops,
    coeff: np.ndarray,
) -> _TwoBlock:
    """Images, splits, Bell value and local part of ``sum_xy coeff[x, y] A_x B_y``.

    ``a_ops`` act on the leading tensor factors and ``b_ops`` on the
    rest.  The state is reshaped into the matrix ``Psi`` of shape
    ``(dim_A, dim_B)``, so the images are ``A_x Psi`` and ``Psi B_y^T``
    and no operator on the joint space is ever formed.
    """
    check_family_scenario(family, scenario)
    if state.shape != (2**scenario.n_parties,):
        raise ValueError(
            f"state of length {state.shape[0]} does not fit {scenario.n_parties} qubit parties"
        )
    psi = state.reshape(a_ops[0].shape[0], -1)
    a_img = [(op @ psi).ravel() for op in a_ops]
    b_img = [(psi @ op.T).ravel() for op in b_ops]
    a_dec = [split_image(img, state) for img in a_img]
    b_dec = [split_image(img, state) for img in b_img]
    bell = 0.0
    local = 0.0
    for x, y in zip(*np.nonzero(coeff)):
        c = float(coeff[x, y])
        bell += c * float(np.vdot(a_img[x], b_img[y]).real)
        local += c * a_dec[x].mean * b_dec[y].mean
    return _TwoBlock(a_img, b_img, a_dec, b_dec, bell, local)


def _report(
    family: FamilySpec,
    blocks: _TwoBlock,
    rms_a: float,
    rms_b: float,
    bound: float,
    bound_tsirelson: float,
    bound_lhv: float,
    **extra,
) -> BellReport:
    """Assemble a report from the kernel's sums and a family's fluctuation budget."""
    return BellReport(
        family=family,
        bell_value=blocks.bell,
        local_part=blocks.local,
        nonlocal_amount=blocks.bell - blocks.local,
        rms_a=rms_a,
        rms_b=rms_b,
        bound_statistical=bound,
        bound_tsirelson=bound_tsirelson,
        bound_lhv=bound_lhv,
        slack=bound + blocks.local - blocks.bell,
        **extra,
    )


def _chsh_budget_report(
    family: FamilySpec, blocks: _TwoBlock, bound_tsirelson: float, bound_lhv: float
) -> BellReport:
    """Report under the CHSH budget ``sqrt(2) * rms_a * rms_b`` of two 2-setting blocks."""
    rms_a = float(np.hypot(*(d.spread for d in blocks.a_dec)))
    rms_b = float(np.hypot(*(d.spread for d in blocks.b_dec)))
    bound = float(np.sqrt(2.0)) * rms_a * rms_b
    return _report(family, blocks, rms_a, rms_b, bound, bound_tsirelson, bound_lhv)


def _party_blocks(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> _TwoBlock:
    """Kernel with the first and the last party as the blocks (two-party families).

    The kernel rejects any scenario without exactly two parties before
    the rows are used.
    """
    obs = scenario.observables
    return _two_block(family, scenario, state, obs[0], obs[-1], coefficient_tensor(family))


def chsh_report(scenario: Scenario, state: np.ndarray) -> BellReport:
    """CHSH value, local part, and the sqrt(2)*rms_a*rms_b bound."""
    blocks = _party_blocks(_CHSH, scenario, state)
    return _chsh_budget_report(_CHSH, blocks, TSIRELSON_CHSH, 2.0)


def pearson_chsh_report(scenario: Scenario, state: np.ndarray) -> PearsonChshReport:
    """CHSH over Pearson correlators with its overlap-geometry bound.

    Raises ``DegenerateSpreadError`` when any of the four settings has
    zero spread in the state (the Pearson correlator is undefined there).
    """
    blocks = _party_blocks(_CHSH, scenario, state)
    a_dec, b_dec = blocks.a_dec, blocks.b_dec
    if any(d.degenerate for d in a_dec + b_dec):
        raise DegenerateSpreadError("Pearson CHSH undefined: a setting has zero spread")
    r = [
        [float(inner_product(a_dec[x].perp, b_dec[y].perp).real) for y in range(2)]
        for x in range(2)
    ]
    coeff = chsh_coefficients()
    r_chsh = float(sum(coeff[x, y] * r[x][y] for x in range(2) for y in range(2)))
    cos_b = float(inner_product(b_dec[0].perp, b_dec[1].perp).real)
    plus = max(2.0 + 2.0 * cos_b, 0.0)
    minus = max(2.0 - 2.0 * cos_b, 0.0)
    bound = float(np.sqrt(plus) + np.sqrt(minus))
    return PearsonChshReport(
        r_values=((r[0][0], r[0][1]), (r[1][0], r[1][1])),
        r_chsh=r_chsh,
        cos_lambda_b=cos_b,
        bound_geometric=bound,
        bound_tsirelson=TSIRELSON_CHSH,
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
    blocks = _party_blocks(_CHSH, scenario, state)
    a_img, b_img = blocks.a_img, blocks.b_img
    a_dec, b_dec = blocks.a_dec, blocks.b_dec
    a_ok = not any(d.degenerate for d in a_dec)
    b_ok = not any(d.degenerate for d in b_dec)

    perp_alignment: bool | None = None
    ratio_condition: bool | None = None
    anticommutator_zero: bool | None = None
    operator_relation: bool | None = None
    overlap_orthogonal: bool | None = None

    if b_ok:
        # <psi|B0 B1 + B1 B0|psi> = 2 Re <B0 psi|B1 psi> for Hermitian B's.
        anti = 2.0 * float(np.vdot(b_img[0], b_img[1]).real)
        anticommutator_zero = bool(abs(anti) <= SATURATION_ATOL)
        overlap = inner_product(b_dec[0].perp, b_dec[1].perp)
        overlap_orthogonal = bool(abs(overlap) <= SATURATION_ATOL)

    if a_ok and b_ok:
        weighted = [b_dec[0].spread * b_dec[0].perp, b_dec[1].spread * b_dec[1].perp]
        combo = [weighted[0] + weighted[1], weighted[0] - weighted[1]]
        norms = [float(np.linalg.norm(v)) for v in combo]
        if min(norms) < 1e-12:
            perp_alignment = None
        else:
            residuals = [
                float(np.linalg.norm(a_dec[x].perp - combo[x] / norms[x])) for x in range(2)
            ]
            perp_alignment = bool(max(residuals) <= SATURATION_ATOL)
        ratio_condition = bool(
            abs(norms[0] / a_dec[0].spread - norms[1] / a_dec[1].spread) <= SATURATION_ATOL
        )
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        rel = [
            float(np.linalg.norm(a_img[x] - inv_sqrt2 * (b_img[0] + (-1.0) ** x * b_img[1])))
            for x in range(2)
        ]
        operator_relation = bool(max(rel) <= SATURATION_ATOL)

    return SaturationFlags(
        perp_alignment=perp_alignment,
        ratio_condition=ratio_condition,
        anticommutator_zero=anticommutator_zero,
        operator_relation=operator_relation,
        overlap_orthogonal=overlap_orthogonal,
    )


def chained_report(
    n: int, scenario: Scenario, state: np.ndarray
) -> tuple[BellReport, ChainGeometry]:
    """Cyclic n-setting report with overlap-aware and loose bounds.

    The statistical bound is ``sqrt(2) * rms_a * sqrt(rms_b^2 + sum_j
    dB_j dB_{j+1} cos_lambda_j)`` with indices wrapping and the closing
    overlap sign-flipped; the loose variant replaces every
    ``cos_lambda_j`` by 1.  The wrap term is what makes n = 2 reduce
    exactly to the CHSH report.
    """
    if n < 2:
        raise ValueError(f"chained report needs n >= 2, got {n}")
    family = FamilySpec(name="chained", n=n)
    blocks = _party_blocks(family, scenario, state)
    b_dec = blocks.b_dec
    rms_a = rms_spread([d.spread for d in blocks.a_dec])
    rms_b = rms_spread([d.spread for d in b_dec])

    cos_lambda = []
    for j in range(n):
        j_next = (j + 1) % n
        if b_dec[j].degenerate or b_dec[j_next].degenerate:
            cos_lambda.append(0.0)
            continue
        overlap = inner_product(b_dec[j].perp, b_dec[j_next].perp).real
        # The closing pair (n-1, 0) enters the expression with the
        # opposite sign, which flips its effective overlap angle.
        cos_lambda.append(float(-overlap) if j == n - 1 else float(overlap))
    cross = sum(
        b_dec[j].spread * b_dec[(j + 1) % n].spread * cos_lambda[j] for j in range(n)
    )
    cross_loose = sum(b_dec[j].spread * b_dec[(j + 1) % n].spread for j in range(n))
    bound = float(np.sqrt(2.0) * rms_a * np.sqrt(max(rms_b**2 + cross, 0.0)))
    bound_loose = float(np.sqrt(2.0) * rms_a * np.sqrt(max(rms_b**2 + cross_loose, 0.0)))
    report = _report(
        family,
        blocks,
        rms_a,
        rms_b,
        bound,
        float(2.0 * n * np.cos(np.pi / (2 * n))),
        float(2 * n - 2),
        bound_statistical_loose=bound_loose,
        tsirelson_is_reference=True,
    )
    return report, ChainGeometry(cos_lambda=tuple(cos_lambda))


def mk_report(
    n: int, scenario: Scenario, state: np.ndarray, split_k: int = 1
) -> BellReport:
    """MK report built from the top-level block split.

    The recursion's two blocks (sites 0..k-1 and k..n-1) take the roles
    of the two parties: their operator pairs ``(B_k, B_k')`` and
    ``(B_{n-k}, B_{n-k}')`` enter the kernel with the CHSH coefficients,
    which is ``B_n`` by the recursion.  The local part is the recursion
    applied to the four block means, and the bound multiplies the block
    fluctuation aggregates ``sqrt(dB^2 + dB'^2)``.
    """
    family = FamilySpec(name="mk", n=n, split_k=split_k)
    # The blocks are built from the scenario, so its shape is checked first.
    check_family_scenario(family, scenario)

    def block_pair(rows):
        if len(rows) == 1:
            return rows[0]
        return [operator_from_tensor(t, rows) for t in mk_coefficient_pair(len(rows), 1)]

    head = block_pair(scenario.observables[:split_k])
    tail = block_pair(scenario.observables[split_k:])
    blocks = _two_block(family, scenario, state, head, tail, chsh_coefficients())
    return _chsh_budget_report(family, blocks, float(2.0 ** (1.5 * (n - 1))), float(2 ** (n - 1)))


def report_for(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> BellReport:
    """Dispatch to the family's report (dropping chained geometry)."""
    if family.name == "chsh":
        return chsh_report(scenario, state)
    if family.name == "chained":
        return chained_report(family.n, scenario, state)[0]
    return mk_report(family.n, scenario, state, split_k=family.split_k)


# ---------------------------------------------------------------------------
# serialization


def report_to_json_dict(report: BellReport) -> dict:
    from .scenarios import SCHEMA_VERSION, family_to_json_dict

    out = {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(report.family),
        "bell_value": report.bell_value,
        "local_part": report.local_part,
        "nonlocal_amount": report.nonlocal_amount,
        "rms_a": report.rms_a,
        "rms_b": report.rms_b,
        "bound_statistical": report.bound_statistical,
        "bound_tsirelson": report.bound_tsirelson,
        "bound_lhv": report.bound_lhv,
        "slack": report.slack,
        "tsirelson_is_reference": report.tsirelson_is_reference,
    }
    if report.bound_statistical_loose is not None:
        out["bound_statistical_loose"] = report.bound_statistical_loose
    if report.tsirelson_is_reference:
        out["bound_tsirelson_note"] = "reference value"
    return out


def report_from_json_dict(node: dict) -> BellReport:
    from .scenarios import SCHEMA_VERSION, family_from_json_dict

    if node.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {node.get('schema_version')!r}")
    return BellReport(
        family=family_from_json_dict(node["family"]),
        bell_value=float(node["bell_value"]),
        local_part=float(node["local_part"]),
        nonlocal_amount=float(node["nonlocal_amount"]),
        rms_a=float(node["rms_a"]),
        rms_b=float(node["rms_b"]),
        bound_statistical=float(node["bound_statistical"]),
        bound_tsirelson=float(node["bound_tsirelson"]),
        bound_lhv=float(node["bound_lhv"]),
        slack=float(node["slack"]),
        bound_statistical_loose=(
            float(node["bound_statistical_loose"])
            if "bound_statistical_loose" in node
            else None
        ),
        tsirelson_is_reference=bool(node.get("tsirelson_is_reference", False)),
    )
