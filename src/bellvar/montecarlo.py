"""Born-rule round sampling and plug-in estimation for Bell experiments.

Sampling algorithm (fixed, so batches reproduce bit for bit per seed):

1. a ``numpy.random.Philox`` generator is keyed with the integer seed
   (counter-based, platform-stable);
2. one ``integers`` draw per party, in party order, picks each round's
   settings uniformly;
3. one ``random`` draw of uniforms, one per round, picks the joint
   outcome by inverse CDF over the Born distribution of that round's
   setting combination: rounds are grouped by combination and each
   group is binary-searched in its CDF row, which gives exactly the
   number of CDF entries below the round's uniform.

Joint outcome probabilities are expectations of products of local
spectral projectors ``(I +- X)/2``: one contraction of every party's
projector stack against the state gives the Born distributions of all
setting combinations at once.  Estimation is pure plug-in: outcome
averages, ``variance = 1 - mean^2`` (exact for +-1 outcomes),
per-combination correlators, and the family's coefficient tensor
assembling the Bell value.  Standard errors are
``sqrt(variance / count)`` per estimate.

The empirical bound check propagates errors to first order (delta
method) through ``M = sqrt(2) R_A R_B + local_part - bell_value``:

    SE(M)^2 = sum_xy c_xy^2 SE(corr_xy)^2
            + sum_x (sqrt(2) R_B m_Ax / R_A - sum_y c_xy m_By)^2 SE(m_Ax)^2
            + sum_y (sqrt(2) R_A m_By / R_B - sum_x c_xy m_Ax)^2 SE(m_By)^2

(the mean terms drop out when the corresponding aggregate spread
vanishes), and the check passes when ``M + z SE(M) >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ID2
from .scenarios import (
    _CSV_CHUNK_ROWS,
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _csv_text,
    _expectations,
    check_family_scenario,
    coefficient_tensor,
    family_to_json_dict,
)

__all__ = [
    "SampleBatch",
    "EmpiricalEstimates",
    "EmpiricalCheck",
    "UndersampledError",
    "simulate_rounds",
    "estimate",
    "empirical_check",
    "batch_to_csv",
    "estimates_to_json_dict",
]

class UndersampledError(ValueError):
    """A setting combination was observed fewer than two times."""


@dataclass(frozen=True)
class SampleBatch:
    """Outcome record of a round-by-round Born-rule simulation.

    ``counts[c, o]`` tallies rounds with setting combination ``c``
    (lexicographic over parties) and joint outcome ``o`` (bit 0 of the
    big-endian index meaning outcome +1).  The per-round arrays carry the
    same information in order, for flat CSV export.
    """

    family: FamilySpec
    scenario: Scenario
    rounds: int
    seed: int
    counts: np.ndarray
    round_settings: np.ndarray
    round_outcomes: np.ndarray

    @property
    def n_parties(self) -> int:
        return self.scenario.n_parties


@dataclass(frozen=True)
class EmpiricalEstimates:
    """Plug-in estimates from a sample batch, with standard errors.

    ``means``/``variances``/``se_means`` are (party, setting) arrays, every
    family being a rectangle of parties x settings; the means come from
    exact integer marginals of the count table (see :func:`estimate`).
    ``correlators``/``se_correlators`` follow the family's coefficient
    tensor shape; ``rms_hats`` aggregates per-party variances the same
    way the exact reports aggregate spreads.
    """

    family: FamilySpec
    rounds: int
    means: np.ndarray
    variances: np.ndarray
    se_means: np.ndarray
    correlators: np.ndarray
    se_correlators: np.ndarray
    correlator_counts: np.ndarray
    bell_value_hat: float
    se_bell_value: float
    rms_hats: np.ndarray


@dataclass(frozen=True)
class EmpiricalCheck:
    """Verdict of the statistical-bound test on empirical estimates.

    ``margin`` is ``sqrt(2) R_A R_B + local_part_hat - bell_value_hat +
    z * SE``; the check passes when it is non-negative.
    """

    passed: bool
    margin: float
    bell_value_hat: float
    local_part_hat: float
    bound_hat: float
    se_margin: float
    z: float


def simulate_rounds(
    family: FamilySpec, scenario: Scenario, state: np.ndarray, rounds: int, seed: int
) -> SampleBatch:
    """Simulate measurement rounds with uniform random settings.

    Reproducible bit for bit for identical inputs; see the module
    docstring for the exact draw order.
    """
    check_family_scenario(family, scenario)
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    n = scenario.n_parties
    if state.shape != (2**n,):
        raise ValueError(
            f"state of length {state.shape[0]} does not fit {n} qubit parties"
        )
    settings = scenario.settings_per_party
    # party p's stack runs setting-major, then outcome (+1 first)
    projectors = [
        np.stack([proj for op in row for proj in ((ID2 + op) / 2.0, (ID2 - op) / 2.0)])
        for row in scenario.observables
    ]
    probs = _expectations(projectors, state).reshape([k for s in settings for k in (s, 2)])
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    dists = probs.transpose(order).reshape(-1, 2**n)
    totals = dists.sum(axis=1)
    if not np.all(np.abs(totals - 1.0) <= 1e-9):
        worst = float(totals[np.argmax(np.abs(totals - 1.0))])
        raise ArithmeticError(f"Born distribution sums to {worst!r}")
    dists = np.clip(dists, 0.0, None) / totals[:, None]
    cdfs = np.cumsum(dists, axis=1)
    cdfs[:, -1] = 1.0

    rng = np.random.Generator(np.random.Philox(int(seed)))
    round_settings = np.empty((rounds, n), dtype=np.uint8)
    for p in range(n):
        round_settings[:, p] = rng.integers(0, settings[p], size=rounds, dtype=np.uint8)
    uniforms = rng.random(rounds)
    combo_idx = np.ravel_multi_index(tuple(round_settings.T), settings)
    outcome_idx = _inverse_cdf(cdfs, combo_idx, uniforms)
    flat = np.bincount(combo_idx * 2**n + outcome_idx, minlength=cdfs.size)

    return SampleBatch(
        family=family,
        scenario=scenario,
        rounds=rounds,
        seed=int(seed),
        counts=flat.reshape(cdfs.shape),
        round_settings=round_settings,
        round_outcomes=_outcome_signs(n)[outcome_idx],
    )


def _inverse_cdf(cdfs: np.ndarray, combo_idx: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Outcome index per round: how many entries of its combination's CDF row lie below its uniform.

    Rounds are grouped by combination with one stable sort (a radix sort on
    the narrow key) and each group is binary-searched in its CDF row.  The
    left-side search counts exactly the entries ``< u``, also at ties and
    at ``u == 0``.  A row is non-decreasing except that its last entry, set
    to 1.0, may sit below a predecessor rounded above 1; every uniform is
    below 1.0, so the entries ``>= u`` still form a suffix and the search
    stays exact.
    """
    order = np.argsort(combo_idx.astype(np.min_scalar_type(len(cdfs) - 1)), kind="stable")
    ends = np.cumsum(np.bincount(combo_idx, minlength=len(cdfs))).tolist()
    outcome_idx = np.empty(len(order), dtype=np.intp)
    for c, (lo, hi) in enumerate(zip([0, *ends], ends)):
        group = order[lo:hi]
        outcome_idx[group] = np.searchsorted(cdfs[c], uniforms[group], side="left")
    return outcome_idx


def _outcome_signs(n: int) -> np.ndarray:
    """``(2**n, n)`` int8 table of the +-1 outcomes of each joint outcome index (bit set = -1)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def estimate(batch: SampleBatch) -> EmpiricalEstimates:
    """Plug-in means, variances, correlators and Bell value with errors.

    Every setting combination must appear at least twice; otherwise the
    batch is undersampled and no error bars make sense.

    Each mean divides two integer marginals of the count table, the
    party's +-1 outcome sum and its round count at that setting (the other
    parties' setting axes summed out).  Both are exact below 2**53, so the
    mean is one correctly rounded division, whatever the summation order.
    """
    settings = batch.scenario.settings_per_party
    n = batch.n_parties
    counts = batch.counts
    combo_totals = counts.sum(axis=1)
    if np.any(combo_totals < 2):
        worst = tuple(int(v) for v in np.unravel_index(int(np.argmin(combo_totals)), settings))
        raise UndersampledError(
            f"setting combination {worst} observed {int(combo_totals.min())} < 2 times"
        )

    signs = _outcome_signs(n).astype(np.int64)
    totals = combo_totals.reshape(settings)
    sums = (counts @ signs).reshape(*settings, n)
    others = [tuple(q for q in range(n) if q != p) for p in range(n)]
    party_rounds = np.stack([totals.sum(axis=others[p]) for p in range(n)])
    means = np.stack([sums[..., p].sum(axis=others[p]) for p in range(n)]) / party_rounds
    variances = np.maximum(1.0 - means * means, 0.0)
    se_means = np.sqrt(variances / party_rounds)

    corr = (counts @ signs.prod(axis=1)).reshape(settings) / totals
    se_corr = np.sqrt(np.maximum(1.0 - corr * corr, 0.0) / totals)
    coeff = coefficient_tensor(batch.family).astype(float)
    bell_hat = float(np.sum(coeff * corr))
    se_bell = float(np.sqrt(np.sum(coeff**2 * se_corr**2)))
    rms_hats = np.sqrt(variances.sum(axis=1))
    return EmpiricalEstimates(
        family=batch.family,
        rounds=batch.rounds,
        means=means,
        variances=variances,
        se_means=se_means,
        correlators=corr,
        se_correlators=se_corr,
        correlator_counts=totals,
        bell_value_hat=bell_hat,
        se_bell_value=se_bell,
        rms_hats=rms_hats,
    )


def empirical_check(estimates: EmpiricalEstimates, z: float = 5.0) -> EmpiricalCheck:
    """Test the CHSH statistical bound on empirical estimates.

    Passes when ``bell_value_hat - local_part_hat`` stays below
    ``sqrt(2) R_A R_B`` within ``z`` propagated standard errors (see the
    module docstring for the exact formula).  Only defined for the CHSH
    family: the other bounds need overlap geometry that outcome counts
    cannot estimate.
    """
    if estimates.family.name != "chsh":
        raise ValueError("empirical_check is defined for the chsh family only")
    if not 0.0 <= z < np.inf:
        raise ValueError(f"z must be finite and non-negative, got {z}")
    coeff = coefficient_tensor(estimates.family).astype(float)
    m_a, m_b = estimates.means
    r_a = float(estimates.rms_hats[0])
    r_b = float(estimates.rms_hats[1])
    local = float(m_a @ coeff @ m_b)
    bound = float(np.sqrt(2.0)) * r_a * r_b
    base = bound + local - estimates.bell_value_hat

    var = float(estimates.se_bell_value**2)
    for x in range(2):
        partial = float(coeff[x] @ m_b)
        if r_a > 1e-12:
            partial -= float(np.sqrt(2.0)) * r_b * m_a[x] / r_a
        var += partial**2 * float(estimates.se_means[0, x] ** 2)
    for y in range(2):
        partial = float(m_a @ coeff[:, y])
        if r_b > 1e-12:
            partial -= float(np.sqrt(2.0)) * r_a * m_b[y] / r_b
        var += partial**2 * float(estimates.se_means[1, y] ** 2)
    se = float(np.sqrt(var))
    margin = base + z * se
    return EmpiricalCheck(
        passed=bool(margin >= 0.0),
        margin=margin,
        bell_value_hat=estimates.bell_value_hat,
        local_part_hat=local,
        bound_hat=bound,
        se_margin=se,
        z=float(z),
    )


# ---------------------------------------------------------------------------
# serialization


def batch_to_csv(batch: SampleBatch) -> str:
    """Flat per-round table: round, one setting and one outcome per party.

    A row is ``str(round)`` followed by the text of its setting combination
    and of its joint outcome, each table entry formatted once with ``repr``.
    """
    n = batch.n_parties
    settings = batch.scenario.settings_per_party
    keys = ["round"] + [f"setting_{p}" for p in range(n)] + [f"outcome_{p}" for p in range(n)]
    setting_text = ["," + ",".join(map(repr, combo)) + "," for combo in np.ndindex(settings)]
    outcome_text = [",".join(map(repr, signs)) + "\n" for signs in _outcome_signs(n).tolist()]
    parts = [_csv_text(keys, ())]
    for lo in range(0, batch.rounds, _CSV_CHUNK_ROWS):
        hi = min(lo + _CSV_CHUNK_ROWS, batch.rounds)
        combos = np.ravel_multi_index(tuple(batch.round_settings[lo:hi].T), settings)
        outcomes = np.ravel_multi_index(tuple((batch.round_outcomes[lo:hi] < 0).T), (2,) * n)
        parts.append(
            "".join(
                f"{r}{setting_text[c]}{outcome_text[o]}"
                for r, c, o in zip(range(lo, hi), combos.tolist(), outcomes.tolist())
            )
        )
    return "".join(parts)


def estimates_to_json_dict(estimates: EmpiricalEstimates) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "family": family_to_json_dict(estimates.family),
        "rounds": estimates.rounds,
        "means": estimates.means.tolist(),
        "variances": estimates.variances.tolist(),
        "se_means": estimates.se_means.tolist(),
        "correlators": estimates.correlators.tolist(),
        "se_correlators": estimates.se_correlators.tolist(),
        "correlator_counts": estimates.correlator_counts.tolist(),
        "bell_value_hat": estimates.bell_value_hat,
        "se_bell_value": estimates.se_bell_value,
        "rms_hats": estimates.rms_hats.tolist(),
    }
