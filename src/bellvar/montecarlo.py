"""Born-rule round sampling and plug-in estimation for Bell experiments.

Sampling algorithm (fixed, so batches reproduce bit for bit per seed):

1. a ``numpy.random.Philox`` generator is keyed with the integer seed
   (counter-based, platform-stable);
2. one ``integers`` draw per party, in party order, picks each round's
   settings uniformly; the draws fold into each round's setting
   combination index (lexicographic over parties) as they are made;
3. uniforms, one per round, pick the joint outcome by inverse CDF over
   the Born distribution of that round's setting combination.  They are
   drawn ``_DRAW_CHUNK_ROUNDS`` (2**13) at a time with ``random``, which
   gives the same stream as one draw of all of them, so the draw's scratch
   stays near 0.2 MB whatever the rounds.  Every round of a chunk is
   bisected at once in the flat table of CDF rows, ``2**n`` entries each,
   to its flat key ``c * 2**n + o``: ``o``, the number of CDF entries below
   its uniform, is the key's low ``n`` bits, and the keys are bincounted.

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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .linalg import ID2
from .scenarios import (
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _check_instance,
    _csv_chunks,
    _expectations,
    _philox,
    coefficient_tensor,
    family_to_json_dict,
)

__all__ = list(_EXPORTS["montecarlo"])

# Rounds per chunk of uniforms drawn and bisected at once, so the draw's
# scratch (intp keys, float values, a bool mask and the chunk's uniforms,
# about 25 bytes a round) does not grow with the rounds.  2**13 holds 0.2 MB.
# With the buffers made per chunk, 2**14 raised the fresh-process peak of a
# 10**6-round mk-ghz(6) sample by 0.16 MB over one shared 2**14 scratch; 2**13
# lowered it by 0.14 MB and that of a 10**6-round chsh sample by 0.42 MB
# (median wait4 peaks of 12 runs, 2 cores, numpy 2.4.6).
_DRAW_CHUNK_ROUNDS = 1 << 13


class UndersampledError(ValueError):
    """A setting combination was observed fewer than two times."""


@dataclass(frozen=True)
class SampleBatch:
    """Outcome record of a round-by-round Born-rule simulation.

    ``counts[c, o]`` tallies rounds with setting combination ``c``
    (lexicographic over parties) and joint outcome ``o`` (bit 0 of the
    big-endian index meaning outcome +1).  ``combo_idx`` and
    ``outcome_idx`` carry the same information in round order, one
    ``c`` and one ``o`` per round, each in the narrowest unsigned dtype
    that holds its range (one byte each up to 256 combinations and 8
    parties).  ``round_settings`` and ``round_outcomes`` unpack them into
    per-party tables on access.
    """

    family: FamilySpec
    scenario: Scenario
    rounds: int
    seed: int
    counts: np.ndarray
    combo_idx: np.ndarray
    outcome_idx: np.ndarray

    @property
    def n_parties(self) -> int:
        return self.scenario.n_parties

    @property
    def round_settings(self) -> np.ndarray:
        """``(rounds, n)`` setting of every party per round, unpacked from ``combo_idx``."""
        settings = self.scenario.settings_per_party
        table = np.empty((self.rounds, self.n_parties), dtype=np.min_scalar_type(max(settings) - 1))
        for p, column in enumerate(np.unravel_index(self.combo_idx, settings)):
            table[:, p] = column
        return table

    @property
    def round_outcomes(self) -> np.ndarray:
        """``(rounds, n)`` int8 +-1 outcome of every party per round, from ``outcome_idx``."""
        return _outcome_signs(self.n_parties)[self.outcome_idx]


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
    _check_instance(family, scenario, state)
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    n = scenario.n_parties
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

    rng = _philox(seed)
    combo_idx = np.zeros(rounds, dtype=np.min_scalar_type(len(cdfs) - 1))
    for s in settings:
        combo_idx *= s
        combo_idx += rng.integers(0, s, size=rounds, dtype=np.min_scalar_type(s - 1))
    outcome_idx = np.empty(rounds, dtype=np.min_scalar_type(2**n - 1))
    flat = np.zeros(cdfs.size, dtype=np.int64)
    for lo in range(0, rounds, _DRAW_CHUNK_ROUNDS):
        hi = min(lo + _DRAW_CHUNK_ROUNDS, rounds)
        keys = _inverse_cdf(cdfs, combo_idx[lo:hi], rng.random(hi - lo))
        np.bitwise_and(keys, 2**n - 1, out=outcome_idx[lo:hi], casting="unsafe")
        flat += np.bincount(keys, minlength=cdfs.size)

    return SampleBatch(
        family=family,
        scenario=scenario,
        rounds=rounds,
        seed=int(seed),
        counts=flat.reshape(cdfs.shape),
        combo_idx=combo_idx,
        outcome_idx=outcome_idx,
    )


def _inverse_cdf(cdfs: np.ndarray, combo_idx: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Flat intp key ``c * 2**n + o`` per round, ``o`` CDF entries of row ``c`` below its uniform.

    Every round is bisected at once: from ``key = c * 2**n`` in the flat CDF
    table, each ``step = 2**(n-1) .. 1`` adds ``step`` where ``flat[key +
    step - 1] < u``, which counts exactly the entries ``< u`` (every ``u <
    1``), also at ties, at ``u == 0`` and on a last 1.0 below a predecessor
    rounded above 1.  No step makes a temporary: spent floats take the
    increments, and ``take`` clips (as ``"raise"`` copies ``out``).
    """
    width = cdfs.shape[1]
    keys = np.multiply(combo_idx, width, dtype=np.intp)
    values, below = np.empty(len(keys)), np.empty(len(keys), dtype=bool)
    step = width
    while step := step // 2:
        np.take(cdfs.ravel()[step - 1 :], keys, out=values, mode="clip")
        keys += np.multiply(np.less(values, uniforms, out=below), step, out=values.view(np.intp))
    return keys


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
    sides = ((coeff, m_a, m_b, r_a, r_b), (coeff.T, m_b, m_a, r_b, r_a))
    for p, (rows, own, other, r_own, r_other) in enumerate(sides):
        for x in range(2):
            partial = float(rows[x] @ other)
            if r_own > 1e-12:
                partial -= float(np.sqrt(2.0)) * r_other * own[x] / r_own
            var += partial**2 * float(estimates.se_means[p, x] ** 2)
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


def _digit_table() -> np.ndarray:
    """``(10**4,)`` ``S4`` table: the four ASCII digits of ``0000 .. 9999``."""
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    return np.ascontiguousarray(quads).view("S4")[:, 0]


def _batch_csv_chunks(batch: SampleBatch) -> Iterator[str]:
    """The rounds CSV of :func:`batch_to_csv`, one chunk per ``len(_digit_table())`` rounds."""
    n = batch.n_parties
    settings = batch.scenario.settings_per_party
    keys = ["round"] + [f"setting_{p}" for p in range(n)] + [f"outcome_{p}" for p in range(n)]
    setting_text = ["," + ",".join(map(repr, combo)) + "," for combo in np.ndindex(settings)]
    outcome_text = [",".join(map(repr, signs)) + "\n" for signs in _outcome_signs(n).tolist()]
    # NUL-padded byte items; the padding is deleted from each chunk's bytes
    setting_text, outcome_text = (np.array(t, dtype=bytes) for t in (setting_text, outcome_text))
    texts = [("s", setting_text.dtype), ("o", outcome_text.dtype)]
    table = _digit_table()
    first = table.copy()  # chunk 0 has no prefix: its leading zeros are NUL
    for i in range(3):
        first.view(np.uint8).reshape(-1, 4)[: 10 ** (3 - i), i] = 0
    yield from _csv_chunks(keys)
    for k, lo in enumerate(range(0, batch.rounds, len(table))):
        hi = min(lo + len(table), batch.rounds)
        prefix = str(k).encode() if k else b""
        chunk = np.empty(hi - lo, [("k", f"S{len(prefix)}"), ("r", "S4"), *texts])
        chunk["k"] = prefix
        chunk["r"] = (table if k else first)[: hi - lo]
        chunk["s"] = np.take(setting_text, batch.combo_idx[lo:hi])
        chunk["o"] = np.take(outcome_text, batch.outcome_idx[lo:hi])
        yield chunk.tobytes().translate(None, b"\0").decode("ascii")


def batch_to_csv(batch: SampleBatch) -> str:
    """Flat per-round table: round, one setting and one outcome per party.

    Rounds ``k * 10**4 .. k * 10**4 + 9999`` make chunk ``k``, one
    structured array of NUL-padded byte items, filled by numpy calls whose
    number does not grow with the chunk's rows: the round number as the
    constant ``str(k)`` (none for chunk 0) followed by a slice of the
    table of 4-digit groups (:func:`_digit_table`; chunk 0 takes a copy
    with leading zeros NUL); the text of the setting combination, gathered
    by ``combo_idx``; and the text of the joint outcome, gathered by
    ``outcome_idx``.  The two text tables hold one entry per setting
    combination and per joint outcome, each formatted once with ``repr``.
    Deleting the NUL bytes leaves each row as ``str(round)`` followed by
    those texts.  The command line writes the same chunks as they are made.
    """
    return "".join(_batch_csv_chunks(batch))


def estimates_to_json_dict(estimates: EmpiricalEstimates) -> dict:
    out = {"schema_version": SCHEMA_VERSION, **vars(estimates)}
    out["family"] = family_to_json_dict(estimates.family)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}
