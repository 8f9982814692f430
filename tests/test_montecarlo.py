"""Round sampling and plug-in estimation tests.

The estimator-consistency test sweeps many seeds on purpose: a z=5
acceptance band makes a statistical false alarm astronomically unlikely
(and the seeds are fixed anyway, so the run is deterministic).
"""

import dataclasses
import functools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellvar.bounds import chsh_report, mk_report
from bellvar.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, haar_random_ket
from bellvar.montecarlo import (
    _DRAW_CHUNK_ROUNDS,
    EmpiricalCheck,
    UndersampledError,
    _digit_table,
    _inverse_cdf,
    batch_to_csv,
    empirical_check,
    estimate,
    estimates_to_json_dict,
    simulate_rounds,
)
from bellvar.presets import preset
from bellvar.scenarios import (
    SCHEMA_VERSION,
    Scenario,
    _csv_chunks,
    _expectations,
    bell_state,
    chained_family,
    chsh_family,
    coefficient_tensor,
    from_bloch_table,
    ghz_state,
    mk_family,
    operator_from_tensor,
    random_scenario,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
KET00 = np.array([1, 0, 0, 0], dtype=complex)


def _born_reference(scenario, state, combo):
    """Born probabilities over joint outcomes of one setting combination, by one einsum."""
    n = scenario.n_parties
    tensor = state.reshape((2,) * n)
    operands = [tensor.conj(), list(range(n))]
    for p, s in enumerate(combo):
        op = scenario.observables[p][s]
        projs = np.stack([(ID2 + op) / 2.0, (ID2 - op) / 2.0])
        # indices: outcome axis, bra axis (site p), ket axis
        operands.extend([projs, [2 * n + p, p, n + p]])
    operands.extend([tensor, list(range(n, 2 * n))])
    return np.einsum(*operands, list(range(2 * n, 3 * n))).real.reshape(-1)


def optimal_instance():
    scen = from_bloch_table(
        [
            [[INV_SQRT2, 0, INV_SQRT2], [-INV_SQRT2, 0, INV_SQRT2]],
            [[0, 0, 1], [1, 0, 0]],
        ]
    )
    return scen, bell_state()


def test_batches_reproduce_bit_for_bit():
    scen, psi = optimal_instance()
    b1 = simulate_rounds(chsh_family(), scen, psi, rounds=5000, seed=99)
    b2 = simulate_rounds(chsh_family(), scen, psi, rounds=5000, seed=99)
    np.testing.assert_array_equal(b1.counts, b2.counts)
    np.testing.assert_array_equal(b1.round_settings, b2.round_settings)
    np.testing.assert_array_equal(b1.round_outcomes, b2.round_outcomes)
    assert batch_to_csv(b1) == batch_to_csv(b2)
    b3 = simulate_rounds(chsh_family(), scen, psi, rounds=5000, seed=100)
    assert not np.array_equal(b1.counts, b3.counts)


def test_batch_bookkeeping():
    scen, psi = optimal_instance()
    batch = simulate_rounds(chsh_family(), scen, psi, rounds=4000, seed=1)
    assert batch.counts.sum() == 4000
    assert batch.counts.shape == (4, 4)
    assert batch.round_settings.shape == (4000, 2)
    assert batch.round_outcomes.shape == (4000, 2)
    assert batch.round_settings.max() <= 1
    assert set(np.unique(batch.round_outcomes)) <= {-1, 1}
    # per-round records and the count table tell the same story
    combo = batch.round_settings[:, 0] * 2 + batch.round_settings[:, 1]
    bits = (1 - batch.round_outcomes) // 2
    outcome = bits[:, 0] * 2 + bits[:, 1]
    rebuilt = np.zeros_like(batch.counts)
    np.add.at(rebuilt, (combo, outcome), 1)
    np.testing.assert_array_equal(rebuilt, batch.counts)


def test_deterministic_state_gives_deterministic_outcomes():
    scen = from_bloch_table([[[0, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]])
    batch = simulate_rounds(chsh_family(), scen, KET00, rounds=500, seed=3)
    assert np.all(batch.round_outcomes == 1)
    est = estimate(batch)
    np.testing.assert_allclose(est.means[:, :2], 1.0, atol=0)
    np.testing.assert_allclose(est.correlators, 1.0, atol=0)
    np.testing.assert_allclose(est.variances, 0.0, atol=0)
    assert est.bell_value_hat == pytest.approx(2.0)
    assert est.se_bell_value == 0.0


def test_plugin_variance_identity():
    scen, psi = optimal_instance()
    batch = simulate_rounds(chsh_family(), scen, psi, rounds=20000, seed=7)
    est = estimate(batch)
    np.testing.assert_allclose(est.variances, 1.0 - est.means**2, atol=1e-12)
    for p in range(2):
        want = np.sqrt(est.variances[p, :2].sum())
        assert est.rms_hats[p] == pytest.approx(want, abs=1e-12)
    np.testing.assert_array_equal(est.correlator_counts.reshape(-1), batch.counts.sum(axis=1))


def test_estimates_track_exact_values():
    # 60 seeds x 1e5 rounds against the exact report, all within 5 SE
    scen, psi = optimal_instance()
    exact = chsh_report(scen, psi)
    for seed in range(60):
        batch = simulate_rounds(chsh_family(), scen, psi, rounds=100_000, seed=seed)
        est = estimate(batch)
        assert abs(est.bell_value_hat - exact.bell_value) <= 5.0 * est.se_bell_value
        # every correlator individually too
        for x in range(2):
            for y in range(2):
                want = INV_SQRT2 if (x, y) != (1, 1) else -INV_SQRT2
                se = est.se_correlators[x, y]
                assert abs(est.correlators[x, y] - want) <= 5.0 * se


def test_estimate_rejects_undersampled_batches():
    scen, psi = optimal_instance()
    batch = simulate_rounds(chsh_family(), scen, psi, rounds=3, seed=0)
    with pytest.raises(UndersampledError, match="observed"):
        estimate(batch)


def test_simulate_rounds_validation():
    scen, psi = optimal_instance()
    with pytest.raises(ValueError):
        simulate_rounds(chsh_family(), scen, psi, rounds=0, seed=0)
    with pytest.raises(ValueError):
        simulate_rounds(chsh_family(), scen, ghz_state(3), rounds=10, seed=0)
    with pytest.raises(ValueError):
        simulate_rounds(chained_family(3), scen, psi, rounds=10, seed=0)


def test_csv_layout():
    scen, psi = optimal_instance()
    batch = simulate_rounds(chsh_family(), scen, psi, rounds=50, seed=5)
    text = batch_to_csv(batch)
    lines = text.strip().split("\n")
    assert lines[0] == f"# schema_version: {SCHEMA_VERSION}"
    assert lines[1] == "round,setting_0,setting_1,outcome_0,outcome_1"
    assert len(lines) == 52
    first = lines[2].split(",")
    assert first[0] == "0"
    assert int(first[1]) == batch.round_settings[0, 0]
    assert int(first[3]) == batch.round_outcomes[0, 0]


def test_empirical_check_passes_at_the_optimum():
    scen, psi = optimal_instance()
    batch = simulate_rounds(chsh_family(), scen, psi, rounds=50_000, seed=11)
    check = empirical_check(estimate(batch))
    assert isinstance(check, EmpiricalCheck)
    assert check.passed
    assert check.margin >= 0.0
    assert check.z == 5.0
    assert check.bound_hat == pytest.approx(2.0 * np.sqrt(2.0), abs=0.05)
    assert check.local_part_hat == pytest.approx(0.0, abs=0.05)


def test_empirical_check_rejects_fabricated_values():
    # an impossible Bell value with honest errors must fail the test
    scen, psi = optimal_instance()
    est = estimate(simulate_rounds(chsh_family(), scen, psi, rounds=50_000, seed=11))
    fake = dataclasses.replace(est, bell_value_hat=4.0)
    check = empirical_check(fake)
    assert not check.passed
    assert check.margin < 0.0


def test_empirical_check_family_and_z_validation():
    scen = from_bloch_table(
        [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
    )
    batch = simulate_rounds(chained_family(3), scen, bell_state(), rounds=9000, seed=2)
    est = estimate(batch)
    with pytest.raises(ValueError, match="chsh"):
        empirical_check(est)
    scen2, psi = optimal_instance()
    est2 = estimate(simulate_rounds(chsh_family(), scen2, psi, rounds=5000, seed=1))
    with pytest.raises(ValueError):
        empirical_check(est2, z=-1.0)


def _two_loop_check(est, z):
    """empirical_check with one delta-method loop per party, B's rows read as C's columns."""
    coeff = coefficient_tensor(est.family).astype(float)
    m_a, m_b = est.means
    r_a, r_b = float(est.rms_hats[0]), float(est.rms_hats[1])
    local = float(m_a @ coeff @ m_b)
    bound = float(np.sqrt(2.0)) * r_a * r_b
    var = float(est.se_bell_value**2)
    for x in range(2):
        partial = float(coeff[x] @ m_b)
        if r_a > 1e-12:
            partial -= float(np.sqrt(2.0)) * r_b * m_a[x] / r_a
        var += partial**2 * float(est.se_means[0, x] ** 2)
    for y in range(2):
        partial = float(m_a @ coeff[:, y])
        if r_b > 1e-12:
            partial -= float(np.sqrt(2.0)) * r_a * m_b[y] / r_b
        var += partial**2 * float(est.se_means[1, y] ** 2)
    se = float(np.sqrt(var))
    margin = bound + local - est.bell_value_hat + z * se
    return EmpiricalCheck(
        passed=bool(margin >= 0.0),
        margin=margin,
        bell_value_hat=est.bell_value_hat,
        local_part_hat=local,
        bound_hat=bound,
        se_margin=se,
        z=float(z),
    )


def test_empirical_check_matches_the_two_loop_formula():
    # the last instance puts A's settings on the z axis of a |0> qubit: r_a = 0 exactly
    rng = np.random.default_rng(7)
    instances = [(random_scenario(chsh_family(), rng), haar_random_ket(4, rng)) for _ in range(64)]
    sharp_a = from_bloch_table([[[0, 0, 1], [0, 0, -1]], [[1, 0, 0], [0, 0, 1]]])
    instances.append((sharp_a, np.kron([1.0, 0.0], haar_random_ket(2, rng))))
    for seed, (scen, psi) in enumerate(instances):
        est = estimate(simulate_rounds(chsh_family(), scen, psi, rounds=400, seed=seed))
        for z in (0.0, 5.0):
            assert empirical_check(est, z) == _two_loop_check(est, z)
    assert est.rms_hats[0] == 0.0 < est.rms_hats[1]


def test_zero_z_reduces_to_raw_margin():
    scen, psi = optimal_instance()
    est = estimate(simulate_rounds(chsh_family(), scen, psi, rounds=50_000, seed=13))
    raw = empirical_check(est, z=0.0)
    wide = empirical_check(est, z=5.0)
    assert wide.margin == pytest.approx(raw.margin + 5.0 * raw.se_margin, abs=1e-12)


def test_three_party_sampling():
    scen = Scenario(observables=tuple(((SIGMA_X, SIGMA_Y),) * 3))
    from bellvar.linalg import top_eigenpair
    from bellvar.scenarios import mk_operators

    _, state = top_eigenpair(mk_operators(3, [(SIGMA_X, SIGMA_Y)] * 3).b)
    fam = mk_family(3)
    batch = simulate_rounds(fam, scen, state, rounds=80_000, seed=21)
    assert batch.counts.shape == (8, 8)
    est = estimate(batch)
    assert est.rms_hats.shape == (3,)
    exact = mk_report(3, scen, state)
    # the weighted correlators are deterministic (+-1) in this state, so
    # the standard error vanishes; allow rounding on top of the 5 SE band
    assert abs(est.bell_value_hat - exact.bell_value) <= 5.0 * est.se_bell_value + 1e-12


def test_estimates_json_roundtrip():
    scen, psi = optimal_instance()
    est = estimate(simulate_rounds(chsh_family(), scen, psi, rounds=5000, seed=17))
    back = json.loads(json.dumps(estimates_to_json_dict(est)))
    assert back["bell_value_hat"] == est.bell_value_hat
    assert back["rounds"] == 5000
    assert np.asarray(back["correlators"]).shape == (2, 2)


REFERENCE_FAMILIES = [chsh_family()]
REFERENCE_FAMILIES += [chained_family(n) for n in (3, 4, 5)]
REFERENCE_FAMILIES += [mk_family(n) for n in range(2, 7)]


@pytest.mark.parametrize("family", REFERENCE_FAMILIES, ids=lambda f: f"{f.name}-{f.n}")
def test_expectations_match_references(family):
    rng = np.random.Generator(np.random.Philox(100 + family.n))
    scen = random_scenario(family, rng)
    state = haar_random_ket(2**family.n_parties, rng)

    # observable stacks, the last party's replaced by the Pauli stack (K = 3)
    stacks = [np.asarray(row) for row in scen.observables[:-1]]
    stacks.append(np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]))
    shape = tuple(len(stack) for stack in stacks)
    values = _expectations(stacks, state)
    assert values.shape == shape
    for idx in np.ndindex(shape):
        one_hot = np.zeros(shape, dtype=np.int64)
        one_hot[idx] = 1
        want = expectation(operator_from_tensor(one_hot, stacks), state)
        assert abs(values[idx] - want) <= 1e-12

    # projector stacks, setting-major then outcome, against one einsum per combination
    projectors = [
        np.stack([proj for op in row for proj in ((ID2 + op) / 2.0, (ID2 - op) / 2.0)])
        for row in scen.observables
    ]
    probs = _expectations(projectors, state)
    for combo in np.ndindex(family.settings_per_party):
        block = probs[tuple(slice(2 * s, 2 * s + 2) for s in combo)].reshape(-1)
        np.testing.assert_allclose(block, _born_reference(scen, state, combo), rtol=0, atol=1e-12)


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
def test_empirical_check_rejects_nonfinite_z(z):
    scen, psi = optimal_instance()
    est = estimate(simulate_rounds(chsh_family(), scen, psi, rounds=5000, seed=1))
    with pytest.raises(ValueError, match="finite"):
        empirical_check(est, z=z)


# ---------------------------------------------------------------------------
# the draw and the rounds CSV against their row-by-row references

_REFERENCE_CHUNK = 1 << 14


def _reference_cdfs(scenario, state):
    """Per-combination CDF rows, built exactly as the sampler builds them."""
    n = scenario.n_parties
    settings = scenario.settings_per_party
    projectors = [
        np.stack([proj for op in row for proj in ((ID2 + op) / 2.0, (ID2 - op) / 2.0)])
        for row in scenario.observables
    ]
    probs = _expectations(projectors, state).reshape([k for s in settings for k in (s, 2)])
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    dists = probs.transpose(order).reshape(-1, 2**n)
    totals = dists.sum(axis=1)
    assert np.all(np.abs(totals - 1.0) <= 1e-9)
    cdfs = np.cumsum(np.clip(dists, 0.0, None) / totals[:, None], axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def _row_compare(cdfs, combo_idx, uniforms):
    """Outcome index per round: the entries of its CDF row below its uniform, row by row."""
    outcome_idx = np.empty(len(uniforms), dtype=np.int64)
    for lo in range(0, len(uniforms), _REFERENCE_CHUNK):
        hi = min(lo + _REFERENCE_CHUNK, len(uniforms))
        rows = cdfs[combo_idx[lo:hi]]
        outcome_idx[lo:hi] = np.sum(rows < uniforms[lo:hi, None], axis=1)
    return outcome_idx


def _rounds_reference(scenario, state, rounds, seed):
    """(counts, round_settings, round_outcomes) by row compare, ``add.at`` and shift-and-mask."""
    n = scenario.n_parties
    settings = scenario.settings_per_party
    cdfs = _reference_cdfs(scenario, state)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    round_settings = np.empty((rounds, n), dtype=np.uint8)
    for p in range(n):
        round_settings[:, p] = rng.integers(0, settings[p], size=rounds, dtype=np.uint8)
    uniforms = rng.random(rounds)
    combo_idx = np.ravel_multi_index(tuple(round_settings.T), settings)
    outcome_idx = _row_compare(cdfs, combo_idx, uniforms)
    counts = np.zeros((len(cdfs), 2**n), dtype=np.int64)
    np.add.at(counts, (combo_idx, outcome_idx), 1)
    bits = (outcome_idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return counts, round_settings, (1 - 2 * bits).astype(np.int8)


def _csv_reference(batch):
    """The rounds CSV with every cell of every row formatted by ``repr``."""
    n = batch.n_parties
    keys = ["round"] + [f"setting_{p}" for p in range(n)] + [f"outcome_{p}" for p in range(n)]
    columns = [np.arange(batch.rounds), *batch.round_settings.T, *batch.round_outcomes.T]
    return "".join(_csv_chunks(keys, columns))


_RANDOM_FAMILIES = {
    "random-chsh": chsh_family(),
    "random-chained-3": chained_family(3),
    "random-chained-6": chained_family(6),
    "random-mk-3": mk_family(3),
    "random-mk-5": mk_family(5),
}


@functools.cache
def _instance(name):
    """(family, scenario, state): a random instance, or a preset as ``name`` or ``name-n``."""
    if name in _RANDOM_FAMILIES:
        family = _RANDOM_FAMILIES[name]
        rng = np.random.Generator(np.random.Philox(7))
        scenario = random_scenario(family, rng)
        return family, scenario, haar_random_ket(2**scenario.n_parties, rng)
    kind, _, size = name.rpartition("-")
    p = preset(kind, int(size)) if size.isdigit() else preset(name)
    return p.family, p.scenario, p.state


# rounds per seed: inside one chunk, at its edge, and across one, two and three boundaries
_DRAW_ROUNDS = (
    *(1, 17, _DRAW_CHUNK_ROUNDS - 1, _DRAW_CHUNK_ROUNDS, _DRAW_CHUNK_ROUNDS + 1),
    *(2 * _DRAW_CHUNK_ROUNDS + 3, 3 * _DRAW_CHUNK_ROUNDS + 5, 40_000),
)


@pytest.mark.parametrize(
    "name", ["chsh-optimal", "mk-ghz-3", "mk-ghz-6", "mk-ghz-8", *_RANDOM_FAMILIES]
)
def test_simulate_rounds_matches_row_compare_reference(name):
    family, scenario, state = _instance(name)
    for seed, rounds in enumerate(_DRAW_ROUNDS):
        batch = simulate_rounds(family, scenario, state, rounds=rounds, seed=seed)
        want = _rounds_reference(scenario, state, rounds, seed)
        for got, ref in zip((batch.counts, batch.round_settings, batch.round_outcomes), want):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    # uniforms on every CDF entry below 1 (ties; zero-probability outcomes repeat
    # an entry), their float neighbours, and 0.0
    cdfs = _reference_cdfs(scenario, state)
    combo_idx, entries = np.nonzero(cdfs < 1.0)
    values = cdfs[combo_idx, entries]
    uniforms = np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, 1.0), np.zeros(len(cdfs))]
    )
    uniforms = np.minimum(uniforms, np.nextafter(1.0, 0.0))
    combo_idx = np.concatenate([combo_idx, combo_idx, combo_idx, np.arange(len(cdfs))])
    keys = _inverse_cdf(cdfs, combo_idx, uniforms)
    assert keys.dtype == np.intp
    want = combo_idx * cdfs.shape[1] + _row_compare(cdfs, combo_idx, uniforms)
    np.testing.assert_array_equal(keys, want)


def _assert_matches_rounds_reference(name, rounds, seed):
    family, scenario, state = _instance(name)
    batch = simulate_rounds(family, scenario, state, rounds=rounds, seed=seed)
    want = _rounds_reference(scenario, state, rounds, seed)
    for got, ref in zip((batch.counts, batch.round_settings, batch.round_outcomes), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("name", ["chsh-optimal", "mk-ghz-3"])
def test_simulate_rounds_at_draw_chunk_boundaries(name):
    # the reference draws its uniforms in one call
    chunk = _DRAW_CHUNK_ROUNDS
    for seed, rounds in enumerate((chunk - 1, chunk, chunk + 1, 2 * chunk + 3)):
        _assert_matches_rounds_reference(name, rounds, seed)


def test_simulate_rounds_many_combinations_in_one_chunk():
    # 48**2 combinations share each flat chunk, and the draw crosses a chunk boundary
    _, scenario, _ = _instance("chained-n-48")
    assert int(np.prod(scenario.settings_per_party)) == 2304
    chunk = _DRAW_CHUNK_ROUNDS
    for seed, rounds in enumerate((chunk + 1, 2 * chunk + 3)):
        _assert_matches_rounds_reference("chained-n-48", rounds, seed)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width_exp=st.integers(1, 8),
    n_combos=st.integers(1, 300),
    plateaus=st.booleans(),
    overshoot=st.booleans(),
)
def test_inverse_cdf_matches_row_compare(seed, width_exp, n_combos, plateaus, overshoot):
    rng = np.random.Generator(np.random.Philox(seed))
    width = 2**width_exp
    weights = rng.random((n_combos, width))
    if plateaus:  # zero-probability outcomes repeat a CDF entry
        weights[rng.random((n_combos, width)) < 0.5] = 0.0
        weights[:, 0] += 1e-3
    cdfs = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    if overshoot:  # a tail of entries per row rounded above 1 before the final 1.0
        tail = np.arange(width) >= rng.integers(0, width, n_combos)[:, None]
        cdfs[tail] = np.nextafter(1.0, 2.0)
    cdfs[:, -1] = 1.0

    # every entry and its float neighbours in its own row, then 0.0 and the largest uniform
    values = cdfs.ravel()
    top = np.nextafter(1.0, 0.0)
    uniforms = np.concatenate(
        [values, np.nextafter(values, -1.0), np.nextafter(values, 2.0), [0.0, top]]
    )
    uniforms = np.clip(uniforms, 0.0, top)
    rows = np.repeat(np.arange(n_combos), width)
    combo_idx = np.concatenate([rows, rows, rows, [0, n_combos - 1]])
    combo_idx = combo_idx.astype(np.min_scalar_type(n_combos - 1))

    # the flat keys c * width + o, o the row-compare outcome index
    want = combo_idx.astype(np.intp) * width + _row_compare(cdfs, combo_idx, uniforms)
    got = _inverse_cdf(cdfs, combo_idx, uniforms)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


def test_simulate_rounds_memory():
    for name in ("mk-ghz-6", "chsh-optimal"):
        family, scenario, state = _instance(name)
        simulate_rounds(family, scenario, state, rounds=1000, seed=0)  # first-call caches stay out
        tracemalloc.start()
        try:
            simulate_rounds(family, scenario, state, rounds=10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one byte a round for each of combo_idx and outcome_idx (1.9 MiB) and the
        # draw scratch of one chunk of 2**13 rounds: 2.39 MiB for mk-ghz 6 and
        # 2.23 MiB for chsh (3.70 and 3.55 MiB with chunks of 2**16 rounds)
        assert peak < 3 * 2**20, f"{name}: traced peak {peak / 2**20:.2f} MiB"


def test_simulate_rounds_draw_scratch_is_one_small_chunk():
    family, scenario, state = _instance("chsh-optimal")
    simulate_rounds(family, scenario, state, rounds=1000, seed=0)  # first-call caches stay out
    tracemalloc.start()
    try:
        batch = simulate_rounds(family, scenario, state, rounds=10**6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the two per-round index arrays: 0.33 MiB with chunks of 2**13 rounds
    # and buffers made per chunk, 0.46 MiB with 2**14 and buffers shared across chunks
    scratch = peak - batch.combo_idx.nbytes - batch.outcome_idx.nbytes
    assert scratch < 0.4 * 2**20, f"draw scratch {scratch / 2**20:.3f} MiB"


# rounds per preset: at the edges of the 10**4-round chunks, inside a chunk, and at
# decimal boundaries, where a round gains a digit; 10**6 + 1 gives a 3-digit chunk prefix
_CSV_CHUNK_EDGES = (1, 10**4, 10**4 + 1, 3 * 10**4 + 5)
_CSV_MID_CHUNK = (2**14, 2**14 + 1, 3 * 2**14 + 5)
_CSV_ROUNDS = {
    "chsh-optimal": (*_CSV_CHUNK_EDGES, *_CSV_MID_CHUNK, 10, 11, 100, 101, 100_001, 10**6 + 1),
    "chained-n-12": (*_CSV_CHUNK_EDGES, *_CSV_MID_CHUNK, 10, 11),
    "mk-ghz-8": (*_CSV_CHUNK_EDGES, *_CSV_MID_CHUNK, 100, 101, 100_001),
}
_CSV_CASES = [(name, rounds) for name, counts in _CSV_ROUNDS.items() for rounds in counts]


@pytest.mark.parametrize("name, rounds", _CSV_CASES, ids=[f"{r}-{n}" for n, r in _CSV_CASES])
def test_batch_to_csv_matches_repr_reference(name, rounds):
    family, scenario, state = _instance(name)
    batch = simulate_rounds(family, scenario, state, rounds=rounds, seed=rounds)
    got = batch_to_csv(batch).splitlines(keepends=True)
    want = _csv_reference(batch).splitlines(keepends=True)
    # the first differing line, not a diff of the whole text
    diff = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert diff is None, f"line {diff}: {got[diff]!r} != {want[diff]!r}"
    assert len(got) == len(want)


def test_digit_table_holds_every_four_digit_group():
    want = b"".join(f"{i:04d}".encode() for i in range(10**4))
    assert _digit_table().tobytes() == want


# ---------------------------------------------------------------------------
# the plug-in estimator against its per-(party, setting) mask loop


def _estimate_reference(batch):
    """(means, variances, se_means, rms_hats) by one mask and one loop step per (party, setting)."""
    settings = batch.scenario.settings_per_party
    n = batch.n_parties
    combos = np.indices(settings).reshape(n, -1).T
    counts = batch.counts
    combo_totals = counts.sum(axis=1)
    if np.any(combo_totals < 2):
        worst = tuple(int(v) for v in combos[int(np.argmin(combo_totals))])
        raise UndersampledError(
            f"setting combination {worst} observed {int(combo_totals.min())} < 2 times"
        )
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    outcome_vals = (1 - 2 * bits).astype(float)
    max_settings = max(settings)
    means = np.zeros((n, max_settings))
    variances = np.zeros((n, max_settings))
    se_means = np.zeros((n, max_settings))
    for p in range(n):
        for s in range(settings[p]):
            mask = combos[:, p] == s
            total_rounds = int(combo_totals[mask].sum())
            outcome_sum = float(counts[mask].sum(axis=0) @ outcome_vals[:, p])
            mean = outcome_sum / total_rounds
            var = max(1.0 - mean * mean, 0.0)
            means[p, s] = mean
            variances[p, s] = var
            se_means[p, s] = np.sqrt(var / total_rounds)
    rms_hats = np.array([np.sqrt(np.sum(variances[p, : settings[p]])) for p in range(n)])
    return means, variances, se_means, rms_hats


_ESTIMATE_PRESETS = [
    "chsh-optimal",
    *(f"chained-n-{n}" for n in (3, 5, 12)),
    *(f"mk-ghz-{n}" for n in range(2, 9)),
]


@functools.cache
def _random_instance(family, seed):
    rng = np.random.Generator(np.random.Philox(1000 + seed))
    scenario = random_scenario(family, rng)
    return family, scenario, haar_random_ket(2**scenario.n_parties, rng)


_ESTIMATE_RANDOM = [
    (family, seed)
    for family in (chsh_family(), chained_family(3), chained_family(8), *map(mk_family, (2, 5, 7)))
    for seed in range(4)
]


@pytest.mark.parametrize(
    "case",
    [*_ESTIMATE_PRESETS, *_ESTIMATE_RANDOM],
    ids=[*_ESTIMATE_PRESETS, *(f"random-{f.name}-{f.n}-seed{s}" for f, s in _ESTIMATE_RANDOM)],
)
def test_estimate_matches_mask_loop_reference(case):
    family, scenario, state = _instance(case) if isinstance(case, str) else _random_instance(*case)
    combos = int(np.prod(family.settings_per_party))
    for seed, rounds in enumerate((2 * combos + 1, 20 * combos + 3, 50_000)):
        batch = simulate_rounds(family, scenario, state, rounds=rounds, seed=seed)
        if batch.counts.sum(axis=1).min() < 2:
            with pytest.raises(UndersampledError) as want:
                _estimate_reference(batch)
            with pytest.raises(UndersampledError, match=re.escape(str(want.value)) + "$"):
                estimate(batch)
            continue
        est = estimate(batch)
        got = (est.means, est.variances, est.se_means, est.rms_hats)
        fields = ("means", "variances", "se_means", "rms_hats")
        for name, value, ref in zip(fields, got, _estimate_reference(batch)):
            assert value.dtype == ref.dtype, name
            assert value.shape == ref.shape, name
            assert np.array_equal(value, ref), name


@pytest.mark.parametrize(
    "name, rounds, zero_combo, message",
    [
        ("chsh-optimal", 3, None, "setting combination (0, 0) observed 0 < 2 times"),
        ("mk-ghz-3", 4000, 6, "setting combination (1, 1, 0) observed 1 < 2 times"),
        ("chained-n-5", 4000, 17, "setting combination (3, 2) observed 1 < 2 times"),
    ],
)
def test_undersampled_message_matches_reference(name, rounds, zero_combo, message):
    family, scenario, state = _instance(name)
    batch = simulate_rounds(family, scenario, state, rounds=rounds, seed=0)
    if zero_combo is not None:
        counts = batch.counts.copy()
        counts[zero_combo] = 0
        counts[zero_combo, 0] = 1
        batch = dataclasses.replace(batch, counts=counts)
    with pytest.raises(UndersampledError) as want:
        _estimate_reference(batch)
    with pytest.raises(UndersampledError) as got:
        estimate(batch)
    assert str(got.value) == str(want.value) == message
