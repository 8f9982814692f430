"""Reports: Bell values, local parts, variance bounds, saturation flags.

The frozen numbers for the aligned-settings configuration (A along the
diagonals of the x-z plane, B along z and x, maximally entangled state)
come from the closed-form marginals of that configuration; the product
state cases were evaluated by hand.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellvar.avdecomp import DegenerateSpreadError, av_decompose, correlator_split
from bellvar.bounds import (
    SATURATION_ATOL,
    SLACK_FLOOR,
    TSIRELSON_CHSH,
    BellReport,
    SaturationFlags,
    _bell_report,
    _blocks,
    chained_report,
    chsh_report,
    mk_report,
    pearson_chsh_report,
    report_for,
    report_to_json_dict,
    saturation_check,
)
from bellvar.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    haar_random_ket,
    top_eigenpair,
)
from bellvar.montecarlo import simulate_rounds
from bellvar.presets import preset
from bellvar.scenarios import (
    FamilySpec,
    SCHEMA_VERSION,
    Scenario,
    bell_state,
    bloch_of,
    bloch_observable,
    chained_family,
    chsh_coefficients,
    chsh_family,
    coefficient_tensor,
    family_to_json_dict,
    from_bloch_table,
    ghz_state,
    mk_family,
    mk_operators,
    random_scenario,
    uniform_bloch,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
KET00 = np.array([1, 0, 0, 0], dtype=complex)


def _bell_operator(family: FamilySpec, scenario: Scenario) -> np.ndarray:
    """Reference full-space operator of the family's expression: one Kronecker chain per term."""
    coeff = coefficient_tensor(family)
    out = np.zeros((2**family.n_parties,) * 2, dtype=complex)
    for idx in np.ndindex(*coeff.shape):
        out += coeff[idx] * functools.reduce(
            np.kron, [scenario.observables[p][s] for p, s in enumerate(idx)]
        )
    return out


def optimal_chsh_scenario() -> Scenario:
    return from_bloch_table(
        [
            [[INV_SQRT2, 0, INV_SQRT2], [-INV_SQRT2, 0, INV_SQRT2]],
            [[0, 0, 1], [1, 0, 0]],
        ]
    )


def random_chsh_instance(seed):
    rng = np.random.default_rng(seed)
    scen = random_scenario(chsh_family(), rng)
    return scen, haar_random_ket(4, rng)


def random_unitary(rng) -> np.ndarray:
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_chsh_report_at_maximal_violation():
    rep = chsh_report(optimal_chsh_scenario(), bell_state())
    assert rep.bell_value == pytest.approx(TSIRELSON_CHSH, abs=1e-10)
    assert rep.local_part == pytest.approx(0.0, abs=1e-10)
    assert rep.nonlocal_amount == pytest.approx(TSIRELSON_CHSH, abs=1e-10)
    assert rep.rms_a == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert rep.rms_b == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert rep.bound_statistical == pytest.approx(TSIRELSON_CHSH, abs=1e-10)
    assert abs(rep.slack) <= 1e-10
    assert rep.bound_lhv == 2.0
    assert rep.bound_statistical_loose is None
    assert rep.local_part + rep.bound_statistical == pytest.approx(rep.bound_tsirelson, abs=1e-9)


def test_chsh_report_deterministic_product_case():
    # every observable sigma_z on |00>: all four correlators are 1
    scen = from_bloch_table([[[0, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]])
    rep = chsh_report(scen, KET00)
    assert rep.bell_value == pytest.approx(2.0, abs=1e-12)
    assert rep.local_part == pytest.approx(2.0, abs=1e-12)
    assert rep.rms_a == pytest.approx(0.0, abs=1e-12)
    assert rep.bound_statistical == pytest.approx(0.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_chsh_report_product_state_keeps_slack():
    # aligned settings but no entanglement: the bound stays sqrt(2) above
    rep = chsh_report(optimal_chsh_scenario(), KET00)
    assert rep.bell_value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.local_part == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.nonlocal_amount == pytest.approx(0.0, abs=1e-12)
    assert rep.slack == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_chsh_report_state_dim_checked():
    with pytest.raises(ValueError):
        chsh_report(optimal_chsh_scenario(), np.array([1.0, 0.0], dtype=complex))


_CHAINED3 = from_bloch_table([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]] * 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mk_report(3, random_scenario(mk_family(3), np.random.default_rng(0)), bell_state()),
        lambda: chsh_report(optimal_chsh_scenario(), ghz_state(3)),
        lambda: saturation_check(optimal_chsh_scenario(), ghz_state(3)),
        lambda: pearson_chsh_report(optimal_chsh_scenario(), ghz_state(3)),
        lambda: chained_report(3, _CHAINED3, ghz_state(3)),
        lambda: simulate_rounds(chsh_family(), optimal_chsh_scenario(), ghz_state(3), 10, 0),
    ],
    ids=[
        "mk_report",
        "chsh_report",
        "saturation_check",
        "pearson_chsh_report",
        "chained_report",
        "simulate_rounds",
    ],
)
def test_state_that_does_not_fit_is_rejected(call):
    with pytest.raises(ValueError, match="does not fit"):
        call()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chsh_report_consistent_with_decomposition_route(seed):
    scen, psi = random_chsh_instance(seed)
    rep = chsh_report(scen, psi)
    a_ops = [np.kron(op, ID2) for op in scen.observables[0]]
    b_ops = [np.kron(ID2, op) for op in scen.observables[1]]
    coeff = [[1, 1], [1, -1]]
    bell = local = 0.0
    for x in range(2):
        for y in range(2):
            split = correlator_split(a_ops[x], b_ops[y], psi)
            bell += coeff[x][y] * split.joint
            local += coeff[x][y] * split.local_product
    assert rep.bell_value == pytest.approx(bell, abs=1e-9)
    assert rep.local_part == pytest.approx(local, abs=1e-9)
    spreads_a = [av_decompose(op, psi).spread for op in a_ops]
    assert rep.rms_a == pytest.approx(np.hypot(*spreads_a), abs=1e-9)
    assert rep.slack >= SLACK_FLOOR


def test_saturation_flags_all_true_at_optimum():
    flags = saturation_check(optimal_chsh_scenario(), bell_state())
    assert flags.perp_alignment is True
    assert flags.ratio_condition is True
    assert flags.anticommutator_zero is True
    assert flags.operator_relation is True
    assert flags.overlap_orthogonal is True
    assert flags.all_true()


def test_saturation_flags_default_to_indeterminate():
    flags = SaturationFlags()
    assert dataclasses.astuple(flags) == (None,) * 5
    assert not flags.all_true()


def test_saturation_flags_indeterminate_when_everything_is_sharp():
    scen = from_bloch_table([[[0, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]])
    flags = saturation_check(scen, KET00)
    assert flags.perp_alignment is None
    assert flags.ratio_condition is None
    assert flags.anticommutator_zero is None
    assert flags.operator_relation is None
    assert flags.overlap_orthogonal is None
    assert not flags.all_true()


def test_saturation_flags_partial_when_only_a_side_is_sharp():
    # A measurements are eigen-sharp on |00>, B side keeps fluctuating:
    # the B-only conditions get a verdict, the joint ones stay None
    scen = Scenario(observables=((SIGMA_Z, SIGMA_Z), (SIGMA_X, SIGMA_Y)))
    flags = saturation_check(scen, KET00)
    assert flags.anticommutator_zero is True  # {sigma_x, sigma_y} = 0
    assert flags.overlap_orthogonal is False  # perp vectors differ by phase i
    assert flags.perp_alignment is None
    assert flags.ratio_condition is None
    assert flags.operator_relation is None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_saturation_survives_local_unitaries(seed):
    # conjugating the optimal configuration by local unitaries must keep
    # every flag true and the slack at zero
    rng = np.random.default_rng(seed)
    u_a, u_b = random_unitary(rng), random_unitary(rng)
    base = optimal_chsh_scenario()
    obs = (
        tuple(u_a @ op @ u_a.conj().T for op in base.observables[0]),
        tuple(u_b @ op @ u_b.conj().T for op in base.observables[1]),
    )
    scen = Scenario(observables=obs)
    psi = np.kron(u_a, u_b) @ bell_state()
    flags = saturation_check(scen, psi)
    assert flags.all_true()
    rep = chsh_report(scen, psi)
    assert abs(rep.slack) <= 1e-8
    assert rep.bell_value == pytest.approx(TSIRELSON_CHSH, abs=1e-9)


def test_pearson_chsh_frozen_at_optimum():
    rep = pearson_chsh_report(optimal_chsh_scenario(), bell_state())
    assert rep.r_chsh == pytest.approx(TSIRELSON_CHSH, abs=1e-10)
    assert rep.cos_lambda_b == pytest.approx(0.0, abs=1e-10)
    assert rep.bound_geometric == pytest.approx(TSIRELSON_CHSH, abs=1e-10)
    assert not hasattr(rep, "bound_tsirelson")
    flat = [r for row in rep.r_values for r in row]
    assert flat == pytest.approx([INV_SQRT2] * 3 + [-INV_SQRT2], abs=1e-10)


def test_pearson_chsh_requires_fluctuations():
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]]])
    with pytest.raises(DegenerateSpreadError):
        pearson_chsh_report(scen, KET00)


def test_eigenstate_normalized_to_rounding_has_zero_spread():
    # |0> x a Haar qubit is an eigenstate of A's z setting, but normalized
    # only to rounding: sqrt(<A^2> - <A>^2) reads about 1e-8 there, the norm
    # of the fluctuation part reads rounding
    rng = np.random.default_rng(1)
    for _ in range(200):
        table = [[[0, 0, 1], uniform_bloch(rng)], [uniform_bloch(rng), uniform_bloch(rng)]]
        scen = from_bloch_table(table)
        psi = np.kron([1.0, 0.0], haar_random_ket(2, rng))
        with pytest.raises(DegenerateSpreadError):
            pearson_chsh_report(scen, psi)
        flags = saturation_check(scen, psi)
        assert (flags.perp_alignment, flags.ratio_condition, flags.operator_relation) == (None,) * 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pearson_chsh_bound_chain(seed):
    scen, psi = random_chsh_instance(seed)
    try:
        rep = pearson_chsh_report(scen, psi)
    except DegenerateSpreadError:
        return
    assert rep.r_chsh <= rep.bound_geometric + 1e-9
    assert rep.bound_geometric <= TSIRELSON_CHSH + 1e-12
    for row in rep.r_values:
        for r in row:
            assert abs(r) <= 1.0 + 1e-9


def test_chained_two_settings_reduces_to_chsh():
    # negating B's second setting maps the cyclic expression onto CHSH;
    # values, bounds and slack must then agree exactly
    rng = np.random.default_rng(21)
    scen = random_scenario(chsh_family(), rng)
    psi = haar_random_ket(4, rng)
    a, b = scen.observables
    flipped = Scenario(observables=(a, (b[0], -b[1])))
    chsh = chsh_report(scen, psi)
    chain, geom = chained_report(2, flipped, psi)
    assert chain.bell_value == pytest.approx(chsh.bell_value, abs=1e-10)
    assert chain.local_part == pytest.approx(chsh.local_part, abs=1e-10)
    assert chain.bound_statistical == pytest.approx(chsh.bound_statistical, abs=1e-10)
    assert chain.slack == pytest.approx(chsh.slack, abs=1e-10)
    assert len(geom.cos_lambda) == 2
    # the two overlap entries cancel pairwise at n = 2
    assert geom.cos_lambda[0] == pytest.approx(-geom.cos_lambda[1], abs=1e-10)


def test_chained_report_at_planar_optimum():
    n = 3
    a_dirs = [(2 * k - 1) * np.pi / (2 * n) for k in range(n)]
    b_dirs = [j * np.pi / n for j in range(n)]
    scen = from_bloch_table(
        [
            [[np.sin(t), 0, np.cos(t)] for t in a_dirs],
            [[np.sin(t), 0, np.cos(t)] for t in b_dirs],
        ]
    )
    rep, geom = chained_report(n, scen, bell_state())
    want = 2 * n * np.cos(np.pi / (2 * n))
    assert rep.bell_value == pytest.approx(want, abs=1e-10)
    assert rep.bound_statistical == pytest.approx(want, abs=1e-9)
    assert abs(rep.slack) <= 1e-9
    assert rep.bound_lhv == 4.0
    assert rep.bound_tsirelson == pytest.approx(want)
    assert rep.local_part + rep.bound_statistical == pytest.approx(rep.bound_tsirelson, abs=1e-9)
    assert rep.bound_statistical_loose is not None
    assert rep.bound_statistical_loose >= rep.bound_statistical - 1e-12
    np.testing.assert_allclose(geom.cos_lambda, [0.5, 0.5, 0.5], atol=1e-10)


# chsh, and chained(n) for every n the budget tests below reach
_BIPARTITE = [chsh_family()] + [chained_family(n) for n in range(2, 9)]


def _family_id(family: FamilySpec) -> str:
    return f"{family.name}{family.n}"


def _bipartite_preset(family: FamilySpec):
    return preset("chsh-optimal") if family.name == "chsh" else preset("chained-n", family.n)


@pytest.mark.parametrize(
    "family", [chsh_family()] + [chained_family(n) for n in range(2, 13)], ids=_family_id
)
def test_tsirelson_value_is_settings_times_coefficient_norm(family):
    p = _bipartite_preset(family)
    rep = report_for(family, p.scenario, p.state)
    want = family.n * np.linalg.norm(coefficient_tensor(family), 2)
    assert rep.bound_tsirelson == pytest.approx(want, rel=0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(_BIPARTITE))
def test_budget_bounds_the_bipartite_tsirelson_value(seed, family):
    # local_part <= ||C|| |m_a| |m_b| and bound_statistical <= ||C|| rms_a rms_b;
    # with |m|^2 + rms^2 = n on each side, Cauchy-Schwarz caps their sum at n ||C||
    rng = np.random.default_rng(seed)
    scen = random_scenario(family, rng)
    psi = haar_random_ket(4, rng)
    cols = _blocks(family, scen, psi)
    rep = _bell_report(family, cols)
    norm = np.linalg.norm(coefficient_tensor(family), 2)
    mean_a, mean_b = cols["a_split"][0][0], cols["b_split"][0][0]
    assert np.sum(mean_a**2) + rep.rms_a**2 == pytest.approx(family.n, abs=1e-9)
    assert np.sum(mean_b**2) + rep.rms_b**2 == pytest.approx(family.n, abs=1e-9)
    assert rep.local_part <= norm * np.linalg.norm(mean_a) * np.linalg.norm(mean_b) + 1e-9
    assert rep.bound_statistical <= norm * rep.rms_a * rep.rms_b + 1e-9
    assert rep.local_part + rep.bound_statistical <= rep.bound_tsirelson + 1e-9


@pytest.mark.parametrize("family", _BIPARTITE, ids=_family_id)
def test_optimal_presets_reach_the_budgeted_tsirelson_value(family):
    p = _bipartite_preset(family)
    rep = report_for(family, p.scenario, p.state)
    assert rep.local_part + rep.bound_statistical == pytest.approx(rep.bound_tsirelson, abs=1e-9)
    assert rep.bell_value == pytest.approx(rep.bound_tsirelson, abs=1e-9)


# chsh, chained(2..8) and mk(2..6) at every split
_BUDGET_FAMILIES = _BIPARTITE + [
    FamilySpec(name="mk", n=n, split_k=k) for n in range(2, 7) for k in range(1, n)
]


def _random_record(family: FamilySpec, seed: int):
    rng = np.random.default_rng(seed)
    scen = random_scenario(family, rng)
    cols = _blocks(family, scen, haar_random_ket(2**family.n_parties, rng))
    return cols, _bell_report(family, cols)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(_BUDGET_FAMILIES))
def test_one_budget_reduces_to_each_family_closed_form(seed, family):
    cols, rep = _random_record(family, seed)
    if family.name != "chained":
        # C^T C = 2I for chsh and for each MK block pair
        want = np.sqrt(2.0) * rep.rms_a * rep.rms_b
        assert rep.bound_statistical == pytest.approx(want, rel=1e-12)
        return
    spread_b = cols["b_split"][1][0]
    pairs = spread_b * np.roll(spread_b, -1)
    cross = np.sum(pairs * cols["cos_lambda"][0])
    want = np.sqrt(2.0) * rep.rms_a * np.sqrt(rep.rms_b**2 + cross)
    loose = np.sqrt(2.0) * rep.rms_a * np.sqrt(rep.rms_b**2 + np.sum(pairs))
    assert rep.bound_statistical == pytest.approx(want, rel=1e-12)
    assert rep.bound_statistical_loose == pytest.approx(loose, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(_BUDGET_FAMILIES))
def test_fluctuation_term_pairs_the_a_directions_with_the_budget_vectors(seed, family):
    # bell - local = sum_x dA_x Re<perp_A,x|v_x>, v_x = sum_y c_xy dB_y perp_B,y
    cols, rep = _random_record(family, seed)
    _, spread_a, perp_a = (v[0] for v in cols["a_split"])
    _, spread_b, perp_b = (v[0] for v in cols["b_split"])
    coeff = chsh_coefficients() if family.name == "mk" else coefficient_tensor(family)
    want = 0.0
    for x, row in enumerate(coeff):
        v_x = sum(c * spread_b[y] * perp_b[y] for y, c in enumerate(row))
        want += spread_a[x] * np.vdot(perp_a[x], v_x).real
    scale = max(abs(rep.bell_value), abs(rep.local_part), 1.0)
    assert rep.nonlocal_amount == pytest.approx(want, rel=0, abs=1e-12 * scale)


def test_chained_report_degenerate_overlaps_are_zeroed():
    scen = from_bloch_table([[[0, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]])
    rep, geom = chained_report(2, scen, KET00)
    assert geom.cos_lambda == (0.0, 0.0)
    assert rep.bound_statistical == 0.0


def test_chained_report_validation():
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]]])
    with pytest.raises(ValueError):
        chained_report(1, scen, bell_state())
    with pytest.raises(ValueError):
        chained_report(3, scen, bell_state())


def _loose_bound_by_abs_coefficients(family, cols):
    """The loose chained bound as rms_a times the norm of |C| applied to the B spreads."""
    spread_b = cols["b_split"][1]
    rows = np.sum(np.abs(coefficient_tensor(family)) * spread_b[:, None, :], axis=2)
    return cols["rms_a"] * np.linalg.norm(rows, axis=1)


@pytest.mark.parametrize("n", [*range(2, 10), 64])
def test_loose_bound_reads_the_spreads_bit_for_bit(n):
    # row x of |C| holds ones at x-1 and x only, so the spreads' neighbour sums give the same
    # bits as the |C| product; half the instances put B settings along z on a product state
    # whose B qubit is |0>, where those spreads are degenerate (exactly 0 on |00>)
    family, rng = chained_family(n), np.random.default_rng(n)
    for trial in range(12):
        scen = random_scenario(family, rng)
        psi = haar_random_ket(4, rng)
        if trial % 2:
            sharp = rng.random(n) < (0.5 if trial % 4 == 1 else 1.0)
            table = [[bloch_of(op) for op in row] for row in scen.observables]
            table[1] = [[0, 0, rng.choice([-1, 1])] if s else v for s, v in zip(sharp, table[1])]
            scen = from_bloch_table(table)
            psi = KET00 if trial == 11 else np.kron(haar_random_ket(2, rng), [1.0, 0.0])
        cols = _blocks(family, scen, psi)
        want = _loose_bound_by_abs_coefficients(family, cols)
        assert cols["bound_statistical_loose"].tobytes() == want.tobytes()
        assert chained_report(n, scen, psi)[0].bound_statistical_loose == float(want[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
def test_chained_bound_chain_monotone(seed, n):
    # bell - local <= tight bound <= loose bound, up to rounding
    rng = np.random.default_rng(seed)
    scen = random_scenario(chained_family(n), rng)
    psi = haar_random_ket(4, rng)
    rep, _ = chained_report(n, scen, psi)
    assert rep.slack >= SLACK_FLOOR
    assert rep.bound_statistical <= rep.bound_statistical_loose + 1e-9
    assert rep.nonlocal_amount <= rep.bound_statistical + 1e-9


def test_mk_report_product_case_by_hand():
    # both sites measure (sigma_z, sigma_x) on |00>: value 1, local 1,
    # both block aggregates 1, so the bound sits sqrt(2) above
    scen = Scenario(observables=(((SIGMA_Z), (SIGMA_X)), ((SIGMA_Z), (SIGMA_X))))
    rep = mk_report(2, scen, KET00)
    assert rep.bell_value == pytest.approx(1.0, abs=1e-12)
    assert rep.local_part == pytest.approx(1.0, abs=1e-12)
    assert rep.rms_a == pytest.approx(1.0, abs=1e-12)
    assert rep.rms_b == pytest.approx(1.0, abs=1e-12)
    assert rep.slack == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.bound_lhv == 2.0
    assert rep.bound_tsirelson == pytest.approx(2.0 * np.sqrt(2.0))


def test_mk_report_at_top_eigenvector():
    pairs = [(SIGMA_X, SIGMA_Y)] * 3
    mk = mk_operators(3, pairs)
    top, state = top_eigenpair(mk.b)
    assert top == pytest.approx(8.0, abs=1e-9)
    scen = Scenario(observables=tuple((p, q) for p, q in pairs))
    rep = mk_report(3, scen, state)
    assert rep.bell_value == pytest.approx(8.0, abs=1e-9)
    assert rep.slack >= SLACK_FLOOR
    assert rep.bound_lhv == 4.0
    assert rep.bound_tsirelson == pytest.approx(8.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_mk_report_slack_floor_any_split(seed, n):
    rng = np.random.default_rng(seed)
    scen = random_scenario(mk_family(n), rng)
    psi = haar_random_ket(2**n, rng)
    for split in range(1, n):
        rep = mk_report(n, scen, psi, split_k=split)
        assert rep.slack >= SLACK_FLOOR
        # the raw value does not depend on how the recursion is split
        base = mk_report(n, scen, psi, split_k=1)
        assert rep.bell_value == pytest.approx(base.bell_value, abs=1e-9)


def test_mk_report_agrees_with_operator_expectation():
    rng = np.random.default_rng(5)
    pairs = [
        (bloch_observable(uniform_bloch(rng)), bloch_observable(uniform_bloch(rng)))
        for _ in range(3)
    ]
    psi = haar_random_ket(8, rng)
    mk = mk_operators(3, pairs)
    want = float(np.real(np.conj(psi) @ mk.b @ psi))
    scen = Scenario(observables=tuple(pairs))
    rep = mk_report(3, scen, psi)
    assert rep.bell_value == pytest.approx(want, abs=1e-9)


# The full-space operator is the reference route: no report builds it.
REFERENCE_FAMILIES = (
    [FamilySpec(name="chsh")]
    + [FamilySpec(name="chained", n=n) for n in range(2, 6)]
    + [FamilySpec(name="mk", n=n, split_k=k) for n in range(2, 7) for k in range(1, n)]
)


@pytest.mark.parametrize(
    "family", REFERENCE_FAMILIES, ids=lambda f: f"{f.name}-n{f.n}-k{f.split_k}"
)
def test_report_bell_value_matches_full_operator(family):
    rng = np.random.default_rng([family.n, family.split_k, len(family.name)])
    for _ in range(5):
        scen = random_scenario(family, rng)
        psi = haar_random_ket(2**family.n_parties, rng)
        rep = report_for(family, scen, psi)
        want = expectation(_bell_operator(family, scen), psi)
        assert abs(rep.bell_value - want) <= 1e-10


def test_mk2_report_equals_chsh_report():
    # at split 1, mk(2) carries exactly the CHSH coefficients
    rng = np.random.default_rng(13)
    for _ in range(10):
        scen = random_scenario(chsh_family(), rng)
        psi = haar_random_ket(4, rng)
        mk = dataclasses.asdict(mk_report(2, scen, psi))
        chsh = dataclasses.asdict(chsh_report(scen, psi))
        assert mk.pop("family") == {"name": "mk", "n": 2, "split_k": 1}
        chsh.pop("family")
        assert mk == chsh


def test_report_for_dispatch():
    rep = report_for(chsh_family(), optimal_chsh_scenario(), bell_state())
    assert rep.family.name == "chsh"
    rng = np.random.default_rng(3)
    scen = random_scenario(chained_family(3), rng)
    rep2 = report_for(chained_family(3), scen, haar_random_ket(4, rng))
    assert rep2.family.name == "chained"
    assert rep2.bound_statistical_loose is not None
    scen3 = random_scenario(mk_family(2), rng)
    rep3 = report_for(mk_family(2), scen3, haar_random_ket(4, rng))
    assert rep3.family.name == "mk"


def test_report_json_roundtrip():
    rng = np.random.default_rng(9)
    scen = random_scenario(chained_family(3), rng)
    rep, _ = chained_report(3, scen, haar_random_ket(4, rng))
    chsh = chsh_report(optimal_chsh_scenario(), bell_state())
    for report in (rep, chsh):
        doc = json.loads(json.dumps(report_to_json_dict(report)))
        assert doc.pop("schema_version") == SCHEMA_VERSION
        assert doc.pop("family") == family_to_json_dict(report.family)
        assert "bound_tsirelson_note" not in doc and "tsirelson_is_reference" not in doc
        fields = dataclasses.asdict(report)
        del fields["family"]
        # every report field is written exactly; a missing loose bound is left out
        assert doc == {k: v for k, v in fields.items() if v is not None}


def test_report_is_frozen_dataclass():
    rep = chsh_report(optimal_chsh_scenario(), bell_state())
    assert isinstance(rep, BellReport)
    with pytest.raises(Exception):
        rep.slack = 1.0


def test_tolerance_constants_published():
    assert SATURATION_ATOL == 1e-8
    assert SLACK_FLOOR == -1e-9
