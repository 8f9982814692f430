"""Named saturating configurations."""

import tracemalloc

import numpy as np
import pytest

from bellvar.bounds import chained_report, chsh_report, mk_report, saturation_check
from bellvar.linalg import SIGMA_X, SIGMA_Y, top_eigenpair
from bellvar.presets import PRESET_NAMES, preset
from bellvar.scenarios import coefficient_tensor, mk_family, mk_operators, operator_from_tensor


def test_preset_names_frozen():
    assert PRESET_NAMES == ("chsh-optimal", "chained-n", "mk-ghz")


def test_chsh_optimal_saturates():
    p = preset("chsh-optimal")
    assert p.family.name == "chsh"
    rep = chsh_report(p.scenario, p.state)
    assert rep.bell_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
    assert abs(rep.slack) <= 1e-10
    assert saturation_check(p.scenario, p.state).all_true()
    with pytest.raises(ValueError):
        preset("chsh-optimal", n=3)


def test_chained_preset_saturates_for_several_sizes():
    for n in (2, 3, 5, 7):
        p = preset("chained-n", n=n)
        assert p.family.n == n
        rep, _ = chained_report(n, p.scenario, p.state)
        assert rep.bell_value == pytest.approx(2 * n * np.cos(np.pi / (2 * n)), abs=1e-9)
        assert abs(rep.slack) <= 1e-9
    assert preset("chained-n").family.n == 3  # default size


def test_mk_ghz_preset_hits_quantum_maximum():
    for n in (2, 3, 4):
        p = preset("mk-ghz", n=n)
        rep = mk_report(n, p.scenario, p.state)
        assert rep.bell_value == pytest.approx(2.0 ** (1.5 * (n - 1)), abs=1e-8)
        assert rep.slack >= -1e-9
        # state is phase-fixed, so presets are fully deterministic
        idx = np.flatnonzero(np.abs(p.state) > 1e-12)[0]
        assert p.state[idx].real > 0
    assert preset("mk-ghz").family.n == 3


@pytest.mark.parametrize("n", range(2, 9))
def test_mk_ghz_state_matches_mk_operators_route(n):
    # the preset builds B alone; the MK pair's B is the reference, bit for bit
    _, want = top_eigenpair(mk_operators(n, [(SIGMA_X, SIGMA_Y)] * n).b)
    assert np.array_equal(preset("mk-ghz", n=n).state, want)


@pytest.mark.parametrize("n", range(2, 9))
def test_mk_ghz_closed_form_is_the_top_eigenvector_of_b(n):
    state = preset("mk-ghz", n=n).state
    assert np.flatnonzero(state).tolist() == [0, 2**n - 1]
    c = 1.0 / np.sqrt(2.0)
    assert state[0] == pytest.approx(c, abs=1e-15)
    assert state[-1] == pytest.approx(c * np.exp(1j * (n - 1) * np.pi / 4), abs=1e-15)
    op = operator_from_tensor(coefficient_tensor(mk_family(n)), [(SIGMA_X, SIGMA_Y)] * n)
    lam = 2.0 ** (1.5 * (n - 1))
    assert np.linalg.norm(op @ state - lam * state) <= 1e-10 * lam


def test_mk_ghz_preset_allocates_no_operator():
    preset("mk-ghz", n=8)  # warm up lazy imports and caches before tracing
    tracemalloc.start()
    try:
        preset("mk-ghz", n=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the 256 x 256 complex MK operator alone is 1 MiB


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="available"):
        preset("best-one")
