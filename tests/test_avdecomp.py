"""Tests for the mean/fluctuation split of an observable acting on a state.

Expected numbers in the frozen examples were computed by hand (2x2 and
4x4 cases are small enough to do on paper) and double-checked with raw
numpy expressions inside the tests themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellvar.avdecomp import (
    SPREAD_EPS,
    AVDecomposition,
    DegenerateSpreadError,
    av_decompose,
    correlator_split,
    pearson,
    reconstruction_residual,
)
from bellvar.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    expectation,
    haar_random_ket,
    random_hermitian,
)

ATOL = 1e-10

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


def test_eigenstate_is_degenerate():
    dec = av_decompose(SIGMA_Z, KET0)
    assert dec.mean == pytest.approx(1.0, abs=ATOL)
    assert dec.spread == pytest.approx(0.0, abs=ATOL)
    assert dec.perp is None
    assert dec.degenerate


def test_maximal_fluctuation_case():
    # sigma_x on |0>: mean 0, spread 1, fluctuation direction |1>
    dec = av_decompose(SIGMA_X, KET0)
    assert dec.mean == pytest.approx(0.0, abs=ATOL)
    assert dec.spread == pytest.approx(1.0, abs=ATOL)
    np.testing.assert_allclose(dec.perp, KET1, atol=ATOL)


def test_entangled_marginal_fluctuation():
    # sigma_z on one side of the singlet-like state (|00>+|11>)/sqrt(2):
    # mean 0, spread 1, perp = (|00>-|11>)/sqrt(2)
    op = np.kron(SIGMA_Z, ID2)
    dec = av_decompose(op, PHI_PLUS)
    assert dec.mean == pytest.approx(0.0, abs=ATOL)
    assert dec.spread == pytest.approx(1.0, abs=ATOL)
    want = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(dec.perp, want, atol=ATOL)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        av_decompose(SIGMA_Z, PHI_PLUS)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim_exp=st.integers(1, 4))
def test_reconstruction_and_orthogonality(seed, dim_exp):
    dim = 2**dim_exp
    rng = np.random.default_rng(seed)
    op = random_hermitian(dim, rng)
    psi = haar_random_ket(dim, rng)
    dec = av_decompose(op, psi)
    assert reconstruction_residual(op, psi, dec) <= ATOL
    if not dec.degenerate:
        assert abs(np.vdot(psi, dec.perp)) <= ATOL
        assert np.linalg.norm(dec.perp) == pytest.approx(1.0, abs=ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_moments_match_independent_route(seed):
    rng = np.random.default_rng(seed)
    op = random_hermitian(4, rng)
    psi = haar_random_ket(4, rng)
    dec = av_decompose(op, psi)
    mean = np.real(np.conj(psi) @ op @ psi)
    second = np.real(np.conj(psi) @ op @ op @ psi)
    assert dec.mean == pytest.approx(mean, abs=1e-9)
    assert dec.spread**2 == pytest.approx(max(second - mean**2, 0.0), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sum_difference_variance_identity(seed):
    # Var(B0+B1) + Var(B0-B1) = 2 Var(B0) + 2 Var(B1), an exact operator
    # identity that the decomposition must reproduce numerically.
    rng = np.random.default_rng(seed)
    b0 = random_hermitian(4, rng)
    b1 = random_hermitian(4, rng)
    psi = haar_random_ket(4, rng)
    v_sum = av_decompose(b0 + b1, psi).spread ** 2
    v_diff = av_decompose(b0 - b1, psi).spread ** 2
    v0 = av_decompose(b0, psi).spread ** 2
    v1 = av_decompose(b1, psi).spread ** 2
    assert v_sum + v_diff == pytest.approx(2 * (v0 + v1), abs=1e-8)


def test_correlator_split_frozen_example():
    # perfectly correlated pair: joint 1, means 0, spreads 1, overlap 1
    a = np.kron(SIGMA_Z, ID2)
    b = np.kron(ID2, SIGMA_Z)
    split = correlator_split(a, b, PHI_PLUS)
    assert split.joint == pytest.approx(1.0, abs=ATOL)
    assert split.local_product == pytest.approx(0.0, abs=ATOL)
    assert split.spread_product == pytest.approx(1.0, abs=ATOL)
    assert split.overlap == pytest.approx(1.0 + 0.0j, abs=ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_correlator_split_identity_holds(seed):
    rng = np.random.default_rng(seed)
    a = np.kron(random_hermitian(2, rng), ID2)
    b = np.kron(ID2, random_hermitian(2, rng))
    psi = haar_random_ket(4, rng)
    split = correlator_split(a, b, psi)
    rebuilt = split.local_product + split.spread_product * split.overlap.real
    assert split.joint == pytest.approx(rebuilt, abs=1e-9)
    # disjoint factors: the overlap must come out real
    assert abs(split.overlap.imag) <= ATOL


def test_correlator_split_rejects_noncommuting():
    with pytest.raises(ValueError, match="commute"):
        correlator_split(SIGMA_X, SIGMA_Z, KET0)


def test_correlator_split_rejects_operators_of_different_shapes():
    with pytest.raises(ValueError, match=r"operator shapes differ: \(4, 4\) vs \(2, 2\)"):
        correlator_split(np.kron(SIGMA_Z, ID2), SIGMA_Z, KET0)


def test_correlator_split_degenerate_overlap_is_zero():
    a = np.kron(SIGMA_Z, ID2)
    b = np.kron(ID2, SIGMA_Z)
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |00>, both spreads 0
    split = correlator_split(a, b, psi)
    assert split.overlap == 0.0 + 0.0j
    assert split.joint == pytest.approx(split.local_product, abs=ATOL)


def test_pearson_frozen_values():
    a = np.kron(SIGMA_Z, ID2)
    b = np.kron(ID2, SIGMA_Z)
    bx = np.kron(ID2, SIGMA_X)
    assert pearson(a, b, PHI_PLUS) == pytest.approx(1.0, abs=ATOL)
    assert pearson(a, bx, PHI_PLUS) == pytest.approx(0.0, abs=ATOL)


def test_pearson_degenerate_raises():
    a = np.kron(SIGMA_Z, ID2)
    b = np.kron(ID2, SIGMA_Z)
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateSpreadError):
        pearson(a, b, psi)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pearson_bounded_by_one(seed):
    rng = np.random.default_rng(seed)
    a = np.kron(random_hermitian(2, rng), ID2)
    b = np.kron(ID2, random_hermitian(2, rng))
    psi = haar_random_ket(4, rng)
    try:
        r = pearson(a, b, psi)
    except DegenerateSpreadError:
        return  # measure-zero corner, nothing to check
    assert abs(r) <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.1, 3.0),
    beta=st.floats(-2.0, 2.0),
)
def test_pearson_affine_invariance(seed, alpha, beta):
    # r(alpha A + beta, B) = r(A, B) for alpha > 0
    rng = np.random.default_rng(seed)
    a = np.kron(random_hermitian(2, rng), ID2)
    b = np.kron(ID2, random_hermitian(2, rng))
    psi = haar_random_ket(4, rng)
    try:
        base = pearson(a, b, psi)
        shifted = pearson(alpha * a + beta * np.eye(4), b, psi)
    except DegenerateSpreadError:
        return
    assert shifted == pytest.approx(base, abs=1e-8)


NAN_KET = np.array([np.nan, 0.0], dtype=complex)
NAN_PAIR_KET = np.array([np.nan, 0.0, 0.0, 0.0], dtype=complex)


@pytest.mark.parametrize(
    "call",
    [
        lambda: expectation(SIGMA_X, NAN_KET),
        lambda: av_decompose(SIGMA_X, NAN_KET),
        lambda: correlator_split(np.kron(SIGMA_X, ID2), np.kron(ID2, SIGMA_Z), NAN_PAIR_KET),
        lambda: pearson(np.kron(SIGMA_X, ID2), np.kron(ID2, SIGMA_Z), NAN_PAIR_KET),
    ],
    ids=["expectation", "av_decompose", "correlator_split", "pearson"],
)
def test_nan_state_raises(call):
    with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError):
        call()


def test_spread_epsilon_is_the_published_threshold():
    assert SPREAD_EPS == 1e-9
    # just under threshold: mean 1, tiny off-diagonal mixing
    eps = 1e-10
    op = np.array([[1.0, eps], [eps, -1.0]])
    dec = av_decompose(op, KET0)
    assert dec.degenerate


def test_decomposition_dataclass_is_frozen():
    dec = av_decompose(SIGMA_X, KET0)
    assert isinstance(dec, AVDecomposition)
    with pytest.raises(Exception):
        dec.mean = 2.0
