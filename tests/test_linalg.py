"""Unit tests for the dense linear-algebra helpers.

Oracle values come from straight numpy calls (kron, eigvalsh) so the
helpers are checked against an independent route instead of themselves.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellvar
from bellvar import linalg
from bellvar.linalg import (
    DIM_CAP,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _fix_global_phase,
    _shifted_power_state,
    as_hermitian,
    as_ket,
    expectation,
    haar_random_ket,
    is_dichotomic,
    random_hermitian,
    tensor_product,
    top_eigenpair,
)
from bellvar.scenarios import ghz_state, operator_from_tensor

ATOL = 1e-10


def test_pauli_constants():
    np.testing.assert_array_equal(SIGMA_Z, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(SIGMA_X @ np.array([1.0, 0.0]), [0.0, 1.0])
    np.testing.assert_allclose(SIGMA_Y @ SIGMA_Y, ID2, atol=0)
    for p in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert is_dichotomic(p)
    assert not is_dichotomic(np.diag([1.0, 0.5]))
    assert not is_dichotomic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_ket_accepts_normalized_vectors():
    v = as_ket([1.0, 0.0])
    assert v.dtype == np.complex128
    assert v.shape == (2,)


def test_as_ket_rejects_bad_input():
    with pytest.raises(ValueError):
        as_ket([1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        as_ket([0.5, 0.5, 0.5, 0.25, 0.25])  # length 5 is not a power of two
    with pytest.raises(ValueError):
        as_ket(np.zeros(4))


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NONFINITE)
def test_as_ket_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="not normalized"):
        as_ket([bad, 0.0, 0.0, 0.0])


def test_as_ket_rejects_a_matrix():
    # a 2x2 array of Frobenius norm 1 and power-of-two leading axis is still no ket
    with pytest.raises(ValueError, match=r"ket must be 1-d, got shape \(2, 2\)"):
        as_ket(np.eye(2) / np.sqrt(2.0))


def test_as_ket_rejects_oversized_vectors():
    n = DIM_CAP * 2
    v = np.zeros(n)
    v[0] = 1.0
    with pytest.raises(ValueError):
        as_ket(v)


def test_as_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_hermitian(np.ones((2, 3)))


def test_as_hermitian_rejects_a_dimension_not_a_power_of_two():
    with pytest.raises(ValueError, match="operator dimension 3 is not a power of two"):
        as_hermitian(np.eye(3))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_as_hermitian_rejects_nonfinite(bad, entry):
    op = np.eye(2, dtype=complex)
    op[entry] = bad
    op[entry[::-1]] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(op)


def test_tensor_product_matches_kron_order():
    # site 0 is the leftmost factor: sigma_z (x) id flips nothing on site 1
    got = tensor_product(SIGMA_Z, ID2)
    np.testing.assert_array_equal(got, np.kron(SIGMA_Z, ID2))
    got2 = tensor_product([SIGMA_X, SIGMA_Y, SIGMA_Z])
    np.testing.assert_array_equal(got2, np.kron(np.kron(SIGMA_X, SIGMA_Y), SIGMA_Z))


def test_tensor_product_checks_the_cap_on_kets():
    assert tensor_product([np.array([1.0, 0.0])] * 12).shape == (DIM_CAP,)
    with pytest.raises(ValueError, match="dimension 8192 exceeds cap"):
        tensor_product([np.array([1.0, 0.0])] * 13)


def _address_space_of_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_tensor_product_checks_the_cap_before_building():
    # 13 sigma_x factors already make a 1 GiB product and 14 a 4 GiB one; within a 1 GiB
    # address space both must meet the cap error, before any product is built.  At 64 factors
    # a product of numpy integers would wrap to 0.
    src = str(Path(bellvar.__file__).resolve().parents[1])
    code = (
        "from bellvar.linalg import SIGMA_X, tensor_product\n"
        "for n in (14, 64):\n"
        "    try:\n"
        "        tensor_product([SIGMA_X] * n)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_address_space_of_1_gib,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"tensor product dimension {2**14} exceeds cap {DIM_CAP}",
        f"tensor product dimension {2**64} exceeds cap {DIM_CAP}",
    ]


def test_tensor_product_empty_rejected():
    with pytest.raises(ValueError):
        tensor_product([])


def test_apply_and_inner_product():
    # expectation applies the operator itself, after a dimension check
    psi = as_ket([1.0, 0.0])
    assert expectation(SIGMA_Z, psi) == 1.0
    assert expectation(SIGMA_X, psi) == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        expectation(SIGMA_X, as_ket([0.5, 0.5, 0.5, 0.5]))


def test_expectation_matches_rayleigh_quotient():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        a = random_hermitian(dim, rng)
        psi = haar_random_ket(dim, rng)
        want = float(np.real(np.conj(psi) @ a @ psi))
        assert expectation(a, psi) == pytest.approx(want, abs=ATOL)


def test_expectation_rejects_complex_value():
    # a non-Hermitian operator should trip the imaginary-part guard rather
    # than silently truncating
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    psi = as_ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
    with pytest.raises(ArithmeticError):
        expectation(bad, psi)


def test_fix_global_phase_first_amplitude_real_positive():
    v = np.array([0.0, 1j / np.sqrt(2), -1 / np.sqrt(2), 0.0])
    w = _fix_global_phase(v)
    idx = np.flatnonzero(np.abs(w) > 1e-12)[0]
    assert w[idx].real > 0
    assert abs(w[idx].imag) < 1e-12
    # applying twice changes nothing
    np.testing.assert_allclose(_fix_global_phase(w), w, atol=0)
    # norm preserved
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_fix_global_phase_leaves_a_vector_with_no_amplitude_above_1e_12():
    for vec in (np.zeros(4, dtype=complex), np.full(2, 1e-13j)):
        fixed = _fix_global_phase(vec)
        assert isinstance(fixed, np.ndarray)
        np.testing.assert_array_equal(fixed, vec)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim_exp=st.integers(1, 4))
def test_top_eigenpair_agrees_with_eigvalsh(seed, dim_exp):
    dim = 2**dim_exp
    a = random_hermitian(dim, np.random.default_rng(seed))
    val, vec = top_eigenpair(a)
    want = float(np.linalg.eigvalsh(a)[-1])
    assert val == pytest.approx(want, abs=1e-9)
    residual = np.linalg.norm(a @ vec - val * vec)
    assert residual <= 1e-10 * max(1.0, abs(val))
    idx = np.flatnonzero(np.abs(vec) > 1e-12)[0]
    assert vec[idx].real > 0 and abs(vec[idx].imag) < 1e-12


def test_top_eigenpair_rejects_non_hermitian():
    with pytest.raises(ValueError):
        top_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _led_by_its_bottom(rng) -> tuple[np.ndarray, np.ndarray]:
    """A 4 x 4 Hermitian operator with spectrum (-3, 2, 1, 0), and its eigenbasis."""
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    basis, _ = np.linalg.qr(raw)
    op = (basis * [-3.0, 2.0, 1.0, 0.0]) @ basis.conj().T
    return (op + op.conj().T) / 2.0, basis


@pytest.mark.parametrize("seed", range(4))
def test_shifted_power_state_finds_the_top_of_a_spectrum_led_by_its_bottom(seed):
    # -3 has the largest modulus: with no shift the iteration settles on its eigenvector
    rng = np.random.default_rng(seed)
    op, basis = _led_by_its_bottom(rng)
    vec = _shifted_power_state(op, haar_random_ket(4, rng), 3.0)
    assert abs(np.vdot(basis[:, 1], vec)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(op, vec) == pytest.approx(2.0, abs=1e-12)
    assert vec[0].real > 0.0 and abs(vec[0].imag) <= 1e-15


def test_shifted_power_state_takes_no_step_from_a_top_eigenvector(monkeypatch):
    op, basis = _led_by_its_bottom(np.random.default_rng(0))
    start = basis[:, 1]
    monkeypatch.setattr(linalg, "_POWER_ITERS", 0)
    unstepped = _shifted_power_state(op, start, 3.0)
    np.testing.assert_array_equal(unstepped, _fix_global_phase(start))
    monkeypatch.setattr(linalg, "_POWER_ITERS", 1)
    np.testing.assert_array_equal(_shifted_power_state(op, start, 3.0), unstepped)


def test_shifted_power_state_fails_closed():
    with pytest.raises(ArithmeticError, match="non-finite"):
        _shifted_power_state(SIGMA_Z, np.array([np.nan, 1.0], dtype=complex), 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        _shifted_power_state(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]), 1.0)


def test_haar_random_ket_is_deterministic_and_normalized():
    u = haar_random_ket(8, np.random.default_rng(123))
    v = haar_random_ket(8, np.random.default_rng(123))
    np.testing.assert_array_equal(u, v)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    w = haar_random_ket(8, np.random.default_rng(124))
    assert not np.allclose(u, w)


def test_random_hermitian_is_hermitian_and_seeded():
    a = random_hermitian(8, np.random.default_rng(5))
    b = random_hermitian(8, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a - a.conj().T) == 0.0


def test_dimension_cap_enforced_on_embedding():
    # 13 qubits (dimension 2**13) exceed the cap, for states and for operators
    with pytest.raises(ValueError, match="out of supported range"):
        ghz_state(13)
    with pytest.raises(ValueError, match="exceeds cap"):
        operator_from_tensor(np.ones((1,) * 13), [[SIGMA_Z]] * 13)


def test_module_reexports():
    assert linalg.DIM_CAP == 2**12
