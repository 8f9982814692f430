"""Scenario construction, coefficient tensors, operators, LHV enumeration, JSON I/O."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellvar import scenarios
from bellvar.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_hermitian, as_ket, tensor_product
from bellvar.scenarios import (
    LHV_ENUMERATION_CAP_BITS,
    MK_MAX_PARTIES,
    SCHEMA_VERSION,
    FamilySpec,
    Scenario,
    _contract,
    _operators,
    bell_state,
    bloch_observable,
    bloch_of,
    chained_coefficients,
    chained_family,
    check_family_scenario,
    chsh_coefficients,
    chsh_family,
    coefficient_tensor,
    family_from_json_dict,
    family_to_json_dict,
    from_bloch_table,
    ghz_state,
    lhv_max,
    load_scenario_file,
    mk_coefficient_pair,
    mk_family,
    mk_operators,
    operator_from_tensor,
    random_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    uniform_bloch,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _kron_sum_operator(coeff, observables):
    """Reference Bell operator: one Kronecker chain per nonzero coefficient."""
    dim = 2 ** len(observables)
    out = np.zeros((dim, dim), dtype=complex)
    for idx in np.ndindex(*coeff.shape):
        c = coeff[idx]
        if c == 0:
            continue
        out += float(c) * tensor_product([observables[p][s] for p, s in enumerate(idx)])
    return out


def test_bloch_observable_axes():
    np.testing.assert_allclose(bloch_observable([0, 0, 1]), SIGMA_Z, atol=0)
    np.testing.assert_allclose(bloch_observable([1, 0, 0]), SIGMA_X, atol=0)
    np.testing.assert_allclose(bloch_observable([0, 1, 0]), SIGMA_Y, atol=0)


def test_bloch_observable_requires_unit_vector():
    with pytest.raises(ValueError):
        bloch_observable([0, 0, 0.5])
    with pytest.raises(ValueError):
        bloch_observable([1, 1, 1])


@pytest.mark.parametrize("vec, shown", [([0, 0, 2], "2.0"), ([0, 0, 5e-324], "0.0")])
def test_bloch_norm_error_prints_a_plain_float(vec, shown):
    with pytest.raises(ValueError) as exc:
        bloch_observable(vec)
    assert str(exc.value) == f"Bloch vector is not unit length: |v| = {shown}"
    assert "np.float64" not in str(exc.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bloch_observable_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="unit length"):
        bloch_observable([bad, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bloch_observable_is_dichotomic_and_roundtrips(seed):
    v = uniform_bloch(np.random.default_rng(seed))
    op = bloch_observable(v)
    assert np.linalg.norm(op @ op - ID2) <= 1e-12
    assert np.trace(op) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(bloch_of(op), v, atol=1e-12)


def test_scenario_rejects_bad_observables():
    with pytest.raises(ValueError):
        Scenario(observables=((np.diag([1.0, 0.5]),),))  # not dichotomic
    with pytest.raises(ValueError):
        Scenario(observables=((np.array([[0, 1], [0, 0]], dtype=float),),))
    with pytest.raises(ValueError):
        Scenario(observables=())
    with pytest.raises(ValueError):
        Scenario(observables=((),))


def test_scenario_observables_are_write_protected():
    scen = from_bloch_table([[[0, 0, 1]], [[1, 0, 0]]])
    with pytest.raises(ValueError):
        scen.observables[0][0][0, 0] = 5.0


def test_family_spec_validation():
    assert chsh_family().settings_per_party == (2, 2)
    assert chained_family(4).settings_per_party == (4, 4)
    assert mk_family(3).settings_per_party == (2, 2, 2)
    assert mk_family(5, split_k=2).n_parties == 5
    with pytest.raises(ValueError):
        FamilySpec(name="chsh", n=3)
    with pytest.raises(ValueError):
        FamilySpec(name="chained", n=1)
    with pytest.raises(ValueError):
        FamilySpec(name="mk", n=MK_MAX_PARTIES + 1)
    with pytest.raises(ValueError):
        FamilySpec(name="mk", n=3, split_k=3)
    with pytest.raises(ValueError):
        FamilySpec(name="elegant")


def test_check_family_scenario_shape_mismatch():
    scen = from_bloch_table([[[0, 0, 1]], [[1, 0, 0]]])
    with pytest.raises(ValueError, match="does not match"):
        check_family_scenario(chsh_family(), scen)


def test_chsh_coefficients_frozen():
    np.testing.assert_array_equal(chsh_coefficients(), [[1, 1], [1, -1]])


def test_chained_coefficients_frozen():
    np.testing.assert_array_equal(
        chained_coefficients(3), [[1, 0, -1], [1, 1, 0], [0, 1, 1]]
    )
    # n = 2 is CHSH after flipping the second column (B_1 -> -B_1)
    two = chained_coefficients(2)
    flipped = two * np.array([[1, -1], [1, -1]])
    np.testing.assert_array_equal(flipped, chsh_coefficients())
    with pytest.raises(ValueError):
        chained_coefficients(1)


def test_chsh_operator_matches_hand_built_kron():
    a0 = bloch_observable([INV_SQRT2, 0, INV_SQRT2])
    a1 = bloch_observable([-INV_SQRT2, 0, INV_SQRT2])
    b0, b1 = SIGMA_Z, SIGMA_X
    want = (
        np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)
    )
    op = operator_from_tensor(chsh_coefficients(), ((a0, a1), (b0, b1)))
    np.testing.assert_allclose(op, want, atol=1e-14)


_CONTRACTION_CASES = (
    [pytest.param(chsh_family(), id="chsh")]
    + [pytest.param(chained_family(n), id=f"chained-n{n}") for n in range(2, 7)]
    + [
        pytest.param(mk_family(n, k), id=f"mk-n{n}-k{k}")
        for n in range(2, MK_MAX_PARTIES + 1)
        for k in range(1, n)
    ]
)


@pytest.mark.parametrize("family", _CONTRACTION_CASES)
def test_operator_from_tensor_matches_kron_reference(family):
    if family.name == "mk":
        tensors = mk_coefficient_pair(family.n, family.split_k)
    else:
        tensors = (coefficient_tensor(family),)
    rng = np.random.default_rng(family.n * 10 + family.split_k)
    observables = random_scenario(family, rng).observables
    for coeff in tensors:
        np.testing.assert_allclose(
            operator_from_tensor(coeff, observables),
            _kron_sum_operator(coeff, observables),
            rtol=0,
            atol=1e-12,
        )


def _tensordot_fold(tensor, stacks):
    """One instance's fold, one ``tensordot`` per axis: ``_contract`` before its instance axis."""
    value = tensor
    for stack in stacks:
        value = np.tensordot(value, stack, axes=([0], [0]))
    return value


def _random_stacks(rng, n, shapes, dtype):
    """``(n, *shape)`` stacks: small integers for int64, Gaussian entries for complex."""
    if dtype == np.int64:
        return [rng.integers(-3, 4, size=(n, *shape)) for shape in shapes]
    return [
        rng.standard_normal((n, *shape)) + 1j * rng.standard_normal((n, *shape)) for shape in shapes
    ]


@pytest.mark.parametrize("dtype", [np.int64, complex], ids=["int64", "complex"])
@pytest.mark.parametrize(
    "tensor_shape, rest",
    [
        ((2, 2), [(2, 2), (2, 2)]),
        ((3, 4, 2), [(5,), (2, 2), (3,)]),
        ((2, 2, 2, 3), [(4,), (1,), (2, 3)]),
    ],
    ids=["operator", "vectors", "extra-axis"],
)
def test_contract_matches_tensordot_fold(dtype, tensor_shape, rest):
    rng = np.random.default_rng(len(tensor_shape) * 7 + len(rest))
    n = 4
    tensor = _random_stacks(rng, 1, [tensor_shape], dtype)[0][0]
    shapes = [(s, *r) for s, r in zip(tensor_shape, rest)]
    per_instance = _random_stacks(rng, n, shapes, dtype)
    exact = dtype == np.int64

    def check(got, want):
        if exact:
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    shared = [stack[:1] for stack in per_instance]
    got = _contract(tensor, shared)
    assert got.shape == (1, *tensor_shape[len(rest) :], *(d for r in rest for d in r))
    check(got[0], _tensordot_fold(tensor, [stack[0] for stack in shared]))
    got = _contract(tensor, per_instance)
    assert got.shape[0] == n
    for i in range(n):
        check(got[i], _tensordot_fold(tensor, [stack[i] for stack in per_instance]))
    # a shared stack broadcasts against per-instance ones
    mixed = [shared[0], *per_instance[1:]]
    got = _contract(tensor, mixed)
    for i in range(n):
        stacks = [shared[0][0], *(stack[i] for stack in per_instance[1:])]
        check(got[i], _tensordot_fold(tensor, stacks))


def _per_instance_mk_blocks(n_sites, split_k, sites):
    """The MK pair of every instance, one ``operator_from_tensor`` per instance and operator."""
    pair = mk_coefficient_pair(n_sites, split_k)
    return np.array([[operator_from_tensor(t, rows) for t in pair] for rows in sites])


@pytest.mark.parametrize(
    "n, k",
    [
        pytest.param(n, k, id=f"mk-n{n}-k{k}")
        for n in range(2, MK_MAX_PARTIES + 1)
        for k in range(1, n)
    ],
)
def test_batched_mk_blocks_match_per_instance_reference(n, k):
    rng = np.random.default_rng(100 * n + k)
    n_instances = 3
    family = mk_family(n, k)
    sites = np.array(
        [random_scenario(family, rng).observables for _ in range(n_instances)]
    )
    # the top-level pair, then the two blocks the report kernel folds (inner split 1)
    for lo, hi, split in ((0, n, k), (0, k, 1), (k, n, 1)):
        block = sites[:, lo:hi]
        pair = np.stack(mk_coefficient_pair(hi - lo, split), axis=-1)
        got = _operators(pair, list(block.swapaxes(0, 1)))
        dim = 2 ** (hi - lo)
        assert got.shape == (n_instances, 2, dim, dim)
        np.testing.assert_allclose(
            got, _per_instance_mk_blocks(hi - lo, split, block), rtol=0, atol=1e-12
        )
        if hi - lo == 1:
            # the one-site pair is the identity tensor: the fold returns the site stack
            np.testing.assert_array_equal(got, block[:, 0])


def test_chsh_operator_top_eigenvalue_at_optimal_settings():
    a0 = bloch_observable([INV_SQRT2, 0, INV_SQRT2])
    a1 = bloch_observable([-INV_SQRT2, 0, INV_SQRT2])
    op = operator_from_tensor(chsh_coefficients(), ((a0, a1), (SIGMA_Z, SIGMA_X)))
    top = np.linalg.eigvalsh(op)[-1]
    assert top == pytest.approx(2 * np.sqrt(2.0), abs=1e-12)


def test_chained_operator_planar_top_eigenvalue():
    # n=3 with both parties' directions interleaved on a circle; the
    # largest eigenvalue lands at 2n cos(pi/2n) = 3 sqrt(3)
    n = 3
    a_dirs = [(2 * k - 1) * np.pi / (2 * n) for k in range(1, n + 1)]
    b_dirs = [j * np.pi / n for j in range(n)]
    a_ops = [bloch_observable([np.sin(t), 0, np.cos(t)]) for t in a_dirs]
    b_ops = [bloch_observable([np.sin(t), 0, np.cos(t)]) for t in b_dirs]
    op = operator_from_tensor(chained_coefficients(n), (a_ops, b_ops))
    top = np.linalg.eigvalsh(op)[-1]
    assert top == pytest.approx(3 * np.sqrt(3.0), abs=1e-9)


def test_chained_operator_argument_validation():
    # a 3-setting coefficient tensor against two settings per party
    ops = [SIGMA_Z, SIGMA_X]
    with pytest.raises(ValueError, match="coefficient shape"):
        operator_from_tensor(chained_coefficients(3), (ops, ops))


def test_mk_pair_two_sites_matches_expansion():
    pairs = [(SIGMA_Z, SIGMA_X), (SIGMA_Z, SIGMA_X)]
    mk = mk_operators(2, pairs)
    a, ap = pairs[0]
    b, bp = pairs[1]
    want = np.kron(a, b + bp) + np.kron(ap, b - bp)
    want_prime = np.kron(a + ap, bp) - np.kron(a - ap, b)
    np.testing.assert_allclose(mk.b, want, atol=1e-14)
    np.testing.assert_allclose(mk.b_prime, want_prime, atol=1e-14)


def test_mk_pair_three_sites_matches_recursive_expansion():
    # build the 3-site operator by hand from the 2-site pair, then compare
    pairs = [(SIGMA_X, SIGMA_Y)] * 3
    tail = mk_operators(2, pairs[1:])
    head, head_p = pairs[0]
    want = np.kron(head, tail.b + tail.b_prime) + np.kron(head_p, tail.b - tail.b_prime)
    got = mk_operators(3, pairs)
    np.testing.assert_allclose(got.b, want, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_mk_square_identity_any_split(seed, n):
    rng = np.random.default_rng(seed)
    pairs = [
        (bloch_observable(uniform_bloch(rng)), bloch_observable(uniform_bloch(rng)))
        for _ in range(n)
    ]
    split = int(rng.integers(1, n))
    mk = mk_operators(n, pairs, split_k=split)
    diff = np.linalg.norm(mk.b @ mk.b - mk.b_prime @ mk.b_prime)
    assert diff <= 1e-9
    tr, tr_p = mk.squared_traces()
    assert tr == pytest.approx(tr_p, abs=1e-8)


def test_mk_split_invariance_of_coefficients():
    # the recursion may split anywhere; all splits give the same tensors up
    # to the square identity, and for these operators the same top value
    pairs = [(SIGMA_Z, SIGMA_X)] * 4
    tops = []
    for k in (1, 2, 3):
        mk = mk_operators(4, pairs, split_k=k)
        tops.append(np.linalg.eigvalsh(mk.b)[-1])
    assert max(tops) - min(tops) <= 1e-9


def test_mk_operators_argument_validation():
    pairs = [(SIGMA_Z, SIGMA_X)] * 2
    with pytest.raises(ValueError):
        mk_operators(1, pairs[:1])
    with pytest.raises(ValueError):
        mk_operators(3, pairs)
    with pytest.raises(ValueError):
        mk_operators(2, pairs, split_k=2)
    with pytest.raises(ValueError):
        mk_coefficient_pair(MK_MAX_PARTIES + 1)


def test_coefficient_tensor_dispatch():
    np.testing.assert_array_equal(coefficient_tensor(chsh_family()), chsh_coefficients())
    np.testing.assert_array_equal(
        coefficient_tensor(chained_family(5)), chained_coefficients(5)
    )
    np.testing.assert_array_equal(
        coefficient_tensor(mk_family(3)), mk_coefficient_pair(3)[0]
    )


def test_bell_operator_uses_family_shape():
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]]])
    op = operator_from_tensor(coefficient_tensor(chsh_family()), scen.observables)
    want = _kron_sum_operator(chsh_coefficients(), ((SIGMA_Z, SIGMA_X), (SIGMA_Z, SIGMA_X)))
    np.testing.assert_allclose(op, want, atol=1e-14)
    with pytest.raises(ValueError, match="coefficient shape"):
        operator_from_tensor(coefficient_tensor(chained_family(3)), scen.observables)


def test_lhv_max_closed_forms():
    assert lhv_max(chsh_family()) == 2.0
    for n in range(2, 13):
        assert lhv_max(chained_family(n)) == float(2 * n - 2)
    for n in range(2, 9):
        for k in range(1, n):
            assert lhv_max(mk_family(n, split_k=k)) == float(2 ** (n - 1))


def _lhv_by_enumeration(coeff) -> int:
    """Every +-1 assignment to every (party, setting), summed term by term: no fold."""
    settings = coeff.shape
    assignments = np.arange(2 ** sum(settings))
    # column j holds outcome j of every assignment; party p's settings start at offsets[p]
    columns = [(1 - 2 * ((assignments >> j) & 1)).astype(np.int8) for j in range(sum(settings))]
    offsets = np.concatenate([[0], np.cumsum(settings)[:-1]])
    values = np.zeros(len(assignments), dtype=np.int64)
    for index in zip(*np.nonzero(coeff)):
        term = np.full(len(assignments), int(coeff[index]), dtype=np.int64)
        for offset, s in zip(offsets, index):
            term *= columns[offset + s]
        values += term
    return int(values.max())


_LHV_FAMILIES = (
    [chsh_family()]
    + [chained_family(n) for n in range(2, 11)]
    + [mk_family(n, k) for n in range(2, 9) for k in range(1, n)]
)


@pytest.mark.parametrize("family", _LHV_FAMILIES, ids=lambda f: f"{f.name}{f.n}-k{f.split_k}")
def test_lhv_max_matches_enumeration(family):
    assert lhv_max(family) == float(_lhv_by_enumeration(coefficient_tensor(family)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "family",
    [chsh_family(), chained_family(3), chained_family(6), mk_family(3), mk_family(6)],
    ids=lambda f: f"{f.name}{f.n}",
)
def test_lhv_max_matches_enumeration_on_random_coefficients(monkeypatch, family, seed):
    # every family's optimum is reached with the last party answering +1 everywhere;
    # random integer coefficients also check the per-setting sign choice
    coeff = np.random.default_rng(seed).integers(-3, 4, size=family.settings_per_party)
    monkeypatch.setattr(scenarios, "coefficient_tensor", lambda _: coeff)
    assert lhv_max(family) == float(_lhv_by_enumeration(coeff))


def test_lhv_max_memory():
    lhv_max(chained_family(2))  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        lhv_max(chained_family(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_lhv_max_split_independent():
    assert lhv_max(mk_family(4, split_k=2)) == lhv_max(mk_family(4, split_k=1))


def test_lhv_enumeration_cap():
    assert LHV_ENUMERATION_CAP_BITS == 24
    with pytest.raises(ValueError, match="cap"):
        lhv_max(chained_family(13))  # 26 bits of strategy space


def test_random_scenario_matches_family_shape():
    rng = np.random.default_rng(0)
    scen = random_scenario(chained_family(4), rng)
    assert scen.settings_per_party == (4, 4)
    scen2 = random_scenario(mk_family(3), rng)
    assert scen2.settings_per_party == (2, 2, 2)
    assert scen2.bloch is not None


def test_states():
    phi = bell_state()
    np.testing.assert_allclose(phi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    g = ghz_state(3)
    assert g.shape == (8,)
    assert g[0] == pytest.approx(INV_SQRT2)
    assert g[-1] == pytest.approx(INV_SQRT2)
    assert np.count_nonzero(g) == 2
    with pytest.raises(ValueError):
        ghz_state(0)
    with pytest.raises(ValueError):
        ghz_state(20)


def test_scenario_json_roundtrip_bloch():
    table = [[[0, 0, 1], [1, 0, 0]], [[INV_SQRT2, 0, INV_SQRT2], [0, 1, 0]]]
    scen = from_bloch_table(table)
    doc = scenario_to_json_dict(scen, chsh_family())
    assert doc["schema_version"] == SCHEMA_VERSION
    # bloch vectors must survive the trip exactly, not via re-derivation
    assert doc["parties"][0]["observables"][0] == {"bloch": [0.0, 0.0, 1.0]}
    back, family = scenario_from_json_dict(json.loads(json.dumps(doc)))
    assert family == chsh_family()
    for p in range(2):
        for s in range(2):
            np.testing.assert_allclose(
                back.observables[p][s], scen.observables[p][s], atol=1e-15
            )


def test_scenario_json_roundtrip_matrix():
    scen = Scenario(observables=((SIGMA_Y,), (SIGMA_Z,)))
    doc = scenario_to_json_dict(scen)
    entry = doc["parties"][0]["observables"][0]
    assert "matrix" in entry
    back, family = scenario_from_json_dict(doc)
    assert family is None
    np.testing.assert_allclose(back.observables[0][0], SIGMA_Y, atol=0)


def test_scenario_json_rejects_malformed_documents():
    good = scenario_to_json_dict(from_bloch_table([[[0, 0, 1]], [[1, 0, 0]]]))
    bad_version = dict(good, schema_version=99)
    with pytest.raises(ValueError, match="schema_version"):
        scenario_from_json_dict(bad_version)
    with pytest.raises(ValueError):
        scenario_from_json_dict({"schema_version": SCHEMA_VERSION})
    with pytest.raises(ValueError):
        scenario_from_json_dict({"schema_version": SCHEMA_VERSION, "parties": [{}]})
    with pytest.raises(ValueError):
        scenario_from_json_dict(
            {
                "schema_version": SCHEMA_VERSION,
                "parties": [{"observables": [{"wrong": 1}]}],
            }
        )
    with pytest.raises(ValueError):
        scenario_from_json_dict([1, 2, 3])


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    target=st.sampled_from(["ket", "hermitian", "bloch", "scenario-bloch", "scenario-matrix"]),
)
def test_nonfinite_entry_is_rejected(data, target):
    # A huge diagonal entry is a valid Hermitian matrix, so +-1e308 only goes
    # where no valid input can hold it.
    values = NONFINITE + ([] if target == "hermitian" else [1e308, -1e308])
    bad = data.draw(st.sampled_from(values), label="bad")
    part = data.draw(st.integers(0, 1), label="part")
    if target == "ket":
        check, arg = as_ket, np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex)
    elif target == "hermitian":
        check, arg = as_hermitian, SIGMA_X + SIGMA_Z
    elif target == "bloch":
        check, arg = bloch_observable, [0.6, 0.0, 0.8]
    else:
        check = scenario_from_json_dict
        arg = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2))
        if target == "scenario-bloch":
            entry = {"bloch": [0.6, 0.0, 0.8]}
        else:
            entry = {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        party, setting = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)), label="slot")
        arg["parties"][party]["observables"][setting] = entry
    check(arg)  # valid before one entry is replaced
    if target == "ket":
        pos = data.draw(st.integers(0, 3), label="pos")
        arg[pos] = complex(bad, arg[pos].imag) if part == 0 else complex(arg[pos].real, bad)
    elif target == "hermitian":
        row, col = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)), label="entry")
        z = arg[row, col]
        arg[row, col] = complex(bad, z.imag) if part == 0 else complex(z.real, bad)
    elif target in ("bloch", "scenario-bloch"):
        vec = arg if target == "bloch" else entry["bloch"]
        vec[data.draw(st.integers(0, 2), label="pos")] = bad
    else:
        row, col = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)), label="entry")
        entry["matrix"][row][col][part] = bad
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        check(arg)


def test_load_scenario_file_error_message(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed scenario file"):
        load_scenario_file(p)


def test_load_scenario_file_roundtrip(tmp_path):
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]]])
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(scenario_to_json_dict(scen, chsh_family())), encoding="utf-8")
    back, family = load_scenario_file(p)
    assert family.name == "chsh"
    assert back.settings_per_party == (2, 2)


def test_family_json_roundtrip():
    for fam in (chsh_family(), chained_family(6), mk_family(4, split_k=2)):
        assert family_from_json_dict(family_to_json_dict(fam)) == fam
    with pytest.raises(ValueError):
        family_from_json_dict({"n": 3})
    with pytest.raises(ValueError):
        family_from_json_dict({"name": "nope"})
