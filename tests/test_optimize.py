"""See-saw search, closed-form chained settings, surface stationarity, scans."""

import math
import tracemalloc

import numpy as np
import pytest

from bellvar import _kernel, linalg, optimize
from bellvar.avdecomp import av_decompose
from bellvar.bounds import SLACK_FLOOR, chained_report, chsh_report, report_for
from bellvar.cli import main
from bellvar.linalg import ID2, haar_random_ket, top_eigenpair
from bellvar.optimize import (
    CONVERGENCE_EPS,
    random_scan,
    seesaw_max,
    statistical_chsh_surface,
    stationarity_check,
)
from bellvar.presets import chained_optimal_settings
from bellvar.scenarios import (
    FamilySpec,
    Scenario,
    _expectations,
    _philox,
    bell_state,
    bloch_observable,
    chained_family,
    chsh_coefficients,
    chsh_family,
    coefficient_tensor,
    mk_family,
    operator_from_tensor,
    random_scenario,
)

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


def _chsh_operator(scenario: Scenario) -> np.ndarray:
    """Reference CHSH operator: one Kronecker product per term."""
    coeff = chsh_coefficients()
    a_ops, b_ops = scenario.observables
    return sum(coeff[x, y] * np.kron(a_ops[x], b_ops[y]) for x in range(2) for y in range(2))


def test_seesaw_chsh_reaches_quantum_maximum():
    result = seesaw_max(chsh_family(), seed=0)
    assert result.converged
    assert result.value == pytest.approx(TWO_SQRT2, abs=1e-7)
    assert result.family.name == "chsh"
    assert result.iterations == len(result.history)


def test_seesaw_history_is_monotone():
    result = seesaw_max(chsh_family(), seed=17)
    hist = np.array(result.history)
    assert np.all(np.diff(hist) >= -CONVERGENCE_EPS)


def test_seesaw_is_deterministic_per_seed():
    r1 = seesaw_max(chsh_family(), seed=42)
    r2 = seesaw_max(chsh_family(), seed=42)
    assert r1.value == r2.value
    assert r1.history == r2.history
    np.testing.assert_array_equal(r1.state, r2.state)
    for row1, row2 in zip(r1.scenario.observables, r2.scenario.observables):
        for op1, op2 in zip(row1, row2):
            np.testing.assert_array_equal(op1, op2)
    r3 = seesaw_max(chsh_family(), seed=43)
    assert r3.history != r1.history


def test_seesaw_result_is_self_consistent():
    # the reported value must be what the final scenario and state produce,
    # and can never exceed the top eigenvalue of the final operator
    result = seesaw_max(chsh_family(), seed=7)
    rep = chsh_report(result.scenario, result.state)
    assert rep.bell_value == pytest.approx(result.value, abs=1e-9)
    op = _chsh_operator(result.scenario)
    top = np.linalg.eigvalsh(op)[-1]
    assert result.value <= top + 1e-9


def test_seesaw_chained_three_settings():
    best = max(seesaw_max(chained_family(3), seed=s).value for s in range(3))
    assert best == pytest.approx(6.0 * np.cos(np.pi / 6.0), abs=1e-6)


def test_seesaw_mk_three_parties():
    best = max(seesaw_max(mk_family(3), seed=s).value for s in range(3))
    assert best == pytest.approx(8.0, abs=1e-6)


def test_seesaw_mk_five_parties():
    best = max(seesaw_max(mk_family(5), seed=s).value for s in range(3))
    assert best == pytest.approx(2.0**6, abs=1e-6)


def test_seesaw_respects_iteration_budget():
    result = seesaw_max(chsh_family(), seed=0, max_iters=1)
    assert result.iterations == 1
    assert not result.converged
    with pytest.raises(ValueError):
        seesaw_max(chsh_family(), seed=0, max_iters=0)


@pytest.mark.parametrize(
    "family", [chsh_family(), mk_family(3), chained_family(3)], ids=["chsh", "mk3", "chained3"]
)
def test_seesaw_value_is_the_history_maximum(family):
    # state and settings are the last sweep's: their value is history[-1], which a late
    # sweep's rounding can leave below the best value
    for seed in range(10):
        for max_iters in (4, 300):
            result = seesaw_max(family, seed, max_iters=max_iters)
            assert result.value == max(result.history)
            assert result.iterations == len(result.history)
            assert abs(result.value - result.history[-1]) <= 1e-12 * max(1.0, result.value)
            rep = report_for(family, result.scenario, result.state)
            assert rep.bell_value == pytest.approx(result.history[-1], abs=1e-9)


@pytest.mark.parametrize(
    "family", [mk_family(3), chained_family(4), mk_family(5)], ids=["mk3", "chained4", "mk5"]
)
def test_seesaw_converges_exactly_at_its_stall_sweep(family):
    # a run that stalls at sweep k converges with a budget of k sweeps, not with k - 1
    for seed in range(3):
        full = seesaw_max(family, seed)
        k = full.iterations
        assert full.converged and 1 < k < 300
        at_k, before = seesaw_max(family, seed, max_iters=k), seesaw_max(family, seed, k - 1)
        assert at_k.converged and at_k.history == full.history
        assert not before.converged and before.history == full.history[: k - 1]
        assert before.value == max(before.history)


def _seesaw_reference(family, seed, max_iters=300):
    """The see-saw whose setting step refolds the whole density per party and for the value.

    Returns ``(value, history, iterations, converged, state, observables)``.
    """
    rng = _philox(seed)
    start = random_scenario(family, rng)
    state = haar_random_ket(2**family.n_parties, rng)
    observables = [list(row) for row in start.observables]
    coeff = coefficient_tensor(family)
    shift = float(np.abs(coeff).sum())
    history, prev, stall, converged = [], -np.inf, 0, False
    for _ in range(max_iters):
        op = operator_from_tensor(coeff, observables)
        state = linalg._shifted_power_state(op, state, shift)
        for p in range(family.n_parties):
            others = [q for q in range(family.n_parties) if q != p]
            stacks = observables[:p] + [optimize._PAULIS] + observables[p + 1 :]
            grads = np.tensordot(coeff, _expectations(stacks, state), axes=(others, others))
            for s, g in enumerate(grads):
                norm = float(np.linalg.norm(g))
                if norm < optimize._GRADIENT_EPS:
                    continue
                observables[p][s] = bloch_observable(g / norm)
        value = float(np.sum(coeff * _expectations(observables, state)))
        history.append(value)
        if value - prev < CONVERGENCE_EPS:
            stall += 1
            if stall >= optimize._STALL_SWEEPS:
                converged = True
                prev = max(prev, value)
                break
        else:
            stall = 0
        prev = max(prev, value)
    return prev, tuple(history), len(history), converged, state, observables


_SEESAW_FAMILIES = [
    chsh_family(),
    *(chained_family(n) for n in range(3, 7)),
    *(FamilySpec("mk", n, k) for n in range(2, 8) for k in (1, 2) if k < n),
]


@pytest.mark.parametrize("family", _SEESAW_FAMILIES, ids=repr)
def test_seesaw_matches_full_fold_reference_bit_for_bit(family):
    for seed in range(4):
        result = seesaw_max(family, seed)
        value, history, iterations, converged, state, observables = _seesaw_reference(family, seed)
        assert (result.value, result.history) == (value, history)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert result.state.tobytes() == state.tobytes()
        for got, want in zip(result.scenario.observables, observables, strict=True):
            assert [op.tobytes() for op in got] == [op.tobytes() for op in want]


def test_seesaw_matches_reference_when_the_budget_runs_out():
    result = seesaw_max(mk_family(4), seed=0, max_iters=2)
    value, history, iterations, converged, state, _ = _seesaw_reference(mk_family(4), 0, 2)
    assert not result.converged and not converged
    assert (result.value, result.history, result.iterations) == (value, history, iterations)
    assert result.state.tobytes() == state.tobytes()


def _eigh_state(op, start, shift):
    """The state step as LAPACK's ``eigh`` takes it: the top eigenvector, no warm start."""
    return top_eigenpair(op)[1]


def _first_stall_parting(history, other):
    """First sweep, with both runs' improvements, at which the stall rule decides differently."""
    for k in range(1, min(len(history), len(other))):
        step, other_step = history[k] - max(history[:k]), other[k] - max(other[:k])
        if (step < CONVERGENCE_EPS) != (other_step < CONVERGENCE_EPS):
            return k, step, other_step
    return None


_EIGH_FAMILIES = [
    chsh_family(),
    *(chained_family(n) for n in range(2, 13)),
    *(mk_family(n) for n in range(2, 9)),
]


@pytest.mark.parametrize("family", _EIGH_FAMILIES, ids=repr)
def test_seesaw_matches_the_eigh_state_step(monkeypatch, family):
    # the two state steps agree to rounding, so the sweep counts agree unless the stall
    # rule parts the runs on an improvement within last-bit noise of its threshold
    for seed in range(4):
        result = seesaw_max(family, seed)
        with monkeypatch.context() as m:
            m.setattr(optimize, "_shifted_power_state", _eigh_state)
            ref = seesaw_max(family, seed)
        assert result.value == pytest.approx(ref.value, rel=1e-10)
        for got, want in zip(result.history, ref.history):
            assert got == pytest.approx(want, rel=1e-10)
        parting = _first_stall_parting(result.history, ref.history)
        if parting is None:
            assert (result.iterations, result.converged) == (ref.iterations, ref.converged)
        else:
            k, step, ref_step = parting
            assert abs(step - ref_step) <= 32 * np.spacing(ref.history[k]), (seed, k)


def test_seesaw_and_optimize_command_run_no_lapack_eigensolver(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert seesaw_max(mk_family(4), seed=0).value == pytest.approx(2.0**4.5, rel=1e-12)
    assert main(["optimize", "--family", "chained", "--n", "3", "--seeds", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("best    seed 0  value")


@pytest.mark.parametrize(
    "family", [chsh_family(), mk_family(3), chained_family(4)], ids=["chsh", "mk3", "chained4"]
)
def test_seesaw_ascends_with_one_power_step_per_sweep(monkeypatch, family):
    # B + sum|c| I is positive semidefinite, so even one step never lowers the value
    monkeypatch.setattr(linalg, "_POWER_ITERS", 1)
    for seed in range(4):
        result = seesaw_max(family, seed)
        assert np.all(np.diff(result.history) >= -CONVERGENCE_EPS)
        if family.name == "chsh":
            assert result.value == pytest.approx(TWO_SQRT2, abs=1e-9)


def test_seesaw_builds_one_density_per_sweep(monkeypatch):
    calls = []
    density = optimize._density

    def counted(state, n_parties):
        calls.append(n_parties)
        return density(state, n_parties)

    monkeypatch.setattr(optimize, "_density", counted)
    result = seesaw_max(mk_family(5), seed=1)
    assert calls == [5] * result.iterations
    assert result.iterations > 1


def test_chained_optimal_settings_saturate_for_all_n():
    for n in range(2, 9):
        scen = chained_optimal_settings(n)
        rep, geom = chained_report(n, scen, bell_state())
        want = 2.0 * n * np.cos(np.pi / (2.0 * n))
        assert rep.bell_value == pytest.approx(want, abs=1e-9)
        assert abs(rep.slack) <= 1e-9
        np.testing.assert_allclose(
            geom.cos_lambda, [np.cos(np.pi / n)] * n, atol=1e-9
        )
    with pytest.raises(ValueError):
        chained_optimal_settings(1)


def test_surface_value_at_origin():
    assert statistical_chsh_surface([0, 0], [0, 0]) == pytest.approx(
        TWO_SQRT2, abs=1e-12
    )


def test_surface_at_extreme_means_is_local():
    # sharp +-1 means kill the fluctuation budget, leaving the local part
    assert statistical_chsh_surface([1, 1], [1, 1]) == pytest.approx(2.0)
    assert statistical_chsh_surface([1, -1], [1, 1]) == pytest.approx(2.0)


def test_surface_rejects_out_of_range_means():
    with pytest.raises(ValueError):
        statistical_chsh_surface([1.5, 0], [0, 0])
    with pytest.raises(ValueError):
        statistical_chsh_surface([0, 0], [0, -1.01])
    with pytest.raises(ValueError):
        statistical_chsh_surface([0, 0, 0], [0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surface_rejects_nonfinite_means(bad):
    with pytest.raises(ValueError):
        statistical_chsh_surface([bad, 0], [0, 0])
    with pytest.raises(ValueError):
        statistical_chsh_surface([0, 0], [0, bad])


def test_surface_dominates_reports():
    # evaluated at a report's own means the surface reproduces
    # bound + local, hence it upper-bounds the Bell value
    rng = np.random.default_rng(3)
    from bellvar.linalg import haar_random_ket
    from bellvar.scenarios import random_scenario

    for _ in range(25):
        scen = random_scenario(chsh_family(), rng)
        psi = haar_random_ket(4, rng)
        rep = chsh_report(scen, psi)
        means_a = [av_decompose(np.kron(op, ID2), psi).mean for op in scen.observables[0]]
        means_b = [av_decompose(np.kron(ID2, op), psi).mean for op in scen.observables[1]]
        surf = statistical_chsh_surface(means_a, means_b)
        assert surf == pytest.approx(rep.bound_statistical + rep.local_part, abs=1e-9)
        assert rep.bell_value <= surf + 1e-9


def test_stationarity_at_zero_means():
    rep = stationarity_check()
    assert rep.value_at_origin == pytest.approx(TWO_SQRT2, abs=1e-12)
    assert max(abs(g) for g in rep.gradient) <= 1e-6
    for s in rep.second_partials:
        assert s < 0
        assert s == pytest.approx(-np.sqrt(2.0), abs=1e-3)
    assert len(rep.hessian_eigenvalues) == 4
    assert max(rep.hessian_eigenvalues) <= 1e-6
    assert rep.step == 1e-4


def test_stationarity_step_validation():
    with pytest.raises(ValueError):
        stationarity_check(step=0.0)
    with pytest.raises(ValueError):
        stationarity_check(step=-1e-4)
    with pytest.raises(ValueError):
        stationarity_check(step=1e-2)


def test_random_scan_no_violations_and_deterministic():
    s1 = random_scan(chsh_family(), n_samples=200, seed=11)
    s2 = random_scan(chsh_family(), n_samples=200, seed=11)
    assert s1 == s2
    assert s1.violations == 0
    assert s1.non_finite == 0
    assert s1.min_slack >= -1e-9
    assert s1.mean_slack >= s1.min_slack
    assert s1.n_samples == 200
    s3 = random_scan(chsh_family(), n_samples=200, seed=12)
    assert s3.min_slack != s1.min_slack


def _scan_columns(family, n_samples, seed) -> dict:
    """Every ``_COLUMNS`` array of a scan, gathered from its kernel passes: instance i at
    position i."""
    columns = {name: np.empty(n_samples) for name in _kernel._COLUMNS}
    for start, cols in _kernel._scan_passes(family, n_samples, seed):
        for name, column in columns.items():
            column[start : start + len(cols["slack"])] = cols[name]
    return columns


def test_random_scan_empty_and_rows():
    empty = random_scan(chsh_family(), n_samples=0, seed=1)
    assert empty.min_slack is None
    assert empty.mean_slack is None
    assert empty.violations == 0
    assert empty.non_finite == 0
    kept = random_scan(chained_family(3), n_samples=10, seed=1)
    rows = _scan_columns(chained_family(3), n_samples=10, seed=1)
    # the summary keeps no rows; they are read from the passes, by column, and the
    # index of a row is its position
    assert not hasattr(kept, "rows")
    assert [len(column) for column in rows.values()] == [10] * len(rows)
    assert np.all(rows["slack"] >= -1e-9)
    assert set(rows) == {
        "bell_value",
        "local_part",
        "rms_a",
        "rms_b",
        "bound_statistical",
        "slack",
    }
    assert kept.min_slack == pytest.approx(min(rows["slack"]))
    with pytest.raises(ValueError):
        random_scan(chsh_family(), n_samples=-1, seed=0)


class _FixedNormals:
    """A generator stand-in whose ``standard_normal`` returns a copy of one fixed table."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()


# chsh: 2 parties x 2 settings x 3 Bloch normals, then the real and imaginary parts of a
# 4-dim state
@pytest.mark.parametrize(
    "entries, value, error, match",
    [
        (slice(0, 3), 0.0, ArithmeticError, "norm at most 1e-12"),
        (0, np.inf, ValueError, "not dichotomic"),
        (12, np.inf, ValueError, "not normalized"),
    ],
    ids=["zero-bloch-triple", "inf-bloch-entry", "inf-state-entry"],
)
def test_draw_refuses_bad_normals(entries, value, error, match):
    normals = np.ones((1, 12 + 2 * 4))
    normals[0, entries] = value
    with np.errstate(invalid="ignore"), pytest.raises(error, match=match):
        _kernel._draw(_FixedNormals(normals), 1, (2, 2), 4)


def test_a_seed_that_is_not_an_integer_is_refused():
    from bellvar.montecarlo import simulate_rounds
    from bellvar.presets import preset

    chsh = preset("chsh-optimal")

    def scan(seed):
        summary = random_scan(chained_family(3), 5, seed)
        return summary.seed, repr(summary)

    def sample(seed):
        batch = simulate_rounds(chsh.family, chsh.scenario, chsh.state, 10, seed)
        return batch.seed, batch.combo_idx.tobytes() + batch.outcome_idx.tobytes()

    def seesaw(seed):
        result = seesaw_max(chsh_family(), seed, max_iters=2)
        return result.seed, np.array(result.history).tobytes()

    for run in (scan, sample, seesaw):
        for seed in (2.5, 2.0, np.float64(3.9)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                run(seed)
        # a numpy integer is an integer: the same draws as the int, recorded as an int
        runs = [run(seed) for seed in (2, np.int64(2), np.uint8(2))]
        assert all(type(recorded) is int and recorded == 2 for recorded, _ in runs)
        assert runs[0][1] == runs[1][1] == runs[2][1]
    assert _philox(np.int64(3)).standard_normal(4).tobytes() == _philox(3).standard_normal(4).tobytes()


def test_random_scan_covers_other_families():
    for family in (chained_family(4), mk_family(3)):
        summary = random_scan(family, n_samples=60, seed=5)
        assert summary.violations == 0
        assert summary.min_slack >= -1e-9


def test_random_scan_counts_nan_slack(monkeypatch):
    import bellvar._kernel

    columns = bellvar._kernel._columns

    def nan_slack_columns(family, stacks, states):
        cols = columns(family, stacks, states)
        cols["slack"] = np.full_like(cols["slack"], np.nan)
        return cols

    monkeypatch.setattr(bellvar._kernel, "_columns", nan_slack_columns)
    summary = random_scan(chsh_family(), n_samples=5, seed=3)
    assert summary.violations == 5
    assert math.isnan(summary.min_slack)
    assert summary.non_finite == 5


@pytest.mark.parametrize(
    "family", [chsh_family(), chained_family(5), mk_family(6)], ids=["chsh", "chained5", "mk6"]
)
def test_random_scan_runs_the_kernel_once_per_chunk(monkeypatch, family):
    import bellvar._kernel

    kernel = bellvar._kernel._columns
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(bellvar._kernel, "_columns", counted)
    n_samples = 600
    chunk = max(1, _kernel._SCAN_CHUNK // 2**family.n_parties)
    random_scan(family, n_samples=n_samples, seed=2)
    assert len(calls) == math.ceil(n_samples / chunk)


@pytest.mark.parametrize(
    "family, size",
    [
        (chsh_family(), 256),
        (chained_family(5), 256),
        (chained_family(8), 256),
        (chained_family(9), 202),
        (chained_family(40), 10),
        (chained_family(300), 1),
        (mk_family(4), 64),
        (mk_family(6, split_k=3), 16),
        (mk_family(8), 4),
    ],
    ids=lambda v: f"{v.name}{v.n}-k{v.split_k}" if hasattr(v, "name") else str(v),
)
def test_scan_pass_size(monkeypatch, family, size):
    # at most 2**10 instances x dim and 2**14 instances x settings**2 per pass: chsh, every
    # mk and chained(n <= 8) are sized by dim alone
    kernel = _kernel._columns
    sizes = []

    def counted(family, stacks, states):
        sizes.append(len(states))
        return kernel(family, stacks, states)

    monkeypatch.setattr(_kernel, "_columns", counted)
    random_scan(family, n_samples=size + 1, seed=0)
    assert sizes == [size, 1]


def test_chained_scan_memory_is_bounded_by_its_correlators():
    # sized by dim alone, a chained(300) pass held 256 instances of 300 x 300 complex
    # correlators, 369 MB
    random_scan(chained_family(300), n_samples=1, seed=0)  # first-call caches stay out
    tracemalloc.start()
    try:
        random_scan(chained_family(300), n_samples=40, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _scan_reference(family, n_samples, seed):
    """Rows and violation count of the per-instance scan the batched one replaced."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = []
    for index in range(n_samples):
        scenario = random_scenario(family, rng)
        state = haar_random_ket(2**family.n_parties, rng)
        report = report_for(family, scenario, state)
        rows.append(
            {
                "index": index,
                "bell_value": report.bell_value,
                "local_part": report.local_part,
                "rms_a": report.rms_a,
                "rms_b": report.rms_b,
                "bound_statistical": report.bound_statistical,
                "slack": report.slack,
            }
        )
    violations = sum(not row["slack"] >= SLACK_FLOOR for row in rows)
    return rows, violations


@pytest.mark.parametrize(
    "family, n_samples",
    [
        (chsh_family(), 300),
        (chained_family(3), 300),
        (chained_family(5), 300),
        (mk_family(3), 150),
        (mk_family(4), 80),
        (mk_family(5, split_k=2), 40),
        (mk_family(6), 20),
        (mk_family(6, split_k=3), 20),
        (mk_family(7, split_k=3), 10),
        (mk_family(8), 6),
        (mk_family(8, split_k=7), 6),
    ],
    ids=[
        "chsh", "chained3", "chained5", "mk3", "mk4", "mk5-k2", "mk6", "mk6-k3", "mk7-k3",
        "mk8", "mk8-k7",
    ],
)
def test_random_scan_matches_per_instance_reference(family, n_samples):
    # the sample counts cross at least one chunk boundary of the batched scan
    assert n_samples > max(1, _kernel._SCAN_CHUNK // 2**family.n_parties)
    for seed in (0, 7):
        summary = random_scan(family, n_samples, seed)
        columns = _scan_columns(family, n_samples, seed)
        assert summary == _kernel._scan_summary(family, columns["slack"], seed)
        rows, violations = _scan_reference(family, n_samples, seed)
        assert list(range(len(columns["slack"]))) == [r["index"] for r in rows]
        for key in set(rows[0]) - {"index"}:
            np.testing.assert_allclose(columns[key], [r[key] for r in rows], rtol=0, atol=1e-12)
        assert summary.violations == violations
        assert summary.min_slack == pytest.approx(min(r["slack"] for r in rows), abs=1e-12)


def test_seesaw_value_validated_by_report_dispatch():
    result = seesaw_max(mk_family(3), seed=2)
    rep = report_for(result.family, result.scenario, result.state)
    assert rep.bell_value == pytest.approx(result.value, abs=1e-9)
    assert rep.slack >= -1e-9
