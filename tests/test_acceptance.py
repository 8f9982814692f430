"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Each test prints a single pass/fail line (visible under ``pytest -s`` or
in the captured-output section of a failure).  Tolerances and sample
counts are fixed here on purpose; loosening them is not a fix, it is a
regression.
"""

import time

import numpy as np
import pytest

from bellvar.avdecomp import (
    DegenerateSpreadError,
    av_decompose,
    correlator_split,
    reconstruction_residual,
)
from bellvar.bounds import (
    chained_report,
    chsh_report,
    mk_report,
    pearson_chsh_report,
    saturation_check,
)
from bellvar.linalg import ID2, haar_random_ket, random_hermitian
from bellvar.montecarlo import batch_to_csv, empirical_check, estimate, simulate_rounds
from bellvar.optimize import (
    random_scan,
    seesaw_max,
    stationarity_check,
)
from bellvar.presets import chained_optimal_settings, preset
from bellvar.scenarios import (
    bell_state,
    bloch_observable,
    chained_family,
    chsh_family,
    lhv_max,
    mk_family,
    mk_operators,
    random_scenario,
    uniform_bloch,
)

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_ac01_seesaw_reaches_tsirelson_from_50_seeds():
    t0 = time.perf_counter()
    hits = 0
    worst = np.inf
    for seed in range(50):
        result = seesaw_max(chsh_family(), seed=seed)
        err = abs(result.value - TWO_SQRT2)
        worst = min(worst, result.value)
        if err <= 1e-7 and result.converged:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and elapsed < 10.0
    _report(
        "AC-01",
        ok,
        f"{hits}/50 seeds within 1e-7 of 2*sqrt(2), lowest value {worst:.9f}, "
        f"{elapsed:.2f}s (budget 10s)",
    )
    assert ok


def test_ac02_chsh_bound_survives_100k_random_instances():
    t0 = time.perf_counter()
    summary = random_scan(chsh_family(), n_samples=100_000, seed=20260814)
    elapsed = time.perf_counter() - t0
    ok = summary.violations == 0 and summary.min_slack >= -1e-9 and elapsed < 60.0
    _report(
        "AC-02",
        ok,
        f"violations {summary.violations}/100000, min slack {summary.min_slack:.3e}, "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert ok


def test_ac03_optimal_preset_saturates_with_all_flags():
    p = preset("chsh-optimal")
    rep = chsh_report(p.scenario, p.state)
    flags = saturation_check(p.scenario, p.state)
    ok = (
        abs(rep.slack) <= 1e-10
        and abs(rep.local_part) <= 1e-10
        and abs(rep.rms_a - np.sqrt(2.0)) <= 1e-10
        and abs(rep.rms_b - np.sqrt(2.0)) <= 1e-10
        and flags.all_true()
    )
    _report(
        "AC-03",
        ok,
        f"slack {rep.slack:.2e}, local {rep.local_part:.2e}, "
        f"rms ({rep.rms_a:.12f}, {rep.rms_b:.12f}), flags all true: {flags.all_true()}",
    )
    assert ok


def test_ac04_lhv_enumeration_matches_closed_forms():
    checks = [(lhv_max(chsh_family()), 2.0)]
    for n in range(2, 7):
        checks.append((lhv_max(chained_family(n)), float(2 * n - 2)))
    for n in range(2, 6):
        checks.append((lhv_max(mk_family(n)), float(2 ** (n - 1))))
    exact = all(got == want for got, want in checks)
    _report(
        "AC-04",
        exact,
        f"{len(checks)} families enumerated, all equal to closed form: {exact}",
    )
    assert exact


def test_ac05_chained_settings_and_search_reach_quantum_value():
    worst = 0.0
    for n in range(2, 9):
        rep, _ = chained_report(n, chained_optimal_settings(n), bell_state())
        worst = max(worst, abs(rep.bell_value - 2 * n * np.cos(np.pi / (2 * n))))
    settings_ok = worst <= 1e-9
    search_ok = True
    details = []
    for n in (3, 4):
        best = max(seesaw_max(chained_family(n), seed=s).value for s in range(5))
        want = 2 * n * np.cos(np.pi / (2 * n))
        details.append(f"n={n}: {best:.9f}")
        search_ok = search_ok and abs(best - want) <= 1e-6
    ok = settings_ok and search_ok
    _report(
        "AC-05",
        ok,
        f"closed-form worst error {worst:.2e} (n=2..8); see-saw {'; '.join(details)}",
    )
    assert ok


def test_ac06_mk_search_and_square_identity():
    search_ok = True
    details = []
    for n in (2, 3):
        best = max(seesaw_max(mk_family(n), seed=s).value for s in range(5))
        want = 2.0 ** (1.5 * (n - 1))
        details.append(f"n={n}: {best:.9f} vs {want:.9f}")
        search_ok = search_ok and abs(best - want) <= 1e-6
    rng = np.random.default_rng(20260814)
    worst_residual = 0.0
    for draw in range(100):
        n = 2 + draw % 4  # cycles n through 2..5
        pairs = [
            (bloch_observable(uniform_bloch(rng)), bloch_observable(uniform_bloch(rng)))
            for _ in range(n)
        ]
        split = int(rng.integers(1, n))
        mk = mk_operators(n, pairs, split_k=split)
        residual = float(np.linalg.norm(mk.b @ mk.b - mk.b_prime @ mk.b_prime))
        worst_residual = max(worst_residual, residual)
    identity_ok = worst_residual <= 1e-9
    ok = search_ok and identity_ok
    _report(
        "AC-06",
        ok,
        f"see-saw {'; '.join(details)}; worst ||B^2 - B'^2|| over 100 draws "
        f"{worst_residual:.2e}",
    )
    assert ok


def test_ac07_decomposition_invariants_over_10k_draws():
    rng = np.random.default_rng(7)
    dims = (2, 4, 8, 16)
    worst_recon = 0.0
    worst_orth = 0.0
    for i in range(10_000):
        dim = dims[i % 4]
        op = random_hermitian(dim, rng)
        psi = haar_random_ket(dim, rng)
        dec = av_decompose(op, psi)
        worst_recon = max(worst_recon, reconstruction_residual(op, psi, dec))
        if not dec.degenerate:
            worst_orth = max(worst_orth, abs(np.vdot(psi, dec.perp)))
    worst_imag = 0.0
    for i in range(10_000):
        local_dim = 2 if i % 2 == 0 else 4
        a = np.kron(random_hermitian(local_dim, rng), np.eye(local_dim))
        b = np.kron(np.eye(local_dim), random_hermitian(local_dim, rng))
        psi = haar_random_ket(local_dim**2, rng)
        split = correlator_split(a, b, psi)
        worst_imag = max(worst_imag, abs(split.overlap.imag))
    ok = worst_recon <= 1e-10 and worst_orth <= 1e-10 and worst_imag <= 1e-10
    _report(
        "AC-07",
        ok,
        f"10000 draws: reconstruction {worst_recon:.2e}, orthogonality "
        f"{worst_orth:.2e}; 10000 disjoint pairs: overlap imag {worst_imag:.2e} "
        f"(all <= 1e-10)",
    )
    assert ok


def test_ac08_pearson_chsh_bound_chain_over_10k_instances():
    rng = np.random.default_rng(8)
    worst_gap = -np.inf
    worst_bound = -np.inf
    produced = 0
    skipped = 0
    while produced < 10_000:
        scen = random_scenario(chsh_family(), rng)
        psi = haar_random_ket(4, rng)
        try:
            rep = pearson_chsh_report(scen, psi)
        except DegenerateSpreadError:
            skipped += 1
            continue
        produced += 1
        worst_gap = max(worst_gap, rep.r_chsh - rep.bound_geometric)
        worst_bound = max(worst_bound, rep.bound_geometric - TWO_SQRT2)
    ok = worst_gap <= 1e-9 and worst_bound <= 1e-9
    _report(
        "AC-08",
        ok,
        f"10000 instances ({skipped} degenerate redraws): max r_chsh - bound "
        f"{worst_gap:.3e}, max bound - 2*sqrt(2) {worst_bound:.3e}",
    )
    assert ok


def test_ac09_million_round_simulation_reproduces_and_checks_out():
    p = preset("chsh-optimal")
    batch = simulate_rounds(p.family, p.scenario, p.state, rounds=1_000_000, seed=424242)
    est = estimate(batch)
    deviation = abs(est.bell_value_hat - TWO_SQRT2)
    within = deviation <= 5.0 * est.se_bell_value
    check = empirical_check(est, z=5.0)
    again = simulate_rounds(p.family, p.scenario, p.state, rounds=1_000_000, seed=424242)
    reproducible = (
        np.array_equal(batch.counts, again.counts)
        and np.array_equal(batch.round_settings, again.round_settings)
        and np.array_equal(batch.round_outcomes, again.round_outcomes)
        and batch_to_csv(batch)[:4096] == batch_to_csv(again)[:4096]
    )
    ok = within and check.passed and reproducible
    _report(
        "AC-09",
        ok,
        f"bell_hat {est.bell_value_hat:.6f} ({deviation / est.se_bell_value:.2f} SE "
        f"from 2*sqrt(2)), check margin {check.margin:.4f}, bit-reproducible "
        f"{reproducible}",
    )
    assert ok


def test_ac10_surface_is_stationary_maximum_at_zero_means():
    rep = stationarity_check(step=1e-4)
    grad_ok = max(abs(g) for g in rep.gradient) <= 1e-6
    curvature_ok = all(s < 0 for s in rep.second_partials)
    value_ok = abs(rep.value_at_origin - TWO_SQRT2) <= 1e-12
    ok = grad_ok and curvature_ok and value_ok
    _report(
        "AC-10",
        ok,
        f"f(0) = {rep.value_at_origin:.12f}, max |grad| "
        f"{max(abs(g) for g in rep.gradient):.2e}, second partials "
        f"{tuple(round(s, 4) for s in rep.second_partials)}",
    )
    assert ok
