"""The n-party recursion, its square identity, and GHZ-class violation.

The pair (B_n, B_n') is defined by splitting the sites into two blocks
and combining the blocks' own pairs:

    B_n  = B_k (x) (B_m + B_m') + B_k' (x) (B_m - B_m')
    B_n' = (B_k + B_k') (x) B_m' - (B_k - B_k') (x) B_m

Two facts are checked numerically below: B_n^2 = B_n'^2 whatever the
split, and the quantum maximum 2^(3(n-1)/2) against the LHV maximum
2^(n-1), a gap that grows exponentially with the number of parties.
"""

import numpy as np

from bellvar import (
    SIGMA_X,
    SIGMA_Y,
    bloch_observable,
    lhv_max,
    mk_family,
    mk_operators,
    mk_report,
    preset,
    seesaw_max,
    uniform_bloch,
)

print("square identity for random settings and random splits")
rng = np.random.default_rng(0)
for n in (2, 3, 4, 5):
    pairs = [
        (bloch_observable(uniform_bloch(rng)), bloch_observable(uniform_bloch(rng)))
        for _ in range(n)
    ]
    split = int(rng.integers(1, n))
    mk = mk_operators(n, pairs, split_k=split)
    res = np.linalg.norm(mk.b @ mk.b - mk.b_prime @ mk.b_prime)
    tr, tr_p = mk.squared_traces()
    print(f"  n={n} split={split}:  ||B^2 - B'^2|| = {res:.2e}   "
          f"tr(B^2) = {tr:10.1f} = tr(B'^2) = {tr_p:10.1f}")

print()
print(" n   lhv max   quantum max   preset value   ratio")
for n in (2, 3, 4, 5):
    p = preset("mk-ghz", n=n)
    rep = mk_report(n, p.scenario, p.state)
    q = 2.0 ** (1.5 * (n - 1))
    print(f" {n}   {lhv_max(mk_family(n)):7.0f}   {q:11.4f}   "
          f"{rep.bell_value:12.8f}   {rep.bell_value / lhv_max(mk_family(n)):.4f}")

# the preset uses x/y settings with the operator's top eigenvector, the
# GHZ state written in closed form; a see-saw from scratch lands on the
# same value
print()
result = seesaw_max(mk_family(3), seed=1)
print(f"see-saw, 3 parties, seed 1: value {result.value:.9f} after "
      f"{result.iterations} sweeps (target 8)")

# settings found by the search are equivalent to x/y pairs up to a
# global rotation; their anticommutator vanishes site by site
scen = result.scenario
for site in range(3):
    x, xp = scen.observables[site]
    anti = np.linalg.norm(x @ xp + xp @ x)
    print(f"  site {site}: ||{{X, X'}}|| = {anti:.2e}")
