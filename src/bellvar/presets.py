"""Named configurations that saturate their family's quantum bound.

* ``chsh-optimal``: diagonal A settings, z/x B settings on the Bell
  state; value 2 sqrt(2), zero slack, all saturation conditions hold.
* ``chained-n``: the planar settings of ``chained_optimal_settings`` on
  the Bell state; value ``2n cos(pi / 2n)``.
* ``mk-ghz``: x/y settings on every site with the GHZ state
  ``(|0...0> + e^{i(n-1) pi/4} |1...1>) / sqrt(2)``, written in closed form;
  value ``2**(3(n-1)/2)``.  With x = sigma_x and y = sigma_y every term of
  the MK operator ``B`` flips all n qubits, and the recursion gives
  ``<1...1| B |0...0> = 2**(3(n-1)/2) e^{i(n-1) pi/4}``.  So the state is an
  eigenvector of ``B`` at the MK maximum.  That top eigenvalue is
  nondegenerate (the next one is 0), so this is ``B``'s top eigenvector,
  with the phase convention of ``linalg.top_eigenpair``: the ``|0...0>``
  amplitude is real and positive.  No ``2**n x 2**n`` operator is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .linalg import SIGMA_X, SIGMA_Y
from .scenarios import (
    FamilySpec,
    Scenario,
    bell_state,
    chained_family,
    chsh_family,
    from_bloch_table,
    ghz_state,
    mk_family,
)

__all__ = list(_EXPORTS["presets"])

PRESET_NAMES = ("chsh-optimal", "chained-n", "mk-ghz")


@dataclass(frozen=True)
class Preset:
    name: str
    family: FamilySpec
    scenario: Scenario
    state: np.ndarray


def chained_optimal_settings(n: int) -> Scenario:
    """Planar settings saturating the cyclic expression on the Bell state.

    B settings sit at angles ``j pi / n`` in the x-z plane and A settings
    halfway between consecutive B's, at ``(2k - 1) pi / (2n)``; every
    correlator then equals ``cos(pi / 2n)`` and the value reaches
    ``2n cos(pi / 2n)``.
    """
    if n < 2:
        raise ValueError(f"chained settings need n >= 2, got {n}")
    a_rows = []
    for k in range(n):
        angle = (2 * k - 1) * np.pi / (2 * n)
        a_rows.append([np.sin(angle), 0.0, np.cos(angle)])
    b_rows = []
    for j in range(n):
        angle = j * np.pi / n
        b_rows.append([np.sin(angle), 0.0, np.cos(angle)])
    return from_bloch_table([a_rows, b_rows])


def preset(name: str, n: int | None = None) -> Preset:
    """Build a named preset; ``n`` parameterizes chained-n and mk-ghz."""
    size = 3 if n is None else n
    if name == "chsh-optimal":
        if n not in (None, 2):
            raise ValueError("chsh-optimal takes no size parameter")
        inv = 1.0 / np.sqrt(2.0)
        scenario = from_bloch_table(
            [
                [[inv, 0.0, inv], [-inv, 0.0, inv]],
                [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            ]
        )
        return Preset(name=name, family=chsh_family(), scenario=scenario, state=bell_state())
    if name == "chained-n":
        return Preset(
            name=name,
            family=chained_family(size),
            scenario=chained_optimal_settings(size),
            state=bell_state(),
        )
    if name == "mk-ghz":
        family = mk_family(size)
        scenario = Scenario(observables=((SIGMA_X, SIGMA_Y),) * size)
        # e^{i(n-1) pi/4} = i**k (1 + i)**r / sqrt(2)**r with k, r = divmod(n - 1, 2)
        state = ghz_state(size)
        k, r = divmod(size - 1, 2)
        c = 1.0 / np.sqrt(2.0)
        state[-1] *= (1j**k) * (complex(c, c) if r else 1.0)
        return Preset(name=name, family=family, scenario=scenario, state=state)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
