"""Bell scenarios: dichotomic qubit observables, expression tensors, operators.

A scenario is a table of single-qubit dichotomic observables, one list per
party.  A Bell expression (CHSH, chained, Mermin-Klyshko) is carried as a
single integer coefficient tensor over joint setting choices; the same
tensor drives operator construction, report assembly, the see-saw
optimizer, local-hidden-variable enumeration and the Monte Carlo
estimator, so there is exactly one source of truth per family.

Families:

* ``chsh``: two parties, two settings each, coefficients
  ``[[+1, +1], [+1, -1]]``.  chsh is mk(2): the same settings and tensor.
* ``chained(n)``: two parties, ``n`` settings each, the cyclic expression
  ``<A0 B0> - <A0 B_{n-1}> + sum_k (<A_k B_{k-1}> + <A_k B_k>)``.
* ``mk(n)``: ``n`` parties, two settings each, built by the recursion
  ``B_n = B_k (B_{n-k} + B_{n-k}') + B_k' (B_{n-k} - B_{n-k}')`` on
  disjoint site blocks (base case: the two site observables).  Every
  split ``k`` gives the same pair; ``split_k`` only picks the two blocks
  of the budget, which only ``report`` and ``scan`` read.
"""

from __future__ import annotations

import json
import operator
import random
import sys
import types
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .linalg import (
    _DICHOTOMY_ATOL,
    DIM_CAP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _check_dim,
    _real,
    as_hermitian,
    as_ket,
    is_dichotomic,
)

__all__ = list(_EXPORTS["scenarios"])

SCHEMA_VERSION = 1
MK_MAX_PARTIES = 8
LHV_ENUMERATION_CAP_BITS = 24
# Settings per party of a chained family, whose n x n tables every subcommand builds.
_CHAINED_MAX_SETTINGS = 2**9

_BLOCH_NORM_ATOL = 1e-9
# Rows formatted at once.  Their cells and row strings are small Python
# objects; the pages a few hundred rows of them touch between two kernel
# passes of a streamed scan stay resident through the next pass (about
# 0.1 MB for 256 rows), while 32 rows fit in memory already in use.
_CSV_CHUNK_ROWS = 1 << 5


def _csv_chunks(keys: Sequence[str], columns=()) -> Iterator[str]:
    """CSV text in chunks: the schema_version comment and header line when ``keys`` are given,
    then row i of the ``columns`` per line.

    Each column is sliced ``_CSV_CHUNK_ROWS`` rows at a time and each cell
    written with ``repr`` of its Python value, so one chunk of cells at most
    is held as Python objects.  The scan CSV hands it one kernel pass at a
    time and the report CSV its one row; the rounds CSV takes only its
    header from here.
    """
    if keys:
        yield f"# schema_version: {SCHEMA_VERSION}\n{','.join(keys)}\n"
    for lo in range(0, len(columns[0]) if columns else 0, _CSV_CHUNK_ROWS):
        cells = (np.asarray(column[lo : lo + _CSV_CHUNK_ROWS]).tolist() for column in columns)
        yield "".join(",".join(map(repr, row)) + "\n" for row in zip(*cells))


# ---------------------------------------------------------------------------
# observables and scenarios


def bloch_observable(vec) -> np.ndarray:
    """Dichotomic qubit observable ``v . sigma`` from a unit Bloch vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= _BLOCH_NORM_ATOL:
        raise ValueError(f"Bloch vector is not unit length: |v| = {float(norm)!r}")
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def bloch_of(op: np.ndarray) -> np.ndarray:
    """Bloch components ``(tr(op sigma_j)/2)`` of a traceless 2x2 observable."""
    return np.array(
        [
            float(np.trace(op @ SIGMA_X).real) / 2.0,
            float(np.trace(op @ SIGMA_Y).real) / 2.0,
            float(np.trace(op @ SIGMA_Z).real) / 2.0,
        ]
    )


@dataclass(frozen=True)
class Scenario:
    """Per-party tables of single-qubit dichotomic observables.

    ``observables[p][s]`` is the 2x2 Hermitian measured by party ``p``
    under setting ``s``.  Dichotomy (``X @ X = I`` within 1e-10) is
    enforced at construction.  ``bloch[p][s]`` optionally remembers the
    Bloch vector a matrix was built from, so files round-trip unchanged.
    """

    observables: tuple[tuple[np.ndarray, ...], ...]
    bloch: tuple[tuple[np.ndarray | None, ...], ...] | None = field(default=None)

    def __post_init__(self):
        if len(self.observables) == 0:
            raise ValueError("scenario needs at least one party")
        checked = []
        for p, row in enumerate(self.observables):
            if len(row) == 0:
                raise ValueError(f"party {p} has no settings")
            ops = []
            for s, raw in enumerate(row):
                op = as_hermitian(raw)
                if op.shape != (2, 2):
                    raise ValueError(f"observable ({p},{s}) must be 2x2, got {op.shape}")
                if not is_dichotomic(op):
                    raise ValueError(f"observable ({p},{s}) is not dichotomic")
                op = op.copy()
                op.setflags(write=False)
                ops.append(op)
            checked.append(tuple(ops))
        object.__setattr__(self, "observables", tuple(checked))
        if self.bloch is not None:
            if len(self.bloch) != len(self.observables) or any(
                len(a) != len(b) for a, b in zip(self.bloch, self.observables)
            ):
                raise ValueError("bloch table shape does not match observables")

    @property
    def n_parties(self) -> int:
        return len(self.observables)

    @property
    def settings_per_party(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.observables)


def from_bloch_table(table) -> Scenario:
    """Scenario from nested Bloch vectors, one list per party."""
    obs = tuple(tuple(bloch_observable(v) for v in row) for row in table)
    blochs = tuple(tuple(np.asarray(v, dtype=float) for v in row) for row in table)
    return Scenario(observables=obs, bloch=blochs)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilySpec:
    """Which Bell expression is in play.

    ``n`` counts settings per party for ``chained`` and parties for
    ``mk``; it is fixed at 2 for ``chsh``.  ``split_k`` is the top-level
    block split of the MK recursion; the other families have none, so it
    must stay 1 for them.
    """

    name: str
    n: int = 2
    split_k: int = 1

    def __post_init__(self):
        if self.name != "mk" and self.split_k != 1:
            raise ValueError(f"split_k applies to mk only, not to {self.name}")
        if self.name == "chsh":
            if self.n != 2:
                raise ValueError("chsh is a 2-setting family")
        elif self.name == "chained":
            if not 2 <= self.n <= _CHAINED_MAX_SETTINGS:
                raise ValueError(
                    f"chained supports 2..{_CHAINED_MAX_SETTINGS} settings, got {self.n}"
                )
        elif self.name == "mk":
            if not 2 <= self.n <= MK_MAX_PARTIES:
                raise ValueError(f"mk supports 2..{MK_MAX_PARTIES} parties, got {self.n}")
            if not 1 <= self.split_k <= self.n - 1:
                raise ValueError(f"mk split must satisfy 1 <= k <= n-1, got {self.split_k}")
        else:
            raise ValueError(f"unknown family {self.name!r}")

    @property
    def n_parties(self) -> int:
        return 2 if self.name == "chained" else self.n

    @property
    def settings_per_party(self) -> tuple[int, ...]:
        return (self.n, self.n) if self.name == "chained" else (2,) * self.n


def chsh_family() -> FamilySpec:
    return FamilySpec(name="chsh", n=2)


def chained_family(n: int) -> FamilySpec:
    return FamilySpec(name="chained", n=n)


def mk_family(n: int, split_k: int = 1) -> FamilySpec:
    return FamilySpec(name="mk", n=n, split_k=split_k)


def _check_instance(family: FamilySpec, scenario: Scenario, state: np.ndarray) -> None:
    """Raise unless the scenario has the family's shape and the state fits its qubit parties."""
    expected = family.settings_per_party
    if scenario.settings_per_party != expected:
        raise ValueError(
            f"scenario shape {scenario.settings_per_party} does not match "
            f"family {family.name} (expected {expected})"
        )
    if state.shape != (2**scenario.n_parties,):
        raise ValueError(
            f"state of length {state.shape[0]} does not fit {scenario.n_parties} qubit parties"
        )


# ---------------------------------------------------------------------------
# coefficient tensors


def chsh_coefficients() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.int64)


def chained_coefficients(n: int) -> np.ndarray:
    """Cyclic two-party expression over n settings per side.

    Row x holds the coefficients of ``A_x B_y``: row 0 pairs with settings
    0 and n-1 (the latter with a minus sign), row k >= 1 with k-1 and k.
    At n = 2 this is CHSH with the roles of B's second setting negated.
    """
    if n < 2:
        raise ValueError(f"chained expression needs n >= 2, got {n}")
    coeff = np.zeros((n, n), dtype=np.int64)
    coeff[0, 0] = 1
    coeff[0, n - 1] = -1
    for k in range(1, n):
        coeff[k, k - 1] = 1
        coeff[k, k] = 1
    return coeff


# One MK step: row 0 (B) and row 1 (B') over the products X_x T_t of a head site's pair
# (X, X') and the tail's pair (T, T'), in (x, t) order.
_MK_STEP = np.array([[1, 1, 1, -1], [-1, 1, 1, 1]], dtype=np.int64)


def mk_coefficient_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors of the MK pair (B_n, B_n'), shape (2,)*n.

    Index p of the tensor selects party p's setting (0 for the first site
    observable, 1 for the primed one).  Starting from one site's pair, each
    ``_MK_STEP`` puts one more site in front.  Every block split of the
    recursion gives this same pair (checked in the test suite).
    """
    if n < 1 or n > MK_MAX_PARTIES:
        raise ValueError(f"mk recursion supports 1..{MK_MAX_PARTIES} sites, got {n}")
    pair = np.eye(2, dtype=np.int64)
    for _ in range(n - 1):
        pair = np.tensordot(_MK_STEP.reshape(2, 2, 2), pair, axes=(2, 0))
    return pair[0], pair[1]


def coefficient_tensor(family: FamilySpec) -> np.ndarray:
    if family.name == "chained":
        return chained_coefficients(family.n)
    return mk_coefficient_pair(family.n)[0]


# ---------------------------------------------------------------------------
# operators


def _contract(tensor: np.ndarray, stacks) -> np.ndarray:
    """Fold ``tensor`` against one stack per axis, taking the axes in order.

    ``stacks[p]`` has shape ``(S_p, ...)``, its first axis shared with ``tensor``'s axis p.
    Each step is one matmul that contracts the running tensor's leading axis and appends the
    stack's other axes: the result has shape ``(*tensor.shape[P:], *stacks[0].shape[1:], ...,
    *stacks[P-1].shape[1:])`` for ``P = len(stacks)``.
    """
    value = tensor
    for stack in stacks:
        value = value.reshape(stack.shape[0], -1).T @ stack.reshape(stack.shape[0], -1)
    rest = [d for stack in stacks for d in stack.shape[1:]]
    return value.reshape(*tensor.shape[len(stacks) :], *rest)


def _density(state: np.ndarray, n_parties: int) -> np.ndarray:
    """``|state><state|`` with one axis of size 4 per party: party p's (row, column) pair."""
    rho = np.multiply.outer(state.conj(), state).reshape((2,) * (2 * n_parties))
    order = [axis for p in range(n_parties) for axis in (p, n_parties + p)]
    return rho.transpose(order).reshape((4,) * n_parties)


def _flat(stack) -> np.ndarray:
    """A ``(K, 2, 2)`` stack as the ``(4, K)`` matrix folded against one density axis."""
    return np.asarray(stack, dtype=complex).reshape(-1, 4).T


def _expectations(stacks, state: np.ndarray) -> np.ndarray:
    """``<state| stacks[0][i_0] tensor ... tensor stacks[P-1][i_{P-1}] |state>`` for every index.

    Each ``stacks[p]`` is a ``(K_p, 2, 2)`` stack; no operator is built.  Raises as ``_real``.
    """
    return _real(_contract(_density(state, len(stacks)), [_flat(stack) for stack in stacks]))


def _images(sites: np.ndarray, states: np.ndarray, first: int) -> np.ndarray:
    """Images on each state of a block of sites, site j on tensor factor ``first + j``.

    ``sites`` has shape ``(N, m, S, 2, 2)`` and ``states`` ``(N, dim)``.  One site gives its S
    images; more give the MK pair ``(B_m|psi>, B_m'|psi>)``, carried from the last site leftwards
    through the tail pair's images, so no block operator is built.  Shape ``(N, S or 2, dim)``.
    """
    n, dim = states.shape
    images = states[:, None]
    for j in reversed(range(sites.shape[1])):
        # reshaped to (2^(first+j), 2, rest), each image has the site's factor on its middle axis
        factor = images.reshape(n, 1, -1, 2, dim >> (first + j + 1))
        images = (sites[:, j, :, None] @ factor).reshape(n, -1, dim)
        if j < sites.shape[1] - 1:
            images = _MK_STEP @ images
    return images


def operator_from_tensor(coeff: np.ndarray, observables) -> np.ndarray:
    """Bell operator ``sum_x coeff[x] (X_1 tensor ... tensor X_P)``: the one operator fold.

    ``observables[p][s]`` supplies party p's operator under setting s;
    party p is tensor factor p (big-endian site order).  After the shape
    and ``DIM_CAP`` checks, one ``_contract`` fold gives the axes
    ``(row_0, col_0, row_1, col_1, ...)``, which are put rows first.
    """
    shape = tuple(len(row) for row in observables)
    if coeff.shape != shape:
        raise ValueError(f"coefficient shape {coeff.shape} does not match scenario {shape}")
    dim = 2 ** len(shape)
    _check_dim(dim, "operator")
    value = _contract(coeff, [np.asarray(row, dtype=complex) for row in observables])
    order = [*range(0, value.ndim, 2), *range(1, value.ndim, 2)]
    return value.transpose(order).reshape(dim, dim)


@dataclass(frozen=True)
class MKOperatorPair:
    """The MK operator and its partner on ``n`` qubits, plus split bookkeeping."""

    b: np.ndarray
    b_prime: np.ndarray
    n: int
    split_k: int

    def squared_traces(self) -> tuple[float, float]:
        """Measured traces of B^2 and B'^2 (recorded, not asserted against)."""
        tr = float(np.trace(self.b @ self.b).real)
        tr_p = float(np.trace(self.b_prime @ self.b_prime).real)
        return tr, tr_p


def mk_operators(n: int, site_pairs, split_k: int = 1) -> MKOperatorPair:
    """Build the MK pair from per-site (X, X') observables.

    ``site_pairs[i]`` is the (unprimed, primed) observable pair of site i;
    ``B`` and ``B'`` are one ``operator_from_tensor`` call each.  ``n`` and
    ``split_k`` are checked as ``mk_family`` checks them; the split is only
    recorded, since every split gives the same pair, and that pair satisfies
    B_n^2 = B_n'^2 (checked in the test suite).
    """
    mk_family(n, split_k)
    if len(site_pairs) != n:
        raise ValueError(f"need {n} site observable pairs, got {len(site_pairs)}")
    scen = Scenario(observables=tuple((pair[0], pair[1]) for pair in site_pairs))
    coeff, coeff_prime = mk_coefficient_pair(n)
    b = operator_from_tensor(coeff, scen.observables)
    b_prime = operator_from_tensor(coeff_prime, scen.observables)
    return MKOperatorPair(b=b, b_prime=b_prime, n=n, split_k=split_k)


# ---------------------------------------------------------------------------
# local hidden variable maximum


def lhv_max(family: FamilySpec) -> float:
    """Exact deterministic-strategy maximum of the family's expression.

    The per-party ``(S_p, 2**S_p)`` tables of +-1 strategies of every party
    but the last are contracted against the coefficient tensor, which
    enumerates their ``2**(sum of settings - S_last)`` joint strategies
    without forming them one at a time.  The expression is linear in the
    last party's outcomes, so for each joint strategy the last party is
    maximised per setting in closed form: it answers with the sign of that
    setting's coefficient sum, which adds the sum's absolute value.  The cap
    still applies to ``2**(sum of settings)``, checked before any table is
    built.  Integer arithmetic throughout, so the result is exact.
    """
    settings = family.settings_per_party
    total_bits = int(sum(settings))
    if total_bits > LHV_ENUMERATION_CAP_BITS:
        raise ValueError(
            f"enumeration size 2**{total_bits} exceeds cap 2**{LHV_ENUMERATION_CAP_BITS}"
        )
    coeff = coefficient_tensor(family)
    stacks = []
    for n_settings in settings[:-1]:
        bits = (np.arange(2**n_settings) >> np.arange(n_settings)[:, None]) & 1
        stacks.append((1 - 2 * bits).astype(np.int64))
    # shape (S_last, 2**S_0, ..., 2**S_{P-2}): the last party's coefficient sums
    return float(np.abs(_contract(coeff, stacks)).sum(axis=0).max())


# ---------------------------------------------------------------------------
# random instances and common states


def uniform_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the Bloch sphere (normalized Gaussian triple)."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _secrets_stand_in() -> types.ModuleType:
    """What numpy's ``bit_generator`` takes from ``secrets``: ``randbits``, the same function."""
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    return stand_in


def _philox(seed: int) -> np.random.Generator:
    """The package's one seeded generator: Philox keyed with a non-negative integer seed.

    A seed that is not an integer (``operator.index`` refuses it, so a float
    raises ``TypeError``) or is negative is refused before anything is drawn.

    The first call in a process that has loaded neither ``numpy.random`` nor
    ``secrets`` imports ``numpy.random`` with a stand-in ``secrets`` in
    ``sys.modules``, for that one import only.  The real ``secrets`` imports
    ``hmac`` and ``hashlib``, which load OpenSSL, while numpy reads only its
    ``randbits``, and only for unseeded entropy, which a keyed Philox never
    asks for.  The stand-in's ``randbits`` is the one ``secrets`` exports,
    ``SystemRandom().getrandbits`` over ``os.urandom``, so a later
    ``np.random.default_rng()`` draws the same kind of entropy.  If numpy wants more of ``secrets`` than that, the
    import fails, its partial ``numpy.random`` modules are dropped and the
    real modules are imported.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        sys.modules["secrets"] = _secrets_stand_in()
        try:
            import numpy.random  # noqa: F401
        except (ImportError, AttributeError):
            # a numpy that wants more of ``secrets``: dropped, so ``np.random``
            # below imports the real modules
            partial = [m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")]
            for name in partial:
                del sys.modules[name]
        finally:
            del sys.modules["secrets"]
    return np.random.Generator(np.random.Philox(seed))


def random_scenario(family: FamilySpec, rng: np.random.Generator) -> Scenario:
    """Scenario with independent uniform-Bloch observables everywhere."""
    table = [
        [uniform_bloch(rng) for _ in range(n_settings)]
        for n_settings in family.settings_per_party
    ]
    return from_bloch_table(table)


def bell_state() -> np.ndarray:
    """(|00> + |11>) / sqrt(2)."""
    return as_ket(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits."""
    if n < 1 or 2**n > DIM_CAP:
        raise ValueError(f"site count {n} out of supported range")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0 / np.sqrt(2.0)
    vec[-1] = 1.0 / np.sqrt(2.0)
    return as_ket(vec)


# ---------------------------------------------------------------------------
# JSON schema (scenario files)


def _observable_to_json(op: np.ndarray, bloch_vec: np.ndarray | None):
    if bloch_vec is not None:
        return {"bloch": [float(c) for c in bloch_vec]}
    return {"matrix": [_complex_pairs(row) for row in op]}


def _json_number(value) -> float:
    """A JSON number as a float; ``true``/``false`` (Python ``bool``) and any other value raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("a JSON integer is too large for a float") from exc


def _json_int(value, field: str) -> int:
    """A JSON integer; ``true``/``false`` (Python ``bool``), floats and any other value raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _complex_pair(node) -> complex:
    """An ``[re, im]`` pair of a state or ``matrix`` file: exactly two JSON numbers."""
    if not isinstance(node, list) or len(node) != 2:
        raise ValueError(f"expected an [re, im] pair of two numbers, got {node!r}")
    return complex(_json_number(node[0]), _json_number(node[1]))


def _complex_pairs(values) -> list:
    """Complex values as the ``[re, im]`` pairs that ``_complex_pair`` reads back."""
    return [[float(a.real), float(a.imag)] for a in values]


def _known_keys(node: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a key of a scenario-file object that the reader would drop unread."""
    unknown = sorted(set(node) - set(keys))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; it takes only {list(keys)}")


def _observable_from_json(node) -> tuple[np.ndarray, np.ndarray | None]:
    if not isinstance(node, dict):
        raise ValueError("observable entry must be an object")
    _known_keys(node, ("bloch", "matrix"), "observable entry")
    if ("bloch" in node) == ("matrix" in node):
        raise ValueError("observable entry needs exactly one of a 'bloch' or 'matrix' key")
    if "bloch" in node:
        if not isinstance(node["bloch"], list):
            raise ValueError("a 'bloch' entry must be a list of three numbers")
        vec = np.array([_json_number(c) for c in node["bloch"]])
        return bloch_observable(vec), vec
    raw = node["matrix"]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("a 'matrix' entry must be a list of rows of [re, im] pairs")
    mat = np.array([[_complex_pair(entry) for entry in row] for row in raw], dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"matrix observable must be 2x2, got {mat.shape}")
    return mat, None


def family_to_json_dict(family: FamilySpec) -> dict:
    out = {"name": family.name, "n": family.n}
    if family.name == "mk":
        out["split_k"] = family.split_k
    return out


def family_from_json_dict(node) -> FamilySpec:
    if not isinstance(node, dict) or "name" not in node:
        raise ValueError("family entry needs a 'name' key")
    _known_keys(node, ("name", "n", "split_k"), "family entry")
    return FamilySpec(
        name=node["name"],
        n=_json_int(node.get("n", 2), "family.n"),
        split_k=_json_int(node.get("split_k", 1), "family.split_k"),
    )


def scenario_to_json_dict(scenario: Scenario, family: FamilySpec | None = None) -> dict:
    parties = []
    for p, row in enumerate(scenario.observables):
        entries = []
        for s, op in enumerate(row):
            bloch_vec = None
            if scenario.bloch is not None:
                bloch_vec = scenario.bloch[p][s]
            entries.append(_observable_to_json(op, bloch_vec))
        parties.append({"observables": entries})
    out = {"schema_version": SCHEMA_VERSION, "parties": parties}
    if family is not None:
        out["family"] = family_to_json_dict(family)
    return out


def scenario_from_json_dict(node) -> tuple[Scenario, FamilySpec | None]:
    if not isinstance(node, dict):
        raise ValueError("scenario document must be a JSON object")
    _known_keys(node, ("schema_version", "parties", "family"), "scenario document")
    version = node.get("schema_version")
    if _json_int(version, "schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    if "parties" not in node or not isinstance(node["parties"], list):
        raise ValueError("scenario document needs a 'parties' list")
    obs_rows = []
    bloch_rows = []
    for party in node["parties"]:
        if not isinstance(party, dict) or not isinstance(party.get("observables"), list):
            raise ValueError("each party needs an 'observables' list")
        _known_keys(party, ("observables",), "party")
        ops = []
        blochs = []
        for entry in party["observables"]:
            op, vec = _observable_from_json(entry)
            ops.append(op)
            blochs.append(vec)
        obs_rows.append(tuple(ops))
        bloch_rows.append(tuple(blochs))
    family = None
    if "family" in node:
        family = family_from_json_dict(node["family"])
    scenario = Scenario(observables=tuple(obs_rows), bloch=tuple(bloch_rows))
    return scenario, family


def load_scenario_file(path) -> tuple[Scenario, FamilySpec | None]:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            node = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed scenario file {path}: {exc}") from exc
    return scenario_from_json_dict(node)
