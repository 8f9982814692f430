"""Guards on the package surface that tooling outside ``src`` relies on.

The benchmark tracer (``bench/tracer.py``) wraps the functions named in its
``TRACED`` dict by looking each one up in its ``bellvar`` module, so a traced
function deleted from the package breaks every traced benchmark run.  The
ROADMAP rule "no ``np.kron`` loops in hot paths" is checked on the source, and
so are the rules that ``operator_from_tensor`` is never called once per
instance, that the report kernel takes images only, never an operator, and
that the sampler's inverse-CDF draw neither sorts, searches nor loops over
combinations.  The see-saw folds through ``scenarios._contract`` only, never
refolding the density with ``_expectations`` nor multiplying on its own, and
its state step calls no LAPACK eigensolver.
``operator_from_tensor`` is the one fold that makes an operator, and the
``mk-ghz`` preset builds no operator at all: it writes its GHZ state in
closed form and runs no eigensolver.  Every report takes one path: one
kernel pass, ``_kernel._columns``, is the only function in ``_kernel`` that
takes images or splits them and ``bounds`` does neither, ``bounds`` builds
a ``BellReport`` at one site, and the command line calls none of the family
reports.  The command line checks a run's arguments in one resolver,
``cli._resolve``, which ``main`` calls once, before the subcommand's handler.

The package namespace is lazy: its ``_EXPORTS`` table is the one list of
public names.  Each of the seven modules reads its ``__all__`` from it, never
a literal list of its own, so a star import of a module binds exactly its row,
and each name must resolve to the defining module's object.  A fresh
interpreter running one subcommand loads only the layers that subcommand runs.
Importing the command line loads ``scenarios`` and ``linalg``, and ``lhv`` loads
nothing more.  ``scan`` and ``decompose`` load the kernel module ``_kernel`` and
none of the report, decomposition or see-saw modules; ``optimize`` loads the
see-saw module with the kernel; ``report`` loads the bounds layer with it and no
decomposition module; ``sample`` loads the sampler.  Only ``report`` and
``sample`` load ``presets``, for their ``--preset`` choices, even when run from
a scenario file.  Only the subcommands that draw load ``numpy.random``, and no
subcommand loads OpenSSL's ``_hashlib``: the seeded generator imports
``numpy.random`` with a stand-in ``secrets`` that is gone after that import,
and imports the real modules when the stand-in falls short.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellvar
from bellvar.scenarios import chsh_family, from_bloch_table, scenario_to_json_dict

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(bellvar.__file__).resolve().parent


def _traced_names() -> dict:
    """The ``TRACED`` dict of ``bench/tracer.py``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED dict")


def test_traced_functions_resolve():
    traced = _traced_names()
    assert traced
    missing = [
        f"{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"bellvar.{mod}"), fn, None))
    ]
    assert missing == []


class _KronFinder(ast.NodeVisitor):
    """Records the innermost enclosing function of every ``<module>.kron`` attribute."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == "kron":
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def test_kron_only_in_tensor_product():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = _KronFinder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.stem, scope) for scope in finder.found]
    assert found == [("linalg", "tensor_product")]


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_operator_from_tensor_never_called_per_instance():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for comp in ast.walk(tree):
            if not isinstance(comp, _COMPREHENSIONS):
                continue
            for node in ast.walk(comp):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name == "operator_from_tensor":
                    found.append((path.stem, node.lineno))
    assert found == []


def test_inverse_cdf_has_no_sort_search_or_loop():
    tree = ast.parse((PACKAGE / "montecarlo.py").read_text(encoding="utf-8"))
    (func,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_inverse_cdf"
    ]
    called = set()
    for node in ast.walk(func):
        assert not isinstance(node, (ast.For, *_COMPREHENSIONS)), f"loop at line {node.lineno}"
        if isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
    assert called & {"argsort", "searchsorted", "sort"} == set()


def test_seesaw_shares_the_one_fold():
    tree = ast.parse((PACKAGE / "optimize.py").read_text(encoding="utf-8"))
    matmuls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert matmuls == []
    (func,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "seesaw_max"
    ]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }
    assert "_expectations" not in called
    assert "_contract" in called


def test_seesaw_calls_no_lapack_eigensolver():
    # the state step is linalg's shifted power iteration; top_eigenpair stays a test reference
    assert _names(PACKAGE / "optimize.py") & {"top_eigenpair", "eigh"} == set()


def test_distribution_is_the_package_by_name_and_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert (project["name"], project["version"]) == ("bellvar", bellvar.__version__)
    assert project["scripts"] == {"bellvar": "bellvar.cli:main"}


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_report_kernel_builds_no_operator():
    names = _names(PACKAGE / "bounds.py") | _names(PACKAGE / "_kernel.py")
    assert names & {"_operators", "operator_from_tensor", "mk_operators"} == set()


def test_mk_ghz_preset_builds_no_operator():
    names = _names(PACKAGE / "presets.py")
    assert names & {"top_eigenpair", "operator_from_tensor", "eigh", "eigvalsh"} == set()


def test_one_report_path():
    tree = ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))
    builds = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BellReport"
    ]
    assert len(builds) == 1
    family_reports = {"chsh_report", "chained_report", "mk_report", "report_for"}
    assert family_reports & _names(PACKAGE / "cli.py") == set()


def test_one_argument_check():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined & {"_parse_family", "_check_read"} == set()
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    # every call in main, in source order
    calls = [
        ast.unparse(node.func)
        for node in sorted(
            (node for node in ast.walk(main) if isinstance(node, ast.Call)),
            key=lambda node: (node.lineno, node.col_offset),
        )
    ]
    assert calls.count("_resolve") == 1
    assert calls.index("_resolve") < calls.index("args.func")


def _image_callers(path: Path) -> set[str]:
    """The functions in a module's source that call ``_images`` or ``_split``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_images", "_split")
    }


def test_one_kernel_pass():
    assert _image_callers(PACKAGE / "_kernel.py") == {"_columns"}
    assert _image_callers(PACKAGE / "bounds.py") == set()


def test_operator_from_tensor_is_the_one_operator_fold():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            path.stem
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_operators"
        ]
    assert defined == []
    tree = ast.parse((PACKAGE / "presets.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", None) or getattr(node, "name", None) for node in ast.walk(tree)}
    assert "mk_operators" not in names


_MODULES = ("avdecomp", "bounds", "linalg", "montecarlo", "optimize", "presets", "scenarios")


def test_export_table_is_the_modules_all():
    assert sorted(bellvar._EXPORTS) == list(_MODULES)
    for mod in _MODULES:
        assert sorted(bellvar._EXPORTS[mod]) == sorted(importlib.import_module(f"bellvar.{mod}").__all__)
    assert len(bellvar.__all__) == len(set(bellvar.__all__))


@pytest.mark.parametrize("mod", _MODULES)
def test_module_star_import_binds_its_table_row(mod):
    namespace: dict = {}
    exec(f"from bellvar.{mod} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bellvar._EXPORTS[mod])


def test_modules_read_all_from_the_table():
    literal = []
    for mod in _MODULES:
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    literal.append((mod, node.lineno))
    assert literal == []


def test_lazy_names_are_the_defining_objects():
    for mod in _MODULES:
        module = importlib.import_module(f"bellvar.{mod}")
        for name in module.__all__:
            assert getattr(bellvar, name) is getattr(module, name), name
    assert set(bellvar.__all__) <= set(dir(bellvar))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellvar.no_such_name  # noqa: B018
    assert not hasattr(bellvar, "family_to_json_dict")


def test_submodule_import_falls_through_the_table():
    from bellvar import optimize

    assert optimize is sys.modules["bellvar.optimize"]


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bellvar import *", namespace)
    assert all(namespace[name] is getattr(bellvar, name) for name in bellvar.__all__)


# loaded by every command line run, besides the layers of the subcommand
_CLI_BASE = {"bellvar", "bellvar.cli", "bellvar.linalg", "bellvar.scenarios"}
_KERNEL = {"bellvar._kernel"}
_PRESETS = {"bellvar.presets"}
_REPORT_LAYERS = {"bellvar.bounds", *_KERNEL, *_PRESETS}


def _fresh_stdout(code: str) -> str:
    """The stdout of a fresh interpreter that runs ``code`` with this ``src`` on its path."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh_modules(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    stdout = _fresh_stdout(f"{code}\nimport sys; print(sorted(sys.modules))")
    return set(ast.literal_eval(stdout.splitlines()[-1]))


def _loaded_modules(code: str) -> set[str]:
    """The ``bellvar`` modules a fresh interpreter holds after running ``code``."""
    return {m for m in _fresh_modules(code) if m.split(".")[0] == "bellvar"}


def test_import_bellvar_loads_no_submodule():
    assert _loaded_modules("import bellvar") == {"bellvar"}


def test_import_cli_loads_parsing_layers_only():
    assert _loaded_modules("import bellvar.cli") == _CLI_BASE


# subcommand -> the layers it loads besides _CLI_BASE
_LAYERS_OF = {
    "lhv --family chsh": set(),
    "lhv --family chained --n 12": set(),
    "sample --preset chsh-optimal --rounds 1000": {"bellvar.montecarlo", *_PRESETS},
    "sample --preset chained-n --rounds 1000": {"bellvar.montecarlo", *_PRESETS},
    "report --preset chsh-optimal": _REPORT_LAYERS,
    "report --preset mk-ghz --n 3": _REPORT_LAYERS,
    "report --scenario scenario.json": _REPORT_LAYERS,
    "scan --family chsh --samples 10": _KERNEL,
    "scan --family chained --n 5 --samples 3 --format csv --out scan.csv": _KERNEL,
    "scan --family mk --n 4 --samples 3": _KERNEL,
    "optimize --family chsh --max-iters 5": {"bellvar.optimize", *_KERNEL},
    "decompose --scenario scenario.json": _KERNEL,
}


# the subcommands that draw: each makes one seeded generator through ``scenarios._philox``
_SEEDED = {"optimize", "sample", "scan"}


def _main_code(tmp_path, command: str) -> str:
    """Code that runs ``command`` through ``cli.main``, its files under ``tmp_path``."""
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json_dict(scen, chsh_family())), encoding="utf-8")
    files = {"scenario.json": str(path), "scan.csv": str(tmp_path / "scan.csv")}
    argv = [files.get(a, a) for a in command.split()]
    return f"from bellvar.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("command", list(_LAYERS_OF))
def test_subcommand_loads_only_its_layers(tmp_path, command):
    modules = _fresh_modules(_main_code(tmp_path, command))
    assert {m for m in modules if m.split(".")[0] == "bellvar"} == _CLI_BASE | _LAYERS_OF[command]
    # only a seeded run loads numpy.random, and no run loads OpenSSL through ``secrets``
    assert ("numpy.random" in modules) == (command.split()[0] in _SEEDED)
    assert "_hashlib" not in modules


@pytest.mark.parametrize("command", [c for c in _LAYERS_OF if c.split()[0] in _SEEDED])
def test_seeded_run_leaves_secrets_and_unseeded_entropy_whole(tmp_path, command):
    # the stand-in ``secrets`` lives for one import only: afterwards the real
    # module imports, and unseeded numpy entropy still comes from the system
    checks = """
import sys
assert "secrets" not in sys.modules and "_hashlib" not in sys.modules
import secrets
assert hasattr(secrets, "token_bytes") and "_hashlib" in sys.modules
import numpy as np
entropy = [np.random.SeedSequence().entropy for _ in range(2)]
assert all(type(e) is int for e in entropy) and entropy[0] != entropy[1]
draws = [np.random.default_rng().integers(2**62) for _ in range(2)]
assert draws[0] != draws[1]
"""
    _fresh_stdout(_main_code(tmp_path, command) + checks)


def test_philox_falls_back_to_the_real_secrets_when_the_stand_in_falls_short():
    draw = "from bellvar.scenarios import _philox\nprint(_philox(5).standard_normal(4).tobytes().hex())"
    # a stand-in without ``randbits``, as a numpy that wants more of ``secrets`` would find it
    short = """
import sys, types
from bellvar import scenarios
made = []
scenarios._secrets_stand_in = lambda: made.append(1) or types.ModuleType("secrets")
"""
    checks = """
assert made == [1]
assert hasattr(sys.modules["secrets"], "token_bytes") and "numpy.random" in sys.modules
"""
    fallback = _fresh_stdout(short + draw + checks)
    plain = _fresh_stdout("import numpy.random\n" + draw)
    assert fallback == plain
    assert len(bytes.fromhex(plain.strip())) == 32
