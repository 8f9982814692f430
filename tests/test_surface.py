"""Guards on the package surface that tooling outside ``src`` relies on.

The benchmark tracer (``bench/tracer.py``) wraps the functions named in its
``TRACED`` dict by looking each one up in its ``bellvar`` module, so a traced
function deleted from the package breaks every traced benchmark run.  The
ROADMAP rule "no ``np.kron`` loops in hot paths" is checked on the source, and
so are the rules that ``operator_from_tensor`` is never called once per
instance, that the report kernel takes images only, never an operator, and
that the sampler's inverse-CDF draw neither sorts, searches nor loops over
combinations.  The see-saw folds through ``scenarios._contract`` only, never
refolding the density with ``_expectations`` nor multiplying on its own.
``operator_from_tensor`` is the one fold that makes an operator, and the
``mk-ghz`` preset builds ``B`` with it rather than the MK pair.

The package namespace is lazy: its ``_EXPORTS`` table must list exactly the
seven modules' ``__all__``, and each name must resolve to the defining
module's object.  A fresh interpreter running one subcommand loads only the
layers that subcommand runs.
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


def test_report_kernel_builds_no_operator():
    tree = ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names & {"_operators", "operator_from_tensor", "mk_operators"} == set()


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
_CLI_BASE = {"bellvar", "bellvar.cli", "bellvar.linalg", "bellvar.presets", "bellvar.scenarios"}
_SEESAW_LAYERS = {"bellvar.optimize", "bellvar.bounds", "bellvar.avdecomp"}


def _loaded_modules(code: str) -> set[str]:
    """The ``bellvar`` modules a fresh interpreter holds after running ``code``."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'bellvar'))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_import_bellvar_loads_no_submodule():
    assert _loaded_modules("import bellvar") == {"bellvar"}


def test_import_cli_loads_parsing_layers_only():
    assert _loaded_modules("import bellvar.cli") == _CLI_BASE


# subcommand -> the layers it loads besides _CLI_BASE
_LAYERS_OF = {
    "lhv --family chsh": set(),
    "sample --preset chsh-optimal --rounds 1000": {"bellvar.montecarlo"},
    "sample --preset chained-n --rounds 1000": {"bellvar.montecarlo"},
    "report --preset chsh-optimal": {"bellvar.bounds", "bellvar.avdecomp"},
    "report --preset mk-ghz --n 3": {"bellvar.bounds", "bellvar.avdecomp"},
    "scan --family chsh --samples 10": _SEESAW_LAYERS,
    "optimize --family chsh --max-iters 5": {"bellvar.optimize"},
    "decompose --scenario scenario.json": {"bellvar.avdecomp"},
}


@pytest.mark.parametrize("command", list(_LAYERS_OF))
def test_subcommand_loads_only_its_layers(tmp_path, command):
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json_dict(scen, chsh_family())), encoding="utf-8")
    argv = [str(path) if a == "scenario.json" else a for a in command.split()]
    code = f"from bellvar.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_modules(code) == _CLI_BASE | _LAYERS_OF[command]
