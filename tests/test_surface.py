"""Guards on the package surface that tooling outside ``src`` relies on.

The benchmark tracer (``bench/tracer.py``) wraps the functions named in its
``TRACED`` dict by looking each one up in its ``bellvar`` module, so a traced
function deleted from the package breaks every traced benchmark run.  The
ROADMAP rule "no ``np.kron`` loops in hot paths" is checked on the source, and
so are the rules that ``operator_from_tensor`` is never called once per
instance and that the report kernel takes images only, never an operator.
``operator_from_tensor`` is the one fold that makes an operator, and the
``mk-ghz`` preset builds ``B`` with it rather than the MK pair.
"""

import ast
import importlib
from pathlib import Path

import bellvar

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
