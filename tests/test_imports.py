"""Every module-level import in the package and its tests is used, every
module-level private name in the package is referenced by some package
module, and the package never imports scipy.

A small AST scan instead of a linter: a name bound by a top-level import
counts as used when it appears anywhere in the module as a name (an
attribute chain starts with one), inside a string annotation, or in the
module's ``__all__``.  scipy is a test-only dependency, kept as an
independent reference; an import of it anywhere in the package, inside a
function or through importlib included, fails the scan.  The channel-level
references live in ``tests/oracles.py`` alone, so that they share no
definition with the code they check.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qstsim").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> "dict[str, int]":
    """Name bound by each top-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(tree: ast.AST) -> "set[str]":
    """Names inside string annotations."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def _names(tree: ast.AST) -> "set[str]":
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _annotation_names(tree)


def _used_names(tree: ast.Module) -> "set[str]":
    used = _names(tree)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> "list[tuple[str, int]]":
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        ((name, line) for name, line in _imported_names(tree).items() if name not in used),
        key=lambda item: item[1],
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom json import dumps, loads as read\n"
        "from typing import Any\n__all__ = ['read']\n"
        "def f(x: 'Any') -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("math", 1), ("dumps", 3)]


def _imported_modules(node: ast.AST) -> "list[str]":
    """Modules an import statement or an importlib call names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] if node.level == 0 else []
    if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("import_module", "__import__") and isinstance(node.args[0].value, str):
            return [node.args[0].value]
    return []


def scipy_imports(source: str) -> "list[int]":
    """Lines that import scipy, at any depth."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if any(name.split(".")[0] == "scipy" for name in _imported_modules(node))
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_never_imports_scipy(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_every_scipy_import():
    source = (
        "import numpy, scipy\nfrom .scipy import x\n"
        "def f():\n    from scipy.linalg import expm\n    import scipy.special as sp\n"
        "    return importlib.import_module('scipy.sparse'), __import__('scipy')\n"
    )
    assert scipy_imports(source) == [1, 4, 5, 6, 6]


def _private_definitions(tree: ast.Module) -> "dict[str, int]":
    """Module-level private names (one leading underscore) with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for target in nodes for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def _references(tree: ast.Module) -> "set[str]":
    """Names a module reads: loaded names, attributes, imported names and
    names inside string annotations."""
    refs = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    refs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    refs |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return refs | _annotation_names(tree)


def dead_private_names(sources: "dict[str, str]") -> "list[tuple[str, str, int]]":
    """(module, name, line) of each module-level private name that no module
    of ``sources`` (name -> source) references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        (module, name, line)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    )


def test_package_has_no_dead_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert dead_private_names(sources) == []


def test_checker_flags_a_dead_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n_DEAD, _ALSO_DEAD = 2, 3\n__version__ = '0'\n"
            "def _helper():\n    return _USED\n"
            "class _Unused:\n    pass\n"
            "def public(x: '_Annotated') -> None:\n    return b._imported_elsewhere\n"
        ),
        "b.py": "from a import _helper\n_Annotated = int\ndef _imported_elsewhere():\n    pass\n",
    }
    assert dead_private_names(sources) == [
        ("a.py", "_ALSO_DEAD", 2), ("a.py", "_DEAD", 2), ("a.py", "_Unused", 6),
    ]


# defined in tests/oracles.py and nowhere in the package
_REFERENCES = (
    "PAULI_X", "m0_operator", "m1_operator", "reversal_operator", "apply_reversal_qubit2",
    "embed_qubit2_op", "CollapseTerm", "collapse_operators", "q_formula", "fidelity_to_target",
    "hamiltonian", "SIGMA_Z1", "SIGMA_Z2",
)


def test_references_live_in_the_oracles_only():
    oracles = importlib.import_module("oracles")
    assert all(hasattr(oracles, name) for name in _REFERENCES)
    names = ["qstsim" if path.stem == "__init__" else f"qstsim.{path.stem}" for path in PACKAGE]
    modules = [importlib.import_module(name) for name in names]
    shared = [(module.__name__, name) for module in modules for name in _REFERENCES if hasattr(module, name)]
    assert shared == []
