"""Every module-level import in the package and its tests is used.

A small AST scan instead of a linter: a name bound by a top-level import
counts as used when it appears anywhere in the module as a name (an
attribute chain starts with one), inside a string annotation, or in the
module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qstsim").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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


def _names(tree: ast.AST) -> "set[str]":
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


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
