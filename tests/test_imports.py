"""Every name a module under src/ or tests/ imports is used in it, and
every parameter of a function under src/ is read in its body.

An import left behind by a deleted caller, or a parameter whose last
reader was deleted, keeps a dead name alive and hides the deletion from a
reader. The scans are by `ast` alone: a name bound by an import must
appear as an identifier somewhere else in the module, and a parameter as
an identifier inside its function. `self`, `cls` and `_`-prefixed
parameters are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SOURCES = [p for p in MODULES if p.is_relative_to(ROOT / "src")]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter of a function or
    lambda that no identifier in its body reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return found


def test_scan_finds_an_unread_parameter():
    assert unread_parameters(
        "def f(a, b, *c, d, **e):\n    return a + d\n") == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e")]
    assert unread_parameters(
        "def f(self, cls, _x, y):\n    return lambda: y\n") == []
    assert unread_parameters("g = lambda u, v: u\n") == [(1, "<lambda>", "v")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
