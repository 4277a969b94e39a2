"""Every name a module under src/ or tests/ imports is used in it, every
parameter of a function under src/ is read in its body, and every
dataclass field under src/ is read as an attribute somewhere in src/.

An import left behind by a deleted caller, or a parameter or field whose
last reader was deleted, keeps a dead name alive and hides the deletion
from a reader. The scans are by `ast` alone: a name bound by an import must
appear as an identifier somewhere else in the module, a parameter as an
identifier inside its function, and a field as a loaded attribute
(`obj.field`) in any module under src/. `self`, `cls` and `_`-prefixed
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


def dataclass_fields(source: str) -> list:
    """(line, class, field) for each annotated field of a class decorated
    with `dataclass` or `dataclass(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        found += [(stmt.lineno, node.name, stmt.target.id) for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)]
    return found


def unread_fields(sources: list) -> list:
    """(class, field) for each dataclass field of `sources` that none of
    them loads as an attribute."""
    read = {n.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(cls, name) for source in sources
            for _, cls, name in dataclass_fields(source) if name not in read]


def test_scan_finds_an_unread_field():
    declared = ("import dataclasses\nfrom dataclasses import dataclass\n"
                "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int\n"
                "@dataclasses.dataclass\nclass B:\n    c: int = 0\n"
                "class C:\n    d: int\n")
    assert dataclass_fields(declared) == [(5, "A", "a"), (6, "A", "b"),
                                          (9, "B", "c")]
    # a store is not a read; the reader may sit in another module
    assert unread_fields([declared, "def f(x):\n    x.b = x.a\n"]) == [
        ("A", "b"), ("B", "c")]


def test_no_unread_dataclass_fields():
    assert unread_fields([p.read_text(encoding="utf-8") for p in SOURCES]) == []
