"""Every name a module under src/ or tests/ imports is used in it, every
parameter of a function under src/ is read in its body, every defaulted
parameter of a function under src/ is passed by some call under src/ or
tests/ and left out by another, and every dataclass field and every
attribute a method sets on `self` under src/ is read as an attribute
somewhere in src/.

An import left behind by a deleted caller, a parameter or field whose
last reader was deleted, or a default that no call overrides keeps a dead
name alive and hides the deletion from a reader. A default that every
call overrides is a second statement of a value each caller already
states. The scans are by `ast` alone: a name bound by an import must
appear as an identifier somewhere else in the module, a parameter as an
identifier inside its function, a defaulted parameter in some but not
all calls by the function's name, and a field or a `self.<attr> = ...`
target as a loaded attribute (`obj.field`) in any module under src/, so
that a derived attribute goes with its last reader as a field does.
`self`, `cls` and `_`-prefixed parameters are exempt from the parameter
scan."""

import ast
import math
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


def calls_by_name(sources: list) -> dict:
    """{called name: [(positional count, keyword names), ...]} over every
    call of `sources`, named by `f(...)`, `obj.f(...)` or `Class(...)`. A
    call with *args or **kwargs passes every parameter: (inf, None)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                calls.setdefault(name, []).append((math.inf, None))
            else:
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def defaulted_parameters(source: str, calls: dict) -> list:
    """(line, function, parameter, [whether each call passes it]) for each
    defaulted parameter of a function of `source`, over the calls of
    `calls` (`calls_by_name`) that name it: by keyword or by position. A
    call is matched by the function's name, or by its class's name for an
    `__init__`; a method's positions skip `self`."""
    tree = ast.parse(source)
    owner = {fn: cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for fn in cls.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(node)
        name = cls if node.name == "__init__" and cls else node.name
        a = node.args
        pos = [*a.posonlyargs, *a.args]
        first = len(pos) - len(a.defaults)
        defaulted = [(p.arg, i - (cls is not None))
                     for i, p in enumerate(pos) if i >= first]
        defaulted += [(p.arg, math.inf)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        found += [(node.lineno, node.name, param,
                   [n > i or keywords is None or param in keywords
                    for n, keywords in calls.get(name, [])])
                  for param, i in defaulted]
    return found


def unset_defaults(source: str, calls: dict) -> list:
    """(line, function, parameter) for each defaulted parameter that no
    call passes."""
    return [(line, fn, param) for line, fn, param, passed
            in defaulted_parameters(source, calls) if not any(passed)]


def overridden_defaults(source: str, calls: dict) -> list:
    """(line, function, parameter) for each defaulted parameter that every
    call passes, so that its default is read by none."""
    return [(line, fn, param) for line, fn, param, passed
            in defaulted_parameters(source, calls) if passed and all(passed)]


def test_scan_finds_an_unset_default():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
              "    def m(self, z=1):\n        return z\n")
    calls = calls_by_name(["f(0, 1, e=5)\nK(y=1).m(2)\n"])
    assert unset_defaults(source, calls) == [
        (1, "f", "c"), (1, "f", "d"), (4, "__init__", "x")]
    everything = calls_by_name(["f(*a, **k)\nK(**k).m(*a)\n"])
    assert unset_defaults(source, everything) == []


def test_scan_finds_an_overridden_default():
    source = ("def f(a, b=1, c=2, *, d=3):\n    return a\n"
              "class K:\n    def m(self, z=1):\n        return z\n"
              "def g(e=0):\n    return e\n")
    calls = calls_by_name(["f(0, 1, d=2)\nf(0, b=3, d=4)\nK().m(2)\nK().m(z=3)\n"])
    # c is set by no call; g has no call, which unset_defaults reports
    assert overridden_defaults(source, calls) == [
        (1, "f", "b"), (1, "f", "d"), (4, "m", "z")]
    assert overridden_defaults(source, calls_by_name(["f(0)\nK().m()\n"])) == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unset_defaults(path):
    calls = calls_by_name([p.read_text(encoding="utf-8") for p in MODULES])
    assert unset_defaults(path.read_text(encoding="utf-8"), calls) == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_overridden_defaults(path):
    calls = calls_by_name([p.read_text(encoding="utf-8") for p in MODULES])
    assert overridden_defaults(path.read_text(encoding="utf-8"), calls) == []


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


def self_attributes(source: str) -> list:
    """(line, class, attribute) for each `self.<attribute> = ...` in the
    body of a class, plain, annotated or inside a tuple target."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            while targets:
                t = targets.pop(0)
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets += t.elts
                elif isinstance(t, ast.Starred):
                    targets.append(t.value)
                elif (isinstance(t, ast.Attribute)
                      and isinstance(t.value, ast.Name) and t.value.id == "self"):
                    found.append((t.lineno, cls.name, t.attr))
    return found


def unread_fields(sources: list) -> list:
    """(class, name) for each dataclass field and `self` attribute of
    `sources` that none of them loads as an attribute."""
    read = {n.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted({(cls, name) for source in sources
                   for _, cls, name in (*dataclass_fields(source),
                                        *self_attributes(source))
                   if name not in read})


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


def test_scan_finds_an_unread_self_attribute():
    declared = ("class K:\n    def __init__(self, v):\n        self.a = v\n"
                "        self.b: int = 0\n        self.c, (self.d, *self.e) = v\n"
                "        self.a[0] = 1\n        other.f = v\n"
                "    def g(self):\n        return self.a + self.d\n")
    assert self_attributes(declared) == [
        (3, "K", "a"), (4, "K", "b"), (5, "K", "c"), (5, "K", "d"),
        (5, "K", "e")]
    # a subscript store reads its attribute; another object's is not self's
    assert unread_fields([declared]) == [("K", "b"), ("K", "c"), ("K", "e")]
    assert unread_fields([declared, "print(k.b, k.c, k.e)\n"]) == []


def test_no_unread_dataclass_fields():
    assert unread_fields([p.read_text(encoding="utf-8") for p in SOURCES]) == []
