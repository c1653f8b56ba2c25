"""Every library module uses each name it imports, and every private helper and
public method has a reader."""

import ast
from pathlib import Path

import pytest

import defectflow

PACKAGE = Path(defectflow.__file__).parent
ROOT = PACKAGE.parents[1]
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detects_a_dead_name():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(os.sep)\n") == [(2, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_helpers(sources: dict) -> list:
    """Module-level single-underscore names, by module, that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def _package_sources() -> dict:
    return {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}


def test_dead_helpers_detects_a_planted_name():
    sources = _package_sources()
    sources["lattice"] += "\n\ndef _cell_boundary_distance2(cell, segs):\n    return 1\n"
    sources["extra"] = "_LIMIT = 3\n__all__ = []\n\n\ndef _helper():\n    return _LIMIT\n"
    assert dead_helpers(sources) == [("extra", "_helper"), ("lattice", "_cell_boundary_distance2")]


def test_no_dead_helpers():
    assert dead_helpers(_package_sources()) == []


def dead_methods(sources: dict, readers: list) -> list:
    """Public methods of the classes in sources, by module and class, that no
    source or reader reaches as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                dead += [(module, cls.name, fn.name) for fn in cls.body
                         if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                         and fn.name not in read]
    return sorted(dead)


def _reader_sources() -> list:
    return [p.read_text() for folder in ("src", "tests", "bench")
            for p in sorted((ROOT / folder).rglob("*.py"))]


def test_dead_methods_detects_a_planted_name():
    sources = _package_sources()
    sources["extra"] = ("class Box:\n    def area(self):\n        return self.side() ** 2\n\n"
                        "    def side(self):\n        return 2\n")
    assert dead_methods(sources, _reader_sources()) == [("extra", "Box", "area")]


def test_no_dead_methods():
    assert dead_methods(_package_sources(), _reader_sources()) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter that its function's body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                       for p in params if p.arg not in read]
    return sorted(unread)


def test_unread_parameters_detects_a_planted_name():
    source = ("def bound(spec, gamma, l1, *rest, scale=1, **opts):\n"
              "    return max(l1, *rest) * scale + spec\n\n\n"
              "def outer(a, b):\n"
              "    return lambda c: a\n")
    assert unread_parameters(source) == [(1, "bound", "gamma"), (1, "bound", "opts"),
                                         (5, "outer", "b"), (6, "<lambda>", "c")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []
