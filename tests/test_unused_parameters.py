"""Every parameter of a library function or lambda is read by its body,
and every private module-level name and ``MAX_*`` limit of the library is
read by the library.

A parameter the body never reads is a caller's argument thrown away; each
caller still has to supply it, and a test stand-in has to accept it.
Dunder protocol methods (``__setattr__``, ``__exit__``, ...) keep the
signature their protocol fixes, so they are exempt.

A private function, class or constant (``_name`` at module level) that no
library code reads outside its own definition is dead: only tests could
reach it, and a test oracle belongs in ``tests/helpers.py``. Dunders
(``__version__``, ``__all__``, ...) are exempt. A ``MAX_*`` cap or budget
that no library code compares with bounds nothing, so it counts as dead
too, public or not.

Every name an import binds, in the library or in the tests, is read by
its module: an unread import is a dependency that nothing uses. Names
listed in ``__all__`` are re-exports and ``from __future__`` imports are
directives, so both are exempt.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "twistwidth"


def _params(args):
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in every]


def _unread(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            name, body = node.name, node.body
        else:
            continue
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
        }
        yield from (f"{name}({p})" for p in _params(node.args) if p not in read)


def _checked_definitions(tree):
    """Each module-level ``_name`` or ``MAX_*`` the module defines, with its
    node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("MAX_") or name.startswith("_") and not dunder:
                yield name, node


def _reads(node, skip=None):
    """The names read under ``node``, as bare names or attributes, leaving
    out the subtree ``skip``."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            yield sub.attr
        stack.extend(ast.iter_child_nodes(sub))


def _unread_definitions(trees):
    """``module.name`` for each such definition that no tree in
    ``trees`` (module stem to tree) reads outside its own definition."""
    for stem, tree in trees.items():
        for name, node in _checked_definitions(tree):
            if not any(name in _reads(other, skip=node) for other in trees.values()):
                yield f"{stem}.{name}"


def test_every_parameter_is_read():
    unread = {
        path.stem: sorted(_unread(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + d\ng = lambda x, y: x\n")
    assert sorted(_unread(tree)) == ["<lambda>(y)", "f(b)", "f(c)", "f(e)"]


def test_every_private_name_is_read():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert sorted(_unread_definitions(trees)) == []


def test_the_check_sees_an_unread_private_name():
    trees = {
        "a": ast.parse(
            "_LIMIT = 3\n_seen: int = 0\n__dunder__ = 1\npublic = 2\n"
            "MAX_WORK = 10\nMAX_USED = 4\n"
            "def _recursive(x):\n    return _recursive(x - 1)\n"
            "def _used():\n    return _LIMIT\n"
            "class _Gone:\n    pass\n"
        ),
        "b": ast.parse("from . import a\nfrom .a import _used\nvalue = _used() + a.MAX_USED\n"),
    }
    assert sorted(_unread_definitions(trees)) == [
        "a.MAX_WORK", "a._Gone", "a._recursive", "a._seen"]


def _unread_imports(tree):
    """Each name an import in ``tree`` binds that the module never reads,
    leaving out ``from __future__`` and the names in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                # ``import a.b`` binds a
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    yield name


def test_every_import_is_read():
    unread = {
        f"{path.parent.name}/{path.name}": sorted(
            _unread_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    }
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_check_sees_an_unread_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport xml.dom\n"
        "from math import ceil, floor as fl, pi\n"
        "from .core import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n    import json\n    return ceil(pi) + xml.dom.x\n"
    )
    assert sorted(_unread_imports(tree)) == ["fl", "json", "os", "osp"]
