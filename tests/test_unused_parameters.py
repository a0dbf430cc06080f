"""Every parameter of a library function or lambda is read by its body.

A parameter the body never reads is a caller's argument thrown away; each
caller still has to supply it, and a test stand-in has to accept it.
Dunder protocol methods (``__setattr__``, ``__exit__``, ...) keep the
signature their protocol fixes, so they are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistwidth"


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


def test_every_parameter_is_read():
    unread = {
        path.stem: sorted(_unread(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + d\ng = lambda x, y: x\n")
    assert sorted(_unread(tree)) == ["<lambda>(y)", "f(b)", "f(c)", "f(e)"]
