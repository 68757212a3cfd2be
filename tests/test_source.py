"""Source rules for the package: no recursion and no recursion-limit changes.

A recursive function fails with ``RecursionError`` once its input is deep
enough (a clique of 1,100 vertices is), and raising the interpreter's limit
from a library call changes global state.  Every traversal in the package
runs on an explicit stack or queue instead.
"""

import ast
from pathlib import Path

import ripscollapse

SOURCES = sorted(Path(ripscollapse.__file__).parent.glob("*.py"))


def _self_calls(tree):
    """``(function, line)`` of every call of a function by its own bare name."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ):
                    found.append((fn.name, node.lineno))
    return found


def _recursion_limit_uses(tree):
    """Lines that name ``setrecursionlimit``, as an attribute, a name or an import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "attr", None) == "setrecursionlimit"
        or getattr(node, "id", None) == "setrecursionlimit"
        or (
            isinstance(node, ast.ImportFrom)
            and any(a.name == "setrecursionlimit" for a in node.names)
        )
    ]


def test_rules_see_what_they_forbid():
    tree = ast.parse(
        "import sys\n"
        "from sys import setrecursionlimit\n"
        "def walk(n):\n"
        "    return n and walk(n - 1)\n"
        "class C:\n"
        "    def add(self, x):\n"
        "        super().add(x)\n"
        "        self.cells.add(x)\n"
        "sys.setrecursionlimit(10**5)\n"
    )
    assert _self_calls(tree) == [("walk", 4)]
    assert _recursion_limit_uses(tree) == [2, 9]


def test_package_has_no_recursion():
    assert len(SOURCES) > 5
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _self_calls(tree) == [], path.name
        assert _recursion_limit_uses(tree) == [], path.name
