"""Static checks over the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grasp_eq"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# nodes with a scope of their own; what they bind is not the function's
SCOPES = FUNCTIONS + (ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp,
                      ast.DictComp, ast.GeneratorExp)


def unread_locals(func):
    """{name: line} of the names ``func`` binds by assignment and that
    nothing in it, nested functions included, ever reads.

    Arguments, names declared global or nonlocal, and names starting with
    an underscore are not counted.
    """
    stored, read, shared = {}, set(), set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                if not isinstance(child.ctx, ast.Store):
                    read.add(child.id)
                elif own:
                    stored.setdefault(child.id, child.lineno)
            elif isinstance(child, ast.AugAssign):
                # x += y reads x before it binds it
                read.update(n.id for n in ast.walk(child.target)
                            if isinstance(n, ast.Name))
            elif isinstance(child, (ast.Global, ast.Nonlocal)) and own:
                shared.update(child.names)
            visit(child, own and not isinstance(child, SCOPES))

    visit(func, True)
    return {name: line for name, line in stored.items()
            if name not in read and name not in shared
            and not name.startswith("_")}


def unread_in_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{line} {func.name} binds {name!r}, never read"
            for func in ast.walk(tree) if isinstance(func, FUNCTIONS)
            for name, line in unread_locals(func).items()]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_binds_a_local_it_never_reads(path):
    assert unread_in_module(path) == []


def test_the_check_sees_what_it_must():
    tree = ast.parse("""
def f(a):
    unused = a + 1
    used, _ignored = a, 2
    total = 0
    total += used
    count = 0
    def inner():
        nonlocal count
        count = 1
    rows = [i for i in range(3)]
    return inner, count
""")
    func = tree.body[0]
    inner = next(n for n in func.body if isinstance(n, ast.FunctionDef))
    assert unread_locals(func) == {"unused": 3, "rows": 11}
    assert unread_locals(inner) == {}


def unused_imports(tree):
    """{name: line} of the names ``tree``'s imports bind and that nothing
    in it reads; ``from __future__`` imports are not counted."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return {name: line for name, line in bound.items() if name not in read}


# __init__.py imports only to re-export
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line} imports {name!r}, never read"
            for name, line in unused_imports(tree).items()] == []


def test_the_import_check_sees_what_it_must():
    tree = ast.parse("""
from __future__ import annotations
import os, sys
import numpy as np
import os.path
from .scene import nearest, far as distant, kept
def f(x: kept):
    from .hand import inner
    return np.sqrt(os.sep), inner
""")
    assert unused_imports(tree) == {"sys": 3, "nearest": 6, "distant": 6}


# The package refuses in one of two ways: invalid input raises ValueError
# and an uncertified QP raises SolverError.  Besides a bare re-raise, the
# one other raise is batch._fan_out's RuntimeError for a fork that died,
# a failure of the environment rather than of the input.
REFUSALS = {"ValueError", "SolverError"}


def stray_raises(tree):
    """Lines of the ``raise`` statements in ``tree`` that raise anything
    but a REFUSALS class, outside a bare re-raise and ``_fan_out``'s
    RuntimeError."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                exc = exc.func if isinstance(exc, ast.Call) else exc
                name = exc.id if isinstance(exc, ast.Name) else None
                if not (name in REFUSALS or (name == "RuntimeError"
                                             and func == "_fan_out")):
                    found.append(child.lineno)
            visit(child, child.name if isinstance(child, FUNCTIONS) else func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_raise_is_a_refusal_or_a_dead_fork(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in stray_raises(tree)] == []


def test_the_raise_check_sees_what_it_must():
    tree = ast.parse("""
def f(x):
    if x:
        raise ValueError("bad x")
    try:
        pass
    except OSError:
        raise
    raise KeyError(x)
def _fan_out():
    raise RuntimeError("dead fork")
def g():
    raise RuntimeError("not a fork")
    raise SolverError
class InputError(Exception):
    pass
raise InputError("a bespoke class")
""")
    assert stray_raises(tree) == [9, 13, 17]


# errors.whole_number is the package's one integer test: it alone may ask
# whether a value is a numbers.Integral or has a fractional part.
def integer_tests(tree):
    """Lines of ``tree`` that test for an integer by hand: an import,
    name or attribute ``Integral``, a ``% 1``, or a comparison of
    ``int(x)`` with ``x``."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "Integral"
                or isinstance(node, ast.Name) and node.id == "Integral"
                or isinstance(node, ast.ImportFrom) and any(
                    alias.name == "Integral" for alias in node.names)):
            found.add(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and isinstance(node.right, ast.Constant)
              and node.right.value == 1):
            found.add(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            casts = [ast.dump(side.args[0]) for side in sides
                     if isinstance(side, ast.Call)
                     and isinstance(side.func, ast.Name)
                     and side.func.id == "int" and len(side.args) == 1]
            if any(ast.dump(side) in casts for side in sides):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "errors.py"}),
                         ids=lambda p: p.name)
def test_only_errors_tests_for_an_integer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{path.name}:{line}" for line in integer_tests(tree)] == []


def test_the_integer_check_sees_what_it_must():
    tree = ast.parse("""
import numbers
from numbers import Integral
a = isinstance(x, numbers.Integral)
b = x % 1 == 0
c = int(x) != x
d = x == int(x)
e = x % 1.0
f = int(s.n) != s.n and issubclass(t, Integral)
g = x % 2, int(y) != x, isinstance(x, numbers.Real), int(x) >= 1
""")
    assert integer_tests(tree) == [3, 4, 5, 6, 7, 8, 9]
