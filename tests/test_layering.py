"""Layering: only ``laxweyl.expr`` knows the kernel's private helpers."""

from __future__ import annotations

import ast
from pathlib import Path

import laxweyl

PACKAGE = Path(laxweyl.__file__).resolve().parent


def private_expr_imports(source: str) -> list:
    """Names starting with ``_`` that ``source`` imports from the ``expr``
    module, relatively or by its full name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        relative = node.level == 1 and node.module == "expr"
        if relative or node.module == "laxweyl.expr":
            found.extend(a.name for a in node.names
                         if a.name.startswith("_"))
    return found


def test_guard_sees_private_imports():
    assert private_expr_imports(
        "from .expr import Expr, _p_gcd\nfrom laxweyl.expr import _P_ONE"
    ) == ["_p_gcd", "_P_ONE"]
    assert private_expr_imports(
        "from .expr import Expr, poly_gcd\nfrom .jets import _x") == []


def test_no_module_but_expr_imports_expr_privates():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "weyl.py" for m in modules)
    offenders = {m.name: private_expr_imports(m.read_text())
                 for m in modules if m.name != "expr.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def poly_reads(source: str) -> list:
    """``(function, attribute)`` of each read of ``.num`` or ``.den`` in
    ``source``, by the innermost enclosing function (``None`` at module
    level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr in ("num", "den")
                    and isinstance(child.ctx, ast.Load)):
                found.append((function, child.attr))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_poly_reads():
    assert poly_reads(
        "def f(e):\n    def g():\n        return e.num\n"
        "    return len(e.den)\nx = y.num\ne.den = 1\n") == [
            ("g", "num"), ("f", "den"), (None, "num")]


# the parameter solver reads numerators until the closed-form covector
# replaces it
POLY_READERS = {("weyl.py", "_param_equations")}


def test_only_expr_reads_polynomial_dicts():
    """Outside ``laxweyl.expr`` an expression's size is its
    ``term_count()``; no module reads the ``num``/``den`` dicts."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "linalg.py" for m in modules)
    offenders = sorted(
        (m.name, function, attr) for m in modules if m.name != "expr.py"
        for function, attr in poly_reads(m.read_text())
        if (m.name, function) not in POLY_READERS)
    assert offenders == []


def frame_slot_reads(source: str) -> list:
    """Attributes ``gamma`` and ``delta`` that ``source`` reads."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in ("gamma", "delta")
            and isinstance(node.ctx, ast.Load)]


def test_guard_sees_slot_reads():
    assert frame_slot_reads(
        "x = pair.gamma\nf(p.delta)\nLaxPair(c, gamma=g)\ngamma = 1") == [
            "gamma", "delta"]


def test_only_lax_reads_4d_frame_slots():
    """Which coefficient fills which slot of X and Y is known to
    ``lax.LaxPair`` alone; other modules iterate ``coefficients()``."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "reports.py" for m in modules)
    offenders = {m.name: frame_slot_reads(m.read_text())
                 for m in modules if m.name != "lax.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def unused_imports(source: str) -> list:
    """Names that ``source`` imports and never reads, in import order.  A
    name listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_guard_sees_unused_imports():
    assert unused_imports(
        "from __future__ import annotations\nimport random, os.path\n"
        "from typing import List, Tuple\nfrom .a import b as c, d\n"
        "__all__ = ['d']\n\ndef f(x: List) -> int:\n    return os.sep\n"
    ) == ["random", "Tuple", "c"]


def test_no_module_imports_an_unused_name():
    """``__init__`` imports to re-export; every other module reads each
    name it imports."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "lax.py" for m in modules)
    offenders = {m.name: unused_imports(m.read_text())
                 for m in modules if m.name != "__init__.py"}
    assert {k: v for k, v in offenders.items() if v} == {}
