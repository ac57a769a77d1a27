"""The names the benchmark in ``perfbench/`` binds still exist.

The tracer in ``perfbench/layertrace.py`` wraps functions by module
attribute and methods by class ``__dict__`` entry, and the checks call the
package as ``lw.<name>``.  A renamed or deleted entry point would otherwise
only show when a traced benchmark run fails.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import laxweyl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes(source: str) -> set:
    """Attributes read off the names ``lw`` and ``laxweyl`` in ``source``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("lw", "laxweyl")}


def test_traced_functions_resolve(layertrace):
    missing = [(module, attr) for module, attr, _, _ in layertrace.FUNCTIONS
               if not hasattr(importlib.import_module("laxweyl." + module),
                              attr)]
    assert missing == []


def test_traced_methods_are_defined_on_their_class(layertrace):
    missing = []
    for module, cls_name, method, _, _ in layertrace.METHODS:
        cls = getattr(importlib.import_module("laxweyl." + module), cls_name)
        if method not in cls.__dict__:
            missing.append((cls_name, method))
    assert missing == []


def test_guard_sees_package_attributes():
    assert package_attributes(
        "lw.verify_lax(s, p)\nx = laxweyl.Var.spectral('lam')\ny = doc.system"
    ) == {"verify_lax", "Var"}


def test_benchmark_package_names_exist():
    sources = sorted(PERFBENCH.glob("*.py"))
    assert any(p.name == "checks.py" for p in sources)
    used = set().union(*(package_attributes(p.read_text()) for p in sources))
    assert "monge_invariant" in used
    assert sorted(n for n in used if not hasattr(laxweyl, n)) == []


def test_all_names_exist():
    assert [n for n in laxweyl.__all__ if not hasattr(laxweyl, n)] == []
