"""Bundled corpus entries replay all recorded expectations."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import corpus

from conftest import sympy_ew_residual


def test_available_lists_all_entries():
    names = corpus.available()
    assert names == ("dkp", "manakov_santini", "master_ew",
                     "flat_counterexample", "second_heavenly", "dkp_broken",
                     "pavlov")


def test_source_returns_document_text():
    text = corpus.source("dkp")
    assert "[coords]" in text and "[expect]" in text


def test_load_parses():
    doc = corpus.load("dkp")
    assert doc.coords.dim == 3
    assert doc.pair is not None


def test_unknown_entry():
    with pytest.raises(KeyError):
        corpus.load("nope")


@pytest.mark.parametrize("name", corpus.ENTRIES)
def test_entry_verifies(name):
    report = corpus.verify(name)
    assert report.passed, "\n".join(
        "%s: %s" % (c.name, c.detail) for c in report.failures())


def test_report_details_populated():
    report = corpus.verify("dkp")
    names = [c.name for c in report.checks]
    assert names == ["metric", "verdict", "normal", "characteristic",
                     "conic", "curvature"]
    assert all(c.detail for c in report.checks)


def test_negative_control_expects_failure_modes():
    """The broken entry passes because its expectations assert failures."""
    report = corpus.verify("dkp_broken")
    verdict_check = next(c for c in report.checks if c.name == "verdict")
    assert verdict_check.passed
    assert "NOT_INTEGRABLE" in verdict_check.detail


_TRANSFORMS = standard_transformations + (convert_xor,)


@pytest.fixture(scope="module")
def pavlov_text():
    """The ``pavlov`` entry read from its text alone into sympy.  ``u`` is a
    function of the base coordinates ``X``, so ``.diff`` is the total
    derivative; ``on_shell`` substitutes the solved jet and its
    derivatives from the equation until none is left."""
    sections, current = {}, None
    for line in corpus.source("pavlov").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        elif line:
            key, _, value = line.partition(" = ")
            current[key] = value
    base = [b.strip() for b in sections["coords"]["base"].split(",")]
    X = sympy.symbols(base)
    u = sympy.Function("u")(*X)
    names = {"lam": sympy.Symbol("lam"), "u": u}
    for order in (1, 2, 3):
        for idx in itertools.product(range(len(X)), repeat=order):
            names["u_" + "".join(base[i] for i in idx)] = u.diff(
                *(X[i] for i in idx))

    def parse(text):
        return parse_expr(text, local_dict=names, transformations=_TRANSFORMS)

    (solve, rhs_text), = [(k, v) for k, v in sections["equation"].items()
                          if k.startswith("solve ")]
    lhs, rhs = parse(solve.split()[1]), parse(rhs_text)
    need = dict(lhs.variable_count)

    def on_shell(e):
        while True:
            subs = {}
            for d in e.atoms(sympy.Derivative):
                have = dict(d.variable_count)
                if all(have.get(v, 0) >= k for v, k in need.items()):
                    rest = [v for v, k in have.items()
                            for _ in range(k - need.get(v, 0))]
                    subs[d] = rhs.diff(*rest) if rest else rhs
            if not subs:
                return sympy.expand(e)
            e = e.xreplace(subs)

    return SimpleNamespace(sections=sections, X=X, u=u, names=names,
                           parse=parse, equation=lhs - rhs, on_shell=on_shell)


class TestPavlovFromText:
    """Every ``[expect]`` value of the ``pavlov`` entry, and its recorded
    metric, shown in sympy from the document text alone."""

    def test_expectations(self, pavlov_text):
        assert pavlov_text.sections["expect"] == {
            "verdict": "lax-pair", "normal": "false",
            "characteristic": "true", "conic": "true",
            "curvature": "zero-mod-ideal"}

    def test_commutator(self, pavlov_text):
        """``verdict = lax-pair`` and ``normal = false``: ``[X, Y]`` of
        ``X = D_1 - alpha D_3``, ``Y = D_2 - beta D_3`` is ``h D_3``, and
        ``h`` vanishes on solutions but not off them."""
        p = pavlov_text
        pair = {k: p.parse(v) for k, v in p.sections["pair"].items()}
        assert pair["m"] == 0 and pair["n"] == 0
        alpha, beta = pair["alpha"], pair["beta"]
        b1, b2, b3 = p.X
        h = (alpha.diff(b2) - beta.diff(b1)
             + alpha * beta.diff(b3) - beta * alpha.diff(b3))
        assert sympy.expand(h) != 0
        assert p.on_shell(h) == 0

    def test_conic(self, pavlov_text):
        """``conic = true``: ``beta = alpha^2 + alpha u_x - u_y``."""
        p = pavlov_text
        alpha = p.parse(p.sections["pair"]["alpha"])
        beta = p.parse(p.sections["pair"]["beta"])
        n = p.names
        assert sympy.expand(beta - (alpha ** 2 + alpha * n["u_x"]
                                    - n["u_y"])) == 0

    def _symbol_matrix(self, p):
        """Coefficients ``Q^ij`` of the principal symbol ``Q^ij theta_i
        theta_j`` of the equation."""
        n = len(p.X)
        return sympy.Matrix(n, n, lambda i, j: p.equation.diff(
            p.u.diff(p.X[i], p.X[j])) / (1 if i == j else 2))

    def test_characteristic(self, pavlov_text):
        """``characteristic = true``: the covector ``(alpha, beta, 1)``
        annihilating ``X`` and ``Y`` is null for the symbol."""
        p = pavlov_text
        theta = sympy.Matrix([p.parse(p.sections["pair"]["alpha"]),
                              p.parse(p.sections["pair"]["beta"]), 1])
        q = (theta.T * self._symbol_matrix(p) * theta)[0, 0]
        assert sympy.expand(q) == 0

    def test_metric(self, pavlov_text):
        """The recorded metric is a nonzero multiple of the inverse of the
        symbol matrix."""
        p = pavlov_text
        g = sympy.Matrix(p.parse(p.sections["metric"]["rows"]))
        product = (g * self._symbol_matrix(p)).expand()
        scale = product[0, 0]
        assert scale != 0
        assert product == scale * sympy.eye(len(p.X))

    def test_einstein_weyl(self, pavlov_text):
        """``curvature = zero-mod-ideal``: the textbook Einstein--Weyl
        residual of the recorded metric and covector vanishes on solutions
        but not off them."""
        p = pavlov_text
        g = sympy.Matrix(p.parse(p.sections["metric"]["rows"]))
        w = list(p.parse(p.sections["weyl-form"]["omega"]))
        residual = sympy_ew_residual(p.X, g.tolist(), g.inv().tolist(), w,
                                     sympy.Integer(0))
        assert any(sympy.expand(e) != 0 for e in residual.values())
        assert all(p.on_shell(e) == 0 for e in residual.values())
