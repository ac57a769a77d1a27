"""Bundled corpus entries replay all recorded expectations."""

from __future__ import annotations

import itertools
import re
from types import SimpleNamespace

import pytest
import sympy
from sympy.combinatorics import Permutation
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import corpus, sd_residual

from conftest import sympy_ew_residual


def test_available_lists_all_entries():
    names = corpus.available()
    assert names == ("dkp", "manakov_santini", "master_ew",
                     "flat_counterexample", "first_heavenly",
                     "second_heavenly", "dkp_broken", "pavlov")


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


def doctored(name: str, key: str, value: str) -> str:
    """The text of entry ``name`` with its ``[expect]`` value for ``key``
    replaced by ``value``."""
    text = corpus.source(name)
    out = re.sub(r"(?m)^%s = .*$" % key, "%s = %s" % (key, value), text)
    assert out != text
    return out


@pytest.mark.parametrize("name, key, value", [
    ("dkp", "verdict", "lax pair"),
    ("dkp", "curvature", "zero"),
    ("dkp", "normal", "yes"),
    ("manakov_santini", "normal", "no"),
    ("dkp", "characteristic", "True"),
    ("dkp", "conic", "1"),
    ("second_heavenly", "orientation", "+-"),
])
def test_unknown_expect_value_fails_its_own_check(monkeypatch, name, key,
                                                  value):
    """A value outside its key's vocabulary fails that check alone, and the
    detail names the key and the value.  ``normal = no`` on a pair that is
    not normal used to pass, read as false."""
    text = doctored(name, key, value)
    monkeypatch.setattr(corpus, "source", lambda entry: text)
    report = corpus.verify(name)
    (failure,) = report.failures()
    assert failure.name == key
    assert failure.detail.startswith("DslError: [expect] %s = %r is not "
                                     "one of: " % (key, value))


_TRANSFORMS = standard_transformations + (convert_xor,)


def entry_sections(name: str) -> dict:
    """The sections of a corpus entry's text, each a ``{key: value}`` dict,
    read without the workbench's parser."""
    sections, current = {}, None
    for line in corpus.source(name).splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        elif line:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


@pytest.fixture(scope="module")
def pavlov_text():
    """The ``pavlov`` entry read from its text alone into sympy.  ``u`` is a
    function of the base coordinates ``X``, so ``.diff`` is the total
    derivative; ``on_shell`` substitutes the solved jet and its
    derivatives from the equation until none is left."""
    sections = entry_sections("pavlov")
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


@pytest.fixture(scope="module")
def first_heavenly_text():
    """The ``first_heavenly`` entry read from its text alone into sympy's
    rational function field over its parametric jets: the jets are plain
    symbols, and the total derivative ``D`` replaces each derivative of the
    solved jet by the total derivative of the right-hand side.  Then the
    Levi-Civita curvature of the recorded metric, its Weyl tensor ``C`` and
    ``V(C)_{abkl} = 1/2 eps_{klmn} g^{mp} g^{nq} C_{abpq}``, with ``eps``
    the permutation symbol in base order."""
    sections = entry_sections("first_heavenly")
    base = [b.strip() for b in sections["coords"]["base"].split(",")]
    n = len(base)
    (solve, rhs_text), = [(k, v) for k, v in sections["equation"].items()
                          if k.startswith("solve ")]
    principal = sorted(base.index(c) for c in solve.split()[1][2:])

    def name(idx):
        return "u_" + "".join(base[i] for i in sorted(idx))

    def parametric(idx):
        """Whether the jet ``idx`` is not a derivative of the solved jet."""
        rest = list(idx)
        for i in principal:
            if i not in rest:
                return True
            rest.remove(i)
        return False

    jets = [idx for order in (2, 3, 4)
            for idx in itertools.combinations_with_replacement(range(n), order)
            if parametric(idx)]
    K, *gens = sympy.field([name(j) for j in jets], sympy.QQ)
    symbols = {name(j): sympy.Symbol(name(j)) for j in jets}

    def parse(text):
        return parse_expr(text, local_dict=symbols,
                          transformations=_TRANSFORMS)

    rhs = K(parse(rhs_text))
    solved = {}

    def jet(idx):
        idx = tuple(sorted(idx))
        if parametric(idx):
            return gens[jets.index(idx)]
        if idx not in solved:
            rest = list(idx)
            for i in principal:
                rest.remove(i)
            e = rhs
            for i in rest:
                e = D(e, i)
            solved[idx] = e
        return solved[idx]

    def D(f, i):
        out = K(0)
        if f:
            degrees = zip(f.numer.degrees(), f.denom.degrees())
            for k, (a, b) in enumerate(degrees):
                if a > 0 or b > 0:
                    out += f.diff(gens[k]) * jet(jets[k] + (i,))
        return out

    g = [[K(e) for e in row] for row in parse(sections["metric"]["rows"])]
    # g = [[0, A], [A^T, 0]], so g^-1 = [[0, A^-T], [A^-1, 0]]
    A = [row[2:] for row in g[:2]]
    det_a = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    a_inv = [[A[1][1] / det_a, -A[0][1] / det_a],
             [-A[1][0] / det_a, A[0][0] / det_a]]
    zero, half = K(0), K(sympy.Rational(1, 2))
    inv = [[zero] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            inv[i][2 + j], inv[2 + i][j] = a_inv[j][i], a_inv[i][j]
    r = range(n)
    dg = [[[D(g[a][b], c) for c in r] for b in r] for a in r]
    first = [[[half * (dg[a][k][j] + dg[a][j][k] - dg[j][k][a]) for k in r]
              for j in r] for a in r]
    gamma = [[[sum((inv[a][e] * first[e][j][k] for e in r), zero) for k in r]
              for j in r] for a in r]
    # R^a_bcd = D_c Gamma^a_db - D_d Gamma^a_cb
    #           + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    dgamma = [[[[D(gamma[a][d][b], c) for c in r] for b in r] for d in r]
              for a in r]
    up = {}
    for a, b, c, d in itertools.product(r, repeat=4):
        up[a, b, c, d] = dgamma[a][d][b][c] - dgamma[a][c][b][d] + sum(
            (gamma[a][c][e] * gamma[e][d][b] - gamma[a][d][e] * gamma[e][c][b]
             for e in r), zero)
    riem = {key: sum((g[key[0]][e] * up[(e,) + key[1:]] for e in r), zero)
            for key in up}
    ric = [[sum((up[a, b, a, d] for a in r), zero) for d in r] for b in r]
    scal = sum((inv[b][d] * ric[b][d] for b in r for d in r), zero)
    schouten = [[half * (ric[i][j] - scal * g[i][j] / 6) for j in r]
                for i in r]
    C = {(a, b, c, d): riem[a, b, c, d] - (
        g[a][c] * schouten[b][d] - g[a][d] * schouten[b][c]
        + g[b][d] * schouten[a][c] - g[b][c] * schouten[a][d])
        for a, b, c, d in riem}
    pairs = list(itertools.combinations(r, 2))
    V = {}
    for (a, b), (k, l) in itertools.product(pairs, pairs):
        V[a, b, k, l] = sum((
            Permutation([k, l, m, m2]).signature()
            * inv[m][p] * inv[m2][q] * C[a, b, p, q]
            for m, m2 in pairs if not {m, m2} & {k, l}
            for p in r for q in r), zero)
    return SimpleNamespace(sections=sections, K=K, parse=parse, rhs=rhs,
                           jets=jets, gens=gens, g=g, inv=inv, det_a=det_a,
                           C=C, V=V, pairs=pairs)


class TestFirstHeavenlyFromText:
    """The ``[expect]`` value of the ``first_heavenly`` entry, and its
    recorded metric, shown in sympy from the document text alone."""

    def test_expectations(self, first_heavenly_text):
        assert first_heavenly_text.sections["expect"] == {"orientation": "-"}

    def test_metric(self, first_heavenly_text):
        """The recorded metric times the symbol matrix of ``u_xz - rhs`` is
        a nonzero multiple of the identity."""
        p = first_heavenly_text
        n = len(p.g)
        q = [[p.K(0)] * n for _ in range(n)]
        for idx, gen in zip(p.jets, p.gens):
            if len(idx) == 2:
                i, j = idx
                q[i][j] = q[j][i] = -p.rhs.diff(gen) / (1 if i == j else 2)
        q[0][2] = q[2][0] = p.K(sympy.Rational(1, 2))
        product = [[sum((p.g[i][k] * q[k][j] for k in range(n)), p.K(0))
                    for j in range(n)] for i in range(n)]
        scale = product[0][0]
        assert scale != 0
        assert all(product[i][j] == (scale if i == j else 0)
                   for i in range(n) for j in range(n))

    def test_volume(self, first_heavenly_text):
        """``g = [[0, A], [A^T, 0]]``, so ``det g = det(A)^2``, and ``det A``
        is the square root of ``det g`` that laxweyl takes, with the sign of
        the ``+`` orientation."""
        p = first_heavenly_text
        assert all(p.g[i][j] == 0 for i, j in itertools.product((0, 1), (0, 1)))
        assert all(p.g[i][j] == 0 for i, j in itertools.product((2, 3), (2, 3)))
        assert p.det_a == p.K(p.parse("4/u_yt^2"))
        doc = corpus.load("first_heavenly")
        report = sd_residual(doc.system, doc.metric, orientation="+")
        assert p.det_a == p.K(p.parse(str(report.volume_sqrt)))

    def test_anti_self_dual(self, first_heavenly_text):
        """``orientation = -``: ``C = -det(A) V(C)`` in all 36 entries."""
        p = first_heavenly_text
        assert all(p.C[key] + p.det_a * p.V[key] == 0 for key in p.V)
        assert len(p.V) == 36

    def test_not_self_dual(self, first_heavenly_text):
        """The opposite orientation fails: ``C - det(A) V(C)`` is nonzero in
        16 of its 36 entries."""
        p = first_heavenly_text
        assert sum(p.C[key] - p.det_a * p.V[key] != 0 for key in p.V) == 16
