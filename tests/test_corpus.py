"""Bundled corpus entries replay all recorded expectations, and a sympy
oracle derives each of them from the entry's text."""

from __future__ import annotations

import itertools
import re
from math import prod

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)
from sympy.polys.matrices import DomainMatrix

from laxweyl import corpus, sd_residual

from conftest import sympy_dual, sympy_ew_residual, sympy_weyl_tensor


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
    """Every entry passes, with one check per ``[expect]`` key plus
    ``metric`` when a metric is recorded, so no key is skipped."""
    report = corpus.verify(name)
    assert report.passed, "\n".join(
        "%s: %s" % (c.name, c.detail) for c in report.failures())
    doc = corpus.load(name)
    assert sorted(c.name for c in report.checks) == sorted(
        list(doc.expect) + ["metric"] * (doc.metric is not None))


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
    replaced by ``value``, or ``key = value`` appended when the entry
    records no ``key``: ``[expect]`` is the last section of every entry."""
    text = corpus.source(name)
    out = re.sub(r"(?m)^%s = .*$" % key, "%s = %s" % (key, value), text)
    return out if out != text else "%s%s = %s\n" % (text, key, value)


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


@pytest.mark.parametrize("name, key, value", [
    ("dkp", "verdcit", "not-integrable"),
    ("second_heavenly", "conic", "true"),
    ("second_heavenly", "curvature", "zero-mod-ideal"),
    ("dkp", "orientation", "-"),
    ("flat_counterexample", "verdict", "lax-pair"),
    ("flat_counterexample", "normal", "true"),
    ("flat_counterexample", "characteristic", "true"),
    ("flat_counterexample", "conic", "true"),
])
def test_unknown_or_inapplicable_key_fails_its_own_check(monkeypatch, name,
                                                         key, value):
    """A misspelled key, ``conic`` or ``curvature`` on a 4D entry,
    ``orientation`` on a 3D one, and a pair key without a ``[pair]`` each
    fail as their own check, which names the key."""
    text = doctored(name, key, value)
    monkeypatch.setattr(corpus, "source", lambda entry: text)
    (failure,) = corpus.verify(name).failures()
    assert failure.name == key
    assert failure.detail.startswith("DslError: [expect] %s " % key)


# The sympy oracle: every [expect] value derived from an entry's text alone,
# by code that shares nothing with laxweyl.

_TRANSFORMS = standard_transformations + (convert_xor,)
# the total derivatives the oracle takes of each section
_DEPTH = {"pair": 1, "metric": 2, "weyl-form": 1}


class JetText:
    """A ``.dspec`` text read into sympy's rational function field ``K``
    over the base coordinates, covector components ``theta_*``, the
    spectral parameter and every jet up to the highest order the oracle
    reaches.  ``D(f, i, on_shell)`` is the total derivative in the i-th
    base coordinate; on shell it replaces each solved jet by the total
    derivatives of its right-hand side, off shell every jet is free."""

    def __init__(self, text: str):
        self.sections, equations, current = {}, [], None
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                current = {}
                if line == "[equation]":
                    equations.append(current)
                else:
                    self.sections[line.strip("[]")] = current
            elif line:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
        coords = self.sections["coords"]
        self.base = [b.strip() for b in coords["base"].split(",")]
        self.unknowns = [u.strip() for u in coords["unknowns"].split(",")]
        self.n = n = len(self.base)
        solves = [next((k.split()[1], v) for k, v in eq.items()
                       if k.startswith("solve ")) for eq in equations]
        self.solves = [self.jet_index(jet) for jet, _ in solves]
        jet_re = r"\b(?:%s)_(\w+)" % "|".join(self.unknowns)
        order = max([sum(idx) for _, idx in self.solves] + [
            len(t) + _DEPTH[s] for s in _DEPTH
            for v in self.sections.get(s, {}).values()
            for t in re.findall(jet_re, v)])
        jets = [(u, idx) for u in self.unknowns for k in range(order + 1)
                for idx in self.indices(k)]
        names = (self.base + ["theta_" + b for b in self.base]
                 + [coords.get("spectral", "lam")]
                 + [self.name(jet) for jet in jets])
        self.K, *gens = sympy.field(names, sympy.QQ)
        self.zero = self.K(0)
        self.theta, self.lam = gens[n:2 * n], gens[2 * n]
        self.gen = dict(zip(jets, gens[2 * n + 1:]))
        self.jet_of = dict(enumerate(jets, 2 * n + 1))
        self.symbols = dict(zip(names, sympy.symbols(names)))
        self.solved = {}
        self.rhs = [self.K(self.parse(rhs, False)) for _, rhs in solves]

    def indices(self, k: int) -> list:
        return [tuple(c.count(i) for i in range(self.n)) for c in
                itertools.combinations_with_replacement(range(self.n), k)]

    def name(self, jet) -> str:
        u, idx = jet
        letters = "".join(b * k for b, k in zip(self.base, idx))
        return u + "_" + letters if letters else u

    def jet_index(self, name: str) -> tuple:
        head, _, tail = name.partition("_")
        return head, tuple(tail.count(b) for b in self.base)

    def jet(self, jet, on_shell: bool):
        u, idx = jet
        solved = [(k, [b - a for a, b in zip(alpha, idx)])
                  for k, (v, alpha) in enumerate(self.solves)
                  if v == u and all(a <= b for a, b in zip(alpha, idx))]
        if not on_shell or not solved:
            return self.gen[jet]
        if jet not in self.solved:
            (k, rest), = solved
            i = next((i for i, r in enumerate(rest) if r), None)
            if i is None:
                self.solved[jet] = self.rhs[k]
            else:
                lower = tuple(a - (j == i) for j, a in enumerate(idx))
                self.solved[jet] = self.D(self.jet((u, lower), True), i, True)
        return self.solved[jet]

    def D(self, f, i: int, on_shell: bool):
        out = self.zero
        degrees = zip(f.numer.degrees(), f.denom.degrees()) if f else ()
        for k, degree in enumerate(degrees):
            if degree == (0, 0) or (k != i and k not in self.jet_of):
                continue
            df = f.diff(self.K.gens[k])
            if k == i:
                out += df
            else:
                u, idx = self.jet_of[k]
                up = tuple(e + (j == i) for j, e in enumerate(idx))
                out += df * self.jet((u, up), on_shell)
        return out

    def parse(self, text: str, on_shell: bool):
        """The sympy value of ``text`` (an expression, or a nested list or
        tuple of them), every jet taken on or off shell."""
        local = dict(self.symbols)
        for token in set(re.findall(r"\w+", text)):
            if token.partition("_")[0] in self.unknowns:
                local[token] = self.jet(self.jet_index(token),
                                        on_shell).as_expr()
        return parse_expr(text, local_dict=local, transformations=_TRANSFORMS)

    def value(self, section: str, key: str, on_shell: bool):
        """One entry of a section in ``K``, a list for a covector."""
        value = self.parse(self.sections[section][key], on_shell)
        if isinstance(value, tuple):
            return [self.K(e) for e in value]
        return self.K(value)

    def metric(self, on_shell: bool) -> tuple:
        g = sympy.Matrix(self.parse(self.sections["metric"]["rows"], on_shell))
        return ([[self.K(e) for e in row] for row in g.tolist()],
                [[self.K(e) for e in row] for row in g.inv().tolist()])

    def frame(self, on_shell: bool) -> tuple:
        """``(X, m)`` and ``(Y, n)``: the components of ``X`` and ``Y`` on
        ``D_1 .. D_n`` and on ``d/dlam``."""
        pair = {k: self.value("pair", k, on_shell)
                for k in self.sections["pair"]}
        # the first n - 2 of alpha, beta, gamma, delta are X's transverse
        # slots, the rest Y's
        slots = [-pair[k] for k in ("alpha", "beta", "gamma", "delta")
                 if k in pair]
        one, zero, half = self.K(1), self.zero, self.n - 2
        return (([one, zero] + slots[:half], pair["m"]),
                ([zero, one] + slots[half:], pair["n"]))

    def commutator(self, on_shell: bool) -> list:
        """The ``D_3 .. D_n`` components of ``[X, Y]``, then its
        ``d/dlam`` component."""
        (X, m), (Y, n) = self.frame(on_shell)

        def apply(v, vertical, f):
            return sum((c * self.D(f, i, on_shell) for i, c in enumerate(v)
                        if c), self.zero) + vertical * f.diff(self.lam)

        return [apply(X, m, Y[k]) - apply(Y, n, X[k])
                for k in range(2, self.n)] + [apply(X, m, n) - apply(Y, n, m)]

    def symbol(self, theta):
        """``det`` of the principal symbol of the system at ``theta``, on
        shell."""
        rows = [[sum((int((v, idx) == (u, alpha)) - rhs.diff(self.gen[v, idx]))
                     * prod(t ** k for t, k in zip(theta, idx) if k)
                     for idx in self.indices(sum(alpha)))
                 for v in self.unknowns]
                for (u, alpha), rhs in zip(self.solves, self.rhs)]
        return DomainMatrix(rows, (len(rows),) * 2, self.K.to_domain()).det()


def square_root(K, f):
    """The square root of ``f`` in ``K`` with a positive constant factor,
    from the factorizations of its numerator and denominator, or None."""
    parts = []
    for poly in (f.numer, f.denom):
        coeff, factors = poly.factor_list()
        root = sympy.sqrt(K.domain.to_sympy(coeff))
        if not root.is_Rational or any(e % 2 for _, e in factors):
            return None
        parts.append(K(root) * prod(K(q) ** (e // 2) for q, e in factors))
    return parts[0] / parts[1]


def flag(value: bool) -> str:
    return "true" if value else "false"


def theta_free(p: JetText, f) -> bool:
    """Whether ``f`` is nonzero and free of the covector components."""
    return bool(f) and not any(f.numer.degrees()[p.n:2 * p.n]
                               + f.denom.degrees()[p.n:2 * p.n])


def conformal_ratio(p: JetText):
    """``det`` of the symbol over ``(theta g^-1 theta)^(number of
    unknowns)`` on shell: theta-free exactly when the recorded metric is
    conformal to the symbol's."""
    _, gi = p.metric(True)
    q = sum((gi[i][j] * p.theta[i] * p.theta[j]
             for i in range(p.n) for j in range(p.n)), p.zero)
    return p.symbol(p.theta) / q ** len(p.unknowns)


def ew_residuals(p: JetText) -> list:
    """The textbook Einstein--Weyl residual of the recorded metric and
    covector, off shell and on shell."""
    out = []
    for on_shell in (False, True):
        g, gi = p.metric(on_shell)
        omega = p.value("weyl-form", "omega", on_shell)
        out.append(sympy_ew_residual(
            lambda f, i, s=on_shell: p.D(f, i, s), g, gi, omega, p.zero))
    return out


def self_duality(p: JetText) -> tuple:
    """The Weyl tensor ``C`` of the recorded metric on shell, its dual
    ``V(C)`` and the square root ``s`` of ``det g`` with a positive
    constant factor (None when ``det g`` has no square root in ``K``)."""
    g, gi = p.metric(True)
    c = sympy_weyl_tensor(lambda f, i: p.D(f, i, True), g, gi, p.zero)
    s = square_root(p.K, DomainMatrix(g, (p.n, p.n), p.K.to_domain()).det())
    return c, sympy_dual(gi, c, p.zero), s


def derive(p: JetText) -> dict:
    """The value of each ``[expect]`` key that the text implies, whether a
    recorded metric is conformal to the symbol's, and for self-duality the
    volume ``s`` and the number of nonzero entries of the failing
    orientation."""
    out, expect = {}, p.sections.get("expect", {})
    if "pair" in p.sections:
        raw, reduced = p.commutator(False), p.commutator(True)
        out["verdict"] = ("trivial" if not any(raw) else "not-integrable"
                          if any(reduced) else "lax-pair")
        out["normal"] = flag(not any(raw[:-1]))
        # the covectors annihilating X and Y span a null plane exactly when
        # the symbol vanishes on each of them and on their pairwise sums
        (X, _), (Y, _) = p.frame(True)
        thetas = [[-X[k], -Y[k]] + [p.K(int(j == k)) for j in range(2, p.n)]
                  for k in range(2, p.n)]
        thetas += [[a + b for a, b in zip(s, t)]
                   for s, t in itertools.combinations(thetas, 2)]
        out["characteristic"] = flag(not any(p.symbol(t) for t in thetas))
        # on a conic exactly when the six quadratic monomials in (c, c alpha,
        # c beta), c a common denominator, have a lambda-coefficient matrix
        # of rank below 6
        if p.n == 3:
            (X, _), (Y, _) = p.frame(False)
            alpha, beta = -X[2], -Y[2]
            c = alpha.denom * beta.denom
            a, b = alpha.numer * beta.denom, beta.numer * alpha.denom
            lam = p.K.ring.gens[2 * p.n]
            monomials = [c * c, c * a, c * b, a * a, a * b, b * b]
            rows = [[p.K(f.coeff_wrt(lam, k)) for f in monomials] for k in
                    range(max(f.degree(lam) for f in monomials) + 1)]
            rank = DomainMatrix(rows, (len(rows), 6), p.K.to_domain()).rank()
            out["conic"] = flag(rank < 6)
    if "metric" not in p.sections:
        return out
    out["metric"] = theta_free(p, conformal_ratio(p))
    if "curvature" in expect and "weyl-form" in p.sections:
        raw, reduced = ew_residuals(p)
        out["curvature"] = ("identically-zero" if not any(raw.values())
                            else "nonzero" if any(reduced.values())
                            else "zero-mod-ideal")
    if "orientation" in expect:
        c, v, s = self_duality(p)
        out["volume"] = s
        plus = sum(c[key] - s * v[key] != 0 for key in c)
        minus = sum(c[key] + s * v[key] != 0 for key in c)
        out["orientation"] = ("+" if not plus and minus else
                              "-" if plus and not minus else None)
        out["opposite"] = plus + minus
    return out


# values the oracle cannot derive: curvature = none claims that laxweyl's
# covector search finds no covector in its ansatz
UNPROVED = {("dkp_broken", "curvature")}
# nonzero entries of C - s V(C) (C + s V(C) for "+") of the failing
# orientation, of 36
OPPOSITE_NONZERO = {"first_heavenly": 16, "second_heavenly": 25}


@pytest.mark.parametrize("name", corpus.ENTRIES)
def test_oracle_proves_every_expectation(name):
    """Each recorded ``[expect]`` value, but the unproved ones, is the one
    that the sympy oracle derives from the text, and a recorded metric is
    conformal to the symbol's.  On a 4D entry the oracle's volume is the
    square root of ``det g`` that laxweyl takes for ``+``."""
    p = JetText(corpus.source(name))
    expect = dict(p.sections["expect"])
    for entry, key in UNPROVED:
        if entry == name:
            del expect[key]
    proof = derive(p)
    assert {key: proof.get(key) for key in expect} == expect
    assert proof.get("metric", True)
    if "orientation" in expect:
        assert proof["opposite"] == OPPOSITE_NONZERO[name]
        doc = corpus.load(name)
        report = sd_residual(doc.system, doc.metric, orientation="+")
        assert proof["volume"] == p.K(p.parse(str(report.volume_sqrt), True))


@pytest.fixture(scope="module")
def pavlov_text():
    return JetText(corpus.source("pavlov"))


class TestPavlovFromText:
    """The oracle's steps on the ``pavlov`` entry, one per ``[expect]``
    value and one for its recorded metric."""

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
        assert p.value("pair", "m", False) == 0
        assert p.value("pair", "n", False) == 0
        (h, vertical), reduced = p.commutator(False), p.commutator(True)
        assert h != 0 and vertical == 0
        assert not any(reduced)
        assert derive(p)["verdict"] == "lax-pair"
        assert derive(p)["normal"] == "false"

    def test_conic(self, pavlov_text):
        """``conic = true``: ``beta = alpha^2 + alpha u_x - u_y``."""
        p = pavlov_text
        alpha = p.value("pair", "alpha", False)
        beta = p.value("pair", "beta", False)
        u_x, u_y = (p.K(p.parse(jet, False)) for jet in ("u_x", "u_y"))
        assert beta == alpha ** 2 + alpha * u_x - u_y
        assert derive(p)["conic"] == "true"

    def test_characteristic(self, pavlov_text):
        """``characteristic = true``: the covector ``(alpha, beta, 1)``
        annihilating ``X`` and ``Y`` is null for the symbol."""
        p = pavlov_text
        theta = [p.value("pair", k, True) for k in ("alpha", "beta")]
        assert p.symbol(theta + [p.K(1)]) == 0
        assert derive(p)["characteristic"] == "true"

    def test_metric(self, pavlov_text):
        """The recorded metric is conformal to the symbol's."""
        assert theta_free(pavlov_text, conformal_ratio(pavlov_text))

    def test_einstein_weyl(self, pavlov_text):
        """``curvature = zero-mod-ideal``: the textbook Einstein--Weyl
        residual of the recorded metric and covector vanishes on solutions
        but not off them."""
        raw, reduced = ew_residuals(pavlov_text)
        assert any(raw.values())
        assert not any(reduced.values())


@pytest.fixture(scope="module")
def first_heavenly_text():
    p = JetText(corpus.source("first_heavenly"))
    return p, self_duality(p)


class TestFirstHeavenlyFromText:
    """The oracle's steps on the ``first_heavenly`` entry: its ``[expect]``
    value, its recorded metric and its volume."""

    def test_expectations(self, first_heavenly_text):
        p, _ = first_heavenly_text
        assert p.sections["expect"] == {"orientation": "-"}

    def test_metric(self, first_heavenly_text):
        """The recorded metric is conformal to the symbol's."""
        p, _ = first_heavenly_text
        assert theta_free(p, conformal_ratio(p))

    def test_volume(self, first_heavenly_text):
        """``g = [[0, A], [A^T, 0]]``, so ``det g = det(A)^2``, and the
        oracle's ``s = det A = 4/u_yt^2`` is the square root of ``det g``
        that laxweyl takes, with the sign of the ``+`` orientation."""
        p, (_, _, s) = first_heavenly_text
        g, _ = p.metric(True)
        assert all(g[i][j] == 0 for i, j in itertools.product((0, 1), (0, 1)))
        assert all(g[i][j] == 0 for i, j in itertools.product((2, 3), (2, 3)))
        assert s == p.K(p.parse("4/u_yt^2", True))
        doc = corpus.load("first_heavenly")
        report = sd_residual(doc.system, doc.metric, orientation="+")
        assert s == p.K(p.parse(str(report.volume_sqrt), True))

    def test_anti_self_dual(self, first_heavenly_text):
        """``orientation = -``: ``C = -s V(C)`` in all 36 entries."""
        _, (c, v, s) = first_heavenly_text
        assert all(c[key] + s * v[key] == 0 for key in v)
        assert len(v) == 36

    def test_not_self_dual(self, first_heavenly_text):
        """The opposite orientation fails: ``C - s V(C)`` is nonzero in 16
        of its 36 entries."""
        _, (c, v, s) = first_heavenly_text
        assert sum(c[key] - s * v[key] != 0 for key in v) == 16
