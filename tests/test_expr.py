"""Exact rational expression kernel: canonical forms, arithmetic, printing."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cmp_to_key, reduce

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import (Coordinates, Expr, ONE, ZERO, Var, poly_divexact,
                     poly_gcd)
from laxweyl.errors import DivisionByZero, NotPolynomialIn
from laxweyl.expr import _m_key, _p_leading

from conftest import atom_pool, random_fraction, random_polynomial, random_rational

_SYMPY_TRANSFORMS = standard_transformations + (convert_xor,)


def to_sympy(e: Expr) -> sympy.Expr:
    return parse_expr(str(e), transformations=_SYMPY_TRANSFORMS)


@pytest.fixture(scope="module")
def coords():
    return Coordinates(("x", "y", "t"), ("u",))


class TestConstruction:
    def test_number(self):
        assert str(Expr.number(Fraction(3, 4))) == "3/4"
        assert Expr.number(0).is_zero()
        assert Expr.number(5).is_constant()

    def test_zero_one_constants(self):
        assert ZERO.is_zero()
        assert (ONE - Expr.number(1)).is_zero()

    def test_variables(self, coords):
        u = coords.var("u")
        assert str(u) == "u"
        assert not u.is_constant()
        assert str(coords.jet("u", "xxt")) == "u_xxt"

    def test_power_printing(self, coords):
        x = coords.var("x")
        assert str(x * x * x) == "x^3"

    def test_fraction_printing(self, coords):
        x, y = coords.var("x"), coords.var("y")
        q = x / (x + y)
        text = str(q)
        assert "/" in text and "(" in text

    def test_rational_coefficient_printing(self, coords):
        y = coords.var("y")
        assert str(y * Fraction(1, 2)) == "1/2*y"


class TestArithmetic:
    def test_field_axioms_seeded(self, coords):
        rng = random.Random(20260813)
        pool = atom_pool(coords, max_order=1)
        for _ in range(60):
            a = random_rational(coords, rng, pool=pool)
            b = random_rational(coords, rng, pool=pool)
            c = random_rational(coords, rng, pool=pool)
            assert (a + b - (b + a)).is_zero()
            assert (a * b - b * a).is_zero()
            assert ((a + b) + c - (a + (b + c))).is_zero()
            assert ((a + b) * c - (a * c + b * c)).is_zero()
            assert (a - a).is_zero()
            if not a.is_zero():
                assert ((a / a) - ONE).is_zero()
                assert (a * (b / a) - b).is_zero()

    def test_division_by_zero(self, coords):
        with pytest.raises(DivisionByZero):
            coords.var("x") / ZERO

    def test_negation_and_subtraction(self, coords):
        x = coords.var("x")
        assert ((-x) + x).is_zero()
        assert (x - 2 * x + x).is_zero()

    def test_integer_mixing(self, coords):
        x = coords.var("x")
        assert ((x + 1) * (x - 1) - (x * x - 1)).is_zero()

    def test_pow(self, coords):
        x = coords.var("x")
        assert ((x ** 3) - x * x * x).is_zero()
        assert ((x ** 0) - ONE).is_zero()


class TestCanonicalForm:
    def test_cancellation(self, coords):
        x, y = coords.var("x"), coords.var("y")
        q = (x * x - y * y) / (x - y)
        assert (q - (x + y)).is_zero()
        assert str(q) == "x + y"

    def test_denominator_normalization(self, coords):
        """Equal fractions print identically regardless of construction."""
        x, y = coords.var("x"), coords.var("y")
        a = x / (2 * y)
        b = (3 * x) / (6 * y)
        assert str(a) == str(b)

    def test_num_den_coprime_seeded(self, coords):
        rng = random.Random(99)
        pool = atom_pool(coords, max_order=1)
        for _ in range(40):
            e = random_rational(coords, rng, pool=pool)
            g = poly_gcd(e.numerator(), e.denominator())
            assert g.is_constant(), str(e)

    def test_sympy_cross_check_seeded(self, coords):
        """Canonical quotients agree with an independent CAS."""
        rng = random.Random(424242)
        pool = atom_pool(coords, max_order=1)
        for _ in range(15):
            a = random_polynomial(coords, rng, pool=pool)
            b = random_polynomial(coords, rng, pool=pool, terms=2)
            if b.is_zero():
                continue
            mine = to_sympy(a / b)
            theirs = to_sympy(a) / to_sympy(b)
            assert sympy.simplify(mine - theirs) == 0


class TestQueries:
    def test_coeffs_in(self, coords):
        lam = coords.var("lam")
        u = coords.var("u")
        e = lam * lam - u
        lv = coords.spectral_var()
        cs = e.coeffs_in(lv)
        assert (cs[0] + u).is_zero()
        assert 1 not in cs
        assert (cs[2] - ONE).is_zero()

    def test_coeffs_in_rejects_denominator(self, coords):
        lam = coords.var("lam")
        with pytest.raises(NotPolynomialIn):
            (ONE / lam).coeffs_in(coords.spectral_var())

    def test_partial(self, coords):
        x, y = coords.var("x"), coords.var("y")
        e = x * x * y
        xv = next(v for v in e.vars() if v.name == "x")
        assert (e.partial(xv) - 2 * x * y).is_zero()

    def test_partial_quotient_rule(self, coords):
        x, y = coords.var("x"), coords.var("y")
        xv = next(v for v in (x / y).vars() if v.name == "x")
        q = x / (x + y)
        expected = y / ((x + y) * (x + y))
        assert (q.partial(xv) - expected).is_zero()

    def test_subs_var(self, coords):
        x, y = coords.var("x"), coords.var("y")
        e = x * x + y
        xv = next(v for v in e.vars() if v.name == "x")
        assert (e.subs_var(xv, y) - (y * y + y)).is_zero()

    def test_eval_rational(self, coords):
        x, y = coords.var("x"), coords.var("y")
        e = (x * x + y) / (x - y)
        point = {next(v for v in e.vars() if v.name == "x"): Fraction(3),
                 next(v for v in e.vars() if v.name == "y"): Fraction(1)}
        assert e.eval_rational(point) == Fraction(10, 2)

    def test_is_polynomial(self, coords):
        x, y = coords.var("x"), coords.var("y")
        assert (x * y + 1).is_polynomial()
        assert not (x / y).is_polynomial()


class TestPolyHelpers:
    def test_divexact_inverts_multiplication(self, coords):
        rng = random.Random(5)
        pool = atom_pool(coords, max_order=0)
        for _ in range(20):
            a = random_polynomial(coords, rng, pool=pool, terms=2)
            c = random_polynomial(coords, rng, pool=pool, terms=2)
            if c.is_zero():
                continue
            quot = poly_divexact(a * c, c)
            assert quot is not None and (quot - a).is_zero()

    def test_divexact_rejects_non_divisor(self, coords):
        x, y = coords.var("x"), coords.var("y")
        assert poly_divexact(x * x - y * y, x + 1) is None

    def test_gcd_divides_both(self, coords):
        rng = random.Random(6)
        pool = atom_pool(coords, max_order=0)
        for _ in range(20):
            a = random_polynomial(coords, rng, pool=pool, terms=2)
            b = random_polynomial(coords, rng, pool=pool, terms=2)
            c = random_polynomial(coords, rng, pool=pool, terms=2)
            g = poly_gcd(a * c, b * c)
            if (a * c).is_zero() and (b * c).is_zero():
                continue
            assert poly_divexact(a * c, g) is not None
            assert poly_divexact(b * c, g) is not None
            if not c.is_zero() and not (a.is_zero() and b.is_zero()):
                assert poly_divexact(g, c) is not None

    def test_gcd_requires_polynomials(self, coords):
        x, y = coords.var("x"), coords.var("y")
        with pytest.raises(NotPolynomialIn):
            poly_gcd(x / y, x)


def _assert_gcd_matches_sympy(a: Expr, b: Expr) -> Expr:
    """``poly_gcd`` is integer-primitive and a rational multiple of sympy's
    gcd, and ``a/b`` is the same reduced fraction as ``sympy.cancel``."""
    g = poly_gcd(a, b)
    coeffs = g.num.values()
    assert all(c.denominator == 1 for c in coeffs)
    assert reduce(math.gcd, (c.numerator for c in coeffs)) == 1
    assert not str(g).startswith("-")
    sa, sb = to_sympy(a), to_sympy(b)
    ratio = sympy.cancel(to_sympy(g) / sympy.gcd(sa, sb))
    assert ratio.is_Rational and ratio != 0, (str(a), str(b), str(g))
    q = a / b
    num, den = sympy.fraction(sympy.cancel(sa / sb))
    assert sympy.cancel(to_sympy(q.denominator()) / den).is_Rational
    assert sympy.expand(to_sympy(q.numerator()) * den - num
                        * to_sympy(q.denominator())) == 0
    return g


class TestGcdAcrossVariableSets:
    """Operands over different variable sets: the gcd is taken over their
    shared variables only."""

    def test_jet_numerator_over_lam_denominators(self, coords):
        lam = coords.var("lam")
        u, ux, ut, uy = (coords.jet("u", d) for d in ("", "x", "t", "y"))
        rng = random.Random(2026)
        pool = [u, ux, ut, uy, lam]
        for k in range(1, 6):
            for den in ((lam + 2) ** k, 3 * lam - 1):
                jets = random_polynomial(coords, rng, pool=pool, terms=6,
                                         factors=3)
                for num in (jets * (lam + 2) ** rng.randint(0, 3),
                            jets * (3 * lam - 1) + u * ux,
                            jets * (lam + 2) * (3 * lam - 1)):
                    if num.is_zero():
                        continue
                    _assert_gcd_matches_sympy(num, den)

    def test_gcd_keeps_lam_power(self, coords):
        lam = coords.var("lam")
        u, ux = coords.var("u"), coords.jet("u", "x")
        num = (u * ux * lam - 3 * ux + lam * lam) * (lam + 2) ** 3
        g = _assert_gcd_matches_sympy(num, (lam + 2) ** 5)
        assert str(g) == str((lam + 2) ** 3)
        assert str(num / (lam + 2) ** 5) == str(
            (u * ux * lam - 3 * ux + lam * lam) / (lam + 2) ** 2)

    def test_strict_superset(self, coords):
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        common = x + 2 * y - 1
        a = common * (t * x + y * y + t) * (x - t)
        b = common * (x * x - 3 * y)
        g = _assert_gcd_matches_sympy(a, b)
        assert str(g) == str(common)
        _assert_gcd_matches_sympy(b, a)
        _assert_gcd_matches_sympy(a, x * x - 3 * y)

    def test_disjoint_sets(self, coords):
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        u, lam = coords.var("u"), coords.var("lam")
        a = (x * u + 1) * (x - u)
        b = (y * t - lam) * (lam + 2)
        assert poly_gcd(a, b) == ONE
        _assert_gcd_matches_sympy(a, b)
        assert poly_gcd(2 * x * a, 4 * x * b) == x

    def test_rational_operands_without_shared_factor(self, coords):
        """Non-primitive rational operands that share only monomial
        content: a single term, or the rest over disjoint variables."""
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        u, lam = coords.var("u"), coords.var("lam")
        a = Fraction(2, 3) * x * x * y * (x * u + 1) * (x - u)
        b = Fraction(9, 4) * x * y * t * (y * t - lam)
        assert poly_gcd(a, b) == x * y
        assert poly_gcd(Fraction(4, 3) * x * x * u,
                        Fraction(6, 5) * x * (x * u + y)) == x
        rng = random.Random(1618)
        for _ in range(10):
            p = random_polynomial(coords, rng, pool=[x, u], terms=4)
            q = random_polynomial(coords, rng, pool=[y, t, lam], terms=4)
            if p.is_zero() or q.is_zero():
                continue
            for mp, mq in ((x * x * y, x * y * t), (ONE, t), (y, y * y)):
                _assert_gcd_matches_sympy(p * mp * Fraction(-5, 6),
                                          q * mq * Fraction(7, 3))

    def test_shared_factor_spans_shared_variables(self, coords):
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        u, ux, lam = coords.var("u"), coords.jet("u", "x"), coords.var("lam")
        common = x * y - t + 2 * x * t * t - 5
        a = common * (u * x + y) * (ux - t)
        b = common * common * (lam * y + t) * (lam - 3 * x)
        g = _assert_gcd_matches_sympy(a, b)
        assert str(g) == str(common)

    def test_seeded_private_variables(self, coords):
        rng = random.Random(314159)
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        u, ux, lam = coords.var("u"), coords.jet("u", "x"), coords.var("lam")
        shared = [x, y, t]
        for _ in range(25):
            common = random_polynomial(coords, rng, pool=shared, terms=3)
            a = random_polynomial(coords, rng, pool=shared + [u, ux])
            b = random_polynomial(coords, rng, pool=shared + [lam])
            if common.is_zero() or a.is_zero() or b.is_zero():
                continue
            _assert_gcd_matches_sympy(a * common, b * common)


def _dense_divisor(coords) -> Expr:
    x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
    u, ux = coords.var("u"), coords.jet("u", "x")
    b = (x + 2 * y - 3 * t + u + 1) * (x * x - y * t + ux + 5 * t - 2) \
        * (t - u * ux + Fraction(1, 2))
    assert len(b.num) >= 20
    return b


class TestDivexactLargeDivisors:
    def test_exact_quotient_matches_sympy(self, coords):
        rng = random.Random(271828)
        b = _dense_divisor(coords)
        sb = to_sympy(b)
        for _ in range(4):
            q = random_polynomial(coords, rng, terms=6, factors=2)
            if q.is_zero():
                continue
            quot = poly_divexact(q * b, b)
            assert quot == q
            sq, sr = sympy.div(to_sympy(q * b), sb)
            assert sr == 0
            assert sympy.expand(to_sympy(quot) - sq) == 0

    def test_late_failing_non_divisor(self, coords):
        """The remainder's leading term fails to divide only after every
        quotient term has been produced."""
        x, y = coords.var("x"), coords.var("y")
        b = _dense_divisor(coords)
        q = x * x * y - 3 * x * y + y * y + 7 * x - 1
        for r in (ONE, y - 2, Fraction(1, 3) * x * y):
            a = q * b + r
            assert poly_divexact(a, b) is None
            _, sr = sympy.div(to_sympy(a), to_sympy(b))
            assert sr != 0

    def test_dense_divisor_of_dense_divisor(self, coords):
        b = _dense_divisor(coords)
        assert poly_divexact(b * b, b) == b
        assert poly_divexact(b, b * b) is None


class TestPrintingRoundTrip:
    def test_ordering_deterministic(self, coords):
        x, y, t = coords.var("x"), coords.var("y"), coords.var("t")
        e1 = x + y * y + t
        e2 = t + x + y * y
        assert str(e1) == str(e2)

    def test_seeded_strings_stable(self, coords):
        rng = random.Random(77)
        pool = atom_pool(coords, max_order=1)
        seen = [str(random_rational(coords, rng, pool=pool)) for _ in range(5)]
        rng = random.Random(77)
        again = [str(random_rational(coords, rng, pool=pool)) for _ in range(5)]
        assert seen == again


def _reference_cmp(a: tuple, b: tuple) -> int:
    """The graded lexicographic comparison of monomials, written out:
    higher degree wins; at equal degree the first position where the
    monomials differ decides, where a smaller ``Var.key`` is more
    significant and a larger exponent there wins."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b):
            return 1
        if i >= len(a):
            return -1
        (va, ea), (vb, eb) = a[i], b[j]
        if va is vb:
            if ea != eb:
                return 1 if ea > eb else -1
            i += 1
            j += 1
        elif va.key < vb.key:
            return 1
        else:
            return -1
    return 0


_ORDER_VARS = [Var.base("x"), Var.base("t"), Var.spectral("lam"),
               Var.theta("x"), Var.theta("y"), Var.param("c_x_0"),
               Var.param("c_t_3"), Var.jet("u", ()), Var.jet("u", ("x",)),
               Var.jet("u", ("x", "y")), Var.jet("v", ("t",))]


def _monomial(exponents: dict) -> tuple:
    return tuple(sorted(((v, e) for v, e in exponents.items() if e),
                        key=lambda t: t[0].key))


def _seeded_monomials(rng: random.Random, count: int) -> list:
    """Random monomials over all five variable kinds, each followed by an
    equal-degree partner that differs from it only in two exponents."""
    out = []
    for _ in range(count):
        chosen = rng.sample(_ORDER_VARS, rng.randint(0, 4))
        exps = {v: rng.randint(1, 4) for v in chosen}
        out.append(_monomial(exps))
        if len(chosen) >= 2:
            a, b = rng.sample(chosen, 2)
            if exps[a] > 1:
                moved = dict(exps)
                moved[a] -= 1
                moved[b] += 1
                out.append(_monomial(moved))
    return out


class TestMonomialOrder:
    """``_m_key`` is the one encoding of the monomial order; it must agree
    with the comparison written out in ``_reference_cmp``."""

    def test_all_kinds_present(self):
        assert {v.kind for v in _ORDER_VARS} == set(range(5))

    def test_sorting_matches_reference(self):
        rng = random.Random(4242)
        monos = list(set(_seeded_monomials(rng, 300)))
        assert len(monos) > 300
        want = sorted(monos, key=cmp_to_key(_reference_cmp), reverse=True)
        assert sorted(monos, key=_m_key) == want

    def test_equal_degree_exponent_pairs(self):
        x, t, u = Var.base("x"), Var.base("t"), Var.jet("u", ())
        pairs = [(_monomial({x: 2, t: 1}), _monomial({x: 1, t: 2})),
                 (_monomial({x: 1, u: 3}), _monomial({x: 2, u: 2})),
                 (_monomial({t: 3, u: 1}), _monomial({t: 1, u: 3}))]
        for a, b in pairs:
            assert _reference_cmp(a, b) != 0
            assert (_m_key(a) < _m_key(b)) == (_reference_cmp(a, b) > 0)

    def test_leading_term_matches_reference(self):
        rng = random.Random(99)
        for _ in range(200):
            monos = _seeded_monomials(rng, rng.randint(1, 6))
            poly = {m: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    for m in monos}
            lead, coeff = _p_leading(poly)
            best = max(poly, key=cmp_to_key(_reference_cmp))
            assert lead == best and coeff == poly[best]


class TestSubsVar:
    """``Expr.subs_var`` against sympy's ``p.subs(v, q)``, expanded for
    polynomials and cancelled for rational functions."""

    def _check(self, p: Expr, v: Var, q: Expr) -> None:
        got = p.subs_var(v, q)
        want = to_sympy(p).subs(sympy.Symbol(v.name), to_sympy(q))
        if p.is_polynomial() and q.is_polynomial():
            assert got.is_polynomial()
        assert sympy.cancel(to_sympy(got) - want) == 0, (str(p), v, str(q))

    def test_seeded_against_sympy(self, coords):
        rng = random.Random(1618)
        pool = atom_pool(coords, max_order=1)
        x, u = coords.var("x"), coords.jet("u", "")
        xv = Var.base("x")
        for _ in range(25):
            p = random_polynomial(coords, rng, pool=pool, terms=5, factors=3)
            p = p + random_fraction(rng) * x ** rng.randint(3, 5) * u
            q = random_polynomial(coords, rng, pool=pool, terms=3, factors=2)
            self._check(p, xv, q)

    def test_special_values(self, coords):
        x, y, u = coords.var("x"), coords.var("y"), coords.jet("u", "")
        xv = Var.base("x")
        p = 3 * x ** 4 * y - x ** 3 + Fraction(1, 2) * x * u + y - 7
        for q in (ZERO, Expr.number(Fraction(-2, 3)), y * u - 1,
                  x + y, u ** 2 + 3 * y * u - Fraction(1, 5)):
            self._check(p, xv, q)
        assert p.subs_var(xv, ZERO) == y - 7
        assert ZERO.subs_var(xv, y) == ZERO

    def test_absent_variable(self, coords):
        y, u = coords.var("y"), coords.jet("u", "")
        p = y ** 3 - 2 * u * y + 1
        assert p.subs_var(Var.base("x"), u + 5) == p
        self._check(p, Var.base("x"), u + 5)

    def test_rational_arguments(self, coords):
        x, y, u = coords.var("x"), coords.var("y"), coords.jet("u", "")
        xv = Var.base("x")
        self._check(x / y, xv, y)
        self._check(x * y, xv, 1 / y)
        self._check((x ** 3 - u) / (x + y), xv, (u + 1) / (y - 2))
        assert (x / y).subs_var(xv, y) == ONE
        with pytest.raises(DivisionByZero):
            (u / (x - y)).subs_var(xv, y)
