"""Exact rational expression kernel: canonical forms, arithmetic, printing."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from laxweyl import Coordinates, Expr, ONE, ZERO, poly_divexact, poly_gcd
from laxweyl.errors import DivisionByZero, NotPolynomialIn

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
    def test_degree_in(self, coords):
        x, y = coords.var("x"), coords.var("y")
        e = x * x * y + y
        xv = next(v for v in e.vars() if v.name == "x")
        assert e.degree_in(xv) == 2

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
