"""Jet coordinates, total derivatives, symbols, pullbacks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from laxweyl import Coordinates, Expr, ONE, ZERO, grid_point
from laxweyl.errors import KernelError

from conftest import (atom_pool, pullback, random_jet_expression,
                      random_polynomial, random_rational)


@pytest.fixture(scope="module")
def c3():
    return Coordinates(("x", "y", "t"), ("u",))


@pytest.fixture(scope="module")
def c4():
    return Coordinates(("z", "x", "y", "t"), ("u",))


class TestCoordinates:
    def test_dim(self, c3, c4):
        assert c3.dim == 3
        assert c4.dim == 4

    def test_jet_accessors_agree(self, c3):
        assert (c3.jet("u", "xxt")
                - Expr.variable(c3.jet_var("u", (2, 0, 1)))).is_zero()

    def test_unknown_required(self, c3):
        with pytest.raises(KernelError):
            c3.jet("w", "x")

    def test_bad_multi_index(self, c3):
        with pytest.raises(KernelError):
            c3.jet_var("u", (1, 0))

    def test_spectral_expression(self, c3):
        lam = c3.var("lam")
        assert str(lam) == "lam"

    def test_multi_indices_count(self, c3, c4):
        # order-2 multi-indices in d variables: C(d+1, 2)
        assert len(list(c3.multi_indices(2))) == 6
        assert len(list(c4.multi_indices(2))) == 10


class TestTotalDerivative:
    def test_chain_rule_on_jet(self, c3):
        assert (c3.total_derivative(c3.jet("u", "x"), "t")
                - c3.jet("u", "xt")).is_zero()

    def test_base_coordinate(self, c3):
        assert (c3.total_derivative(c3.var("x"), "x") - ONE).is_zero()
        assert c3.total_derivative(c3.var("x"), "y").is_zero()

    def test_leibniz(self, c3):
        rng = random.Random(11)
        pool = atom_pool(c3, max_order=2)
        for _ in range(25):
            a = random_polynomial(c3, rng, pool=pool)
            b = random_polynomial(c3, rng, pool=pool)
            for base in c3.base:
                lhs = c3.total_derivative(a * b, base)
                rhs = (c3.total_derivative(a, base) * b
                       + a * c3.total_derivative(b, base))
                assert (lhs - rhs).is_zero()

    def test_commutation_seeded(self, c3, c4):
        for coords, seed in ((c3, 1), (c4, 2)):
            rng = random.Random(seed)
            pool = atom_pool(coords, max_order=2, spectral=True)
            for _ in range(20):
                e = random_jet_expression(coords, rng, pool=pool)
                for i in range(coords.dim):
                    for j in range(i + 1, coords.dim):
                        bi, bj = coords.base[i], coords.base[j]
                        lhs = coords.total_derivative(
                            coords.total_derivative(e, bi), bj)
                        rhs = coords.total_derivative(
                            coords.total_derivative(e, bj), bi)
                        assert (lhs - rhs).is_zero()

    def test_commutation_multi_term_denominators(self, c3):
        """Small rational expressions with true multi-term denominators."""
        rng = random.Random(3)
        pool = atom_pool(c3, max_order=1, spectral=True)
        for _ in range(6):
            num = random_polynomial(c3, rng, pool=pool, terms=2, factors=1)
            den = ZERO
            while den.is_zero():
                den = (pool[rng.randrange(len(pool))]
                       + Expr.number(rng.randint(1, 3)))
            e = num / den
            lhs = c3.total_derivative(c3.total_derivative(e, "x"), "y")
            rhs = c3.total_derivative(c3.total_derivative(e, "y"), "x")
            assert (lhs - rhs).is_zero()

    def test_multi(self, c3):
        e = c3.var("u")
        assert (c3.total_derivative_multi(e, (1, 0, 2))
                - c3.jet("u", "xtt")).is_zero()

    def test_spectral_is_constant(self, c3):
        lam = c3.var("lam")
        assert c3.total_derivative(lam, "x").is_zero()


class TestJetSymbol:
    def test_examples(self, c3):
        u = c3.var("u")
        f = (c3.jet("u", "xt") + u * c3.jet("u", "tt")
             + c3.jet("u", "t") ** 2 - c3.jet("u", "yy"))
        sym = c3.jet_symbol(f, 2, "u")
        expected = (c3.theta_monomial((1, 0, 1))
                    + u * c3.theta_monomial((0, 0, 2))
                    - c3.theta_monomial((0, 2, 0)))
        assert (sym - expected).is_zero()

    def test_low_order_vanishes(self, c3):
        assert c3.jet_symbol(c3.jet("u", "t") ** 2, 2, "u").is_zero()

    def test_first_order(self, c3):
        assert (c3.jet_symbol(c3.jet("u", "t"), 1, "u")
                - c3.theta_monomial((0, 0, 1))).is_zero()

    def test_leibniz_with_total_derivative(self, c3):
        """Symbol of D_X e at order k+1 is theta(X) times the order-k symbol,
        for constant-component X."""
        rng = random.Random(13)
        pool = atom_pool(c3, max_order=2)
        for _ in range(25):
            e = random_polynomial(c3, rng, pool=pool)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            dxe = ZERO
            theta = ZERO
            for j, (base, cj) in enumerate(zip(c3.base, coeffs)):
                dxe = dxe + c3.total_derivative(e, base) * cj
                unit = tuple(1 if i == j else 0 for i in range(3))
                theta = theta + c3.theta_monomial(unit) * cj
            lhs = c3.jet_symbol(dxe, 3, "u")
            rhs = theta * c3.jet_symbol(e, 2, "u")
            assert (lhs - rhs).is_zero()


class TestPullback:
    def test_zero_jet_substitution(self, c3):
        """Pulling back an unknown substitutes its image."""
        master = Coordinates(("x", "y", "t"), ("a", "b"))
        images = {"a": c3.jet("u", "t"), "b": c3.var("u")}
        e = master.var("a") * master.var("b")
        assert (pullback(e, master, c3, images)
                - c3.jet("u", "t") * c3.var("u")).is_zero()

    def test_jets_prolong(self, c3):
        """Jets of the source unknown become total derivatives of the image."""
        master = Coordinates(("x", "y", "t"), ("a",))
        images = {"a": c3.jet("u", "t")}
        e = master.jet("a", "xy")
        assert (pullback(e, master, c3, images) - c3.jet("u", "xyt")).is_zero()

    def test_commutes_with_total_derivative(self, c3):
        master = Coordinates(("x", "y", "t"), ("a", "b"))
        images = {"a": c3.jet("u", "t") + c3.var("u") ** 2,
                  "b": c3.var("u") - c3.jet("u", "y")}
        rng = random.Random(17)
        pool = atom_pool(master, max_order=1)
        for _ in range(10):
            e = random_polynomial(master, rng, pool=pool)
            for base in master.base:
                lhs = pullback(master.total_derivative(e, base),
                               master, c3, images)
                rhs = c3.total_derivative(pullback(e, master, c3, images),
                                          base)
                assert (lhs - rhs).is_zero()

    def test_spectral_preserved(self, c3):
        master = Coordinates(("x", "y", "t"), ("a",))
        images = {"a": c3.var("u")}
        lam = master.var("lam")
        assert (pullback(lam * lam, master, c3, images)
                - c3.var("lam") * c3.var("lam")).is_zero()


class TestGridPoint:
    def test_assignment(self, c3):
        point = grid_point(c3, {"x": Fraction(1), "y": Fraction(2),
                                "t": Fraction(0)})
        e = c3.var("x") + c3.var("y") * 3
        assert e.eval_rational(point) == Fraction(7)
