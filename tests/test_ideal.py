"""Solved systems: ranking, reduction modulo the differential ideal,
membership certificates."""

from __future__ import annotations

import random

import pytest

from laxweyl import (Coordinates, Expr, ONE, SolvedEquation, SolvedSystem,
                     ZERO, rank_key)
from laxweyl.errors import (DuplicatePrincipal, IdealDenominator,
                            OrderBudgetExceeded, RankingViolation)

from conftest import atom_pool, random_jet_expression


@pytest.fixture(scope="module")
def c3():
    return Coordinates(("x", "y", "t"), ("u",))


@pytest.fixture(scope="module")
def dkp_system(c3):
    rhs = (c3.jet("u", "yy") - c3.var("u") * c3.jet("u", "tt")
           - c3.jet("u", "t") ** 2)
    return SolvedSystem.single(c3, "u", "xt", rhs, name="F")


class TestRanking:
    def test_graded(self, c3):
        assert rank_key(c3, "u", (1, 0, 1)) > rank_key(c3, "u", (0, 1, 0))

    def test_ties_broken_lexicographically(self, c3):
        assert rank_key(c3, "u", (1, 0, 1)) > rank_key(c3, "u", (0, 2, 0))
        assert rank_key(c3, "u", (0, 2, 0)) > rank_key(c3, "u", (0, 0, 2))

    def test_rhs_must_rank_below_principal(self, c3):
        with pytest.raises(RankingViolation):
            SolvedSystem(c3, [SolvedEquation("u", (1, 0, 1),
                                             c3.jet("u", "ttt"))])

    def test_duplicate_principal_rejected(self, c3):
        eqs = [SolvedEquation("u", (1, 0, 1), c3.var("u")),
               SolvedEquation("u", (1, 0, 1), c3.var("x"))]
        with pytest.raises(DuplicatePrincipal):
            SolvedSystem(c3, eqs)


class TestReduce:
    def test_principal_reduces_to_rhs(self, c3, dkp_system):
        got = dkp_system.reduce(c3.jet("u", "xt"))
        assert (got - dkp_system.equations[0].rhs).is_zero()

    def test_residual_in_ideal(self, c3, dkp_system):
        res = dkp_system.equations[0].residual(c3)
        assert dkp_system.reduce(res).is_zero()

    def test_prolonged_consequences_vanish(self, c3, dkp_system):
        res = dkp_system.equations[0].residual(c3)
        for base in c3.base:
            assert dkp_system.reduce(c3.total_derivative(res, base)).is_zero()
        second = c3.total_derivative(
            c3.total_derivative(res, "x"), "t")
        assert dkp_system.reduce(second).is_zero()

    def test_nonmember_survives(self, c3, dkp_system):
        e = c3.jet("u", "tt")
        assert not dkp_system.reduce(e).is_zero()

    def test_normal_form_free_of_principal_derivatives(self, c3, dkp_system):
        e = c3.jet("u", "xxtt") + c3.jet("u", "xt") * c3.var("u")
        nf = dkp_system.reduce(e)
        for v in nf.vars():
            assert dkp_system.reduction_target(v) is None

    def test_idempotence_seeded(self, c3, dkp_system):
        rng = random.Random(41)
        pool = atom_pool(c3, max_order=3, spectral=True)
        for _ in range(30):
            e = random_jet_expression(c3, rng, pool=pool)
            once = dkp_system.reduce(e)
            assert (dkp_system.reduce(once) - once).is_zero()

    def test_linearity_mod_ideal(self, c3, dkp_system):
        rng = random.Random(42)
        pool = atom_pool(c3, max_order=3)
        for _ in range(10):
            a = random_jet_expression(c3, rng, pool=pool)
            b = random_jet_expression(c3, rng, pool=pool)
            lhs = dkp_system.reduce(a + b)
            rhs = dkp_system.reduce(a) + dkp_system.reduce(b)
            assert (lhs - rhs).is_zero()

    def test_multiplicativity_mod_ideal(self, c3, dkp_system):
        rng = random.Random(43)
        pool = atom_pool(c3, max_order=2)
        for _ in range(8):
            a = random_jet_expression(c3, rng, pool=pool)
            b = random_jet_expression(c3, rng, pool=pool)
            lhs = dkp_system.reduce(a * b)
            rhs = dkp_system.reduce(dkp_system.reduce(a) * dkp_system.reduce(b))
            assert (lhs - rhs).is_zero()


class TestCertificates:
    def test_cofactor_extract_roundtrip(self, c3, dkp_system):
        rng = random.Random(44)
        pool = atom_pool(c3, max_order=3)
        for _ in range(10):
            e = random_jet_expression(c3, rng, pool=pool)
            nf, cert = dkp_system.cofactor_extract(e)
            assert (nf - dkp_system.reduce(e)).is_zero()
            assert dkp_system.verify_certificate(e, nf, cert)

    def test_certificate_rejects_wrong_normal_form(self, c3, dkp_system):
        e = c3.jet("u", "xxt")
        nf, cert = dkp_system.cofactor_extract(e)
        assert not dkp_system.verify_certificate(e, nf + ONE, cert)


class TestGuards:
    def test_ideal_denominator(self, c3, dkp_system):
        res = dkp_system.equations[0].residual(c3)
        with pytest.raises(IdealDenominator):
            dkp_system.reduce(ONE / res)

    def test_order_budget(self, c3, dkp_system):
        budgeted = SolvedSystem(c3, dkp_system.equations, max_order=3)
        with pytest.raises(OrderBudgetExceeded,
                           match="reduction needs jet order 6, budget is 3"):
            budgeted.reduce(c3.jet("u", "xxxxxt"))

    def test_budget_permits_within_limit(self, c3, dkp_system):
        budgeted = SolvedSystem(c3, dkp_system.equations, max_order=4)
        got = budgeted.reduce(c3.jet("u", "xxt"))
        assert not got.is_zero()
        assert got == dkp_system.reduce(c3.jet("u", "xxt"))

    def test_budget_is_read_only(self, c3, dkp_system):
        budgeted = SolvedSystem(c3, dkp_system.equations, max_order=3)
        assert budgeted.max_order == 3
        assert dkp_system.max_order is None
        with pytest.raises(AttributeError):
            budgeted.max_order = 9

    @pytest.mark.parametrize("method, message", [
        ("reduce", "reduction needs jet order 6, budget is 3"),
        ("cofactor_extract", "certificate needs jet order 6, budget is 3"),
    ])
    def test_budget_does_not_depend_on_history(self, c3, method, message):
        """The same jet under the same budget raises whatever was reduced
        before, on this system or on an unbudgeted one with the same
        equations."""
        jet = c3.jet("u", "xxxxxt")
        rhs = (c3.jet("u", "yy") - c3.var("u") * c3.jet("u", "tt")
               - c3.jet("u", "t") ** 2)
        free = SolvedSystem.single(c3, "u", "xt", rhs, name="F")
        getattr(free, method)(jet)
        budgeted = SolvedSystem(c3, free.equations, max_order=3)
        for _ in range(2):
            with pytest.raises(OrderBudgetExceeded, match=message):
                getattr(budgeted, method)(jet)


class TestTwoEquationSystem:
    def test_cross_reduction(self, manakov_santini):
        """Both recorded equations and their prolongations reduce to zero."""
        doc = manakov_santini
        c, system = doc.coords, doc.system
        assert len(system.equations) == 2
        for eq in system.equations:
            res = eq.residual(c)
            assert system.reduce(res).is_zero()
            for base in c.base:
                prolonged = c.total_derivative(res, base)
                assert system.reduce(prolonged).is_zero()

    def test_mixed_product_reduces(self, manakov_santini):
        doc = manakov_santini
        c, system = doc.coords, doc.system
        r0 = system.equations[0].residual(c)
        r1 = system.equations[1].residual(c)
        mixed = r0 * c.jet("v", "t") - r1 * c.var("u") + r0 * r1
        assert system.reduce(mixed).is_zero()
