"""Exact linear algebra over the expression field."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from laxweyl import Coordinates, Expr, ONE, ZERO
from laxweyl.errors import DegenerateLinearSystem
from laxweyl import linalg

from conftest import random_fraction


@pytest.fixture(scope="module")
def coords():
    return Coordinates(("x", "y", "t"), ("u",))


def random_matrix(rng, n, entries="fraction", coords=None):
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if entries == "fraction":
                row.append(Expr.number(random_fraction(rng)))
            else:
                e = Expr.number(random_fraction(rng))
                if rng.random() < 0.5:
                    e = e + coords.var("u") * rng.randint(-2, 2)
                if rng.random() < 0.3:
                    e = e + coords.var("lam") * rng.randint(-2, 2)
                row.append(e)
        out.append(row)
    return out


class TestDeterminantAdjugate:
    def test_adjugate_identity_seeded(self, coords):
        rng = random.Random(31)
        for n in (2, 3, 4):
            for _ in range(8):
                a = random_matrix(rng, n, entries="expr", coords=coords)
                det = linalg.determinant(a)
                adj = linalg.adjugate(a)
                prod = linalg.mat_mul(a, adj)
                for i in range(n):
                    for j in range(n):
                        want = det if i == j else ZERO
                        assert (prod[i][j] - want).is_zero()

    def test_determinant_multiplicative(self, coords):
        rng = random.Random(32)
        for _ in range(10):
            a = random_matrix(rng, 3)
            b = random_matrix(rng, 3)
            lhs = linalg.determinant(linalg.mat_mul(a, b))
            rhs = linalg.determinant(a) * linalg.determinant(b)
            assert (lhs - rhs).is_zero()

    def test_singular_determinant(self):
        a = [[ONE, ONE], [ONE, ONE]]
        assert linalg.determinant(a).is_zero()


class TestInverse:
    def test_invert_roundtrip(self, coords):
        rng = random.Random(33)
        for _ in range(6):
            a = random_matrix(rng, 3, entries="expr", coords=coords)
            if linalg.determinant(a).is_zero():
                continue
            inv = linalg.invert(a)
            prod = linalg.mat_mul(a, inv)
            for i in range(3):
                for j in range(3):
                    assert (prod[i][j] - (ONE if i == j else ZERO)).is_zero()

    def test_invert_singular_raises(self):
        with pytest.raises(DegenerateLinearSystem):
            linalg.invert([[ONE, ONE], [ONE, ONE]])


class TestSolve:
    def test_solve_unique_seeded(self, coords):
        rng = random.Random(34)
        for _ in range(10):
            a = random_matrix(rng, 3)
            if linalg.determinant(a).is_zero():
                continue
            x = [Expr.number(random_fraction(rng)) for _ in range(3)]
            b = linalg.mat_vec(a, x)
            got = linalg.solve_unique(a, b)
            for xi, gi in zip(x, got):
                assert (xi - gi).is_zero()

    def test_solve_unique_singular_raises(self):
        with pytest.raises(DegenerateLinearSystem):
            linalg.solve_unique([[ONE, ONE], [ONE, ONE]], [ONE, ZERO])

    def test_solve_consistent_underdetermined(self):
        # x + y = 2 has solutions; solve returns one of them
        sol = linalg.solve([[ONE, ONE]], [2 * ONE])
        assert sol is not None
        assert (sol[0] + sol[1] - 2 * ONE).is_zero()

    def test_solve_inconsistent_returns_none(self):
        sol = linalg.solve([[ONE, ONE], [ONE, ONE]], [ONE, 2 * ONE])
        assert sol is None


class TestRankNullspace:
    def test_rank(self):
        assert linalg.rank([[ONE, ONE], [ONE, ONE]]) == 1
        assert linalg.rank([[ONE, ZERO], [ZERO, ONE]]) == 2
        assert linalg.rank([[ZERO, ZERO]]) == 0

    def test_nullspace_annihilates(self, coords):
        rng = random.Random(35)
        for _ in range(8):
            a = random_matrix(rng, 3)
            a[2] = [x + y for x, y in zip(a[0], a[1])]  # force rank deficiency
            basis = linalg.nullspace(a)
            assert len(basis) >= 1
            for vec in basis:
                out = linalg.mat_vec(a, list(vec))
                assert all(e.is_zero() for e in out)

    def test_rref_idempotent(self, coords):
        rng = random.Random(36)
        a = random_matrix(rng, 3, entries="expr", coords=coords)
        r1, pivots1 = linalg.rref(a)
        r2, pivots2 = linalg.rref(r1)
        assert pivots1 == pivots2
        for row1, row2 in zip(r1, r2):
            for e1, e2 in zip(row1, row2):
                assert (e1 - e2).is_zero()
