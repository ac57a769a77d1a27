"""Shared fixtures and seeded expression factories for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from laxweyl import Coordinates, Expr, ONE, ZERO, corpus


@pytest.fixture(scope="session")
def dkp():
    return corpus.load("dkp")


@pytest.fixture(scope="session")
def manakov_santini():
    return corpus.load("manakov_santini")


@pytest.fixture(scope="session")
def master_ew():
    return corpus.load("master_ew")


@pytest.fixture(scope="session")
def second_heavenly():
    return corpus.load("second_heavenly")


@pytest.fixture(scope="session")
def flat_counterexample():
    return corpus.load("flat_counterexample")


@pytest.fixture(scope="session")
def dkp_broken():
    return corpus.load("dkp_broken")


@pytest.fixture(scope="session")
def coords3():
    return Coordinates(("x", "y", "t"), ("u",))


@pytest.fixture(scope="session")
def coords4():
    return Coordinates(("z", "x", "y", "t"), ("u",))


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def atom_pool(coords: Coordinates, max_order: int = 2,
              spectral: bool = False) -> list:
    """Base coordinates plus all jets of every unknown up to ``max_order``."""
    pool = [coords.var(b) for b in coords.base]
    for unknown in coords.unknowns:
        for order in range(max_order + 1):
            for alpha in coords.multi_indices(order):
                pool.append(Expr.variable(coords.jet_var(unknown, alpha)))
    if spectral:
        pool.append(coords.var(coords.spectral))
    return pool


def random_polynomial(coords: Coordinates, rng: random.Random, *,
                      pool=None, terms: int = 4, factors: int = 2) -> Expr:
    """A random sparse polynomial in jets and base coordinates."""
    if pool is None:
        pool = atom_pool(coords)
    e = ZERO
    for _ in range(rng.randint(1, terms)):
        term = Expr.number(random_fraction(rng))
        for _ in range(rng.randint(0, factors)):
            term = term * pool[rng.randrange(len(pool))]
        e = e + term
    return e


def random_rational(coords: Coordinates, rng: random.Random, *,
                    pool=None) -> Expr:
    """A random rational expression (nonzero denominator by construction)."""
    num = random_polynomial(coords, rng, pool=pool)
    den = ZERO
    while den.is_zero():
        den = random_polynomial(coords, rng, pool=pool, terms=2, factors=1)
    return num / den


def random_jet_expression(coords: Coordinates, rng: random.Random, *,
                          pool=None, spectral: bool = True) -> Expr:
    """A random jet expression as the derivative-heavy properties see them:
    a sparse polynomial, possibly over a monomial power of one atom.

    Multi-term denominators are exercised separately in small sizes; the
    bulk property loops stay polynomial-over-monomial so that hundreds of
    second total derivatives finish in seconds."""
    if pool is None:
        pool = atom_pool(coords, max_order=2, spectral=spectral)
    e = random_polynomial(coords, rng, pool=pool)
    if rng.random() < 0.4:
        e = e / pool[rng.randrange(len(pool))] ** rng.randint(1, 2)
    return e


def random_spectral_curve(coords: Coordinates, rng: random.Random) -> Expr:
    """One coordinate of a spectral curve: a polynomial of degree <= 4 in
    the spectral parameter, plus a simple pole at 0 a quarter of the time."""
    lam = coords.var(coords.spectral)
    degree = rng.randint(0, 4)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(degree + 1)]
    e = ZERO
    for k, co in enumerate(coeffs):
        e = e + co * lam ** k
    if rng.random() < 0.25:
        e = e + Fraction(rng.randint(1, 4)) / lam
    return e


def random_frame_4d(coords: Coordinates, rng: random.Random) -> tuple:
    """Coefficients ``(alpha, beta, gamma, delta)`` of a 4D frame, each
    affine in the spectral parameter with monomial jet coefficients.  The
    spectral Jacobian ``z2`` may vanish."""
    lam = coords.var(coords.spectral)
    atoms = [ONE, coords.var("u"), coords.jet("u", "x"), coords.jet("u", "yt"),
             coords.var("z")]

    def coefficient():
        return (atoms[rng.randrange(len(atoms))]
                * Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    return tuple(coefficient() + lam * coefficient() for _ in range(4))
